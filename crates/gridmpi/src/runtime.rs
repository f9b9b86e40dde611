//! Launching rank programs and collecting run reports.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use tsqr_netsim::{CostModel, FailureSchedule, GridTopology, VirtualTime};

use crate::comm::Communicator;
use crate::error::CommError;
use crate::hb::{HbReport, VectorClock};
use crate::message::Envelope;
use crate::metrics::MetricsRegistry;
use crate::process::{DeliveryOrder, Process, RankStats, TrafficCounters};
use crate::trace::{Recorder, Trace};

/// Outcome of one rank: its program result (or communication error) plus
/// its final statistics.
#[derive(Debug, Clone)]
pub struct RankResult<T> {
    /// What the rank program returned.
    pub result: Result<T, CommError>,
    /// Final clock and traffic counters.
    pub stats: RankStats,
}

/// Aggregated outcome of a run.
#[derive(Debug, Clone)]
pub struct RunReport<T> {
    /// Per-rank results, indexed by rank.
    pub ranks: Vec<RankResult<T>>,
    /// The simulated wall-clock time of the whole program — the largest
    /// final virtual clock across ranks. This is the `time` of Eq. (1).
    pub makespan: VirtualTime,
    /// Sum of all per-rank traffic counters.
    pub totals: TrafficCounters,
    /// The merged event trace, when tracing was enabled.
    pub trace: Option<Trace>,
    /// Per-rank phase metrics (always collected), indexed by rank.
    pub metrics: Vec<MetricsRegistry>,
    /// Each rank's final vector clock (see [`crate::hb`]), indexed by
    /// rank. Always collected — the clocks are a few words per rank.
    pub vector_clocks: Vec<Vec<u64>>,
}

/// Structured join of a run: who finished, who failed, and the partial
/// observability data of both (satellite of the fault-injection work —
/// failure is an *outcome*, not a panic; see `docs/fault-injection.md`).
#[derive(Debug, Clone)]
pub struct RunOutcome<T> {
    /// `(rank, value)` for every rank whose program returned `Ok`,
    /// ascending by rank.
    pub survivors: Vec<(usize, T)>,
    /// `(rank, error)` for every rank whose program returned `Err`,
    /// ascending by rank.
    pub failures: Vec<(usize, CommError)>,
    /// The simulated makespan — failed ranks still advanced their clocks
    /// up to the failure instant.
    pub makespan: VirtualTime,
    /// Traffic totals, including the partial work of failed ranks.
    pub totals: TrafficCounters,
    /// Per-rank phase metrics (indexed by rank); failed ranks keep the
    /// metrics they accumulated before dying.
    pub metrics: Vec<MetricsRegistry>,
    /// The merged event trace, when tracing was enabled.
    pub trace: Option<Trace>,
}

impl<T> RunOutcome<T> {
    /// True when every rank program returned `Ok`.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// The ranks that failed, ascending.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.failures.iter().map(|&(r, _)| r).collect()
    }

    /// One-line human summary (`"64 ok, 1 failed: rank 37 crashed …"`).
    ///
    /// When tracing was enabled and some rank timed out on the
    /// wall-clock safety net, the summary also *names the deadlock
    /// cycle* the happens-before analyzer found (e.g. `deadlock cycle
    /// 0 → 1 → 0`), so the operator sees who was waiting on whom instead
    /// of a bare timeout.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return format!("{} ranks ok", self.survivors.len());
        }
        let what: Vec<String> =
            self.failures.iter().map(|(r, e)| format!("rank {r}: {e}")).collect();
        let mut out = format!(
            "{} ok, {} failed — {}",
            self.survivors.len(),
            self.failures.len(),
            what.join("; ")
        );
        let timed_out =
            self.failures.iter().any(|(_, e)| matches!(e, CommError::Timeout { .. }));
        if timed_out {
            if let Some(trace) = &self.trace {
                for cycle in trace.deadlock_cycles() {
                    out.push_str(&format!(
                        "; deadlock cycle {}",
                        HbReport::cycle_string(&cycle)
                    ));
                }
            }
        }
        out
    }
}

impl<T> RunReport<T> {
    /// Converts the report into a structured [`RunOutcome`], partitioning
    /// ranks into survivors and failures while keeping everyone's partial
    /// metrics, counters and trace. This is the non-panicking join to
    /// use whenever a failure schedule is in force.
    pub fn outcome(self) -> RunOutcome<T> {
        let mut survivors = Vec::new();
        let mut failures = Vec::new();
        for (rank, rr) in self.ranks.into_iter().enumerate() {
            match rr.result {
                Ok(v) => survivors.push((rank, v)),
                Err(e) => failures.push((rank, e)),
            }
        }
        RunOutcome {
            survivors,
            failures,
            makespan: self.makespan,
            totals: self.totals,
            metrics: self.metrics,
            trace: self.trace,
        }
    }

    /// Folds every rank's [`MetricsRegistry`] into one run-wide registry
    /// (phases in the order rank 0 first entered them, then any phases
    /// only other ranks saw).
    pub fn aggregate_metrics(&self) -> MetricsRegistry {
        let mut out = MetricsRegistry::default();
        for m in &self.metrics {
            out.merge(m);
        }
        out
    }
}

/// A simulated machine: topology + cost model + optional failure injection.
///
/// `run` launches one OS thread per rank and blocks until all rank programs
/// return. Rank counts used in this workspace (≤ 256) are comfortably
/// within OS thread limits.
pub struct Runtime {
    topo: Arc<GridTopology>,
    model: Arc<CostModel>,
    schedule: FailureSchedule,
    recv_timeout: Duration,
    tracing: bool,
    delivery: DeliveryOrder,
}

impl Runtime {
    /// Builds a runtime for the given grid.
    pub fn new(topo: GridTopology, model: CostModel) -> Self {
        let model = model.validated_for(&topo);
        Runtime {
            topo: Arc::new(topo),
            model: Arc::new(model),
            schedule: FailureSchedule::default(),
            recv_timeout: crate::process::DEFAULT_RECV_TIMEOUT,
            tracing: false,
            delivery: DeliveryOrder::default(),
        }
    }

    /// Installs a pending-buffer [`DeliveryOrder`] — the DPOR-lite
    /// explorer's lever. Deterministic programs (no wildcard receives)
    /// produce bit-identical results under every order; the explorer
    /// asserts exactly that.
    pub fn set_delivery_order(&mut self, order: DeliveryOrder) -> &mut Self {
        self.delivery = order;
        self
    }

    /// Records every send/receive/compute with its virtual-time span; the
    /// merged [`Trace`] is returned in the run report.
    pub fn enable_tracing(&mut self) -> &mut Self {
        self.tracing = true;
        self
    }

    /// Overrides the wall-clock deadlock timeout on receives (useful for
    /// failure-injection tests, where some rank is expected to starve).
    pub fn set_recv_timeout(&mut self, timeout: Duration) -> &mut Self {
        self.recv_timeout = timeout;
        self
    }

    /// Injects a deterministic failure on the directed link `src → dst`:
    /// subsequent sends return [`CommError::LinkDown`]. (Shorthand for a
    /// one-rule [`FailureSchedule`]; composes with any schedule already
    /// installed.)
    pub fn fail_link(&mut self, src: usize, dst: usize) -> &mut Self {
        self.schedule = std::mem::take(&mut self.schedule).fail_link(src, dst);
        self
    }

    /// Installs a full [`FailureSchedule`] — rank crashes, transient
    /// drops, degradation windows (replacing any schedule previously
    /// installed, including `fail_link` rules).
    pub fn set_failure_schedule(&mut self, schedule: FailureSchedule) -> &mut Self {
        self.schedule = schedule;
        self
    }

    /// The failure schedule currently in force (empty by default).
    pub fn failure_schedule(&self) -> &FailureSchedule {
        &self.schedule
    }

    /// The topology this runtime simulates.
    pub fn topology(&self) -> &GridTopology {
        &self.topo
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Runs `program` on every rank and gathers the report.
    ///
    /// The program receives the rank's [`Process`] handle and the *world*
    /// communicator spanning all ranks.
    // archlint: allow(taint) — this is the one sanctioned thread spawn:
    // ranks run as OS threads, but every result is a function of the
    // virtual-time cost model alone. That schedule-independence is
    // *proved*, not assumed: the happens-before gate, the DPOR-lite
    // explorer and the TSan CI job all police this boundary.
    pub fn run<T, F>(&self, program: F) -> RunReport<T>
    where
        T: Send,
        F: Fn(&mut Process, &Communicator) -> Result<T, CommError> + Sync,
    {
        let n = self.topo.num_procs();
        assert!(n > 0, "cannot run on an empty topology");
        let (senders, inboxes): (Vec<_>, Vec<_>) =
            (0..n).map(|_| mpsc::channel::<Envelope>()).unzip();
        let schedule = Arc::new(self.schedule.clone());

        let mut rank_results: Vec<Option<RankResult<T>>> = (0..n).map(|_| None).collect();
        let mut rank_traces: Vec<Vec<crate::trace::Event>> = (0..n).map(|_| Vec::new()).collect();
        let mut rank_metrics: Vec<MetricsRegistry> = (0..n).map(|_| Default::default()).collect();
        let mut rank_vcs: Vec<Vec<u64>> = (0..n).map(|_| Vec::new()).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (rank, inbox) in inboxes.into_iter().enumerate() {
                let senders = senders.clone();
                let topo = Arc::clone(&self.topo);
                let model = Arc::clone(&self.model);
                let schedule = Arc::clone(&schedule);
                let program = &program;
                handles.push(scope.spawn(move || {
                    let crash_at = schedule.crash_time(rank);
                    let mut proc = Process {
                        rank,
                        size: n,
                        topo,
                        model,
                        schedule,
                        crash_at,
                        death_announced: false,
                        dead: BTreeMap::new(),
                        sent_seq: vec![0; n],
                        senders,
                        inbox,
                        pending: VecDeque::new(),
                        clock: VirtualTime::ZERO,
                        nic_free: VirtualTime::ZERO,
                        counters: TrafficCounters::default(),
                        recv_timeout: self.recv_timeout,
                        recorder: self.tracing.then(Recorder::default),
                        phase_stack: Vec::new(),
                        metrics: MetricsRegistry::default(),
                        vc: VectorClock::new(n),
                        delivery: self.delivery,
                        buffered: 0,
                    };
                    let world = Communicator::world(n);
                    let result = program(&mut proc, &world);
                    // A program that failed will never send again: announce
                    // the abort so peers fail fast in virtual time instead
                    // of hitting the wall-clock safety net. (Crashed ranks
                    // already announced inside check_alive; the broadcast
                    // is idempotent.)
                    if result.is_err() {
                        proc.announce_abort();
                    }
                    // Close any phases the program left open so phase
                    // spans are recorded even on early error returns.
                    while proc.current_phase().is_some() {
                        proc.phase_end();
                    }
                    let events = proc.recorder.take().map(|r| r.events).unwrap_or_default();
                    let vc = proc.vc.as_slice().to_vec();
                    (
                        RankResult {
                            result,
                            stats: RankStats { clock: proc.clock, traffic: proc.counters },
                        },
                        events,
                        proc.metrics,
                        vc,
                        // Hand the inbox back instead of dropping it: a
                        // rank that exits early (crash/abort) must not
                        // disconnect its channel while peers are still
                        // sending, or those sends would race the thread's
                        // real-time exit and spuriously fail with
                        // PeerGone (a rare schedule-dependent flake the
                        // commcheck explorer caught). Keeping every
                        // receiver alive until all ranks joined makes
                        // send-to-a-finished-rank deterministic: the
                        // message is priced, delivered nowhere, and the
                        // failure surfaces in *virtual* time through the
                        // tombstone machinery instead.
                        proc.inbox,
                    )
                }));
            }
            let mut parked_inboxes = Vec::with_capacity(n);
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok((rr, events, metrics, vc, inbox)) => {
                        rank_results[rank] = Some(rr);
                        rank_traces[rank] = events;
                        rank_metrics[rank] = metrics;
                        rank_vcs[rank] = vc;
                        parked_inboxes.push(inbox);
                    }
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
            drop(parked_inboxes);
        });

        let mut ranks: Vec<RankResult<T>> =
            rank_results.into_iter().map(|r| r.expect("all ranks joined")).collect();
        let makespan =
            ranks.iter().map(|r| r.stats.clock).max().unwrap_or(VirtualTime::ZERO);
        let totals = ranks
            .iter()
            .fold(TrafficCounters::default(), |acc, r| acc.merge(&r.stats.traffic));
        let trace = self
            .tracing
            .then(|| Trace::from_parts(rank_traces.into_iter().flatten().collect()));
        if let Some(trace) = &trace {
            // With the analyzer's evidence in hand, upgrade bare wall-clock
            // timeouts to *named* deadlocks: a rank whose receive timed out
            // and who sits on a cycle of the trace's wait-for graph was not
            // merely slow — it was deadlocked, and its error should say on
            // whom (see `docs/static-analysis.md`).
            let cycles = trace.deadlock_cycles();
            if !cycles.is_empty() {
                for (rank, rr) in ranks.iter_mut().enumerate() {
                    // Both shapes of an orphaned wait: the timer fired, or
                    // the peers' threads exited first (the disconnect
                    // merely raced the timer — see `Process::recv`).
                    let (r, from) = match &rr.result {
                        Err(CommError::Timeout { rank: r, from })
                        | Err(CommError::PeerGone { rank: r, from }) => (*r, *from),
                        _ => continue,
                    };
                    if let Some(cycle) =
                        cycles.iter().find(|c| c.contains(&rank)).cloned()
                    {
                        rr.result = Err(CommError::Deadlock { rank: r, from, cycle });
                    }
                }
            }
        }
        RunReport { ranks, makespan, totals, trace, metrics: rank_metrics, vector_clocks: rank_vcs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsqr_netsim::{ClusterSpec, LinkParams};

    fn tiny_grid(clusters: usize, nodes: usize, ppn: usize) -> Runtime {
        let specs = (0..clusters)
            .map(|i| ClusterSpec {
                name: format!("c{i}"),
                nodes,
                procs_per_node: ppn,
                peak_gflops_per_proc: 8.0,
            })
            .collect();
        let topo = GridTopology::block_placement(specs, nodes, ppn);
        let mut model =
            CostModel::homogeneous(LinkParams::from_ms_mbps(1.0, 800.0), 1e9, clusters);
        // Make the hierarchy visible: cheap intra-node, expensive WAN.
        model.intra_node = LinkParams::from_ms_mbps(0.01, 5000.0);
        for a in 0..clusters {
            for b in 0..clusters {
                if a != b {
                    model.inter_cluster[a][b] = LinkParams::from_ms_mbps(10.0, 80.0);
                }
            }
        }
        Runtime::new(topo, model)
    }

    #[test]
    fn ping_pong_advances_both_clocks() {
        let rt = tiny_grid(1, 2, 1);
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                p.send(1, 7, 42.0f64)?;
                let x: f64 = p.recv(1, 8)?;
                Ok(x)
            } else {
                let x: f64 = p.recv(0, 7)?;
                p.send(0, 8, x * 2.0)?;
                Ok(x)
            }
        });
        let results = report.clone_results();
        assert_eq!(results, vec![84.0, 42.0]);
        // Two 8-byte messages at 1 ms latency each: makespan ≥ 2 ms.
        assert!(report.makespan.secs() >= 2e-3);
        assert_eq!(report.totals.total_msgs(), 2);
        assert_eq!(report.totals.total_bytes(), 16);
    }

    impl<T: Clone> RunReport<T> {
        fn clone_results(&self) -> Vec<T> {
            self.ranks.iter().map(|r| r.result.clone().unwrap()).collect()
        }
    }

    #[test]
    fn virtual_time_is_deterministic_across_runs() {
        let rt = tiny_grid(2, 2, 2);
        let run = || {
            rt.run(|p, _| {
                // Ring: send to the next rank, receive from the previous.
                let next = (p.rank() + 1) % p.size();
                let prev = (p.rank() + p.size() - 1) % p.size();
                p.compute(1_000_000 * (p.rank() as u64 + 1), None);
                p.send(next, 0, p.rank() as f64)?;
                let _x: f64 = p.recv(prev, 0)?;
                Ok(p.clock().secs())
            })
            .clone_results()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "virtual clocks must be schedule-independent");
    }

    #[test]
    fn counters_classify_link_classes() {
        let rt = tiny_grid(2, 2, 2); // ranks 0..4 on cluster 0, 4..8 on cluster 1
        let report = rt.run(|p, _| {
            match p.rank() {
                0 => {
                    p.send(1, 0, ())?; // same node (slots 0,1 of node 0)
                    p.send(2, 0, ())?; // same cluster, different node
                    p.send(4, 0, ())?; // other cluster
                }
                1 => {
                    let _: () = p.recv(0, 0)?;
                }
                2 => {
                    let _: () = p.recv(0, 0)?;
                }
                4 => {
                    let _: () = p.recv(0, 0)?;
                }
                _ => {}
            }
            Ok(())
        });
        let c0 = report.ranks[0].stats.traffic;
        assert_eq!(c0.msgs, [1, 1, 1]);
        assert_eq!(report.totals.inter_cluster_msgs(), 1);
    }

    #[test]
    fn compute_charges_gamma() {
        let rt = tiny_grid(1, 1, 2);
        let report = rt.run(|p, _| {
            p.compute(2_000_000_000, None); // 2 Gflop at 1 Gflop/s
            Ok(())
        });
        assert!((report.makespan.secs() - 2.0).abs() < 1e-9);
        assert_eq!(report.totals.flops, 4_000_000_000);
    }

    #[test]
    fn exchange_overlaps_transfers() {
        let rt = tiny_grid(1, 2, 1);
        let report = rt.run(|p, _| {
            let partner = 1 - p.rank();
            let got: f64 = p.exchange(partner, 3, p.rank() as f64)?;
            Ok(got)
        });
        assert_eq!(report.clone_results(), vec![1.0, 0.0]);
        // Full duplex: one exchange should cost ~one message time (1 ms),
        // not two.
        assert!(report.makespan.secs() < 1.5e-3, "makespan {}", report.makespan.secs());
    }

    #[test]
    fn failed_link_surfaces_error() {
        let mut rt = tiny_grid(1, 2, 1);
        rt.fail_link(0, 1);
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                p.send(1, 0, 1.0f64)?;
            } else if p.link_ok(0) {
                // Peer 0 will fail before sending; don't wait for it.
            }
            Ok(())
        });
        assert_eq!(
            report.ranks[0].result,
            Err(CommError::LinkDown { src: 0, dst: 1 })
        );
        assert!(report.ranks[1].result.is_ok());
    }

    #[test]
    fn out_of_order_sources_are_buffered() {
        let rt = tiny_grid(1, 3, 1);
        let report = rt.run(|p, _| match p.rank() {
            0 => {
                // Receive from 2 first even though 1's message may arrive
                // earlier on the real channel.
                let a: f64 = p.recv(2, 0)?;
                let b: f64 = p.recv(1, 0)?;
                Ok(a * 10.0 + b)
            }
            r => {
                p.send(0, 0, r as f64)?;
                Ok(0.0)
            }
        });
        assert_eq!(report.ranks[0].result, Ok(21.0));
    }

    #[test]
    fn tracing_records_every_action_with_spans() {
        use crate::trace::EventKind;
        let mut rt = tiny_grid(1, 2, 1);
        rt.enable_tracing();
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                p.compute(1_000_000, None);
                p.send(1, 0, vec![1.0f64; 8])?;
            } else {
                let _: Vec<f64> = p.recv(0, 0)?;
            }
            Ok(())
        });
        let trace = report.trace.expect("tracing enabled");
        let kinds: Vec<_> = trace.events.iter().map(|e| &e.kind).collect();
        assert_eq!(trace.len(), 3, "compute + send + recv");
        assert!(matches!(kinds[0], EventKind::Compute { flops: 1_000_000 }));
        assert!(trace.events.iter().all(|e| e.end >= e.start));
        // The send's span covers latency + 64 bytes of bandwidth.
        let send = trace
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Send { .. }))
            .unwrap();
        assert!((send.end - send.start).secs() >= 1e-3);
        // Disabled by default.
        let rt2 = tiny_grid(1, 2, 1);
        let report2 = rt2.run(|p, _| {
            let _ = p.rank();
            Ok(())
        });
        assert!(report2.trace.is_none());
    }

    #[test]
    fn metrics_are_always_on_and_phase_bucketed() {
        let rt = tiny_grid(1, 2, 1);
        let report = rt.run(|p, _| {
            p.with_phase("work", |p| {
                p.compute(1_000_000, None);
                if p.rank() == 0 {
                    p.send(1, 0, 1.0f64)?;
                } else {
                    let _: f64 = p.recv(0, 0)?;
                }
                Ok(())
            })?;
            // Unphased tail work.
            p.compute(2_000_000, None);
            Ok(())
        });
        assert_eq!(report.metrics.len(), 2);
        let work = report.metrics[0].phase("work").expect("phase recorded");
        assert_eq!(work.flops, 1_000_000);
        assert_eq!(work.total_msgs(), 1);
        assert!(work.send_s.iter().sum::<f64>() > 0.0);
        let wait = report.metrics[1].phase("work").unwrap().recv_wait_s;
        assert!(wait > 0.0, "rank 1 blocked on the message");
        let agg = report.aggregate_metrics();
        assert_eq!(agg.phase("work").unwrap().flops, 2_000_000);
        assert_eq!(
            agg.phase(crate::metrics::UNPHASED).unwrap().flops,
            4_000_000
        );
        // Ranks 0 and 1 sit on different nodes of one cluster: bucket 1.
        assert_eq!(agg.msg_bytes(1).count(), 1);
    }

    #[test]
    fn phases_are_traced_and_auto_closed() {
        use crate::trace::EventKind;
        let mut rt = tiny_grid(1, 2, 1);
        rt.enable_tracing();
        let report = rt.run(|p, _| {
            p.phase_begin("outer");
            p.compute(1_000_000, None);
            p.phase_begin("inner");
            p.compute(1_000_000, None);
            // Both phases deliberately left open: the runtime closes them.
            Ok(())
        });
        let trace = report.trace.unwrap();
        let phases: Vec<_> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Phase { name } => Some((e.rank, name, e.phase)),
                _ => None,
            })
            .collect();
        // Each of the two ranks records inner (stamped with outer) + outer.
        assert_eq!(phases.len(), 4);
        assert!(phases.contains(&(0, "inner", Some("outer"))));
        assert!(phases.contains(&(0, "outer", None)));
        // The compute inside "inner" is stamped with the innermost phase.
        let inner_compute = trace
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Compute { .. }) && e.phase == Some("inner"))
            .expect("inner compute stamped");
        assert!(inner_compute.end > inner_compute.start);
    }

    #[test]
    fn critical_path_total_equals_makespan() {
        let mut rt = tiny_grid(2, 2, 2);
        rt.enable_tracing();
        let report = rt.run(|p, _| {
            // A little pipeline with cross-cluster traffic: 0 → 4 → 7.
            match p.rank() {
                0 => {
                    p.compute(5_000_000, None);
                    p.send(4, 0, vec![1.0f64; 64])?;
                }
                4 => {
                    let v: Vec<f64> = p.recv(0, 0)?;
                    p.compute(2_000_000, None);
                    p.send(7, 1, v)?;
                }
                7 => {
                    let _: Vec<f64> = p.recv(4, 1)?;
                    p.compute(1_000_000, None);
                }
                _ => p.compute(500_000, None),
            }
            Ok(())
        });
        let trace = report.trace.unwrap();
        let path = trace.critical_path();
        assert!(
            (path.total().secs() - report.makespan.secs()).abs() < 1e-9,
            "critical path {} != makespan {}",
            path.total().secs(),
            report.makespan.secs()
        );
        let su = path.summary();
        assert!(su.messages >= 2, "both pipeline hops sit on the path");
        assert!(su.wan_messages >= 1, "the 0→4 hop crosses clusters");
        assert!(su.compute_s > 0.0);
        // Chrome export of the same trace is well-formed and includes
        // flow arrows for the matched messages.
        let json = trace.chrome_json();
        assert!(json.matches("\"ph\":\"s\"").count() >= 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn exchange_trace_critical_path_still_tiles_makespan() {
        let mut rt = tiny_grid(1, 2, 1);
        rt.enable_tracing();
        let report = rt.run(|p, _| {
            let partner = 1 - p.rank();
            let _: f64 = p.exchange(partner, 3, p.rank() as f64)?;
            p.compute(1_000_000, None);
            Ok(())
        });
        let trace = report.trace.unwrap();
        let path = trace.critical_path();
        assert!((path.total().secs() - report.makespan.secs()).abs() < 1e-9);
    }

    #[test]
    fn scheduled_crash_fails_self_and_is_detected_by_peer() {
        use crate::process::DETECTION_LATENCY_FACTOR;
        use crate::trace::{EventKind, FaultKind};
        let mut rt = tiny_grid(1, 2, 1);
        let crash_at = VirtualTime::from_secs(0.005);
        rt.set_failure_schedule(FailureSchedule::new(0).crash_rank(0, crash_at));
        rt.enable_tracing();
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                // Compute past the crash instant, then try to send.
                p.compute(10_000_000, None); // 10 ms at 1 Gflop/s
                p.send(1, 0, 1.0f64)?;
                Ok(0.0)
            } else {
                let x: f64 = p.recv(0, 0)?;
                Ok(x)
            }
        });
        assert_eq!(
            report.ranks[0].result,
            Err(CommError::RankFailed { rank: 0, at: crash_at })
        );
        assert_eq!(
            report.ranks[1].result,
            Err(CommError::RankFailed { rank: 0, at: crash_at })
        );
        // Virtual-time detection: rank 1's clock = crash + deadline, not
        // a wall-clock guess. Link 0↔1 is intra-cluster: 1 ms latency.
        let deadline = DETECTION_LATENCY_FACTOR * 1e-3;
        let detected = report.ranks[1].stats.clock.secs();
        assert!(
            (detected - (crash_at.secs() + deadline)).abs() < 1e-9,
            "detected at {detected}"
        );
        // The failure wait is traced as a Fault span.
        let trace = report.trace.clone().unwrap();
        assert!(trace.fault_events().iter().any(|e| matches!(
            e.kind,
            EventKind::Fault { peer: 0, kind: FaultKind::RankFailed, .. }
        )));
        // And the structured outcome lists the failed ranks.
        let outcome = report.outcome();
        assert!(!outcome.is_clean());
        assert_eq!(outcome.failed_ranks(), vec![0, 1]);
        assert!(outcome.summary().contains("crashed"));
    }

    #[test]
    fn dropped_message_errors_both_sides_after_retries() {
        use crate::process::MAX_SEND_ATTEMPTS;
        let mut rt = tiny_grid(1, 2, 1);
        // Lose the first four transmissions 0 → 1: all retries exhausted.
        let mut s = FailureSchedule::new(0);
        for n in 0..u64::from(MAX_SEND_ATTEMPTS) {
            s = s.drop_nth_message(0, 1, n);
        }
        rt.set_failure_schedule(s);
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                p.send(1, 0, 1.0f64)?;
            } else {
                let _: f64 = p.recv(0, 0)?;
            }
            Ok(())
        });
        assert_eq!(
            report.ranks[0].result,
            Err(CommError::MessageDropped { src: 0, dst: 1, attempts: MAX_SEND_ATTEMPTS })
        );
        assert_eq!(
            report.ranks[1].result,
            Err(CommError::MessageDropped { src: 0, dst: 1, attempts: MAX_SEND_ATTEMPTS })
        );
        // Each attempt was priced: 4 messages on the wire.
        assert_eq!(report.ranks[0].stats.traffic.total_msgs(), 4);
    }

    #[test]
    fn transient_drop_recovers_on_retransmit() {
        let mut rt = tiny_grid(1, 2, 1);
        rt.set_failure_schedule(FailureSchedule::new(0).drop_nth_message(0, 1, 0));
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                p.send(1, 0, 7.0f64)?;
                Ok(0.0)
            } else {
                p.recv(0, 0)
            }
        });
        assert!(report.ranks[0].result.is_ok());
        assert_eq!(report.ranks[1].result, Ok(7.0));
        // The retransmission cost real virtual time: ≥ 2 message times
        // plus backoff.
        assert!(report.makespan.secs() > 2e-3);
        assert_eq!(report.ranks[0].stats.traffic.total_msgs(), 2);
    }

    #[test]
    fn abort_tombstone_reaches_waiting_peer() {
        let rt = tiny_grid(1, 2, 1);
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                // Fail without sending anything.
                Err(CommError::TagMismatch { expected: 1, got: 2 })
            } else {
                let _: f64 = p.recv(0, 0)?;
                Ok(())
            }
        });
        // Rank 1 learns of the abort through the tombstone — PeerGone,
        // not a wall-clock Timeout.
        assert_eq!(
            report.ranks[1].result,
            Err(CommError::PeerGone { rank: 1, from: 0 })
        );
    }

    #[test]
    fn replay_with_same_schedule_is_bit_identical() {
        let run = || {
            let mut rt = tiny_grid(2, 2, 1);
            rt.set_failure_schedule(
                FailureSchedule::new(9)
                    .crash_rank(3, VirtualTime::from_secs(0.002))
                    .drop_nth_message(0, 1, 0)
                    .drop_probability(1, 2, 0.5),
            );
            rt.enable_tracing();
            let report = rt.run(|p, _| {
                let next = (p.rank() + 1) % p.size();
                let prev = (p.rank() + p.size() - 1) % p.size();
                p.compute(1_000_000, None);
                // Ignore drop errors; propagate the rest.
                match p.send(next, 0, p.rank() as f64) {
                    Ok(()) | Err(CommError::MessageDropped { .. }) => {}
                    Err(e) => return Err(e),
                }
                match p.recv::<f64>(prev, 0) {
                    Ok(_) | Err(CommError::MessageDropped { .. }) => {}
                    Err(e) => return Err(e),
                }
                Ok(p.clock().secs())
            });
            let clocks: Vec<u64> =
                report.ranks.iter().map(|r| r.stats.clock.secs().to_bits()).collect();
            let faults: Vec<String> = report
                .trace
                .as_ref()
                .unwrap()
                .fault_events()
                .iter()
                .map(|e| format!("{:?}@{}:{:?}", e.rank, e.start.secs(), e.kind))
                .collect();
            (clocks, faults)
        };
        let (c1, f1) = run();
        let (c2, f2) = run();
        assert_eq!(c1, c2, "virtual clocks must replay bit-identically");
        assert_eq!(f1, f2, "failure events must replay identically");
        assert!(!f1.is_empty(), "the schedule injected observable faults");
    }

    #[test]
    fn tag_mismatch_is_detected() {
        let rt = tiny_grid(1, 2, 1);
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                p.send(1, 5, ())?;
                Ok(())
            } else {
                let r: Result<(), CommError> = p.recv(0, 6);
                match r {
                    Err(CommError::TagMismatch { expected: 6, got: 5 }) => Ok(()),
                    other => panic!("expected tag mismatch, got {other:?}"),
                }
            }
        });
        assert!(report.ranks.iter().all(|r| r.result.is_ok()));
    }

    #[test]
    fn outcome_splits_the_mixed_case() {
        // Four ranks, three fates: rank 0 and rank 3 succeed, rank 1
        // crashes per the failure schedule, rank 2 deadlocks waiting on a
        // message rank 3 never sends (wall-clock safety net, no tracing —
        // so the error stays a bare Timeout).
        let mut rt = tiny_grid(1, 4, 1);
        rt.set_failure_schedule(
            FailureSchedule::new(0).crash_rank(1, VirtualTime::ZERO),
        );
        rt.set_recv_timeout(Duration::from_millis(200));
        let report = rt.run(|p, _| match p.rank() {
            1 => {
                p.compute(1_000_000, None); // trips over its own crash
                p.send(0, 1, 1.0f64)?;
                Ok(1.0)
            }
            2 => {
                let x: f64 = p.recv(3, 9)?; // never sent
                Ok(x)
            }
            _ => Ok(f64::from(u32::try_from(p.rank()).unwrap())),
        });
        let outcome = report.outcome();
        assert!(!outcome.is_clean());
        let survivor_ranks: Vec<usize> =
            outcome.survivors.iter().map(|(r, _)| *r).collect();
        assert_eq!(survivor_ranks, vec![0, 3]);
        assert_eq!(outcome.failed_ranks(), vec![1, 2]);
        assert!(matches!(
            outcome.failures[0],
            (1, CommError::RankFailed { rank: 1, .. })
        ));
        assert!(matches!(
            outcome.failures[1],
            (2, CommError::Timeout { rank: 2, from: 3 })
        ));
        // Everyone's metrics survive the split, survivors and failures alike.
        assert_eq!(outcome.metrics.len(), 4);
    }

    #[test]
    fn deadlock_error_names_the_wait_for_cycle() {
        // The classic two-rank deadlock: each receives before it sends.
        // With tracing on, the wall-clock timeouts are upgraded to
        // `CommError::Deadlock` naming the wait-for cycle the analyzer
        // extracted from the trace.
        let mut rt = tiny_grid(1, 2, 1);
        rt.set_recv_timeout(Duration::from_millis(200));
        rt.enable_tracing();
        let report = rt.run(|p, _| {
            let peer = 1 - p.rank();
            let x: f64 = p.recv(peer, 1)?; // both block here forever
            p.send(peer, 1, x)?;
            Ok(x)
        });
        for rank in 0..2 {
            let err = report.ranks[rank].result.as_ref().unwrap_err();
            match err {
                CommError::Deadlock { rank: r, from, cycle } => {
                    assert_eq!(*r, rank);
                    assert_eq!(*from, 1 - rank);
                    assert_eq!(cycle, &vec![0, 1]);
                }
                other => panic!("rank {rank}: expected Deadlock, got {other:?}"),
            }
            // The rendered message names the cycle explicitly.
            assert!(
                err.to_string().contains("wait-for cycle: 0 -> 1 -> 0"),
                "unexpected message: {err}"
            );
        }
        // The analyzer agrees with the upgraded errors.
        let hb = report.trace.as_ref().unwrap().hb_analysis();
        assert_eq!(hb.deadlock_cycles, vec![vec![0, 1]]);
        assert!(!hb.ok());
    }
}
