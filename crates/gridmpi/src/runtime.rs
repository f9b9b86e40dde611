//! Launching rank programs and collecting run reports.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use tsqr_netsim::{CostModel, FailureSchedule, GridTopology, VirtualTime};

use crate::comm::Communicator;
use crate::error::CommError;
use crate::exec::{self, PostOffice};
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
    /// A deadlocked rank's error names its wait-for cycle.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return format!("{} ranks ok", self.survivors.len());
        }
        let what: Vec<String> =
            self.failures.iter().map(|(r, e)| format!("rank {r}: {e}")).collect();
        format!("{} ok, {} failed — {}", self.survivors.len(), self.failures.len(), what.join("; "))
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
/// `run_async` polls the rank programs as futures on
/// `min(available_parallelism, ranks)` worker threads, each owning a
/// fixed block of ranks (see `exec`). Unless a program uses wildcard
/// receives, results never depend on the worker count or the
/// interleaving.
pub struct Runtime {
    topo: Arc<GridTopology>,
    model: Arc<CostModel>,
    schedule: FailureSchedule,
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

    /// Runs a program that never receives — its sends and computes do
    /// not wait — on every rank. Programs that receive use
    /// [`Runtime::run_async`], which this forwards to.
    pub fn run<T, F>(&self, program: F) -> RunReport<T>
    where
        T: Send,
        F: Fn(&mut Process, &Communicator) -> Result<T, CommError> + Sync,
    {
        self.run_async(async |p, w| program(p, w))
    }

    /// Runs `program` on every rank and gathers the report.
    ///
    /// The program receives the rank's [`Process`] handle and the *world*
    /// communicator spanning all ranks. Each rank's future is created and
    /// polled on the worker that owns the rank, so it need not be `Send`.
    pub fn run_async<T, F>(&self, program: F) -> RunReport<T>
    where
        T: Send,
        F: AsyncFn(&mut Process, &Communicator) -> Result<T, CommError> + Sync,
    {
        self.run_on(None, program)
    }

    /// [`Runtime::run_async`] on `workers` worker threads (capped at the
    /// rank count), or one per available core when `None`.
    fn run_on<T, F>(&self, workers: Option<usize>, program: F) -> RunReport<T>
    where
        T: Send,
        F: AsyncFn(&mut Process, &Communicator) -> Result<T, CommError> + Sync,
    {
        let n = self.topo.num_procs();
        assert!(n > 0, "cannot run on an empty topology");
        let post = Arc::new(PostOffice::new(n));
        let schedule = Arc::new(self.schedule.clone());
        let program = &program;
        let finished = exec::run(n, workers, &post, |rank| {
            let mut proc = Process {
                rank,
                size: n,
                topo: Arc::clone(&self.topo),
                model: Arc::clone(&self.model),
                crash_at: schedule.crash_time(rank),
                schedule: Arc::clone(&schedule),
                death_announced: false,
                dead: BTreeMap::new(),
                sent_seq: vec![0; n],
                post: Arc::clone(&post),
                arrived: VecDeque::new(),
                pending: VecDeque::new(),
                clock: VirtualTime::ZERO,
                nic_free: VirtualTime::ZERO,
                counters: TrafficCounters::default(),
                recorder: self.tracing.then(Recorder::default),
                phase_stack: Vec::new(),
                metrics: MetricsRegistry::default(),
                delivery: self.delivery,
                buffered: 0,
            };
            async move {
                let world = Communicator::world(n);
                let result = program(&mut proc, &world).await;
                // A program that failed will never send again: announce
                // the abort so peers waiting on it fail in virtual time.
                // (Crashed ranks already announced inside check_alive; the
                // broadcast is idempotent.)
                if result.is_err() {
                    proc.announce_abort();
                }
                // Close any phases the program left open so phase
                // spans are recorded even on early error returns.
                while proc.current_phase().is_some() {
                    proc.phase_end();
                }
                let events = proc.recorder.take().map(|r| r.events).unwrap_or_default();
                let stats = RankStats { clock: proc.clock, traffic: proc.counters };
                (RankResult { result, stats }, events, proc.metrics)
            }
        });

        let mut ranks = Vec::with_capacity(n);
        let mut events = Vec::new();
        let mut metrics = Vec::with_capacity(n);
        for (rr, ev, m) in finished {
            ranks.push(rr);
            events.extend(ev);
            metrics.push(m);
        }
        let makespan =
            ranks.iter().map(|r| r.stats.clock).max().unwrap_or(VirtualTime::ZERO);
        let totals = ranks
            .iter()
            .fold(TrafficCounters::default(), |acc, r| acc.merge(&r.stats.traffic));
        let trace = self.tracing.then(|| Trace::from_parts(events));
        RunReport { ranks, makespan, totals, trace, metrics }
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
        let report = rt.run_async(async |p, _| {
            if p.rank() == 0 {
                p.send(1, 7, 42.0f64)?;
                let x: f64 = p.recv(1, 8).await?;
                Ok(x)
            } else {
                let x: f64 = p.recv(0, 7).await?;
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
            rt.run_async(async |p, _| {
                // Ring: send to the next rank, receive from the previous.
                let next = (p.rank() + 1) % p.size();
                let prev = (p.rank() + p.size() - 1) % p.size();
                p.compute(1_000_000 * (p.rank() as u64 + 1), None);
                p.send(next, 0, p.rank() as f64)?;
                let _x: f64 = p.recv(prev, 0).await?;
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
        let report = rt.run_async(async |p, _| {
            match p.rank() {
                0 => {
                    p.send(1, 0, ())?; // same node (slots 0,1 of node 0)
                    p.send(2, 0, ())?; // same cluster, different node
                    p.send(4, 0, ())?; // other cluster
                }
                1 => {
                    let _: () = p.recv(0, 0).await?;
                }
                2 => {
                    let _: () = p.recv(0, 0).await?;
                }
                4 => {
                    let _: () = p.recv(0, 0).await?;
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
        let report = rt.run_async(async |p, _| {
            let partner = 1 - p.rank();
            let got: f64 = p.exchange(partner, 3, p.rank() as f64).await?;
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
        let report = rt.run_async(async |p, _| match p.rank() {
            0 => {
                // Receive from 2 first even though 1's message may arrive
                // earlier in the mailbox.
                let a: f64 = p.recv(2, 0).await?;
                let b: f64 = p.recv(1, 0).await?;
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
        let report = rt.run_async(async |p, _| {
            if p.rank() == 0 {
                p.compute(1_000_000, None);
                p.send(1, 0, vec![1.0f64; 8])?;
            } else {
                let _: Vec<f64> = p.recv(0, 0).await?;
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
        let report = rt.run_async(async |p, _| {
            p.with_phase("work", async |p| {
                p.compute(1_000_000, None);
                if p.rank() == 0 {
                    p.send(1, 0, 1.0f64)?;
                } else {
                    let _: f64 = p.recv(0, 0).await?;
                }
                Ok(())
            })
            .await?;
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
        let report = rt.run_async(async |p, _| {
            // A little pipeline with cross-cluster traffic: 0 → 4 → 7.
            match p.rank() {
                0 => {
                    p.compute(5_000_000, None);
                    p.send(4, 0, vec![1.0f64; 64])?;
                }
                4 => {
                    let v: Vec<f64> = p.recv(0, 0).await?;
                    p.compute(2_000_000, None);
                    p.send(7, 1, v)?;
                }
                7 => {
                    let _: Vec<f64> = p.recv(4, 1).await?;
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
        let report = rt.run_async(async |p, _| {
            let partner = 1 - p.rank();
            let _: f64 = p.exchange(partner, 3, p.rank() as f64).await?;
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
        let report = rt.run_async(async |p, _| {
            if p.rank() == 0 {
                // Compute past the crash instant, then try to send.
                p.compute(10_000_000, None); // 10 ms at 1 Gflop/s
                p.send(1, 0, 1.0f64)?;
                Ok(0.0)
            } else {
                let x: f64 = p.recv(0, 0).await?;
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
        let report = rt.run_async(async |p, _| {
            if p.rank() == 0 {
                p.send(1, 0, 1.0f64)?;
            } else {
                let _: f64 = p.recv(0, 0).await?;
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
        let report = rt.run_async(async |p, _| {
            if p.rank() == 0 {
                p.send(1, 0, 7.0f64)?;
                Ok(0.0)
            } else {
                p.recv(0, 0).await
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
        let report = rt.run_async(async |p, _| {
            if p.rank() == 0 {
                // Fail without sending anything.
                Err(CommError::TagMismatch { expected: 1, got: 2 })
            } else {
                let _: f64 = p.recv(0, 0).await?;
                Ok(())
            }
        });
        // Rank 1 learns of the abort through the tombstone: PeerGone, at
        // the virtual-time detection deadline.
        assert_eq!(
            report.ranks[1].result,
            Err(CommError::PeerGone { rank: 1, from: 0 })
        );
    }

    /// Four ranks on two sites under a schedule that crashes rank 3,
    /// drops 0 → 1's first message and drops half of 1 → 2's.
    fn faulty_grid() -> Runtime {
        let mut rt = tiny_grid(2, 2, 1);
        rt.set_failure_schedule(
            FailureSchedule::new(9)
                .crash_rank(3, VirtualTime::from_secs(0.002))
                .drop_nth_message(0, 1, 0)
                .drop_probability(1, 2, 0.5),
        );
        rt
    }

    /// One ring step under [`faulty_grid`]'s schedule, ignoring drops.
    async fn faulty_ring(p: &mut Process) -> Result<f64, CommError> {
        let next = (p.rank() + 1) % p.size();
        let prev = (p.rank() + p.size() - 1) % p.size();
        p.compute(1_000_000, None);
        match p.send(next, 0, p.rank() as f64) {
            Ok(()) | Err(CommError::MessageDropped { .. }) => {}
            Err(e) => return Err(e),
        }
        match p.recv::<f64>(prev, 0).await {
            Ok(_) | Err(CommError::MessageDropped { .. }) => {}
            Err(e) => return Err(e),
        }
        Ok(p.clock().secs())
    }

    #[test]
    fn replay_with_same_schedule_is_bit_identical() {
        let run = || {
            let mut rt = faulty_grid();
            rt.enable_tracing();
            let report = rt.run_async(async |p, _| faulty_ring(p).await);
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

    /// Every collective in turn, with non-commutative operators so a
    /// different combination order would show.
    async fn all_collectives(p: &mut Process, world: &Communicator) -> Result<Vec<f64>, CommError> {
        let me = world.my_index(p) as f64;
        let root = 1 % world.size();
        let b = world.bcast(p, root, (world.my_index(p) == root).then_some(me + 0.5)).await?;
        let r = world.reduce(p, world.size() - 1, vec![me], |mut a, b| {
            a.extend(b);
            a
        });
        let r = r.await?.unwrap_or_default();
        let ar = world.allreduce(p, me, |a, b| a * 0.5 + b).await?;
        let g = world.gather(p, 0, me).await?.unwrap_or_default();
        let ag = world.allgather(p, me * 2.0).await?;
        let half = world.split_by(p, |r| (r % 2) as u64, |r| r as u64);
        let hs = half.allreduce(p, me, |a, b| a - b).await?;
        world.barrier(p).await?;
        Ok([vec![b, ar, hs], r, g, ag].concat())
    }

    /// A tiny real TSQR: each rank factors a seeded 16 × 4 block and the
    /// R factors meet up a binary tree; rank 0 returns the final R.
    async fn tiny_tsqr(p: &mut Process) -> Result<Vec<f64>, CommError> {
        use tsqr_linalg::prelude::*;
        let a = Matrix::random_uniform(16, 4, p.rank() as u64 + 1);
        let mut r = QrFactors::compute(&a, 2).r().upper_triangular_padded();
        p.compute(1_000, None);
        let mut step = 1;
        while step < p.size() {
            if !p.rank().is_multiple_of(2 * step) {
                p.send(p.rank() - step, 5, r)?;
                return Ok(Vec::new());
            }
            if p.rank() + step < p.size() {
                let mut r2: Matrix = p.recv(p.rank() + step, 5).await?;
                tpqrt(&mut r, &mut r2);
                r = r.upper_triangular_padded();
                p.compute(100, None);
            }
            step *= 2;
        }
        Ok(r.into_vec())
    }

    #[test]
    fn results_do_not_depend_on_the_worker_count() {
        // Every observable of a run — results, clocks, counters, per-rank
        // metrics and the trace — must be the same on 1, 2, 3 or 7
        // workers (7 splits 8 ranks unevenly; 4-rank runs cap it at 4).
        fn check<T: std::fmt::Debug>(
            name: &str,
            run: impl Fn(usize) -> RunReport<T>,
        ) -> RunReport<T> {
            let base = run(1);
            assert!(base.trace.is_some(), "{name}: traced");
            let want = format!("{base:?}");
            for workers in [2, 3, 7] {
                let got = run(workers);
                assert_eq!(
                    got.makespan.secs().to_bits(),
                    base.makespan.secs().to_bits(),
                    "{name}: makespan on {workers} workers"
                );
                assert_eq!(format!("{got:?}"), want, "{name}: report on {workers} workers");
            }
            base
        }
        let traced = |mut rt: Runtime| {
            rt.enable_tracing();
            rt
        };
        check("ping-pong", |w| {
            traced(tiny_grid(2, 2, 2)).run_on(Some(w), async |p, _| {
                let partner = p.rank() ^ 1;
                if p.rank() % 2 == 0 {
                    p.send(partner, 7, p.rank() as f64)?;
                    p.recv::<f64>(partner, 8).await
                } else {
                    let x: f64 = p.recv(partner, 7).await?;
                    p.send(partner, 8, x * 2.0)?;
                    Ok(x)
                }
            })
        });
        check("ring", |w| {
            traced(tiny_grid(2, 2, 2)).run_on(Some(w), async |p, _| {
                let next = (p.rank() + 1) % p.size();
                let prev = (p.rank() + p.size() - 1) % p.size();
                p.compute(1_000_000 * (p.rank() as u64 + 1), None);
                p.send(next, 0, vec![p.rank() as f64; 16])?;
                let got: Vec<f64> = p.recv(prev, 0).await?;
                Ok(got[0])
            })
        });
        check("collectives", |w| {
            traced(tiny_grid(2, 2, 2))
                .run_on(Some(w), async |p, world| all_collectives(p, world).await)
        });
        check("failure schedule", |w| {
            traced(faulty_grid()).run_on(Some(w), async |p, _| faulty_ring(p).await)
        });
        let stuck = check("quiescence", |w| {
            traced(tiny_grid(2, 2, 2)).run_on(Some(w), async |p, _| match p.rank() {
                // A wait-for cycle, a wait on a finished rank and a wait
                // on a waiting rank, all resolved at quiescence.
                0 | 1 => p.recv::<f64>(1 - p.rank(), 1).await,
                2 => p.recv::<f64>(7, 1).await,
                3 => p.recv::<f64>(2, 1).await,
                r => Ok(r as f64),
            })
        });
        let deadlock = |rank, from| CommError::Deadlock { rank, from, cycle: vec![0, 1] };
        assert_eq!(stuck.ranks[0].result, Err(deadlock(0, 1)));
        assert_eq!(stuck.ranks[1].result, Err(deadlock(1, 0)));
        assert_eq!(stuck.ranks[2].result, Err(CommError::PeerGone { rank: 2, from: 7 }));
        assert_eq!(stuck.ranks[3].result, Err(CommError::PeerGone { rank: 3, from: 2 }));
        check("tiny tsqr", |w| {
            traced(tiny_grid(2, 2, 2)).run_on(Some(w), async |p, _| tiny_tsqr(p).await)
        });
    }

    #[test]
    fn tag_mismatch_is_detected() {
        let rt = tiny_grid(1, 2, 1);
        let report = rt.run_async(async |p, _| {
            if p.rank() == 0 {
                p.send(1, 5, ())?;
                Ok(())
            } else {
                let r: Result<(), CommError> = p.recv(0, 6).await;
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
        // crashes per the failure schedule, rank 2 waits on a message
        // rank 3 never sends. Once the run is quiescent, rank 3 has
        // finished, so rank 2's wait ends with PeerGone from rank 3.
        let mut rt = tiny_grid(1, 4, 1);
        rt.set_failure_schedule(
            FailureSchedule::new(0).crash_rank(1, VirtualTime::ZERO),
        );
        let report = rt.run_async(async |p, _| match p.rank() {
            1 => {
                p.compute(1_000_000, None); // trips over its own crash
                p.send(0, 1, 1.0f64)?;
                Ok(1.0)
            }
            2 => {
                let x: f64 = p.recv(3, 9).await?; // never sent
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
        assert_eq!(outcome.failures[1], (2, CommError::PeerGone { rank: 2, from: 3 }));
        // Everyone's metrics survive the split, survivors and failures alike.
        assert_eq!(outcome.metrics.len(), 4);
    }

    #[test]
    fn deadlock_error_names_the_wait_for_cycle() {
        // The classic two-rank deadlock: each receives before it sends.
        // At quiescence both ranks sit on the wait-for cycle 0 → 1 → 0
        // and get `CommError::Deadlock` naming it. No tracing is needed.
        let rt = tiny_grid(1, 2, 1);
        let report = rt.run_async(async |p, _| {
            let peer = 1 - p.rank();
            let x: f64 = p.recv(peer, 1).await?; // both block here forever
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
    }

    #[test]
    fn traced_deadlock_agrees_with_the_analyzer() {
        // The same deadlock traced: both ranks record a deadlock-suspect
        // marker, and the analyzer finds the cycle the verdicts named.
        let mut rt = tiny_grid(1, 2, 1);
        rt.enable_tracing();
        let report = rt.run_async(async |p, _| {
            let peer = 1 - p.rank();
            let x: f64 = p.recv(peer, 1).await?;
            p.send(peer, 1, x)?;
            Ok(x)
        });
        let hb = report.trace.as_ref().unwrap().hb_analysis();
        assert_eq!(hb.deadlock_cycles, vec![vec![0, 1]]);
        assert!(!hb.ok());
        let outcome = report.outcome();
        assert!(outcome.summary().contains("wait-for cycle: 0 -> 1 -> 0"));
    }

    #[test]
    fn runtime_trace_orders_causally_chained_wildcards() {
        // The `causally_ordered_wildcards_do_not_race` shape, produced by
        // the runtime instead of written by hand: rank 2 sends its tag-9
        // message only after rank 0 acknowledged rank 1's. Envelopes carry
        // no vector clocks, so the analyzer must recover that causal order
        // from the trace's program order and matched messages alone.
        let mut rt = tiny_grid(1, 3, 1);
        rt.enable_tracing();
        let report = rt.run_async(async |p, _| match p.rank() {
            0 => {
                let (first, _) = p.recv_any::<f64>(9).await?;
                p.send(2, 1, ())?;
                let (second, _) = p.recv_any::<f64>(9).await?;
                Ok(vec![first, second])
            }
            1 => p.send(0, 9, 1.0f64).map(|()| Vec::new()),
            _ => {
                let () = p.recv(0, 1).await?;
                p.send(0, 9, 2.0f64).map(|()| Vec::new())
            }
        });
        assert_eq!(report.ranks[0].result, Ok(vec![1, 2]));
        let hb = report.trace.as_ref().expect("tracing enabled").hb_analysis();
        assert!(hb.ok(), "{}", hb.render());
        assert!(hb.races.is_empty());
        assert_eq!(hb.wildcard_recvs, 2);
        assert_eq!(hb.matched, 3);
        // Program order (2 edges on rank 0, 1 on rank 2) + 3 messages.
        assert_eq!(hb.num_edges, 3 + 3);
    }
}
