//! Wait-state diagnostics: *why* was a run slow?
//!
//! The metrics registry ([`crate::metrics`]) says how long each rank was
//! blocked in receives (`recv_wait_s`); the critical path
//! ([`crate::critical`]) says which chain of events bounded the makespan.
//! This module closes the loop with a Scalasca-style classification of
//! **every** blocked second, plus the link-occupancy views of
//! [`tsqr_netsim::occupancy`]:
//!
//! * [`WaitBreakdown`] — each receive's blocked span is split into
//!   *late-sender*, *imbalance*, *propagated*, *delivery*, *unmatched*
//!   and *failure-induced* seconds (see the variants of [`WaitState`]).
//!   The six classes **partition** the blocked time, so their sum
//!   reconciles with the registry's `recv_wait_s` per rank and per
//!   phase — [`Diagnosis::reconcile`] checks that and the test suite
//!   asserts it to 1e-9. Failure-induced waits (peer deaths detected by
//!   the virtual-time failure detector, ghost arrivals of dropped
//!   messages — see `docs/fault-injection.md`) come from
//!   [`EventKind::Fault`] spans whose kind is a wait
//!   ([`crate::trace::FaultKind::is_wait`]).
//! * [`Diagnosis`] — the full report for one traced run: per-rank and
//!   per-phase wait breakdowns, per-link-class usage and a binned
//!   utilization timeline, and the rank×rank communication matrix. This
//!   is what `grid-tsqr analyze` prints.
//!
//! The taxonomy follows the wait-state notions of the Scalasca line of
//! tools, adapted to this runtime's semantics (blocking sends, eager
//! buffered delivery, per-source FIFO mailboxes). Interpretation guidance
//! lives in `docs/observability.md` §8.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tsqr_netsim::occupancy::{CommMatrix, LinkUsage, UtilizationTimeline};

use crate::metrics::{MetricsRegistry, UNPHASED};
use crate::trace::{EventKind, Trace};

/// Why a receiver was blocked, for one slice of one receive's wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitState {
    /// The matching send had not completed yet and the sender was busy
    /// **communicating** (in a send, or in untraced time) when the wait
    /// began — the classic Late Sender.
    LateSender,
    /// The matching send had not completed yet and the sender was busy
    /// **computing** when the wait began: load imbalance, the
    /// reduction-tree skew of the paper's Figs. 1–2.
    Imbalance,
    /// The matching send had not completed yet and the sender was
    /// *itself blocked in a receive* when the wait began: the wait
    /// propagated from further up the tree.
    Propagated,
    /// The message had left the sender but the receiver was still
    /// clocking it in (NIC serialization / in-flight surplus).
    Delivery,
    /// The receive never matched a send in the trace (only possible in
    /// truncated or failing runs).
    Unmatched,
    /// The receiver was blocked by an injected failure: waiting out the
    /// failure detector's deadline on a dead peer, or clocking in the
    /// ghost of a message the failure schedule dropped. Fed by
    /// [`EventKind::Fault`] wait spans (see `docs/fault-injection.md`).
    FailureInduced,
}

/// Classified blocked-receive seconds. The six wait classes partition
/// the registry's `recv_wait_s`; `late_receiver_s` is informational
/// (time *messages* sat in the receiver's buffer, i.e. the mirror-image
/// Late Receiver pattern — it overlaps the receiver's useful work, so it
/// is **not** part of the wait total).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WaitBreakdown {
    /// Seconds blocked on a sender that was communicating ([`WaitState::LateSender`]).
    pub late_sender_s: f64,
    /// Seconds blocked on a sender that was computing ([`WaitState::Imbalance`]).
    pub imbalance_s: f64,
    /// Seconds blocked on a sender that was itself blocked ([`WaitState::Propagated`]).
    pub propagated_s: f64,
    /// Seconds clocking in an already-sent message ([`WaitState::Delivery`]).
    pub delivery_s: f64,
    /// Seconds in receives with no matching send ([`WaitState::Unmatched`]).
    pub unmatched_s: f64,
    /// Seconds blocked by injected failures — detector deadlines on dead
    /// peers and ghost arrivals of dropped messages
    /// ([`WaitState::FailureInduced`]).
    pub failure_s: f64,
    /// Seconds sent messages sat in this rank's buffer before it asked
    /// for them (Late Receiver; informational, overlaps other work).
    pub late_receiver_s: f64,
    /// Receives classified into this breakdown.
    pub recvs: u64,
}

impl WaitBreakdown {
    /// Sum of the six wait classes — reconciles with the metrics
    /// registry's `recv_wait_s` for the same rank/phase.
    pub fn total_wait_s(&self) -> f64 {
        self.late_sender_s
            + self.imbalance_s
            + self.propagated_s
            + self.delivery_s
            + self.unmatched_s
            + self.failure_s
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &WaitBreakdown) {
        self.late_sender_s += other.late_sender_s;
        self.imbalance_s += other.imbalance_s;
        self.propagated_s += other.propagated_s;
        self.delivery_s += other.delivery_s;
        self.unmatched_s += other.unmatched_s;
        self.failure_s += other.failure_s;
        self.late_receiver_s += other.late_receiver_s;
        self.recvs += other.recvs;
    }

    fn add(&mut self, state: WaitState, secs: f64) {
        match state {
            WaitState::LateSender => self.late_sender_s += secs,
            WaitState::Imbalance => self.imbalance_s += secs,
            WaitState::Propagated => self.propagated_s += secs,
            WaitState::Delivery => self.delivery_s += secs,
            WaitState::Unmatched => self.unmatched_s += secs,
            WaitState::FailureInduced => self.failure_s += secs,
        }
    }
}

/// The full diagnostic report of one traced run. Build with
/// [`Trace::diagnose`]; render with [`Diagnosis::render`].
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// The traced makespan, in seconds.
    pub makespan_s: f64,
    /// Wait breakdown per rank (index = rank).
    pub per_rank: Vec<WaitBreakdown>,
    /// Wait breakdown per phase, in first-seen order (receives recorded
    /// outside any phase land under [`UNPHASED`]).
    pub per_phase: Vec<(&'static str, WaitBreakdown)>,
    /// Per-link-class message/byte/busy totals (from send events).
    pub link_usage: LinkUsage,
    /// Per-link-class busy time, binned over `[0, makespan]`.
    pub timeline: UtilizationTimeline,
    /// Rank×rank messages/bytes.
    pub comm: CommMatrix,
}

/// What the sender was doing at one instant (used to classify the
/// receiver's pre-arrival wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Activity {
    Sending,
    Computing,
    Receiving,
    /// No traced event covers the instant (startup, or untraced local
    /// work) — grouped with [`WaitState::LateSender`]: whatever the
    /// sender did, it was not yet our data.
    Untraced,
}

/// Per-rank event index with O(log n) "what covered instant t" lookup.
struct RankIndex {
    /// `(start_s, end_s, activity)` in program order (starts are
    /// non-decreasing per rank).
    spans: Vec<(f64, f64, Activity)>,
    /// `prefix_max_end[i]` = max end over `spans[..=i]` — lets the
    /// backward walk from the binary-search point stop as soon as no
    /// earlier span can still cover `t`.
    prefix_max_end: Vec<f64>,
}

impl RankIndex {
    fn build(spans: Vec<(f64, f64, Activity)>) -> Self {
        let mut prefix_max_end = Vec::with_capacity(spans.len());
        let mut m = f64::NEG_INFINITY;
        for &(_, end, _) in &spans {
            m = m.max(end);
            prefix_max_end.push(m);
        }
        RankIndex { spans, prefix_max_end }
    }

    /// The sender's activity at instant `t`. Spans covering `t` satisfy
    /// `start <= t < end`; when several overlap (an `exchange`'s send and
    /// receive do), the priority is Sending > Computing > Receiving —
    /// a sender that is at least pushing bytes is "communicating", not
    /// "blocked".
    fn activity_at(&self, t: f64) -> Activity {
        fn priority(a: Activity) -> u8 {
            match a {
                Activity::Sending => 3,
                Activity::Computing => 2,
                Activity::Receiving => 1,
                Activity::Untraced => 0,
            }
        }
        // First span with start > t.
        let hi = self.spans.partition_point(|&(start, _, _)| start <= t);
        let mut best = Activity::Untraced;
        for i in (0..hi).rev() {
            if self.prefix_max_end[i] <= t {
                break; // nothing earlier can reach past t
            }
            let (start, end, act) = self.spans[i];
            if start <= t && t < end && priority(act) > priority(best) {
                best = act;
                if best == Activity::Sending {
                    break;
                }
            }
        }
        best
    }
}

impl Diagnosis {
    /// Number of ranks covered.
    pub fn num_ranks(&self) -> usize {
        self.per_rank.len()
    }

    /// All ranks' breakdowns merged.
    pub fn total(&self) -> WaitBreakdown {
        let mut out = WaitBreakdown::default();
        for b in &self.per_rank {
            out.merge(b);
        }
        out
    }

    /// Messages that crossed a wide-area link (the paper's headline
    /// count: `O(log #clusters)` for TSQR vs `O(n·log P)` for
    /// ScaLAPACK).
    pub fn wan_msgs(&self) -> u64 {
        self.link_usage.wan_msgs()
    }

    /// Cross-checks this trace-derived breakdown against the always-on
    /// metrics registries (one per rank, as in
    /// [`crate::RunReport::metrics`]): returns the largest absolute
    /// drift, in seconds, between a breakdown's wait total and the
    /// matching `recv_wait_s` — over every rank and every phase. Both
    /// sides are computed from the same virtual-time spans, so the drift
    /// is floating-point summation noise only (≪ 1e-9 s).
    pub fn reconcile(&self, metrics: &[MetricsRegistry]) -> f64 {
        let mut drift = 0.0f64;
        for (rank, b) in self.per_rank.iter().enumerate() {
            let recorded =
                metrics.get(rank).map(|m| m.total().recv_wait_s).unwrap_or(0.0);
            drift = drift.max((b.total_wait_s() - recorded).abs());
        }
        // Per-phase: compare against the merged registry.
        let mut merged = MetricsRegistry::default();
        for m in metrics {
            merged.merge(m);
        }
        for name in merged.phase_names() {
            let recorded = merged.phase(name).map(|c| c.recv_wait_s).unwrap_or(0.0);
            let derived = self
                .per_phase
                .iter()
                .find(|(p, _)| *p == name)
                .map(|(_, b)| b.total_wait_s())
                .unwrap_or(0.0);
            drift = drift.max((derived - recorded).abs());
        }
        for (name, b) in &self.per_phase {
            if merged.phase(name).is_none() {
                drift = drift.max(b.total_wait_s());
            }
        }
        drift
    }

    /// The `k` ranks with the largest wait totals, as
    /// `(rank, breakdown)`, ties broken by rank for determinism.
    pub fn worst_ranks(&self, k: usize) -> Vec<(usize, WaitBreakdown)> {
        let mut v: Vec<(usize, WaitBreakdown)> =
            self.per_rank.iter().copied().enumerate().collect();
        v.sort_by(|a, b| {
            b.1.total_wait_s()
                .partial_cmp(&a.1.total_wait_s())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        v.truncate(k);
        v
    }

    /// Renders the three report sections (wait states, link
    /// utilization, communication matrix) as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== wait states ==");
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>11} {:>10}",
            "phase",
            "late-snd s",
            "imbal s",
            "propag s",
            "deliver s",
            "unmatch s",
            "failure s",
            "total-wait",
            "late-rcv s"
        );
        let mut rows: Vec<(&str, WaitBreakdown)> =
            self.per_phase.iter().map(|(p, b)| (*p, *b)).collect();
        rows.push(("TOTAL", self.total()));
        for (p, b) in rows {
            let _ = writeln!(
                out,
                "{:<16} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>11.4} {:>10.4}",
                p,
                b.late_sender_s,
                b.imbalance_s,
                b.propagated_s,
                b.delivery_s,
                b.unmatched_s,
                b.failure_s,
                b.total_wait_s(),
                b.late_receiver_s,
            );
        }
        let _ = writeln!(out, "worst waiting ranks:");
        for (rank, b) in self.worst_ranks(8) {
            let _ = writeln!(
                out,
                "  rank {rank:<4} waited {:>10.4} s  (late-sender {:.4}, imbalance {:.4}, propagated {:.4}, delivery {:.4}, failure {:.4})",
                b.total_wait_s(),
                b.late_sender_s,
                b.imbalance_s,
                b.propagated_s,
                b.delivery_s,
                b.failure_s,
            );
        }
        let _ = writeln!(out, "\n== link utilization ==");
        out.push_str(&self.link_usage.render(self.makespan_s));
        out.push_str(&self.timeline.render());
        let _ = writeln!(out, "\n== communication matrix ==");
        out.push_str(&self.comm.render());
        out
    }
}

impl Trace {
    /// Builds the full wait-state / utilization / communication
    /// diagnosis of this trace (see the module docs for the taxonomy).
    ///
    /// `num_ranks` sizes the per-rank tables and the communication
    /// matrix; events of ranks `>= num_ranks` are ignored (none exist in
    /// traces produced by this runtime when `num_ranks` matches the
    /// run). `timeline_bins` controls the utilization timeline
    /// resolution (e.g. 64).
    pub fn diagnose(&self, num_ranks: usize, timeline_bins: usize) -> Diagnosis {
        let makespan_s = self.makespan().secs();
        let mut per_rank = vec![WaitBreakdown::default(); num_ranks];
        let mut per_phase: Vec<(&'static str, WaitBreakdown)> = Vec::new();
        let mut link_usage = LinkUsage::default();
        let mut timeline =
            UtilizationTimeline::new(makespan_s, timeline_bins.max(1));
        let mut comm = CommMatrix::new(num_ranks);

        // Link-occupancy views come straight from send events.
        for e in &self.events {
            if let EventKind::Send { to, bytes, class, .. } = e.kind {
                let (s, t) = (e.start.secs(), e.end.secs());
                link_usage.record(class.bucket(), bytes, s, t);
                timeline.record(class.bucket(), s, t);
                if e.rank < num_ranks && to < num_ranks {
                    comm.record(e.rank, to, bytes);
                }
            }
        }

        // Per-rank activity indices for sender classification.
        let mut spans: BTreeMap<usize, Vec<(f64, f64, Activity)>> = BTreeMap::new();
        for e in &self.events {
            let act = match e.kind {
                EventKind::Send { .. } => Activity::Sending,
                EventKind::Recv { .. } => Activity::Receiving,
                EventKind::Compute { .. } => Activity::Computing,
                // A failure wait is "blocked"; a dropped transmission is
                // still pushing bytes. Zero-width degradation markers
                // never cover an instant either way.
                EventKind::Fault { kind, .. } if kind.is_wait() => Activity::Receiving,
                EventKind::Fault { .. } => Activity::Sending,
                EventKind::Phase { .. } => continue,
            };
            spans
                .entry(e.rank)
                .or_default()
                .push((e.start.secs(), e.end.secs(), act));
        }
        let index: BTreeMap<usize, RankIndex> =
            spans.into_iter().map(|(r, s)| (r, RankIndex::build(s))).collect();

        let recv_to_send: BTreeMap<usize, usize> =
            self.match_messages().iter().map(|m| (m.recv, m.send)).collect();

        let phase_mut = |name: &'static str,
                             per_phase: &mut Vec<(&'static str, WaitBreakdown)>|
         -> usize {
            if let Some(i) = per_phase.iter().position(|(p, _)| *p == name) {
                i
            } else {
                per_phase.push((name, WaitBreakdown::default()));
                per_phase.len() - 1
            }
        };

        for (i, e) in self.events.iter().enumerate() {
            // Failure-induced waits: receiver-side Fault spans (detector
            // deadlines, ghost arrivals). Their metrics-side counterpart
            // is the `record_recv` the runtime issued for the same span,
            // so they join the partition of `recv_wait_s`. Sender-side
            // Fault spans (dropped transmissions) are backed by
            // `record_send` and deliberately stay out.
            if let EventKind::Fault { kind, .. } = e.kind {
                if kind.is_wait() && e.rank < num_ranks {
                    let mut b = WaitBreakdown { recvs: 1, ..WaitBreakdown::default() };
                    b.add(WaitState::FailureInduced, (e.end - e.start).secs());
                    let pi = phase_mut(e.phase.unwrap_or(UNPHASED), &mut per_phase);
                    per_phase[pi].1.merge(&b);
                    per_rank[e.rank].merge(&b);
                }
                continue;
            }
            let EventKind::Recv { from, .. } = e.kind else { continue };
            if e.rank >= num_ranks {
                continue;
            }
            let wait_s = (e.end - e.start).secs();
            let mut b = WaitBreakdown { recvs: 1, ..WaitBreakdown::default() };
            match recv_to_send.get(&i) {
                None => b.add(WaitState::Unmatched, wait_s),
                Some(&si) => {
                    let send = &self.events[si];
                    let (rs, re) = (e.start.secs(), e.end.secs());
                    let se = send.end.secs();
                    // Pre-arrival wait: blocked while the send was still
                    // in flight on the sender.
                    let pre = (re.min(se) - rs).max(0.0);
                    if pre > 0.0 {
                        let state = match index
                            .get(&from)
                            .map(|ix| ix.activity_at(rs))
                            .unwrap_or(Activity::Untraced)
                        {
                            Activity::Computing => WaitState::Imbalance,
                            Activity::Receiving => WaitState::Propagated,
                            Activity::Sending | Activity::Untraced => {
                                WaitState::LateSender
                            }
                        };
                        b.add(state, pre);
                    }
                    // Post-arrival surplus: the receiver's NIC clocking
                    // the message in.
                    b.add(WaitState::Delivery, (re - rs.max(se)).max(0.0));
                    // Late Receiver (informational): the message sat
                    // ready before the receiver asked.
                    b.late_receiver_s = (rs - se).max(0.0);
                }
            }
            // Make the per-rank/per-phase sums reproduce the metrics
            // registry bit patterns as closely as possible: add the
            // whole wait in one piece.
            let pi = phase_mut(e.phase.unwrap_or(UNPHASED), &mut per_phase);
            per_phase[pi].1.merge(&b);
            per_rank[e.rank].merge(&b);
        }

        Diagnosis { makespan_s, per_rank, per_phase, link_usage, timeline, comm }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Event;
    use tsqr_netsim::{LinkClass, VirtualTime};

    const C: LinkClass = LinkClass::IntraCluster;
    const W: LinkClass = LinkClass::InterCluster(0, 1);

    fn ev(rank: usize, s: f64, e: f64, kind: EventKind) -> Event {
        Event {
            rank,
            start: VirtualTime::from_secs(s),
            end: VirtualTime::from_secs(e),
            phase: None,
            kind,
        }
    }

    fn pev(rank: usize, s: f64, e: f64, phase: &'static str, kind: EventKind) -> Event {
        Event { phase: Some(phase), ..ev(rank, s, e, kind) }
    }

    fn send(to: usize, class: LinkClass) -> EventKind {
        EventKind::Send { to, bytes: 64, class, tag: 0 }
    }

    fn recv(from: usize, class: LinkClass) -> EventKind {
        EventKind::Recv { from, bytes: 64, class, tag: 0, wildcard: false }
    }

    #[test]
    fn imbalance_when_sender_computes() {
        // Rank 0 computes [0,2], sends [2,3]; rank 1 waits [0,3].
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 2.0, EventKind::Compute { flops: 1 }),
            ev(0, 2.0, 3.0, send(1, C)),
            ev(1, 0.0, 3.0, recv(0, C)),
        ]);
        let d = t.diagnose(2, 8);
        let b = d.per_rank[1];
        assert!((b.imbalance_s - 3.0).abs() < 1e-12, "{b:?}");
        assert_eq!(b.late_sender_s, 0.0);
        assert_eq!(b.delivery_s, 0.0);
        assert!((b.total_wait_s() - 3.0).abs() < 1e-12);
        assert_eq!(d.per_rank[0].total_wait_s(), 0.0);
        assert_eq!(d.comm.msgs(0, 1), 1);
        assert_eq!(d.link_usage.total_msgs(), 1);
    }

    #[test]
    fn late_sender_and_delivery_split() {
        // Sender busy sending elsewhere at wait start; its matched send
        // ends at 2.0, the recv drains until 2.5 → 2.0 late-sender +
        // 0.5 delivery.
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 1.0, send(2, C)),
            ev(0, 1.0, 2.0, send(1, C)),
            ev(1, 0.0, 2.5, recv(0, C)),
            ev(2, 0.0, 1.0, recv(0, C)),
        ]);
        let d = t.diagnose(3, 8);
        let b = d.per_rank[1];
        assert!((b.late_sender_s - 2.0).abs() < 1e-12, "{b:?}");
        assert!((b.delivery_s - 0.5).abs() < 1e-12, "{b:?}");
        assert!((b.total_wait_s() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn propagated_when_sender_is_blocked() {
        // Rank 2 waits on rank 1, which is itself blocked on rank 0.
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 2.0, EventKind::Compute { flops: 1 }),
            ev(0, 2.0, 2.5, send(1, C)),
            ev(1, 0.0, 2.5, recv(0, C)),
            ev(1, 2.5, 3.0, send(2, C)),
            ev(2, 0.0, 3.0, recv(1, C)),
        ]);
        let d = t.diagnose(3, 8);
        assert!((d.per_rank[2].propagated_s - 3.0).abs() < 1e-12);
        assert!((d.per_rank[1].imbalance_s - 2.5).abs() < 1e-12);
    }

    #[test]
    fn late_receiver_is_informational() {
        // Message arrives at 1.0; receiver only asks at 3.0 (zero-width
        // recv). Not a wait — but 2.0 s of Late Receiver.
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 1.0, send(1, C)),
            ev(1, 0.0, 3.0, EventKind::Compute { flops: 1 }),
            ev(1, 3.0, 3.0, recv(0, C)),
        ]);
        let d = t.diagnose(2, 8);
        let b = d.per_rank[1];
        assert_eq!(b.total_wait_s(), 0.0);
        assert!((b.late_receiver_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unmatched_recv_is_its_own_class() {
        let t = Trace::from_parts(vec![ev(0, 1.0, 3.0, recv(7, C))]);
        let d = t.diagnose(1, 4);
        assert!((d.per_rank[0].unmatched_s - 2.0).abs() < 1e-12);
        assert!((d.total().total_wait_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn per_phase_buckets_and_render() {
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 1.0, EventKind::Compute { flops: 1 }),
            pev(0, 1.0, 2.0, "tree-reduce", send(1, W)),
            pev(1, 0.0, 2.0, "tree-reduce", recv(0, W)),
            ev(1, 2.0, 2.5, recv(5, C)), // unmatched, unphased
        ]);
        let d = t.diagnose(2, 8);
        let tr = d
            .per_phase
            .iter()
            .find(|(p, _)| *p == "tree-reduce")
            .map(|(_, b)| *b)
            .unwrap();
        assert!((tr.total_wait_s() - 2.0).abs() < 1e-12);
        let un = d
            .per_phase
            .iter()
            .find(|(p, _)| *p == UNPHASED)
            .map(|(_, b)| *b)
            .unwrap();
        assert!((un.unmatched_s - 0.5).abs() < 1e-12);
        assert_eq!(d.wan_msgs(), 1);
        let r = d.render();
        assert!(r.contains("== wait states =="));
        assert!(r.contains("tree-reduce"));
        assert!(r.contains("== link utilization =="));
        assert!(r.contains("== communication matrix =="));
        assert!(r.contains("worst waiting ranks"));
    }

    #[test]
    fn reconcile_against_registry() {
        // Build the matching registries by hand: the recv waits recorded
        // by the runtime equal the traced recv spans.
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 2.0, EventKind::Compute { flops: 1 }),
            pev(0, 2.0, 3.0, "tree-reduce", send(1, C)),
            pev(1, 0.0, 3.0, "tree-reduce", recv(0, C)),
        ]);
        let d = t.diagnose(2, 8);
        let mut m0 = MetricsRegistry::default();
        m0.record_compute(None, 1, 2.0);
        m0.record_send(Some("tree-reduce"), C, 64, 1.0);
        let mut m1 = MetricsRegistry::default();
        m1.record_recv(Some("tree-reduce"), C, 64, 3.0);
        assert!(d.reconcile(&[m0, m1]) < 1e-12);
        // A registry that disagrees shows up as drift.
        let mut bad = MetricsRegistry::default();
        bad.record_recv(Some("tree-reduce"), C, 64, 1.0);
        let drift = d.reconcile(&[MetricsRegistry::default(), bad]);
        assert!(drift > 1.9, "drift {drift}");
    }

    #[test]
    fn failure_waits_are_their_own_class() {
        use crate::trace::FaultKind;
        // A detector wait on a dead peer is failure-induced; a dropped
        // transmission (sender side) and a zero-width degradation marker
        // are not part of the receiver wait partition.
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 2.0, EventKind::Fault { peer: 3, class: C, kind: FaultKind::RankFailed }),
            ev(0, 2.0, 2.0, EventKind::Fault { peer: 1, class: C, kind: FaultKind::LinkDegraded }),
            ev(0, 2.0, 3.0, EventKind::Fault { peer: 1, class: C, kind: FaultKind::DropSent }),
        ]);
        let d = t.diagnose(1, 4);
        assert!((d.per_rank[0].failure_s - 2.0).abs() < 1e-12, "{:?}", d.per_rank[0]);
        assert!((d.total().total_wait_s() - 2.0).abs() < 1e-12);
        assert!(d.render().contains("failure s"));
    }

    #[test]
    fn exchange_overlap_classifies_sender_as_sending() {
        // Ranks 0 and 1 exchange: both sends span [0,1]; rank 1's recv
        // waits [0,1] while rank 0 is simultaneously sending → late
        // sender (communicating), not propagated.
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 1.0, send(1, C)),
            ev(0, 0.0, 1.0, recv(1, C)),
            ev(1, 0.0, 1.0, send(0, C)),
            ev(1, 0.0, 1.0, recv(0, C)),
        ]);
        let d = t.diagnose(2, 4);
        assert!((d.per_rank[1].late_sender_s - 1.0).abs() < 1e-12);
        assert_eq!(d.per_rank[1].propagated_s, 0.0);
    }
}
