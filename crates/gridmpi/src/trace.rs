//! Event tracing: a per-rank record of every send, receive, compute and
//! phase with its virtual-time span, plus a text timeline renderer.
//!
//! Tracing is how the paper's communication diagrams (Figs. 1–2) become
//! inspectable for *any* run: enable it with
//! [`crate::Runtime::enable_tracing`], run the program, and render the
//! merged timeline (or feed the raw events to your own tooling). Events
//! carry virtual timestamps, so traces are exactly reproducible.
//!
//! The full schema (field semantics, matching rules, Chrome-trace
//! mapping) is documented in `docs/observability.md` at the repository
//! root. Two derived views live in sibling modules:
//!
//! * [`crate::chrome`] exports a trace as Chrome-trace / Perfetto JSON;
//! * [`crate::critical`] extracts the critical path through the
//!   happens-before DAG.

use std::fmt::Write as _;

use tsqr_netsim::{LinkClass, VirtualTime};

/// One traced action on a rank.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A message was sent.
    Send {
        /// Destination rank.
        to: usize,
        /// Payload size.
        bytes: u64,
        /// Link class it travelled on.
        class: LinkClass,
        /// Program-level protocol tag.
        tag: u32,
    },
    /// A message was received (opened). The span covers the receiver's
    /// blocked wait: zero-length when the message was already there.
    Recv {
        /// Source rank.
        from: usize,
        /// Payload size.
        bytes: u64,
        /// Link class it travelled on.
        class: LinkClass,
        /// Program-level protocol tag.
        tag: u32,
        /// True when the receive was a wildcard ([`crate::Process::recv_any`]):
        /// the source was *not* named by the program, so which sender
        /// matched depended on delivery order. The happens-before
        /// analyzer ([`crate::hb`]) treats only these as race candidates.
        wildcard: bool,
    },
    /// Local computation was charged.
    Compute {
        /// Flops charged.
        flops: u64,
    },
    /// A completed algorithm phase (recorded when the phase is closed;
    /// the span covers everything between [`crate::Process::phase_begin`]
    /// and [`crate::Process::phase_end`]). Phase spans *overlap* the
    /// ordinary events they enclose — analyses that walk the
    /// happens-before DAG must skip them.
    Phase {
        /// The phase label.
        name: &'static str,
    },
    /// A failure-schedule observation (see `docs/fault-injection.md`):
    /// a failure-detector wait, a dropped transmission, or a degraded
    /// send. Receiver-side kinds span the failure-induced wait;
    /// [`FaultKind::LinkDegraded`] is a zero-width marker.
    Fault {
        /// The peer rank involved (the dead rank, the other end of the
        /// dropped transmission, or the destination of the degraded
        /// send).
        peer: usize,
        /// Link class between this rank and `peer`.
        class: LinkClass,
        /// What was observed.
        kind: FaultKind,
    },
}

/// What a [`EventKind::Fault`] event observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The failure detector declared `peer` crashed; the span covers the
    /// receiver's failure-induced wait (from wait start to the
    /// virtual-time detection deadline).
    RankFailed,
    /// `peer`'s rank program aborted with an error; span as above.
    PeerAborted,
    /// A transmission to `peer` was dropped in transit (sender side);
    /// the span covers the wasted transmission plus retransmission
    /// backoff.
    DropSent,
    /// A dropped transmission from `peer` was observed (receiver side);
    /// the span covers the wait up to the would-be arrival.
    DropObserved,
    /// A send to `peer` was priced through an active degradation window
    /// (zero-width marker at send start).
    LinkDegraded,
    /// The run went quiescent while this rank waited for `peer` (itself
    /// for a wildcard receive), and the executor ended the wait
    /// (zero-width marker at the wait's start; resolving a stuck run
    /// costs no virtual time). The happens-before analyzer ([`crate::hb`]) builds its
    /// wait-for graph from these markers: a cycle among them is a
    /// deadlock cycle.
    DeadlockSuspect,
}

impl FaultKind {
    /// True for the receiver-side kinds whose span is a *wait* (these
    /// feed the `failure-induced` wait-state class of
    /// [`crate::diagnose`] and are mirrored into the metrics registry's
    /// `recv_wait_s`).
    pub fn is_wait(self) -> bool {
        matches!(
            self,
            FaultKind::RankFailed | FaultKind::PeerAborted | FaultKind::DropObserved
        )
    }

    /// Short stable label for renders and trace exports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::RankFailed => "rank-failed",
            FaultKind::PeerAborted => "peer-aborted",
            FaultKind::DropSent => "drop-sent",
            FaultKind::DropObserved => "drop-observed",
            FaultKind::LinkDegraded => "link-degraded",
            FaultKind::DeadlockSuspect => "deadlock-suspect",
        }
    }
}

impl EventKind {
    /// True for [`EventKind::Phase`] markers (which overlap other events
    /// and are skipped by DAG analyses).
    pub fn is_phase(&self) -> bool {
        matches!(self, EventKind::Phase { .. })
    }
}

/// A traced event: what happened, where, over which virtual span, and
/// under which algorithm phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The rank the event happened on.
    pub rank: usize,
    /// Virtual time when the action started.
    pub start: VirtualTime,
    /// Virtual time when the action completed.
    pub end: VirtualTime,
    /// The innermost open phase at record time, if any.
    pub phase: Option<&'static str>,
    /// The action.
    pub kind: EventKind,
}

/// A matched send/receive pair: indices into [`Trace::events`].
///
/// Matching is by per-`(src, dst)` FIFO order, which is exact for this
/// runtime: mailboxes preserve per-source order and the receive buffer
/// replays pending messages in arrival order, so the `k`-th send from
/// `src` to `dst` is opened by the `k`-th receive at `dst` from `src`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageMatch {
    /// Index of the [`EventKind::Send`] event.
    pub send: usize,
    /// Index of the [`EventKind::Recv`] event.
    pub recv: usize,
}

/// A complete trace: every rank's events, merged and time-ordered.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All events, sorted by `(start, rank)`; ties keep per-rank program
    /// order (the sort is stable and each rank's events are appended in
    /// program order).
    pub events: Vec<Event>,
}

impl Trace {
    pub(crate) fn from_parts(mut events: Vec<Event>) -> Self {
        events.sort_by(|a, b| a.start.cmp(&b.start).then(a.rank.cmp(&b.rank)));
        Trace { events }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one rank, in time order.
    pub fn rank_events(&self, rank: usize) -> Vec<&Event> {
        self.events.iter().filter(|e| e.rank == rank).collect()
    }

    /// The largest event end time — equals the run's makespan when every
    /// rank's last action was traced.
    pub fn makespan(&self) -> VirtualTime {
        self.events.iter().map(|e| e.end).max().unwrap_or(VirtualTime::ZERO)
    }

    /// Fault events only (failure-detector waits, drops, degradations),
    /// in trace order — the run's failure history. Two replays of the
    /// same (program, schedule, seed) produce identical failure
    /// histories; the replay-determinism proptest diffs exactly this.
    pub fn fault_events(&self) -> Vec<&Event> {
        self.events.iter().filter(|e| matches!(e.kind, EventKind::Fault { .. })).collect()
    }

    /// Inter-cluster send events only — the WAN bill, itemized.
    pub fn wan_sends(&self) -> Vec<&Event> {
        self.events
            .iter()
            .filter(|e| {
                matches!(e.kind, EventKind::Send { class, .. } if class.is_inter_cluster())
            })
            .collect()
    }

    /// Pairs every send with the receive that opened it (per-`(src, dst)`
    /// FIFO matching — see [`MessageMatch`]). Unmatched events (e.g. a
    /// send whose receiver errored out before opening it) are simply
    /// absent from the result.
    pub fn match_messages(&self) -> Vec<MessageMatch> {
        use std::collections::BTreeMap;
        // Two passes (a receive's *wait* can begin before its message's
        // send even starts, so a single time-ordered scan would miss
        // pairs): collect per-(src, dst) send and recv indices — scan
        // order preserves each rank's program order — then zip k-th
        // with k-th. BTreeMap (not HashMap) so the iteration below is
        // deterministic — the `commlint` hashmap-iter rule enforces this
        // for every function on a result path.
        let mut sends: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        let mut recvs: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for (i, e) in self.events.iter().enumerate() {
            match e.kind {
                EventKind::Send { to, .. } => sends.entry((e.rank, to)).or_default().push(i),
                EventKind::Recv { from, .. } => recvs.entry((from, e.rank)).or_default().push(i),
                _ => {}
            }
        }
        let mut out: Vec<MessageMatch> = sends
            .iter()
            .flat_map(|(key, ss)| {
                let rs = recvs.get(key).map(Vec::as_slice).unwrap_or(&[]);
                ss.iter().zip(rs).map(|(&send, &recv)| MessageMatch { send, recv })
            })
            .collect();
        out.sort_by_key(|m| m.send);
        out
    }

    /// Renders a compact text timeline: one line per event,
    /// `[start..end] rank action`, microsecond precision.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let span = format!("[{:>12.6}s ..{:>12.6}s]", e.start.secs(), e.end.secs());
            let what = match &e.kind {
                EventKind::Send { to, bytes, class, .. } => {
                    format!("send -> {to:<4} {bytes:>10} B  [{}]", class.label())
                }
                EventKind::Recv { from, bytes, class, .. } => {
                    format!("recv <- {from:<4} {bytes:>10} B  [{}]", class.label())
                }
                EventKind::Compute { flops } => format!("compute {flops:>14} flops"),
                EventKind::Phase { name } => format!("phase   {name}"),
                EventKind::Fault { peer, class, kind } => {
                    format!("fault   {:<13} peer {peer:<4} [{}]", kind.label(), class.label())
                }
            };
            let phase = e.phase.map(|p| format!("  @{p}")).unwrap_or_default();
            let _ = writeln!(out, "{span} rank {:<4} {what}{phase}", e.rank);
        }
        out
    }

    /// A per-rank utilization summary: fraction of the makespan spent in
    /// traced compute.
    pub fn compute_utilization(&self, num_ranks: usize) -> Vec<f64> {
        let makespan = self.makespan().secs().max(f64::MIN_POSITIVE);
        let mut busy = vec![0.0; num_ranks];
        for e in &self.events {
            if matches!(e.kind, EventKind::Compute { .. }) && e.rank < num_ranks {
                busy[e.rank] += (e.end - e.start).secs();
            }
        }
        busy.iter().map(|b| b / makespan).collect()
    }
}

/// Per-rank event collector (crate-internal; installed by the runtime).
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    pub events: Vec<Event>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: usize, s: f64, e: f64, kind: EventKind) -> Event {
        Event {
            rank,
            start: VirtualTime::from_secs(s),
            end: VirtualTime::from_secs(e),
            phase: None,
            kind,
        }
    }

    fn send(to: usize, bytes: u64) -> EventKind {
        EventKind::Send { to, bytes, class: LinkClass::IntraCluster, tag: 0 }
    }

    fn recv(from: usize, bytes: u64) -> EventKind {
        EventKind::Recv { from, bytes, class: LinkClass::IntraCluster, tag: 0, wildcard: false }
    }

    #[test]
    fn merge_sorts_by_time_then_rank() {
        let t = Trace::from_parts(vec![
            ev(1, 2.0, 3.0, EventKind::Compute { flops: 5 }),
            ev(0, 1.0, 2.0, EventKind::Compute { flops: 1 }),
            ev(2, 1.0, 1.5, EventKind::Compute { flops: 2 }),
        ]);
        let starts: Vec<(f64, usize)> =
            t.events.iter().map(|e| (e.start.secs(), e.rank)).collect();
        assert_eq!(starts, vec![(1.0, 0), (1.0, 2), (2.0, 1)]);
        assert_eq!(t.makespan().secs(), 3.0);
    }

    #[test]
    fn wan_filter() {
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 1.0, EventKind::Send { to: 1, bytes: 8, class: LinkClass::IntraNode, tag: 0 }),
            ev(
                0,
                1.0,
                2.0,
                EventKind::Send { to: 5, bytes: 8, class: LinkClass::InterCluster(0, 1), tag: 0 },
            ),
        ]);
        assert_eq!(t.wan_sends().len(), 1);
    }

    #[test]
    fn render_contains_all_lines() {
        let mut phased = ev(1, 0.5, 0.6, recv(0, 64));
        phased.phase = Some("tree-reduce");
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 0.5, EventKind::Compute { flops: 42 }),
            phased,
            ev(1, 0.0, 0.6, EventKind::Phase { name: "tree-reduce" }),
        ]);
        let text = t.render();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("compute"));
        assert!(text.contains("recv <- 0"));
        assert!(text.contains("@tree-reduce"));
        assert!(text.contains("phase   tree-reduce"));
    }

    #[test]
    fn utilization_fractions() {
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 1.0, EventKind::Compute { flops: 1 }),
            ev(1, 0.0, 2.0, EventKind::Compute { flops: 1 }),
        ]);
        let u = t.compute_utilization(2);
        assert!((u[0] - 0.5).abs() < 1e-12);
        assert!((u[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn message_matching_is_fifo_per_pair() {
        // Rank 0 sends twice to rank 1; rank 2 also sends to rank 1.
        let t = Trace::from_parts(vec![
            ev(0, 0.0, 1.0, send(1, 8)),
            ev(2, 0.0, 1.0, send(1, 16)),
            ev(0, 1.0, 2.0, send(1, 24)),
            ev(1, 0.0, 1.0, recv(0, 8)),
            ev(1, 1.0, 1.5, recv(2, 16)),
            ev(1, 1.5, 2.0, recv(0, 24)),
        ]);
        let m = t.match_messages();
        assert_eq!(m.len(), 3);
        for pair in &m {
            let (s, r) = (&t.events[pair.send], &t.events[pair.recv]);
            match (&s.kind, &r.kind) {
                (EventKind::Send { to, bytes: sb, .. }, EventKind::Recv { from, bytes: rb, .. }) => {
                    assert_eq!(*to, r.rank);
                    assert_eq!(*from, s.rank);
                    assert_eq!(sb, rb, "FIFO matching pairs equal payloads here");
                }
                _ => panic!("matched pair must be send/recv"),
            }
        }
    }

    #[test]
    fn unmatched_sends_are_skipped() {
        let t = Trace::from_parts(vec![ev(0, 0.0, 1.0, send(1, 8))]);
        assert!(t.match_messages().is_empty());
    }
}
