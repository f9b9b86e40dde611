//! A typed metrics registry: per-rank, per-phase counters and histograms.
//!
//! Every [`crate::Process`] carries a [`MetricsRegistry`] that is updated
//! on each `send`/`recv`/`compute`, bucketed by the algorithm phase the
//! rank program declared via [`crate::Process::phase_begin`] /
//! [`crate::Process::phase_end`] (work outside any phase lands in
//! [`UNPHASED`]). Unlike tracing — which records every event and is
//! opt-in — metrics are cheap aggregates and always on. The runtime
//! returns one registry per rank in [`crate::RunReport::metrics`];
//! [`crate::RunReport::aggregate_metrics`] folds them into one.
//!
//! The schema is documented in `docs/observability.md`. In short, a
//! [`PhaseCounters`] is the paper's Eq. (1) ledger for one phase —
//! messages and bytes per link class (the `β` and `α` terms), flops (the
//! `γ` term) — plus the virtual seconds actually spent sending,
//! computing, and blocked in receives.

use std::fmt::Write as _;

use tsqr_netsim::LinkClass;

/// Phase label used for work recorded outside any open phase.
pub const UNPHASED: &str = "(unphased)";

/// Number of link-class buckets (mirrors [`LinkClass::N_BUCKETS`]).
const B: usize = LinkClass::N_BUCKETS;

/// A log2-bucketed histogram of `u64` samples (message sizes, flop
/// counts). Bucket `i` holds values whose bit length is `i`, i.e.
/// `v == 0 → 0`, `v ∈ [2^(i-1), 2^i) → i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: [0; 65], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Element-wise sum of two histograms.
    pub fn merge(&mut self, other: &Histogram) {
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i];
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Eq. (1) ledger for one phase: message/byte/flop counts plus the
/// virtual seconds they took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseCounters {
    /// Messages sent, per link-class bucket (see [`LinkClass::bucket`]).
    pub msgs: [u64; B],
    /// Payload bytes sent, per link-class bucket.
    pub bytes: [u64; B],
    /// Flops charged.
    pub flops: u64,
    /// Virtual seconds spent in blocking sends, per link-class bucket.
    pub send_s: [f64; B],
    /// Virtual seconds spent in [`crate::Process::compute`].
    pub compute_s: f64,
    /// Virtual seconds the rank's clock was blocked waiting in receives
    /// — idle time, in the sense of the paper's timeline figures.
    pub recv_wait_s: f64,
}

impl PhaseCounters {
    /// Total messages across link classes.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total bytes across link classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Messages that crossed a wide-area link.
    pub fn wan_msgs(&self) -> u64 {
        self.msgs[B - 1]
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &PhaseCounters) {
        for i in 0..B {
            self.msgs[i] += other.msgs[i];
            self.bytes[i] += other.bytes[i];
            self.send_s[i] += other.send_s[i];
        }
        self.flops += other.flops;
        self.compute_s += other.compute_s;
        self.recv_wait_s += other.recv_wait_s;
    }
}

/// Per-phase counters plus per-link-class message-size histograms for
/// one rank (or, after merging, a whole run).
///
/// Phases keep insertion order, so a merged registry lists phases in the
/// order rank programs first entered them.
///
/// ```
/// use tsqr_gridmpi::metrics::MetricsRegistry;
/// use tsqr_netsim::LinkClass;
///
/// let mut m = MetricsRegistry::default();
/// m.record_compute(Some("leaf-qr"), 1_000, 0.5);
/// m.record_send(Some("tree-reduce"), LinkClass::InterCluster(0, 1), 120, 0.02);
/// m.record_recv(None, LinkClass::IntraNode, 120, 0.01);
///
/// assert_eq!(m.phase("leaf-qr").unwrap().flops, 1_000);
/// assert_eq!(m.phase("tree-reduce").unwrap().wan_msgs(), 1);
/// let total = m.total();
/// assert_eq!(total.total_bytes(), 120);       // only sends count bytes
/// assert!((total.recv_wait_s - 0.01).abs() < 1e-12);
/// assert_eq!(m.msg_bytes(LinkClass::InterCluster(0, 1).bucket()).count(), 1);
/// assert!(m.render().contains("tree-reduce"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    /// `(phase, counters)` in first-entered order. Small (a handful of
    /// phases), so lookups are linear scans.
    phases: Vec<(&'static str, PhaseCounters)>,
    /// Sent-message payload sizes, one histogram per link-class bucket.
    msg_bytes: [Histogram; B],
}

impl MetricsRegistry {
    /// The counters of `phase`, if any work was recorded under it.
    pub fn phase(&self, phase: &str) -> Option<&PhaseCounters> {
        self.phases.iter().find(|(p, _)| *p == phase).map(|(_, c)| c)
    }

    /// Mutable counters of `phase`, created on first touch.
    pub fn phase_mut(&mut self, phase: &'static str) -> &mut PhaseCounters {
        if let Some(i) = self.phases.iter().position(|(p, _)| *p == phase) {
            &mut self.phases[i].1
        } else {
            self.phases.push((phase, PhaseCounters::default()));
            &mut self.phases.last_mut().expect("just pushed").1
        }
    }

    /// Phases in first-entered order.
    pub fn phase_names(&self) -> Vec<&'static str> {
        self.phases.iter().map(|(p, _)| *p).collect()
    }

    /// The sent-message size histogram of one link-class bucket.
    pub fn msg_bytes(&self, bucket: usize) -> &Histogram {
        &self.msg_bytes[bucket]
    }

    /// Sum of all phase counters.
    pub fn total(&self) -> PhaseCounters {
        let mut out = PhaseCounters::default();
        for (_, c) in &self.phases {
            out.merge(c);
        }
        out
    }

    /// Records a send of `bytes` over `class` that took `secs`.
    pub fn record_send(
        &mut self,
        phase: Option<&'static str>,
        class: LinkClass,
        bytes: u64,
        secs: f64,
    ) {
        let b = class.bucket();
        let c = self.phase_mut(phase.unwrap_or(UNPHASED));
        c.msgs[b] += 1;
        c.bytes[b] += bytes;
        c.send_s[b] += secs;
        self.msg_bytes[b].record(bytes);
    }

    /// Records a receive over `class` that blocked the clock for `secs`.
    /// (`bytes` is accepted for symmetry; received volume equals sent
    /// volume, so only sends count toward byte totals.)
    pub fn record_recv(
        &mut self,
        phase: Option<&'static str>,
        class: LinkClass,
        bytes: u64,
        secs: f64,
    ) {
        let _ = (class, bytes);
        self.phase_mut(phase.unwrap_or(UNPHASED)).recv_wait_s += secs;
    }

    /// Records a computation of `flops` that took `secs`.
    pub fn record_compute(&mut self, phase: Option<&'static str>, flops: u64, secs: f64) {
        let c = self.phase_mut(phase.unwrap_or(UNPHASED));
        c.flops += flops;
        c.compute_s += secs;
    }

    /// Element-wise sum of two registries. Phases absent from `self`
    /// are appended in `other`'s order.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (p, c) in &other.phases {
            self.phase_mut(p).merge(c);
        }
        for i in 0..B {
            self.msg_bytes[i].merge(&other.msg_bytes[i]);
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Renders a per-phase table: one row per phase, message/byte/flop
    /// counts per link class, and the time split.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>18} {:>20} {:>14} {:>10} {:>10} {:>10}",
            "phase", "msgs n/c/w", "bytes n/c/w", "flops", "send s", "comp s", "wait s"
        );
        let mut rows: Vec<(&str, PhaseCounters)> =
            self.phases.iter().map(|(p, c)| (*p, *c)).collect();
        rows.push(("TOTAL", self.total()));
        for (p, c) in rows {
            let _ = writeln!(
                out,
                "{:<16} {:>18} {:>20} {:>14} {:>10.4} {:>10.4} {:>10.4}",
                p,
                format!("{}/{}/{}", c.msgs[0], c.msgs[1], c.msgs[2]),
                format!("{}/{}/{}", c.bytes[0], c.bytes[1], c.bytes[2]),
                c.flops,
                c.send_s.iter().sum::<f64>(),
                c.compute_s,
                c.recv_wait_s,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1041);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        assert!((h.mean() - 1041.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn merge_preserves_min_max_across_empty_operands() {
        // empty.merge(non-empty) adopts the operand's min/max.
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        b.record(5);
        b.record(90);
        a.merge(&b);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 90);
        // non-empty.merge(empty) keeps its own min/max (the empty
        // sentinel min must not leak through, nor clobber max).
        let mut c = Histogram::default();
        c.record(7);
        c.merge(&Histogram::default());
        assert_eq!(c.min(), 7);
        assert_eq!(c.max(), 7);
        assert_eq!(c.count(), 1);
        // empty.merge(empty) stays empty-benign.
        let mut d = Histogram::default();
        d.merge(&Histogram::default());
        assert_eq!(d.min(), 0);
        assert_eq!(d.max(), 0);
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_merge_matches_combined_stream() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for v in [3u64, 300, 70_000] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 9] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn registry_buckets_by_phase_and_class() {
        let mut m = MetricsRegistry::default();
        m.record_send(Some("panel"), LinkClass::IntraNode, 100, 0.001);
        m.record_send(Some("panel"), LinkClass::InterCluster(0, 2), 200, 0.010);
        m.record_compute(Some("update"), 5_000, 0.5);
        m.record_recv(None, LinkClass::IntraCluster, 100, 0.002);

        assert_eq!(m.phase_names(), vec!["panel", "update", UNPHASED]);
        let panel = m.phase("panel").unwrap();
        assert_eq!(panel.msgs, [1, 0, 1]);
        assert_eq!(panel.bytes, [100, 0, 200]);
        assert_eq!(panel.wan_msgs(), 1);
        assert_eq!(m.phase("update").unwrap().flops, 5_000);
        assert!((m.phase(UNPHASED).unwrap().recv_wait_s - 0.002).abs() < 1e-12);
        assert_eq!(m.msg_bytes(0).count(), 1);
        assert_eq!(m.msg_bytes(2).sum(), 200);

        let t = m.total();
        assert_eq!(t.total_msgs(), 2);
        assert_eq!(t.total_bytes(), 300);
        assert_eq!(t.flops, 5_000);
    }

    #[test]
    fn registry_merge_is_elementwise() {
        let mut a = MetricsRegistry::default();
        a.record_send(Some("panel"), LinkClass::IntraNode, 10, 0.1);
        let mut b = MetricsRegistry::default();
        b.record_send(Some("panel"), LinkClass::IntraNode, 30, 0.2);
        b.record_compute(Some("update"), 7, 0.3);
        a.merge(&b);
        let p = a.phase("panel").unwrap();
        assert_eq!(p.msgs[0], 2);
        assert_eq!(p.bytes[0], 40);
        assert!((p.send_s[0] - 0.3).abs() < 1e-12);
        assert_eq!(a.phase("update").unwrap().flops, 7);
        assert_eq!(a.msg_bytes(0).count(), 2);
    }

    #[test]
    fn render_lists_every_phase_and_total() {
        let mut m = MetricsRegistry::default();
        m.record_compute(Some("leaf-qr"), 42, 0.1);
        m.record_send(Some("tree-reduce"), LinkClass::IntraCluster, 8, 0.01);
        let s = m.render();
        assert!(s.contains("leaf-qr"));
        assert!(s.contains("tree-reduce"));
        assert!(s.contains("TOTAL"));
        assert_eq!(s.lines().count(), 1 + 2 + 1); // header + phases + total
    }
}
