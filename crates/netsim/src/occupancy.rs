//! Per-link-class occupancy accounting: wire-busy intervals, utilization
//! timelines, and a rank×rank communication matrix.
//!
//! The simulation already *prices* every message (see [`crate::cost`]);
//! this module answers the follow-up question — **how busy was each class
//! of link, when, and between whom?** The types here are plain
//! accumulators with no notion of ranks' programs: the `tsqr-gridmpi`
//! diagnostics layer feeds them from a trace (each send event is one
//! busy interval on its link class) and renders the result, so the same
//! structures serve any future event source (e.g. a packet-level
//! simulator).
//!
//! Three views:
//!
//! * [`LinkUsage`] — per-class totals: messages, bytes, and busy
//!   (wire-occupancy) seconds, plus the utilization fraction over a
//!   horizon.
//! * [`UtilizationTimeline`] — the same busy seconds, bucketed into a
//!   fixed number of time bins, so you can *see* the paper's Fig. 1/2
//!   story: a long silent leaf phase, then a burst of cluster traffic,
//!   then one WAN message.
//! * [`CommMatrix`] — who sent how much to whom (messages and bytes per
//!   ordered rank pair).
//!
//! All three are deterministic and mergeable; the rendered forms are
//! documented in `docs/observability.md` §8.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::cost::LinkClass;

/// Number of coarse link-class buckets (mirrors [`LinkClass::N_BUCKETS`]).
const B: usize = LinkClass::N_BUCKETS;

/// Aggregate per-link-class usage: message/byte counts and busy seconds.
///
/// "Busy" sums the wire-occupancy spans of individual messages; because a
/// class aggregates many physical links that can be active concurrently,
/// the utilization of a class over a horizon can exceed 1.0 — that is
/// parallelism, not an error.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkUsage {
    msgs: [u64; B],
    bytes: [u64; B],
    busy_s: [f64; B],
}

impl LinkUsage {
    /// Records one message of `bytes` occupying a `bucket`-class link for
    /// `start_s..end_s` seconds.
    pub fn record(&mut self, bucket: usize, bytes: u64, start_s: f64, end_s: f64) {
        assert!(bucket < B, "link-class bucket out of range: {bucket}");
        self.msgs[bucket] += 1;
        self.bytes[bucket] += bytes;
        self.busy_s[bucket] += (end_s - start_s).max(0.0);
    }

    /// Messages recorded on one class bucket.
    pub fn msgs(&self, bucket: usize) -> u64 {
        self.msgs[bucket]
    }

    /// Bytes recorded on one class bucket.
    pub fn bytes(&self, bucket: usize) -> u64 {
        self.bytes[bucket]
    }

    /// Busy (wire-occupancy) seconds of one class bucket.
    pub fn busy_s(&self, bucket: usize) -> f64 {
        self.busy_s[bucket]
    }

    /// Messages across all classes.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Messages on wide-area links (the last bucket).
    pub fn wan_msgs(&self) -> u64 {
        self.msgs[B - 1]
    }

    /// Busy seconds of a class divided by `horizon_s` (0.0 on an empty
    /// horizon). Can exceed 1.0 when several links of the class were
    /// active concurrently.
    pub fn utilization(&self, bucket: usize, horizon_s: f64) -> f64 {
        if horizon_s <= 0.0 {
            0.0
        } else {
            self.busy_s[bucket] / horizon_s
        }
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &LinkUsage) {
        for i in 0..B {
            self.msgs[i] += other.msgs[i];
            self.bytes[i] += other.bytes[i];
            self.busy_s[i] += other.busy_s[i];
        }
    }

    /// One row per class: `class  msgs  bytes  busy s  util`.
    pub fn render(&self, horizon_s: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>14} {:>12} {:>8}",
            "class", "msgs", "bytes", "busy s", "util"
        );
        for b in 0..B {
            let _ = writeln!(
                out,
                "{:<8} {:>10} {:>14} {:>12.6} {:>8.3}",
                LinkClass::bucket_label(b),
                self.msgs[b],
                self.bytes[b],
                self.busy_s[b],
                self.utilization(b, horizon_s),
            );
        }
        out
    }
}

/// Per-class busy seconds bucketed into fixed time bins over
/// `[0, horizon]` — a poor man's bandwidth chart.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationTimeline {
    horizon_s: f64,
    /// `bins[class][bin]` = busy seconds of that class inside the bin.
    bins: Vec<[f64; B]>,
}

impl UtilizationTimeline {
    /// An empty timeline over `[0, horizon_s]` with `bins` equal bins.
    pub fn new(horizon_s: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(horizon_s >= 0.0, "horizon must be non-negative");
        UtilizationTimeline { horizon_s, bins: vec![[0.0; B]; bins] }
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// The horizon the bins cover.
    pub fn horizon_s(&self) -> f64 {
        self.horizon_s
    }

    /// Width of one bin in seconds.
    pub fn bin_width_s(&self) -> f64 {
        self.horizon_s / self.bins.len() as f64
    }

    /// Records a busy interval `start_s..end_s` on class `bucket`,
    /// splitting it across the bins it overlaps. Portions outside the
    /// horizon are clamped away.
    pub fn record(&mut self, bucket: usize, start_s: f64, end_s: f64) {
        assert!(bucket < B, "link-class bucket out of range: {bucket}");
        if self.horizon_s <= 0.0 || end_s <= start_s {
            return;
        }
        let w = self.bin_width_s();
        let lo = (start_s.max(0.0) / w).floor() as usize;
        let hi = ((end_s.min(self.horizon_s) / w).ceil() as usize).min(self.bins.len());
        for bin in lo..hi {
            let bin_start = bin as f64 * w;
            let bin_end = bin_start + w;
            let overlap = end_s.min(bin_end) - start_s.max(bin_start);
            if overlap > 0.0 {
                self.bins[bin][bucket] += overlap;
            }
        }
    }

    /// Busy seconds of class `bucket` inside `bin`.
    pub fn busy_s(&self, bucket: usize, bin: usize) -> f64 {
        self.bins[bin][bucket]
    }

    /// Busy fraction of class `bucket` inside `bin` (busy seconds over
    /// bin width; can exceed 1.0 when links of the class run in
    /// parallel).
    pub fn fraction(&self, bucket: usize, bin: usize) -> f64 {
        let w = self.bin_width_s();
        if w <= 0.0 {
            0.0
        } else {
            self.bins[bin][bucket] / w
        }
    }

    /// One sparkline-style row per class; each bin renders as a digit-ish
    /// glyph scaled by its busy fraction (`.` idle, `9`/`#` saturated or
    /// oversubscribed).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bins: {} x {:.6} s (glyph = busy fraction, '#' >= 1.0 i.e. links active in parallel)",
            self.num_bins(),
            self.bin_width_s()
        );
        for b in 0..B {
            let mut row = String::new();
            for bin in 0..self.num_bins() {
                let f = self.fraction(b, bin);
                row.push(if f <= 0.0 {
                    '.'
                } else if f >= 1.0 {
                    '#'
                } else {
                    // 0 < f < 1 → '1'..='9'.
                    char::from_digit(((f * 10.0) as u32).clamp(1, 9), 10).unwrap()
                });
            }
            let _ = writeln!(out, "{:<8} |{row}|", LinkClass::bucket_label(b));
        }
        out
    }
}

/// Fluid-flow processor sharing over a set of physical links — the
/// pricing hook a multi-job scheduler uses to make concurrent transfers
/// genuinely slow each other down.
///
/// Each *flow* (one job's wide-area traffic) occupies a set of links,
/// identified by an ordered site pair `(a, b)` with `a <= b`. A link
/// serving `k` flows gives each of them `1/k` of its capacity, and a
/// flow progresses at the rate of its **most contended** link — the
/// max-of-bottlenecks convention matching the cost model's NIC
/// serialization (a job's WAN sends already serialize at the receiving
/// root, so its drain is a single queue throttled by the worst link).
///
/// The tracker is a plain deterministic accumulator: `join`/`leave`
/// update per-link flow counts, [`SharedLinks::rate`] answers "at what
/// fraction of solo speed does this flow drain *right now*". Event-loop
/// integration (advancing remainders piecewise while counts are
/// constant) is the caller's job; see `tsqr-serve`'s engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedLinks {
    flows: BTreeMap<(usize, usize), usize>,
}

impl SharedLinks {
    /// Normalizes a site pair to the canonical `(min, max)` key.
    pub fn key(a: usize, b: usize) -> (usize, usize) {
        (a.min(b), a.max(b))
    }

    /// Registers one flow on every link in `links` (keys from
    /// [`SharedLinks::key`]; duplicates in the slice count once — pass a
    /// deduplicated set).
    pub fn join(&mut self, links: &[(usize, usize)]) {
        for &l in links {
            *self.flows.entry(l).or_insert(0) += 1;
        }
    }

    /// Removes one flow from every link in `links`.
    ///
    /// # Panics
    /// Panics when a link has no registered flow — a join/leave
    /// imbalance is a scheduler bug worth failing loudly on.
    pub fn leave(&mut self, links: &[(usize, usize)]) {
        for &l in links {
            let n = self.flows.get_mut(&l).expect("leave without matching join");
            *n -= 1;
            if *n == 0 {
                self.flows.remove(&l);
            }
        }
    }

    /// Flows currently sharing one link.
    pub fn flows_on(&self, link: (usize, usize)) -> usize {
        self.flows.get(&link).copied().unwrap_or(0)
    }

    /// Links with at least one registered flow, in canonical key order
    /// (deterministic — the map is a `BTreeMap`).
    pub fn active_links(&self) -> Vec<(usize, usize)> {
        self.flows.keys().copied().collect()
    }

    /// The drain rate (fraction of solo capacity, in `(0, 1]`) of a flow
    /// occupying `links`: `1 / max(flow count)` across them. A flow with
    /// no links (a single-site job) drains at full rate.
    pub fn rate(&self, links: &[(usize, usize)]) -> f64 {
        let worst = links.iter().map(|l| self.flows_on(*l)).max().unwrap_or(0);
        if worst <= 1 {
            1.0
        } else {
            1.0 / worst as f64
        }
    }
}

/// A dense rank×rank communication matrix: messages and bytes per ordered
/// `(src, dst)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CommMatrix {
    n: usize,
    msgs: Vec<u64>,
    bytes: Vec<u64>,
}

impl CommMatrix {
    /// An empty `n × n` matrix.
    pub fn new(n: usize) -> Self {
        CommMatrix { n, msgs: vec![0; n * n], bytes: vec![0; n * n] }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.n
    }

    /// Records one `bytes`-sized message from `src` to `dst`.
    pub fn record(&mut self, src: usize, dst: usize, bytes: u64) {
        assert!(src < self.n && dst < self.n, "rank out of range ({src}, {dst})");
        self.msgs[src * self.n + dst] += 1;
        self.bytes[src * self.n + dst] += bytes;
    }

    /// Messages sent from `src` to `dst`.
    pub fn msgs(&self, src: usize, dst: usize) -> u64 {
        self.msgs[src * self.n + dst]
    }

    /// Bytes sent from `src` to `dst`.
    pub fn bytes(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.n + dst]
    }

    /// Total messages.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// The `k` heaviest ordered pairs by bytes (ties broken by `(src,
    /// dst)` for determinism), as `(src, dst, msgs, bytes)`.
    pub fn top_pairs(&self, k: usize) -> Vec<(usize, usize, u64, u64)> {
        let mut pairs: Vec<(usize, usize, u64, u64)> = (0..self.n)
            .flat_map(|s| (0..self.n).map(move |d| (s, d)))
            .filter(|&(s, d)| self.msgs(s, d) > 0)
            .map(|(s, d)| (s, d, self.msgs(s, d), self.bytes(s, d)))
            .collect();
        pairs.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        pairs.truncate(k);
        pairs
    }

    /// Element-wise sum. Panics on mismatched sizes.
    pub fn merge(&mut self, other: &CommMatrix) {
        assert_eq!(self.n, other.n, "comm-matrix size mismatch");
        for i in 0..self.msgs.len() {
            self.msgs[i] += other.msgs[i];
            self.bytes[i] += other.bytes[i];
        }
    }

    /// A dense message-count table when `n` is small, else the heaviest
    /// pairs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.n <= 16 {
            let _ = write!(out, "{:>6}", "msgs");
            for d in 0..self.n {
                let _ = write!(out, " {d:>5}");
            }
            out.push('\n');
            for s in 0..self.n {
                let _ = write!(out, "{s:>6}");
                for d in 0..self.n {
                    let m = self.msgs(s, d);
                    if m == 0 {
                        let _ = write!(out, " {:>5}", ".");
                    } else {
                        let _ = write!(out, " {m:>5}");
                    }
                }
                out.push('\n');
            }
        } else {
            let _ = writeln!(
                out,
                "{} ranks, {} msgs, {} bytes; heaviest pairs:",
                self.n,
                self.total_msgs(),
                self.total_bytes()
            );
            for (s, d, m, b) in self.top_pairs(10) {
                let _ = writeln!(out, "  {s:>4} -> {d:<4} {m:>8} msgs {b:>14} bytes");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_usage_accumulates_and_normalizes() {
        let mut u = LinkUsage::default();
        u.record(0, 100, 0.0, 0.5);
        u.record(0, 50, 1.0, 1.5);
        u.record(2, 8, 0.0, 2.0);
        assert_eq!(u.msgs(0), 2);
        assert_eq!(u.bytes(0), 150);
        assert_eq!(u.total_msgs(), 3);
        assert_eq!(u.wan_msgs(), 1);
        assert!((u.busy_s(0) - 1.0).abs() < 1e-12);
        assert!((u.utilization(0, 2.0) - 0.5).abs() < 1e-12);
        assert!((u.utilization(2, 2.0) - 1.0).abs() < 1e-12);
        assert_eq!(u.utilization(1, 0.0), 0.0);
        let mut v = LinkUsage::default();
        v.record(1, 10, 0.0, 0.25);
        u.merge(&v);
        assert_eq!(u.msgs(1), 1);
        assert!(u.render(2.0).contains("wan"));
    }

    #[test]
    fn timeline_splits_intervals_across_bins() {
        let mut t = UtilizationTimeline::new(4.0, 4);
        // Covers all of bin 1 and half of bin 2.
        t.record(1, 1.0, 2.5);
        assert!((t.busy_s(1, 0)).abs() < 1e-12);
        assert!((t.busy_s(1, 1) - 1.0).abs() < 1e-12);
        assert!((t.busy_s(1, 2) - 0.5).abs() < 1e-12);
        assert!((t.fraction(1, 1) - 1.0).abs() < 1e-12);
        assert!((t.fraction(1, 2) - 0.5).abs() < 1e-12);
        // Overlapping second interval oversubscribes the bin.
        t.record(1, 1.0, 2.0);
        assert!(t.fraction(1, 1) > 1.0);
        let r = t.render();
        assert!(r.contains("cluster"));
        assert!(r.contains('#'), "oversubscribed bin renders as #:\n{r}");
    }

    #[test]
    fn timeline_clamps_out_of_horizon_intervals() {
        let mut t = UtilizationTimeline::new(1.0, 2);
        t.record(0, 0.75, 9.0); // tail clamped to the horizon
        t.record(0, 5.0, 6.0); // entirely outside
        assert!((t.busy_s(0, 1) - 0.25).abs() < 1e-12);
        assert_eq!(t.busy_s(0, 0), 0.0);
        // Degenerate horizon is a no-op.
        let mut z = UtilizationTimeline::new(0.0, 2);
        z.record(0, 0.0, 1.0);
        assert_eq!(z.busy_s(0, 0), 0.0);
        assert_eq!(z.fraction(0, 0), 0.0);
    }

    #[test]
    fn shared_links_processor_sharing() {
        let mut s = SharedLinks::default();
        let a = vec![SharedLinks::key(1, 0), SharedLinks::key(0, 2)];
        let b = vec![SharedLinks::key(0, 1)];
        assert_eq!(a[0], (0, 1), "keys normalize to (min, max)");
        assert_eq!(s.rate(&a), 1.0, "empty tracker: full rate");
        s.join(&a);
        assert_eq!(s.rate(&a), 1.0, "solo flow: full rate");
        s.join(&b);
        assert_eq!(s.flows_on((0, 1)), 2);
        assert_eq!(s.rate(&a), 0.5, "bottlenecked by the shared (0,1) link");
        assert_eq!(s.rate(&b), 0.5);
        assert_eq!(s.rate(&[]), 1.0, "link-free flow is never throttled");
        s.leave(&b);
        assert_eq!(s.rate(&a), 1.0);
        s.leave(&a);
        assert_eq!(s, SharedLinks::default(), "fully drained tracker is empty");
    }

    #[test]
    #[should_panic(expected = "leave without matching join")]
    fn shared_links_unbalanced_leave_panics() {
        let mut s = SharedLinks::default();
        s.leave(&[(0, 1)]);
    }

    #[test]
    fn comm_matrix_counts_pairs() {
        let mut m = CommMatrix::new(4);
        m.record(0, 1, 100);
        m.record(0, 1, 50);
        m.record(2, 3, 8);
        assert_eq!(m.msgs(0, 1), 2);
        assert_eq!(m.bytes(0, 1), 150);
        assert_eq!(m.msgs(1, 0), 0);
        assert_eq!(m.total_msgs(), 3);
        assert_eq!(m.total_bytes(), 158);
        assert_eq!(m.top_pairs(1), vec![(0, 1, 2, 150)]);
        let mut other = CommMatrix::new(4);
        other.record(0, 1, 1);
        m.merge(&other);
        assert_eq!(m.msgs(0, 1), 3);
        assert!(m.render().contains("msgs"));
    }

    #[test]
    fn comm_matrix_renders_big_as_top_pairs() {
        let mut m = CommMatrix::new(32);
        m.record(3, 17, 1000);
        m.record(9, 2, 10);
        let r = m.render();
        assert!(r.contains("heaviest pairs"));
        assert!(r.contains("3 -> 17"));
    }
}
