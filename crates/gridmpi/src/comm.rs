//! Communicators and tree collectives.
//!
//! A [`Communicator`] is an ordered set of global ranks — MPI's process
//! group abstraction. `split_by` builds sub-communicators from a color
//! function of the global rank, which is how the QCG-OMPI group identifiers
//! of §III turn into per-cluster communicators (`MPI_Comm_split`).
//!
//! Collectives use the classical binomial/recursive-doubling algorithms, so
//! their critical-path message counts are the `log₂(P)` terms of the
//! paper's Tables I–II:
//!
//! * `bcast` / `reduce`: binomial tree, `log₂(P)` rounds;
//! * `allreduce`: recursive doubling (butterfly), `log₂(P)` full-duplex
//!   exchange rounds — the operation `PDGEQR2` performs twice per column;
//! * `gather` / `allgather`: binomial gather (+ broadcast);
//! * `barrier`: an allreduce of the empty payload.

use crate::error::CommError;
use crate::message::WirePayload;
use crate::process::Process;

/// Reserved tag space for collective operations.
const TAG_BCAST: u32 = 0xFFFF_0001;
const TAG_REDUCE: u32 = 0xFFFF_0002;
const TAG_ALLREDUCE: u32 = 0xFFFF_0003;
const TAG_GATHER: u32 = 0xFFFF_0004;

/// An ordered group of global ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Communicator {
    members: Vec<usize>,
}

impl Communicator {
    /// The world communicator over ranks `0..n`.
    pub fn world(n: usize) -> Self {
        Communicator { members: (0..n).collect() }
    }

    /// A communicator over an explicit, ordered member list.
    pub fn from_members(members: Vec<usize>) -> Self {
        assert!(!members.is_empty(), "empty communicator");
        Communicator { members }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Global rank of member `idx`.
    pub fn member(&self, idx: usize) -> usize {
        self.members[idx]
    }

    /// The ordered member list.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Index of a global rank within this communicator, if present.
    pub fn index_of(&self, global_rank: usize) -> Option<usize> {
        self.members.iter().position(|&r| r == global_rank)
    }

    /// True when the global rank belongs to this communicator.
    pub fn contains(&self, global_rank: usize) -> bool {
        self.index_of(global_rank).is_some()
    }

    /// The caller's index within this communicator.
    ///
    /// Panics if the calling process is not a member — calling a collective
    /// on a communicator one does not belong to is a protocol bug.
    pub fn my_index(&self, p: &Process) -> usize {
        self.index_of(p.rank())
            .unwrap_or_else(|| panic!("rank {} is not in this communicator", p.rank()))
    }

    /// Splits into the sub-communicator of members sharing the caller's
    /// color, ordered by `(key, global rank)` — `MPI_Comm_split` with a
    /// *pure* color function.
    ///
    /// Unlike real MPI no message exchange is needed: in the QCG model the
    /// group structure comes from the JobProfile, which every process
    /// already knows (§III), so colors are a function of the global rank.
    pub fn split_by<C, K>(&self, p: &Process, color: C, key: K) -> Communicator
    where
        C: Fn(usize) -> u64,
        K: Fn(usize) -> u64,
    {
        let my_color = color(p.rank());
        let mut members: Vec<usize> =
            self.members.iter().copied().filter(|&r| color(r) == my_color).collect();
        members.sort_by_key(|&r| (key(r), r));
        Communicator::from_members(members)
    }

    /// Broadcast from member `root_idx`: the root passes `Some(value)`,
    /// everyone receives the value.
    pub fn bcast<M>(&self, p: &mut Process, root_idx: usize, value: Option<M>) -> Result<M, CommError>
    where
        M: WirePayload + Clone,
    {
        let size = self.size();
        assert!(root_idx < size, "bcast root out of range");
        let me = self.my_index(p);
        let rel = (me + size - root_idx) % size;
        let mut val: Option<M> = if rel == 0 {
            Some(value.expect("bcast root must supply a value"))
        } else {
            None
        };
        // Receive phase: find the bit where the parent lives.
        let mut mask = 1usize;
        while mask < size {
            if rel & mask != 0 {
                let parent_rel = rel - mask;
                let parent = self.members[(parent_rel + root_idx) % size];
                val = Some(p.recv::<M>(parent, TAG_BCAST)?);
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children below the found bit.
        let mut send_mask = mask >> 1;
        let v = val.expect("bcast value must be set after receive phase");
        while send_mask > 0 {
            let child_rel = rel + send_mask;
            if rel & send_mask == 0 && child_rel < size {
                let child = self.members[(child_rel + root_idx) % size];
                p.send(child, TAG_BCAST, v.clone())?;
            }
            send_mask >>= 1;
        }
        Ok(v)
    }

    /// Binomial-tree reduction to member `root_idx`. Returns `Some(result)`
    /// at the root, `None` elsewhere.
    ///
    /// `op` must be associative; the reduction order is
    /// `op(lower-index, higher-index)`, so non-commutative operators still
    /// produce deterministic results.
    pub fn reduce<M, F>(
        &self,
        p: &mut Process,
        root_idx: usize,
        value: M,
        op: F,
    ) -> Result<Option<M>, CommError>
    where
        M: WirePayload,
        F: Fn(M, M) -> M,
    {
        let size = self.size();
        assert!(root_idx < size, "reduce root out of range");
        let me = self.my_index(p);
        let rel = (me + size - root_idx) % size;
        let mut val = value;
        let mut mask = 1usize;
        while mask < size {
            if rel & mask == 0 {
                let src_rel = rel | mask;
                if src_rel < size {
                    let src = self.members[(src_rel + root_idx) % size];
                    let other = p.recv::<M>(src, TAG_REDUCE)?;
                    val = op(val, other);
                }
            } else {
                let dst_rel = rel & !mask;
                let dst = self.members[(dst_rel + root_idx) % size];
                p.send(dst, TAG_REDUCE, val)?;
                return Ok(None);
            }
            mask <<= 1;
        }
        Ok(Some(val))
    }

    /// Recursive-doubling all-reduce: every member gets the reduction.
    ///
    /// On `P = 2^k` members this is `log₂(P)` full-duplex exchange rounds —
    /// the message count the paper charges per `PDGEQR2` column reduction.
    /// Non-powers-of-two use the standard fold-in/fold-out fixup.
    pub fn allreduce<M, F>(&self, p: &mut Process, value: M, op: F) -> Result<M, CommError>
    where
        M: WirePayload + Clone,
        F: Fn(M, M) -> M,
    {
        let size = self.size();
        let me = self.my_index(p);
        let pof2 = size.next_power_of_two() / if size.is_power_of_two() { 1 } else { 2 };
        let rem = size - pof2;
        let mut val = value;

        // Fold the first 2·rem members down to rem participants.
        let newidx: Option<usize> = if me < 2 * rem {
            if me.is_multiple_of(2) {
                p.send(self.members[me + 1], TAG_ALLREDUCE, val.clone())?;
                None
            } else {
                let other = p.recv::<M>(self.members[me - 1], TAG_ALLREDUCE)?;
                val = op(other, val);
                Some(me / 2)
            }
        } else {
            Some(me - rem)
        };

        if let Some(newidx) = newidx {
            let mut mask = 1usize;
            while mask < pof2 {
                let partner_new = newidx ^ mask;
                let partner = if partner_new < rem {
                    self.members[partner_new * 2 + 1]
                } else {
                    self.members[partner_new + rem]
                };
                let got = p.exchange(partner, TAG_ALLREDUCE, val.clone())?;
                val = if partner_new < newidx { op(got, val) } else { op(val, got) };
                mask <<= 1;
            }
        }

        // Unfold: odd members of the folded prefix push the result back.
        if me < 2 * rem {
            if !me.is_multiple_of(2) {
                p.send(self.members[me - 1], TAG_ALLREDUCE, val.clone())?;
            } else {
                val = p.recv::<M>(self.members[me + 1], TAG_ALLREDUCE)?;
            }
        }
        Ok(val)
    }

    /// Binomial-tree gather to member `root_idx`: the root receives every
    /// member's value in member order, others get `None`.
    pub fn gather<M>(
        &self,
        p: &mut Process,
        root_idx: usize,
        value: M,
    ) -> Result<Option<Vec<M>>, CommError>
    where
        M: WirePayload,
    {
        let size = self.size();
        assert!(root_idx < size, "gather root out of range");
        let me = self.my_index(p);
        let rel = (me + size - root_idx) % size;
        let mut collected: Vec<(usize, M)> = vec![(me, value)];
        let mut mask = 1usize;
        while mask < size {
            if rel & mask == 0 {
                let src_rel = rel | mask;
                if src_rel < size {
                    let src = self.members[(src_rel + root_idx) % size];
                    let mut batch = p.recv::<Vec<(usize, M)>>(src, TAG_GATHER)?;
                    collected.append(&mut batch);
                }
            } else {
                let dst_rel = rel & !mask;
                let dst = self.members[(dst_rel + root_idx) % size];
                p.send(dst, TAG_GATHER, collected)?;
                return Ok(None);
            }
            mask <<= 1;
        }
        collected.sort_by_key(|(idx, _)| *idx);
        Ok(Some(collected.into_iter().map(|(_, v)| v).collect()))
    }

    /// Gather to member 0, then broadcast: every member gets all values in
    /// member order.
    pub fn allgather<M>(&self, p: &mut Process, value: M) -> Result<Vec<M>, CommError>
    where
        M: WirePayload + Clone,
    {
        let gathered = self.gather(p, 0, value)?;
        self.bcast(p, 0, gathered)
    }

    /// Synchronizes all members (an allreduce of the empty payload): no
    /// member's clock can leave the barrier before every member entered it.
    pub fn barrier(&self, p: &mut Process) -> Result<(), CommError> {
        if self.size() == 1 {
            return Ok(());
        }
        self.allreduce(p, (), |_, _| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

    fn runtime(n: usize) -> Runtime {
        let topo = GridTopology::block_placement(
            vec![ClusterSpec {
                name: "c".into(),
                nodes: n,
                procs_per_node: 1,
                peak_gflops_per_proc: 8.0,
            }],
            n,
            1,
        );
        Runtime::new(topo, CostModel::homogeneous(LinkParams::from_ms_mbps(1.0, 800.0), 1e9, 1))
    }

    #[test]
    fn bcast_delivers_to_all_from_any_root() {
        for n in [1, 2, 3, 5, 8] {
            for root in [0, n - 1, n / 2] {
                let rt = runtime(n);
                let report = rt.run(|p, world| {
                    let v = if world.my_index(p) == root { Some(42.0f64) } else { None };
                    world.bcast(p, root, v)
                });
                for r in &report.ranks {
                    assert_eq!(*r.result.as_ref().unwrap(), 42.0);
                }
            }
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for n in [1, 2, 4, 6, 7, 16] {
            let rt = runtime(n);
            let report = rt.run(|p, world| {
                let me = world.my_index(p) as f64;
                world.reduce(p, 0, me, |a, b| a + b)
            });
            let want = (n * (n - 1) / 2) as f64;
            assert_eq!(report.ranks[0].result.clone().unwrap(), Some(want));
            for r in &report.ranks[1..] {
                assert_eq!(r.result.clone().unwrap(), None);
            }
        }
    }

    #[test]
    fn allreduce_sum_everywhere() {
        for n in [1, 2, 3, 4, 5, 8, 13, 16] {
            let rt = runtime(n);
            let report = rt.run(|p, world| {
                let me = world.my_index(p) as f64;
                world.allreduce(p, me, |a, b| a + b)
            });
            let want = (n * (n - 1) / 2) as f64;
            for (rank, r) in report.ranks.iter().enumerate() {
                assert_eq!(r.result.clone().unwrap(), want, "rank {rank} of {n}");
            }
        }
    }

    #[test]
    fn allreduce_vector_payload() {
        let rt = runtime(4);
        let report = rt.run(|p, world| {
            let me = world.my_index(p) as f64;
            world.allreduce(p, vec![me, 2.0 * me], |a, b| {
                a.iter().zip(&b).map(|(x, y)| x + y).collect()
            })
        });
        for r in &report.ranks {
            assert_eq!(r.result.clone().unwrap(), vec![6.0, 12.0]);
        }
    }

    #[test]
    fn allreduce_message_count_is_log2_for_power_of_two() {
        let n = 16;
        let rt = runtime(n);
        let report = rt.run(|p, world| {
            let me = world.my_index(p) as f64;
            world.allreduce(p, me, |a, b| a + b)?;
            Ok(p.counters().total_msgs())
        });
        for r in &report.ranks {
            assert_eq!(r.result.clone().unwrap(), 4, "each rank sends log2(16) msgs");
        }
    }

    #[test]
    fn gather_collects_in_member_order() {
        for n in [1, 2, 5, 8] {
            let rt = runtime(n);
            let report = rt.run(|p, world| {
                let me = world.my_index(p) as f64;
                world.gather(p, 0, me * 10.0)
            });
            let want: Vec<f64> = (0..n).map(|i| i as f64 * 10.0).collect();
            assert_eq!(report.ranks[0].result.clone().unwrap(), Some(want));
        }
    }

    #[test]
    fn allgather_everywhere() {
        let rt = runtime(6);
        let report = rt.run(|p, world| {
            let me = world.my_index(p);
            world.allgather(p, me as u64)
        });
        let want: Vec<u64> = (0..6).collect();
        for r in &report.ranks {
            assert_eq!(r.result.clone().unwrap(), want);
        }
    }

    #[test]
    fn split_by_groups_and_collectives_within_groups() {
        // 8 ranks, two colors (even/odd); sum within each group.
        let rt = runtime(8);
        let report = rt.run(|p, world| {
            let group = world.split_by(p, |r| (r % 2) as u64, |r| r as u64);
            assert_eq!(group.size(), 4);
            let me = p.rank() as f64;
            group.allreduce(p, me, |a, b| a + b)
        });
        for (rank, r) in report.ranks.iter().enumerate() {
            let want = if rank % 2 == 0 { 0.0 + 2.0 + 4.0 + 6.0 } else { 1.0 + 3.0 + 5.0 + 7.0 };
            assert_eq!(r.result.clone().unwrap(), want);
        }
    }

    #[test]
    fn barrier_aligns_clocks() {
        let rt = runtime(4);
        let report = rt.run(|p, world| {
            // Rank 3 does heavy work before the barrier.
            if p.rank() == 3 {
                p.compute(5_000_000_000, None); // 5 s at 1 Gflop/s
            }
            world.barrier(p)?;
            Ok(p.clock().secs())
        });
        for r in &report.ranks {
            let t = r.result.clone().unwrap();
            assert!(t >= 5.0, "no rank may leave the barrier before the slowest entered");
        }
    }

    #[test]
    fn reduce_is_deterministic_for_noncommutative_op() {
        // String-like concatenation encoded as f64 digit streams is
        // overkill; use (sum, first-index) pairs where order matters.
        let rt = runtime(8);
        let run = || {
            rt.run(|p, world| {
                let me = world.my_index(p) as f64;
                world.reduce(p, 0, vec![me], |mut a, b| {
                    a.extend(b);
                    a
                })
            })
            .ranks[0]
                .result
                .clone()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "reduction order must be schedule-independent");
    }

    #[test]
    #[should_panic(expected = "not in this communicator")]
    fn collective_on_foreign_comm_panics() {
        let rt = runtime(2);
        rt.run(|p, _| {
            let other = Communicator::from_members(vec![1 - p.rank()]);
            let _ = other.my_index(p);
            Ok(())
        });
    }
}
