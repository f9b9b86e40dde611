//! The rank executor: rank programs run as futures, polled by one worker
//! thread per core.
//!
//! Each rank owns a [`PostOffice`] slot: a mutex-guarded queue of
//! incoming envelopes plus a *parked* marker that a receive sets, under
//! the same lock, when it finds the queue empty. A send appends to the
//! destination's queue and, only if that rank is parked, takes its waker
//! and wakes it. Because the marker is read and cleared under the lock
//! the receive set it under, no wake-up is lost.
//!
//! [`run`] spreads the ranks over `W` scoped worker threads with the
//! fixed block map `rank·W/n`, so neighbouring ranks (a site's processes)
//! share a worker and their messages never leave it. A woken rank goes
//! onto its worker's ready queue; a worker with nothing ready parks on a
//! [`Condvar`] and is notified only when a wake finds it parked.
//!
//! **Quiescence.** When every worker is idle while ranks are still
//! pending, each pending rank is parked in a receive that no running
//! rank can ever satisfy: the run is stuck. The executor then resolves it
//! deterministically, in rank order ([`PostOffice::resolve`]): a rank
//! waiting on a rank that already finished gets [`CommError::PeerGone`],
//! and a rank on a wait-for cycle gets [`CommError::Deadlock`] naming the
//! cycle. The failed ranks' abort tombstones then release the rest, in
//! virtual time. Named receives make the stuck state itself a function
//! of the programs alone, so the verdicts are too.

use std::any::Any;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Wake, Waker};

use crate::error::CommError;
use crate::message::Envelope;

/// Locks `m`, ignoring poisoning: rank programs never run while one of
/// these locks is held, and every update under them is a single push,
/// take or counter step, so the data is valid even after a panic (which
/// the run re-raises anyway).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a parked receive waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wait {
    /// A named receive from this rank.
    From(usize),
    /// A wildcard receive.
    Any,
}

/// One rank's mailbox.
#[derive(Default)]
struct Slot {
    /// Envelopes delivered but not yet collected, in arrival order.
    queue: VecDeque<Envelope>,
    /// Set while the owner is parked in a receive on an empty queue.
    parked: Option<(Wait, Waker)>,
    /// The quiescence verdict for the owner's parked receive.
    verdict: Option<CommError>,
    /// True once the owner's program returned.
    finished: bool,
}

/// Every rank's mailbox, shared by all ranks of a run.
pub(crate) struct PostOffice {
    slots: Box<[Mutex<Slot>]>,
}

impl PostOffice {
    pub(crate) fn new(n: usize) -> Self {
        PostOffice { slots: (0..n).map(|_| Mutex::default()).collect() }
    }

    /// Appends `env` to `dst`'s queue, waking `dst` if it is parked.
    /// Never blocks on the receiver.
    pub(crate) fn deliver(&self, dst: usize, env: Envelope) {
        let waker = {
            let mut slot = lock(&self.slots[dst]);
            slot.queue.push_back(env);
            slot.parked.take()
        };
        if let Some((_, waker)) = waker {
            waker.wake();
        }
    }

    /// Moves everything delivered to `rank` into `into` (which the caller
    /// keeps empty between collections) without waiting.
    pub(crate) fn collect(&self, rank: usize, into: &mut VecDeque<Envelope>) {
        into.append(&mut lock(&self.slots[rank]).queue);
    }

    /// Like [`PostOffice::collect`], but parks `rank` (waiting for
    /// `wait`) when nothing was delivered. Resolves to the quiescence
    /// verdict when the executor issued one.
    pub(crate) fn poll_collect(
        &self,
        rank: usize,
        wait: Wait,
        into: &mut VecDeque<Envelope>,
        cx: &mut Context<'_>,
    ) -> Poll<Result<(), CommError>> {
        let mut slot = lock(&self.slots[rank]);
        if let Some(verdict) = slot.verdict.take() {
            return Poll::Ready(Err(verdict));
        }
        if slot.queue.is_empty() {
            slot.parked = Some((wait, cx.waker().clone()));
            return Poll::Pending;
        }
        into.append(&mut slot.queue);
        Poll::Ready(Ok(()))
    }

    /// Marks `rank`'s program as returned.
    fn finish(&self, rank: usize) {
        lock(&self.slots[rank]).finished = true;
    }

    /// Resolves a quiescent run: every unfinished rank is parked on an
    /// empty mailbox. Issues verdicts in rank order and wakes their
    /// receivers:
    ///
    /// * a named wait on a finished rank gets [`CommError::PeerGone`];
    /// * a rank on a wait-for cycle gets [`CommError::Deadlock`];
    /// * only when neither rule applies anywhere does every remaining
    ///   waiter (wildcard receives, waits that lead only into them) get
    ///   `PeerGone`, so each quiescence makes progress.
    ///
    /// Ranks left waiting are released by the tombstones of those that
    /// fail. Returns the number of verdicts issued: zero means some
    /// pending rank is not parked in a receive at all.
    fn resolve(&self) -> usize {
        let mut waits = Vec::new();
        let mut finished = Vec::with_capacity(self.slots.len());
        for (rank, slot) in self.slots.iter().enumerate() {
            let slot = lock(slot);
            finished.push(slot.finished);
            if let Some((wait, _)) = &slot.parked {
                waits.push((rank, *wait));
            }
        }
        let edges: Vec<(usize, usize)> = waits
            .iter()
            .filter_map(|&(r, w)| match w {
                Wait::From(s) => Some((r, s)),
                Wait::Any => None,
            })
            .collect();
        let cycles = crate::hb::wait_for_cycles(&edges);
        let mut verdicts: Vec<(usize, CommError)> = waits
            .iter()
            .filter_map(|&(rank, wait)| {
                let Wait::From(from) = wait else { return None };
                if finished[from] {
                    return Some((rank, CommError::PeerGone { rank, from }));
                }
                let cycle = cycles.iter().find(|c| c.contains(&rank))?;
                Some((rank, CommError::Deadlock { rank, from, cycle: cycle.clone() }))
            })
            .collect();
        if verdicts.is_empty() {
            verdicts = waits
                .iter()
                .map(|&(rank, wait)| {
                    let from = match wait {
                        Wait::From(s) => s,
                        Wait::Any => rank,
                    };
                    (rank, CommError::PeerGone { rank, from })
                })
                .collect();
        }
        // Issue every verdict before waking anyone: a woken rank that
        // fails sends tombstones at once, and a tombstone must never beat
        // a verdict to a receiver that is still parked.
        let wakers: Vec<Waker> = verdicts
            .into_iter()
            .filter_map(|(rank, verdict)| {
                let mut slot = lock(&self.slots[rank]);
                slot.verdict = Some(verdict);
                slot.parked.take().map(|(_, waker)| waker)
            })
            .collect();
        let issued = wakers.len();
        for waker in wakers {
            waker.wake();
        }
        issued
    }
}

/// A worker's ready queue of ranks to poll.
#[derive(Default)]
struct ReadyQueue {
    ranks: VecDeque<usize>,
    /// True while the worker is parked on its condvar.
    parked: bool,
}

#[derive(Default)]
struct WorkerShared {
    queue: Mutex<ReadyQueue>,
    unpark: Condvar,
}

/// Run-wide scheduling state, guarded by one lock that is taken only
/// when a worker parks or unparks, or a rank finishes.
struct Census {
    /// Workers parked with an empty ready queue, or exited.
    idle: usize,
    /// Ranks whose program has not returned.
    live: usize,
    /// The first rank panic, re-raised by [`run`] once all workers stop.
    panic: Option<Box<dyn Any + Send>>,
}

struct Scheduler {
    workers: Box<[WorkerShared]>,
    census: Mutex<Census>,
    /// Set once a rank panicked: every worker stops. A bare stop flag
    /// (`Relaxed`): it publishes no data — the payload sits behind the
    /// census lock — and the queue locks order it against parking.
    aborted: AtomicBool,
    /// `owner[rank]`: the worker that polls `rank`.
    owner: Box<[usize]>,
}

impl Scheduler {
    /// Queues `rank` on its worker, unparking the worker if it sleeps.
    /// The idle count drops under the queue lock, so the last worker to
    /// park can never miss a rank that is already on its way.
    fn schedule(&self, rank: usize) {
        let worker = &self.workers[self.owner[rank]];
        let mut q = lock(&worker.queue);
        q.ranks.push_back(rank);
        if q.parked {
            q.parked = false;
            lock(&self.census).idle -= 1;
            worker.unpark.notify_one();
        }
    }

    fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Records a rank panic and stops every worker.
    fn abort(&self, payload: Box<dyn Any + Send>) {
        lock(&self.census).panic.get_or_insert(payload);
        self.aborted.store(true, Ordering::Relaxed);
        for worker in &self.workers {
            let _q = lock(&worker.queue);
            worker.unpark.notify_one();
        }
    }
}

/// What a worker does next.
enum Next {
    /// Poll the ranks now in the local queue.
    Poll,
    /// The run is quiescent: resolve it, then carry on.
    Resolve,
    /// Stop: this worker's ranks all returned, or a rank panicked.
    Exit,
}

impl Scheduler {
    /// Refills `local` from worker `me`'s ready queue, parking while it
    /// is empty. `mine` is the number of `me`'s ranks still pending.
    fn next(&self, me: usize, mine: usize, local: &mut VecDeque<usize>) -> Next {
        let worker = &self.workers[me];
        let mut q = lock(&worker.queue);
        loop {
            if self.aborted() {
                return Next::Exit;
            }
            if !q.ranks.is_empty() {
                std::mem::swap(local, &mut q.ranks);
                return Next::Poll;
            }
            let mut census = lock(&self.census);
            census.idle += 1;
            if census.idle == self.workers.len() && census.live > 0 {
                // Everyone is idle, so nothing can ever arrive: this
                // worker resolves the stuck ranks and stays active.
                census.idle -= 1;
                return Next::Resolve;
            }
            if mine == 0 {
                // Counted idle for good.
                return Next::Exit;
            }
            drop(census);
            q.parked = true;
            q = worker
                .unpark
                .wait_while(q, |q| q.parked && !self.aborted())
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Wakes one rank by putting it on its worker's ready queue.
struct RankWaker {
    rank: usize,
    sched: Arc<Scheduler>,
}

impl Wake for RankWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.sched.schedule(self.rank);
    }
}

/// Runs `n` rank futures, `make(rank)`, on `workers` scoped threads
/// (one per available core when `None`, never more than `n`) and returns
/// their outputs indexed by rank. Each future is created and polled on
/// its owning worker only, so it need not be `Send`. A rank panic stops
/// the run and is re-raised here.
// archlint: allow(taint) — the one sanctioned host query and thread
// spawn: the core count only sizes the worker pool, and every result is
// a function of the virtual-time cost model alone. The worker-count
// independence test, the happens-before gate, the DPOR-lite explorer and
// the TSan CI job police that boundary.
pub(crate) fn run<T, Fut, M>(n: usize, workers: Option<usize>, post: &PostOffice, make: M) -> Vec<T>
where
    T: Send,
    Fut: Future<Output = T>,
    M: Fn(usize) -> Fut + Sync,
{
    let workers = workers.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let w = workers.clamp(1, n);
    let sched = Arc::new(Scheduler {
        workers: (0..w).map(|_| WorkerShared::default()).collect(),
        census: Mutex::new(Census { idle: 0, live: n, panic: None }),
        aborted: AtomicBool::new(false),
        owner: (0..n).map(|r| r * w / n).collect(),
    });
    let mut outputs: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w)
            .map(|me| {
                let sched = Arc::clone(&sched);
                let make = &make;
                scope.spawn(move || work(me, &sched, post, make))
            })
            .collect();
        for h in handles {
            let done = h.join().unwrap_or_else(|p| resume_unwind(p));
            for (rank, out) in done {
                outputs[rank] = Some(out);
            }
        }
    });
    if let Some(payload) = lock(&sched.census).panic.take() {
        resume_unwind(payload);
    }
    outputs.into_iter().map(|o| o.expect("every rank finished")).collect()
}

/// One worker: polls its block of ranks until they all return.
fn work<T, Fut, M>(
    me: usize,
    sched: &Arc<Scheduler>,
    post: &PostOffice,
    make: &M,
) -> Vec<(usize, T)>
where
    Fut: Future<Output = T>,
    M: Fn(usize) -> Fut,
{
    // The block map gives every worker a non-empty, contiguous range.
    let ranks: Vec<usize> = (0..sched.owner.len()).filter(|&r| sched.owner[r] == me).collect();
    let first = ranks[0];
    let mut futures: Vec<Option<Pin<Box<Fut>>>> =
        ranks.iter().map(|&r| Some(Box::pin(make(r)))).collect();
    let wakers: Vec<Waker> = ranks
        .iter()
        .map(|&rank| Waker::from(Arc::new(RankWaker { rank, sched: Arc::clone(sched) })))
        .collect();
    let mut done = Vec::with_capacity(ranks.len());
    let mut local: VecDeque<usize> = ranks.iter().copied().collect();
    loop {
        let Some(rank) = local.pop_front() else {
            match sched.next(me, ranks.len() - done.len(), &mut local) {
                Next::Poll => continue,
                Next::Resolve => {
                    if post.resolve() > 0 {
                        continue;
                    }
                    // A pending rank that is not parked in a receive
                    // awaited something no rank can ever wake.
                    sched.abort(Box::new("a rank program awaited a future gridmpi does not drive"));
                    break;
                }
                Next::Exit => break,
            }
        };
        let i = rank - first;
        let Some(fut) = futures[i].as_mut() else { continue };
        let mut cx = Context::from_waker(&wakers[i]);
        match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
            Ok(Poll::Pending) => {}
            Ok(Poll::Ready(out)) => {
                futures[i] = None;
                post.finish(rank);
                lock(&sched.census).live -= 1;
                done.push((rank, out));
            }
            Err(payload) => {
                sched.abort(payload);
                break;
            }
        }
    }
    done
}
