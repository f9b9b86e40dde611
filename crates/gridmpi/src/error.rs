//! Communication errors.

use std::fmt;

use tsqr_netsim::VirtualTime;

/// Errors surfaced by the message-passing layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The (injected) link between two ranks is down.
    LinkDown {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
    },
    /// A rank crashed per the failure schedule. Surfaced both *by* the
    /// crashed rank (every operation it attempts at or after its crash
    /// time fails with its own rank) and *about* it (a peer's failure
    /// detector declares it dead — see `docs/fault-injection.md`).
    RankFailed {
        /// The rank that crashed.
        rank: usize,
        /// Virtual time of the crash.
        at: VirtualTime,
    },
    /// A message was lost in transit (transient drop from the failure
    /// schedule) and the bounded retransmission budget was exhausted.
    MessageDropped {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Transmission attempts made before giving up.
        attempts: u32,
    },
    /// A receive on a **wait-for cycle**: every rank left was waiting
    /// and this one's wait leads back to itself, a true communication
    /// deadlock. Issued by [`crate::Runtime`] when the run goes quiescent,
    /// with or without tracing (see `docs/static-analysis.md`).
    Deadlock {
        /// The rank that was waiting.
        rank: usize,
        /// The rank it was waiting for.
        from: usize,
        /// The wait-for cycle: `cycle[0]` waited on `cycle[1]` waited on
        /// … waited on `cycle[0]`.
        cycle: Vec<usize>,
    },
    /// The peer will never send: its program returned (an abort
    /// tombstone, or the run went quiescent after it finished) while this
    /// rank was still waiting on it. For a wildcard receive `from` is the
    /// waiting rank itself.
    PeerGone {
        /// The rank that was waiting.
        rank: usize,
        /// The rank it was waiting for.
        from: usize,
    },
    /// A message arrived with an unexpected tag — a protocol bug in the
    /// rank program.
    TagMismatch {
        /// Tag the receiver expected.
        expected: u32,
        /// Tag that actually arrived.
        got: u32,
    },
    /// A message payload had a different type than the receiver requested.
    TypeMismatch {
        /// Static type name the receiver asked for.
        expected: &'static str,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::LinkDown { src, dst } => {
                write!(f, "link {src} -> {dst} is down")
            }
            CommError::RankFailed { rank, at } => {
                write!(f, "rank {rank} crashed at t={:.6}s", at.secs())
            }
            CommError::MessageDropped { src, dst, attempts } => {
                write!(
                    f,
                    "message {src} -> {dst} lost in transit ({attempts} attempts)"
                )
            }
            CommError::Deadlock { rank, from, cycle } => {
                write!(
                    f,
                    "rank {rank} deadlocked waiting for {from} (wait-for cycle: "
                )?;
                for r in cycle {
                    write!(f, "{r} -> ")?;
                }
                write!(f, "{})", cycle.first().copied().unwrap_or(*rank))
            }
            CommError::PeerGone { rank, from } => {
                write!(f, "rank {rank}: peer {from} terminated before sending")
            }
            CommError::TagMismatch { expected, got } => {
                write!(f, "tag mismatch: expected {expected}, got {got}")
            }
            CommError::TypeMismatch { expected } => {
                write!(f, "payload type mismatch: expected {expected}")
            }
        }
    }
}

impl std::error::Error for CommError {}
