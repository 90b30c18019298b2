//! Shared fault-injection plumbing for the durability suites.
//!
//! Every in-memory sink configures its faults the same way:
//!
//! * [`IoFaultPlan`] — the *deterministic* byte-counted faults of a
//!   [`DurableIo`] sink: ENOSPC at an exact byte offset, a maximum
//!   accepted chunk per `write` call (forces short writes), and failing
//!   `sync`. Consumed by [`VecIo::with_faults`] and
//!   [`SharedVecIo::with_faults`].
//! * [`ManualClock`] — a hand-advanced [`Clock`] so timers (the serving
//!   deadline trigger) get exact tests instead of sleep-based ones.
//!
//! [`VecIo`]: crate::wal::VecIo
//! [`SharedVecIo`]: crate::wal::SharedVecIo
//! [`DurableIo`]: crate::wal::DurableIo
//! [`VecIo::with_faults`]: crate::wal::VecIo::with_faults
//! [`SharedVecIo::with_faults`]: crate::wal::SharedVecIo::with_faults
//! [`Clock`]: crate::serving::Clock

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A checked I/O fault from a [`crate::wal::DurableIo`] sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoFault {
    /// The device is out of space; `at` is the byte offset where the
    /// append hit the wall.
    NoSpace {
        /// Byte offset of the failed append.
        at: u64,
    },
    /// The write or sync failed outright.
    Failed {
        /// Byte offset at the time of the failure.
        at: u64,
        /// What failed.
        what: &'static str,
    },
    /// The sink accepted zero bytes without reporting an error.
    WriteZero,
}

impl fmt::Display for IoFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSpace { at } => write!(f, "out of space at byte offset {at}"),
            Self::Failed { at, what } => write!(f, "{what} at byte offset {at}"),
            Self::WriteZero => write!(f, "sink accepted zero bytes"),
        }
    }
}

impl std::error::Error for IoFault {}

/// Deterministic fault schedule of an in-memory [`crate::wal::DurableIo`]
/// sink — the one configuration surface behind [`crate::wal::VecIo`] and
/// [`crate::wal::SharedVecIo`].
///
/// The default plan injects nothing. Builders compose:
///
/// ```
/// use ucpc_core::fault::IoFaultPlan;
/// use ucpc_core::wal::VecIo;
///
/// let io = VecIo::with_faults(IoFaultPlan::new().byte_limit(64).failing_syncs());
/// # let _ = io;
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// Accept exactly this many bytes, then report [`IoFault::NoSpace`]
    /// at that offset (ENOSPC with a byte-exact torn tail).
    pub byte_limit: Option<usize>,
    /// Accept at most this many bytes per `write` call, turning every
    /// multi-byte append into a sequence of short writes.
    pub max_chunk: Option<usize>,
    /// Make every `sync` call report [`IoFault::Failed`].
    pub fail_syncs: bool,
}

impl IoFaultPlan {
    /// A plan injecting no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fail with ENOSPC once `limit` bytes have been accepted.
    pub fn byte_limit(mut self, limit: usize) -> Self {
        self.byte_limit = Some(limit);
        self
    }

    /// Accept at most `max_chunk` bytes per `write` call (clamped to at
    /// least 1 so progress is still possible).
    pub fn short_writes(mut self, max_chunk: usize) -> Self {
        self.max_chunk = Some(max_chunk.max(1));
        self
    }

    /// Make every subsequent `sync` fail.
    pub fn failing_syncs(mut self) -> Self {
        self.fail_syncs = true;
        self
    }

    /// How many bytes of `wanted` a sink holding `held` bytes accepts
    /// under this plan, or the fault the append trips on. Shared by both
    /// in-memory sinks so their torn-tail semantics are identical.
    pub fn admit(&self, held: usize, wanted: usize) -> Result<usize, IoFault> {
        let room = match self.byte_limit {
            Some(limit) => limit.saturating_sub(held),
            None => usize::MAX,
        };
        if room == 0 {
            return Err(IoFault::NoSpace { at: held as u64 });
        }
        Ok(wanted.min(room).min(self.max_chunk.unwrap_or(usize::MAX)))
    }

    /// The outcome of a `sync` on a sink holding `held` bytes.
    pub fn check_sync(&self, held: usize) -> Result<(), IoFault> {
        if self.fail_syncs {
            return Err(IoFault::Failed {
                at: held as u64,
                what: "injected sync failure",
            });
        }
        Ok(())
    }
}

/// A hand-advanced [`crate::serving::Clock`]: `now` starts at an
/// arbitrary base instant and moves only through [`ManualClock::advance`].
/// Clones share the same time, so a harness can hand one clone to an
/// engine and keep advancing through another.
#[derive(Debug, Clone)]
pub struct ManualClock {
    base: Instant,
    offset: Rc<Cell<Duration>>,
}

impl ManualClock {
    /// A clock at its base instant.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            base: Instant::now(),
            offset: Rc::new(Cell::new(Duration::ZERO)),
        }
    }

    /// Moves the shared time forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.offset.set(self.offset.get() + d);
    }

    /// The shared elapsed offset since the base instant.
    pub fn elapsed(&self) -> Duration {
        self.offset.get()
    }
}

impl crate::serving::Clock for ManualClock {
    fn now(&self) -> Instant {
        self.base + self.offset.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::Clock as _;

    #[test]
    fn io_plan_admits_through_limit_chunk_and_sync_knobs() {
        let plan = IoFaultPlan::new().byte_limit(10).short_writes(4);
        assert_eq!(plan.admit(0, 100), Ok(4));
        assert_eq!(plan.admit(8, 100), Ok(2));
        assert_eq!(plan.admit(10, 1), Err(IoFault::NoSpace { at: 10 }));
        assert_eq!(plan.check_sync(3), Ok(()));
        let failing = IoFaultPlan::new().failing_syncs();
        assert!(matches!(
            failing.check_sync(7),
            Err(IoFault::Failed { at: 7, .. })
        ));
    }

    #[test]
    fn manual_clock_clones_share_time() {
        let clock = ManualClock::new();
        let observer = clock.clone();
        let t0 = observer.now();
        clock.advance(Duration::from_millis(250));
        assert_eq!(observer.now() - t0, Duration::from_millis(250));
    }
}
