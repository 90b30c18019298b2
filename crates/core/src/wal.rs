//! Checksummed write-ahead log of serving mutations, and crash recovery.
//!
//! A process crash between snapshots loses every edit since the last
//! checkpoint. This module closes that hole with the classic database
//! discipline, built to the repo's exactness bar: **log before apply**,
//! recover by **replaying the logged suffix on top of the last snapshot**,
//! and prove the recovered engine *byte-identical* — labels, handles,
//! [`ClusterStats`](crate::objective::ClusterStats) bits, objective — to
//! the engine that never crashed (`tests/wal_recovery.rs` pins this at
//! every possible crash point).
//!
//! # Why replay is bit-exact
//!
//! Three facts, each already load-bearing elsewhere in the workspace,
//! compose into the recovery guarantee:
//!
//! 1. **Moments round-trip through their defining bits.** Every arrival is
//!    logged as its `(mu, mu_2)` vectors in raw little-endian IEEE-754 bits
//!    (exactly like `UCPCSNAP`). The variance row and scalar aggregates are
//!    a pure function of those bits, computed by one fold that
//!    [`Moments::from_mu_mu2`] and the arena row writers share — so staging
//!    the arrival into an arena row at recovery reproduces every bit the
//!    live insertion stored, signed zeros included.
//! 2. **Placement is a pure function of engine state and arrival bits.**
//!    The serving layer's batched commit is shadow-asserted bit-identical
//!    to the serial [`IncrementalUcpc::insert_moments`] scan at the same
//!    point of the edit sequence (see [`crate::serving`]). Replay *runs*
//!    the serial scan — on an engine whose state is bit-identical by
//!    induction — so it picks the same cluster and mutates the same bits,
//!    and even the issued [`ObjectHandle`]s coincide (same slot/generation
//!    discipline).
//! 3. **Cadence is logged, not re-derived.** Every stabilization the
//!    serving layer runs — explicit *or* cadence-triggered — writes its own
//!    [`WalRecord::Stabilize`] frame before running, so recovery never has
//!    to reconstruct the batching/cadence configuration: the log *is* the
//!    mutation sequence.
//!
//! # Format
//!
//! Integers are little-endian; `f64` is [`f64::to_bits`] little-endian.
//!
//! ```text
//! header   "UCPCWAL\0"  8 × u8
//!          version      u32    1
//!          m            u64    dimensions (validated against the engine)
//!          crc          u32    CRC-32 (IEEE) of the 20 bytes above
//! frame    len          u32    payload length in bytes
//!          payload      len × u8
//!          crc          u32    CRC-32 (IEEE) of len ‖ payload
//! payload  tag 1 Commit     mu m × f64, mu2 m × f64
//!          tag 2 Remove     slot u32, gen u32
//!          tag 3 Stabilize  passes u64
//! ```
//!
//! # Torn tails, corruption, and poisoning
//!
//! One frame decoder walks the log until the first frame that is torn
//! (runs past the end of the buffer), fails its checksum, or has a
//! malformed payload, then stops: everything before is the **valid
//! prefix**, everything after is damage. [`scan_wal`] indexes the valid
//! prefix; [`recover`] replays it and reports the damage as a
//! [`WalDamage`] carrying the byte offset and frame index of the first
//! damaged frame — a crash mid-append is expected, not an error in the
//! log's past.
//!
//! # Single-pass replay
//!
//! [`recover`] does not materialize the log before replaying it: each frame
//! is applied as soon as its checksum and shape check out, by the same
//! [`apply_record`] the crash-point harness folds over a [`scan_wal`]. A
//! decoded [`WalRecord`] borrows the log buffer, and a commit decodes
//! straight from the frame bytes into the engine's one reusable staging row,
//! so replay allocates nothing per frame (`tests/wal_replay_alloc_free.rs`)
//! and touches each log byte once. Streaming changes no outcome:
//!
//! * the header — magic, version, checksum, and the dimensionality check
//!   against the snapshot engine — is settled before any frame applies, so
//!   [`WalError::BadMagic`], [`WalError::UnsupportedVersion`] and
//!   [`WalError::DimensionMismatch`] still precede any replay;
//! * a frame is applied only once it is known to be intact, and frames
//!   apply in log order, so the first intact frame that does not apply is
//!   still the [`WalError::Replay`] a scan-then-apply pass would report —
//!   damage further on was never reached by either;
//! * damage stops the walk at the same frame, so `frames_applied`,
//!   `valid_bytes` and the [`WalDamage`] offsets and index are unchanged.
//!
//! `tests/wal_recovery.rs` checks the streaming walk against the
//! scan-then-apply fold at every cut point and every single-bit flip.
//!
//! Every frame, header and snapshot chunk is checked with [`crc32`], which
//! runs a carry-less-multiply folding kernel where the CPU has one
//! (x86_64 PCLMULQDQ, detected at run time) and slicing-by-8 tables
//! elsewhere; the two agree bit for bit (`tests/crc32_kernel.rs`). Neither
//! has a knob.
//!
//! A *write* failure is different: after a failed or short append the tail
//! of the log is indeterminate, so any further append could sit after
//! garbage and be silently unreachable at recovery. [`WalWriter`] therefore
//! **poisons itself permanently** on the first I/O fault — every later
//! append returns [`WalError::Poisoned`] — preserving the invariant that a
//! mutation is applied *iff* its frame is durably readable.
//!
//! All I/O goes through the pluggable [`DurableIo`] trait; [`VecIo`] is the
//! in-memory implementation with byte-exact fault injection (ENOSPC at any
//! offset, short writes, failing fsync) and [`FileIo`] is the `std::fs`
//! one.

use crate::framework::ClusterError;
use crate::incremental::{IncrementalUcpc, ObjectHandle};
use crate::snapshot::SnapshotError;
use std::fmt;
use std::io::Write as _;
#[cfg(doc)]
use ucpc_uncertain::Moments;

/// Magic prefix of a WAL byte stream.
pub const WAL_MAGIC: &[u8; 8] = b"UCPCWAL\0";
/// Current WAL format version; readers reject any other.
pub const WAL_VERSION: u32 = 1;
/// Size of the fixed WAL header (magic + version + m + crc).
pub const WAL_HEADER_LEN: usize = 8 + 4 + 8 + 4;

const TAG_COMMIT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_STABILIZE: u8 = 3;

pub use crate::crc::{crc32, crc32_table};

/// Appends `vals` to `p` as LE IEEE-754 bit patterns — the format every
/// commit frame and snapshot row section specifies. On little-endian
/// targets the in-memory representation *is* that byte stream (`f64` has
/// no padding and `u8` has alignment 1), so the copy is one `memcpy`
/// instead of a per-element loop — this sits on the serving commit path.
pub(crate) fn extend_f64_bits(p: &mut Vec<u8>, vals: &[f64]) {
    #[cfg(target_endian = "little")]
    {
        let bytes =
            unsafe { std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), vals.len() * 8) };
        p.extend_from_slice(bytes);
    }
    #[cfg(target_endian = "big")]
    {
        for &v in vals {
            p.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

/// The `i`-th little-endian `f64` bit pattern of `bytes` — the decoding
/// half of [`extend_f64_bits`], shared by WAL replay and snapshot restore.
#[inline]
pub(crate) fn f64_at(bytes: &[u8], i: usize) -> f64 {
    f64::from_bits(u64::from_le_bytes(
        bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"),
    ))
}

// ---------------------------------------------------------------------------
// DurableIo — the pluggable byte sink
// ---------------------------------------------------------------------------

pub use crate::fault::IoFault;
use crate::fault::IoFaultPlan;

/// An append-only durable byte sink: the seam between the WAL / streaming
/// snapshot writers and the world, pluggable so tests can inject torn
/// tails, short writes, and ENOSPC at any byte offset.
///
/// Contract: [`DurableIo::write`] appends a *prefix* of `buf` and returns
/// how many bytes it accepted (a short count models a torn write);
/// [`DurableIo::sync`] makes everything accepted so far durable.
pub trait DurableIo: fmt::Debug {
    /// Appends a prefix of `buf`, returning the number of bytes accepted.
    fn write(&mut self, buf: &[u8]) -> Result<usize, IoFault>;

    /// Forces everything accepted so far to durable storage.
    fn sync(&mut self) -> Result<(), IoFault>;

    /// Appends all of `buf`, looping over short writes. A fault mid-loop
    /// leaves a torn tail in the sink — callers treat that as fatal for
    /// the stream (see [`WalWriter`] poisoning).
    fn write_all(&mut self, mut buf: &[u8]) -> Result<(), IoFault> {
        while !buf.is_empty() {
            let n = self.write(buf)?;
            if n == 0 {
                return Err(IoFault::WriteZero);
            }
            buf = buf.get(n..).unwrap_or(&[]);
        }
        Ok(())
    }
}

impl<T: DurableIo + ?Sized> DurableIo for Box<T> {
    fn write(&mut self, buf: &[u8]) -> Result<usize, IoFault> {
        (**self).write(buf)
    }
    fn sync(&mut self) -> Result<(), IoFault> {
        (**self).sync()
    }
}

/// In-memory [`DurableIo`] with byte-exact fault injection: an optional
/// capacity limit (ENOSPC at that exact offset), an optional maximum chunk
/// per `write` call (forces short writes), and optional sync failure.
/// The buffer keeps whatever was accepted before a fault — exactly the
/// torn tail a real device would leave.
#[derive(Debug, Clone, Default)]
pub struct VecIo {
    buf: Vec<u8>,
    plan: IoFaultPlan,
    syncs: u64,
}

impl VecIo {
    /// An unbounded, fault-free in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink injecting the faults of `plan` — the shared configuration
    /// surface of [`crate::fault`], so every durability test describes
    /// faults the same way.
    pub fn with_faults(plan: IoFaultPlan) -> Self {
        Self {
            plan,
            ..Self::default()
        }
    }

    /// A sink that accepts exactly `limit` bytes and then reports
    /// [`IoFault::NoSpace`] — ENOSPC at a chosen byte offset.
    pub fn limited(limit: usize) -> Self {
        Self::with_faults(IoFaultPlan::new().byte_limit(limit))
    }

    /// A sink that accepts at most `max_chunk` bytes per `write` call —
    /// every multi-byte append becomes a sequence of short writes.
    pub fn chunked(max_chunk: usize) -> Self {
        Self::with_faults(IoFaultPlan::new().short_writes(max_chunk))
    }

    /// Makes every subsequent [`DurableIo::sync`] fail.
    pub fn failing_syncs(mut self) -> Self {
        self.plan = self.plan.failing_syncs();
        self
    }

    /// Everything accepted so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the sink, yielding the accepted bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of successful [`DurableIo::sync`] calls — lets tests pin the
    /// group-commit policy (one sync per flush, not per frame).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

impl DurableIo for VecIo {
    fn write(&mut self, buf: &[u8]) -> Result<usize, IoFault> {
        if buf.is_empty() {
            return Ok(0);
        }
        let n = self.plan.admit(self.buf.len(), buf.len())?;
        self.buf.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn sync(&mut self) -> Result<(), IoFault> {
        self.plan.check_sync(self.buf.len())?;
        self.syncs += 1;
        Ok(())
    }
}

/// An in-memory [`DurableIo`] writing through a shared handle: clones
/// observe the same buffer, so a harness can hand one clone to
/// [`WalWriter::create`] (even boxed behind `dyn DurableIo`) and keep
/// reading the accumulated log bytes through another — the seam the
/// crash-point differential tests cut at. An optional capacity limit
/// injects ENOSPC at that exact offset, leaving the torn tail readable.
#[derive(Debug, Clone, Default)]
pub struct SharedVecIo {
    buf: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
    plan: IoFaultPlan,
}

impl SharedVecIo {
    /// An empty shared sink that never faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty shared sink injecting the faults of `plan` — the same
    /// [`crate::fault::IoFaultPlan`] surface as [`VecIo::with_faults`],
    /// so the crash/recovery harnesses configure both sinks identically.
    pub fn with_faults(plan: IoFaultPlan) -> Self {
        Self {
            plan,
            ..Self::default()
        }
    }

    /// An empty shared sink returning [`IoFault::NoSpace`] once `limit`
    /// bytes have been accepted.
    pub fn limited(limit: usize) -> Self {
        Self::with_faults(IoFaultPlan::new().byte_limit(limit))
    }

    /// A copy of everything accepted so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.buf.lock().expect("sink mutex poisoned").clone()
    }

    /// Truncates the shared buffer to `len` bytes (no-op when already
    /// shorter) — the crash-surgery hook recovery harnesses use to cut a
    /// torn tail, and checkpoint rotation uses to reset a shard log.
    pub fn truncate(&self, len: usize) {
        self.buf.lock().expect("sink mutex poisoned").truncate(len);
    }
}

impl DurableIo for SharedVecIo {
    fn write(&mut self, buf: &[u8]) -> Result<usize, IoFault> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut held = self.buf.lock().expect("sink mutex poisoned");
        let n = self.plan.admit(held.len(), buf.len())?;
        held.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn sync(&mut self) -> Result<(), IoFault> {
        let held = self.buf.lock().expect("sink mutex poisoned").len();
        self.plan.check_sync(held)
    }
}

/// [`DurableIo`] over a real file (`std::fs`): appends with
/// [`std::io::Write`], syncs with [`std::fs::File::sync_all`]. Errors lose
/// their OS detail crossing into the static [`IoFault`] — the offset is
/// what recovery needs.
#[derive(Debug)]
pub struct FileIo {
    file: std::fs::File,
    written: u64,
}

impl FileIo {
    /// Creates (truncating) the file at `path` as an append sink.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self {
            file: std::fs::File::create(path)?,
            written: 0,
        })
    }
}

impl DurableIo for FileIo {
    fn write(&mut self, buf: &[u8]) -> Result<usize, IoFault> {
        match self.file.write(buf) {
            Ok(n) => {
                self.written += n as u64;
                Ok(n)
            }
            Err(e) if e.kind() == std::io::ErrorKind::StorageFull => {
                Err(IoFault::NoSpace { at: self.written })
            }
            Err(_) => Err(IoFault::Failed {
                at: self.written,
                what: "file write failed",
            }),
        }
    }

    fn sync(&mut self) -> Result<(), IoFault> {
        self.file.sync_all().map_err(|_| IoFault::Failed {
            at: self.written,
            what: "fsync failed",
        })
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Checked failure of the WAL layer — appending, scanning, or recovering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The buffer does not start with the `UCPCWAL\0` magic: not a WAL.
    BadMagic,
    /// The header is intact but declares a version this build does not
    /// read.
    UnsupportedVersion(u32),
    /// The log is damaged past `valid_bytes`: frames `0..frames` (the
    /// valid prefix, ending at byte `valid_bytes`) are intact and
    /// replayable; everything after is torn or corrupt. This is the
    /// salvage point — [`recover`] applies the prefix and surfaces this
    /// alongside, never silently.
    Corrupt {
        /// Byte offset of the end of the last intact frame (or header).
        valid_bytes: u64,
        /// Number of intact frames before the damage.
        frames: u64,
        /// What the scanner tripped on.
        reason: &'static str,
    },
    /// An append or sync faulted; the log tail is now indeterminate.
    Io(IoFault),
    /// The writer was poisoned by an earlier fault (the payload): once any
    /// append fails the tail is indeterminate, so no further mutation may
    /// be logged — and therefore none may be applied.
    Poisoned(IoFault),
    /// The WAL's dimensionality does not match the engine restored from
    /// the snapshot — the log belongs to a different stream.
    DimensionMismatch {
        /// Dimensionality of the snapshot engine.
        expected: usize,
        /// Dimensionality declared by the WAL header.
        found: usize,
    },
    /// The snapshot half of [`recover`] failed.
    Snapshot(SnapshotError),
    /// A checksummed, well-formed frame did not apply cleanly (e.g. a
    /// remove of a handle that was never live) — the log and snapshot
    /// disagree about history.
    Replay(ClusterError),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "buffer does not start with the UCPCWAL magic"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "WAL format version {v} is not supported (expected {WAL_VERSION})"
                )
            }
            Self::Corrupt {
                valid_bytes,
                frames,
                reason,
            } => write!(
                f,
                "WAL damaged after {frames} intact frames ({valid_bytes} bytes): {reason}"
            ),
            Self::Io(fault) => write!(f, "WAL append faulted: {fault}"),
            Self::Poisoned(fault) => {
                write!(f, "WAL poisoned by an earlier fault: {fault}")
            }
            Self::DimensionMismatch { expected, found } => write!(
                f,
                "WAL logs {found}-dimensional arrivals, snapshot engine has {expected}"
            ),
            Self::Snapshot(e) => write!(f, "snapshot half of recovery failed: {e}"),
            Self::Replay(e) => write!(f, "WAL frame did not replay cleanly: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// When the WAL writer syncs its sink — the `UCPC_WAL_FSYNC` knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalFsync {
    /// Never sync (the OS decides); fastest, weakest.
    Off,
    /// One sync per [`WalWriter::group_commit`] — the group-commit policy
    /// the serving layer invokes once per flush. The default.
    #[default]
    Flush,
    /// Sync after every frame; strongest, slowest.
    Every,
}

impl WalFsync {
    /// Parses one `UCPC_WAL_FSYNC` value (`off`, `flush`, `every`),
    /// anything else ⇒ `None` — pure, exposed for env-free unit tests.
    pub fn parse(v: &str) -> Option<Self> {
        match v {
            "off" | "0" => Some(Self::Off),
            "flush" => Some(Self::Flush),
            "every" => Some(Self::Every),
            _ => None,
        }
    }
}

/// Appends checksummed mutation frames to a [`DurableIo`] sink —
/// log-before-apply's logging half.
///
/// Permanently poisons itself on the first I/O fault (module docs): every
/// subsequent append or sync returns [`WalError::Poisoned`] with the
/// original fault, so a caller honouring log-before-apply stops mutating
/// exactly where the durable history stops.
#[derive(Debug)]
pub struct WalWriter<I: DurableIo> {
    io: I,
    fsync: WalFsync,
    frames: u64,
    bytes: u64,
    poison: Option<IoFault>,
    scratch: Vec<u8>,
}

impl<I: DurableIo> WalWriter<I> {
    /// Starts a log for `m`-dimensional arrivals on `io`, writing the
    /// checksummed header immediately.
    pub fn create(io: I, m: usize, fsync: WalFsync) -> Result<Self, WalError> {
        let mut w = Self {
            io,
            fsync,
            frames: 0,
            bytes: 0,
            poison: None,
            scratch: Vec::with_capacity(WAL_HEADER_LEN),
        };
        w.scratch.extend_from_slice(WAL_MAGIC);
        w.scratch.extend_from_slice(&WAL_VERSION.to_le_bytes());
        w.scratch.extend_from_slice(&(m as u64).to_le_bytes());
        let crc = crc32(&w.scratch);
        w.scratch.extend_from_slice(&crc.to_le_bytes());
        w.commit_scratch()?;
        if w.fsync == WalFsync::Every {
            w.sync_or_poison()?;
        }
        Ok(w)
    }

    /// The sink (e.g. to read back a [`VecIo`] buffer).
    pub fn io(&self) -> &I {
        &self.io
    }

    /// Consumes the writer, yielding the sink.
    pub fn into_io(self) -> I {
        self.io
    }

    /// Frames fully appended so far (the header is not a frame).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Bytes fully appended so far, header included — the offset a healthy
    /// [`scan_wal`] will report as `valid_bytes`.
    pub fn bytes_logged(&self) -> u64 {
        self.bytes
    }

    /// The fault that poisoned this writer, if any.
    pub fn poisoned(&self) -> Option<&IoFault> {
        self.poison.as_ref()
    }

    /// Logs a committed arrival as its raw moment bits.
    /// `mu` and `mu2` must have the header's dimensionality.
    pub fn log_commit(&mut self, mu: &[f64], mu2: &[f64]) -> Result<(), WalError> {
        debug_assert_eq!(mu.len(), mu2.len());
        self.append_frame(|p| {
            p.push(TAG_COMMIT);
            extend_f64_bits(p, mu);
            extend_f64_bits(p, mu2);
        })
    }

    /// Logs an (effective) removal by its generation-stamped handle.
    pub fn log_remove(&mut self, h: ObjectHandle) -> Result<(), WalError> {
        self.append_frame(|p| {
            p.push(TAG_REMOVE);
            p.extend_from_slice(&(h.slot() as u32).to_le_bytes());
            p.extend_from_slice(&h.generation().to_le_bytes());
        })
    }

    /// Logs a stabilization (explicit or cadence-triggered) about to run.
    pub fn log_stabilize(&mut self, passes: u64) -> Result<(), WalError> {
        self.append_frame(|p| {
            p.push(TAG_STABILIZE);
            p.extend_from_slice(&passes.to_le_bytes());
        })
    }

    /// Group commit: makes every frame logged so far durable with one sync
    /// (under [`WalFsync::Flush`]; a no-op under `Off`, already done under
    /// `Every`). The serving layer calls this once per flush.
    pub fn group_commit(&mut self) -> Result<(), WalError> {
        if let Some(fault) = &self.poison {
            return Err(WalError::Poisoned(fault.clone()));
        }
        if self.fsync == WalFsync::Flush {
            self.sync_or_poison()?;
        }
        Ok(())
    }

    fn append_frame(&mut self, build: impl FnOnce(&mut Vec<u8>)) -> Result<(), WalError> {
        if let Some(fault) = &self.poison {
            return Err(WalError::Poisoned(fault.clone()));
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0u8; 4]);
        build(&mut self.scratch);
        let len = self.scratch.len() - 4;
        debug_assert!(u32::try_from(len).is_ok(), "frame payload exceeds u32");
        self.scratch[..4].copy_from_slice(&(len as u32).to_le_bytes());
        let crc = crc32(&self.scratch);
        self.scratch.extend_from_slice(&crc.to_le_bytes());
        self.commit_scratch()?;
        self.frames += 1;
        if self.fsync == WalFsync::Every {
            self.sync_or_poison()?;
        }
        Ok(())
    }

    /// Writes the assembled scratch buffer whole, poisoning on any fault.
    fn commit_scratch(&mut self) -> Result<(), WalError> {
        match self.io.write_all(&self.scratch) {
            Ok(()) => {
                self.bytes += self.scratch.len() as u64;
                Ok(())
            }
            Err(fault) => {
                self.poison = Some(fault.clone());
                Err(WalError::Io(fault))
            }
        }
    }

    fn sync_or_poison(&mut self) -> Result<(), WalError> {
        match self.io.sync() {
            Ok(()) => Ok(()),
            Err(fault) => {
                self.poison = Some(fault.clone());
                Err(WalError::Io(fault))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------------

/// One intact WAL frame — the unit of replay — borrowed from the log
/// buffer it was decoded from: decoding copies and allocates nothing, so
/// [`scan_wal`] and [`recover`] share it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalRecord<'a> {
    /// An arrival committed into the engine, as its defining moment bits.
    Commit(LoggedMoments<'a>),
    /// An effective removal (the handle was live when logged).
    Remove(ObjectHandle),
    /// A stabilization of up to `passes` relocation passes.
    Stabilize {
        /// Relocation passes requested.
        passes: u64,
    },
}

/// The `(mu, mu_2)` vectors of a logged arrival, borrowed from its commit
/// frame: `mu` then `mu2`, `m` little-endian `f64` bit patterns each.
/// One slice instead of two keeps a [`WalRecord`] at three words, the
/// per-frame cost of a [`scan_wal`] index over a long log.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LoggedMoments<'a>(&'a [u8]);

impl<'a> LoggedMoments<'a> {
    /// Dimensionality `m`.
    pub fn dims(&self) -> usize {
        self.0.len() / 16
    }

    /// Expected-value vector, bit-exact.
    pub fn mu(&self) -> LeF64s<'a> {
        LeF64s(&self.0[..self.0.len() / 2])
    }

    /// Second-order moment vector, bit-exact.
    pub fn mu2(&self) -> LeF64s<'a> {
        LeF64s(&self.0[self.0.len() / 2..])
    }
}

/// A run of `f64`s in the log's wire form — little-endian IEEE-754 bit
/// patterns — borrowed from the log buffer. Log bytes carry no alignment,
/// so values are read out one by one ([`Self::get`], [`Self::iter`]),
/// never reinterpreted in place.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LeF64s<'a>(&'a [u8]);

impl<'a> LeF64s<'a> {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.0.len() / 8
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Value `i`, bit-exact. Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        f64_at(self.0, i)
    }

    /// The values in order, bit-exact.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        let bytes = self.0;
        (0..bytes.len() / 8).map(move |i| f64_at(bytes, i))
    }
}

impl fmt::Debug for LoggedMoments<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoggedMoments")
            .field("mu", &self.mu())
            .field("mu2", &self.mu2())
            .finish()
    }
}

impl fmt::Debug for LeF64s<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Where (and why) a WAL byte stream stops being intact — the damage
/// report of [`scan_wal`] and [`recover`].
///
/// Carries the *location* of the first damaged frame, not just a flag:
/// `offset` is the byte at which that frame starts (equivalently, the
/// end of the valid prefix) and `frame_index` is its zero-based index —
/// the coordinates an operator needs to inspect, truncate, or quarantine
/// the tail. Header damage reports `offset == 0` and `frame_index == 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalDamage {
    /// Byte offset where the first damaged frame starts (0 when the
    /// header itself is damaged).
    pub offset: u64,
    /// Zero-based index of the first damaged frame (== the number of
    /// intact frames before it).
    pub frame_index: u64,
    /// What the scanner tripped on.
    pub reason: &'static str,
}

impl fmt::Display for WalDamage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame {} (byte offset {}) is damaged: {}",
            self.frame_index, self.offset, self.reason
        )
    }
}

impl From<WalDamage> for WalError {
    /// The equivalent checked error: frames `0..frame_index` (ending at
    /// byte `offset`) are intact, everything after is damage.
    fn from(d: WalDamage) -> Self {
        WalError::Corrupt {
            valid_bytes: d.offset,
            frames: d.frame_index,
            reason: d.reason,
        }
    }
}

/// Result of [`scan_wal`]: the intact prefix of a log, plus where (and
/// why) it stops being intact.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan<'a> {
    /// Dimensionality declared by the header, when the header was intact.
    pub m: Option<usize>,
    /// Decoded frames of the valid prefix, in log order, borrowed from the
    /// scanned buffer.
    pub records: Vec<WalRecord<'a>>,
    /// Byte offset just past frame `i` — `frame_ends[i]` is the smallest
    /// prefix of the log that still contains frames `0..=i` whole. The
    /// crash-point harness cuts at exactly these offsets.
    pub frame_ends: Vec<u64>,
    /// Byte offset of the end of the valid prefix (header end if no frame
    /// is intact, `0` if the header itself is torn).
    pub valid_bytes: u64,
    /// The damage past `valid_bytes`, if any, with the byte offset and
    /// frame index of the first damaged frame. `None` means the log is
    /// clean to the end.
    pub damage: Option<WalDamage>,
}

/// Walks a WAL byte stream, decoding the longest valid prefix.
///
/// Hard errors ([`WalError::BadMagic`], [`WalError::UnsupportedVersion`])
/// mean the buffer is not a replayable log at all. Damage — a torn or
/// checksum-failing header or frame — is *not* an error here: the scan
/// stops at the salvage point and reports the damage in
/// [`WalScan::damage`], because a torn tail is exactly what a crash
/// mid-append leaves behind.
///
/// This is the indexed view of the log, for inspection and the crash-point
/// harness; [`recover`] walks the same frames through the same decoder but
/// applies each one as it passes, keeping no index.
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan<'_>, WalError> {
    let mut frames = Frames::open(bytes)?;
    let mut records = Vec::new();
    let mut frame_ends = Vec::new();
    while let Some(rec) = frames.next() {
        records.push(rec);
        frame_ends.push(frames.valid_bytes);
    }
    Ok(WalScan {
        m: frames.m,
        records,
        frame_ends,
        valid_bytes: frames.valid_bytes,
        damage: frames.damage,
    })
}

/// The one frame decoder behind [`scan_wal`] and [`recover`]: checks the
/// header once, then yields each intact frame — CRC verified, payload shape
/// checked — until the end of the buffer or the first damaged frame, which
/// it records in `damage` and stops at.
struct Frames<'a> {
    bytes: &'a [u8],
    /// Dimensionality declared by the header, when the header was intact.
    m: Option<usize>,
    /// Offset just past the last frame yielded (or the header).
    valid_bytes: u64,
    /// Frames yielded so far.
    frames: u64,
    damage: Option<WalDamage>,
}

impl<'a> Frames<'a> {
    /// Validates the header. A torn or checksum-failing header is damage
    /// (the walker then yields nothing); a foreign magic or version is a
    /// hard error.
    fn open(bytes: &'a [u8]) -> Result<Self, WalError> {
        let mut walker = Self {
            bytes,
            m: None,
            valid_bytes: 0,
            frames: 0,
            damage: None,
        };
        if bytes.len() >= 8 && &bytes[..8] != WAL_MAGIC {
            return Err(WalError::BadMagic);
        }
        if bytes.len() < WAL_HEADER_LEN {
            walker.damage = Some(walker.damage_here("torn header"));
            return Ok(walker);
        }
        let stored = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
        if crc32(&bytes[..20]) != stored {
            walker.damage = Some(walker.damage_here("header checksum mismatch"));
            return Ok(walker);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != WAL_VERSION {
            return Err(WalError::UnsupportedVersion(version));
        }
        let m_raw = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let Ok(m) = usize::try_from(m_raw) else {
            return Err(WalError::Corrupt {
                valid_bytes: 0,
                frames: 0,
                reason: "header dimensionality overflows usize",
            });
        };
        walker.m = Some(m);
        walker.valid_bytes = WAL_HEADER_LEN as u64;
        Ok(walker)
    }

    /// The damaged frame starts exactly where the valid prefix ends, and
    /// its index is the count of intact frames before it.
    fn damage_here(&self, reason: &'static str) -> WalDamage {
        WalDamage {
            offset: self.valid_bytes,
            frame_index: self.frames,
            reason,
        }
    }

    /// Decodes the frame at the cursor, or names what is wrong with it.
    fn decode(&self, m: usize) -> Result<(WalRecord<'a>, usize), &'static str> {
        let pos = self.valid_bytes as usize;
        let rest = &self.bytes[pos..];
        let Some(len_bytes) = rest.get(..4) else {
            return Err("torn frame length");
        };
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        // Torn check first: a frame that runs past the end is a crash
        // mid-append, however implausible its length field.
        let Some(framed) = len.checked_add(8).filter(|&n| n <= rest.len()) else {
            return Err("torn frame");
        };
        let stored = u32::from_le_bytes(rest[framed - 4..framed].try_into().expect("crc"));
        if crc32(&rest[..4 + len]) != stored {
            return Err("frame checksum mismatch");
        }
        let frame = decode_payload(&rest[4..4 + len], m).ok_or("malformed frame payload")?;
        Ok((frame, pos + framed))
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = WalRecord<'a>;

    fn next(&mut self) -> Option<WalRecord<'a>> {
        let m = self.m?;
        if self.damage.is_some() || self.valid_bytes as usize == self.bytes.len() {
            return None;
        }
        match self.decode(m) {
            Ok((frame, end)) => {
                self.valid_bytes = end as u64;
                self.frames += 1;
                Some(frame)
            }
            Err(reason) => {
                self.damage = Some(self.damage_here(reason));
                None
            }
        }
    }
}

/// Decodes one checksummed frame payload; `None` if the tag or shape is
/// wrong. Nothing is allocated: the commit vectors stay borrowed.
fn decode_payload(payload: &[u8], m: usize) -> Option<WalRecord<'_>> {
    let (&tag, body) = payload.split_first()?;
    match tag {
        TAG_COMMIT => {
            if body.len() != m.checked_mul(16)? {
                return None;
            }
            Some(WalRecord::Commit(LoggedMoments(body)))
        }
        TAG_REMOVE => {
            let body: [u8; 8] = body.try_into().ok()?;
            let slot = u32::from_le_bytes(body[..4].try_into().expect("4 bytes"));
            let gen = u32::from_le_bytes(body[4..].try_into().expect("4 bytes"));
            Some(WalRecord::Remove(ObjectHandle::new(slot, gen)))
        }
        TAG_STABILIZE => Some(WalRecord::Stabilize {
            passes: u64::from_le_bytes(body.try_into().ok()?),
        }),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Outcome of [`recover`]: the rebuilt engine plus the salvage report.
#[derive(Debug)]
pub struct Recovery {
    /// The engine, bit-identical to the uninterrupted run at the point of
    /// the last intact frame.
    pub engine: IncrementalUcpc,
    /// WAL frames replayed on top of the snapshot.
    pub frames_applied: u64,
    /// Byte offset of the end of the valid WAL prefix.
    pub valid_bytes: u64,
    /// Damage found past the valid prefix — the byte offset and frame
    /// index of the first damaged frame — or `None` for a clean log.
    /// Recovery *applied* the valid prefix either way; the caller decides
    /// whether a torn tail is an expected crash artifact or cause for
    /// alarm.
    pub damage: Option<WalDamage>,
}

/// Replays one decoded WAL record on a live engine — the replay step
/// [`recover`] runs on every intact frame as it walks the log, exposed so
/// the crash-point harness can finish an interrupted log suffix on a
/// recovered engine.
///
/// A commit decodes straight from the log bytes into the engine's reusable
/// staging row, through the canonical moment fold (bit-identical to
/// [`Moments::from_mu_mu2`] on the logged bits), and is admitted through
/// the same path as [`IncrementalUcpc::insert_moments`] — whose serial
/// scan the serving layer's batched commit is shadow-asserted equal to —
/// so replay reproduces labels, handles, and statistics bits exactly, with
/// no allocation.
pub fn apply_record(engine: &mut IncrementalUcpc, rec: &WalRecord<'_>) -> Result<(), ClusterError> {
    match *rec {
        WalRecord::Commit(mo) => {
            let (mu, mu2) = (mo.mu(), mo.mu2());
            engine
                .insert_staged(mo.dims(), |j| (mu.get(j), mu2.get(j)))
                .map(|_| ())
        }
        WalRecord::Remove(h) => engine.remove(h),
        WalRecord::Stabilize { passes } => {
            // Saturating: a stabilization stops at convergence anyway.
            engine.stabilize(usize::try_from(passes).unwrap_or(usize::MAX));
            Ok(())
        }
    }
}

/// Rebuilds an engine from its last checkpoint plus the WAL written since:
/// restores the snapshot, then walks the log's frames and applies each one
/// as soon as its checksum and shape check out. See the module docs for
/// the byte-identity derivation and the salvage semantics.
///
/// An empty `wal` (crash before the log header was written) recovers to
/// exactly the snapshot. A torn or corrupt tail truncates replay at the
/// salvage point, reported in [`Recovery::damage`]. A log whose *intact*
/// frames do not apply cleanly — or whose dimensionality disagrees with
/// the snapshot — is a hard error: snapshot and log are not from the same
/// history.
pub fn recover(snapshot: &[u8], wal: &[u8]) -> Result<Recovery, WalError> {
    let mut engine = IncrementalUcpc::restore(snapshot).map_err(WalError::Snapshot)?;
    if wal.is_empty() {
        return Ok(Recovery {
            engine,
            frames_applied: 0,
            valid_bytes: 0,
            damage: None,
        });
    }
    let mut frames = Frames::open(wal)?;
    if let Some(m) = frames.m {
        if m != engine.m {
            return Err(WalError::DimensionMismatch {
                expected: engine.m,
                found: m,
            });
        }
    }
    for rec in &mut frames {
        apply_record(&mut engine, &rec).map_err(WalError::Replay)?;
    }
    Ok(Recovery {
        engine,
        frames_applied: frames.frames,
        valid_bytes: frames.valid_bytes,
        damage: frames.damage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucpc_uncertain::{Moments, UncertainObject, UnivariatePdf};

    fn obj(c: f64) -> UncertainObject {
        UncertainObject::new(vec![
            UnivariatePdf::normal(c, 0.2),
            UnivariatePdf::uniform_centered(-c, 0.5),
        ])
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn header_then_frames_scan_back_exactly() {
        let mut w = WalWriter::create(VecIo::new(), 2, WalFsync::Flush).unwrap();
        w.log_commit(&[1.5, -2.0], &[3.0, 4.25]).unwrap();
        w.log_remove(ObjectHandle::new(7, 3)).unwrap();
        w.log_stabilize(4).unwrap();
        w.group_commit().unwrap();
        assert_eq!(w.frames(), 3);
        assert_eq!(w.io().syncs(), 1, "group commit syncs once per flush");
        let bytes = w.into_io().into_bytes();
        let scan = scan_wal(&bytes).unwrap();
        assert_eq!(scan.m, Some(2));
        assert_eq!(scan.damage, None);
        assert_eq!(scan.valid_bytes, bytes.len() as u64);
        assert_eq!(scan.records.len(), 3);
        let WalRecord::Commit(mo) = scan.records[0] else {
            panic!("{:?}", scan.records[0]);
        };
        assert_eq!(mo.dims(), 2);
        assert_eq!(mo.mu().iter().collect::<Vec<_>>(), [1.5, -2.0]);
        assert_eq!(mo.mu2().iter().collect::<Vec<_>>(), [3.0, 4.25]);
        assert_eq!((mo.mu().len(), mo.mu().get(1)), (2, -2.0));
        assert_eq!(
            format!("{mo:?}"),
            "LoggedMoments { mu: [1.5, -2.0], mu2: [3.0, 4.25] }"
        );
        assert_eq!(
            scan.records[1..],
            [
                WalRecord::Remove(ObjectHandle::new(7, 3)),
                WalRecord::Stabilize { passes: 4 },
            ]
        );
        assert_eq!(scan.frame_ends.len(), 3);
        assert_eq!(*scan.frame_ends.last().unwrap(), bytes.len() as u64);
    }

    #[test]
    fn every_fsync_syncs_per_frame() {
        let mut w = WalWriter::create(VecIo::new(), 1, WalFsync::Every).unwrap();
        w.log_stabilize(1).unwrap();
        w.log_stabilize(1).unwrap();
        w.group_commit().unwrap();
        // Header + 2 frames, and group_commit adds nothing under Every.
        assert_eq!(w.io().syncs(), 3);
        let mut w = WalWriter::create(VecIo::new(), 1, WalFsync::Off).unwrap();
        w.log_stabilize(1).unwrap();
        w.group_commit().unwrap();
        assert_eq!(w.io().syncs(), 0);
    }

    #[test]
    fn torn_tail_salvages_to_the_last_intact_frame() {
        let mut w = WalWriter::create(VecIo::new(), 1, WalFsync::Off).unwrap();
        w.log_commit(&[1.0], &[2.0]).unwrap();
        w.log_commit(&[3.0], &[10.0]).unwrap();
        let bytes = w.into_io().into_bytes();
        let full = scan_wal(&bytes).unwrap();
        let first_end = full.frame_ends[0] as usize;
        // Cut mid-second-frame: every cut strictly between the two frame
        // boundaries salvages exactly one record.
        for cut in first_end + 1..bytes.len() {
            let scan = scan_wal(&bytes[..cut]).unwrap();
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_bytes, first_end as u64);
            assert!(
                matches!(scan.damage, Some(WalDamage { frame_index: 1, .. })),
                "cut at {cut}: {:?}",
                scan.damage
            );
        }
    }

    #[test]
    fn bit_flips_never_pass_the_checksum() {
        let mut w = WalWriter::create(VecIo::new(), 1, WalFsync::Off).unwrap();
        w.log_commit(&[1.0], &[2.0]).unwrap();
        w.log_stabilize(2).unwrap();
        let bytes = w.into_io().into_bytes();
        let clean = scan_wal(&bytes).unwrap();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                match scan_wal(&flipped) {
                    Ok(scan) => assert!(
                        scan.records.len() < clean.records.len() || scan.damage.is_some(),
                        "flip {byte}:{bit} silently accepted"
                    ),
                    // Flips inside the magic / version land here.
                    Err(WalError::BadMagic | WalError::UnsupportedVersion(_)) => {}
                    Err(e) => panic!("flip {byte}:{bit}: unexpected {e:?}"),
                }
            }
        }
    }

    #[test]
    fn enospc_poisons_the_writer_permanently() {
        // Room for the header and one frame, then the wall.
        let mut probe = WalWriter::create(VecIo::new(), 1, WalFsync::Off).unwrap();
        probe.log_commit(&[1.0], &[2.0]).unwrap();
        let one_frame = probe.bytes_logged() as usize;

        for limit in WAL_HEADER_LEN..one_frame {
            let mut w = WalWriter::create(VecIo::limited(limit), 1, WalFsync::Off).unwrap();
            let err = w.log_commit(&[1.0], &[2.0]).unwrap_err();
            assert!(
                matches!(err, WalError::Io(IoFault::NoSpace { .. })),
                "{err:?}"
            );
            // Sticky: later appends fail without touching the sink.
            let tail = w.io().bytes().len();
            let err = w.log_stabilize(1).unwrap_err();
            assert!(matches!(err, WalError::Poisoned(_)), "{err:?}");
            assert_eq!(w.io().bytes().len(), tail, "poisoned append wrote bytes");
            let err = w.group_commit().unwrap_err();
            assert!(matches!(err, WalError::Poisoned(_)));
            // The torn sink still salvages to the header.
            let scan = scan_wal(w.io().bytes()).unwrap();
            assert_eq!(scan.records.len(), 0);
            assert_eq!(scan.valid_bytes, WAL_HEADER_LEN as u64);
        }
    }

    #[test]
    fn short_writes_are_transparent() {
        let mut chunked = WalWriter::create(VecIo::chunked(3), 2, WalFsync::Off).unwrap();
        let mut whole = WalWriter::create(VecIo::new(), 2, WalFsync::Off).unwrap();
        for w in [&mut chunked, &mut whole] {
            w.log_commit(&[1.0, 2.0], &[3.0, 8.0]).unwrap();
            w.log_remove(ObjectHandle::new(0, 1)).unwrap();
        }
        assert_eq!(chunked.io().bytes(), whole.io().bytes());
    }

    #[test]
    fn failing_sync_poisons_too() {
        let mut w = WalWriter::create(VecIo::new().failing_syncs(), 1, WalFsync::Flush).unwrap();
        w.log_stabilize(1).unwrap();
        let err = w.group_commit().unwrap_err();
        assert!(
            matches!(err, WalError::Io(IoFault::Failed { .. })),
            "{err:?}"
        );
        let err = w.log_stabilize(1).unwrap_err();
        assert!(matches!(err, WalError::Poisoned(_)), "{err:?}");
    }

    #[test]
    fn recover_replays_snapshot_plus_log() {
        let mut reference = IncrementalUcpc::new(2, 2).unwrap();
        let mut handles = Vec::new();
        for c in [0.0, 0.5, 8.0] {
            handles.push(reference.insert(&obj(c)).unwrap());
        }
        let checkpoint = reference.snapshot();
        // Post-checkpoint traffic, logged as it happens.
        let mut w = WalWriter::create(VecIo::new(), 2, WalFsync::Flush).unwrap();
        let arrivals = [obj(8.5), obj(0.25)];
        for a in &arrivals {
            let mo = a.moments();
            w.log_commit(mo.mu(), mo.mu2()).unwrap();
            reference.insert(a).unwrap();
        }
        w.log_remove(handles[1]).unwrap();
        reference.remove(handles[1]).unwrap();
        w.log_stabilize(3).unwrap();
        reference.stabilize(3);
        w.group_commit().unwrap();

        let rec = recover(&checkpoint, w.io().bytes()).unwrap();
        assert_eq!(rec.frames_applied, 4);
        assert_eq!(rec.damage, None);
        assert_eq!(rec.engine.live_labels(), reference.live_labels());
        assert_eq!(
            rec.engine.objective().to_bits(),
            reference.objective().to_bits()
        );
        assert_eq!(rec.engine.snapshot(), reference.snapshot());
    }

    #[test]
    fn recover_tolerates_an_empty_log_and_rejects_mismatches() {
        let mut e = IncrementalUcpc::new(2, 2).unwrap();
        e.insert(&obj(1.0)).unwrap();
        let snap = e.snapshot();
        let rec = recover(&snap, &[]).unwrap();
        assert_eq!(rec.frames_applied, 0);
        assert_eq!(rec.engine.snapshot(), snap);

        // Wrong dimensionality: the log is from a different stream.
        let w = WalWriter::create(VecIo::new(), 5, WalFsync::Off).unwrap();
        assert_eq!(
            recover(&snap, w.io().bytes()).unwrap_err(),
            WalError::DimensionMismatch {
                expected: 2,
                found: 5
            }
        );
        // Not a WAL at all.
        assert_eq!(
            recover(&snap, b"definitely not a log").unwrap_err(),
            WalError::BadMagic
        );
        // Corrupt snapshot half.
        assert!(matches!(
            recover(b"definitely not a snapshot", &[]).unwrap_err(),
            WalError::Snapshot(SnapshotError::BadMagic)
        ));
    }

    /// Every stored bit of a slab row.
    fn row_bits(e: &IncrementalUcpc, slot: usize) -> Vec<u64> {
        let v = e.slab.view(slot);
        let rows = v.mu.iter().chain(v.mu2).chain(v.var);
        let scalars = [v.sum_mu_sq, v.sum_mu2, v.sum_var, v.norm_mu];
        rows.chain(&scalars).map(|x| x.to_bits()).collect()
    }

    #[test]
    fn signed_zero_and_empty_rows_survive_replay_and_restore_bit_for_bit() {
        for (m, rows) in [
            (
                2,
                vec![
                    (vec![0.0, 0.0], vec![-0.0, -0.0]),
                    (vec![-0.0, 1.0], vec![-0.0, 2.0]),
                    (vec![-0.0, -0.0], vec![0.0, -0.0]),
                ],
            ),
            (0, vec![(vec![], vec![]), (vec![], vec![])]),
        ] {
            let mut live = IncrementalUcpc::new(m, 2).unwrap();
            let checkpoint = live.snapshot();
            let mut w = WalWriter::create(VecIo::new(), m, WalFsync::Off).unwrap();
            for (mu, mu2) in rows {
                w.log_commit(&mu, &mu2).unwrap();
                live.insert_moments(&Moments::from_mu_mu2(mu, mu2)).unwrap();
            }
            let log = w.into_io().into_bytes();
            let replayed = recover(&checkpoint, &log).unwrap().engine;
            let restored = IncrementalUcpc::restore(&live.snapshot()).unwrap();
            let mut folded = IncrementalUcpc::restore(&checkpoint).unwrap();
            for rec in scan_wal(&log).unwrap().records {
                apply_record(&mut folded, &rec).unwrap();
            }
            for slot in 0..live.slot_rows() {
                let want = row_bits(&live, slot);
                assert_eq!(
                    row_bits(&replayed, slot),
                    want,
                    "recover, m {m}, slot {slot}"
                );
                assert_eq!(
                    row_bits(&folded, slot),
                    want,
                    "apply_record, m {m}, slot {slot}"
                );
                assert_eq!(
                    row_bits(&restored, slot),
                    want,
                    "restore, m {m}, slot {slot}"
                );
            }
            assert_eq!(restored.snapshot(), live.snapshot(), "m {m}");
        }
    }

    #[test]
    fn replay_of_a_never_live_handle_is_a_checked_error() {
        let mut e = IncrementalUcpc::new(2, 2).unwrap();
        e.insert(&obj(1.0)).unwrap();
        let snap = e.snapshot();
        let mut w = WalWriter::create(VecIo::new(), 2, WalFsync::Off).unwrap();
        w.log_remove(ObjectHandle::new(99, 7)).unwrap();
        let err = recover(&snap, w.io().bytes()).unwrap_err();
        assert!(matches!(err, WalError::Replay(_)), "{err:?}");
    }
}
