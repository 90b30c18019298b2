//! Versioned binary snapshot/restore for the streaming engine.
//!
//! [`IncrementalUcpc::snapshot`] / [`IncrementalUcpc::write_snapshot`]
//! serialize the complete logical state of a live clustering — moment rows,
//! slot generations and free-list, labels, per-cluster [`ClusterStats`]
//! (including the drift accumulators), the pruning configuration, and the
//! invalidation watermarks (`epoch`, per-cluster `versions`, global drift
//! totals) — into a self-describing byte stream. [`IncrementalUcpc::restore`]
//! reassembles an engine that is **bit-identical** to the original:
//! continuing the same edit script on the restored engine produces
//! byte-for-byte the labels, statistics bits and objective of the
//! uninterrupted run, across pruning on/off and every SIMD backend
//! (`tests/snapshot_roundtrip.rs`).
//!
//! # Why the round-trip is exact
//!
//! Every number crosses the boundary as raw IEEE-754 bits
//! ([`f64::to_bits`] / [`f64::from_bits`], little-endian), never through
//! decimal formatting. Statistics are installed verbatim through
//! `ClusterStats::from_raw_parts` — nothing is re-derived from the rows.
//! Slab rows are rebuilt from their serialized `(mu, mu2)` pairs through
//! the same canonical per-dimension fold every insertion uses, which is
//! bit-identical to the original write (see [`ucpc_uncertain::slab`] for
//! the derivation). Freed rows are *not* serialized and restore as zeros:
//! a freed row is never read (the free-list guarantees the next occupant
//! overwrites it whole), so its residual bytes are not logical state — and
//! zeroing them makes `snapshot(restore(s)) == s` hold bytewise.
//!
//! The prune cache's *entries* are deliberately excluded: a restored cache
//! starts empty and entries regrow invalid, which is always sound (an
//! invalid entry forces the exact full scan). The invalidation watermarks
//! — `epoch`, `versions`, drift totals — *are* carried over, so bounds
//! cached after restore are validated against exactly the history the
//! original engine would have used.
//!
//! # Format
//!
//! The stream is a sequence of bounded, individually CRC-32-checksummed
//! chunks over a [`DurableIo`] sink, so a checkpoint never materializes the
//! full state in one buffer (the moment rows, the dominant term, go out
//! [`ROWS_PER_CHUNK`] rows at a time) and any single flipped or torn byte
//! is caught by the chunk checksum rather than by downstream validation.
//! Integers are little-endian; `f64` is [`f64::to_bits`] little-endian.
//!
//! ```text
//! magic    8 × u8   "UCPCSNAP"
//! version  u32      2 (readers reject every other version)
//! chunk    kind u8 | len u32 | payload len × u8 | crc u32 (over kind‖len‖payload)
//!   kind 1 META     backend u8 (always 1), pruning u8 (0 = Off, 1 = Bounds),
//!                   m u64, k u64, live u64, epoch u64, n_slots u64,
//!                   n_free u64, versions k × u64, totals 6 × f64,
//!                   stats k × { size u64, psi m × f64, phi m × f64,
//!                               mean_sum m × f64, psi_tot f64, phi_tot f64,
//!                               s_sq_tot f64, drift 6 × f64 }
//!   kind 2 SLOTS    per slot: flag u8, label u64 if live, gen u32
//!                   (≤ SLOTS_PER_CHUNK slots per chunk, ascending)
//!   kind 3 FREE     freed slots u32, LIFO order (≤ FREE_PER_CHUNK each)
//!   kind 4 ROWS     live rows { mu m × f64, mu2 m × f64 }, ascending slot
//!                   order (≤ ROWS_PER_CHUNK rows per chunk)
//!   kind 5 END      empty — a stream without it is truncated
//! ```
//!
//! Version 1 — an unchunked single-buffer layout of the same fields — is no
//! longer read: it restores as [`SnapshotError::UnsupportedVersion`]. The
//! META backend byte names the slab row store, the only one there is; any
//! value other than 1 is [`SnapshotError::Corrupt`].
//!
//! Chunk boundaries are fixed constants, so the bytes of a given engine
//! state are deterministic and `snapshot(restore(s)) == s` holds bytewise.
//! Restore clamps every length field against the bytes actually remaining
//! *before* allocating, so a hostile or bit-flipped count fails fast as
//! [`SnapshotError::Truncated`] instead of reserving unbounded memory
//! (`tests/snapshot_fuzz.rs` fuzzes it with truncations and bit flips).
//! Rows decode straight from the chunk bytes into the arena.
//!
//! # Non-finite rows
//!
//! A checksum proves a chunk is what was written, not that a live engine
//! wrote it. Restore therefore applies the ingress rule every insertion
//! passes ([`MomentView::is_finite`](ucpc_uncertain::arena::MomentView::is_finite))
//! to each rebuilt row, and refuses a row with a NaN or ±∞ moment, or with
//! overflowing aggregates, as [`SnapshotError::Corrupt`] — restored, it
//! would poison the cluster statistics on its removal. Cluster statistics
//! are *not* checked: accumulation overflow lets a live engine reach
//! non-finite statistics, and refusing them would make a reachable state
//! unrecoverable.

use crate::incremental::IncrementalUcpc;
use crate::objective::{ClusterDrift, ClusterStats};
use crate::pruning::{DriftTotals, PruneCache, PruneCounters, PruningConfig};
use crate::wal::{crc32, f64_at, DurableIo, IoFault, VecIo};
use std::fmt;
use ucpc_uncertain::{MomentArena, SlabArena};

const MAGIC: &[u8; 8] = b"UCPCSNAP";
const VERSION: u32 = 2;
/// The META backend byte: the slab row store.
const BACKEND_SLAB: u8 = 1;

const CHUNK_META: u8 = 1;
const CHUNK_SLOTS: u8 = 2;
const CHUNK_FREE: u8 = 3;
const CHUNK_ROWS: u8 = 4;
const CHUNK_END: u8 = 5;

/// Moment rows per `ROWS` chunk — the writer's peak buffer is
/// `ROWS_PER_CHUNK × 16m` bytes regardless of how many objects are live.
pub const ROWS_PER_CHUNK: usize = 512;
/// Slot entries per `SLOTS` chunk.
pub const SLOTS_PER_CHUNK: usize = 4096;
/// Free-list entries per `FREE` chunk.
pub const FREE_PER_CHUNK: usize = 4096;

/// Errors from [`IncrementalUcpc::restore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the `UCPCSNAP` magic.
    BadMagic,
    /// The buffer's format version is not one this build reads.
    UnsupportedVersion(u32),
    /// The buffer ended before the declared state was complete.
    Truncated,
    /// The buffer decodes to an inconsistent state (bad tag, slot count,
    /// label range, free-list shape, or trailing bytes).
    Corrupt(&'static str),
    /// A chunk failed its CRC-32 — a flipped or torn byte inside the
    /// named section.
    ChecksumMismatch(&'static str),
    /// The [`DurableIo`] sink faulted while streaming a snapshot out.
    Io(IoFault),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "snapshot does not start with the UCPCSNAP magic"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "snapshot format version {v} is not supported (expected {VERSION})"
                )
            }
            Self::Truncated => write!(f, "snapshot buffer is truncated"),
            Self::Corrupt(what) => write!(f, "snapshot is corrupt: {what}"),
            Self::ChecksumMismatch(section) => {
                write!(f, "snapshot {section} chunk failed its checksum")
            }
            Self::Io(fault) => write!(f, "snapshot write faulted: {fault}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn f64s(&mut self, vs: &[f64]) {
        crate::wal::extend_f64_bits(&mut self.buf, vs);
    }

    /// Starts a chunk: kind byte plus a length placeholder patched by
    /// [`Self::finish_chunk`]. The buffer is reused across chunks, so the
    /// writer's peak memory is one chunk, not the whole snapshot.
    fn begin_chunk(&mut self, kind: u8) {
        self.buf.clear();
        self.u8(kind);
        self.u32(0);
    }

    /// Patches the length, appends the CRC-32 over `kind ‖ len ‖ payload`,
    /// and streams the framed chunk to the sink.
    fn finish_chunk<I: DurableIo>(
        &mut self,
        io: &mut I,
        written: &mut u64,
    ) -> Result<(), SnapshotError> {
        let len = (self.buf.len() - 5) as u32;
        self.buf[1..5].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        io.write_all(&self.buf).map_err(SnapshotError::Io)?;
        *written += self.buf.len() as u64;
        Ok(())
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt("count overflows usize"))
    }
    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }
    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, SnapshotError> {
        // Clamp before allocating: a hostile count must fail as Truncated,
        // never reserve unbounded memory.
        self.ensure(n, 8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// Pre-allocation clamp: `units` entries of at least `bytes_each`
    /// serialized bytes apiece must still fit in the unread input, else the
    /// buffer is truncated — checked *before* any `Vec::with_capacity` so a
    /// flipped length field can demand at most the input's own size.
    fn ensure(&self, units: usize, bytes_each: usize) -> Result<(), SnapshotError> {
        match units.checked_mul(bytes_each) {
            Some(total) if total <= self.remaining() => Ok(()),
            _ => Err(SnapshotError::Truncated),
        }
    }
}

fn write_drift(w: &mut Writer, d: ClusterDrift) {
    w.f64(d.add_const);
    w.f64(d.add_size);
    w.f64(d.add_mean);
    w.f64(d.rem_const);
    w.f64(d.rem_size);
    w.f64(d.rem_mean);
}

fn read_drift(r: &mut Reader<'_>) -> Result<ClusterDrift, SnapshotError> {
    Ok(ClusterDrift {
        add_const: r.f64()?,
        add_size: r.f64()?,
        add_mean: r.f64()?,
        rem_const: r.f64()?,
        rem_size: r.f64()?,
        rem_mean: r.f64()?,
    })
}

/// Decoded `META` chunk — everything except the per-slot sections.
struct Meta {
    pruning: PruningConfig,
    m: usize,
    k: usize,
    live: usize,
    epoch: u64,
    n_slots: usize,
    n_free: usize,
    versions: Vec<u64>,
    totals: DriftTotals,
    stats: Vec<ClusterStats>,
}

/// Accumulator of a chunked restore: enforces chunk order
/// (META → SLOTS → FREE → ROWS → END), validates every count, label and
/// free-list entry, and clamps every count against the input size before
/// allocating. Rows are rebuilt one slot at a time in ascending order,
/// freed slots as zero rows.
struct Decoder {
    input_len: usize,
    meta: Option<Meta>,
    labels: Vec<Option<usize>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    freed_seen: Vec<bool>,
    arena: MomentArena,
    occupied: Vec<bool>,
    next_slot: usize,
    rows_seen: usize,
    free_begun: bool,
    rows_begun: bool,
}

impl Decoder {
    fn new(input_len: usize) -> Self {
        Self {
            input_len,
            meta: None,
            labels: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            freed_seen: Vec::new(),
            arena: MomentArena::with_capacity(0, 0),
            occupied: Vec::new(),
            next_slot: 0,
            rows_seen: 0,
            free_begun: false,
            rows_begun: false,
        }
    }

    /// Clamp for counts whose entries live in *later* chunks: they must
    /// still fit in the whole input, else some chunk is missing — fail as
    /// Truncated before reserving anything.
    fn fits_input(&self, units: usize, bytes_each: usize) -> Result<(), SnapshotError> {
        match units.checked_mul(bytes_each) {
            Some(total) if total <= self.input_len => Ok(()),
            _ => Err(SnapshotError::Truncated),
        }
    }

    fn meta(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        if self.meta.is_some() {
            return Err(SnapshotError::Corrupt("duplicate META chunk"));
        }
        if r.u8()? != BACKEND_SLAB {
            return Err(SnapshotError::Corrupt("unknown backend tag"));
        }
        let pruning = match r.u8()? {
            0 => PruningConfig::Off,
            1 => PruningConfig::Bounds,
            _ => return Err(SnapshotError::Corrupt("unknown pruning tag")),
        };
        let m = r.usize()?;
        let k = r.usize()?;
        if k == 0 {
            return Err(SnapshotError::Corrupt("k must be at least 1"));
        }
        let live = r.usize()?;
        let epoch = r.u64()?;
        let n_slots = r.usize()?;
        let n_free = r.usize()?;
        if n_slots
            .checked_sub(live)
            .is_none_or(|expected| n_free != expected)
        {
            return Err(SnapshotError::Corrupt("free-list length mismatch"));
        }
        r.ensure(k, 8)?;
        let mut versions = Vec::with_capacity(k);
        for _ in 0..k {
            versions.push(r.u64()?);
        }
        let totals_arr: [f64; 6] = r.f64s(6)?.try_into().expect("fixed-length read");
        let totals = DriftTotals::from_array(totals_arr);
        let mut stats = Vec::with_capacity(k);
        for _ in 0..k {
            let size = r.usize()?;
            let psi = r.f64s(m)?;
            let phi = r.f64s(m)?;
            let mean_sum = r.f64s(m)?;
            let psi_tot = r.f64()?;
            let phi_tot = r.f64()?;
            let s_sq_tot = r.f64()?;
            let drift = read_drift(r)?;
            stats.push(ClusterStats::from_raw_parts(
                psi, phi, mean_sum, size, psi_tot, phi_tot, s_sq_tot, drift,
            ));
        }
        // Entries owed by later chunks, clamped against the whole input.
        self.fits_input(n_slots, 5)?;
        self.fits_input(n_free, 4)?;
        self.fits_input(live.checked_mul(m).ok_or(SnapshotError::Truncated)?, 16)?;
        self.labels = Vec::with_capacity(n_slots);
        self.gens = Vec::with_capacity(n_slots);
        self.free = Vec::with_capacity(n_free);
        self.freed_seen = vec![false; n_slots];
        self.arena = MomentArena::with_capacity(n_slots, m);
        self.occupied = Vec::with_capacity(n_slots);
        self.meta = Some(Meta {
            pruning,
            m,
            k,
            live,
            epoch,
            n_slots,
            n_free,
            versions,
            totals,
            stats,
        });
        Ok(())
    }

    fn slots(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let Some(meta) = &self.meta else {
            return Err(SnapshotError::Corrupt("chunk before META"));
        };
        let (n_slots, k) = (meta.n_slots, meta.k);
        if self.free_begun || self.rows_begun {
            return Err(SnapshotError::Corrupt("SLOTS chunk out of order"));
        }
        while r.remaining() > 0 {
            if self.labels.len() == n_slots {
                return Err(SnapshotError::Corrupt("too many slot entries"));
            }
            match r.u8()? {
                0 => self.labels.push(None),
                1 => {
                    let c = r.usize()?;
                    if c >= k {
                        return Err(SnapshotError::Corrupt("label out of range"));
                    }
                    self.labels.push(Some(c));
                }
                _ => return Err(SnapshotError::Corrupt("unknown slot flag")),
            }
            self.gens.push(r.u32()?);
        }
        Ok(())
    }

    fn free(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let Some(meta) = &self.meta else {
            return Err(SnapshotError::Corrupt("chunk before META"));
        };
        let (n_slots, n_free) = (meta.n_slots, meta.n_free);
        if self.labels.len() != n_slots || self.rows_begun {
            return Err(SnapshotError::Corrupt("FREE chunk out of order"));
        }
        self.free_begun = true;
        while r.remaining() > 0 {
            if self.free.len() == n_free {
                return Err(SnapshotError::Corrupt("too many free-list entries"));
            }
            let s = r.u32()?;
            let slot = s as usize;
            if slot >= n_slots || self.labels[slot].is_some() || self.freed_seen[slot] {
                return Err(SnapshotError::Corrupt("free-list entry invalid"));
            }
            self.freed_seen[slot] = true;
            self.free.push(s);
        }
        Ok(())
    }

    fn rows(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let Some(meta) = &self.meta else {
            return Err(SnapshotError::Corrupt("chunk before META"));
        };
        let (n_slots, n_free, live, m) = (meta.n_slots, meta.n_free, meta.live, meta.m);
        if self.labels.len() != n_slots || self.free.len() != n_free {
            return Err(SnapshotError::Corrupt("ROWS chunk out of order"));
        }
        self.rows_begun = true;
        while r.remaining() > 0 {
            if self.rows_seen == live {
                return Err(SnapshotError::Corrupt("too many rows"));
            }
            let row = r.take(m.checked_mul(16).ok_or(SnapshotError::Truncated)?)?;
            let (mu, mu2) = row.split_at(8 * m);
            // Zero-fill freed slots up to the next live one.
            while self.labels[self.next_slot].is_none() {
                self.push_free(m);
            }
            // The same canonical per-dimension fold the original insertion
            // used, straight from the chunk bytes — bit-identical row
            // reconstruction.
            self.arena
                .push_row_with(m, |d| (f64_at(mu, d), f64_at(mu2, d)));
            // The ingress rule every live insertion passed: a row with a
            // NaN/±∞ entry or an overflowing aggregate was never live.
            if !self.arena.view(self.arena.len() - 1).is_finite() {
                return Err(SnapshotError::Corrupt("non-finite moment row"));
            }
            self.occupied.push(true);
            self.next_slot += 1;
            self.rows_seen += 1;
        }
        Ok(())
    }

    /// Appends the zero row of a freed slot: never read, and zeros make
    /// the snapshot of a restored engine byte-identical.
    fn push_free(&mut self, m: usize) {
        self.arena.push_row_with(m, |_| (0.0, 0.0));
        self.occupied.push(false);
        self.next_slot += 1;
    }

    fn finish(mut self) -> Result<IncrementalUcpc, SnapshotError> {
        let Some(meta) = self.meta.take() else {
            return Err(SnapshotError::Corrupt("chunk before META"));
        };
        // A zero-dimensional row serializes to no bytes, so ROWS chunks
        // cannot count them: with m = 0 every flagged-live slot owns one.
        if self.labels.len() != meta.n_slots
            || self.free.len() != meta.n_free
            || (meta.m > 0 && self.rows_seen != meta.live)
        {
            return Err(SnapshotError::Truncated);
        }
        let live_slots = self.labels.iter().filter(|l| l.is_some()).count();
        if live_slots != meta.live {
            return Err(SnapshotError::Corrupt(
                "live count does not match slot flags",
            ));
        }
        // Every live slot with a row is behind the cursor (rows_seen ==
        // live == flagged-live count); fill the rest, freed slots as zeros
        // and (m = 0 only) live slots as empty rows.
        while self.next_slot < meta.n_slots {
            let live = self.labels[self.next_slot].is_some();
            debug_assert!(!live || meta.m == 0);
            self.arena.push_row_with(meta.m, |_| (0.0, 0.0));
            self.occupied.push(live);
            self.next_slot += 1;
        }
        Ok(IncrementalUcpc {
            m: meta.m,
            k: meta.k,
            stats: meta.stats,
            slab: SlabArena::from_parts(self.arena, self.occupied, self.free, self.gens),
            labels: self.labels,
            live: meta.live,
            pruning: meta.pruning,
            epoch: meta.epoch,
            versions: meta.versions,
            totals: meta.totals,
            cache: PruneCache::new(0, meta.k),
            counters: PruneCounters::default(),
            staging: MomentArena::default(),
        })
    }
}

impl IncrementalUcpc {
    /// Streams a snapshot of the complete logical state to `io` as
    /// bounded, checksummed chunks (see the [module docs](crate::snapshot)
    /// for the format and the bit-identity argument), returning the bytes
    /// written. Peak writer memory is one chunk
    /// (`ROWS_PER_CHUNK × 16m` bytes for the dominant row section)
    /// regardless of live-set size, which is what lets checkpoint +
    /// log-rotate run inside the serving loop without materializing the
    /// full state. The sink is *not* synced here — durability policy
    /// belongs to the caller (see `ServingUcpc::checkpoint_into`).
    pub fn write_snapshot<I: DurableIo>(&self, io: &mut I) -> Result<u64, SnapshotError> {
        let mut written = 0u64;
        let mut head = [0u8; 12];
        head[..8].copy_from_slice(MAGIC);
        head[8..].copy_from_slice(&VERSION.to_le_bytes());
        io.write_all(&head).map_err(SnapshotError::Io)?;
        written += head.len() as u64;
        let n_slots = self.labels.len();
        let n_free = n_slots - self.live;
        let mut w = Writer {
            buf: Vec::with_capacity(4096),
        };

        w.begin_chunk(CHUNK_META);
        w.u8(BACKEND_SLAB);
        w.u8(match self.pruning {
            PruningConfig::Off => 0,
            PruningConfig::Bounds => 1,
        });
        w.u64(self.m as u64);
        w.u64(self.k as u64);
        w.u64(self.live as u64);
        w.u64(self.epoch);
        w.u64(n_slots as u64);
        w.u64(n_free as u64);
        for &v in &self.versions {
            w.u64(v);
        }
        w.f64s(&self.totals.to_array());
        for s in &self.stats {
            w.u64(s.size() as u64);
            w.f64s(s.psi());
            w.f64s(s.phi());
            w.f64s(s.mean_sum());
            let (psi_tot, phi_tot, s_sq_tot) = s.scalar_aggregates();
            w.f64(psi_tot);
            w.f64(phi_tot);
            w.f64(s_sq_tot);
            write_drift(&mut w, s.drift());
        }
        w.finish_chunk(io, &mut written)?;

        for start in (0..n_slots).step_by(SLOTS_PER_CHUNK) {
            w.begin_chunk(CHUNK_SLOTS);
            for slot in start..(start + SLOTS_PER_CHUNK).min(n_slots) {
                match self.labels[slot] {
                    Some(c) => {
                        w.u8(1);
                        w.u64(c as u64);
                    }
                    None => w.u8(0),
                }
                w.u32(self.slab.generation(slot));
            }
            w.finish_chunk(io, &mut written)?;
        }

        for group in self.slab.free_slots().chunks(FREE_PER_CHUNK) {
            w.begin_chunk(CHUNK_FREE);
            for &s in group {
                w.u32(s);
            }
            w.finish_chunk(io, &mut written)?;
        }

        let mut in_chunk = 0usize;
        for slot in 0..n_slots {
            if self.labels[slot].is_none() {
                continue;
            }
            if in_chunk == 0 {
                w.begin_chunk(CHUNK_ROWS);
            }
            let v = self.slab.view(slot);
            w.f64s(v.mu);
            w.f64s(v.mu2);
            in_chunk += 1;
            if in_chunk == ROWS_PER_CHUNK {
                w.finish_chunk(io, &mut written)?;
                in_chunk = 0;
            }
        }
        if in_chunk > 0 {
            w.finish_chunk(io, &mut written)?;
        }

        w.begin_chunk(CHUNK_END);
        w.finish_chunk(io, &mut written)?;
        Ok(written)
    }

    /// [`Self::write_snapshot`] into a fresh in-memory buffer, for callers
    /// that want the bytes rather than a stream.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut io = VecIo::new();
        self.write_snapshot(&mut io)
            .expect("in-memory sink cannot fault");
        io.into_bytes()
    }

    /// Restores an engine from a [`Self::snapshot`] /
    /// [`Self::write_snapshot`] buffer, bit-identical to the engine that
    /// produced it. The prune cache restarts empty (entries regrow invalid
    /// — always sound); the pruning counters restart at zero.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(8)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let mut dec = Decoder::new(bytes.len());
        let mut pos = r.pos;
        loop {
            if pos == bytes.len() {
                // No END chunk seen: the stream stopped mid-write.
                return Err(SnapshotError::Truncated);
            }
            let remaining = bytes.len() - pos;
            if remaining < 9 {
                return Err(SnapshotError::Truncated);
            }
            let kind = bytes[pos];
            let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
            // Clamp against the input before touching the payload: a
            // hostile length is Truncated, never an allocation.
            if len > remaining - 9 {
                return Err(SnapshotError::Truncated);
            }
            let end = pos + 5 + len;
            let stored = u32::from_le_bytes(bytes[end..end + 4].try_into().unwrap());
            let section = match kind {
                CHUNK_META => "META",
                CHUNK_SLOTS => "SLOTS",
                CHUNK_FREE => "FREE",
                CHUNK_ROWS => "ROWS",
                CHUNK_END => "END",
                _ => return Err(SnapshotError::Corrupt("unknown chunk kind")),
            };
            if crc32(&bytes[pos..end]) != stored {
                return Err(SnapshotError::ChecksumMismatch(section));
            }
            let mut r = Reader {
                buf: &bytes[pos + 5..end],
                pos: 0,
            };
            match kind {
                CHUNK_META => dec.meta(&mut r)?,
                CHUNK_SLOTS => dec.slots(&mut r)?,
                CHUNK_FREE => dec.free(&mut r)?,
                CHUNK_ROWS => dec.rows(&mut r)?,
                _ => {
                    if r.remaining() != 0 {
                        return Err(SnapshotError::Corrupt("END chunk carries payload"));
                    }
                    if end + 4 != bytes.len() {
                        return Err(SnapshotError::Corrupt("trailing bytes"));
                    }
                    return dec.finish();
                }
            }
            if r.remaining() != 0 {
                return Err(SnapshotError::Corrupt("chunk carries trailing payload"));
            }
            pos = end + 4;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucpc_uncertain::{UncertainObject, UnivariatePdf};

    fn obj(c: f64) -> UncertainObject {
        UncertainObject::new(vec![
            UnivariatePdf::normal(c, 0.2),
            UnivariatePdf::uniform_centered(c, 0.6),
        ])
    }

    fn churned(pruning: PruningConfig) -> IncrementalUcpc {
        let mut inc = IncrementalUcpc::new(2, 3).unwrap();
        inc.set_pruning(pruning);
        let mut live = Vec::new();
        for i in 0..12 {
            live.push(inc.insert(&obj((i % 4) as f64 * 3.0)).unwrap());
        }
        inc.stabilize(4);
        for _ in 0..5 {
            let victim = live.remove(1);
            inc.remove(victim).unwrap();
            live.push(inc.insert(&obj(1.5)).unwrap());
        }
        inc.stabilize(4);
        inc
    }

    /// Rewrites the META chunk's backend byte and re-seals the chunk's
    /// CRC, so only the tag check can reject the result.
    fn with_backend_byte(bytes: &[u8], tag: u8) -> Vec<u8> {
        let mut out = bytes.to_vec();
        assert_eq!(out[12], CHUNK_META);
        let len = u32::from_le_bytes(out[13..17].try_into().unwrap()) as usize;
        out[17] = tag;
        let crc = crc32(&out[12..17 + len]);
        out[17 + len..21 + len].copy_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        for pruning in [PruningConfig::Off, PruningConfig::Bounds] {
            let inc = churned(pruning);
            let bytes = inc.snapshot();
            let back = IncrementalUcpc::restore(&bytes).unwrap();
            assert_eq!(back.len(), inc.len());
            assert_eq!(back.live_labels(), inc.live_labels());
            assert_eq!(
                back.objective().to_bits(),
                inc.objective().to_bits(),
                "objective must round-trip bitwise ({pruning:?})"
            );
            // Snapshotting the restored engine reproduces the exact bytes.
            assert_eq!(back.snapshot(), bytes, "snapshot(restore(s)) == s");
        }
    }

    #[test]
    fn v2_roundtrip_is_bit_identical_and_deterministic() {
        let inc = churned(PruningConfig::Bounds);
        let bytes = inc.snapshot();
        // Chunk boundaries are fixed constants: the same state always
        // streams the same bytes, buffered or through a sink.
        assert_eq!(inc.snapshot(), bytes);
        let mut io = VecIo::new();
        let written = inc.write_snapshot(&mut io).unwrap();
        assert_eq!(written as usize, bytes.len());
        assert_eq!(io.into_bytes(), bytes);
        let back = IncrementalUcpc::restore(&bytes).unwrap();
        assert_eq!(back.cluster_stats(), inc.cluster_stats());
        assert_eq!(back.snapshot(), bytes, "snapshot(restore(s)) == s");
    }

    #[test]
    fn v2_streams_rows_in_bounded_chunks() {
        // Enough live objects to force several ROWS chunks.
        let mut inc = IncrementalUcpc::new(2, 3).unwrap();
        for i in 0..(2 * ROWS_PER_CHUNK + 17) {
            inc.insert(&obj((i % 5) as f64)).unwrap();
        }
        let bytes = inc.snapshot();
        let back = IncrementalUcpc::restore(&bytes).unwrap();
        assert_eq!(back.snapshot(), bytes);
        assert_eq!(back.len(), inc.len());
    }

    #[test]
    fn v2_write_snapshot_surfaces_sink_faults() {
        let inc = churned(PruningConfig::Bounds);
        let full = inc.snapshot().len();
        // ENOSPC at any offset is a checked error, never a panic.
        for limit in [0, 11, 12, 40, full - 1] {
            let mut io = VecIo::limited(limit);
            let err = inc.write_snapshot(&mut io).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Io(_)),
                "limit {limit}: {err:?}"
            );
        }
    }

    #[test]
    fn v2_rejects_flips_truncations_and_reordering() {
        let inc = churned(PruningConfig::Bounds);
        let bytes = inc.snapshot();
        // Any truncation fails checked.
        for cut in [12, 13, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                IncrementalUcpc::restore(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        // A flipped byte inside a chunk is caught by that chunk's CRC.
        let mut flipped = bytes.clone();
        flipped[20] ^= 0x40;
        assert!(matches!(
            IncrementalUcpc::restore(&flipped).unwrap_err(),
            SnapshotError::ChecksumMismatch(_) | SnapshotError::Corrupt(_)
        ));
        // Trailing bytes after END are rejected.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(IncrementalUcpc::restore(&trailing).is_err());
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let inc = churned(PruningConfig::Bounds);
        let bytes = inc.snapshot();
        assert_eq!(
            IncrementalUcpc::restore(b"not a snapshot at all...").unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 99;
        assert_eq!(
            IncrementalUcpc::restore(&wrong_version).unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
        assert_eq!(
            IncrementalUcpc::restore(&bytes[..bytes.len() - 1]).unwrap_err(),
            SnapshotError::Truncated
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            IncrementalUcpc::restore(&trailing).unwrap_err(),
            SnapshotError::Corrupt("trailing bytes")
        );
    }

    #[test]
    fn version_1_buffers_are_unsupported() {
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            IncrementalUcpc::restore(&v1).unwrap_err(),
            SnapshotError::UnsupportedVersion(1)
        );
        // The version gate fires before any field of the body is read.
        let mut relabelled = churned(PruningConfig::Off).snapshot();
        relabelled[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            IncrementalUcpc::restore(&relabelled).unwrap_err(),
            SnapshotError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn backend_byte_other_than_slab_is_corrupt() {
        let bytes = churned(PruningConfig::Bounds).snapshot();
        assert!(IncrementalUcpc::restore(&with_backend_byte(&bytes, BACKEND_SLAB)).is_ok());
        for tag in [0, 2, 0xff] {
            assert_eq!(
                IncrementalUcpc::restore(&with_backend_byte(&bytes, tag)).unwrap_err(),
                SnapshotError::Corrupt("unknown backend tag"),
                "backend byte {tag}"
            );
        }
    }
}
