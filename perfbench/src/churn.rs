//! `churn_wal`: a closed loop with one client editing a durable
//! [`ServingUcpc`] window.
//!
//! Each step removes the oldest object and commits an arrival, then
//! flushes; an explicit `submit_stabilize(2)` rides along every
//! `stabilize_every` commits. A write-ahead log on an in-memory
//! [`SharedVecIo`] (default fsync policy) records every mutation. The run is
//! cut into sessions of a fixed number of edits: each starts with a
//! `checkpoint_into` log rotation and ends with `wal::recover` of that
//! checkpoint plus the session's log, checked bit for bit against the live
//! engine. Each session restarts from the settled window's checkpoint, so
//! all sessions do the same work. `wal`, `snapshot`, stabilize relocation
//! and replay do the work; placement queries do none.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use ucpc_core::incremental::{IncrementalUcpc, ObjectHandle};
use ucpc_core::serving::{ServingConfig, ServingResponse, ServingUcpc};
use ucpc_core::wal::{apply_record, recover, scan_wal, SharedVecIo, VecIo, WalError};
use ucpc_uncertain::Moments;

use crate::shape::{Shape, WindowInput};
use crate::stats::{median, quantile};
use crate::tally::Tally;
use crate::trace::Tracer;

/// Relocation passes of the explicit stabilization.
const STABILIZE_PASSES: usize = 2;

/// The settled window every session starts from: its checkpoint and the
/// handles of its objects, oldest first; and the in-memory log sink the
/// sessions share.
pub struct ChurnState {
    base: Vec<u8>,
    handles: VecDeque<ObjectHandle>,
    /// Emptied before each session. Its buffer keeps the capacity earlier
    /// sessions grew, as a preallocated log file would: a fresh `Vec` per
    /// session page-faults about once every five edits, and on a shared
    /// host the cost of a fault swings from run to run, which made it the
    /// tail of `edit_p99_us` rather than the library's own work.
    log: SharedVecIo,
}

/// Checkpoint + log rotation: a v2 snapshot into a fresh buffer and a log
/// starting over in the emptied sink `wal`.
fn rotate(serving: &mut ServingUcpc, wal: &SharedVecIo) -> Result<Vec<u8>, WalError> {
    let mut snap = VecIo::new();
    wal.truncate(0);
    serving.checkpoint_into(&mut snap, wal.clone())?;
    Ok(snap.into_bytes())
}

/// Settles the window behind a serving front door with library defaults and
/// takes the first checkpoint — the measured set-up of this phase.
pub fn setup(input: &WindowInput, tally: &mut Tally) -> Option<ChurnState> {
    let (engine, handles) = crate::serve::settle(&input.window, input.m, input.k, tally);
    let mut serving = ServingUcpc::over(engine, ServingConfig::default());
    let log = SharedVecIo::new();
    match rotate(&mut serving, &log) {
        Ok(base) => Some(ChurnState { base, handles, log }),
        Err(e) => {
            tally.record(false, || format!("churn first checkpoint: {e}"));
            None
        }
    }
}

/// What one session measured.
#[derive(Debug, Default)]
pub struct SessionOut {
    /// Edits per second over the session's edit loop.
    pub edits_per_s: f64,
    /// p99 of one edit (submit remove → responses drained), µs.
    pub edit_p99_us: f64,
    /// Wall time of `wal::recover`, seconds.
    pub recover_s: f64,
    /// Factor scaling the session's figures to the nominal host
    /// ([`crate::host`]), set by [`ChurnOut::close_round`].
    pub scale: f64,
    /// Frames in the session's log.
    pub frames: u64,
    /// Bytes of the session's log.
    pub wal_bytes: usize,
    /// Bytes of the checkpoint the session started from.
    pub snapshot_bytes: usize,
    /// Recovery split into restore, scan and replay, ms (traced only).
    pub restore_ms: f64,
    /// See [`Self::restore_ms`].
    pub scan_ms: f64,
    /// See [`Self::restore_ms`].
    pub replay_ms: f64,
}

/// Runs one session: the settled window is restored from its checkpoint,
/// a `checkpoint_into` rotation opens a fresh log, `shape.churn_edits` edits
/// run, and `wal::recover` of the checkpoint plus the log must equal the
/// live engine. Every session replays the same edit stream from the same
/// state, so sessions differ only in how the machine ran them.
pub fn session(
    st: &ChurnState,
    pool: &[Moments],
    shape: &Shape,
    decompose_first: bool,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> SessionOut {
    let mut out = SessionOut {
        scale: 1.0,
        ..SessionOut::default()
    };
    let mut serving = match IncrementalUcpc::restore(&st.base) {
        Ok(engine) => ServingUcpc::over(engine, ServingConfig::default()),
        Err(e) => {
            tally.record(false, || {
                format!("churn restore of the settled window: {e}")
            });
            return out;
        }
    };
    let mut handles = st.handles.clone();
    let sp = tr.begin("snapshot.checkpoint", 0);
    let rotated = rotate(&mut serving, &st.log);
    tr.end(sp);
    let snapshot = match rotated {
        Ok(r) => r,
        Err(e) => {
            tally.record(false, || format!("churn checkpoint: {e}"));
            return out;
        }
    };
    tally.ok(1);
    out.snapshot_bytes = snapshot.len();

    let edits = shape.churn_edits;
    let mut edit_us = Vec::with_capacity(edits);
    let t_loop = Instant::now();
    for e in 0..edits {
        let root = tr.begin("churn.edit", e as u64);
        let t = Instant::now();
        let Some(oldest) = handles.pop_front() else {
            tally.record(false, || "churn: window ran empty".to_string());
            tr.end(root);
            break;
        };
        let sp = tr.begin("serving.submit", e as u64);
        let removed = serving.submit_remove(oldest);
        let committed = serving.submit_commit(&pool[e % pool.len()]);
        let stabilize = (e + 1) % shape.stabilize_every == 0;
        let stabilized = stabilize.then(|| serving.submit_stabilize(STABILIZE_PASSES));
        tr.end(sp);
        for r in [Some(removed), Some(committed), stabilized]
            .into_iter()
            .flatten()
        {
            if let Err(err) = r {
                tally.record(false, || format!("churn edit {e}: {err}"));
            }
        }
        let sp = tr.begin("serving.flush", e as u64);
        serving.flush();
        tr.end_as(
            sp,
            if stabilize {
                "serving.flush_stabilize"
            } else {
                "serving.flush_edit"
            },
        );
        let sp = tr.begin("serving.drain", e as u64);
        while let Some((_, resp)) = serving.pop_response() {
            match resp {
                ServingResponse::Removed(Ok(())) | ServingResponse::Stabilized { .. } => {}
                ServingResponse::Committed { handle, .. } => handles.push_back(handle),
                other => tally.record(false, || format!("churn edit {e}: {other:?}")),
            }
        }
        tr.end(sp);
        edit_us.push(t.elapsed().as_secs_f64() * 1e6);
        tr.end(root);
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    out.edit_p99_us = quantile(&edit_us, 0.99);
    out.edits_per_s = edit_us.len() as f64 / loop_s;
    tally.ok(edit_us.len() as u64);

    let log = st.log.bytes();
    out.wal_bytes = log.len();
    out.frames = serving.wal().map_or(0, |w| w.frames());
    let live = serving.engine();

    // Traced sessions also time recovery step by step; alternating which of
    // the two runs first keeps cache warmth out of their comparison.
    if tr.enabled() && decompose_first {
        decomposed_recovery(&snapshot, &log, live, &mut out, tr, tally);
    }
    let t = Instant::now();
    let sp = tr.begin("wal.recover", 0);
    let recovered = recover(&snapshot, &log);
    tr.end(sp);
    out.recover_s = t.elapsed().as_secs_f64();
    match recovered {
        Ok(rec) => {
            tally.ok(1);
            tally.check(rec.damage.is_none(), || {
                format!("churn recover: damage {:?}", rec.damage)
            });
            tally.check(rec.frames_applied == out.frames, || {
                format!(
                    "churn recover: {} frames applied, {} logged",
                    rec.frames_applied, out.frames
                )
            });
            tally.check(same_state(&rec.engine, live), || {
                "churn recover: recovered engine differs from live".to_string()
            });
        }
        Err(e) => tally.record(false, || format!("churn recover: {e}")),
    }

    if tr.enabled() && !decompose_first {
        decomposed_recovery(&snapshot, &log, live, &mut out, tr, tally);
    }
    out
}

/// `wal::recover`'s three steps timed apart: restore the checkpoint, scan
/// the log, replay every record.
fn decomposed_recovery(
    snapshot: &[u8],
    log: &[u8],
    live: &IncrementalUcpc,
    out: &mut SessionOut,
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    let t = Instant::now();
    let sp = tr.begin("snapshot.restore", 0);
    let restored = IncrementalUcpc::restore(snapshot);
    tr.end(sp);
    out.restore_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut engine = match restored {
        Ok(e) => e,
        Err(e) => return tally.record(false, || format!("churn restore: {e}")),
    };
    let t = Instant::now();
    let sp = tr.begin("wal.scan", 0);
    let scanned = scan_wal(log);
    tr.end(sp);
    out.scan_ms = t.elapsed().as_secs_f64() * 1e3;
    let scan = match scanned {
        Ok(s) => s,
        Err(e) => return tally.record(false, || format!("churn scan: {e}")),
    };
    let t = Instant::now();
    let sp = tr.begin("wal.replay", 0);
    let mut replay_errors = 0u64;
    for rec in &scan.records {
        replay_errors += u64::from(apply_record(&mut engine, rec).is_err());
    }
    tr.end(sp);
    out.replay_ms = t.elapsed().as_secs_f64() * 1e3;
    tally.check(replay_errors == 0 && same_state(&engine, live), || {
        format!("churn replay: {replay_errors} errors or state differs from live")
    });
}

/// Labels, handles, statistics bits and objective bits all equal.
fn same_state(a: &IncrementalUcpc, b: &IncrementalUcpc) -> bool {
    a.live_labels() == b.live_labels()
        && a.cluster_stats() == b.cluster_stats()
        && a.objective().to_bits() == b.objective().to_bits()
}

/// What the churn phase measured.
#[derive(Debug, Default)]
pub struct ChurnOut {
    /// Every session, in order.
    pub sessions: Vec<SessionOut>,
}

impl ChurnOut {
    /// Median over sessions of a per-session figure.
    pub fn median_of(&self, f: impl Fn(&SessionOut) -> f64) -> f64 {
        median(&self.sessions.iter().map(f).collect::<Vec<_>>())
    }

    /// Sets `scale` on the sessions from index `first` on.
    pub fn close_round(&mut self, first: usize, scale: f64) {
        for s in &mut self.sessions[first..] {
            s.scale = scale;
        }
    }

    /// Edits per second, scaled: median over sessions.
    pub fn edits_per_s(&self) -> f64 {
        self.median_of(|s| s.edits_per_s / s.scale)
    }

    /// p99 of one edit, scaled: median over sessions of the per-session
    /// p99.
    pub fn edit_p99_us(&self) -> f64 {
        self.median_of(|s| s.edit_p99_us * s.scale)
    }

    /// `wal::recover` time, scaled: median over sessions.
    pub fn recover_s(&self) -> f64 {
        self.median_of(|s| s.recover_s * s.scale)
    }
}

/// Runs sessions until `budget` is spent, at least one, appending them to
/// `out`.
pub fn run(
    st: &ChurnState,
    pool: &[Moments],
    shape: &Shape,
    budget: Duration,
    out: &mut ChurnOut,
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    let start = Instant::now();
    loop {
        let decompose_first = out.sessions.len() % 2 == 1;
        out.sessions
            .push(session(st, pool, shape, decompose_first, tr, tally));
        if start.elapsed() >= budget {
            break;
        }
    }
}
