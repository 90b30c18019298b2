//! `serve_open`: an open loop of placement queries and commits against a
//! settled [`ServingUcpc`] window.
//!
//! Requests are due on a fixed schedule at a fixed rate whatever the engine
//! does, as independent users would send them; 15 of every 16 are placement
//! queries and one is a commit. Generator and engine share one thread: when
//! a flush runs long, the requests that fell due meanwhile are submitted
//! late, and their latency — always timed from the *due* time — carries the
//! stall. Placement pricing and the `serving` admit/flush/drain path do the
//! work; stabilize, WAL and snapshot do none.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use ucpc_core::incremental::{IncrementalUcpc, ObjectHandle};
use ucpc_core::serving::{ServingConfig, ServingResponse, ServingUcpc};
use ucpc_uncertain::Moments;

use crate::shape::Shape;
use crate::stats::{median, quantile};
use crate::tally::Tally;
use crate::trace::Tracer;

/// Every `COMMIT_EVERY`-th request commits its arrival.
pub const COMMIT_EVERY: usize = 16;
/// The fixed deadline trigger added to `ServingConfig::default()`, so a
/// trickle of requests is never stranded below the batch size. It is long
/// enough that at the fixed rates a batch fills first: their latencies are
/// set mostly by the arrival schedule, and a scheduling hiccup of the host
/// adds to a wait of tens of microseconds rather than dominating it.
pub const DEADLINE: Duration = Duration::from_micros(200);
/// Windows a leg's requests are cut into, in due order. Latency quantiles
/// are taken per window, so a stall of the shared host — on the machine
/// this was tuned on, several milliseconds at a time in bad stretches —
/// moves the windows it falls in, not the whole leg.
const WINDOWS: usize = 16;
/// Cap on settle passes; the window is settled when a pass relocates nothing.
const SETTLE_PASSES: usize = 100;
/// Rungs of the limit-rate ladder: `ladder_start × LADDER_STEP^i`.
pub const LADDER_STEP: f64 = 1.1;
pub const RUNGS: usize = 18;

/// Inserts the window into a fresh engine and stabilizes it to convergence
/// (library defaults throughout); returns the engine and the window's
/// handles in insertion order.
pub fn settle(
    window: &[Moments],
    m: usize,
    k: usize,
    tally: &mut Tally,
) -> (IncrementalUcpc, VecDeque<ObjectHandle>) {
    let mut engine = IncrementalUcpc::new(m, k).expect("shapes have m ≥ 1 and k ≥ 1");
    let mut handles = VecDeque::with_capacity(window.len());
    for (i, mo) in window.iter().enumerate() {
        match engine.insert_moments(mo) {
            Ok(h) => handles.push_back(h),
            Err(e) => tally.record(false, || format!("settle insert {i}: {e}")),
        }
    }
    engine.stabilize(SETTLE_PASSES);
    (engine, handles)
}

/// What every leg serves: the settled window it clones, the arrivals it
/// cycles through, and the shape's rates and limits.
#[derive(Clone, Copy)]
pub struct Window<'a> {
    /// The settled engine each leg starts from.
    pub settled: &'a IncrementalUcpc,
    /// Arrivals, cycled.
    pub pool: &'a [Moments],
    /// Rates, latency limit and deadline.
    pub shape: &'a Shape,
}

/// One open-loop leg at a fixed rate.
#[derive(Debug, Clone, Copy)]
pub struct LegSpec {
    /// Requests per second.
    pub rate: f64,
    /// Length of the schedule, seconds.
    pub secs: f64,
    /// First pool index of the leg's arrivals.
    pub offset: usize,
}

/// What one leg measured.
#[derive(Debug, Default)]
pub struct LegOut {
    /// p50 latency of each of the leg's [`WINDOWS`] windows, µs.
    pub window_p50_us: Vec<f64>,
    /// p99 latency of each of the leg's [`WINDOWS`] windows, µs.
    pub window_p99_us: Vec<f64>,
    /// The leg's sustained p99, µs: the larger of the median window p99
    /// over all windows and over the later half (a growing backlog shows
    /// there first).
    pub score_us: f64,
    /// Whether the score met the latency limit, with no shed request and
    /// every answer correct.
    pub pass: bool,
    /// Requests refused at admission (`QueueFull`).
    pub shed: u64,
    /// How late the generator submitted each request, µs (traced legs
    /// only).
    pub late_us: Vec<f64>,
    /// Flushes run, and how many the deadline trigger fired.
    pub flushes: u64,
    /// See [`Self::flushes`].
    pub deadline_flushes: u64,
    /// Due time → flush start per answered request, µs (traced legs only).
    pub queue_wait_us: Vec<f64>,
    /// Responses drained.
    pub answered: u64,
    /// The engine's placement-scan counters after the leg.
    pub placement_priced: u64,
    /// See [`Self::placement_priced`].
    pub placement_bypassed: u64,
}

/// Runs one leg from a clone of `settled`, checks every answer and the
/// final partition against a serial replay, and scores it against `slo_us`
/// ([`LegOut::score_us`]).
pub fn run_leg(w: Window<'_>, spec: LegSpec, tr: &mut Tracer, tally: &mut Tally) -> LegOut {
    let Window {
        settled,
        pool,
        shape,
    } = w;
    let cfg = ServingConfig {
        deadline: Some(DEADLINE),
        ..ServingConfig::default()
    };
    let n = ((spec.rate * spec.secs).round() as usize).max(1);
    // The window only grows during a leg; reserving for the leg's commits
    // keeps storage reallocation, a set-up cost, out of the latencies.
    let mut engine = settled.clone();
    engine.reserve_ids(n / COMMIT_EVERY + 1);
    let mut s = ServingUcpc::over(engine, cfg);
    let batch = s.config().batch;
    let period_ns = 1e9 / spec.rate;
    let due = |i: usize| (i as f64 * period_ns) as u64;
    let arrival = |i: usize| (spec.offset + i) % pool.len();
    let is_commit = |i: usize| i % COMMIT_EVERY == COMMIT_EVERY - 1;

    let mut lat_ns = vec![u64::MAX; n];
    let mut late_ns = vec![0u64; if tr.enabled() { n } else { 0 }];
    let mut ticket_req: Vec<u32> = Vec::with_capacity(n);
    let mut commits: Vec<u32> = Vec::with_capacity(n / COMMIT_EVERY + 1);
    // Traced legs: (flush start, tickets issued by then) per flush; the
    // queue waits are worked out after the leg.
    let mut flush_starts: Vec<(u64, usize)> = Vec::new();
    let mut out = LegOut::default();
    let mut bad = 0u64;
    let mut oldest: Option<Instant> = None;

    let root = tr.begin("serve.leg", spec.rate as u64);
    let t0 = Instant::now();
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        let now_ns = (now - t0).as_nanos() as u64;
        let size_due = s.pending_len() >= batch;
        let deadline_due = oldest.is_some_and(|o| now.saturating_duration_since(o) >= DEADLINE);
        if next < n && due(next) <= now_ns && !size_due {
            let mo = &pool[arrival(next)];
            let sp = tr.begin("serving.submit", next as u64);
            let r = if is_commit(next) {
                s.submit_commit(mo)
            } else {
                s.submit_query(mo)
            };
            tr.end(sp);
            if let Some(late) = late_ns.get_mut(next) {
                *late = now_ns - due(next);
            }
            match r {
                Ok(t) => {
                    debug_assert_eq!(t as usize, ticket_req.len());
                    ticket_req.push(next as u32);
                    if is_commit(next) {
                        commits.push(arrival(next) as u32);
                    }
                    if oldest.is_none() {
                        oldest = Some(Instant::now());
                    }
                }
                Err(e) => {
                    out.shed += 1;
                    tally.fail(format!("serve request {next}: {e}"));
                }
            }
            next += 1;
        } else if size_due || deadline_due {
            let flush_start_ns = if tr.enabled() {
                (Instant::now() - t0).as_nanos() as u64
            } else {
                0
            };
            let sp = tr.begin("serving.poll", out.flushes);
            let flushed = s.poll(now);
            if flushed == 0 {
                // The engine's own deadline stamp is a hair later than ours.
                tr.end(sp);
                continue;
            }
            tr.end_as(sp, "serving.flush");
            out.flushes += 1;
            if !size_due {
                out.deadline_flushes += 1;
            }
            if tr.enabled() {
                flush_starts.push((flush_start_ns, ticket_req.len()));
            }
            oldest = None;
            let done_ns = (Instant::now() - t0).as_nanos() as u64;
            let sp = tr.begin("serving.drain", out.flushes);
            while let Some((t, resp)) = s.pop_response() {
                let Some(&req) = ticket_req.get(t as usize) else {
                    bad += 1;
                    tally.fail(format!("serve: response for unknown ticket {t}"));
                    continue;
                };
                let req = req as usize;
                let kind_ok = match &resp {
                    ServingResponse::Placed(_) => !is_commit(req),
                    ServingResponse::Committed { .. } => is_commit(req),
                    _ => false,
                };
                if !kind_ok {
                    bad += 1;
                    tally.fail(format!("serve request {req}: unexpected response {resp:?}"));
                } else if lat_ns[req] != u64::MAX {
                    bad += 1;
                    tally.fail(format!("serve request {req}: answered twice"));
                } else {
                    lat_ns[req] = done_ns.saturating_sub(due(req));
                }
            }
            tr.end(sp);
        } else if next == n && s.pending_len() == 0 {
            break;
        } else {
            let sp = tr.begin("gen.wait", next as u64);
            loop {
                std::hint::spin_loop();
                let now = Instant::now();
                let now_ns = (now - t0).as_nanos() as u64;
                if (next < n && due(next) <= now_ns)
                    || oldest.is_some_and(|o| now.saturating_duration_since(o) >= DEADLINE)
                {
                    break;
                }
            }
            tr.end(sp);
        }
    }
    tr.end(root);

    // Every admitted request answered exactly once; sheds already counted.
    let answered = lat_ns.iter().filter(|&&l| l != u64::MAX).count();
    let unanswered = ticket_req.len() - answered.min(ticket_req.len());
    tally.record(unanswered == 0, || {
        format!(
            "serve leg {}: {unanswered} tickets never answered",
            spec.rate
        )
    });
    // Sheds and bad answers were recorded as failures as they happened.
    tally.ok(n as u64);

    // Final partition equals a serial replay of the committed arrivals.
    let mut reference = settled.clone();
    for &p in &commits {
        if let Err(e) = reference.insert_moments(&pool[p as usize]) {
            tally.fail(format!("serve replay insert: {e}"));
        }
    }
    let live = s.engine();
    let counters = live.pruning_counters();
    out.placement_priced = counters.placement_priced as u64;
    out.placement_bypassed = counters.placement_bypassed as u64;
    out.answered = answered as u64;
    let same = reference.live_labels() == live.live_labels()
        && reference.objective().to_bits() == live.objective().to_bits()
        && reference.cluster_stats() == live.cluster_stats();
    tally.check(same, || {
        format!(
            "serve leg {}: partition differs from serial replay",
            spec.rate
        )
    });

    let lat_us: Vec<f64> = lat_ns
        .iter()
        .map(|&l| {
            if l == u64::MAX {
                f64::INFINITY
            } else {
                l as f64 / 1e3
            }
        })
        .collect();
    for w in lat_us.chunks(n.div_ceil(WINDOWS)) {
        out.window_p50_us.push(quantile(w, 0.5));
        out.window_p99_us.push(quantile(w, 0.99));
    }
    let p99s = &out.window_p99_us;
    out.score_us = median(p99s).max(median(&p99s[p99s.len() / 2..]));
    out.pass = out.score_us <= shape.slo_us && out.shed == 0 && bad == 0 && unanswered == 0;
    out.late_us = late_ns.iter().map(|&l| l as f64 / 1e3).collect();
    let mut flushed_upto = 0;
    for &(start_ns, upto) in &flush_starts {
        for &req in &ticket_req[flushed_upto..upto] {
            let wait_ns = start_ns.saturating_sub(due(req as usize));
            out.queue_wait_us.push(wait_ns as f64 / 1e3);
        }
        flushed_upto = upto;
    }
    out
}

/// What the serve phase measured, accumulated over the rounds of a run.
#[derive(Debug, Default)]
pub struct ServeOut {
    /// Legs at the low fixed rate, one per round.
    pub lo: Vec<LegOut>,
    /// Legs at the high fixed rate, one per round.
    pub hi: Vec<LegOut>,
    /// Per round: fractional rung index where the climb crossed the limit
    /// (`-1` when the first rung failed).
    pub top_rungs: Vec<f64>,
    legs: usize,
}

impl ServeOut {
    /// Median over every window of `legs` of the window's p50 latency, µs.
    pub fn p50_us(legs: &[LegOut]) -> f64 {
        let all: Vec<f64> = legs.iter().flat_map(|l| l.window_p50_us.clone()).collect();
        median(&all)
    }

    /// Median over every window of `legs` of the window's p99 latency, µs.
    pub fn p99_us(legs: &[LegOut]) -> f64 {
        let all: Vec<f64> = legs.iter().flat_map(|l| l.window_p99_us.clone()).collect();
        median(&all)
    }

    /// The highest rate that meets the latency limit: the median over rounds
    /// of the rate where each round's climb crossed the limit. `0` when most
    /// rounds fail the first rung.
    pub fn max_rps_at_slo(&self, shape: &Shape) -> f64 {
        let rates: Vec<f64> = self
            .top_rungs
            .iter()
            .map(|&top| {
                if top < 0.0 {
                    0.0
                } else {
                    shape.ladder_start * LADDER_STEP.powf(top)
                }
            })
            .collect();
        median(&rates)
    }

    fn leg(
        &mut self,
        w: Window<'_>,
        rate: f64,
        secs: f64,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> LegOut {
        // Each leg starts at another point of the arrival pool.
        let offset = self.legs * 7_919;
        self.legs += 1;
        run_leg(w, LegSpec { rate, secs, offset }, tr, tally)
    }
}

/// One round of the serve phase: a leg at each fixed rate of `leg_secs`
/// and, with `probe_secs`, one climb of the limit-rate ladder that stops at
/// the first rung missing the limit twice in a row.
pub fn round(
    w: Window<'_>,
    leg_secs: f64,
    probe_secs: Option<f64>,
    out: &mut ServeOut,
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    let lo = out.leg(w, w.shape.rate_lo, leg_secs, tr, tally);
    out.lo.push(lo);
    let hi = out.leg(w, w.shape.rate_hi, leg_secs, tr, tally);
    out.hi.push(hi);
    let Some(probe_secs) = probe_secs else {
        return;
    };
    // The crossing is interpolated between the last rung passed and the
    // first one failed, in log-rate against log-p99, so the estimate is not
    // stuck on the rungs.
    let mut top = -1.0;
    let mut last_score = f64::NAN;
    for i in 0..RUNGS {
        let rate = w.shape.ladder_start * LADDER_STEP.powi(i as i32);
        // A rung fails when two probes in a row miss the limit: near the
        // knee, one stall of the host leaves a backlog that can sink a
        // single probe.
        let mut leg = out.leg(w, rate, probe_secs, &mut Tracer::off(), tally);
        if !leg.pass {
            leg = out.leg(w, rate, probe_secs, &mut Tracer::off(), tally);
        }
        let score = leg.score_us;
        if !leg.pass {
            let slo = w.shape.slo_us;
            if top >= 0.0 && score > slo && last_score > 0.0 {
                let frac = (slo.ln() - last_score.ln()) / (score.ln() - last_score.ln());
                top += frac.clamp(0.0, 1.0);
            }
            break;
        }
        top = i as f64;
        last_score = score;
    }
    out.top_rungs.push(top);
}
