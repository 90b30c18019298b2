//! The repository benchmark: end-to-end metrics of batch convergence,
//! open-loop serving and durable churn, and a traced run that attributes
//! them to the library's layers.
//!
//! One run executes three phases on the inputs of one [`Shape`]:
//!
//! * `batch_kdd` ([`batch`]) — UCPC to convergence on the KDD Cup '99
//!   analogue from a fixed seed set;
//! * `serve_open` ([`serve`]) — an open loop of placement queries and
//!   commits at fixed rates, plus a ladder for the highest rate that meets
//!   the latency limit;
//! * `churn_wal` ([`churn`]) — a closed loop of remove + commit edits with a
//!   write-ahead log, checkpoints and recovery.
//!
//! Every phase checks its outputs. The benchmark only calls the library's
//! public API with library defaults; it sets no `UCPC_*` knob and refuses to
//! run while one is set (see `main.rs`).

pub mod batch;
pub mod churn;
pub mod host;
pub mod probes;
pub mod serve;
pub mod shape;
pub mod stats;
pub mod tally;
pub mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::shape::Shape;
use crate::stats::{median, quantile};
use crate::tally::Tally;
use crate::trace::Tracer;

/// Rounds per run. Each round sets up once and runs a slice of every phase,
/// and metrics combine samples from all rounds, so a disturbance shorter
/// than a few rounds moves no reported figure much.
const ROUNDS: usize = 20;
/// Times each batch seed runs in a run, in rounds spread over it.
const BATCH_REPEATS: usize = 4;
/// Shares of a round's time given to the serve and churn phases; the batch
/// phase runs a fixed slice of the seed set instead, whatever it takes.
const SERVE_SHARE: f64 = 0.65;
const CHURN_SHARE: f64 = 0.35;
/// Share of the serve slice given to each fixed-rate leg; the rest goes to
/// the ladder, whose probes get [`PROBE_SECS_SHARE`] each (a climb usually
/// stops after about twelve rungs).
const LEG_SHARE: f64 = 0.25;
const PROBE_SECS_SHARE: f64 = 0.5 / 12.0;
/// Traced serve legs are shortened to this share of their untraced length,
/// bounding the span buffer.
const TRACED_LEG_SHARE: f64 = 0.25;
/// Span buffer reserved per traced phase.
const SPAN_CAPACITY: usize = 1 << 18;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input sizes, rates and limits.
    pub shape: Shape,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement time, split across the phases.
    pub seconds: f64,
    /// `false`: the end-to-end metrics. `true`: the per-layer metrics of a
    /// traced pass, against an untraced pass of the same length.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans_dir: Option<PathBuf>,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `lat_p99_us.hi`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit, e.g. `us`.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Reported metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Operations and checks attempted and failed.
    pub tally: Tally,
    /// Human-readable detail lines (ladder, sessions, span files).
    pub notes: Vec<String>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Whether every operation and output check succeeded and every metric
    /// is a finite number.
    pub fn correct(&self) -> bool {
        self.tally.all_ok() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Failed share of attempted operations and checks.
    pub fn failed_frac(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }
}

/// The host and build the numbers come from.
pub fn provenance() -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "cores={cores} simd={} rustc=\"{}\" git_rev={}",
        ucpc_uncertain::simd::active_backend().name(),
        env!("PERFBENCH_RUSTC_VERSION"),
        git_rev(Path::new(".")),
    )
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One set-up of every phase — the arena build (batch), the window build
/// and settle (serve), and the same plus the first checkpoint (churn) —
/// and its wall time, seconds.
fn setup(
    batch_in: &shape::BatchInput,
    win: &shape::WindowInput,
    rep: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> (
    ucpc_uncertain::MomentArena,
    ucpc_core::incremental::IncrementalUcpc,
    Option<churn::ChurnState>,
    f64,
) {
    let t = Instant::now();
    let arena = batch::setup(batch_in, rep, tr);
    let (settled, _) = serve::settle(&win.window, win.m, win.k, tally);
    let churn_state = churn::setup(win, tally);
    (arena, settled, churn_state, t.elapsed().as_secs_f64())
}

/// Runs the benchmark.
pub fn run(opts: &Options) -> Outcome {
    let shape = &opts.shape;
    let mut out = Outcome::default();
    let batch_in = shape::batch_input(shape, opts.seed);
    let win = shape::window_input(shape, opts.seed);

    let traced = || {
        if opts.trace {
            Tracer::on(SPAN_CAPACITY)
        } else {
            Tracer::off()
        }
    };
    // The first set-up gives the state every phase runs on; each round sets
    // up once more, and setup_s is the median over all of them.
    let mut setup_tr = traced();
    let (arena, settled, churn_state, first_setup) =
        setup(&batch_in, &win, 0, &mut setup_tr, &mut out.tally);
    let Some(churn_state) = churn_state else {
        return out;
    };
    let mut setup_secs = vec![first_setup];

    // The untraced pass gives the end-to-end metrics; with --trace 1 it is
    // the baseline of a traced pass interleaved with it round by round.
    let round_secs = opts.seconds / ROUNDS as f64 * if opts.trace { 0.5 } else { 1.0 };
    let secs_of = Duration::from_secs_f64;
    let serve_secs = round_secs * SERVE_SHARE;
    let (mut b, mut s, mut c) = (
        batch::BatchOut::default(),
        serve::ServeOut::default(),
        churn::ChurnOut::default(),
    );
    let (mut tb, mut ts, mut tc) = (
        batch::BatchOut::default(),
        serve::ServeOut::default(),
        churn::ChurnOut::default(),
    );
    let mut off = Tracer::off();
    let (mut batch_tr, mut serve_tr, mut churn_tr) = (traced(), traced(), traced());
    let pool = &win.pool;
    let host = host::HostRef::default();
    let mut host_ms = vec![host.time_ms()];
    let mut batch_ms = Vec::with_capacity(ROUNDS);
    let window = serve::Window {
        settled: &settled,
        pool,
        shape,
    };
    for round in 0..ROUNDS {
        let first_session = c.sessions.len();
        let (.., secs) = setup(&batch_in, &win, round + 1, &mut setup_tr, &mut out.tally);
        setup_secs.push(secs);
        let t = &mut out.tally;
        // Seed s runs in the rounds r with r ≡ s (mod ROUNDS / BATCH_REPEATS):
        // each round runs a representative slice, and every seed runs
        // BATCH_REPEATS times at different times of the run.
        let stride = ROUNDS / BATCH_REPEATS;
        let seeds: Vec<usize> = (round % stride..shape.batch_seeds)
            .step_by(stride)
            .collect();
        let batch_t = Instant::now();
        batch::run(&batch_in, &arena, &seeds, &mut b, &mut off, t);
        batch_ms.push(batch_t.elapsed().as_secs_f64() * 1e3);
        if opts.trace {
            batch::run(&batch_in, &arena, &seeds, &mut tb, &mut batch_tr, t);
        }
        let leg_secs = serve_secs * LEG_SHARE;
        if opts.trace {
            let leg_secs = leg_secs * TRACED_LEG_SHARE;
            serve::round(window, leg_secs, None, &mut s, &mut off, t);
            serve::round(window, leg_secs, None, &mut ts, &mut serve_tr, t);
        } else {
            let probe = Some(serve_secs * PROBE_SECS_SHARE);
            serve::round(window, leg_secs, probe, &mut s, &mut off, t);
        }
        let churn_secs = secs_of(round_secs * CHURN_SHARE);
        churn::run(&churn_state, pool, shape, churn_secs, &mut c, &mut off, t);
        if opts.trace {
            churn::run(
                &churn_state,
                pool,
                shape,
                churn_secs,
                &mut tc,
                &mut churn_tr,
                t,
            );
        }
        host_ms.push(host.time_ms());
        let scale = host::REF_NOMINAL_MS / ((host_ms[round] + host_ms[round + 1]) / 2.0);
        b.close_round(scale);
        c.close_round(first_session, scale);
    }
    let fmt = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes.push(format!(
        "per round: batch slice ms [{}] lo score us [{}] hi score us [{}] ladder top rung [{}]",
        fmt(batch_ms),
        fmt(s.lo.iter().map(|l| l.score_us).collect()),
        fmt(s.hi.iter().map(|l| l.score_us).collect()),
        fmt(s.top_rungs.clone()),
    ));
    out.notes.push(format!(
        "host reference kernel ms between rounds (nominal {} ms): [{}]",
        host::REF_NOMINAL_MS,
        fmt(host_ms)
    ));
    out.notes
        .push(format!("setup s per set-up: [{}]", fmt(setup_secs.clone())));
    out.notes.push(format!(
        "per session: edits/s [{}] recover s [{}]",
        fmt(c.sessions.iter().map(|x| x.edits_per_s).collect()),
        fmt(c.sessions.iter().map(|x| x.recover_s).collect()),
    ));
    let raw_edits = |c: &churn::ChurnOut| c.median_of(|x| x.edits_per_s);
    out.notes.push(format!(
        "raw, unscaled: run_ms_p50 {:.4} run_ms_p90 {:.4} edits_per_s {:.1} edit_p99_us {:.4} recover_s {:.4}",
        median(&b.run_ms),
        quantile(&b.run_ms, 0.9),
        raw_edits(&c),
        c.median_of(|x| x.edit_p99_us),
        c.median_of(|x| x.recover_s),
    ));
    out.notes.push(format!(
        "rounds={ROUNDS} batch runs={} serve legs={} churn sessions={}",
        b.runs,
        s.lo.len() + s.hi.len(),
        c.sessions.len(),
    ));

    use serve::ServeOut;
    if !opts.trace {
        out.put("setup_s", median(&setup_secs), "s");
        out.put("peak_rss_mb", peak_rss_mb(), "MB");
        out.put("run_ms_p50", median(&b.scaled_ms()), "ms");
        out.put("run_ms_p90", quantile(&b.scaled_ms(), 0.9), "ms");
        out.put("fmeasure", b.fmeasure(), "ratio");
        out.put("lat_p50_us.lo", ServeOut::p50_us(&s.lo), "us");
        out.put("lat_p99_us.lo", ServeOut::p99_us(&s.lo), "us");
        out.put("lat_p50_us.hi", ServeOut::p50_us(&s.hi), "us");
        out.put("lat_p99_us.hi", ServeOut::p99_us(&s.hi), "us");
        out.put("max_rps_at_slo", s.max_rps_at_slo(shape), "1/s");
        out.put("edits_per_s", c.edits_per_s(), "1/s");
        out.put("edit_p99_us", c.edit_p99_us(), "us");
        out.put("recover_s", c.recover_s(), "s");
        return out;
    }

    layer_metrics(
        &mut out,
        shape,
        opts.seed,
        &arena,
        &batch_in,
        &settled,
        &win,
        (&tb, &setup_tr, &batch_tr),
        (&ts, &serve_tr),
        (&tc, &churn_tr),
    );
    let overhead = |traced: f64, untraced: f64| (traced / untraced - 1.0) * 100.0;
    out.put(
        "trace.overhead_pct.batch",
        overhead(median(&tb.run_ms), median(&b.run_ms)),
        "%",
    );
    out.put(
        "trace.overhead_pct.serve",
        overhead(ServeOut::p50_us(&ts.lo), ServeOut::p50_us(&s.lo)),
        "%",
    );
    out.put(
        "trace.overhead_pct.churn",
        overhead(raw_edits(&c), raw_edits(&tc)),
        "%",
    );

    if let Some(dir) = &opts.spans_dir {
        let header = vec![
            format!("workload={} seed={}", shape.name, opts.seed),
            provenance(),
        ];
        for (phase, tr) in [
            ("setup", &setup_tr),
            ("batch_kdd", &batch_tr),
            ("serve_open", &serve_tr),
            ("churn_wal", &churn_tr),
        ] {
            let path = dir.join(format!("{}-seed{}-{phase}.tsv", shape.name, opts.seed));
            match tr.write_tsv(&path, &header) {
                Ok(()) => out.notes.push(format!("spans: {}", path.display())),
                Err(e) => out
                    .notes
                    .push(format!("spans not written to {}: {e}", path.display())),
            }
        }
    }
    out
}

/// Per-layer metrics of the traced pass, its probes and coverage checks.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Outcome,
    shape: &Shape,
    seed: u64,
    arena: &ucpc_uncertain::MomentArena,
    batch_in: &shape::BatchInput,
    settled: &ucpc_core::incremental::IncrementalUcpc,
    win: &shape::WindowInput,
    (b, setup_tr, batch_tr): (&batch::BatchOut, &Tracer, &Tracer),
    (s, serve_tr): (&serve::ServeOut, &Tracer),
    (c, churn_tr): (&churn::ChurnOut, &Tracer),
) {
    let ms = |v: Vec<f64>| median(&v) / 1e6;
    let m_kdd = arena.dims();
    let k_kdd = batch_in.k;

    // Batch: exact counts over every seed's first run, timed spans, and
    // relocation-scan probes over the lowest seed's final partition.
    out.put("ucpc.iterations", b.iterations as f64, "count");
    out.put("ucpc.relocations", b.relocations as f64, "count");
    out.put("pruning.full_scans", b.counters.full_scans as f64, "count");
    out.put("pruning.skips", b.counters.skips as f64, "count");
    out.put("pruning.confirms", b.counters.confirms as f64, "count");
    out.put("pruning.skip_rate", b.counters.skip_rate(), "ratio");
    out.put(
        "init.partition_ms",
        ms(batch_tr.durations("init.partition")),
        "ms",
    );
    out.put(
        "arena.build_ms",
        ms(setup_tr.durations("arena.build")),
        "ms",
    );
    let scan = probes::scan(arena, b.first_labels(), k_kdd);
    out.put("pruning.best_candidate_ns", scan.best_candidate_ns, "ns");
    out.put(
        "pruning.best_candidate.computed_ops_per_call",
        probes::best_candidate_ops(m_kdd, k_kdd),
        "ops",
    );
    out.put(
        "pruning.best_candidate.computed_bytes_per_call",
        probes::best_candidate_bytes(m_kdd, k_kdd),
        "B",
    );
    out.put("objective.delta_j_remove_ns", scan.delta_j_remove_ns, "ns");
    out.put("objective.add_view_ns", scan.add_view_ns, "ns");
    out.put("objective.remove_view_ns", scan.remove_view_ns, "ns");
    // Share of a run's time the relocation scan accounts for: one
    // best_candidate call per object per pass.
    let scans = b.iterations as f64 * arena.len() as f64;
    out.put(
        "scan.share_est",
        scan.best_candidate_ns * scans / (b.first_ms * 1e6),
        "ratio",
    );
    for m in [32usize, 42] {
        out.put(
            &format!("simd.dot_block_ns_per_row.m{m}"),
            probes::dot_block_ns_per_row(m, shape::sub_seed(seed, 3)),
            "ns",
        );
        out.put(
            &format!("simd.dot_block.computed_ops_per_call.m{m}"),
            probes::dot_block_ops(m),
            "ops",
        );
        out.put(
            &format!("simd.dot_block.computed_bytes_per_call.m{m}"),
            probes::dot_block_bytes(m),
            "B",
        );
    }

    // Serve: placement probes and counters, then the traced legs' spans.
    out.put(
        "pruning.best_insertion_ns",
        probes::best_insertion_ns(settled.cluster_stats(), &win.pool),
        "ns",
    );
    let legs: Vec<&serve::LegOut> = s.lo.iter().chain(&s.hi).collect();
    out.put(
        "pruning.placement_priced",
        legs.iter().map(|l| l.placement_priced).sum::<u64>() as f64,
        "count",
    );
    out.put(
        "pruning.placement_bypassed",
        legs.iter().map(|l| l.placement_bypassed).sum::<u64>() as f64,
        "count",
    );
    let submits = serve_tr.durations("serving.submit");
    out.put("serving.submit_ns", stats::mean(&submits), "ns");
    let flushes = serve_tr.durations("serving.flush");
    out.put("serving.flush_us.p50", quantile(&flushes, 0.5) / 1e3, "us");
    out.put("serving.flush_us.p99", quantile(&flushes, 0.99) / 1e3, "us");
    let answered: u64 = legs.iter().map(|l| l.answered).sum();
    let n_flushes: u64 = legs.iter().map(|l| l.flushes).sum();
    let deadline_flushes: u64 = legs.iter().map(|l| l.deadline_flushes).sum();
    out.put(
        "serving.batch_fill",
        answered as f64 / n_flushes.max(1) as f64,
        "count",
    );
    out.put(
        "serving.deadline_flush_frac",
        deadline_flushes as f64 / n_flushes.max(1) as f64,
        "ratio",
    );
    let drain_ns: f64 = serve_tr.durations("serving.drain").iter().sum();
    out.put("serving.drain_ns", drain_ns / answered.max(1) as f64, "ns");
    let waits: Vec<f64> = legs
        .iter()
        .flat_map(|l| l.queue_wait_us.iter().copied())
        .collect();
    out.put("serving.queue_wait_us.p50", quantile(&waits, 0.5), "us");
    out.put("serving.queue_wait_us.p99", quantile(&waits, 0.99), "us");
    out.put(
        "serving.shed",
        legs.iter().map(|l| l.shed).sum::<u64>() as f64,
        "count",
    );
    let late: Vec<f64> = legs
        .iter()
        .flat_map(|l| l.late_us.iter().copied())
        .collect();
    out.put("gen.late_us.p99", quantile(&late, 0.99), "us");
    out.put("gen.late_us.max", quantile(&late, 1.0), "us");
    let serve_cov = serve_tr.coverage("serve.leg");
    out.put("trace.coverage.serve", serve_cov, "ratio");
    out.tally.check(serve_cov >= 0.9, || {
        format!("serve spans cover {serve_cov:.3} of wall time, below 0.9")
    });

    // Churn: flush spans, log and checkpoint sizes, recovery split.
    let edit_flush = churn_tr.durations("serving.flush_edit");
    out.put(
        "serving.flush_edit_us.p50",
        quantile(&edit_flush, 0.5) / 1e3,
        "us",
    );
    out.put(
        "serving.flush_edit_us.p99",
        quantile(&edit_flush, 0.99) / 1e3,
        "us",
    );
    out.put(
        "serving.flush_stabilize_ms",
        ms(churn_tr.durations("serving.flush_stabilize")),
        "ms",
    );
    out.put("wal.frames", c.median_of(|x| x.frames as f64), "count");
    out.put(
        "wal.bytes_per_edit",
        c.median_of(|x| x.wal_bytes as f64 / shape.churn_edits as f64),
        "B",
    );
    let w = probes::wal(&win.pool);
    out.put("wal.log_commit_ns", w.log_commit_ns, "ns");
    out.put("wal.group_commit_ns", w.group_commit_ns, "ns");
    out.put(
        "snapshot.checkpoint_ms",
        ms(churn_tr.durations("snapshot.checkpoint")),
        "ms",
    );
    out.put(
        "snapshot.bytes",
        c.median_of(|x| x.snapshot_bytes as f64),
        "B",
    );
    out.put("snapshot.restore_ms", c.median_of(|x| x.restore_ms), "ms");
    out.put("wal.scan_ms", c.median_of(|x| x.scan_ms), "ms");
    out.put("wal.replay_ms", c.median_of(|x| x.replay_ms), "ms");
    let recover_cov =
        c.median_of(|x| (x.restore_ms + x.scan_ms + x.replay_ms) / (x.recover_s * 1e3));
    out.put("trace.coverage.recover", recover_cov, "ratio");
    out.tally.check((0.9..=1.1).contains(&recover_cov), || {
        format!("restore + scan + replay is {recover_cov:.3} of recover_s, outside 0.9..1.1")
    });
}
