//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wide --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Prints provenance, every metric by name with its unit, and as the last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when an output check fails and 2 on a usage error or while a
//! `UCPC_*` variable is set.

use std::path::PathBuf;
use std::process::ExitCode;

use ucpc_perfbench::shape::Shape;
use ucpc_perfbench::{provenance, run, Options, Outcome};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: ucpc-perfbench --workload wide|small [--seed N] [--seconds S] [--trace 0|1]");
    ExitCode::from(2)
}

fn parse() -> Result<Options, String> {
    let mut shape = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                shape = Some(
                    Shape::by_name(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    Ok(Options {
        shape: shape.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans_dir: Some(target.join("perfbench-spans")),
    })
}

/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
fn json_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.tally.attempted.max(1),
        out.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    // The measured configuration is always the library defaults: a knob
    // set in the environment would silently change what is measured.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("UCPC_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "error: refusing to run with {} set; the benchmark measures library defaults",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };

    let out = run(&opts);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} {}",
        opts.shape.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        provenance()
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("{:<48} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<48} {:>16.6} ratio  ({} failed of {} attempted, {} output checks)",
        "failed_frac",
        out.failed_frac(),
        out.tally.failed,
        out.tally.attempted,
        out.tally.checks
    );
    for f in &out.tally.failures {
        println!("# FAILED: {f}");
    }
    println!("{}", json_line(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
