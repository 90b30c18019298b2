//! Tiny-shape smoke run of all three phases with every output check, plus
//! the benchmark's contract with `BENCHMARK.json`: a run reports exactly the
//! metrics the file declares.
//!
//! ```text
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeSet;

use ucpc_perfbench::shape::{batch_input, window_input, Shape};
use ucpc_perfbench::{run, Options};

fn tiny(trace: bool) -> Options {
    Options {
        shape: Shape::TINY,
        seed: 7,
        seconds: 0.5,
        trace,
        spans_dir: None,
    }
}

/// Metric names declared in one section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("quoted name") + 1..];
            s[..s.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn reported(trace: bool) -> (BTreeSet<String>, ucpc_perfbench::Outcome) {
    let out = run(&tiny(trace));
    assert!(
        out.correct(),
        "checks failed: {:?}; metrics {:?}",
        out.tally.failures,
        out.metrics
    );
    assert!(out.tally.checks > 0, "no output check ran");
    assert_eq!(out.tally.failed, 0);
    let names = out.metrics.iter().map(|m| m.name.clone()).collect();
    (names, out)
}

#[test]
fn untraced_tiny_run_passes_every_check_and_reports_the_end_to_end_metrics() {
    let (names, out) = reported(false);
    assert_eq!(names, declared("end_to_end"));
    assert!(out
        .metrics
        .iter()
        .filter(|m| m.name != "max_rps_at_slo")
        .all(|m| m.value > 0.0));
}

/// Pruning counters the library only counts when bound pruning is on. The
/// benchmark measures the default `PruningConfig::Off`, so they read 0; they
/// are declared so that a change of the default shows in them.
const PRUNING_COUNTERS: [&str; 6] = [
    "pruning.full_scans",
    "pruning.skips",
    "pruning.confirms",
    "pruning.skip_rate",
    "pruning.placement_priced",
    "pruning.placement_bypassed",
];

#[test]
fn traced_tiny_run_passes_every_check_and_reports_the_per_layer_metrics() {
    let (names, out) = reported(true);
    assert_eq!(names, declared("per_layer"));
    for m in out
        .metrics
        .iter()
        .filter(|m| PRUNING_COUNTERS.contains(&m.name.as_str()))
    {
        assert_eq!(m.value, 0.0, "{} under the default pruning config", m.name);
    }
}

#[test]
fn one_seed_gives_one_input() {
    let (a, b) = (batch_input(&Shape::TINY, 3), batch_input(&Shape::TINY, 3));
    assert_eq!(a.classes, b.classes);
    assert!(a
        .objects
        .iter()
        .zip(&b.objects)
        .all(|(x, y)| x.moments().mu() == y.moments().mu()));
    let (a, b) = (window_input(&Shape::TINY, 3), window_input(&Shape::TINY, 3));
    assert!(a
        .window
        .iter()
        .zip(&b.window)
        .all(|(x, y)| x.mu() == y.mu()));
    assert!(a.pool.iter().zip(&b.pool).all(|(x, y)| x.mu2() == y.mu2()));
    let c = window_input(&Shape::TINY, 4);
    assert!(a
        .window
        .iter()
        .zip(&c.window)
        .any(|(x, y)| x.mu() != y.mu()));
}
