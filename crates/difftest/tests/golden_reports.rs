//! Pre-optimization report pinning: the checker's full diagnostic output
//! (codes, messages, locations, culprits) over a fixed seed corpus is
//! committed to `tests/golden/reports.jsonl`. Any hot-path rework must
//! reproduce it *byte-identically* — the acceptance gate for replacing the
//! shadow-memory data structures under the checker.
//!
//! The same corpus is rendered a second time through the instrumented
//! replay lane (timing histograms + flight recorder on), which must match
//! the same `reports.jsonl`; that run's ERROR diagnosis bundles and summed
//! per-worker trace statistics are pinned in `tests/golden/bundles.jsonl`.
//!
//! Regenerate (only when diagnostics are *intentionally* changed) with:
//! `PMTEST_BLESS=1 cargo test -p pmtest-difftest --test golden_reports`

use std::fmt::Write as _;

use pmtest_core::{Engine, EngineConfig, TelemetryConfig};
use pmtest_difftest::exec::{model_for, run_engine, submit_replicas, EngineRun, REPLICAS};
use pmtest_difftest::gen::{generate, GenConfig};
use pmtest_trace::TraceStats;

const GOLDEN_SEEDS: u64 = 300;
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/reports.jsonl");
const BUNDLES_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/bundles.jsonl");

/// One canonical single-worker, unbatched run per seed — the matrix's other
/// cells are pinned to this one by the determinism tests.
fn render_corpus() -> String {
    let cfg = GenConfig::default();
    let mut out = String::new();
    for seed in 0..GOLDEN_SEEDS {
        let program = generate(seed, &cfg);
        let report = run_engine(&program, EngineRun { workers: 1, batch_capacity: 1 }, REPLICAS)
            .expect("golden run");
        let _ = writeln!(out, "# seed {seed} dialect {:?}", program.dialect);
        out.push_str(&report.to_json_lines());
    }
    out
}

/// The same corpus through the instrumented replay lane: returns the
/// rendered reports (same format as [`render_corpus`]) and the rendered
/// ERROR bundles followed by the corpus-wide trace statistics.
fn render_instrumented() -> (String, String) {
    let cfg = GenConfig::default();
    let mut reports = String::new();
    let mut bundles = String::new();
    let mut totals = TraceStats::default();
    for seed in 0..GOLDEN_SEEDS {
        let program = generate(seed, &cfg);
        let engine = Engine::new(EngineConfig {
            model: model_for(program.dialect),
            workers: 1,
            queue_capacity: 64,
            telemetry: TelemetryConfig { timing: true, recorder: true, ..TelemetryConfig::off() },
            ..EngineConfig::default()
        });
        submit_replicas(&engine, &program, 1, REPLICAS, 0).expect("instrumented run");
        let _ = writeln!(reports, "# seed {seed} dialect {:?}", program.dialect);
        reports.push_str(&engine.take_report().to_json_lines());
        let _ = writeln!(bundles, "# seed {seed} dialect {:?}", program.dialect);
        for bundle in engine.take_bundles() {
            bundles.push_str(&bundle.to_json_lines());
        }
        assert_eq!(engine.bundles_dropped(), 0, "seed {seed}: bundle queue overflowed");
        for stats in engine.worker_trace_stats() {
            totals.merge(&stats);
        }
    }
    let _ = writeln!(bundles, "# worker_trace_stats {totals:?}");
    (reports, bundles)
}

fn bless_or_compare(path: &str, rendered: &str, what: &str) {
    if std::env::var_os("PMTEST_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
            .expect("create golden dir");
        std::fs::write(path, rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "{path}: {e}; generate with PMTEST_BLESS=1 \
             cargo test -p pmtest-difftest --test golden_reports"
        )
    });
    assert_same(&golden, rendered, what);
}

fn assert_same(golden: &str, rendered: &str, what: &str) {
    if rendered != golden {
        let mismatch = golden
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: golden `{a}` vs rendered `{b}`", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "length: golden {} lines vs rendered {}",
                    golden.lines().count(),
                    rendered.lines().count()
                )
            });
        panic!("{what} diverged from the golden file; first {mismatch}");
    }
}

#[test]
fn reports_match_the_committed_golden_corpus() {
    bless_or_compare(GOLDEN_PATH, &render_corpus(), "reports");
}

/// The instrumented lane is a second driver over the same checker: its
/// reports must be the uninstrumented golden corpus byte for byte, and its
/// bundles and trace statistics are pinned on their own.
#[test]
fn instrumented_lane_matches_the_golden_reports_and_bundles() {
    let (reports, bundles) = render_instrumented();
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden corpus missing");
    assert_same(&golden, &reports, "instrumented-lane reports");
    bless_or_compare(BUNDLES_PATH, &bundles, "instrumented-lane bundles");
}
