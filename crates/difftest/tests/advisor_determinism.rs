//! Advisor determinism regression: the profiling layer aggregates into a
//! site-keyed global store, so the emitted `pmtest-advisor/v1` document must
//! be *byte-identical* across every worker count and batch size — otherwise
//! run-over-run advisor diffs (`pmtest-explain --advise-diff`) would report
//! phantom regressions that are really scheduling noise. The other
//! observing layers (timing, the flight recorder) and the verdict cache
//! change which lane feeds the profile, never what it holds: every
//! configuration must match the profiling-only document and profile.
//!
//! Regenerate the committed golden (only when the advisor format or scoring
//! is *intentionally* changed) with:
//! `PMTEST_BLESS=1 cargo test -p pmtest-difftest --test advisor_determinism`

use pmtest_core::{Engine, EngineConfig, TelemetryConfig, VerdictCacheConfig};
use pmtest_difftest::exec::{model_for, submit_replicas, REPLICAS};
use pmtest_difftest::gen::{generate, GenConfig};
use pmtest_difftest::program::{Dialect, Op, Program};
use pmtest_obs::{advisor, ProfileSnapshot};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const BATCH_CAPACITIES: [usize; 2] = [1, 32];
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/advisor_matrix.json");

/// One profiled engine configuration of the matrix.
#[derive(Clone, Copy, Debug)]
enum Layers {
    /// The profiler alone.
    ProfilingOnly,
    /// Every telemetry layer (`TelemetryConfig::enabled`).
    All,
    /// Timing, flight recorder and profiler: the instrumented walk.
    TimingRecorderProfiling,
    /// The profiler behind the verdict cache.
    ProfilingCached,
}

impl Layers {
    const ALL: [Layers; 4] = [
        Layers::ProfilingOnly,
        Layers::All,
        Layers::TimingRecorderProfiling,
        Layers::ProfilingCached,
    ];

    fn telemetry(self) -> TelemetryConfig {
        match self {
            Layers::ProfilingOnly | Layers::ProfilingCached => TelemetryConfig::profiling_only(),
            Layers::All => TelemetryConfig::enabled(),
            Layers::TimingRecorderProfiling => TelemetryConfig {
                timing: true,
                recorder: true,
                profiling: true,
                ..TelemetryConfig::off()
            },
        }
    }
}

/// Runs the program through one profiling matrix cell and returns the
/// emitted advisor document with the profile it ranks.
fn profiled(
    program: &Program,
    workers: usize,
    batch_capacity: usize,
    layers: Layers,
) -> (String, ProfileSnapshot) {
    let engine = Engine::new(EngineConfig {
        model: model_for(program.dialect),
        workers,
        queue_capacity: 64,
        telemetry: layers.telemetry(),
        verdict_cache: VerdictCacheConfig {
            enabled: matches!(layers, Layers::ProfilingCached),
            ..VerdictCacheConfig::default()
        },
    });
    submit_replicas(&engine, program, batch_capacity, REPLICAS, 0).expect("submit replicas");
    engine.wait_idle();
    (engine.advisor_report().to_json(), engine.profile())
}

/// The profiling-only advisor document of one matrix cell.
fn advisor_json(program: &Program, workers: usize, batch_capacity: usize) -> String {
    profiled(program, workers, batch_capacity, Layers::ProfilingOnly).0
}

/// A fixed program planting every wasteful shape the profiler scores: a
/// duplicate undo-log entry (op 2), a duplicate flush (op 5), and a fence
/// that orders no new work (op 7).
fn wasteful_program() -> Program {
    Program {
        dialect: Dialect::X86,
        ops: vec![
            Op::TxBegin,
            Op::TxAdd { addr: 0, len: 8 },
            Op::TxAdd { addr: 0, len: 8 },
            Op::Write { addr: 0, len: 64 },
            Op::Flush { addr: 0, len: 64 },
            Op::Flush { addr: 0, len: 64 },
            Op::Fence,
            Op::Fence,
            Op::TxCommit,
        ],
    }
}

#[test]
fn advisor_json_is_byte_identical_across_the_matrix() {
    let cfg = GenConfig::default();
    let mut programs = vec![wasteful_program()];
    programs.extend([0u64, 7, 42].into_iter().map(|seed| generate(seed, &cfg)));
    for (i, program) in programs.iter().enumerate() {
        let (baseline, profile) =
            profiled(program, WORKER_COUNTS[0], BATCH_CAPACITIES[0], Layers::ProfilingOnly);
        advisor::validate(&baseline)
            .unwrap_or_else(|e| panic!("program {i}: baseline document invalid: {e}"));
        for layers in Layers::ALL {
            for workers in WORKER_COUNTS {
                for batch_capacity in BATCH_CAPACITIES {
                    let (cell, cell_profile) = profiled(program, workers, batch_capacity, layers);
                    assert_eq!(
                        cell, baseline,
                        "program {i}: {layers:?} at {workers} workers / batch \
                         {batch_capacity} diverged from the profiling-only 1/1 advisor document"
                    );
                    assert_eq!(
                        cell_profile, profile,
                        "program {i}: {layers:?} at {workers} workers / batch \
                         {batch_capacity} diverged from the profiling-only 1/1 profile"
                    );
                }
            }
        }
    }
}

#[test]
fn wasteful_program_matrix_matches_the_committed_golden() {
    let rendered = advisor_json(&wasteful_program(), 1, 1);
    if std::env::var_os("PMTEST_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write advisor golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "advisor golden missing; generate with PMTEST_BLESS=1 \
         cargo test -p pmtest-difftest --test advisor_determinism",
    );
    assert_eq!(rendered, golden, "advisor document diverged from the committed golden");
    let stats = advisor::validate(&golden).expect("committed golden validates");
    assert!(stats.suggestions >= 3, "golden must keep its planted suggestions");
    assert_eq!(stats.traces, REPLICAS, "one profiled trace per replica");
}

#[test]
fn every_suggestion_sites_back_into_the_program() {
    let report = pmtest_obs::AdvisorReport::from_json(&advisor_json(&wasteful_program(), 4, 32))
        .expect("parse advisor document");
    let kinds: Vec<_> = report.suggestions.iter().map(|s| s.kind.code()).collect();
    for kind in ["flush_coalescing", "log_elision", "redundant_fence"] {
        assert!(kinds.contains(&kind), "missing {kind} over {kinds:?}");
    }
    for s in &report.suggestions {
        let (file, line) = s.site.rsplit_once(':').expect("site is file:line");
        assert_eq!(file, "difftest", "program sites render as difftest:<op index>");
        let op: usize = line.parse().expect("op index");
        assert!(op < wasteful_program().ops.len(), "site {} out of range", s.site);
        // Every suggestion from a 6-replica run aggregates all replicas.
        assert_eq!(s.count % REPLICAS, 0, "count {} not replica-aggregated", s.count);
    }
}
