//! Tests of the benchmark itself: transparent wrappers, the sampled
//! estimator, metric names, and failure accounting.

use perfbench::explain::ExplainSize;
use perfbench::paper::PaperSize;
use perfbench::probe::Sampler;
use perfbench::reference::{OpResult, Reference};
use perfbench::{measure, record_ops, rep, Sizes, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};

fn small() -> Sizes {
    Sizes {
        paper: PaperSize {
            fig2_sizes: vec![3, 5],
            tasks: 64,
            fig8_sizes: vec![2, 4],
            visits: 64,
        },
        mesh_nodes: 48,
        explain: ExplainSize {
            contenders: 3,
            rounds: 20,
        },
        headline: false,
    }
}

fn ok_ops(ops: Vec<Result<OpResult, String>>) -> Vec<OpResult> {
    ops.into_iter()
        .map(|op| op.expect("operation succeeds"))
        .collect()
}

#[test]
fn traced_reps_simulate_exactly_what_untraced_reps_and_the_library_do() {
    let sizes = small();
    for w in Workload::ALL {
        let plain = ok_ops(rep(w, &sizes, DEFAULT_SEED, false).ops);
        let traced = rep(w, &sizes, DEFAULT_SEED, true);
        assert!(
            !traced.layers.is_empty(),
            "{w:?}: traced rep reports layers"
        );
        assert_eq!(plain, ok_ops(traced.ops), "{w:?}: traced vs untraced");
        assert_eq!(
            plain,
            record_ops(w, &sizes, DEFAULT_SEED),
            "{w:?}: benchmark assembly vs the library's own entry point"
        );
    }
}

#[test]
fn estimator_recovers_a_known_count_and_total() {
    // A synthetic boundary whose every call takes exactly 0.5 units: the
    // count is exact and the scaled-up total is exact.
    let mut s = Sampler::default();
    for _ in 0..100_000 {
        if s.tick() {
            s.est.record(0.5);
        }
    }
    assert_eq!(s.calls, 100_000);
    assert!(s.est.samples > 1_000, "about one call in 64 is timed");
    assert_eq!(s.estimate(), (50_000.0, 0.0));

    // Varying durations: the estimate lands within its reported error
    // (two standard errors).
    let mut s = Sampler::seeded(3);
    let mut truth = 0.0;
    for i in 0..100_000u64 {
        let d = 1.0 + (i % 7) as f64;
        truth += d;
        if s.tick() {
            s.est.record(d);
        }
    }
    let (est, err) = s.estimate();
    assert!(err > 0.0);
    assert!((est - truth).abs() < err, "{est} vs {truth} ± {err}");
}

#[test]
fn every_metric_has_a_valid_name_a_unit_and_a_benchmark_json_entry() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let mut names = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
            "bad metric name {name:?}"
        );
        assert!(!unit.is_empty(), "{name} has no unit");
        assert!(names.insert(*name), "{name} is listed twice");
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) is missing from BENCHMARK.json"
        );
    }
    // And BENCHMARK.json names no metric the benchmark does not print.
    let listed = json.matches("\"unit\": ").count();
    assert_eq!(listed, names.len(), "BENCHMARK.json lists other metrics");
}

#[test]
fn a_planted_reference_mismatch_is_a_failed_operation() {
    let sizes = small();
    let w = Workload::Bigmesh;
    let lines: Vec<String> = record_ops(w, &sizes, DEFAULT_SEED)
        .iter()
        .map(|op| op.line(w.name(), DEFAULT_SEED))
        .collect();
    let good = Reference::parse(&lines.join("\n")).unwrap();
    let report = measure(w, &sizes, DEFAULT_SEED, 0.0, false, &good);
    assert!(report.correct, "{:?}", report.notes);
    assert_eq!((report.attempted, report.failed), (1, 0));

    let planted = lines[0].replacen("visits=48", "visits=47", 1);
    assert_ne!(planted, lines[0]);
    let bad = Reference::parse(&planted).unwrap();
    let report = measure(w, &sizes, DEFAULT_SEED, 0.0, false, &bad);
    assert!(!report.correct);
    assert_eq!((report.attempted, report.failed), (1, 1));
    assert!(report.notes[0].contains("visits=48"), "{:?}", report.notes);
}
