//! End-to-end tests of the `sesame` binary: exit codes, metric exports,
//! and the report round trip.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sesame(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sesame"))
        .args(args)
        .output()
        .expect("spawn sesame")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sesame-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = sesame(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("--metrics-out"));
}

#[test]
fn degenerate_sizes_fail_with_an_error_not_a_panic() {
    for args in [
        &["bigmesh", "--nodes", "0"][..],
        &["bigmesh", "--nodes", "1"],
        &["bigmesh", "--nodes", "12", "--laps", "0"],
        &["bigmesh", "--rows", "0", "--cols", "5"],
        &["fig8", "--sizes", "0"],
        &["fig8", "--sizes", "2", "--visits", "0"],
        &["fig2", "--tasks", "0"],
        &["fig2", "--sizes", "0"],
        &["fig2", "--sizes", "1"],
    ] {
        let out = sesame(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_command_fails() {
    let out = sesame(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn verify_clean_scenario_exits_zero() {
    let out = sesame(&["verify", "--scenario", "three-cpu"]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 violations"));
}

#[test]
fn verify_planted_bad_exits_nonzero_with_diagnostic() {
    let out = sesame(&["verify", "--scenario", "planted-bad"]);
    assert!(!out.status.success(), "planted violation must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL planted-bad/double-grant"));
    assert!(stdout.contains("mutual-exclusion"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("protocol violations detected"));
}

#[test]
fn run_exports_validate_and_report_round_trips() {
    let metrics = tmp("m.json");
    let csv = tmp("m.csv");
    let timeline = tmp("t.trace.json");
    let out = sesame(&[
        "run",
        "--scenario",
        "contention",
        "--rounds",
        "10",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--csv-out",
        csv.to_str().unwrap(),
        "--timeline-out",
        timeline.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("optimism:"));

    // The snapshot parses back under the schema validator.
    let text = std::fs::read_to_string(&metrics).unwrap();
    let snap = sesame_telemetry::Snapshot::from_json(&text).expect("valid snapshot");
    assert_eq!(snap.scenario, "contention");
    assert_eq!(snap.counter("run/sections"), 40);

    // CSV has the header and one row per exported field.
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.starts_with("key,kind,field,value\n"));
    assert!(csv_text.lines().count() > 10);

    // The Chrome trace is valid JSON with lock sections, optimistic
    // sections, and rollback instants.
    let trace = std::fs::read_to_string(&timeline).unwrap();
    sesame_telemetry::json::parse(&trace).expect("valid trace JSON");
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("hold v0"));
    assert!(trace.contains("optimistic v0"));
    assert!(trace.contains("rollback v0") || snap.sum_counters("node/", "/opt/rollbacks") == 0);

    // `report --metrics-in` renders the same snapshot.
    let rep = sesame(&["report", "--metrics-in", metrics.to_str().unwrap()]);
    assert!(rep.status.success());
    let rep_text = String::from_utf8_lossy(&rep.stdout);
    assert!(rep_text.contains("scenario: contention"));
    assert!(rep_text.contains("optimism:"));

    for p in [metrics, csv, timeline] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn run_exports_causal_dag_and_flow_events() {
    let causes = tmp("c.json");
    let dot = tmp("c.dot");
    let timeline = tmp("c.trace.json");
    let out = sesame(&[
        "run",
        "--rounds",
        "10",
        "--causes-out",
        causes.to_str().unwrap(),
        "--timeline-out",
        timeline.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&causes).unwrap();
    assert!(json.contains("\"schema\":\"sesame-causes/v1\""));
    assert!(json.contains("\"op\":\"mcast\""));
    assert!(json.contains("\"op\":\"rollback\""));
    assert!(json.contains("\"conflict\":{"));

    // A .dot path selects the Graphviz export.
    let out = sesame(&[
        "run",
        "--rounds",
        "10",
        "--causes-out",
        dot.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let dot_text = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_text.starts_with("digraph causes {"));
    assert!(dot_text.contains("color=red"), "rollbacks highlighted");

    // The Chrome trace carries causal flow arrows as s/f pairs.
    let trace = std::fs::read_to_string(&timeline).unwrap();
    assert!(trace.contains("\"ph\":\"s\""), "flow start events");
    assert!(
        trace.contains("\"ph\":\"f\",\"bp\":\"e\""),
        "flow finish events"
    );

    for p in [causes, dot, timeline] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn causal_exports_are_identical_serial_and_concurrent() {
    let serial = tmp("causes-serial.json");
    let jobs = tmp("causes-jobs.json");
    let out = sesame(&[
        "run",
        "--rounds",
        "8",
        "--causes-out",
        serial.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    // --jobs N runs N redundant copies concurrently, asserts all exports
    // (snapshot, timeline, causal DAG) match internally, then exports.
    let out = sesame(&[
        "run",
        "--rounds",
        "8",
        "--jobs",
        "3",
        "--causes-out",
        jobs.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("byte-identical"));
    assert_eq!(
        std::fs::read(&serial).unwrap(),
        std::fs::read(&jobs).unwrap(),
        "causal DAG must not depend on host scheduling"
    );
    for p in [serial, jobs] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn explain_walks_every_rollback_back_to_the_remote_write() {
    let out = sesame(&["explain", "--rounds", "10"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let rollback_headers = text.matches("rollback #").count();
    assert!(
        rollback_headers > 0,
        "contention run must roll back:\n{text}"
    );
    // Every rollback chain crosses the network: remote write, multicast
    // fan-out, interrupting apply, then the rollback with its blame.
    assert_eq!(
        text.matches("invalidated by node").count(),
        rollback_headers
    );
    assert!(
        text.matches(" mcast ").count() >= rollback_headers,
        "{text}"
    );
    assert!(
        text.matches(" apply ").count() >= rollback_headers,
        "{text}"
    );
    assert!(
        text.matches("conflict: v").count() >= rollback_headers,
        "{text}"
    );
    assert!(text.contains("critical path:"), "{text}");
}

#[test]
fn explain_single_event_and_unknown_id() {
    let out = sesame(&["explain", "--rounds", "5", "--event", "1"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("causal chain to #1:"));

    let out = sesame(&["explain", "--rounds", "5", "--event", "999999999"]);
    assert!(!out.status.success(), "unknown event ids must exit nonzero");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown event id"));
}

#[test]
fn report_rejects_malformed_snapshots() {
    let path = tmp("bad.json");
    std::fs::write(&path, "{\"schema\":\"wrong/v0\",\"metrics\":{}}").unwrap();
    let out = sesame(&["report", "--metrics-in", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let _ = std::fs::remove_file(path);
}

#[test]
fn same_seed_runs_export_identical_bytes() {
    let a = tmp("det-a.json");
    let b = tmp("det-b.json");
    for p in [&a, &b] {
        let out = sesame(&[
            "run",
            "--scenario",
            "contention",
            "--rounds",
            "5",
            "--seed",
            "42",
            "--metrics-out",
            p.to_str().unwrap(),
        ]);
        assert!(out.status.success());
    }
    let bytes_a = std::fs::read(&a).unwrap();
    let bytes_b = std::fs::read(&b).unwrap();
    assert_eq!(
        bytes_a, bytes_b,
        "same-seed snapshots must be byte-identical"
    );
    for p in [a, b] {
        let _ = std::fs::remove_file(p);
    }
}
