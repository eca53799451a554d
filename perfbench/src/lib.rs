//! The sesame-rs benchmark: three closed-batch workloads (`paper`,
//! `bigmesh`, `explain`) run through the public crate APIs on one
//! simulation thread, every operation checked against references recorded
//! from the library's own entry points, with end-to-end metrics from untraced
//! reps and per-layer metrics from sampled, traced reps. See README.md.

#![forbid(unsafe_code)]

pub mod bigmesh;
pub mod explain;
pub mod paper;
pub mod probe;
pub mod reference;

use std::collections::BTreeMap;

use probe::{now, LayerTimes, LAYER_METRICS};
use reference::{compare, OpResult, Reference};

/// The seed references are recorded at, and the default `--seed`.
pub const DEFAULT_SEED: u64 = 7;

/// The second recorded seed, kept out of tuning.
pub const HELD_OUT_SEED: u64 = 1994;

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("run_s", "s"),
    ("sections_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("paper_err_pct", "%"),
];

/// Per-layer metrics `(name, unit)`, from traced reps. A metric whose
/// boundary a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sim.engine_self_s", "s"),
    ("sim.engine_self_err_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.pending_peak", "count"),
    ("dsm.dispatch_self_s", "s"),
    ("dsm.dispatch_self_err_s", "s"),
    ("dsm.ns_per_delivery", "ns"),
    ("dsm.deliveries", "count"),
    ("dsm.actions", "count"),
    ("dsm.gwc_s", "s"),
    ("dsm.gwc_err_s", "s"),
    ("consistency.entry_s", "s"),
    ("consistency.entry_err_s", "s"),
    ("dsm.fig8_ideal_s", "s"),
    ("dsm.fig8_gwc_s", "s"),
    ("core.fig8_optimistic_s", "s"),
    ("consistency.fig8_entry_s", "s"),
    ("net.route_s", "s"),
    ("net.route_err_s", "s"),
    ("net.routes", "count"),
    ("net.packets", "count"),
    ("net.link_traversals", "count"),
    ("workloads.program_s", "s"),
    ("workloads.program_err_s", "s"),
    ("core.opt_hit_rate", "ratio"),
    ("core.rollbacks", "count"),
    ("sim.trace_records", "count"),
    ("sim.cause_records", "count"),
    ("telemetry.observer_s", "s"),
    ("telemetry.observer_err_s", "s"),
    ("verify.observer_s", "s"),
    ("verify.observer_err_s", "s"),
    ("telemetry.export_s", "s"),
    ("telemetry.export_bytes", "bytes"),
    ("sim.run_self_s", "s"),
    ("sweep.max_point_s", "s"),
    ("bench.probe_overhead", "ratio"),
    ("bench.traced_run_s", "s"),
    ("bench.self_sum_s", "s"),
    ("bench.self_sum_err_s", "s"),
];

/// One rep of a workload: its set-up samples, its timed run and the
/// results of its operations.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds of each set-up taken in this rep.
    pub setup_s: Vec<f64>,
    /// Host seconds of the run, set-up excluded.
    pub run_s: f64,
    /// Critical sections completed.
    pub sections: u64,
    /// Simulation events processed.
    pub events: u64,
    /// One entry per operation: its results, or why it failed.
    pub ops: Vec<Result<OpResult, String>>,
    /// Per-layer values (traced reps only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Timed calls at the machine boundaries (traced reps only).
    pub spans: Vec<probe::Span>,
}

/// Runs `f`, turning a panic into an error naming it.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panicked".to_string())
    })
}

/// Per-layer entries of a probed run that took `traced_run_s`.
fn layer_entries(lt: &LayerTimes, traced_run_s: f64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for (l, (name, err_name)) in LAYER_METRICS.iter().enumerate() {
        out.push((*name, lt.self_s[l]));
        out.push((*err_name, lt.err_s[l]));
    }
    out.extend([
        ("dsm.deliveries", lt.counts.deliveries as f64),
        ("dsm.actions", lt.counts.actions as f64),
        ("net.routes", lt.counts.routes as f64),
        ("bench.traced_run_s", traced_run_s),
        ("bench.self_sum_s", lt.sum_s),
        ("bench.self_sum_err_s", lt.sum_err_s),
    ]);
    out
}

impl Rep {
    /// Takes `probe`'s spans and per-layer self times for a probed run
    /// that took `traced_run_s`.
    pub fn absorb_probe(&mut self, probe: &probe::Probe, traced_run_s: f64) {
        let (lt, spans) = probe.take();
        self.layers.extend(layer_entries(&lt, traced_run_s));
        self.spans = spans;
    }
}

fn field<'a>(op: &'a OpResult, key: &str) -> Option<&'a str> {
    op.fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
}

/// An operation's network power.
pub fn power_of(op: &OpResult) -> Option<f64> {
    field(op, "power")?.parse().ok()
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figures 2 and 8 at their published defaults.
    Paper,
    /// The sharded row-pipeline mesh.
    Bigmesh,
    /// The contention scenario with the full observability stack.
    Explain,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Bigmesh, Workload::Explain];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Bigmesh => "bigmesh",
            Workload::Explain => "explain",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the seed changes the inputs. `paper` and `bigmesh` have no
    /// random input, so one reference covers every seed.
    pub fn seeded(self) -> bool {
        self == Workload::Explain
    }
}

/// Input sizes of every workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// `paper` sweep sizes.
    pub paper: paper::PaperSize,
    /// `bigmesh` CPU count.
    pub mesh_nodes: usize,
    /// `explain` contenders and rounds.
    pub explain: explain::ExplainSize,
    /// Whether `bigmesh` and `explain` also run the paper's headline points
    /// for `paper_err_pct`.
    pub headline: bool,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn bench() -> Sizes {
        Sizes {
            paper: paper::PaperSize::published(),
            mesh_nodes: bigmesh::NODES,
            explain: explain::SIZE,
            headline: true,
        }
    }
}

/// One rep of `w`.
pub fn rep(w: Workload, sizes: &Sizes, seed: u64, traced: bool) -> Rep {
    match w {
        Workload::Paper => paper::rep(&sizes.paper, traced),
        Workload::Bigmesh => bigmesh::rep(sizes.mesh_nodes, traced),
        Workload::Explain => explain::rep(sizes.explain, seed, traced),
    }
}

/// The operations of `w` through the library's own entry points, for
/// recording references.
pub fn record_ops(w: Workload, sizes: &Sizes, seed: u64) -> Vec<OpResult> {
    match w {
        Workload::Paper => paper::record_ops(&sizes.paper),
        Workload::Bigmesh => bigmesh::record_ops(sizes.mesh_nodes),
        Workload::Explain => explain::record_ops(sizes.explain, seed),
    }
}

/// Reference-file text for every workload at the default and held-out
/// seeds, headed by the capture host's fingerprint.
pub fn record(sizes: &Sizes) -> String {
    let mut out = String::from(
        "# perfbench reference v1: simulated results per operation, compared exactly.\n\
         # Re-record (only when a change alters the model on purpose, and say so in the PR):\n\
         #   cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --record\n",
    );
    out.push_str(&format!("# host: {}\n", fingerprint()));
    for w in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for op in record_ops(w, sizes, seed) {
                out.push_str(&op.line(w.name(), seed));
                out.push('\n');
            }
        }
    }
    out
}

/// CPU model, core count, compiler and commit of this host and checkout.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let rustc = command("rustc", &["--version"]);
    // Only a git checkout of this repository names its commit; git would
    // otherwise report whatever repository encloses the directory.
    let commit = if std::path::Path::new(".git").exists() {
        command("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown".to_string()
    };
    format!("cpu={cpu}; nproc={nproc}; rustc={rustc}; commit={commit}")
}

/// The process's peak resident memory (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// Each operation's first results, which later reps must repeat.
    first: BTreeMap<String, OpResult>,
}

impl Tally {
    fn check(&mut self, ops: &[Result<OpResult, String>], expected: Option<&reference::Expected>) {
        for op in ops {
            self.attempted += 1;
            let verdict = op.as_ref().map_err(Clone::clone).and_then(|op| {
                if let Some(expected) = expected {
                    compare(op, expected)?;
                }
                match self.first.get(&op.name) {
                    Some(first) if first != op => {
                        Err(format!("{}: results differ from the first rep", op.name))
                    }
                    Some(_) => Ok(()),
                    None => {
                        self.first.insert(op.name.clone(), op.clone());
                        Ok(())
                    }
                }
            });
            if let Err(note) = verdict {
                self.failed += 1;
                self.notes.push(note);
            }
        }
    }
}

/// The outcome of one benchmark invocation.
#[derive(Debug)]
pub struct Report {
    /// Whether every operation matched its reference.
    pub correct: bool,
    /// Operations run.
    pub attempted: u64,
    /// Operations that failed or mismatched.
    pub failed: u64,
    /// `(name, unit, value)` in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Why operations failed, and other remarks.
    pub notes: Vec<String>,
    /// Host seconds of each rep, `(traced, run_s)`, in run order.
    pub reps: Vec<(bool, f64)>,
    /// The timed calls of the last traced rep.
    pub spans: Vec<probe::Span>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sums an integer result field over a rep's successful operations.
fn sum_field(rep: &Rep, key: &str) -> f64 {
    rep.ops
        .iter()
        .flatten()
        .filter_map(|op| field(op, key)?.parse::<u64>().ok())
        .sum::<u64>() as f64
}

/// Runs `w` at `seed` for at least `seconds` of reps and reports the
/// end-to-end metrics (`traced == false`) or the per-layer metrics
/// (`traced == true`, alternating untraced and traced reps). Every
/// operation is checked against `reference`.
pub fn measure(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    traced: bool,
    reference: &Reference,
) -> Report {
    let expected = reference.get(w.name(), seed).or_else(|| {
        (!w.seeded())
            .then(|| reference.get(w.name(), DEFAULT_SEED))
            .flatten()
    });
    let mut tally = Tally::default();
    let mut correct = true;
    if expected.is_none() {
        if w.seeded() {
            tally.notes.push(format!(
                "no reference for seed {seed}: checking invariants and rep-to-rep determinism"
            ));
        } else {
            correct = false;
            tally
                .notes
                .push(format!("no reference recorded for {}", w.name()));
        }
    }

    let mut plain: Vec<Rep> = Vec::new();
    let mut probed: Vec<Rep> = Vec::new();
    let mut reps = Vec::new();
    let start = now();
    for i in 0.. {
        let trace_this = traced && i % 2 == 1;
        let r = rep(w, sizes, seed, trace_this);
        tally.check(&r.ops, expected);
        reps.push((trace_this, r.run_s));
        if trace_this {
            probed.push(r);
        } else {
            plain.push(r);
        }
        if start.elapsed().as_secs_f64() >= seconds && (!traced || !probed.is_empty()) {
            break;
        }
    }

    let paper_err = match w {
        _ if traced => None,
        Workload::Paper => paper::paper_err_pct(&plain[0].ops),
        _ if sizes.headline => {
            let ops = paper::headline_ops();
            tally.check(&ops, reference.get(Workload::Paper.name(), DEFAULT_SEED));
            paper::paper_err_pct(&ops)
        }
        _ => None,
    };

    let run_s: Vec<f64> = plain.iter().map(|r| r.run_s).collect();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if traced {
        let n = probed.len() as f64;
        for r in &probed {
            for (&k, &v) in &r.layers {
                let slot = values.entry(k).or_default();
                if k.ends_with("_err_s") {
                    *slot += v * v;
                } else {
                    *slot += v / n;
                }
            }
        }
        for (k, v) in values.iter_mut() {
            if k.ends_with("_err_s") {
                *v = v.sqrt() / n;
            }
        }
        let untraced_s = median(&run_s);
        let traced_s = median(&probed.iter().map(|r| r.run_s).collect::<Vec<_>>());
        let events = plain[0].events as f64;
        let deliveries = values.get("dsm.deliveries").copied().unwrap_or(0.0);
        if deliveries > 0.0 {
            let dispatch = values.get("dsm.dispatch_self_s").copied().unwrap_or(0.0);
            values.insert("dsm.ns_per_delivery", dispatch / deliveries * 1e9);
        }
        values.insert("sim.events", events);
        values.insert("sim.events_per_s", events / untraced_s);
        values.insert("net.packets", sum_field(&plain[0], "packets"));
        values.insert(
            "net.link_traversals",
            sum_field(&plain[0], "link_traversals"),
        );
        values.insert("bench.probe_overhead", traced_s / untraced_s);
    } else {
        let setup: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.setup_s.iter().copied())
            .collect();
        let rates: Vec<f64> = plain.iter().map(|r| r.sections as f64 / r.run_s).collect();
        values.insert("run_s", median(&run_s));
        values.insert("sections_per_s", median(&rates));
        values.insert("setup_s", median(&setup));
        values.insert("peak_rss_mb", peak_rss_mb());
        match paper_err {
            Some(e) => {
                values.insert("paper_err_pct", e);
            }
            None if sizes.headline => {
                correct = false;
                tally
                    .notes
                    .push("paper headline points missing".to_string());
            }
            None => {}
        }
    }
    let spec: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
    Report {
        correct: correct && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: spec
            .iter()
            .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
            .collect(),
        notes: tally.notes,
        reps,
        spans: probed.pop().map(|r| r.spans).unwrap_or_default(),
    }
}
