//! `explain`: the contention scenario (the default of `sesame run`),
//! scaled up, with the full observability stack attached — the telemetry
//! collector with timeline and series window, the causal DAG, and the
//! online `sesame-verify` verifier — and every export rendered in memory.
//!
//! The contention machine is built inside `run_contention_observed`, so
//! the wrappers cannot reach its machine boundaries; a traced rep times
//! the observers (`TraceObserver::on_record`) and the exports instead.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_sim::{SimDur, TraceObserver};
use sesame_telemetry::Telemetry;
use sesame_verify::Verifier;
use sesame_workloads::contention::{run_contention_observed, ContentionConfig, ContentionRun};
use sesame_workloads::telemetry::absorb_run;

use crate::probe::{now, Fanout, ProbeObserver};
use crate::reference::OpResult;
use crate::{guarded, Rep};

/// Contenders and rounds of the `explain` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplainSize {
    /// Contending nodes (the system adds one root).
    pub contenders: u32,
    /// Critical sections per contender.
    pub rounds: u32,
}

/// The benchmark's size: 12 contenders × 1000 sections each.
pub const SIZE: ExplainSize = ExplainSize {
    contenders: 12,
    rounds: 1000,
};

/// The series window `sesame run --series-out` uses.
const WINDOW: SimDur = SimDur::from_us(100);

/// The shared counter every section increments (`contention.rs`).
const COUNTER_VAR: u32 = 1;

/// The observer stack is microseconds to build, so each rep builds it
/// this many times and reports each build as a set-up sample.
const SETUP_SAMPLES: usize = 32;

/// The observers one run attaches.
struct Stack {
    telemetry: Rc<RefCell<Telemetry>>,
    verifier: Rc<RefCell<Verifier>>,
}

fn stack(seed: u64) -> Stack {
    Stack {
        telemetry: Telemetry::new("contention", seed)
            .with_timeline(true)
            .with_series(WINDOW)
            .shared(),
        verifier: Rc::new(RefCell::new(Verifier::with_counter_spec(COUNTER_VAR))),
    }
}

fn op_of(size: ExplainSize, run: &ContentionRun, violations: usize) -> OpResult {
    let mut op = OpResult::new(
        format!("explain/{}x{}", size.contenders, size.rounds),
        run.result.end,
        run.result.network_power(),
        run.sections,
        run.result.machine.fabric_stats(),
    );
    let s = run.stats;
    op.push("opt_attempts", s.optimistic_attempts);
    op.push("regular_attempts", s.regular_attempts);
    op.push("rollbacks", s.rollbacks);
    op.push("free_flickers", s.free_flickers);
    op.push("completions", s.completions);
    op.push("overlapped", s.fully_overlapped);
    op.push("violations", violations);
    op
}

/// Renders every export; returns their total size in bytes.
fn render(t: &Telemetry) -> usize {
    let snapshot = t.snapshot().to_json();
    let trace = t.chrome_trace();
    let causes = t.causes_json();
    let series = t.series_json().unwrap_or_default();
    std::hint::black_box(snapshot.len() + trace.len() + causes.len() + series.len())
}

/// One rep at `size` and `seed`.
pub fn rep(size: ExplainSize, seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let mut st = stack(seed);
    for _ in 0..SETUP_SAMPLES {
        let t0 = now();
        let built = std::hint::black_box(stack(seed));
        rep.setup_s.push(t0.elapsed().as_secs_f64());
        st = built;
    }
    let cfg = ContentionConfig {
        contenders: size.contenders,
        rounds: size.rounds,
        seed,
        ..ContentionConfig::default()
    };
    let probes = traced.then(|| {
        (
            Rc::new(RefCell::new(ProbeObserver::new(st.telemetry.clone()))),
            Rc::new(RefCell::new(ProbeObserver::new(st.verifier.clone()))),
        )
    });
    let sinks: Vec<Rc<RefCell<dyn TraceObserver>>> = match &probes {
        Some((tel, ver)) => vec![tel.clone(), ver.clone()],
        None => vec![st.telemetry.clone(), st.verifier.clone()],
    };
    let fanout = Rc::new(RefCell::new(Fanout::new(sinks)));

    let t_run = now();
    let op = guarded(|| {
        let run = run_contention_observed(cfg, Some(fanout.clone()));
        let mut t = st.telemetry.borrow_mut();
        absorb_run(&mut t, &run.result);
        let reg = t.registry_mut();
        reg.counter("run/sections").add(run.sections);
        *reg.gauge("run/mean-section-latency-ns") = run.mean_section_latency.as_nanos() as f64;
        let mut verifier = st.verifier.borrow_mut();
        verifier.finish();
        let violations = verifier.violations().len();
        let t_export = now();
        let bytes = render(&t);
        let export_s = t_export.elapsed().as_secs_f64();
        (run, violations, bytes, export_s)
    });
    rep.run_s = t_run.elapsed().as_secs_f64();

    let op = op.map(|(run, violations, bytes, export_s)| {
        rep.sections = run.sections;
        rep.events = run.result.events;
        if let Some((tel, ver)) = &probes {
            let (tel_s, tel_err) = tel.borrow().sampler.estimate();
            let (ver_s, ver_err) = ver.borrow().sampler.estimate();
            let f = fanout.borrow();
            let s = run.stats;
            // Share of optimistic attempts that committed without a
            // rollback.
            let hit_rate = if s.optimistic_attempts == 0 {
                0.0
            } else {
                s.optimistic_attempts.saturating_sub(s.rollbacks) as f64
                    / s.optimistic_attempts as f64
            };
            rep.layers.extend([
                ("telemetry.observer_s", tel_s),
                ("telemetry.observer_err_s", tel_err),
                ("verify.observer_s", ver_s),
                ("verify.observer_err_s", ver_err),
                ("telemetry.export_s", export_s),
                ("telemetry.export_bytes", bytes as f64),
                ("sim.run_self_s", rep.run_s - tel_s - ver_s - export_s),
                ("sim.trace_records", f.records as f64),
                ("sim.cause_records", f.cause_records as f64),
                ("core.rollbacks", s.rollbacks as f64),
                ("core.opt_hit_rate", hit_rate),
            ]);
        }
        op_of(size, &run, violations)
    });
    rep.ops.push(op);
    rep
}

/// What references are recorded from: an untraced rep (no one-call
/// library entry point attaches the verifier next to the telemetry).
pub fn record_ops(size: ExplainSize, seed: u64) -> Vec<OpResult> {
    rep(size, seed, false)
        .ops
        .into_iter()
        .map(|op| op.expect("recorded explain run succeeds"))
        .collect()
}
