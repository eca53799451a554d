//! `paper`: Figure 2 and Figure 8 at their published defaults, run
//! serially point by point.
//!
//! Figure 2 points are assembled with the public `build_task_queue`, so
//! their build is the workload's set-up and a traced rep wraps every
//! machine boundary. Figure 8 points build inside `run_pipeline`; a traced
//! rep times them whole, per method.

use std::collections::BTreeMap;

use sesame_core::builder::{ModelChoice, ModelInstance, TopologyChoice};
use sesame_dsm::{Machine, MachineConfig, RunOptions};
use sesame_net::LinkTiming;
use sesame_workloads::experiments::{figure2_sizes, figure8_sizes};
use sesame_workloads::pipeline::{run_pipeline, MutexMethod, PipelineConfig, PipelineRun};
use sesame_workloads::task_queue::{build_task_queue, run_task_queue, TaskQueueConfig};

use crate::probe::{self, now, Probe};
use crate::reference::OpResult;
use crate::{guarded, power_of, Rep};

/// Sweep sizes of the `paper` workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperSize {
    /// Figure 2 network sizes.
    pub fig2_sizes: Vec<usize>,
    /// Figure 2 tasks per point.
    pub tasks: u32,
    /// Figure 8 network sizes.
    pub fig8_sizes: Vec<usize>,
    /// Figure 8 token visits per point.
    pub visits: u32,
}

impl PaperSize {
    /// The published defaults: 3–129 CPUs with 1024 tasks (Figure 2) and
    /// 2–128 CPUs with 1024 visits (Figure 8).
    pub fn published() -> Self {
        PaperSize {
            fig2_sizes: figure2_sizes(),
            tasks: TaskQueueConfig::default().total_tasks,
            fig8_sizes: figure8_sizes(),
            visits: PipelineConfig::default().total_visits,
        }
    }
}

/// One Figure 2 point: `(name, CPUs, model, config)`, in the order
/// `figure2_jobs` runs them.
type Fig2Point = (String, usize, ModelChoice, TaskQueueConfig);

/// One Figure 8 point: `(name, CPUs, method, config)`, in the order
/// `figure8_jobs` runs them.
type Fig8Point = (String, usize, MutexMethod, PipelineConfig);

fn fig2_points(sizes: &[usize], tasks: u32) -> Vec<Fig2Point> {
    let cfg = TaskQueueConfig {
        total_tasks: tasks,
        ..TaskQueueConfig::default()
    };
    let ideal = TaskQueueConfig {
        timing: LinkTiming::zero_delay(),
        ..cfg
    };
    sizes
        .iter()
        .flat_map(|&n| {
            [
                (format!("fig2/ideal/{n}"), n, ModelChoice::Gwc, ideal),
                (format!("fig2/gwc/{n}"), n, ModelChoice::Gwc, cfg),
                (format!("fig2/entry/{n}"), n, ModelChoice::Entry, cfg),
            ]
        })
        .collect()
}

fn fig8_points(sizes: &[usize], visits: u32) -> Vec<Fig8Point> {
    let cfg = PipelineConfig {
        total_visits: visits,
        ..PipelineConfig::default()
    };
    let ideal = PipelineConfig {
        timing: LinkTiming::zero_delay(),
        ..cfg
    };
    sizes
        .iter()
        .flat_map(|&n| {
            [
                (format!("fig8/ideal/{n}"), n, MutexMethod::RegularGwc, ideal),
                (
                    format!("fig8/optimistic/{n}"),
                    n,
                    MutexMethod::OptimisticGwc,
                    cfg,
                ),
                (format!("fig8/regular/{n}"), n, MutexMethod::RegularGwc, cfg),
                (format!("fig8/entry/{n}"), n, MutexMethod::Entry, cfg),
            ]
        })
        .collect()
}

/// The per-layer metric that sums a Figure 8 point's host time.
fn fig8_metric(name: &str) -> &'static str {
    match name.split('/').nth(1) {
        Some("ideal") => "dsm.fig8_ideal_s",
        Some("optimistic") => "core.fig8_optimistic_s",
        Some("regular") => "dsm.fig8_gwc_s",
        _ => "consistency.fig8_entry_s",
    }
}

fn fig8_op(name: &str, cfg: &PipelineConfig, run: &PipelineRun) -> OpResult {
    let mut op = OpResult::new(
        name.to_string(),
        run.result.end,
        run.power,
        u64::from(cfg.total_visits),
        run.result.machine.fabric_stats(),
    );
    op.push("rollbacks", run.rollbacks);
    op.push("overlapped", run.fully_overlapped);
    op
}

/// Checks a finished Figure 2 point: every task executed exactly once.
fn fig2_op(
    name: &str,
    cfg: &TaskQueueConfig,
    end: sesame_sim::SimTime,
    power: f64,
    executed: &[u32],
    fabric: sesame_net::FabricStats,
) -> Result<OpResult, String> {
    let done: u64 = executed.iter().map(|&e| u64::from(e)).sum();
    if done != u64::from(cfg.total_tasks) {
        return Err(format!(
            "{name}: {done} of {} tasks executed",
            cfg.total_tasks
        ));
    }
    Ok(OpResult::new(name.to_string(), end, power, done, fabric))
}

/// Network power as `RunResult::network_power` computes it.
pub fn network_power<M: sesame_dsm::Model>(machine: &Machine<M>, end: sesame_sim::SimTime) -> f64 {
    if end == sesame_sim::SimTime::ZERO {
        return 0.0;
    }
    machine.total_busy().as_nanos() as f64 / end.as_nanos() as f64
}

type Built = (
    Machine<ModelInstance>,
    std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
);

/// One rep of the sweep.
pub fn rep(size: &PaperSize, traced: bool) -> Rep {
    let fig2 = fig2_points(&size.fig2_sizes, size.tasks);
    let fig8 = fig8_points(&size.fig8_sizes, size.visits);
    let mut rep = Rep::default();

    let t0 = now();
    let built: Vec<Result<Built, String>> = fig2
        .iter()
        .map(|(_, n, model, cfg)| guarded(|| build_task_queue(*n, *model, *cfg)))
        .collect();
    rep.setup_s.push(t0.elapsed().as_secs_f64());

    let probe = traced.then(Probe::new);
    let mut traced_run_s = 0.0;
    let mut pending_peak = 0u64;
    let mut point_s: Vec<f64> = Vec::new();
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();

    let t_run = now();
    for ((name, n, _, cfg), built) in fig2.iter().zip(built) {
        let p0 = now();
        let op = built.and_then(|(machine, executed)| {
            guarded(|| match &probe {
                None => {
                    let r = sesame_dsm::run(machine, RunOptions::default());
                    let power = r.network_power();
                    let fabric = r.machine.fabric_stats();
                    (r.end, power, fabric, r.events)
                }
                Some(probe) => {
                    // Re-wrapping is set-up work, so it stays outside the
                    // point's timed drive.
                    let topo = TopologyChoice::MeshTorus.instantiate(*n);
                    let m = probe::probed(machine, topo, MachineConfig::default(), probe, |_, p| p);
                    let d = probe::drive(m, probe, &RunOptions::default());
                    traced_run_s += d.run_s;
                    pending_peak = pending_peak.max(d.pending_peak);
                    let power = network_power(&d.machine, d.end);
                    (d.end, power, d.machine.fabric_stats(), d.events)
                }
            })
            .and_then(|(end, power, fabric, events)| {
                rep.events += events;
                let executed = executed.borrow();
                rep.sections += executed.iter().map(|&e| u64::from(e)).sum::<u64>();
                fig2_op(name, cfg, end, power, &executed, fabric)
            })
        });
        point_s.push(p0.elapsed().as_secs_f64());
        rep.ops.push(op);
    }
    for (name, n, method, cfg) in &fig8 {
        let p0 = now();
        let op = guarded(|| run_pipeline(*n, *method, *cfg)).map(|run| {
            rep.events += run.result.events;
            rep.sections += u64::from(cfg.total_visits);
            fig8_op(name, cfg, &run)
        });
        let dt = p0.elapsed().as_secs_f64();
        point_s.push(dt);
        *layers.entry(fig8_metric(name)).or_default() += dt;
        rep.ops.push(op);
    }
    rep.run_s = t_run.elapsed().as_secs_f64();

    if let Some(probe) = probe {
        layers.insert("sim.pending_peak", pending_peak as f64);
        layers.insert(
            "sweep.max_point_s",
            point_s.iter().copied().fold(0.0, f64::max),
        );
        rep.layers = layers;
        rep.absorb_probe(&probe, traced_run_s);
    }
    rep
}

/// The same operations through the library's own one-call entry points
/// (`run_task_queue`, `run_pipeline`): what references are recorded from.
pub fn record_ops(size: &PaperSize) -> Vec<OpResult> {
    let mut ops = Vec::new();
    for (name, n, model, cfg) in fig2_points(&size.fig2_sizes, size.tasks) {
        let run = run_task_queue(n, model, cfg);
        let fabric = run.result.machine.fabric_stats();
        ops.push(
            fig2_op(
                &name,
                &cfg,
                run.result.end,
                run.speedup,
                &run.executed,
                fabric,
            )
            .expect("recorded point executes every task"),
        );
    }
    for (name, n, method, cfg) in fig8_points(&size.fig8_sizes, size.visits) {
        ops.push(fig8_op(&name, &cfg, &run_pipeline(n, method, cfg)));
    }
    ops
}

/// The paper's headline numbers (EXPERIMENTS.md), as
/// `(operation, paper value)`: the Figure 2 peaks and the Figure 8
/// endpoints. The three Figure 8 ratios at 2 CPUs follow in
/// [`paper_err_pct`].
const HEADLINE: [(&str, f64); 8] = [
    ("fig2/gwc/129", 84.1),
    ("fig2/entry/33", 22.5),
    ("fig8/optimistic/2", 1.68),
    ("fig8/optimistic/128", 1.15),
    ("fig8/regular/2", 1.53),
    ("fig8/regular/128", 1.03),
    ("fig8/entry/2", 0.81),
    ("fig8/entry/128", 0.64),
];

/// Mean relative error, in percent, of the reproduced headline numbers
/// against the paper's: the eight [`HEADLINE`] points plus the ratios at 2
/// CPUs (optimistic/regular 1.1, optimistic/entry 2.1, regular/entry 1.9).
/// `None` unless every headline operation succeeded.
pub fn paper_err_pct(ops: &[Result<OpResult, String>]) -> Option<f64> {
    let power = |name: &str| {
        ops.iter()
            .flatten()
            .find(|o| o.name == name)
            .and_then(power_of)
    };
    let mut errs = Vec::new();
    for (name, paper) in HEADLINE {
        errs.push((power(name)? - paper).abs() / paper);
    }
    let (opt, reg, ent) = (
        power("fig8/optimistic/2")?,
        power("fig8/regular/2")?,
        power("fig8/entry/2")?,
    );
    for (measured, paper) in [(opt / reg, 1.1), (opt / ent, 2.1), (reg / ent, 1.9)] {
        errs.push((measured - paper).abs() / paper);
    }
    Some(100.0 * errs.iter().sum::<f64>() / errs.len() as f64)
}

/// Runs only the headline operations, for the paper error reported by the
/// other workloads.
pub fn headline_ops() -> Vec<Result<OpResult, String>> {
    let wanted = |name: &String| HEADLINE.iter().any(|(h, _)| h == name);
    let size = PaperSize::published();
    let mut ops = Vec::new();
    for (name, n, model, cfg) in fig2_points(&size.fig2_sizes, size.tasks) {
        if wanted(&name) {
            ops.push(guarded(|| run_task_queue(n, model, cfg)).and_then(|run| {
                let fabric = run.result.machine.fabric_stats();
                fig2_op(
                    &name,
                    &cfg,
                    run.result.end,
                    run.speedup,
                    &run.executed,
                    fabric,
                )
            }));
        }
    }
    for (name, n, method, cfg) in fig8_points(&size.fig8_sizes, size.visits) {
        if wanted(&name) {
            ops.push(
                guarded(|| run_pipeline(n, method, cfg)).map(|run| fig8_op(&name, &cfg, &run)),
            );
        }
    }
    ops
}
