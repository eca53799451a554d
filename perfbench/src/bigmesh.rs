//! `bigmesh`: the sharded row-pipeline mesh on pruned static-wave
//! multicast, tracing off.
//!
//! Set-up is the public `build_bigmesh_machine` plus moving its parts into
//! a machine that runs the row programs. `build_bigmesh_machine` installs
//! idle programs, and the library's row program is private, so
//! [`RowCpu`] below is a copy of it written against the public `NodeApi`;
//! the references, recorded with the library's own `run_bigmesh`, prove the
//! two simulate the same thing.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_core::builder::ModelInstance;
use sesame_dsm::{
    AppEvent, Machine, MachineConfig, Model, NodeApi, Program, RunOptions, VarId, Word,
};
use sesame_net::{MeshTorus2d, NodeId};
use sesame_sim::{RunOutcome, SimTime};
use sesame_workloads::bigmesh::{build_bigmesh_machine, run_bigmesh, BigMeshConfig};

use crate::paper::network_power;
use crate::probe::{self, now, Probe};
use crate::reference::OpResult;
use crate::{guarded, Rep};

/// The benchmark's mesh: 20 000 CPUs, where events/s has fallen clearly
/// below the 10 000-CPU figure (deeper pending queue, larger slab state).
pub const NODES: usize = 20_000;

fn config(nodes: usize) -> BigMeshConfig {
    BigMeshConfig {
        nodes,
        ..BigMeshConfig::default()
    }
}

const TAG_CALC_A: u64 = 1;
const TAG_CALC_B: u64 = 2;
const TAG_SECTION: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    WaitToken,
    CalcA,
    Mutex,
    Section,
    CalcB,
}

/// One torus row: CPUs `[start, start + len)` with their row lock and
/// shared words.
#[derive(Debug, Clone, Copy)]
struct Row {
    start: u32,
    len: u32,
    lock: VarId,
    shared_base: u32,
}

/// `(completed rows, visits)`.
type Progress = Rc<RefCell<(u64, u64)>>;

/// The row-pipeline CPU of `sesame_workloads::bigmesh`.
struct RowCpu {
    cfg: BigMeshConfig,
    row: Row,
    flag_off: u32,
    stage: Stage,
    visit: Word,
    last_flag_seen: Word,
    progress: Progress,
}

impl RowCpu {
    fn prev_flag(&self, api: &NodeApi<'_>) -> VarId {
        let idx = api.id().get() - self.row.start;
        let prev = self.row.start + (idx + self.row.len - 1) % self.row.len;
        VarId::new(self.flag_off + prev)
    }

    fn token_arrived(&mut self, visit: Word, api: &mut NodeApi<'_>) {
        self.visit = visit;
        self.last_flag_seen = visit;
        self.stage = Stage::CalcA;
        api.compute(self.cfg.local_calc / 2, TAG_CALC_A);
    }
}

impl Program for RowCpu {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        match ev {
            AppEvent::Started if api.id().get() == self.row.start => self.token_arrived(1, api),
            AppEvent::Updated { var, value, .. }
                if self.stage == Stage::WaitToken
                    && var == self.prev_flag(api)
                    && value > self.last_flag_seen =>
            {
                self.token_arrived(value, api);
            }
            AppEvent::ComputeDone { tag: TAG_CALC_A } => {
                self.stage = Stage::Mutex;
                api.acquire(self.row.lock);
            }
            AppEvent::Acquired { lock } if lock == self.row.lock => {
                self.stage = Stage::Section;
                api.compute(self.cfg.local_calc / 8, TAG_SECTION);
            }
            AppEvent::ComputeDone { tag: TAG_SECTION } => {
                for w in 0..self.cfg.shared_words {
                    let var = VarId::new(self.row.shared_base + w);
                    let old = api.read(var);
                    api.write(var, old + 1);
                }
                api.release(self.row.lock);
            }
            AppEvent::Released { lock } if lock == self.row.lock => {
                self.progress.borrow_mut().1 += 1;
                if self.visit < Word::from(self.cfg.laps) * Word::from(self.row.len) {
                    api.write(VarId::new(self.flag_off + api.id().get()), self.visit + 1);
                } else {
                    self.progress.borrow_mut().0 += 1;
                }
                self.stage = Stage::CalcB;
                api.compute(self.cfg.local_calc / 2, TAG_CALC_B);
            }
            AppEvent::ComputeDone { tag: TAG_CALC_B } => {
                self.stage = Stage::WaitToken;
                let flag = api.read(self.prev_flag(api));
                if flag > self.last_flag_seen {
                    self.token_arrived(flag, api);
                }
            }
            _ => {}
        }
    }
}

/// The library's row split: rows of the torus width, a trailing single
/// CPU idles.
fn rows_of(nodes: usize, width: u32, shared_words: u32) -> Vec<Row> {
    let row_vars = 1 + shared_words;
    let mut rows = Vec::new();
    let mut start = 0u32;
    while (start as usize) < nodes {
        let len = (nodes as u32 - start).min(width);
        if len >= 2 {
            let r = rows.len() as u32;
            rows.push(Row {
                start,
                len,
                lock: VarId::new(r * row_vars),
                shared_base: r * row_vars + 1,
            });
        }
        start += len;
    }
    rows
}

/// Row programs for every CPU of the mesh (idle where no row runs).
fn row_programs(cfg: &BigMeshConfig, rows: &[Row], progress: &Progress) -> Vec<Option<RowCpu>> {
    let flag_off = rows.len() as u32 * (1 + cfg.shared_words);
    let mut programs: Vec<Option<RowCpu>> = (0..cfg.nodes).map(|_| None).collect();
    for row in rows {
        for node in row.start..row.start + row.len {
            programs[node as usize] = Some(RowCpu {
                cfg: *cfg,
                row: *row,
                flag_off,
                stage: Stage::WaitToken,
                visit: 0,
                last_flag_seen: 0,
                progress: progress.clone(),
            });
        }
    }
    programs
}

/// The machine configuration `build_bigmesh_machine` uses.
fn machine_config() -> MachineConfig {
    MachineConfig {
        pruned_multicast: true,
        ..MachineConfig::default()
    }
}

/// Checks a finished mesh the way `run_bigmesh` does and returns its
/// results.
fn mesh_op<M: Model>(
    cfg: &BigMeshConfig,
    rows: &[Row],
    progress: &Progress,
    machine: &Machine<M>,
    end: SimTime,
    outcome: RunOutcome,
) -> Result<OpResult, String> {
    if outcome != RunOutcome::Drained {
        return Err(format!("bigmesh/{}: run ended {outcome:?}", cfg.nodes));
    }
    for row in rows {
        let got = machine
            .mem(NodeId::new(row.start))
            .read(VarId::new(row.shared_base));
        let want = Word::from(cfg.laps) * Word::from(row.len);
        if got != want {
            return Err(format!(
                "bigmesh/{}: row at {} counted {got} visits, want {want}",
                cfg.nodes, row.start
            ));
        }
    }
    let (completed_rows, visits) = *progress.borrow();
    let mut op = OpResult::new(
        format!("bigmesh/{}", cfg.nodes),
        end,
        network_power(machine, end),
        visits,
        machine.fabric_stats(),
    );
    op.push("completed_rows", completed_rows);
    Ok(op)
}

/// One rep on a `nodes`-CPU mesh.
pub fn rep(nodes: usize, traced: bool) -> Rep {
    let cfg = config(nodes);
    let mut rep = Rep::default();
    let progress: Progress = Rc::new(RefCell::new((0, 0)));
    let rows = rows_of(
        cfg.nodes,
        MeshTorus2d::with_nodes(cfg.nodes).width(),
        cfg.shared_words,
    );
    let mut programs = row_programs(&cfg, &rows, &progress);
    let mut install = move |i: usize, idle: Box<dyn Program>| -> Box<dyn Program> {
        match programs[i].take() {
            Some(p) => Box::new(p),
            None => idle,
        }
    };
    let topo = Box::new(MeshTorus2d::with_nodes(cfg.nodes));
    let opts = RunOptions {
        event_limit: cfg.event_limit,
        ..RunOptions::default()
    };
    rep.sections = nodes as u64 * u64::from(cfg.laps);
    let op = if traced {
        let probe = Probe::new();
        guarded(|| {
            let m = probe::probed(
                build_bigmesh_machine(cfg),
                topo,
                machine_config(),
                &probe,
                install,
            );
            let d = probe::drive(m, &probe, &opts);
            rep.run_s = d.run_s;
            rep.events = d.events;
            rep.absorb_probe(&probe, d.run_s);
            rep.layers.insert("sim.pending_peak", d.pending_peak as f64);
            mesh_op(&cfg, &rows, &progress, &d.machine, d.end, d.outcome)
        })
    } else {
        guarded(|| {
            let t0 = now();
            let built = build_bigmesh_machine(cfg);
            let m: Machine<ModelInstance> =
                probe::reassemble(built, topo, machine_config(), |m| m, &mut install);
            rep.setup_s.push(t0.elapsed().as_secs_f64());
            let t_run = now();
            let r = sesame_dsm::run(m, opts);
            rep.run_s = t_run.elapsed().as_secs_f64();
            rep.events = r.events;
            mesh_op(&cfg, &rows, &progress, &r.machine, r.end, r.outcome)
        })
    };
    rep.ops.push(op.and_then(|r| r));
    rep
}

/// The same run through the library's `run_bigmesh`: what references are
/// recorded from.
pub fn record_ops(nodes: usize) -> Vec<OpResult> {
    let cfg = config(nodes);
    let run = run_bigmesh(cfg);
    assert_eq!(run.outcome, RunOutcome::Drained, "recorded mesh drains");
    let mut op = OpResult::new(
        format!("bigmesh/{}", cfg.nodes),
        run.end,
        run.power,
        run.visits,
        run.fabric,
    );
    op.push("completed_rows", run.completed_rows);
    vec![op]
}
