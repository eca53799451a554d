//! The 100k-node scaling scenario: a mesh of independent row pipelines.
//!
//! Figure 8's single global pipeline cannot scale to very large meshes —
//! one global mutex group spanning every node makes each multicast O(N)
//! and serializes the whole machine behind one token. This scenario keeps
//! the *style* of Figure 8 (token hand-off, a mutually exclusive section
//! per visit, overlapped local computation) but shards it: every row of
//! the mesh torus runs its own token pipeline with a row-local mutex
//! group, so the machine hosts `O(sqrt N)` concurrent pipelines and
//! `O(N)` sharing groups while total work stays `O(N)` events per lap.
//!
//! This is the workload the 100k-node scaling stack is sized against:
//!
//! * the calendar event queue absorbs the `O(sqrt N)` concurrent rows'
//!   event churn at O(1) amortized cost per operation;
//! * slab/slot protocol state keeps per-(group, member) bookkeeping dense
//!   (about `3N` member slots here) instead of hashing per step;
//! * [`MachineConfig::pruned_multicast`] routes each row's multicasts over
//!   the row's own links only and delivers each wavefront as one queue
//!   event — without it, every multicast would flood all `O(N)` positions,
//!   making one lap quadratic in machine size.
//!
//! Determinism: the scenario is seeded, contention-free across rows (rows
//! share no variables), and uses only deterministic fabric paths, so
//! repeated runs are event-for-event identical.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_core::builder::{ModelChoice, ModelInstance, SystemBuilder, TopologyChoice};
use sesame_dsm::{
    lockval, run, AppEvent, GroupSpec, MachineConfig, NodeApi, Program, RunOptions, VarId, Word,
};
use sesame_net::{FabricStats, LinkTiming, MeshTorus2d, NodeId};
use sesame_sim::{RunOutcome, SimDur, SimTime};

/// Parameters of the sharded-mesh scaling scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BigMeshConfig {
    /// CPU count (the headline configuration is 100 000). Ignored when an
    /// explicit [`BigMeshConfig::rows`] x [`BigMeshConfig::cols`] geometry
    /// is set.
    pub nodes: usize,
    /// Explicit torus height: with [`BigMeshConfig::cols`], requests a
    /// deliberately non-square `cols`-wide, `rows`-tall mesh torus of
    /// `rows * cols` CPUs. Zero (the default) derives a near-square torus
    /// from [`BigMeshConfig::nodes`]. Narrow tall geometries (e.g.
    /// 100 000 x 10 for the 1M-CPU configuration) keep each row pipeline —
    /// and therefore each multicast fan-out and each token's serial chain —
    /// short while scaling the machine by row count.
    pub rows: u32,
    /// Explicit torus width (row length); see [`BigMeshConfig::rows`].
    pub cols: u32,
    /// Token laps per row: every node performs `laps` visits.
    pub laps: u32,
    /// Local computation `L` per visit; the mutex section is `L/8`
    /// (Figure 8's ratio).
    pub local_calc: SimDur,
    /// Words updated inside each row's mutex section.
    pub shared_words: u32,
    /// Link timing.
    pub timing: LinkTiming,
    /// Event budget: the run aborts (outcome
    /// [`RunOutcome::EventLimitExceeded`]) past this many events — the CI
    /// smoke-run work bound.
    pub event_limit: u64,
}

impl Default for BigMeshConfig {
    fn default() -> Self {
        BigMeshConfig {
            nodes: 100_000,
            rows: 0,
            cols: 0,
            laps: 1,
            local_calc: SimDur::from_us(5),
            shared_words: 1,
            timing: LinkTiming::paper_1994(),
            event_limit: sesame_sim::DEFAULT_EVENT_LIMIT,
        }
    }
}

/// Outcome of one sharded-mesh run.
#[derive(Debug, Clone, Copy)]
pub struct BigMeshRun {
    /// CPU count.
    pub nodes: usize,
    /// Independent row pipelines (torus rows with at least two CPUs).
    pub rows: usize,
    /// Rows that completed all their visits.
    pub completed_rows: u64,
    /// Mutex-section visits performed across all rows.
    pub visits: u64,
    /// Simulated makespan.
    pub end: SimTime,
    /// Events processed.
    pub events: u64,
    /// Network power (total useful work / makespan).
    pub power: f64,
    /// Why the run ended ([`RunOutcome::Drained`] on success).
    pub outcome: RunOutcome,
    /// Interconnect traffic counters.
    pub fabric: FabricStats,
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

/// Row geometry: `[start, start + len)` node ids sharing one torus row.
#[derive(Debug, Clone, Copy)]
struct Row {
    start: u32,
    len: u32,
    lock: VarId,
    shared_base: u32,
}

/// Shared progress counters: `(completed rows, total visits)`.
type Progress = Rc<RefCell<(u64, u64)>>;

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
    fn idx_in_row(&self, api: &NodeApi<'_>) -> u32 {
        api.id().get() - self.row.start
    }

    fn prev(&self, api: &NodeApi<'_>) -> u32 {
        self.row.start + (self.idx_in_row(api) + self.row.len - 1) % self.row.len
    }

    fn prev_flag(&self, api: &NodeApi<'_>) -> VarId {
        VarId::new(self.flag_off + self.prev(api))
    }

    fn my_flag(&self, api: &NodeApi<'_>) -> VarId {
        VarId::new(self.flag_off + api.id().get())
    }

    fn total_visits(&self) -> Word {
        self.cfg.laps as Word * self.row.len as Word
    }

    fn token_arrived(&mut self, visit: Word, api: &mut NodeApi<'_>) {
        debug_assert_eq!(self.stage, Stage::WaitToken);
        self.visit = visit;
        self.last_flag_seen = visit;
        self.stage = Stage::CalcA;
        api.compute(self.cfg.local_calc / 2, TAG_CALC_A);
    }

    fn hand_off(&mut self, api: &mut NodeApi<'_>) {
        self.progress.borrow_mut().1 += 1;
        if self.visit < self.total_visits() {
            // The successor's visit number rides in the flag value.
            api.write(self.my_flag(api), self.visit + 1);
        } else {
            // This row's token expires here. Nobody calls `stop`: GWC has
            // no periodic timers, so the run drains naturally once every
            // row's tail writes and computations settle — which also
            // guarantees the final sequenced writes reach their roots
            // before the post-run verification reads them.
            self.progress.borrow_mut().0 += 1;
        }
        self.stage = Stage::CalcB;
        api.compute(self.cfg.local_calc / 2, TAG_CALC_B);
    }

    fn iteration_done(&mut self, api: &mut NodeApi<'_>) {
        self.stage = Stage::WaitToken;
        // With laps > 1 the next token may already have arrived
        // mid-iteration; re-check the predecessor's flag.
        let flag = api.read(self.prev_flag(api));
        if flag > self.last_flag_seen {
            self.token_arrived(flag, api);
        }
    }
}

impl Program for RowCpu {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        match ev {
            // The row leader injects the token: visit 1.
            AppEvent::Started if self.idx_in_row(api) == 0 => self.token_arrived(1, api),
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
                self.hand_off(api);
            }
            AppEvent::ComputeDone { tag: TAG_CALC_B } => {
                self.iteration_done(api);
            }
            _ => {}
        }
    }
}

/// Splits `nodes` CPUs into torus rows of `width`; a trailing single-CPU
/// remainder idles (a one-node pipeline would hand the token to itself).
fn rows_of(nodes: usize, width: u32, shared_words: u32) -> Vec<Row> {
    let row_vars = 1 + shared_words; // lock + shared words
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

/// Retransmission-history window per root. Loss-free runs never nack, so
/// bounding the history changes no behavior — it only caps each root's
/// history deque at a fixed capacity so steady-state sequencing allocates
/// nothing. A visit writes `shared_words + 1` sequenced values; 64 leaves
/// generous slack.
const HISTORY_WINDOW: u64 = 64;

/// Resolved torus geometry: `(cpu count, row width)`.
fn geometry(cfg: &BigMeshConfig) -> (usize, u32) {
    if cfg.rows > 0 || cfg.cols > 0 {
        assert!(
            cfg.rows > 0 && cfg.cols > 0,
            "rows and cols must be set together"
        );
        (cfg.rows as usize * cfg.cols as usize, cfg.cols)
    } else {
        (cfg.nodes, MeshTorus2d::with_nodes(cfg.nodes).width())
    }
}

/// Assembles the sharded-mesh system: groups, init values, and (when
/// `progress` is given) the row programs.
fn assemble(
    cfg: &BigMeshConfig,
    machine_cfg: MachineConfig,
    progress: Option<&Progress>,
) -> (sesame_dsm::Machine<ModelInstance>, Vec<Row>) {
    let (nodes, width) = geometry(cfg);
    assert!(nodes >= 2, "need at least one two-node row");
    let rows = rows_of(nodes, width, cfg.shared_words);
    let flag_off = rows.len() as u32 * (1 + cfg.shared_words);
    let mut builder = SystemBuilder::new(nodes)
        .topology(TopologyChoice::MeshTorus)
        .timing(cfg.timing)
        .model(ModelChoice::Gwc)
        .machine_config(machine_cfg);
    if cfg.rows > 0 {
        // An explicit (usually non-square) geometry the TopologyChoice
        // cannot express.
        builder = builder.topology_instance(Box::new(MeshTorus2d::new(cfg.cols, cfg.rows)));
    }
    for row in &rows {
        let members: Vec<NodeId> = (row.start..row.start + row.len).map(NodeId::new).collect();
        // The row's mutex group: lock + shared words, rooted at the leader.
        let vars: Vec<VarId> = std::iter::once(row.lock)
            .chain((0..cfg.shared_words).map(|w| VarId::new(row.shared_base + w)))
            .collect();
        builder = builder
            .group(GroupSpec {
                root: NodeId::new(row.start),
                members: members.clone(),
                vars,
                mutex_lock: Some(row.lock),
            })
            .init_var(row.lock, lockval::FREE);
        // One hand-off flag group per node: {i, successor}, rooted at the
        // writer — O(N) tiny groups, the group-count stress of the
        // scenario.
        for idx in 0..row.len {
            let me = row.start + idx;
            let next = row.start + (idx + 1) % row.len;
            builder = builder.group(GroupSpec {
                root: NodeId::new(me),
                members: vec![NodeId::new(me), NodeId::new(next)],
                vars: vec![VarId::new(flag_off + me)],
                mutex_lock: None,
            });
        }
        if let Some(progress) = progress {
            for idx in 0..row.len {
                builder = builder.program(
                    NodeId::new(row.start + idx),
                    Box::new(RowCpu {
                        cfg: *cfg,
                        row: *row,
                        flag_off,
                        stage: Stage::WaitToken,
                        visit: 0,
                        last_flag_seen: 0,
                        progress: progress.clone(),
                    }),
                );
            }
        }
    }
    let mut machine = builder.build().expect("valid sharded-mesh system");
    if let Some(gwc) = machine.model_mut().as_gwc_mut() {
        gwc.set_history_window(Some(HISTORY_WINDOW));
    }
    (machine, rows)
}

/// Runs the sharded-mesh scenario.
///
/// # Panics
///
/// Panics if the machine has fewer than 2 CPUs (no row can pipeline) or a
/// completed run left a row's shared counter inconsistent with its visit
/// count.
pub fn run_bigmesh(cfg: BigMeshConfig) -> BigMeshRun {
    run_bigmesh_configured(
        cfg,
        MachineConfig {
            pruned_multicast: true,
            ..MachineConfig::default()
        },
    )
}

/// Like [`run_bigmesh`] but with explicit protocol toggles — the
/// equivalence suites run the same scenario over the flood instead of
/// pruned routes and assert identical delivery times.
pub fn run_bigmesh_configured(cfg: BigMeshConfig, machine_cfg: MachineConfig) -> BigMeshRun {
    let progress: Progress = Rc::new(RefCell::new((0, 0)));
    let (machine, rows) = assemble(&cfg, machine_cfg, Some(&progress));
    let nodes = machine.node_count();
    let result = run(
        machine,
        RunOptions {
            event_limit: cfg.event_limit,
            ..RunOptions::default()
        },
    );
    let (completed_rows, visits) = *progress.borrow();
    if result.outcome == RunOutcome::Drained {
        // Every row's shared counter was incremented once per visit under
        // its row lock — a global mutual-exclusion correctness check.
        for row in &rows {
            let got = result
                .machine
                .mem(NodeId::new(row.start))
                .read(VarId::new(row.shared_base));
            let want = cfg.laps as Word * row.len as Word;
            assert_eq!(got, want, "row at {} shared counter", row.start);
        }
    }
    BigMeshRun {
        nodes,
        rows: rows.len(),
        completed_rows,
        visits,
        end: result.end,
        events: result.events,
        power: result.network_power(),
        outcome: result.outcome,
        fabric: result.machine.fabric_stats(),
    }
}

/// Builds the machine only (no run) — the memory-footprint smoke check.
/// With lazy routing structures this is `O(N)` in nodes and groups.
pub fn build_bigmesh_machine(cfg: BigMeshConfig) -> sesame_dsm::Machine<ModelInstance> {
    assemble(
        &cfg,
        MachineConfig {
            pruned_multicast: true,
            ..MachineConfig::default()
        },
        None,
    )
    .0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(nodes: usize) -> BigMeshConfig {
        BigMeshConfig {
            nodes,
            ..BigMeshConfig::default()
        }
    }

    #[test]
    fn rows_partition_the_mesh() {
        // 10 CPUs on a 4-wide torus: rows of 4, 4, and 2.
        let rows = rows_of(10, 4, 1);
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].start, rows[0].len), (0, 4));
        assert_eq!((rows[2].start, rows[2].len), (8, 2));
        // A trailing single CPU idles instead of forming a row.
        let rows = rows_of(9, 4, 1);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn small_mesh_completes_every_visit() {
        let run = run_bigmesh(tiny(48)); // 7-wide torus: 6 full rows + one of 6
        assert_eq!(run.outcome, RunOutcome::Drained);
        assert_eq!(run.completed_rows as usize, run.rows);
        assert_eq!(run.visits, 48);
        assert!(run.power > 1.0, "rows overlap: power {}", run.power);
    }

    #[test]
    fn multiple_laps_multiply_visits() {
        let run = run_bigmesh(BigMeshConfig {
            laps: 3,
            ..tiny(12)
        });
        assert_eq!(run.outcome, RunOutcome::Drained);
        assert_eq!(run.visits, 36);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_bigmesh(tiny(30));
        let b = run_bigmesh(tiny(30));
        assert_eq!(a.end, b.end);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fabric, b.fabric);
    }

    #[test]
    fn pruned_routing_preserves_makespan() {
        // The same system over the flood instead of pruned routes (and so
        // one queue event per member instead of one per static wave):
        // arrival times are depth-determined either way under cut-through,
        // so the makespan, visit count and packet count must agree exactly
        // — only the traffic bill and event count differ.
        for nodes in [24, 48] {
            let pruned = run_bigmesh(tiny(nodes));
            let full = run_bigmesh_configured(tiny(nodes), MachineConfig::default());
            assert_eq!(pruned.outcome, RunOutcome::Drained);
            assert_eq!(full.outcome, RunOutcome::Drained);
            assert_eq!(pruned.end, full.end, "arrival times must be identical");
            assert_eq!(pruned.visits, full.visits);
            assert_eq!(pruned.fabric.packets, full.fabric.packets);
            assert_eq!(pruned.fabric.bytes, full.fabric.bytes);
            // Pruned routes traverse fewer links; wave events process
            // fewer events.
            assert!(pruned.fabric.link_traversals < full.fabric.link_traversals);
            assert!(pruned.fabric.ser_ns < full.fabric.ser_ns);
            assert!(pruned.events < full.events);
        }
    }

    #[test]
    fn explicit_geometry_scales_by_rows() {
        // 12 rows of 4: 48 CPUs in a deliberately non-square torus.
        let run = run_bigmesh(BigMeshConfig {
            rows: 12,
            cols: 4,
            ..tiny(2)
        });
        assert_eq!(run.nodes, 48);
        assert_eq!(run.rows, 12);
        assert_eq!(run.outcome, RunOutcome::Drained);
        assert_eq!(run.visits, 48);
        assert_eq!(run.completed_rows, 12);
    }

    #[test]
    #[should_panic(expected = "rows and cols must be set together")]
    fn partial_geometry_is_rejected() {
        let _ = run_bigmesh(BigMeshConfig {
            rows: 12,
            ..tiny(2)
        });
    }

    #[test]
    fn machine_build_is_cheap_without_runs() {
        // Lazy routing structures: assembling a (scaled-down stand-in for
        // the) large machine builds no multicast routes at all.
        let machine = build_bigmesh_machine(tiny(2_000));
        assert_eq!(machine.node_count(), 2_000);
        assert!(machine.groups().len() > 2_000, "O(N) groups materialized");
    }
}
