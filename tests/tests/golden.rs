//! Golden-file regression for the export formats: the kernel rewrite
//! (calendar queue, slab state, lazy multicast routes) must leave every
//! published artifact byte-identical to the pre-change captures in
//! `tests/golden/`.
//!
//! The goldens were produced by the CLI from the commit before the
//! rewrite:
//!
//! ```text
//! sesame fig8 --sizes 2,4,8 --visits 128 --format csv > fig8_small.csv
//! sesame run --scenario contention --contenders 4 --rounds 15 \
//!     --metrics-out contention_metrics.json \
//!     --causes-out contention_causes.json \
//!     --series-out contention_series.json --window 100000
//! ```
//!
//! Each test below rebuilds the same artifact through the same library
//! calls the CLI makes and compares bytes. A diff here means the change
//! under review altered simulated behaviour (event order, timing, or
//! serialization) — not just performance — and must be treated as a
//! regression unless the goldens are deliberately regenerated with an
//! explanation.

use sesame_sim::SimDur;
use sesame_workloads::experiments::figure8_jobs;
use sesame_workloads::pipeline::PipelineConfig;
use sesame_workloads::telemetry::{run_with_telemetry, Scenario, ScenarioOptions};

/// Rebuilds the exact stdout of `sesame fig8 --sizes 2,4,8 --visits 128
/// --format csv`: the four CSV series joined as the CLI's `render` does,
/// plus the headline-ratios comment line.
fn fig8_csv() -> String {
    let cfg = PipelineConfig {
        total_visits: 128,
        ..PipelineConfig::default()
    };
    let data = figure8_jobs(cfg, &[2, 4, 8], 1);
    let csv = [&data.ideal, &data.optimistic, &data.regular, &data.entry]
        .iter()
        .map(|s| s.to_csv())
        .collect::<Vec<_>>()
        .join("\n");
    let r = data.headline_ratios();
    format!(
        "{}\n# at {} CPUs: opt/reg {:.2}, opt/entry {:.2}, reg/entry {:.2}\n",
        csv, r.nodes, r.optimistic_over_regular, r.optimistic_over_entry, r.regular_over_entry
    )
}

/// The contention run behind the three JSON goldens: `sesame run
/// --scenario contention --contenders 4 --rounds 15 --window 100000`.
fn contention_opts() -> ScenarioOptions {
    ScenarioOptions {
        contenders: 4,
        rounds: 15,
        window: Some(SimDur::from_nanos(100_000)),
        ..ScenarioOptions::default()
    }
}

#[test]
fn fig8_series_csv_matches_prechange_golden() {
    assert_eq!(
        fig8_csv(),
        include_str!("../golden/fig8_small.csv"),
        "fig8 CSV export diverged from the pre-rewrite golden"
    );
}

#[test]
fn contention_metrics_snapshot_matches_prechange_golden() {
    let t = run_with_telemetry(Scenario::Contention, &contention_opts());
    assert_eq!(
        t.snapshot().to_json(),
        include_str!("../golden/contention_metrics.json"),
        "metrics snapshot diverged from the pre-rewrite golden"
    );
}

#[test]
fn contention_causes_export_matches_prechange_golden() {
    let t = run_with_telemetry(Scenario::Contention, &contention_opts());
    assert_eq!(
        t.causes_json(),
        include_str!("../golden/contention_causes.json"),
        "causal DAG export diverged from the pre-rewrite golden"
    );
}

#[test]
fn contention_series_export_matches_prechange_golden() {
    let t = run_with_telemetry(Scenario::Contention, &contention_opts());
    assert_eq!(
        t.series_json().expect("window enables the series"),
        include_str!("../golden/contention_series.json"),
        "time-series export diverged from the pre-rewrite golden"
    );
}

// ---------------------------------------------------------------------
// Lossy and store-and-forward multicast goldens.
//
// The four captures below pin the fabric modes no export golden reaches:
// group multicast under seeded packet loss and under store-and-forward
// link contention, each over the full flood and over member-pruned
// routes. Each file records the rendered trace, the makespan, the fabric
// counters and every node's final memory. The flood captures also record
// the queue-event count; the pruned ones leave it out, because how many
// queue events carry one fan-out is a dispatch detail, not behaviour.
//
// Regenerate (only for a deliberate, explained behaviour change) with
// `SESAME_BLESS=1 cargo test -p sesame-tests --test golden`.

use sesame_dsm::{
    lockval, run, AppEvent, GroupSpec, GroupTable, GwcModel, Machine, MachineConfig, Model,
    NodeApi, Program, RunOptions, RunResult, VarId,
};
use sesame_net::{ContentionModel, LinkTiming, MeshTorus2d, NodeId, Topology};
use sesame_workloads::task_queue::{run_task_queue, TaskQueueConfig};

const LOCK: VarId = VarId::new(0);
const COUNTER: VarId = VarId::new(1);
const DATA: VarId = VarId::new(2);

/// The group members of the mesh scenario: row 0 and column 0 of a 5x5
/// torus, so a pruned route skips most of the machine.
const MESH_MEMBERS: [u32; 9] = [0, 1, 2, 3, 4, 5, 10, 15, 20];
/// The members that contend for the lock.
const MESH_CONTENDERS: [u32; 3] = [2, 10, 20];

/// Acquire, bump the counter, write a data word, release, think, repeat.
fn contender(rounds: u32, think_ns: u64) -> Box<dyn Program> {
    let mut left = rounds;
    Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
        AppEvent::Started => api.acquire(LOCK),
        AppEvent::Acquired { lock } if lock == LOCK => {
            let c = api.read(COUNTER);
            api.write(COUNTER, c + 1);
            api.write(DATA, i64::from(api.id().get()) * 1000 + i64::from(left));
            api.release(LOCK);
            left -= 1;
            if left > 0 {
                api.set_timer(
                    SimDur::from_nanos(think_ns + 13 * u64::from(api.id().get())),
                    0,
                );
            }
        }
        AppEvent::TimerFired { .. } => api.acquire(LOCK),
        _ => {}
    })
}

/// Three contenders share one mutex group on a 5x5 torus, under seeded
/// loss or store-and-forward links.
fn mesh_run(pruned: bool, loss: Option<(f64, u64)>, contended: bool) -> RunResult<GwcModel> {
    let topo: Box<dyn Topology> = Box::new(MeshTorus2d::new(5, 5));
    let nodes = topo.len();
    let groups = GroupTable::new(vec![GroupSpec {
        root: NodeId::new(0),
        members: MESH_MEMBERS.map(NodeId::new).to_vec(),
        vars: vec![LOCK, COUNTER, DATA],
        mutex_lock: Some(LOCK),
    }])
    .unwrap();
    let model = GwcModel::new(&groups, nodes);
    let programs: Vec<Box<dyn Program>> = (0..nodes as u32)
        .map(|i| {
            if MESH_CONTENDERS.contains(&i) {
                contender(3, 300 + 11 * u64::from(i))
            } else {
                Box::new(|_: AppEvent, _: &mut NodeApi<'_>| {}) as Box<dyn Program>
            }
        })
        .collect();
    let cfg = MachineConfig {
        pruned_multicast: pruned,
        ..MachineConfig::default()
    };
    let mut machine = Machine::new(topo, LinkTiming::paper_1994(), groups, programs, model, cfg);
    machine.init_var(LOCK, lockval::FREE);
    if let Some((p, seed)) = loss {
        machine.fabric_mut().set_loss(p, seed);
    }
    if contended {
        machine
            .fabric_mut()
            .set_contention(ContentionModel::StoreAndForward);
    }
    run(
        machine,
        RunOptions {
            seed: 3,
            tracing: true,
            ..RunOptions::default()
        },
    )
}

/// Renders a run as its golden text. `with_events` adds the queue-event
/// count.
fn render_run<M: Model>(r: &RunResult<M>, with_events: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "outcome {:?}", r.outcome).unwrap();
    writeln!(out, "makespan {}", r.end.as_nanos()).unwrap();
    if with_events {
        writeln!(out, "events {}", r.events).unwrap();
    }
    writeln!(out, "fabric {:?}", r.machine.fabric_stats()).unwrap();
    for node in 0..r.machine.node_count() as u32 {
        write!(out, "mem node{node}:").unwrap();
        for (var, val) in r.machine.mem(NodeId::new(node)).iter() {
            write!(out, " {var}={val}").unwrap();
        }
        out.push('\n');
    }
    writeln!(out, "trace {} records", r.trace.entries().len()).unwrap();
    for e in r.trace.entries() {
        writeln!(out, "{e}").unwrap();
    }
    out
}

/// Compares `got` with the golden file `name`, or rewrites the file when
/// `SESAME_BLESS` is set.
fn check_golden(name: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name);
    if std::env::var_os("SESAME_BLESS").is_some() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file present");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!("{name} diverged from its golden at line {}", line + 1);
    }
}

/// The fig2 task queue at a small size with store-and-forward links.
fn task_queue_contended() -> String {
    let cfg = TaskQueueConfig {
        total_tasks: 12,
        exec_time: SimDur::from_us(50),
        contention: true,
        tracing: true,
        ..TaskQueueConfig::default()
    };
    let run = run_task_queue(4, sesame_core::builder::ModelChoice::Gwc, cfg);
    render_run(&run.result, true)
}

#[test]
fn flood_under_loss_matches_golden() {
    let r = mesh_run(false, Some((0.2, 42)), false);
    assert!(
        r.machine.fabric_stats().losses > 0,
        "loss must drop packets"
    );
    check_golden("flood_loss.txt", &render_run(&r, true));
}

#[test]
fn flood_over_store_and_forward_links_matches_golden() {
    check_golden("flood_contended.txt", &task_queue_contended());
}

#[test]
fn pruned_route_under_loss_matches_golden() {
    let r = mesh_run(true, Some((0.2, 42)), false);
    assert!(
        r.machine.fabric_stats().losses > 0,
        "loss must drop packets"
    );
    check_golden("pruned_loss.txt", &render_run(&r, false));
}

#[test]
fn pruned_route_over_store_and_forward_links_matches_golden() {
    let r = mesh_run(true, None, true);
    check_golden("pruned_contended.txt", &render_run(&r, false));
}
