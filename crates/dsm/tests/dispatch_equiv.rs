//! Dispatch-shape equivalence: a group multicast reaches its members
//! either as one [`DsmEvent::McastWave`](sesame_dsm::DsmEvent::McastWave)
//! queue event per depth wave (a pruned route on a contention-free,
//! loss-free fabric) or as one packet event per member (the flood, and any
//! route under loss). How many queue events carry a fan-out is a dispatch
//! detail, not behaviour: on a group whose pruned route bills the same
//! edges as the flood, the two runs must be *byte-identical* — same trace,
//! same makespan, same fabric traffic, same memories — for the same seed,
//! with the wave run never using more queue events. Any drift here means a
//! dispatch shape changed semantics, not just speed.

#![allow(clippy::type_complexity)]

use sesame_dsm::{
    lockval, run, AppEvent, GroupSpec, GroupTable, GwcModel, Machine, MachineConfig, NodeApi,
    Program, RunOptions, RunResult, VarId,
};
use sesame_net::{LinkTiming, MeshTorus2d, NodeId, Topology};
use sesame_sim::SimDur;

fn n(id: u32) -> NodeId {
    NodeId::new(id)
}
fn v(id: u32) -> VarId {
    VarId::new(id)
}

const LOCK: u32 = 0;
const COUNTER: u32 = 1;
const DATA: u32 = 2;

/// A mutex contender: acquires, bumps the shared counter, writes a data
/// word, releases, thinks for a node-staggered delay, and goes again.
fn contender(rounds: u32, think_ns: u64) -> Box<dyn Program> {
    let mut left = rounds;
    Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
        AppEvent::Started => api.acquire(v(LOCK)),
        AppEvent::Acquired { lock } if lock == v(LOCK) => {
            let c = api.read(v(COUNTER));
            api.write(v(COUNTER), c + 1);
            api.write(v(DATA), i64::from(api.id().get()) * 1000 + i64::from(left));
            api.release(v(LOCK));
            left -= 1;
            if left > 0 {
                api.set_timer(
                    SimDur::from_nanos(think_ns + 13 * u64::from(api.id().get())),
                    0,
                );
            }
        }
        AppEvent::TimerFired { .. } => api.acquire(v(LOCK)),
        _ => {}
    })
}

/// A 4x4 mesh torus where every node is a member of one mutex group and
/// a handful of nodes contend: multi-wave pruned multicasts on every
/// sequenced write (grants, counter updates, data words, frees).
fn build(cfg: MachineConfig) -> Machine<GwcModel> {
    let topo: Box<dyn Topology> = Box::new(MeshTorus2d::new(4, 4));
    let nodes = topo.len();
    let groups = GroupTable::new(vec![GroupSpec {
        root: n(0),
        members: (0..nodes as u32).map(n).collect(),
        vars: vec![v(LOCK), v(COUNTER), v(DATA)],
        mutex_lock: Some(v(LOCK)),
    }])
    .unwrap();
    let model = GwcModel::new(&groups, nodes);
    let mut programs: Vec<Box<dyn Program>> = Vec::new();
    for i in 0..nodes as u32 {
        if i % 5 == 1 {
            programs.push(contender(3, 400 + 7 * u64::from(i)));
        } else {
            programs.push(Box::new(|_: AppEvent, _: &mut NodeApi<'_>| {}));
        }
    }
    let mut machine = Machine::new(topo, LinkTiming::paper_1994(), groups, programs, model, cfg);
    machine.init_var(v(LOCK), lockval::FREE);
    machine
}

fn run_traced(cfg: MachineConfig, loss: Option<(f64, u64)>, seed: u64) -> RunResult<GwcModel> {
    let mut machine = build(cfg);
    if let Some((p, loss_seed)) = loss {
        machine.fabric_mut().set_loss(p, loss_seed);
    }
    run(
        machine,
        RunOptions {
            seed,
            tracing: true,
            ..RunOptions::default()
        },
    )
}

/// Asserts a pruned run is observably identical to the flood run —
/// trace (byte for byte), makespan, fabric traffic, and every node's
/// memory — and used no more queue events.
fn assert_matches_flood(pruned: &RunResult<GwcModel>, flood: &RunResult<GwcModel>, what: &str) {
    assert!(
        pruned.events <= flood.events,
        "{what}: {} queue events against the flood's {}",
        pruned.events,
        flood.events
    );
    assert_eq!(pruned.end, flood.end, "{what}: makespan");
    assert_eq!(
        pruned.machine.fabric_stats(),
        flood.machine.fabric_stats(),
        "{what}: fabric traffic"
    );
    let entries_a = pruned.trace.entries();
    let entries_b = flood.trace.entries();
    assert_eq!(entries_a.len(), entries_b.len(), "{what}: trace length");
    for (i, (ea, eb)) in entries_a.iter().zip(entries_b).enumerate() {
        assert_eq!(ea, eb, "{what}: trace entry {i}");
    }
    for node in 0..pruned.machine.node_count() as u32 {
        let ma: Vec<_> = pruned.machine.mem(n(node)).iter().collect();
        let mb: Vec<_> = flood.machine.mem(n(node)).iter().collect();
        assert_eq!(ma, mb, "{what}: node {node} memory");
    }
}

fn pruned() -> MachineConfig {
    MachineConfig {
        pruned_multicast: true,
        ..MachineConfig::default()
    }
}

/// Every member of the 4x4 group is a topology position, so the pruned
/// route and the flood both bill 15 edges per multicast.
const EDGES: u64 = 15;

/// Static waves against the generic per-member construction (the
/// flood), loss-free: the pruned route takes the static-wave path.
#[test]
fn static_waves_match_generic_construction_byte_for_byte() {
    for seed in [1u64, 7, 23] {
        let waves = run_traced(pruned(), None, seed);
        let flood = run_traced(MachineConfig::default(), None, seed);
        // The scenario must actually exercise multicast fan-out, or this
        // test proves nothing.
        let mcasts = flood
            .trace
            .entries()
            .iter()
            .filter(|e| e.kind == "pkt-mcast")
            .count() as u64;
        assert!(mcasts > 0, "scenario produced no multicasts");
        let stats = flood.machine.fabric_stats();
        assert!(stats.link_traversals >= mcasts * EDGES);
        assert_matches_flood(&waves, &flood, &format!("static waves seed {seed}"));
        // Multi-member waves really were batched.
        assert!(waves.events < flood.events, "no wave events engaged");
    }
}

/// Under loss both shapes queue one packet event per member and roll each
/// member's loss in declared order, so the RNG streams line up and the
/// runs stay identical through nack-triggered recovery.
#[test]
fn pruned_route_matches_flood_under_loss() {
    for (seed, loss_seed, p) in [(1u64, 42u64, 0.2f64), (9, 7, 0.35), (31, 3, 0.1)] {
        let lossy_pruned = run_traced(pruned(), Some((p, loss_seed)), seed);
        let lossy_flood = run_traced(MachineConfig::default(), Some((p, loss_seed)), seed);
        assert!(
            lossy_flood.machine.fabric_stats().losses > 0,
            "loss at {p} produced no drops; recovery was not exercised"
        );
        assert_matches_flood(
            &lossy_pruned,
            &lossy_flood,
            &format!("seed {seed} loss {p}"),
        );
    }
}
