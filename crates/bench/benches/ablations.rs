//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * optimistic vs regular locking as contention rises (the
//!   usage-frequency history's job);
//! * EWMA threshold sweep;
//! * the simulation cost of the Figure 6 safety mechanisms (hardware
//!   blocking, insharing suspension) on a rollback-heavy workload;
//! * tree multicast vs unicast fan-out (link traversals and wall time).

use sesame_bench::Harness;
use sesame_core::OptimisticConfig;
use sesame_dsm::MachineConfig;
use sesame_net::{Fabric, LinkTiming, MeshTorus2d, MulticastRoute, NodeId};
use sesame_sim::{SimDur, SimTime};
use sesame_workloads::contention::{run_contention, ContentionConfig};

fn bench_contention_sweep() {
    let group = Harness::group("ablation_contention").sample_size(10);
    for think_us in [200u64, 20, 2] {
        for (name, optimistic) in [("optimistic", true), ("regular", false)] {
            let cfg = ContentionConfig {
                contenders: 6,
                rounds: 30,
                mean_think: SimDur::from_us(think_us),
                mutex: OptimisticConfig {
                    optimistic,
                    ..OptimisticConfig::default()
                },
                ..ContentionConfig::default()
            };
            group.bench(&format!("{name}/think{think_us}us"), || {
                run_contention(cfg).mean_section_latency
            });
        }
    }
}

fn bench_threshold_sweep() {
    let group = Harness::group("ablation_history_threshold").sample_size(10);
    for threshold in [0.05, 0.30, 0.95] {
        let cfg = ContentionConfig {
            contenders: 4,
            rounds: 40,
            mean_think: SimDur::from_us(15),
            mutex: OptimisticConfig {
                threshold,
                ..OptimisticConfig::default()
            },
            ..ContentionConfig::default()
        };
        group.bench(&format!("thr{threshold}"), || {
            run_contention(cfg).mean_section_latency
        });
    }
}

fn bench_safety_mechanisms() {
    // Correctness requires both mechanisms (crates/core/tests proves it);
    // this prices their simulation overhead on a rollback-heavy workload.
    let group = Harness::group("ablation_safety_mechanisms").sample_size(10);
    for (name, hw_block, insharing_suspension) in [
        ("both-on", true, true),
        ("no-hw-block", false, true),
        ("no-suspension", true, false),
    ] {
        let cfg = ContentionConfig {
            contenders: 3,
            rounds: 20,
            mean_think: SimDur::from_us(5),
            machine: MachineConfig {
                hw_block,
                insharing_suspension,
                ..MachineConfig::default()
            },
            // With safety off, corruption is the expected observation.
            check_counter: hw_block && insharing_suspension,
            ..ContentionConfig::default()
        };
        group.bench(name, || run_contention(cfg).result.end);
    }
}

fn bench_multicast_vs_unicast() {
    let group = Harness::group("ablation_multicast");
    for nodes in [16usize, 64] {
        let topo = MeshTorus2d::with_nodes(nodes);
        let members: Vec<NodeId> = (0..nodes as u32).map(NodeId::new).collect();
        let tree = MulticastRoute::flood(&topo, NodeId::new(0), &members);
        let mut arrivals = Vec::new();
        // Traversal counts are the figure of merit; print once.
        let mut mc = Fabric::new(LinkTiming::paper_1994());
        mc.multicast_route_into(SimTime::ZERO, &tree, 64, &mut arrivals);
        let mut uc = Fabric::new(LinkTiming::paper_1994());
        for &m in &members[1..] {
            uc.unicast(SimTime::ZERO, &topo, NodeId::new(0), m, 64);
        }
        eprintln!(
            "multicast ablation at {nodes} nodes: tree {} vs unicast {} link traversals",
            mc.stats().link_traversals,
            uc.stats().link_traversals
        );
        group.bench(&format!("tree/{nodes}"), || {
            let mut f = Fabric::new(LinkTiming::paper_1994());
            f.multicast_route_into(SimTime::ZERO, &tree, 64, &mut arrivals);
            f.stats().link_traversals
        });
        group.bench(&format!("unicast-fanout/{nodes}"), || {
            let mut f = Fabric::new(LinkTiming::paper_1994());
            for &m in &members[1..] {
                f.unicast(SimTime::ZERO, &topo, NodeId::new(0), m, 64);
            }
            f.stats().link_traversals
        });
    }
}

fn main() {
    bench_contention_sweep();
    bench_threshold_sweep();
    bench_safety_mechanisms();
    bench_multicast_vs_unicast();
}
