//! The DSM machine: nodes, programs, a memory model, and the interconnect,
//! assembled into one deterministic simulation.
//!
//! The [`Machine`] is a single [`Actor`] whose messages are
//! `(node, DsmEvent)` pairs: packet arrivals, computation completions, and
//! timers. On every event it runs the memory [`Model`]'s protocol logic
//! and/or the node's [`Program`], buffering follow-on work so that
//! same-timestamp cascades resolve deterministically.
//!
//! The [`Model`] trait is the seam between this substrate and the
//! consistency protocols: group write consistency lives in this crate
//! ([`GwcModel`](crate::GwcModel)); entry and release consistency live in
//! `sesame-consistency`. All of them speak the shared
//! [`Packet`](crate::Packet) wire protocol, so identical programs run under
//! every model.

use std::collections::VecDeque;

use sesame_net::{CauseId, ContentionModel, Fabric, LinkTiming, MulticastRoute, NodeId, Topology};
use sesame_sim::{
    Actor, ActorId, CauseOp, Context, RunOutcome, SimDur, SimTime, Simulation, TimeWeighted,
    TraceDetail, TraceRecorder,
};

use crate::causal::CauseCtx;
use crate::protocol::sizes;
use crate::{
    Action, AppEvent, GroupId, GroupTable, LocalMemory, ModelAction, NodeApi, Packet, PacketKind,
    Program,
};

/// Machine-level events targeted at one node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DsmEvent {
    /// Deliver [`AppEvent::Started`] (scheduled once per node at time
    /// zero).
    Start,
    /// A packet arrived off the interconnect.
    Packet(Packet),
    /// A modeled computation phase finished.
    ComputeDone {
        /// Correlation tag from [`NodeApi::compute`].
        tag: u64,
    },
    /// A timer fired.
    TimerFired {
        /// Correlation tag from [`NodeApi::set_timer`].
        tag: u64,
    },
    /// A memory-model timer fired (protocol timeouts such as grant
    /// watchdogs), routed to [`Model::on_timer`].
    ModelTimer {
        /// Correlation tag from [`Mx::set_model_timer`].
        tag: u64,
    },
    /// One wavefront of a pruned-multicast fan-out: the same payload
    /// arriving at several members at one instant, delivered as a single
    /// queue event instead of one event per member
    /// ([`MachineConfig::pruned_multicast`]). The member list is an index
    /// into the group's [`MulticastRoute`] wave arena: under
    /// contention-free, loss-free timing every fan-out over a route reaches
    /// exactly the topology-static wave at its depth-determined instant, so
    /// the event only needs `(group, wave)` — dispatch iterates the
    /// precomputed slice and allocates nothing. Members are processed in
    /// declared group-member order, each with its own application-event
    /// cascade, exactly as if they had been separate events at this time.
    McastWave {
        /// The group whose cached route holds the wave arena.
        group: GroupId,
        /// Index of the wavefront within the route
        /// ([`MulticastRoute::wave`]).
        wave: u32,
        /// The shared packet; [`Packet::to`] is overridden per member.
        pkt: Packet,
    },
}

/// The message type of the machine actor.
pub type MachineMsg = (NodeId, DsmEvent);

/// Feature toggles for protocol ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// The paper's Figure 6 hardware blocking: sharing interfaces drop
    /// root-echoed copies of their own mutex-group data writes.
    pub hw_block: bool,
    /// Honor insharing suspension requests (Figure 4/5); disabling it
    /// demonstrates the lost-update hazard the paper describes.
    pub insharing_suspension: bool,
    /// Which [`MulticastRoute`] each group multicasts over: the
    /// member-pruned [`MulticastRoute::build`] when on, the
    /// [`MulticastRoute::flood`] spanning every topology position when
    /// off.
    ///
    /// Off by default, because the paper's figures bill the flood: under
    /// cut-through timing member arrival *times* are identical either way,
    /// but pruned routes bill only member-path edges to
    /// `link_traversals`/`ser_ns`, where the flood bills `positions - 1`
    /// edges per multicast. Turn it on for large sparse meshes (the
    /// 100k-node scenario), where per-group flooding is quadratic in
    /// machine size.
    ///
    /// The choice also shapes dispatch. A pruned route on a
    /// contention-free, loss-free fabric with a nonzero hop latency
    /// delivers each depth wave as one [`DsmEvent::McastWave`] queue event.
    /// Every other multicast — the flood always, and a pruned route under
    /// loss or store-and-forward links — queues one [`DsmEvent::Packet`]
    /// per member. The flood keeps per-member events on purpose: the
    /// `sesame-check` explorer treats each flood delivery as a packet on
    /// its own `(root, member)` link whose delivery order it permutes, and
    /// the recorded goldens count flood deliveries one queue event each.
    pub pruned_multicast: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            hw_block: true,
            insharing_suspension: true,
            pruned_multicast: false,
        }
    }
}

/// The memory model's view of the machine during protocol processing.
///
/// Provides local memories, group metadata, packet transmission with
/// fabric-computed arrival times, and application-event delivery.
pub struct Mx<'a, 'b> {
    now: SimTime,
    mems: &'a mut [LocalMemory],
    groups: &'a GroupTable,
    topo: &'a dyn Topology,
    routes: &'a mut [Option<MulticastRoute>],
    fabric: &'a mut Fabric,
    cfg: &'a MachineConfig,
    ctx: &'a mut Context<'b, MachineMsg>,
    app_outbox: &'a mut VecDeque<(NodeId, AppEvent, CauseId)>,
    causes: &'a mut CauseCtx,
    arrivals: &'a mut Vec<(NodeId, SimTime)>,
}

impl Mx<'_, '_> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes in the machine.
    pub fn node_count(&self) -> usize {
        self.mems.len()
    }

    /// The local memory of `node`.
    pub fn mem(&mut self, node: NodeId) -> &mut LocalMemory {
        &mut self.mems[node.index()]
    }

    /// The sharing-group table.
    pub fn groups(&self) -> &GroupTable {
        self.groups
    }

    /// Protocol feature toggles.
    pub fn config(&self) -> &MachineConfig {
        self.cfg
    }

    /// Sends a packet; it arrives at the fabric-computed time (self-sends
    /// arrive after one serialization delay).
    pub fn send(&mut self, pkt: Packet) {
        self.send_after(SimDur::ZERO, pkt);
    }

    /// Sends a packet after an extra processing delay at the sender —
    /// software protocol-handler occupancy in models that are not
    /// hardware-assisted.
    pub fn send_after(&mut self, extra: SimDur, mut pkt: Packet) {
        let at = self
            .fabric
            .unicast(self.now + extra, self.topo, pkt.from, pkt.to, pkt.bytes);
        if self.ctx.tracing() {
            // Canonical message-in-flight event (telemetry builds per-node
            // packet/hop counters and flight spans from it): `arrival_ns` is
            // the fabric-computed arrival time in nanoseconds.
            let hops = self.topo.hops(pkt.from, pkt.to);
            self.ctx.trace_for(
                pkt.from.index(),
                "pkt-send",
                TraceDetail::Packet {
                    from: pkt.from.get(),
                    to: pkt.to.get(),
                    bytes: pkt.bytes,
                    hops,
                    arrival_ns: at.as_nanos(),
                },
            );
        }
        // Stamp the packet with a fresh send id chaining from the current
        // cause; the receiver restores it as its causal context.
        pkt.cause = self.causes.stage(self.ctx, pkt.from, CauseOp::Send);
        let target = self.ctx.self_id();
        self.ctx
            .send_at(target, at, (pkt.to, DsmEvent::Packet(pkt)));
    }

    /// Multicasts one sequenced write down `group`'s multicast route to
    /// every member; each member's copy arrives at its fabric-computed
    /// time. The root member (if any) receives its echo immediately.
    ///
    /// A group's [`MulticastRoute`] is built lazily on its first multicast
    /// and cached: the flood or the member-pruned route, per
    /// [`MachineConfig::pruned_multicast`]. Both are pure functions of the
    /// topology and the validated group specs, so lazy construction cannot
    /// perturb determinism.
    pub fn multicast(&mut self, group: GroupId, bytes: u32, kind: PacketKind) {
        let g = self.groups.group(group);
        let root = g.root();
        let target = self.ctx.self_id();
        let pruned = self.cfg.pruned_multicast;
        let route = self.routes[group.index()].get_or_insert_with(|| {
            if pruned {
                MulticastRoute::build(self.topo, root, g.members())
            } else {
                MulticastRoute::flood(self.topo, root, g.members())
            }
        });
        // Static waves: under contention-free, loss-free timing with a
        // nonzero hop latency, a member's arrival instant is a pure function
        // of its hop depth — so the route's topology-static wave arena IS
        // the fan-out, and nothing is materialized per multicast. (Nonzero
        // hop latency guarantees distinct depths land at distinct instants,
        // so depth grouping and arrival-time grouping coincide; zero loss
        // means no member's delivery depends on a loss roll.)
        if pruned
            && self.fabric.contention() == ContentionModel::None
            && self.fabric.loss_probability() == 0.0
            && self.fabric.timing().hop_latency > SimDur::ZERO
        {
            self.fabric.bill_multicast_route(route, bytes);
            let timing = self.fabric.timing();
            let depth_at = |d: u32| {
                // The root echo (depth 0) is local and immediate; depth
                // d >= 1 costs one serialization plus d hop latencies.
                if d == 0 {
                    self.now
                } else {
                    self.now + timing.transfer(d, bytes)
                }
            };
            if self.ctx.tracing() {
                // Canonical multicast event: `last_ns` is the latest member
                // arrival, the end of the whole fan-out interval.
                let last = depth_at(route.max_depth());
                self.ctx.trace_for(
                    root.index(),
                    "pkt-mcast",
                    TraceDetail::Multicast {
                        group: group.get(),
                        bytes,
                        members: route.member_count() as u32,
                        last_ns: last.as_nanos(),
                    },
                );
            }
            // One mcast id covers the whole fan-out: every member's packet
            // carries it, so each arrival chains back to this decision.
            let cause = self.causes.stage(self.ctx, root, CauseOp::Mcast);
            for w in 0..route.wave_count() {
                let at = depth_at(route.wave_depth(w));
                let wave = route.wave(w);
                let pkt = Packet {
                    from: root,
                    to: wave[0],
                    bytes,
                    kind,
                    cause,
                };
                let ev = if wave.len() == 1 {
                    DsmEvent::Packet(pkt)
                } else {
                    DsmEvent::McastWave {
                        group,
                        wave: w as u32,
                        pkt,
                    }
                };
                self.ctx.send_at(target, at, (pkt.to, ev));
            }
            return;
        }
        // One packet event per member: the fabric walks the route for
        // per-member arrival times (store-and-forward queueing makes them
        // depend on earlier traffic), and each member rolls its own loss.
        self.fabric
            .multicast_route_into(self.now, route, bytes, self.arrivals);
        if self.ctx.tracing() {
            // Canonical multicast event: `last_ns` is the latest member
            // arrival, the end of the whole fan-out interval.
            let last = self
                .arrivals
                .iter()
                .map(|&(_, at)| at)
                .max()
                .unwrap_or(self.now);
            self.ctx.trace_for(
                root.index(),
                "pkt-mcast",
                TraceDetail::Multicast {
                    group: group.get(),
                    bytes,
                    members: self.arrivals.len() as u32,
                    last_ns: last.as_nanos(),
                },
            );
        }
        let cause = self.causes.stage(self.ctx, root, CauseOp::Mcast);
        for i in 0..self.arrivals.len() {
            let (member, at) = self.arrivals[i];
            // Per-member loss (the root's own echo is a local operation and
            // never lost); members recover via nack-triggered
            // retransmission.
            if member != root && self.fabric.roll_loss() {
                continue;
            }
            let pkt = Packet {
                from: root,
                to: member,
                bytes,
                kind,
                cause,
            };
            self.ctx
                .send_at(target, at, (member, DsmEvent::Packet(pkt)));
        }
    }

    /// Schedules a protocol timer: [`Model::on_timer`] fires at `node`
    /// after `delay`.
    pub fn set_model_timer(&mut self, node: NodeId, delay: SimDur, tag: u64) {
        self.causes.park_model_timer(node, tag);
        let target = self.ctx.self_id();
        self.ctx.send_at(
            target,
            self.now + delay,
            (node, DsmEvent::ModelTimer { tag }),
        );
    }

    /// Queues an application event for delivery to `node`'s program in the
    /// current cascade (zero simulated delay). The event captures the
    /// delivering protocol action's causal context.
    pub fn deliver(&mut self, node: NodeId, event: AppEvent) {
        self.app_outbox
            .push_back((node, event, self.causes.current()));
    }

    /// Records a causal point attributed to `node`: a fresh id chaining
    /// from the current cause, which becomes the new current cause. No-op
    /// (returns [`CauseId::NONE`]) when tracing is detached.
    pub fn cause_point(&mut self, node: NodeId, op: CauseOp) -> CauseId {
        self.causes.point(self.ctx, node, op)
    }

    /// Records a trace entry attributed to `node`.
    pub fn trace(&mut self, node: NodeId, kind: &'static str, detail: TraceDetail) {
        self.ctx.trace_for(node.index(), kind, detail);
    }

    /// Whether tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.ctx.tracing()
    }
}

/// A memory consistency model: the protocol logic between programs and the
/// interconnect.
pub trait Model {
    /// A short human-readable model name (for reports).
    fn name(&self) -> &'static str;

    /// Handles a program-issued action on `node`.
    fn on_action(&mut self, node: NodeId, action: ModelAction, mx: &mut Mx<'_, '_>);

    /// Handles a protocol packet arriving at `node`.
    fn on_packet(&mut self, node: NodeId, pkt: Packet, mx: &mut Mx<'_, '_>);

    /// Handles a protocol timer set with [`Mx::set_model_timer`]. The
    /// default ignores it.
    fn on_timer(&mut self, node: NodeId, tag: u64, mx: &mut Mx<'_, '_>) {
        let _ = (node, tag, mx);
    }

    /// An order-independent hash of the model's protocol state, used by the
    /// `sesame-check` explorer to recognize revisited states. `None` (the
    /// default) means the model does not support state-revisit pruning.
    fn digest(&self) -> Option<u64> {
        None
    }
}

impl<M: Model + ?Sized> Model for Box<M> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn on_action(&mut self, node: NodeId, action: ModelAction, mx: &mut Mx<'_, '_>) {
        (**self).on_action(node, action, mx)
    }
    fn on_packet(&mut self, node: NodeId, pkt: Packet, mx: &mut Mx<'_, '_>) {
        (**self).on_packet(node, pkt, mx)
    }
    fn on_timer(&mut self, node: NodeId, tag: u64, mx: &mut Mx<'_, '_>) {
        (**self).on_timer(node, tag, mx)
    }
    fn digest(&self) -> Option<u64> {
        (**self).digest()
    }
}

/// Per-node CPU accounting: busy intervals and total useful work.
///
/// Work is credited when a compute phase *completes* (or the elapsed part
/// when it is cancelled), so a run stopped mid-phase never counts work
/// that was not performed.
#[derive(Debug, Clone)]
pub struct CpuMeter {
    busy_until: SimTime,
    current: Option<(SimTime, SimTime)>,
    total_busy: SimDur,
    meter: TimeWeighted,
}

impl Default for CpuMeter {
    fn default() -> Self {
        CpuMeter {
            busy_until: SimTime::ZERO,
            current: None,
            total_busy: SimDur::ZERO,
            meter: TimeWeighted::new(SimTime::ZERO, 0.0),
        }
    }
}

impl CpuMeter {
    fn start(&mut self, now: SimTime, dur: SimDur) {
        assert!(
            now >= self.busy_until,
            "program started a compute phase while one is in flight"
        );
        self.busy_until = now + dur;
        self.current = Some((now, now + dur));
        self.meter.set(now, 1.0);
    }

    fn finish(&mut self, now: SimTime) {
        if let Some((start, end)) = self.current {
            if now >= end {
                self.total_busy += end - start;
                self.current = None;
                self.meter.set(now, 0.0);
            }
        }
    }

    /// Aborts the current busy interval: the elapsed (occupied) portion
    /// counts, the remaining portion does not.
    fn cancel(&mut self, now: SimTime) {
        if let Some((start, _end)) = self.current.take() {
            self.total_busy += now.saturating_since(start);
            self.busy_until = now;
            self.meter.set(now, 0.0);
        }
    }

    /// Total CPU-busy time accumulated.
    pub fn total_busy(&self) -> SimDur {
        self.total_busy
    }

    /// Busy fraction (efficiency) over `[0, end]`.
    pub fn efficiency(&self, end: SimTime) -> f64 {
        self.meter.average(end)
    }
}

/// The assembled DSM machine.
pub struct Machine<M: Model> {
    topo: Box<dyn Topology>,
    fabric: Fabric,
    groups: GroupTable,
    /// Multicast routes, built lazily per group on its first multicast
    /// ([`MachineConfig::pruned_multicast`] picks the shape). Group ids are
    /// dense, so this is a direct-indexed vector: wave dispatch resolves
    /// its route with one bounds-checked load instead of a hash probe per
    /// event.
    routes: Vec<Option<MulticastRoute>>,
    mems: Vec<LocalMemory>,
    cpus: Vec<CpuMeter>,
    programs: Vec<Box<dyn Program>>,
    model: M,
    cfg: MachineConfig,
    causes: CauseCtx,
    /// Arrival-list scratch reused by every multicast, so steady-state
    /// dispatch performs no per-call allocation.
    arrivals: Vec<(NodeId, SimTime)>,
    /// Wave-member scratch for [`DsmEvent::McastWave`] dispatch: the wave
    /// slice is copied out of the route arena so member delivery can borrow
    /// the machine mutably.
    wave_scratch: Vec<NodeId>,
    /// The application-event cascade queue, a field so its capacity
    /// survives across events.
    app_q: VecDeque<(NodeId, AppEvent, CauseId)>,
    /// Program-action scratch reused by every cascade step.
    actions: Vec<Action>,
}

impl<M: Model> std::fmt::Debug for Machine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("nodes", &self.mems.len())
            .field("groups", &self.groups.len())
            .field("model", &self.model.name())
            .finish()
    }
}

impl<M: Model> Machine<M> {
    /// Assembles a machine.
    ///
    /// # Panics
    ///
    /// Panics if the number of programs does not equal the topology's CPU
    /// count, or if a group root is not a valid topology position.
    pub fn new(
        topo: Box<dyn Topology>,
        timing: LinkTiming,
        groups: GroupTable,
        programs: Vec<Box<dyn Program>>,
        model: M,
        cfg: MachineConfig,
    ) -> Self {
        assert_eq!(
            programs.len(),
            topo.len(),
            "one program per CPU node is required"
        );
        // Routes are built lazily (on a group's first multicast),
        // but root validity is still checked eagerly so a bad group spec
        // fails at assembly, not mid-run.
        for g in groups.iter() {
            assert!(
                g.root().index() < topo.positions(),
                "group {} root {} is not a valid topology position",
                g.id(),
                g.root()
            );
        }
        let n = topo.len();
        let n_groups = groups.len();
        Machine {
            topo,
            fabric: Fabric::new(timing),
            groups,
            routes: (0..n_groups).map(|_| None).collect(),
            mems: vec![LocalMemory::new(); n],
            cpus: vec![CpuMeter::default(); n],
            programs,
            model,
            cfg,
            causes: CauseCtx::new(),
            arrivals: Vec::new(),
            wave_scratch: Vec::new(),
            app_q: VecDeque::new(),
            actions: Vec::new(),
        }
    }

    /// Number of CPU nodes.
    pub fn node_count(&self) -> usize {
        self.mems.len()
    }

    /// The local memory of `node` (post-run inspection, or pre-run
    /// initialization of shared variables).
    pub fn mem(&self, node: NodeId) -> &LocalMemory {
        &self.mems[node.index()]
    }

    /// Mutable local memory access (pre-run initialization).
    pub fn mem_mut(&mut self, node: NodeId) -> &mut LocalMemory {
        &mut self.mems[node.index()]
    }

    /// Initializes `var` to `value` in every node's local copy — how shared
    /// segments (and lock FREE sentinels) are set up before a run.
    ///
    /// Writes the value into each memory, so cost is O(nodes). Bulk
    /// initialization of a freshly built machine should prefer
    /// [`Machine::init_image`], which shares one sorted image across all
    /// nodes instead.
    pub fn init_var(&mut self, var: crate::VarId, value: crate::Word) {
        for m in &mut self.mems {
            m.write(var, value);
        }
    }

    /// Installs the pre-run initialization image: `pairs` applied in order
    /// (later entries win), observed by every node's memory. Equivalent to
    /// calling [`Machine::init_var`] per entry, but O(pairs log pairs +
    /// nodes) instead of O(pairs × nodes): all memories share one sorted
    /// image and consult it on local misses, so a 100k-group mesh no
    /// longer materializes every lock sentinel in every node.
    ///
    /// # Panics
    ///
    /// Panics if any node memory has already been written (the image must
    /// be installed before initialization writes, not after).
    pub fn init_image(&mut self, pairs: &[(crate::VarId, crate::Word)]) {
        if pairs.is_empty() {
            return;
        }
        let mut image = pairs.to_vec();
        // Stable sort keeps duplicate vars in application order; collapse
        // each run to its final value.
        image.sort_by_key(|&(v, _)| v);
        let mut merged: Vec<(crate::VarId, crate::Word)> = Vec::with_capacity(image.len());
        for (var, value) in image {
            match merged.last_mut() {
                Some(last) if last.0 == var => last.1 = value,
                _ => merged.push((var, value)),
            }
        }
        let base: std::sync::Arc<[(crate::VarId, crate::Word)]> = merged.into();
        for m in &mut self.mems {
            m.set_base(base.clone());
        }
    }

    /// The CPU meter of `node`.
    pub fn cpu(&self, node: NodeId) -> &CpuMeter {
        &self.cpus[node.index()]
    }

    /// The sharing-group table (e.g. for conflict-footprint computation).
    pub fn groups(&self) -> &GroupTable {
        &self.groups
    }

    /// Combined digest of the machine's logical state — model protocol
    /// state, every node's local memory, and every program's state — for
    /// the `sesame-check` explorer's state-revisit pruning. `None` if the
    /// model or any program does not implement digests.
    ///
    /// Timestamps (CPU meters, fabric statistics) are deliberately
    /// excluded: under the explorer's time-free enabledness semantics they
    /// never influence future transitions, and including them would make
    /// every interleaving look like a fresh state.
    pub fn state_digest(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.model.digest()?.hash(&mut h);
        for (i, mem) in self.mems.iter().enumerate() {
            let mut words: Vec<(u32, crate::Word)> =
                mem.iter().map(|(v, w)| (v.get(), w)).collect();
            words.sort_unstable();
            (i, words).hash(&mut h);
        }
        for p in &self.programs {
            p.digest()?.hash(&mut h);
        }
        Some(h.finish())
    }

    /// The interconnect fabric (to inspect its loss and contention
    /// configuration, e.g. the schedule explorer's preconditions).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The interconnect fabric (to set loss or contention before a run, or
    /// to read traffic stats after).
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// Traffic statistics.
    pub fn fabric_stats(&self) -> sesame_net::FabricStats {
        self.fabric.stats()
    }

    /// The memory model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable memory-model access (pre-run configuration).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// The program running on `node`, downcast-free access for tests that
    /// own the concrete type is available via [`Machine::into_parts`].
    pub fn program(&self, node: NodeId) -> &dyn Program {
        self.programs[node.index()].as_ref()
    }

    /// Sum of all nodes' busy time (useful work), for network-power
    /// computation.
    pub fn total_busy(&self) -> SimDur {
        self.cpus.iter().map(|c| c.total_busy()).sum()
    }

    /// Decomposes the machine for post-run inspection of programs.
    pub fn into_parts(self) -> (Vec<Box<dyn Program>>, Vec<LocalMemory>, M) {
        (self.programs, self.mems, self.model)
    }

    fn with_mx<R>(
        &mut self,
        ctx: &mut Context<'_, MachineMsg>,
        app_q: &mut VecDeque<(NodeId, AppEvent, CauseId)>,
        f: impl FnOnce(&mut M, &mut Mx<'_, '_>) -> R,
    ) -> R {
        let Machine {
            topo,
            fabric,
            groups,
            routes,
            mems,
            model,
            cfg,
            causes,
            arrivals,
            ..
        } = self;
        let mut mx = Mx {
            now: ctx.now(),
            mems,
            groups,
            topo: topo.as_ref(),
            routes,
            fabric,
            cfg,
            ctx,
            app_outbox: app_q,
            causes,
            arrivals,
        };
        f(model, &mut mx)
    }

    fn drain(
        &mut self,
        app_q: &mut VecDeque<(NodeId, AppEvent, CauseId)>,
        ctx: &mut Context<'_, MachineMsg>,
    ) {
        while let Some((node, event, cause)) = app_q.pop_front() {
            self.causes.set_current(cause);
            if ctx.tracing() {
                // Canonical lock-transfer events for trace-level checkers
                // (`sesame-verify`): a node now believes it holds / has
                // given up the lock.
                match &event {
                    AppEvent::Acquired { lock } => {
                        ctx.trace_for(
                            node.index(),
                            "ev-acquired",
                            TraceDetail::Var { var: lock.get() },
                        );
                    }
                    AppEvent::Released { lock } => {
                        ctx.trace_for(
                            node.index(),
                            "ev-released",
                            TraceDetail::Var { var: lock.get() },
                        );
                    }
                    _ => {}
                }
            }
            if let AppEvent::Acquired { .. } = &event {
                // The program's actions inside the critical section chain
                // from the acquisition, not from the delivering apply.
                self.causes.point(ctx, node, CauseOp::Acquired);
            }
            // The action buffer is a machine field so its capacity survives
            // across cascade steps; it is taken out while in use because
            // the loop body re-borrows the machine (`with_mx`).
            let mut actions = std::mem::take(&mut self.actions);
            debug_assert!(actions.is_empty());
            {
                let mem = &self.mems[node.index()];
                let mut api = NodeApi::new(node, ctx.now(), mem, &mut actions, ctx.tracing());
                self.programs[node.index()].on_event(event, &mut api);
            }
            for action in actions.drain(..) {
                match action {
                    Action::Model(ma) => {
                        if ctx.tracing() {
                            // Canonical shared-access events, in program
                            // issue order (interleaved with `acc-read`
                            // records pushed by `NodeApi::read`).
                            match &ma {
                                ModelAction::Write { var, value } => ctx.trace_for(
                                    node.index(),
                                    "acc-write",
                                    TraceDetail::VarVal {
                                        var: var.get(),
                                        val: *value,
                                    },
                                ),
                                ModelAction::WriteLocal { var, value } => ctx.trace_for(
                                    node.index(),
                                    "acc-write-local",
                                    TraceDetail::VarVal {
                                        var: var.get(),
                                        val: *value,
                                    },
                                ),
                                ModelAction::Acquire { lock } => ctx.trace_for(
                                    node.index(),
                                    "lock-acquire",
                                    TraceDetail::Var { var: lock.get() },
                                ),
                                ModelAction::Release { lock } => ctx.trace_for(
                                    node.index(),
                                    "lock-release",
                                    TraceDetail::Var { var: lock.get() },
                                ),
                                _ => {}
                            }
                        }
                        match &ma {
                            ModelAction::Write { .. } => {
                                self.causes.point(ctx, node, CauseOp::Write);
                            }
                            ModelAction::Acquire { .. } => {
                                self.causes.point(ctx, node, CauseOp::Acquire);
                            }
                            ModelAction::Release { .. } => {
                                self.causes.point(ctx, node, CauseOp::Release);
                            }
                            _ => {}
                        }
                        self.with_mx(ctx, app_q, |model, mx| model.on_action(node, ma, mx));
                    }
                    Action::Compute { dur, tag } => {
                        self.cpus[node.index()].start(ctx.now(), dur);
                        let id = self.causes.stage(ctx, node, CauseOp::Compute);
                        self.causes.park_compute(node, tag, id);
                        ctx.send_self(dur, (node, DsmEvent::ComputeDone { tag }));
                    }
                    Action::CancelCompute => {
                        self.cpus[node.index()].cancel(ctx.now());
                    }
                    Action::Timer { dur, tag } => {
                        self.causes.park_timer(node, tag);
                        ctx.send_self(dur, (node, DsmEvent::TimerFired { tag }));
                    }
                    Action::SendMessage {
                        to,
                        payload_bytes,
                        tag,
                    } => {
                        let bytes = payload_bytes + sizes::APP_HEADER;
                        let mut pkt = Packet {
                            from: node,
                            to,
                            bytes,
                            kind: PacketKind::App { tag },
                            cause: CauseId::NONE,
                        };
                        let at =
                            self.fabric
                                .unicast(ctx.now(), self.topo.as_ref(), node, to, bytes);
                        if ctx.tracing() {
                            let hops = self.topo.hops(node, to);
                            ctx.trace_for(
                                node.index(),
                                "pkt-send",
                                TraceDetail::Packet {
                                    from: node.get(),
                                    to: to.get(),
                                    bytes,
                                    hops,
                                    arrival_ns: at.as_nanos(),
                                },
                            );
                        }
                        pkt.cause = self.causes.stage(ctx, node, CauseOp::Send);
                        let target = ctx.self_id();
                        ctx.send_at(target, at, (to, DsmEvent::Packet(pkt)));
                    }
                    Action::Stop => ctx.stop(),
                    Action::Trace { kind, detail } => {
                        ctx.trace_for(node.index(), kind, detail);
                        // Program-level causal milestones: rollbacks and
                        // section completions announce themselves through
                        // trace actions; pair them with a causal point so
                        // chains run through them.
                        match kind {
                            "opt-rollback" => {
                                self.causes.point(ctx, node, CauseOp::Rollback);
                            }
                            "mutex-complete" => {
                                self.causes.point(ctx, node, CauseOp::Complete);
                            }
                            _ => {}
                        }
                    }
                }
            }
            self.actions = actions;
        }
    }
}

impl<M: Model> Actor for Machine<M> {
    type Msg = MachineMsg;

    fn handle(&mut self, (node, event): MachineMsg, ctx: &mut Context<'_, MachineMsg>) {
        // The cascade queue is a machine field so its capacity survives
        // across events (steady-state dispatch allocates nothing); it is
        // taken out while in use because handling re-borrows the machine.
        let mut app_q = std::mem::take(&mut self.app_q);
        debug_assert!(app_q.is_empty());
        match event {
            DsmEvent::Start => {
                // Spontaneous: a root of the causal forest.
                self.causes.set_current(CauseId::NONE);
                app_q.push_back((node, AppEvent::Started, CauseId::NONE));
            }
            DsmEvent::ComputeDone { tag } => {
                self.cpus[node.index()].finish(ctx.now());
                self.causes.resume_compute(node, tag);
                app_q.push_back((node, AppEvent::ComputeDone { tag }, self.causes.current()));
            }
            DsmEvent::TimerFired { tag } => {
                self.causes.resume_timer(node, tag);
                app_q.push_back((node, AppEvent::TimerFired { tag }, self.causes.current()));
            }
            DsmEvent::Packet(pkt) => {
                // The packet carried its sender's causal context.
                self.causes.set_current(pkt.cause);
                self.with_mx(ctx, &mut app_q, |model, mx| model.on_packet(node, pkt, mx));
            }
            DsmEvent::McastWave { group, wave, pkt } => {
                // One queue event carries a whole fan-out wavefront; each
                // member still gets its own packet delivery and cascade, in
                // declared member order, as if they were separate events at
                // this instant. The wave slice is copied into scratch first
                // because delivering to a member borrows the whole machine
                // mutably.
                let route = self.routes[group.index()]
                    .as_ref()
                    .expect("McastWave event for a group whose route was never built");
                self.wave_scratch.clear();
                self.wave_scratch
                    .extend_from_slice(route.wave(wave as usize));
                for i in 0..self.wave_scratch.len() {
                    let m = self.wave_scratch[i];
                    self.causes.set_current(pkt.cause);
                    let p = Packet { to: m, ..pkt };
                    self.with_mx(ctx, &mut app_q, |model, mx| model.on_packet(m, p, mx));
                    self.drain(&mut app_q, ctx);
                }
            }
            DsmEvent::ModelTimer { tag } => {
                self.causes.resume_model_timer(node, tag);
                self.with_mx(ctx, &mut app_q, |model, mx| model.on_timer(node, tag, mx));
            }
        }
        self.drain(&mut app_q, ctx);
        self.app_q = app_q;
    }
}

/// Options for [`run`].
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// RNG seed for the whole run.
    pub seed: u64,
    /// Whether to record a trace.
    pub tracing: bool,
    /// Hard wall on simulated time.
    pub until: SimTime,
    /// Runaway protection: maximum events processed.
    pub event_limit: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 1,
            tracing: false,
            until: SimTime::MAX,
            event_limit: sesame_sim::DEFAULT_EVENT_LIMIT,
        }
    }
}

/// The outcome of one machine run.
#[derive(Debug)]
pub struct RunResult<M: Model> {
    /// The machine, for memory / meter / model inspection.
    pub machine: Machine<M>,
    /// The recorded trace (empty unless tracing was enabled).
    pub trace: TraceRecorder,
    /// Simulated completion time (makespan).
    pub end: SimTime,
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Events processed.
    pub events: u64,
}

impl<M: Model> RunResult<M> {
    /// Busy fraction of `node` over the whole run.
    pub fn efficiency(&self, node: NodeId) -> f64 {
        self.machine.cpu(node).efficiency(self.end)
    }

    /// Network power: average efficiency times node count, equivalently
    /// total useful work divided by makespan. This is the paper's speedup
    /// metric for Figures 2 and 8.
    pub fn network_power(&self) -> f64 {
        if self.end == SimTime::ZERO {
            return 0.0;
        }
        self.machine.total_busy().as_nanos() as f64 / self.end.as_nanos() as f64
    }
}

/// Runs a machine to completion (or to the configured limits), scheduling
/// [`AppEvent::Started`] on every node at time zero.
pub fn run<M: Model>(machine: Machine<M>, opts: RunOptions) -> RunResult<M> {
    run_observed(machine, opts, None)
}

/// Like [`run`], but with an optional online [`sesame_sim::TraceObserver`]
/// that sees
/// every trace record as it is made (e.g. the `sesame-verify` checkers).
/// The observer receives records even when `opts.tracing` is false, in
/// which case no in-memory trace is retained.
pub fn run_observed<M: Model>(
    machine: Machine<M>,
    opts: RunOptions,
    observer: Option<std::rc::Rc<std::cell::RefCell<dyn sesame_sim::TraceObserver>>>,
) -> RunResult<M> {
    let n = machine.node_count();
    let mut sim = Simulation::new(vec![machine], opts.seed);
    sim.set_tracing(opts.tracing);
    sim.set_event_limit(opts.event_limit);
    if let Some(observer) = observer {
        sim.set_trace_observer(observer);
    }
    for i in 0..n {
        sim.schedule(
            SimTime::ZERO,
            ActorId::new(0),
            (NodeId::new(i as u32), DsmEvent::Start),
        );
    }
    let outcome = sim.run_until(opts.until);
    let end = sim.now();
    let events = sim.events_processed();
    let trace = sim.trace().clone();
    let machine = sim.into_actors().pop().expect("machine actor");
    RunResult {
        machine,
        trace,
        end,
        outcome,
        events,
    }
}
