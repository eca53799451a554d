//! Sampled host-time probes at the public trait boundaries where the
//! crates meet: `Actor` (sesame-sim → sesame-dsm), `Model` (sesame-dsm →
//! the GWC / entry models), `Program` (sesame-dsm → sesame-workloads),
//! `Topology` (sesame-dsm → sesame-net) and `TraceObserver` (sesame-sim →
//! sesame-telemetry / sesame-verify).
//!
//! Every call is counted exactly; each boundary times about one call in
//! [`SAMPLE_EVERY`], chosen by a seeded pseudo-random draw so the timed
//! calls do not line up with the periodic structure of a workload (a
//! multicast wave delivering to a fixed number of members, say). Each
//! timed call is a span that records its event id and the boundary it is
//! nested in; spans stay in memory until the rep ends, when [`Probe::take`]
//! scales each boundary's timed calls up to all of its calls and subtracts
//! nested boundaries to get each layer's self time, with its standard
//! error.
//!
//! Timing a call and everything nested in it would inflate the timed
//! calls (every clock read serialises the pipeline); timing boundaries
//! independently keeps the clock cost to two reads per timed call, and a
//! calibrated per-read cost is subtracted.
//!
//! The wrappers forward every call unchanged, so a traced run simulates
//! exactly what the untraced run does (the reference check enforces it).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sesame_dsm::{
    AppEvent, DsmEvent, Machine, MachineMsg, Model, ModelAction, Mx, NodeApi, Packet, Program,
    RunOptions,
};
use sesame_net::{LinkId, NodeId, Topology};
use sesame_sim::{
    Actor, ActorId, Context, RunOutcome, SimTime, Simulation, TraceEntry, TraceObserver,
};

/// About one call in this many is timed at each boundary.
pub const SAMPLE_EVERY: u64 = 64;

/// `Simulation::pending` copies and sorts the whole queue, so the pending
/// depth is read only once per this many events.
const PENDING_EVERY: u64 = 1 << 16;

/// Host-time layers, named after the crate whose code runs inside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Simulation::step` minus the actor call: queue pop and push.
    Engine = 0,
    /// `Actor::handle` on the machine minus nested model, program and
    /// topology calls.
    Dispatch = 1,
    /// `Model` calls on the GWC model, minus nested routing.
    Gwc = 2,
    /// `Model` calls on the entry-consistency model, minus nested routing.
    Entry = 3,
    /// `Topology::route_into` and `Topology::hops`.
    Route = 4,
    /// `Program::on_event`, including the optimistic-mutex engine the
    /// programs drive.
    Program = 5,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 6;

/// Per-layer metric names (estimate, sampling error), indexed by
/// [`Layer`].
pub const LAYER_METRICS: [(&str, &str); LAYERS] = [
    ("sim.engine_self_s", "sim.engine_self_err_s"),
    ("dsm.dispatch_self_s", "dsm.dispatch_self_err_s"),
    ("dsm.gwc_s", "dsm.gwc_err_s"),
    ("consistency.entry_s", "consistency.entry_err_s"),
    ("net.route_s", "net.route_err_s"),
    ("workloads.program_s", "workloads.program_err_s"),
];

/// The host wall clock.
// Host time is what the benchmark measures; simulated results never
// depend on it.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// The median cost of one clock read on this host, seconds.
pub fn clock_cost() -> f64 {
    let mut reads: Vec<f64> = (0..1001)
        .map(|_| {
            let t0 = now();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    reads.sort_by(f64::total_cmp);
    reads[500]
}

/// Running sums of the sampled values of one quantity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Estimator {
    /// Values recorded.
    pub samples: u64,
    sum: f64,
    sumsq: f64,
}

impl Estimator {
    /// Records one sampled value.
    pub fn record(&mut self, v: f64) {
        self.samples += 1;
        self.sum += v;
        self.sumsq += v * v;
    }

    /// The estimated total over `calls` calls and its sampling error:
    /// `calls × mean` and two standard errors, `2 × calls × sd /
    /// sqrt(samples)` (the half-width of a ~95% interval).
    pub fn estimate(&self, calls: u64) -> (f64, f64) {
        if self.samples == 0 {
            return (0.0, 0.0);
        }
        let n = self.samples as f64;
        let mean = self.sum / n;
        let var = if self.samples > 1 {
            ((self.sumsq - n * mean * mean) / (n - 1.0)).max(0.0)
        } else {
            0.0
        };
        let calls = calls as f64;
        (calls * mean, 2.0 * calls * (var / n).sqrt())
    }
}

/// Counts the calls at one boundary and picks about one in
/// [`SAMPLE_EVERY`] for timing.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    /// Calls seen (exact).
    pub calls: u64,
    /// Timed values.
    pub est: Estimator,
    rng: u64,
}

impl Default for Sampler {
    fn default() -> Self {
        Sampler::seeded(0)
    }
}

impl Sampler {
    /// A sampler whose draws depend on `stream`: boundaries that nest use
    /// different streams, or a timed call would always time its nested
    /// call too.
    pub fn seeded(stream: u64) -> Self {
        Sampler {
            calls: 0,
            est: Estimator::default(),
            rng: 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(2 * stream + 1),
        }
    }

    /// Counts one call; `true` if it is to be timed.
    pub fn tick(&mut self) -> bool {
        self.calls += 1;
        // xorshift64: the top six bits are zero with probability 1/64.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng >> 58 == 0
    }

    /// Estimated total over every call counted, and its sampling error.
    pub fn estimate(&self) -> (f64, f64) {
        self.est.estimate(self.calls)
    }
}

/// A timed boundary. Route calls are split by the boundary they are
/// nested in, so each layer's self time can subtract its own routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Boundary {
    Step = 0,
    Handle = 1,
    Gwc = 2,
    Entry = 3,
    Program = 4,
    RouteInGwc = 5,
    RouteInEntry = 6,
    RouteInDispatch = 7,
}

const BOUNDARIES: usize = 8;

impl Boundary {
    fn name(self) -> &'static str {
        match self {
            Boundary::Step => "step",
            Boundary::Handle => "handle",
            Boundary::Gwc => "gwc",
            Boundary::Entry => "entry",
            Boundary::Program => "program",
            Boundary::RouteInGwc => "route<gwc",
            Boundary::RouteInEntry => "route<entry",
            Boundary::RouteInDispatch => "route<handle",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Id of the event (simulation step) it ran in.
    pub event: u64,
    boundary: Boundary,
    /// Duration, seconds, clock cost already subtracted.
    pub dur: f64,
}

impl Span {
    /// The boundary the call crossed (`route<gwc` is a route call nested
    /// in a GWC model call).
    pub fn boundary(&self) -> &'static str {
        self.boundary.name()
    }
}

/// Exact call counts at the machine boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `Model::on_packet` calls.
    pub deliveries: u64,
    /// `Model::on_action` calls.
    pub actions: u64,
    /// `Topology::route_into` and `Topology::hops` calls.
    pub routes: u64,
}

/// Per-layer self times of one traced rep: estimated totals in seconds
/// with their sampling errors.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Estimated self seconds per layer.
    pub self_s: [f64; LAYERS],
    /// Sampling error of each estimate (two standard errors), seconds.
    pub err_s: [f64; LAYERS],
    /// Sum of the layer estimates, which is the estimated time inside
    /// `Simulation::step`, seconds.
    pub sum_s: f64,
    /// Sampling error of `sum_s` (two standard errors).
    pub sum_err_s: f64,
    /// Exact boundary call counts.
    pub counts: Counts,
}

/// Mutable state of a [`Probe`].
#[derive(Debug)]
struct ProbeState {
    samplers: [Sampler; BOUNDARIES],
    /// The model boundary currently open, if any (a route call inside it
    /// is attributed to it).
    in_model: Option<Boundary>,
    spans: Vec<Span>,
    counts: Counts,
}

impl Default for ProbeState {
    fn default() -> Self {
        ProbeState {
            samplers: std::array::from_fn(|b| Sampler::seeded(b as u64)),
            in_model: None,
            spans: Vec::new(),
            counts: Counts::default(),
        }
    }
}

/// Shared state of the machine-boundary wrappers of one rep.
#[derive(Debug)]
pub struct Probe {
    state: RefCell<ProbeState>,
    /// Cost of one clock read, subtracted from every timed call.
    clock_s: f64,
}

/// A call in progress: its boundary and, if timed, its start.
#[derive(Debug)]
struct Entered {
    boundary: Boundary,
    start: Option<Instant>,
}

impl Probe {
    /// A probe with its clock cost calibrated on this host.
    pub fn new() -> Rc<Probe> {
        Rc::new(Probe {
            state: RefCell::new(ProbeState {
                spans: Vec::with_capacity(1 << 14),
                ..ProbeState::default()
            }),
            clock_s: clock_cost(),
        })
    }

    /// Counts a call at `boundary` (and in `count`), opening it.
    fn enter(&self, boundary: Boundary, count: impl FnOnce(&mut Counts)) -> Entered {
        let mut st = self.state.borrow_mut();
        count(&mut st.counts);
        let boundary = match (boundary, st.in_model) {
            (Boundary::RouteInDispatch, Some(Boundary::Gwc)) => Boundary::RouteInGwc,
            (Boundary::RouteInDispatch, Some(Boundary::Entry)) => Boundary::RouteInEntry,
            (Boundary::Gwc | Boundary::Entry, _) => {
                st.in_model = Some(boundary);
                boundary
            }
            (b, _) => b,
        };
        let timed = st.samplers[boundary as usize].tick();
        drop(st);
        Entered {
            boundary,
            start: timed.then(now),
        }
    }

    fn exit(&self, e: Entered) {
        let end = e.start.map(|start| start.elapsed().as_secs_f64());
        let is_model = matches!(e.boundary, Boundary::Gwc | Boundary::Entry);
        if end.is_none() && !is_model {
            return;
        }
        let mut st = self.state.borrow_mut();
        if is_model {
            st.in_model = None;
        }
        if let Some(d) = end {
            let event = st.samplers[Boundary::Step as usize].calls;
            st.spans.push(Span {
                event,
                boundary: e.boundary,
                dur: d - self.clock_s,
            });
        }
    }

    /// Folds the spans recorded so far into per-layer self times, and
    /// returns them too; resets the probe for the next rep.
    pub fn take(&self) -> (LayerTimes, Vec<Span>) {
        let mut st = std::mem::take(&mut *self.state.borrow_mut());
        for span in &st.spans {
            st.samplers[span.boundary as usize].est.record(span.dur);
        }
        let total: Vec<(f64, f64)> = st.samplers.iter().map(Sampler::estimate).collect();
        use Boundary as B;
        // Each layer's self time is its boundary's total minus the
        // boundaries nested directly in it.
        let layers: [(&[B], &[B]); LAYERS] = [
            (&[B::Step], &[B::Handle]),
            (
                &[B::Handle],
                &[B::Gwc, B::Entry, B::Program, B::RouteInDispatch],
            ),
            (&[B::Gwc], &[B::RouteInGwc]),
            (&[B::Entry], &[B::RouteInEntry]),
            (&[B::RouteInGwc, B::RouteInEntry, B::RouteInDispatch], &[]),
            (&[B::Program], &[]),
        ];
        let mut out = LayerTimes {
            counts: st.counts,
            ..LayerTimes::default()
        };
        for (l, (plus, minus)) in layers.iter().enumerate() {
            let mut var = 0.0;
            for &b in plus.iter().chain(minus.iter()) {
                var += total[b as usize].1 * total[b as usize].1;
            }
            out.self_s[l] = plus.iter().map(|&b| total[b as usize].0).sum::<f64>()
                - minus.iter().map(|&b| total[b as usize].0).sum::<f64>();
            out.err_s[l] = var.sqrt();
        }
        (out.sum_s, out.sum_err_s) = total[B::Step as usize];
        (out, st.spans)
    }
}

/// The machine as a simulation actor, timing `Actor::handle`.
struct ProbeActor<M: Model> {
    machine: Machine<M>,
    probe: Rc<Probe>,
}

impl<M: Model> Actor for ProbeActor<M> {
    type Msg = MachineMsg;

    fn handle(&mut self, msg: MachineMsg, ctx: &mut Context<'_, MachineMsg>) {
        let s = self.probe.enter(Boundary::Handle, |_| {});
        self.machine.handle(msg, ctx);
        self.probe.exit(s);
    }
}

/// A memory model whose calls are counted and timed.
#[derive(Debug)]
pub struct ProbeModel<M> {
    inner: M,
    probe: Rc<Probe>,
    layer: Boundary,
}

impl<M: Model> Model for ProbeModel<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_action(&mut self, node: NodeId, action: ModelAction, mx: &mut Mx<'_, '_>) {
        let s = self.probe.enter(self.layer, |c| c.actions += 1);
        self.inner.on_action(node, action, mx);
        self.probe.exit(s);
    }

    fn on_packet(&mut self, node: NodeId, pkt: Packet, mx: &mut Mx<'_, '_>) {
        let s = self.probe.enter(self.layer, |c| c.deliveries += 1);
        self.inner.on_packet(node, pkt, mx);
        self.probe.exit(s);
    }

    fn on_timer(&mut self, node: NodeId, tag: u64, mx: &mut Mx<'_, '_>) {
        let s = self.probe.enter(self.layer, |_| {});
        self.inner.on_timer(node, tag, mx);
        self.probe.exit(s);
    }

    fn digest(&self) -> Option<u64> {
        self.inner.digest()
    }
}

/// A node program whose events are counted and timed.
struct ProbeProgram {
    inner: Box<dyn Program>,
    probe: Rc<Probe>,
}

impl Program for ProbeProgram {
    fn on_event(&mut self, event: AppEvent, api: &mut NodeApi<'_>) {
        let s = self.probe.enter(Boundary::Program, |_| {});
        self.inner.on_event(event, api);
        self.probe.exit(s);
    }

    fn digest(&self) -> Option<u64> {
        self.inner.digest()
    }
}

/// A topology whose routing calls are counted and timed.
struct ProbeTopology {
    inner: Box<dyn Topology>,
    probe: Rc<Probe>,
}

impl std::fmt::Debug for ProbeTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl Topology for ProbeTopology {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn positions(&self) -> usize {
        self.inner.positions()
    }

    fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        self.inner.neighbors(n)
    }

    fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let s = self
            .probe
            .enter(Boundary::RouteInDispatch, |c| c.routes += 1);
        let h = self.inner.hops(a, b);
        self.probe.exit(s);
        h
    }

    fn route_into(&self, a: NodeId, b: NodeId, out: &mut Vec<LinkId>) {
        let s = self
            .probe
            .enter(Boundary::RouteInDispatch, |c| c.routes += 1);
        self.inner.route_into(a, b, out);
        self.probe.exit(s);
    }
}

/// Moves a built machine's parts into a new machine on `topo`, passing
/// the model through `wrap_model` and each program through
/// `wrap_program(node index, program)`.
///
/// The group table, link timing, contention model and every node's memory
/// (including the shared init image) carry over; `cfg` must be the
/// configuration the machine was built with, since a machine does not
/// expose it.
pub fn reassemble<M: Model>(
    machine: Machine<sesame_core::builder::ModelInstance>,
    topo: Box<dyn Topology>,
    cfg: sesame_dsm::MachineConfig,
    wrap_model: impl FnOnce(sesame_core::builder::ModelInstance) -> M,
    mut wrap_program: impl FnMut(usize, Box<dyn Program>) -> Box<dyn Program>,
) -> Machine<M> {
    assert_eq!(
        machine.fabric().loss_probability(),
        0.0,
        "loss seeds do not carry over"
    );
    let groups = machine.groups().clone();
    let timing = machine.fabric().timing();
    let contention = machine.fabric().contention();
    let (programs, mems, model) = machine.into_parts();
    let programs = programs
        .into_iter()
        .enumerate()
        .map(|(i, p)| wrap_program(i, p))
        .collect();
    let mut out = Machine::new(topo, timing, groups, programs, wrap_model(model), cfg);
    out.fabric_mut().set_contention(contention);
    for (i, mem) in mems.into_iter().enumerate() {
        *out.mem_mut(NodeId::new(i as u32)) = mem;
    }
    out
}

/// [`reassemble`] with every machine boundary wrapped in `probe`; each
/// node's program is first passed through `program(node index, program)`.
pub fn probed(
    machine: Machine<sesame_core::builder::ModelInstance>,
    topo: Box<dyn Topology>,
    cfg: sesame_dsm::MachineConfig,
    probe: &Rc<Probe>,
    mut program: impl FnMut(usize, Box<dyn Program>) -> Box<dyn Program>,
) -> Machine<ProbeModel<sesame_core::builder::ModelInstance>> {
    let topo = Box::new(ProbeTopology {
        inner: topo,
        probe: probe.clone(),
    });
    reassemble(
        machine,
        topo,
        cfg,
        |inner| ProbeModel {
            layer: if inner.as_entry().is_some() {
                Boundary::Entry
            } else {
                Boundary::Gwc
            },
            inner,
            probe: probe.clone(),
        },
        |i, inner| {
            Box::new(ProbeProgram {
                inner: program(i, inner),
                probe: probe.clone(),
            })
        },
    )
}

/// What [`drive`] returns: the machine and the run's outcome.
pub struct Driven<M: Model> {
    /// The machine after the run.
    pub machine: Machine<M>,
    /// Simulated end time.
    pub end: SimTime,
    /// Events processed.
    pub events: u64,
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Deepest pending queue seen at the sampling points.
    pub pending_peak: u64,
    /// Host seconds of the run, without the pending-depth reads.
    pub run_s: f64,
}

/// Runs a probed machine the way `sesame_dsm::run` does (every node
/// started at time zero, tracing off, `opts.seed` and `opts.event_limit`
/// honoured), with `Simulation::step` as the outermost probed boundary.
pub fn drive<M: Model>(machine: Machine<M>, probe: &Rc<Probe>, opts: &RunOptions) -> Driven<M> {
    let t0 = now();
    let n = machine.node_count();
    let actor = ProbeActor {
        machine,
        probe: probe.clone(),
    };
    let mut sim = Simulation::new(vec![actor], opts.seed);
    for i in 0..n {
        sim.schedule(
            SimTime::ZERO,
            ActorId::new(0),
            (NodeId::new(i as u32), DsmEvent::Start),
        );
    }
    let mut pending_peak = 0u64;
    let mut pending_s = 0.0;
    let outcome = loop {
        if sim.stopped() {
            break RunOutcome::Stopped;
        }
        if sim.events_processed() >= opts.event_limit {
            break RunOutcome::EventLimitExceeded;
        }
        if sim.events_processed() % PENDING_EVERY == 0 {
            let p0 = now();
            pending_peak = pending_peak.max(sim.pending().len() as u64);
            pending_s += p0.elapsed().as_secs_f64();
        }
        let span = probe.enter(Boundary::Step, |_| {});
        let more = sim.step();
        probe.exit(span);
        if !more {
            break RunOutcome::Drained;
        }
    };
    let run_s = t0.elapsed().as_secs_f64() - pending_s;
    let end = sim.now();
    let events = sim.events_processed();
    let machine = sim.into_actors().pop().expect("one machine actor").machine;
    Driven {
        machine,
        end,
        events,
        outcome,
        pending_peak,
        run_s,
    }
}

/// Forwards every trace record to several observers and counts them.
pub struct Fanout {
    sinks: Vec<Rc<RefCell<dyn TraceObserver>>>,
    /// Records seen.
    pub records: u64,
    /// `"cause"` records seen (the causal edges that annotate the record
    /// before them).
    pub cause_records: u64,
}

impl Fanout {
    /// A fan-out to `sinks`, in order.
    pub fn new(sinks: Vec<Rc<RefCell<dyn TraceObserver>>>) -> Self {
        Fanout {
            sinks,
            records: 0,
            cause_records: 0,
        }
    }
}

impl TraceObserver for Fanout {
    fn on_record(&mut self, entry: &TraceEntry) {
        self.records += 1;
        if entry.kind == "cause" {
            self.cause_records += 1;
        }
        for sink in &self.sinks {
            sink.borrow_mut().on_record(entry);
        }
    }
}

/// An observer whose `on_record` calls are counted and about one in
/// [`SAMPLE_EVERY`] timed.
pub struct ProbeObserver<O: ?Sized> {
    /// Calls and sampled durations (seconds).
    pub sampler: Sampler,
    clock_s: f64,
    inner: Rc<RefCell<O>>,
}

impl<O: TraceObserver + ?Sized> ProbeObserver<O> {
    /// Wraps `inner`, calibrating the clock cost on this host.
    pub fn new(inner: Rc<RefCell<O>>) -> Self {
        ProbeObserver {
            sampler: Sampler::default(),
            clock_s: clock_cost(),
            inner,
        }
    }
}

impl<O: TraceObserver + ?Sized> TraceObserver for ProbeObserver<O> {
    fn on_record(&mut self, entry: &TraceEntry) {
        if self.sampler.tick() {
            let t0 = now();
            self.inner.borrow_mut().on_record(entry);
            let d = t0.elapsed().as_secs_f64() - self.clock_s;
            self.sampler.est.record(d);
        } else {
            self.inner.borrow_mut().on_record(entry);
        }
    }
}
