//! The simulator workload, `sim-tree`: 2,000 nodes running the paper's
//! static Plumtree over per-link latency drawn from 1 to 20 time units.
//!
//! One episode builds the overlay (the set-up) and then runs a fixed,
//! seed-determined measured phase. An untraced run repeats the episode on
//! the same seed until the measured phases add up to `--seconds` (at least
//! [`MIN_EPISODES`] times), so set-up time is a median and every repeat
//! must reproduce the first one's deterministic counts exactly. A traced run plays one plain
//! episode and then the same episode with the [`Timed`] membership
//! decorator and spans around every call into the simulator; the two must
//! agree count for count, which shows the decorator does not change the
//! run.

use crate::report::{Report, CORE_ENTRIES, PLUMTREE_COUNTERS};
use crate::stats::{self, Measured};
use crate::trace::{CoreTimes, SharedCore, Tracer};
use crate::{delta, SplitMix};
use hyparview_core::{Config, Message, MessageKind, SimId};
use hyparview_gossip::{HyParViewMembership, Membership, MembershipEvent, Outbox};
use hyparview_obsv::Registry;
use hyparview_plumtree::{BroadcastMode, PlumtreeConfig};
use hyparview_sim::{Latency, Scenario, Sim};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

const NODES: usize = 2_000;
const STABILIZATION_CYCLES: usize = 20;
/// Largest per-link latency, in virtual time units.
const MAX_LATENCY: u64 = 20;
/// The measured phase: `ROUNDS` rounds of one membership cycle followed
/// by `CALLS` bursts of `BURST` concurrent broadcasts, each burst from a
/// random origin.
const ROUNDS: usize = 85;
const CALLS: usize = 4;
const BURST: usize = 2;
/// Fewest episodes an untraced run plays: together they make the 1,000
/// burst calls a p99 of call times needs.
const MIN_EPISODES: usize = 3;
/// Untraced runs stop repeating episodes after this much wall time, so a
/// slow machine still ends within the run limit.
const RUN_WALL_CAP_S: f64 = 100.0;

/// The scenario minus its node count: nodes are added and joined one by
/// one by [`episode`], so each join gets its own span.
fn scenario(seed: u64) -> Scenario {
    Scenario::new(1, seed)
        .with_fanout(4)
        .with_stabilization_cycles(STABILIZATION_CYCLES)
        .with_latency(Latency::uniform(1, MAX_LATENCY).per_link())
        .with_broadcast_mode(BroadcastMode::Plumtree)
        // The paper's static tree; only the timers scale with the latency
        // tail, or healthy slow paths graft spuriously.
        .with_plumtree(PlumtreeConfig::default().with_timeouts_for_max_latency(MAX_LATENCY))
}

/// The deterministic outcome of an episode's measured phase: a pure
/// function of the seed, so repeats must reproduce it exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    events: u64,
    frames: u64,
    membership_delivered: u64,
    broadcasts: u64,
    /// (alive node, broadcast) pairs.
    attempted: u64,
    delivered: u64,
    failed: u64,
    /// Payload transmissions.
    sent: u64,
    virtual_time: u64,
}

/// One set-up plus measured phase.
struct Episode {
    setup_s: f64,
    phase_s: f64,
    counts: Counts,
    /// The measured phase. A latency sample is one burst call's wall
    /// milliseconds: the simulator hands every delivery of the burst over
    /// when the call returns. No node dies in this workload, so every call
    /// serves `BURST` × [`NODES`] pairs and the call times, unweighted, are
    /// the pairs' latencies too.
    measured: Measured,
    /// Plumtree counters summed over the nodes, before and after the
    /// measured phase.
    plumtree: (Registry, Registry),
    /// Tracer clock at the start of the measured phase.
    phase_from_ns: u64,
    /// Core nanoseconds spent inside the measured phase.
    phase_core_ns: u64,
}

fn core_ns(core: &Option<SharedCore>) -> u64 {
    core.as_ref().map_or(0, |c| c.borrow().total_ns())
}

fn episode<M, F>(
    seed: u64,
    factory: F,
    tracer: &mut Option<Tracer>,
    core: &Option<SharedCore>,
) -> Episode
where
    M: Membership<SimId>,
    F: FnMut(SimId, u64) -> M + 'static,
{
    let scenario = scenario(seed);
    let setup_start = Instant::now();
    // `build_with` on a one-node scenario, then the remaining joins by hand
    // through node 0: the same calls, in the same order, as building the
    // full scenario under its default first-node contact policy.
    let mut sim: Sim<M> = scenario.build_with(factory);
    for _ in 1..NODES {
        let id = sim.add_node();
        Tracer::maybe(tracer, "sim.join", || sim.join(id, SimId::new(0)), |_| 1);
    }
    for _ in 0..scenario.stabilization_cycles {
        let alive = sim.alive_count() as u64;
        Tracer::maybe(tracer, "sim.run_cycles", || sim.run_cycles(1), |_| alive);
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let before = sim.stats();
    let frames_before = frames_sent(&sim);
    let plumtree_before = plumtree_registry(&sim);
    let core_before = core_ns(core);
    let phase_from_ns = tracer.as_ref().map_or(0, Tracer::now_ns);
    let mut gen = SplitMix::new(seed ^ 0x5EED_0F0B_1617);
    let mut counts = Counts::default();
    let mut measured = Measured::default();
    let phase_start = Instant::now();
    for _ in 0..ROUNDS {
        let alive = sim.alive_count() as u64;
        Tracer::maybe(tracer, "sim.run_cycles", || sim.run_cycles(1), |_| alive);
        for _ in 0..CALLS {
            let alive = sim.alive_ids();
            let origin = alive[gen.below(alive.len())];
            let start = Instant::now();
            let burst = Tracer::maybe(
                tracer,
                "sim.broadcast_burst_from",
                || sim.broadcast_burst_from(origin, BURST),
                |b| b.reports.iter().map(|r| r.alive as u64).sum(),
            );
            let ms = start.elapsed().as_secs_f64() * 1e3;
            Tracer::maybe(
                tracer,
                "bench.collect",
                || {
                    measured.samples.push(ms);
                    for report in &burst.reports {
                        assert!(report.delivered <= report.alive, "more deliveries than nodes");
                        measured.delivered += report.delivered as u64;
                        counts.broadcasts += 1;
                        counts.attempted += report.alive as u64;
                        counts.delivered += report.delivered as u64;
                        counts.failed += (report.alive - report.delivered) as u64;
                        counts.sent += report.sent as u64;
                    }
                },
                |_| burst.reports.len() as u64,
            );
        }
    }
    let phase_s = phase_start.elapsed().as_secs_f64();
    measured.wall_s = phase_s;
    let after = sim.stats();
    counts.events = after.events_processed - before.events_processed;
    counts.membership_delivered = after.membership_delivered - before.membership_delivered;
    counts.frames = frames_sent(&sim) - frames_before;
    counts.virtual_time = sim.time();
    let plumtree = (plumtree_before, plumtree_registry(&sim));
    Episode {
        setup_s,
        phase_s,
        counts,
        measured,
        plumtree,
        phase_from_ns,
        phase_core_ns: core_ns(core) - core_before,
    }
}

fn plumtree_registry<M: Membership<SimId>>(sim: &Sim<M>) -> Registry {
    let mut registry = Registry::new();
    sim.plumtree_stats_total().unwrap_or_default().fill_registry(&mut registry);
    registry
}

fn frames_sent<M: Membership<SimId>>(sim: &Sim<M>) -> u64 {
    sim.metrics().value_by_name(hyparview_obsv::names::FRAMES_SENT).unwrap_or(0)
}

fn plain_factory(id: SimId, seed: u64) -> HyParViewMembership<SimId> {
    HyParViewMembership::new(id, Config::default(), seed).expect("the paper's config is valid")
}

/// Runs the workload and reports its metrics.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    if traced {
        return run_traced(seed);
    }
    let started = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut measured_s = 0.0;
    while episodes.len() < MIN_EPISODES
        || (measured_s < seconds as f64 && started.elapsed().as_secs_f64() < RUN_WALL_CAP_S)
    {
        let e = episode(seed, plain_factory, &mut None, &None);
        eprintln!(
            "episode {}: setup {:.3} s, phase {:.3} s, {:?}",
            episodes.len(),
            e.setup_s,
            e.phase_s,
            e.counts
        );
        measured_s += e.phase_s;
        episodes.push(e);
    }
    let first = episodes[0].counts;
    let deterministic = episodes.iter().all(|e| e.counts == first);
    if !deterministic {
        eprintln!("FAIL: repeats of seed {seed} disagree on deterministic counts");
    }
    let mut pooled = Measured::default();
    for e in &mut episodes {
        pooled.absorb(&mut e.measured);
    }
    let setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    eprintln!("{}", stats::summary(&setups, &pooled));
    let timing = stats::timing(&mut pooled);
    if !timing.supported {
        eprintln!("FAIL: too few broadcast calls to support a p99");
    }
    let total = |f: fn(&Counts) -> u64| episodes.iter().map(|e| f(&e.counts)).sum::<u64>();
    let mut report =
        Report::new(deterministic && timing.supported, total(|c| c.attempted), total(|c| c.failed));
    report.set("setup_s", stats::median(&setups));
    report.set("deliveries_per_s", timing.rate);
    report.set("delivery_mean_ms", timing.mean);
    report.set("delivery_p99_ms", timing.p99);
    report
}

fn run_traced(seed: u64) -> Report {
    let plain = episode(seed, plain_factory, &mut None, &None);
    let core: SharedCore = Rc::new(RefCell::new(CoreTimes::default()));
    let mut tracer = Some(Tracer::new(Some(Rc::clone(&core))));
    let shared = Rc::clone(&core);
    let timed = episode(
        seed,
        move |id, seed| Timed::new(plain_factory(id, seed), Rc::clone(&shared)),
        &mut tracer,
        &Some(Rc::clone(&core)),
    );
    let tracer = tracer.expect("traced episode keeps its tracer");
    let same = plain.counts == timed.counts;
    if !same {
        eprintln!("FAIL: traced counts {:?} differ from untraced {:?}", timed.counts, plain.counts);
    }
    let mut report = Report::new(same, timed.counts.attempted, timed.counts.failed);
    let core = core.borrow().clone();
    for (i, entry) in CORE_ENTRIES.iter().enumerate() {
        report.set(format!("core.{entry}.calls"), core.calls[i] as f64);
        let mean = if core.calls[i] == 0 { 0.0 } else { core.ns[i] as f64 / core.calls[i] as f64 };
        report.set(format!("core.{entry}.ns"), mean);
    }
    let producing = core.total_calls() - core.calls[3];
    report.set("core.msgs_out_per_call", core.msgs_out as f64 / producing.max(1) as f64);
    let core_self_s = timed.phase_core_ns as f64 / 1e9;
    let sim_self_s = tracer
        .spans()
        .iter()
        .filter(|s| s.start_ns >= timed.phase_from_ns && s.name.starts_with("sim."))
        .map(|s| s.self_ns())
        .sum::<u64>() as f64
        / 1e9;
    report.set("core.self_s", core_self_s);
    report.set("sim.self_s", sim_self_s);
    report.set("sim.phase_s", timed.phase_s);
    report.set("bench.span_coverage", (core_self_s + sim_self_s) / timed.phase_s);
    report.set("sim.events", timed.counts.events as f64);
    report.set("sim.events_per_s", plain.counts.events as f64 / plain.phase_s);
    let (cycle_ns, cycle_nodes) = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "sim.run_cycles" && s.start_ns < timed.phase_from_ns)
        .fold((0u64, 0u64), |(ns, nodes), s| (ns + s.duration_ns(), nodes + s.work));
    report.set("sim.node_cycle_ns", cycle_ns as f64 / cycle_nodes.max(1) as f64);
    let broadcasts: Vec<f64> =
        tracer.named("sim.broadcast_burst_from").map(|s| s.duration_ns() as f64 / 1e6).collect();
    let broadcasts = stats::sorted(&broadcasts);
    report.set("sim.broadcast_ms_p50", stats::percentile(&broadcasts, 50.0));
    report.set("sim.broadcast_ms_p99", stats::percentile(&broadcasts, 99.0));
    for (suffix, name) in PLUMTREE_COUNTERS {
        let (before, after) = &timed.plumtree;
        report.set(format!("plumtree.{suffix}"), delta(after, before, name) as f64);
    }
    let counts = timed.counts;
    report.set("plumtree.rmr", counts.sent as f64 / counts.delivered.max(1) as f64 - 1.0);
    let collect: Vec<f64> =
        tracer.named("bench.collect").map(|s| s.duration_ns() as f64 / 1e3).collect();
    report.set("bench.collector_sweep_us_p99", stats::percentile(&stats::sorted(&collect), 99.0));
    report.set(
        "bench.tracing_overhead",
        (timed.setup_s + timed.phase_s) / (plain.setup_s + plain.phase_s),
    );
    match tracer.write_out(&format!("sim-tree-{seed}.tsv")) {
        Ok(path) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans: {e}"),
    }
    report
}

/// A [`Membership`] decorator that times every call into the wrapped
/// protocol and counts the messages it emits. It forwards every method, so
/// the run it sits in is unchanged.
pub struct Timed<M> {
    inner: M,
    core: SharedCore,
}

impl<M> Timed<M> {
    /// Wraps `inner`, reporting into `core`.
    pub fn new(inner: M, core: SharedCore) -> Timed<M> {
        Timed { inner, core }
    }

    fn timed<R>(
        &mut self,
        entry: usize,
        out: &mut Outbox<SimId, Message<SimId>>,
        f: impl FnOnce(&mut M, &mut Outbox<SimId, Message<SimId>>) -> R,
    ) -> R {
        let queued = out.len();
        let start = Instant::now();
        let result = f(&mut self.inner, out);
        let ns = start.elapsed().as_nanos() as u64;
        let mut core = self.core.borrow_mut();
        core.calls[entry] += 1;
        core.ns[entry] += ns;
        core.msgs_out += (out.len() - queued) as u64;
        result
    }
}

fn message_entry(message: &Message<SimId>) -> usize {
    let kind = message.kind();
    4 + MessageKind::ALL.iter().position(|k| *k == kind).expect("every kind is listed")
}

impl<M: Membership<SimId, Message = Message<SimId>>> Membership<SimId> for Timed<M> {
    type Message = Message<SimId>;

    fn me(&self) -> SimId {
        self.inner.me()
    }

    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }

    fn join(&mut self, contact: SimId, out: &mut Outbox<SimId, Self::Message>) {
        self.timed(0, out, |m, out| m.join(contact, out));
    }

    fn handle_message(
        &mut self,
        from: SimId,
        message: Self::Message,
        out: &mut Outbox<SimId, Self::Message>,
    ) {
        let entry = message_entry(&message);
        self.timed(entry, out, |m, out| m.handle_message(from, message, out));
    }

    fn on_cycle(&mut self, out: &mut Outbox<SimId, Self::Message>) {
        self.timed(1, out, |m, out| m.on_cycle(out));
    }

    fn detects_send_failures(&self) -> bool {
        self.inner.detects_send_failures()
    }

    fn on_send_failed(&mut self, peer: SimId, out: &mut Outbox<SimId, Self::Message>) {
        self.timed(2, out, |m, out| m.on_send_failed(peer, out));
    }

    fn broadcast_targets(&mut self, fanout: usize, exclude: Option<SimId>) -> Vec<SimId> {
        let start = Instant::now();
        let targets = self.inner.broadcast_targets(fanout, exclude);
        let ns = start.elapsed().as_nanos() as u64;
        let mut core = self.core.borrow_mut();
        core.calls[3] += 1;
        core.ns[3] += ns;
        targets
    }

    fn connected_peers(&self) -> Vec<SimId> {
        self.inner.connected_peers()
    }

    fn retry_target(&mut self, exclude: &[SimId]) -> Option<SimId> {
        self.inner.retry_target(exclude)
    }

    fn out_view(&self) -> Vec<SimId> {
        self.inner.out_view()
    }

    fn backup_view(&self) -> Vec<SimId> {
        self.inner.backup_view()
    }

    fn take_events(&mut self) -> Vec<MembershipEvent<SimId>> {
        self.inner.take_events()
    }
}
