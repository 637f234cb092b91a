//! The simulation engine.
//!
//! Reproduces the model of the paper's PeerSim experiments:
//!
//! * nodes join the overlay one by one, with all resulting protocol traffic
//!   drained to quiescence before the next join;
//! * a *membership cycle* executes every alive node's periodic action
//!   ([`Membership::on_cycle`]), again draining between nodes;
//! * broadcasts are disseminated to quiescence with per-message accounting
//!   (deliveries, redundancy, hops);
//! * messages to crashed nodes are lost; if the sending protocol *detects
//!   send failures* (HyParView, CyclonAcked) the sender is notified — this
//!   is the simulator's model of TCP as a failure detector;
//! * everything is deterministic given the scenario seed.

use crate::attack::AttackPlan;
use crate::event::{EventQueue, QueueBackend};
use crate::fault::{mix_fault, unit_draw, FaultOp, FaultOpKind, FaultPlan};
use hyparview_core::SimId;
use hyparview_gossip::{BroadcastReport, GossipState, Membership, MembershipEvent, Outbox};
use hyparview_obsv::{
    names, CounterId, HopRecord, PathTracer, Registry, TimerKind, TraceEvent, TraceKind, TraceRing,
    TraceSink, VirtualClock,
};
use hyparview_plumtree::{
    BroadcastMode, MsgId, PlumtreeConfig, PlumtreeMessage, PlumtreeOut, PlumtreeState,
    PlumtreeStats, PlumtreeTimer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Distribution one latency draw comes from.
///
/// Every model is bounded and strictly positive: a draw of 0 would let a
/// message arrive in the same virtual instant it was sent, which breaks the
/// causal ordering the drain loop relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyModel {
    /// Every draw is exactly this many virtual time units.
    Fixed(u64),
    /// Uniformly random latency in `[min, max]`. The bounds are reordered
    /// if `min > max` — sampling never panics mid-drain.
    Uniform {
        /// Minimum latency (inclusive).
        min: u64,
        /// Maximum latency (inclusive).
        max: u64,
    },
    /// Heavy-tailed latency: a discrete log-normal approximation. The
    /// underlying normal is an Irwin–Hall sum (12 uniforms), so draws stay
    /// cheap and deterministic; `exp(sigma · z)` scales `median`, rounded
    /// to whole time units and clamped into `[1, cap]`. The long tail is
    /// what makes wide-area deployments reorder messages: most draws land
    /// near `median`, a few take many times longer.
    LogNormal {
        /// Median latency (the `exp(mu)` of the distribution).
        median: u64,
        /// Shape parameter σ in thousandths (700 ⇒ σ = 0.7). Larger means
        /// heavier tail.
        sigma_milli: u32,
        /// Hard upper clamp on a draw — keeps the tail finite so drains
        /// terminate in bounded virtual time.
        cap: u64,
    },
}

impl LatencyModel {
    /// Draws one latency from the model. Never panics: degenerate bounds
    /// are reordered and every draw is clamped into [`LatencyModel::bounds`].
    pub fn sample(self, rng: &mut StdRng) -> u64 {
        match self {
            LatencyModel::Fixed(l) => l.max(1),
            LatencyModel::Uniform { min, max } => {
                let (lo, hi) = (min.min(max).max(1), min.max(max).max(1));
                rng.gen_range(lo..=hi)
            }
            LatencyModel::LogNormal { median, sigma_milli, cap: _ } => {
                // Irwin–Hall: the sum of 12 unit uniforms minus 6 is a good
                // standard-normal approximation with support [-6, 6].
                let mut z = -6.0f64;
                for _ in 0..12 {
                    z += rng.gen_range(0.0f64..1.0);
                }
                let sigma = f64::from(sigma_milli) / 1000.0;
                let draw = (median.max(1) as f64) * (sigma * z).exp();
                let (lo, hi) = self.bounds();
                (draw.round() as u64).clamp(lo, hi)
            }
        }
    }

    /// Inclusive `(min, max)` bounds every draw of this model respects.
    pub fn bounds(self) -> (u64, u64) {
        match self {
            LatencyModel::Fixed(l) => (l.max(1), l.max(1)),
            LatencyModel::Uniform { min, max } => (min.min(max).max(1), min.max(max).max(1)),
            LatencyModel::LogNormal { median, cap, .. } => (1, cap.max(median.max(1))),
        }
    }
}

/// How latency draws are assigned to messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LatencyAssignment {
    /// A fresh draw per message: pure jitter, no stable geometry.
    #[default]
    PerMessage,
    /// One draw per *directed link*, fixed for the whole run: the network
    /// has a stable (and asymmetric — `a→b` and `b→a` draw independently)
    /// latency geometry, seeded from the scenario seed so the same scenario
    /// always produces the same geometry. A link's draw is a pure function
    /// of its seed, recomputed per frame rather than stored, and consumes
    /// no simulator randomness, so runs differing only in broadcast
    /// behavior (e.g. Plumtree variants) still crash identical node sets.
    PerLink,
}

/// Network latency model for scheduled deliveries: a [`LatencyModel`]
/// distribution plus a [`LatencyAssignment`] policy.
///
/// ```
/// use hyparview_sim::Latency;
///
/// let unit = Latency::fixed(1); // the paper's PeerSim model
/// let jitter = Latency::uniform(1, 20); // per-message jitter
/// let geometry = Latency::uniform(1, 20).per_link(); // stable asymmetric links
/// let wan = Latency::log_normal(3, 700); // heavy-tailed
/// assert_ne!(unit, jitter);
/// assert_ne!(jitter, geometry);
/// assert_eq!(wan.model.bounds().0, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Latency {
    /// The per-draw distribution.
    pub model: LatencyModel,
    /// How draws map onto messages.
    pub assignment: LatencyAssignment,
}

impl Default for Latency {
    fn default() -> Self {
        Latency::fixed(1)
    }
}

impl Latency {
    /// Every message takes exactly `units` virtual time units (the paper's
    /// PeerSim model at `units == 1`).
    pub const fn fixed(units: u64) -> Latency {
        Latency { model: LatencyModel::Fixed(units), assignment: LatencyAssignment::PerMessage }
    }

    /// Uniform latency in `[min, max]`. The pair is reordered if given
    /// backwards, so sampling can never panic mid-drain.
    pub const fn uniform(min: u64, max: u64) -> Latency {
        Latency {
            model: LatencyModel::Uniform { min, max },
            assignment: LatencyAssignment::PerMessage,
        }
    }

    /// Heavy-tailed latency with the given median and shape (σ in
    /// thousandths). The tail is clamped at `32 × median`.
    pub const fn log_normal(median: u64, sigma_milli: u32) -> Latency {
        let cap = median.saturating_mul(32);
        Latency {
            model: LatencyModel::LogNormal { median, sigma_milli, cap },
            assignment: LatencyAssignment::PerMessage,
        }
    }

    /// Switches to per-link assignment: each directed link keeps one draw
    /// for the whole run ([`LatencyAssignment::PerLink`]).
    pub const fn per_link(mut self) -> Latency {
        self.assignment = LatencyAssignment::PerLink;
        self
    }

    /// The maximum virtual-time units a single hop can take under this
    /// latency — what Plumtree timeouts must comfortably exceed.
    pub fn max_hop(&self) -> u64 {
        self.model.bounds().1
    }
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Gossip fanout used by probabilistic protocols (paper: 4).
    pub fanout: usize,
    /// Message latency model.
    pub latency: Latency,
    /// Safety valve: maximum events processed by a single drain before the
    /// simulator declares a protocol livelock and panics.
    pub max_drain_events: u64,
    /// Whether a failed gossip transmission is retried towards a fresh
    /// target ([`Membership::retry_target`]). Off by default: the paper's
    /// CyclonAcked cleans its view on a failed send but does not
    /// retransmit. Enabling this is the "acked retry" ablation.
    pub retry_failed_gossip: bool,
    /// How broadcast payloads are disseminated: the paper's eager flood
    /// (default) or Plumtree's epidemic broadcast tree.
    pub broadcast_mode: BroadcastMode,
    /// Plumtree parameters (used only in [`BroadcastMode::Plumtree`]).
    /// Timer units are virtual time units; the defaults comfortably exceed
    /// a per-hop latency of 1. Under a wider latency model, scale the
    /// timeouts with [`Latency::max_hop`] (e.g. via
    /// [`PlumtreeConfig::with_timeouts_for_max_latency`]) or healthy deep
    /// trees trigger spurious `Graft`s.
    pub plumtree: PlumtreeConfig,
    /// Event-queue backend. Both backends pop the identical `(time, seq)`
    /// order; [`QueueBackend::Bucket`] makes the unit-latency hot path
    /// O(1), [`QueueBackend::Heap`] is the original heap kept for
    /// differential testing.
    pub queue: QueueBackend,
    /// Deterministic network fault injection (loss / duplication / timed
    /// partitions). The default plan is inert and costs nothing.
    pub faults: FaultPlan,
    /// Adversarial membership plan (colluding fraction, attacker model).
    /// Like the fault plan, the default is inert and costs nothing — the
    /// plan only takes effect through scenario builders that wire attacker
    /// roles (e.g. `protocols::build_hyparview`).
    pub attack: AttackPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fanout: 4,
            latency: Latency::fixed(1),
            max_drain_events: 200_000_000,
            retry_failed_gossip: false,
            broadcast_mode: BroadcastMode::Flood,
            plumtree: PlumtreeConfig::default(),
            queue: QueueBackend::default(),
            faults: FaultPlan::default(),
            attack: AttackPlan::default(),
        }
    }
}

impl SimConfig {
    /// Sets the gossip fanout.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout;
        self
    }

    /// Sets the latency model.
    pub fn with_latency(mut self, latency: Latency) -> Self {
        self.latency = latency;
        self
    }

    /// Enables retrying failed gossip transmissions (ablation).
    pub fn with_retry_failed_gossip(mut self, enabled: bool) -> Self {
        self.retry_failed_gossip = enabled;
        self
    }

    /// Selects the broadcast dissemination mode.
    pub fn with_broadcast_mode(mut self, mode: BroadcastMode) -> Self {
        self.broadcast_mode = mode;
        self
    }

    /// Sets the Plumtree parameters.
    pub fn with_plumtree(mut self, config: PlumtreeConfig) -> Self {
        self.plumtree = config;
        self
    }

    /// Selects the event-queue backend.
    pub fn with_queue_backend(mut self, queue: QueueBackend) -> Self {
        self.queue = queue;
        self
    }

    /// Sets the network fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the adversarial membership plan.
    pub fn with_attack(mut self, attack: AttackPlan) -> Self {
        self.attack = attack;
        self
    }
}

/// Cumulative simulator counters.
///
/// Since the observability refactor this struct is a *snapshot view*: the
/// source of truth is the simulator's [`Registry`], which counts under the
/// canonical `sim.*` / `frames.*` / `broadcast.*` names shared with the
/// TCP runtime (see [`hyparview_obsv::names`]). [`Sim::stats`] materializes
/// the view; [`Sim::metrics`] exposes the registry itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Membership messages delivered.
    pub membership_delivered: u64,
    /// Membership messages addressed to dead nodes (lost).
    pub membership_to_dead: u64,
    /// Gossip transmissions delivered.
    pub gossip_delivered: u64,
    /// Gossip transmissions addressed to dead nodes.
    pub gossip_to_dead: u64,
    /// Send-failure notifications given to detecting protocols.
    pub failure_notifications: u64,
    /// Broadcasts performed.
    pub broadcasts: u64,
    /// Total events popped off the queue and processed — the denominator
    /// of the simulator's events/sec throughput metric. Deterministic per
    /// seed, like every other counter here.
    pub events_processed: u64,
}

/// Pre-registered handles into the simulator's [`Registry`] — the hot
/// path increments by dense index, never by name.
#[derive(Debug, Clone, Copy)]
struct SimCounters {
    membership_delivered: CounterId,
    membership_to_dead: CounterId,
    gossip_delivered: CounterId,
    gossip_to_dead: CounterId,
    failure_notifications: CounterId,
    broadcasts: CounterId,
    events_processed: CounterId,
    frames_sent: CounterId,
    frames_payload: CounterId,
    frames_ihave: CounterId,
    frames_ihave_batch: CounterId,
    frames_ihave_batch_anns: CounterId,
    delivered: CounterId,
    duplicates: CounterId,
    faults_dropped: CounterId,
    faults_partition_dropped: CounterId,
    faults_duplicated: CounterId,
    attack_joins_damped: CounterId,
    attack_neighbors_damped: CounterId,
    attack_tenure_swaps: CounterId,
    attack_shuffle_boosts: CounterId,
    attack_neighbor_floods: CounterId,
    attack_rejoins: CounterId,
    attack_shuffles_biased: CounterId,
}

impl SimCounters {
    /// Registers the canonical counter names in `registry`.
    fn register(registry: &mut Registry) -> SimCounters {
        SimCounters {
            membership_delivered: registry.counter(names::SIM_MEMBERSHIP_DELIVERED),
            membership_to_dead: registry.counter(names::SIM_MEMBERSHIP_TO_DEAD),
            gossip_delivered: registry.counter(names::SIM_GOSSIP_DELIVERED),
            gossip_to_dead: registry.counter(names::SIM_GOSSIP_TO_DEAD),
            failure_notifications: registry.counter(names::SIM_FAILURE_NOTIFICATIONS),
            broadcasts: registry.counter(names::BROADCAST_SENT),
            events_processed: registry.counter(names::SIM_EVENTS_PROCESSED),
            frames_sent: registry.counter(names::FRAMES_SENT),
            frames_payload: registry.counter(names::FRAMES_PAYLOAD_SENT),
            frames_ihave: registry.counter(names::FRAMES_IHAVE_SENT),
            frames_ihave_batch: registry.counter(names::FRAMES_IHAVE_BATCH_SENT),
            frames_ihave_batch_anns: registry.counter(names::FRAMES_IHAVE_BATCH_ANNS_SENT),
            delivered: registry.counter(names::BROADCAST_DELIVERED),
            duplicates: registry.counter(names::BROADCAST_DUPLICATES),
            faults_dropped: registry.counter(names::FAULTS_DROPPED),
            faults_partition_dropped: registry.counter(names::FAULTS_PARTITION_DROPPED),
            faults_duplicated: registry.counter(names::FAULTS_DUPLICATED),
            attack_joins_damped: registry.counter(names::ATTACK_JOINS_DAMPED),
            attack_neighbors_damped: registry.counter(names::ATTACK_NEIGHBORS_DAMPED),
            attack_tenure_swaps: registry.counter(names::ATTACK_TENURE_SWAPS),
            attack_shuffle_boosts: registry.counter(names::ATTACK_SHUFFLE_BOOSTS),
            attack_neighbor_floods: registry.counter(names::ATTACK_NEIGHBOR_FLOODS),
            attack_rejoins: registry.counter(names::ATTACK_REJOINS),
            attack_shuffles_biased: registry.counter(names::ATTACK_SHUFFLES_BIASED),
        }
    }
}

/// Event payload: either a membership message or one gossip transmission.
#[derive(Debug, Clone)]
enum Payload<Msg> {
    Membership(Msg),
    Gossip {
        id: u64,
        hops: u32,
    },
    /// The open connection from the receiver to `dead` broke because `dead`
    /// crashed — the TCP-reset half of "TCP as a failure detector". Only
    /// scheduled for protocols with standing connections (HyParView).
    ConnectionLost {
        dead: SimId,
    },
    /// One Plumtree protocol message ([`BroadcastMode::Plumtree`] only).
    Plumtree(PlumtreeMessage<()>),
    /// A Plumtree timer (missing-message or lazy-flush) expiring at its
    /// owner (`from == to`), scheduled `delay` virtual time units after the
    /// [`hyparview_plumtree::TimerRequest`] was emitted.
    PlumtreeTimer {
        timer: PlumtreeTimer,
    },
}

#[derive(Debug)]
struct Slot<M> {
    memb: M,
    broadcast: Broadcaster,
    alive: bool,
}

/// A node's broadcast state, of the configured [`BroadcastMode`]: one
/// record of first deliveries per node, whichever mode runs.
#[allow(clippy::large_enum_variant)] // every slot of a run holds the same variant
#[derive(Debug)]
enum Broadcaster {
    /// The paper's flood: an unbounded seen-set, so the figures assume
    /// perfect duplicate suppression.
    Flood(GossipState),
    /// Plumtree, whose message cache doubles as its seen-set (bounded by
    /// [`PlumtreeConfig::cache_capacity`], far above any experiment's
    /// broadcast count).
    Plumtree(PlumtreeState<SimId, ()>),
}

/// Per-message tallies of one tracked broadcast.
#[derive(Debug, Clone, Default)]
struct PerMsg {
    delivered: usize,
    sent: usize,
    redundant: usize,
    to_dead: usize,
    dropped: usize,
    control: usize,
    max_hops: u32,
}

/// Accounting for the broadcasts currently being disseminated. Broadcast
/// ids are sequential, so a burst of `count` concurrent messages is the
/// contiguous id range `[base, base + count)`.
#[derive(Debug, Default)]
struct Track {
    base: u64,
    count: u64,
    origin: usize,
    alive_at_start: usize,
    /// Tallies per tracked message, indexed by `id - base`.
    per: Vec<PerMsg>,
    /// Control frames that cannot be pinned on one message: `Prune`s and
    /// optimization `Graft`s carry no id, and one `IHaveBatch` frame can
    /// announce several tracked messages at once.
    shared_control: usize,
    /// Gossip targets already used per `(sender, id)`, so that retry
    /// selection (CyclonAcked) does not repeat a target. Populated only
    /// when the retry ablation is on: the default hot path spends nothing
    /// here, and first-send target lists are *interned* (moved into the
    /// log) rather than cloned per tracked message.
    sent_by: SentLog,
}

/// Per-`(sender, message)` log of gossip targets, for retry exclusion.
#[derive(Debug, Default)]
struct SentLog {
    /// Whether sends are recorded at all ([`SimConfig::retry_failed_gossip`]).
    enabled: bool,
    sent: HashMap<(usize, u64), Vec<SimId>>,
}

impl SentLog {
    /// Interns the first-send target list by move — no per-message clone.
    fn record(&mut self, sender: usize, id: u64, targets: Vec<SimId>) {
        if self.enabled {
            use std::collections::hash_map::Entry;
            match self.sent.entry((sender, id)) {
                Entry::Vacant(slot) => {
                    slot.insert(targets);
                }
                Entry::Occupied(mut slot) => slot.get_mut().extend(targets),
            }
        }
    }

    /// Appends one retry target.
    fn record_one(&mut self, sender: usize, id: u64, target: SimId) {
        if self.enabled {
            self.sent.entry((sender, id)).or_default().push(target);
        }
    }

    /// The targets already used for `(sender, id)`, plus `dead` — the
    /// exclusion list handed to [`Membership::retry_target`].
    fn exclusions(&self, sender: usize, id: u64, dead: SimId) -> Vec<SimId> {
        let mut exclude = self.sent.get(&(sender, id)).cloned().unwrap_or_default();
        exclude.push(dead);
        exclude
    }
}

impl Track {
    fn none() -> Track {
        Track::default()
    }

    fn tracking(
        base: u64,
        count: u64,
        origin: usize,
        alive_at_start: usize,
        log_sends: bool,
    ) -> Track {
        Track {
            base,
            count,
            origin,
            alive_at_start,
            per: vec![PerMsg::default(); count as usize],
            sent_by: SentLog { enabled: log_sends, sent: HashMap::new() },
            ..Track::default()
        }
    }

    /// Whether any broadcast is being accounted right now.
    fn active(&self) -> bool {
        self.count > 0
    }

    /// Whether Plumtree message id `id` belongs to a tracked broadcast.
    fn matches(&self, id: MsgId) -> bool {
        (self.base as MsgId..self.base as MsgId + self.count as MsgId).contains(&id)
    }

    /// The tallies of tracked broadcast `id`, if tracked.
    fn per_mut(&mut self, id: u64) -> Option<&mut PerMsg> {
        if self.active() && (self.base..self.base + self.count).contains(&id) {
            self.per.get_mut((id - self.base) as usize)
        } else {
            None
        }
    }

    /// Total control frames across the tracked burst.
    fn total_control(&self) -> usize {
        self.shared_control + self.per.iter().map(|p| p.control).sum::<usize>()
    }
}

/// Outcome of a concurrent broadcast burst
/// ([`Sim::broadcast_burst_from`]): per-message reports plus burst-level
/// control-frame accounting.
///
/// The per-message `control` fields are zero — with several messages in
/// flight a control frame (one `IHaveBatch` in particular) can serve many
/// of them, so control traffic is only meaningful for the burst as a whole.
#[derive(Debug, Clone)]
pub struct BurstReport {
    /// One report per message, in broadcast order.
    pub reports: Vec<BroadcastReport>,
    /// Total control frames (`IHave`/`IHaveBatch`/`Graft`/`Prune`) sent
    /// while the burst disseminated.
    pub control_frames: usize,
}

impl BurstReport {
    /// Mean control frames per broadcast of the burst.
    pub fn control_per_broadcast(&self) -> f64 {
        if self.reports.is_empty() {
            0.0
        } else {
            self.control_frames as f64 / self.reports.len() as f64
        }
    }
}

/// Discrete-event simulator generic over the membership protocol.
///
/// # Examples
///
/// ```
/// use hyparview_sim::{Sim, SimConfig};
/// use hyparview_gossip::HyParViewMembership;
/// use hyparview_core::{Config, SimId};
///
/// let mut sim = Sim::new(SimConfig::default(), 42, |id, seed| {
///     HyParViewMembership::new(id, Config::default(), seed).unwrap()
/// });
/// let a = sim.add_node();
/// let b = sim.add_node();
/// sim.join(b, a);
/// let report = sim.broadcast_from(a);
/// assert!(report.is_atomic());
/// ```
pub struct Sim<M: Membership<SimId>> {
    config: SimConfig,
    nodes: Vec<Slot<M>>,
    queue: EventQueue<Payload<M::Message>>,
    time: u64,
    rng: StdRng,
    /// Source of truth for every counter ([`SimStats`] is a view of this).
    metrics: Registry,
    counters: SimCounters,
    /// The virtual-time face of the shared clock abstraction: advanced in
    /// lockstep with `time`, read by the trace producers.
    clock: VirtualClock,
    /// Hop provenance of first deliveries ([`Sim::enable_path_tracing`]).
    path: Option<PathTracer>,
    /// Protocol decision trace ([`Sim::enable_tracing`]).
    trace: Option<TraceRing>,
    next_broadcast: u64,
    factory: Box<dyn FnMut(SimId, u64) -> M>,
    factory_seed: u64,
    /// Seed of the per-link latency geometry ([`LatencyAssignment::PerLink`]).
    link_seed: u64,
    /// The effect buffer every Plumtree step fills and
    /// [`Sim::apply_plumtree_out`] drains, kept so steps reuse its storage.
    plumtree_out: PlumtreeOut<SimId, ()>,
    /// Seed of the fault-decision stream ([`FaultPlan`]). Like the link
    /// seed, it is derived from the scenario seed and independent of the
    /// sim RNG: fault draws never perturb crash sets or gossip targets.
    fault_seed: u64,
    /// Per-decision nonce of the fault-decision stream.
    fault_nonce: u64,
    /// Active partition: group index per node index (`None` = connected).
    /// Frames between different groups are dropped at send time.
    partition: Option<Vec<u32>>,
    /// Timed fault operations from the plan, sorted by `at` (stable, so
    /// same-time ops apply in plan order); `next_fault_op` is the cursor.
    fault_ops: Vec<FaultOp>,
    next_fault_op: usize,
}

impl<M: Membership<SimId>> Sim<M> {
    /// Creates an empty simulation.
    ///
    /// `factory` builds a protocol instance for each added node; it receives
    /// the node id and a per-node seed derived from `seed`.
    pub fn new<F>(config: SimConfig, seed: u64, factory: F) -> Self
    where
        F: FnMut(SimId, u64) -> M + 'static,
    {
        let queue = EventQueue::with_backend(config.queue);
        let mut metrics = Registry::new();
        let counters = SimCounters::register(&mut metrics);
        let mut fault_ops = config.faults.ops.clone();
        fault_ops.sort_by_key(|op| op.at);
        Sim {
            config,
            nodes: Vec::new(),
            queue,
            time: 0,
            rng: StdRng::seed_from_u64(seed),
            metrics,
            counters,
            clock: VirtualClock::new(),
            path: None,
            trace: None,
            next_broadcast: 0,
            factory: Box::new(factory),
            factory_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            link_seed: seed ^ 0x7A7E_11C7_1A7E_11C7,
            plumtree_out: PlumtreeOut::new(),
            fault_seed: seed ^ 0xFA17_FA17_FA17_FA17,
            fault_nonce: 0,
            partition: None,
            fault_ops,
            next_fault_op: 0,
        }
    }

    /// The latency of one transmission from `from` to `to`, in virtual time
    /// units. Per-message assignment draws from the simulation RNG;
    /// per-link assignment recomputes the link's one draw from the link's
    /// own seed on every call (asymmetric: `a→b` and `b→a` are independent
    /// draws) — a seed and a sample, cheaper than remembering the draws.
    fn latency_of(&mut self, from: SimId, to: SimId) -> u64 {
        let model = self.config.latency.model;
        match self.config.latency.assignment {
            LatencyAssignment::PerMessage => model.sample(&mut self.rng),
            LatencyAssignment::PerLink => {
                model.sample(&mut StdRng::seed_from_u64(mix_link(self.link_seed, from, to)))
            }
        }
    }

    /// Whether an active partition separates `from` and `to`. A crossing
    /// frame is dropped silently — counted and traced at the sender, no
    /// failure notification — exactly like packets into a severed WAN
    /// path.
    fn partition_cut(&mut self, from: SimId, to: SimId) -> bool {
        let Some(groups) = &self.partition else { return false };
        let group_of = |id: SimId| groups.get(id.index()).copied().unwrap_or(0);
        if group_of(from) == group_of(to) {
            return false;
        }
        self.metrics.inc(self.counters.faults_partition_dropped);
        self.trace_event(from, TraceKind::FrameDropped { peer: to.index() as u64 });
        true
    }

    /// Decides the fate of one outbound *broadcast-plane* frame
    /// `from → to`: the number of copies to schedule. `0` means the frame
    /// was dropped (partition boundary or loss draw), `2` means it was
    /// duplicated.
    ///
    /// Loss and duplication apply only to dissemination traffic (flood
    /// gossip and every Plumtree frame) — membership frames model TCP,
    /// which HyParView's design assumes (§3), and go through
    /// [`Sim::partition_cut`] alone. The fast path — no active plan, no
    /// partition — returns 1 without consuming anything, so a sim with an
    /// inert [`FaultPlan`] is bit-identical to one with no plan at all.
    /// Fault draws come from a dedicated SplitMix64 stream keyed by
    /// `(fault_seed, nonce)` and consume no sim RNG, mirroring the
    /// per-link latency trick.
    fn frame_copies(&mut self, from: SimId, to: SimId) -> usize {
        if self.partition.is_none() && !self.config.faults.is_active() {
            return 1;
        }
        if self.partition_cut(from, to) {
            return 0;
        }
        let loss = self.config.faults.loss_for(from.index(), to.index());
        if loss > 0.0 && self.fault_draw() < loss {
            self.metrics.inc(self.counters.faults_dropped);
            self.trace_event(from, TraceKind::FrameDropped { peer: to.index() as u64 });
            return 0;
        }
        let duplicate = self.config.faults.duplicate;
        if duplicate > 0.0 && self.fault_draw() < duplicate {
            self.metrics.inc(self.counters.faults_duplicated);
            return 2;
        }
        1
    }

    /// One uniform draw in `[0, 1)` from the fault-decision stream.
    fn fault_draw(&mut self) -> f64 {
        let nonce = self.fault_nonce;
        self.fault_nonce += 1;
        unit_draw(mix_fault(self.fault_seed, nonce))
    }

    /// Splits the network into the given groups: from now on every frame
    /// between nodes of different groups is dropped at send time (frames
    /// already in flight still arrive, like packets already on the wire).
    /// Nodes not listed in any group form an implicit extra group. Drops
    /// are silent — no failure notifications, exactly like real packet
    /// loss — so membership views keep spanning the cut and dissemination
    /// recovers on its own after [`Sim::heal_partitions`].
    pub fn partition_network(&mut self, groups: &[Vec<SimId>]) {
        let mut assign = vec![0u32; self.nodes.len()];
        for (index, group) in groups.iter().enumerate() {
            for id in group {
                assign[id.index()] = index as u32 + 1;
            }
        }
        self.partition = Some(assign);
    }

    /// Removes the active partition (no-op when the network is whole).
    pub fn heal_partitions(&mut self) {
        self.partition = None;
    }

    /// Whether a partition is currently in force.
    pub fn partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// Applies every timed fault op whose `at` has been reached. Called
    /// whenever virtual time advances, so partitions cut mid-drain, right
    /// between two event deliveries.
    fn apply_due_fault_ops(&mut self) {
        while self.next_fault_op < self.fault_ops.len()
            && self.fault_ops[self.next_fault_op].at <= self.time
        {
            let op = self.fault_ops[self.next_fault_op].clone();
            self.next_fault_op += 1;
            match op.kind {
                FaultOpKind::Partition(groups) => {
                    let groups: Vec<Vec<SimId>> =
                        groups.iter().map(|g| g.iter().map(|&i| SimId::new(i)).collect()).collect();
                    self.partition_network(&groups);
                }
                FaultOpKind::Heal => self.heal_partitions(),
            }
        }
    }

    /// Adds a new (alive, unjoined) node and returns its id.
    pub fn add_node(&mut self) -> SimId {
        let id = SimId::new(self.nodes.len());
        let seed =
            self.factory_seed.wrapping_add((id.index() as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let memb = (self.factory)(id, seed);
        let broadcast = self.new_broadcaster(id);
        self.nodes.push(Slot { memb, broadcast, alive: true });
        id
    }

    fn new_broadcaster(&self, id: SimId) -> Broadcaster {
        match self.config.broadcast_mode {
            BroadcastMode::Flood => Broadcaster::Flood(GossipState::new()),
            BroadcastMode::Plumtree => {
                Broadcaster::Plumtree(PlumtreeState::new(id, self.config.plumtree.clone()))
            }
        }
    }

    /// Number of nodes ever added.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current virtual time.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Number of events still waiting in the queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Whether the simulation is *quiescent*: the event queue is empty.
    ///
    /// Under variable latency "round complete" is meaningless — events of
    /// one logical round interleave arbitrarily with the next — so
    /// quiescence is defined purely on the queue, and every drain runs
    /// until this holds.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    /// Cumulative simulator statistics, materialized from the metric
    /// registry (the registry is the source of truth; this struct is the
    /// legacy snapshot view).
    pub fn stats(&self) -> SimStats {
        let value = |id: CounterId| self.metrics.counter_value(id);
        SimStats {
            membership_delivered: value(self.counters.membership_delivered),
            membership_to_dead: value(self.counters.membership_to_dead),
            gossip_delivered: value(self.counters.gossip_delivered),
            gossip_to_dead: value(self.counters.gossip_to_dead),
            failure_notifications: value(self.counters.failure_notifications),
            broadcasts: value(self.counters.broadcasts),
            events_processed: value(self.counters.events_processed),
        }
    }

    /// Broadcast id the *next* broadcast will get — ids are sequential, so
    /// the broadcast just performed has id `next_broadcast_id() - 1`.
    pub fn next_broadcast_id(&self) -> u64 {
        self.next_broadcast
    }

    /// Whether `node` has delivered broadcast `id`: the flood's seen-set
    /// answers in flood mode, the node's Plumtree message cache in Plumtree
    /// mode. Lets experiments split reliability by node population, e.g.
    /// honest-only reliability under an infiltration attack.
    pub fn has_delivered(&self, node: SimId, id: u64) -> bool {
        match &self.nodes[node.index()].broadcast {
            Broadcaster::Flood(gossip) => gossip.has_delivered(id),
            Broadcaster::Plumtree(plumtree) => plumtree.has_seen(id as MsgId),
        }
    }

    /// The simulator's metric registry: `sim.*` event-loop counters plus
    /// the `frames.*` / `broadcast.*` transport vocabulary it shares with
    /// the TCP runtime ([`hyparview_obsv::names`]).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// A cluster-style metrics snapshot: the event-loop registry merged
    /// with the aggregated per-node protocol counters (`plumtree.*` in
    /// Plumtree mode).
    pub fn metrics_snapshot(&self) -> Registry {
        let mut snapshot = self.metrics.clone();
        if let Some(total) = self.plumtree_stats_total() {
            total.fill_registry(&mut snapshot);
        }
        snapshot
    }

    /// Turns on causal broadcast-path tracing: from now on every first
    /// delivery is tagged with its hop provenance (parent, depth, virtual
    /// delivery time). Records accumulate until [`Sim::take_path_records`]
    /// or [`Sim::clear_path_records`]; for long runs, drain between bursts
    /// to bound memory.
    pub fn enable_path_tracing(&mut self) {
        if self.path.is_none() {
            self.path = Some(PathTracer::new());
        }
    }

    /// The hop-provenance records accumulated so far (empty when tracing
    /// is disabled).
    pub fn path_records(&self) -> &[HopRecord] {
        self.path.as_ref().map(PathTracer::records).unwrap_or(&[])
    }

    /// Moves the accumulated hop-provenance records out, leaving the
    /// tracer enabled but empty.
    pub fn take_path_records(&mut self) -> PathTracer {
        match &mut self.path {
            Some(tracer) => std::mem::take(tracer),
            None => PathTracer::new(),
        }
    }

    /// Drops accumulated hop-provenance records (between bursts).
    pub fn clear_path_records(&mut self) {
        if let Some(tracer) = &mut self.path {
            tracer.clear();
        }
    }

    /// Turns on structured decision tracing into a bounded ring of
    /// `capacity` events (see [`TraceRing`]): Plumtree grafts, prunes,
    /// promotions/demotions, timer fires and first deliveries, stamped
    /// with deterministic virtual time.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = Some(TraceRing::new(capacity));
    }

    /// The decision-trace ring, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceRing> {
        self.trace.as_ref()
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Shared access to a node's protocol instance.
    pub fn node(&self, id: SimId) -> &M {
        &self.nodes[id.index()].memb
    }

    /// Mutable access to a node's protocol instance.
    pub fn node_mut(&mut self, id: SimId) -> &mut M {
        &mut self.nodes[id.index()].memb
    }

    /// Shared access to a node's Plumtree broadcast state (tree inspection:
    /// eager/lazy sets, cache fill, per-node counters).
    ///
    /// # Panics
    ///
    /// Panics unless the simulation runs in [`BroadcastMode::Plumtree`].
    pub fn plumtree_node(&self, id: SimId) -> &PlumtreeState<SimId, ()> {
        match &self.nodes[id.index()].broadcast {
            Broadcaster::Plumtree(plumtree) => plumtree,
            Broadcaster::Flood(_) => panic!("plumtree_node requires BroadcastMode::Plumtree"),
        }
    }

    /// Sum of every node's Plumtree counters (crashed nodes included —
    /// their counters freeze at crash time; revived nodes restart at zero).
    /// `None` outside [`BroadcastMode::Plumtree`].
    pub fn plumtree_stats_total(&self) -> Option<PlumtreeStats> {
        if self.config.broadcast_mode != BroadcastMode::Plumtree {
            return None;
        }
        let mut total = PlumtreeStats::default();
        for slot in &self.nodes {
            if let Broadcaster::Plumtree(plumtree) = &slot.broadcast {
                total += *plumtree.stats();
            }
        }
        Some(total)
    }

    /// Whether `id` is alive.
    pub fn is_alive(&self, id: SimId) -> bool {
        self.nodes[id.index()].alive
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.nodes.iter().filter(|s| s.alive).count()
    }

    /// Ids of all alive nodes.
    pub fn alive_ids(&self) -> Vec<SimId> {
        self.nodes.iter().enumerate().filter(|(_, s)| s.alive).map(|(i, _)| SimId::new(i)).collect()
    }

    /// A uniformly random alive node.
    ///
    /// # Panics
    ///
    /// Panics if every node is dead.
    pub fn random_alive(&mut self) -> SimId {
        let alive = self.alive_ids();
        assert!(!alive.is_empty(), "no alive nodes left");
        alive[self.rng.gen_range(0..alive.len())]
    }

    // ------------------------------------------------------------------
    // Overlay construction and maintenance
    // ------------------------------------------------------------------

    /// Node `joiner` joins through `contact`; all protocol traffic drains
    /// before returning (the paper: "the overlay was created by having nodes
    /// join the network one by one, without running any membership rounds in
    /// between").
    pub fn join(&mut self, joiner: SimId, contact: SimId) {
        let mut out = Outbox::new();
        self.nodes[joiner.index()].memb.join(contact, &mut out);
        self.dispatch(joiner, &mut out);
        self.sync_plumtree(joiner.index());
        self.collect_membership_events(joiner);
        self.drain();
    }

    /// Runs `count` membership cycles. In each cycle every alive node
    /// executes its periodic action once, in random order, with the network
    /// drained after each node — the PeerSim cycle-based model.
    pub fn run_cycles(&mut self, count: usize) {
        for _ in 0..count {
            let mut order = self.alive_ids();
            // Fisher–Yates with the sim RNG keeps runs deterministic.
            for i in (1..order.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for id in order {
                if !self.nodes[id.index()].alive {
                    continue;
                }
                let mut out = Outbox::new();
                self.nodes[id.index()].memb.on_cycle(&mut out);
                self.dispatch(id, &mut out);
                self.sync_plumtree(id.index());
                self.collect_membership_events(id);
                self.drain();
            }
        }
    }

    /// Crashes the given nodes. The crash itself is silent, but survivors
    /// holding an *open connection* to a crashed node (HyParView's active
    /// view, §4.1.iii) observe the broken connection: a
    /// `ConnectionLost` notification is scheduled for them. The
    /// notifications are events — they race with whatever traffic comes
    /// next (e.g. the first post-failure broadcast), like real TCP resets.
    pub fn fail_nodes(&mut self, ids: &[SimId]) {
        for id in ids {
            self.nodes[id.index()].alive = false;
        }
        for v in 0..self.nodes.len() {
            if !self.nodes[v].alive || !self.nodes[v].memb.detects_send_failures() {
                continue;
            }
            let connected = self.nodes[v].memb.connected_peers();
            for peer in connected {
                if !self.nodes[peer.index()].alive {
                    let latency = self.latency_of(peer, SimId::new(v));
                    self.queue.push(
                        self.time + latency,
                        peer,
                        SimId::new(v),
                        Payload::ConnectionLost { dead: peer },
                    );
                }
            }
        }
    }

    /// Crashes a uniformly random `fraction` of the alive nodes, returning
    /// the crashed ids.
    pub fn fail_fraction(&mut self, fraction: f64) -> Vec<SimId> {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        let mut alive = self.alive_ids();
        let target = ((alive.len() as f64) * fraction).round() as usize;
        // Partial Fisher–Yates: the first `target` entries are the victims.
        for i in 0..target.min(alive.len().saturating_sub(1)) {
            let j = self.rng.gen_range(i..alive.len());
            alive.swap(i, j);
        }
        let victims: Vec<SimId> = alive.into_iter().take(target).collect();
        self.fail_nodes(&victims);
        victims
    }

    /// Revives a crashed node with fresh protocol state (it must re-join).
    pub fn revive(&mut self, id: SimId) {
        let seed = self
            .factory_seed
            .wrapping_add((id.index() as u64).wrapping_mul(0xA24B_AED4_963E_E407))
            .wrapping_add(0x5EED);
        let broadcast = self.new_broadcaster(id);
        let slot = &mut self.nodes[id.index()];
        slot.memb = (self.factory)(id, seed);
        slot.broadcast = broadcast;
        slot.alive = true;
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    /// Broadcasts one message from `origin` and disseminates it to
    /// quiescence, returning the paper's per-message accounting.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is dead.
    pub fn broadcast_from(&mut self, origin: SimId) -> BroadcastReport {
        let burst = self.broadcast_burst_from(origin, 1);
        let mut report = burst.reports.into_iter().next().expect("burst of one");
        // With a single message in flight every control frame belongs to
        // it, including the id-less Prunes and optimization Grafts.
        report.control = burst.control_frames;
        report
    }

    /// Broadcasts `count` messages from `origin` *concurrently*: all of
    /// them are injected before the network drains, so they disseminate
    /// together — this is the workload where lazy-link batching can fold
    /// announcements of several messages into one `IHaveBatch` frame.
    ///
    /// Per-message reports carry `control == 0`; control traffic of a
    /// burst is only meaningful in aggregate ([`BurstReport`]).
    ///
    /// # Panics
    ///
    /// Panics if `origin` is dead or `count` is zero.
    pub fn broadcast_burst_from(&mut self, origin: SimId, count: usize) -> BurstReport {
        assert!(self.is_alive(origin), "broadcast origin must be alive");
        assert!(count > 0, "a burst needs at least one message");
        let base = self.next_broadcast;
        self.next_broadcast += count as u64;
        self.metrics.add(self.counters.broadcasts, count as u64);

        let mut track = Track::tracking(
            base,
            count as u64,
            origin.index(),
            self.alive_count(),
            self.config.retry_failed_gossip,
        );

        if self.config.broadcast_mode == BroadcastMode::Plumtree {
            // Make sure the origin's tree links reflect its view before the
            // first push (a node may broadcast before ever having handled a
            // message). Once per burst: no events land mid-loop.
            self.sync_plumtree(origin.index());
        }
        for id in base..base + count as u64 {
            match self.config.broadcast_mode {
                BroadcastMode::Flood => {
                    // The origin delivers its own message at hop 0 and
                    // floods.
                    self.flood_mut(origin.index()).deliver(id, 0);
                    self.metrics.inc(self.counters.delivered);
                    self.record_delivery(id, origin, None, 0);
                    let targets =
                        self.nodes[origin.index()].memb.broadcast_targets(self.config.fanout, None);
                    if let Some(per) = track.per_mut(id) {
                        per.delivered += 1;
                    }
                    for &t in &targets {
                        let copies = self.frame_copies(origin, t);
                        self.metrics.add(self.counters.frames_sent, copies.max(1) as u64);
                        self.metrics.add(self.counters.frames_payload, copies.max(1) as u64);
                        if let Some(per) = track.per_mut(id) {
                            per.sent += copies.max(1);
                            if copies == 0 {
                                per.dropped += 1;
                            }
                        }
                        for _ in 0..copies {
                            let latency = self.latency_of(origin, t);
                            self.queue.push(
                                self.time + latency,
                                origin,
                                t,
                                Payload::Gossip { id, hops: 1 },
                            );
                        }
                    }
                    track.sent_by.record(origin.index(), id, targets);
                }
                BroadcastMode::Plumtree => {
                    self.step_plumtree(origin, None, &mut track, |plumtree, out| {
                        plumtree.broadcast(id as MsgId, (), out)
                    });
                }
            }
        }
        self.drain_with_track(&mut track);

        let control_frames = track.total_control();
        let reports = track
            .per
            .iter()
            .enumerate()
            .map(|(offset, per)| BroadcastReport {
                id: track.base + offset as u64,
                origin: track.origin,
                alive: track.alive_at_start,
                delivered: per.delivered,
                sent: per.sent,
                redundant: per.redundant,
                to_dead: per.to_dead,
                dropped: per.dropped,
                control: 0,
                max_hops: per.max_hops,
            })
            .collect();
        BurstReport { reports, control_frames }
    }

    /// Broadcasts from a uniformly random alive node.
    pub fn broadcast_random(&mut self) -> BroadcastReport {
        let origin = self.random_alive();
        self.broadcast_from(origin)
    }

    // ------------------------------------------------------------------
    // Metrics access
    // ------------------------------------------------------------------

    /// Snapshot of every node's out-view (`None` for crashed nodes), for
    /// overlay graph analysis.
    pub fn out_views(&self) -> Vec<Option<Vec<SimId>>> {
        self.nodes.iter().map(|s| s.alive.then(|| s.memb.out_view())).collect()
    }

    /// View accuracy (§2.3): mean over alive nodes of the fraction of their
    /// out-view members that are themselves alive.
    pub fn accuracy(&self) -> f64 {
        let mut total = 0.0;
        let mut counted = 0usize;
        for slot in self.nodes.iter().filter(|s| s.alive) {
            let view = slot.memb.out_view();
            if view.is_empty() {
                continue;
            }
            let alive_members = view.iter().filter(|id| self.nodes[id.index()].alive).count();
            total += alive_members as f64 / view.len() as f64;
            counted += 1;
        }
        if counted == 0 {
            0.0
        } else {
            total / counted as f64
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn dispatch(&mut self, from: SimId, out: &mut Outbox<SimId, M::Message>) {
        for (to, message) in out.drain() {
            // Membership traffic rides TCP (HyParView's stated transport
            // assumption): exempt from loss and duplication, severed only
            // by a partition. A cut frame was still *sent* — it left the
            // sender before the network ate it.
            let cut = self.partition_cut(from, to);
            self.metrics.inc(self.counters.frames_sent);
            if !cut {
                let latency = self.latency_of(from, to);
                self.queue.push(self.time + latency, from, to, Payload::Membership(message));
            }
        }
    }

    /// Drains all pending events (no broadcast in flight) until the
    /// simulation [is quiescent](Sim::is_quiescent) — the event *queue* is
    /// empty, which under variable latency is strictly stronger than any
    /// notion of a completed round.
    pub fn drain(&mut self) {
        let mut no_track = Track::none();
        self.drain_with_track(&mut no_track);
    }

    fn drain_with_track(&mut self, track: &mut Track) {
        // Timed fault ops whose `at` has already passed apply up front, so
        // a partition scheduled "now" governs this drain's first sends.
        self.apply_due_fault_ops();
        let mut processed: u64 = 0;
        while let Some(event) = self.queue.pop() {
            processed += 1;
            assert!(
                processed <= self.config.max_drain_events,
                "drain exceeded {} events — protocol livelock?",
                self.config.max_drain_events
            );
            self.time = self.time.max(event.time);
            self.clock.advance_to(self.time);
            if self.next_fault_op < self.fault_ops.len() {
                self.apply_due_fault_ops();
            }
            match event.payload {
                Payload::Membership(message) => {
                    self.deliver_membership(event.from, event.to, message);
                }
                Payload::Gossip { id, hops } => {
                    self.deliver_gossip(event.from, event.to, id, hops, track);
                }
                Payload::ConnectionLost { dead } => {
                    if self.nodes[event.to.index()].alive {
                        self.metrics.inc(self.counters.failure_notifications);
                        let mut out = Outbox::new();
                        self.nodes[event.to.index()].memb.on_send_failed(dead, &mut out);
                        let to = event.to;
                        self.dispatch(to, &mut out);
                        self.sync_plumtree(to.index());
                        self.collect_membership_events(to);
                    }
                }
                Payload::Plumtree(message) => {
                    self.deliver_plumtree(event.from, event.to, message, track);
                }
                Payload::PlumtreeTimer { timer } => {
                    if self.nodes[event.to.index()].alive {
                        self.trace_event(
                            event.to,
                            TraceKind::TimerFired {
                                timer: match timer {
                                    PlumtreeTimer::Missing(_) => TimerKind::MissingMsg,
                                    PlumtreeTimer::LazyFlush => TimerKind::LazyFlush,
                                },
                            },
                        );
                        self.step_plumtree(event.to, None, track, |plumtree, out| {
                            plumtree.on_timer(timer, out)
                        });
                    }
                }
            }
        }
        self.metrics.add(self.counters.events_processed, processed);
    }

    fn deliver_membership(&mut self, from: SimId, to: SimId, message: M::Message) {
        if !self.nodes[to.index()].alive {
            self.metrics.inc(self.counters.membership_to_dead);
            self.notify_send_failure(from, to);
            return;
        }
        self.metrics.inc(self.counters.membership_delivered);
        let mut out = Outbox::new();
        self.nodes[to.index()].memb.handle_message(from, message, &mut out);
        self.dispatch(to, &mut out);
        self.sync_plumtree(to.index());
        self.collect_membership_events(to);
    }

    /// Delivers one Plumtree message, with per-broadcast accounting for the
    /// tracked id: payload receipts land in the delivered/redundant/to_dead
    /// buckets exactly like flood transmissions; `IHave`/`Graft`/`Prune`
    /// count as control traffic.
    fn deliver_plumtree(
        &mut self,
        from: SimId,
        to: SimId,
        message: PlumtreeMessage<()>,
        track: &mut Track,
    ) {
        let is_payload = message.carries_payload();
        if !self.nodes[to.index()].alive {
            if is_payload {
                self.metrics.inc(self.counters.gossip_to_dead);
                if let Some(per) = message.id().and_then(|id| track.per_mut(id as u64)) {
                    per.to_dead += 1;
                }
            } else {
                self.metrics.inc(self.counters.membership_to_dead);
            }
            self.notify_send_failure(from, to);
            return;
        }
        if is_payload {
            self.metrics.inc(self.counters.gossip_delivered);
            if let Some(id) = message.id() {
                if self.plumtree_mut(to.index()).has_seen(id) {
                    self.metrics.inc(self.counters.duplicates);
                    if track.matches(id) {
                        if let Some(per) = track.per_mut(id as u64) {
                            per.redundant += 1;
                        }
                    }
                }
            }
        } else {
            self.metrics.inc(self.counters.membership_delivered);
            // An incoming graft promotes the sender to the eager set; an
            // incoming prune demotes it to lazy. Trace the receiver-side
            // decision (the sender side traced `GraftSent`/`PruneSent`).
            match &message {
                PlumtreeMessage::Graft { .. } => {
                    self.trace_event(to, TraceKind::EagerPromote { peer: from.index() as u64 });
                }
                PlumtreeMessage::Prune => {
                    self.trace_event(to, TraceKind::LazyDemote { peer: from.index() as u64 });
                }
                _ => {}
            }
        }
        self.step_plumtree(to, Some(from), track, |plumtree, out| {
            plumtree.handle_message(from, message, out)
        });
    }

    /// The node's Plumtree state; only reachable in Plumtree mode (the
    /// events and call sites that lead here exist only in that mode).
    fn plumtree_mut(&mut self, node: usize) -> &mut PlumtreeState<SimId, ()> {
        match &mut self.nodes[node].broadcast {
            Broadcaster::Plumtree(plumtree) => plumtree,
            Broadcaster::Flood(_) => panic!("Plumtree event outside Plumtree mode"),
        }
    }

    /// The node's flood seen-set; only reachable in flood mode.
    fn flood_mut(&mut self, node: usize) -> &mut GossipState {
        match &mut self.nodes[node].broadcast {
            Broadcaster::Flood(gossip) => gossip,
            Broadcaster::Plumtree(_) => panic!("flood delivery outside flood mode"),
        }
    }

    /// Runs one Plumtree state-machine step at `node` into the reused
    /// effect buffer and ships its effects.
    fn step_plumtree(
        &mut self,
        node: SimId,
        via: Option<SimId>,
        track: &mut Track,
        step: impl FnOnce(&mut PlumtreeState<SimId, ()>, &mut PlumtreeOut<SimId, ()>),
    ) {
        let mut out = std::mem::take(&mut self.plumtree_out);
        step(self.plumtree_mut(node.index()), &mut out);
        self.apply_plumtree_out(node, via, &mut out, track);
        self.plumtree_out = out;
    }

    /// Ships and drains the effects of one Plumtree state-machine step:
    /// sends become latency-delayed events, timer requests become
    /// self-addressed events, deliveries feed the broadcast accounting.
    fn apply_plumtree_out(
        &mut self,
        node: SimId,
        via: Option<SimId>,
        out: &mut PlumtreeOut<SimId, ()>,
        track: &mut Track,
    ) {
        for (to, message) in out.outbox.drain() {
            let copies = self.frame_copies(node, to);
            let sent = copies.max(1) as u64;
            self.metrics.add(self.counters.frames_sent, sent);
            match &message {
                PlumtreeMessage::Gossip { id, .. } => {
                    self.metrics.add(self.counters.frames_payload, sent);
                    if let Some(per) = track.per_mut(*id as u64) {
                        per.sent += sent as usize;
                        if copies == 0 {
                            per.dropped += 1;
                        }
                    }
                }
                PlumtreeMessage::IHave { id, .. } => {
                    self.metrics.add(self.counters.frames_ihave, sent);
                    if let Some(per) = track.per_mut(*id as u64) {
                        per.control += sent as usize;
                    }
                }
                PlumtreeMessage::IHaveBatch { anns } => {
                    self.metrics.add(self.counters.frames_ihave_batch, sent);
                    self.metrics
                        .add(self.counters.frames_ihave_batch_anns, sent * anns.len() as u64);
                    // Batch-aware accounting: however many announcements it
                    // carries, a batch is *one* control frame — that is the
                    // entire point of lazy-link batching. It can span
                    // several tracked messages, so it lands in the burst's
                    // shared bucket.
                    if anns.iter().any(|a| track.matches(a.id)) {
                        track.shared_control += sent as usize;
                    }
                }
                PlumtreeMessage::Graft { id: Some(id), .. } => {
                    let msg = *id as u64;
                    self.trace_event(node, TraceKind::GraftSent { peer: to.index() as u64, msg });
                    if let Some(per) = track.per_mut(msg) {
                        per.control += sent as usize;
                    }
                }
                PlumtreeMessage::Graft { id: None, .. } => {
                    self.trace_event(
                        node,
                        TraceKind::GraftSent { peer: to.index() as u64, msg: 0 },
                    );
                    // Optimization grafts and prunes carry no id; attribute
                    // them to the burst whose dissemination provoked them
                    // (bursts are disseminated one at a time).
                    if track.active() {
                        track.shared_control += sent as usize;
                    }
                }
                PlumtreeMessage::Prune => {
                    self.trace_event(node, TraceKind::PruneSent { peer: to.index() as u64 });
                    if track.active() {
                        track.shared_control += sent as usize;
                    }
                }
            }
            for _ in 0..copies {
                let latency = self.latency_of(node, to);
                self.queue.push(self.time + latency, node, to, Payload::Plumtree(message.clone()));
            }
        }
        // Plumtree hands a message over once, on first sight.
        for delivery in out.deliveries.drain(..) {
            self.metrics.inc(self.counters.delivered);
            self.record_delivery(delivery.id as u64, node, via, delivery.round);
            if let Some(per) = track.per_mut(delivery.id as u64) {
                per.delivered += 1;
                per.max_hops = per.max_hops.max(delivery.round);
            }
        }
        for request in out.timers.drain(..) {
            self.queue.push(
                self.time + request.delay,
                node,
                node,
                Payload::PlumtreeTimer { timer: request.timer },
            );
        }
    }

    /// Reconciles a node's Plumtree eager/lazy sets with its membership
    /// out-view (no-op in flood mode). HyParView's `NeighborUp` /
    /// `NeighborDown` transitions surface here as view diffs, which also
    /// covers protocols without neighbor callbacks.
    fn sync_plumtree(&mut self, node: usize) {
        if self.config.broadcast_mode != BroadcastMode::Plumtree {
            return;
        }
        let view = self.nodes[node].memb.out_view();
        self.plumtree_mut(node).sync_neighbors(&view);
    }

    fn deliver_gossip(&mut self, from: SimId, to: SimId, id: u64, hops: u32, track: &mut Track) {
        if !self.nodes[to.index()].alive {
            self.metrics.inc(self.counters.gossip_to_dead);
            if let Some(per) = track.per_mut(id) {
                per.to_dead += 1;
            }
            self.notify_send_failure(from, to);
            self.retry_gossip(from, to, id, hops, track);
            return;
        }
        self.metrics.inc(self.counters.gossip_delivered);
        let first_time = self.flood_mut(to.index()).deliver(id, hops);
        if !first_time {
            self.metrics.inc(self.counters.duplicates);
            if let Some(per) = track.per_mut(id) {
                per.redundant += 1;
            }
            return;
        }
        self.metrics.inc(self.counters.delivered);
        self.record_delivery(id, to, Some(from), hops);
        // Forward to this node's gossip targets, excluding the sender.
        let targets = self.nodes[to.index()].memb.broadcast_targets(self.config.fanout, Some(from));
        if let Some(per) = track.per_mut(id) {
            per.delivered += 1;
            per.max_hops = per.max_hops.max(hops);
        }
        for &t in &targets {
            let copies = self.frame_copies(to, t);
            self.metrics.add(self.counters.frames_sent, copies.max(1) as u64);
            self.metrics.add(self.counters.frames_payload, copies.max(1) as u64);
            if let Some(per) = track.per_mut(id) {
                per.sent += copies.max(1);
                if copies == 0 {
                    per.dropped += 1;
                }
            }
            for _ in 0..copies {
                let latency = self.latency_of(to, t);
                self.queue.push(self.time + latency, to, t, Payload::Gossip { id, hops: hops + 1 });
            }
        }
        if track.matches(id as MsgId) {
            track.sent_by.record(to.index(), id, targets);
        }
    }

    /// TCP-as-failure-detector: a send to a dead node synchronously informs
    /// detecting protocols.
    /// Tags one *first* delivery with its hop provenance (when path
    /// tracing is on) and mirrors it into the decision trace (when that
    /// is on). `parent` is the node the payload arrived from — `None`
    /// for the broadcast origin's self-delivery.
    fn record_delivery(&mut self, id: u64, node: SimId, parent: Option<SimId>, depth: u32) {
        if let Some(tracer) = &mut self.path {
            tracer.record(HopRecord {
                msg: id,
                node: node.index() as u64,
                parent: parent.map(|p| p.index() as u64),
                depth,
                time: self.time,
            });
        }
        self.trace_event(node, TraceKind::Delivered { msg: id, hops: depth });
    }

    /// Appends one decision-trace event (no-op unless tracing is on).
    fn trace_event(&mut self, node: SimId, kind: TraceKind) {
        if let Some(ring) = &mut self.trace {
            ring.record(TraceEvent { time: self.time, node: node.index() as u64, kind });
        }
    }

    /// Drains membership events (defense decisions, attacker actions)
    /// buffered at `id` into the `attack.*` counters and the decision
    /// trace. Called after every membership interaction; for protocols
    /// without events the default [`Membership::take_events`] returns an
    /// empty (non-allocating) vector, so the quiet path costs nothing.
    fn collect_membership_events(&mut self, id: SimId) {
        for event in self.nodes[id.index()].memb.take_events() {
            match event {
                MembershipEvent::JoinDamped { peer } => {
                    self.metrics.inc(self.counters.attack_joins_damped);
                    self.trace_event(id, TraceKind::AdmissionDamped { peer: peer.index() as u64 });
                }
                MembershipEvent::NeighborDamped { peer } => {
                    self.metrics.inc(self.counters.attack_neighbors_damped);
                    self.trace_event(id, TraceKind::AdmissionDamped { peer: peer.index() as u64 });
                }
                MembershipEvent::TenureSwapped { peer } => {
                    self.metrics.inc(self.counters.attack_tenure_swaps);
                    self.trace_event(id, TraceKind::TenureSwap { peer: peer.index() as u64 });
                }
                MembershipEvent::ShuffleBoosted => {
                    self.metrics.inc(self.counters.attack_shuffle_boosts);
                }
                MembershipEvent::NeighborFlood { .. } => {
                    self.metrics.inc(self.counters.attack_neighbor_floods);
                }
                MembershipEvent::AttackerRejoin { .. } => {
                    self.metrics.inc(self.counters.attack_rejoins);
                }
                MembershipEvent::ShuffleBiased => {
                    self.metrics.inc(self.counters.attack_shuffles_biased);
                }
            }
        }
    }

    fn notify_send_failure(&mut self, sender: SimId, dead: SimId) {
        if !self.nodes[sender.index()].alive {
            return;
        }
        if !self.nodes[sender.index()].memb.detects_send_failures() {
            return;
        }
        self.metrics.inc(self.counters.failure_notifications);
        let mut out = Outbox::new();
        self.nodes[sender.index()].memb.on_send_failed(dead, &mut out);
        self.dispatch(sender, &mut out);
        self.sync_plumtree(sender.index());
        self.collect_membership_events(sender);
    }

    /// Ack-based gossip retry (ablation, off by default): the failed
    /// transmission is retried towards a fresh target so the effective
    /// fanout is preserved.
    fn retry_gossip(&mut self, sender: SimId, dead: SimId, id: u64, hops: u32, track: &mut Track) {
        if !self.config.retry_failed_gossip {
            return;
        }
        if track.per_mut(id).is_none() || !self.nodes[sender.index()].alive {
            return;
        }
        if !self.nodes[sender.index()].memb.detects_send_failures() {
            return;
        }
        let exclude = track.sent_by.exclusions(sender.index(), id, dead);
        let Some(replacement) = self.nodes[sender.index()].memb.retry_target(&exclude) else {
            return;
        };
        track.sent_by.record_one(sender.index(), id, replacement);
        let copies = self.frame_copies(sender, replacement);
        if let Some(per) = track.per_mut(id) {
            per.sent += copies.max(1);
            if copies == 0 {
                per.dropped += 1;
            }
        }
        self.metrics.add(self.counters.frames_sent, copies.max(1) as u64);
        self.metrics.add(self.counters.frames_payload, copies.max(1) as u64);
        for _ in 0..copies {
            let latency = self.latency_of(sender, replacement);
            self.queue.push(self.time + latency, sender, replacement, Payload::Gossip { id, hops });
        }
    }
}

/// Hashes one directed link into a latency seed. `from` and `to` mix with
/// different multipliers, so the two directions of a link draw
/// independently — per-link latency geometry is asymmetric by design.
fn mix_link(link_seed: u64, from: SimId, to: SimId) -> u64 {
    let mut x = link_seed
        ^ (from.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (to.index() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    // SplitMix64 finalizer.
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl<M: Membership<SimId>> std::fmt::Debug for Sim<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("nodes", &self.nodes.len())
            .field("alive", &self.alive_count())
            .field("time", &self.time)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyparview_core::Config;
    use hyparview_gossip::HyParViewMembership;

    fn hyparview_sim(seed: u64) -> Sim<HyParViewMembership<SimId>> {
        Sim::new(SimConfig::default(), seed, |id, seed| {
            HyParViewMembership::new(id, Config::default(), seed).unwrap()
        })
    }

    #[test]
    fn two_nodes_form_symmetric_overlay() {
        let mut sim = hyparview_sim(1);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.join(b, a);
        assert!(sim.node(a).out_view().contains(&b));
        assert!(sim.node(b).out_view().contains(&a));
    }

    #[test]
    fn broadcast_reaches_all_nodes_in_small_overlay() {
        let mut sim = hyparview_sim(2);
        let contact = sim.add_node();
        for i in 1..50 {
            let id = sim.add_node();
            assert_eq!(id.index(), i);
            sim.join(id, contact);
        }
        sim.run_cycles(5);
        let report = sim.broadcast_from(contact);
        assert_eq!(report.alive, 50);
        assert!(
            report.is_atomic(),
            "expected atomic broadcast, got {}/{}",
            report.delivered,
            report.alive
        );
        assert!(report.max_hops > 0);
    }

    #[test]
    fn failed_nodes_do_not_deliver() {
        let mut sim = hyparview_sim(3);
        let contact = sim.add_node();
        for _ in 1..30 {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(3);
        let victims = sim.fail_fraction(0.3);
        assert_eq!(victims.len(), 9);
        assert_eq!(sim.alive_count(), 21);
        let origin = sim.random_alive();
        let report = sim.broadcast_from(origin);
        assert_eq!(report.alive, 21);
        assert!(report.delivered <= 21);
    }

    #[test]
    fn fail_fraction_bounds() {
        let mut sim = hyparview_sim(4);
        for _ in 0..10 {
            sim.add_node();
        }
        assert!(sim.fail_fraction(0.0).is_empty());
        let all = sim.fail_fraction(1.0);
        assert_eq!(all.len(), 10);
        assert_eq!(sim.alive_count(), 0);
    }

    #[test]
    fn accuracy_degrades_with_failures() {
        let mut sim = hyparview_sim(5);
        let contact = sim.add_node();
        for _ in 1..40 {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(5);
        let before = sim.accuracy();
        assert!(before > 0.99, "accuracy before failures was {before}");
        sim.fail_fraction(0.5);
        let after = sim.accuracy();
        assert!(after < before, "accuracy should drop after failures");
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| {
            let mut sim = hyparview_sim(seed);
            let contact = sim.add_node();
            for _ in 1..40 {
                let id = sim.add_node();
                sim.join(id, contact);
            }
            sim.run_cycles(3);
            sim.fail_fraction(0.4);
            let r = sim.broadcast_random();
            (r.delivered, r.sent, r.redundant, r.max_hops, sim.stats())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn revive_resets_state() {
        let mut sim = hyparview_sim(6);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.join(b, a);
        sim.fail_nodes(&[b]);
        assert!(!sim.is_alive(b));
        sim.revive(b);
        assert!(sim.is_alive(b));
        assert!(sim.node(b).out_view().is_empty(), "revived node starts fresh");
    }

    #[test]
    fn out_views_mark_dead_nodes() {
        let mut sim = hyparview_sim(7);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.join(b, a);
        sim.fail_nodes(&[a]);
        let views = sim.out_views();
        assert!(views[a.index()].is_none());
        assert!(views[b.index()].is_some());
    }

    #[test]
    #[should_panic(expected = "origin must be alive")]
    fn broadcast_from_dead_panics() {
        let mut sim = hyparview_sim(8);
        let a = sim.add_node();
        sim.fail_nodes(&[a]);
        sim.broadcast_from(a);
    }

    // ------------------------------------------------------------------
    // Plumtree mode
    // ------------------------------------------------------------------

    fn plumtree_sim(seed: u64) -> Sim<HyParViewMembership<SimId>> {
        let config = SimConfig::default().with_broadcast_mode(BroadcastMode::Plumtree);
        Sim::new(config, seed, |id, seed| {
            HyParViewMembership::new(id, Config::default(), seed).unwrap()
        })
    }

    fn build_plumtree_overlay(seed: u64, n: usize) -> Sim<HyParViewMembership<SimId>> {
        let mut sim = plumtree_sim(seed);
        let contact = sim.add_node();
        for _ in 1..n {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(5);
        sim
    }

    #[test]
    fn plumtree_broadcast_is_atomic_on_stable_overlay() {
        let mut sim = build_plumtree_overlay(21, 50);
        let origin = SimId::new(0);
        let report = sim.broadcast_from(origin);
        assert_eq!(report.alive, 50);
        assert!(
            report.is_atomic(),
            "first Plumtree broadcast must span: {}/{}",
            report.delivered,
            report.alive
        );
    }

    #[test]
    fn plumtree_prunes_to_near_zero_redundancy() {
        let mut sim = build_plumtree_overlay(22, 60);
        let origin = SimId::new(0);
        // Warm-up: the first broadcasts carve the tree out of the overlay.
        for _ in 0..10 {
            sim.broadcast_from(origin);
        }
        let report = sim.broadcast_from(origin);
        assert!(report.is_atomic(), "steady state must stay atomic");
        assert_eq!(report.redundant, 0, "converged tree sends no duplicate payloads");
        assert_eq!(report.sent, report.delivered - 1, "payloads traverse exactly N-1 links");
        assert!(report.rmr().abs() < 1e-9, "RMR of a spanning tree is 0, got {}", report.rmr());
    }

    #[test]
    fn plumtree_eager_and_lazy_stay_within_active_view() {
        let mut sim = build_plumtree_overlay(23, 40);
        let origin = SimId::new(0);
        for _ in 0..5 {
            sim.broadcast_from(origin);
        }
        sim.fail_fraction(0.2);
        sim.broadcast_random();
        sim.run_cycles(2);
        for id in sim.alive_ids() {
            let view = sim.node(id).out_view();
            let pt = sim.plumtree_node(id);
            for peer in pt.eager_peers() {
                assert!(view.contains(&peer), "{id}: eager peer {peer} outside active view");
                assert!(!pt.lazy_peers().contains(&peer), "{id}: {peer} in both sets");
            }
            for peer in pt.lazy_peers() {
                assert!(view.contains(&peer), "{id}: lazy peer {peer} outside active view");
            }
        }
    }

    #[test]
    fn plumtree_accounting_balances() {
        let mut sim = build_plumtree_overlay(24, 50);
        for _ in 0..5 {
            sim.broadcast_random();
        }
        sim.fail_fraction(0.3);
        let report = sim.broadcast_random();
        assert_eq!(
            report.sent,
            (report.delivered - 1) + report.redundant + report.to_dead + report.dropped,
            "every payload send lands in exactly one bucket: {report:?}"
        );
        assert_eq!(report.dropped, 0, "no faults injected");
    }

    #[test]
    fn plumtree_graft_restores_delivery_after_eager_crash() {
        // Run Plumtree over *Cyclon*: no standing connections, so nobody is
        // told about the crash — the only mechanism that can route around
        // dead tree links during the broadcast is the IHave-timer → Graft
        // repair. (Over HyParView the TCP failure detector additionally
        // repairs the overlay itself; using Cyclon isolates the graft path
        // and exercises the any-Membership seam.)
        use hyparview_baselines::{Cyclon, CyclonConfig};
        let config = SimConfig::default().with_broadcast_mode(BroadcastMode::Plumtree);
        let mut sim = Sim::new(config, 25, |id, seed| Cyclon::new(id, CyclonConfig::paper(), seed));
        let contact = sim.add_node();
        for _ in 1..60 {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(5);
        let origin = SimId::new(0);
        for _ in 0..10 {
            sim.broadcast_from(origin);
        }
        let grafts_before: u64 =
            sim.alive_ids().iter().map(|id| sim.plumtree_node(*id).stats().grafts_sent).sum();
        // Crash a fifth of the overlay, tree links included. Views are now
        // stale and stay stale (no membership cycle runs).
        sim.fail_fraction(0.2);
        assert!(sim.is_alive(origin), "seed 25 must keep the origin alive");
        let report = sim.broadcast_from(origin);
        let grafts_after: u64 =
            sim.alive_ids().iter().map(|id| sim.plumtree_node(*id).stats().grafts_sent).sum();
        assert!(
            grafts_after > grafts_before,
            "crashed tree links must be repaired by Grafts ({grafts_before} -> {grafts_after})"
        );
        assert!(
            report.reliability() > 0.95,
            "graft repair should restore near-full delivery, got {}",
            report.reliability()
        );
    }

    #[test]
    fn plumtree_mode_is_deterministic() {
        let run = |seed: u64| {
            let mut sim = build_plumtree_overlay(seed, 40);
            sim.fail_fraction(0.3);
            let r = sim.broadcast_random();
            (r.delivered, r.sent, r.redundant, r.control, r.max_hops, sim.stats())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn burst_reports_every_message() {
        let mut sim = hyparview_sim(27);
        let contact = sim.add_node();
        for _ in 1..40 {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(3);
        let burst = sim.broadcast_burst_from(contact, 5);
        assert_eq!(burst.reports.len(), 5);
        for (i, report) in burst.reports.iter().enumerate() {
            assert_eq!(report.id, burst.reports[0].id + i as u64);
            assert!(report.is_atomic(), "burst message {i}: {report:?}");
        }
        assert_eq!(burst.control_frames, 0, "flood sends no control traffic");
    }

    #[test]
    fn plumtree_burst_batching_cuts_control_frames() {
        // The same warmed-up overlay, a burst of 8 concurrent messages:
        // with per-message IHaves every lazy link pays 8 control frames,
        // with batching it pays ~1 IHaveBatch. Reliability must not move.
        let run = |flush: u64| {
            let config = SimConfig::default()
                .with_broadcast_mode(BroadcastMode::Plumtree)
                .with_plumtree(PlumtreeConfig::default().with_lazy_flush_interval(flush));
            let mut sim = Sim::new(config, 28, |id, seed| {
                HyParViewMembership::new(id, Config::default(), seed).unwrap()
            });
            let contact = sim.add_node();
            for _ in 1..60 {
                let id = sim.add_node();
                sim.join(id, contact);
            }
            sim.run_cycles(5);
            for _ in 0..10 {
                sim.broadcast_from(contact);
            }
            sim.broadcast_burst_from(contact, 8)
        };
        let unbatched = run(0);
        let batched = run(4);
        for burst in [&unbatched, &batched] {
            for report in &burst.reports {
                assert!(report.is_atomic(), "burst must stay atomic: {report:?}");
            }
        }
        assert!(
            (batched.control_frames as f64) < unbatched.control_frames as f64 * 0.5,
            "batching should at least halve control frames: {} vs {}",
            batched.control_frames,
            unbatched.control_frames
        );
        let batches = run(4);
        let stats = |burst: &BurstReport| burst.control_frames;
        assert_eq!(stats(&batches), stats(&batched), "burst accounting is deterministic");
    }

    // ------------------------------------------------------------------
    // Latency models
    // ------------------------------------------------------------------

    #[test]
    fn uniform_constructor_reorders_degenerate_bounds() {
        let swapped = Latency::uniform(9, 2);
        assert_eq!(swapped.model.bounds(), (2, 9));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let draw = swapped.model.sample(&mut rng);
            assert!((2..=9).contains(&draw), "draw {draw} outside [2, 9]");
        }
    }

    #[test]
    fn log_normal_draws_stay_within_bounds_and_tail() {
        let latency = Latency::log_normal(4, 800);
        let (lo, hi) = latency.model.bounds();
        assert_eq!((lo, hi), (1, 4 * 32));
        let mut rng = StdRng::seed_from_u64(2);
        let draws: Vec<u64> = (0..2000).map(|_| latency.model.sample(&mut rng)).collect();
        assert!(draws.iter().all(|d| (lo..=hi).contains(d)));
        // Heavy tail: some draws land well past the median, none past cap.
        assert!(draws.iter().any(|&d| d >= 12), "no tail draws at σ = 0.8");
        let median_zone = draws.iter().filter(|&&d| (2..=8).contains(&d)).count();
        assert!(median_zone > draws.len() / 2, "mass should concentrate near the median");
    }

    #[test]
    fn per_link_geometry_is_asymmetric_and_stable() {
        let (a, b) = (SimId::new(3), SimId::new(9));
        assert_ne!(mix_link(7, a, b), mix_link(7, b, a), "directed links draw independently");
        assert_eq!(mix_link(7, a, b), mix_link(7, a, b));
        assert_ne!(mix_link(7, a, b), mix_link(8, a, b), "geometry follows the seed");
    }

    #[test]
    fn variable_latency_broadcasts_stay_atomic_and_deterministic() {
        let run = |latency: Latency| {
            let config = SimConfig::default().with_latency(latency);
            let mut sim = Sim::new(config, 31, |id, seed| {
                HyParViewMembership::new(id, Config::default(), seed).unwrap()
            });
            let contact = sim.add_node();
            for _ in 1..50 {
                let id = sim.add_node();
                sim.join(id, contact);
            }
            sim.run_cycles(3);
            let report = sim.broadcast_from(contact);
            assert!(sim.is_quiescent(), "drain must empty the event queue");
            assert!(
                report.is_atomic(),
                "{latency:?}: {} of {} delivered",
                report.delivered,
                report.alive
            );
            report
        };
        for latency in [
            Latency::fixed(3),
            Latency::uniform(1, 9),
            Latency::uniform(1, 9).per_link(),
            Latency::log_normal(3, 700),
            Latency::log_normal(3, 700).per_link(),
        ] {
            assert_eq!(run(latency), run(latency), "same seed must reproduce {latency:?}");
        }
    }

    /// Tree optimization's *late-IHave* path requires arrival order to
    /// disagree with round order. Under `fixed(1)` on a stable overlay
    /// deliveries are breadth-first — an announcement can never lose the
    /// race against a payload of a deeper round — so the late path must
    /// stay silent; under `uniform` latency the race is real and the path
    /// must fire (and each swap sends its `Prune`).
    #[test]
    fn late_optimization_fires_under_uniform_latency_never_under_fixed() {
        let run = |latency: Latency| {
            let plumtree = PlumtreeConfig::default()
                .with_optimization_threshold(Some(1))
                .with_timeouts_for_max_latency(latency.max_hop());
            let config = SimConfig::default()
                .with_latency(latency)
                .with_broadcast_mode(BroadcastMode::Plumtree)
                .with_plumtree(plumtree);
            let mut sim = Sim::new(config, 33, |id, seed| {
                HyParViewMembership::new(id, Config::default(), seed).unwrap()
            });
            let contact = sim.add_node();
            for _ in 1..80 {
                let id = sim.add_node();
                sim.join(id, contact);
            }
            sim.run_cycles(5);
            let origin = SimId::new(0);
            for _ in 0..20 {
                let report = sim.broadcast_from(origin);
                assert!(report.is_atomic(), "{latency:?} broadcast lost deliveries");
            }
            sim.plumtree_stats_total().expect("Plumtree mode")
        };
        let fixed = run(Latency::fixed(1));
        assert_eq!(
            fixed.late_optimizations, 0,
            "unit latency delivers in round order: no IHave can arrive late with a better round"
        );
        let uniform = run(Latency::uniform(1, 8));
        assert!(
            uniform.late_optimizations > 0,
            "variable latency must exercise the late-IHave optimization: {uniform:?}"
        );
        assert!(uniform.optimizations >= uniform.late_optimizations);
        assert!(uniform.prunes_sent > 0, "every optimization prunes the old parent");
    }

    /// Pins the exact totals of a small static-Plumtree run over a per-link
    /// latency geometry. Every number is a pure function of the seed, so a
    /// change to event order, frame accounting, timer handling, delivery
    /// bookkeeping or the latency draws shows up here as a changed total.
    #[test]
    fn plumtree_per_link_run_totals_are_pinned() {
        let config = SimConfig::default()
            .with_latency(Latency::uniform(1, 20).per_link())
            .with_broadcast_mode(BroadcastMode::Plumtree)
            .with_plumtree(PlumtreeConfig::default().with_timeouts_for_max_latency(20));
        let mut sim = Sim::new(config, 13, |id, seed| {
            HyParViewMembership::new(id, Config::default(), seed).unwrap()
        });
        let contact = sim.add_node();
        for _ in 1..200 {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(5);
        let (mut sent, mut delivered) = (0, 0);
        for _ in 0..4 {
            sim.run_cycles(1);
            for _ in 0..3 {
                let origin = sim.random_alive();
                for report in sim.broadcast_burst_from(origin, 2).reports {
                    sent += report.sent;
                    delivered += report.delivered;
                }
            }
        }
        let frames = sim.metrics().value_by_name(names::FRAMES_SENT).unwrap();
        assert_eq!(
            (sim.stats().events_processed, frames, sent, delivered, sim.time()),
            (49_791, 47_955, 5_980, 4_800, 202_433)
        );
        assert_eq!(
            sim.plumtree_stats_total().unwrap(),
            PlumtreeStats {
                gossip_sent: 5_980,
                ihave_sent: 13_232,
                ihave_batches_sent: 0,
                grafts_sent: 0,
                prunes_sent: 1_204,
                optimizations: 0,
                late_optimizations: 0,
                graft_dead_letters: 0,
                delivered: 4_800,
                redundant: 1_204,
            }
        );
    }

    #[test]
    fn has_delivered_agrees_between_flood_and_plumtree() {
        for mode in [BroadcastMode::Flood, BroadcastMode::Plumtree] {
            let mut sim =
                Sim::new(SimConfig::default().with_broadcast_mode(mode), 17, |id, seed| {
                    HyParViewMembership::new(id, Config::default(), seed).unwrap()
                });
            let contact = sim.add_node();
            for _ in 1..60 {
                let id = sim.add_node();
                sim.join(id, contact);
            }
            sim.run_cycles(3);
            let report = sim.broadcast_from(contact);
            assert!(report.is_atomic(), "{mode:?}: the stable overlay must deliver to all");
            let never_sent = sim.next_broadcast_id();
            let alive = sim.alive_ids();
            assert!(alive.iter().all(|&node| sim.has_delivered(node, report.id)), "{mode:?}");
            assert!(alive.iter().all(|&node| !sim.has_delivered(node, never_sent)), "{mode:?}");
        }
    }

    #[test]
    fn flood_reports_have_no_control_traffic() {
        let mut sim = hyparview_sim(26);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.join(b, a);
        let report = sim.broadcast_from(a);
        assert_eq!(report.control, 0);
    }

    // ------------------------------------------------------------------
    // Observability: registry metrics, path tracing, decision trace
    // ------------------------------------------------------------------

    #[test]
    fn metrics_registry_mirrors_sim_stats_snapshot() {
        let mut sim = hyparview_sim(31);
        let contact = sim.add_node();
        for _ in 1..20 {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(3);
        sim.broadcast_from(contact);
        let stats = sim.stats();
        let m = sim.metrics();
        assert!(stats.events_processed > 0);
        assert_eq!(m.value_by_name(names::SIM_EVENTS_PROCESSED), Some(stats.events_processed));
        assert_eq!(
            m.value_by_name(names::SIM_MEMBERSHIP_DELIVERED),
            Some(stats.membership_delivered)
        );
        assert_eq!(m.value_by_name(names::BROADCAST_SENT), Some(stats.broadcasts));
        assert!(m.value_by_name(names::FRAMES_SENT).unwrap() > 0);
        // Every cross-transport metric name is present in the snapshot.
        let snapshot = sim.metrics_snapshot();
        for name in names::SHARED_TRANSPORT_NAMES {
            assert!(snapshot.value_by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn path_tracing_reconstructs_a_spanning_dissemination_tree() {
        let mut sim = build_plumtree_overlay(32, 40);
        for _ in 0..5 {
            sim.broadcast_from(SimId::new(0));
        }
        sim.enable_path_tracing();
        let report = sim.broadcast_from(SimId::new(0));
        assert!(report.is_atomic());
        let tracer = sim.take_path_records();
        let tree = tracer.tree(report.id).expect("traced broadcast has a tree");
        assert_eq!(tree.node_count(), report.alive, "tree spans every alive node");
        assert_eq!(tree.records()[0].parent, None, "root is the origin");
        assert_eq!(tree.max_depth(), report.max_hops);
        let hops = tree.hop_latency_histogram();
        assert_eq!(hops.count(), report.alive as u64 - 1, "one hop latency per non-root");
        let rendered = tree.render();
        assert!(rendered.contains("msg"), "render names the message: {rendered}");
        assert!(sim.path_records().is_empty(), "take drains the tracer");
    }

    #[test]
    fn path_tracing_works_in_flood_mode_too() {
        let mut sim = hyparview_sim(33);
        let contact = sim.add_node();
        for _ in 1..20 {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(3);
        sim.enable_path_tracing();
        let report = sim.broadcast_from(contact);
        let tree = sim.take_path_records().tree(report.id).expect("flood tree");
        assert_eq!(tree.node_count(), report.delivered);
        assert_eq!(tree.max_depth(), report.max_hops);
    }

    #[test]
    fn decision_trace_records_plumtree_protocol_events() {
        let mut sim = build_plumtree_overlay(34, 40);
        sim.enable_tracing(4096);
        for _ in 0..10 {
            sim.broadcast_from(SimId::new(0));
        }
        let ring = sim.trace().expect("tracing enabled");
        assert!(!ring.is_empty());
        let kinds: Vec<_> = ring.events().map(|e| &e.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, TraceKind::Delivered { .. })));
        assert!(kinds.iter().any(|k| matches!(k, TraceKind::PruneSent { .. })));
        assert!(kinds.iter().any(|k| matches!(k, TraceKind::LazyDemote { .. })));
        assert!(kinds.iter().any(|k| matches!(k, TraceKind::TimerFired { .. })));
        // Ring stays bounded.
        assert!(ring.len() <= 4096);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn lossy_sim(
        seed: u64,
        plan: FaultPlan,
        mode: BroadcastMode,
    ) -> Sim<HyParViewMembership<SimId>> {
        let config = SimConfig::default().with_broadcast_mode(mode).with_faults(plan);
        Sim::new(config, seed, |id, seed| {
            HyParViewMembership::new(id, Config::default(), seed).unwrap()
        })
    }

    fn build_overlay(sim: &mut Sim<HyParViewMembership<SimId>>, n: usize) -> SimId {
        let contact = sim.add_node();
        for _ in 1..n {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(5);
        contact
    }

    #[test]
    fn zero_loss_plan_matches_the_faultless_run_exactly() {
        let plan = FaultPlan::default().with_loss(0.0).with_duplication(0.0);
        assert!(!plan.is_active(), "a zero plan must take the inert fast path");
        let mut plain = hyparview_sim(40);
        let mut faulted = lossy_sim(40, plan, BroadcastMode::Flood);
        build_overlay(&mut plain, 40);
        build_overlay(&mut faulted, 40);
        for _ in 0..5 {
            assert_eq!(plain.broadcast_random(), faulted.broadcast_random());
        }
        assert_eq!(plain.stats(), faulted.stats());
        assert_eq!(plain.time(), faulted.time());
    }

    #[test]
    fn fault_injection_is_deterministic_per_seed() {
        let plan = FaultPlan::default().with_loss(0.1).with_duplication(0.05);
        let mut a = lossy_sim(41, plan.clone(), BroadcastMode::Plumtree);
        let mut b = lossy_sim(41, plan, BroadcastMode::Plumtree);
        build_overlay(&mut a, 50);
        build_overlay(&mut b, 50);
        for _ in 0..8 {
            assert_eq!(a.broadcast_random(), b.broadcast_random());
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(
            a.metrics().value_by_name(names::FAULTS_DROPPED),
            b.metrics().value_by_name(names::FAULTS_DROPPED)
        );
    }

    #[test]
    fn lossy_broadcasts_stay_quiescent_and_balance_their_accounting() {
        for mode in [BroadcastMode::Flood, BroadcastMode::Plumtree] {
            let plan = FaultPlan::default().with_loss(0.25);
            let mut sim = lossy_sim(42, plan, mode);
            build_overlay(&mut sim, 60);
            let mut dropped = 0;
            for _ in 0..10 {
                let report = sim.broadcast_random();
                assert_eq!(
                    report.sent,
                    (report.delivered - 1) + report.redundant + report.to_dead + report.dropped,
                    "dropped frames land in their own bucket: {report:?}"
                );
                dropped += report.dropped;
                assert!(sim.is_quiescent(), "drops must not strand pending events");
                assert_eq!(sim.pending_events(), 0);
            }
            assert!(dropped > 0, "25% loss drops something across 10 broadcasts ({mode:?})");
            assert!(sim.metrics().value_by_name(names::FAULTS_DROPPED).unwrap_or(0) > 0);
        }
    }

    #[test]
    fn duplication_is_counted_and_cannot_hurt_delivery() {
        let plan = FaultPlan::default().with_duplication(0.3);
        let mut sim = lossy_sim(43, plan, BroadcastMode::Flood);
        let contact = build_overlay(&mut sim, 40);
        let report = sim.broadcast_from(contact);
        assert!(report.is_atomic(), "duplication alone never loses a frame");
        assert_eq!(
            report.sent,
            (report.delivered - 1) + report.redundant + report.to_dead + report.dropped
        );
        assert!(sim.metrics().value_by_name(names::FAULTS_DUPLICATED).unwrap_or(0) > 0);
        assert_eq!(sim.metrics().value_by_name(names::FAULTS_DROPPED), Some(0));
    }

    #[test]
    fn per_link_loss_override_kills_exactly_that_direction() {
        // Two nodes, the a→b direction always drops: a's broadcasts stop at
        // a, while b's still reach everyone.
        let plan = FaultPlan::default().with_link_loss(0, 1, 1.0);
        let mut sim = lossy_sim(44, plan, BroadcastMode::Flood);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.join(b, a);
        let from_a = sim.broadcast_from(a);
        assert_eq!(from_a.delivered, 1, "a→b is severed: {from_a:?}");
        assert_eq!(from_a.dropped, from_a.sent);
        let from_b = sim.broadcast_from(b);
        assert!(from_b.is_atomic(), "b→a keeps the global (zero) loss rate: {from_b:?}");
    }

    #[test]
    fn partition_cuts_cross_group_frames_and_heal_restores_convergence() {
        let mut sim = hyparview_sim(45);
        let contact = build_overlay(&mut sim, 40);
        let alive = sim.alive_ids();
        let (left, right) = alive.split_at(alive.len() / 2);
        sim.partition_network(&[left.to_vec(), right.to_vec()]);
        assert!(sim.partitioned());
        let cut = sim.broadcast_from(contact);
        assert!(!cut.is_atomic(), "a partitioned flood cannot reach the far side");
        assert!(cut.delivered <= left.len());
        assert!(cut.dropped > 0, "cross-group frames drop: {cut:?}");
        assert!(sim.is_quiescent());
        let boundary_drops =
            sim.metrics().value_by_name(names::FAULTS_PARTITION_DROPPED).unwrap_or(0);
        assert!(boundary_drops > 0);
        sim.heal_partitions();
        assert!(!sim.partitioned());
        let healed = sim.broadcast_from(contact);
        assert!(healed.is_atomic(), "healing restores single-component convergence: {healed:?}");
        assert_eq!(healed.dropped, 0);
    }

    #[test]
    fn timed_partition_and_heal_apply_at_their_virtual_times() {
        // Four nodes, halves split at t=2000 and rejoined at t=2012. The
        // ops fire *mid-drain* as broadcasts push virtual time across the
        // window; intra-group traffic keeps the clock moving throughout.
        let plan =
            FaultPlan::default().with_partition_at(&[&[0, 1], &[2, 3]], 2_000).with_heal_at(2_012);
        let mut sim = lossy_sim(46, plan, BroadcastMode::Flood);
        let contact = build_overlay(&mut sim, 4);
        assert!(sim.time() < 2_000, "overlay built before the partition cue");
        assert!(!sim.partitioned());
        let mut saw_cut = false;
        while sim.time() <= 2_030 {
            let report = sim.broadcast_from(contact);
            if !report.is_atomic() {
                saw_cut = true;
                assert!(
                    sim.metrics().value_by_name(names::FAULTS_PARTITION_DROPPED).unwrap_or(0) > 0
                );
            }
        }
        assert!(saw_cut, "the partition window must cut at least one broadcast");
        assert!(!sim.partitioned(), "the heal op fired");
        assert!(sim.broadcast_from(contact).is_atomic());
    }

    #[test]
    fn dropped_frames_are_traced_at_the_sender() {
        let plan = FaultPlan::default().with_loss(0.5);
        let mut sim = lossy_sim(47, plan, BroadcastMode::Flood);
        let contact = build_overlay(&mut sim, 30);
        sim.enable_tracing(4096);
        for _ in 0..5 {
            sim.broadcast_from(contact);
        }
        let ring = sim.trace().expect("tracing enabled");
        assert!(
            ring.events().any(|e| matches!(e.kind, TraceKind::FrameDropped { .. })),
            "50% loss must trace FrameDropped"
        );
    }
}
