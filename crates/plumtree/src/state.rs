//! The sans-io Plumtree state machine.

use crate::config::PlumtreeConfig;
use crate::message::{Announcement, MsgId, PlumtreeMessage};
use hyparview_core::collections::RandomSet;
use hyparview_core::Identity;
use hyparview_gossip::Outbox;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};

/// Maximum number of announcements per `IHaveBatch` message. Flushes chunk
/// longer queues so one batch always fits a wire frame (20 bytes per
/// announcement, well under `hyparview-net`'s 64 KiB frame cap).
pub const MAX_IHAVE_BATCH: usize = 1024;

/// A local delivery produced by the state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlumtreeDelivery<P> {
    /// Broadcast identifier.
    pub id: MsgId,
    /// Hops travelled before delivery (0 = this node is the origin).
    pub round: u32,
    /// Application payload.
    pub payload: P,
}

/// The timers a Plumtree runtime must support.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlumtreeTimer {
    /// Missing-message timer: an `IHave` arrived for an undelivered
    /// message; on expiration the node grafts from an announcer.
    Missing(MsgId),
    /// Lazy-flush timer: announcements are queued; on expiration the
    /// per-peer queues drain as (batched) `IHave`s.
    LazyFlush,
}

/// A request to schedule a timer.
///
/// The runtime must call [`PlumtreeState::on_timer`] with `timer` after
/// `delay` timer units. Timers need no cancellation support: an expiration
/// that is no longer relevant (message already delivered, queues empty) is
/// a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerRequest {
    /// Which timer to arm.
    pub timer: PlumtreeTimer,
    /// Delay in abstract timer units (see [`PlumtreeConfig`]).
    pub delay: u64,
}

/// Effects emitted by one state-machine event — the Plumtree counterpart of
/// `hyparview_core::Actions`, built on the gossip crate's [`Outbox`] seam.
#[derive(Debug, Clone)]
pub struct PlumtreeOut<I: Identity, P> {
    /// Protocol messages to ship, in FIFO order.
    pub outbox: Outbox<I, PlumtreeMessage<P>>,
    /// Payloads to hand to the application, in delivery order.
    pub deliveries: Vec<PlumtreeDelivery<P>>,
    /// Timers the runtime must arm.
    pub timers: Vec<TimerRequest>,
}

impl<I: Identity, P> Default for PlumtreeOut<I, P> {
    fn default() -> Self {
        PlumtreeOut { outbox: Outbox::new(), deliveries: Vec::new(), timers: Vec::new() }
    }
}

impl<I: Identity, P> PlumtreeOut<I, P> {
    /// Creates an empty effect buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when no effect of any kind is pending.
    pub fn is_empty(&self) -> bool {
        self.outbox.is_empty() && self.deliveries.is_empty() && self.timers.is_empty()
    }
}

/// Cumulative per-node counters (diagnostics and experiment output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlumtreeStats {
    /// Payload messages sent (eager pushes and graft replies).
    pub gossip_sent: u64,
    /// `IHave` announcements sent (batched announcements count
    /// individually; see [`PlumtreeStats::ihave_batches_sent`] for frames).
    pub ihave_sent: u64,
    /// `IHaveBatch` frames sent (each carrying ≥ 2 announcements).
    pub ihave_batches_sent: u64,
    /// `Graft` repairs sent (payload-pulling grafts only).
    pub grafts_sent: u64,
    /// `Prune` demotions sent.
    pub prunes_sent: u64,
    /// Tree optimizations performed (§3.8): a shorter lazy path was
    /// swapped into the tree (one payload-free `Graft` + one `Prune`).
    pub optimizations: u64,
    /// The subset of [`PlumtreeStats::optimizations`] triggered by an
    /// `IHave` that arrived *after* its payload had been delivered — the
    /// paper's original race. Arrival order can only disagree with round
    /// order like that when link latencies vary, so this stays 0 under a
    /// unit-latency runtime (there the swap is evaluated against the
    /// pending announcers at delivery time instead).
    pub late_optimizations: u64,
    /// Missing messages abandoned after
    /// [`PlumtreeConfig::graft_retry_limit`] failed `Graft` attempts.
    pub graft_dead_letters: u64,
    /// First-time payload deliveries (own broadcasts included).
    pub delivered: u64,
    /// Redundant payload receipts.
    pub redundant: u64,
}

/// The `plumtree.*` registry names, field order of [`PlumtreeStats`].
pub const METRIC_NAMES: [&str; 10] = [
    "plumtree.gossip_sent",
    "plumtree.ihave_sent",
    "plumtree.ihave_batches_sent",
    "plumtree.grafts_sent",
    "plumtree.prunes_sent",
    "plumtree.optimizations",
    "plumtree.late_optimizations",
    "plumtree.graft_dead_letters",
    "plumtree.delivered",
    "plumtree.redundant",
];

impl PlumtreeStats {
    /// Writes this snapshot into `registry` under the canonical
    /// `plumtree.*` names (absolute values, so republishing a refreshed
    /// snapshot never double-counts). [`PlumtreeStats`] stays the
    /// plain-struct *view*; the registry is the cross-layer form that
    /// cluster aggregation merges.
    pub fn fill_registry(&self, registry: &mut hyparview_obsv::Registry) {
        let values = [
            self.gossip_sent,
            self.ihave_sent,
            self.ihave_batches_sent,
            self.grafts_sent,
            self.prunes_sent,
            self.optimizations,
            self.late_optimizations,
            self.graft_dead_letters,
            self.delivered,
            self.redundant,
        ];
        for (name, value) in METRIC_NAMES.iter().zip(values) {
            let id = registry.counter(name);
            registry.set_counter(id, value);
        }
    }
}

impl std::ops::AddAssign for PlumtreeStats {
    fn add_assign(&mut self, rhs: PlumtreeStats) {
        self.gossip_sent += rhs.gossip_sent;
        self.ihave_sent += rhs.ihave_sent;
        self.ihave_batches_sent += rhs.ihave_batches_sent;
        self.grafts_sent += rhs.grafts_sent;
        self.prunes_sent += rhs.prunes_sent;
        self.optimizations += rhs.optimizations;
        self.late_optimizations += rhs.late_optimizations;
        self.graft_dead_letters += rhs.graft_dead_letters;
        self.delivered += rhs.delivered;
        self.redundant += rhs.redundant;
    }
}

#[derive(Debug, Clone)]
struct Cached<I, P> {
    round: u32,
    /// The eager peer that delivered the payload (`None` for own
    /// broadcasts) — the node's parent in this message's tree, and the
    /// link tree optimization prunes when a shorter lazy path shows up.
    parent: Option<I>,
    payload: P,
}

/// Announcers and graft attempts of one undelivered message.
#[derive(Debug, Clone)]
struct MissingEntry<I> {
    /// Announcers in arrival order, each with the round it announced.
    announcers: Vec<(I, u32)>,
    /// `Graft`s already sent for this message.
    grafts: u32,
}

impl<I> Default for MissingEntry<I> {
    fn default() -> Self {
        MissingEntry { announcers: Vec::new(), grafts: 0 }
    }
}

/// Per-node Plumtree state: eager/lazy peer sets, the message cache and the
/// missing-message bookkeeping.
///
/// Neighbor maintenance is driven by the membership layer: feed active-view
/// changes through [`PlumtreeState::on_neighbor_up`] /
/// [`PlumtreeState::on_neighbor_down`], or let
/// [`PlumtreeState::sync_neighbors`] diff a full view snapshot (works with
/// any [`Membership`](hyparview_gossip::Membership) implementation). New
/// links start *eager*, exactly like HyParView's freshly-promoted
/// active-view members (§4.1's symmetric views make the tree edges
/// bidirectional).
#[derive(Debug, Clone)]
pub struct PlumtreeState<I: Identity, P: Clone> {
    me: I,
    config: PlumtreeConfig,
    eager: RandomSet<I>,
    lazy: RandomSet<I>,
    /// Every delivered message still remembered, with its payload: the
    /// one table behind both duplicate detection and graft replies.
    cache: HashMap<MsgId, Cached<I, P>>,
    /// The ids of `cache` in delivery order; the front is evicted once
    /// [`PlumtreeConfig::cache_capacity`] is exceeded.
    order: VecDeque<MsgId>,
    /// Undelivered messages we have heard announcements for.
    missing: HashMap<MsgId, MissingEntry<I>>,
    /// Messages with an armed missing-message timer.
    timer_armed: HashSet<MsgId>,
    /// Per-peer queued lazy announcements, in lazy-set insertion order
    /// (a `Vec` keeps flush order deterministic for the simulator).
    lazy_queue: Vec<(I, Vec<Announcement>)>,
    /// Whether a [`PlumtreeTimer::LazyFlush`] is in flight.
    flush_armed: bool,
    stats: PlumtreeStats,
}

impl<I: Identity, P: Clone> PlumtreeState<I, P> {
    /// Creates the state machine for node `me`.
    ///
    /// # Panics
    ///
    /// Panics if `config.cache_capacity` is zero.
    pub fn new(me: I, config: PlumtreeConfig) -> Self {
        assert!(config.cache_capacity > 0, "cache capacity must be positive");
        PlumtreeState {
            me,
            config,
            eager: RandomSet::new(),
            lazy: RandomSet::new(),
            cache: HashMap::new(),
            order: VecDeque::new(),
            missing: HashMap::new(),
            timer_armed: HashSet::new(),
            lazy_queue: Vec::new(),
            flush_armed: false,
            stats: PlumtreeStats::default(),
        }
    }

    /// This node's identifier.
    pub fn me(&self) -> I {
        self.me
    }

    /// The configuration this instance runs with.
    pub fn config(&self) -> &PlumtreeConfig {
        &self.config
    }

    /// Peers receiving eager payload pushes (the node's tree links).
    pub fn eager_peers(&self) -> Vec<I> {
        self.eager.to_vec()
    }

    /// Peers receiving lazy `IHave` announcements only.
    pub fn lazy_peers(&self) -> Vec<I> {
        self.lazy.to_vec()
    }

    /// `true` if `peer` is currently tracked (eager or lazy).
    pub fn is_neighbor(&self, peer: &I) -> bool {
        self.eager.contains(peer) || self.lazy.contains(peer)
    }

    /// `true` once `id` has been delivered and its payload is still in the
    /// cache: an evicted id reads as unseen, and a re-sent payload of it
    /// delivers again.
    pub fn has_seen(&self, id: MsgId) -> bool {
        self.cache.contains_key(&id)
    }

    /// Number of payloads currently cached for graft replies.
    pub fn cached_len(&self) -> usize {
        self.cache.len()
    }

    /// Number of lazy announcements queued for the next flush (0 when
    /// batching is disabled).
    pub fn queued_announcements(&self) -> usize {
        self.lazy_queue.iter().map(|(_, anns)| anns.len()).sum()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &PlumtreeStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Neighbor maintenance
    // ------------------------------------------------------------------

    /// `peer` entered the active view: new links start eager so fresh
    /// overlay repairs immediately carry payloads (Plumtree §3.5).
    pub fn on_neighbor_up(&mut self, peer: I) {
        if peer == self.me || self.is_neighbor(&peer) {
            return;
        }
        self.eager.insert(peer);
    }

    /// `peer` left the active view: forget it entirely, including its
    /// outstanding `IHave` announcements and queued lazy pushes.
    pub fn on_neighbor_down(&mut self, peer: I) {
        self.eager.remove(&peer);
        self.lazy.remove(&peer);
        for entry in self.missing.values_mut() {
            entry.announcers.retain(|(p, _)| *p != peer);
        }
        self.lazy_queue.retain(|(p, _)| *p != peer);
    }

    /// Reconciles the eager/lazy sets against a fresh active-view snapshot:
    /// view members we do not track yet come up (eager), tracked peers that
    /// left the view go down. This is the adapter that plugs Plumtree into
    /// any `Membership` implementation without a neighbor-event callback.
    pub fn sync_neighbors(&mut self, view: &[I]) {
        let gone: Vec<I> = self
            .eager
            .iter()
            .chain(self.lazy.iter())
            .filter(|p| !view.contains(p))
            .copied()
            .collect();
        for peer in gone {
            self.on_neighbor_down(peer);
        }
        for peer in view {
            self.on_neighbor_up(*peer);
        }
    }

    // ------------------------------------------------------------------
    // Broadcast and message handling
    // ------------------------------------------------------------------

    /// Starts a broadcast at this node: delivers locally, eager-pushes the
    /// payload and lazily announces it.
    pub fn broadcast(&mut self, id: MsgId, payload: P, out: &mut PlumtreeOut<I, P>) {
        if !self.remember(id, 0, None, payload.clone()) {
            return; // id collision with a cached broadcast: drop
        }
        self.stats.delivered += 1;
        out.deliveries.push(PlumtreeDelivery { id, round: 0, payload: payload.clone() });
        self.eager_push(id, 1, payload, None, out);
        self.lazy_push(id, 1, None, out);
    }

    /// Handles one Plumtree message received from `from`.
    pub fn handle_message(
        &mut self,
        from: I,
        message: PlumtreeMessage<P>,
        out: &mut PlumtreeOut<I, P>,
    ) {
        match message {
            PlumtreeMessage::Gossip { id, round, payload } => {
                self.on_gossip(from, id, round, payload, out)
            }
            PlumtreeMessage::IHave { id, round } => self.on_ihave(from, id, round, out),
            PlumtreeMessage::IHaveBatch { anns } => {
                for ann in anns {
                    self.on_ihave(from, ann.id, ann.round, out);
                }
            }
            PlumtreeMessage::Graft { id, round } => self.on_graft(from, id, round, out),
            PlumtreeMessage::Prune => self.on_prune(from),
        }
    }

    /// A timer armed by an earlier [`TimerRequest`] expired.
    pub fn on_timer(&mut self, timer: PlumtreeTimer, out: &mut PlumtreeOut<I, P>) {
        match timer {
            PlumtreeTimer::Missing(id) => self.on_missing_timer(id, out),
            PlumtreeTimer::LazyFlush => self.on_flush_timer(out),
        }
    }

    fn on_missing_timer(&mut self, id: MsgId, out: &mut PlumtreeOut<I, P>) {
        self.timer_armed.remove(&id);
        if self.has_seen(id) {
            self.missing.remove(&id);
            return;
        }
        let Some(entry) = self.missing.get_mut(&id) else {
            return;
        };
        if entry.announcers.is_empty() {
            self.missing.remove(&id);
            return;
        }
        if entry.grafts >= self.config.graft_retry_limit {
            // Every retry failed (partitioned overlay, dead announcers):
            // stop re-arming and count the message as a dead letter.
            self.missing.remove(&id);
            self.stats.graft_dead_letters += 1;
            return;
        }
        entry.grafts += 1;
        // Pull from the earliest announcer and move the link into the tree;
        // if it too is gone, the next expiration tries the next one.
        let (peer, round) = entry.announcers.remove(0);
        self.promote_eager(peer);
        self.stats.grafts_sent += 1;
        out.outbox.send(peer, PlumtreeMessage::Graft { id: Some(id), round });
        self.arm_missing_timer(id, self.config.graft_timeout, out);
    }

    /// Drains the per-peer announcement queues as (batched) `IHave`s.
    fn on_flush_timer(&mut self, out: &mut PlumtreeOut<I, P>) {
        self.flush_armed = false;
        let queue = std::mem::take(&mut self.lazy_queue);
        for (peer, anns) in queue {
            if !self.is_neighbor(&peer) {
                continue;
            }
            for chunk in anns.chunks(MAX_IHAVE_BATCH) {
                self.stats.ihave_sent += chunk.len() as u64;
                if let [ann] = chunk {
                    out.outbox.send(peer, PlumtreeMessage::IHave { id: ann.id, round: ann.round });
                } else {
                    self.stats.ihave_batches_sent += 1;
                    out.outbox.send(peer, PlumtreeMessage::IHaveBatch { anns: chunk.to_vec() });
                }
            }
        }
    }

    fn on_gossip(
        &mut self,
        from: I,
        id: MsgId,
        round: u32,
        payload: P,
        out: &mut PlumtreeOut<I, P>,
    ) {
        if self.remember(id, round, Some(from), payload.clone()) {
            self.stats.delivered += 1;
            out.deliveries.push(PlumtreeDelivery { id, round, payload: payload.clone() });
            let pending = self.missing.remove(&id);
            // The sender is our parent in the tree for this message.
            self.promote_eager(from);
            self.eager_push(id, round + 1, payload, Some(from), out);
            self.lazy_push(id, round + 1, Some(from), out);
            // Over unit-latency links payloads and announcements arrive in
            // strict round order, so the announcement of a shorter lazy
            // path always *precedes* the eager delivery — it is waiting in
            // the missing entry rather than arriving as a late IHave.
            // Consider the shortest still-lazy announcer for optimization
            // (after the pushes above, which must use the pre-swap sets).
            if let Some(entry) = pending {
                let best = entry
                    .announcers
                    .iter()
                    .filter(|(peer, _)| self.lazy.contains(peer))
                    .min_by_key(|(_, ann_round)| *ann_round)
                    .copied();
                if let Some((peer, ann_round)) = best {
                    self.maybe_optimize(peer, id, ann_round, out);
                }
            }
        } else {
            // Redundant payload: demote the link and tell the sender.
            self.stats.redundant += 1;
            self.demote_lazy(from);
            self.stats.prunes_sent += 1;
            out.outbox.send(from, PlumtreeMessage::Prune);
        }
    }

    fn on_ihave(&mut self, from: I, id: MsgId, round: u32, out: &mut PlumtreeOut<I, P>) {
        if self.has_seen(id) {
            let swaps_before = self.stats.optimizations;
            self.maybe_optimize(from, id, round, out);
            if self.stats.optimizations > swaps_before {
                // The announcement lost the race against its payload yet
                // still revealed a shorter path: the variable-latency case.
                self.stats.late_optimizations += 1;
            }
            return;
        }
        self.missing.entry(id).or_default().announcers.push((from, round));
        if !self.timer_armed.contains(&id) {
            self.arm_missing_timer(id, self.config.ihave_timeout, out);
        }
    }

    /// Plumtree §3.8 tree optimization: an `IHave` for an already-delivered
    /// message whose announced round beats the eager delivery round by at
    /// least [`PlumtreeConfig::optimization_threshold`] reveals a shorter
    /// path through the overlay. Swap it into the tree: promote the lazy
    /// announcer with a payload-free `Graft` and `Prune` the current eager
    /// parent, keeping the tree shallow as the overlay evolves.
    fn maybe_optimize(&mut self, from: I, id: MsgId, round: u32, out: &mut PlumtreeOut<I, P>) {
        let Some(threshold) = self.config.optimization_threshold else {
            return;
        };
        if !self.lazy.contains(&from) {
            return;
        }
        let Some(cached) = self.cache.get(&id) else {
            return;
        };
        let (eager_round, parent) = (cached.round, cached.parent);
        let Some(parent) = parent else {
            return; // own broadcast: this node is the root
        };
        if parent == from || !self.eager.contains(&parent) {
            return;
        }
        if round >= eager_round || eager_round - round < threshold {
            return;
        }
        self.promote_eager(from);
        out.outbox.send(from, PlumtreeMessage::Graft { id: None, round });
        self.demote_lazy(parent);
        self.stats.prunes_sent += 1;
        out.outbox.send(parent, PlumtreeMessage::Prune);
        if let Some(cached) = self.cache.get_mut(&id) {
            // The swap makes `from` the expected parent at *its* announced
            // round: later announcements must beat the new path, not the
            // original delivery, or a worse announcer could undo the swap.
            cached.parent = Some(from);
            cached.round = round;
        }
        self.stats.optimizations += 1;
    }

    fn on_graft(&mut self, from: I, id: Option<MsgId>, _round: u32, out: &mut PlumtreeOut<I, P>) {
        self.promote_eager(from);
        let Some(id) = id else {
            return; // optimization graft: promotion only, no payload pull
        };
        if let Some(cached) = self.cache.get(&id) {
            self.stats.gossip_sent += 1;
            out.outbox.send(
                from,
                PlumtreeMessage::Gossip {
                    id,
                    round: cached.round + 1,
                    payload: cached.payload.clone(),
                },
            );
        }
    }

    fn on_prune(&mut self, from: I) {
        self.demote_lazy(from);
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Marks the missing-message timer for `id` armed and asks the runtime
    /// to schedule it.
    fn arm_missing_timer(&mut self, id: MsgId, delay: u64, out: &mut PlumtreeOut<I, P>) {
        self.timer_armed.insert(id);
        out.timers.push(TimerRequest { timer: PlumtreeTimer::Missing(id), delay });
    }

    /// Caches `id` with its payload, returning `true` on first sight. Past
    /// the capacity the oldest id is evicted, which forgets it as seen and
    /// drops its payload at once.
    fn remember(&mut self, id: MsgId, round: u32, parent: Option<I>, payload: P) -> bool {
        let Entry::Vacant(slot) = self.cache.entry(id) else {
            return false;
        };
        slot.insert(Cached { round, parent, payload });
        self.order.push_back(id);
        if self.order.len() > self.config.cache_capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.cache.remove(&oldest);
            }
        }
        true
    }

    fn eager_push(
        &mut self,
        id: MsgId,
        round: u32,
        payload: P,
        exclude: Option<I>,
        out: &mut PlumtreeOut<I, P>,
    ) {
        for &peer in self.eager.iter() {
            if Some(peer) == exclude {
                continue;
            }
            self.stats.gossip_sent += 1;
            out.outbox.send(peer, PlumtreeMessage::Gossip { id, round, payload: payload.clone() });
        }
    }

    fn lazy_push(
        &mut self,
        id: MsgId,
        round: u32,
        exclude: Option<I>,
        out: &mut PlumtreeOut<I, P>,
    ) {
        if self.config.lazy_flush_interval == 0 {
            // Batching disabled: one IHave frame per message per lazy peer.
            for &peer in self.lazy.iter() {
                if Some(peer) == exclude {
                    continue;
                }
                self.stats.ihave_sent += 1;
                out.outbox.send(peer, PlumtreeMessage::IHave { id, round });
            }
            return;
        }
        let ann = Announcement { id, round };
        let mut queued = false;
        for &peer in self.lazy.iter() {
            if Some(peer) == exclude {
                continue;
            }
            match self.lazy_queue.iter_mut().find(|(p, _)| *p == peer) {
                Some((_, anns)) => anns.push(ann),
                None => self.lazy_queue.push((peer, vec![ann])),
            }
            queued = true;
        }
        if queued && !self.flush_armed {
            self.flush_armed = true;
            out.timers.push(TimerRequest {
                timer: PlumtreeTimer::LazyFlush,
                delay: self.config.lazy_flush_interval,
            });
        }
    }

    /// Moves a *known* neighbor into the eager set. Senders that are not in
    /// the active view (stale links, in-flight membership changes) are left
    /// alone — the eager/lazy sets stay within the view by construction.
    fn promote_eager(&mut self, peer: I) {
        if self.lazy.remove(&peer) {
            self.eager.insert(peer);
        }
    }

    fn demote_lazy(&mut self, peer: I) {
        if self.eager.remove(&peer) {
            self.lazy.insert(peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type State = PlumtreeState<u32, &'static str>;

    fn node_with_neighbors(neighbors: &[u32]) -> State {
        node_with_config(neighbors, PlumtreeConfig::default())
    }

    fn node_with_config(neighbors: &[u32], config: PlumtreeConfig) -> State {
        let mut s = State::new(0, config);
        for &p in neighbors {
            s.on_neighbor_up(p);
        }
        s
    }

    fn sends(
        out: &mut PlumtreeOut<u32, &'static str>,
    ) -> Vec<(u32, PlumtreeMessage<&'static str>)> {
        out.outbox.drain().collect()
    }

    #[test]
    fn new_links_start_eager() {
        let s = node_with_neighbors(&[1, 2, 3]);
        let mut eager = s.eager_peers();
        eager.sort_unstable();
        assert_eq!(eager, vec![1, 2, 3]);
        assert!(s.lazy_peers().is_empty());
    }

    #[test]
    fn self_is_never_a_neighbor() {
        let mut s = node_with_neighbors(&[]);
        s.on_neighbor_up(0);
        assert!(s.eager_peers().is_empty());
    }

    #[test]
    fn broadcast_pushes_eager_and_announces_lazy() {
        let mut s = node_with_neighbors(&[1, 2]);
        // Demote 2 to lazy via a prune.
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        s.broadcast(9, "m", &mut out);
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].round, 0);
        let msgs = sends(&mut out);
        assert_eq!(msgs.len(), 2);
        assert!(msgs.iter().any(
            |(to, m)| *to == 1 && matches!(m, PlumtreeMessage::Gossip { id: 9, round: 1, .. })
        ));
        assert!(msgs
            .iter()
            .any(|(to, m)| *to == 2 && matches!(m, PlumtreeMessage::IHave { id: 9, round: 1 })));
    }

    #[test]
    fn duplicate_gossip_prunes_the_link() {
        let mut s = node_with_neighbors(&[1, 2]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 5, round: 1, payload: "m" }, &mut out);
        assert_eq!(out.deliveries.len(), 1);
        out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::Gossip { id: 5, round: 2, payload: "m" }, &mut out);
        assert!(out.deliveries.is_empty(), "duplicates do not deliver");
        let msgs = sends(&mut out);
        assert_eq!(msgs, vec![(2, PlumtreeMessage::Prune)]);
        assert!(s.lazy_peers().contains(&2), "redundant sender demoted to lazy");
        assert!(s.eager_peers().contains(&1), "tree parent stays eager");
        assert_eq!(s.stats().redundant, 1);
    }

    #[test]
    fn first_gossip_forwards_to_other_eager_peers_only() {
        let mut s = node_with_neighbors(&[1, 2, 3]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 4, round: 2, payload: "m" }, &mut out);
        let msgs = sends(&mut out);
        let targets: Vec<u32> = msgs.iter().map(|(to, _)| *to).collect();
        assert!(!targets.contains(&1), "never echo back to the sender");
        assert_eq!(msgs.len(), 2);
        for (_, m) in &msgs {
            assert!(matches!(m, PlumtreeMessage::Gossip { id: 4, round: 3, .. }));
        }
    }

    #[test]
    fn ihave_arms_one_timer_and_records_announcers() {
        let mut s = node_with_neighbors(&[1, 2]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::IHave { id: 6, round: 3 }, &mut out);
        assert_eq!(
            out.timers,
            vec![TimerRequest {
                timer: PlumtreeTimer::Missing(6),
                delay: s.config().ihave_timeout
            }]
        );
        out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::IHave { id: 6, round: 4 }, &mut out);
        assert!(out.timers.is_empty(), "second announcement reuses the armed timer");
    }

    #[test]
    fn ihave_batch_is_equivalent_to_single_ihaves() {
        let mut s = node_with_neighbors(&[1, 2]);
        let mut out = PlumtreeOut::new();
        let anns = vec![Announcement { id: 6, round: 3 }, Announcement { id: 7, round: 4 }];
        s.handle_message(1, PlumtreeMessage::IHaveBatch { anns }, &mut out);
        let timers: Vec<PlumtreeTimer> = out.timers.iter().map(|t| t.timer).collect();
        assert_eq!(timers, vec![PlumtreeTimer::Missing(6), PlumtreeTimer::Missing(7)]);
        // The announcers are recorded per id: both messages graft from 1.
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        s.on_timer(PlumtreeTimer::Missing(7), &mut out);
        let msgs = sends(&mut out);
        assert_eq!(
            msgs,
            vec![
                (1, PlumtreeMessage::Graft { id: Some(6), round: 3 }),
                (1, PlumtreeMessage::Graft { id: Some(7), round: 4 }),
            ]
        );
    }

    #[test]
    fn ihave_for_delivered_message_is_ignored() {
        let mut s = node_with_neighbors(&[1]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 6, round: 1, payload: "m" }, &mut out);
        out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::IHave { id: 6, round: 1 }, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn timer_grafts_from_first_announcer_and_rearms() {
        let mut s = node_with_neighbors(&[1, 2]);
        s.on_prune(1);
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::IHave { id: 6, round: 3 }, &mut out);
        s.handle_message(2, PlumtreeMessage::IHave { id: 6, round: 5 }, &mut out);
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        let msgs = sends(&mut out);
        assert_eq!(msgs, vec![(1, PlumtreeMessage::Graft { id: Some(6), round: 3 })]);
        assert!(s.eager_peers().contains(&1), "grafted link rejoins the tree");
        assert_eq!(
            out.timers,
            vec![TimerRequest {
                timer: PlumtreeTimer::Missing(6),
                delay: s.config().graft_timeout
            }]
        );
        // Second expiration tries the next announcer.
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        let msgs = sends(&mut out);
        assert_eq!(msgs, vec![(2, PlumtreeMessage::Graft { id: Some(6), round: 5 })]);
        // Third expiration has nobody left: it stops quietly.
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn graft_retries_cap_at_the_limit_and_count_dead_letters() {
        let mut s = node_with_config(&[1, 2], PlumtreeConfig::default().with_graft_retry_limit(2));
        s.on_prune(1);
        let mut out = PlumtreeOut::new();
        // An endless stream of announcements for a message that never
        // arrives (the announcer is partitioned away).
        for round in 0..8 {
            s.handle_message(1, PlumtreeMessage::IHave { id: 6, round }, &mut out);
        }
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        assert_eq!(sends(&mut out).len(), 1, "first graft");
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        assert_eq!(sends(&mut out).len(), 1, "second graft");
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        assert!(out.is_empty(), "retry cap reached: no further grafts, no re-arm");
        assert_eq!(s.stats().graft_dead_letters, 1);
        assert_eq!(s.stats().grafts_sent, 2);
        // Later expirations for the dropped entry are no-ops.
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn timer_after_delivery_is_a_no_op() {
        let mut s = node_with_neighbors(&[1, 2]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::IHave { id: 6, round: 3 }, &mut out);
        s.handle_message(2, PlumtreeMessage::Gossip { id: 6, round: 2, payload: "m" }, &mut out);
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn graft_returns_cached_payload_and_promotes() {
        let mut s = node_with_neighbors(&[1, 2]);
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 3, round: 1, payload: "m" }, &mut out);
        out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::Graft { id: Some(3), round: 1 }, &mut out);
        let msgs = sends(&mut out);
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0], (2, PlumtreeMessage::Gossip { id: 3, round: 2, payload: "m" })));
        assert!(s.eager_peers().contains(&2));
    }

    #[test]
    fn graft_for_unknown_id_sends_nothing() {
        let mut s = node_with_neighbors(&[1]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Graft { id: Some(99), round: 1 }, &mut out);
        assert!(sends(&mut out).is_empty());
    }

    #[test]
    fn optimization_graft_promotes_without_pulling() {
        let mut s = node_with_neighbors(&[1]);
        s.on_prune(1);
        let mut out = PlumtreeOut::new();
        s.broadcast(3, "m", &mut out);
        out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Graft { id: None, round: 1 }, &mut out);
        assert!(sends(&mut out).is_empty(), "no payload reply to an optimization graft");
        assert!(s.eager_peers().contains(&1), "the link is promoted");
    }

    #[test]
    fn neighbor_down_forgets_link_and_announcements() {
        let mut s = node_with_neighbors(&[1, 2]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::IHave { id: 6, round: 3 }, &mut out);
        s.on_neighbor_down(1);
        assert!(!s.is_neighbor(&1));
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        assert!(out.is_empty(), "downed announcer is never grafted");
    }

    #[test]
    fn sync_neighbors_diffs_the_view() {
        let mut s = node_with_neighbors(&[1, 2]);
        s.on_prune(2); // 2 is lazy
        s.sync_neighbors(&[2, 3]);
        assert!(!s.is_neighbor(&1), "1 left the view");
        assert!(s.lazy_peers().contains(&2), "2 keeps its lazy role");
        assert!(s.eager_peers().contains(&3), "3 comes up eager");
    }

    #[test]
    fn eager_and_lazy_stay_disjoint() {
        let mut s = node_with_neighbors(&[1, 2, 3]);
        let mut out = PlumtreeOut::new();
        s.on_prune(1);
        s.handle_message(1, PlumtreeMessage::Graft { id: Some(1), round: 0 }, &mut out);
        s.on_prune(2);
        s.on_prune(2);
        for p in [1u32, 2, 3] {
            assert!(
                !(s.eager_peers().contains(&p) && s.lazy_peers().contains(&p)),
                "peer {p} in both sets"
            );
        }
    }

    /// One table answers "seen?" and "cached?", so an eviction forgets
    /// both at once: the evicted id can neither be grafted nor suppressed.
    #[test]
    fn cache_eviction_drops_payloads() {
        let mut s: PlumtreeState<u32, &'static str> =
            PlumtreeState::new(0, PlumtreeConfig::default().with_cache_capacity(2));
        let mut out = PlumtreeOut::new();
        for id in 0..3u128 {
            s.broadcast(id, "m", &mut out);
        }
        assert_eq!(s.cached_len(), 2, "the cache holds its capacity");
        assert!(!s.has_seen(0), "oldest id evicted");
        assert!(s.has_seen(1) && s.has_seen(2));
        out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Graft { id: Some(0), round: 0 }, &mut out);
        assert!(sends(&mut out).is_empty(), "evicted payloads cannot be grafted");
        out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 0, round: 4, payload: "m" }, &mut out);
        assert_eq!(out.deliveries.len(), 1, "a re-sent evicted payload delivers again");
        assert!(s.has_seen(0) && !s.has_seen(1), "and evicts the next oldest");
        assert_eq!(s.cached_len(), 2);
    }

    #[test]
    fn broadcast_id_collision_is_dropped() {
        let mut s = node_with_neighbors(&[1]);
        let mut out = PlumtreeOut::new();
        s.broadcast(7, "a", &mut out);
        out = PlumtreeOut::new();
        s.broadcast(7, "b", &mut out);
        assert!(out.is_empty());
    }

    // ------------------------------------------------------------------
    // Tree optimization (§3.8)
    // ------------------------------------------------------------------

    fn optimizing_node() -> State {
        // Node 0 with eager parent 1 and lazy shortcut 2.
        let mut s = node_with_config(
            &[1, 2],
            PlumtreeConfig::default().with_optimization_threshold(Some(3)),
        );
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        // Deep eager delivery: round 8 through parent 1.
        s.handle_message(1, PlumtreeMessage::Gossip { id: 5, round: 8, payload: "m" }, &mut out);
        s
    }

    #[test]
    fn short_ihave_swaps_the_lazy_link_into_the_tree() {
        let mut s = optimizing_node();
        let mut out = PlumtreeOut::new();
        // The lazy peer announces the same message at round 2: 8 − 2 ≥ 3.
        s.handle_message(2, PlumtreeMessage::IHave { id: 5, round: 2 }, &mut out);
        let msgs = sends(&mut out);
        assert_eq!(
            msgs,
            vec![(2, PlumtreeMessage::Graft { id: None, round: 2 }), (1, PlumtreeMessage::Prune),]
        );
        assert!(s.eager_peers().contains(&2), "shorter path promoted");
        assert!(s.lazy_peers().contains(&1), "old parent demoted");
        assert_eq!(s.stats().optimizations, 1);
        assert_eq!(s.stats().late_optimizations, 1, "the IHave arrived after the payload");
        assert!(out.timers.is_empty(), "no missing timer for a delivered message");
    }

    #[test]
    fn pending_short_announcement_optimizes_at_delivery() {
        // Unit-latency order: the short lazy announcement arrives *before*
        // the deep eager payload. The swap must still happen, evaluated
        // when the payload lands.
        let mut s = node_with_config(
            &[1, 2],
            PlumtreeConfig::default().with_optimization_threshold(Some(3)),
        );
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::IHave { id: 5, round: 2 }, &mut out);
        out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 5, round: 8, payload: "m" }, &mut out);
        let msgs = sends(&mut out);
        assert!(
            msgs.contains(&(2, PlumtreeMessage::Graft { id: None, round: 2 })),
            "promote the shorter lazy path: {msgs:?}"
        );
        assert!(msgs.contains(&(1, PlumtreeMessage::Prune)), "prune the deep parent: {msgs:?}");
        assert!(s.eager_peers().contains(&2) && s.lazy_peers().contains(&1));
        assert_eq!(s.stats().optimizations, 1);
        assert_eq!(s.stats().late_optimizations, 0, "the announcement preceded the payload");
    }

    #[test]
    fn optimization_tracks_the_swapped_round() {
        // After swapping to a round-2 path, a later round-5 announcement
        // must NOT win (5 ≥ 2), even though it beats the original round-8
        // delivery — otherwise a worse announcer undoes the optimization.
        let mut s = node_with_config(
            &[1, 2, 3],
            PlumtreeConfig::default().with_optimization_threshold(Some(3)),
        );
        s.on_prune(2);
        s.on_prune(3);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 5, round: 8, payload: "m" }, &mut out);
        out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::IHave { id: 5, round: 2 }, &mut out);
        assert_eq!(s.stats().optimizations, 1, "first swap: 8 − 2 ≥ 3");
        out = PlumtreeOut::new();
        s.handle_message(3, PlumtreeMessage::IHave { id: 5, round: 5 }, &mut out);
        assert!(out.is_empty(), "round 5 must not displace the round-2 parent");
        assert!(s.eager_peers().contains(&2), "the round-2 parent keeps its tree link");
        assert_eq!(s.stats().optimizations, 1);
    }

    #[test]
    fn optimization_respects_the_threshold() {
        let mut s = optimizing_node();
        let mut out = PlumtreeOut::new();
        // 8 − 6 = 2 < threshold 3: no swap.
        s.handle_message(2, PlumtreeMessage::IHave { id: 5, round: 6 }, &mut out);
        assert!(out.is_empty());
        assert!(s.eager_peers().contains(&1), "parent keeps its tree link");
        assert_eq!(s.stats().optimizations, 0);
    }

    #[test]
    fn optimization_disabled_by_default() {
        let mut s = node_with_neighbors(&[1, 2]);
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 5, round: 9, payload: "m" }, &mut out);
        out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::IHave { id: 5, round: 1 }, &mut out);
        assert!(out.is_empty(), "threshold None never optimizes");
    }

    #[test]
    fn optimization_skips_own_broadcasts_and_repeat_announcers() {
        let mut s = node_with_config(
            &[1, 2],
            PlumtreeConfig::default().with_optimization_threshold(Some(1)),
        );
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        s.broadcast(5, "m", &mut out);
        out = PlumtreeOut::new();
        // This node is the root for id 5: nothing to optimize.
        s.handle_message(2, PlumtreeMessage::IHave { id: 5, round: 0 }, &mut out);
        assert!(out.is_empty());
        // A second message delivered through 1, then announced *by 1*:
        // the announcer is the parent itself, no swap.
        s.handle_message(1, PlumtreeMessage::Gossip { id: 6, round: 7, payload: "m" }, &mut out);
        s.on_prune(1);
        out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::IHave { id: 6, round: 1 }, &mut out);
        assert!(sends(&mut out).is_empty());
    }

    // ------------------------------------------------------------------
    // Lazy-link batching
    // ------------------------------------------------------------------

    fn batching_node() -> State {
        let mut s =
            node_with_config(&[1, 2, 3], PlumtreeConfig::default().with_lazy_flush_interval(4));
        s.on_prune(2);
        s.on_prune(3);
        s
    }

    #[test]
    fn batching_queues_announcements_until_the_flush_timer() {
        let mut s = batching_node();
        let mut out = PlumtreeOut::new();
        s.broadcast(10, "a", &mut out);
        s.broadcast(11, "b", &mut out);
        let msgs = sends(&mut out);
        assert!(
            msgs.iter().all(|(_, m)| m.carries_payload()),
            "no IHave leaves before the flush: {msgs:?}"
        );
        assert_eq!(s.queued_announcements(), 4, "2 messages × 2 lazy peers");
        // Exactly one flush timer armed for the pair of broadcasts.
        let flushes: Vec<_> =
            out.timers.iter().filter(|t| t.timer == PlumtreeTimer::LazyFlush).collect();
        assert_eq!(flushes.len(), 1);
        assert_eq!(flushes[0].delay, 4);

        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        let msgs = sends(&mut out);
        assert_eq!(msgs.len(), 2, "one batch per lazy peer");
        for (to, m) in &msgs {
            assert!([2, 3].contains(to));
            let anns = m.announcements();
            assert_eq!(anns.len(), 2, "both announcements batched: {m:?}");
            assert_eq!(anns[0], Announcement { id: 10, round: 1 });
            assert_eq!(anns[1], Announcement { id: 11, round: 1 });
        }
        assert_eq!(s.queued_announcements(), 0);
        assert_eq!(s.stats().ihave_sent, 4);
        assert_eq!(s.stats().ihave_batches_sent, 2);
    }

    #[test]
    fn single_queued_announcement_flushes_as_plain_ihave() {
        let mut s = batching_node();
        let mut out = PlumtreeOut::new();
        s.broadcast(10, "a", &mut out);
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        for (_, m) in sends(&mut out) {
            assert!(matches!(m, PlumtreeMessage::IHave { id: 10, round: 1 }));
        }
        assert_eq!(s.stats().ihave_batches_sent, 0);
    }

    #[test]
    fn flush_rearms_only_after_new_announcements() {
        let mut s = batching_node();
        let mut out = PlumtreeOut::new();
        s.broadcast(10, "a", &mut out);
        assert_eq!(out.timers.len(), 1);
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        assert!(out.timers.is_empty(), "an empty queue does not re-arm");
        out = PlumtreeOut::new();
        s.broadcast(11, "b", &mut out);
        assert_eq!(out.timers.len(), 1, "new announcements arm a fresh flush");
    }

    #[test]
    fn flush_skips_departed_peers() {
        let mut s = batching_node();
        let mut out = PlumtreeOut::new();
        s.broadcast(10, "a", &mut out);
        s.on_neighbor_down(2);
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        let msgs = sends(&mut out);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].0, 3, "only the surviving lazy peer is announced to");
    }

    #[test]
    fn oversized_queues_chunk_at_the_batch_cap() {
        let mut s =
            node_with_config(&[1, 2], PlumtreeConfig::default().with_lazy_flush_interval(1));
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        for id in 0..(MAX_IHAVE_BATCH as u128 + 5) {
            s.broadcast(id, "m", &mut out);
        }
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        let msgs = sends(&mut out);
        assert_eq!(msgs.len(), 2, "queue splits into a full batch and a remainder");
        assert_eq!(msgs[0].1.announcements().len(), MAX_IHAVE_BATCH);
        assert_eq!(msgs[1].1.announcements().len(), 5);
    }

    #[test]
    fn stats_add_assign_sums_every_field() {
        let mut a = PlumtreeStats {
            gossip_sent: 1,
            ihave_sent: 2,
            ihave_batches_sent: 3,
            grafts_sent: 4,
            prunes_sent: 5,
            optimizations: 6,
            late_optimizations: 10,
            graft_dead_letters: 7,
            delivered: 8,
            redundant: 9,
        };
        a += a;
        assert_eq!(
            a,
            PlumtreeStats {
                gossip_sent: 2,
                ihave_sent: 4,
                ihave_batches_sent: 6,
                grafts_sent: 8,
                prunes_sent: 10,
                optimizations: 12,
                late_optimizations: 20,
                graft_dead_letters: 14,
                delivered: 16,
                redundant: 18,
            }
        );
    }
}
