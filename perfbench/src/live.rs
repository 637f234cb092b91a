//! The live workload, `live-tree`: 300 TCP nodes on one reactor over
//! loopback running the runtime's adaptive Plumtree, driven by a closed
//! loop of publishers.
//!
//! The main thread is both the generator and the collector. Each of the
//! [`PUBLISHERS`] publishers sends its next 64-byte broadcast, from the
//! next origin in a seeded rotation, once its previous one reached every
//! node or timed out.
//! The payload carries the sequence number and the send instant; a sweep
//! over every node's delivery receiver takes deliveries off and checks
//! that each maps to a published sequence number and reaches each node at
//! most once.
//!
//! An untraced run builds the cluster several times, so `setup_s` is a
//! median, and splits `--seconds` between the builds. A traced run builds
//! one cluster, measures an untraced phase, then replays the same number of
//! broadcasts with spans around each `Node::broadcast` and each sweep.

use crate::report::{Report, PLUMTREE_COUNTERS, WIRE_KINDS};
use crate::stats::{self, Measured};
use crate::trace::Tracer;
use crate::{delta, value, SplitMix};
use bytes::{Buf, Bytes};
use hyparview_core::{Config, Message};
use hyparview_net::wire::{decode, encode};
use hyparview_net::{BroadcastMode, Cluster, Delivery, Frame, NetConfig, Node};
use hyparview_obsv::{names, Registry};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const NODES: usize = 300;
/// Concurrent broadcasts from rotating origins: enough that the tree
/// never settles.
const PUBLISHERS: usize = 32;
const ACTIVE_VIEW: usize = 4;
const PASSIVE_VIEW: usize = 16;
const SHUFFLE_INTERVAL: Duration = Duration::from_millis(500);
const PAYLOAD_LEN: usize = 64;
/// A broadcast that has not reached every node by then counts its missing
/// pairs as failed operations.
const BROADCAST_TIMEOUT: Duration = Duration::from_secs(5);
/// Set-up aborts the run when the overlay is not one component by then.
const SETUP_DEADLINE: Duration = Duration::from_secs(30);
/// The overlay must stay one component this long before set-up ends.
const SETUP_CONFIRM: Duration = Duration::from_millis(250);
const SETUP_PROBE: Duration = Duration::from_millis(10);
/// How long a node may stay outside the component before it re-joins.
const REJOIN_AFTER: Duration = Duration::from_millis(200);
const REJOIN_MAX: Duration = Duration::from_secs(2);
/// Clusters an untraced run builds.
const CLUSTERS: usize = 5;
/// The collector sleeps this long after a sweep that found nothing.
const IDLE_SLEEP: Duration = Duration::from_micros(100);
/// Encodes and decodes per frame kind when calibrating the codec.
const CODEC_ITERS: u32 = 20_000;

/// The configuration of every node.
fn node_config(seed: u64) -> NetConfig {
    NetConfig {
        protocol: Config::default()
            .with_active_capacity(ACTIVE_VIEW)
            .with_passive_capacity(PASSIVE_VIEW),
        shuffle_interval: SHUFFLE_INTERVAL,
        seed: Some(seed),
        broadcast_mode: BroadcastMode::Plumtree,
        ..NetConfig::default()
    }
}

/// A running cluster and what its set-up took.
struct Net {
    cluster: Cluster,
    nodes: Vec<Node>,
    setup_s: f64,
    rejoins: u64,
    /// Merged node registries at the end of set-up.
    setup_metrics: Registry,
}

impl Net {
    /// Spawns the nodes, joins each through a random earlier node, and
    /// waits until the active views form one strongly connected component.
    fn setup(seed: u64) -> Result<Net, String> {
        let start = Instant::now();
        let cluster = Cluster::new().map_err(|e| format!("start the reactor: {e}"))?;
        let mut gen = SplitMix::new(seed);
        let mut nodes: Vec<Node> = Vec::with_capacity(NODES);
        for i in 0..NODES {
            let config = node_config(gen.next_u64());
            let addr: SocketAddr = "127.0.0.1:0".parse().expect("loopback address");
            let node =
                cluster.spawn_node(addr, config).map_err(|e| format!("spawn node {i}: {e}"))?;
            if i > 0 {
                node.join(nodes[gen.below(i)].addr());
            }
            nodes.push(node);
        }
        // A node outside the component re-joins through a random member
        // once it has been out for its back-off, which doubles per retry.
        let mut rejoins = 0u64;
        let mut out_since: Vec<Option<Instant>> = vec![None; NODES];
        let mut backoff = vec![REJOIN_AFTER; NODES];
        let mut connected_since: Option<Instant> = None;
        loop {
            let now = Instant::now();
            let member = component(&nodes);
            let outside = member.iter().filter(|&&m| !m).count();
            if outside == 0 {
                let since = *connected_since.get_or_insert(now);
                if now - since >= SETUP_CONFIRM {
                    break;
                }
            } else {
                connected_since = None;
                if now - start > SETUP_DEADLINE {
                    return Err(format!(
                        "overlay is not one component after {SETUP_DEADLINE:?}: {outside} of \
                         {NODES} nodes outside it after {rejoins} rejoins"
                    ));
                }
            }
            let members: Vec<usize> = (0..NODES).filter(|&i| member[i]).collect();
            for i in 0..NODES {
                if member[i] {
                    out_since[i] = None;
                    continue;
                }
                let since = *out_since[i].get_or_insert(now);
                if now - since >= backoff[i] {
                    nodes[i].join(nodes[members[gen.below(members.len())]].addr());
                    rejoins += 1;
                    backoff[i] = (backoff[i] * 2).min(REJOIN_MAX);
                    out_since[i] = Some(now);
                }
            }
            std::thread::sleep(SETUP_PROBE);
        }
        let setup_s = start.elapsed().as_secs_f64();
        let setup_metrics = merged(&nodes);
        Ok(Net { cluster, nodes, setup_s, rejoins, setup_metrics })
    }
}

/// Which nodes are in node 0's strongly connected component of the graph
/// the active views form.
fn component(nodes: &[Node]) -> Vec<bool> {
    let index: HashMap<SocketAddr, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.addr(), i)).collect();
    let mut out_edges = vec![Vec::new(); nodes.len()];
    let mut in_edges = vec![Vec::new(); nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        for peer in node.active_view() {
            if let Some(&j) = index.get(&peer) {
                out_edges[i].push(j);
                in_edges[j].push(i);
            }
        }
    }
    let forward = reach(&out_edges);
    let backward = reach(&in_edges);
    forward.iter().zip(backward).map(|(&f, b)| f && b).collect()
}

fn reach(edges: &[Vec<usize>]) -> Vec<bool> {
    let mut seen = vec![false; edges.len()];
    let mut stack = vec![0];
    seen[0] = true;
    while let Some(v) = stack.pop() {
        for &w in &edges[v] {
            if !seen[w] {
                seen[w] = true;
                stack.push(w);
            }
        }
    }
    seen
}

/// Every node's registry merged into one (counters add).
fn merged(nodes: &[Node]) -> Registry {
    let mut total = Registry::new();
    for node in nodes {
        total.merge(&node.metrics());
    }
    total
}

/// One published broadcast.
struct Flight {
    id: u128,
    publisher: usize,
    sent_at: Instant,
    delivered: usize,
    /// Which nodes handed it over, one bit per node.
    seen: Vec<u64>,
    open: bool,
}

/// When a measured phase stops publishing.
#[derive(Debug, Clone, Copy)]
enum Budget {
    /// Publish for this long.
    For(Duration),
    /// Publish this many broadcasts.
    Broadcasts(usize),
}

/// What a measured phase observed.
struct Phase {
    start: Instant,
    /// How long after `start` publishing ends.
    until: Duration,
    /// Deliveries taken while publishing, and the latencies of every
    /// delivery of the phase's broadcasts.
    measured: Measured,
    wall_s: f64,
    broadcasts: u64,
    failed: u64,
    late: u64,
    nodes_before: Registry,
    nodes_after: Registry,
    reactor_before: Registry,
    reactor_after: Registry,
}

impl Phase {
    /// Whether `at` falls before publishing ends.
    fn publishing(&self, at: Instant) -> bool {
        at - self.start < self.until
    }
}

/// The closed-loop generator and the collector of one cluster. Flights
/// outlive a phase, so a late delivery in the next phase is still checked.
struct ClosedLoop {
    epoch: Instant,
    flights: Vec<Flight>,
    /// Origins in seeded order; publishers walk it round-robin.
    origins: Vec<usize>,
    next_origin: usize,
    violations: Vec<String>,
}

impl ClosedLoop {
    fn new(seed: u64) -> ClosedLoop {
        let mut gen = SplitMix::new(seed ^ 0x0121_6135);
        let mut origins: Vec<usize> = (0..NODES).collect();
        for i in (1..origins.len()).rev() {
            origins.swap(i, gen.below(i + 1));
        }
        ClosedLoop {
            epoch: Instant::now(),
            flights: Vec::new(),
            origins,
            next_origin: 0,
            violations: Vec::new(),
        }
    }

    fn violation(&mut self, what: String) {
        if self.violations.len() < 10 {
            eprintln!("FAIL: {what}");
        }
        self.violations.push(what);
    }

    fn publish(&mut self, net: &Net, publisher: usize, tracer: &mut Option<Tracer>) -> usize {
        let seq = self.flights.len();
        let origin = self.origins[self.next_origin % NODES];
        self.next_origin += 1;
        let sent_at = Instant::now();
        let mut payload = vec![0u8; PAYLOAD_LEN];
        payload[..8].copy_from_slice(&(seq as u64).to_le_bytes());
        payload[8..16].copy_from_slice(&((sent_at - self.epoch).as_nanos() as u64).to_le_bytes());
        let node = &net.nodes[origin];
        let id = Tracer::maybe(tracer, "net.broadcast", || node.broadcast(payload), |_| 1);
        self.flights.push(Flight {
            id,
            publisher,
            sent_at,
            delivered: 0,
            seen: vec![0; NODES.div_ceil(64)],
            open: true,
        });
        seq
    }

    /// Takes one delivery off node `node`'s receiver. Returns the publisher
    /// freed when it completed a broadcast.
    fn take(&mut self, node: usize, d: Delivery, phase: &mut Phase) -> Option<usize> {
        let taken = Instant::now();
        let taken_ns = (taken - self.epoch).as_nanos() as u64;
        if d.payload.len() != PAYLOAD_LEN {
            self.violation(format!("node {node}: payload of {} bytes", d.payload.len()));
            return None;
        }
        let word =
            |at: usize| u64::from_le_bytes(d.payload[at..at + 8].try_into().expect("eight bytes"));
        let (seq, sent_ns) = (word(0) as usize, word(8));
        let Some(flight) = self.flights.get_mut(seq) else {
            self.violation(format!("node {node}: sequence number {seq} was never published"));
            return None;
        };
        if flight.id != d.id {
            self.violation(format!("node {node}: sequence number {seq} under a foreign id"));
            return None;
        }
        let (word_at, bit) = (node / 64, 1u64 << (node % 64));
        if flight.seen[word_at] & bit != 0 {
            self.violation(format!("node {node}: broadcast {seq} handed over twice"));
            return None;
        }
        flight.seen[word_at] |= bit;
        if !flight.open {
            phase.late += 1;
            return None;
        }
        flight.delivered += 1;
        let ms = taken_ns.saturating_sub(sent_ns) as f64 / 1e6;
        phase.measured.samples.push(ms);
        if phase.publishing(taken) {
            phase.measured.delivered += 1;
        }
        if flight.delivered == NODES {
            flight.open = false;
            return Some(flight.publisher);
        }
        None
    }

    /// Runs the closed loop until `budget` is spent and every flight
    /// completed or timed out.
    fn phase(&mut self, net: &Net, budget: Budget, tracer: &mut Option<Tracer>) -> Phase {
        let until = match budget {
            Budget::For(d) => d,
            Budget::Broadcasts(_) => Duration::MAX,
        };
        let mut phase = Phase {
            start: Instant::now(),
            until,
            measured: Measured::default(),
            wall_s: 0.0,
            broadcasts: 0,
            failed: 0,
            late: 0,
            nodes_before: merged(&net.nodes),
            nodes_after: Registry::new(),
            reactor_before: net.cluster.reactor_metrics(),
            reactor_after: Registry::new(),
        };
        let mut slots: Vec<Option<usize>> = vec![None; PUBLISHERS];
        loop {
            let on_time = phase.publishing(Instant::now());
            let more = |sent: u64| match budget {
                Budget::For(_) => on_time,
                Budget::Broadcasts(n) => (sent as usize) < n,
            };
            for (p, slot) in slots.iter_mut().enumerate() {
                if slot.is_none() && more(phase.broadcasts) {
                    *slot = Some(self.publish(net, p, tracer));
                    phase.broadcasts += 1;
                }
            }
            let publishing = more(phase.broadcasts);
            let mut freed = Vec::new();
            let sweep = || {
                let mut taken = 0u64;
                for (i, node) in net.nodes.iter().enumerate() {
                    while let Ok(d) = node.deliveries().try_recv() {
                        taken += 1;
                        if let Some(p) = self.take(i, d, &mut phase) {
                            freed.push(p);
                        }
                    }
                }
                taken
            };
            let taken = Tracer::maybe(tracer, "bench.sweep", sweep, |&taken| taken);
            for p in freed {
                slots[p] = None;
            }
            for slot in slots.iter_mut() {
                let Some(seq) = *slot else { continue };
                let flight = &mut self.flights[seq];
                if flight.open && flight.sent_at.elapsed() > BROADCAST_TIMEOUT {
                    flight.open = false;
                    phase.failed += (NODES - flight.delivered) as u64;
                    *slot = None;
                } else if !flight.open {
                    *slot = None;
                }
            }
            if !publishing && slots.iter().all(Option::is_none) {
                break;
            }
            if taken == 0 {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        phase.wall_s = phase.start.elapsed().as_secs_f64();
        phase.measured.wall_s = match budget {
            Budget::For(d) => d.as_secs_f64(),
            Budget::Broadcasts(_) => phase.wall_s,
        };
        phase.nodes_after = merged(&net.nodes);
        phase.reactor_after = net.cluster.reactor_metrics();
        phase
    }
}

/// Runs the workload and reports its metrics.
///
/// # Errors
///
/// Fails when the file-descriptor limit cannot hold the cluster or a
/// cluster does not converge to one component by the set-up deadline.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    let limit = hyparview_net::reactor::raise_nofile_limit()
        .map_err(|e| format!("raise the open-file limit: {e}"))?;
    let needed = (NODES * 16) as u64;
    if limit < needed {
        return Err(format!("open-file limit {limit} is below the {needed} the cluster needs"));
    }
    if traced {
        return run_traced(seed, seconds);
    }
    let share = Duration::from_secs_f64(seconds as f64 / CLUSTERS as f64);
    let mut setups = Vec::new();
    let mut phases = Vec::new();
    let mut violations = 0;
    for c in 0..CLUSTERS {
        let cluster_seed = SplitMix::new(seed).next_u64().wrapping_add(c as u64);
        let net = Net::setup(cluster_seed)?;
        let mut load = ClosedLoop::new(cluster_seed);
        let phase = load.phase(&net, Budget::For(share), &mut None);
        eprintln!(
            "cluster {c}: setup {:.3} s ({} rejoins), {} broadcasts in {:.3} s, {} failed pairs, \
             {} late",
            net.setup_s, net.rejoins, phase.broadcasts, phase.wall_s, phase.failed, phase.late
        );
        violations += load.violations.len();
        setups.push(net.setup_s);
        phases.push(phase);
    }
    let mismatched: u64 =
        phases.iter().map(|p| value(&p.nodes_after, names::NET_MODE_MISMATCHED)).sum();
    if mismatched > 0 {
        eprintln!("FAIL: {mismatched} frames of the other broadcast mode");
    }
    let mut pooled = Measured::default();
    for p in &mut phases {
        pooled.absorb(&mut p.measured);
    }
    eprintln!("{}", stats::summary(&setups, &pooled));
    let timing = stats::timing(&mut pooled);
    if !timing.supported {
        eprintln!("FAIL: too few deliveries to support a p99");
    }
    let attempted = phases.iter().map(|p| p.broadcasts).sum::<u64>() * NODES as u64;
    let failed = phases.iter().map(|p| p.failed).sum();
    let correct = violations == 0 && mismatched == 0 && timing.supported;
    let mut report = Report::new(correct, attempted, failed);
    report.set("setup_s", stats::median(&setups));
    report.set("deliveries_per_s", timing.rate);
    report.set("delivery_mean_ms", timing.mean);
    report.set("delivery_p99_ms", timing.p99);
    Ok(report)
}

fn run_traced(seed: u64, seconds: u64) -> Result<Report, String> {
    let cluster_seed = SplitMix::new(seed).next_u64();
    let net = Net::setup(cluster_seed)?;
    let mut load = ClosedLoop::new(cluster_seed);
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);
    let plain = load.phase(&net, Budget::For(half), &mut None);
    let mut tracer = Some(Tracer::new(None));
    let budget = Budget::Broadcasts(plain.broadcasts as usize);
    let phase = load.phase(&net, budget, &mut tracer);
    let tracer = tracer.expect("traced phase keeps its tracer");
    eprintln!(
        "untraced {} broadcasts in {:.3} s, traced in {:.3} s, {} failed pairs, {} late",
        plain.broadcasts, plain.wall_s, phase.wall_s, phase.failed, phase.late
    );
    let (before, after) = (&phase.nodes_before, &phase.nodes_after);
    let (r0, r1) = (&phase.reactor_before, &phase.reactor_after);
    let mismatched = value(after, names::NET_MODE_MISMATCHED);
    let correct = load.violations.is_empty() && mismatched == 0;
    let mut report = Report::new(correct, phase.broadcasts * NODES as u64, phase.failed);

    let d = |name: &str| delta(after, before, name);
    let frames = d(names::FRAMES_SENT);
    let delivered = d(names::BROADCAST_DELIVERED);
    let wall_us = phase.wall_s * 1e6;
    let wait_us = delta(r1, r0, names::REACTOR_EPOLL_WAIT_US) as f64;
    let busy_us = (wall_us - wait_us).max(0.0);
    report.set("net.reactor.busy_frac", busy_us / wall_us);
    report.set("net.reactor.busy_us_per_frame", busy_us / frames.max(1) as f64);
    report.set(
        "net.reactor.epoll_waits_per_frame",
        delta(r1, r0, names::REACTOR_EPOLL_WAITS) as f64 / frames.max(1) as f64,
    );
    report.set("net.reactor.timers_fired", delta(r1, r0, names::REACTOR_TIMERS_FIRED) as f64);
    for (metric, name) in [
        ("net.reactor.timer_lag_us_max", names::REACTOR_TIMER_LAG_US_MAX),
        ("net.reactor.outq_high_water", names::REACTOR_OUTQ_HIGH_WATER),
        ("net.reactor.batch_max", names::REACTOR_BATCH_MAX),
    ] {
        report.set(metric, value(r1, name) as f64);
    }
    report.set("net.frames_per_delivery", frames as f64 / delivered.max(1) as f64);
    for (suffix, name) in PLUMTREE_COUNTERS {
        report.set(format!("plumtree.{suffix}"), d(name) as f64);
    }
    let config = node_config(0);
    let ihave_timeout = config.plumtree_timer_unit * config.plumtree.ihave_timeout as u32;
    let samples = &phase.measured.samples;
    let late = samples.iter().filter(|&&ms| ms > ihave_timeout.as_secs_f64() * 1e3).count();
    report.set("plumtree.late_share", late as f64 / samples.len().max(1) as f64);
    let payload = d(names::FRAMES_PAYLOAD_SENT);
    report.set("plumtree.rmr", payload as f64 / delivered.max(1) as f64 - 1.0);
    report.set("net.setup_rejoins", net.rejoins as f64);
    for name in [
        "hyparview.shuffles_started",
        "hyparview.disconnects_received",
        "hyparview.active_evictions",
    ] {
        report.set(name, value(&net.setup_metrics, name) as f64);
    }
    let sweeps: Vec<f64> =
        tracer.named("bench.sweep").map(|s| s.duration_ns() as f64 / 1e3).collect();
    report.set("bench.collector_sweep_us_p99", stats::percentile(&stats::sorted(&sweeps), 99.0));
    report.set("bench.tracing_overhead", phase.wall_s / plain.wall_s);

    // Frame counts by kind; membership is whatever the other kinds leave.
    let ihave = d(names::FRAMES_IHAVE_SENT);
    let batches = d(names::FRAMES_IHAVE_BATCH_SENT);
    let grafts = d("plumtree.grafts_sent") + d("plumtree.optimizations");
    let prunes = d("plumtree.prunes_sent");
    let membership = frames.saturating_sub(payload + ihave + batches + grafts + prunes);
    let anns_per_batch = d(names::FRAMES_IHAVE_BATCH_ANNS_SENT) / batches.max(1);
    let counts = [payload, ihave, batches, grafts, prunes, membership];
    drop(net);
    let costs = codec_costs(anns_per_batch.max(1) as usize);
    let mut codec_ns = 0.0;
    for ((kind, count), (encode_ns, decode_ns)) in WIRE_KINDS.iter().zip(counts).zip(costs) {
        report.set(format!("net.wire.{kind}.frames"), count as f64);
        report.set(format!("net.wire.{kind}.encode_ns"), encode_ns);
        report.set(format!("net.wire.{kind}.decode_ns"), decode_ns);
        codec_ns += count as f64 * (encode_ns + decode_ns);
    }
    report.set("net.wire.codec_share", codec_ns / (busy_us * 1e3).max(1.0));
    match tracer.write_out(&format!("live-tree-{seed}.tsv")) {
        Ok(path) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans: {e}"),
    }
    Ok(report)
}

/// Mean encode and decode nanoseconds of one frame of each
/// [`WIRE_KINDS`] kind, shaped like the run's frames.
fn codec_costs(anns_per_batch: usize) -> [(f64, f64); 6] {
    let addr: SocketAddr = "127.0.0.1:40000".parse().expect("loopback address");
    let id = u128::MAX / 3;
    let payload = Bytes::from(vec![7u8; PAYLOAD_LEN]);
    let frames = [
        Frame::PlumtreeGossip { id, round: 3, payload },
        Frame::PlumtreeIHave { id, round: 3 },
        Frame::PlumtreeIHaveBatch { anns: vec![(id, 3); anns_per_batch] },
        Frame::PlumtreeGraft { id: Some(id), round: 3 },
        Frame::PlumtreePrune,
        Frame::Membership(Message::Shuffle { origin: addr, ttl: 5, nodes: vec![addr; 7] }),
    ];
    frames.map(|frame| {
        let start = Instant::now();
        for _ in 0..CODEC_ITERS {
            black_box(encode(black_box(&frame)));
        }
        let encode_ns = start.elapsed().as_nanos() as f64 / f64::from(CODEC_ITERS);
        let mut body = encode(&frame);
        body.advance(4);
        let start = Instant::now();
        for _ in 0..CODEC_ITERS {
            let decoded = decode(black_box(body.clone())).expect("a frame decodes");
            black_box(decoded);
        }
        let decode_ns = start.elapsed().as_nanos() as f64 / f64::from(CODEC_ITERS);
        (encode_ns, decode_ns)
    })
}
