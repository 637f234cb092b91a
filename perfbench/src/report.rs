//! The metric catalog and the result line.
//!
//! Every run prints the full set its mode promises: all end-to-end metrics
//! untraced, all per-layer metrics traced. A per-layer metric of a layer
//! the workload does not run (the reactor under the simulator, say) reads 0.

use std::fmt::Write as _;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("deliveries_per_s", "1/s"),
    ("delivery_mean_ms", "ms"),
    ("delivery_p99_ms", "ms"),
];

/// Entry points of the membership layer the timing decorator splits.
pub const CORE_ENTRIES: [&str; 12] = [
    "join",
    "on_cycle",
    "on_send_failed",
    "broadcast_targets",
    "msg.Join",
    "msg.ForwardJoin",
    "msg.ForwardJoinReply",
    "msg.Neighbor",
    "msg.NeighborReply",
    "msg.Disconnect",
    "msg.Shuffle",
    "msg.ShuffleReply",
];

/// Frame kinds whose codec cost the live runs calibrate.
pub const WIRE_KINDS: [&str; 6] =
    ["payload", "ihave", "ihave_batch", "graft", "prune", "membership"];

/// Plumtree counters, `(metric suffix, registry name)`.
pub const PLUMTREE_COUNTERS: [(&str, &str); 8] = [
    ("gossip_sent", "plumtree.gossip_sent"),
    ("ihave_anns", "plumtree.ihave_sent"),
    ("ihave_batches", "plumtree.ihave_batches_sent"),
    ("grafts", "plumtree.grafts_sent"),
    ("prunes", "plumtree.prunes_sent"),
    ("optimizations", "plumtree.optimizations"),
    ("late_optimizations", "plumtree.late_optimizations"),
    ("graft_dead_letters", "plumtree.graft_dead_letters"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for entry in CORE_ENTRIES {
        out.push((format!("core.{entry}.calls"), "count"));
        out.push((format!("core.{entry}.ns"), "ns"));
    }
    out.push(("core.msgs_out_per_call".into(), "ratio"));
    out.push(("core.self_s".into(), "s"));
    for (name, unit) in [
        ("sim.events", "count"),
        ("sim.events_per_s", "1/s"),
        ("sim.self_s", "s"),
        ("sim.phase_s", "s"),
        ("sim.node_cycle_ns", "ns"),
        ("sim.broadcast_ms_p50", "ms"),
        ("sim.broadcast_ms_p99", "ms"),
    ] {
        out.push((name.into(), unit));
    }
    for (suffix, _) in PLUMTREE_COUNTERS {
        out.push((format!("plumtree.{suffix}"), "count"));
    }
    out.push(("plumtree.late_share".into(), "ratio"));
    out.push(("plumtree.rmr".into(), "ratio"));
    for kind in WIRE_KINDS {
        out.push((format!("net.wire.{kind}.frames"), "count"));
        out.push((format!("net.wire.{kind}.encode_ns"), "ns"));
        out.push((format!("net.wire.{kind}.decode_ns"), "ns"));
    }
    out.push(("net.wire.codec_share".into(), "ratio"));
    for (name, unit) in [
        ("net.reactor.busy_frac", "ratio"),
        ("net.reactor.busy_us_per_frame", "us"),
        ("net.reactor.epoll_waits_per_frame", "ratio"),
        ("net.reactor.timers_fired", "count"),
        ("net.reactor.timer_lag_us_max", "us"),
        ("net.reactor.outq_high_water", "count"),
        ("net.reactor.batch_max", "count"),
        ("net.frames_per_delivery", "ratio"),
        ("net.setup_rejoins", "count"),
        ("hyparview.shuffles_started", "count"),
        ("hyparview.disconnects_received", "count"),
        ("hyparview.active_evictions", "count"),
        ("bench.collector_sweep_us_p99", "us"),
        ("bench.tracing_overhead", "ratio"),
        ("bench.span_coverage", "ratio"),
    ] {
        out.push((name.into(), unit));
    }
    out
}

/// The metrics a run prints: per-layer when traced, else end-to-end.
fn catalog(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    }
}

/// The outcome of one run: operation counts plus named metric values.
#[derive(Debug)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted: (alive node, broadcast) pairs.
    pub attempted: u64,
    /// Pairs still undelivered when the run gave up on them.
    pub failed: u64,
    values: Vec<(String, f64)>,
}

impl Report {
    /// An empty report.
    pub fn new(correct: bool, attempted: u64, failed: u64) -> Report {
        Report { correct, attempted, failed, values: Vec::new() }
    }

    /// Records metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: the result line must stay valid JSON.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.push((name, value));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The result line: one JSON object holding exactly the catalog of the
    /// run's mode. Per-layer metrics left unset read 0 (layer not on the
    /// workload's path).
    ///
    /// # Panics
    ///
    /// Panics when an end-to-end metric is missing or a recorded name is
    /// not in the catalog of the mode.
    pub fn to_json(&self, traced: bool) -> String {
        let catalog = catalog(traced);
        for (name, _) in &self.values {
            assert!(catalog.iter().any(|(n, _)| n == name), "metric {name} is not in the catalog");
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = match self.value(name) {
                Some(value) => value,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// One `name value unit` line per recorded metric, for people.
    pub fn human_lines(&self, traced: bool) -> Vec<String> {
        let catalog = catalog(traced);
        catalog
            .iter()
            .filter_map(|(name, unit)| {
                self.value(name).map(|value| format!("{name:<36} {value:>16.4} {unit}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in_section(json: &str, section: &str) -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section is a list");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|chunk| chunk.trim().trim_start_matches('"').split('"').next().unwrap().to_owned())
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(names_in_section(&json, "end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in_section(&json, "per_layer"), layers);
        assert!(layers.len() <= 128);
        for (name, unit) in END_TO_END {
            assert!(json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")));
        }
    }

    #[test]
    fn result_line_has_every_metric_of_its_mode() {
        let mut report = Report::new(true, 10, 0);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            report.set(*name, i as f64 + 0.5);
        }
        let line = report.to_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        let traced = Report::new(true, 1, 0).to_json(true);
        assert!(traced.contains("\"bench.tracing_overhead\": {\"value\": 0.0"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn missing_end_to_end_metric_panics() {
        Report::new(true, 1, 0).to_json(false);
    }
}
