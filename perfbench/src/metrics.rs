//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark emits, with its unit and which direction is better.
//! `BENCHMARK.json` lists the same names (`perfbench --list-metrics`
//! prints them), and the self-test holds the two together.

use apc_server::components::ServerEvent;

/// One metric's name, unit and better direction.
pub struct MetricDef {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_owned(),
        unit,
        better,
    }
}

/// End-to-end metrics (tracing off).
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("wall_rel", "ratio", "lower"),
        def("setup_s", "s", "lower"),
        def("peak_rss_mb", "MiB", "lower"),
        def("pass_frac", "fraction", "higher"),
    ]
}

/// Per-layer metrics (the traced run), grouped by layer.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        // apc-cli: spec and runner.
        def("spec.parse_s", "s", "lower"),
        def("runner.plan_s", "s", "lower"),
        def("runner.run_s", "s", "lower"),
        def("runner.render_s", "s", "lower"),
        def("runner.write_s", "s", "lower"),
        // apc-analysis: export.
        def("export.bytes", "bytes", "lower"),
        def("export.timeseries_rows", "count", "lower"),
        def("export.validate_s", "s", "lower"),
        // apc-server: the fleet run pool.
        def("pool.members", "count", "higher"),
        def("pool.workers", "count", "higher"),
        def("pool.first_result_s", "s", "lower"),
        def("pool.last_result_s", "s", "lower"),
        // apc-sim: the event engine.
        def("engine.dispatched", "count", "lower"),
        def("engine.scheduled", "count", "lower"),
        def("engine.cancelled", "count", "lower"),
        def("engine.level0_batches", "count", "lower"),
        def("engine.max_batch", "count", "higher"),
        def("engine.overflow_hits", "count", "lower"),
        def("engine.ns_per_event", "ns", "lower"),
        def("engine.events_per_request", "ratio", "lower"),
        def("engine.scale_32_over_8", "ratio", "higher"),
    ];
    // apc-server: component handlers, by event kind.
    defs.extend(
        ServerEvent::KIND_NAMES
            .iter()
            .map(|kind| def(&format!("events.{kind}"), "count", "lower")),
    );
    defs.extend([
        // apc-server: the partitioned parallel core.
        def("parallel.epochs", "count", "lower"),
        def("parallel.barrier_wait_s", "s", "lower"),
        def("parallel.cross_wires", "count", "lower"),
        def("parallel.hub_replay_s", "s", "lower"),
        // apc-server: balancer and chain coordinator; apc-network.
        def("routing.decisions", "count", "higher"),
        def("routing.imbalance", "ratio", "lower"),
        def("chain.started", "count", "higher"),
        def("chain.completed", "count", "higher"),
        def("net.messages", "count", "higher"),
        def("net.mean_wire_ns", "ns", "lower"),
        // apc-telemetry: the latency sketch.
        def("sketch.records", "count", "higher"),
        def("sketch.buckets", "count", "lower"),
        def("sketch.merge_s", "s", "lower"),
        // apc-trace: request spans.
        def("trace.spans", "count", "higher"),
        def("trace.dropped", "count", "lower"),
        def("trace.export_s", "s", "lower"),
        def("trace.overhead", "ratio", "lower"),
        // The modelled system: simulated values that repeat exactly.
        def("model.power_w", "W", "lower"),
        def("model.p99_us", "us", "lower"),
        def("model.pc1a_residency", "fraction", "higher"),
        def("model.pc1a_transitions", "count", "higher"),
        def("model.completed", "count", "higher"),
        def("model.wake_share", "fraction", "lower"),
    ]);
    defs
}
