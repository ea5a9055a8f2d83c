//! Result artefacts: the one writer of every JSON/CSV result layout and of
//! the time-series CSV.
//!
//! An artefact holds one [`Shape`] of results. Run-level JSON is the fleet
//! object — the `runs` array, then the fleet aggregates (computable only
//! once every member finished) and the `labels` array; cluster and chain
//! JSON is an array with one element per repeat, each ending in its
//! per-node fleet object. CSV is one labelled row per run, one row per
//! node of every cluster repeat, or one row per chain repeat.
//!
//! [`ArtefactWriter`] writes an artefact into any [`io::Write`] one result
//! at a time, flushing after each, so a reader tailing the file sees
//! complete rows or array elements as the simulation progresses;
//! [`SeriesWriter`] concatenates the recorded time series under one
//! header. A buffered artefact ([`render`], [`render_series`]) is the same
//! writers aimed at a `Vec<u8>`, so streamed and buffered artefacts are the
//! same bytes by construction. JSON goes through `JsonWriter`, the
//! printer behind [`JsonValue`] serialisation, and each run's JSON tree is
//! freed as soon as it is written. Every write method propagates the
//! underlying writer's errors.
//!
//! # Example
//!
//! ```
//! use apc_analysis::artefact::{render, Format, Results};
//! use apc_server::config::ServerConfig;
//! use apc_server::fleet::FleetResult;
//! use apc_server::sim::run_experiment;
//! use apc_sim::SimDuration;
//! use apc_workloads::spec::WorkloadSpec;
//!
//! let config = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(2));
//! let run = run_experiment(config, WorkloadSpec::memcached_etc(), 10_000.0);
//! let fleet = FleetResult::from(vec![run]);
//! let labels = ["run 0".to_owned()];
//! let csv = render(Format::Csv, &Results::Runs { labels: &labels, fleet: &fleet });
//! assert!(csv.starts_with("label,config,workload,"));
//! assert!(csv.lines().nth(1).unwrap().starts_with("run 0,CPC1A,memcached,"));
//! ```

use std::fmt::{self, Write as _};
use std::io::{self, Write};

use apc_network::NetworkStats;
use apc_server::chain::ChainResult;
use apc_server::cluster::ClusterResult;
use apc_server::fleet::FleetResult;
use apc_server::result::RunResult;
use apc_trace::ProfileReport;

use crate::export::{
    latency_json, network_stats_json, profile_report_json, run_result_json, JsonValue, JsonWriter,
};

/// The format of an artefact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Pretty-printed JSON.
    Json,
    /// CSV with a header line.
    Csv,
}

/// The result shape an artefact holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Run-level results (single, fleet and sweep).
    Runs,
    /// Cluster repeats.
    Clusters,
    /// Chain repeats.
    Chains,
}

/// One finished result, handed to the writers in member order.
#[derive(Debug, Clone, Copy)]
pub enum Item<'a> {
    /// A run and its row label (`run <i>`, `server <i>`, `<platform>@<rate>`).
    Run(&'a str, &'a RunResult),
    /// A cluster repeat and its index.
    Cluster(usize, &'a ClusterResult),
    /// A chain repeat and its index.
    Chain(usize, &'a ChainResult),
}

/// A finished result set: what a fleet object closes with, and what
/// [`render`] replays.
#[derive(Debug, Clone, Copy)]
pub enum Results<'a> {
    /// Run-level results.
    Runs {
        /// One label per run, in member order.
        labels: &'a [String],
        /// The runs.
        fleet: &'a FleetResult,
    },
    /// Cluster repeats.
    Clusters(&'a [ClusterResult]),
    /// Chain repeats.
    Chains(&'a [ChainResult]),
}

impl<'a> Results<'a> {
    /// The shape, the repeat count and whether any result crossed a fabric.
    fn layout(&self) -> (Shape, usize, bool) {
        match self {
            Results::Runs { fleet, .. } => (Shape::Runs, fleet.runs.len(), false),
            Results::Clusters(r) => (
                Shape::Clusters,
                r.len(),
                r.iter().any(|c| c.network.is_some()),
            ),
            Results::Chains(r) => (
                Shape::Chains,
                r.len(),
                r.iter().any(|c| c.network.is_some()),
            ),
        }
    }

    /// Every result, in member order.
    fn items(&self) -> Vec<Item<'a>> {
        match *self {
            Results::Runs { labels, fleet } => labels
                .iter()
                .zip(&fleet.runs)
                .map(|(label, run)| Item::Run(label, run))
                .collect(),
            Results::Clusters(r) => r
                .iter()
                .enumerate()
                .map(|(i, c)| Item::Cluster(i, c))
                .collect(),
            Results::Chains(r) => r
                .iter()
                .enumerate()
                .map(|(i, c)| Item::Chain(i, c))
                .collect(),
        }
    }
}

const IN_MEMORY: &str = "writing to memory cannot fail";

/// Renders a finished result set as one artefact: the [`ArtefactWriter`]
/// aimed at memory.
#[must_use]
pub fn render(format: Format, results: &Results<'_>) -> String {
    let (shape, _, with_network) = results.layout();
    let mut writer = ArtefactWriter::new(Vec::new(), format, shape, with_network).expect(IN_MEMORY);
    for item in results.items() {
        writer.push(item).expect(IN_MEMORY);
    }
    text(writer.finish(results).expect(IN_MEMORY))
}

/// Renders every recorded time series of a result set as one CSV (the
/// [`SeriesWriter`] aimed at memory), or `None` when no run recorded one.
#[must_use]
pub fn render_series(results: &Results<'_>) -> Option<String> {
    let mut writer = SeriesWriter::new(Vec::new(), results.layout().1);
    for item in results.items() {
        writer.push(item).expect(IN_MEMORY);
    }
    writer.finish().expect(IN_MEMORY).map(text)
}

fn text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("artefacts are UTF-8")
}

/// Writes one JSON or CSV artefact as results finish (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct ArtefactWriter<W: Write> {
    body: Body<W>,
    with_network: bool,
}

#[derive(Debug)]
enum Body<W: Write> {
    Json(JsonWriter<W>),
    Csv(W),
}

impl<W: Write> ArtefactWriter<W> {
    /// Opens a `shape` artefact: writes the CSV header, or the JSON document
    /// up to its first result. `with_network` adds the
    /// [`NETWORK_CSV_COLUMNS`] (a spec knows it up front: every repeat
    /// shares its `[network]` table).
    pub fn new(mut out: W, format: Format, shape: Shape, with_network: bool) -> io::Result<Self> {
        let body = match format {
            Format::Json => {
                let mut json = JsonWriter::pretty(out);
                match shape {
                    Shape::Runs => open_fleet(&mut json)?,
                    Shape::Clusters | Shape::Chains => json.begin_array()?,
                }
                json.flush()?;
                Body::Json(json)
            }
            Format::Csv => {
                out.write_all(csv_header(shape, with_network).as_bytes())?;
                out.flush()?;
                Body::Csv(out)
            }
        };
        Ok(ArtefactWriter { body, with_network })
    }

    /// Appends one finished result and flushes.
    pub fn push(&mut self, item: Item<'_>) -> io::Result<()> {
        match &mut self.body {
            Body::Json(json) => {
                match item {
                    Item::Run(_, run) => json.value(&run_result_json(run))?,
                    Item::Cluster(_, c) => write_cluster(json, c)?,
                    Item::Chain(_, c) => write_chain(json, c)?,
                }
                json.flush()
            }
            Body::Csv(out) => {
                out.write_all(csv_rows(item, self.with_network).as_bytes())?;
                out.flush()
            }
        }
    }

    /// Finishes the document and returns the underlying writer. `results`
    /// must be what was pushed: a fleet object closes with its aggregates
    /// and labels.
    pub fn finish(self, results: &Results<'_>) -> io::Result<W> {
        match self.body {
            Body::Json(mut json) => {
                match results {
                    Results::Runs { labels, fleet } => close_fleet(&mut json, fleet, Some(labels))?,
                    Results::Clusters(_) | Results::Chains(_) => json.end()?,
                }
                json.finish()
            }
            Body::Csv(mut out) => {
                out.flush()?;
                Ok(out)
            }
        }
    }
}

// ---- JSON layouts ------------------------------------------------------

/// Opens a fleet object up to its `runs` array of [`run_result_json`]
/// objects.
fn open_fleet<W: Write>(json: &mut JsonWriter<W>) -> io::Result<()> {
    json.begin_object()?;
    json.key("runs")?;
    json.begin_array()
}

/// Closes a fleet object: ends the `runs` array, then writes the aggregates
/// and, at the top level of a run-level artefact, the labels.
fn close_fleet<W: Write>(
    json: &mut JsonWriter<W>,
    f: &FleetResult,
    labels: Option<&[String]>,
) -> io::Result<()> {
    use JsonValue::{Array, Float, Str, UInt};
    json.end()?;
    let mut o = JsonValue::from([
        ("servers", UInt(f.servers() as u64)),
        (
            "total_completed_requests",
            UInt(f.total_completed_requests()),
        ),
        ("aggregate_throughput_rps", Float(f.aggregate_throughput())),
        ("total_power_w", Float(f.total_power_w())),
        ("mean_soc_power_w", Float(f.mean_soc_power_w())),
        ("mean_pc1a_residency", Float(f.mean_pc1a_residency())),
        ("mean_latency_ns", UInt(f.mean_latency().as_nanos())),
        ("combined_latency", latency_json(&f.combined_latency())),
        ("worst_p99_ns", UInt(f.worst_p99().as_nanos())),
        ("worst_p999_ns", UInt(f.worst_p999().as_nanos())),
        ("events_dispatched", UInt(f.events_dispatched())),
    ]);
    if let Some(labels) = labels {
        o.push(
            "labels",
            Array(labels.iter().map(|l| Str(l.clone())).collect()),
        );
    }
    json.members(&o)?;
    json.end()
}

/// Writes `head`'s members, the optional `network` and `profile`, then the
/// per-node fleet object under `nodes`, as one object — the element layout
/// of clusters and chains.
fn write_with_nodes<W: Write>(
    json: &mut JsonWriter<W>,
    mut head: JsonValue,
    network: Option<&NetworkStats>,
    profile: Option<&ProfileReport>,
    nodes: &FleetResult,
) -> io::Result<()> {
    if let Some(net) = network {
        head.push("network", network_stats_json(net));
    }
    if let Some(profile) = profile {
        head.push("profile", profile_report_json(profile));
    }
    json.begin_object()?;
    json.members(&head)?;
    json.key("nodes")?;
    open_fleet(json)?;
    for run in &nodes.runs {
        json.value(&run_result_json(run))?;
    }
    close_fleet(json, nodes, None)?;
    json.end()
}

/// One cluster result: policy, routing census, then the per-node fleet.
fn write_cluster<W: Write>(json: &mut JsonWriter<W>, c: &ClusterResult) -> io::Result<()> {
    use JsonValue::{Float, Str, UInt};
    let head = JsonValue::from([
        ("policy", Str(c.policy.to_owned())),
        ("duration_ns", UInt(c.duration.as_nanos())),
        ("routed", routed_json(&c.routed)),
        ("total_routed", UInt(c.total_routed())),
        ("routing_imbalance", Float(c.routing_imbalance())),
        ("idle_periods_20_200us", Float(c.idle_periods_20_200us())),
        ("events_dispatched", UInt(c.events_dispatched)),
    ]);
    write_with_nodes(json, head, c.network.as_ref(), c.profile.as_ref(), &c.nodes)
}

/// One chain result: policy and graph shape, the chain-latency percentiles
/// (end-to-end root→last-join plus the leaf-straggler breakdown), the
/// routing census, then the per-node fleet.
fn write_chain<W: Write>(json: &mut JsonWriter<W>, c: &ChainResult) -> io::Result<()> {
    use JsonValue::{Float, Str, UInt};
    let head = JsonValue::from([
        ("policy", Str(c.policy.to_owned())),
        ("graph", Str(c.graph.clone())),
        ("duration_ns", UInt(c.duration.as_nanos())),
        ("chains_started", UInt(c.chains_started)),
        ("chains_completed", UInt(c.chains_completed)),
        ("chains_per_sec", Float(c.chains_per_sec())),
        ("chain_latency", latency_json(&c.chain_latency)),
        ("straggler", latency_json(&c.straggler)),
        ("routed", routed_json(&c.routed)),
        ("total_routed", UInt(c.total_routed())),
        ("routing_imbalance", Float(c.routing_imbalance())),
        ("events_dispatched", UInt(c.events_dispatched)),
    ]);
    write_with_nodes(json, head, c.network.as_ref(), c.profile.as_ref(), &c.nodes)
}

fn routed_json(routed: &[u64]) -> JsonValue {
    JsonValue::Array(routed.iter().map(|&n| JsonValue::UInt(n)).collect())
}

// ---- CSV layouts -------------------------------------------------------

/// The CSV column set shared by every run-level row, in order.
pub const RUN_CSV_HEADER: &str = "config,workload,offered_rate_rps,duration_ns,\
completed_requests,throughput_rps,mean_ns,p50_ns,p95_ns,p99_ns,p999_ns,max_ns,\
avg_soc_power_w,avg_dram_power_w,cpu_utilization,cc0_fraction,cc1_fraction,\
cc6_fraction,all_idle_fraction,pc1a_residency,pc6_residency,pc1a_transitions,\
pc1a_aborted,pc6_transitions,idle_periods,idle_periods_20_200us";

/// The CSV column set of chain rows, in order: identity, chain census,
/// end-to-end latency percentiles (p50/p99/p999 and mean/max), the
/// leaf-straggler breakdown, routing spread and fleet power/residency
/// aggregates. One row summarises one chain run — the percentile columns
/// are the chain-level tail the per-node [`RUN_CSV_HEADER`] cannot express.
pub const CHAIN_CSV_HEADER: &str = "repeat,policy,graph,duration_ns,\
chains_started,chains_completed,chains_per_sec,e2e_mean_ns,e2e_p50_ns,\
e2e_p99_ns,e2e_p999_ns,e2e_max_ns,straggler_p50_ns,straggler_p99_ns,\
straggler_p999_ns,total_routed,routing_imbalance,fleet_power_w,\
mean_pc1a_residency,worst_rpc_p99_ns";

/// The CSV columns carrying the network-fabric census: after `routed` in
/// cluster rows, after the chain columns in chain rows. Written only when
/// the results crossed a fabric, so fabric-less artefacts keep their
/// historical shape byte for byte.
pub const NETWORK_CSV_COLUMNS: &str =
    "net_topology,net_link_latency_ns,net_messages,net_mean_wire_delay_ns,net_max_wire_delay_ns";

/// The time-series CSV columns: the node label, then one sample's
/// timestamp, power, queue depth and residency deltas — the format the
/// paper's time-domain figures plot.
pub const TIMESERIES_CSV_HEADER: &str = "node,at_ns,soc_power_w,queue_depth,busy_cores,\
package_state,pc0_delta_ns,pc0_idle_delta_ns,pc1a_delta_ns,pc6_delta_ns";

/// Quotes a CSV cell when it contains separators or quotes. The built-in
/// names never need it, but custom workload names flow through here too.
#[must_use]
pub fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_owned()
    }
}

/// A float cell: shortest round-trip, empty when non-finite.
struct Float(f64);

impl fmt::Display for Float {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            Ok(())
        }
    }
}

/// The header line of a CSV artefact, newline-terminated.
fn csv_header(shape: Shape, with_network: bool) -> String {
    match (shape, with_network) {
        (Shape::Runs, _) => format!("label,{RUN_CSV_HEADER}\n"),
        (Shape::Clusters, false) => format!("repeat,node,policy,routed,{RUN_CSV_HEADER}\n"),
        (Shape::Clusters, true) => {
            format!("repeat,node,policy,routed,{NETWORK_CSV_COLUMNS},{RUN_CSV_HEADER}\n")
        }
        (Shape::Chains, false) => format!("{CHAIN_CSV_HEADER}\n"),
        (Shape::Chains, true) => format!("{CHAIN_CSV_HEADER},{NETWORK_CSV_COLUMNS}\n"),
    }
}

/// The newline-terminated rows one result contributes: one per run, one
/// per node of a cluster, one per chain.
fn csv_rows(item: Item<'_>, with_network: bool) -> String {
    let mut out = String::new();
    match item {
        Item::Run(label, run) => {
            let _ = write!(out, "{},", csv_escape(label));
            run_cells(&mut out, run);
        }
        Item::Cluster(repeat, c) => {
            for (i, run) in c.nodes.runs.iter().enumerate() {
                let routed = c.routed.get(i).copied().unwrap_or(0);
                let _ = write!(out, "{repeat},{i},{},{routed},", csv_escape(c.policy));
                if with_network {
                    network_cells(&mut out, c.network.as_ref());
                    out.push(',');
                }
                run_cells(&mut out, run);
            }
        }
        Item::Chain(repeat, c) => {
            let (e2e, straggler) = (&c.chain_latency, &c.straggler);
            let _ = write!(
                out,
                "{repeat},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                csv_escape(c.policy),
                csv_escape(&c.graph),
                c.duration.as_nanos(),
                c.chains_started,
                c.chains_completed,
                Float(c.chains_per_sec()),
                e2e.mean.as_nanos(),
                e2e.p50.as_nanos(),
                e2e.p99.as_nanos(),
                e2e.p999.as_nanos(),
                e2e.max.as_nanos(),
                straggler.p50.as_nanos(),
                straggler.p99.as_nanos(),
                straggler.p999.as_nanos(),
                c.total_routed(),
                Float(c.routing_imbalance()),
                Float(c.nodes.total_power_w()),
                Float(c.nodes.mean_pc1a_residency()),
                c.nodes.worst_p99().as_nanos(),
            );
            if with_network {
                out.push(',');
                network_cells(&mut out, c.network.as_ref());
            }
            out.push('\n');
        }
    }
    out
}

/// The [`RUN_CSV_HEADER`] cells of one run, newline-terminated.
fn run_cells(out: &mut String, r: &RunResult) {
    let l = &r.latency;
    let _ = writeln!(
        out,
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        csv_escape(r.config_name),
        csv_escape(r.workload),
        Float(r.offered_rate),
        r.duration.as_nanos(),
        r.completed_requests,
        Float(r.throughput()),
        l.mean.as_nanos(),
        l.p50.as_nanos(),
        l.p95.as_nanos(),
        l.p99.as_nanos(),
        l.p999.as_nanos(),
        l.max.as_nanos(),
        Float(r.avg_soc_power.as_f64()),
        Float(r.avg_dram_power.as_f64()),
        Float(r.cpu_utilization),
        Float(r.cc0_fraction),
        Float(r.cc1_fraction),
        Float(r.cc6_fraction),
        Float(r.all_idle_fraction),
        Float(r.pc1a_residency),
        Float(r.pc6_residency),
        r.pc1a_transitions,
        r.pc1a_aborted,
        r.pc6_transitions,
        r.idle_periods,
        Float(r.idle_periods_20_200us),
    );
}

/// The [`NETWORK_CSV_COLUMNS`] cells (no trailing separator); a result
/// without a fabric writes empty cells.
fn network_cells(out: &mut String, n: Option<&NetworkStats>) {
    match n {
        Some(n) => {
            let _ = write!(
                out,
                "{},{},{},{},{}",
                csv_escape(n.config.topology.name()),
                n.config.link_latency.as_nanos(),
                n.messages,
                n.mean_wire_delay().as_nanos(),
                n.max_wire_delay.as_nanos()
            );
        }
        None => out.push_str(",,,,"),
    }
}

// ---- time series -------------------------------------------------------

/// Concatenates the time series of every pushed run under one
/// [`TIMESERIES_CSV_HEADER`] line, labelling each series' rows: run-level
/// series by the run's label, cluster and chain node series by
/// `node <i>` (one repeat) or `repeat <r> node <i>` (several).
#[derive(Debug)]
pub struct SeriesWriter<W: Write> {
    out: W,
    repeats: usize,
    any: bool,
}

impl<W: Write> SeriesWriter<W> {
    /// Wraps `out`; `repeats` is the cluster/chain repeat count. Nothing is
    /// written until a series arrives.
    pub fn new(out: W, repeats: usize) -> Self {
        SeriesWriter {
            out,
            repeats,
            any: false,
        }
    }

    /// Appends the series one finished result recorded, and flushes.
    pub fn push(&mut self, item: Item<'_>) -> io::Result<()> {
        let (repeat, nodes) = match item {
            Item::Run(label, run) => return self.series(label, run),
            Item::Cluster(repeat, c) => (repeat, &c.nodes),
            Item::Chain(repeat, c) => (repeat, &c.nodes),
        };
        for (i, run) in nodes.runs.iter().enumerate() {
            let label = if self.repeats > 1 {
                format!("repeat {repeat} node {i}")
            } else {
                format!("node {i}")
            };
            self.series(&label, run)?;
        }
        Ok(())
    }

    /// Returns the underlying writer, or `None` when no pushed run recorded
    /// a time series (nothing was written).
    pub fn finish(mut self) -> io::Result<Option<W>> {
        if !self.any {
            return Ok(None);
        }
        self.out.flush()?;
        Ok(Some(self.out))
    }

    fn series(&mut self, label: &str, run: &RunResult) -> io::Result<()> {
        let Some(ts) = &run.timeseries else {
            return Ok(());
        };
        let mut rows = String::new();
        if !std::mem::replace(&mut self.any, true) {
            rows = format!("{TIMESERIES_CSV_HEADER}\n");
        }
        let label = csv_escape(label);
        for s in ts.samples() {
            let _ = writeln!(
                rows,
                "{label},{},{},{},{},{:?},{},{},{},{}",
                s.at.as_nanos(),
                Float(s.soc_power_w),
                s.queue_depth,
                s.busy_cores,
                s.package_state,
                s.pc0_delta.as_nanos(),
                s.pc0_idle_delta.as_nanos(),
                s.pc1a_delta.as_nanos(),
                s.pc6_delta.as_nanos()
            );
        }
        self.out.write_all(rows.as_bytes())?;
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_server::config::ServerConfig;
    use apc_server::fleet::{Fleet, FleetMember};
    use apc_sim::SimDuration;
    use apc_workloads::spec::WorkloadSpec;

    fn small_fleet() -> FleetResult {
        let mut fleet = Fleet::new();
        for i in 0..3 {
            let config = ServerConfig::c_pc1a()
                .with_duration(SimDuration::from_millis(2))
                .with_seed(Fleet::member_seed(7, i))
                .with_timeseries(SimDuration::from_micros(500));
            fleet.push(FleetMember::new(
                config,
                WorkloadSpec::memcached_etc(),
                20_000.0,
            ));
        }
        fleet.run().into()
    }

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("server {i}")).collect()
    }

    #[test]
    fn empty_fleet_still_closes_a_document_that_parses() {
        let empty = FleetResult { runs: Vec::new() };
        let results = Results::Runs {
            labels: &[],
            fleet: &empty,
        };
        let text = render(Format::Json, &results);
        let parsed = JsonValue::parse(&text).expect("empty fleet object parses");
        assert_eq!(parsed.get("runs"), Some(&JsonValue::Array(Vec::new())));
        assert_eq!(parsed.get("servers").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(parsed.get("labels"), Some(&JsonValue::Array(Vec::new())));
        assert_eq!(
            render(Format::Csv, &results),
            format!("label,{RUN_CSV_HEADER}\n")
        );
        assert_eq!(render_series(&results), None);
        assert_eq!(render(Format::Json, &Results::Chains(&[])), "[]\n");
    }

    #[test]
    fn labels_close_the_fleet_object_after_the_aggregates() {
        let fleet = small_fleet();
        let labels = labels(3);
        let text = render(
            Format::Json,
            &Results::Runs {
                labels: &labels,
                fleet: &fleet,
            },
        );
        let JsonValue::Object(entries) = JsonValue::parse(&text).expect("fleet object parses")
        else {
            panic!("a fleet object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys.first(), Some(&"runs"));
        assert_eq!(keys.last(), Some(&"labels"));
        assert_eq!(keys[keys.len() - 2], "events_dispatched");
        let (_, listed) = entries.last().expect("labels");
        let listed: Vec<&str> = listed
            .as_array()
            .expect("labels array")
            .iter()
            .filter_map(JsonValue::as_str)
            .collect();
        assert_eq!(listed, ["server 0", "server 1", "server 2"]);
    }

    #[test]
    fn each_push_writes_complete_rows() {
        let fleet = small_fleet();
        let labels = labels(3);
        let results = Results::Runs {
            labels: &labels,
            fleet: &fleet,
        };
        let mut writer = ArtefactWriter::new(Vec::new(), Format::Csv, Shape::Runs, false).unwrap();
        for (pushed, item) in results.items().into_iter().enumerate() {
            writer.push(item).unwrap();
            let Body::Csv(out) = &writer.body else {
                panic!("a CSV writer");
            };
            let rows = std::str::from_utf8(out).unwrap();
            assert!(rows.ends_with('\n'));
            assert_eq!(rows.lines().count(), 2 + pushed, "{rows}");
        }
    }

    #[test]
    fn series_share_one_header_and_carry_their_labels() {
        let fleet = small_fleet();
        let labels = labels(3);
        let series = render_series(&Results::Runs {
            labels: &labels,
            fleet: &fleet,
        })
        .expect("every run recorded a series");
        assert_eq!(series.matches("node,at_ns").count(), 1);
        assert!(series.starts_with(TIMESERIES_CSV_HEADER));
        for label in &labels {
            assert!(series.contains(&format!("\n{label},")), "{label}");
        }
    }

    #[test]
    fn csv_escaping_quotes_separators() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }
}
