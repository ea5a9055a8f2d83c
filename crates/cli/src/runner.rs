//! Materialises parsed specs into fleet/cluster runs and formats results.
//!
//! Every execution path routes through the existing parallel pools:
//! single, fleet and sweep specs become one [`Fleet`] (one member per
//! run/grid-point), cluster specs become one [`ClusterFleet`] (one member
//! per repeat). The pools guarantee member-order, bit-identical results
//! regardless of worker count, which is what makes `--format json|csv`
//! output byte-identical between sequential and parallel execution.

use apc_analysis::export::{
    chain_result_json, chain_results_csv, cluster_result_json, cluster_results_csv,
    fleet_result_json, run_results_csv, timeseries_csv, JsonValue,
};
use apc_analysis::report::TextTable;
use apc_server::chain::{ChainFleet, ChainMember, ChainResult, RequestGraph};
use apc_server::cluster::{ClusterFleet, ClusterMember, ClusterResult};
use apc_server::config::ServerConfig;
use apc_server::fleet::{Fleet, FleetMember, FleetResult};
use apc_server::result::RunResult;
use apc_server::scenario::{TrafficPattern, WorkloadKind};
use apc_sim::SimDuration;
use apc_trace::TraceLog;
use apc_workloads::chain::TierService;

use crate::spec::{ExperimentSpec, PlatformKind, SpecKind};

/// The output format of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable fixed-width text (the default).
    #[default]
    Table,
    /// Deterministic pretty-printed JSON.
    Json,
    /// Deterministic CSV.
    Csv,
}

impl OutputFormat {
    /// Parses a `--format` spelling.
    #[must_use]
    pub fn parse(name: &str) -> Option<OutputFormat> {
        match name.to_ascii_lowercase().as_str() {
            "table" => Some(OutputFormat::Table),
            "json" => Some(OutputFormat::Json),
            "csv" => Some(OutputFormat::Csv),
            _ => None,
        }
    }
}

/// The outcome of executing a spec: labelled run results (single, fleet and
/// sweep kinds) or cluster results (one per repeat).
#[derive(Debug)]
pub enum Outcome {
    /// Run-level results with one display label per run.
    Runs {
        /// Experiment name (titles the table output).
        name: String,
        /// One label per member, in member order.
        labels: Vec<String>,
        /// The executed fleet.
        fleet: FleetResult,
    },
    /// Cluster results, one per repeat.
    Clusters {
        /// Experiment name (titles the table output).
        name: String,
        /// The executed clusters, in repeat order.
        results: Vec<ClusterResult>,
    },
    /// Chain results, one per repeat (or one per run of a comparison).
    Chains {
        /// Experiment name (titles the table output).
        name: String,
        /// The executed chain clusters, in repeat order.
        results: Vec<ChainResult>,
    },
}

/// The leaf-tier service spec a workload kind implies for chain
/// experiments: the same calibration as the workload's dominant request
/// class in the single-server mixes.
#[must_use]
pub fn leaf_service_for(workload: WorkloadKind) -> TierService {
    match workload {
        WorkloadKind::MemcachedEtc => TierService::memcached_leaf(),
        WorkloadKind::Kafka => TierService::kafka_leaf(),
        WorkloadKind::MysqlOltp => TierService::mysql_leaf(),
    }
}

/// Builds the [`RequestGraph`] a chain spec describes: a frontend tier
/// fanning out to `fanout` leaves of the workload's calibration, with
/// optional per-tier mean-service overrides.
#[must_use]
pub fn chain_graph(
    workload: WorkloadKind,
    fanout: usize,
    frontend_service: Option<SimDuration>,
    leaf_service: Option<SimDuration>,
) -> RequestGraph {
    let mut frontend = TierService::frontend();
    if let Some(mean) = frontend_service {
        frontend = frontend.with_mean_service(mean);
    }
    let mut leaf = leaf_service_for(workload);
    if let Some(mean) = leaf_service {
        leaf = leaf.with_mean_service(mean);
    }
    RequestGraph::fanout(frontend, leaf, fanout)
}

/// A materialised spec, ready to run: the built pool plus the display
/// metadata the [`Outcome`] needs. Splitting planning from execution is
/// what lets `--stream-out` pick its writer (by kind and format) *before*
/// the simulation starts, then observe results through
/// [`ExecutionPlan::run_streamed`] as they finish.
pub enum ExecutionPlan {
    /// Run-level plan (single, fleet and sweep specs): one [`Fleet`] member
    /// per run/grid-point.
    Fleet {
        /// Experiment name.
        name: String,
        /// One label per member, in member order.
        labels: Vec<String>,
        /// The built fleet.
        fleet: Fleet,
    },
    /// Cluster plan: one [`ClusterFleet`] member per repeat.
    Cluster {
        /// Experiment name.
        name: String,
        /// The built cluster fleet.
        fleet: ClusterFleet,
    },
    /// Chain plan: one [`ChainFleet`] member per repeat.
    Chain {
        /// Experiment name.
        name: String,
        /// The built chain fleet.
        fleet: ChainFleet,
    },
}

impl ExecutionPlan {
    /// Executes the plan to completion.
    #[must_use]
    pub fn run(self) -> Outcome {
        match self {
            ExecutionPlan::Fleet {
                name,
                labels,
                fleet,
            } => Outcome::Runs {
                name,
                labels,
                fleet: fleet.run(),
            },
            ExecutionPlan::Cluster { name, fleet } => Outcome::Clusters {
                name,
                results: fleet.run(),
            },
            ExecutionPlan::Chain { name, fleet } => Outcome::Chains {
                name,
                results: fleet.run(),
            },
        }
    }

    /// Executes the plan, handing each result to `sink` in member order as
    /// soon as it (and every earlier member) has finished — the in-order
    /// frontier of the parallel pool, so a sink writing a file produces the
    /// same bytes whatever the worker count. A sink error stops emission
    /// and is returned; the simulation results are discarded.
    ///
    /// # Errors
    ///
    /// Propagates the first sink error.
    pub fn run_streamed<E, S: StreamSink<E>>(self, sink: &mut S) -> Result<Outcome, E> {
        match self {
            ExecutionPlan::Fleet {
                name,
                labels,
                fleet,
            } => {
                let fleet = fleet.run_streamed(|i, r| sink.on_run(i, &labels[i], r))?;
                Ok(Outcome::Runs {
                    name,
                    labels,
                    fleet,
                })
            }
            ExecutionPlan::Cluster { name, fleet } => {
                let results = fleet.run_streamed(|i, c| sink.on_cluster(i, c))?;
                Ok(Outcome::Clusters { name, results })
            }
            ExecutionPlan::Chain { name, fleet } => {
                let results = fleet.run_streamed(|i, c| sink.on_chain(i, c))?;
                Ok(Outcome::Chains { name, results })
            }
        }
    }
}

/// Observer of streamed execution: one callback per outcome kind, invoked
/// in member order (see [`ExecutionPlan::run_streamed`]). A plan only ever
/// calls the callback matching its kind.
pub trait StreamSink<E> {
    /// One run-level result (single/fleet/sweep plans): member index, its
    /// display label and the finished run.
    fn on_run(&mut self, index: usize, label: &str, run: &RunResult) -> Result<(), E>;
    /// One cluster repeat.
    fn on_cluster(&mut self, repeat: usize, result: &ClusterResult) -> Result<(), E>;
    /// One chain repeat.
    fn on_chain(&mut self, repeat: usize, result: &ChainResult) -> Result<(), E>;
}

/// The full sweep grid of a sweep spec, in declaration order
/// (platform-major, then rates): one `(label, member)` per grid point.
/// Grid index `i` of the returned vector is the *global point index* the
/// sweep-shard checkpoints key on. `None` for non-sweep specs.
#[must_use]
pub fn sweep_grid(spec: &ExperimentSpec) -> Option<Vec<(String, FleetMember)>> {
    let SpecKind::Sweep { rates, platforms } = &spec.kind else {
        return None;
    };
    let mut grid = Vec::new();
    for &platform in platforms {
        for &rate in rates {
            let sweep_spec = ExperimentSpec {
                traffic: TrafficPattern::Constant { rate_per_sec: rate },
                ..spec.clone()
            };
            // Every grid point reuses the root seed: points differ
            // only along the declared axes, maximising comparability.
            grid.push((
                format!("{}@{rate}", platform.name()),
                spec_member(&sweep_spec, platform, spec.seed),
            ));
        }
    }
    Some(grid)
}

/// Materialises a parsed spec into an [`ExecutionPlan`]; `parallelism`
/// is the run-pool worker count (`None` falls back to the spec's own
/// `parallelism` knob, then the host). Results are bit-identical whatever
/// the worker count.
#[must_use]
pub fn plan_spec(spec: &ExperimentSpec, parallelism: Option<usize>) -> ExecutionPlan {
    let parallelism = parallelism.or(spec.parallelism);
    match &spec.kind {
        SpecKind::Single => {
            let (labels, members) = (0..spec.repeats)
                .map(|i| {
                    let seed = repeat_seed(spec.seed, i, spec.repeats);
                    (format!("run {i}"), spec_member(spec, spec.platform, seed))
                })
                .unzip();
            plan_fleet(spec, labels, members, parallelism)
        }
        SpecKind::Fleet { servers } => {
            let (labels, members) = (0..*servers)
                .map(|i| {
                    let seed = Fleet::member_seed(spec.seed, i);
                    (
                        format!("server {i}"),
                        spec_member(spec, spec.platform, seed),
                    )
                })
                .unzip();
            plan_fleet(spec, labels, members, parallelism)
        }
        SpecKind::Sweep { .. } => {
            let (labels, members) = sweep_grid(spec)
                .expect("sweep kind has a grid")
                .into_iter()
                .unzip();
            plan_fleet(spec, labels, members, parallelism)
        }
        SpecKind::Cluster { nodes, policy } => {
            let mut cluster_fleet = ClusterFleet::new();
            for i in 0..spec.repeats {
                let seed = repeat_seed(spec.seed, i, spec.repeats);
                let base = spec
                    .platform
                    .config()
                    .with_duration(spec.duration)
                    .with_seed(seed);
                let base = match spec.timeseries_interval {
                    Some(every) => base.with_timeseries(every),
                    None => base,
                };
                let base = observe(base, spec);
                let rate = spec.traffic.mean_rate_per_sec();
                let mut member =
                    ClusterMember::homogeneous(&base, *nodes, *policy, spec.workload.spec(), rate);
                if let Some(net) = spec.network {
                    member = member.with_network(net);
                }
                cluster_fleet.push(member);
            }
            if let Some(workers) = parallelism {
                cluster_fleet = cluster_fleet.with_parallelism(workers);
            }
            ExecutionPlan::Cluster {
                name: spec.name.clone(),
                fleet: cluster_fleet,
            }
        }
        SpecKind::Chain {
            nodes,
            fanout,
            policy,
            frontend_service,
            leaf_service,
        } => {
            let graph = chain_graph(spec.workload, *fanout, *frontend_service, *leaf_service);
            let mut chain_fleet = ChainFleet::new();
            for i in 0..spec.repeats {
                let seed = repeat_seed(spec.seed, i, spec.repeats);
                let base = spec
                    .platform
                    .config()
                    .with_duration(spec.duration)
                    .with_seed(seed);
                let base = match spec.timeseries_interval {
                    Some(every) => base.with_timeseries(every),
                    None => base,
                };
                let base = observe(base, spec);
                let rate = spec.traffic.mean_rate_per_sec();
                let mut member =
                    ChainMember::homogeneous(&base, *nodes, *policy, graph.clone(), rate);
                if let Some(net) = spec.network {
                    member = member.with_network(net);
                }
                chain_fleet.push(member);
            }
            if let Some(workers) = parallelism {
                chain_fleet = chain_fleet.with_parallelism(workers);
            }
            ExecutionPlan::Chain {
                name: spec.name.clone(),
                fleet: chain_fleet,
            }
        }
    }
}

/// Executes a parsed spec end-to-end (see [`plan_spec`] for the
/// `parallelism` contract).
#[must_use]
pub fn execute_spec(spec: &ExperimentSpec, parallelism: Option<usize>) -> Outcome {
    plan_spec(spec, parallelism).run()
}

/// Applies the spec's observability knobs — `[trace]` and the `--profile`
/// flag — to a built server config. Neither perturbs the simulation: the
/// results stay bit-identical with or without them.
fn observe(mut config: ServerConfig, spec: &ExperimentSpec) -> ServerConfig {
    if let Some(trace) = spec.trace {
        config = config.with_trace(trace);
    }
    if spec.profile {
        config = config.with_profile();
    }
    config
}

/// The seed of repeat `i`: the root seed itself for a single run (matching
/// a direct `run_experiment`), else forked per repeat with the canonical
/// fleet scheme.
fn repeat_seed(root: u64, i: usize, repeats: usize) -> u64 {
    if repeats == 1 {
        root
    } else {
        Fleet::member_seed(root, i)
    }
}

/// Builds one fleet member for `spec` on `platform` under `seed`.
fn spec_member(spec: &ExperimentSpec, platform: PlatformKind, seed: u64) -> FleetMember {
    let config = platform
        .config()
        .with_duration(spec.duration)
        .with_seed(seed);
    let config = match spec.timeseries_interval {
        Some(every) => config.with_timeseries(every),
        None => config,
    };
    let config = observe(config, spec);
    let rate = spec.traffic.mean_rate_per_sec();
    let mut member = FleetMember::new(config, spec.workload.spec(), rate);
    if let Some(arrivals) = spec.traffic.arrival_process(spec.duration) {
        member = member.with_arrival_process(arrivals);
    }
    member
}

fn plan_fleet(
    spec: &ExperimentSpec,
    labels: Vec<String>,
    members: Vec<FleetMember>,
    parallelism: Option<usize>,
) -> ExecutionPlan {
    let mut fleet = Fleet::new();
    for member in members {
        fleet.push(member);
    }
    if let Some(workers) = parallelism {
        fleet = fleet.with_parallelism(workers);
    }
    ExecutionPlan::Fleet {
        name: spec.name.clone(),
        labels,
        fleet,
    }
}

impl Outcome {
    /// Renders the outcome in `format`.
    #[must_use]
    pub fn render(&self, format: OutputFormat) -> String {
        match (self, format) {
            (
                Outcome::Runs {
                    name,
                    labels,
                    fleet,
                },
                OutputFormat::Table,
            ) => runs_table(name, labels, &fleet.runs),
            // The JSON shape is a function of the outcome kind alone, never
            // of the result count: run-level outcomes are always a fleet
            // object (even for one run), clusters always an array (even for
            // one repeat) — consumers keep parsing when a count changes.
            (Outcome::Runs { labels, fleet, .. }, OutputFormat::Json) => {
                let mut o = fleet_result_json(fleet);
                o.push(
                    "labels",
                    JsonValue::Array(labels.iter().map(|l| JsonValue::Str(l.clone())).collect()),
                );
                o.to_pretty_string()
            }
            (Outcome::Runs { labels, fleet, .. }, OutputFormat::Csv) => run_results_csv(
                labels
                    .iter()
                    .map(String::as_str)
                    .zip(fleet.runs.iter())
                    .collect::<Vec<_>>(),
            ),
            (Outcome::Clusters { name, results }, OutputFormat::Table) => {
                let mut out = String::new();
                for (i, result) in results.iter().enumerate() {
                    if results.len() > 1 {
                        out.push_str(&format!("== {name} repeat {i} ==\n"));
                    } else {
                        out.push_str(&format!("== {name} ==\n"));
                    }
                    out.push_str(&format!("{result}\n"));
                }
                out
            }
            (Outcome::Clusters { results, .. }, OutputFormat::Json) => {
                JsonValue::Array(results.iter().map(cluster_result_json).collect())
                    .to_pretty_string()
            }
            (Outcome::Clusters { results, .. }, OutputFormat::Csv) => cluster_results_csv(results),
            (Outcome::Chains { name, results }, OutputFormat::Table) => {
                let mut out = String::new();
                for (i, result) in results.iter().enumerate() {
                    if results.len() > 1 {
                        out.push_str(&format!("== {name} repeat {i} ==\n"));
                    } else {
                        out.push_str(&format!("== {name} ==\n"));
                    }
                    out.push_str(&format!("{result}\n"));
                }
                out
            }
            (Outcome::Chains { results, .. }, OutputFormat::Json) => {
                JsonValue::Array(results.iter().map(chain_result_json).collect()).to_pretty_string()
            }
            (Outcome::Chains { results, .. }, OutputFormat::Csv) => chain_results_csv(results),
        }
    }

    /// The per-run results with their labels, for time-series extraction.
    #[must_use]
    pub fn labelled_runs(&self) -> Vec<(String, &RunResult)> {
        match self {
            Outcome::Runs { labels, fleet, .. } => {
                labels.iter().cloned().zip(fleet.runs.iter()).collect()
            }
            Outcome::Clusters { results, .. } => {
                cluster_node_rows(results.iter().map(|c| &c.nodes).collect())
            }
            Outcome::Chains { results, .. } => {
                cluster_node_rows(results.iter().map(|c| &c.nodes).collect())
            }
        }
    }

    /// Merges every collected request-span log into one (the first log's
    /// bound wins), or `None` when no run traced. Span `pid`s are node
    /// indices, so with `repeats > 1` the repeats share the node rows of
    /// the exported timeline — trace ids still tell them apart.
    #[must_use]
    pub fn merged_trace(&self) -> Option<TraceLog> {
        let logs: Vec<&TraceLog> = match self {
            Outcome::Runs { fleet, .. } => {
                fleet.runs.iter().filter_map(|r| r.trace.as_ref()).collect()
            }
            Outcome::Clusters { results, .. } => {
                results.iter().filter_map(|r| r.trace.as_ref()).collect()
            }
            Outcome::Chains { results, .. } => {
                results.iter().filter_map(|r| r.trace.as_ref()).collect()
            }
        };
        let (first, rest) = logs.split_first()?;
        let mut merged = (*first).clone();
        for log in rest {
            merged.absorb(log);
        }
        Some(merged)
    }

    /// Renders every recorded time series as one concatenated CSV, or
    /// `None` when no run recorded one.
    #[must_use]
    pub fn timeseries_csv(&self) -> Option<String> {
        let mut out = String::new();
        let mut any = false;
        for (label, run) in self.labelled_runs() {
            if let Some(ts) = &run.timeseries {
                let block = timeseries_csv(&label, ts);
                if any {
                    // Drop the repeated header; one header tops the file.
                    out.push_str(block.split_once('\n').map_or("", |(_, rest)| rest));
                } else {
                    out.push_str(&block);
                    any = true;
                }
            }
        }
        any.then_some(out)
    }
}

/// Labels the per-node runs of several cluster-shaped results (`node <i>`,
/// prefixed with the repeat when there is more than one result).
fn cluster_node_rows(fleets: Vec<&FleetResult>) -> Vec<(String, &RunResult)> {
    let mut rows = Vec::new();
    let repeats = fleets.len();
    for (repeat, fleet) in fleets.into_iter().enumerate() {
        for (i, r) in fleet.runs.iter().enumerate() {
            let label = if repeats > 1 {
                format!("repeat {repeat} node {i}")
            } else {
                format!("node {i}")
            };
            rows.push((label, r));
        }
    }
    rows
}

fn runs_table(name: &str, labels: &[String], runs: &[RunResult]) -> String {
    let mut table = TextTable::new(
        name,
        &[
            "run",
            "config",
            "workload",
            "rate",
            "throughput",
            "power W",
            "mean",
            "p99",
            "p999",
            "PC1A %",
            "idle 20-200us %",
        ],
    );
    for (label, r) in labels.iter().zip(runs) {
        table.add_row(&[
            label.clone(),
            r.config_name.to_owned(),
            r.workload.to_owned(),
            format!("{:.0}", r.offered_rate),
            format!("{:.0}", r.throughput()),
            format!("{:.2}", r.avg_total_power().as_f64()),
            format!("{}", r.latency.mean),
            format!("{}", r.latency.p99),
            format!("{}", r.latency.p999),
            format!("{:.1}", r.pc1a_residency * 100.0),
            format!("{:.1}", r.idle_periods_20_200us * 100.0),
        ]);
    }
    table.render()
}
