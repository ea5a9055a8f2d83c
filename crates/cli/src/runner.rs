//! Materialises parsed specs into fleet/cluster/chain runs and formats
//! results.
//!
//! Every execution path routes through the one run [`Pool`]: single, fleet
//! and sweep specs become one [`Fleet`] (one member per run/grid-point),
//! cluster specs one [`ClusterFleet`] and chain specs one [`ChainFleet`]
//! (one member per repeat). The pool guarantees member-order,
//! bit-identical results regardless of worker count, which is what makes
//! `--format json|csv` output byte-identical between sequential and
//! parallel execution. JSON and CSV are written by one artefact sink,
//! either streamed to a file as results finish (`--stream-out`) or replayed
//! into memory from the finished [`Outcome`] ([`Outcome::render`]).

use std::convert::Infallible;
use std::fmt;

use apc_analysis::artefact::{render, render_series, Format, Results, Shape};
use apc_analysis::report::TextTable;
use apc_server::chain::{ChainFleet, ChainMember, ChainResult, RequestGraph};
use apc_server::cluster::{ClusterFleet, ClusterMember, ClusterResult};
use apc_server::config::ServerConfig;
use apc_server::fleet::{Fleet, FleetMember, FleetResult, Member, Pool};
use apc_server::result::RunResult;
use apc_sim::SimDuration;
use apc_trace::TraceLog;
use apc_workloads::chain::TierService;

use crate::spec::{ExperimentSpec, PlatformKind, SpecKind, TrafficPattern, WorkloadKind};

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

    /// The artefact format, or `None` for tables (rendered whole, never
    /// streamed).
    pub(crate) fn artefact(self) -> Option<Format> {
        match self {
            OutputFormat::Table => None,
            OutputFormat::Json => Some(Format::Json),
            OutputFormat::Csv => Some(Format::Csv),
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

/// Builds the [`RequestGraph`] a chain spec describes: a frontend tier
/// fanning out to `fanout` leaves calibrated like the workload's dominant
/// request class in the single-server mixes, with optional per-tier
/// mean-service overrides.
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
    let mut leaf = match workload {
        WorkloadKind::MemcachedEtc => TierService::memcached_leaf(),
        WorkloadKind::Kafka => TierService::kafka_leaf(),
        WorkloadKind::MysqlOltp => TierService::mysql_leaf(),
    };
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
        match self.run_streamed(&mut NoSink) {
            Ok(outcome) => outcome,
            Err(never) => match never {},
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
        Ok(match self {
            ExecutionPlan::Fleet {
                name,
                labels,
                fleet,
            } => {
                let runs = fleet.run_streamed(|i, r| sink.on_run(i, &labels[i], r))?;
                Outcome::Runs {
                    name,
                    labels,
                    fleet: runs.into(),
                }
            }
            ExecutionPlan::Cluster { name, fleet } => Outcome::Clusters {
                name,
                results: fleet.run_streamed(|i, c| sink.on_cluster(i, c))?,
            },
            ExecutionPlan::Chain { name, fleet } => Outcome::Chains {
                name,
                results: fleet.run_streamed(|i, c| sink.on_chain(i, c))?,
            },
        })
    }

    /// The result shape this plan produces.
    pub(crate) fn shape(&self) -> Shape {
        match self {
            ExecutionPlan::Fleet { .. } => Shape::Runs,
            ExecutionPlan::Cluster { .. } => Shape::Clusters,
            ExecutionPlan::Chain { .. } => Shape::Chains,
        }
    }
}

/// Observer of streamed execution: one callback per outcome kind, invoked
/// in member order (see [`ExecutionPlan::run_streamed`]). A plan only ever
/// calls the callback matching its kind; each defaults to doing nothing.
pub trait StreamSink<E> {
    /// One run-level result (single/fleet/sweep plans): member index, its
    /// display label and the finished run.
    fn on_run(&mut self, _index: usize, _label: &str, _run: &RunResult) -> Result<(), E> {
        Ok(())
    }
    /// One cluster repeat.
    fn on_cluster(&mut self, _repeat: usize, _result: &ClusterResult) -> Result<(), E> {
        Ok(())
    }
    /// One chain repeat.
    fn on_chain(&mut self, _repeat: usize, _result: &ChainResult) -> Result<(), E> {
        Ok(())
    }
}

/// The sink of an unobserved run.
struct NoSink;

impl StreamSink<Infallible> for NoSink {}

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
            // Every grid point reuses the root seed: points differ
            // only along the declared axes, maximising comparability.
            let traffic = TrafficPattern::Constant { rate_per_sec: rate };
            grid.push((
                format!("{}@{rate}", platform.name()),
                spec_member(spec, platform, spec.seed, spec.workload, &traffic),
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
    let name = spec.name.clone();
    let rate = spec.traffic.mean_rate_per_sec();
    let repeat_bases =
        || (0..spec.repeats).map(|i| spec_config(spec, spec.platform, repeat_seed(spec, i)));
    let (labels, members): (Vec<String>, Vec<FleetMember>) = match &spec.kind {
        SpecKind::Single => (0..spec.repeats)
            .map(|i| {
                let seed = repeat_seed(spec, i);
                let member = spec_member(spec, spec.platform, seed, spec.workload, &spec.traffic);
                (format!("run {i}"), member)
            })
            .unzip(),
        // Member seeds fork from the root over the global member index.
        SpecKind::Fleet { groups } => groups
            .iter()
            .flat_map(|g| std::iter::repeat(g).take(g.servers))
            .enumerate()
            .map(|(i, g)| {
                let seed = Fleet::member_seed(spec.seed, i);
                let member = spec_member(spec, spec.platform, seed, g.workload, &g.traffic);
                (format!("server {i}"), member)
            })
            .unzip(),
        SpecKind::Sweep { .. } => sweep_grid(spec)
            .expect("sweep kind has a grid")
            .into_iter()
            .unzip(),
        SpecKind::Cluster { nodes, policy } => {
            let members = repeat_bases().map(|base| ClusterMember {
                network: spec.network,
                ..ClusterMember::homogeneous(&base, *nodes, *policy, spec.workload.spec(), rate)
            });
            return ExecutionPlan::Cluster {
                name,
                fleet: pool(members, parallelism),
            };
        }
        SpecKind::Chain {
            nodes,
            fanout,
            policy,
            frontend_service,
            leaf_service,
        } => {
            let graph = chain_graph(spec.workload, *fanout, *frontend_service, *leaf_service);
            let members = repeat_bases().map(|base| ChainMember {
                network: spec.network,
                ..ChainMember::homogeneous(&base, *nodes, *policy, graph.clone(), rate)
            });
            return ExecutionPlan::Chain {
                name,
                fleet: pool(members, parallelism),
            };
        }
    };
    ExecutionPlan::Fleet {
        name,
        labels,
        fleet: pool(members, parallelism),
    }
}

/// A run pool over `members`, pinned to `parallelism` workers when given.
fn pool<M: Member>(members: impl IntoIterator<Item = M>, parallelism: Option<usize>) -> Pool<M> {
    let mut pool = Pool::new();
    for member in members {
        pool.push(member);
    }
    match parallelism {
        Some(workers) => pool.with_parallelism(workers),
        None => pool,
    }
}

/// The server config every run of `spec` on `platform` under `seed`
/// starts from: the platform's, with the spec's duration, the seed, the
/// `[telemetry]` sampling interval and the observability knobs — `[trace]`
/// and `--profile`, neither of which perturbs the simulation.
fn spec_config(spec: &ExperimentSpec, platform: PlatformKind, seed: u64) -> ServerConfig {
    let mut config = platform
        .config()
        .with_duration(spec.duration)
        .with_seed(seed);
    if let Some(every) = spec.timeseries_interval {
        config = config.with_timeseries(every);
    }
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
fn repeat_seed(spec: &ExperimentSpec, i: usize) -> u64 {
    if spec.repeats == 1 {
        spec.seed
    } else {
        Fleet::member_seed(spec.seed, i)
    }
}

/// Builds one fleet member for `spec` on `platform` under `seed`, serving
/// `workload` under `traffic`.
fn spec_member(
    spec: &ExperimentSpec,
    platform: PlatformKind,
    seed: u64,
    workload: WorkloadKind,
    traffic: &TrafficPattern,
) -> FleetMember {
    let config = spec_config(spec, platform, seed);
    let mut member = FleetMember::new(config, workload.spec(), traffic.mean_rate_per_sec());
    if let Some(arrivals) = traffic.arrival_process(spec.duration) {
        member = member.with_arrival_process(arrivals);
    }
    member
}

impl Outcome {
    /// Renders the outcome in `format`. JSON and CSV are the `--stream-out`
    /// artefact written into memory, so the two are the same bytes by
    /// construction.
    #[must_use]
    pub fn render(&self, format: OutputFormat) -> String {
        if let Some(format) = format.artefact() {
            return render(format, &self.results());
        }
        match self {
            Outcome::Runs {
                name,
                labels,
                fleet,
            } => runs_table(name, labels, &fleet.runs),
            Outcome::Clusters { name, results } => repeats_table(name, results),
            Outcome::Chains { name, results } => repeats_table(name, results),
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

    /// Renders every recorded time series as one concatenated CSV (the
    /// `--timeseries-out` stream written into memory), or `None` when no
    /// run recorded one.
    #[must_use]
    pub fn timeseries_csv(&self) -> Option<String> {
        render_series(&self.results())
    }

    /// The finished results, as the artefact writers take them.
    pub(crate) fn results(&self) -> Results<'_> {
        match self {
            Outcome::Runs { labels, fleet, .. } => Results::Runs { labels, fleet },
            Outcome::Clusters { results, .. } => Results::Clusters(results),
            Outcome::Chains { results, .. } => Results::Chains(results),
        }
    }
}

/// The table of a cluster/chain outcome: one titled block per repeat.
fn repeats_table(name: &str, results: &[impl fmt::Display]) -> String {
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
