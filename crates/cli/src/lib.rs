//! # `apc-cli` — the experiment runner
//!
//! Declarative spec files in, machine-readable results out: every figure of
//! the paper is an experiment sweep (platform × workload × load →
//! power/latency/residency), and this binary runs such sweeps without a
//! recompile per scenario.
//!
//! ```text
//! apc-cli list                                # named scenario libraries
//! apc-cli run examples/specs/smoke.toml       # run a spec file
//! apc-cli run cluster-8-mid --format json     # run a named scenario
//! apc-cli sweep examples/specs/low_load_sweep.toml --format csv --out sweep.csv
//! apc-cli cluster cluster-8-trough --policy power-aware
//! apc-cli validate out.json                   # round-trip the JSON export
//! ```
//!
//! Subcommands: `list` (the built-in scenario and cluster-scenario
//! libraries), `run` (a spec file or a named scenario), `sweep` (a spec
//! with a `[sweep]` table: cartesian rates × platforms), `cluster` (a
//! cluster spec or named cluster scenario) and `validate` (parse a JSON
//! export with the bundled parser).
//!
//! All execution goes through the `apc-server` parallel pools, so results
//! are bit-identical whatever `--parallelism` says, and the JSON/CSV
//! exporters are deterministic — identical seeds yield byte-identical
//! output files.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod checkpoint;
pub mod runner;
pub mod spec;
mod stream_out;

use std::fmt;

use apc_analysis::export::{chrome_trace_json, csv_escape, JsonValue};
use apc_analysis::report::TextTable;
use apc_server::balancer::RoutingPolicyKind;
use apc_server::fleet::Fleet;
use apc_server::scenario::{ChainScenario, ClusterScenario, Scenario};
use apc_sim::SimDuration;

use crate::checkpoint::{merge_checkpoints, Checkpoint, CheckpointPoint};
use crate::runner::{execute_spec, plan_spec, sweep_grid, Outcome, OutputFormat};
use crate::spec::{parse_policy, ExperimentSpec, PlatformKind, SpecKind};

/// A CLI failure: what went wrong and which exit code it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad invocation: unknown subcommand/flag, conflicting or duplicate
    /// flags, missing arguments. Exit code 2.
    Usage(String),
    /// A spec or input file failed to parse or validate. Exit code 1.
    Input(String),
    /// Reading or writing a file failed. Exit code 1.
    Io(String),
}

impl CliError {
    /// The process exit code this error maps to.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Input(_) | CliError::Io(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}\n\n{USAGE}"),
            CliError::Input(m) | CliError::Io(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

/// The one-screen usage text.
pub const USAGE: &str = "\
usage: apc-cli <command> [options]

commands:
  list                      the named scenario / cluster / chain libraries
  run <spec|name>           run a spec file or a named scenario
                            (fleet, cluster or fan-out chain)
  sweep <spec>              run a spec's [sweep] grid (rates x platforms)
  merge <checkpoint...>     combine `sweep --shard` checkpoints (one per
                            shard) into the unsharded sweep output
  cluster <spec|name>       run a cluster spec or named cluster scenario
  validate <file.json>      parse a JSON export (round-trip check)

options:
  --format table|json|csv   output format (default table)
  --out <path>              write the output to a file instead of stdout
  --stream-out <path>       write json/csv output to a file incrementally,
                            flushing each result as it finishes — the final
                            file is byte-identical to --out (spec files)
  --shard <i/n>             with `sweep --out <path>`: run only grid points
                            with index ≡ i (mod n) and write a checkpoint
                            for `merge` instead of results
  --timeseries-out <path>   write recorded time series as CSV to a file
  --trace-out <path>        write sampled request spans as Chrome trace
                            JSON (needs a spec with a [trace] table)
  --profile                 attach the engine self-profiler report to the
                            results (spec files only; shown in JSON output)
  --platform <name>         cshallow|cdeep|cpc1a (named scenarios; default cpc1a)
  --policy <name>           random|round-robin|jsq|power-aware
                            (cluster and chain scenarios)
  --duration-ms <n>         override the simulated duration
  --seed <n>                override the root seed
  --parallelism <n>         run-pool worker count (default: host cores; wins
                            over a spec's `parallelism` key)";

/// Runs the CLI on `args` (the program name already stripped), returning
/// the text to print on stdout.
///
/// # Errors
///
/// Returns a [`CliError`] describing the failure; the caller maps it to an
/// exit code via [`CliError::exit_code`].
pub fn execute(args: &[String]) -> Result<String, CliError> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage("missing command".to_owned()))?;
    match command.as_str() {
        "list" => cmd_list(&Invocation::parse(rest, &["format"], 0)?),
        "run" => cmd_run(&Invocation::parse(
            rest,
            &[
                "format",
                "out",
                "stream-out",
                "timeseries-out",
                "trace-out",
                "profile",
                "platform",
                "policy",
                "duration-ms",
                "seed",
                "parallelism",
            ],
            1,
        )?),
        "sweep" => cmd_sweep(&Invocation::parse(
            rest,
            &[
                "format",
                "out",
                "stream-out",
                "shard",
                "timeseries-out",
                "profile",
                "duration-ms",
                "seed",
                "parallelism",
            ],
            1,
        )?),
        "merge" => cmd_merge(&Invocation::parse_at_least(
            rest,
            &["format", "out", "timeseries-out"],
            1,
        )?),
        "cluster" => cmd_cluster(&Invocation::parse(
            rest,
            &[
                "format",
                "out",
                "stream-out",
                "timeseries-out",
                "trace-out",
                "profile",
                "platform",
                "policy",
                "duration-ms",
                "seed",
                "parallelism",
            ],
            1,
        )?),
        "validate" => cmd_validate(&Invocation::parse(rest, &[], 1)?),
        "--help" | "-h" | "help" => Ok(format!("{USAGE}\n")),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// A parsed invocation: positional arguments plus `--flag value` options.
struct Invocation {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Invocation {
    /// Parses `args`, accepting only `allowed` flags. Duplicate flags,
    /// unknown flags and missing values are usage errors; arity is the
    /// caller's to check (see [`Invocation::parse`]).
    fn parse_free(args: &[String], allowed: &[&str]) -> Result<Self, CliError> {
        // Boolean switches never consume a value; everything else does.
        const SWITCHES: [&str; 1] = ["profile"];
        let mut inv = Invocation {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if !allowed.contains(&name) {
                    return Err(CliError::Usage(format!(
                        "unknown or inapplicable flag `--{name}`"
                    )));
                }
                if inv.flags.iter().any(|(k, _)| k == name) {
                    return Err(CliError::Usage(format!(
                        "conflicting flags: `--{name}` given twice"
                    )));
                }
                if SWITCHES.contains(&name) {
                    inv.flags.push((name.to_owned(), String::new()));
                    continue;
                }
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("`--{name}` needs a value")))?;
                inv.flags.push((name.to_owned(), value.clone()));
            } else {
                inv.positional.push(arg.clone());
            }
        }
        Ok(inv)
    }

    /// Parses `args` with exactly `positional` positional arguments.
    fn parse(args: &[String], allowed: &[&str], positional: usize) -> Result<Self, CliError> {
        let inv = Self::parse_free(args, allowed)?;
        if inv.positional.len() != positional {
            return Err(CliError::Usage(format!(
                "expected {positional} positional argument(s), got {}",
                inv.positional.len()
            )));
        }
        Ok(inv)
    }

    /// Parses `args` with at least `min` positional arguments (the `merge`
    /// command takes one checkpoint per shard).
    fn parse_at_least(args: &[String], allowed: &[&str], min: usize) -> Result<Self, CliError> {
        let inv = Self::parse_free(args, allowed)?;
        if inv.positional.len() < min {
            return Err(CliError::Usage(format!(
                "expected at least {min} positional argument(s), got {}",
                inv.positional.len()
            )));
        }
        Ok(inv)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the boolean switch `name` was given.
    fn switch(&self, name: &str) -> bool {
        self.flag(name).is_some()
    }

    fn format(&self) -> Result<OutputFormat, CliError> {
        match self.flag("format") {
            None => Ok(OutputFormat::default()),
            Some(name) => OutputFormat::parse(name).ok_or_else(|| {
                CliError::Usage(format!("unknown format `{name}` (table|json|csv)"))
            }),
        }
    }

    fn platform(&self) -> Result<Option<PlatformKind>, CliError> {
        match self.flag("platform") {
            None => Ok(None),
            Some(name) => PlatformKind::parse(name).map(Some).ok_or_else(|| {
                CliError::Usage(format!("unknown platform `{name}` (cshallow|cdeep|cpc1a)"))
            }),
        }
    }

    fn policy(&self) -> Result<Option<RoutingPolicyKind>, CliError> {
        match self.flag("policy") {
            None => Ok(None),
            Some(name) => parse_policy(name).map(Some).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown policy `{name}` (random|round-robin|jsq|power-aware)"
                ))
            }),
        }
    }

    fn u64_flag(&self, name: &str) -> Result<Option<u64>, CliError> {
        match self.flag(name) {
            None => Ok(None),
            Some(v) => v.parse::<u64>().map(Some).map_err(|_| {
                CliError::Usage(format!(
                    "`--{name}` must be a non-negative integer, got `{v}`"
                ))
            }),
        }
    }

    fn parallelism(&self) -> Result<Option<usize>, CliError> {
        match self.u64_flag("parallelism")? {
            None => Ok(None),
            Some(0) => Err(CliError::Usage(
                "`--parallelism` must be at least 1".to_owned(),
            )),
            Some(n) => Ok(Some(n as usize)),
        }
    }

    fn duration(&self) -> Result<Option<SimDuration>, CliError> {
        match self.u64_flag("duration-ms")? {
            None => Ok(None),
            Some(0) => Err(CliError::Usage(
                "`--duration-ms` must be at least 1".to_owned(),
            )),
            Some(ms) => Ok(Some(SimDuration::from_millis(ms))),
        }
    }
}

/// How a `run`/`cluster` target resolves.
enum Target {
    Spec(ExperimentSpec),
    Scenario(Scenario),
    ClusterScenario(ClusterScenario),
    ChainScenario(ChainScenario),
}

/// Resolves a positional target: a readable file parses as a spec; anything
/// else must name a library (cluster-/chain-)scenario.
fn resolve_target(arg: &str) -> Result<Target, CliError> {
    let looks_like_path = arg.contains('/')
        || arg.contains('\\')
        || arg.ends_with(".toml")
        || std::path::Path::new(arg).exists();
    if looks_like_path {
        let text = std::fs::read_to_string(arg)
            .map_err(|e| CliError::Io(format!("cannot read spec `{arg}`: {e}")))?;
        let spec = ExperimentSpec::parse(&text).map_err(|e| {
            let message = format!("{arg}: {e}");
            // Usage-flagged spec errors ([network] table mistakes) map to
            // the usage exit code, like a bad flag would.
            if e.usage {
                CliError::Usage(message)
            } else {
                CliError::Input(message)
            }
        })?;
        return Ok(Target::Spec(spec));
    }
    if let Some(s) = Scenario::library().into_iter().find(|s| s.name == arg) {
        return Ok(Target::Scenario(s));
    }
    if let Some(s) = ClusterScenario::library()
        .into_iter()
        .find(|s| s.name == arg)
    {
        return Ok(Target::ClusterScenario(s));
    }
    if let Some(s) = ChainScenario::library().into_iter().find(|s| s.name == arg) {
        return Ok(Target::ChainScenario(s));
    }
    let known: Vec<&str> = Scenario::library()
        .iter()
        .map(|s| s.name)
        .chain(ClusterScenario::library().iter().map(|s| s.name))
        .chain(ChainScenario::library().iter().map(|s| s.name))
        .collect();
    Err(CliError::Input(format!(
        "unknown scenario `{arg}` (not a spec file; known scenarios: {})",
        known.join(", ")
    )))
}

/// Converts a named fleet scenario into a runnable spec-shaped outcome.
fn run_scenario(
    scenario: &Scenario,
    platform: PlatformKind,
    duration: Option<SimDuration>,
    seed: Option<u64>,
    parallelism: Option<usize>,
) -> Outcome {
    let mut scenario = scenario.clone();
    if let Some(d) = duration {
        scenario = scenario.with_duration(d);
    }
    if let Some(s) = seed {
        scenario = scenario.with_seed(s);
    }
    let mut fleet = scenario.build_fleet(&platform.config());
    if let Some(workers) = parallelism {
        fleet = fleet.with_parallelism(workers);
    }
    let labels = (0..scenario.servers())
        .map(|i| format!("server {i}"))
        .collect();
    Outcome::Runs {
        name: format!("{} ({})", scenario.name, platform.name()),
        labels,
        fleet: fleet.run(),
    }
}

fn run_chain_scenario(
    scenario: &ChainScenario,
    platform: PlatformKind,
    policy: RoutingPolicyKind,
    duration: Option<SimDuration>,
    seed: Option<u64>,
    parallelism: Option<usize>,
) -> Outcome {
    let mut scenario = scenario.clone();
    if let Some(d) = duration {
        scenario = scenario.with_duration(d);
    }
    if let Some(s) = seed {
        scenario = scenario.with_seed(s);
    }
    // Route through the ChainFleet pool like the spec path does, so
    // `--parallelism` means the same thing everywhere.
    let base = platform
        .config()
        .with_duration(scenario.duration)
        .with_seed(scenario.seed);
    let mut fleet = apc_server::chain::ChainFleet::new();
    fleet.push(apc_server::chain::ChainMember::homogeneous(
        &base,
        scenario.nodes,
        policy,
        scenario.graph.clone(),
        scenario.chains_per_sec,
    ));
    if let Some(workers) = parallelism {
        fleet = fleet.with_parallelism(workers);
    }
    Outcome::Chains {
        name: format!("{} ({}, {})", scenario.name, platform.name(), policy.name()),
        results: fleet.run(),
    }
}

fn run_cluster_scenario(
    scenario: &ClusterScenario,
    platform: PlatformKind,
    policy: RoutingPolicyKind,
    duration: Option<SimDuration>,
    seed: Option<u64>,
    parallelism: Option<usize>,
) -> Outcome {
    let mut scenario = scenario.clone();
    if let Some(d) = duration {
        scenario = scenario.with_duration(d);
    }
    if let Some(s) = seed {
        scenario = scenario.with_seed(s);
    }
    // Route through the ClusterFleet pool like the spec path does, so
    // `--parallelism` means the same thing everywhere (the pool clamps to
    // the job count — one cluster runs on one worker either way).
    let base = platform
        .config()
        .with_duration(scenario.duration)
        .with_seed(scenario.seed);
    let mut fleet = apc_server::cluster::ClusterFleet::new();
    fleet.push(apc_server::cluster::ClusterMember::homogeneous(
        &base,
        scenario.nodes,
        policy,
        scenario.workload.spec(),
        scenario.total_rate_per_sec,
    ));
    if let Some(workers) = parallelism {
        fleet = fleet.with_parallelism(workers);
    }
    Outcome::Clusters {
        name: format!("{} ({}, {})", scenario.name, platform.name(), policy.name()),
        results: fleet.run(),
    }
}

/// Rejects `--timeseries-out` up front when nothing will record a series —
/// before the (possibly long) simulation runs and before `--out` is
/// written, so a usage error never leaves partial outputs behind.
fn check_timeseries_flag(inv: &Invocation, series_enabled: bool) -> Result<(), CliError> {
    if inv.flag("timeseries-out").is_some() && !series_enabled {
        return Err(CliError::Usage(
            "conflicting flags: `--timeseries-out` needs a spec with a [telemetry] table \
             (named library scenarios never record a time series)"
                .to_owned(),
        ));
    }
    Ok(())
}

/// Rejects `--trace-out` / `--profile` up front when they cannot apply —
/// before the (possibly long) simulation runs and before `--out` is
/// written, same stance as [`check_timeseries_flag`].
fn check_observability_flags(
    inv: &Invocation,
    trace_enabled: bool,
    spec_target: bool,
) -> Result<(), CliError> {
    if inv.flag("trace-out").is_some() && !trace_enabled {
        return Err(CliError::Usage(
            "conflicting flags: `--trace-out` needs a spec with a [trace] table \
             (named library scenarios never record request spans)"
                .to_owned(),
        ));
    }
    if inv.switch("profile") && !spec_target {
        return Err(CliError::Usage(
            "conflicting flags: `--profile` applies to spec files \
             (named library scenarios run without the self-profiler)"
                .to_owned(),
        ));
    }
    if inv.flag("stream-out").is_some() && !spec_target {
        return Err(CliError::Usage(
            "conflicting flags: `--stream-out` applies to spec files \
             (named library scenarios render their output whole; use `--out`)"
                .to_owned(),
        ));
    }
    Ok(())
}

/// Resolves `--stream-out`: `Some((path, format))` when incremental output
/// was requested, after rejecting the combinations it cannot serve. Tables
/// need the whole result set for column widths, so streaming is json/csv
/// only; `--out` would write the same artefact twice.
fn stream_request(inv: &Invocation) -> Result<Option<(&str, OutputFormat)>, CliError> {
    let Some(path) = inv.flag("stream-out") else {
        return Ok(None);
    };
    if inv.flag("out").is_some() {
        return Err(CliError::Usage(
            "conflicting flags: `--stream-out` and `--out` write the same artefact; give one"
                .to_owned(),
        ));
    }
    let format = inv.format()?;
    if format == OutputFormat::Table {
        return Err(CliError::Usage(
            "conflicting flags: `--stream-out` needs `--format json` or `--format csv` \
             (tables are rendered whole)"
                .to_owned(),
        ));
    }
    Ok(Some((path, format)))
}

/// The `--stream-out` execution path for a spec target: plans the spec,
/// streams the artefact (and any `--timeseries-out`) while it runs, then
/// honours `--trace-out` on the completed outcome.
fn finish_streamed(
    inv: &Invocation,
    spec: &ExperimentSpec,
    path: &str,
    format: OutputFormat,
) -> Result<String, CliError> {
    let plan = plan_spec(spec, inv.parallelism()?);
    let (outcome, mut stdout) = stream_out::execute_plan_streamed(
        plan,
        format,
        path,
        inv.flag("timeseries-out"),
        spec.repeats,
        spec.network.is_some(),
    )?;
    write_trace_out(inv, &outcome, &mut stdout)?;
    Ok(stdout)
}

/// The deduplicated `+`-joined workload names of a fleet scenario.
fn scenario_workloads(s: &Scenario) -> String {
    let mut workloads: Vec<&str> = s.groups.iter().map(|g| g.workload.name()).collect();
    workloads.dedup();
    workloads.join("+")
}

fn cmd_list(inv: &Invocation) -> Result<String, CliError> {
    match inv.format()? {
        OutputFormat::Table => {
            let mut table = TextTable::new(
                "scenario libraries",
                &["name", "kind", "servers", "workloads", "description"],
            );
            for s in Scenario::library() {
                table.add_row(&[
                    s.name.to_owned(),
                    "fleet".to_owned(),
                    s.servers().to_string(),
                    scenario_workloads(&s),
                    s.description.to_owned(),
                ]);
            }
            for s in ClusterScenario::library() {
                table.add_row(&[
                    s.name.to_owned(),
                    "cluster".to_owned(),
                    s.nodes.to_string(),
                    s.workload.name().to_owned(),
                    s.description.to_owned(),
                ]);
            }
            for s in ChainScenario::library() {
                table.add_row(&[
                    s.name.to_owned(),
                    "chain".to_owned(),
                    s.nodes.to_string(),
                    s.graph.describe(),
                    s.description.to_owned(),
                ]);
            }
            Ok(table.render())
        }
        OutputFormat::Json => {
            let mut items = Vec::new();
            for s in Scenario::library() {
                let mut o = JsonValue::object();
                o.push("name", JsonValue::Str(s.name.to_owned()))
                    .push("kind", JsonValue::Str("fleet".to_owned()))
                    .push("servers", JsonValue::UInt(s.servers() as u64))
                    .push("workloads", JsonValue::Str(scenario_workloads(&s)))
                    .push("description", JsonValue::Str(s.description.to_owned()));
                items.push(o);
            }
            for s in ClusterScenario::library() {
                let mut o = JsonValue::object();
                o.push("name", JsonValue::Str(s.name.to_owned()))
                    .push("kind", JsonValue::Str("cluster".to_owned()))
                    .push("servers", JsonValue::UInt(s.nodes as u64))
                    .push("workloads", JsonValue::Str(s.workload.name().to_owned()))
                    .push("description", JsonValue::Str(s.description.to_owned()));
                items.push(o);
            }
            for s in ChainScenario::library() {
                let mut o = JsonValue::object();
                o.push("name", JsonValue::Str(s.name.to_owned()))
                    .push("kind", JsonValue::Str("chain".to_owned()))
                    .push("servers", JsonValue::UInt(s.nodes as u64))
                    .push("workloads", JsonValue::Str(s.graph.describe()))
                    .push("description", JsonValue::Str(s.description.to_owned()));
                items.push(o);
            }
            Ok(JsonValue::Array(items).to_pretty_string())
        }
        OutputFormat::Csv => {
            let mut out = String::from("name,kind,servers,workloads,description\n");
            for s in Scenario::library() {
                out.push_str(&format!(
                    "{},fleet,{},{},{}\n",
                    csv_escape(s.name),
                    s.servers(),
                    csv_escape(&scenario_workloads(&s)),
                    csv_escape(s.description)
                ));
            }
            for s in ClusterScenario::library() {
                out.push_str(&format!(
                    "{},cluster,{},{},{}\n",
                    csv_escape(s.name),
                    s.nodes,
                    csv_escape(s.workload.name()),
                    csv_escape(s.description)
                ));
            }
            for s in ChainScenario::library() {
                out.push_str(&format!(
                    "{},chain,{},{},{}\n",
                    csv_escape(s.name),
                    s.nodes,
                    csv_escape(&s.graph.describe()),
                    csv_escape(s.description)
                ));
            }
            Ok(out)
        }
    }
}

fn cmd_run(inv: &Invocation) -> Result<String, CliError> {
    let target = resolve_target(&inv.positional[0])?;
    let outcome = match &target {
        Target::Spec(spec) => {
            if inv.flag("platform").is_some() {
                return Err(CliError::Usage(
                    "conflicting flags: `--platform` applies to named scenarios; \
                     spec files declare their platform in [platform]"
                        .to_owned(),
                ));
            }
            if inv.flag("policy").is_some() {
                return Err(CliError::Usage(
                    "conflicting flags: `--policy` applies to named cluster/chain scenarios; \
                     spec files declare their policy in [cluster]/[chain]"
                        .to_owned(),
                ));
            }
            check_timeseries_flag(inv, spec.timeseries_interval.is_some())?;
            check_observability_flags(inv, spec.trace.is_some(), true)?;
            let spec = override_spec(spec, inv)?;
            if let Some((path, format)) = stream_request(inv)? {
                return finish_streamed(inv, &spec, path, format);
            }
            execute_spec(&spec, inv.parallelism()?)
        }
        Target::Scenario(s) => {
            if inv.flag("policy").is_some() {
                return Err(CliError::Usage(format!(
                    "conflicting flags: `--policy` does not apply to fleet scenario `{}`",
                    s.name
                )));
            }
            check_timeseries_flag(inv, false)?;
            check_observability_flags(inv, false, false)?;
            run_scenario(
                s,
                inv.platform()?.unwrap_or(PlatformKind::Cpc1a),
                inv.duration()?,
                inv.u64_flag("seed")?,
                inv.parallelism()?,
            )
        }
        Target::ClusterScenario(s) => {
            check_timeseries_flag(inv, false)?;
            check_observability_flags(inv, false, false)?;
            run_cluster_scenario(
                s,
                inv.platform()?.unwrap_or(PlatformKind::Cpc1a),
                inv.policy()?.unwrap_or(RoutingPolicyKind::PowerAware),
                inv.duration()?,
                inv.u64_flag("seed")?,
                inv.parallelism()?,
            )
        }
        Target::ChainScenario(s) => {
            check_timeseries_flag(inv, false)?;
            check_observability_flags(inv, false, false)?;
            run_chain_scenario(
                s,
                inv.platform()?.unwrap_or(PlatformKind::Cpc1a),
                inv.policy()?
                    .unwrap_or(RoutingPolicyKind::JoinShortestQueue),
                inv.duration()?,
                inv.u64_flag("seed")?,
                inv.parallelism()?,
            )
        }
    };
    finish(inv, &outcome)
}

fn cmd_sweep(inv: &Invocation) -> Result<String, CliError> {
    let target = resolve_target(&inv.positional[0])?;
    let Target::Spec(spec) = target else {
        return Err(CliError::Usage(
            "`sweep` needs a spec file with a [sweep] table".to_owned(),
        ));
    };
    if !matches!(spec.kind, SpecKind::Sweep { .. }) {
        return Err(CliError::Input(format!(
            "`{}` is not a sweep spec (kind = \"sweep\" with a [sweep] table)",
            inv.positional[0]
        )));
    }
    if let Some(shard) = inv.flag("shard") {
        return cmd_sweep_shard(inv, &spec, shard);
    }
    check_timeseries_flag(inv, spec.timeseries_interval.is_some())?;
    check_observability_flags(inv, spec.trace.is_some(), true)?;
    let spec = override_spec(&spec, inv)?;
    if let Some((path, format)) = stream_request(inv)? {
        return finish_streamed(inv, &spec, path, format);
    }
    let outcome = execute_spec(&spec, inv.parallelism()?);
    finish(inv, &outcome)
}

/// Parses a `--shard i/n` spelling.
fn parse_shard(s: &str) -> Result<(usize, usize), CliError> {
    let err = || {
        CliError::Usage(format!(
            "`--shard` must be `i/n` with 0 <= i < n, got `{s}`"
        ))
    };
    let (i, n) = s.split_once('/').ok_or_else(err)?;
    let i: usize = i.parse().map_err(|_| err())?;
    let n: usize = n.parse().map_err(|_| err())?;
    if n == 0 || i >= n {
        return Err(err());
    }
    Ok((i, n))
}

/// The `sweep --shard i/n` path: runs only the grid points whose global
/// index is congruent to `i` modulo `n`, and writes a [`Checkpoint`] to
/// `--out` for `merge` to recombine — not rendered results, which is why
/// the result-shaping flags conflict with `--shard`.
fn cmd_sweep_shard(
    inv: &Invocation,
    spec: &ExperimentSpec,
    shard: &str,
) -> Result<String, CliError> {
    let (i, n) = parse_shard(shard)?;
    for flag in ["format", "stream-out", "timeseries-out", "profile"] {
        if inv.flag(flag).is_some() {
            return Err(CliError::Usage(format!(
                "conflicting flags: `--shard` writes a checkpoint, not results; \
                 `--{flag}` does not apply (give it to `merge` instead)"
            )));
        }
    }
    let Some(out_path) = inv.flag("out") else {
        return Err(CliError::Usage(
            "`--shard` needs `--out <path>` for the checkpoint".to_owned(),
        ));
    };
    let spec = override_spec(spec, inv)?;
    let grid = sweep_grid(&spec).expect("checked above: sweep kind");
    let total_points = grid.len();
    let mut points_meta = Vec::new();
    let mut fleet = Fleet::new();
    for (index, (label, member)) in grid.into_iter().enumerate() {
        if index % n != i {
            continue;
        }
        points_meta.push((index, label));
        fleet.push(member);
    }
    if let Some(workers) = inv.parallelism()?.or(spec.parallelism) {
        fleet = fleet.with_parallelism(workers);
    }
    let result = fleet.run();
    let points = points_meta
        .into_iter()
        .zip(result.runs)
        .map(|((index, label), run)| CheckpointPoint { index, label, run })
        .collect();
    let ck = Checkpoint {
        spec_name: spec.name.clone(),
        shard: i,
        of: n,
        total_points,
        seed: spec.seed,
        duration: spec.duration,
        points,
    };
    let text = ck.to_json().to_pretty_string();
    std::fs::write(out_path, &text)
        .map_err(|e| CliError::Io(format!("cannot write `{out_path}`: {e}")))?;
    Ok(format!("wrote {out_path} ({} bytes)\n", text.len()))
}

/// The `merge` command: parses one checkpoint per shard and renders the
/// recombined sweep exactly as an unsharded run would have.
fn cmd_merge(inv: &Invocation) -> Result<String, CliError> {
    let mut shards = Vec::new();
    for path in &inv.positional {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))?;
        let value = JsonValue::parse(&text).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
        let ck =
            Checkpoint::from_json(&value).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
        shards.push(ck);
    }
    let (name, labels, fleet) = merge_checkpoints(shards).map_err(CliError::Input)?;
    let outcome = Outcome::Runs {
        name,
        labels,
        fleet,
    };
    finish(inv, &outcome)
}

fn cmd_cluster(inv: &Invocation) -> Result<String, CliError> {
    let target = resolve_target(&inv.positional[0])?;
    let outcome = match &target {
        Target::Spec(spec) => {
            let SpecKind::Cluster { .. } = spec.kind else {
                return Err(CliError::Input(format!(
                    "`{}` is not a cluster spec (kind = \"cluster\" with a [cluster] table)",
                    inv.positional[0]
                )));
            };
            if inv.flag("platform").is_some() {
                return Err(CliError::Usage(
                    "conflicting flags: `--platform` applies to named scenarios; \
                     spec files declare their platform in [platform]"
                        .to_owned(),
                ));
            }
            if inv.flag("policy").is_some() {
                return Err(CliError::Usage(
                    "conflicting flags: `--policy` applies to named cluster/chain scenarios; \
                     spec files declare their policy in [cluster]/[chain]"
                        .to_owned(),
                ));
            }
            check_timeseries_flag(inv, spec.timeseries_interval.is_some())?;
            check_observability_flags(inv, spec.trace.is_some(), true)?;
            let spec = override_spec(spec, inv)?;
            if let Some((path, format)) = stream_request(inv)? {
                return finish_streamed(inv, &spec, path, format);
            }
            execute_spec(&spec, inv.parallelism()?)
        }
        Target::Scenario(s) => {
            return Err(CliError::Input(format!(
                "`{}` is a fleet scenario; use `apc-cli run {}`",
                s.name, s.name
            )))
        }
        Target::ChainScenario(s) => {
            return Err(CliError::Input(format!(
                "`{}` is a chain scenario; use `apc-cli run {}`",
                s.name, s.name
            )))
        }
        Target::ClusterScenario(s) => {
            check_timeseries_flag(inv, false)?;
            check_observability_flags(inv, false, false)?;
            run_cluster_scenario(
                s,
                inv.platform()?.unwrap_or(PlatformKind::Cpc1a),
                inv.policy()?.unwrap_or(RoutingPolicyKind::PowerAware),
                inv.duration()?,
                inv.u64_flag("seed")?,
                inv.parallelism()?,
            )
        }
    };
    finish(inv, &outcome)
}

fn cmd_validate(inv: &Invocation) -> Result<String, CliError> {
    let path = &inv.positional[0];
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))?;
    let value = JsonValue::parse(&text).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
    let kind = match &value {
        JsonValue::Object(_) => "object",
        JsonValue::Array(_) => "array",
        _ => "scalar",
    };
    Ok(format!(
        "{path}: valid JSON ({kind}, {} bytes)\n",
        text.len()
    ))
}

/// Applies `--duration-ms` / `--seed` / `--profile` overrides to a parsed
/// spec.
fn override_spec(spec: &ExperimentSpec, inv: &Invocation) -> Result<ExperimentSpec, CliError> {
    let mut spec = spec.clone();
    if let Some(d) = inv.duration()? {
        spec.duration = d;
    }
    if let Some(s) = inv.u64_flag("seed")? {
        spec.seed = s;
    }
    spec.profile = inv.switch("profile");
    Ok(spec)
}

/// Renders the outcome, honours `--out` / `--timeseries-out`, and returns
/// what to print on stdout.
fn finish(inv: &Invocation, outcome: &Outcome) -> Result<String, CliError> {
    let rendered = outcome.render(inv.format()?);
    let mut stdout = String::new();
    match inv.flag("out") {
        Some(path) => {
            std::fs::write(path, &rendered)
                .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
            stdout.push_str(&format!("wrote {path} ({} bytes)\n", rendered.len()));
        }
        None => stdout.push_str(&rendered),
    }
    if let Some(path) = inv.flag("timeseries-out") {
        let csv = outcome.timeseries_csv().ok_or_else(|| {
            CliError::Usage(
                "conflicting flags: `--timeseries-out` needs a spec with a [telemetry] table \
                 (no run recorded a time series)"
                    .to_owned(),
            )
        })?;
        std::fs::write(path, &csv)
            .map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
        stdout.push_str(&format!("wrote {path} ({} bytes)\n", csv.len()));
    }
    write_trace_out(inv, outcome, &mut stdout)?;
    Ok(stdout)
}

/// Honours `--trace-out`, appending its `wrote …` line to `stdout`.
fn write_trace_out(
    inv: &Invocation,
    outcome: &Outcome,
    stdout: &mut String,
) -> Result<(), CliError> {
    let Some(path) = inv.flag("trace-out") else {
        return Ok(());
    };
    let log = outcome.merged_trace().ok_or_else(|| {
        CliError::Usage(
            "conflicting flags: `--trace-out` needs a spec with a [trace] table \
             (no run recorded request spans)"
                .to_owned(),
        )
    })?;
    let json = chrome_trace_json(&log).to_pretty_string();
    std::fs::write(path, &json).map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
    stdout.push_str(&format!("wrote {path} ({} bytes)\n", json.len()));
    Ok(())
}
