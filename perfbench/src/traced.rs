//! The traced run: per-layer numbers from benchmark-owned spans around the
//! public calls of each layer, plus the program's own counters (engine
//! self-profile, routing census, fabric census, sketches, request spans).
//!
//! Each round makes up to four passes over the workload:
//! - untraced: parse → plan → run, the base of `trace.overhead` and
//!   `engine.ns_per_event`;
//! - eight-node (cluster workload only): the same spec at 8 nodes, for the
//!   within-round events/s ratio `engine.scale_32_over_8`;
//! - profiled: `--profile` on, every layer call wrapped in a span;
//! - sampled (kinds that accept `[trace]`): profiled and head-sampling
//!   request spans. Tracing forces the sequential loop, which is why the
//!   parallel-core counters come from the profiled pass.
//!
//! The profiled and sampled outcomes, rendered without their profiles,
//! must equal the untraced artefact `apc-cli` writes byte for byte: tracing
//! and profiling are contractually zero-perturbation, and a mismatch counts
//! as a failure.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use apc_analysis::export::chrome_trace_json;
use apc_cli::runner::{plan_spec, ExecutionPlan, Outcome, OutputFormat, StreamSink};
use apc_cli::spec::ExperimentSpec;
use apc_server::chain::ChainResult;
use apc_server::cluster::ClusterResult;
use apc_server::fleet::FleetResult;
use apc_server::result::RunResult;
use apc_trace::{ProfileReport, SpanKind, TraceLog};

use crate::checks::{conservation, parse_artefact};
use crate::host;
use crate::metrics;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workload::{Scale, Workload};

/// What the traced run measured.
pub struct PerLayer {
    /// Value of every per-layer metric, by name.
    pub values: BTreeMap<String, f64>,
    /// Metrics whose layer the workload does not exercise (reported as 0).
    pub absent: Vec<String>,
    /// Artefacts checked.
    pub attempted: usize,
    /// Artefacts that failed a check or the zero-perturbation comparison.
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

/// Result timestamps seen by the streaming sink, relative to the run start.
struct PoolSink {
    start: Instant,
    first_s: Option<f64>,
    last_s: f64,
}

impl PoolSink {
    fn new() -> Self {
        PoolSink {
            start: Instant::now(),
            first_s: None,
            last_s: 0.0,
        }
    }

    fn mark(&mut self) -> Result<(), Infallible> {
        let at = self.start.elapsed().as_secs_f64();
        self.first_s.get_or_insert(at);
        self.last_s = at;
        Ok(())
    }
}

impl StreamSink<Infallible> for PoolSink {
    fn on_run(&mut self, _: usize, _: &str, _: &RunResult) -> Result<(), Infallible> {
        self.mark()
    }
    fn on_cluster(&mut self, _: usize, _: &ClusterResult) -> Result<(), Infallible> {
        self.mark()
    }
    fn on_chain(&mut self, _: usize, _: &ChainResult) -> Result<(), Infallible> {
        self.mark()
    }
}

/// Runs `plan` through the streaming entry, so the sink sees each result
/// as the pool finishes it. Returns the outcome, the sink and the run's
/// wall seconds.
fn run_plan(plan: ExecutionPlan) -> (Outcome, PoolSink, f64) {
    let mut sink = PoolSink::new();
    let outcome = match plan.run_streamed(&mut sink) {
        Ok(outcome) => outcome,
        Err(never) => match never {},
    };
    let run_s = sink.start.elapsed().as_secs_f64();
    (outcome, sink, run_s)
}

/// An untraced pass: no spans, no profile. Returns the outcome and the
/// run's wall seconds.
fn untraced_pass(text: &str) -> (Outcome, f64) {
    let spec = ExperimentSpec::parse(text).expect("generated specs parse");
    let (outcome, _, run_s) = run_plan(plan_spec(&spec, None));
    (outcome, run_s)
}

/// A profiled pass with every layer call inside a span: parse, plan, run,
/// render, write. Returns the outcome, its sink and the rendered artefact.
fn traced_pass(
    rec: &mut Recorder,
    text: &str,
    format: OutputFormat,
    path: &Path,
) -> (Outcome, PoolSink, Vec<u8>) {
    let mut spec = rec.span("spec.parse", |_| {
        ExperimentSpec::parse(text).expect("generated specs parse")
    });
    spec.profile = true;
    let plan = rec.span("runner.plan", |_| plan_spec(&spec, None));
    let (outcome, sink, _) = rec.span("runner.run", |_| run_plan(plan));
    let rendered = rec.span("runner.render", |_| outcome.render(format));
    rec.span("runner.write", |_| fs::write(path, &rendered))
        .expect("the output directory is writable");
    (outcome, sink, rendered.into_bytes())
}

/// The per-node fleets of an outcome (one per repeat or sweep).
fn fleets(outcome: &Outcome) -> Vec<&FleetResult> {
    match outcome {
        Outcome::Runs { fleet, .. } => vec![fleet],
        Outcome::Clusters { results, .. } => results.iter().map(|r| &r.nodes).collect(),
        Outcome::Chains { results, .. } => results.iter().map(|r| &r.nodes).collect(),
    }
}

/// Every engine self-profile of an outcome.
fn profiles(outcome: &Outcome) -> Vec<&ProfileReport> {
    match outcome {
        Outcome::Runs { fleet, .. } => fleet
            .runs
            .iter()
            .filter_map(|r| r.profile.as_ref())
            .collect(),
        Outcome::Clusters { results, .. } => {
            results.iter().filter_map(|r| r.profile.as_ref()).collect()
        }
        Outcome::Chains { results, .. } => {
            results.iter().filter_map(|r| r.profile.as_ref()).collect()
        }
    }
}

fn events_dispatched(outcome: &Outcome) -> u64 {
    match outcome {
        Outcome::Runs { fleet, .. } => fleet.events_dispatched(),
        Outcome::Clusters { results, .. } => results.iter().map(|r| r.events_dispatched).sum(),
        Outcome::Chains { results, .. } => results.iter().map(|r| r.events_dispatched).sum(),
    }
}

/// A copy of `outcome` with every engine self-profile removed: what the
/// run would have rendered without `--profile`.
fn without_profiles(outcome: &Outcome) -> Outcome {
    fn strip_runs(runs: &mut [RunResult]) {
        runs.iter_mut().for_each(|r| r.profile = None);
    }
    match outcome {
        Outcome::Runs {
            name,
            labels,
            fleet,
        } => {
            let mut fleet = fleet.clone();
            strip_runs(&mut fleet.runs);
            Outcome::Runs {
                name: name.clone(),
                labels: labels.clone(),
                fleet,
            }
        }
        Outcome::Clusters { name, results } => {
            let mut results = results.clone();
            for r in &mut results {
                r.profile = None;
                strip_runs(&mut r.nodes.runs);
            }
            Outcome::Clusters {
                name: name.clone(),
                results,
            }
        }
        Outcome::Chains { name, results } => {
            let mut results = results.clone();
            for r in &mut results {
                r.profile = None;
                strip_runs(&mut r.nodes.runs);
            }
            Outcome::Chains {
                name: name.clone(),
                results,
            }
        }
    }
}

/// The per-layer values measured so far; a metric never set is one whose
/// layer the workload does not exercise.
struct Sheet {
    values: BTreeMap<String, f64>,
}

impl Sheet {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    fn set_opt(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }
}

/// Runs the traced rounds of `workload` for about `seconds`, writing the
/// artefacts and both Chrome traces in `dir`.
pub fn run(workload: Workload, seed: u64, seconds: f64, scale: Scale, dir: &Path) -> PerLayer {
    let csv = workload.is_csv();
    let format = if csv {
        OutputFormat::Csv
    } else {
        OutputFormat::Json
    };
    let ext = if csv { "csv" } else { "json" };
    let plain = workload.spec(seed, scale, false);
    let sampled_text = workload
        .sample_every()
        .map(|_| workload.spec(seed, scale, true));
    let eight = workload.eight_node_spec(seed, scale);

    let mut attempted = 0;
    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0;
    let mut tally = |found: Vec<String>| {
        attempted += 1;
        if !found.is_empty() {
            failed += 1;
            failures.extend(found.into_iter().take(3));
        }
    };

    let mut rec = Recorder::new();
    // The untraced artefact, written the way users get it.
    let spec_path = dir.join("spec.toml");
    let out_path = dir.join(format!("artefact.{ext}"));
    fs::write(&spec_path, &plain).expect("the output directory is writable");
    let args = workload.cli_args(
        spec_path.to_str().expect("UTF-8 path"),
        out_path.to_str().expect("UTF-8 path"),
    );
    let reference = match apc_cli::execute(&args).map(|_| fs::read(&out_path)) {
        Ok(Ok(bytes)) => bytes,
        Ok(Err(e)) => panic!("cannot read the untraced artefact: {e}"),
        Err(e) => panic!("apc-cli failed on a generated spec: {e}"),
    };
    let mut untraced_run_s = Vec::new();
    let mut scale_ratio = Vec::new();
    let mut pool_first = Vec::new();
    let mut pool_last = Vec::new();
    let mut last_profiled: Option<(Outcome, usize)> = None;
    let mut last_trace: Option<TraceLog> = None;
    let mut untraced_events = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds = 0;
    while rounds == 0 || Instant::now() < deadline {
        rounds += 1;
        let (outcome, run_s) = untraced_pass(&plain);
        untraced_run_s.push(run_s);
        untraced_events = events_dispatched(&outcome);
        drop(outcome);
        if let Some(eight) = &eight {
            let (outcome8, run8_s) = untraced_pass(eight);
            let events_per_s_8 = events_dispatched(&outcome8) as f64 / run8_s;
            scale_ratio.push(untraced_events as f64 / run_s / events_per_s_8);
        }
        let passes = std::iter::once(("profiled", plain.as_str()))
            .chain(sampled_text.as_deref().map(|t| ("sampled", t)));
        for (name, text) in passes {
            let path = dir.join(format!("{name}.{ext}"));
            let (outcome, sink, bytes) =
                rec.span(name, |rec| traced_pass(rec, text, format, &path));
            let stripped = without_profiles(&outcome).render(format).into_bytes();
            tally(if stripped == reference {
                Vec::new()
            } else {
                vec![format!(
                    "{name} artefact (profile removed) differs from the untraced one"
                )]
            });
            if name == "profiled" {
                if let Some(first) = sink.first_s {
                    pool_first.push(first);
                    pool_last.push(sink.last_s);
                }
                let sketches: Vec<_> = rec.span("sketch.merge", |_| {
                    fleets(&outcome)
                        .iter()
                        .map(|f| f.combined_sketch())
                        .collect()
                });
                drop(sketches);
                last_profiled = Some((outcome, bytes.len()));
            } else if let Some(log) = outcome.merged_trace() {
                rec.span("trace.export", |_| {
                    let json = chrome_trace_json(&log).to_pretty_string();
                    fs::write(dir.join("request_spans.trace.json"), json)
                })
                .expect("the output directory is writable");
                last_trace = Some(log);
            }
        }
    }
    // What `apc-cli validate` runs, on the untraced artefact; the profiled
    // and sampled ones matched it byte for byte once their profiles were
    // removed, so its verdict is theirs too.
    let parsed = rec.span("export.validate", |_| parse_artefact(&reference, csv));
    tally(parsed.map_or_else(|e| vec![e], |artefact| conservation(&artefact)));
    fs::write(
        dir.join("perfbench_spans.trace.json"),
        rec.chrome_trace().to_pretty_string(),
    )
    .expect("the output directory is writable");

    let (profiled, export_bytes) = last_profiled.expect("at least one round ran");
    let mut sheet = Sheet {
        values: BTreeMap::new(),
    };
    let profiled_median = |span: &str| median(&rec.seconds_within(span, "profiled"));
    for (metric, span) in [
        ("spec.parse_s", "spec.parse"),
        ("runner.plan_s", "runner.plan"),
        ("runner.run_s", "runner.run"),
        ("runner.render_s", "runner.render"),
        ("runner.write_s", "runner.write"),
    ] {
        sheet.set(metric, profiled_median(span));
    }
    sheet.set("sketch.merge_s", median(&rec.seconds("sketch.merge")));
    let validate = rec.seconds("export.validate");
    sheet.set_opt("export.validate_s", (!csv).then(|| median(&validate)));
    let trace_export = rec.seconds("trace.export");
    sheet.set_opt(
        "trace.export_s",
        (!trace_export.is_empty()).then(|| median(&trace_export)),
    );
    // The traced run: the sampled pass where the kind takes a [trace] table,
    // else the profiled one.
    let traced_run_s = if sampled_text.is_some() {
        median(&rec.seconds_within("runner.run", "sampled"))
    } else {
        profiled_median("runner.run")
    };
    sheet.set("trace.overhead", traced_run_s / median(&untraced_run_s));
    sheet.set("export.bytes", export_bytes as f64);

    layer_counts(&mut sheet, &profiled);
    sheet.set("pool.first_result_s", median(&pool_first));
    sheet.set("pool.last_result_s", median(&pool_last));
    sheet.set(
        "engine.ns_per_event",
        median(&untraced_run_s) * 1e9 / untraced_events.max(1) as f64,
    );
    sheet.set_opt(
        "engine.scale_32_over_8",
        (!scale_ratio.is_empty()).then(|| median(&scale_ratio)),
    );
    trace_counts(&mut sheet, last_trace.as_ref());

    let mut values = sheet.values;
    let mut absent = Vec::new();
    for def in metrics::per_layer() {
        if !values.contains_key(&def.name) {
            values.insert(def.name.clone(), 0.0);
            absent.push(def.name);
        }
    }
    PerLayer {
        values,
        absent,
        attempted,
        failed,
        failures,
    }
}

/// Counters read from a profiled outcome: export, pool, engine, event
/// kinds, parallel core, routing, chains, fabric, sketches and the model.
fn layer_counts(sheet: &mut Sheet, outcome: &Outcome) {
    let fleets = fleets(outcome);
    let runs: Vec<&RunResult> = fleets.iter().flat_map(|f| f.runs.iter()).collect();

    let rows: usize = runs
        .iter()
        .filter_map(|r| r.timeseries.as_ref().map(|ts| ts.len()))
        .sum();
    sheet.set_opt("export.timeseries_rows", (rows > 0).then_some(rows as f64));

    // The pool runs one member per run-level result (sweep points) or per
    // repeat (clusters, chains); its default worker count is the host's
    // cores capped at the member count.
    let members = match outcome {
        Outcome::Runs { fleet, .. } => fleet.runs.len(),
        Outcome::Clusters { results, .. } => results.len(),
        Outcome::Chains { results, .. } => results.len(),
    };
    sheet.set("pool.members", members as f64);
    sheet.set("pool.workers", host::nproc().min(members) as f64);

    let profiles = profiles(outcome);
    let engine = |field: fn(&ProfileReport) -> u64| profiles.iter().map(|p| field(p)).sum::<u64>();
    sheet.set("engine.dispatched", engine(|p| p.engine.dispatched) as f64);
    sheet.set("engine.scheduled", engine(|p| p.engine.scheduled) as f64);
    sheet.set("engine.cancelled", engine(|p| p.engine.cancelled) as f64);
    sheet.set(
        "engine.level0_batches",
        engine(|p| p.engine.level0_batches) as f64,
    );
    sheet.set(
        "engine.overflow_hits",
        engine(|p| p.engine.overflow_hits) as f64,
    );
    let max_batch = profiles
        .iter()
        .map(|p| p.engine.max_batch)
        .max()
        .unwrap_or(0);
    sheet.set("engine.max_batch", max_batch as f64);
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for kind in profiles.iter().flat_map(|p| &p.events) {
        *by_kind.entry(kind.kind).or_default() += kind.dispatched;
    }
    for (kind, dispatched) in by_kind {
        if dispatched > 0 {
            sheet.set(&format!("events.{kind}"), dispatched as f64);
        }
    }

    let workers: Vec<_> = profiles.iter().flat_map(|p| &p.workers).collect();
    if !workers.is_empty() {
        let n = workers.len() as f64;
        let epochs = workers.iter().map(|w| w.epochs).max().unwrap_or(0);
        let wait_ns: u64 = workers.iter().map(|w| w.barrier_wait_ns).sum();
        sheet.set("parallel.epochs", epochs as f64);
        sheet.set("parallel.barrier_wait_s", wait_ns as f64 / n / 1e9);
        sheet.set(
            "parallel.cross_wires",
            workers.iter().map(|w| w.cross_wires).sum::<u64>() as f64,
        );
        let hub_ns: u64 = profiles.iter().map(|p| p.hub_replay_ns).sum();
        sheet.set("parallel.hub_replay_s", hub_ns as f64 / 1e9);
    }

    let (routed, imbalance, network) = match outcome {
        Outcome::Runs { .. } => (None, None, None),
        Outcome::Clusters { results, .. } => (
            Some(results.iter().map(ClusterResult::total_routed).sum::<u64>()),
            results.first().map(ClusterResult::routing_imbalance),
            results.first().and_then(|r| r.network.as_ref()),
        ),
        Outcome::Chains { results, .. } => (
            Some(results.iter().map(ChainResult::total_routed).sum::<u64>()),
            results.first().map(ChainResult::routing_imbalance),
            results.first().and_then(|r| r.network.as_ref()),
        ),
    };
    sheet.set_opt("routing.decisions", routed.map(|n| n as f64));
    sheet.set_opt("routing.imbalance", imbalance);
    sheet.set_opt("net.messages", network.map(|n| n.messages as f64));
    sheet.set_opt(
        "net.mean_wire_ns",
        network.map(|n| n.mean_wire_delay().as_nanos() as f64),
    );
    if let Outcome::Chains { results, .. } = outcome {
        sheet.set(
            "chain.started",
            results.iter().map(|r| r.chains_started).sum::<u64>() as f64,
        );
        sheet.set(
            "chain.completed",
            results.iter().map(|r| r.chains_completed).sum::<u64>() as f64,
        );
    }

    let sketches: Vec<_> = fleets.iter().map(|f| f.combined_sketch()).collect();
    sheet.set(
        "sketch.records",
        sketches.iter().map(|s| s.count()).sum::<u64>() as f64,
    );
    sheet.set(
        "sketch.buckets",
        sketches.iter().map(|s| s.bucket_len()).sum::<usize>() as f64,
    );

    let completed: u64 = fleets.iter().map(|f| f.total_completed_requests()).sum();
    let servers: usize = fleets.iter().map(|f| f.servers()).sum();
    let power: f64 = fleets.iter().map(|f| f.total_power_w()).sum();
    sheet.set("model.completed", completed as f64);
    sheet.set("model.power_w", power / servers.max(1) as f64);
    sheet.set(
        "model.pc1a_residency",
        fleets.iter().map(|f| f.mean_pc1a_residency()).sum::<f64>() / fleets.len().max(1) as f64,
    );
    sheet.set(
        "model.pc1a_transitions",
        fleets
            .iter()
            .map(|f| f.total_pc1a_transitions())
            .sum::<u64>() as f64,
    );
    let p99 = match outcome {
        Outcome::Chains { results, .. } => results.first().map(|r| r.chain_latency.p99),
        _ => fleets.first().map(|f| f.combined_latency().p99),
    };
    sheet.set_opt("model.p99_us", p99.map(|d| d.as_nanos() as f64 / 1e3));
    sheet.set(
        "engine.events_per_request",
        engine(|p| p.engine.dispatched) as f64 / completed.max(1) as f64,
    );
}

/// Request-span counts and the wake share of root-span time.
fn trace_counts(sheet: &mut Sheet, log: Option<&TraceLog>) {
    let Some(log) = log else {
        return;
    };
    sheet.set("trace.spans", log.spans().len() as f64);
    sheet.set("trace.dropped", log.dropped() as f64);
    let total = |kind: SpanKind| -> u64 {
        log.spans()
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.duration().as_nanos())
            .sum()
    };
    sheet.set(
        "model.wake_share",
        total(SpanKind::Wake) as f64 / total(SpanKind::Root).max(1) as f64,
    );
}
