//! End-to-end benchmark of the AgilePkgC reproduction: spec file → artefact
//! on disk through the `apc-cli` library entry, plus a traced run that times
//! the calls into each layer from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cluster-pa32 --seed 7 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Everything the run wrote (spec, artefacts, Chrome traces, a report with
//! the host manifest) lands in `.bench_out/<workload>-seed<n>-trace<t>/`.
//! `--smoke` shrinks every workload to a few simulated ms; `--list-metrics`
//! prints the metric catalogue.

mod checks;
mod host;
mod kernel;
mod metrics;
mod spans;
mod stats;
mod traced;
mod untraced;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use apc_analysis::export::JsonValue;

use crate::metrics::MetricDef;
use crate::stats::{median, quartiles};
use crate::workload::{Scale, Workload};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

const USAGE: &str = "usage: perfbench --workload <cluster-pa32|fanout-twotier|lowload-sweep> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] | --list-metrics";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--smoke" {
            scale = Scale::Smoke;
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing `--workload`")?,
        seed,
        seconds,
        trace,
        scale,
    })
}

fn catalogue(defs: Vec<MetricDef>) -> JsonValue {
    JsonValue::Array(
        defs.into_iter()
            .map(|d| {
                let mut o = JsonValue::object();
                o.push("name", JsonValue::Str(d.name))
                    .push("unit", JsonValue::Str(d.unit.to_owned()))
                    .push("better", JsonValue::Str(d.better.to_owned()));
                o
            })
            .collect(),
    )
}

/// Median, quartiles, spread and sample count of `values`, for the report.
fn summary(values: &[f64]) -> JsonValue {
    let (q1, med, q3) = quartiles(values).unwrap_or((0.0, 0.0, 0.0));
    let mut o = JsonValue::object();
    o.push("n", JsonValue::UInt(values.len() as u64))
        .push("median", JsonValue::Float(med))
        .push("q1", JsonValue::Float(q1))
        .push("q3", JsonValue::Float(q3))
        .push("iqr_over_median", JsonValue::Float((q3 - q1) / med))
        .push(
            "samples",
            JsonValue::Array(values.iter().map(|&v| JsonValue::Float(v)).collect()),
        );
    o
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list-metrics") {
        let mut o = JsonValue::object();
        o.push("end_to_end", catalogue(metrics::end_to_end()))
            .push("per_layer", catalogue(metrics::per_layer()));
        println!("{}", o.to_pretty_string());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".bench_out").join(format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }

    let mut manifest = JsonValue::object();
    manifest
        .push("workload", JsonValue::Str(args.workload.name().to_owned()))
        .push("seed", JsonValue::UInt(args.seed))
        .push("nproc", JsonValue::UInt(host::nproc() as u64))
        .push("rustc", JsonValue::Str(host::rustc_version().to_owned()))
        .push("commit", JsonValue::Str(host::commit()));

    let units: BTreeMap<String, &str> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .map(|d| (d.name, d.unit))
        .collect();
    let mut values: Vec<(String, f64)> = Vec::new();
    let (attempted, failed, failures) = if args.trace {
        let layers = traced::run(args.workload, args.seed, args.seconds, args.scale, &dir);
        for def in metrics::per_layer() {
            values.push((def.name.clone(), layers.values[&def.name]));
        }
        manifest.push(
            "absent_layers",
            JsonValue::Array(
                layers
                    .absent
                    .iter()
                    .map(|n| JsonValue::Str(n.clone()))
                    .collect(),
            ),
        );
        (layers.attempted, layers.failed, layers.failures)
    } else {
        let e2e = untraced::run(args.workload, args.seed, args.seconds, args.scale, &dir);
        let wall_rel = e2e.wall_rel();
        values.push(("wall_rel".to_owned(), median(&wall_rel)));
        values.push(("setup_s".to_owned(), median(&e2e.setup_s)));
        values.push(("peak_rss_mb".to_owned(), e2e.peak_rss_mb));
        let pass = 1.0 - e2e.failed as f64 / e2e.attempted.max(1) as f64;
        values.push(("pass_frac".to_owned(), pass));
        // Reported, never gated: raw wall time and the yardstick beside the
        // ratio, so drift shows.
        manifest
            .push("wall_rel", summary(&wall_rel))
            .push("wall_s", summary(&e2e.wall_s))
            .push("ref_kernel_s", summary(&e2e.ref_s))
            .push("setup_s", summary(&e2e.setup_s))
            .push("peak_rss_reset", JsonValue::Bool(e2e.rss_reset));
        (e2e.attempted, e2e.failed, e2e.failures)
    };
    manifest.push(
        "failures",
        JsonValue::Array(failures.iter().map(|f| JsonValue::Str(f.clone())).collect()),
    );

    let mut metrics_json = JsonValue::object();
    for (name, value) in &values {
        let mut m = JsonValue::object();
        m.push("value", JsonValue::Float(*value))
            .push("unit", JsonValue::Str(units[name].to_owned()));
        metrics_json.push(name, m);
    }
    let mut report = JsonValue::object();
    report
        .push("manifest", manifest.clone())
        .push("metrics", metrics_json.clone());
    let report_path = dir.join("report.json");
    if let Err(e) = fs::write(&report_path, report.to_pretty_string()) {
        eprintln!("perfbench: cannot write {}: {e}", report_path.display());
        return ExitCode::from(1);
    }

    println!("{}", manifest.to_pretty_string());
    for (name, value) in &values {
        println!("{name:<28} {value:>16.6} {}", units[name]);
    }
    let mut result = JsonValue::object();
    result
        .push("correct", JsonValue::Bool(failed == 0))
        .push("attempted", JsonValue::UInt(attempted as u64))
        .push("failed", JsonValue::UInt(failed as u64))
        .push("metrics", metrics_json);
    println!("{}", result.to_compact_string());
    ExitCode::SUCCESS
}
