//! Integration tests of the `apc-cli` command layer: spec execution end to
//! end, export determinism, and every documented error path.

use std::path::PathBuf;

use apc_analysis::export::JsonValue;
use apc_cli::{execute, CliError};

/// A scratch file unique to this test process, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!("apc-cli-test-{}-{name}", std::process::id()));
        Scratch(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp paths are UTF-8")
    }

    fn write(&self, content: &str) -> &Self {
        std::fs::write(&self.0, content).expect("write scratch file");
        self
    }

    fn read(&self) -> String {
        std::fs::read_to_string(&self.0).expect("read scratch file")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

const SINGLE_SPEC: &str = r#"
[experiment]
kind = "single"
name = "test-single"
seed = 7
duration_ms = 2

[workload]
kind = "memcached"
rate_per_sec = 20_000
"#;

const CLUSTER_SPEC: &str = r#"
[experiment]
kind = "cluster"
seed = 7
duration_ms = 5

[workload]
kind = "memcached"
rate_per_sec = 40_000

[cluster]
nodes = 2
policy = "jsq"

[telemetry]
sample_interval_us = 1000
"#;

#[test]
fn runs_a_single_spec_to_json() {
    let spec = Scratch::new("single.toml");
    spec.write(SINGLE_SPEC);
    let out = execute(&args(&["run", spec.path(), "--format", "json"])).unwrap();
    let parsed = JsonValue::parse(&out).expect("output is valid JSON");
    // The JSON shape is count-independent: one run still exports the fleet
    // object (consumers keep parsing when a count changes).
    assert_eq!(parsed.get("servers").and_then(JsonValue::as_u64), Some(1));
    let run = &parsed.get("runs").and_then(JsonValue::as_array).unwrap()[0];
    assert_eq!(
        run.get("config").and_then(JsonValue::as_str),
        Some("CPC1A"),
        "platform defaults to cpc1a"
    );
    assert!(
        run.get("completed_requests")
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );
}

#[test]
fn cluster_spec_runs_end_to_end_with_timeseries() {
    let spec = Scratch::new("cluster.toml");
    spec.write(CLUSTER_SPEC);
    let json_out = Scratch::new("cluster.json");
    let ts_out = Scratch::new("cluster-ts.csv");
    let stdout = execute(&args(&[
        "run",
        spec.path(),
        "--format",
        "json",
        "--out",
        json_out.path(),
        "--timeseries-out",
        ts_out.path(),
    ]))
    .unwrap();
    assert!(stdout.contains("wrote"), "{stdout}");
    let parsed = JsonValue::parse(&json_out.read()).expect("file is valid JSON");
    // Cluster outcomes always export as an array (one entry per repeat).
    let clusters = parsed.as_array().expect("cluster JSON is an array");
    assert_eq!(clusters.len(), 1);
    assert_eq!(
        clusters[0].get("policy").and_then(JsonValue::as_str),
        Some("join-shortest-queue")
    );
    let ts = ts_out.read();
    assert!(ts.starts_with("node,at_ns,"), "{ts}");
    assert!(ts.contains("node 0,") && ts.contains("node 1,"));
    // The `validate` subcommand round-trips the export.
    let report = execute(&args(&["validate", json_out.path()])).unwrap();
    assert!(report.contains("valid JSON (array"), "{report}");
}

#[test]
fn identical_seeds_export_byte_identically_across_pool_sizes() {
    let spec = Scratch::new("pool.toml");
    spec.write(CLUSTER_SPEC);
    let run = |workers: &str, format: &str| {
        execute(&args(&[
            "run",
            spec.path(),
            "--format",
            format,
            "--parallelism",
            workers,
        ]))
        .unwrap()
    };
    assert_eq!(run("1", "json"), run("8", "json"));
    assert_eq!(run("1", "csv"), run("8", "csv"));
}

#[test]
fn named_scenarios_run_through_the_cli() {
    let out = execute(&args(&[
        "run",
        "cluster-8-mid",
        "--duration-ms",
        "2",
        "--format",
        "csv",
    ]))
    .unwrap();
    assert!(out.starts_with("repeat,node,policy,routed,"), "{out}");
    assert_eq!(out.lines().count(), 9, "header + 8 nodes");

    let out = execute(&args(&[
        "cluster",
        "cluster-8-trough",
        "--duration-ms",
        "2",
    ]))
    .unwrap();
    assert!(out.contains("cluster (power-aware)"), "{out}");
}

const CHAIN_SPEC: &str = r#"
[experiment]
kind = "chain"
name = "test-chain"
seed = 7
duration_ms = 5

[workload]
kind = "memcached"
rate_per_sec = 4_000   # root chains per second

[chain]
nodes = 4
fanout = 4
policy = "jsq"
"#;

#[test]
fn chain_spec_runs_end_to_end() {
    let spec = Scratch::new("chain.toml");
    spec.write(CHAIN_SPEC);
    let out = execute(&args(&["run", spec.path(), "--format", "json"])).unwrap();
    let parsed = JsonValue::parse(&out).expect("output is valid JSON");
    // Chain outcomes always export as an array (one entry per repeat).
    let chains = parsed.as_array().expect("chain JSON is an array");
    assert_eq!(chains.len(), 1);
    let c = &chains[0];
    assert_eq!(
        c.get("policy").and_then(JsonValue::as_str),
        Some("join-shortest-queue")
    );
    assert_eq!(
        c.get("graph").and_then(JsonValue::as_str),
        Some("1x frontend -> 4x kv-get")
    );
    assert!(
        c.get("chains_completed")
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );
    let latency = c.get("chain_latency").expect("chain_latency object");
    for key in ["p50_ns", "p99_ns", "p999_ns"] {
        assert!(
            latency.get(key).and_then(JsonValue::as_u64).unwrap() > 0,
            "{key}"
        );
    }
    assert!(c.get("straggler").is_some(), "straggler breakdown exported");

    // The CSV shape leads with the chain percentiles header.
    let csv = execute(&args(&["run", spec.path(), "--format", "csv"])).unwrap();
    assert!(csv.starts_with("repeat,policy,graph,"), "{csv}");
    assert!(csv.contains("e2e_p999_ns"), "{csv}");
    assert!(csv.contains("straggler_p999_ns"), "{csv}");
    assert_eq!(csv.lines().count(), 2, "header + one run: {csv}");
}

#[test]
fn chain_exports_are_byte_identical_across_pool_sizes() {
    let spec = Scratch::new("chain-pool.toml");
    spec.write(CHAIN_SPEC);
    let run = |workers: &str, format: &str| {
        execute(&args(&[
            "run",
            spec.path(),
            "--format",
            format,
            "--parallelism",
            workers,
        ]))
        .unwrap()
    };
    assert_eq!(run("1", "json"), run("8", "json"));
    assert_eq!(run("1", "csv"), run("8", "csv"));
}

#[test]
fn named_chain_scenarios_run_through_the_cli() {
    let out = execute(&args(&[
        "run",
        "mesh-8-fanout4",
        "--duration-ms",
        "2",
        "--platform",
        "cpc1a",
    ]))
    .unwrap();
    assert!(
        out.contains("mesh-8-fanout4 (cpc1a, join-shortest-queue)"),
        "{out}"
    );
    assert!(out.contains("e2e p50"), "{out}");
    // Chain scenarios are `run` targets, not `cluster` targets.
    let err = execute(&args(&["cluster", "mesh-8-fanout4"])).unwrap_err();
    let CliError::Input(message) = &err else {
        panic!("expected input error, got {err:?}");
    };
    assert!(message.contains("chain scenario"), "{message}");
}

#[test]
fn chain_spec_validation_errors_carry_line_numbers() {
    // Missing [chain] table.
    let spec = Scratch::new("chain-missing.toml");
    spec.write(
        "[experiment]\nkind = \"chain\"\n\n[workload]\nkind = \"memcached\"\nrate_per_sec = 100\n",
    );
    let err = execute(&args(&["run", spec.path()])).unwrap_err();
    assert!(err.to_string().contains("needs a [chain] table"), "{err}");
    // Missing fanout.
    let spec = Scratch::new("chain-nofanout.toml");
    spec.write(
        "[experiment]\nkind = \"chain\"\n\n[workload]\nkind = \"memcached\"\nrate_per_sec = 100\n\n[chain]\nnodes = 4\n",
    );
    let err = execute(&args(&["run", spec.path()])).unwrap_err();
    assert!(err.to_string().contains("[chain] needs `fanout`"), "{err}");
    // A [chain] table under a different kind is a conflict.
    let spec = Scratch::new("chain-conflict.toml");
    spec.write(
        "[experiment]\nkind = \"single\"\n\n[workload]\nkind = \"memcached\"\nrate_per_sec = 100\n\n[chain]\nnodes = 4\nfanout = 2\n",
    );
    let err = execute(&args(&["run", spec.path()])).unwrap_err();
    assert!(
        err.to_string().contains("[chain] conflicts with kind"),
        "{err}"
    );
    // Non-constant patterns cannot drive the coordinator's root stream.
    let spec = Scratch::new("chain-pattern.toml");
    spec.write(
        "[experiment]\nkind = \"chain\"\n\n[workload]\nkind = \"memcached\"\nrate_per_sec = 100\npattern = \"diurnal\"\n\n[chain]\nnodes = 4\nfanout = 2\n",
    );
    let err = execute(&args(&["run", spec.path()])).unwrap_err();
    assert!(
        err.to_string().contains("chain experiments support only"),
        "{err}"
    );
}

const NETWORK_CHAIN_SPEC: &str = r#"
[experiment]
kind = "chain"
name = "test-chain-net"
seed = 7
duration_ms = 5

[workload]
kind = "memcached"
rate_per_sec = 4_000

[chain]
nodes = 4
fanout = 4
policy = "jsq"

[network]
topology = "two-tier"
latency_us = 5
rack_size = 2
"#;

#[test]
fn network_spec_runs_and_exports_fabric_stats() {
    let spec = Scratch::new("chain-net.toml");
    spec.write(NETWORK_CHAIN_SPEC);
    let out = execute(&args(&["run", spec.path(), "--format", "json"])).unwrap();
    let parsed = JsonValue::parse(&out).expect("output is valid JSON");
    let c = &parsed.as_array().expect("chain JSON is an array")[0];
    let net = c.get("network").expect("network object exported");
    assert_eq!(
        net.get("topology").and_then(JsonValue::as_str),
        Some("two-tier")
    );
    assert_eq!(
        net.get("link_latency_ns").and_then(JsonValue::as_u64),
        Some(5_000)
    );
    assert!(net.get("messages").and_then(JsonValue::as_u64).unwrap() > 0);
    assert!(
        net.get("total_wire_delay_ns")
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );
    // The CSV gains the network columns only because a fabric ran.
    let csv = execute(&args(&["run", spec.path(), "--format", "csv"])).unwrap();
    assert!(csv.contains("net_topology"), "{csv}");
    assert!(csv.contains("two-tier"), "{csv}");
}

/// `CLUSTER_SPEC` with three repeats routed over a two-tier fabric;
/// `experiment` adds keys to the `[experiment]` table.
fn network_cluster_spec(experiment: &str) -> String {
    let spec = CLUSTER_SPEC.replace(
        "duration_ms = 5",
        &format!("duration_ms = 5\nrepeats = 3\n{experiment}"),
    );
    format!("{spec}\n[network]\ntopology = \"two-tier\"\nlatency_us = 2\nrack_size = 1\n")
}

#[test]
fn fabric_profiles_export_identically_across_pool_sizes() {
    let spec = Scratch::new("cluster-net-profile.toml");
    spec.write(&network_cluster_spec(""));
    let run = |workers: &str| {
        let flags = [
            "run",
            spec.path(),
            "--format",
            "json",
            "--profile",
            "--parallelism",
            workers,
        ];
        execute(&args(&flags)).unwrap()
    };
    let sequential = run("1");
    assert_eq!(run("3"), sequential);
    assert_eq!(run("8"), sequential);
    let parsed = JsonValue::parse(&sequential).expect("output is valid JSON");
    let repeats = parsed.as_array().expect("cluster JSON is an array");
    assert_eq!(repeats.len(), 3);
    for c in repeats {
        assert!(c.get("network").is_some(), "fabric stats exported");
        let Some(JsonValue::Object(profile)) = c.get("profile") else {
            panic!("profile report exported as an object");
        };
        let keys: Vec<&str> = profile.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["engine", "events"], "one event loop per run");
    }
}

#[test]
fn spec_parallelism_key_only_sizes_the_run_pool() {
    let plain = Scratch::new("cluster-net-plain.toml");
    plain.write(&network_cluster_spec(""));
    let pooled = Scratch::new("cluster-net-pooled.toml");
    pooled.write(&network_cluster_spec("parallelism = 4"));
    let run = |path: &str, extra: &[&str]| {
        execute(&args(
            &[&["run", path, "--format", "csv"][..], extra].concat(),
        ))
        .unwrap()
    };
    let out = run(pooled.path(), &[]);
    assert_eq!(out, run(plain.path(), &[]));
    assert!(out.contains("two-tier"), "{out}");
    // The flag still wins over the key, with the same result.
    assert_eq!(run(pooled.path(), &["--parallelism", "1"]), out);
}

#[test]
fn network_spec_errors_are_line_numbered_usage_errors() {
    // Each bad table: the error names the offending line and exits 2.
    for (name, network, needle, line) in [
        (
            "net-topo.toml",
            "topology = \"ring\"\n",
            "unknown topology `ring`",
            "line 18",
        ),
        (
            "net-key.toml",
            "topology = \"flat\"\njitter_us = 3\n",
            "unknown key `jitter_us`",
            "line 19",
        ),
        (
            "net-latency.toml",
            "topology = \"flat\"\nlatency_us = -5\n",
            "`latency_us` must be >= 0",
            "line 19",
        ),
        (
            "net-bw.toml",
            "topology = \"flat\"\nbandwidth_gbps = 0\n",
            "`bandwidth_gbps` must be > 0",
            "line 19",
        ),
    ] {
        let spec = Scratch::new(name);
        // CHAIN_SPEC is 16 lines ending in a newline; [network] lands on
        // line 17 and its first key on line 18.
        spec.write(&format!("{CHAIN_SPEC}\n[network]\n{network}"));
        let err = execute(&args(&["run", spec.path()])).unwrap_err();
        let CliError::Usage(message) = &err else {
            panic!("expected usage error for {network:?}, got {err:?}");
        };
        assert!(message.contains(needle), "{network:?} -> {message}");
        assert!(message.contains(line), "{network:?} -> {message}");
        assert_eq!(err.exit_code(), 2);
    }
    // A [network] table on a non-cluster kind stays a plain input error
    // (exit 1), like every other shape conflict.
    let spec = Scratch::new("net-kind.toml");
    spec.write(&format!("{SINGLE_SPEC}\n[network]\ntopology = \"flat\"\n"));
    let err = execute(&args(&["run", spec.path()])).unwrap_err();
    let CliError::Input(message) = &err else {
        panic!("expected input error, got {err:?}");
    };
    assert!(
        message.contains("[network] applies to cluster and chain"),
        "{message}"
    );
    assert_eq!(err.exit_code(), 1);
}

#[test]
fn trace_spec_runs_and_writes_chrome_trace_json() {
    let spec = Scratch::new("trace-chain.toml");
    // CHAIN_SPEC plus a [trace] table; every root chain is traced.
    spec.write(&format!("{CHAIN_SPEC}\n[trace]\nsample_every = 1\n"));
    let json_out = Scratch::new("trace-chain.json");
    let trace_out = Scratch::new("trace-chain-trace.json");
    let stdout = execute(&args(&[
        "run",
        spec.path(),
        "--format",
        "json",
        "--out",
        json_out.path(),
        "--trace-out",
        trace_out.path(),
        "--profile",
    ]))
    .unwrap();
    assert!(stdout.contains("wrote"), "{stdout}");

    // The result export gains the self-profiler report (and only that —
    // simulated values are pinned elsewhere to be identical either way).
    let parsed = JsonValue::parse(&json_out.read()).expect("result JSON parses");
    let c = &parsed.as_array().expect("chain JSON is an array")[0];
    let profile = c.get("profile").expect("profile report exported");
    let engine = profile.get("engine").expect("engine counters");
    assert!(
        engine
            .get("dispatched")
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );
    assert!(profile
        .get("events")
        .and_then(JsonValue::as_array)
        .is_some());
    assert!(
        c.get("events_dispatched")
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );

    // The Chrome trace file is valid JSON with complete events carrying
    // the span taxonomy; `validate` round-trips it like any other export.
    let trace = JsonValue::parse(&trace_out.read()).expect("trace JSON parses");
    let events = trace
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "no spans exported");
    for event in events {
        assert_eq!(event.get("ph").and_then(JsonValue::as_str), Some("X"));
    }
    for cat in ["queue", "service", "root", "tier"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("cat").and_then(JsonValue::as_str) == Some(cat)),
            "no `{cat}` span in the export"
        );
    }
    let report = execute(&args(&["validate", trace_out.path()])).unwrap();
    assert!(report.contains("valid JSON (object"), "{report}");
}

#[test]
fn trace_exports_are_byte_identical_across_pool_sizes() {
    let spec = Scratch::new("trace-pool.toml");
    spec.write(&format!("{CHAIN_SPEC}\n[trace]\nsample_every = 2\n"));
    let run = |workers: &str| {
        let out = Scratch::new(&format!("trace-pool-{workers}.json"));
        execute(&args(&[
            "run",
            spec.path(),
            "--trace-out",
            out.path(),
            "--parallelism",
            workers,
        ]))
        .unwrap();
        out.read()
    };
    assert_eq!(run("1"), run("8"));
}

#[test]
fn trace_spec_errors_are_line_numbered_usage_errors() {
    // Each bad table: the error names the offending line and exits 2.
    for (name, trace, needle, line) in [
        (
            "trace-key.toml",
            "sample_every = 4\nspan_cap = 3\n",
            "unknown key `span_cap`",
            "line 19",
        ),
        (
            "trace-rate.toml",
            "sample_every = 0\n",
            "`sample_every` must be at least 1",
            "line 18",
        ),
        (
            "trace-float.toml",
            "sample_every = 0.5\n",
            "`sample_every` must be a non-negative integer",
            "line 18",
        ),
        (
            "trace-bound.toml",
            "sample_every = 4\nmax_spans = 0\n",
            "`max_spans` must be at least 1",
            "line 19",
        ),
        (
            "trace-missing.toml",
            "max_spans = 16\n",
            "[trace] needs `sample_every`",
            "line 17",
        ),
    ] {
        let spec = Scratch::new(name);
        // Same arithmetic as the [network] error tests: CHAIN_SPEC is 16
        // lines, so [trace] lands on line 17 and its first key on line 18.
        spec.write(&format!("{CHAIN_SPEC}\n[trace]\n{trace}"));
        let err = execute(&args(&["run", spec.path()])).unwrap_err();
        let CliError::Usage(message) = &err else {
            panic!("expected usage error for {trace:?}, got {err:?}");
        };
        assert!(message.contains(needle), "{trace:?} -> {message}");
        assert!(message.contains(line), "{trace:?} -> {message}");
        assert_eq!(err.exit_code(), 2);
    }
    // A [trace] table on a fleet/sweep kind stays a plain input error
    // (exit 1), like every other shape conflict.
    let spec = Scratch::new("trace-kind.toml");
    spec.write(
        "[experiment]\nkind = \"fleet\"\n\n[workload]\nkind = \"memcached\"\n\
         rate_per_sec = 100\n\n[fleet]\nservers = 2\n\n[trace]\nsample_every = 4\n",
    );
    let err = execute(&args(&["run", spec.path()])).unwrap_err();
    let CliError::Input(message) = &err else {
        panic!("expected input error, got {err:?}");
    };
    assert!(
        message.contains("[trace] applies to single, cluster and chain"),
        "{message}"
    );
    assert_eq!(err.exit_code(), 1);
}

#[test]
fn trace_out_needs_a_trace_table_and_profile_needs_a_spec() {
    // --trace-out without a [trace] table fails before anything runs.
    let spec = Scratch::new("trace-noflag.toml");
    spec.write(SINGLE_SPEC);
    let err = execute(&args(&[
        "run",
        spec.path(),
        "--trace-out",
        "/tmp/nope.json",
    ]))
    .unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("[trace]")),
        "{err:?}"
    );
    assert_eq!(err.exit_code(), 2);
    // Named library scenarios never trace or profile.
    let err = execute(&args(&[
        "run",
        "mesh-8-fanout4",
        "--trace-out",
        "/tmp/nope.json",
    ]))
    .unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("--trace-out")),
        "{err:?}"
    );
    let err = execute(&args(&["run", "cluster-8-mid", "--profile"])).unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("--profile")),
        "{err:?}"
    );
}

#[test]
fn sweep_expands_the_cartesian_grid() {
    let spec = Scratch::new("sweep.toml");
    spec.write(
        r#"
[experiment]
kind = "sweep"
duration_ms = 2

[workload]
kind = "memcached"
rate_per_sec = 1

[sweep]
rates = [5_000, 20_000]
platforms = ["cshallow", "cpc1a"]
"#,
    );
    let out = execute(&args(&["sweep", spec.path(), "--format", "csv"])).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 5, "header + 2x2 grid: {out}");
    assert!(lines[1].starts_with("cshallow@5000,"));
    assert!(lines[4].starts_with("cpc1a@20000,"));
}

#[test]
fn list_names_every_library_scenario() {
    let table = execute(&args(&["list"])).unwrap();
    for name in [
        "diurnal",
        "flash-crowd",
        "heterogeneous",
        "low-load-sweep",
        "cluster-8-mid",
        "cluster-8-trough",
        "cluster-16-kafka",
        "mesh-8-fanout4",
        "mesh-16-memcached",
    ] {
        assert!(table.contains(name), "missing {name} in\n{table}");
    }
    let json = execute(&args(&["list", "--format", "json"])).unwrap();
    let parsed = JsonValue::parse(&json).expect("list JSON parses");
    assert_eq!(parsed.as_array().map(<[_]>::len), Some(9));
}

// ---- error paths -------------------------------------------------------

#[test]
fn malformed_specs_fail_with_line_numbers() {
    let spec = Scratch::new("bad.toml");
    spec.write("[experiment]\nkind = \"single\"\n[workload]\nkind = memcached\n");
    let err = execute(&args(&["run", spec.path()])).unwrap_err();
    let CliError::Input(message) = &err else {
        panic!("expected input error, got {err:?}");
    };
    assert!(message.contains("line 4"), "{message}");
    assert!(message.contains("invalid value"), "{message}");
    assert_eq!(err.exit_code(), 1);
}

#[test]
fn unknown_scenario_names_are_rejected_with_suggestions() {
    let err = execute(&args(&["run", "no-such-scenario"])).unwrap_err();
    let CliError::Input(message) = &err else {
        panic!("expected input error, got {err:?}");
    };
    assert!(message.contains("unknown scenario"), "{message}");
    assert!(message.contains("cluster-8-mid"), "{message}");
}

#[test]
fn conflicting_flags_are_usage_errors() {
    // The same flag twice.
    let err = execute(&args(&[
        "run",
        "cluster-8-mid",
        "--format",
        "json",
        "--format",
        "csv",
    ]))
    .unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("given twice")),
        "{err:?}"
    );
    assert_eq!(err.exit_code(), 2);

    // A policy on a fleet scenario.
    let err = execute(&args(&["run", "diurnal", "--policy", "jsq"])).unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("does not apply to fleet scenario")),
        "{err:?}"
    );

    // A policy override on a cluster spec file (specs own their policy;
    // `--policy` only applies to named cluster scenarios).
    let cluster_spec = Scratch::new("conflict-cluster.toml");
    cluster_spec.write(CLUSTER_SPEC);
    let err = execute(&args(&[
        "cluster",
        cluster_spec.path(),
        "--policy",
        "random",
    ]))
    .unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("--policy")),
        "{err:?}"
    );

    // A platform override on a spec file (specs own their platform).
    let spec = Scratch::new("conflict.toml");
    spec.write(SINGLE_SPEC);
    let err = execute(&args(&["run", spec.path(), "--platform", "cdeep"])).unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("--platform")),
        "{err:?}"
    );

    // --timeseries-out without a [telemetry] table.
    let err = execute(&args(&[
        "run",
        spec.path(),
        "--timeseries-out",
        "/tmp/nope.csv",
    ]))
    .unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("[telemetry]")),
        "{err:?}"
    );
}

#[test]
fn unknown_flags_and_commands_are_usage_errors() {
    let err = execute(&args(&["run", "diurnal", "--nodes", "4"])).unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("--nodes")),
        "{err:?}"
    );
    let err = execute(&args(&["frobnicate"])).unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("frobnicate")),
        "{err:?}"
    );
    let err = execute(&args(&[])).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err:?}");
}

#[test]
fn sweep_rejects_non_sweep_specs() {
    let spec = Scratch::new("notsweep.toml");
    spec.write(SINGLE_SPEC);
    let err = execute(&args(&["sweep", spec.path()])).unwrap_err();
    assert!(
        matches!(&err, CliError::Input(m) if m.contains("not a sweep spec")),
        "{err:?}"
    );
}

#[test]
fn cluster_rejects_non_cluster_targets() {
    let spec = Scratch::new("notcluster.toml");
    spec.write(SINGLE_SPEC);
    let err = execute(&args(&["cluster", spec.path()])).unwrap_err();
    assert!(
        matches!(&err, CliError::Input(m) if m.contains("not a cluster spec")),
        "{err:?}"
    );
    let err = execute(&args(&["cluster", "diurnal"])).unwrap_err();
    assert!(
        matches!(&err, CliError::Input(m) if m.contains("fleet scenario")),
        "{err:?}"
    );
}

#[test]
fn validate_rejects_invalid_json() {
    let bad = Scratch::new("bad.json");
    bad.write("{\"unterminated\": ");
    let err = execute(&args(&["validate", bad.path()])).unwrap_err();
    assert!(
        matches!(&err, CliError::Input(m) if m.contains("JSON error")),
        "{err:?}"
    );
    let err = execute(&args(&["validate", "/no/such/file.json"])).unwrap_err();
    assert!(matches!(err, CliError::Io(_)), "{err:?}");
}
