//! Golden-file tests of the artefact layouts no other golden covers: the
//! top-level fleet object (runs, aggregates, then the `labels` array), the
//! cluster array / node-row CSV over a fabric with several repeats, and a
//! power-aware eight-node cluster over a delayed fabric with a time-series
//! sink, long enough that every node's energy is split at thousands of
//! balancer and fabric instants.
//!
//! The expected files under `tests/golden/` were captured from
//! `apc-cli run <spec> --format json|csv --out <file>` on the specs beside
//! them. Each is checked through stdout, `--out` and `--stream-out`, so
//! the buffered and the streamed writer are both pinned to the same bytes.
//!
//! Every named scenario is pinned too: `<name>.json` is
//! `apc-cli run <name> --duration-ms 2 --format json`, and `list.txt`,
//! `list.json` and `list.csv` are `apc-cli list` in the three formats.

use std::path::PathBuf;

use apc_analysis::export::JsonValue;
use apc_cli::{execute, SCENARIOS};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// Runs `target` (a spec file under `tests/golden/` or a scenario name)
/// with `extra` arguments in `format` and returns the artefact as printed
/// to stdout, written by `--out` and by `--stream-out`.
fn render_three_ways(target: &str, format: &str, extra: &[&str]) -> [String; 3] {
    let spec_path = format!("{GOLDEN}/{target}");
    let target_arg = if target.ends_with(".toml") {
        spec_path.as_str()
    } else {
        target
    };
    let run = |flags: &[&str]| {
        let argv: Vec<String> = ["run", target_arg, "--format", format]
            .iter()
            .chain(extra)
            .chain(flags)
            .map(|s| (*s).to_owned())
            .collect();
        execute(&argv).expect("golden target runs")
    };
    let file = |flag: &str| {
        let path: PathBuf = std::env::temp_dir().join(format!(
            "apc-golden-{}-{target}{flag}.{format}",
            std::process::id()
        ));
        let path_str = path.to_str().expect("temp paths are UTF-8");
        run(&[flag, path_str]);
        let text = std::fs::read_to_string(&path).expect("artefact written");
        let _ = std::fs::remove_file(&path);
        text
    };
    [run(&[]), file("--out"), file("--stream-out")]
}

fn assert_golden(target: &str, format: &str, extra: &[&str], expected: &str) {
    for (how, text) in ["stdout", "--out", "--stream-out"]
        .iter()
        .zip(render_three_ways(target, format, extra))
    {
        assert_eq!(text, expected, "{target} --format {format} via {how}");
    }
}

#[test]
fn fleet_object_json_matches_golden_bytes() {
    let expected = include_str!("golden/fleet.json");
    assert_golden("fleet.toml", "json", &[], expected);
    let parsed = JsonValue::parse(expected).expect("golden parses");
    let labels: Vec<&str> = parsed
        .get("labels")
        .and_then(JsonValue::as_array)
        .expect("labels close the fleet object")
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    assert_eq!(labels, ["server 0", "server 1"]);
    assert_eq!(parsed.get("servers").and_then(JsonValue::as_u64), Some(2));
}

#[test]
fn cluster_array_json_with_network_and_repeats_matches_golden_bytes() {
    let expected = include_str!("golden/cluster_net.json");
    assert_golden("cluster_net.toml", "json", &[], expected);
    let parsed = JsonValue::parse(expected).expect("golden parses");
    let repeats = parsed.as_array().expect("one array element per repeat");
    assert_eq!(repeats.len(), 2);
    for repeat in repeats {
        assert!(repeat.get("network").is_some());
        let nodes = repeat.get("nodes").expect("per-node fleet object");
        assert_eq!(nodes.get("servers").and_then(JsonValue::as_u64), Some(2));
        assert!(
            nodes.get("labels").is_none(),
            "nested fleets carry no labels"
        );
    }
}

#[test]
fn cluster_csv_with_network_and_repeats_matches_golden_bytes() {
    let expected = include_str!("golden/cluster_net.csv");
    assert_golden("cluster_net.toml", "csv", &[], expected);
    // One header with the fabric columns, then 2 node rows per repeat.
    assert_eq!(expected.lines().count(), 1 + 2 * 2);
    assert!(expected.starts_with("repeat,node,policy,routed,net_topology,"));
}

#[test]
fn power_aware_cluster_over_delayed_fabric_matches_golden_bytes() {
    let expected = include_str!("golden/cluster_pa8_net.json");
    assert_golden("cluster_pa8_net.toml", "json", &[], expected);
    let parsed = JsonValue::parse(expected).expect("golden parses");
    let repeats = parsed.as_array().expect("one array element per repeat");
    assert_eq!(repeats.len(), 1);
    let run = &repeats[0];
    assert_eq!(
        run.get("policy").and_then(JsonValue::as_str),
        Some("power-aware")
    );
    let network = run.get("network").expect("fabric statistics present");
    assert!(network.get("link_latency_ns").and_then(JsonValue::as_u64) > Some(0));
    // Several thousand routed arrivals, each crossing the fabric.
    assert!(network.get("messages").and_then(JsonValue::as_u64) > Some(4096));
    let nodes = run.get("nodes").expect("per-node fleet object");
    assert_eq!(nodes.get("servers").and_then(JsonValue::as_u64), Some(8));
    let runs = nodes
        .get("runs")
        .and_then(JsonValue::as_array)
        .expect("node runs");
    assert!(runs.iter().all(|r| r.get("timeseries").is_some()));
}

fn golden_text(file: &str) -> String {
    std::fs::read_to_string(format!("{GOLDEN}/{file}")).expect("golden file present")
}

#[test]
fn named_scenarios_match_golden_bytes() {
    for (name, _, _) in SCENARIOS {
        let expected = golden_text(&format!("{name}.json"));
        assert_golden(name, "json", &["--duration-ms", "2"], &expected);
    }
}

#[test]
fn list_matches_golden_bytes() {
    for (format, file) in [("table", "txt"), ("json", "json"), ("csv", "csv")] {
        let argv = ["list", "--format", format].map(str::to_owned);
        let text = execute(&argv).expect("list runs");
        assert_eq!(text, golden_text(&format!("list.{file}")), "{format}");
    }
}
