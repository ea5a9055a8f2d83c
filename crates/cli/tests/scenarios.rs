//! The named scenarios: every bundled spec parses under its own name, and
//! every scenario runs under every platform (fleets) or under a spreading
//! and a packing policy (clusters) with finite, plausible statistics.

use std::collections::BTreeSet;

use apc_cli::runner::{plan_spec, Outcome};
use apc_cli::spec::{ExperimentSpec, PlatformKind, SpecKind};
use apc_cli::{scenario, SCENARIOS};
use apc_server::balancer::RoutingPolicyKind;
use apc_server::fleet::FleetResult;
use apc_sim::SimDuration;

/// The named scenario `name`, shortened to a window that still sees
/// thousands of requests per member at the scenarios' rates.
fn smoke(name: &str) -> ExperimentSpec {
    let mut spec = scenario(name).expect("named scenario");
    spec.duration = SimDuration::from_millis(20);
    spec
}

fn run_fleet(spec: &ExperimentSpec) -> FleetResult {
    match plan_spec(spec, None).run() {
        Outcome::Runs { fleet, .. } => fleet,
        _ => panic!("`{}` is not a fleet", spec.name),
    }
}

#[test]
fn library_names_are_unique_and_descriptive() {
    let names: BTreeSet<&str> = SCENARIOS.iter().map(|s| s.0).collect();
    assert_eq!(names.len(), SCENARIOS.len(), "duplicate scenario names");
    for (name, description, text) in SCENARIOS {
        let spec = ExperimentSpec::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec.name, name, "the spec's name is its table key");
        assert!(!description.is_empty(), "{name}");
        let kind = spec.kind.name();
        assert!(
            ["fleet", "cluster", "chain"].contains(&kind),
            "{name}: {kind}"
        );
    }
}

#[test]
fn every_bundled_file_is_a_named_scenario() {
    // The table bundles `scenarios/<key>.toml`, so every entry's file is
    // named after its key; no file in the directory may be left out.
    let dir = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios"));
    let files: BTreeSet<String> = dir
        .expect("scenario directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    let keys: BTreeSet<String> = SCENARIOS.iter().map(|s| format!("{}.toml", s.0)).collect();
    assert_eq!(files, keys);
}

#[test]
fn every_scenario_yields_finite_stats_under_every_platform() {
    for (name, _, _) in SCENARIOS {
        let mut spec = smoke(name);
        let SpecKind::Fleet { groups } = &spec.kind else {
            continue;
        };
        let servers: usize = groups.iter().map(|g| g.servers).sum();
        for platform in PlatformKind::all() {
            spec.platform = platform;
            let fleet = run_fleet(&spec);
            let label = format!("{name} under {}", platform.name());
            assert_eq!(fleet.servers(), servers, "{label}");
            assert!(fleet.total_completed_requests() > 0, "{label}");
            let throughput = fleet.aggregate_throughput();
            assert!(throughput.is_finite() && throughput > 0.0, "{label}");
            let power = fleet.total_power_w();
            assert!(power.is_finite() && power > 0.0, "{label}");
            let mean = fleet.mean_latency();
            assert!(
                mean > SimDuration::ZERO && mean < SimDuration::from_secs(1),
                "{label}: mean latency {mean}"
            );
            assert!(fleet.worst_p99() >= mean, "{label}");
            let residency = fleet.mean_pc1a_residency();
            assert!((0.0..=1.0).contains(&residency), "{label}");
        }
    }
}

#[test]
fn pc1a_only_helps_where_it_should() {
    // Fleet-level sanity of the paper's headline: under the low-load sweep,
    // CPC1A draws less fleet power than Cshallow and actually uses PC1A.
    let mut spec = smoke("low-load-sweep");
    spec.platform = PlatformKind::Cshallow;
    let shallow = run_fleet(&spec);
    spec.platform = PlatformKind::Cpc1a;
    let pc1a = run_fleet(&spec);
    assert!(shallow.mean_pc1a_residency() == 0.0);
    assert!(pc1a.mean_pc1a_residency() > 0.05);
    assert!(
        pc1a.power_saving_vs(&shallow) > 0.0,
        "PC1A saving {:.3}",
        pc1a.power_saving_vs(&shallow)
    );
}

/// Every named cluster scenario must run under one spreading and one
/// packing policy and produce finite, plausible cluster statistics.
#[test]
fn every_cluster_scenario_yields_finite_stats() {
    for (name, _, _) in SCENARIOS {
        let mut spec = smoke(name);
        let SpecKind::Cluster { nodes, .. } = spec.kind else {
            continue;
        };
        for policy in [RoutingPolicyKind::RoundRobin, RoutingPolicyKind::PowerAware] {
            spec.kind = SpecKind::Cluster { nodes, policy };
            let Outcome::Clusters { results, .. } = plan_spec(&spec, None).run() else {
                panic!("{name} is a cluster");
            };
            let label = format!("{name} under {}", policy.name());
            let [result] = &results[..] else {
                panic!("{label}: one run");
            };
            assert_eq!(result.policy, policy.name(), "{label}");
            assert_eq!(result.nodes.servers(), nodes, "{label}");
            assert_eq!(result.routed.len(), nodes, "{label}");
            assert!(result.total_routed() > 0, "{label}");
            assert!(
                result.total_routed() >= result.nodes.total_completed_requests(),
                "{label}"
            );
            assert!(result.nodes.total_completed_requests() > 0, "{label}");
            let power = result.nodes.total_power_w();
            assert!(power.is_finite() && power > 0.0, "{label}");
            assert!(result.routing_imbalance() >= 1.0, "{label}");
            let idle_band = result.idle_periods_20_200us();
            assert!((0.0..=1.0).contains(&idle_band), "{label}");
        }
    }
}

#[test]
fn scenario_runs_are_reproducible() {
    let mut spec = smoke("diurnal");
    spec.duration = SimDuration::from_millis(10);
    assert_eq!(run_fleet(&spec), run_fleet(&spec));
    let first = run_fleet(&spec);
    spec.seed = 99;
    assert_ne!(first, run_fleet(&spec));
}

#[test]
fn offered_rate_reflects_run_horizon_not_schedule() {
    // A flash crowd whose schedule spans only 30 % of the run: the nominal
    // rate recorded in results must be the mean over the run
    // (base * (1 + (mult-1) * length)), not the schedule-weighted mean the
    // arrival process itself reports.
    let spec = ExperimentSpec::parse(
        "[experiment]\nkind = \"fleet\"\nduration_ms = 10\n\n[workload]\n\
         kind = \"memcached\"\nrate_per_sec = 10_000\npattern = \"flash-crowd\"\n\
         peak_multiplier = 6\nstart_fraction = 0.1\nlength_fraction = 0.2\n\n\
         [fleet]\nservers = 1\n",
    )
    .unwrap();
    let fleet = run_fleet(&spec);
    assert!((fleet.runs[0].offered_rate - 20_000.0).abs() < 1e-9);
}
