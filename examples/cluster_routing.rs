//! Cluster routing comparison: an 8-node cluster under every routing policy
//! × platform configuration, showing how routing reshapes per-server
//! idle-period distributions and therefore PC1A residency and power.
//!
//! ```text
//! cargo run --release --example cluster_routing
//! ```
//!
//! Spreading policies (random, round-robin, join-shortest-queue) keep every
//! node lightly loaded — many short idle periods per node, exactly the
//! microsecond-scale regime the paper's PC1A targets. The power-aware
//! packing policy concentrates requests on already-awake nodes, so the
//! spared nodes hold long unbroken package idle instead. The tables report
//! both the cluster aggregates and the idle-period structure behind them.

use apc::prelude::*;

fn main() {
    let configs = [
        ServerConfig::c_shallow(),
        ServerConfig::c_deep(),
        ServerConfig::c_pc1a(),
    ];
    let policies = RoutingPolicyKind::all();
    let duration = SimDuration::from_millis(100);

    // The `cluster-8-mid` and `cluster-8-trough` named scenarios.
    for (name, load, total_rate_per_sec) in [
        ("cluster-8-mid", "the mid operating point", 160_000.0),
        ("cluster-8-trough", "trough load", 24_000.0),
    ] {
        println!(
            "\n### {name} — 8-node memcached cluster at {load} (8 nodes, \
             {total_rate_per_sec:.0} rps aggregate, {duration} window)"
        );

        for config in &configs {
            let base = config.clone().with_duration(duration).with_seed(0x5ce0);
            let mut table = TextTable::new(
                &format!("{name} under {}", base.platform.name),
                &[
                    "policy",
                    "rps",
                    "power",
                    "vs random",
                    "worst p99",
                    "imbalance",
                    "idle periods",
                    "idle 20-200us",
                    "PC1A res",
                ],
            );
            let mut baseline_power: Option<f64> = None;
            for policy in policies {
                let spec = WorkloadSpec::memcached_etc();
                let result =
                    ClusterMember::homogeneous(&base, 8, policy, spec, total_rate_per_sec).run();
                let power = result.nodes.total_power_w();
                let delta = baseline_power
                    .map(|b| format!("{:+.1}%", (power / b - 1.0) * 100.0))
                    .unwrap_or_else(|| "--".to_owned());
                baseline_power = baseline_power.or(Some(power));
                table.add_row(&[
                    result.policy.to_owned(),
                    format!("{:.0}", result.nodes.aggregate_throughput()),
                    format!("{:.1} W", power),
                    delta,
                    format!("{}", result.nodes.worst_p99()),
                    format!("{:.2}", result.routing_imbalance()),
                    format!("{}", result.total_idle_periods()),
                    format!("{:.1}%", result.idle_periods_20_200us() * 100.0),
                    format!("{:.1}%", result.nodes.mean_pc1a_residency() * 100.0),
                ]);
            }
            println!("{}", table.render());
        }
    }
}
