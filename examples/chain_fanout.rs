//! Fan-out chain comparison: the paper's headline traffic class — memcached
//! scatter-gather (frontend → N leaves, wait-for-all join) on an 8-node
//! cluster — under `Cshallow`, `Cdeep` and `CPC1A`.
//!
//! ```text
//! cargo run --release --example chain_fanout
//! ```
//!
//! End-to-end latency is decided by the slowest leaf, so wake latency
//! compounds at the join: `Cdeep` pays a CC6/PC6 wake on whichever leaf
//! landed on a sleeping node and its end-to-end p999 widens, while `CPC1A`
//! recovers package idle power at nanosecond-scale transition cost — lower
//! fleet power than `Cshallow` at a comparable p999. The straggler column
//! (time the join waited on the slowest sibling after the fastest) shows
//! where the tail comes from.

use apc::prelude::*;

fn main() {
    let configs = [
        ServerConfig::c_shallow(),
        ServerConfig::c_deep(),
        ServerConfig::c_pc1a(),
    ];
    let duration = SimDuration::from_millis(100);

    // The `mesh-8-fanout4` and `mesh-16-memcached` named scenarios.
    for (name, nodes, fanout, chains_per_sec, tail) in [
        ("mesh-8-fanout4", 8, 4, 8_000.0, "wait-for-all join"),
        ("mesh-16-memcached", 16, 8, 6_000.0, "straggler-bound tail"),
    ] {
        let graph = RequestGraph::memcached_fanout(fanout);
        println!(
            "\n### {name} — {nodes}-node memcached scatter-gather, fan-out {fanout}, {tail} \
             ({nodes} nodes, {graph}, {chains_per_sec:.0} chains/s, {duration} window)"
        );

        let mut table = TextTable::new(
            &format!("{name} x platforms (join-shortest-queue)"),
            &[
                "platform",
                "chains/s",
                "fleet power",
                "vs Cshallow",
                "e2e p50",
                "e2e p99",
                "e2e p999",
                "straggler p99",
                "PC1A res",
            ],
        );
        let mut shallow_power: Option<f64> = None;
        for config in &configs {
            let base = config.clone().with_duration(duration).with_seed(0x5ce0);
            let policy = RoutingPolicyKind::JoinShortestQueue;
            let result =
                ChainMember::homogeneous(&base, nodes, policy, graph.clone(), chains_per_sec).run();
            let power = result.nodes.total_power_w();
            let delta = shallow_power
                .map(|b| format!("{:+.1}%", (power / b - 1.0) * 100.0))
                .unwrap_or_else(|| "--".to_owned());
            shallow_power = shallow_power.or(Some(power));
            table.add_row(&[
                base.platform.name.to_owned(),
                format!("{:.0}", result.chains_per_sec()),
                format!("{:.1} W", power),
                delta,
                format!("{}", result.chain_latency.p50),
                format!("{}", result.chain_latency.p99),
                format!("{}", result.chain_latency.p999),
                format!("{}", result.straggler.p99),
                format!("{:.1}%", result.nodes.mean_pc1a_residency() * 100.0),
            ]);
        }
        println!("{}", table.render());
    }
}
