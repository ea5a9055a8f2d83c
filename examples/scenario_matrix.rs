//! Scenario matrix: runs every named fleet scenario (the spec files bundled
//! into `apc-cli`) under the three platform configurations and prints
//! fleet-level comparison tables — the fleet-scale counterpart of the
//! paper's single-server figures.
//!
//! ```text
//! cargo run --release --example scenario_matrix
//! ```
//!
//! Fleets execute on all available cores (the run pool parallelises members
//! with bit-identical results), so the full matrix completes in seconds.

use apc::prelude::*;
use apc_cli::runner::{plan_spec, Outcome};
use apc_cli::spec::{PlatformKind, SpecKind};
use apc_cli::{scenario, SCENARIOS};

fn main() {
    let duration = SimDuration::from_millis(100);
    for (name, description, _) in SCENARIOS {
        let mut spec = scenario(name).expect("bundled scenario");
        let SpecKind::Fleet { groups } = &spec.kind else {
            continue;
        };
        let servers: usize = groups.iter().map(|g| g.servers).sum();
        println!("\n### {name} — {description} ({servers} servers, {duration} window)");
        spec.duration = duration;

        let mut table = TextTable::new(
            &format!("scenario {name}"),
            &[
                "config",
                "rps",
                "power",
                "vs Cshallow",
                "mean lat",
                "worst p99",
                "PC1A res",
            ],
        );
        let mut baseline_power: Option<f64> = None;
        for platform in PlatformKind::all() {
            spec.platform = platform;
            let Outcome::Runs { fleet, .. } = plan_spec(&spec, None).run() else {
                unreachable!("fleet specs run as fleets");
            };
            let power = fleet.total_power_w();
            let delta = baseline_power
                .map(|b| format!("{:+.1}%", (power / b - 1.0) * 100.0))
                .unwrap_or_else(|| "--".to_owned());
            baseline_power = baseline_power.or(Some(power));
            table.add_row(&[
                fleet.runs[0].config_name.to_owned(),
                format!("{:.0}", fleet.aggregate_throughput()),
                format!("{:.1} W", power),
                delta,
                format!("{}", fleet.mean_latency()),
                format!("{}", fleet.worst_p99()),
                format!("{:.1}%", fleet.mean_pc1a_residency() * 100.0),
            ]);
        }
        println!("{}", table.render());
    }
}
