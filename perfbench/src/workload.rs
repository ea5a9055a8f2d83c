//! The benchmark's workloads: each one generates a spec file from the seed
//! and names the `apc-cli` invocation that turns it into an artefact.
//!
//! The load is a closed loop on the host side — one experiment at a time in
//! one process — while the simulated arrival stream (rates, fan-out, fabric)
//! lives inside the generated spec. The seed is written into the spec text,
//! so the same seed always yields the same spec bytes.

use crate::host;
use crate::kernel::Shape;

/// How much simulated time each workload covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A shrunk size for the self-test: same shape, a few ms simulated.
    Smoke,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 32-node power-aware cluster with a telemetry sink; buffered JSON.
    ClusterPa32,
    /// 8-node fan-out chain over a two-tier fabric; buffered JSON.
    FanoutTwotier,
    /// The low-load sweep grid (3 platforms x 5 rates); streamed CSV.
    LowloadSweep,
}

/// Per-node memcached rate of the cluster workload (requests/s).
const CLUSTER_RATE_PER_NODE: u64 = 20_000;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ClusterPa32,
        Workload::FanoutTwotier,
        Workload::LowloadSweep,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClusterPa32 => "cluster-pa32",
            Workload::FanoutTwotier => "fanout-twotier",
            Workload::LowloadSweep => "lowload-sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when the artefact is CSV (else JSON).
    pub fn is_csv(self) -> bool {
        self == Workload::LowloadSweep
    }

    /// The `apc-cli` arguments that turn `spec` into the artefact at `out`.
    /// No `--parallelism`: the benchmark measures the default users get.
    pub fn cli_args(self, spec: &str, out: &str) -> Vec<String> {
        let args: [&str; 6] = match self {
            Workload::ClusterPa32 | Workload::FanoutTwotier => {
                ["run", spec, "--format", "json", "--out", out]
            }
            Workload::LowloadSweep => ["sweep", spec, "--format", "csv", "--stream-out", out],
        };
        args.iter().map(|&a| a.to_owned()).collect()
    }

    /// The reference kernel's shape and size for this workload: the same
    /// parallelism as the default execution path — the cluster's single
    /// event loop, the chain partitioned per node in lockstep epochs, the
    /// sweep's independent run-pool workers (the last two capped by the
    /// host's cores) — for about a sixth of an iteration's wall time.
    pub fn kernel(self) -> (Shape, usize) {
        match self {
            Workload::ClusterPa32 => (Shape::Solo, 1 << 22),
            Workload::FanoutTwotier => (Shape::Lockstep(host::nproc().min(8)), 1 << 20),
            Workload::LowloadSweep => (Shape::Pool(host::nproc().min(15)), 1 << 20),
        }
    }

    /// Simulated milliseconds per experiment.
    fn duration_ms(self, scale: Scale) -> u64 {
        match (self, scale) {
            (_, Scale::Smoke) => 3,
            (Workload::ClusterPa32, Scale::Full) => 600,
            (Workload::FanoutTwotier, Scale::Full) => 100,
            (Workload::LowloadSweep, Scale::Full) => 200,
        }
    }

    /// The spec text for `seed`. `sampled` adds a `[trace]` table that
    /// head-samples request spans (only kinds that accept one).
    pub fn spec(self, seed: u64, scale: Scale, sampled: bool) -> String {
        let duration_ms = self.duration_ms(scale);
        let mut text = match self {
            Workload::ClusterPa32 => cluster_spec(32, seed, duration_ms),
            Workload::FanoutTwotier => format!(
                "[experiment]\nkind = \"chain\"\nname = \"perfbench-fanout-twotier\"\n\
                 seed = {seed}\nduration_ms = {duration_ms}\nrepeats = 1\n\n\
                 [platform]\nname = \"cpc1a\"\n\n\
                 [workload]\nkind = \"memcached\"\nrate_per_sec = 8_000\npattern = \"constant\"\n\n\
                 [chain]\nnodes = 8\nfanout = 4\npolicy = \"jsq\"\n\n\
                 [network]\ntopology = \"two-tier\"\nlatency_us = 5\nrack_size = 4\n"
            ),
            Workload::LowloadSweep => format!(
                "[experiment]\nkind = \"sweep\"\nname = \"perfbench-lowload-sweep\"\n\
                 seed = {seed}\nduration_ms = {duration_ms}\n\n\
                 [workload]\nkind = \"memcached\"\nrate_per_sec = 1\n\n\
                 [sweep]\nrates = [4_000, 10_000, 25_000, 50_000, 100_000]\n\
                 platforms = [\"cshallow\", \"cdeep\", \"cpc1a\"]\n"
            ),
        };
        if let Some(n) = self.sample_every().filter(|_| sampled) {
            text.push_str(&format!("\n[trace]\nsample_every = {n}\n"));
        }
        text
    }

    /// Head-sampling rate of the sampled pass: one root request in N, sized
    /// to stay under the span log's default bound of 65,536 spans. `None`
    /// for the sweep, whose spec kind rejects a `[trace]` table.
    pub fn sample_every(self) -> Option<u64> {
        match self {
            Workload::ClusterPa32 => Some(64),
            Workload::FanoutTwotier => Some(4),
            Workload::LowloadSweep => None,
        }
    }

    /// The cluster workload's spec at 8 nodes (same per-node rate), for the
    /// within-run 32-over-8 events/s ratio; `None` for other workloads.
    pub fn eight_node_spec(self, seed: u64, scale: Scale) -> Option<String> {
        (self == Workload::ClusterPa32).then(|| cluster_spec(8, seed, self.duration_ms(scale)))
    }
}

fn cluster_spec(nodes: u64, seed: u64, duration_ms: u64) -> String {
    let rate = CLUSTER_RATE_PER_NODE * nodes;
    format!(
        "[experiment]\nkind = \"cluster\"\nname = \"perfbench-cluster-pa{nodes}\"\n\
         seed = {seed}\nduration_ms = {duration_ms}\nrepeats = 1\n\n\
         [platform]\nname = \"cpc1a\"\n\n\
         [workload]\nkind = \"memcached\"\nrate_per_sec = {rate}\npattern = \"constant\"\n\n\
         [cluster]\nnodes = {nodes}\npolicy = \"power-aware\"\n\n\
         [telemetry]\nsample_interval_us = 5_000\n"
    )
}
