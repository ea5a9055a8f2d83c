//! The deterministic run pool and the multi-server fleet.
//!
//! A [`Pool`] executes independent [`Member`]s — server simulations
//! ([`FleetMember`]), whole clusters ([`crate::cluster::ClusterMember`]) or
//! chain clusters ([`crate::chain::ChainMember`]) — and returns their
//! outputs in member order. [`Fleet`], [`crate::cluster::ClusterFleet`] and
//! [`crate::chain::ChainFleet`] are the three instantiations; a [`Fleet`]'s
//! [`RunResult`]s aggregate into a [`FleetResult`] (fleet-level throughput,
//! mean power, worst-case tail latency).
//!
//! # Parallelism
//!
//! Members are pairwise independent (no simulated cross-member traffic and
//! no shared RNG state), so [`Pool::run`] fans them out over a pool of OS
//! threads claiming members from a shared queue. Results land in
//! member-order slots, which makes a parallel run **bit-identical** to
//! [`Pool::run_sequential`] for the same members: thread scheduling can
//! change only *when* a member executes, never what it computes or where its
//! result lands. Use [`Pool::with_parallelism`] to pin the worker count
//! (`1` forces the sequential path).
//!
//! # Determinism
//!
//! Member seeds are derived from the fleet seed with the canonical
//! label-fork scheme (see [`apc_sim::rng::SimRng::fork`]) under labels
//! `"server 0"`, `"server 1"`, …, so a fleet is exactly reproducible
//! run-to-run while its members remain pairwise independent.

use std::convert::Infallible;
use std::sync::{mpsc, Mutex};

use apc_sim::rng::SimRng;
use apc_sim::SimDuration;
use apc_telemetry::latency::{LatencyRecorder, LatencySummary};
use apc_telemetry::sketch::QuantileSketch;
use apc_workloads::arrival::ArrivalProcess;
use apc_workloads::loadgen::LoadGenerator;
use apc_workloads::spec::WorkloadSpec;

use crate::config::ServerConfig;
use crate::result::RunResult;
use crate::sim::ServerSimulation;

/// One independent unit of work a [`Pool`] can run: a declarative,
/// `Send` description that builds and runs its own simulation.
pub trait Member: Send {
    /// What one run produces.
    type Output: Send;

    /// Builds and runs the member to completion.
    fn run(self) -> Self::Output;
}

/// A set of independent [`Member`]s run as one experiment, on a
/// deterministic worker pool (see the [module docs](self)).
#[derive(Debug)]
pub struct Pool<M> {
    members: Vec<M>,
    parallelism: Option<usize>,
}

/// A pool of independent server simulations.
pub type Fleet = Pool<FleetMember>;

impl<M> Default for Pool<M> {
    fn default() -> Self {
        Pool {
            members: Vec::new(),
            parallelism: None,
        }
    }
}

impl<M: Member> Pool<M> {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Pool::default()
    }

    /// Adds one member to the pool.
    pub fn push(&mut self, member: M) -> &mut Self {
        self.members.push(member);
        self
    }

    /// Number of members in the pool.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the pool has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Pins the number of worker threads [`Pool::run`] may use.
    ///
    /// `1` forces the sequential path; values are clamped to at least 1.
    /// Without this, `run` sizes the pool to the host's available
    /// parallelism. The result is bit-identical either way — the knob only
    /// trades wall-clock time against CPU occupancy.
    #[must_use]
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = Some(workers.max(1));
        self
    }

    /// Runs every member to completion — in parallel when the host and the
    /// [`Pool::with_parallelism`] knob allow it. Outputs are in insertion
    /// order and bit-identical to [`Pool::run_sequential`]'s.
    #[must_use]
    pub fn run(self) -> Vec<M::Output> {
        match self.run_streamed(|_, _| Ok::<(), Infallible>(())) {
            Ok(outputs) => outputs,
            Err(never) => match never {},
        }
    }

    /// Runs every member back-to-back on the calling thread.
    #[must_use]
    pub fn run_sequential(self) -> Vec<M::Output> {
        self.with_parallelism(1).run()
    }

    /// Like [`Pool::run`], but invokes `emit(i, &output)` once per member,
    /// in member order, as soon as member `i` **and every member before
    /// it** have finished — while later members may still be running. This
    /// is the hook behind the CLI's incremental `--stream-out` export; the
    /// returned outputs are bit-identical to [`Pool::run`]'s.
    ///
    /// `emit` runs on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns `emit`'s first error. Nothing further is emitted, members
    /// not yet started are skipped, and the computed outputs are dropped.
    pub fn run_streamed<E>(
        self,
        mut emit: impl FnMut(usize, &M::Output) -> Result<(), E>,
    ) -> Result<Vec<M::Output>, E> {
        let total = self.members.len();
        let workers = self
            .parallelism
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .min(total.max(1));
        if workers <= 1 {
            let mut outputs = Vec::with_capacity(total);
            for (i, member) in self.members.into_iter().enumerate() {
                let output = member.run();
                emit(i, &output)?;
                outputs.push(output);
            }
            return Ok(outputs);
        }

        // Workers claim members in order from the shared queue and send
        // each output back tagged with its member index.
        let queue = Mutex::new(self.members.into_iter().enumerate());
        let (tx, rx) = mpsc::channel::<(usize, M::Output)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (tx, queue) = (tx.clone(), &queue);
                scope.spawn(move || loop {
                    let next = queue.lock().expect("pool queue poisoned").next();
                    let Some((i, member)) = next else { break };
                    // A closed channel means the collector stopped on an
                    // emit error: nothing more is wanted.
                    if tx.send((i, member.run())).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            // The calling thread plays collector: outputs arrive in
            // completion order, land in their member-order slot, and are
            // emitted as the in-order frontier advances.
            let mut slots: Vec<Option<M::Output>> = (0..total).map(|_| None).collect();
            let mut next = 0;
            for (i, output) in rx {
                slots[i] = Some(output);
                while let Some(Some(output)) = slots.get(next) {
                    emit(next, output)?;
                    next += 1;
                }
            }
            Ok(slots
                .into_iter()
                .map(|slot| slot.expect("pool worker exited without storing a result"))
                .collect())
        })
    }
}

/// `n` copies of `base`, member `i` under the canonical seed
/// [`Fleet::member_seed`]`(base.seed, i)` — the node set of every
/// homogeneous fleet, cluster and chain.
pub(crate) fn member_configs(base: &ServerConfig, n: usize) -> Vec<ServerConfig> {
    (0..n)
        .map(|i| base.clone().with_seed(Fleet::member_seed(base.seed, i)))
        .collect()
}

/// One server instance within a fleet.
#[derive(Debug)]
pub struct FleetMember {
    /// The server's configuration (carries its own seed).
    pub config: ServerConfig,
    /// The workload it serves.
    pub spec: WorkloadSpec,
    /// Nominal offered request rate (requests per second): the rate the
    /// spec's default arrival process runs at, and the `offered_rate`
    /// recorded in the member's [`RunResult`]. When an arrival override is
    /// installed, set this to the pattern's long-run average over the run
    /// (as the `apc-cli` spec runner does) — the override itself only knows its
    /// schedule, not the run horizon.
    pub rate_per_sec: f64,
    /// Optional arrival-process override. `None` uses the spec's default
    /// stationary process at [`FleetMember::rate_per_sec`]; diurnal and
    /// flash-crowd specs install time-varying processes here.
    pub arrivals: Option<Box<dyn ArrivalProcess>>,
}

impl FleetMember {
    /// A member serving `spec` at a constant offered rate.
    #[must_use]
    pub fn new(config: ServerConfig, spec: WorkloadSpec, rate_per_sec: f64) -> Self {
        FleetMember {
            config,
            spec,
            rate_per_sec,
            arrivals: None,
        }
    }

    /// Replaces the member's arrival process (e.g. with a time-varying one).
    ///
    /// [`FleetMember::rate_per_sec`] is left untouched: it stays the nominal
    /// rate recorded in results, which for a non-repeating schedule (whose
    /// tail rate holds beyond the schedule's end) the process itself cannot
    /// compute.
    #[must_use]
    pub fn with_arrival_process(mut self, arrivals: Box<dyn ArrivalProcess>) -> Self {
        self.arrivals = Some(arrivals);
        self
    }
}

impl Member for FleetMember {
    type Output = RunResult;

    /// Runs this member's simulation to completion.
    fn run(self) -> RunResult {
        let seed = self.config.seed;
        let loadgen = match self.arrivals {
            Some(arrivals) => {
                LoadGenerator::with_arrival_process(self.spec, arrivals, self.rate_per_sec, seed)
            }
            None => LoadGenerator::new(self.spec, self.rate_per_sec, seed),
        };
        ServerSimulation::new(self.config, loadgen).run()
    }
}

impl Pool<FleetMember> {
    /// A fleet of `n` servers sharing one configuration and workload but
    /// running under distinct, deterministically derived seeds (see the
    /// [module docs](self) for the derivation scheme).
    ///
    /// `spec_fn` builds one [`WorkloadSpec`] per member (specs own boxed
    /// distributions and cannot be cloned).
    #[must_use]
    pub fn homogeneous(
        config: &ServerConfig,
        spec_fn: impl Fn() -> WorkloadSpec,
        rate_per_sec: f64,
        n: usize,
    ) -> Self {
        let mut fleet = Fleet::new();
        for member_config in member_configs(config, n) {
            fleet.push(FleetMember::new(member_config, spec_fn(), rate_per_sec));
        }
        fleet
    }

    /// The canonical seed of fleet member `index` under root seed
    /// `root_seed`: the root forked by label `"server {index}"` (see
    /// [`SimRng::fork`] for the full derivation scheme). Both
    /// [`Fleet::homogeneous`] and the `apc-cli` fleet specs derive member
    /// seeds through this single function, so fleets built either way agree.
    #[must_use]
    pub fn member_seed(root_seed: u64, index: usize) -> u64 {
        SimRng::from_seed(root_seed)
            .fork(&format!("server {index}"))
            .seed()
    }
}

/// The aggregated outcome of a fleet run.
///
/// Equality is exact per-member equality (see [`RunResult`]'s `PartialEq`
/// note); a parallel and a sequential run of the same fleet compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Per-server results, in member order.
    pub runs: Vec<RunResult>,
}

/// Aggregates a [`Fleet::run`]'s per-member results.
impl From<Vec<RunResult>> for FleetResult {
    fn from(runs: Vec<RunResult>) -> Self {
        FleetResult { runs }
    }
}

impl FleetResult {
    /// Number of servers that ran.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.runs.len()
    }

    /// Total client-visible requests completed across the fleet.
    #[must_use]
    pub fn total_completed_requests(&self) -> u64 {
        self.runs.iter().map(|r| r.completed_requests).sum()
    }

    /// Total events dispatched across the fleet's event loops. Zero for the
    /// node sub-results of a cluster/chain run, whose single shared loop
    /// reports its census on the cluster-level result instead.
    #[must_use]
    pub fn events_dispatched(&self) -> u64 {
        self.runs.iter().map(|r| r.events_dispatched).sum()
    }

    /// Aggregate achieved throughput (requests per second) across the fleet.
    #[must_use]
    pub fn aggregate_throughput(&self) -> f64 {
        self.runs.iter().map(RunResult::throughput).sum()
    }

    /// Mean average SoC power per server, in watts.
    #[must_use]
    pub fn mean_soc_power_w(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs
            .iter()
            .map(|r| r.avg_soc_power.as_f64())
            .sum::<f64>()
            / self.runs.len() as f64
    }

    /// Total average power (SoC + DRAM) summed over the fleet, in watts.
    #[must_use]
    pub fn total_power_w(&self) -> f64 {
        self.runs.iter().map(|r| r.avg_total_power().as_f64()).sum()
    }

    /// Mean PC1A residency fraction across the fleet.
    #[must_use]
    pub fn mean_pc1a_residency(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|r| r.pc1a_residency).sum::<f64>() / self.runs.len() as f64
    }

    /// Total PC1A transitions across the fleet.
    #[must_use]
    pub fn total_pc1a_transitions(&self) -> u64 {
        self.runs.iter().map(|r| r.pc1a_transitions).sum()
    }

    /// The worst p99 latency any server observed.
    #[must_use]
    pub fn worst_p99(&self) -> SimDuration {
        self.runs
            .iter()
            .map(|r| r.latency.p99)
            .fold(SimDuration::ZERO, SimDuration::max)
    }

    /// The worst p999 latency any server observed (the paper's tail-latency
    /// SLO metric).
    #[must_use]
    pub fn worst_p999(&self) -> SimDuration {
        self.runs
            .iter()
            .map(|r| r.latency.p999)
            .fold(SimDuration::ZERO, SimDuration::max)
    }

    /// Mean request latency across the fleet, weighted by completed
    /// requests.
    #[must_use]
    pub fn mean_latency(&self) -> SimDuration {
        let total: u64 = self.total_completed_requests();
        if total == 0 {
            return SimDuration::ZERO;
        }
        let weighted: f64 = self
            .runs
            .iter()
            .map(|r| r.latency.mean.as_secs_f64() * r.completed_requests as f64)
            .sum();
        SimDuration::from_secs_f64(weighted / total as f64)
    }

    /// The fleet-wide latency distribution: every member's sketch merged
    /// (exact counts/sums/extremes — see [`QuantileSketch::merge`]), in
    /// member order for determinism.
    #[must_use]
    pub fn combined_sketch(&self) -> QuantileSketch {
        let mut merged = QuantileSketch::latency_default();
        for r in &self.runs {
            merged.merge(&r.latency_sketch);
        }
        merged
    }

    /// Summary of the fleet-wide latency distribution (all members' samples
    /// pooled), as opposed to the per-member worst/mean aggregates: the
    /// cross-fleet p99 of a 100-node experiment is this summary's `p99`,
    /// not [`FleetResult::worst_p99`].
    #[must_use]
    pub fn combined_latency(&self) -> LatencySummary {
        LatencyRecorder::from_sketch(self.combined_sketch()).summary()
    }

    /// Fleet-level power saving relative to a baseline fleet (positive when
    /// this fleet uses less total power).
    #[must_use]
    pub fn power_saving_vs(&self, baseline: &FleetResult) -> f64 {
        let base = baseline.total_power_w();
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.total_power_w() / base
    }
}

/// One line per server (config, workload, throughput, power, p99/p999),
/// then the fleet totals — the format the scenario tables embed.
impl std::fmt::Display for FleetResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, r) in self.runs.iter().enumerate() {
            writeln!(
                f,
                "server {i:>3}: {:<9} {:<10} {:>10.0} rps {:>7.1} W p99 {} p999 {}",
                r.config_name,
                r.workload,
                r.throughput(),
                r.avg_total_power().as_f64(),
                r.latency.p99,
                r.latency.p999,
            )?;
        }
        write!(
            f,
            "fleet     : {} servers {:>10.0} rps {:>7.1} W worst p99 {} p999 {}",
            self.servers(),
            self.aggregate_throughput(),
            self.total_power_w(),
            self.worst_p99(),
            self.worst_p999(),
        )
    }
}
