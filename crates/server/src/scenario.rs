//! Declarative fleet-experiment scenarios.
//!
//! A [`Scenario`] is a data-only description of a fleet experiment: how many
//! servers, which workload and traffic shape each group of servers sees, how
//! long the run lasts and which seed it starts from. Materialising it
//! against a platform configuration ([`Scenario::run`]) builds a [`Fleet`],
//! executes it (in parallel — see the [`crate::fleet`] module docs) and
//! wraps the aggregate in a [`ScenarioResult`] ready for comparison tables.
//!
//! The module ships a small library of named scenarios
//! ([`Scenario::library`]) that exercise the fleet dimensions the paper's
//! single-server figures cannot show: a compressed diurnal load curve, a
//! flash-crowd burst, a heterogeneous Memcached/Kafka/MySQL fleet and a
//! low-load energy-proportionality sweep.
//!
//! Member seeds are derived from the scenario seed with the canonical
//! label-fork scheme documented on [`apc_sim::rng::SimRng::fork`], under the
//! same `"server {i}"` labels the fleet runner uses, so scenario runs are
//! exactly reproducible and member streams are pairwise independent.
//!
//! # Example
//!
//! ```
//! use apc_server::config::ServerConfig;
//! use apc_server::scenario::Scenario;
//! use apc_sim::SimDuration;
//!
//! let scenario = Scenario::flash_crowd().with_duration(SimDuration::from_millis(20));
//! let result = scenario.run(&ServerConfig::c_pc1a());
//! assert_eq!(result.fleet.servers(), scenario.servers());
//! assert!(result.fleet.total_power_w() > 0.0);
//! ```

use std::fmt;

use apc_sim::SimDuration;
use apc_workloads::arrival::{
    ArrivalProcess, PiecewiseRateArrivals, RateSegment, SinusoidArrivals,
};
use apc_workloads::spec::WorkloadSpec;

use crate::balancer::RoutingPolicyKind;
use crate::chain::{ChainMember, ChainResult, RequestGraph};
use crate::cluster::{ClusterMember, ClusterResult};
use crate::config::ServerConfig;
use crate::fleet::{Fleet, FleetMember, FleetResult};

/// Which of the modelled services a member group runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Memcached under the Facebook ETC mix ([`WorkloadSpec::memcached_etc`]).
    MemcachedEtc,
    /// Kafka produce/consume streaming ([`WorkloadSpec::kafka`]).
    Kafka,
    /// MySQL running sysbench-OLTP transactions ([`WorkloadSpec::mysql_oltp`]).
    MysqlOltp,
}

impl WorkloadKind {
    /// Builds a fresh specification for this workload (specs own boxed
    /// distributions and cannot be cloned, so each member gets its own).
    #[must_use]
    pub fn spec(self) -> WorkloadSpec {
        match self {
            WorkloadKind::MemcachedEtc => WorkloadSpec::memcached_etc(),
            WorkloadKind::Kafka => WorkloadSpec::kafka(),
            WorkloadKind::MysqlOltp => WorkloadSpec::mysql_oltp(),
        }
    }

    /// The service name as it appears in results and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::MemcachedEtc => "memcached",
            WorkloadKind::Kafka => "kafka",
            WorkloadKind::MysqlOltp => "mysql",
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The shape of a member group's offered traffic over the run.
///
/// Time-varying patterns are expressed relative to the scenario duration so
/// one scenario definition scales from unit-test windows to long production
/// runs without re-tuning.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficPattern {
    /// The workload's default stationary arrivals (bursty MMPP for the
    /// built-in specs) at a constant offered rate.
    Constant {
        /// Offered rate in requests per second.
        rate_per_sec: f64,
    },
    /// A sinusoidal day/night curve compressed into the run: one full
    /// oscillation over the scenario duration.
    Diurnal {
        /// Long-run average rate in requests per second.
        mean_rate_per_sec: f64,
        /// Relative swing in `[0, 1)`: 0.75 oscillates between 0.25× and
        /// 1.75× the mean.
        swing: f64,
    },
    /// A transient burst: base rate, then `peak_multiplier ×` base for a
    /// window, then base again.
    FlashCrowd {
        /// Rate outside the burst, in requests per second.
        base_rate_per_sec: f64,
        /// Rate multiplier during the burst.
        peak_multiplier: f64,
        /// Burst start, as a fraction of the scenario duration in `(0, 1)`.
        start_fraction: f64,
        /// Burst length, as a fraction of the scenario duration in `(0, 1)`.
        length_fraction: f64,
    },
    /// An explicit piecewise-constant rate schedule.
    Steps {
        /// The schedule segments (absolute durations).
        segments: Vec<RateSegment>,
        /// Whether the schedule repeats or the last rate holds.
        repeat: bool,
    },
}

impl TrafficPattern {
    /// The pattern's long-run average rate (time-weighted over the schedule
    /// for the piecewise patterns).
    #[must_use]
    pub fn mean_rate_per_sec(&self) -> f64 {
        match self {
            TrafficPattern::Constant { rate_per_sec } => *rate_per_sec,
            TrafficPattern::Diurnal {
                mean_rate_per_sec, ..
            } => *mean_rate_per_sec,
            TrafficPattern::FlashCrowd {
                base_rate_per_sec,
                peak_multiplier,
                length_fraction,
                ..
            } => base_rate_per_sec * (1.0 + (peak_multiplier - 1.0) * length_fraction),
            TrafficPattern::Steps { segments, .. } => {
                let total: f64 = segments.iter().map(|s| s.duration.as_secs_f64()).sum();
                if total <= 0.0 {
                    return 0.0;
                }
                segments
                    .iter()
                    .map(|s| s.rate_per_sec * s.duration.as_secs_f64())
                    .sum::<f64>()
                    / total
            }
        }
    }

    /// Builds the arrival process for one member, or `None` when the
    /// workload's own stationary process should be used
    /// ([`TrafficPattern::Constant`]).
    #[must_use]
    pub fn arrival_process(&self, duration: SimDuration) -> Option<Box<dyn ArrivalProcess>> {
        match self {
            TrafficPattern::Constant { .. } => None,
            TrafficPattern::Diurnal {
                mean_rate_per_sec,
                swing,
            } => Some(Box::new(SinusoidArrivals::new(
                *mean_rate_per_sec,
                *swing,
                duration,
                0.0,
            ))),
            TrafficPattern::FlashCrowd {
                base_rate_per_sec,
                peak_multiplier,
                start_fraction,
                length_fraction,
            } => Some(Box::new(PiecewiseRateArrivals::flash_crowd(
                *base_rate_per_sec,
                *peak_multiplier,
                duration.mul_f64(*start_fraction),
                duration.mul_f64(*length_fraction),
            ))),
            TrafficPattern::Steps { segments, repeat } => Some(Box::new(
                PiecewiseRateArrivals::new(segments.clone(), *repeat),
            )),
        }
    }
}

/// A group of identical servers within a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberGroup {
    /// Number of servers in the group.
    pub count: usize,
    /// The service every server in the group runs.
    pub workload: WorkloadKind,
    /// The traffic each server receives.
    pub traffic: TrafficPattern,
}

impl MemberGroup {
    /// A group of `count` servers running `workload` under `traffic`.
    #[must_use]
    pub fn new(count: usize, workload: WorkloadKind, traffic: TrafficPattern) -> Self {
        MemberGroup {
            count,
            workload,
            traffic,
        }
    }
}

/// A declarative fleet-experiment specification.
///
/// A scenario is platform-agnostic: the same spec runs under `Cshallow`,
/// `Cdeep` and `CPC1A` by passing different base configurations to
/// [`Scenario::run`], which is exactly what comparison tables need.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Short name used in tables ("diurnal", "flash-crowd", ...).
    pub name: &'static str,
    /// One-line description of what the scenario exercises.
    pub description: &'static str,
    /// Simulated duration of every member's run.
    pub duration: SimDuration,
    /// Root seed; member seeds are forked from it (see the module docs).
    pub seed: u64,
    /// The member groups making up the fleet.
    pub groups: Vec<MemberGroup>,
}

impl Scenario {
    /// A scenario with the given name, groups and defaults (200 ms window,
    /// seed `0x5ce0`).
    #[must_use]
    pub fn new(name: &'static str, description: &'static str, groups: Vec<MemberGroup>) -> Self {
        Scenario {
            name,
            description,
            duration: SimDuration::from_millis(200),
            seed: 0x5ce0,
            groups,
        }
    }

    /// Overrides the simulated duration (tests use short windows).
    #[must_use]
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Overrides the root seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total number of servers across all groups.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// Materialises the scenario into a fleet on top of `base` (which
    /// supplies the platform, power model and noise; its duration and seed
    /// are replaced by the scenario's).
    #[must_use]
    pub fn build_fleet(&self, base: &ServerConfig) -> Fleet {
        let mut fleet = Fleet::new();
        let mut index = 0usize;
        for group in &self.groups {
            for _ in 0..group.count {
                let config = base
                    .clone()
                    .with_duration(self.duration)
                    .with_seed(Fleet::member_seed(self.seed, index));
                let rate = group.traffic.mean_rate_per_sec();
                let mut member = FleetMember::new(config, group.workload.spec(), rate);
                if let Some(arrivals) = group.traffic.arrival_process(self.duration) {
                    member = member.with_arrival_process(arrivals);
                }
                fleet.push(member);
                index += 1;
            }
        }
        fleet
    }

    /// Builds and executes the scenario under `base`.
    #[must_use]
    pub fn run(&self, base: &ServerConfig) -> ScenarioResult {
        ScenarioResult {
            scenario: self.name,
            config_name: base.platform.name,
            servers: self.servers(),
            fleet: self.build_fleet(base).run().into(),
        }
    }

    // ---- the named scenario library ------------------------------------

    /// Eight Memcached servers riding one compressed day/night cycle: load
    /// swings between 0.25× and 1.75× of 40 K QPS over the run. Exercises
    /// PC1A residency tracking the diurnal trough.
    #[must_use]
    pub fn diurnal() -> Self {
        Scenario::new(
            "diurnal",
            "memcached fleet under a compressed day/night load curve",
            vec![MemberGroup::new(
                8,
                WorkloadKind::MemcachedEtc,
                TrafficPattern::Diurnal {
                    mean_rate_per_sec: 40_000.0,
                    swing: 0.75,
                },
            )],
        )
    }

    /// Six Memcached servers hit by a 6× flash crowd for 20 % of the run,
    /// starting at 40 %. Exercises wake-up behaviour when a quiet fleet is
    /// suddenly saturated.
    #[must_use]
    pub fn flash_crowd() -> Self {
        Scenario::new(
            "flash-crowd",
            "quiet memcached fleet hit by a sudden 6x traffic spike",
            vec![MemberGroup::new(
                6,
                WorkloadKind::MemcachedEtc,
                TrafficPattern::FlashCrowd {
                    base_rate_per_sec: 20_000.0,
                    peak_multiplier: 6.0,
                    start_fraction: 0.4,
                    length_fraction: 0.2,
                },
            )],
        )
    }

    /// A mixed-service fleet — four Memcached, two Kafka, two MySQL servers —
    /// each at its paper low/mid operating point. Exercises fleet aggregation
    /// across heterogeneous latency and power profiles.
    #[must_use]
    pub fn heterogeneous_fleet() -> Self {
        Scenario::new(
            "heterogeneous",
            "mixed memcached/kafka/mysql fleet at paper operating points",
            vec![
                MemberGroup::new(
                    4,
                    WorkloadKind::MemcachedEtc,
                    TrafficPattern::Constant {
                        rate_per_sec: 25_000.0,
                    },
                ),
                MemberGroup::new(
                    2,
                    WorkloadKind::Kafka,
                    TrafficPattern::Constant {
                        rate_per_sec: 8_000.0,
                    },
                ),
                MemberGroup::new(
                    2,
                    WorkloadKind::MysqlOltp,
                    TrafficPattern::Constant {
                        rate_per_sec: 800.0,
                    },
                ),
            ],
        )
    }

    /// One Memcached server per low-load operating point (4 K – 100 K QPS):
    /// the fleet-level view of the paper's energy-proportionality story,
    /// where package idle recovery matters most.
    #[must_use]
    pub fn low_load_sweep() -> Self {
        let points = [4_000.0, 10_000.0, 25_000.0, 50_000.0, 100_000.0];
        Scenario::new(
            "low-load-sweep",
            "memcached servers spanning the paper's low-load region",
            points
                .iter()
                .map(|&rate_per_sec| {
                    MemberGroup::new(
                        1,
                        WorkloadKind::MemcachedEtc,
                        TrafficPattern::Constant { rate_per_sec },
                    )
                })
                .collect(),
        )
    }

    /// Every named scenario, in presentation order.
    #[must_use]
    pub fn library() -> Vec<Scenario> {
        vec![
            Scenario::diurnal(),
            Scenario::flash_crowd(),
            Scenario::heterogeneous_fleet(),
            Scenario::low_load_sweep(),
        ]
    }
}

/// The outcome of running one scenario under one platform configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The scenario's name.
    pub scenario: &'static str,
    /// The platform configuration it ran under.
    pub config_name: &'static str,
    /// Number of servers in the fleet.
    pub servers: usize,
    /// The aggregated fleet outcome.
    pub fleet: FleetResult,
}

/// One summary line: scenario, platform, fleet throughput, power, latency
/// and PC1A residency — the row format of the scenario matrix tables.
impl fmt::Display for ScenarioResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<15} {:<9} {:>2} servers {:>10.0} rps {:>7.1} W mean {} worst p99 {} p999 {} PC1A {:>5.1}%",
            self.scenario,
            self.config_name,
            self.servers,
            self.fleet.aggregate_throughput(),
            self.fleet.total_power_w(),
            self.fleet.mean_latency(),
            self.fleet.worst_p99(),
            self.fleet.worst_p999(),
            self.fleet.mean_pc1a_residency() * 100.0,
        )
    }
}

/// A declarative cluster-routing experiment: an N-node cluster serving one
/// workload at a cluster-aggregate rate, to be run under each routing policy
/// × platform configuration of interest.
///
/// Like [`Scenario`], a `ClusterScenario` is platform- and policy-agnostic
/// data: the same spec runs under `Cshallow`/`Cdeep`/`CPC1A` and under any
/// [`RoutingPolicyKind`] by varying the arguments to [`ClusterScenario::run`]
/// — exactly the two axes the cluster comparison tables sweep.
///
/// # Example
///
/// ```
/// use apc_server::balancer::RoutingPolicyKind;
/// use apc_server::config::ServerConfig;
/// use apc_server::scenario::ClusterScenario;
/// use apc_sim::SimDuration;
///
/// let scenario = ClusterScenario::eight_node_memcached()
///     .with_duration(SimDuration::from_millis(20));
/// let result = scenario.run(&ServerConfig::c_pc1a(), RoutingPolicyKind::PowerAware);
/// assert_eq!(result.nodes.servers(), 8);
/// assert_eq!(result.policy, "power-aware");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterScenario {
    /// Short name used in tables.
    pub name: &'static str,
    /// One-line description of what the scenario exercises.
    pub description: &'static str,
    /// Number of server nodes in the cluster.
    pub nodes: usize,
    /// The workload of the cluster arrival stream.
    pub workload: WorkloadKind,
    /// Cluster-aggregate offered rate (requests per second).
    pub total_rate_per_sec: f64,
    /// Simulated duration of the run.
    pub duration: SimDuration,
    /// Cluster seed (node seeds fork from it; see
    /// [`crate::cluster::ClusterMember::homogeneous`]).
    pub seed: u64,
}

impl ClusterScenario {
    /// A cluster scenario with the given shape and the library defaults
    /// (100 ms window, seed `0x5ce0`).
    #[must_use]
    pub fn new(
        name: &'static str,
        description: &'static str,
        nodes: usize,
        workload: WorkloadKind,
        total_rate_per_sec: f64,
    ) -> Self {
        ClusterScenario {
            name,
            description,
            nodes,
            workload,
            total_rate_per_sec,
            duration: SimDuration::from_millis(100),
            seed: 0x5ce0,
        }
    }

    /// Overrides the simulated duration (tests use short windows).
    #[must_use]
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Overrides the cluster seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Materialises and runs the scenario on top of `base` (which supplies
    /// the platform, power model and noise; its duration and seed are
    /// replaced by the scenario's) under `policy`.
    #[must_use]
    pub fn run(&self, base: &ServerConfig, policy: RoutingPolicyKind) -> ClusterResult {
        let base = base
            .clone()
            .with_duration(self.duration)
            .with_seed(self.seed);
        ClusterMember::homogeneous(
            &base,
            self.nodes,
            policy,
            self.workload.spec(),
            self.total_rate_per_sec,
        )
        .run()
    }

    // ---- the named cluster-scenario library ----------------------------

    /// Eight Memcached nodes at the paper's mid operating point (20 K QPS
    /// per node aggregate). The headline cluster comparison: how routing
    /// reshapes idle-period distributions at realistic load.
    #[must_use]
    pub fn eight_node_memcached() -> Self {
        ClusterScenario::new(
            "cluster-8-mid",
            "8-node memcached cluster at the mid operating point",
            8,
            WorkloadKind::MemcachedEtc,
            160_000.0,
        )
    }

    /// Eight Memcached nodes in the diurnal trough (3 K QPS per node
    /// aggregate): the regime where packing policies let most of the
    /// cluster sleep.
    #[must_use]
    pub fn eight_node_trough() -> Self {
        ClusterScenario::new(
            "cluster-8-trough",
            "8-node memcached cluster at trough load",
            8,
            WorkloadKind::MemcachedEtc,
            24_000.0,
        )
    }

    /// A sixteen-node Kafka cluster at moderate streaming load: wider
    /// fan-out, longer per-request service.
    #[must_use]
    pub fn sixteen_node_kafka() -> Self {
        ClusterScenario::new(
            "cluster-16-kafka",
            "16-node kafka cluster under moderate streaming load",
            16,
            WorkloadKind::Kafka,
            64_000.0,
        )
    }

    /// Every named cluster scenario, in presentation order.
    #[must_use]
    pub fn library() -> Vec<ClusterScenario> {
        vec![
            ClusterScenario::eight_node_memcached(),
            ClusterScenario::eight_node_trough(),
            ClusterScenario::sixteen_node_kafka(),
        ]
    }
}

/// A declarative fan-out chain experiment: an N-node cluster executing one
/// [`RequestGraph`] (frontend → fan-out leaves with wait-for-all joins) at a
/// root-chain arrival rate, to be run under each routing policy × platform
/// configuration of interest.
///
/// This is the traffic class that motivates PC1A: the scatter-gather join
/// waits for the slowest leaf, so one node waking from a deep package
/// C-state stretches the whole chain's tail. Expect `Cdeep` to widen the
/// end-to-end p999 where `CPC1A` holds both power and tail.
///
/// # Example
///
/// ```
/// use apc_server::balancer::RoutingPolicyKind;
/// use apc_server::config::ServerConfig;
/// use apc_server::scenario::ChainScenario;
/// use apc_sim::SimDuration;
///
/// let scenario = ChainScenario::mesh_8_fanout4()
///     .with_duration(SimDuration::from_millis(20));
/// let result = scenario.run(&ServerConfig::c_pc1a(), RoutingPolicyKind::JoinShortestQueue);
/// assert_eq!(result.nodes.servers(), 8);
/// assert!(result.chains_completed > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChainScenario {
    /// Short name used in tables.
    pub name: &'static str,
    /// One-line description of what the scenario exercises.
    pub description: &'static str,
    /// Number of server nodes in the cluster.
    pub nodes: usize,
    /// The chain shape every root request executes.
    pub graph: RequestGraph,
    /// Root-chain arrival rate (chains per second).
    pub chains_per_sec: f64,
    /// Simulated duration of the run.
    pub duration: SimDuration,
    /// Cluster seed (node seeds fork from it; see
    /// [`crate::chain::ChainMember::homogeneous`]).
    pub seed: u64,
}

impl ChainScenario {
    /// A chain scenario with the given shape and the library defaults
    /// (100 ms window, seed `0x5ce0`).
    #[must_use]
    pub fn new(
        name: &'static str,
        description: &'static str,
        nodes: usize,
        graph: RequestGraph,
        chains_per_sec: f64,
    ) -> Self {
        ChainScenario {
            name,
            description,
            nodes,
            graph,
            chains_per_sec,
            duration: SimDuration::from_millis(100),
            seed: 0x5ce0,
        }
    }

    /// Overrides the simulated duration (tests use short windows).
    #[must_use]
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Overrides the cluster seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Materialises and runs the scenario on top of `base` (which supplies
    /// the platform, power model and noise; its duration and seed are
    /// replaced by the scenario's) under `policy`.
    #[must_use]
    pub fn run(&self, base: &ServerConfig, policy: RoutingPolicyKind) -> ChainResult {
        let base = base
            .clone()
            .with_duration(self.duration)
            .with_seed(self.seed);
        ChainMember::homogeneous(
            &base,
            self.nodes,
            policy,
            self.graph.clone(),
            self.chains_per_sec,
        )
        .run()
    }

    // ---- the named chain-scenario library ------------------------------

    /// Eight nodes, memcached scatter-gather with fan-out 4 at 8 K chains/s
    /// (40 K RPC/s cluster-wide): the headline fan-out comparison — how wake
    /// latency compounds at the join under `Cshallow`/`Cdeep`/`CPC1A`.
    #[must_use]
    pub fn mesh_8_fanout4() -> Self {
        ChainScenario::new(
            "mesh-8-fanout4",
            "8-node memcached scatter-gather, fan-out 4, wait-for-all join",
            8,
            RequestGraph::memcached_fanout(4),
            8_000.0,
        )
    }

    /// Sixteen nodes, memcached scatter-gather with fan-out 8 at 6 K
    /// chains/s: wider fan-in, more chances for one leaf to land on a
    /// sleeping node — the regime where the straggler gap dominates p999.
    #[must_use]
    pub fn mesh_16_memcached() -> Self {
        ChainScenario::new(
            "mesh-16-memcached",
            "16-node memcached scatter-gather, fan-out 8, straggler-bound tail",
            16,
            RequestGraph::memcached_fanout(8),
            6_000.0,
        )
    }

    /// Every named chain scenario, in presentation order.
    #[must_use]
    pub fn library() -> Vec<ChainScenario> {
        vec![
            ChainScenario::mesh_8_fanout4(),
            ChainScenario::mesh_16_memcached(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_pattern_mean_rates() {
        let d = SimDuration::from_millis(100);
        let c = TrafficPattern::Constant {
            rate_per_sec: 5_000.0,
        };
        assert_eq!(c.mean_rate_per_sec(), 5_000.0);
        assert!(c.arrival_process(d).is_none());

        let fc = TrafficPattern::FlashCrowd {
            base_rate_per_sec: 10_000.0,
            peak_multiplier: 6.0,
            start_fraction: 0.4,
            length_fraction: 0.2,
        };
        // Burst adds (6 - 1) * 0.2 = 1.0x of base on average.
        assert!((fc.mean_rate_per_sec() - 20_000.0).abs() < 1e-9);
        assert!(fc.arrival_process(d).is_some());

        let steps = TrafficPattern::Steps {
            segments: vec![
                RateSegment::new(SimDuration::from_millis(10), 1_000.0),
                RateSegment::new(SimDuration::from_millis(30), 5_000.0),
            ],
            repeat: true,
        };
        assert!((steps.mean_rate_per_sec() - 4_000.0).abs() < 1e-9);
    }

    #[test]
    fn build_fleet_honours_groups_and_seeds() {
        let scenario = Scenario::heterogeneous_fleet();
        let fleet = scenario.build_fleet(&ServerConfig::c_pc1a());
        assert_eq!(fleet.len(), scenario.servers());
        assert_eq!(fleet.len(), 8);
    }

    #[test]
    fn offered_rate_reflects_run_horizon_not_schedule() {
        // A flash crowd whose schedule spans only 40 % of the run: the
        // nominal rate recorded in results must be the mean over the run
        // (base * (1 + (mult-1) * length)), not the schedule-weighted mean
        // the arrival process itself reports.
        let pattern = TrafficPattern::FlashCrowd {
            base_rate_per_sec: 10_000.0,
            peak_multiplier: 6.0,
            start_fraction: 0.1,
            length_fraction: 0.2,
        };
        assert!((pattern.mean_rate_per_sec() - 20_000.0).abs() < 1e-9);
        let scenario = Scenario::new(
            "short-burst",
            "burst schedule shorter than the run",
            vec![MemberGroup::new(1, WorkloadKind::MemcachedEtc, pattern)],
        )
        .with_duration(SimDuration::from_millis(10));
        let result = scenario.run(&ServerConfig::c_pc1a());
        assert!((result.fleet.runs[0].offered_rate - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn scenario_runs_are_reproducible() {
        let scenario = Scenario::diurnal().with_duration(SimDuration::from_millis(10));
        let base = ServerConfig::c_pc1a();
        assert_eq!(scenario.run(&base), scenario.run(&base));
        let reseeded = scenario.clone().with_seed(99);
        assert_ne!(scenario.run(&base), reseeded.run(&base));
    }
}
