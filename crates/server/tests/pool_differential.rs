//! Differential suite for the run pool behind `ClusterFleet` and
//! `ChainFleet` over nonzero-latency fabrics: every pooled run must be
//! **bit-identical** (exact `PartialEq`, no tolerances) to the same fleet
//! run back-to-back on the calling thread — across platforms, routing
//! policies, cluster and chain drivers, two-tier and fat-tree topologies,
//! and forced worker counts of 2/4/8 (more workers than members, and more
//! workers than a 1-CPU CI host has cores).

use std::fmt::Debug;

use apc_network::NetworkConfig;
use apc_server::balancer::RoutingPolicyKind;
use apc_server::chain::{ChainFleet, ChainMember, ChainResult, RequestGraph};
use apc_server::cluster::{ClusterFleet, ClusterMember, ClusterResult};
use apc_server::config::ServerConfig;
use apc_sim::{SimDuration, SimTime};
use apc_workloads::spec::WorkloadSpec;

use RoutingPolicyKind::{JoinShortestQueue, PowerAware, Random, RoundRobin};

fn two_tier() -> NetworkConfig {
    NetworkConfig::two_tier(SimDuration::from_micros(2), 4)
}

fn fat_tree() -> NetworkConfig {
    NetworkConfig::fat_tree(SimDuration::from_micros(1), 4, 2, 3.0)
}

fn base(platform: fn() -> ServerConfig, seed: u64) -> ServerConfig {
    platform()
        .with_duration(SimDuration::from_millis(10))
        .with_seed(seed)
}

/// Runs a fleet sequentially (`run(None)`) once, then through the pool at
/// 2, 4 and 8 workers, asserting every member used the fabric and the
/// results match bit-for-bit, in member order.
fn assert_pool_identical<R: PartialEq + Debug>(
    label: &str,
    run: impl Fn(Option<usize>) -> Vec<R>,
    routed: impl Fn(&R) -> bool,
) {
    let sequential = run(None);
    assert!(sequential.iter().all(routed), "{label}: fabricless run");
    for workers in [2, 4, 8] {
        let pooled = run(Some(workers));
        assert_eq!(pooled, sequential, "{label}: diverged at {workers} workers");
    }
}

fn clusters(label: &str, members: impl Fn() -> Vec<ClusterMember>) {
    let run = |workers: Option<usize>| {
        let mut fleet = ClusterFleet::new();
        for member in members() {
            fleet.push(member);
        }
        match workers {
            Some(w) => fleet.with_parallelism(w).run(),
            None => fleet.run_sequential(),
        }
    };
    assert_pool_identical(label, run, |r: &ClusterResult| r.network.is_some());
}

fn chains(label: &str, members: impl Fn() -> Vec<ChainMember>) {
    let run = |workers: Option<usize>| {
        let mut fleet = ChainFleet::new();
        for member in members() {
            fleet.push(member);
        }
        match workers {
            Some(w) => fleet.with_parallelism(w).run(),
            None => fleet.run_sequential(),
        }
    };
    assert_pool_identical(label, run, |r: &ChainResult| r.network.is_some());
}

fn cluster(
    config: ServerConfig,
    nodes: usize,
    policy: RoutingPolicyKind,
    spec: WorkloadSpec,
    rate: f64,
    network: NetworkConfig,
) -> ClusterMember {
    ClusterMember::homogeneous(&config, nodes, policy, spec, rate).with_network(network)
}

fn chain(
    config: ServerConfig,
    policy: RoutingPolicyKind,
    fanout: usize,
    rate: f64,
    network: NetworkConfig,
) -> ChainMember {
    let graph = RequestGraph::memcached_fanout(fanout);
    ChainMember::homogeneous(&config, 8, policy, graph, rate).with_network(network)
}

#[test]
fn cluster_two_tier_pool_is_bit_identical_under_every_routing_policy() {
    clusters("two-tier", || {
        let etc = WorkloadSpec::memcached_etc;
        let config = || base(ServerConfig::c_pc1a, 17);
        let member = |p| cluster(config(), 8, p, etc(), 60_000.0, two_tier());
        RoutingPolicyKind::all().map(member).into()
    });
}

#[test]
fn cluster_fat_tree_pool_is_bit_identical_across_platforms() {
    clusters("fat-tree", || {
        let platforms = [
            ServerConfig::c_shallow,
            ServerConfig::c_deep,
            ServerConfig::c_pc1a,
        ];
        let etc = WorkloadSpec::memcached_etc;
        let jsq = JoinShortestQueue;
        let member = |p| cluster(base(p, 23), 8, jsq, etc(), 80_000.0, fat_tree());
        platforms.map(member).into()
    });
}

#[test]
fn cluster_pool_with_idle_workers_keeps_kafka_tails_identical() {
    // Two members over {2, 4, 8} workers: at 4 and 8 workers most of the
    // pool finds the queue already drained.
    clusters("two-tier/kafka", || {
        let config = |seed| base(ServerConfig::c_deep, seed);
        let kafka = WorkloadSpec::kafka;
        let member = |s| cluster(config(s), 6, PowerAware, kafka(), 9_000.0, two_tier());
        [41, 43].map(member).into()
    });
}

#[test]
fn cluster_high_load_same_nanosecond_ties_repeat_exactly() {
    // At 20k req/s per node over 20 ms, service completions routinely
    // collide with routing instants on the same integer nanosecond; the
    // event loop breaks those ties by scheduling order, so JSQ must see the
    // same queue depths on every run and on every pool thread.
    let member = || {
        let config = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(20));
        let etc = WorkloadSpec::memcached_etc();
        cluster(config, 8, JoinShortestQueue, etc, 160_000.0, two_tier())
    };
    assert_eq!(member().run(), member().run(), "a rerun diverged");
    clusters("two-tier/jsq-high-load", || vec![member(), member()]);
}

#[test]
fn chain_two_tier_pool_is_bit_identical_under_routing_policies() {
    chains("chain/two-tier", || {
        let member = |p| chain(base(ServerConfig::c_pc1a, 29), p, 4, 4_000.0, two_tier());
        [Random, JoinShortestQueue, PowerAware].map(member).into()
    });
}

#[test]
fn chain_fat_tree_linear_pool_is_bit_identical() {
    chains("chain/fat-tree/linear", || {
        let shallow = |seed| base(ServerConfig::c_shallow, seed);
        let member = |s| chain(shallow(s), RoundRobin, 8, 2_500.0, fat_tree());
        [31, 37].map(member).into()
    });
}

#[test]
fn fabric_horizon_off_the_link_latency_grid_pools_identically() {
    // A link latency that does not divide the measurement horizon: the
    // last wire transfers straddle the end of the run.
    let horizon = SimTime::from_nanos(9_999_700).saturating_since(SimTime::ZERO);
    clusters("two-tier/ragged-horizon", || {
        let config = |seed| base(ServerConfig::c_pc1a, seed).with_duration(horizon);
        let net = NetworkConfig::two_tier(SimDuration::from_nanos(1_300), 2);
        let oltp = WorkloadSpec::mysql_oltp;
        let member = |s| cluster(config(s), 4, RoundRobin, oltp(), 4_000.0, net);
        [59, 61].map(member).into()
    });
}

#[test]
fn streamed_fabric_fleets_emit_in_member_order_and_match_run() {
    let clusters = || {
        let mut fleet = ClusterFleet::new();
        for policy in RoutingPolicyKind::all() {
            let pc1a = base(ServerConfig::c_pc1a, 67);
            let etc = WorkloadSpec::memcached_etc();
            fleet.push(cluster(pc1a, 4, policy, etc, 40_000.0, two_tier()));
        }
        fleet.with_parallelism(4)
    };
    let mut seen = Vec::new();
    let streamed = clusters()
        .run_streamed(|i, r| {
            seen.push((i, r.policy));
            Ok::<(), ()>(())
        })
        .expect("emit never fails");
    assert_eq!(streamed, clusters().run_sequential());
    let expected: Vec<_> = streamed.iter().map(|r| r.policy).enumerate().collect();
    assert_eq!(seen, expected, "emitted out of member order");

    let chains = || {
        let mut fleet = ChainFleet::new();
        for seed in [71, 73, 79] {
            let deep = base(ServerConfig::c_deep, seed);
            fleet.push(chain(deep, JoinShortestQueue, 4, 3_000.0, fat_tree()));
        }
        fleet.with_parallelism(8)
    };
    let mut order = Vec::new();
    let streamed = chains()
        .run_streamed(|i, _| {
            order.push(i);
            Ok::<(), ()>(())
        })
        .expect("emit never fails");
    assert_eq!(order, [0, 1, 2]);
    assert_eq!(streamed, chains().run_sequential());
}
