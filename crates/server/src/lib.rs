//! # `apc-server` — full-system datacenter server simulation
//!
//! The testbed substitute: an event-driven simulation of a latency-critical
//! service running on the modelled Skylake-SP server under one of the
//! paper's platform configurations, producing the power, residency and
//! latency measurements every figure of the evaluation is built from.
//!
//! * [`config`] — [`config::ServerConfig`] (topology, platform, power model,
//!   NIC coalescing, background noise);
//! * [`components`] — the simulation decomposed into registered
//!   [`apc_sim::component::EventHandler`] components (NIC/arrival, dispatch
//!   scheduler, per-core execution, package controller, power/telemetry),
//!   each node-scoped through the [`components::state::HasNode`] view of
//!   the shared state ([`components::state::ServerState`] for one server,
//!   [`components::state::ClusterState`] for many);
//! * [`node`] — the embeddable [`node::ServerNode`] builder registering one
//!   complete server into an externally owned simulation;
//! * [`sim`] — the thin 1-node [`sim::ServerSimulation`] driver, and the
//!   [`sim::run_experiment`] entry point;
//! * [`cluster`] — [`cluster::ClusterSimulation`]: N nodes plus a load
//!   balancer in one event loop, with per-node and cluster-aggregate
//!   results;
//! * [`balancer`] — the cluster-level arrival stream and the pluggable
//!   [`balancer::RoutingPolicy`] (random, round-robin, join-shortest-queue,
//!   power-aware packing);
//! * [`chain`] — multi-tier RPC request chains ([`chain::RequestGraph`]:
//!   linear chains and frontend → N-leaf scatter-gather with wait-for-all
//!   joins), executed across the cluster by a [`chain::ChainCoordinator`]
//!   that records end-to-end latency and the leaf-straggler gap;
//! * [`fleet`] — the [`fleet::Fleet`] runner executing many independent
//!   server instances in parallel and aggregating their results;
//! * [`scenario`] — declarative [`scenario::Scenario`] specs plus a library
//!   of named fleet experiments (diurnal, flash crowd, heterogeneous,
//!   low-load sweep), cluster-routing scenarios
//!   ([`scenario::ClusterScenario`]) and fan-out chain scenarios
//!   ([`scenario::ChainScenario`]: `mesh-8-fanout4`, `mesh-16-memcached`);
//! * [`result`] — [`result::RunResult`] with derived metrics.
//!
//! # Example
//!
//! ```
//! use apc_server::config::ServerConfig;
//! use apc_server::sim::run_experiment;
//! use apc_sim::SimDuration;
//! use apc_workloads::spec::WorkloadSpec;
//!
//! let cfg = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(20));
//! let result = run_experiment(cfg, WorkloadSpec::memcached_etc(), 10_000.0);
//! assert!(result.avg_soc_power.as_f64() > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod balancer;
pub mod chain;
pub mod cluster;
pub mod components;
pub mod config;
pub mod fleet;
pub mod node;
pub mod result;
pub mod scenario;
pub mod sim;

pub use balancer::{RoutingPolicy, RoutingPolicyKind};
pub use chain::{
    run_chain_experiment, ChainFleet, ChainMember, ChainResult, ChainSimulation, RequestGraph, Tier,
};
pub use cluster::{
    run_cluster_experiment, ClusterFleet, ClusterMember, ClusterResult, ClusterSimulation,
};
pub use config::ServerConfig;
pub use fleet::{Fleet, FleetMember, FleetResult};
pub use node::ServerNode;
pub use result::RunResult;
pub use scenario::{
    ChainScenario, ClusterScenario, MemberGroup, Scenario, ScenarioResult, TrafficPattern,
    WorkloadKind,
};
pub use sim::{run_experiment, ServerSimulation};
