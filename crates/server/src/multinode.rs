//! The one builder behind both multi-node drivers.
//!
//! A [`crate::cluster::ClusterSimulation`] and a
//! [`crate::chain::ChainSimulation`] differ only in their *front*
//! component — the balancer replaying a workload's arrival stream, or the
//! chain coordinator issuing fan-out tiers — and in how they map the run's
//! telemetry into a result. Everything else lives here, once: the shared
//! [`ClusterState`] (with the log of front and fabric instants every node's
//! energy meter is split at), node registration, the network fabric, the
//! trace sampler, the self-profiler, the bootstrap, and end-of-run
//! collection.
//!
//! # Event order
//!
//! Registration order is fixed — every node, then the front component,
//! then the fabric — and so is the bootstrap order: the front's first
//! arrival, then each node's background timers / initial idle entries /
//! power sampling (the standalone server's order, which is what lets a
//! 1-node cluster replay a standalone run bit-for-bit).

use apc_network::{NetworkConfig, NetworkStats};
use apc_sim::component::{EventHandler, Simulation};
use apc_sim::rng::SimRng;
use apc_sim::{SimDuration, SimTime};
use apc_trace::{ProfileReport, TraceLog, TraceState};

use crate::components::fabric::{Fabric, FabricState};
use crate::components::state::ClusterState;
use crate::components::ServerEvent;
use crate::config::ServerConfig;
use crate::fleet::FleetResult;
use crate::node::{NodeHandles, ServerNode};

/// What every node records as its offered load: the workload name, the
/// cluster-wide rate (each node's nominal `offered_rate` is its `1/N`
/// share; the routed census is the actual per-node count) and the client
/// network RTT added to per-request latency.
pub(crate) struct NodeLoad {
    pub workload: &'static str,
    pub total_rate: f64,
    pub network_rtt: SimDuration,
}

/// The front component's registration: its component name, the handler,
/// and its first arrival (instant and event) for the bootstrap.
pub(crate) struct Front<H> {
    pub name: &'static str,
    pub handler: H,
    pub first_arrival: SimTime,
    pub arrival: ServerEvent,
}

/// N complete server nodes, a front component and the fabric in one event
/// loop.
pub(crate) struct MultiNode {
    sim: Simulation<ServerEvent, ClusterState>,
    nodes: Vec<NodeHandles>,
    end_at: SimTime,
    profile: bool,
}

/// The driver-independent part of a finished multi-node run.
pub(crate) struct Finished {
    pub duration: SimDuration,
    pub events_dispatched: u64,
    pub network: Option<NetworkStats>,
    pub trace: Option<TraceLog>,
    pub profile: Option<ProfileReport>,
    pub nodes: FleetResult,
}

impl MultiNode {
    /// Builds the simulation under cluster seed `seed`: one node per
    /// config, `front` feeding them, every routed deposit crossing
    /// `network` when one is given.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or the configs disagree on duration
    /// (every node must share the measurement horizon).
    pub(crate) fn new<H: EventHandler<ServerEvent, ClusterState> + 'static>(
        seed: u64,
        configs: Vec<ServerConfig>,
        load: &NodeLoad,
        front: Front<H>,
        network: Option<NetworkConfig>,
    ) -> Self {
        assert!(!configs.is_empty(), "a cluster needs at least one node");
        let duration = configs[0].duration;
        assert!(
            configs.iter().all(|c| c.duration == duration),
            "every cluster node must share one measurement duration"
        );
        let node_count = configs.len();
        // Observability is a cluster-level concern (one sampler, one span
        // log, one event loop to profile): the first node's config decides.
        let trace_config = configs[0].trace;
        let profile = configs[0].profile;

        let mut state = ClusterState::new(configs);
        let per_node_rate = load.total_rate / node_count as f64;
        for node in &mut state.nodes {
            node.workload_name = load.workload;
            node.offered_rate = per_node_rate;
            node.network_rtt = load.network_rtt;
        }

        let mut sim = Simulation::new(seed, state);
        let builders: Vec<ServerNode> = (0..node_count).map(ServerNode::new).collect();
        let nodes: Vec<NodeHandles> = builders
            .iter()
            .map(|b| b.register(&mut sim, None))
            .collect();
        // Each node's observers are scoped to the node's own components (see
        // `ServerNode::register`). Front and fabric events deposit into a
        // node's NIC buffer — the instant a standalone server would account
        // through its own `ClientArrival` — so their handlers record that
        // instant in the shared `FrontInstants` log, which every node's power
        // observer charges lazily; no observer runs on them.
        let front_id = sim.add_component(front.name, front.handler);
        // The fabric component registers even without a `[network]`
        // configuration: registration forks its RNG stream by name (a pure
        // function that perturbs no other stream) and an absent fabric never
        // receives an event, so the no-network event sequence is untouched.
        let fabric_id = sim.add_component("fabric", Fabric);
        sim.shared_mut().fabric =
            network.map(|config| FabricState::new(config, node_count, fabric_id));
        sim.shared_mut().trace = trace_config
            .map(|config| TraceState::new(config, SimRng::from_seed(seed).fork("trace-sampler")));
        if profile {
            sim.enable_event_profile(ServerEvent::KIND_COUNT, ServerEvent::kind);
        }
        sim.schedule(front_id, front.first_arrival, front.arrival);
        for (builder, handles) in builders.iter().zip(&nodes) {
            builder.bootstrap(&mut sim, handles);
        }

        MultiNode {
            sim,
            nodes,
            end_at: SimTime::ZERO + duration,
            profile,
        }
    }

    /// Number of server nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The underlying component simulation.
    pub(crate) fn simulation(&self) -> &Simulation<ServerEvent, ClusterState> {
        &self.sim
    }

    /// Runs to the horizon and collects the engine census, the fabric's
    /// wire statistics, the self-profile, the span log and every node's
    /// result.
    pub(crate) fn run(mut self) -> Finished {
        let events_dispatched = self.sim.run_until(self.end_at);
        let end = self.end_at;
        let network = self
            .sim
            .shared()
            .fabric
            .as_ref()
            .map(|f| f.net.stats().clone());
        let profile = self
            .profile
            .then(|| crate::components::profile_report(&self.sim));
        let runs = self
            .nodes
            .iter()
            .map(|handles| handles.collect_result(self.sim.shared_mut(), end))
            .collect();
        let trace = self.sim.shared_mut().trace.take().map(TraceState::into_log);
        Finished {
            duration: end.saturating_since(SimTime::ZERO),
            events_dispatched,
            network,
            trace,
            profile,
            nodes: FleetResult { runs },
        }
    }
}

/// How unevenly a policy spread work: max/mean routed per node (1.0 =
/// perfectly even, N = everything on one of N nodes; 1.0 when nothing was
/// routed).
pub(crate) fn routing_imbalance(routed: &[u64]) -> f64 {
    let total: u64 = routed.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / routed.len() as f64;
    let max = routed.iter().copied().max().unwrap_or(0) as f64;
    max / mean
}
