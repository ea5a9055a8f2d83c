//! Multi-tier RPC request chains across the cluster: scatter-gather fan-out
//! with wait-for-all joins, and the end-to-end latency they produce.
//!
//! The paper's motivation is microservice traffic where one client request
//! becomes a *chain* of internal RPCs — a frontend parses it, fans out to N
//! storage leaves (the memcached scatter-gather pattern) and joins the
//! responses. End-to-end latency is then decided by the **slowest leaf**, so
//! every microsecond of wake latency compounds at the join and tail latency
//! is shaped by *coordinated* idleness across the cluster. This module makes
//! that traffic class simulable:
//!
//! * [`RequestGraph`] — the shape of a chain: sequential tiers, each a
//!   [`Tier`] of `width` parallel RPCs (width 1 = a linear hop, width N = a
//!   fan-out joined by wait-for-all) with a per-tier service-time spec
//!   ([`apc_workloads::chain::TierService`]);
//! * [`ChainCoordinator`] — one more component in the cluster's event loop:
//!   it owns the root-arrival process, routes every RPC through a pluggable
//!   [`RoutingPolicy`] into node NIC buffers (the same deposit the balancer
//!   performs), joins per-leaf completions reported by the serving cores and
//!   records end-to-end latency (root arrival → last leaf join) plus the
//!   leaf-straggler gap (first → last leaf of a fan-out tier);
//! * [`ChainSimulation`] / [`ChainMember`] / [`ChainFleet`] — the drivers,
//!   mirroring [`crate::cluster`]: N complete server nodes plus the
//!   coordinator in one event loop, runnable declaratively and in parallel
//!   with bit-identical results.
//!
//! # Determinism
//!
//! A chain run is exactly reproducible: node components draw from streams
//! forked off each node's own seed (see [`crate::node::ServerNode`]), the
//! coordinator's routing policy from the cluster seed's
//! `"chain-coordinator"` stream, and root arrivals plus per-tier service
//! times from the cluster seed's `"chain-loadgen"` stream. [`ChainResult`]'s
//! `PartialEq` is exact, and a parallel [`ChainFleet`] run equals its
//! sequential path bit-for-bit (`crates/server/tests/chain.rs`).
//!
//! # Example
//!
//! ```
//! use apc_server::balancer::RoutingPolicyKind;
//! use apc_server::chain::{run_chain_experiment, RequestGraph};
//! use apc_server::config::ServerConfig;
//! use apc_sim::SimDuration;
//!
//! let base = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(20));
//! let result = run_chain_experiment(
//!     &base,
//!     4,                                  // nodes
//!     RoutingPolicyKind::JoinShortestQueue,
//!     RequestGraph::memcached_fanout(4),  // frontend -> 4 leaves
//!     5_000.0,                            // root chains per second
//! );
//! assert_eq!(result.nodes.servers(), 4);
//! assert!(result.chains_completed > 0);
//! // The join waits for the slowest leaf: the end-to-end tail dominates
//! // the straggler gap by construction.
//! assert!(result.chain_latency.p99 >= result.straggler.p99);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use apc_sim::component::Simulation;
use apc_sim::rng::SimRng;
use apc_sim::{SimDuration, SimTime};
use apc_telemetry::latency::{LatencyRecorder, LatencySummary};
use apc_trace::{ProfileReport, Span, SpanKind, TraceCtx, TraceLog, TraceState};
use apc_workloads::arrival::{ArrivalProcess, PoissonArrivals};
use apc_workloads::chain::TierService;
use apc_workloads::request::{ChainTag, Request, RequestId};

use apc_sim::component::{EventHandler, SimulationContext};

use apc_network::{NetworkConfig, NetworkStats};

use crate::balancer::{RoutingPolicy, RoutingPolicyKind};
use crate::components::fabric::{deliver_routed, Fabric, FabricState};
use crate::components::state::{ClusterState, HasNode};
use crate::components::ServerEvent;
use crate::config::ServerConfig;
use crate::fleet::{effective_workers, run_pool, run_pool_streamed, Fleet, FleetResult};
use crate::node::{NodeHandles, ServerNode};

/// One tier of a request chain: `width` parallel RPCs drawn from one
/// service-time spec, joined by wait-for-all before the next tier starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tier {
    /// Number of sibling RPCs issued in parallel (1 = a linear hop).
    pub width: usize,
    /// The CPU work of each RPC in this tier.
    pub service: TierService,
}

impl Tier {
    /// A tier of `width` parallel RPCs served per `service`.
    #[must_use]
    pub fn new(width: usize, service: TierService) -> Self {
        Tier { width, service }
    }
}

/// The shape of a multi-tier request chain: sequential tiers, each fanned
/// out `width` ways and joined (wait-for-all) before the next tier issues.
///
/// Linear chains and frontend → N-leaf scatter-gather are the two common
/// instances; arbitrary tier stacks compose the same way.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestGraph {
    tiers: Vec<Tier>,
}

impl RequestGraph {
    /// A graph from explicit tiers.
    ///
    /// # Panics
    ///
    /// Panics when `tiers` is empty or any tier has width 0 — an empty chain
    /// or tier would complete instantly and silently record zero latency.
    #[must_use]
    pub fn new(tiers: Vec<Tier>) -> Self {
        assert!(!tiers.is_empty(), "a request graph needs at least one tier");
        assert!(
            tiers.iter().all(|t| t.width >= 1),
            "every tier needs at least one RPC"
        );
        RequestGraph { tiers }
    }

    /// A linear chain: one RPC per service, strictly sequential.
    #[must_use]
    pub fn linear(services: Vec<TierService>) -> Self {
        RequestGraph::new(services.into_iter().map(|s| Tier::new(1, s)).collect())
    }

    /// A frontend → N-leaf scatter-gather: one `frontend` RPC, then `width`
    /// parallel `leaf` RPCs joined by wait-for-all.
    #[must_use]
    pub fn fanout(frontend: TierService, leaf: TierService, width: usize) -> Self {
        RequestGraph::new(vec![Tier::new(1, frontend), Tier::new(width, leaf)])
    }

    /// The canonical memcached scatter-gather: a [`TierService::frontend`]
    /// root fanning out to `width` [`TierService::memcached_leaf`] lookups.
    #[must_use]
    pub fn memcached_fanout(width: usize) -> Self {
        RequestGraph::fanout(
            TierService::frontend(),
            TierService::memcached_leaf(),
            width,
        )
    }

    /// The tiers, root first.
    #[must_use]
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// Total RPCs issued per chain (the sum of tier widths).
    #[must_use]
    pub fn rpcs_per_chain(&self) -> u64 {
        self.tiers.iter().map(|t| t.width as u64).sum()
    }

    /// The widest tier's fan-out.
    #[must_use]
    pub fn max_fanout(&self) -> usize {
        self.tiers.iter().map(|t| t.width).max().unwrap_or(0)
    }

    /// `true` when some tier fans out (width > 1), i.e. the chain has a
    /// wait-for-all join whose straggler gap is meaningful.
    #[must_use]
    pub fn has_fanout(&self) -> bool {
        self.max_fanout() > 1
    }

    /// A compact human-readable shape, e.g. `1x frontend -> 4x kv-get`.
    #[must_use]
    pub fn describe(&self) -> String {
        self.tiers
            .iter()
            .map(|t| format!("{}x {}", t.width, t.service.class))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

impl fmt::Display for RequestGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Progress of one in-flight chain inside the coordinator.
#[derive(Debug)]
struct ChainProgress {
    /// When the root request arrived at the coordinator.
    root_arrival: SimTime,
    /// Index of the tier currently in flight.
    tier: usize,
    /// RPCs of the current tier not yet completed.
    outstanding: usize,
    /// First completion instant within the current tier (straggler gap =
    /// last − first on the join of a fan-out tier).
    first_done: Option<SimTime>,
    /// Join bookkeeping for a head-sampled chain (`None` when the chain is
    /// untraced): when the current tier was issued and when each sibling's
    /// completion report arrived, turned into join/tier spans when the tier
    /// joins.
    trace: Option<TierTrace>,
}

/// Per-tier span bookkeeping of a traced chain (see [`ChainProgress::trace`]).
#[derive(Debug)]
struct TierTrace {
    /// When the tier's RPCs were issued.
    tier_start: SimTime,
    /// Arrival instant of each sibling's completion report, in join order.
    reports: Vec<SimTime>,
}

/// The chain-coordinator component: generates root-chain arrivals, fans each
/// tier out across the cluster through a [`RoutingPolicy`], joins per-leaf
/// completions and records chain-level latency telemetry.
///
/// RPC deposits reuse the balancer's exact hand-off into a node's NIC
/// coalescing buffer (the shared `buffer_request` deposit helper in the NIC
/// component), so a node serves chain RPCs
/// indistinguishably from balanced open-loop requests; the serving core
/// reports each completion back via [`ServerEvent::ChainLeafDone`] (routed
/// by the [`ChainTag`] the request carries).
pub struct ChainCoordinator {
    graph: RequestGraph,
    arrivals: Box<dyn ArrivalProcess>,
    /// Private stream for arrival gaps and service-time draws (forked from
    /// the cluster seed by `"chain-loadgen"`, mirroring [`LoadGenerator`]'s
    /// seeding so the policy's component stream stays untouched).
    ///
    /// [`LoadGenerator`]: apc_workloads::loadgen::LoadGenerator
    workload_rng: SimRng,
    policy: Box<dyn RoutingPolicy>,
    routed: Vec<u64>,
    next_arrival: SimTime,
    inflight: BTreeMap<u64, ChainProgress>,
    next_chain_id: u64,
    next_request_id: u64,
    chains_started: u64,
    chains_completed: u64,
    e2e: LatencyRecorder,
    straggler: LatencyRecorder,
}

impl ChainCoordinator {
    /// Creates the coordinator for a cluster of `nodes` nodes executing
    /// `graph` at `chains_per_sec` root arrivals (Poisson), routing each RPC
    /// through `policy`. `seed` is the cluster seed; the coordinator forks
    /// its workload stream from it by the `"chain-loadgen"` label.
    #[must_use]
    pub fn new(
        graph: RequestGraph,
        chains_per_sec: f64,
        policy: Box<dyn RoutingPolicy>,
        nodes: usize,
        seed: u64,
    ) -> Self {
        let mut arrivals: Box<dyn ArrivalProcess> = Box::new(PoissonArrivals::new(chains_per_sec));
        let mut workload_rng = SimRng::from_seed(seed).fork("chain-loadgen");
        // Draw the first gap at construction so roots do not all start at
        // t = 0 (the same convention the open-loop load generator uses).
        let first_gap = arrivals.next_gap(&mut workload_rng);
        ChainCoordinator {
            graph,
            arrivals,
            workload_rng,
            policy,
            routed: vec![0; nodes],
            next_arrival: SimTime::ZERO + first_gap,
            inflight: BTreeMap::new(),
            next_chain_id: 0,
            next_request_id: 0,
            chains_started: 0,
            chains_completed: 0,
            e2e: LatencyRecorder::new(),
            straggler: LatencyRecorder::new(),
        }
    }

    /// The arrival time of the first root chain (for the driver bootstrap).
    #[must_use]
    pub fn first_arrival(&self) -> SimTime {
        self.next_arrival
    }

    /// The routing policy's name.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// RPCs routed to each node so far.
    #[must_use]
    pub fn routed(&self) -> &[u64] {
        &self.routed
    }

    /// Chains whose root has arrived.
    #[must_use]
    pub fn chains_started(&self) -> u64 {
        self.chains_started
    }

    /// Chains whose last tier fully joined.
    #[must_use]
    pub fn chains_completed(&self) -> u64 {
        self.chains_completed
    }

    /// Issues every RPC of the chain's current tier, routing each through
    /// the policy into a node's NIC buffer.
    fn issue_tier(
        &mut self,
        chain_id: u64,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let progress = self
            .inflight
            .get_mut(&chain_id)
            .expect("issuing a tier of an unknown chain");
        let tier = self.graph.tiers()[progress.tier];
        progress.outstanding = tier.width;
        progress.first_done = None;
        let now = ctx.now();
        let traced = if let Some(tier_trace) = progress.trace.as_mut() {
            tier_trace.tier_start = now;
            tier_trace.reports.clear();
            true
        } else {
            false
        };
        let tag = ChainTag {
            coordinator: ctx.id(),
            chain: chain_id,
        };
        for _ in 0..tier.width {
            let service = tier.service.sample_service(&mut self.workload_rng);
            let mut request = Request::new(
                RequestId(self.next_request_id),
                tier.service.class,
                now,
                service,
            )
            .with_chain(tag);
            if traced {
                // Chain RPCs trace under the chain id (not the request id),
                // so every tier's spans join one causal tree.
                request = request.with_trace(TraceCtx::root(chain_id, now));
            }
            self.next_request_id += 1;
            let target = self.policy.route(shared, ctx.rng());
            debug_assert!(
                target < shared.node_count(),
                "policy {} routed to node {target} of {}",
                self.policy.name(),
                shared.node_count()
            );
            self.routed[target] += 1;
            deliver_routed(shared, ctx, target, request);
        }
    }

    fn on_chain_arrival(
        &mut self,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let chain_id = self.next_chain_id;
        self.next_chain_id += 1;
        self.chains_started += 1;
        // Chain head-sampling site: one decision per root chain, drawn from
        // the cluster's dedicated sampler stream.
        let traced = shared
            .trace
            .as_mut()
            .is_some_and(|trace| trace.sampler.sample());
        self.inflight.insert(
            chain_id,
            ChainProgress {
                root_arrival: ctx.now(),
                tier: 0,
                outstanding: 0,
                first_done: None,
                trace: traced.then(|| TierTrace {
                    tier_start: ctx.now(),
                    reports: Vec::new(),
                }),
            },
        );
        self.issue_tier(chain_id, shared, ctx);
        let gap = self.arrivals.next_gap(&mut self.workload_rng);
        self.next_arrival = ctx.now() + gap;
        ctx.emit_self_at(self.next_arrival, ServerEvent::ChainArrival);
    }

    fn on_leaf_done(
        &mut self,
        chain_id: u64,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        let progress = self
            .inflight
            .get_mut(&chain_id)
            .expect("leaf completion for an unknown chain");
        debug_assert!(progress.outstanding > 0, "tier joined more than its width");
        if progress.first_done.is_none() {
            progress.first_done = Some(now);
        }
        if let Some(tier_trace) = progress.trace.as_mut() {
            tier_trace.reports.push(now);
        }
        progress.outstanding -= 1;
        if progress.outstanding > 0 {
            return;
        }
        // The tier joined. Record the straggler gap of fan-out tiers: how
        // long the join waited on the slowest sibling after the fastest.
        let tier = self.graph.tiers()[progress.tier];
        if tier.width > 1 {
            let first = progress.first_done.expect("joined tier saw a completion");
            self.straggler.record(now.saturating_since(first));
        }
        // A traced chain emits its join/tier spans on the coordinator's
        // pseudo-node (index = node count): one join span per sibling report
        // (report arrival → tier join; the straggler's is zero-length) and
        // one tier span covering issue → join.
        let coordinator_node = self.routed.len() as u32;
        if let (Some(tier_trace), Some(trace)) = (progress.trace.as_ref(), shared.trace.as_mut()) {
            for (sibling, &report) in tier_trace.reports.iter().enumerate() {
                trace.log.push(Span {
                    trace: chain_id,
                    kind: SpanKind::Join,
                    label: "",
                    node: coordinator_node,
                    lane: sibling as u32,
                    start: report,
                    end: now,
                });
            }
            trace.log.push(Span {
                trace: chain_id,
                kind: SpanKind::Tier,
                label: "",
                node: coordinator_node,
                lane: 0,
                start: tier_trace.tier_start,
                end: now,
            });
        }
        if progress.tier + 1 < self.graph.tiers().len() {
            progress.tier += 1;
            self.issue_tier(chain_id, shared, ctx);
            return;
        }
        // Last tier joined: the chain is complete end-to-end.
        let root_arrival = progress.root_arrival;
        let traced = self.inflight.remove(&chain_id).expect("present").trace;
        self.chains_completed += 1;
        self.e2e.record(now.saturating_since(root_arrival));
        if traced.is_some() {
            if let Some(trace) = shared.trace.as_mut() {
                trace.log.push(Span {
                    trace: chain_id,
                    kind: SpanKind::Root,
                    label: "",
                    node: coordinator_node,
                    lane: 0,
                    start: root_arrival,
                    end: now,
                });
            }
        }
    }

    /// Reduces the coordinator's telemetry (consumes the recorders'
    /// summaries; call once at the end of a run).
    fn stats(&mut self) -> ChainStats {
        ChainStats {
            policy: self.policy.name(),
            graph: self.graph.describe(),
            routed: self.routed.clone(),
            chains_started: self.chains_started,
            chains_completed: self.chains_completed,
            chain_latency: self.e2e.summary(),
            straggler: self.straggler.summary(),
        }
    }
}

/// Coordinator-side telemetry of one run (private reduction helper).
struct ChainStats {
    policy: &'static str,
    graph: String,
    routed: Vec<u64>,
    chains_started: u64,
    chains_completed: u64,
    chain_latency: LatencySummary,
    straggler: LatencySummary,
}

impl EventHandler<ServerEvent, ClusterState> for ChainCoordinator {
    fn on_event(
        &mut self,
        event: ServerEvent,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        match event {
            ServerEvent::ChainArrival => self.on_chain_arrival(shared, ctx),
            ServerEvent::ChainLeafDone { chain } => self.on_leaf_done(chain, shared, ctx),
            other => unreachable!("chain coordinator received unexpected event {other:?}"),
        }
    }
}

/// N complete servers and a chain coordinator sharing one event loop.
pub struct ChainSimulation {
    sim: Simulation<ServerEvent, ClusterState>,
    nodes: Vec<NodeHandles>,
    coordinator: Rc<RefCell<ChainCoordinator>>,
    end_at: SimTime,
    profile: bool,
}

impl ChainSimulation {
    /// Builds a chain cluster of one node per config, executing `graph` at
    /// `chains_per_sec` root arrivals routed through `policy`.
    ///
    /// `seed` is the cluster-level seed: the coordinator's policy stream
    /// forks from it by the `"chain-coordinator"` component name and the
    /// root-arrival/service stream by `"chain-loadgen"`. Node components
    /// draw from their own config's seed exactly as everywhere else.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or the configs disagree on duration.
    #[must_use]
    pub fn new(
        seed: u64,
        configs: Vec<ServerConfig>,
        policy: Box<dyn RoutingPolicy>,
        graph: RequestGraph,
        chains_per_sec: f64,
    ) -> Self {
        Self::with_network(seed, configs, policy, graph, chains_per_sec, None)
    }

    /// Like [`ChainSimulation::new`], additionally routing every fan-out RPC
    /// *and* every leaf-completion report through a network fabric (see
    /// [`crate::components::fabric`]), so wire delay compounds at every tier
    /// boundary exactly where C-state wake latency does.
    ///
    /// `None` — or an [instantaneous](NetworkConfig::is_instantaneous)
    /// configuration — is bit-identical to the fabric-less path.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or the configs disagree on duration.
    #[must_use]
    pub fn with_network(
        seed: u64,
        configs: Vec<ServerConfig>,
        policy: Box<dyn RoutingPolicy>,
        graph: RequestGraph,
        chains_per_sec: f64,
        network: Option<NetworkConfig>,
    ) -> Self {
        assert!(
            !configs.is_empty(),
            "a chain cluster needs at least one node"
        );
        let duration = configs[0].duration;
        assert!(
            configs.iter().all(|c| c.duration == duration),
            "every chain-cluster node must share one measurement duration"
        );
        let node_count = configs.len();
        let end_at = SimTime::ZERO + duration;
        // Observability is a cluster-level concern (one sampler, one span
        // log, one event loop to profile): the first node's config decides.
        let trace_config = configs[0].trace;
        let profile = configs[0].profile;

        let mut state = ClusterState::new(configs);
        // Each node's nominal offered rate is its share of the cluster-wide
        // RPC rate (chains/sec × RPCs per chain ÷ N); the routed census is
        // the actual per-node count. Chain RPCs travel the internal fabric,
        // so no client network RTT is added to per-RPC node latency.
        let rpc_rate = chains_per_sec * graph.rpcs_per_chain() as f64;
        for node in &mut state.nodes {
            node.workload_name = "chain";
            node.offered_rate = rpc_rate / node_count as f64;
            node.network_rtt = SimDuration::ZERO;
        }

        let mut sim = Simulation::new(seed, state);
        let builders: Vec<ServerNode> = (0..node_count).map(ServerNode::new).collect();
        let nodes: Vec<NodeHandles> = builders
            .iter()
            .map(|b| b.register(&mut sim, None))
            .collect();
        let coordinator = Rc::new(RefCell::new(ChainCoordinator::new(
            graph,
            chains_per_sec,
            policy,
            node_count,
            seed,
        )));
        let coordinator_id = sim.add_component("chain-coordinator", Rc::clone(&coordinator));
        // The coordinator deposits RPCs into node NIC buffers (on arrivals
        // *and* on joins that issue the next tier), so every node's power
        // observer must also watch it — the same dispatch-observer routing
        // the cluster balancer uses (see `crate::cluster::ClusterSimulation`,
        // including why the package observers stay unsubscribed).
        // As in the cluster simulation, the fabric registers even when no
        // network is configured (name-forked RNG stream, zero events — the
        // no-network event sequence is untouched) and the power observers
        // watch its NIC-buffer deposits.
        let fabric_id = sim.add_component("fabric", Fabric);
        for handles in &nodes {
            sim.add_observer_target(handles.power, coordinator_id);
            sim.add_observer_target(handles.power, fabric_id);
        }
        sim.shared_mut().fabric =
            network.map(|config| FabricState::new(config, node_count, fabric_id));
        sim.shared_mut().trace = trace_config
            .map(|config| TraceState::new(config, SimRng::from_seed(seed).fork("trace-sampler")));
        if profile {
            sim.enable_event_profile(ServerEvent::KIND_COUNT, ServerEvent::kind);
        }
        // Bootstrap in the cluster order: the first root arrival, then every
        // node's background timers / initial idle entries / power sampling.
        let first_arrival = coordinator.borrow().first_arrival();
        sim.schedule(coordinator_id, first_arrival, ServerEvent::ChainArrival);
        for (builder, handles) in builders.iter().zip(&nodes) {
            builder.bootstrap(&mut sim, handles);
        }

        ChainSimulation {
            sim,
            nodes,
            coordinator,
            end_at,
            profile,
        }
    }

    /// Number of server nodes in the cluster.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Read access to the shared cluster state (for tests and tracing).
    #[must_use]
    pub fn state(&self) -> &ClusterState {
        self.sim.shared()
    }

    /// Runs the cluster to the horizon and reduces chain telemetry plus
    /// per-node power/residency into a [`ChainResult`].
    #[must_use]
    pub fn run(mut self) -> ChainResult {
        let events_dispatched = self.sim.run_until(self.end_at);
        let end = self.end_at;
        let network = self
            .sim
            .shared()
            .fabric
            .as_ref()
            .map(|f| f.net.stats().clone());
        let profile = self.profile.then(|| {
            crate::components::profile_report(self.sim.queue_counters(), self.sim.event_profile())
        });
        let runs = self
            .nodes
            .iter()
            .map(|handles| handles.collect_result(self.sim.shared_mut(), end))
            .collect();
        let trace = self.sim.shared_mut().trace.take().map(TraceState::into_log);
        let stats = self.coordinator.borrow_mut().stats();
        ChainResult {
            policy: stats.policy,
            graph: stats.graph,
            duration: self.end_at.saturating_since(SimTime::ZERO),
            chains_started: stats.chains_started,
            chains_completed: stats.chains_completed,
            chain_latency: stats.chain_latency,
            straggler: stats.straggler,
            routed: stats.routed,
            network,
            events_dispatched,
            trace,
            profile,
            nodes: FleetResult { runs },
        }
    }
}

/// The outcome of one chain run: chain-level latency telemetry plus per-node
/// results (with the fleet aggregation helpers) and the routing census.
///
/// Equality is exact per-metric equality, so two results compare equal only
/// when the underlying simulations were bit-identical — what the chain
/// determinism tests assert.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainResult {
    /// The routing policy that ran.
    pub policy: &'static str,
    /// The chain shape (see [`RequestGraph::describe`]).
    pub graph: String,
    /// The simulated duration.
    pub duration: SimDuration,
    /// Chains whose root arrived during the run.
    pub chains_started: u64,
    /// Chains that fully joined (roots still in flight at the horizon were
    /// started but never completed).
    pub chains_completed: u64,
    /// End-to-end chain latency: root arrival → last leaf join of the final
    /// tier.
    pub chain_latency: LatencySummary,
    /// The leaf-straggler gap: on every fan-out (width > 1) tier join, the
    /// time the join waited on the slowest sibling after the fastest one
    /// finished. Empty for purely linear graphs.
    pub straggler: LatencySummary,
    /// RPCs routed to each node, in node order.
    pub routed: Vec<u64>,
    /// Wire-delay statistics of the network fabric, when one was configured
    /// (`None` for the instantaneous-deposit path).
    pub network: Option<NetworkStats>,
    /// Events the cluster's event loop dispatched to reach the horizon
    /// (identical for sequential and parallel executions of the same run).
    pub events_dispatched: u64,
    /// Span log of head-sampled chains, when tracing was configured (see
    /// [`crate::config::ServerConfig::trace`]; the first node's config
    /// decides for the cluster).
    pub trace: Option<TraceLog>,
    /// Engine self-profile, when profiling was configured (see
    /// [`crate::config::ServerConfig::profile`]).
    pub profile: Option<ProfileReport>,
    /// Per-node results in node order, with fleet-style aggregates.
    pub nodes: FleetResult,
}

impl ChainResult {
    /// Total RPCs the coordinator routed.
    #[must_use]
    pub fn total_routed(&self) -> u64 {
        self.routed.iter().sum()
    }

    /// Achieved chain throughput (completed chains per second).
    #[must_use]
    pub fn chains_per_sec(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.chains_completed as f64 / secs
        }
    }

    /// How unevenly the policy spread RPCs: max/mean routed per node
    /// (1.0 = perfectly even).
    #[must_use]
    pub fn routing_imbalance(&self) -> f64 {
        let total = self.total_routed();
        if total == 0 || self.routed.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.routed.len() as f64;
        let max = self.routed.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }
}

/// One line per node (routed share, power, PC1A residency), then the chain
/// totals: end-to-end p50/p99/p999 and the straggler breakdown.
impl fmt::Display for ChainResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.nodes.runs.iter().enumerate() {
            writeln!(
                f,
                "node {i:>3}: routed {:>8} {:>7.1} W PC1A {:>5.1}% rpc p99 {}",
                self.routed.get(i).copied().unwrap_or(0),
                r.avg_total_power().as_f64(),
                r.pc1a_residency * 100.0,
                r.latency.p99,
            )?;
        }
        write!(
            f,
            "chain ({}, {}): {:>7.0} chains/s {:>7.1} W e2e p50 {} p99 {} p999 {} straggler p99 {}",
            self.policy,
            self.graph,
            self.chains_per_sec(),
            self.nodes.total_power_w(),
            self.chain_latency.p50,
            self.chain_latency.p99,
            self.chain_latency.p999,
            self.straggler.p99,
        )
    }
}

/// A declarative, `Send` description of one chain run — the chain
/// counterpart of [`crate::cluster::ClusterMember`], usable as a member of a
/// [`ChainFleet`].
#[derive(Debug, Clone)]
pub struct ChainMember {
    /// Per-node configurations (each carries its own seed).
    pub nodes: Vec<ServerConfig>,
    /// The routing policy to run.
    pub policy: RoutingPolicyKind,
    /// The chain shape.
    pub graph: RequestGraph,
    /// Root-chain arrival rate (chains per second, Poisson).
    pub chains_per_sec: f64,
    /// Cluster seed: coordinator streams fork from it.
    pub seed: u64,
    /// The network fabric every RPC and leaf report crosses (`None` keeps
    /// the instantaneous-deposit path).
    pub network: Option<NetworkConfig>,
}

impl ChainMember {
    /// A chain cluster of `n` nodes sharing `base`'s platform, with node
    /// seeds derived by the canonical [`Fleet::member_seed`] scheme from
    /// `base`'s seed, executing `graph` at `chains_per_sec` under `policy`.
    #[must_use]
    pub fn homogeneous(
        base: &ServerConfig,
        n: usize,
        policy: RoutingPolicyKind,
        graph: RequestGraph,
        chains_per_sec: f64,
    ) -> Self {
        ChainMember {
            nodes: (0..n)
                .map(|i| base.clone().with_seed(Fleet::member_seed(base.seed, i)))
                .collect(),
            policy,
            graph,
            chains_per_sec,
            seed: base.seed,
            network: None,
        }
    }

    /// Routes every RPC and leaf report of this chain cluster through
    /// `network` (see [`ChainSimulation::with_network`]).
    #[must_use]
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = Some(network);
        self
    }

    /// Builds and runs the chain cluster to completion.
    #[must_use]
    pub fn run(self) -> ChainResult {
        ChainSimulation::with_network(
            self.seed,
            self.nodes,
            self.policy.build(),
            self.graph,
            self.chains_per_sec,
            self.network,
        )
        .run()
    }
}

/// A set of independent chain simulations run as one experiment — e.g. the
/// same chain cluster under every platform, or a platform under every
/// routing policy. Members execute on the same deterministic worker pool as
/// [`Fleet::run`], so a parallel run is bit-identical to
/// [`ChainFleet::run_sequential`].
#[derive(Debug, Default)]
pub struct ChainFleet {
    members: Vec<ChainMember>,
    parallelism: Option<usize>,
}

impl ChainFleet {
    /// An empty chain fleet.
    #[must_use]
    pub fn new() -> Self {
        ChainFleet::default()
    }

    /// Adds one chain cluster to the fleet.
    pub fn push(&mut self, member: ChainMember) -> &mut Self {
        self.members.push(member);
        self
    }

    /// Number of chain clusters in the fleet.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the fleet has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Pins the number of worker threads [`ChainFleet::run`] may use
    /// (`1` forces the sequential path); see [`Fleet::with_parallelism`].
    #[must_use]
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = Some(workers.max(1));
        self
    }

    /// Runs every chain cluster to completion — in parallel when the host
    /// allows — returning results in member order, bit-identical to
    /// [`ChainFleet::run_sequential`].
    #[must_use]
    pub fn run(self) -> Vec<ChainResult> {
        let workers = effective_workers(self.parallelism, self.members.len());
        run_pool(self.members, workers, ChainMember::run)
    }

    /// Runs every chain cluster back-to-back on the calling thread.
    #[must_use]
    pub fn run_sequential(self) -> Vec<ChainResult> {
        self.members.into_iter().map(ChainMember::run).collect()
    }

    /// Like [`ChainFleet::run`], but invokes `emit(i, &result)` once per
    /// repeat, in member order, as soon as repeat `i` and all its
    /// predecessors have finished (the CLI's `--stream-out` hook). Results
    /// are bit-identical to [`ChainFleet::run`]'s.
    ///
    /// # Errors
    ///
    /// Returns `emit`'s first error; remaining repeats still run but
    /// nothing further is emitted.
    pub fn run_streamed<E>(
        self,
        emit: impl FnMut(usize, &ChainResult) -> Result<(), E>,
    ) -> Result<Vec<ChainResult>, E> {
        let workers = effective_workers(self.parallelism, self.members.len());
        run_pool_streamed(self.members, workers, ChainMember::run, emit)
    }
}

/// Convenience: run one homogeneous chain experiment (see
/// [`ChainMember::homogeneous`] for the seed-derivation scheme).
#[must_use]
pub fn run_chain_experiment(
    base: &ServerConfig,
    n: usize,
    policy: RoutingPolicyKind,
    graph: RequestGraph,
    chains_per_sec: f64,
) -> ChainResult {
    ChainMember::homogeneous(base, n, policy, graph, chains_per_sec).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_shapes() {
        let linear =
            RequestGraph::linear(vec![TierService::frontend(), TierService::memcached_leaf()]);
        assert_eq!(linear.rpcs_per_chain(), 2);
        assert_eq!(linear.max_fanout(), 1);
        assert!(!linear.has_fanout());

        let fan = RequestGraph::memcached_fanout(4);
        assert_eq!(fan.rpcs_per_chain(), 5);
        assert_eq!(fan.max_fanout(), 4);
        assert!(fan.has_fanout());
        assert_eq!(fan.describe(), "1x frontend -> 4x kv-get");
        assert_eq!(fan.to_string(), fan.describe());
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_graph_is_rejected() {
        let _ = RequestGraph::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one RPC")]
    fn zero_width_tier_is_rejected() {
        let _ = RequestGraph::new(vec![Tier::new(0, TierService::frontend())]);
    }
}
