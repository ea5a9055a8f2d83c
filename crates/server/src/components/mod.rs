//! The full-system server simulation, decomposed into registered components.
//!
//! Each module implements one focused piece of the modelled server as an
//! [`apc_sim::component::EventHandler`]:
//!
//! * [`nic`] — client arrival process and NIC interrupt coalescing;
//! * [`core_exec`] — one component per core: wake transitions, request
//!   execution, idle entry and OS background noise;
//! * [`scheduler`] — work dispatch onto free cores (gated on uncore
//!   availability);
//! * [`package`] — the package controllers: firmware GPMU (PC6) and, under
//!   `CPC1A`, the APC APMU (PC1A entry/abort/exit flows);
//! * [`power`] — power/energy attribution and the optional power trace;
//! * [`timeseries`] — the optional periodic time-series sampler (power,
//!   residency deltas, queue depth over simulated time).
//!
//! Cross-component state (the SoC structural model, work queues, uncore
//! availability, telemetry) lives in [`state::ServerState`]; everything else
//! is private to its component. Components communicate only by events:
//! zero-delay events model same-instant hardware signals (e.g. the NIC
//! raising `PackageWake` before the scheduler's `Dispatch` runs) and the
//! FIFO tie-break of the event queue keeps those exchanges deterministic.
//!
//! Every component is *node-scoped*: it carries the index of the server node
//! it belongs to and reaches that node's [`state::ServerState`] through the
//! [`state::HasNode`] view of the simulation's shared state. The same
//! component code therefore runs unchanged whether the shared state is one
//! `ServerState` (a standalone [`crate::sim::ServerSimulation`]) or a
//! [`state::ClusterState`] hosting N complete servers plus a load balancer
//! in one event loop ([`crate::cluster::ClusterSimulation`]).

pub mod core_exec;
pub mod fabric;
pub mod nic;
pub mod package;
pub mod power;
pub mod scheduler;
pub mod state;
pub mod timeseries;

use apc_core::apmu::WakeCause;
use apc_sim::component::ComponentId;
use apc_sim::SimDuration;
use apc_workloads::request::Request;

/// Events driving the simulation. Routing is by destination [`ComponentId`];
/// the comments note the component each variant is addressed to.
#[derive(Debug, Clone)]
pub enum ServerEvent {
    /// The next client request arrives at the NIC. (→ `nic`)
    ClientArrival,
    /// The next client request arrives at the cluster's load balancer, which
    /// routes it to a node. Never fires in a single-server simulation.
    /// (→ `balancer`)
    ClusterArrival,
    /// The NIC raises an interrupt delivering the coalesced batch. (→ `nic`)
    NicDeliver,
    /// A routed request finished its wire flight through the network fabric
    /// and reaches the destination node's NIC buffer. Only fires when a
    /// fabric with nonzero wire delay is configured — instantaneous
    /// transmissions deposit synchronously without an event hop. (→ `fabric`)
    WireDeliver {
        /// The destination node.
        node: usize,
        /// The request coming off the wire.
        request: Request,
    },
    /// A core's periodic background (OS) wakeup fires. (→ `core <i>`)
    BackgroundTick,
    /// Bootstrap: put the freshly booted core to sleep. (→ `core <i>`)
    InitIdle,
    /// The scheduler assigned work; begin the wake transition. (→ `core <i>`)
    BeginWake,
    /// The core finished its wake transition and starts executing.
    /// (→ `core <i>`)
    WakeDone {
        /// Transition epoch the event belongs to (stale events are ignored).
        epoch: u64,
    },
    /// The core finished executing its current work item. (→ `core <i>`)
    ServiceDone,
    /// The core finished entering its idle C-state. (→ `core <i>`)
    IdleEntered {
        /// Transition epoch the event belongs to (stale events are ignored).
        epoch: u64,
    },
    /// Try to place queued work onto free cores. (→ `scheduler`)
    Dispatch,
    /// An interrupt or IO traffic wakes the package. (→ `package`)
    PackageWake {
        /// What triggered the wake.
        cause: WakeCause,
    },
    /// A core returned to CC0 (the ACC1 → PC0 edge). (→ `package`)
    CoreActive,
    /// A core finished entering idle; check the PC1A/PC6 opportunity.
    /// (→ `package`)
    AllIdleCheck,
    /// The APMU's IO-standby deadline elapsed (try to enter PC1A).
    /// (→ `package`)
    StandbyDeadline,
    /// The PC1A entry flow completed. (→ `package`)
    ApmuEntryDone,
    /// The PC1A exit flow completed. (→ `package`)
    ApmuExitDone,
    /// The PC6 entry flow completed. (→ `package`)
    GpmuEntryDone,
    /// The PC6 exit flow completed. (→ `package`)
    GpmuExitDone,
    /// Periodic power-trace sample. (→ `power`)
    PowerSample,
    /// Periodic time-series telemetry sample. (→ `timeseries`)
    TimeSeriesSample,
    /// The next root request of a request chain arrives at the chain
    /// coordinator, which fans it out across the cluster. Never fires
    /// outside a chain simulation. (→ `chain-coordinator`)
    ChainArrival,
    /// A core finished serving one chain-tagged RPC; the coordinator joins
    /// it into its chain (emitted by the serving core to the coordinator
    /// named in the request's [`apc_workloads::request::ChainTag`]).
    /// (→ `chain-coordinator`)
    ChainLeafDone {
        /// The coordinator-local chain the completed RPC belongs to.
        chain: u64,
    },
}

impl ServerEvent {
    /// Number of distinct event kinds (the bound for
    /// [`ServerEvent::kind`] indices and the length of
    /// [`ServerEvent::KIND_NAMES`]).
    pub const KIND_COUNT: usize = 23;

    /// Stable names of every event kind, indexed by [`ServerEvent::kind`].
    pub const KIND_NAMES: [&'static str; Self::KIND_COUNT] = [
        "ClientArrival",
        "ClusterArrival",
        "NicDeliver",
        "WireDeliver",
        "BackgroundTick",
        "InitIdle",
        "BeginWake",
        "WakeDone",
        "ServiceDone",
        "IdleEntered",
        "Dispatch",
        "PackageWake",
        "CoreActive",
        "AllIdleCheck",
        "StandbyDeadline",
        "ApmuEntryDone",
        "ApmuExitDone",
        "GpmuEntryDone",
        "GpmuExitDone",
        "PowerSample",
        "TimeSeriesSample",
        "ChainArrival",
        "ChainLeafDone",
    ];

    /// Kind index of this event for the engine self-profiler.
    #[must_use]
    pub fn kind(&self) -> usize {
        match self {
            ServerEvent::ClientArrival => 0,
            ServerEvent::ClusterArrival => 1,
            ServerEvent::NicDeliver => 2,
            ServerEvent::WireDeliver { .. } => 3,
            ServerEvent::BackgroundTick => 4,
            ServerEvent::InitIdle => 5,
            ServerEvent::BeginWake => 6,
            ServerEvent::WakeDone { .. } => 7,
            ServerEvent::ServiceDone => 8,
            ServerEvent::IdleEntered { .. } => 9,
            ServerEvent::Dispatch => 10,
            ServerEvent::PackageWake { .. } => 11,
            ServerEvent::CoreActive => 12,
            ServerEvent::AllIdleCheck => 13,
            ServerEvent::StandbyDeadline => 14,
            ServerEvent::ApmuEntryDone => 15,
            ServerEvent::ApmuExitDone => 16,
            ServerEvent::GpmuEntryDone => 17,
            ServerEvent::GpmuExitDone => 18,
            ServerEvent::PowerSample => 19,
            ServerEvent::TimeSeriesSample => 20,
            ServerEvent::ChainArrival => 21,
            ServerEvent::ChainLeafDone { .. } => 22,
        }
    }
}

/// Builds the engine self-profile surfaced in run results from one event
/// queue's counters (`kinds` is the per-event-kind breakdown, present when
/// the kind classifier was enabled). Event kinds that never appeared are
/// dropped from the report.
#[must_use]
pub fn profile_report(
    counters: apc_sim::engine::QueueCounters,
    kinds: Option<&[apc_sim::engine::KindCounters]>,
) -> apc_trace::ProfileReport {
    let events = kinds
        .map(|kinds| {
            ServerEvent::KIND_NAMES
                .iter()
                .zip(kinds)
                .map(|(name, k)| apc_trace::EventKindCount {
                    kind: name,
                    scheduled: k.scheduled,
                    dispatched: k.dispatched,
                    cancelled: k.cancelled,
                })
                .collect()
        })
        .unwrap_or_default();
    let mut report = apc_trace::ProfileReport {
        engine: apc_trace::EngineProfile::from_counters(counters),
        events,
        ..Default::default()
    };
    report.retain_active_kinds();
    report
}

/// A unit of work a core can execute.
#[derive(Debug, Clone)]
pub enum WorkItem {
    /// A client request (latency-accounted).
    Client(Request),
    /// OS background work (not latency-accounted).
    Background {
        /// CPU time the background task consumes.
        work: SimDuration,
    },
}

/// Component ids every component needs to address its peers. Lives in the
/// shared [`state::ServerState`] and is filled by the driver with the real
/// ids returned from registration, before any event is scheduled.
#[derive(Debug, Clone)]
pub struct Addresses {
    /// The NIC / arrival component.
    pub nic: ComponentId,
    /// The dispatch scheduler.
    pub scheduler: ComponentId,
    /// The package controller.
    pub package: ComponentId,
    /// Per-core execution components, indexed by core number.
    pub cores: Vec<ComponentId>,
}

impl Default for Addresses {
    /// Placeholder ids that no simulation ever issues: an event emitted
    /// through an unfilled `Addresses` panics loudly at dispatch instead of
    /// silently reaching component 0.
    fn default() -> Self {
        let unset = ComponentId::from_raw(usize::MAX);
        Addresses {
            nic: unset,
            scheduler: unset,
            package: unset,
            cores: Vec::new(),
        }
    }
}
