//! State shared by every simulation component.
//!
//! The rule of thumb: state mutated by one component but *observed* by
//! another (the SoC models, work queues, uncore availability, telemetry)
//! lives here; state with a single owner (the APMU FSM, a core's transition
//! epoch, the NIC's coalescing buffer) lives inside its component.

use std::collections::VecDeque;

use apc_power::energy::EnergyMeter;
use apc_power::units::Watts;
use apc_sim::{SimDuration, SimTime};
use apc_soc::core::CoreActivity;
use apc_soc::cstate::PackageCState;
use apc_soc::topology::SkxSoc;
use apc_telemetry::idle::IdlePeriodTracker;
use apc_telemetry::latency::LatencyRecorder;
use apc_telemetry::residency::{CoreResidencySet, PackageResidency};
use apc_telemetry::timeseries::TimeSeries;
use apc_trace::TraceState;
use apc_workloads::request::Request;

use super::{Addresses, WorkItem};
use crate::config::ServerConfig;

/// A bitset over core indices tracking which cores can currently accept
/// work, maintained so the dispatch scheduler finds the lowest free core in
/// O(1) (one `trailing_zeros` per 64 cores) instead of scanning every core
/// per queued request.
///
/// The set is kept in lock-step with [`SchedState::core_is_free`]: a core's
/// bit is set exactly when it has no running work, no pending assignment and
/// is not busy executing. Only two places change that predicate — the
/// scheduler reserving a core ([`SchedState::mark_occupied`]) and the core
/// starting its idle entry ([`SchedState::mark_free`]) — so the mirror stays
/// exact (and is `debug_assert`ed at every dispatch).
#[derive(Debug, Clone)]
pub struct FreeCoreSet {
    words: Vec<u64>,
    len: usize,
}

impl FreeCoreSet {
    /// A set of `cores` cores, all occupied (cores boot busy until their
    /// initial idle entry).
    #[must_use]
    pub fn new_all_occupied(cores: usize) -> Self {
        FreeCoreSet {
            words: vec![0; cores.div_ceil(64)],
            len: cores,
        }
    }

    /// A set of `cores` cores with no bits set. Alias of
    /// [`FreeCoreSet::new_all_occupied`] for uses where the set tracks
    /// something other than freeness (e.g. pending background work).
    #[must_use]
    pub fn empty(cores: usize) -> Self {
        FreeCoreSet::new_all_occupied(cores)
    }

    /// Marks `core` free.
    pub fn insert(&mut self, core: usize) {
        debug_assert!(core < self.len);
        self.words[core / 64] |= 1u64 << (core % 64);
    }

    /// Marks `core` occupied.
    pub fn remove(&mut self, core: usize) {
        debug_assert!(core < self.len);
        self.words[core / 64] &= !(1u64 << (core % 64));
    }

    /// `true` when `core` is marked free.
    #[must_use]
    pub fn contains(&self, core: usize) -> bool {
        debug_assert!(core < self.len);
        self.words[core / 64] & (1u64 << (core % 64)) != 0
    }

    /// The lowest free core index, if any.
    #[must_use]
    pub fn lowest(&self) -> Option<usize> {
        self.lowest_at_or_after(0)
    }

    /// The lowest free core index `>= from`, if any. Used to iterate free
    /// cores in index order while marking them occupied along the way.
    #[must_use]
    pub fn lowest_at_or_after(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut word_idx = from / 64;
        let mut word = self.words[word_idx] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                let core = word_idx * 64 + word.trailing_zeros() as usize;
                return (core < self.len).then_some(core);
            }
            word_idx += 1;
            if word_idx >= self.words.len() {
                return None;
            }
            word = self.words[word_idx];
        }
    }

    /// The lowest index `>= from` present in both `self` and `other`, if
    /// any. Same traversal as [`FreeCoreSet::lowest_at_or_after`] over the
    /// intersection of the two sets (both must cover the same core count).
    #[must_use]
    pub fn lowest_common_at_or_after(&self, other: &FreeCoreSet, from: usize) -> Option<usize> {
        debug_assert_eq!(self.len, other.len);
        if from >= self.len {
            return None;
        }
        let mut word_idx = from / 64;
        let mut word = self.words[word_idx] & other.words[word_idx] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                let core = word_idx * 64 + word.trailing_zeros() as usize;
                return (core < self.len).then_some(core);
            }
            word_idx += 1;
            if word_idx >= self.words.len() {
                return None;
            }
            word = self.words[word_idx] & other.words[word_idx];
        }
    }

    /// Number of free cores.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// NIC-side arrival buffering: requests waiting for the coalesced interrupt
/// delivery. Shared (rather than private to the NIC component) because in a
/// cluster the load balancer deposits routed requests into a node's buffer,
/// while the node's own NIC component drains it on `NicDeliver`.
#[derive(Debug)]
pub struct NicState {
    /// Requests buffered during the current coalescing window.
    pub buffer: VecDeque<Request>,
    /// `true` while a `NicDeliver` interrupt is armed for the buffer.
    pub deliver_pending: bool,
    /// When the armed `NicDeliver` interrupt fires ([`SimTime::MAX`] when
    /// none is armed). Written by the single shared deposit helper (both the
    /// standalone NIC and the cluster balancer/coordinator arrival paths go
    /// through it), read by the idle governor's predicted-idle bound — a
    /// core going idle with a delivery already armed knows work is imminent
    /// and must not pick a deep C-state it cannot amortise (see
    /// [`ServerState::predicted_idle_bound`]).
    pub next_deliver_at: SimTime,
}

impl Default for NicState {
    fn default() -> Self {
        NicState {
            buffer: VecDeque::new(),
            deliver_pending: false,
            next_deliver_at: SimTime::MAX,
        }
    }
}

/// Work-queue and per-core occupancy state, read by the scheduler and
/// mutated by the NIC, the cores and the scheduler.
#[derive(Debug)]
pub struct SchedState {
    /// Client requests delivered by the NIC, waiting for a free core.
    pub client_queue: VecDeque<Request>,
    /// Per-core queues of pinned OS background work.
    pub background: Vec<VecDeque<SimDuration>>,
    /// Work currently executing on each core.
    pub running: Vec<Option<WorkItem>>,
    /// Work assigned to a core that is still completing its wake transition.
    pub pending_start: Vec<Option<WorkItem>>,
    /// When each core's next background timer fires (the OS knows its own
    /// timers, so the idle governor uses this as the predicted idle bound).
    pub next_background_at: Vec<SimTime>,
    /// Cores currently able to accept work; the scheduler's O(1) dispatch
    /// index (see [`FreeCoreSet`]).
    pub free_cores: FreeCoreSet,
    /// Cores whose background queue is non-empty — always equal to
    /// `!background[core].is_empty()` bit for bit. The dispatch round
    /// intersects it with `free_cores` so placing pinned background work
    /// skips free cores with nothing queued instead of probing each queue.
    pub background_pending: FreeCoreSet,
}

impl SchedState {
    /// Empty scheduling state for `cores` cores.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        SchedState {
            client_queue: VecDeque::new(),
            background: vec![VecDeque::new(); cores],
            running: vec![None; cores],
            pending_start: vec![None; cores],
            next_background_at: vec![SimTime::MAX; cores],
            free_cores: FreeCoreSet::new_all_occupied(cores),
            background_pending: FreeCoreSet::empty(cores),
        }
    }

    /// Records that `core` began its idle entry and can accept work again.
    pub fn mark_free(&mut self, core: usize) {
        self.free_cores.insert(core);
    }

    /// Records that `core` was reserved for an assignment.
    pub fn mark_occupied(&mut self, core: usize) {
        self.free_cores.remove(core);
    }

    /// `true` when `core` can accept new work.
    #[must_use]
    pub fn core_is_free(&self, soc: &SkxSoc, core: usize) -> bool {
        self.running[core].is_none()
            && self.pending_start[core].is_none()
            && soc.cores().core(apc_soc::core::CoreId(core)).activity() != CoreActivity::Busy
    }

    /// Number of cores currently executing work.
    #[must_use]
    pub fn busy_cores(&self) -> usize {
        self.running.iter().filter(|w| w.is_some()).count()
    }

    /// `true` when any core is running or about to run work.
    #[must_use]
    pub fn any_work_in_flight(&self) -> bool {
        self.running.iter().any(Option::is_some) || self.pending_start.iter().any(Option::is_some)
    }
}

/// Availability of the shared uncore (LLC, memory path), maintained by the
/// package controller and read by the scheduler.
#[derive(Debug, Clone, Copy)]
pub struct UncoreStatus {
    /// `true` when requests can execute (no package C-state in the way).
    /// While `false`, queued work stays put; the package controller emits a
    /// `Dispatch` the moment its exit flow completes.
    pub available: bool,
}

impl Default for UncoreStatus {
    fn default() -> Self {
        UncoreStatus { available: true }
    }
}

/// Package-FSM facts mirrored into the shared state by the package
/// controller (alongside [`UncoreStatus`]) after every event it handles, so
/// the components that *emit* package events — cores finishing a wake, the
/// NIC delivering a batch — can skip emissions the controller would handle
/// as pure no-ops. Skipping is bit-identical: every gated event is emitted
/// with `emit_now` (zero-length interval, so the energy meter's accounting
/// point is a no-op) and its handler would leave all package-state inputs
/// untouched (so the residency observation it triggers repeats the previous
/// one and is dropped by the same-state early return).
///
/// Both flags start `false`, matching the FSM starting points (APMU in PC0,
/// GPMU `Active`), and only package-controller handlers ever change the
/// facts they mirror — so a mirror read between package events is always
/// current.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackageMirror {
    /// The APMU sits in ACC1: the first core to run again must send
    /// `CoreActive` so the controller clears AllowL0s (PC1A policy only).
    pub acc1_armed: bool,
    /// A `PackageWake` would do work: the package is in, or entering, a
    /// package C-state (PC1A: `Acc1`/`Entering`/`InPc1a`; PC6:
    /// `Entering`/`InPc6`). `false` under `PackagePolicy::None`.
    pub wakeable: bool,
}

/// All measurement state: power/energy, latency, residencies, idle periods
/// and run counters.
#[derive(Debug)]
pub struct TelemetryState {
    /// Energy accumulation (power attribution over elapsed intervals).
    pub energy: EnergyMeter,
    /// Client-visible request latency.
    pub latency: LatencyRecorder,
    /// Per-core C-state residency.
    pub core_residency: CoreResidencySet,
    /// Package C-state residency.
    pub package_residency: PackageResidency,
    /// Fully-idle period statistics (SoCWatch floor applied).
    pub idle_tracker: IdlePeriodTracker,
    /// Client-visible requests completed.
    pub completed_requests: u64,
    /// Total busy core-time accumulated.
    pub busy_core_time: SimDuration,
    /// Optional instantaneous power trace `(time, soc_power)`, filled by the
    /// power component when sampling is enabled.
    pub power_trace: Vec<(SimTime, Watts)>,
    /// Optional time-series telemetry, filled by the time-series sampler
    /// component when [`crate::config::ServerConfig::timeseries_interval`]
    /// is set.
    pub timeseries: Option<TimeSeries>,
    /// Request span tracing: head-sampler plus the bounded span log. Set by
    /// the standalone driver when [`crate::config::ServerConfig::trace`] is
    /// configured; in a cluster the log lives on the shared
    /// [`ClusterState`] instead (requests cross nodes) and this stays
    /// `None`. Purely observational — no simulation decision reads it.
    pub trace: Option<TraceState>,
}

impl TelemetryState {
    /// Fresh telemetry for `cores` cores starting at t = 0.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        TelemetryState {
            energy: EnergyMeter::new(SimTime::ZERO),
            latency: LatencyRecorder::new(),
            core_residency: CoreResidencySet::new(cores, SimTime::ZERO),
            package_residency: PackageResidency::new(PackageCState::PC0, SimTime::ZERO),
            idle_tracker: IdlePeriodTracker::with_socwatch_floor(cores, SimTime::ZERO),
            completed_requests: 0,
            busy_core_time: SimDuration::ZERO,
            power_trace: Vec::new(),
            timeseries: None,
            trace: None,
        }
    }
}

/// The state of one complete simulated server: every component of the node
/// reads and writes this, addressed through a [`HasNode`] view of the host
/// simulation's shared state. A standalone single-server simulation shares
/// exactly one `ServerState`; a cluster shares a [`ClusterState`] holding
/// one per node.
#[derive(Debug)]
pub struct ServerState {
    /// The run configuration (platform, power model, NIC, noise).
    pub config: ServerConfig,
    /// Peer component ids, filled by the driver after registration.
    pub addrs: Addresses,
    /// Inclusive range of raw component ids registered for this node
    /// (components are registered contiguously per node), filled by the
    /// driver after registration. The node's observers use it to recognise
    /// events that cannot have mutated this node's state: anything
    /// dispatched outside the range only *deposits* into the NIC buffer
    /// (balancer / chain-coordinator arrivals), which no power or
    /// package-state derivation reads. The default covers every component,
    /// which is always safe (no skipping).
    pub component_range: (usize, usize),
    /// The SoC structural model.
    pub soc: SkxSoc,
    /// NIC arrival buffering (coalescing window).
    pub nic: NicState,
    /// Work queues and per-core occupancy.
    pub sched: SchedState,
    /// Uncore availability, maintained by the package controller.
    pub uncore: UncoreStatus,
    /// Package-FSM facts mirrored by the package controller so event
    /// *emitters* can skip package events the controller would handle as
    /// no-ops (see [`PackageMirror`]).
    pub pkg: PackageMirror,
    /// Maintained count of outstanding client requests — always equal to
    /// what [`ServerState::outstanding_requests`] derives by scanning.
    /// Only two stage boundaries change the total, so only they touch it:
    /// the NIC-buffer deposit (+1, every arrival path goes through the
    /// shared `buffer_request` helper) and client service completion (−1);
    /// moves between buffer → queue → reserved → running are neutral. The
    /// JSQ and power-aware balancers read a load signal per node per
    /// arrival, so it must be O(1).
    pub outstanding: usize,
    /// Measurements.
    pub telemetry: TelemetryState,
    /// Workload name (for the run result).
    pub workload_name: &'static str,
    /// Offered request rate (for the run result).
    pub offered_rate: f64,
    /// Client network round-trip added to server-side latency.
    pub network_rtt: SimDuration,
}

impl ServerState {
    /// Builds the shared state for `config`; the SoC is constructed from the
    /// configured topology.
    #[must_use]
    pub fn new(config: ServerConfig) -> Self {
        let soc = config.soc.build();
        let cores = soc.cores().len();
        let mut telemetry = TelemetryState::new(cores);
        telemetry.timeseries = config
            .timeseries_interval
            .filter(|d| !d.is_zero())
            .map(TimeSeries::new);
        ServerState {
            soc,
            addrs: Addresses::default(),
            component_range: (0, usize::MAX),
            nic: NicState::default(),
            sched: SchedState::new(cores),
            uncore: UncoreStatus::default(),
            pkg: PackageMirror::default(),
            outstanding: 0,
            telemetry,
            workload_name: "",
            offered_rate: 0.0,
            network_rtt: SimDuration::ZERO,
            config,
        }
    }

    /// `true` when any core is active or has work in flight (the package
    /// cannot be considered idle).
    #[must_use]
    pub fn any_core_active(&self) -> bool {
        if self.soc.cores().any_active() {
            return true;
        }
        // No core is busy: work is in flight exactly when some core is
        // reserved/occupied, i.e. missing from the free set. (During boot
        // all cores are occupied *and* busy until their initial idle entry,
        // so the short-circuit above covers the window where the free set
        // alone would over-report; see `FreeCoreSet::new_all_occupied`.)
        let occupied = self.sched.free_cores.count() < self.sched.running.len();
        debug_assert_eq!(occupied, self.sched.any_work_in_flight());
        occupied
    }

    /// The instantaneous power breakdown implied by the current SoC state
    /// and memory utilisation — the single derivation shared by energy
    /// accounting, the power trace and the time-series sampler, so every
    /// reported power figure agrees on one definition.
    #[must_use]
    pub fn power_snapshot(&self) -> apc_power::model::PowerBreakdown {
        let busy = self.sched.busy_cores() as f64;
        let mem_util = busy / self.soc.cores().len().max(1) as f64;
        self.config.power.snapshot(&self.soc, mem_util)
    }

    /// Attributes the interval since the last accounting point to the power
    /// state currently held, advancing the energy meter to `to`.
    pub fn account_power(&mut self, to: SimTime) {
        let breakdown = self.power_snapshot();
        self.telemetry.energy.advance(to, &breakdown);
    }

    /// Closes every telemetry stream at the end of the measurement window.
    pub fn finish_telemetry(&mut self, end: SimTime) {
        self.account_power(end);
        self.telemetry.core_residency.finish(end);
        self.telemetry.package_residency.finish(end);
        self.telemetry.idle_tracker.finish(end);
    }

    /// The OS's bound on how long `core` will stay idle from `now`: the
    /// sooner of the core's next background timer and the NIC's armed
    /// coalesced-interrupt delivery. Both are events the kernel genuinely
    /// knows about (its own timer wheel, the interrupt it armed); open-loop
    /// client arrivals stay unpredictable. The idle governor uses this one
    /// bound on every idle entry, whichever path deposited the pending work
    /// — the standalone NIC and the cluster balancer/chain-coordinator all
    /// arm delivery through the same helper.
    #[must_use]
    pub fn predicted_idle_bound(&self, core: usize, now: SimTime) -> SimDuration {
        self.sched.next_background_at[core]
            .min(self.nic.next_deliver_at)
            .saturating_since(now)
    }

    /// Number of client requests currently outstanding at this node: buffered
    /// in the NIC, queued for dispatch, reserved on a waking core or in
    /// service. The join-shortest-queue routing policy's load signal.
    #[must_use]
    pub fn outstanding_requests(&self) -> usize {
        let client = |w: &Option<WorkItem>| matches!(w, Some(WorkItem::Client(_)));
        self.nic.buffer.len()
            + self.sched.client_queue.len()
            + self.sched.running.iter().filter(|w| client(w)).count()
            + self
                .sched
                .pending_start
                .iter()
                .filter(|w| client(w))
                .count()
    }
}

/// Node-scoped access to the shared state of a simulation hosting one or
/// more complete servers.
///
/// Every server component carries the index of the node it belongs to and
/// reaches its node's [`ServerState`] through this trait, so the same
/// component code runs unchanged inside a standalone
/// [`crate::sim::ServerSimulation`] (where the shared type *is* the one
/// `ServerState`) and inside a [`crate::cluster::ClusterSimulation`] (where
/// the shared type is a [`ClusterState`] holding N of them).
pub trait HasNode {
    /// The state of node `index`.
    fn node(&self, index: usize) -> &ServerState;
    /// Mutable state of node `index`.
    fn node_mut(&mut self, index: usize) -> &mut ServerState;
    /// Number of nodes hosted by the simulation.
    fn node_count(&self) -> usize;
    /// The cluster's network fabric, when one is configured. Defaults to
    /// `None` — a standalone server has no fabric and a cluster without a
    /// `[network]` configuration behaves identically to one — so every
    /// transmission helper (see [`super::fabric`]) degrades to the
    /// instantaneous pre-fabric path.
    fn fabric_mut(&mut self) -> Option<&mut super::fabric::FabricState> {
        None
    }
    /// The simulation's request-tracing state, when tracing is enabled.
    /// Defaults to `None` (tracing off). A standalone server resolves it to
    /// the node's [`TelemetryState::trace`]; a cluster resolves it to the
    /// shared [`ClusterState::trace`] so one sampler and one span log cover
    /// requests that cross nodes.
    fn trace_mut(&mut self) -> Option<&mut TraceState> {
        None
    }
}

/// The single-server case: the state is its own (only) node.
impl HasNode for ServerState {
    fn node(&self, index: usize) -> &ServerState {
        debug_assert_eq!(index, 0, "single-server state has only node 0");
        self
    }

    fn node_mut(&mut self, index: usize) -> &mut ServerState {
        debug_assert_eq!(index, 0, "single-server state has only node 0");
        self
    }

    fn node_count(&self) -> usize {
        1
    }

    fn trace_mut(&mut self) -> Option<&mut TraceState> {
        self.telemetry.trace.as_mut()
    }
}

/// The state shared by every component of a cluster simulation: one complete
/// [`ServerState`] per node, hosted in a single event loop.
#[derive(Debug)]
pub struct ClusterState {
    /// Per-node server state, indexed by node number.
    pub nodes: Vec<ServerState>,
    /// The network fabric every routed RPC and leaf report crosses; `None`
    /// keeps the instantaneous-deposit behaviour.
    pub fabric: Option<super::fabric::FabricState>,
    /// Cluster-wide request tracing: one sampler and one span log shared by
    /// every node, because a routed request's span tree crosses nodes.
    /// `None` when tracing is off.
    pub trace: Option<TraceState>,
}

impl ClusterState {
    /// Builds the cluster state for one [`ServerConfig`] per node, without a
    /// network fabric (instantaneous deposits).
    #[must_use]
    pub fn new(configs: Vec<ServerConfig>) -> Self {
        ClusterState {
            nodes: configs.into_iter().map(ServerState::new).collect(),
            fabric: None,
            trace: None,
        }
    }
}

impl HasNode for ClusterState {
    fn node(&self, index: usize) -> &ServerState {
        &self.nodes[index]
    }

    fn node_mut(&mut self, index: usize) -> &mut ServerState {
        &mut self.nodes[index]
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn fabric_mut(&mut self) -> Option<&mut super::fabric::FabricState> {
        self.fabric.as_mut()
    }

    fn trace_mut(&mut self) -> Option<&mut TraceState> {
        self.trace.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;

    #[test]
    fn free_core_set_basic_operations() {
        let mut set = FreeCoreSet::new_all_occupied(10);
        assert_eq!(set.lowest(), None);
        assert_eq!(set.count(), 0);
        set.insert(7);
        set.insert(3);
        assert!(set.contains(3) && set.contains(7) && !set.contains(4));
        assert_eq!(set.lowest(), Some(3));
        assert_eq!(set.lowest_at_or_after(4), Some(7));
        assert_eq!(set.lowest_at_or_after(8), None);
        set.remove(3);
        assert_eq!(set.lowest(), Some(7));
        assert_eq!(set.count(), 1);
    }

    #[test]
    fn free_core_set_crosses_word_boundaries() {
        let mut set = FreeCoreSet::new_all_occupied(130);
        set.insert(129);
        set.insert(64);
        assert_eq!(set.lowest(), Some(64));
        assert_eq!(set.lowest_at_or_after(65), Some(129));
        assert_eq!(set.lowest_at_or_after(130), None);
        set.remove(64);
        assert_eq!(set.lowest(), Some(129));
        assert_eq!(set.count(), 1);
    }

    #[test]
    fn free_core_set_mirrors_core_is_free() {
        // Freeing/occupying through the SchedState helpers keeps the bitset
        // in lock-step with the slow predicate it replaces.
        let config = ServerConfig::c_pc1a();
        let mut state = ServerState::new(config);
        let cores = state.soc.cores().len();
        assert!(cores >= 10, "reference topology has 10+ cores");
        // Boot state: every core busy, nothing free either way.
        for c in 0..cores {
            assert!(!state.sched.core_is_free(&state.soc, c));
            assert!(!state.sched.free_cores.contains(c));
        }
        // Idle the even cores the way the core component does.
        let now = apc_sim::SimTime::from_micros(1);
        for c in (0..cores).step_by(2) {
            state
                .soc
                .cores_mut()
                .core_mut(apc_soc::core::CoreId(c))
                .begin_idle(now, apc_soc::cstate::CoreCState::CC1);
            state.sched.mark_free(c);
        }
        for c in 0..cores {
            assert_eq!(
                state.sched.core_is_free(&state.soc, c),
                state.sched.free_cores.contains(c),
                "bitset out of sync for core {c}"
            );
        }
        assert_eq!(state.sched.free_cores.lowest(), Some(0));
        // Reserving a core (scheduler assign path) re-occupies it.
        state.sched.pending_start[0] = Some(WorkItem::Background {
            work: SimDuration::from_micros(5),
        });
        state.sched.mark_occupied(0);
        assert!(!state.sched.core_is_free(&state.soc, 0));
        assert_eq!(state.sched.free_cores.lowest(), Some(2));
    }

    #[test]
    fn outstanding_requests_counts_every_stage() {
        let mut state = ServerState::new(ServerConfig::c_pc1a());
        assert_eq!(state.outstanding_requests(), 0);
        let request = || {
            apc_workloads::request::Request::new(
                apc_workloads::request::RequestId(0),
                apc_workloads::request::RequestClass::KvGet,
                apc_sim::SimTime::ZERO,
                SimDuration::from_micros(10),
            )
        };
        state.nic.buffer.push_back(request());
        state.sched.client_queue.push_back(request());
        state.sched.running[0] = Some(WorkItem::Client(request()));
        state.sched.pending_start[1] = Some(WorkItem::Client(request()));
        // Background work never counts.
        state.sched.running[2] = Some(WorkItem::Background {
            work: SimDuration::from_micros(5),
        });
        assert_eq!(state.outstanding_requests(), 4);
    }
}
