//! Component registry, event dispatch and the simulation driver.
//!
//! This module turns the bare scheduling primitives of [`crate::engine`] into
//! a full discrete-event simulation framework in the style of DSLab's
//! simulation core: user-defined *components* are registered with a
//! [`Simulation`], each receives events through the [`EventHandler`] trait,
//! and produces new events through a [`SimulationContext`] that exposes the
//! clock, the event queue and a per-component deterministic RNG stream.
//!
//! Two type parameters thread through everything:
//!
//! * `E` — the event payload type, typically one enum shared by all
//!   components of a simulation;
//! * `S` — the *shared state* visible to every component (the modelled
//!   hardware, work queues, telemetry). Component-private state lives inside
//!   the component struct itself; anything two components must both observe
//!   belongs in `S`.
//!
//! Determinism: [`Simulation::new`] seeds one root [`SimRng`]; every
//! registered component receives a stream forked from that root by component
//! name, so identical seeds yield bit-identical runs regardless of how much
//! randomness any individual component consumes.
//!
//! # Example
//!
//! ```
//! use apc_sim::component::{EventHandler, Simulation, SimulationContext};
//! use apc_sim::{SimDuration, SimTime};
//!
//! #[derive(Debug, Clone, Copy, PartialEq, Eq)]
//! enum Event {
//!     Ping,
//!     Pong,
//! }
//!
//! #[derive(Default)]
//! struct Counter {
//!     pings: u64,
//! }
//!
//! struct PingPong;
//!
//! impl EventHandler<Event, Counter> for PingPong {
//!     fn on_event(
//!         &mut self,
//!         event: Event,
//!         shared: &mut Counter,
//!         ctx: &mut SimulationContext<'_, Event>,
//!     ) {
//!         if event == Event::Ping {
//!             shared.pings += 1;
//!             if shared.pings < 3 {
//!                 ctx.emit_self(SimDuration::from_micros(1), Event::Ping);
//!             }
//!             ctx.emit_self(SimDuration::ZERO, Event::Pong);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42, Counter::default());
//! let player = sim.add_component("player", PingPong);
//! sim.schedule(player, SimTime::from_micros(1), Event::Ping);
//! sim.run_until(SimTime::from_millis(1));
//! assert_eq!(sim.shared().pings, 3);
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use crate::engine::{EventId, EventQueue};
use crate::rng::SimRng;
use crate::time::SimTime;

/// Identifier of a registered simulation component. Returned by
/// [`Simulation::add_component`] and used as the destination of emitted
/// events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(usize);

impl ComponentId {
    /// The raw index value (useful for logging).
    #[must_use]
    pub const fn as_usize(self) -> usize {
        self.0
    }

    /// Builds an id from a raw index.
    ///
    /// Ids are assigned by [`Simulation::add_component`] in registration
    /// order starting at 0, so a driver with a fixed registration layout can
    /// pre-compute peer ids for components that reference each other
    /// cyclically (and should assert the layout with the returned ids).
    #[must_use]
    pub const fn from_raw(index: usize) -> Self {
        ComponentId(index)
    }
}

/// An event in flight: destination component plus user payload.
#[derive(Debug)]
struct Envelope<E> {
    dst: ComponentId,
    payload: E,
}

/// The per-component face of the simulation: clock access, event emission and
/// a deterministic private RNG stream.
///
/// A fresh context is constructed for every dispatched event, borrowing the
/// queue and the receiving component's RNG from the [`Simulation`].
pub struct SimulationContext<'a, E> {
    now: SimTime,
    self_id: ComponentId,
    queue: &'a mut EventQueue<Envelope<E>>,
    rng: &'a mut SimRng,
}

impl<E> SimulationContext<'_, E> {
    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component this context belongs to.
    #[must_use]
    pub fn id(&self) -> ComponentId {
        self.self_id
    }

    /// The component's private deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Emits an event to `dst` at absolute time `at`.
    pub fn emit_at(&mut self, dst: ComponentId, at: SimTime, payload: E) -> EventId {
        self.queue.schedule(at, Envelope { dst, payload })
    }

    /// Emits an event to `dst` after `delay`.
    pub fn emit(
        &mut self,
        dst: ComponentId,
        delay: crate::time::SimDuration,
        payload: E,
    ) -> EventId {
        self.emit_at(dst, self.now + delay, payload)
    }

    /// Emits a zero-delay event to `dst`, delivered at the current timestamp
    /// after all events already queued for this instant (FIFO).
    pub fn emit_now(&mut self, dst: ComponentId, payload: E) -> EventId {
        self.emit_at(dst, self.now, payload)
    }

    /// Emits an event to the component itself after `delay`.
    pub fn emit_self(&mut self, delay: crate::time::SimDuration, payload: E) -> EventId {
        self.emit(self.self_id, delay, payload)
    }

    /// Emits an event to the component itself at absolute time `at`.
    pub fn emit_self_at(&mut self, at: SimTime, payload: E) -> EventId {
        self.emit_at(self.self_id, at, payload)
    }

    /// Cancels a previously emitted event in O(1).
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }
}

/// A simulation component: consumes events addressed to it and may observe
/// every dispatch through the pre/post hooks.
///
/// Components receive `&mut` access to the shared state `S` and produce new
/// events through the [`SimulationContext`]. The hooks default to no-ops; a
/// telemetry component typically overrides them to attribute elapsed
/// simulated time to the power state that held during it *before* an event
/// mutates that state ([`EventHandler::on_pre_dispatch`]) and to sample
/// derived state after the mutation ([`EventHandler::on_post_dispatch`]).
pub trait EventHandler<E, S> {
    /// Delivers an event addressed to this component.
    fn on_event(&mut self, event: E, shared: &mut S, ctx: &mut SimulationContext<'_, E>);

    /// Whether this component wants its dispatch hooks invoked. Sampled once
    /// at registration time; only observing components pay the per-event
    /// hook cost, so the main loop stays O(observers) rather than
    /// O(components) per event. Components overriding
    /// [`EventHandler::on_pre_dispatch`] or [`EventHandler::on_post_dispatch`]
    /// must also override this to return `true`. An observer watches every
    /// event by default; the driver can narrow it to events addressed to
    /// specific components with [`Simulation::scope_observer`].
    fn observes_dispatch(&self) -> bool {
        false
    }

    /// Whether this observer wants the *pre*-dispatch hook. Defaults to
    /// [`EventHandler::observes_dispatch`]; a post-only observer (one whose
    /// [`EventHandler::on_pre_dispatch`] stays the default no-op) should
    /// override this to `false` so the main loop never pays a virtual call
    /// for the empty hook. Sampled once at registration time.
    fn observes_pre_dispatch(&self) -> bool {
        self.observes_dispatch()
    }

    /// Whether this observer wants the *post*-dispatch hook. Defaults to
    /// [`EventHandler::observes_dispatch`]; see
    /// [`EventHandler::observes_pre_dispatch`] for the narrowing rationale.
    fn observes_post_dispatch(&self) -> bool {
        self.observes_dispatch()
    }

    /// Called for every observing component immediately before an event is
    /// dispatched (the clock has already advanced to the event's timestamp).
    /// `dst` is the event's destination component, letting a scoped observer
    /// subscribed to several targets tell which one is about to run.
    fn on_pre_dispatch(&mut self, _now: SimTime, _dst: ComponentId, _shared: &mut S) {}

    /// Called for every observing component immediately after an event was
    /// dispatched. `dst` is the component that handled it.
    fn on_post_dispatch(&mut self, _now: SimTime, _dst: ComponentId, _shared: &mut S) {}
}

/// Registering an `Rc<RefCell<T>>` lets the caller keep a handle to the
/// component and inspect its private state after (or between) runs, in the
/// style of DSLab's shared component handles.
impl<E, S, T: EventHandler<E, S>> EventHandler<E, S> for Rc<RefCell<T>> {
    fn on_event(&mut self, event: E, shared: &mut S, ctx: &mut SimulationContext<'_, E>) {
        self.borrow_mut().on_event(event, shared, ctx);
    }

    fn observes_dispatch(&self) -> bool {
        self.borrow().observes_dispatch()
    }

    fn observes_pre_dispatch(&self) -> bool {
        self.borrow().observes_pre_dispatch()
    }

    fn observes_post_dispatch(&self) -> bool {
        self.borrow().observes_post_dispatch()
    }

    fn on_pre_dispatch(&mut self, now: SimTime, dst: ComponentId, shared: &mut S) {
        self.borrow_mut().on_pre_dispatch(now, dst, shared);
    }

    fn on_post_dispatch(&mut self, now: SimTime, dst: ComponentId, shared: &mut S) {
        self.borrow_mut().on_post_dispatch(now, dst, shared);
    }
}

/// The simulation driver: owns the clock, the event queue, the root RNG, the
/// shared state and the registered components, and runs the main loop.
///
/// Component storage is a struct-of-arrays (`names` / `rngs` / `handlers`
/// indexed by [`ComponentId`]) so the dispatch loop can borrow a handler,
/// the destination's RNG and the shared state simultaneously as disjoint
/// fields — no `Option` dance or per-event moves.
pub struct Simulation<E, S> {
    queue: EventQueue<Envelope<E>>,
    clock: SimTime,
    root_rng: SimRng,
    names: Vec<String>,
    rngs: Vec<SimRng>,
    handlers: Vec<Box<dyn EventHandler<E, S>>>,
    /// Per-component `(pre, post)` observation flags sampled at registration
    /// ([`EventHandler::observes_pre_dispatch`] /
    /// [`EventHandler::observes_post_dispatch`]); consulted when the
    /// observer is later scoped so each hook list only ever holds
    /// components with a non-default hook body.
    observes: Vec<(bool, bool)>,
    /// Indices of *global* observers: components whose observation flags
    /// were set at registration and that have not been narrowed with
    /// [`Simulation::scope_observer`]. These pay the hook cost on every
    /// dispatched event. Split by phase so a post-only observer costs
    /// nothing on the pre pass (and vice versa).
    observers_pre: Vec<usize>,
    observers_post: Vec<usize>,
    /// Per-destination observer lists: `scoped_pre[dst]` /
    /// `scoped_post[dst]` hold the indices of scoped observers whose hooks
    /// run when an event addressed to component `dst` is dispatched (see
    /// [`Simulation::scope_observer`]). Outer index is the destination
    /// component id; inner order is subscription order.
    scoped_pre: Vec<Vec<usize>>,
    scoped_post: Vec<Vec<usize>>,
    shared: S,
}

impl<E, S> Simulation<E, S> {
    /// Creates a simulation with the given root seed and shared state.
    #[must_use]
    pub fn new(seed: u64, shared: S) -> Self {
        Simulation {
            queue: EventQueue::new(),
            clock: SimTime::ZERO,
            root_rng: SimRng::from_seed(seed),
            names: Vec::new(),
            rngs: Vec::new(),
            handlers: Vec::new(),
            observes: Vec::new(),
            observers_pre: Vec::new(),
            observers_post: Vec::new(),
            scoped_pre: Vec::new(),
            scoped_post: Vec::new(),
            shared,
        }
    }

    /// Registers a component under a unique name and returns its id.
    ///
    /// The component's RNG stream is forked from the root seed by name, so
    /// registration order does not affect determinism.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered.
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        handler: impl EventHandler<E, S> + 'static,
    ) -> ComponentId {
        let name = name.into();
        let rng = self.root_rng.fork(&name);
        self.add_component_with_stream(name, handler, rng)
    }

    /// Registers a component under a unique name with an explicitly supplied
    /// RNG stream instead of the default root-seed-by-name fork.
    ///
    /// This decouples a component's *registration name* (which must be
    /// unique within the simulation) from its *randomness stream* (which the
    /// caller may want to derive from some other root). The cluster layer
    /// relies on this: node components are registered under prefixed names
    /// (`"node 1 nic"`, …) while their streams are forked from the node's
    /// own seed by the unprefixed label, so an N-node host simulation gives
    /// every node exactly the streams a standalone single-server simulation
    /// with the same node seed would (see [`SimRng::fork`], which is a pure
    /// function of `(parent seed, label)`).
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered.
    pub fn add_component_with_stream(
        &mut self,
        name: impl Into<String>,
        handler: impl EventHandler<E, S> + 'static,
        rng: SimRng,
    ) -> ComponentId {
        let name = name.into();
        assert!(
            self.lookup(&name).is_none(),
            "component name {name:?} registered twice"
        );
        let index = self.handlers.len();
        let flags = (
            handler.observes_pre_dispatch(),
            handler.observes_post_dispatch(),
        );
        if flags.0 {
            self.observers_pre.push(index);
        }
        if flags.1 {
            self.observers_post.push(index);
        }
        self.observes.push(flags);
        self.names.push(name);
        self.rngs.push(rng);
        self.handlers.push(Box::new(handler));
        ComponentId(index)
    }

    /// Narrows an observing component's dispatch hooks to events addressed
    /// to `targets` (instead of every event in the simulation).
    ///
    /// By default an observer ([`EventHandler::observes_dispatch`] `true`)
    /// runs its pre/post hooks on **every** dispatched event. In a
    /// simulation hosting many independent sub-systems (e.g. the nodes of a
    /// cluster) that fans each event past every sub-system's observers, so
    /// the per-event cost grows with the host size even though only one
    /// sub-system's state can change per event. Scoping restores O(1)
    /// hooks per event: after this call the observer's hooks run only for
    /// events addressed to one of `targets`.
    ///
    /// Scoping is correct when everything the observer's hooks read can
    /// only be mutated by events addressed to `targets` — then every hook
    /// invocation this skips would have observed (and recorded) exactly the
    /// state it observed at the previous invocation. Use
    /// [`Simulation::add_observer_target`] to extend the set later (e.g.
    /// with a router component registered after the sub-system).
    ///
    /// Hook order per event: global observers first (registration order),
    /// then the destination's scoped observers (subscription order).
    ///
    /// # Panics
    ///
    /// Panics if `observer` was not registered as an observing component or
    /// has already been scoped.
    pub fn scope_observer(&mut self, observer: ComponentId, targets: &[ComponentId]) {
        let in_pre = self.observers_pre.iter().position(|&i| i == observer.0);
        let in_post = self.observers_post.iter().position(|&i| i == observer.0);
        assert!(
            in_pre.is_some() || in_post.is_some(),
            "component {:?} is not an unscoped dispatch observer",
            self.name(observer)
        );
        if let Some(pos) = in_pre {
            self.observers_pre.remove(pos);
        }
        if let Some(pos) = in_post {
            self.observers_post.remove(pos);
        }
        for &target in targets {
            self.add_scoped(observer.0, target);
        }
    }

    /// Additionally runs the (already scoped) observer's hooks for events
    /// addressed to `target`. See [`Simulation::scope_observer`].
    ///
    /// # Panics
    ///
    /// Panics if `observer` is still a global observer (scope it first) or
    /// is already subscribed to `target`.
    pub fn add_observer_target(&mut self, observer: ComponentId, target: ComponentId) {
        assert!(
            !self.observers_pre.contains(&observer.0) && !self.observers_post.contains(&observer.0),
            "component {:?} observes every event; scope it before adding targets",
            self.name(observer)
        );
        self.add_scoped(observer.0, target);
    }

    fn add_scoped(&mut self, observer: usize, target: ComponentId) {
        let (pre, post) = self.observes[observer];
        if self.scoped_pre.len() <= target.0 {
            self.scoped_pre.resize_with(target.0 + 1, Vec::new);
            self.scoped_post.resize_with(target.0 + 1, Vec::new);
        }
        assert!(
            !self.scoped_pre[target.0].contains(&observer)
                && !self.scoped_post[target.0].contains(&observer),
            "observer {observer} already subscribed to component {}",
            target.0
        );
        if pre {
            self.scoped_pre[target.0].push(observer);
        }
        if post {
            self.scoped_post[target.0].push(observer);
        }
    }

    /// Finds a component id by registration name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<ComponentId> {
        self.names.iter().position(|n| n == name).map(ComponentId)
    }

    /// The registration name of a component.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this simulation.
    #[must_use]
    pub fn name(&self, id: ComponentId) -> &str {
        &self.names[id.0]
    }

    /// The number of registered components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.handlers.len()
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of events dispatched so far.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.queue.delivered()
    }

    /// Snapshot of the event queue's always-on self-profiling counters.
    #[must_use]
    pub fn queue_counters(&self) -> crate::engine::QueueCounters {
        self.queue.counters()
    }

    /// Enables per-event-kind profiling on the underlying queue: `classify`
    /// maps each payload to a kind index in `0..kinds`. Purely observational —
    /// dispatch order and component behaviour are unaffected.
    pub fn enable_event_profile(&mut self, kinds: usize, classify: impl Fn(&E) -> usize + 'static)
    where
        E: 'static,
    {
        self.queue
            .enable_profile(kinds, move |env: &Envelope<E>| classify(&env.payload));
    }

    /// Per-event-kind counter rows, if [`Simulation::enable_event_profile`]
    /// was called.
    #[must_use]
    pub fn event_profile(&self) -> Option<&[crate::engine::KindCounters]> {
        self.queue.kind_counters()
    }

    /// Shared state, read-only.
    #[must_use]
    pub fn shared(&self) -> &S {
        &self.shared
    }

    /// Shared state, mutable (for bootstrap and result extraction).
    pub fn shared_mut(&mut self) -> &mut S {
        &mut self.shared
    }

    /// Consumes the simulation and returns the shared state.
    #[must_use]
    pub fn into_shared(self) -> S {
        self.shared
    }

    /// Forks a named RNG stream off the root seed (for driver-level draws
    /// that should not perturb component streams).
    #[must_use]
    pub fn fork_rng(&self, label: &str) -> SimRng {
        self.root_rng.fork(label)
    }

    /// Schedules an event from outside any component (bootstrap).
    pub fn schedule(&mut self, dst: ComponentId, at: SimTime, payload: E) -> EventId {
        self.queue.schedule(at, Envelope { dst, payload })
    }

    /// Cancels a previously scheduled event in O(1).
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Dispatches the next event: advances the clock, runs the pre-dispatch
    /// hook of every observer watching the destination (global observers
    /// plus the destination's scoped observers — see
    /// [`Simulation::scope_observer`]), delivers the event, then runs the
    /// same observers' post-dispatch hooks. Returns the event's timestamp,
    /// or `None` when the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses an unregistered component.
    pub fn step(&mut self) -> Option<SimTime> {
        let (time, envelope) = self.queue.pop()?;
        self.clock = time;
        let dst = envelope.dst.0;
        assert!(
            dst < self.handlers.len(),
            "event addressed to unregistered component {dst}"
        );
        self.run_pre_hooks(time, envelope.dst);
        let mut ctx = SimulationContext {
            now: time,
            self_id: envelope.dst,
            queue: &mut self.queue,
            rng: &mut self.rngs[dst],
        };
        self.handlers[dst].on_event(envelope.payload, &mut self.shared, &mut ctx);
        self.run_post_hooks(time, envelope.dst);
        Some(time)
    }

    /// Runs the simulation until the queue drains or the next event's
    /// timestamp reaches `horizon` (events at or after the horizon stay
    /// queued; the clock stays at the last dispatched event). Returns the
    /// number of events dispatched.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let mut dispatched = 0;
        while let Some(t) = self.queue.peek_time() {
            if t >= horizon {
                break;
            }
            self.step();
            dispatched += 1;
        }
        dispatched
    }

    // Global observers (registration order), then the destination's scoped
    // observers (subscription order). Observer sets never change mid-run, so
    // the two passes cover each watching observer once.
    fn run_pre_hooks(&mut self, now: SimTime, dst: ComponentId) {
        for idx in 0..self.observers_pre.len() {
            let i = self.observers_pre[idx];
            self.handlers[i].on_pre_dispatch(now, dst, &mut self.shared);
        }
        let scoped_count = self.scoped_pre.get(dst.0).map_or(0, Vec::len);
        for idx in 0..scoped_count {
            let i = self.scoped_pre[dst.0][idx];
            self.handlers[i].on_pre_dispatch(now, dst, &mut self.shared);
        }
    }

    fn run_post_hooks(&mut self, now: SimTime, dst: ComponentId) {
        for idx in 0..self.observers_post.len() {
            let i = self.observers_post[idx];
            self.handlers[i].on_post_dispatch(now, dst, &mut self.shared);
        }
        let scoped_count = self.scoped_post.get(dst.0).map_or(0, Vec::len);
        for idx in 0..scoped_count {
            let i = self.scoped_post[dst.0][idx];
            self.handlers[i].on_post_dispatch(now, dst, &mut self.shared);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Tick,
        Forward,
        Noise,
    }

    #[derive(Default)]
    struct Shared {
        ticks: u64,
        forwards: u64,
        pre_calls: u64,
        post_calls: u64,
        draws: Vec<u64>,
    }

    struct Ticker {
        peer: Option<ComponentId>,
    }

    impl EventHandler<Ev, Shared> for Ticker {
        fn on_event(
            &mut self,
            event: Ev,
            shared: &mut Shared,
            ctx: &mut SimulationContext<'_, Ev>,
        ) {
            match event {
                Ev::Tick => {
                    shared.ticks += 1;
                    if let Some(peer) = self.peer {
                        ctx.emit_now(peer, Ev::Forward);
                    }
                    if shared.ticks < 5 {
                        ctx.emit_self(SimDuration::from_micros(10), Ev::Tick);
                    }
                }
                Ev::Noise => shared.draws.push(ctx.rng().next_u64()),
                Ev::Forward => unreachable!("ticker never receives forwards"),
            }
        }
    }

    struct Sink;

    impl EventHandler<Ev, Shared> for Sink {
        fn on_event(
            &mut self,
            event: Ev,
            shared: &mut Shared,
            _ctx: &mut SimulationContext<'_, Ev>,
        ) {
            assert_eq!(event, Ev::Forward);
            shared.forwards += 1;
        }

        fn observes_dispatch(&self) -> bool {
            true
        }

        fn on_pre_dispatch(&mut self, _now: SimTime, _dst: ComponentId, shared: &mut Shared) {
            shared.pre_calls += 1;
        }

        fn on_post_dispatch(&mut self, _now: SimTime, _dst: ComponentId, shared: &mut Shared) {
            shared.post_calls += 1;
        }
    }

    fn build() -> (Simulation<Ev, Shared>, ComponentId, ComponentId) {
        let mut sim = Simulation::new(7, Shared::default());
        let sink = sim.add_component("sink", Sink);
        let ticker = sim.add_component("ticker", Ticker { peer: Some(sink) });
        (sim, ticker, sink)
    }

    #[test]
    fn events_route_to_their_destination() {
        let (mut sim, ticker, _sink) = build();
        sim.schedule(ticker, SimTime::from_micros(1), Ev::Tick);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.shared().ticks, 5);
        assert_eq!(sim.shared().forwards, 5);
        assert_eq!(sim.now(), SimTime::from_micros(41));
    }

    #[test]
    fn hooks_fire_once_per_dispatch() {
        let (mut sim, ticker, _sink) = build();
        sim.schedule(ticker, SimTime::from_micros(1), Ev::Tick);
        sim.run_until(SimTime::from_secs(1));
        let dispatched = sim.dispatched();
        assert_eq!(sim.shared().pre_calls, dispatched);
        assert_eq!(sim.shared().post_calls, dispatched);
    }

    #[test]
    fn event_profile_classifies_payloads_without_perturbing_the_run() {
        let run = |profile: bool| {
            let (mut sim, ticker, _sink) = build();
            if profile {
                sim.enable_event_profile(3, |e: &Ev| match e {
                    Ev::Tick => 0,
                    Ev::Forward => 1,
                    Ev::Noise => 2,
                });
            }
            sim.schedule(ticker, SimTime::from_micros(1), Ev::Tick);
            sim.run_until(SimTime::from_secs(1));
            sim
        };
        let plain = run(false);
        let profiled = run(true);
        assert_eq!(plain.shared().ticks, profiled.shared().ticks);
        assert_eq!(plain.dispatched(), profiled.dispatched());
        assert!(plain.event_profile().is_none());
        let kinds = profiled.event_profile().expect("profile enabled");
        assert_eq!(kinds[0].dispatched, 5, "five ticks");
        assert_eq!(kinds[1].dispatched, 5, "five forwards");
        assert_eq!(kinds[2].dispatched, 0);
        let counters = profiled.queue_counters();
        assert_eq!(counters.dispatched, profiled.dispatched());
        assert_eq!(
            counters.scheduled, 10,
            "bootstrap tick + 4 re-arms + 5 forwards"
        );
    }

    #[test]
    fn run_until_leaves_later_events_queued() {
        let (mut sim, ticker, _sink) = build();
        sim.schedule(ticker, SimTime::from_micros(1), Ev::Tick);
        // First tick at 1 us, second at 11 us: a horizon of 11 us must
        // dispatch only the first tick (and its zero-delay forward).
        let n = sim.run_until(SimTime::from_micros(11));
        assert_eq!(n, 2);
        assert_eq!(sim.shared().ticks, 1);
        assert!(sim.peek_time() == Some(SimTime::from_micros(11)));
    }

    #[test]
    fn component_rng_streams_are_deterministic_and_independent() {
        let run = |seed| {
            let mut sim = Simulation::new(seed, Shared::default());
            let ticker = sim.add_component("ticker", Ticker { peer: None });
            sim.schedule(ticker, SimTime::from_micros(1), Ev::Noise);
            sim.schedule(ticker, SimTime::from_micros(2), Ev::Noise);
            sim.run_until(SimTime::from_secs(1));
            sim.into_shared().draws
        };
        assert_eq!(run(42), run(42), "identical seeds, identical streams");
        assert_ne!(run(42), run(43), "different seeds diverge");
    }

    #[test]
    fn lookup_and_names_round_trip() {
        let (sim, ticker, sink) = build();
        assert_eq!(sim.lookup("ticker"), Some(ticker));
        assert_eq!(sim.lookup("sink"), Some(sink));
        assert_eq!(sim.lookup("nope"), None);
        assert_eq!(sim.name(ticker), "ticker");
        assert_eq!(sim.component_count(), 2);
    }

    #[test]
    fn explicit_streams_decouple_name_from_randomness() {
        // A component registered under any name but with a stream forked
        // from (seed, "ticker") must draw exactly what `add_component`'s
        // default name-fork would give a component named "ticker".
        let run = |explicit: bool| {
            let mut sim = Simulation::new(42, Shared::default());
            let ticker = if explicit {
                let rng = SimRng::from_seed(42).fork("ticker");
                sim.add_component_with_stream("prefixed ticker", Ticker { peer: None }, rng)
            } else {
                sim.add_component("ticker", Ticker { peer: None })
            };
            sim.schedule(ticker, SimTime::from_micros(1), Ev::Noise);
            sim.schedule(ticker, SimTime::from_micros(2), Ev::Noise);
            sim.run_until(SimTime::from_secs(1));
            sim.into_shared().draws
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn scoped_observers_fire_only_for_their_targets() {
        // Two tickers, one sink-observer scoped to ticker A: the hooks must
        // fire once per event addressed to A (pre + post), never for B.
        let mut sim = Simulation::new(7, Shared::default());
        let sink = sim.add_component("sink", Sink);
        let a = sim.add_component("a", Ticker { peer: None });
        let b = sim.add_component("b", Ticker { peer: None });
        sim.scope_observer(sink, &[a]);
        sim.schedule(a, SimTime::from_micros(1), Ev::Noise);
        sim.schedule(b, SimTime::from_micros(2), Ev::Noise);
        sim.schedule(b, SimTime::from_micros(3), Ev::Noise);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.shared().pre_calls, 1);
        assert_eq!(sim.shared().post_calls, 1);
    }

    #[test]
    fn observer_targets_can_be_extended() {
        let mut sim = Simulation::new(7, Shared::default());
        let sink = sim.add_component("sink", Sink);
        let a = sim.add_component("a", Ticker { peer: None });
        let b = sim.add_component("b", Ticker { peer: None });
        sim.scope_observer(sink, &[a]);
        sim.add_observer_target(sink, b);
        sim.schedule(a, SimTime::from_micros(1), Ev::Noise);
        sim.schedule(b, SimTime::from_micros(2), Ev::Noise);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.shared().pre_calls, 2);
        assert_eq!(sim.shared().post_calls, 2);
    }

    #[test]
    fn scoping_an_observer_to_all_components_matches_global_default() {
        // The scoped path must reproduce the global path exactly when the
        // scope covers every component (the standalone-server case).
        let run = |scope: bool| {
            let (mut sim, ticker, sink) = build();
            if scope {
                sim.scope_observer(sink, &[ticker, sink]);
            }
            sim.schedule(ticker, SimTime::from_micros(1), Ev::Tick);
            sim.run_until(SimTime::from_secs(1));
            (sim.shared().pre_calls, sim.shared().post_calls)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "not an unscoped dispatch observer")]
    fn scoping_a_non_observer_panics() {
        let mut sim: Simulation<Ev, Shared> = Simulation::new(1, Shared::default());
        let ticker = sim.add_component("ticker", Ticker { peer: None });
        sim.scope_observer(ticker, &[ticker]);
    }

    #[test]
    #[should_panic(expected = "scope it before adding targets")]
    fn adding_targets_to_a_global_observer_panics() {
        let mut sim: Simulation<Ev, Shared> = Simulation::new(1, Shared::default());
        let sink = sim.add_component("sink", Sink);
        sim.add_observer_target(sink, sink);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_panic() {
        let mut sim: Simulation<Ev, Shared> = Simulation::new(1, Shared::default());
        sim.add_component("dup", Sink);
        sim.add_component("dup", Sink);
    }

    #[test]
    fn zero_delay_events_are_fifo_at_one_instant() {
        // The forward emitted during a tick is delivered after the tick
        // handler returns but at the same timestamp.
        let (mut sim, ticker, _sink) = build();
        sim.schedule(ticker, SimTime::from_micros(3), Ev::Tick);
        sim.step();
        assert_eq!(sim.shared().ticks, 1);
        assert_eq!(sim.shared().forwards, 0);
        assert_eq!(sim.peek_time(), Some(SimTime::from_micros(3)));
        sim.step();
        assert_eq!(sim.shared().forwards, 1);
    }
}
