//! Discrete-event scheduling primitives.
//!
//! The full-system server simulation (crate `apc-server`) is written as a
//! classic discrete-event simulation: components schedule future events into
//! an [`EventQueue`], the main loop repeatedly pops the earliest event,
//! advances the simulated clock to its timestamp and dispatches it.
//!
//! The queue is deliberately generic over the event payload so that every
//! layer (workload generators, C-state governors, package flows) can define
//! its own event enumeration while sharing the same scheduling machinery.
//!
//! # Implementations
//!
//! Two queue implementations share the same delivery contract (non-decreasing
//! timestamps, FIFO tie-break by scheduling order, O(1) cancellation,
//! causality clamping of past timestamps):
//!
//! * [`EventQueue`] — the production queue: a hierarchical timer wheel with
//!   slab-backed event entries, per-level occupancy bitmaps, an overflow heap
//!   for far-future events and batched same-timestamp dispatch. Schedule,
//!   cancel and pop are O(1) amortized and allocation-free in steady state.
//! * [`HeapEventQueue`] — the original binary-heap queue with lazy-deleted
//!   cancels, retained as the reference model for the differential test
//!   suite (`tests/event_core_differential.rs`) and as a baseline in the
//!   event-core micro-benchmarks.
//!
//! The contract is pinned bit-for-bit by the differential harness, which runs
//! both implementations in lockstep under randomized schedule / cancel /
//! causality-clamp interleavings.

pub mod heap;
mod wheel;

pub use heap::{HeapEventId, HeapEventQueue};
pub use wheel::{EventId, EventQueue, KindCounters, QueueCounters, QueueFootprint};
