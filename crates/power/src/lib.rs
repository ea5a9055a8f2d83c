//! # `apc-power` — per-domain power model and energy accounting
//!
//! This crate turns component states from [`apc_soc`] into watts and joules:
//!
//! * [`units`] — [`units::Watts`] / [`units::Joules`] newtypes;
//! * [`model`] — the calibrated per-domain [`model::PowerModel`] and the
//!   [`model::PowerBreakdown`] snapshot;
//! * [`budget`] — closed-form package-state power budgets reproducing
//!   Table 1 and the Sec. 5.4 component deltas;
//! * [`energy`] — piecewise-constant energy integration over a simulated
//!   timeline.
//!
//! # Example
//!
//! ```
//! use apc_power::budget::PackageStatePower;
//! use apc_soc::cstate::PackageCState;
//!
//! let budget = PackageStatePower::skx_reference();
//! let pc1a = budget.state_power(PackageCState::PC1A);
//! let idle = budget.state_power(PackageCState::PC0Idle);
//!
//! // The paper's headline idle-power claim: PC1A saves ~41 % vs. PC0idle.
//! let saving = 1.0 - pc1a.total().as_f64() / idle.total().as_f64();
//! assert!((saving - 0.41).abs() < 0.02);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod budget;
pub mod energy;
pub mod model;
pub mod units;

pub use budget::{PackageStatePower, StatePower};
pub use energy::{EnergyBreakdown, EnergyMeter};
pub use model::{PowerBreakdown, PowerModel};
pub use units::{Joules, Watts};
