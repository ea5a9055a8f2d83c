//! # `apc-analysis` — the paper's analytical models and report formatting
//!
//! * [`savings`] — the Sec. 2 / Eq. 1 power-savings model, the 41 % idle
//!   saving, and an energy-proportionality score;
//! * [`impact`] — the Sec. 6/7.3 performance-impact model
//!   (#transitions × transition cost vs. baseline latency);
//! * [`report`] — fixed-width table rendering shared by the experiment
//!   harnesses;
//! * [`export`] — the hand-rolled JSON value, its one printer
//!   (`export::JsonWriter`) and parser, and the JSON form of every
//!   per-run record (runs, sketches, time series, fabric stats, profiles,
//!   Chrome traces);
//! * [`artefact`] — the one writer of every JSON/CSV result artefact and of
//!   the time-series CSV, streamed or buffered (the `apc-cli` output
//!   layer).
//!
//! # Example
//!
//! ```
//! use apc_analysis::savings::idle_savings;
//! use apc_power::budget::PackageStatePower;
//! use apc_soc::cstate::PackageCState;
//!
//! let b = PackageStatePower::skx_reference();
//! let saving = idle_savings(
//!     b.state_power(PackageCState::PC0Idle),
//!     b.state_power(PackageCState::PC1A),
//! );
//! assert!((saving - 0.41).abs() < 0.02);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod artefact;
pub mod export;
pub mod impact;
pub mod report;
pub mod savings;

pub use export::JsonValue;
pub use impact::ImpactInputs;
pub use report::TextTable;
pub use savings::SavingsInputs;
