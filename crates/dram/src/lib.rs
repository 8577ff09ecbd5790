//! # beacon-dram — cycle-level DDR4 DIMM model
//!
//! A Ramulator-style DRAM timing simulator specialised for the BEACON
//! reproduction. It models:
//!
//! * DDR4 bank state machines with the full primary timing set
//!   (CL/tRCD/tRP/tRAS/tCCD/tRTP/tWR/tRRD/tFAW/tREFI/tRFC),
//! * a DIMM as ranks × chips × banks with a shared command bus and
//!   per-chip data lanes,
//! * three chip-select modes: conventional **rank lock-step**, MEDAL-style
//!   **per-chip** fine-grained access and BEACON's **multi-chip coalesced**
//!   groups,
//! * an FR-FCFS open-page memory controller with per-chip access
//!   histograms (the raw data behind the paper's Fig. 13), and
//! * DRAMPower-style event-counter energy accounting.
//!
//! The crate deals in *DIMM-local* coordinates ([`address::DramCoord`]).
//! Mapping from application addresses to coordinates is the job of the
//! BEACON memory management framework in `beacon-core` (and of
//! [`address::Interleave`] for the standard schemes).
//!
//! ```
//! use beacon_dram::prelude::*;
//! use beacon_sim::prelude::*;
//!
//! let mut dimm = Dimm::new(DimmConfig {
//!     access_mode: AccessMode::PerChip,
//!     refresh_enabled: false,
//!     ..DimmConfig::paper(AccessMode::PerChip)
//! });
//!
//! let coord = DramCoord { rank: 0, group: 3, bank: 5, row: 17, col: 0 };
//! let id = dimm.enqueue(MemRequest::read(coord, 32)).unwrap();
//! let mut engine = Engine::new();
//! engine.run(&mut dimm);
//! let done = dimm.drain_completed();
//! assert_eq!(done.len(), 1);
//! assert_eq!(done[0].id, id);
//! ```

#![warn(missing_docs)]

pub mod address;
pub mod bank;
pub mod command;
pub mod module;
pub mod params;
pub mod power;
pub mod request;
pub mod snap;

/// Commonly used items.
pub mod prelude {
    pub use crate::address::{DramCoord, Interleave};
    pub use crate::command::{CmdKind, Command};
    pub use crate::module::{AccessMode, Dimm, DimmConfig};
    pub use crate::params::{DimmGeometry, TimingParams};
    pub use crate::power::{DramEnergy, EnergyParams};
    pub use crate::request::{CompletedAccess, MemRequest, ReqId, ReqKind};
}
