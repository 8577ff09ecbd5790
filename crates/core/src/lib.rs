//! # beacon-core — the BEACON accelerator systems
//!
//! The reproduction's centrepiece: full system models of **BEACON-D**
//! (compute in enhanced CXLG-DIMMs) and **BEACON-S** (compute in enhanced
//! CXL switches) near a disaggregated CXL memory pool, together with the
//! memory-management framework, the optimisation ladder, the energy
//! model and the experiment drivers that regenerate every table and
//! figure of the paper.
//!
//! ```no_run
//! use beacon_core::prelude::*;
//! use beacon_genomics::prelude::*;
//!
//! // Build an FM-index over a synthetic genome and run BEACON-D on it.
//! let genome = Genome::synthetic(GenomeId::Pt, 20_000, 42);
//! let index = FmIndex::build(genome.sequence());
//! let mut reads = ReadSampler::new(&genome, 48, 0.01, 7);
//! let traces: Vec<TaskTrace> =
//!     (0..64).map(|_| index.trace_search(reads.next_read().bases())).collect();
//!
//! let app = AppKind::FmSeeding;
//! let cfg = BeaconConfig::paper(BeaconVariant::D, app)
//!     .with_opts(Optimizations::full(BeaconVariant::D, app));
//! let layout = build_layout(&cfg, &[LayoutSpec::shared_random(
//!     Region::FmIndex, index.index_bytes())]);
//! let mut system = BeaconSystem::new(cfg, layout);
//! system.submit_round_robin(traces);
//! let result = system.run();
//! println!("{} tasks in {} cycles", result.tasks, result.cycles);
//! ```

#![warn(missing_docs)]

pub mod allocator;
pub mod config;
pub mod energy;
pub mod experiments;
pub mod mmf;
mod node;
pub mod obs;
pub mod parallel;
pub mod report;
pub mod snap;
pub mod system;

/// Commonly used items.
pub mod prelude {
    pub use crate::allocator::{AllocError, PoolAllocator, RowGrant};
    pub use crate::config::{BeaconConfig, BeaconVariant, FaultsConfig, Optimizations};
    pub use crate::energy::{EnergyBreakdown, EnergyModel};
    pub use crate::mmf::{build_layout, plan_dimm_loss, LayoutSpec, MemoryLayout, RemapPlan};
    pub use crate::system::BeaconSystem;
    pub use beacon_sim::engine::RunOptions;
    pub use beacon_sim::observer::{ObsConfig, Observer};
}
