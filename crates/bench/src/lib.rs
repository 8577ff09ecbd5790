//! # beacon-bench — benchmark harnesses for the BEACON reproduction
//!
//! The library holds the workload scales and PE counts shared by the
//! package's binaries:
//!
//! * the **`figures` binary** (`cargo run -p beacon-bench --bin figures
//!   --release`) regenerates every table and figure of the paper as text
//!   tables (see `EXPERIMENTS.md` for the recorded output), and
//! * the **`simspeed` binary** times the simulator itself on a fixed
//!   set of kernel × genome cells and writes `BENCH_SIM.json`.

#![warn(missing_docs)]

use beacon_core::experiments::WorkloadScale;

/// The workload scale of `figures --quick` and of `simspeed`'s default
/// cells: large enough to be bandwidth-dominated, small enough to
/// iterate.
pub fn bench_scale() -> WorkloadScale {
    WorkloadScale {
        pt_genome_len: 60_000,
        reads: 256,
        read_len: 64,
        error_rate: 0.01,
        kmer_k: 28,
        kmer_reads: 96,
        cbf_bytes: 256 * 1024,
        seed: 42,
    }
}

/// The workload scale used by the `figures` binary: the saturation
/// regime where the paper's bandwidth effects dominate latency.
pub fn figures_scale() -> WorkloadScale {
    WorkloadScale {
        pt_genome_len: 400_000,
        reads: 4096,
        read_len: 64,
        error_rate: 0.01,
        kmer_k: 28,
        kmer_reads: 1024,
        cbf_bytes: 1 << 20,
        seed: 42,
    }
}

/// PEs per compute module used by the figure harness (paper: 128).
pub const FIGURE_PES: usize = 128;

/// PEs per module for `figures --quick`.
pub const BENCH_PES: usize = 32;
