//! Extension beyond genomics (paper §V, "Extension to Other
//! Applications"): BEACON as an accelerator for in-memory database index
//! traversals — the hash-probe workload of Kocberber et al.'s "Meet the
//! Walkers", which the paper cites as a natural fit.
//!
//! A hash-join probe is structurally the hash-seeding kernel: a
//! fine-grained random bucket-header read followed by a spatially-local
//! walk of the bucket's tuple list. We build the traces directly from
//! the trace vocabulary (`Region`/`Access`/`Step`) — no genomics types
//! involved — and run them on both BEACON designs.
//!
//! ```text
//! cargo run -p beacon-core --example extension_database --release
//! ```

use beacon_core::config::{BeaconVariant, Optimizations};
use beacon_core::experiments::common::{run_beacon, run_cpu, AppWorkload};
use beacon_core::mmf::LayoutSpec;
use beacon_genomics::trace::{Access, AppKind, Region, Step, TaskTrace};
use beacon_sim::engine::RunOptions;
use beacon_sim::observer::Observer;
use beacon_sim::rng::SimRng;

/// One probe batch: walk `probes` hash buckets, each with a header read
/// and a tuple-list scan whose length follows the join's skew.
fn probe_trace(
    rng: &mut SimRng,
    table_bytes: u64,
    tuple_region_bytes: u64,
    probes: usize,
) -> TaskTrace {
    let mut steps = Vec::with_capacity(probes * 2);
    for _ in 0..probes {
        // Bucket header: 16 B at a hash-random offset.
        let bucket = rng.below(table_bytes / 16) * 16;
        steps.push(Step::blocking(vec![Access::read(
            Region::HashTable,
            bucket,
            16,
        )]));
        // Tuple list: 1-8 matching tuples of 32 B, stored contiguously.
        let tuples = rng.geometric_between(1, 8, 0.5);
        let list = rng.below(tuple_region_bytes / 256) * 256;
        steps.push(Step::blocking(vec![Access::read(
            Region::CandidateLists,
            list,
            (tuples * 32) as u32,
        )]));
    }
    // The probe engine is the hash-index PE (10-cycle hash + compare).
    TaskTrace::new(AppKind::HashSeeding, steps)
}

fn main() {
    let table_bytes = 4 << 20; // 4 MiB hash table
    let tuple_bytes = 16 << 20; // 16 MiB tuple storage
    let mut rng = SimRng::from_seed(2026);

    let traces: Vec<TaskTrace> = (0..2048)
        .map(|_| probe_trace(&mut rng, table_bytes, tuple_bytes, 8))
        .collect();
    let total_probes: usize = traces.iter().map(|t| t.steps.len() / 2).sum();

    let workload = AppWorkload {
        app: AppKind::HashSeeding,
        traces,
        layout: vec![
            LayoutSpec::shared_random(Region::HashTable, table_bytes),
            LayoutSpec::shared_spatial(Region::CandidateLists, tuple_bytes),
        ],
        medal: vec![],
    };

    let pes = 64;
    let cpu = run_cpu(&workload);
    let full = |v| {
        run_beacon(
            v,
            Optimizations::full(v, workload.app),
            &workload,
            pes,
            RunOptions::default(),
            &mut Observer::default(),
        )
    };
    let d = full(BeaconVariant::D);
    let s = full(BeaconVariant::S);

    println!("database hash-join probe on BEACON (paper §V extension):");
    println!(
        "  {} probe batches, {} probes total",
        workload.traces.len(),
        total_probes
    );
    println!("  CPU roofline: {:>9} cycles", cpu.dram_cycles);
    println!(
        "  BEACON-D:     {:>9} cycles ({:.0}x, {:.1} probes/kilocycle)",
        d.cycles,
        cpu.dram_cycles as f64 / d.cycles as f64,
        total_probes as f64 * 1000.0 / d.cycles as f64
    );
    println!(
        "  BEACON-S:     {:>9} cycles ({:.0}x)",
        s.cycles,
        cpu.dram_cycles as f64 / s.cycles as f64
    );
    println!("\nNo accelerator change was needed: the probe maps onto the");
    println!("hash-probe PE and the same placement/packing machinery.");
}
