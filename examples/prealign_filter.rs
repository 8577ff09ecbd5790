//! DNA pre-alignment filtering: measures the filter's accept/reject
//! quality on true vs decoy candidate locations, then runs the workload
//! on both BEACON designs (the paper's Fig. 16 scenario).
//!
//! ```text
//! cargo run -p beacon-core --example prealign_filter --release
//! ```

use beacon_core::config::{BeaconVariant, Optimizations};
use beacon_core::experiments::common::{prealign_workload, run_beacon, run_cpu, WorkloadScale};
use beacon_genomics::prealign::PreAlignFilter;
use beacon_genomics::prelude::*;
use beacon_sim::engine::RunOptions;
use beacon_sim::observer::Observer;
use beacon_sim::rng::SimRng;

fn main() {
    // ---- filter quality -------------------------------------------------
    let genome = Genome::synthetic(GenomeId::Nf, 50_000, 42);
    let filter = PreAlignFilter::new(5);
    let mut sampler = ReadSampler::new(&genome, 100, 0.02, 7);
    let mut rng = SimRng::from_seed(11);

    let n = 500;
    let mut true_accepted = 0;
    let mut decoy_rejected = 0;
    for _ in 0..n {
        let read = sampler.next_read();
        if filter
            .filter(read.bases(), genome.sequence(), read.origin())
            .accept
        {
            true_accepted += 1;
        }
        let decoy = rng.index(genome.len() - 100);
        if !filter.filter(read.bases(), genome.sequence(), decoy).accept {
            decoy_rejected += 1;
        }
    }
    println!("pre-alignment filter (edit threshold 5, 2% error reads):");
    println!("  true locations accepted: {true_accepted}/{n}");
    println!("  decoy locations rejected: {decoy_rejected}/{n}");

    // ---- acceleration ----------------------------------------------------
    let scale = WorkloadScale {
        pt_genome_len: 100_000,
        reads: 512,
        read_len: 100,
        error_rate: 0.02,
        kmer_k: 28,
        kmer_reads: 1,
        cbf_bytes: 1024,
        seed: 42,
    };
    let pes = 64;
    let w = prealign_workload(GenomeId::Nf, &scale);
    let cpu = run_cpu(&w);
    let full = |v| {
        run_beacon(
            v,
            Optimizations::full(v, w.app),
            &w,
            pes,
            RunOptions::default(),
            &mut Observer::default(),
        )
    };
    let d = full(BeaconVariant::D);
    let s = full(BeaconVariant::S);
    println!("\n{} candidates filtered on hardware:", w.traces.len());
    println!("  CPU (Shouji roofline): {:>9} cycles", cpu.dram_cycles);
    println!(
        "  BEACON-D:              {:>9} cycles ({:.0}x)",
        d.cycles,
        cpu.dram_cycles as f64 / d.cycles as f64
    );
    println!(
        "  BEACON-S:              {:>9} cycles ({:.0}x)",
        s.cycles,
        cpu.dram_cycles as f64 / s.cycles as f64
    );
}
