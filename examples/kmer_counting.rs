//! k-mer counting end to end: functional correctness (counting Bloom
//! filter vs exact counts) plus the accelerator comparison — NEST's
//! multi-pass strategy vs BEACON-S single-pass vs BEACON-D.
//!
//! ```text
//! cargo run -p beacon-core --example kmer_counting --release
//! ```

use beacon_core::config::{BeaconVariant, Optimizations};
use beacon_core::experiments::common::{
    kmer_workload, run_beacon, run_cpu, run_nest, WorkloadScale,
};
use beacon_genomics::kmer::{canonical_kmers, KmerCounter};
use beacon_genomics::prelude::*;
use beacon_sim::engine::RunOptions;
use beacon_sim::observer::Observer;

fn main() {
    // ---- functional layer: count k-mers and validate the filter -------
    let genome = Genome::synthetic(GenomeId::Human, 30_000, 42);
    let mut counter = KmerCounter::new(28, 1 << 18, 3, 7);
    let mut sampler = ReadSampler::new(&genome, 100, 0.01, 9);
    let reads = sampler.take_reads(256);
    counter.count_reads(&reads);

    let mut overcounts = 0usize;
    let mut checked = 0usize;
    for read in reads.iter().take(32) {
        for km in canonical_kmers(read.bases(), 28) {
            let exact = counter.exact_count(km);
            let est = counter.estimate(km);
            assert!(est >= exact.min(255), "CBF must upper-bound the true count");
            if est > exact {
                overcounts += 1;
            }
            checked += 1;
        }
    }
    println!(
        "counted {} reads: {} k-mers occur >= 2 times; CBF overcounted {}/{} probes ({:.2}%)",
        reads.len(),
        counter.distinct_at_least(2),
        overcounts,
        checked,
        100.0 * overcounts as f64 / checked as f64
    );

    // ---- accelerator layer: NEST multi-pass vs BEACON ------------------
    let scale = WorkloadScale {
        pt_genome_len: 100_000,
        reads: 1,
        read_len: 100,
        error_rate: 0.01,
        kmer_k: 28,
        kmer_reads: 512,
        cbf_bytes: 512 * 1024,
        seed: 42,
    };
    let pes = 64;
    let w = kmer_workload(&scale);
    let cpu = run_cpu(&w);
    let nest = run_nest(&w, scale.cbf_bytes, false, pes, &mut Observer::default());
    let beacon = |v, opts| {
        run_beacon(
            v,
            opts,
            &w,
            pes,
            RunOptions::default(),
            &mut Observer::default(),
        )
    };
    let d = beacon(
        BeaconVariant::D,
        Optimizations::full(BeaconVariant::D, w.app),
    );
    let s_single = beacon(
        BeaconVariant::S,
        Optimizations::full(BeaconVariant::S, w.app),
    );
    let mut multi = Optimizations::full(BeaconVariant::S, w.app);
    multi.single_pass_kmer = false;
    let s_multi = beacon(BeaconVariant::S, multi);

    println!(
        "\n{} reads of k-mer counting (k=28, CBF {} KiB):",
        scale.kmer_reads,
        scale.cbf_bytes / 1024
    );
    println!(
        "  CPU (BFCounter roofline):    {:>9} cycles",
        cpu.dram_cycles
    );
    println!("  NEST (multi-pass):           {:>9} cycles", nest.cycles);
    println!(
        "  BEACON-S (multi-pass):       {:>9} cycles",
        s_multi.cycles
    );
    println!(
        "  BEACON-S (single-pass):      {:>9} cycles",
        s_single.cycles
    );
    println!("  BEACON-D:                    {:>9} cycles", d.cycles);
    println!(
        "  single-pass gain on S: {:.2}x   BEACON-S vs NEST: {:.2}x   atomic RMWs: {}",
        s_multi.cycles as f64 / s_single.cycles as f64,
        nest.cycles as f64 / s_single.cycles as f64,
        s_single.engine.get("logic.atomics"),
    );
}
