//! Bandwidth-regime shape checks against the paper's headline claims.
//!
//! These run a mid-size workload (large enough that task-level
//! parallelism hides latency and the bandwidth effects the paper is
//! about dominate). The full-size numbers are produced by
//! `cargo run -p beacon-bench --bin figures --release` and recorded in
//! EXPERIMENTS.md.

use beacon_accel::result::RunResult;
use beacon_core::config::{BeaconVariant, Optimizations};
use beacon_core::experiments::common::{
    fm_workload, kmer_workload, run_beacon, run_cpu, run_medal, run_nest, AppWorkload,
    WorkloadScale,
};
use beacon_core::prelude::RunOptions;
use beacon_genomics::genome::GenomeId;
use beacon_sim::observer::Observer;

const PES: usize = 64;

/// BEACON at `PES` on the production engine configuration.
fn beacon(variant: BeaconVariant, opts: Optimizations, w: &AppWorkload) -> RunResult {
    run_beacon(
        variant,
        opts,
        w,
        PES,
        RunOptions::default(),
        &mut Observer::default(),
    )
}

fn saturation_scale() -> WorkloadScale {
    WorkloadScale {
        pt_genome_len: 100_000,
        reads: 1024,
        read_len: 64,
        error_rate: 0.01,
        kmer_k: 28,
        kmer_reads: 128,
        cbf_bytes: 128 * 1024,
        seed: 42,
    }
}

#[test]
fn fm_seeding_headline_shape() {
    let scale = saturation_scale();
    let w = fm_workload(GenomeId::Pt, &scale);
    let cpu = run_cpu(&w);
    let medal = run_medal(&w, false, PES, &mut Observer::default());

    let vanilla = beacon(BeaconVariant::D, Optimizations::vanilla(), &w);
    let full_d = beacon(
        BeaconVariant::D,
        Optimizations::full(BeaconVariant::D, w.app),
        &w,
    );
    let ideal_d = beacon(
        BeaconVariant::D,
        Optimizations::full_ideal(BeaconVariant::D, w.app),
        &w,
    );
    let full_s = beacon(
        BeaconVariant::S,
        Optimizations::full(BeaconVariant::S, w.app),
        &w,
    );

    // Who wins, in order: BEACON-D ≥ BEACON-S > MEDAL (paper: 4.36x / 2.42x).
    assert!(
        full_d.cycles < medal.cycles,
        "D {} must beat MEDAL {}",
        full_d.cycles,
        medal.cycles
    );
    assert!(full_s.cycles < medal.cycles);
    let d_vs_medal = medal.cycles as f64 / full_d.cycles as f64;
    assert!(
        d_vs_medal > 2.0,
        "D vs MEDAL should be a multiple (paper 4.36x), got {d_vs_medal:.2}x"
    );

    // The optimisations collectively pay (paper: 2.21x for D).
    let gain = vanilla.cycles as f64 / full_d.cycles as f64;
    assert!(gain > 1.5, "optimisation gain {gain:.2}x too small");

    // Communication is no longer the bottleneck: a large fraction of
    // idealized performance even at this reduced scale (the full-scale
    // figures run reaches ~95%+; paper 96.5%).
    let pct = ideal_d.cycles as f64 / full_d.cycles as f64;
    assert!(pct > 0.65, "only {:.1}% of ideal", pct * 100.0);

    // NDP crushes the CPU baseline (paper 525x; scaled runs land lower
    // but still orders of magnitude).
    let vs_cpu = cpu.dram_cycles as f64 / full_d.cycles as f64;
    assert!(vs_cpu > 20.0, "only {vs_cpu:.0}x vs CPU");
}

#[test]
fn kmer_counting_headline_shape() {
    let scale = saturation_scale();
    let w = kmer_workload(&scale);
    let cpu = run_cpu(&w);
    let nest = run_nest(&w, scale.cbf_bytes, false, PES, &mut Observer::default());

    let full_d = beacon(
        BeaconVariant::D,
        Optimizations::full(BeaconVariant::D, w.app),
        &w,
    );
    let full_s = beacon(
        BeaconVariant::S,
        Optimizations::full(BeaconVariant::S, w.app),
        &w,
    );

    // Both designs beat NEST (paper: 5.19x and 6.19x).
    assert!(
        full_d.cycles < nest.cycles,
        "D {} vs NEST {}",
        full_d.cycles,
        nest.cycles
    );
    assert!(
        full_s.cycles < nest.cycles,
        "S {} vs NEST {}",
        full_s.cycles,
        nest.cycles
    );

    // And the CPU (paper: 443x / 528x).
    assert!(cpu.dram_cycles as f64 / full_d.cycles as f64 > 10.0);
    assert!(cpu.dram_cycles as f64 / full_s.cycles as f64 > 10.0);
}

/// Pinned end-to-end digests for the five paper genomes under the
/// default full BEACON-D configuration at test scale. Any change to
/// workload generation, task scheduling, the memory models or the
/// digest itself shows up here — the parallel engine is held to these
/// exact values by `tests/differential.rs`. Regenerate by running the
/// test and copying the "got" block from the failure message.
#[test]
fn fm_golden_digests_are_seed_stable() {
    use beacon_core::config::BeaconConfig;

    let scale = WorkloadScale::test();
    let mut got = String::new();
    for genome in GenomeId::FIVE {
        let w = fm_workload(genome, &scale);
        let opts = Optimizations::full(BeaconVariant::D, w.app);
        let r = run_beacon(
            BeaconVariant::D,
            opts,
            &w,
            8,
            RunOptions::default(),
            &mut Observer::default(),
        );
        got.push_str(&format!("{genome:?}:{:#018x}\n", r.digest()));
    }
    // Sanity-pin the config knobs the digests depend on, so a drifting
    // default fails here with a readable message instead of a hash.
    let cfg = BeaconConfig::paper(BeaconVariant::D, beacon_genomics::trace::AppKind::FmSeeding);
    assert_eq!(cfg.host_latency, 60, "host latency drifted");

    let want = "\
Pt:0x27925aaccad533da
Pg:0x4e7b63e5d59d00ea
Ss:0x2125a319f84c7028
Am:0x05c60224e2603652
Nf:0xdc6b83b827e6084c
";
    assert_eq!(got, want, "golden digests drifted");
}

#[test]
fn medal_is_communication_bound() {
    // Fig. 3: idealized communication speeds MEDAL up by a large factor
    // (paper average 4.36x).
    let scale = saturation_scale();
    let w = fm_workload(GenomeId::Pt, &scale);
    let real = run_medal(&w, false, PES, &mut Observer::default());
    let ideal = run_medal(&w, true, PES, &mut Observer::default());
    // At this reduced scale MEDAL is only partly saturated; the full
    // figures run (EXPERIMENTS.md) shows the ~4x of the paper.
    let gain = real.cycles as f64 / ideal.cycles as f64;
    assert!(gain > 1.4, "MEDAL ideal-comm gain {gain:.2}x too small");
}
