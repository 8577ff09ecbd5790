//! One Criterion bench per paper table/figure: times a reduced run of
//! each experiment harness so regressions in the simulator's performance
//! (and accidental workload blow-ups) are caught.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use beacon_accel::result::RunResult;
use beacon_bench::{bench_scale, BENCH_PES};
use beacon_core::config::{BeaconVariant, Optimizations};
use beacon_core::experiments::{
    common::{
        fm_workload, hash_workload, kmer_workload, prealign_workload, run_beacon, run_medal,
        run_nest, AppWorkload,
    },
    fig13,
};
use beacon_genomics::genome::GenomeId;
use beacon_sim::engine::RunOptions;

/// BEACON at bench PEs on the production engine configuration.
fn beacon(variant: BeaconVariant, opts: Optimizations, w: &AppWorkload) -> RunResult {
    run_beacon(variant, opts, w, BENCH_PES, RunOptions::default())
}

fn bench_fig3_baselines(c: &mut Criterion) {
    let scale = bench_scale();
    let fm = fm_workload(GenomeId::Pt, &scale);
    let km = kmer_workload(&scale);
    let mut g = c.benchmark_group("fig3_baselines");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(5));
    g.bench_function("medal_fm_real", |b| {
        b.iter(|| run_medal(&fm, false, BENCH_PES))
    });
    g.bench_function("medal_fm_ideal", |b| {
        b.iter(|| run_medal(&fm, true, BENCH_PES))
    });
    g.bench_function("nest_kmer_real", |b| {
        b.iter(|| run_nest(&km, scale.cbf_bytes, false, BENCH_PES))
    });
    g.finish();
}

fn bench_fig12_fm_seeding(c: &mut Criterion) {
    let scale = bench_scale();
    let w = fm_workload(GenomeId::Pt, &scale);
    let mut g = c.benchmark_group("fig12_fm_seeding");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(5));
    for (label, opts) in Optimizations::ladder(BeaconVariant::D, w.app) {
        let w2 = w.clone();
        g.bench_function(format!("beacon_d/{label}"), move |b| {
            b.iter(|| beacon(BeaconVariant::D, opts, &w2))
        });
    }
    let full_s = Optimizations::full(BeaconVariant::S, w.app);
    g.bench_function("beacon_s/full", |b| {
        b.iter(|| beacon(BeaconVariant::S, full_s, &w))
    });
    g.finish();
}

fn bench_fig13_chip_balance(c: &mut Criterion) {
    let scale = bench_scale();
    let mut g = c.benchmark_group("fig13_chip_balance");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(5));
    g.bench_function("both_design_points", |b| {
        b.iter(|| fig13::run(&scale, BENCH_PES, RunOptions::default()))
    });
    g.finish();
}

fn bench_fig14_hash_seeding(c: &mut Criterion) {
    let scale = bench_scale();
    let w = hash_workload(GenomeId::Pt, &scale);
    let mut g = c.benchmark_group("fig14_hash_seeding");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(5));
    let full_d = Optimizations::full(BeaconVariant::D, w.app);
    let full_s = Optimizations::full(BeaconVariant::S, w.app);
    g.bench_function("beacon_d/full", |b| {
        b.iter(|| beacon(BeaconVariant::D, full_d, &w))
    });
    g.bench_function("beacon_s/full", |b| {
        b.iter(|| beacon(BeaconVariant::S, full_s, &w))
    });
    g.bench_function("medal", |b| b.iter(|| run_medal(&w, false, BENCH_PES)));
    g.finish();
}

fn bench_fig15_kmer(c: &mut Criterion) {
    let scale = bench_scale();
    let w = kmer_workload(&scale);
    let mut g = c.benchmark_group("fig15_kmer");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(5));
    let full_d = Optimizations::full(BeaconVariant::D, w.app);
    let full_s = Optimizations::full(BeaconVariant::S, w.app);
    let mut multi_s = full_s;
    multi_s.single_pass_kmer = false;
    g.bench_function("beacon_d/full", |b| {
        b.iter(|| beacon(BeaconVariant::D, full_d, &w))
    });
    g.bench_function("beacon_s/single_pass", |b| {
        b.iter(|| beacon(BeaconVariant::S, full_s, &w))
    });
    g.bench_function("beacon_s/multi_pass", |b| {
        b.iter(|| beacon(BeaconVariant::S, multi_s, &w))
    });
    g.bench_function("nest", |b| {
        b.iter(|| run_nest(&w, scale.cbf_bytes, false, BENCH_PES))
    });
    g.finish();
}

fn bench_fig16_prealign(c: &mut Criterion) {
    let scale = bench_scale();
    let w = prealign_workload(GenomeId::Pt, &scale);
    let mut g = c.benchmark_group("fig16_prealign");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(5));
    let full_d = Optimizations::full(BeaconVariant::D, w.app);
    let full_s = Optimizations::full(BeaconVariant::S, w.app);
    g.bench_function("beacon_d/full", |b| {
        b.iter(|| beacon(BeaconVariant::D, full_d, &w))
    });
    g.bench_function("beacon_s/full", |b| {
        b.iter(|| beacon(BeaconVariant::S, full_s, &w))
    });
    g.finish();
}

fn bench_fig17_breakdown(c: &mut Criterion) {
    // Fig. 17 reuses the ladder runs; benching the vanilla-vs-full pair
    // captures its cost profile without repeating the whole ladder.
    let scale = bench_scale();
    let w = fm_workload(GenomeId::Pt, &scale);
    let mut g = c.benchmark_group("fig17_breakdown");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(5));
    g.bench_function("vanilla", |b| {
        b.iter(|| beacon(BeaconVariant::D, Optimizations::vanilla(), &w))
    });
    let full = Optimizations::full(BeaconVariant::D, w.app);
    g.bench_function("full", |b| b.iter(|| beacon(BeaconVariant::D, full, &w)));
    g.finish();
}

criterion_group!(
    figures,
    bench_fig3_baselines,
    bench_fig12_fm_seeding,
    bench_fig13_chip_balance,
    bench_fig14_hash_seeding,
    bench_fig15_kmer,
    bench_fig16_prealign,
    bench_fig17_breakdown
);
criterion_main!(figures);
