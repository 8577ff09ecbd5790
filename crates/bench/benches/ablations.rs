//! Ablation benches for the design choices DESIGN.md calls out:
//! coalescing group size, PE count scaling, link width, and the NDP
//! bucket-cache depth.

use criterion::{criterion_group, criterion_main, Criterion};

use beacon_bench::{bench_scale, BENCH_PES};
use beacon_core::config::{BeaconConfig, BeaconVariant, Optimizations};
use beacon_core::experiments::common::{fm_workload, run_beacon};
use beacon_core::mmf::build_layout;
use beacon_core::system::BeaconSystem;
use beacon_cxl::params::LinkParams;
use beacon_genomics::genome::GenomeId;
use beacon_sim::engine::RunOptions;

fn bench_coalescing_sweep(c: &mut Criterion) {
    let scale = bench_scale();
    let w = fm_workload(GenomeId::Pt, &scale);
    let mut g = c.benchmark_group("ablation_coalescing");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.measurement_time(std::time::Duration::from_secs(5));
    for chips in [1u32, 2, 4, 8, 16] {
        let mut opts = Optimizations::full(BeaconVariant::D, w.app);
        opts.multi_chip_coalescing = if chips == 1 { None } else { Some(chips) };
        let w2 = w.clone();
        g.bench_function(format!("chips_{chips}"), move |b| {
            b.iter(|| {
                run_beacon(
                    BeaconVariant::D,
                    opts,
                    &w2,
                    BENCH_PES,
                    RunOptions::default(),
                )
            })
        });
    }
    g.finish();
}

fn bench_pe_scaling(c: &mut Criterion) {
    let scale = bench_scale();
    let w = fm_workload(GenomeId::Pt, &scale);
    let opts = Optimizations::full(BeaconVariant::D, w.app);
    let mut g = c.benchmark_group("ablation_pe_scaling");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.measurement_time(std::time::Duration::from_secs(5));
    for pes in [16usize, 64, 128] {
        let w2 = w.clone();
        g.bench_function(format!("pes_{pes}"), move |b| {
            b.iter(|| run_beacon(BeaconVariant::D, opts, &w2, pes, RunOptions::default()))
        });
    }
    g.finish();
}

fn bench_link_width(c: &mut Criterion) {
    let scale = bench_scale();
    let w = fm_workload(GenomeId::Pt, &scale);
    let mut g = c.benchmark_group("ablation_link_width");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.measurement_time(std::time::Duration::from_secs(5));
    for (name, link) in [("x8", LinkParams::cxl_x8()), ("x16", LinkParams::cxl_x16())] {
        let w2 = w.clone();
        g.bench_function(name, move |b| {
            b.iter(|| {
                let mut cfg = BeaconConfig::paper_d(w2.app).with_opts(Optimizations::vanilla());
                cfg.dimm_link = link;
                cfg.pes_per_module = BENCH_PES;
                cfg.refresh_enabled = false;
                let layout = build_layout(&cfg, &w2.layout);
                let mut sys = BeaconSystem::new(cfg, layout);
                sys.submit_round_robin(w2.traces.iter().cloned());
                sys.run().cycles
            })
        });
    }
    g.finish();
}

fn bench_bucket_cache_depth(c: &mut Criterion) {
    use beacon_genomics::prelude::*;
    let scale = bench_scale();
    let genome = Genome::synthetic(GenomeId::Pt, scale.pt_genome_len, scale.seed);
    let index = FmIndex::build(genome.sequence());
    let mut g = c.benchmark_group("ablation_bucket_cache");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.measurement_time(std::time::Duration::from_secs(5));
    for depth in [0usize, 3, 5, 8] {
        let mut sampler = ReadSampler::new(&genome, scale.read_len, 0.01, 1);
        let traces: Vec<TaskTrace> = (0..scale.reads)
            .map(|_| index.trace_search_cached(sampler.next_read().bases(), depth))
            .collect();
        let w = beacon_core::experiments::common::AppWorkload {
            app: AppKind::FmSeeding,
            traces,
            layout: vec![beacon_core::mmf::LayoutSpec::shared_random(
                Region::FmIndex,
                index.index_bytes(),
            )],
            medal: vec![],
        };
        let opts = Optimizations::full(BeaconVariant::D, AppKind::FmSeeding);
        g.bench_function(format!("cache_depth_{depth}"), move |b| {
            b.iter(|| run_beacon(BeaconVariant::D, opts, &w, BENCH_PES, RunOptions::default()))
        });
    }
    g.finish();
}

fn bench_sched_policy(c: &mut Criterion) {
    use beacon_dram::prelude::*;
    use beacon_sim::prelude::*;
    let mut g = c.benchmark_group("ablation_sched_policy");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.measurement_time(std::time::Duration::from_secs(5));
    for (name, policy) in [("frfcfs", SchedPolicy::FrFcfs), ("fcfs", SchedPolicy::Fcfs)] {
        g.bench_function(name, move |b| {
            b.iter(|| {
                let mut cfg = DimmConfig::paper(AccessMode::RankLockstep);
                cfg.refresh_enabled = false;
                cfg.policy = policy;
                let mut d = Dimm::new(cfg);
                let mut e = Engine::new();
                let mut rng = SimRng::from_seed(3);
                let mut n = 0;
                while n < 2000 {
                    let c = DramCoord {
                        rank: rng.below(4) as u32,
                        group: 0,
                        bank: rng.below(16) as u32,
                        row: rng.below(64),
                        col: 0,
                    };
                    match d.enqueue(MemRequest::read(c, 64)) {
                        Ok(_) => n += 1,
                        Err(_) => e.run_for(&mut d, 8),
                    }
                }
                e.run(&mut d).finished_at().as_u64()
            })
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    bench_coalescing_sweep,
    bench_pe_scaling,
    bench_link_width,
    bench_bucket_cache_depth,
    bench_sched_policy
);
criterion_main!(ablations);
