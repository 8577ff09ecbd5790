//! DNA-seeding pipeline: runs FM-index and hash-index seeding across the
//! paper's five genomes, comparing BEACON-D, BEACON-S, MEDAL and the CPU
//! baseline — a miniature of the paper's Figs. 12 and 14.
//!
//! ```text
//! cargo run -p beacon-core --example seeding_pipeline --release
//! ```

use beacon_core::config::{BeaconVariant, Optimizations};
use beacon_core::experiments::common::{
    fm_workload, hash_workload, run_beacon, run_cpu, run_medal, AppWorkload, WorkloadScale,
};
use beacon_core::report::{fmt_ratio, Table};
use beacon_genomics::genome::GenomeId;
use beacon_sim::engine::RunOptions;
use beacon_sim::observer::Observer;

fn run_app(name: &str, scale: &WorkloadScale, pes: usize, build: &dyn Fn(GenomeId) -> AppWorkload) {
    let _ = scale;
    let mut t = Table::new(
        format!("{name} across the five genomes"),
        &[
            "genome",
            "CPU",
            "MEDAL",
            "BEACON-D",
            "BEACON-S",
            "D vs MEDAL",
        ],
    );
    for g in GenomeId::FIVE {
        let w = build(g);
        let cpu = run_cpu(&w);
        let medal = run_medal(&w, false, pes, &mut Observer::default());
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
        t.row(&[
            g.label().to_string(),
            format!("{} cyc", cpu.dram_cycles),
            format!("{} cyc", medal.cycles),
            format!("{} cyc", d.cycles),
            format!("{} cyc", s.cycles),
            fmt_ratio(medal.cycles as f64 / d.cycles as f64),
        ]);
    }
    println!("{}", t.render());
}

fn main() {
    let scale = WorkloadScale {
        pt_genome_len: 100_000,
        reads: 512,
        read_len: 64,
        error_rate: 0.01,
        kmer_k: 28,
        kmer_reads: 1,
        cbf_bytes: 1024,
        seed: 42,
    };
    let pes = 64;

    run_app("FM-index seeding", &scale, pes, &|g| fm_workload(g, &scale));
    run_app("hash-index seeding", &scale, pes, &|g| {
        hash_workload(g, &scale)
    });
}
