//! Profiling harness: runs one dense cell (kmer-counting/Human or
//! fm-seeding/Pt) in a loop so a sampling profiler has something to
//! chew on, with switches to isolate the dense fast path. Not part of
//! any CI gate.
//!
//! ```text
//! profile_dense [kmer|fm] [reps] [--dense-off] [--attr]
//! ```
//!
//! `--dense-off` disables the per-component horizon gates (the dense
//! fast path) so its wall-clock contribution can be measured directly;
//! `--attr` runs one rep with journey attribution and prints the
//! bottleneck report (per-component utilization and queue depths).

use std::time::Instant;

use beacon_bench::bench_scale;
use beacon_core::config::{BeaconConfig, BeaconVariant, Optimizations};
use beacon_core::experiments::common::{fm_workload, kmer_workload};
use beacon_core::mmf::build_layout;
use beacon_core::system::BeaconSystem;
use beacon_genomics::genome::GenomeId;
use beacon_sim::engine::RunOptions;
use beacon_sim::journey::{self, JourneyRecorder};
use beacon_sim::rng::SimRng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().cloned().unwrap_or_else(|| "kmer".into());
    let reps: u32 = args.get(1).and_then(|r| r.parse().ok()).unwrap_or(20);
    let dense = !args.iter().any(|a| a == "--dense-off");
    let attr = args.iter().any(|a| a == "--attr");
    let scale = bench_scale();
    let (w, variant) = match which.as_str() {
        "fm" => (fm_workload(GenomeId::Pt, &scale), BeaconVariant::D),
        _ => (kmer_workload(&scale), BeaconVariant::S),
    };
    let mut digest = 0u64;
    let mut cycles = 0u64;
    // Interleave the dense-on and dense-off legs rep by rep and keep the
    // per-leg minimum: min-of-rounds cancels scheduler and frequency
    // noise that a single timed block cannot (same scheme as simspeed).
    let mut best = [f64::INFINITY; 2];
    let run_one = |rep: u32, dense_leg: bool| -> (u64, u64, f64) {
        let mut cfg =
            BeaconConfig::paper(variant, w.app).with_opts(Optimizations::full(variant, w.app));
        cfg.switches = 2;
        cfg.pes_per_module = 8;
        let layout = build_layout(&cfg, &w.layout);
        let mut sys = BeaconSystem::new(cfg, layout);
        sys.submit_round_robin(w.traces.iter().cloned());
        if attr && rep == 0 {
            let salt = SimRng::from_seed(42).child(0xA77).below(u64::MAX);
            journey::install(JourneyRecorder::new(1, salt));
        }
        let t = Instant::now();
        let r = sys.run_with(RunOptions {
            dense: dense_leg,
            ..RunOptions::default()
        });
        let wall = t.elapsed().as_secs_f64();
        if attr && rep == 0 {
            journey::uninstall().expect("recorder was installed");
            if let Some(a) = &r.attribution {
                println!("{}", a.render_text());
            }
        }
        (r.digest(), r.cycles, wall)
    };
    for rep in 0..reps {
        for (leg, dense_leg) in [(0usize, dense), (1usize, false)] {
            let (d, c, wall) = run_one(rep, dense_leg);
            digest = d;
            cycles = c;
            best[leg] = best[leg].min(wall);
        }
    }
    let on = cycles as f64 / best[0] / 1e6;
    let off = cycles as f64 / best[1] / 1e6;
    println!(
        "{which} digest {digest:#018x} dense={dense} reps={reps} \
         on {on:.3} Mcyc/s  off {off:.3} Mcyc/s  ratio {:.3}",
        on / off
    );
}
