//! Fault sweep: RAS behaviour of the pool under injected faults.
//!
//! Not a paper figure — the paper's §VII scalability story assumes a
//! healthy pool — but the natural companion experiment for a CXL
//! memory pool: how much performance the retry/failover machinery
//! costs as the link error rate rises, and what a whole-DIMM failure
//! does to a run in flight. Driven by `figures --faults <seed>`.

use beacon_accel::result::DegradedRun;
use beacon_genomics::genome::GenomeId;
use beacon_sim::engine::RunOptions;
use beacon_sim::observer::Observer;

use crate::config::{BeaconConfig, BeaconVariant, FaultsConfig, Optimizations};
use crate::mmf::build_layout;
use crate::report::{fmt_ratio, Table};
use crate::system::BeaconSystem;

use super::common::{fm_workload, prealign_workload, AppWorkload, WorkloadScale};

/// One row of the error-rate sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Injected CRC error rate (errors per million cycles per link
    /// direction; flap and UE rates scale along, see
    /// [`FaultsConfig::noisy`]).
    pub rate: f64,
    /// End-to-end cycles of the faulty run.
    pub cycles: u64,
    /// Slowdown vs. the fault-free run.
    pub slowdown: f64,
    /// RAS report of the run.
    pub degraded: DegradedRun,
}

/// The `--faults` experiment: an error-rate sweep plus a whole-DIMM
/// failure, both seeded.
#[derive(Debug, Clone)]
pub struct FaultSweep {
    /// The fault seed every schedule in the sweep derives from.
    pub seed: u64,
    /// Error-rate sweep on the FM-index seeding workload.
    pub sweep: Vec<SweepPoint>,
    /// DIMM-loss run on the pre-alignment workload (its reference
    /// region lives on the unmodified DIMMs whole-DIMM failure kills).
    pub dimm_loss: DegradedRun,
    /// Cycles of the healthy pre-alignment run.
    pub healthy_cycles: u64,
    /// Cycles of the degraded pre-alignment run.
    pub degraded_cycles: u64,
}

fn build(w: &AppWorkload, pes: usize, faults: FaultsConfig, obs: &mut Observer) -> BeaconSystem {
    let variant = BeaconVariant::D;
    let mut cfg =
        BeaconConfig::paper(variant, w.app).with_opts(Optimizations::full(variant, w.app));
    cfg.pes_per_module = pes;
    cfg.refresh_enabled = false;
    cfg = cfg.with_faults(faults);
    let layout = build_layout(&cfg, &w.layout);
    let mut sys = BeaconSystem::new(cfg, layout);
    sys.submit_observed(w.traces.iter().cloned(), obs);
    sys
}

/// Runs the sweep and the DIMM-loss experiment.
pub fn run(
    scale: &WorkloadScale,
    pes: usize,
    seed: u64,
    run: RunOptions,
    obs: &mut Observer,
) -> FaultSweep {
    let mut run_one =
        |w: &AppWorkload, faults: FaultsConfig| build(w, pes, faults, obs).run_with(run, obs);

    // Error-rate sweep: 0 (armed but quiet) up through rates far past
    // anything a healthy CXL link would show, to make the retry cost
    // visible at bench scale.
    let w = fm_workload(GenomeId::Pt, scale);
    let mut sweep = Vec::new();
    let mut baseline = 0u64;
    for rate in [0.0, 10.0, 40.0, 160.0] {
        let faults = if rate == 0.0 {
            FaultsConfig::quiet(seed)
        } else {
            FaultsConfig::noisy(seed, rate)
        };
        let r = run_one(&w, faults);
        if rate == 0.0 {
            baseline = r.cycles;
        }
        sweep.push(SweepPoint {
            rate,
            cycles: r.cycles,
            slowdown: r.cycles as f64 / baseline as f64,
            degraded: r.degraded.expect("armed run carries a RAS report"),
        });
    }

    // Whole-DIMM failure a third of the way into the run.
    let w = prealign_workload(GenomeId::Pg, scale);
    let healthy = run_one(&w, FaultsConfig::quiet(seed));
    let degraded = run_one(&w, FaultsConfig::dimm_loss(seed, 0, 2, healthy.cycles / 3));
    FaultSweep {
        seed,
        sweep,
        dimm_loss: degraded.degraded.expect("armed run carries a RAS report"),
        healthy_cycles: healthy.cycles,
        degraded_cycles: degraded.cycles,
    }
}

impl FaultSweep {
    /// Renders the sweep table and the DIMM-loss report.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!("Fault sweep — BEACON-D, FM-seeding, seed {}", self.seed),
            &[
                "errors/Mcycle",
                "cycles",
                "slowdown",
                "crc errors",
                "retry cycles",
                "port flaps",
                "dimm UE",
                "naks",
                "requeued",
            ],
        );
        for p in &self.sweep {
            let d = &p.degraded;
            t.row(&[
                format!("{:.0}", p.rate),
                p.cycles.to_string(),
                fmt_ratio(p.slowdown),
                d.crc_errors.to_string(),
                d.retry_cycles.to_string(),
                d.port_flaps.to_string(),
                d.dimm_ue.to_string(),
                d.naks.to_string(),
                d.requeued.to_string(),
            ]);
        }
        let d = &self.dimm_loss;
        let mut out = t.render();
        out.push_str(&format!(
            "DIMM loss — pre-alignment, DIMM(0,2) killed at cycle {}:\n\
             \x20 healthy {} cycles -> degraded {} cycles ({} slowdown)\n\
             \x20 failed DIMMs {}, lost capacity {} bytes\n\
             \x20 naks {}, requeued {}, dropped {}\n\
             \x20 re-map: {} regions, {} bytes moved, {} migration cycles\n",
            self.healthy_cycles / 3,
            self.healthy_cycles,
            self.degraded_cycles,
            fmt_ratio(self.degraded_cycles as f64 / self.healthy_cycles as f64),
            d.failed_dimms,
            d.lost_capacity_bytes,
            d.naks,
            d.requeued,
            d.dropped,
            d.remap_regions,
            d.moved_bytes,
            d.remap_cost_cycles,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_degrades_monotonically_enough() {
        let scale = WorkloadScale::test();
        let f = run(
            &scale,
            8,
            42,
            RunOptions::default(),
            &mut Observer::default(),
        );
        assert_eq!(f.sweep.len(), 4);
        assert_eq!(f.sweep[0].slowdown, 1.0, "rate 0 is the baseline");
        assert!(f.sweep[0].degraded.is_clean());
        let worst = &f.sweep[3];
        assert!(worst.degraded.crc_errors > 0, "top rate must fire");
        assert!(worst.slowdown >= 1.0);
        assert_eq!(f.dimm_loss.failed_dimms, 1);
        assert!(f.dimm_loss.lost_capacity_bytes > 0);
        assert!(f.degraded_cycles > f.healthy_cycles);
        let rendered = f.render();
        assert!(rendered.contains("Fault sweep"));
        assert!(rendered.contains("DIMM loss"));
    }
}
