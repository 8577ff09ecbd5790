//! Fig. 12: FM-index based DNA seeding — step-by-step performance and
//! energy for BEACON-D (a, b) and BEACON-S (c, d) over the five genomes.

use beacon_genomics::genome::GenomeId;
use beacon_sim::engine::RunOptions;
use beacon_sim::observer::Observer;

use crate::config::BeaconVariant;
use crate::energy::{EnergyModel, PeHardware};
use crate::report::fmt_ratio;

use super::common::{fm_workload, run_cpu, run_medal, WorkloadScale};
use super::ladder::{geomean, render_ladders, run_ladder, LadderResult};

/// The figure's data: one ladder per (variant, genome).
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// BEACON-D ladders, one per genome.
    pub d: Vec<LadderResult>,
    /// BEACON-S ladders, one per genome.
    pub s: Vec<LadderResult>,
}

impl Fig12 {
    /// Mean full-design speedup over MEDAL for a variant.
    pub fn mean_speedup_vs_medal(&self, variant: BeaconVariant) -> f64 {
        let ls = match variant {
            BeaconVariant::D => &self.d,
            BeaconVariant::S => &self.s,
        };
        geomean(ls, |l| l.full().speedup_vs_baseline)
    }

    /// Mean full-design speedup over the CPU for a variant.
    pub fn mean_speedup_vs_cpu(&self, variant: BeaconVariant) -> f64 {
        let ls = match variant {
            BeaconVariant::D => &self.d,
            BeaconVariant::S => &self.s,
        };
        geomean(ls, |l| l.full().speedup_vs_cpu)
    }

    /// Renders both halves of the figure.
    pub fn render(&self) -> String {
        let mut out = render_ladders("Fig. 12 — FM-index seeding", &self.d);
        out.push_str(&render_ladders("Fig. 12 — FM-index seeding", &self.s));
        out.push_str(&format!(
            "BEACON-D vs MEDAL (mean): {}   BEACON-D vs CPU (mean): {}\n",
            fmt_ratio(self.mean_speedup_vs_medal(BeaconVariant::D)),
            fmt_ratio(self.mean_speedup_vs_cpu(BeaconVariant::D)),
        ));
        out.push_str(&format!(
            "BEACON-S vs MEDAL (mean): {}   BEACON-S vs CPU (mean): {}\n",
            fmt_ratio(self.mean_speedup_vs_medal(BeaconVariant::S)),
            fmt_ratio(self.mean_speedup_vs_cpu(BeaconVariant::S)),
        ));
        out
    }
}

/// Runs the figure over `genomes` (paper: all five).
pub fn run_genomes(
    scale: &WorkloadScale,
    pes: usize,
    genomes: &[GenomeId],
    run: RunOptions,
    obs: &mut Observer,
) -> Fig12 {
    let medal_energy_model = EnergyModel::ddr_baseline(PeHardware::MEDAL, 4 * pes);
    let mut d = Vec::new();
    let mut s = Vec::new();
    for &g in genomes {
        let w = fm_workload(g, scale);
        let cpu = run_cpu(&w);
        let medal = run_medal(&w, false, pes, obs);
        let medal_energy = medal_energy_model.breakdown(&medal);
        let mut ladder = |v| {
            run_ladder(
                v,
                g.label(),
                &w,
                &cpu,
                (&medal, &medal_energy),
                pes,
                run,
                obs,
            )
        };
        d.push(ladder(BeaconVariant::D));
        s.push(ladder(BeaconVariant::S));
    }
    Fig12 { d, s }
}

/// Runs the full five-genome figure.
pub fn run(scale: &WorkloadScale, pes: usize, run: RunOptions, obs: &mut Observer) -> Fig12 {
    run_genomes(scale, pes, &GenomeId::FIVE, run, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fm_ladder_shapes_hold_on_one_genome() {
        let scale = WorkloadScale::test();
        let fig = run_genomes(
            &scale,
            8,
            &[GenomeId::Pt],
            RunOptions::default(),
            &mut Observer::default(),
        );
        let d = &fig.d[0];
        let s = &fig.s[0];

        // Both designs beat the CPU baseline even at the tiny test scale
        // (the latency-dominated regime; bench scale shows the 100x+
        // figures — see EXPERIMENTS.md).
        assert!(
            d.full().speedup_vs_cpu > 2.0,
            "D vs CPU {:.1}",
            d.full().speedup_vs_cpu
        );
        assert!(
            s.full().speedup_vs_cpu > 1.0,
            "S vs CPU {:.1}",
            s.full().speedup_vs_cpu
        );

        // The optimisation ladder improves on vanilla for D (paper: 2.2x).
        assert!(
            d.optimisation_gain() > 1.2,
            "D gain {:.3}",
            d.optimisation_gain()
        );

        // BEACON-D beats MEDAL with all optimisations (paper: 4.36x).
        assert!(
            d.full().speedup_vs_baseline > 1.0,
            "D vs MEDAL {:.3}",
            d.full().speedup_vs_baseline
        );

        // D is at least competitive with S on FM seeding (fine-grained
        // accesses favour CXLG; at the tiny latency-bound test scale the
        // two land within noise of each other).
        assert!(
            d.full().cycles as f64 <= s.full().cycles as f64 * 1.1,
            "D {} should be <= 1.1x S {}",
            d.full().cycles,
            s.full().cycles
        );

        let text = fig.render();
        assert!(text.contains("BEACON-D vs MEDAL"));
    }
}
