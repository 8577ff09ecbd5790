//! Fig. 14: Hash-index based DNA seeding — step-by-step performance and
//! energy for BEACON-D (a, b) and BEACON-S (c, d) over the five genomes.

use beacon_genomics::genome::GenomeId;
use beacon_sim::engine::RunOptions;
use beacon_sim::observer::Observer;

use crate::config::BeaconVariant;
use crate::energy::{EnergyModel, PeHardware};
use crate::report::fmt_ratio;

use super::common::{hash_workload, run_cpu, run_medal, WorkloadScale};
use super::ladder::{geomean, render_ladders, run_ladder, LadderResult};

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// BEACON-D ladders.
    pub d: Vec<LadderResult>,
    /// BEACON-S ladders.
    pub s: Vec<LadderResult>,
}

impl Fig14 {
    /// Mean full-design speedup over MEDAL.
    pub fn mean_speedup_vs_medal(&self, variant: BeaconVariant) -> f64 {
        let ls = match variant {
            BeaconVariant::D => &self.d,
            BeaconVariant::S => &self.s,
        };
        geomean(ls, |l| l.full().speedup_vs_baseline)
    }

    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut out = render_ladders("Fig. 14 — hash-index seeding", &self.d);
        out.push_str(&render_ladders("Fig. 14 — hash-index seeding", &self.s));
        out.push_str(&format!(
            "BEACON-D vs MEDAL (mean): {}   BEACON-S vs MEDAL (mean): {}\n",
            fmt_ratio(self.mean_speedup_vs_medal(BeaconVariant::D)),
            fmt_ratio(self.mean_speedup_vs_medal(BeaconVariant::S)),
        ));
        out
    }
}

/// Runs the figure over `genomes`.
pub fn run_genomes(
    scale: &WorkloadScale,
    pes: usize,
    genomes: &[GenomeId],
    run: RunOptions,
    obs: &mut Observer,
) -> Fig14 {
    let medal_energy_model = EnergyModel::ddr_baseline(PeHardware::MEDAL, 4 * pes);
    let mut d = Vec::new();
    let mut s = Vec::new();
    for &g in genomes {
        let w = hash_workload(g, scale);
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
    Fig14 { d, s }
}

/// Runs the full five-genome figure.
pub fn run(scale: &WorkloadScale, pes: usize, run: RunOptions, obs: &mut Observer) -> Fig14 {
    run_genomes(scale, pes, &GenomeId::FIVE, run, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_ladder_shapes_hold() {
        let scale = WorkloadScale::test();
        let fig = run_genomes(
            &scale,
            8,
            &[GenomeId::Pg],
            RunOptions::default(),
            &mut Observer::default(),
        );
        let d = &fig.d[0];
        let s = &fig.s[0];
        assert_eq!(d.points.len(), 4, "no coalescing step for hash seeding");
        assert!(
            d.full().speedup_vs_cpu > 1.5,
            "D {:.2}",
            d.full().speedup_vs_cpu
        );
        assert!(
            s.full().speedup_vs_cpu > 1.0,
            "S {:.2}",
            s.full().speedup_vs_cpu
        );
        // Hash seeding is coarse-grained; D and S should land close
        // (paper: 4.70x vs 4.57x over MEDAL).
        let ratio = d.full().cycles as f64 / s.full().cycles as f64;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "D/S ratio {ratio:.2} implausible"
        );
        assert!(fig.render().contains("hash-index"));
    }
}
