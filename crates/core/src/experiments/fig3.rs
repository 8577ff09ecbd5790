//! Fig. 3: how much the DDR-DIMM baselines gain from idealised
//! communication — the motivation experiment showing that communication
//! bottlenecks MEDAL/NEST.

use beacon_genomics::genome::GenomeId;
use beacon_sim::observer::Observer;

use crate::energy::{EnergyModel, PeHardware};
use crate::report::{fmt_ratio, Table};

use super::common::{
    fm_workload, hash_workload, kmer_workload, run_medal, run_nest, WorkloadScale,
};

/// One bar of Fig. 3.
#[derive(Debug, Clone)]
pub struct Fig3Bar {
    /// Baseline + workload label.
    pub label: String,
    /// Performance improvement with idealised communication.
    pub perf_improvement: f64,
    /// Energy-efficiency improvement with idealised communication.
    pub energy_improvement: f64,
}

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Bars in paper order.
    pub bars: Vec<Fig3Bar>,
}

impl Fig3 {
    /// Average (geometric mean) performance improvement.
    pub fn mean_perf(&self) -> f64 {
        geo(self.bars.iter().map(|b| b.perf_improvement))
    }

    /// Average (geometric mean) energy improvement.
    pub fn mean_energy(&self) -> f64 {
        geo(self.bars.iter().map(|b| b.energy_improvement))
    }

    /// Renders the figure as a table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Fig. 3 — DDR-DIMM baselines with idealized communication",
            &["workload", "perf improvement", "energy-eff improvement"],
        );
        for b in &self.bars {
            t.row(&[
                b.label.clone(),
                fmt_ratio(b.perf_improvement),
                fmt_ratio(b.energy_improvement),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "average: perf {} energy {}\n",
            fmt_ratio(self.mean_perf()),
            fmt_ratio(self.mean_energy())
        ));
        out
    }
}

fn geo<I: Iterator<Item = f64>>(xs: I) -> f64 {
    let v: Vec<f64> = xs.collect();
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Runs the figure: MEDAL on FM and hash seeding over the five genomes,
/// NEST on k-mer counting, each real vs idealised communication.
pub fn run(scale: &WorkloadScale, pes: usize, obs: &mut Observer) -> Fig3 {
    let medal_energy = EnergyModel::ddr_baseline(PeHardware::MEDAL, 4 * pes);
    let nest_energy = EnergyModel::ddr_baseline(PeHardware::NEST, 4 * pes);
    let mut bars = Vec::new();

    for g in GenomeId::FIVE {
        let w = fm_workload(g, scale);
        let real = run_medal(&w, false, pes, obs);
        let ideal = run_medal(&w, true, pes, obs);
        bars.push(Fig3Bar {
            label: format!("MEDAL FM-seeding {}", g.label()),
            perf_improvement: real.cycles as f64 / ideal.cycles as f64,
            energy_improvement: medal_energy.breakdown(&real).total_pj()
                / medal_energy.breakdown(&ideal).total_pj(),
        });
    }
    for g in GenomeId::FIVE {
        let w = hash_workload(g, scale);
        let real = run_medal(&w, false, pes, obs);
        let ideal = run_medal(&w, true, pes, obs);
        bars.push(Fig3Bar {
            label: format!("MEDAL hash-seeding {}", g.label()),
            perf_improvement: real.cycles as f64 / ideal.cycles as f64,
            energy_improvement: medal_energy.breakdown(&real).total_pj()
                / medal_energy.breakdown(&ideal).total_pj(),
        });
    }
    {
        let w = kmer_workload(scale);
        let real = run_nest(&w, scale.cbf_bytes, false, pes, obs);
        let ideal = run_nest(&w, scale.cbf_bytes, true, pes, obs);
        bars.push(Fig3Bar {
            label: "NEST k-mer counting (human 50x)".into(),
            perf_improvement: real.cycles as f64 / ideal.cycles as f64,
            energy_improvement: nest_energy.breakdown(&real).total_pj()
                / nest_energy.breakdown(&ideal).total_pj(),
        });
    }
    Fig3 { bars }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn communication_bottlenecks_the_baselines() {
        let scale = WorkloadScale::test();
        let fig = run(&scale, 8, &mut Observer::default());
        assert_eq!(fig.bars.len(), 11);
        // Idealised communication must help on average — the paper's
        // motivation (its averages: 4.36x perf, 2.32x energy).
        assert!(
            fig.mean_perf() > 1.05,
            "mean perf improvement {:.3} too small",
            fig.mean_perf()
        );
        let text = fig.render();
        assert!(text.contains("MEDAL FM-seeding Pt"));
        assert!(text.contains("NEST"));
    }
}
