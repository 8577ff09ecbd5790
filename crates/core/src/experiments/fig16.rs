//! Fig. 16: DNA pre-alignment — performance improvement and energy
//! reduction of the full BEACON-D and BEACON-S designs over the CPU
//! baseline (no hardware baseline exists for this app).

use beacon_genomics::genome::GenomeId;
use beacon_sim::engine::RunOptions;
use beacon_sim::observer::Observer;

use crate::config::{BeaconVariant, Optimizations};
use crate::energy::EnergyModel;
use crate::report::{fmt_ratio, Table};

use super::common::{prealign_workload, run_beacon, run_cpu, WorkloadScale};

/// One genome's bars.
#[derive(Debug, Clone)]
pub struct Fig16Bar {
    /// Genome label.
    pub genome: String,
    /// BEACON-D speedup over the CPU.
    pub d_speedup: f64,
    /// BEACON-S speedup over the CPU.
    pub s_speedup: f64,
    /// BEACON-D energy reduction over the CPU.
    pub d_energy_reduction: f64,
    /// BEACON-S energy reduction over the CPU.
    pub s_energy_reduction: f64,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig16 {
    /// One row per genome.
    pub bars: Vec<Fig16Bar>,
}

impl Fig16 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Fig. 16 — DNA pre-alignment vs 48-thread CPU",
            &["genome", "D perf", "S perf", "D energy", "S energy"],
        );
        for b in &self.bars {
            t.row(&[
                b.genome.clone(),
                fmt_ratio(b.d_speedup),
                fmt_ratio(b.s_speedup),
                fmt_ratio(b.d_energy_reduction),
                fmt_ratio(b.s_energy_reduction),
            ]);
        }
        t.render()
    }
}

/// Runs the figure over `genomes`.
pub fn run_genomes(
    scale: &WorkloadScale,
    pes: usize,
    genomes: &[GenomeId],
    run: RunOptions,
    obs: &mut Observer,
) -> Fig16 {
    let model = EnergyModel::beacon(512.min(4 * pes));
    let mut bars = Vec::new();
    for &g in genomes {
        let w = prealign_workload(g, scale);
        let cpu = run_cpu(&w);
        let cpu_pj = cpu.energy_joules * 1e12;

        let mut full = |v| run_beacon(v, Optimizations::full(v, w.app), &w, pes, run, obs);
        let d = full(BeaconVariant::D);
        let s = full(BeaconVariant::S);
        let de = model.breakdown(&d);
        let se = model.breakdown(&s);
        bars.push(Fig16Bar {
            genome: g.label().to_owned(),
            d_speedup: cpu.dram_cycles as f64 / d.cycles as f64,
            s_speedup: cpu.dram_cycles as f64 / s.cycles as f64,
            d_energy_reduction: cpu_pj / de.total_pj(),
            s_energy_reduction: cpu_pj / se.total_pj(),
        });
    }
    Fig16 { bars }
}

/// Runs the full five-genome figure.
pub fn run(scale: &WorkloadScale, pes: usize, run: RunOptions, obs: &mut Observer) -> Fig16 {
    run_genomes(scale, pes, &GenomeId::FIVE, run, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prealign_beats_cpu_on_both_designs() {
        let scale = WorkloadScale::test();
        let fig = run_genomes(
            &scale,
            8,
            &[GenomeId::Nf],
            RunOptions::default(),
            &mut Observer::default(),
        );
        let b = &fig.bars[0];
        assert!(b.d_speedup > 1.5, "D speedup {:.1}", b.d_speedup);
        assert!(b.s_speedup > 1.5, "S speedup {:.1}", b.s_speedup);
        assert!(b.d_energy_reduction > 1.0);
        assert!(b.s_energy_reduction > 1.0);
        // D and S are nearly identical for this streaming app
        // (paper: 362x vs 359x).
        let ratio = b.d_speedup / b.s_speedup;
        assert!((0.5..=2.0).contains(&ratio), "D/S ratio {ratio:.2}");
        assert!(fig.render().contains("pre-alignment"));
    }
}
