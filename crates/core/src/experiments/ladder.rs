//! Generic machinery for the step-by-step optimisation-ladder figures
//! (Figs. 12, 14, 15).

use beacon_accel::cpu_model::CpuRun;
use beacon_accel::result::RunResult;
use beacon_sim::engine::RunOptions;
use beacon_sim::observer::Observer;

use crate::config::{BeaconVariant, Optimizations};
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::report::{fmt_pct, fmt_ratio, Table};

use super::common::{run_beacon, AppWorkload};

/// One evaluated design point of a ladder.
#[derive(Debug, Clone)]
pub struct LadderPoint {
    /// Paper label of the point ("CXL-vanilla", "+data packing", …).
    pub label: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Speedup over the 48-thread CPU baseline.
    pub speedup_vs_cpu: f64,
    /// Speedup over the hardware baseline (MEDAL/NEST).
    pub speedup_vs_baseline: f64,
    /// Energy reduction over the CPU baseline.
    pub energy_reduction_vs_cpu: f64,
    /// Energy efficiency relative to the hardware baseline (1.0 = equal).
    pub energy_eff_vs_baseline: f64,
    /// Fraction of total energy spent on communication.
    pub comm_energy_share: f64,
    /// Fraction of total energy spent on computation.
    pub compute_energy_share: f64,
    /// Full energy breakdown.
    pub energy: EnergyBreakdown,
}

/// A full ladder on one workload.
#[derive(Debug, Clone)]
pub struct LadderResult {
    /// Which design.
    pub variant: BeaconVariant,
    /// Dataset label (genome).
    pub dataset: String,
    /// Points in paper order.
    pub points: Vec<LadderPoint>,
    /// Final-point performance as a fraction of idealised communication.
    pub pct_of_ideal_perf: f64,
    /// Final-point energy efficiency as a fraction of idealised
    /// communication.
    pub pct_of_ideal_energy: f64,
}

impl LadderResult {
    /// The fully-optimised point.
    pub fn full(&self) -> &LadderPoint {
        self.points.last().expect("ladder non-empty")
    }

    /// The vanilla point.
    pub fn vanilla(&self) -> &LadderPoint {
        self.points.first().expect("ladder non-empty")
    }

    /// Overall gain of the optimisations (full vs vanilla performance).
    pub fn optimisation_gain(&self) -> f64 {
        self.vanilla().cycles as f64 / self.full().cycles as f64
    }
}

/// Runs the cumulative ladder for one workload against precomputed
/// baselines, recording every run into `obs`.
#[allow(clippy::too_many_arguments)]
pub fn run_ladder(
    variant: BeaconVariant,
    dataset: &str,
    workload: &AppWorkload,
    cpu: &CpuRun,
    (baseline, baseline_energy): (&RunResult, &EnergyBreakdown),
    pes_per_module: usize,
    run: RunOptions,
    obs: &mut Observer,
) -> LadderResult {
    let total_pes = 512.min(pes_per_module * 4);
    let model = EnergyModel::beacon(total_pes);

    let mut points = Vec::new();
    for (label, opts) in Optimizations::ladder(variant, workload.app) {
        let result = run_beacon(variant, opts, workload, pes_per_module, run, obs);
        let energy = model.breakdown(&result);
        points.push(make_point(
            label,
            &result,
            &energy,
            cpu,
            baseline,
            baseline_energy,
        ));
    }

    // Idealised-communication reference for the "% of ideal" statistic.
    let ideal_opts = Optimizations::full_ideal(variant, workload.app);
    let ideal = run_beacon(variant, ideal_opts, workload, pes_per_module, run, obs);
    let ideal_energy = model.breakdown(&ideal);

    let full = points.last().expect("ladder non-empty");
    let pct_of_ideal_perf = (ideal.cycles as f64 / full.cycles as f64).min(1.0);
    let pct_of_ideal_energy = (ideal_energy.total_pj() / full.energy.total_pj()).min(1.0);

    LadderResult {
        variant,
        dataset: dataset.to_owned(),
        points,
        pct_of_ideal_perf,
        pct_of_ideal_energy,
    }
}

fn make_point(
    label: &str,
    run: &RunResult,
    energy: &EnergyBreakdown,
    cpu: &CpuRun,
    baseline: &RunResult,
    baseline_energy: &EnergyBreakdown,
) -> LadderPoint {
    let cpu_pj = cpu.energy_joules * 1e12;
    LadderPoint {
        label: label.to_owned(),
        cycles: run.cycles,
        speedup_vs_cpu: cpu.dram_cycles as f64 / run.cycles as f64,
        speedup_vs_baseline: baseline.cycles as f64 / run.cycles as f64,
        energy_reduction_vs_cpu: cpu_pj / energy.total_pj(),
        energy_eff_vs_baseline: baseline_energy.total_pj() / energy.total_pj(),
        comm_energy_share: energy.comm_share(),
        compute_energy_share: energy.compute_share(),
        energy: *energy,
    }
}

/// Renders a set of per-dataset ladders as the paper's figure table.
pub fn render_ladders(title: &str, ladders: &[LadderResult]) -> String {
    let mut out = String::new();
    for l in ladders {
        let mut t = Table::new(
            format!("{title} — {} — {}", l.variant.label(), l.dataset),
            &[
                "design point",
                "cycles",
                "vs CPU",
                "vs baseline",
                "energy vs CPU",
                "energy vs baseline",
                "comm share",
            ],
        );
        for p in &l.points {
            t.row(&[
                p.label.clone(),
                p.cycles.to_string(),
                fmt_ratio(p.speedup_vs_cpu),
                fmt_ratio(p.speedup_vs_baseline),
                fmt_ratio(p.energy_reduction_vs_cpu),
                fmt_pct(p.energy_eff_vs_baseline),
                fmt_pct(p.comm_energy_share),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "performance vs idealized communication: {}\n",
            fmt_pct(l.pct_of_ideal_perf)
        ));
        out.push_str(&format!(
            "energy efficiency vs idealized communication: {}\n\n",
            fmt_pct(l.pct_of_ideal_energy)
        ));
    }
    out
}

/// Geometric mean over datasets of a per-ladder metric.
pub fn geomean<F: Fn(&LadderResult) -> f64>(ladders: &[LadderResult], f: F) -> f64 {
    if ladders.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = ladders.iter().map(|l| f(l).max(1e-12).ln()).sum();
    (log_sum / ladders.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::PeHardware;
    use crate::experiments::common::{fm_workload, run_cpu, run_medal, WorkloadScale};
    use beacon_genomics::genome::GenomeId;

    #[test]
    fn ladder_runs_all_points_for_fm_on_d() {
        let scale = WorkloadScale::test();
        let w = fm_workload(GenomeId::Pt, &scale);
        let cpu = run_cpu(&w);
        let medal = run_medal(&w, false, 8, &mut Observer::default());
        let medal_energy = EnergyModel::ddr_baseline(PeHardware::MEDAL, 32).breakdown(&medal);
        let baseline = (&medal, &medal_energy);
        let l = run_ladder(
            BeaconVariant::D,
            "Pt",
            &w,
            &cpu,
            baseline,
            8,
            RunOptions::default(),
            &mut Observer::default(),
        );
        assert_eq!(l.points.len(), 5);
        assert!(l.full().speedup_vs_cpu > 1.0, "NDP must beat the CPU");
        assert!(
            l.optimisation_gain() > 1.0,
            "the ladder must improve on vanilla (got {:.3})",
            l.optimisation_gain()
        );
        assert!(l.pct_of_ideal_perf > 0.3);
        let text = render_ladders("Fig12-like", &[l]);
        assert!(text.contains("CXL-vanilla"));
        assert!(text.contains("idealized communication"));
    }

    #[test]
    fn geomean_of_constant_is_constant() {
        let scale = WorkloadScale::test();
        let w = fm_workload(GenomeId::Pt, &scale);
        let cpu = run_cpu(&w);
        let medal = run_medal(&w, false, 8, &mut Observer::default());
        let medal_energy = EnergyModel::ddr_baseline(PeHardware::MEDAL, 32).breakdown(&medal);
        let baseline = (&medal, &medal_energy);
        let l = run_ladder(
            BeaconVariant::D,
            "Pt",
            &w,
            &cpu,
            baseline,
            8,
            RunOptions::default(),
            &mut Observer::default(),
        );
        let g = geomean(&[l.clone(), l], |x| x.optimisation_gain());
        assert!(g > 0.0);
    }
}
