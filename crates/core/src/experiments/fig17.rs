//! Fig. 17: energy breakdown (communication / memory / computation)
//! across the optimisation ladder, averaged over the applications.

use beacon_genomics::genome::GenomeId;
use beacon_sim::engine::RunOptions;
use beacon_sim::observer::Observer;

use crate::config::BeaconVariant;
use crate::report::{fmt_pct, Table};

use super::common::{
    fm_workload, hash_workload, kmer_workload, run_cpu, run_medal, run_nest, WorkloadScale,
};
use super::ladder::{run_ladder, LadderResult};
use crate::energy::{EnergyModel, PeHardware};

/// Average energy shares at one ladder step.
#[derive(Debug, Clone)]
pub struct BreakdownStep {
    /// Design-point label.
    pub label: String,
    /// Mean communication share.
    pub comm_share: f64,
    /// Mean computation share.
    pub compute_share: f64,
    /// Mean memory (DRAM) share.
    pub memory_share: f64,
}

/// The figure's data for one variant.
#[derive(Debug, Clone)]
pub struct Fig17Half {
    /// Which design.
    pub variant: BeaconVariant,
    /// Ladder steps with averaged shares.
    pub steps: Vec<BreakdownStep>,
}

impl Fig17Half {
    /// Renders this half of the figure.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!("Fig. 17 — energy breakdown — {}", self.variant.label()),
            &["design point", "communication", "memory", "computation"],
        );
        for s in &self.steps {
            t.row(&[
                s.label.clone(),
                fmt_pct(s.comm_share),
                fmt_pct(s.memory_share),
                fmt_pct(s.compute_share),
            ]);
        }
        t.render()
    }
}

/// Both halves.
#[derive(Debug, Clone)]
pub struct Fig17 {
    /// BEACON-D breakdown.
    pub d: Fig17Half,
    /// BEACON-S breakdown.
    pub s: Fig17Half,
}

impl Fig17 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        format!("{}{}", self.d.render(), self.s.render())
    }
}

fn average_steps(ladders: &[LadderResult], variant: BeaconVariant) -> Fig17Half {
    // Collect the union of labels in ladder order, then average the
    // shares of every ladder that has each label.
    let mut labels: Vec<String> = Vec::new();
    for l in ladders {
        for p in &l.points {
            if !labels.contains(&p.label) {
                labels.push(p.label.clone());
            }
        }
    }
    let steps = labels
        .into_iter()
        .map(|label| {
            let shares: Vec<(f64, f64)> = ladders
                .iter()
                .flat_map(|l| l.points.iter().filter(|p| p.label == label))
                .map(|p| (p.comm_energy_share, p.compute_energy_share))
                .collect();
            let n = shares.len().max(1) as f64;
            let comm = shares.iter().map(|s| s.0).sum::<f64>() / n;
            let compute = shares.iter().map(|s| s.1).sum::<f64>() / n;
            BreakdownStep {
                label,
                comm_share: comm,
                compute_share: compute,
                memory_share: 1.0 - comm - compute,
            }
        })
        .collect();
    Fig17Half { variant, steps }
}

/// Runs the figure: ladders for the three ladder apps (FM seeding, hash
/// seeding on Pt, k-mer counting) and averages their shares per step.
pub fn run(scale: &WorkloadScale, pes: usize, run: RunOptions, obs: &mut Observer) -> Fig17 {
    let medal_model = EnergyModel::ddr_baseline(PeHardware::MEDAL, 4 * pes);
    let nest_model = EnergyModel::ddr_baseline(PeHardware::NEST, 4 * pes);

    let mut d = Vec::new();
    let mut s = Vec::new();

    for variant in [BeaconVariant::D, BeaconVariant::S] {
        let out = match variant {
            BeaconVariant::D => &mut d,
            BeaconVariant::S => &mut s,
        };
        // FM seeding.
        let w = fm_workload(GenomeId::Pt, scale);
        let cpu = run_cpu(&w);
        let medal = run_medal(&w, false, pes, obs);
        let me = medal_model.breakdown(&medal);
        out.push(run_ladder(
            variant,
            "Pt",
            &w,
            &cpu,
            (&medal, &me),
            pes,
            run,
            obs,
        ));
        // Hash seeding.
        let w = hash_workload(GenomeId::Pt, scale);
        let cpu = run_cpu(&w);
        let medal = run_medal(&w, false, pes, obs);
        let me = medal_model.breakdown(&medal);
        out.push(run_ladder(
            variant,
            "Pt",
            &w,
            &cpu,
            (&medal, &me),
            pes,
            run,
            obs,
        ));
        // k-mer counting.
        let w = kmer_workload(scale);
        let cpu = run_cpu(&w);
        let nest = run_nest(&w, scale.cbf_bytes, false, pes, obs);
        let ne = nest_model.breakdown(&nest);
        out.push(run_ladder(
            variant,
            "human",
            &w,
            &cpu,
            (&nest, &ne),
            pes,
            run,
            obs,
        ));
    }

    Fig17 {
        d: average_steps(&d, BeaconVariant::D),
        s: average_steps(&s, BeaconVariant::S),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimisations_shrink_communication_share() {
        let scale = WorkloadScale::test();
        let fig = run(&scale, 4, RunOptions::default(), &mut Observer::default());
        for half in [&fig.d, &fig.s] {
            assert!(half.steps.len() >= 4);
            let first = &half.steps[0];
            // The +placement/mapping step (index 3) must not raise the
            // communication share (paper: ~60% → ~14%; at the tiny test
            // scale the shares are small and we only assert direction
            // within noise).
            let late = &half.steps[3];
            assert!(
                late.comm_share < first.comm_share + 0.02,
                "{}: comm share must not grow ({} -> {})",
                half.variant.label(),
                first.comm_share,
                late.comm_share
            );
            // Computation is a small slice (paper: <1%; we allow a few %).
            assert!(half.steps.iter().all(|s| s.compute_share < 0.25));
            // Shares are proper fractions.
            for s in &half.steps {
                assert!((0.0..=1.0).contains(&s.comm_share));
                assert!((-0.01..=1.0).contains(&s.memory_share));
            }
        }
        assert!(fig.render().contains("energy breakdown"));
    }
}
