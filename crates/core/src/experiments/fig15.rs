//! Fig. 15: k-mer counting — step-by-step performance and energy for
//! BEACON-D (a, b) and BEACON-S (c, d) against NEST.

use beacon_sim::engine::RunOptions;
use beacon_sim::observer::Observer;

use crate::config::BeaconVariant;
use crate::energy::{EnergyModel, PeHardware};
use crate::report::fmt_ratio;

use super::common::{kmer_workload, run_cpu, run_nest, WorkloadScale};
use super::ladder::{render_ladders, run_ladder, LadderResult};

/// The figure's data (one dataset: human-like genome at 50x).
#[derive(Debug, Clone)]
pub struct Fig15 {
    /// BEACON-D ladder.
    pub d: LadderResult,
    /// BEACON-S ladder (ends with single-pass k-mer counting).
    pub s: LadderResult,
}

impl Fig15 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut out = render_ladders("Fig. 15 — k-mer counting", std::slice::from_ref(&self.d));
        out.push_str(&render_ladders(
            "Fig. 15 — k-mer counting",
            std::slice::from_ref(&self.s),
        ));
        out.push_str(&format!(
            "BEACON-D vs NEST: {}   BEACON-S vs NEST: {}\n",
            fmt_ratio(self.d.full().speedup_vs_baseline),
            fmt_ratio(self.s.full().speedup_vs_baseline),
        ));
        out
    }
}

/// Runs the figure.
pub fn run(scale: &WorkloadScale, pes: usize, run: RunOptions, obs: &mut Observer) -> Fig15 {
    let w = kmer_workload(scale);
    let cpu = run_cpu(&w);
    let nest = run_nest(&w, scale.cbf_bytes, false, pes, obs);
    let nest_energy = EnergyModel::ddr_baseline(PeHardware::NEST, 4 * pes).breakdown(&nest);

    let mut ladder = |v| {
        run_ladder(
            v,
            "human 50x",
            &w,
            &cpu,
            (&nest, &nest_energy),
            pes,
            run,
            obs,
        )
    };
    Fig15 {
        d: ladder(BeaconVariant::D),
        s: ladder(BeaconVariant::S),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmer_ladder_shapes_hold() {
        let scale = WorkloadScale::test();
        let fig = run(&scale, 8, RunOptions::default(), &mut Observer::default());

        // The S ladder ends with single-pass k-mer counting.
        assert_eq!(fig.s.points.last().unwrap().label, "+single-pass k-mer");
        assert_eq!(fig.d.points.len(), 4);

        // Single-pass beats the multi-pass point before it (paper: 1.48x).
        let pts = &fig.s.points;
        let before = &pts[pts.len() - 2];
        let after = pts.last().unwrap();
        assert!(
            after.cycles < before.cycles,
            "single-pass ({}) must beat multi-pass ({})",
            after.cycles,
            before.cycles
        );

        // Both designs beat the CPU; full designs beat NEST.
        assert!(
            fig.d.full().speedup_vs_cpu > 1.0,
            "D {:.2}",
            fig.d.full().speedup_vs_cpu
        );
        assert!(
            fig.s.full().speedup_vs_cpu > 1.0,
            "S {:.2}",
            fig.s.full().speedup_vs_cpu
        );
        assert!(
            fig.s.full().speedup_vs_baseline > 1.0,
            "S vs NEST {:.2}",
            fig.s.full().speedup_vs_baseline
        );

        // Atomic RMWs actually flowed through the system.
        assert!(fig.render().contains("k-mer"));
    }
}
