//! Fig. 13: normalized per-chip memory access for FM-index seeding on
//! BEACON-D, without and with multi-chip coalescing.

use beacon_genomics::genome::GenomeId;
use beacon_sim::engine::RunOptions;
use beacon_sim::observer::Observer;
use beacon_sim::stats::Histogram;

use crate::config::{BeaconConfig, BeaconVariant, Optimizations};
use crate::mmf::build_layout;
use crate::report::Table;
use crate::system::BeaconSystem;

use super::common::{fm_workload, WorkloadScale};

/// The figure's data: per-chip access counts for the two design points.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// Per-chip accesses without coalescing (per-chip chip select).
    pub without: Histogram,
    /// Per-chip accesses with multi-chip coalescing.
    pub with_coalescing: Histogram,
}

impl Fig13 {
    /// Imbalance (coefficient of variation) without coalescing.
    pub fn cv_without(&self) -> f64 {
        self.without.coefficient_of_variation()
    }

    /// Imbalance with coalescing.
    pub fn cv_with(&self) -> f64 {
        self.with_coalescing.coefficient_of_variation()
    }

    /// Renders both histograms normalised to their mean.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, h) in [
            ("(a) without multi-chip coalescing", &self.without),
            ("(b) with multi-chip coalescing", &self.with_coalescing),
        ] {
            let mut t = Table::new(
                format!("Fig. 13 {name}"),
                &["chip", "accesses", "normalized"],
            );
            let mean = h.mean().max(1e-9);
            for (i, &b) in h.buckets().iter().enumerate() {
                t.row(&[
                    i.to_string(),
                    b.to_string(),
                    format!("{:.3}", b as f64 / mean),
                ]);
            }
            out.push_str(&t.render());
            out.push_str(&format!(
                "coefficient of variation: {:.4}\n\n",
                h.coefficient_of_variation()
            ));
        }
        out
    }
}

/// Runs the experiment on the Pt genome.
///
/// The per-chip imbalance comes from hot Occ buckets (shared search
/// prefixes); its relative magnitude shrinks as the scaled index grows,
/// so the experiment pins the genome to the size whose skew matches the
/// full-size system (≈2-4x over the mean, as in the paper's figure).
pub fn run(scale: &WorkloadScale, pes: usize, run: RunOptions, obs: &mut Observer) -> Fig13 {
    let mut scale = *scale;
    scale.pt_genome_len = scale.pt_genome_len.min(60_000);
    let w = fm_workload(GenomeId::Pt, &scale);
    let app = w.app;

    let mut base_opts = Optimizations::full(BeaconVariant::D, app);
    base_opts.multi_chip_coalescing = None;
    let mut coal_opts = base_opts;
    coal_opts.multi_chip_coalescing = Some(8);

    let mut histograms = Vec::new();
    for opts in [base_opts, coal_opts] {
        let mut cfg = BeaconConfig::paper_d(app).with_opts(opts);
        cfg.pes_per_module = pes;
        cfg.refresh_enabled = false;
        let layout = build_layout(&cfg, &w.layout);
        let mut sys = BeaconSystem::new(cfg, layout);
        sys.submit_observed(w.traces.iter().cloned(), obs);
        let _ = sys.run_with(run, obs);
        histograms.push(sys.cxlg_chip_histogram().expect("CXLG DIMMs exist"));
    }
    let with_coalescing = histograms.pop().expect("two runs");
    let without = histograms.pop().expect("two runs");
    Fig13 {
        without,
        with_coalescing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_balances_chip_load() {
        let scale = WorkloadScale::test();
        let fig = run(&scale, 8, RunOptions::default(), &mut Observer::default());
        assert!(fig.without.total() > 0);
        assert!(fig.with_coalescing.total() > 0);
        // The paper's claim: coalescing evens out per-chip access.
        assert!(
            fig.cv_with() < fig.cv_without(),
            "CV with ({:.4}) must be below CV without ({:.4})",
            fig.cv_with(),
            fig.cv_without()
        );
        let text = fig.render();
        assert!(text.contains("coefficient of variation"));
    }
}
