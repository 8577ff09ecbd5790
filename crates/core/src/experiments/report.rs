//! Bottleneck report: request-journey attribution over the five genomes.
//!
//! Not a paper figure — the observability companion to the ladders: for
//! each genome the FM-index seeding workload runs on the full BEACON-D
//! design with attribution sampling enabled, and the per-phase latency
//! decomposition, component utilization and most-contended queues are
//! reported (`figures --report`).

use beacon_genomics::genome::GenomeId;
use beacon_sim::engine::RunOptions;
use beacon_sim::journey::{Attribution, JourneyRecorder};
use beacon_sim::json::Writer;
use beacon_sim::observer::Observer;
use beacon_sim::rng::SimRng;

use crate::config::{BeaconVariant, Optimizations};

use super::common::{fm_workload, run_beacon, WorkloadScale};

/// Sampling period used by the harness: tracks one request in eight —
/// dense enough for stable percentiles at the figure scale, sparse
/// enough to keep the hot path cold.
pub const REPORT_SAMPLE_EVERY: u64 = 8;

/// One genome's attribution report.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// Genome label as used in the paper's figures.
    pub genome: &'static str,
    /// Run cycles (for scale context in the rendered report).
    pub cycles: u64,
    /// The bottleneck report of the run.
    pub attribution: Attribution,
}

/// The `--report` section's data: one row per genome.
#[derive(Debug, Clone)]
pub struct AttributionReport {
    /// Per-genome rows in [`GenomeId::FIVE`] order.
    pub rows: Vec<ReportRow>,
}

impl AttributionReport {
    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Bottleneck report — FM-index seeding on BEACON-D (full)\n");
        for row in &self.rows {
            out.push_str(&format!(
                "\n=== {} ({} cycles) ===\n",
                row.genome, row.cycles
            ));
            out.push_str(&row.attribution.render_text());
        }
        out
    }

    /// Renders the machine-readable report
    /// (`schemas/report.schema.json`): one JSON object per genome.
    pub fn render_json(&self) -> String {
        let mut w = Writer::new();
        w.object(|w| {
            w.key("report").str("journey-attribution");
            w.key("genomes").objects(&self.rows, |w, row| {
                w.key("genome").str(row.genome);
                w.key("cycles").u64(row.cycles);
                row.attribution.write_json(w.key("attribution"));
            });
        });
        w.finish()
    }
}

/// Runs the attribution sweep over `genomes` at `sample_every`,
/// recording into `obs`.
///
/// Each run gets a fresh [`JourneyRecorder`] as `obs`'s journey part
/// (salted from the workload seed via [`SimRng::child`], so the tracked
/// subset is a deterministic function of the scale alone); the sweep
/// leaves `obs` without one.
pub fn run_genomes(
    scale: &WorkloadScale,
    pes: usize,
    sample_every: u64,
    genomes: &[GenomeId],
    run: RunOptions,
    obs: &mut Observer,
) -> AttributionReport {
    let mut rows = Vec::with_capacity(genomes.len());
    for &g in genomes {
        let w = fm_workload(g, scale);
        let salt = SimRng::from_seed(scale.seed).child(0xA77).below(u64::MAX);
        obs.journey = Some(JourneyRecorder::new(sample_every, salt));
        let opts = Optimizations::full(BeaconVariant::D, w.app);
        let r = run_beacon(BeaconVariant::D, opts, &w, pes, run, obs);
        let attribution = r.attribution.expect("attribution was enabled for this run");
        rows.push(ReportRow {
            genome: g.label(),
            cycles: r.cycles,
            attribution,
        });
    }
    obs.journey = None;
    AttributionReport { rows }
}

/// Runs the full five-genome sweep at the harness sampling period.
pub fn run(
    scale: &WorkloadScale,
    pes: usize,
    run: RunOptions,
    obs: &mut Observer,
) -> AttributionReport {
    run_genomes(scale, pes, REPORT_SAMPLE_EVERY, &GenomeId::FIVE, run, obs)
}

#[cfg(test)]
mod tests {
    use beacon_sim::json::JsonValue;

    use super::*;

    #[test]
    fn sweep_produces_populated_reports() {
        let scale = WorkloadScale::test();
        let rep = run_genomes(
            &scale,
            4,
            1,
            &[GenomeId::Pt],
            RunOptions::default(),
            &mut Observer::default(),
        );
        assert_eq!(rep.rows.len(), 1);
        let row = &rep.rows[0];
        assert_eq!(row.genome, "Pt");
        let attr = &row.attribution;
        assert!(attr.tracked > 0, "sample_every=1 must track requests");
        assert_eq!(attr.tracked, attr.seen);
        let total = attr
            .phases
            .iter()
            .find(|p| p.phase == "total")
            .expect("total row");
        assert!(total.count > 0);
        assert!(!attr.utilization.is_empty());
        assert!(!attr.queues.is_empty());
        assert!(!attr.classes.is_empty());
    }

    #[test]
    fn attribution_does_not_change_the_digest() {
        let scale = WorkloadScale::test();
        let w = fm_workload(GenomeId::Pt, &scale);
        let opts = Optimizations::full(BeaconVariant::D, w.app);
        let run = RunOptions::default();
        let plain = run_beacon(BeaconVariant::D, opts, &w, 4, run, &mut Observer::default());
        let mut obs = Observer {
            journey: Some(JourneyRecorder::new(1, 3)),
            ..Observer::default()
        };
        let attributed = run_beacon(BeaconVariant::D, opts, &w, 4, run, &mut obs);
        assert!(attributed.attribution.as_ref().expect("on").tracked > 0);
        assert_eq!(plain.digest(), attributed.digest());
        assert_eq!(plain.diff(&attributed), None);
    }

    #[test]
    fn sampling_is_deterministic_across_runs() {
        let scale = WorkloadScale::test();
        let a = run_genomes(
            &scale,
            4,
            2,
            &[GenomeId::Pt],
            RunOptions::default(),
            &mut Observer::default(),
        );
        let b = run_genomes(
            &scale,
            4,
            2,
            &[GenomeId::Pt],
            RunOptions::default(),
            &mut Observer::default(),
        );
        assert_eq!(a.rows[0].attribution, b.rows[0].attribution);
    }

    #[test]
    fn json_report_is_well_formed() {
        let scale = WorkloadScale::test();
        let rep = run_genomes(
            &scale,
            4,
            1,
            &[GenomeId::Pt],
            RunOptions::default(),
            &mut Observer::default(),
        );
        JsonValue::parse(&rep.render_json()).expect("well-formed report JSON");
        let text = rep.render();
        assert!(text.contains("=== Pt"));
        assert!(text.contains("phase"));
    }

    /// The rendered report must satisfy the checked-in schema that
    /// downstream tooling (CI, dashboards) consumes.
    #[test]
    fn json_report_matches_checked_in_schema() {
        use beacon_sim::json::check_schema;
        let schema_text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/report.schema.json"
        ))
        .expect("schemas/report.schema.json is checked in");
        let schema = JsonValue::parse(&schema_text).expect("schema parses");
        let scale = WorkloadScale::test();
        let rep = run_genomes(
            &scale,
            4,
            1,
            &[GenomeId::Pt],
            RunOptions::default(),
            &mut Observer::default(),
        );
        let doc = JsonValue::parse(&rep.render_json()).expect("report parses");
        check_schema(&doc, &schema).expect("report conforms to the schema");
    }
}
