//! Service-level determinism gates (extends the `tests/differential.rs`
//! conventions to the pool-as-a-service frontend):
//!
//! 1. A single-tenant, single-job service run is **digest-identical**
//!    to the equivalent direct `BeaconSystem::run` — the service adds
//!    queueing and reporting, never simulation behaviour.
//! 2. The whole `ServiceReport` digest (admission decisions, schedule
//!    composition, per-job digests) is identical across thread counts
//!    (`BEACON_THREADS`, see `tests/common`) and engine skip modes.
//! 3. Shifting fair-share weights demonstrably shifts completion order
//!    on a contended two-tenant spec.

mod common;

use beacon_core::mmf::build_layout;
use beacon_core::system::BeaconSystem;
use beacon_genomics::genome::GenomeId;
use beacon_pool::prelude::*;
use beacon_sim::observer::Observer;
use common::run_matrix;

/// A one-tenant, one-job spec for the differential gate.
fn single_job_spec(kind: JobKind, genome: GenomeId) -> ServiceSpec {
    let mut spec = ServiceSpec::demo(42);
    spec.synth = None;
    spec.tenants.truncate(1);
    spec.jobs.push(JobSpec {
        id: 0,
        tenant: "broad".into(),
        kind,
        genome,
        arrival_round: 0,
    });
    spec
}

/// A contended spec: two tenants, same-kind bursts (same region names
/// never co-run), plus a k-mer job each so some rounds do co-run.
fn contended_spec(weight_a: u64, weight_b: u64) -> ServiceSpec {
    let mut spec = ServiceSpec::demo(42);
    spec.synth = None;
    spec.tenants.clear();
    for (name, weight) in [("alpha", weight_a), ("beta", weight_b)] {
        spec.tenants.push(TenantSpec {
            name: name.into(),
            weight,
            quota_pct: 100,
        });
        for kind in [
            JobKind::FmSeeding,
            JobKind::FmSeeding,
            JobKind::KmerCounting,
        ] {
            spec.jobs.push(JobSpec {
                id: 0,
                tenant: name.into(),
                kind,
                genome: GenomeId::Pt,
                arrival_round: 0,
            });
        }
    }
    spec
}

#[test]
fn single_job_service_run_matches_direct_run() {
    for (kind, genome) in [
        (JobKind::FmSeeding, GenomeId::Pt),
        (JobKind::KmerCounting, GenomeId::Human),
        (JobKind::PreAlignment, GenomeId::Ss),
    ] {
        let spec = single_job_spec(kind, genome);
        let report = run_service(&spec);
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.jobs[0].status, JobStatus::Completed);

        // The equivalent direct run: same config constructor, same
        // workload builder, same submission order.
        let cfg = spec.system_config(kind.app());
        let w = kind.workload(genome, &spec.scale);
        let mut sys = BeaconSystem::new(cfg, build_layout(&cfg, &w.layout));
        sys.submit_round_robin(w.traces.iter().cloned());
        let direct = sys.run();

        assert_eq!(
            report.jobs[0].digest,
            direct.digest(),
            "{kind:?}/{genome:?}: service must not change the simulation"
        );
        assert_eq!(report.jobs[0].service_cycles, direct.cycles);
        assert_eq!(report.total_cycles, direct.cycles);
    }
}

#[test]
fn service_digest_is_identical_across_threads_and_skip() {
    let spec = contended_spec(3, 1);
    let golden = run_service(&spec);
    assert!(
        golden.jobs.iter().all(|j| j.status == JobStatus::Completed),
        "contended spec must drain"
    );
    for run in run_matrix() {
        let got = run_service_with(&spec, run, &mut Observer::default());
        assert_eq!(
            got.digest(),
            golden.digest(),
            "service digest diverged under {run:?}"
        );
        assert_eq!(
            got.decisions, golden.decisions,
            "admission decision stream diverged under {run:?}"
        );
        let gold_rounds: Vec<_> = golden.rounds.iter().map(|r| &r.jobs).collect();
        let got_rounds: Vec<_> = got.rounds.iter().map(|r| &r.jobs).collect();
        assert_eq!(
            got_rounds, gold_rounds,
            "schedule composition diverged under {run:?}"
        );
    }
}

#[test]
fn weight_shift_changes_completion_order() {
    let heavy_alpha = run_service(&contended_spec(8, 1));
    let heavy_beta = run_service(&contended_spec(1, 8));
    let mean_round = |r: &ServiceReport, tenant: &str| -> f64 {
        let rounds: Vec<u64> = r
            .jobs
            .iter()
            .filter(|j| j.tenant == tenant)
            .map(|j| j.run_round)
            .collect();
        rounds.iter().sum::<u64>() as f64 / rounds.len() as f64
    };
    assert!(
        mean_round(&heavy_alpha, "alpha") < mean_round(&heavy_alpha, "beta"),
        "heavier tenant finishes first"
    );
    assert!(
        mean_round(&heavy_beta, "beta") < mean_round(&heavy_beta, "alpha"),
        "flipping the weights flips the order"
    );
    // The per-tenant SLO report surfaces the shift as queue wait.
    let alpha = &heavy_alpha.tenants[0];
    let beta = &heavy_alpha.tenants[1];
    assert!(alpha.queue_wait_cycles < beta.queue_wait_cycles);
}

#[test]
fn spec_file_round_trip_reproduces_the_run() {
    let spec = contended_spec(3, 1);
    let text = spec.render_json();
    let parsed = ServiceSpec::parse_json(&text).expect("spec round-trips");
    assert_eq!(parsed, spec);
    assert_eq!(run_service(&parsed).digest(), run_service(&spec).digest());
}

#[test]
fn service_json_report_is_schema_shaped() {
    let report = run_service(&single_job_spec(JobKind::FmSeeding, GenomeId::Pt));
    let json = report.render_json();
    let doc = beacon_sim::json::JsonValue::parse(&json).expect("valid JSON");
    let schema_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/service.schema.json"
    ))
    .expect("checked-in schema");
    let schema = beacon_sim::json::JsonValue::parse(&schema_text).expect("schema parses");
    beacon_sim::json::check_schema(&doc, &schema).expect("report conforms to schema");
}
