//! The pool service: a deterministic round loop over admission,
//! scheduling and per-round `BeaconSystem` execution.
//!
//! Each round: arrivals enter the admission queue, the admission
//! controller re-examines the queue in order, the fair scheduler packs
//! a co-run set from the admitted backlog, and one `BeaconSystem` is
//! built from the merged layouts and run to drain. The service clock is
//! the sum of round cycles, so queue wait and service time are in the
//! same (deterministic) unit as the underlying simulation.
//!
//! Determinism contract: the admission/schedule decision streams are
//! pure functions of the spec, and every round's `RunResult` digest
//! inherits the engine's bit-identical guarantee across thread counts
//! and skip modes — so the whole [`ServiceReport::digest`] is too
//! (enforced by `tests/service.rs`).

use beacon_core::allocator::PoolAllocator;
use beacon_core::experiments::common::AppWorkload;
use beacon_core::mmf::{build_layout, reservation_plan, LayoutSpec};
use beacon_core::system::BeaconSystem;
use beacon_sim::engine::RunOptions;
use beacon_sim::journey::JourneyRecorder;
use beacon_sim::observer::Observer;
use beacon_sim::rng::SimRng;

use crate::admission::{AdmissionController, Verdict};
use crate::sched::{FairScheduler, ReadyJob};
use crate::slo::{JobOutcome, JobStatus, RoundRecord, ServiceReport};
use crate::spec::{JobSpec, ServiceSpec};

/// One job moving through the service.
struct JobState {
    spec: JobSpec,
    workload: AppWorkload,
    /// Service clock when the job arrived.
    arrival_clock: u64,
    admit_round: u64,
    rounds_waited: u64,
    /// The last queued reason logged (re-log only on change, so the
    /// decision stream stays proportional to state changes).
    last_queue_reason: Option<&'static str>,
}

/// Runs the service described by `spec` to completion on the
/// production engine configuration ([`RunOptions::default`]),
/// unobserved.
///
/// # Panics
/// Panics when the spec's `max_rounds` is exceeded — with rejection of
/// never-fitting jobs and the scheduler's progress guarantee that only
/// happens on a service bug, not on backlog.
pub fn run_service(spec: &ServiceSpec) -> ServiceReport {
    run_service_with(spec, RunOptions::default(), &mut Observer::default())
}

/// [`run_service`] with every round's system run under `run`, recording
/// into `obs`. The report is identical for every option value and every
/// observer. With `spec.sample_every` set, each round runs with a fresh
/// journey recorder as `obs`'s journey part, salted per round; the
/// service leaves `obs` without one.
pub fn run_service_with(spec: &ServiceSpec, run: RunOptions, obs: &mut Observer) -> ServiceReport {
    let expanded = spec.expand_jobs();
    assert!(!expanded.is_empty(), "spec produced no jobs");

    let arbiter_cfg = spec.system_config(expanded[0].kind.app());
    let mut admission = AdmissionController::new(&arbiter_cfg, &spec.tenants);
    let mut sched = FairScheduler::new(
        spec.tenants.iter().map(|t| (t.name.clone(), t.weight)),
        spec.quantum,
        spec.max_corun,
        spec.starvation_rounds,
    );

    let mut arrivals = expanded.into_iter().peekable();
    let mut waiting: Vec<JobState> = Vec::new();
    let mut ready: Vec<JobState> = Vec::new();
    let mut outcomes: Vec<JobOutcome> = Vec::new();
    let mut rounds: Vec<RoundRecord> = Vec::new();
    let mut clock = 0u64;
    let mut salt_rng = SimRng::from_seed(spec.seed).child(0x510);

    let mut round = 0u64;
    while arrivals.peek().is_some() || !waiting.is_empty() || !ready.is_empty() {
        assert!(
            round <= spec.max_rounds,
            "service exceeded max_rounds ({}) — scheduling stopped making progress",
            spec.max_rounds
        );

        // Arrivals: jobs whose round has come enter the admission queue.
        while arrivals.peek().is_some_and(|j| j.arrival_round <= round) {
            let js = arrivals.next().expect("peeked");
            let workload = js.kind.workload(js.genome, &spec.scale);
            waiting.push(JobState {
                spec: js,
                workload,
                arrival_clock: clock,
                admit_round: 0,
                rounds_waited: 0,
                last_queue_reason: None,
            });
        }

        // Admission pass, in queue order.
        let mut still_waiting = Vec::with_capacity(waiting.len());
        for mut job in waiting {
            let cfg = spec.system_config(job.spec.kind.app());
            match admission.try_admit_dedup(
                round,
                job.spec.id,
                &job.spec.tenant,
                &cfg,
                &job.workload.layout,
                &mut job.last_queue_reason,
            ) {
                Verdict::Admitted => {
                    job.admit_round = round;
                    ready.push(job);
                }
                Verdict::Queued(_) => still_waiting.push(job),
                Verdict::Rejected(reason) => outcomes.push(JobOutcome {
                    id: job.spec.id,
                    tenant: job.spec.tenant.clone(),
                    kind: job.spec.kind.name(),
                    genome: job.spec.genome.label(),
                    arrival_round: job.spec.arrival_round,
                    admit_round: 0,
                    run_round: 0,
                    status: JobStatus::Rejected(reason),
                    queue_wait_cycles: clock - job.arrival_clock,
                    service_cycles: 0,
                    digest: 0,
                    degraded: false,
                }),
            }
        }
        waiting = still_waiting;

        // Scheduling + execution.
        if !ready.is_empty() {
            let summaries: Vec<ReadyJob> = ready
                .iter()
                .map(|j| ReadyJob {
                    id: j.spec.id,
                    tenant: j.spec.tenant.clone(),
                    cost: j.workload.traces.len() as u64,
                    regions: j.spec.kind.regions().to_vec(),
                    rounds_waited: j.rounds_waited,
                })
                .collect();
            let by_id = |id: u64| -> &JobState {
                ready
                    .iter()
                    .find(|j| j.spec.id == id)
                    .expect("selected from ready")
            };
            let picked = sched.select(&summaries, |selected, cand| {
                // Merged layout must fit a fresh pool — exactly what the
                // round's build_layout will do.
                let first_app = selected.first().map_or(cand.id, |&id| id);
                let cfg = spec.system_config(by_id(first_app).spec.kind.app());
                let mut merged: Vec<LayoutSpec> = Vec::new();
                for &id in selected {
                    merged.extend(by_id(id).workload.layout.iter().cloned());
                }
                merged.extend(by_id(cand.id).workload.layout.iter().cloned());
                let mut fresh = PoolAllocator::new(cfg.geometry, &cfg.all_dimm_nodes());
                reservation_plan(&cfg, &merged)
                    .iter()
                    .all(|r| fresh.allocate(&r.homes, r.per_node_bytes, r.window).is_ok())
            });
            assert!(!picked.is_empty(), "ready jobs but empty selection");

            // Split ready into the round's jobs (selection order) and
            // the left-behind backlog.
            let mut running: Vec<JobState> = Vec::with_capacity(picked.len());
            for &id in &picked {
                let at = ready
                    .iter()
                    .position(|j| j.spec.id == id)
                    .expect("selected from ready");
                running.push(ready.remove(at));
            }
            for j in &mut ready {
                j.rounds_waited += 1;
            }

            // One system for the round, configured like a direct run of
            // the first (highest-priority) job.
            let cfg = spec.system_config(running[0].spec.kind.app());
            let merged: Vec<LayoutSpec> = running
                .iter()
                .flat_map(|j| j.workload.layout.iter().cloned())
                .collect();
            let mut sys = BeaconSystem::new(cfg, build_layout(&cfg, &merged));
            sys.submit_observed(
                running
                    .iter()
                    .flat_map(|j| j.workload.traces.iter().cloned()),
                obs,
            );
            if spec.sample_every > 0 {
                let salt = salt_rng.child(round).below(u64::MAX);
                obs.journey = Some(JourneyRecorder::new(spec.sample_every, salt));
            }
            let result = sys.run_with(run, obs);
            let degraded = result.degraded.as_ref().is_some_and(|d| !d.is_clean());
            let digest = result.digest();

            for job in &running {
                admission.release(job.spec.id);
                outcomes.push(JobOutcome {
                    id: job.spec.id,
                    tenant: job.spec.tenant.clone(),
                    kind: job.spec.kind.name(),
                    genome: job.spec.genome.label(),
                    arrival_round: job.spec.arrival_round,
                    admit_round: job.admit_round,
                    run_round: round,
                    status: JobStatus::Completed,
                    queue_wait_cycles: clock - job.arrival_clock,
                    service_cycles: result.cycles,
                    digest,
                    degraded,
                });
            }
            rounds.push(RoundRecord {
                round,
                jobs: picked,
                cycles: result.cycles,
            });
            clock += result.cycles;
        }

        round += 1;
    }

    if spec.sample_every > 0 {
        obs.journey = None;
    }
    outcomes.sort_by_key(|j| j.id);
    let tenant_order: Vec<(String, u64)> = spec
        .tenants
        .iter()
        .map(|t| (t.name.clone(), t.weight))
        .collect();
    let tenants = ServiceReport::rollup(&outcomes, &tenant_order);
    ServiceReport {
        seed: spec.seed,
        jobs: outcomes,
        rounds,
        tenants,
        decisions: admission.log.clone(),
        total_cycles: clock,
    }
}

impl AdmissionController {
    /// [`AdmissionController::try_admit`] that logs a `Queued` verdict
    /// only when its reason changed since the last attempt, keeping the
    /// decision stream proportional to state changes rather than
    /// rounds.
    fn try_admit_dedup(
        &mut self,
        round: u64,
        job: u64,
        tenant: &str,
        cfg: &beacon_core::config::BeaconConfig,
        specs: &[LayoutSpec],
        last_queue_reason: &mut Option<&'static str>,
    ) -> Verdict {
        let verdict = self.try_admit(round, job, tenant, cfg, specs);
        if let Verdict::Queued(reason) = &verdict {
            if *last_queue_reason == Some(*reason) {
                self.log.pop();
            } else {
                *last_queue_reason = Some(*reason);
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobKind, TenantSpec};
    use beacon_genomics::genome::GenomeId;

    fn tiny_spec(seed: u64) -> ServiceSpec {
        let mut spec = ServiceSpec::demo(seed);
        spec.synth = None;
        for (i, (kind, tenant)) in [
            (JobKind::FmSeeding, "broad"),
            (JobKind::KmerCounting, "sanger"),
            (JobKind::PreAlignment, "broad"),
            (JobKind::FmSeeding, "sanger"),
        ]
        .into_iter()
        .enumerate()
        {
            spec.jobs.push(JobSpec {
                id: 0,
                tenant: tenant.into(),
                kind,
                genome: GenomeId::Pt,
                arrival_round: (i / 2) as u64,
            });
        }
        spec
    }

    #[test]
    fn service_runs_all_jobs_to_completion() {
        let report = run_service(&tiny_spec(42));
        assert_eq!(report.jobs.len(), 4);
        assert!(report.jobs.iter().all(|j| j.status == JobStatus::Completed));
        assert!(report.total_cycles > 0);
        assert!(!report.rounds.is_empty());
        // Every run round carries a non-zero digest.
        assert!(report.jobs.iter().all(|j| j.digest != 0));
    }

    #[test]
    fn same_spec_same_report() {
        let a = run_service(&tiny_spec(42));
        let b = run_service(&tiny_spec(42));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.decisions, b.decisions);
    }

    #[test]
    fn synthesized_arrivals_run_too() {
        let mut spec = ServiceSpec::demo(7);
        spec.synth.as_mut().unwrap().jobs_per_tenant = 2;
        let report = run_service(&spec);
        assert_eq!(report.jobs.len(), 4);
        assert!(report.jobs.iter().all(|j| j.status == JobStatus::Completed));
    }

    #[test]
    fn conflicting_jobs_run_in_separate_rounds() {
        let mut spec = ServiceSpec::demo(3);
        spec.synth = None;
        for _ in 0..2 {
            spec.jobs.push(JobSpec {
                id: 0,
                tenant: "broad".into(),
                kind: JobKind::FmSeeding,
                genome: GenomeId::Pt,
                arrival_round: 0,
            });
        }
        let report = run_service(&spec);
        assert_eq!(report.rounds.len(), 2, "same-kind jobs must not co-run");
    }

    #[test]
    fn tiny_quota_tenant_big_jobs_are_rejected() {
        let mut spec = ServiceSpec::demo(5);
        spec.synth = None;
        // A 64 MiB counting Bloom filter holds far more than 1% of the
        // pool's rows, so the small tenant's k-mer job can never admit
        // while the wide tenant's runs fine.
        spec.scale.cbf_bytes = 64 << 20;
        spec.tenants.push(TenantSpec {
            name: "small".into(),
            weight: 1,
            quota_pct: 1,
        });
        spec.jobs.push(JobSpec {
            id: 0,
            tenant: "small".into(),
            kind: JobKind::KmerCounting,
            genome: GenomeId::Pt,
            arrival_round: 0,
        });
        spec.jobs.push(JobSpec {
            id: 0,
            tenant: "broad".into(),
            kind: JobKind::FmSeeding,
            genome: GenomeId::Pt,
            arrival_round: 0,
        });
        let report = run_service(&spec);
        let small: Vec<_> = report.jobs.iter().filter(|j| j.tenant == "small").collect();
        assert_eq!(small.len(), 1);
        assert!(
            matches!(small[0].status, JobStatus::Rejected(_)),
            "1% quota cannot hold a 64 MiB Bloom filter: {:?}",
            small[0].status
        );
        let broad: Vec<_> = report.jobs.iter().filter(|j| j.tenant == "broad").collect();
        assert!(broad.iter().all(|j| j.status == JobStatus::Completed));
    }
}
