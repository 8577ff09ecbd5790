//! The service report: per-job outcomes, the deterministic decision
//! stream, and the per-tenant SLO rollup (p50/p99 latency, queue-wait
//! vs. service time, degraded-job counts).
//!
//! [`ServiceReport::digest`] covers exactly the deterministic surface —
//! admission decisions, schedule composition and per-job run digests —
//! and excludes diagnostics (attribution presence) the same way
//! `RunResult::digest` excludes its observability extras.

use beacon_sim::json::Writer;
use beacon_sim::stats::percentile_of_sorted;

use crate::admission::{Decision, Verdict};

/// Why a job left the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion in `run_round`.
    Completed,
    /// Dropped at admission.
    Rejected(&'static str),
}

/// One job's fate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// Job id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Kernel name (spec-file form).
    pub kind: &'static str,
    /// Genome label.
    pub genome: &'static str,
    /// Round the job entered the admission queue.
    pub arrival_round: u64,
    /// Round the job was admitted (= arrival for immediate admits).
    pub admit_round: u64,
    /// Round the job ran (0 for rejected jobs).
    pub run_round: u64,
    /// Completion status.
    pub status: JobStatus,
    /// Service-clock cycles between arrival and the start of the job's
    /// round (admission queueing + scheduling delay).
    pub queue_wait_cycles: u64,
    /// Cycles of the round that ran the job.
    pub service_cycles: u64,
    /// The round's `RunResult` digest — for a single-job round this is
    /// bit-identical to the equivalent direct `BeaconSystem::run`.
    pub digest: u64,
    /// The round ran visibly degraded (fault model reported damage).
    pub degraded: bool,
}

impl JobOutcome {
    /// End-to-end latency (queue wait + service).
    pub fn latency_cycles(&self) -> u64 {
        self.queue_wait_cycles + self.service_cycles
    }
}

/// One scheduling round that ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// Round number.
    pub round: u64,
    /// Jobs co-run, in submission order.
    pub jobs: Vec<u64>,
    /// Cycles the round's system simulated.
    pub cycles: u64,
}

/// The SLO rollup for one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSlo {
    /// Tenant name.
    pub tenant: String,
    /// Fair-share weight (echoed for the report).
    pub weight: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs rejected at admission.
    pub rejected: u64,
    /// Completed jobs whose round ran degraded.
    pub degraded_jobs: u64,
    /// Median end-to-end latency over completed jobs.
    pub p50_latency_cycles: u64,
    /// 99th-percentile end-to-end latency over completed jobs.
    pub p99_latency_cycles: u64,
    /// Total cycles completed jobs spent queued.
    pub queue_wait_cycles: u64,
    /// Total cycles of service received.
    pub service_cycles: u64,
}

/// Everything a service run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// The service seed (echoed for replay).
    pub seed: u64,
    /// Per-job outcomes, by id.
    pub jobs: Vec<JobOutcome>,
    /// Rounds that ran, in order.
    pub rounds: Vec<RoundRecord>,
    /// Per-tenant SLO rollups, in spec order.
    pub tenants: Vec<TenantSlo>,
    /// The admission decision stream, in order.
    pub decisions: Vec<Decision>,
    /// Total service-clock cycles.
    pub total_cycles: u64,
}

impl ServiceReport {
    /// Computes the per-tenant SLO rollup from `jobs` (called by the
    /// service after the run loop; order follows `tenant_order`).
    pub fn rollup(jobs: &[JobOutcome], tenant_order: &[(String, u64)]) -> Vec<TenantSlo> {
        tenant_order
            .iter()
            .map(|(name, weight)| {
                let mine: Vec<&JobOutcome> = jobs.iter().filter(|j| &j.tenant == name).collect();
                let mut latencies: Vec<u64> = mine
                    .iter()
                    .filter(|j| j.status == JobStatus::Completed)
                    .map(|j| j.latency_cycles())
                    .collect();
                latencies.sort_unstable();
                TenantSlo {
                    tenant: name.clone(),
                    weight: *weight,
                    completed: latencies.len() as u64,
                    rejected: mine
                        .iter()
                        .filter(|j| matches!(j.status, JobStatus::Rejected(_)))
                        .count() as u64,
                    degraded_jobs: mine.iter().filter(|j| j.degraded).count() as u64,
                    p50_latency_cycles: percentile_of_sorted(&latencies, 50.0),
                    p99_latency_cycles: percentile_of_sorted(&latencies, 99.0),
                    queue_wait_cycles: mine.iter().map(|j| j.queue_wait_cycles).sum(),
                    service_cycles: mine.iter().map(|j| j.service_cycles).sum(),
                }
            })
            .collect()
    }

    /// FNV-1a digest of the deterministic surface: the decision stream,
    /// the round compositions, and every job's (id, rounds, latencies,
    /// run digest). Identical across thread counts and skip modes.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.seed);
        h.u64(self.total_cycles);
        for d in &self.decisions {
            h.u64(d.round);
            h.u64(d.job);
            h.bytes(d.tenant.as_bytes());
            match &d.verdict {
                Verdict::Admitted => h.u64(1),
                Verdict::Queued(r) => {
                    h.u64(2);
                    h.bytes(r.as_bytes());
                }
                Verdict::Rejected(r) => {
                    h.u64(3);
                    h.bytes(r.as_bytes());
                }
            }
        }
        for r in &self.rounds {
            h.u64(r.round);
            h.u64(r.cycles);
            for j in &r.jobs {
                h.u64(*j);
            }
        }
        for j in &self.jobs {
            h.u64(j.id);
            h.u64(j.arrival_round);
            h.u64(j.admit_round);
            h.u64(j.run_round);
            h.u64(j.queue_wait_cycles);
            h.u64(j.service_cycles);
            h.u64(j.digest);
            h.u64(match j.status {
                JobStatus::Completed => 0,
                JobStatus::Rejected(_) => 1,
            });
        }
        h.finish()
    }

    /// Greppable text form: one `job …` line per job (the CI smoke
    /// greps the `digest: 0x…` fields) plus the per-tenant SLO table.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pool service: seed {} | {} jobs, {} rounds, {} cycles | report digest: {:#018x}",
            self.seed,
            self.jobs.len(),
            self.rounds.len(),
            self.total_cycles,
            self.digest(),
        );
        for j in &self.jobs {
            match &j.status {
                JobStatus::Completed => {
                    let _ = writeln!(
                        out,
                        "job {:>3} tenant={} kind={} genome={} arrival={} run={} \
                         wait={} service={} digest: {:#018x}{}",
                        j.id,
                        j.tenant,
                        j.kind,
                        j.genome,
                        j.arrival_round,
                        j.run_round,
                        j.queue_wait_cycles,
                        j.service_cycles,
                        j.digest,
                        if j.degraded { " DEGRADED" } else { "" },
                    );
                }
                JobStatus::Rejected(reason) => {
                    let _ = writeln!(
                        out,
                        "job {:>3} tenant={} kind={} genome={} arrival={} REJECTED: {}",
                        j.id, j.tenant, j.kind, j.genome, j.arrival_round, reason,
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "{:<12} {:>3} {:>5} {:>4} {:>4} {:>12} {:>12} {:>12} {:>12}",
            "tenant",
            "wt",
            "done",
            "rej",
            "degr",
            "p50-latency",
            "p99-latency",
            "queue-wait",
            "service"
        );
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "{:<12} {:>3} {:>5} {:>4} {:>4} {:>12} {:>12} {:>12} {:>12}",
                t.tenant,
                t.weight,
                t.completed,
                t.rejected,
                t.degraded_jobs,
                t.p50_latency_cycles,
                t.p99_latency_cycles,
                t.queue_wait_cycles,
                t.service_cycles,
            );
        }
        out
    }

    /// JSON form conforming to `schemas/service.schema.json`.
    pub fn render_json(&self) -> String {
        let mut w = Writer::new();
        w.object(|w| {
            w.key("report").str("pool-service");
            w.key("seed").u64(self.seed);
            w.key("total_cycles").u64(self.total_cycles);
            w.key("digest").str(&format!("{:#018x}", self.digest()));
            w.key("tenants").objects(&self.tenants, |w, t| {
                w.key("tenant").str(&t.tenant);
                w.key("weight").u64(t.weight);
                w.key("completed").u64(t.completed);
                w.key("rejected").u64(t.rejected);
                w.key("degraded_jobs").u64(t.degraded_jobs);
                w.key("p50_latency_cycles").u64(t.p50_latency_cycles);
                w.key("p99_latency_cycles").u64(t.p99_latency_cycles);
                w.key("queue_wait_cycles").u64(t.queue_wait_cycles);
                w.key("service_cycles").u64(t.service_cycles);
            });
            w.key("jobs").objects(&self.jobs, |w, j| {
                w.key("id").u64(j.id);
                w.key("tenant").str(&j.tenant);
                w.key("kind").str(j.kind);
                w.key("genome").str(j.genome);
                w.key("arrival_round").u64(j.arrival_round);
                w.key("run_round").u64(j.run_round);
                match &j.status {
                    JobStatus::Completed => w.key("status").str("completed"),
                    JobStatus::Rejected(r) => w.key("status").str(&format!("rejected: {r}")),
                }
                w.key("queue_wait_cycles").u64(j.queue_wait_cycles);
                w.key("service_cycles").u64(j.service_cycles);
                w.key("degraded").bool(j.degraded);
                w.key("digest").str(&format!("{:#018x}", j.digest));
            });
            w.key("rounds").objects(&self.rounds, |w, r| {
                w.key("round").u64(r.round);
                w.key("jobs")
                    .array(|w| r.jobs.iter().for_each(|&id| w.u64(id)));
                w.key("cycles").u64(r.cycles);
            });
            w.key("decisions").objects(&self.decisions, |w, d| {
                let (verdict, reason) = match &d.verdict {
                    Verdict::Admitted => ("admitted", ""),
                    Verdict::Queued(r) => ("queued", *r),
                    Verdict::Rejected(r) => ("rejected", *r),
                };
                w.key("round").u64(d.round);
                w.key("job").u64(d.job);
                w.key("tenant").str(&d.tenant);
                w.key("verdict").str(verdict);
                w.key("reason").str(reason);
            });
        });
        w.finish()
    }
}

/// FNV-1a, the repo's digest primitive.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.u64(bytes.len() as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, tenant: &str, wait: u64, service: u64) -> JobOutcome {
        JobOutcome {
            id,
            tenant: tenant.into(),
            kind: "fm-seeding",
            genome: "Pt",
            arrival_round: 0,
            admit_round: 0,
            run_round: id,
            status: JobStatus::Completed,
            queue_wait_cycles: wait,
            service_cycles: service,
            digest: 0xabc0 + id,
            degraded: false,
        }
    }

    fn report() -> ServiceReport {
        let jobs = vec![
            outcome(0, "a", 0, 100),
            outcome(1, "a", 100, 50),
            outcome(2, "b", 150, 200),
        ];
        let tenants = ServiceReport::rollup(&jobs, &[("a".into(), 2), ("b".into(), 1)]);
        ServiceReport {
            seed: 42,
            jobs,
            rounds: vec![RoundRecord {
                round: 0,
                jobs: vec![0, 1, 2],
                cycles: 350,
            }],
            tenants,
            decisions: Vec::new(),
            total_cycles: 350,
        }
    }

    #[test]
    fn rollup_computes_percentiles_over_completed_jobs() {
        let r = report();
        let a = &r.tenants[0];
        assert_eq!(a.completed, 2);
        assert_eq!(a.p50_latency_cycles, 100);
        assert_eq!(a.p99_latency_cycles, 150);
        assert_eq!(a.queue_wait_cycles, 100);
        assert_eq!(a.service_cycles, 150);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let r = report();
        assert_eq!(r.digest(), r.digest());
        let mut r2 = r.clone();
        r2.jobs[0].digest ^= 1;
        assert_ne!(r.digest(), r2.digest());
    }

    #[test]
    fn text_report_has_greppable_digest_lines() {
        let text = report().render_text();
        assert!(text.contains("job   0"), "{text}");
        assert!(text.lines().filter(|l| l.contains("digest: 0x")).count() >= 3);
    }

    #[test]
    fn json_report_parses() {
        for tenant in ["a", "a\"b\\c"] {
            let mut r = report();
            r.tenants[0].tenant = tenant.into();
            r.jobs[0].tenant = tenant.into();
            let doc = beacon_sim::json::JsonValue::parse(&r.render_json()).expect("valid JSON");
            assert_eq!(
                doc.get("report").and_then(|v| v.as_str()),
                Some("pool-service")
            );
            let jobs = doc.get("jobs").and_then(|v| v.as_array()).unwrap();
            assert_eq!(jobs.len(), 3);
            assert_eq!(jobs[0].get("tenant").and_then(|v| v.as_str()), Some(tenant));
        }
    }
}
