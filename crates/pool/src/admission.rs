//! Admission control: the pool allocator as capacity arbiter.
//!
//! Every admitted job holds its full placement reservation — the exact
//! [`beacon_core::mmf::reservation_plan`] row requests of its layout
//! specs — on a *persistent* [`PoolAllocator`] from admission until
//! completion. Three-way verdicts: a job whose plan cannot fit even an
//! **empty** pool (or alone busts its tenant's quota) is rejected
//! outright; one that merely doesn't fit *right now* queues; the rest
//! admit. Because rejection is checked against an empty pool, every
//! admitted job is guaranteed to fit a fresh per-round layout alone —
//! the scheduler's progress guarantee.

use std::collections::BTreeMap;

use beacon_core::allocator::{PoolAllocator, RowGrant};
use beacon_core::config::BeaconConfig;
use beacon_core::mmf::{reservation_plan, LayoutSpec};

use crate::spec::TenantSpec;

/// The verdict on one admission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The job's reservation is now held on the pool.
    Admitted,
    /// Doesn't fit right now; retried next round.
    Queued(&'static str),
    /// Can never run under this spec; dropped with a reason.
    Rejected(&'static str),
}

/// One logged admission decision (the deterministic decision stream
/// asserted identical across thread counts and skip modes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Service round of the attempt.
    pub round: u64,
    /// Job id.
    pub job: u64,
    /// Owning tenant.
    pub tenant: String,
    /// The verdict.
    pub verdict: Verdict,
}

/// Per-job state the controller tracks while a reservation is live.
#[derive(Debug)]
struct Holding {
    tenant: String,
    grants: Vec<RowGrant>,
    rows: u64,
}

/// The admission controller.
#[derive(Debug)]
pub struct AdmissionController {
    alloc: PoolAllocator,
    /// Per-tenant quota in pool rows (derived from `quota_pct`).
    quota_rows: BTreeMap<String, u64>,
    /// Per-tenant rows currently held.
    used_rows: BTreeMap<String, u64>,
    holdings: BTreeMap<u64, Holding>,
    /// Every decision, in order.
    pub log: Vec<Decision>,
}

impl AdmissionController {
    /// A controller arbitrating the pool of `cfg` for `tenants`.
    pub fn new(cfg: &BeaconConfig, tenants: &[TenantSpec]) -> Self {
        let alloc = PoolAllocator::new(cfg.geometry, &cfg.all_dimm_nodes());
        let capacity = alloc.total_capacity_rows();
        AdmissionController {
            quota_rows: tenants
                .iter()
                .map(|t| (t.name.clone(), capacity * t.quota_pct / 100))
                .collect(),
            used_rows: tenants.iter().map(|t| (t.name.clone(), 0)).collect(),
            holdings: BTreeMap::new(),
            alloc,
            log: Vec::new(),
        }
    }

    /// Attempts to admit job `job` of `tenant` whose layout is `specs`,
    /// logging the decision under `round`.
    pub fn try_admit(
        &mut self,
        round: u64,
        job: u64,
        tenant: &str,
        cfg: &BeaconConfig,
        specs: &[LayoutSpec],
    ) -> Verdict {
        let verdict = self.decide(job, tenant, cfg, specs);
        self.log.push(Decision {
            round,
            job,
            tenant: tenant.to_owned(),
            verdict: verdict.clone(),
        });
        verdict
    }

    fn decide(
        &mut self,
        job: u64,
        tenant: &str,
        cfg: &BeaconConfig,
        specs: &[LayoutSpec],
    ) -> Verdict {
        let plan = reservation_plan(cfg, specs);
        let rows: u64 = plan
            .iter()
            .map(|r| r.rows(&self.alloc) * r.homes.len() as u64)
            .sum();
        let quota = self.quota_rows.get(tenant).copied().unwrap_or(0);
        if rows > quota {
            return Verdict::Rejected("layout exceeds tenant quota");
        }
        // A plan that cannot fit an empty pool can never run.
        let mut fresh = PoolAllocator::new(cfg.geometry, &cfg.all_dimm_nodes());
        for req in &plan {
            if fresh
                .allocate(&req.homes, req.per_node_bytes, req.window)
                .is_err()
            {
                return Verdict::Rejected("layout exceeds pool capacity");
            }
        }
        let used = self.used_rows.get(tenant).copied().unwrap_or(0);
        if used + rows > quota {
            return Verdict::Queued("tenant quota exhausted");
        }
        // Reserve for real; roll back on any failure.
        let mut grants = Vec::with_capacity(plan.len());
        for req in &plan {
            match self
                .alloc
                .allocate(&req.homes, req.per_node_bytes, req.window)
            {
                Ok(g) => grants.push(g),
                Err(_) => {
                    for g in &grants {
                        self.alloc.deallocate(g).expect("rollback of own grant");
                    }
                    return Verdict::Queued("pool capacity exhausted");
                }
            }
        }
        *self.used_rows.get_mut(tenant).expect("known tenant") += rows;
        self.holdings.insert(
            job,
            Holding {
                tenant: tenant.to_owned(),
                grants,
                rows,
            },
        );
        Verdict::Admitted
    }

    /// Returns a completed job's reservation to the pool.
    ///
    /// # Panics
    /// Panics when `job` holds no reservation — releasing twice (or
    /// releasing a queued job) is a service bug.
    pub fn release(&mut self, job: u64) {
        let h = self.holdings.remove(&job).expect("job holds a reservation");
        for g in &h.grants {
            self.alloc.deallocate(g).expect("grant returns cleanly");
        }
        *self.used_rows.get_mut(&h.tenant).expect("known tenant") -= h.rows;
    }

    /// The backing allocator (accounting inspection).
    pub fn allocator(&self) -> &PoolAllocator {
        &self.alloc
    }

    /// Rows tenant `name` currently holds.
    pub fn tenant_used_rows(&self, name: &str) -> u64 {
        self.used_rows.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_genomics::trace::{AppKind, Region};

    fn tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec {
                name: "a".into(),
                weight: 1,
                quota_pct: 100,
            },
            TenantSpec {
                name: "b".into(),
                weight: 1,
                quota_pct: 10,
            },
        ]
    }

    fn cfg() -> BeaconConfig {
        BeaconConfig::paper_d(AppKind::FmSeeding)
    }

    fn small_spec() -> Vec<LayoutSpec> {
        vec![LayoutSpec::shared_random(Region::FmIndex, 1 << 16)]
    }

    #[test]
    fn admit_then_release_restores_the_pool() {
        let cfg = cfg();
        let mut ac = AdmissionController::new(&cfg, &tenants());
        let free0 = ac.allocator().total_free_rows();
        let v = ac.try_admit(0, 1, "a", &cfg, &small_spec());
        assert_eq!(v, Verdict::Admitted);
        assert!(ac.allocator().total_free_rows() < free0);
        assert_eq!(
            ac.tenant_used_rows("a"),
            ac.allocator().total_used_rows(),
            "tenant accounting mirrors the allocator"
        );
        ac.release(1);
        assert_eq!(ac.allocator().total_free_rows(), free0);
        assert_eq!(ac.tenant_used_rows("a"), 0);
    }

    #[test]
    fn oversized_job_is_rejected_not_queued() {
        let cfg = cfg();
        let mut ac = AdmissionController::new(&cfg, &tenants());
        let huge = vec![LayoutSpec::shared_random(Region::FmIndex, u64::MAX / 4)];
        let v = ac.try_admit(0, 1, "a", &cfg, &huge);
        assert!(matches!(v, Verdict::Rejected(_)), "{v:?}");
        assert_eq!(
            ac.allocator().total_used_rows(),
            0,
            "no partial grants leak"
        );
    }

    #[test]
    fn quota_queues_within_reach_and_rejects_beyond() {
        let cfg = cfg();
        let mut ac = AdmissionController::new(&cfg, &tenants());
        // Tenant b holds 10% of the pool. A job needing more than that
        // alone is rejected.
        let capacity = ac.allocator().total_capacity_rows();
        let sweep = ac.allocator().row_sweep_bytes();
        let too_big = vec![LayoutSpec::shared_random(
            Region::FmIndex,
            capacity / 8 * sweep,
        )];
        let v = ac.try_admit(0, 1, "b", &cfg, &too_big);
        assert_eq!(v, Verdict::Rejected("layout exceeds tenant quota"));
        // Fill most of b's quota, then a second small job queues. The
        // sparse-row window inflates a random region's rows 64×, so the
        // byte size is small relative to the pool.
        let chunk = vec![LayoutSpec::shared_random(
            Region::FmIndex,
            capacity / 1000 * sweep,
        )];
        assert_eq!(ac.try_admit(1, 2, "b", &cfg, &chunk), Verdict::Admitted);
        let v = ac.try_admit(1, 3, "b", &cfg, &chunk);
        assert_eq!(v, Verdict::Queued("tenant quota exhausted"));
        // Releasing the first frees the quota again.
        ac.release(2);
        assert_eq!(ac.try_admit(2, 3, "b", &cfg, &chunk), Verdict::Admitted);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Under arbitrary admit/release interleavings of arbitrarily
        /// sized jobs, the controller's per-tenant accounting exactly
        /// matches the allocator's free/used totals at every step, and
        /// draining everything restores the pristine pool.
        #[test]
        fn accounting_matches_allocator_totals(
            sizes in prop::collection::vec(1u64..(1 << 22), 1..12),
            seed in 0u64..1_000,
        ) {
            use beacon_sim::rng::SimRng;
            let cfg = cfg();
            let mut ac = AdmissionController::new(&cfg, &tenants());
            let capacity = ac.allocator().total_capacity_rows();
            let mut rng = SimRng::from_seed(seed);
            let mut held: Vec<u64> = Vec::new();
            for (i, bytes) in sizes.iter().enumerate() {
                let spec = vec![LayoutSpec::shared_random(Region::FmIndex, *bytes)];
                let tenant = if rng.chance(0.5) { "a" } else { "b" };
                if let Verdict::Admitted = ac.try_admit(i as u64, i as u64, tenant, &cfg, &spec) {
                    held.push(i as u64);
                }
                // Sometimes release a random held job.
                if !held.is_empty() && rng.chance(0.3) {
                    let at = rng.index(held.len());
                    ac.release(held.swap_remove(at));
                }
                // Invariant: tenant accounting mirrors the allocator.
                prop_assert_eq!(
                    ac.tenant_used_rows("a") + ac.tenant_used_rows("b"),
                    ac.allocator().total_used_rows()
                );
                prop_assert_eq!(
                    ac.allocator().total_free_rows() + ac.allocator().total_used_rows(),
                    capacity
                );
            }
            for job in held {
                ac.release(job);
            }
            prop_assert_eq!(ac.allocator().total_used_rows(), 0);
            prop_assert_eq!(ac.tenant_used_rows("a"), 0);
            prop_assert_eq!(ac.tenant_used_rows("b"), 0);
        }
    }

    #[test]
    fn decision_log_records_every_attempt() {
        let cfg = cfg();
        let mut ac = AdmissionController::new(&cfg, &tenants());
        ac.try_admit(0, 1, "a", &cfg, &small_spec());
        ac.try_admit(0, 2, "a", &cfg, &small_spec());
        assert_eq!(ac.log.len(), 2);
        assert_eq!(ac.log[0].job, 1);
        assert_eq!(ac.log[1].verdict, Verdict::Admitted);
    }
}
