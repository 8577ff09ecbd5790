//! BEACON pool-as-a-service: a deterministic, multi-tenant job service
//! with QoS on top of [`beacon_core::system::BeaconSystem`].
//!
//! BEACON's pitch is a *shared* CXL memory pool whose near-data
//! accelerators serve many concurrent genome-analysis workloads. This
//! crate supplies the service layer of that story:
//!
//! - **[`spec`]** — tenants, jobs and service knobs, parsed from a
//!   replayable JSON spec file or synthesized from a seed.
//! - **[`admission`]** — the pool allocator as capacity arbiter:
//!   admit / queue / reject with per-tenant quotas, every admitted job
//!   holding its real placement reservation.
//! - **[`sched`]** — weighted fair-share (deficit round robin) over
//!   tenants with region-conflict deferral and a starvation boost.
//! - **[`service`]** — the round loop: per round, one `BeaconSystem`
//!   built from the merged layouts of the co-run set and run to drain.
//! - **[`slo`]** — per-job outcomes and the per-tenant SLO report
//!   (p50/p99 latency, queue-wait vs. service time, degraded jobs).
//!
//! Determinism contract: same seed + same spec ⇒ bit-identical per-job
//! digests and identical admission/schedule decision streams across
//! thread counts (`BEACON_THREADS`) and engine skip modes — enforced by
//! `tests/service.rs`.
//!
//! ```
//! use beacon_pool::prelude::*;
//!
//! let mut spec = ServiceSpec::demo(42);
//! spec.synth.as_mut().unwrap().jobs_per_tenant = 1;
//! let report = run_service(&spec);
//! assert!(report.jobs.iter().all(|j| j.status == JobStatus::Completed));
//! assert_eq!(report.digest(), run_service(&spec).digest());
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod sched;
pub mod service;
pub mod slo;
pub mod spec;

/// The service API in one import.
pub mod prelude {
    pub use crate::admission::{AdmissionController, Decision, Verdict};
    pub use crate::sched::{FairScheduler, ReadyJob};
    pub use crate::service::{run_service, run_service_with};
    pub use crate::slo::{JobOutcome, JobStatus, RoundRecord, ServiceReport, TenantSlo};
    pub use crate::spec::{JobKind, JobSpec, ServiceSpec, SynthSpec, TenantSpec};
}
