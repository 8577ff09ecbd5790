//! Differential fault-injection suite: the RAS machinery must be
//! invisible when the schedule is empty, and bit-deterministic when it
//! is not.
//!
//! Three contracts:
//!
//! 1. **Quiet ≡ golden.** Arming a run with an all-zero-rate
//!    `FaultsConfig` must reproduce the un-armed pinned golden digests
//!    of `tests/paper_shapes.rs` bit-identically — the fault plumbing
//!    costs nothing and perturbs nothing when no fault fires.
//! 2. **Noisy is deterministic.** A seeded non-empty schedule yields
//!    the same digest for the sequential engine and every parallel
//!    thread count, with event-horizon fast-forwarding on or off.
//! 3. **DIMM loss degrades gracefully.** Killing an unmodified DIMM
//!    mid-flight completes the workload (no panic, no wedge) and
//!    reports a populated `DegradedRun`.
//!
//! `BEACON_THREADS` (comma-separated) restricts the thread axis and
//! `BEACON_FAULT_SEED` picks the fault history (see `tests/common`) —
//! CI fans this suite out as a matrix job.

mod common;

use beacon_core::config::{BeaconConfig, BeaconVariant, FaultsConfig, Optimizations};
use beacon_core::experiments::common::{
    fm_workload, prealign_workload, AppWorkload, WorkloadScale,
};
use beacon_core::mmf::build_layout;
use beacon_core::prelude::RunOptions;
use beacon_core::system::BeaconSystem;
use beacon_genomics::genome::GenomeId;
use beacon_sim::observer::Observer;
use common::{fault_seed, on_threads, run_matrix, thread_matrix};

/// Mirrors `run_beacon` from the experiment drivers (PEs = 8, refresh
/// off, paper topology) so the quiet-schedule digests line up with the
/// pinned constants in `tests/paper_shapes.rs`.
fn build_system(w: &AppWorkload, faults: Option<FaultsConfig>) -> BeaconSystem {
    let variant = BeaconVariant::D;
    let mut cfg =
        BeaconConfig::paper(variant, w.app).with_opts(Optimizations::full(variant, w.app));
    cfg.pes_per_module = 8;
    cfg.refresh_enabled = false;
    if let Some(f) = faults {
        cfg = cfg.with_faults(f);
    }
    let layout = build_layout(&cfg, &w.layout);
    let mut sys = BeaconSystem::new(cfg, layout);
    sys.submit_round_robin(w.traces.iter().cloned());
    sys
}

/// Contract 1: an armed-but-empty fault schedule reproduces the
/// un-armed golden digests bit-identically, for every paper genome,
/// and reports a clean `DegradedRun`.
#[test]
fn quiet_schedule_reproduces_golden_digests() {
    let scale = WorkloadScale::test();
    let mut got = String::new();
    for genome in GenomeId::FIVE {
        let w = fm_workload(genome, &scale);
        let r = build_system(&w, Some(FaultsConfig::quiet(7))).run();
        let d = r.degraded.expect("armed run must carry a RAS report");
        assert!(d.is_clean(), "{genome:?}: quiet run reported faults: {d:?}");
        got.push_str(&format!("{genome:?}:{:#018x}\n", r.digest()));
    }
    // Same constants as `fm_golden_digests_are_seed_stable`; a quiet
    // armed run and an un-armed run are the same machine.
    let want = "\
Pt:0x27925aaccad533da
Pg:0x4e7b63e5d59d00ea
Ss:0x2125a319f84c7028
Am:0x05c60224e2603652
Nf:0xdc6b83b827e6084c
";
    assert_eq!(got, want, "quiet fault schedule perturbed the machine");
}

/// Contract 2: a seeded noisy schedule is digest-deterministic across
/// the sequential engine, every thread count, and skip on/off — and it
/// actually fires (a silent schedule would make the test vacuous).
#[test]
fn noisy_schedule_is_deterministic_across_engines() {
    let scale = WorkloadScale::test();
    let w = fm_workload(GenomeId::Pt, &scale);
    let faults = FaultsConfig::noisy(fault_seed(), 400.0);

    let per_cycle = RunOptions {
        skip: false,
        ..RunOptions::default()
    };
    let golden = build_system(&w, Some(faults)).run_with(per_cycle, &mut Observer::default());
    assert!(golden.tasks > 0, "cell must do work to be meaningful");
    let d = golden.degraded.expect("armed run must carry a RAS report");
    assert!(
        d.crc_errors > 0,
        "noisy schedule fired no CRC errors: {d:?}"
    );
    assert!(d.retry_cycles > 0, "CRC retries must cost link cycles");

    for run in run_matrix() {
        let got = build_system(&w, Some(faults)).run_with(run, &mut Observer::default());
        assert_eq!(
            got.digest(),
            golden.digest(),
            "faulty run diverged under {run:?}:\n{}",
            got.diff(&golden).unwrap_or_default(),
        );
        assert_eq!(
            got.degraded, golden.degraded,
            "RAS report diverged under {run:?}"
        );
    }
}

/// Different seeds must give different fault placements — the streams
/// really are seeded, not fixed.
#[test]
fn noisy_schedules_differ_across_seeds() {
    let scale = WorkloadScale::test();
    let w = fm_workload(GenomeId::Pt, &scale);
    let seed = fault_seed();
    let a = build_system(&w, Some(FaultsConfig::noisy(seed, 400.0))).run();
    let b = build_system(&w, Some(FaultsConfig::noisy(seed ^ 1, 400.0))).run();
    assert_ne!(
        a.digest(),
        b.digest(),
        "independent seeds produced identical fault histories"
    );
}

/// Contract 3: killing an unmodified DIMM mid-flight completes the
/// workload and reports a populated `DegradedRun` — lost capacity,
/// nak/requeue counts and the re-map plan — deterministically across
/// thread counts.
#[test]
fn dimm_loss_degrades_gracefully() {
    let scale = WorkloadScale::test();
    // Pre-alignment keeps its reference region *spatial*, which the
    // placement optimisation homes on the unmodified DIMMs — exactly
    // the slots whole-DIMM failure targets.
    let w = prealign_workload(GenomeId::Pg, &scale);

    // Calibrate the death to land mid-flight: a third of the way into
    // the healthy run, whatever the workload scale.
    let seed = fault_seed();
    let healthy = build_system(&w, Some(FaultsConfig::quiet(seed))).run();
    assert!(healthy.tasks > 0);
    // Paper-D topology: slots 0–1 are CXLG, 2–3 unmodified.
    let faults = FaultsConfig::dimm_loss(seed, 0, 2, healthy.cycles / 3);

    let golden = build_system(&w, Some(faults)).run();
    assert!(golden.tasks > 0, "degraded run must still finish its work");
    let d = golden.degraded.expect("armed run must carry a RAS report");
    assert_eq!(d.failed_dimms, 1, "the scheduled DIMM death must execute");
    assert!(
        d.lost_capacity_bytes > 0,
        "a dead DIMM loses capacity: {d:?}"
    );
    assert!(d.naks > 0, "accesses to the dead DIMM must be nak'd: {d:?}");
    assert!(d.requeued > 0, "nak'd accesses must be retried: {d:?}");
    assert!(
        d.remap_regions > 0,
        "interleaved regions must re-map: {d:?}"
    );
    assert!(d.moved_bytes > 0, "re-mapping moves the dead DIMM's rows");
    assert!(d.remap_cost_cycles > 0, "migration cost must be accounted");

    // Degradation costs cycles: the same workload without the failure
    // finishes faster.
    assert!(
        golden.cycles > healthy.cycles,
        "losing a DIMM should slow the run (healthy {} vs degraded {})",
        healthy.cycles,
        golden.cycles
    );

    for threads in thread_matrix() {
        let got =
            build_system(&w, Some(faults)).run_with(on_threads(threads), &mut Observer::default());
        assert_eq!(
            got.digest(),
            golden.digest(),
            "DIMM-loss run diverged at {threads} threads:\n{}",
            got.diff(&golden).unwrap_or_default(),
        );
        assert_eq!(
            got.degraded, golden.degraded,
            "degraded report diverged at {threads} threads"
        );
    }
}

/// A death scheduled after the run drains is a no-op: the plan is
/// armed but never executed, and the report says so.
#[test]
fn late_scheduled_death_never_executes() {
    let scale = WorkloadScale::test();
    let w = fm_workload(GenomeId::Pt, &scale);
    let r = build_system(
        &w,
        Some(FaultsConfig::dimm_loss(fault_seed(), 0, 2, u64::MAX / 2)),
    )
    .run();
    let d = r.degraded.expect("armed run must carry a RAS report");
    assert_eq!(d.failed_dimms, 0, "death past the drain must not fire");
    assert_eq!(d.lost_capacity_bytes, 0);
    assert!(d.is_clean(), "no fault fired, report must be clean: {d:?}");
}
