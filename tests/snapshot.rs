//! Snapshot conformance suite: `BeaconSystem::snapshot` → `resume`
//! must be **invisible** — a resumed run continues bit-identically to
//! an uninterrupted one.
//!
//! Four contracts:
//!
//! 1. **Resume ≡ straight run.** For every kernel × genome cell, pause
//!    a run at a mid-run epoch boundary, serialize, reconstruct from
//!    the bytes, and finish: the `RunResult` digest equals the
//!    uninterrupted run's, whether the remainder runs sequentially or
//!    on any parallel thread count, with event-horizon fast-forwarding
//!    on or off — in any combination with the capture-side settings.
//! 2. **Faults survive the checkpoint.** Armed runs (quiet, noisy,
//!    scheduled DIMM loss) resume onto the same fault history: the
//!    fault streams' next-arrival state rides in the snapshot.
//! 3. **The format is stable and fails typed.** Snapshot bytes are a
//!    pure function of (workload, config, epoch); damaged or
//!    mismatched files are rejected with typed [`SnapError`]s, never
//!    panics.
//! 4. **Any epoch works** (property-based): a snapshot at a random
//!    epoch boundary — including a snapshot of an already-resumed run —
//!    resumes to the straight-run digest.
//!
//! `BEACON_THREADS` (comma-separated) restricts the thread axis and
//! `BEACON_FAULT_SEED` picks the fault history (see `tests/common`) —
//! CI fans this suite out as a matrix job.

mod common;

use beacon_core::config::{BeaconConfig, BeaconVariant, FaultsConfig, Optimizations};
use beacon_core::experiments::common::{
    fm_workload, kmer_workload, prealign_workload, AppWorkload, WorkloadScale,
};
use beacon_core::mmf::build_layout;
use beacon_core::prelude::RunOptions;
use beacon_core::system::BeaconSystem;
use beacon_genomics::genome::GenomeId;
use beacon_sim::observer::Observer;
use beacon_sim::snap::SnapError;
use beacon_sim::stats::Fnv64;
use common::{fault_seed, on_threads, run_matrix, thread_matrix};
use proptest::prelude::*;

fn build_system(
    variant: BeaconVariant,
    w: &AppWorkload,
    refresh: bool,
    faults: Option<FaultsConfig>,
) -> BeaconSystem {
    let mut cfg =
        BeaconConfig::paper(variant, w.app).with_opts(Optimizations::full(variant, w.app));
    cfg.pes_per_module = 8;
    cfg.refresh_enabled = refresh;
    if let Some(f) = faults {
        cfg = cfg.with_faults(f);
    }
    let layout = build_layout(&cfg, &w.layout);
    let mut sys = BeaconSystem::new(cfg, layout);
    sys.submit_round_robin(w.traces.iter().cloned());
    sys
}

/// Pauses a fresh run of the cell at cycle `at`, snapshots, and
/// returns the bytes. Panics if the workload drained before `at` (the
/// caller picked a mid-run epoch from the golden cycle count).
fn capture_at(
    variant: BeaconVariant,
    w: &AppWorkload,
    refresh: bool,
    faults: Option<FaultsConfig>,
    at: u64,
) -> Vec<u8> {
    capture_with(
        build_system(variant, w, refresh, faults),
        at,
        RunOptions::default(),
    )
}

/// Runs `sys` to cycle `at` under `run`, snapshots, and returns the
/// bytes (see [`capture_at`]).
fn capture_with(mut sys: BeaconSystem, at: u64, run: RunOptions) -> Vec<u8> {
    let drained = sys.run_to(at, run, &mut Observer::default());
    assert!(!drained, "workload drained before the capture epoch {at}");
    assert_eq!(
        sys.clock().as_u64(),
        at,
        "run_to must stop exactly at the epoch"
    );
    sys.snapshot()
}

/// Contract 1 kernel: golden straight run, then resume-from-midpoint
/// across the whole thread matrix, digest-compared with a structured
/// diff on failure.
fn assert_cell_resumes(
    variant: BeaconVariant,
    w: &AppWorkload,
    refresh: bool,
    faults: Option<FaultsConfig>,
) {
    let golden = build_system(variant, w, refresh, faults).run();
    assert!(golden.tasks > 0, "cell must do work to be meaningful");
    let bytes = capture_at(variant, w, refresh, faults, golden.cycles / 2);
    for run in run_matrix() {
        let mut resumed = BeaconSystem::resume(&bytes).expect("snapshot must resume");
        let got = resumed.run_with(run, &mut Observer::default());
        assert_eq!(
            got.digest(),
            golden.digest(),
            "{variant:?}/{:?} resumed at cycle {} diverged under {run:?}:\n{}",
            w.app,
            golden.cycles / 2,
            got.diff(&golden).unwrap_or_default(),
        );
    }
}

#[test]
fn fm_seeding_resumes_bit_identically() {
    let scale = WorkloadScale::test();
    for genome in [GenomeId::Pt, GenomeId::Ss] {
        let w = fm_workload(genome, &scale);
        assert_cell_resumes(BeaconVariant::D, &w, true, None);
    }
}

#[test]
fn kmer_counting_resumes_on_switch_logic() {
    let scale = WorkloadScale::test();
    let w = kmer_workload(&scale);
    assert_cell_resumes(BeaconVariant::S, &w, true, None);
}

#[test]
fn prealignment_resumes_bit_identically() {
    let scale = WorkloadScale::test();
    let w = prealign_workload(GenomeId::Pg, &scale);
    assert_cell_resumes(BeaconVariant::D, &w, false, None);
}

/// Contract 1, skip axis: every combination of fast-forwarding on/off
/// at capture time and at resume time reproduces the per-cycle golden
/// digest — the checkpoint neither depends on nor disturbs the
/// event-horizon machinery (horizon caches restore invalidated).
#[test]
fn skip_modes_mix_freely_across_the_checkpoint() {
    let scale = WorkloadScale::test();
    let w = fm_workload(GenomeId::Pt, &scale);
    let skip = |skip| RunOptions {
        skip,
        ..RunOptions::default()
    };
    let golden = build_system(BeaconVariant::D, &w, true, None)
        .run_with(skip(false), &mut Observer::default());
    assert!(golden.tasks > 0, "cell must do work to be meaningful");
    for capture_skip in [false, true] {
        let sys = build_system(BeaconVariant::D, &w, true, None);
        let bytes = capture_with(sys, golden.cycles / 2, skip(capture_skip));
        for resume_skip in [false, true] {
            let mut resumed = BeaconSystem::resume(&bytes).expect("snapshot must resume");
            let got = resumed.run_with(skip(resume_skip), &mut Observer::default());
            assert_eq!(
                got.digest(),
                golden.digest(),
                "capture skip={capture_skip}, resume skip={resume_skip} diverged:\n{}",
                got.diff(&golden).unwrap_or_default(),
            );
        }
    }
}

/// Contract 2: a quiet armed schedule and a noisy one both resume onto
/// the same fault history as the straight run, across thread counts.
#[test]
fn fault_schedules_survive_the_checkpoint() {
    let scale = WorkloadScale::test();
    let w = fm_workload(GenomeId::Pt, &scale);
    for faults in [
        FaultsConfig::quiet(fault_seed()),
        FaultsConfig::noisy(fault_seed(), 400.0),
    ] {
        assert_cell_resumes(BeaconVariant::D, &w, false, Some(faults));
    }
}

/// Contract 2, scheduled death: capturing *before* a scheduled DIMM
/// kill and resuming must execute the kill at the same cycle with the
/// same graceful degradation as the uninterrupted run.
#[test]
fn scheduled_dimm_loss_fires_after_resume() {
    let scale = WorkloadScale::test();
    let w = fm_workload(GenomeId::Pt, &scale);
    let healthy = build_system(BeaconVariant::D, &w, false, None).run();
    let faults = FaultsConfig::dimm_loss(fault_seed(), 0, 2, healthy.cycles / 2);
    let golden = build_system(BeaconVariant::D, &w, false, Some(faults)).run();
    let gd = golden
        .degraded
        .as_ref()
        .expect("armed run carries a RAS report");
    assert_eq!(gd.failed_dimms, 1, "the scheduled kill must have fired");
    // Capture before the kill: the pending fault rides in the snapshot.
    let bytes = capture_at(
        BeaconVariant::D,
        &w,
        false,
        Some(faults),
        healthy.cycles / 4,
    );
    for threads in thread_matrix() {
        let mut resumed = BeaconSystem::resume(&bytes).expect("snapshot must resume");
        let got = resumed.run_with(on_threads(threads), &mut Observer::default());
        assert_eq!(
            got.digest(),
            golden.digest(),
            "resumed DIMM-loss run diverged at {threads} thread(s):\n{}",
            got.diff(&golden).unwrap_or_default(),
        );
        let rd = got
            .degraded
            .as_ref()
            .expect("resumed run carries a RAS report");
        assert_eq!(
            (rd.failed_dimms, rd.lost_capacity_bytes, rd.remap_regions),
            (gd.failed_dimms, gd.lost_capacity_bytes, gd.remap_regions),
            "degradation report diverged after resume"
        );
    }
}

/// Contract 3: snapshot bytes are a pure function of (workload,
/// config, epoch) — two independent captures are byte-identical, and
/// the header line is the documented fixed-key-order JSON.
#[test]
fn snapshot_bytes_are_deterministic_and_header_is_stable() {
    let scale = WorkloadScale::test();
    let w = fm_workload(GenomeId::Pt, &scale);
    let golden = build_system(BeaconVariant::D, &w, true, None).run();
    let at = golden.cycles / 2;
    let a = capture_at(BeaconVariant::D, &w, true, None, at);
    let b = capture_at(BeaconVariant::D, &w, true, None, at);
    assert_eq!(
        a, b,
        "independent captures of the same epoch must be byte-identical"
    );

    let nl = a.iter().position(|&c| c == b'\n').expect("header line");
    let header = std::str::from_utf8(&a[..nl]).expect("header is UTF-8");
    let cfg = BeaconConfig::paper(BeaconVariant::D, w.app)
        .with_opts(Optimizations::full(BeaconVariant::D, w.app));
    let expect_prefix = format!(
        "{{\"magic\":\"BEACONSNAP\",\"format\":1,\"cycle\":{at},\
         \"variant\":\"D\",\"switches\":{},\"cxlg_per_switch\":{},\
         \"unmodified_per_switch\":{},\"pes_per_module\":8,\
         \"fault_seed\":0,\"body_bytes\":",
        cfg.switches, cfg.cxlg_per_switch, cfg.unmodified_per_switch,
    );
    assert!(
        header.starts_with(&expect_prefix),
        "header drifted from the documented golden form:\n  got:  {header}\n  want: {expect_prefix}…"
    );
    assert_eq!(
        header.len(),
        nl,
        "header must be exactly one line with no trailing bytes"
    );

    // Whole-file pin: a mid-run BEACON-D capture under a noisy schedule
    // with a DIMM loss still pending puts both slot kinds, armed retry
    // tables, fault-stream cursors and the scheduled failure on the wire.
    // Any byte of any section that moves changes the hash.
    let mut faults = FaultsConfig::noisy(42, 400.0);
    faults.dimm_fail_at = golden.cycles;
    faults.dimm_fail_slot = 2;
    let noisy = capture_at(BeaconVariant::D, &w, true, Some(faults), at);
    let mut h = Fnv64::new();
    h.write(&noisy);
    assert_eq!(
        (noisy.len(), h.finish()),
        (15_471_698, 0x7de8_f08f_169d_beb2),
        "snapshot body bytes drifted from the pinned wire format"
    );
}

/// Contract 3, negative paths: damaged or mismatched snapshots fail
/// with the right typed error — no panics, no partial systems.
#[test]
fn damaged_snapshots_are_rejected_typed() {
    let scale = WorkloadScale::test();
    let w = fm_workload(GenomeId::Pt, &scale);
    let golden = build_system(BeaconVariant::D, &w, true, None).run();
    let bytes = capture_at(BeaconVariant::D, &w, true, None, golden.cycles / 2);
    let nl = bytes.iter().position(|&c| c == b'\n').unwrap();

    // Version from the future.
    let text = std::str::from_utf8(&bytes[..nl]).unwrap();
    let mut forged = text
        .replace("\"format\":1,", "\"format\":204,")
        .into_bytes();
    forged.push(b'\n');
    forged.extend_from_slice(&bytes[nl + 1..]);
    assert!(matches!(
        BeaconSystem::resume(&forged),
        Err(SnapError::FormatVersion { found: 204, .. })
    ));

    // Truncated body: every prefix must fail cleanly (typed, no panic).
    for cut in [nl + 1, nl + 1 + (bytes.len() - nl - 1) / 2, bytes.len() - 1] {
        match BeaconSystem::resume(&bytes[..cut]) {
            Err(_) => {}
            Ok(_) => panic!("truncation to {cut} bytes resumed successfully"),
        }
    }

    // Not a snapshot at all.
    assert!(matches!(
        BeaconSystem::resume(b"PNG\x0d\x0a\x1a\x0a\n rest"),
        Err(SnapError::BadMagic(_))
    ));

    // Wrong topology for the resuming experiment.
    let mut other = BeaconConfig::paper(BeaconVariant::D, w.app)
        .with_opts(Optimizations::full(BeaconVariant::D, w.app));
    other.switches *= 2;
    assert!(matches!(
        BeaconSystem::resume_expecting(&bytes, &other),
        Err(SnapError::Topology(_))
    ));
}

/// Resumes a fresh snapshot whose first `"dram.dimm"` section frame
/// (a u64 LE tag length of 9, the tag, then the u16 payload version)
/// claims payload version `found`, and requires the typed
/// component-version error — not a mis-read through the current wire
/// layout, and not a panic.
fn assert_dimm_version_rejected(found: u16) {
    let scale = WorkloadScale::test();
    let w = fm_workload(GenomeId::Pt, &scale);
    let mut bytes = build_system(BeaconVariant::D, &w, true, None).snapshot();
    let mut frame = 9u64.to_le_bytes().to_vec();
    frame.extend_from_slice(b"dram.dimm");
    let at = bytes
        .windows(frame.len())
        .position(|win| win == frame.as_slice())
        .expect("a snapshot holds a dram.dimm section")
        + frame.len();
    bytes[at..at + 2].copy_from_slice(&found.to_le_bytes());
    match BeaconSystem::resume(&bytes) {
        Err(SnapError::ComponentVersion {
            tag,
            found: f,
            supported,
        }) => {
            assert_eq!(tag, "dram.dimm");
            assert_eq!(f, found);
            assert_eq!(supported, 3);
        }
        other => panic!("a dram.dimm v{found} snapshot must fail on its version, got {other:?}"),
    }
}

/// A snapshot from before the DIMM bank state became struct-of-arrays
/// carries `"dram.dimm"` payload v1. Whenever a component's wire order
/// changes, its version must change with it, so such a file is refused.
#[test]
fn pre_soa_refactor_snapshot_is_rejected_typed() {
    assert_dimm_version_rejected(1);
}

/// A snapshot from before the server→DIMM command ring carries
/// `"dram.dimm"` payload v2: v3 persists each live entry's decoded
/// flattened bank index, so a v2 body would mis-read.
#[test]
fn pre_cmdring_refactor_snapshot_is_rejected_typed() {
    assert_dimm_version_rejected(2);
}

/// Shared fixture for the property tests: the golden straight run and
/// a capture-ready workload, built once.
fn proptest_fixture() -> (AppWorkload, u64, u64) {
    let scale = WorkloadScale::test();
    let w = fm_workload(GenomeId::Pt, &scale);
    let golden = build_system(BeaconVariant::D, &w, true, None).run();
    assert!(golden.cycles > 4, "golden run too short for epoch sampling");
    (w, golden.cycles, golden.digest())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Contract 4: snapshot at a random epoch boundary, resume, finish:
    /// digest equals the uninterrupted run.
    #[test]
    fn random_epoch_resume_equals_straight_run(frac in 1u64..1000) {
        let (w, cycles, golden_digest) = proptest_fixture();
        let at = 1 + frac * (cycles - 2) / 1000;
        let bytes = capture_at(BeaconVariant::D, &w, true, None, at);
        let mut resumed = BeaconSystem::resume(&bytes).expect("snapshot must resume");
        let got = resumed.run();
        prop_assert_eq!(
            got.digest(),
            golden_digest,
            "resume at random epoch {} diverged", at
        );
    }

    /// Contract 4, chained: a snapshot taken from an *already-resumed*
    /// run resumes to the same digest — checkpoints compose.
    #[test]
    fn chained_snapshots_compose(a in 1u64..500, b in 500u64..999) {
        let (w, cycles, golden_digest) = proptest_fixture();
        let at_a = 1 + a * (cycles - 2) / 1000;
        let at_b = 1 + b * (cycles - 2) / 1000;
        prop_assume!(at_a < at_b);
        let first = capture_at(BeaconVariant::D, &w, true, None, at_a);
        let mut mid = BeaconSystem::resume(&first).expect("first snapshot must resume");
        let drained = mid.run_to(at_b, RunOptions::default(), &mut Observer::default());
        prop_assert!(!drained, "drained before the second epoch");
        let second = mid.snapshot();
        let mut resumed = BeaconSystem::resume(&second).expect("second snapshot must resume");
        let got = resumed.run();
        prop_assert_eq!(
            got.digest(),
            golden_digest,
            "chained resume through epochs {} and {} diverged", at_a, at_b
        );
    }
}
