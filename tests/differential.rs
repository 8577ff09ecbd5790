//! Differential conformance suite: `run_with` must be
//! **bit-identical** to the sequential `run()` for every thread count
//! and fast-forwarding mode.
//!
//! Each cell of the matrix (switch count × kernel × genome × threads)
//! runs the same workload through the sequential reference engine and
//! the epoch-parallel engine, then compares the `RunResult` digest —
//! which covers the cycle count, every per-component counter and
//! energy accumulator, and all chip histograms. A failure prints the
//! structured diff naming the first divergent quantity. One cell also
//! compares the canonicalised trace streams event for event.
//!
//! `BEACON_THREADS` (a comma-separated list, e.g. `BEACON_THREADS=4`)
//! restricts the thread axis — CI fans the suite out as a matrix job.

mod common;

use beacon_core::config::{BeaconConfig, BeaconVariant, Optimizations};
use beacon_core::experiments::common::{
    fm_workload, kmer_workload, prealign_workload, AppWorkload, WorkloadScale,
};
use beacon_core::mmf::build_layout;
use beacon_core::prelude::RunOptions;
use beacon_core::system::BeaconSystem;
use beacon_genomics::genome::GenomeId;
use beacon_sim::journey::{JourneyRecorder, Phase};
use beacon_sim::observer::Observer;
use beacon_sim::rng::SimRng;
use beacon_sim::trace::{TraceBuffer, TraceEvent, TraceLevel};
use common::{on_threads, run_matrix, thread_matrix};

fn build_system(
    variant: BeaconVariant,
    w: &AppWorkload,
    switches: u32,
    refresh: bool,
) -> BeaconSystem {
    let mut cfg =
        BeaconConfig::paper(variant, w.app).with_opts(Optimizations::full(variant, w.app));
    cfg.switches = switches;
    cfg.pes_per_module = 8;
    cfg.refresh_enabled = refresh;
    let layout = build_layout(&cfg, &w.layout);
    let mut sys = BeaconSystem::new(cfg, layout);
    sys.submit_round_robin(w.traces.iter().cloned());
    sys
}

/// Runs one matrix cell: sequential golden run, then every thread
/// count, asserting digest equality with a structured diff on failure.
fn assert_cell(variant: BeaconVariant, w: &AppWorkload, switches: u32, refresh: bool) {
    let golden = build_system(variant, w, switches, refresh).run();
    assert!(golden.tasks > 0, "cell must do work to be meaningful");
    for threads in thread_matrix() {
        let got = build_system(variant, w, switches, refresh)
            .run_with(on_threads(threads), &mut Observer::default());
        assert_eq!(
            got.digest(),
            golden.digest(),
            "{variant:?}/{:?} with {switches} switch(es) diverged at {threads} threads:\n{}",
            w.app,
            got.diff(&golden).unwrap_or_default(),
        );
    }
}

#[test]
fn fm_seeding_matches_across_switch_counts() {
    let scale = WorkloadScale::test();
    for genome in [GenomeId::Pt, GenomeId::Ss] {
        let w = fm_workload(genome, &scale);
        for switches in [1, 2, 4] {
            assert_cell(BeaconVariant::D, &w, switches, true);
        }
    }
}

#[test]
fn kmer_counting_matches_on_switch_logic() {
    let scale = WorkloadScale::test();
    let w = kmer_workload(&scale);
    for switches in [1, 2, 4] {
        assert_cell(BeaconVariant::S, &w, switches, true);
    }
}

#[test]
fn prealignment_matches_with_refresh_off() {
    let scale = WorkloadScale::test();
    let w = prealign_workload(GenomeId::Pg, &scale);
    assert_cell(BeaconVariant::D, &w, 2, false);
}

/// Wall-clock sanity for the parallel engine on a pool big enough for
/// the epoch work to dominate barrier overhead. Ignored by default
/// (it is a timing measurement, not a correctness property); run with
/// `cargo test --release -p beacon-core --test differential -- --ignored --nocapture`.
#[test]
#[ignore = "timing measurement; run explicitly in release mode"]
fn parallel_speedup_on_multi_switch_pool() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping: only {cores} core(s) available, need 4 for a meaningful measurement");
        return;
    }
    let scale = WorkloadScale {
        pt_genome_len: 120_000,
        reads: 3072,
        read_len: 64,
        error_rate: 0.01,
        kmer_k: 28,
        kmer_reads: 128,
        cbf_bytes: 128 * 1024,
        seed: 42,
    };
    let w = fm_workload(GenomeId::Pt, &scale);
    let time_run = |threads: usize| {
        let mut sys = build_system(BeaconVariant::D, &w, 4, true);
        let t = std::time::Instant::now();
        let r = sys.run_with(on_threads(threads), &mut Observer::default());
        (t.elapsed(), r.digest())
    };
    let (seq, d1) = time_run(1);
    let (par, d4) = time_run(4);
    assert_eq!(d1, d4, "speedup run diverged from sequential");
    let speedup = seq.as_secs_f64() / par.as_secs_f64();
    println!("sequential {seq:?}, 4 threads {par:?} -> {speedup:.2}x");
    assert!(
        speedup > 1.5,
        "expected > 1.5x on a 4-switch pool, got {speedup:.2}x"
    );
}

/// Event-horizon fast-forwarding must be invisible: for every golden
/// genome, every thread count with skipping on or off produces the
/// same digest as the sequential per-cycle reference.
#[test]
fn fast_forwarding_matches_per_cycle_ticking() {
    let per_cycle = RunOptions {
        skip: false,
        ..RunOptions::default()
    };
    let scale = WorkloadScale::test();
    for genome in [
        GenomeId::Pt,
        GenomeId::Pg,
        GenomeId::Ss,
        GenomeId::Am,
        GenomeId::Nf,
    ] {
        let w = fm_workload(genome, &scale);
        let golden = build_system(BeaconVariant::D, &w, 2, true)
            .run_with(per_cycle, &mut Observer::default());
        assert!(golden.tasks > 0, "cell must do work to be meaningful");
        for run in run_matrix() {
            let got =
                build_system(BeaconVariant::D, &w, 2, true).run_with(run, &mut Observer::default());
            assert_eq!(
                got.digest(),
                golden.digest(),
                "{genome:?}: {run:?} diverged from the per-cycle run:\n{}",
                got.diff(&golden).unwrap_or_default(),
            );
        }
    }
}

/// Request-journey attribution is an observer, never a participant:
/// with a recorder in the observer (sampling every request), digests stay
/// bit-identical to the attribution-off golden across fast-forwarding
/// on/off and every thread count, and the sequential and parallel
/// reports agree on what they measured.
#[test]
fn attribution_leaves_digests_bit_identical() {
    let scale = WorkloadScale::test();
    let salt = SimRng::from_seed(scale.seed).child(0xA77).below(u64::MAX);
    let w = fm_workload(GenomeId::Pt, &scale);
    for skip in [true, false] {
        let sequential = RunOptions {
            skip,
            ..RunOptions::default()
        };
        let golden = build_system(BeaconVariant::D, &w, 2, true)
            .run_with(sequential, &mut Observer::default());
        assert!(golden.tasks > 0, "cell must do work to be meaningful");
        assert!(
            golden.attribution.is_none(),
            "attribution must be off without a recorder"
        );

        let attributed = || Observer {
            journey: Some(JourneyRecorder::new(1, salt)),
            ..Observer::default()
        };
        let seq =
            build_system(BeaconVariant::D, &w, 2, true).run_with(sequential, &mut attributed());
        assert_eq!(
            seq.digest(),
            golden.digest(),
            "skip={skip}: sequential attribution run perturbed the simulation:\n{}",
            seq.diff(&golden).unwrap_or_default(),
        );
        let seq_attr = seq.attribution.clone().expect("recorder present");
        assert!(
            seq_attr.tracked > 0,
            "sample_every=1 must track every request"
        );

        for threads in thread_matrix() {
            let run = RunOptions { skip, threads };
            let got = build_system(BeaconVariant::D, &w, 2, true).run_with(run, &mut attributed());
            assert_eq!(
                got.digest(),
                golden.digest(),
                "skip={skip}: {threads}-thread attribution run perturbed the simulation:\n{}",
                got.diff(&golden).unwrap_or_default(),
            );
            let attr = got.attribution.as_ref().expect("recorder present");
            assert_eq!(
                (attr.seen, attr.tracked),
                (seq_attr.seen, seq_attr.tracked),
                "skip={skip}: {threads}-thread run sampled a different request set"
            );
            assert_eq!(
                attr.phases, seq_attr.phases,
                "skip={skip}: {threads}-thread phase breakdown diverged from sequential"
            );
            assert_eq!(
                attr.classes, seq_attr.classes,
                "skip={skip}: {threads}-thread class rollup diverged from sequential"
            );
        }
    }
}

/// Attribution accounting: every cycle of a tracked request's life is
/// charged to exactly one phase, so at `sample_every = 1` the phase sums
/// add up to the `Total` sum, sequentially and on the epoch engine
/// (DESIGN.md §13.1).
#[test]
fn attribution_phases_sum_to_total() {
    let scale = WorkloadScale::test();
    let salt = SimRng::from_seed(scale.seed).child(0xA77).below(u64::MAX);
    let cells = [
        (BeaconVariant::D, fm_workload(GenomeId::Pt, &scale)),
        (BeaconVariant::S, kmer_workload(&scale)),
    ];
    for (variant, w) in &cells {
        for threads in [1, 4] {
            let mut obs = Observer {
                journey: Some(JourneyRecorder::new(1, salt)),
                ..Observer::default()
            };
            let r = build_system(*variant, w, 2, true).run_with(on_threads(threads), &mut obs);
            assert!(r.attribution.expect("recorder present").tracked > 0);
            let rec = obs.journey.expect("recorder present");
            let total = rec.phase(Phase::Total);
            assert!(total.count() > 0, "{variant:?}: no journey finished");
            let phases: u64 = Phase::ALL
                .iter()
                .filter(|&&p| p != Phase::Total)
                .map(|&p| rec.phase(p).sum())
                .sum();
            assert_eq!(
                phases,
                total.sum(),
                "{variant:?}/{:?} at {threads} thread(s): phase sums miss part of the journeys",
                w.app
            );
        }
    }
}

/// The canonical trace stream is part of the bit-identity contract:
/// fast-forwarding may only skip cycles where nothing happens, so the
/// emitted events (and their cycles) must match the per-cycle run.
#[test]
fn trace_streams_identical_with_and_without_fast_forwarding() {
    const CAPACITY: usize = 1 << 20;
    let scale = WorkloadScale::test();
    let w = fm_workload(GenomeId::Pt, &scale);

    let run_traced = |skip: bool| -> Vec<(String, TraceEvent)> {
        let mut obs = Observer {
            trace: Some(TraceBuffer::new(TraceLevel::Flit, CAPACITY)),
            ..Observer::default()
        };
        let run = RunOptions {
            skip,
            ..RunOptions::default()
        };
        build_system(BeaconVariant::D, &w, 2, true).run_with(run, &mut obs);
        let events = obs.trace.expect("ring present").canonical_events();
        assert!(
            events.len() < CAPACITY,
            "trace ring saturated ({} events) — comparison would be lossy",
            events.len()
        );
        events
    };

    let golden = run_traced(false);
    assert!(!golden.is_empty(), "flit-level run must emit events");
    let got = run_traced(true);
    assert_eq!(
        got.len(),
        golden.len(),
        "event count diverged under fast-forwarding"
    );
    if let Some(i) = (0..golden.len()).find(|&i| got[i] != golden[i]) {
        panic!(
            "trace stream diverged under fast-forwarding at event {i}:\n  per-cycle:      {:?}\n  fast-forwarded: {:?}",
            golden[i], got[i]
        );
    }
}

#[test]
fn trace_streams_merge_canonically() {
    const CAPACITY: usize = 1 << 20;
    let scale = WorkloadScale::test();
    let w = fm_workload(GenomeId::Pt, &scale);

    let run_traced = |threads: usize| -> Vec<(String, TraceEvent)> {
        let mut obs = Observer {
            trace: Some(TraceBuffer::new(TraceLevel::Flit, CAPACITY)),
            ..Observer::default()
        };
        build_system(BeaconVariant::D, &w, 2, true).run_with(on_threads(threads), &mut obs);
        let events = obs.trace.expect("ring present").canonical_events();
        assert!(
            events.len() < CAPACITY,
            "trace ring saturated ({} events) — comparison would be lossy",
            events.len()
        );
        events
    };

    let golden = run_traced(1);
    assert!(!golden.is_empty(), "flit-level run must emit events");
    for threads in thread_matrix() {
        if threads == 1 {
            continue;
        }
        let got = run_traced(threads);
        assert_eq!(
            got.len(),
            golden.len(),
            "event count diverged at {threads} threads"
        );
        if let Some(i) = (0..golden.len()).find(|&i| got[i] != golden[i]) {
            panic!(
                "trace stream diverged at {threads} threads, event {i}:\n  sequential: {:?}\n  parallel:   {:?}",
                golden[i], got[i]
            );
        }
    }
}
