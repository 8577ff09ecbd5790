//! End-to-end observability: tracing, metrics sampling and determinism
//! of a full BEACON-D run.

mod common;

use beacon_core::config::{BeaconConfig, BeaconVariant, Optimizations};
use beacon_core::mmf::{build_layout, LayoutSpec};
use beacon_core::system::BeaconSystem;
use beacon_genomics::genome::{Genome, GenomeId};
use beacon_genomics::prelude::FmIndex;
use beacon_genomics::reads::ReadSampler;
use beacon_genomics::trace::{AppKind, Region, TaskTrace};
use beacon_sim::engine::RunOptions;
use beacon_sim::metrics::MetricsSample;
use beacon_sim::observer::{ObsConfig, Observer, Sampler, DEFAULT_STALL_WINDOW};
use beacon_sim::trace::{TraceBuffer, TraceCategory, TraceLevel};

fn workload(n: usize) -> (Vec<TaskTrace>, u64) {
    let g = Genome::synthetic(GenomeId::Pt, 3000, 5);
    let idx = FmIndex::build(g.sequence());
    let mut sampler = ReadSampler::new(&g, 24, 0.0, 9);
    let traces = (0..n)
        .map(|_| idx.trace_search(sampler.next_read().bases()))
        .collect();
    (traces, idx.index_bytes())
}

fn run_d(traces: &[TaskTrace], index_bytes: u64, obs: &mut Observer) -> u64 {
    let opts = Optimizations::full(BeaconVariant::D, AppKind::FmSeeding);
    run_d_on(traces, index_bytes, opts, RunOptions::default(), obs)
}

/// A 2-switch FM-seeding cell on BEACON-D with `opts`, run under `run`.
fn run_d_on(
    traces: &[TaskTrace],
    index_bytes: u64,
    opts: Optimizations,
    run: RunOptions,
    obs: &mut Observer,
) -> u64 {
    let app = AppKind::FmSeeding;
    let mut cfg = BeaconConfig::paper(BeaconVariant::D, app).with_opts(opts);
    cfg.pes_per_module = 8;
    cfg.switches = 2;
    cfg.refresh_enabled = false;
    let specs = [LayoutSpec::shared_random(Region::FmIndex, index_bytes)];
    let layout = build_layout(&cfg, &specs);
    let mut sys = BeaconSystem::new(cfg, layout);
    sys.submit_observed(traces.iter().cloned(), obs);
    sys.run_with(run, obs).cycles
}

#[test]
fn traced_run_covers_every_layer_and_exports_valid_json() {
    let (traces, bytes) = workload(12);

    // Reference run with tracing disabled.
    let plain_cycles = run_d(&traces, bytes, &mut Observer::default());

    let mut obs = Observer {
        trace: Some(TraceBuffer::new(TraceLevel::Command, 1 << 20)),
        ..Observer::default()
    };
    let traced_cycles = run_d(&traces, bytes, &mut obs);
    let buf = obs.trace.expect("ring present");

    // Tracing must be an observer: bit-identical timing.
    assert_eq!(traced_cycles, plain_cycles);

    // Events from the DRAM, CXL and accelerator layers all present.
    assert!(
        buf.count_category(TraceCategory::Dram) > 0,
        "no DRAM events"
    );
    assert!(buf.count_category(TraceCategory::Cxl) > 0, "no CXL events");
    assert!(
        buf.count_category(TraceCategory::Accel) > 0,
        "no accel events"
    );
    assert!(
        buf.count_category(TraceCategory::Switch) > 0,
        "no switch events"
    );

    let json = buf.to_chrome_json();
    beacon_sim::json::JsonValue::parse(&json).expect("chrome trace must be valid JSON");
    assert!(json.contains("\"traceEvents\":["));
    // Topology-labelled tracks, not anonymous defaults.
    assert!(json.contains("sw0.dimm0.dram"));
}

#[test]
fn task_level_tracing_drops_flit_noise() {
    let (traces, bytes) = workload(8);
    let mut obs = Observer {
        trace: Some(TraceBuffer::new(TraceLevel::Task, 1 << 20)),
        ..Observer::default()
    };
    run_d(&traces, bytes, &mut obs);
    let buf = obs.trace.expect("ring present");
    // Task lifecycle events survive; DRAM commands (Command level) do not.
    assert!(buf.count_category(TraceCategory::Accel) > 0);
    assert_eq!(buf.count_category(TraceCategory::Dram), 0);
}

#[test]
fn metrics_series_samples_the_run() {
    let (traces, bytes) = workload(12);
    let mut obs = Observer {
        metrics: Some(Sampler::new(ObsConfig {
            metrics_every: 2_048,
            progress_every: 0,
            stall_window: DEFAULT_STALL_WINDOW,
        })),
        ..Observer::default()
    };
    run_d(&traces, bytes, &mut obs);
    let series = obs.metrics.expect("sampler present").series;

    assert!(series.len() >= 2, "start + end samples at minimum");
    let first = &series.samples()[0];
    assert_eq!(first.cycle, 0);
    let keys: Vec<&str> = first.values.iter().map(|(k, _)| k.as_str()).collect();
    for key in [
        "dram.queue",
        "cxl.link_occupancy",
        "accel.pe_busy",
        "tasks.completed",
        "events",
    ] {
        assert!(keys.contains(&key), "missing gauge {key}");
    }
    // All work retired by the final sample.
    let last = series.samples().last().unwrap();
    let completed = last
        .values
        .iter()
        .find(|(k, _)| k == "tasks.completed")
        .map(|(_, v)| *v)
        .unwrap();
    assert_eq!(completed, 12.0);

    for line in series.to_jsonl().lines() {
        beacon_sim::json::JsonValue::parse(line).expect("every JSONL line must be valid JSON");
    }
    assert!(series.to_csv().starts_with("run,cycle,"));
}

#[test]
fn metrics_series_is_identical_across_thread_counts() {
    let (traces, bytes) = workload(12);
    let series = |run: RunOptions| {
        let mut obs = Observer {
            metrics: Some(Sampler::new(ObsConfig {
                // Not a multiple of the 60-cycle host latency (the epoch),
                // so samples fall inside epochs.
                metrics_every: 257,
                progress_every: 0,
                stall_window: DEFAULT_STALL_WINDOW,
            })),
            ..Observer::default()
        };
        // The vanilla rung forwards traffic between the switches, so the
        // host stage (split over the hub and the shards in parallel runs)
        // fills.
        run_d_on(&traces, bytes, Optimizations::vanilla(), run, &mut obs);
        obs.metrics.expect("sampler present").series
    };
    let reference = series(RunOptions::default());
    assert!(reference.len() > 4, "the run spans several samples");
    let staged = |s: &MetricsSample| {
        s.values
            .iter()
            .find(|(k, _)| k == "host.staged")
            .map(|&(_, v)| v)
    };
    assert!(
        reference.samples().iter().any(|s| staged(s) > Some(0.0)),
        "some sample sees traffic staged at the host"
    );
    let reference = reference.to_jsonl();
    for run in common::run_matrix() {
        assert_eq!(
            series(run).to_jsonl(),
            reference,
            "metrics diverged under {run:?}"
        );
    }
}

#[test]
fn observability_off_leaves_results_untouched() {
    let (traces, bytes) = workload(8);
    let mut obs = Observer::default();
    let a = run_d(&traces, bytes, &mut obs);
    let b = run_d(&traces, bytes, &mut obs);
    assert_eq!(a, b, "runs must be deterministic");
    assert!(
        obs.trace.is_none() && obs.journey.is_none() && obs.metrics.is_none(),
        "an empty observer collects nothing"
    );
}
