//! Measures how fast the simulator simulates: wall time and simulated
//! cycles per second for every kernel × genome cell, with event-horizon
//! fast-forwarding off (per-cycle reference) and on.
//!
//! ```text
//! cargo run -p beacon-bench --bin simspeed --release -- [--quick]
//!     [--threads <n>] [--out <path>] [--min-speedup <x>]
//!     [--min-dense-speedup <x>] [--max-overhead <x>]
//!     [--max-snap-overhead <x>] [--max-service-overhead <x>]
//! ```
//!
//! Noise control: every cell gets one untimed warm-up run per skip
//! mode, then five timed runs per mode with the modes interleaved, and
//! the fastest wall time of each mode is reported (interference noise
//! is one-sided, so the minimum estimates the true cost, and
//! interleaving keeps a slow patch from poisoning one mode's whole
//! window).
//! All runs of a cell must produce the same `RunResult` digest
//! (skip-off vs skip-on and across repetitions), so the harness doubles
//! as a coarse conformance check; the digest is recorded per row.
//! Results go to stdout as a table and to `--out` (default
//! `BENCH_SIM.json`) as JSON. `--quick` uses the tiny test scale so CI
//! can smoke the harness in seconds; the cell matrix itself is
//! identical at every scale — in particular `--quick` runs the
//! event-dense rows (fm-seeding/Pt, fm-seeding/Ss, kmer-counting/Human)
//! through the same five legs, so the dense-fast-path digest assertions
//! and the `--min-dense-speedup` gate are exercised on every CI run,
//! not only at bench scale. `--min-speedup` makes the process exit
//! non-zero when any cell's skip-on/skip-off speedup falls below the
//! threshold (the CI perf gate).
//!
//! A timed leg repeats the skip-on configuration with journey
//! attribution sampling enabled (1-in-8, the `--report` default). Its
//! digest must match the plain legs bit-identically — attribution is
//! observation only — and the wall-time ratio is reported as the
//! attribution overhead. `--max-overhead` gates the *aggregate* ratio
//! (total attribution wall time over total skip-on wall time across all
//! cells): individual cells finish in milliseconds, where one scheduler
//! hiccup swamps the quantity being measured, but the sum is stable.
//!
//! A third timed leg repeats the skip-on configuration with the dense
//! fast path disabled (`RunOptions::dense` off): per-component tick
//! gates off, so every awake cycle sweeps every component. Its digest
//! must match bit-identically — the gates only skip provable no-ops —
//! and the wall-time ratio against the plain skip-on leg is reported
//! per row as `dense_speedup`. `--min-dense-speedup` gates the
//! *aggregate* ratio (total dense-off wall time over total dense-on
//! wall time), for the same reason the overhead gates are aggregate:
//! per-cell ratios near 1.0x are noise-dominated at millisecond run
//! times. On event-dense rows the gates are worth ~5-10%; the
//! latency-bound sparse row gains the most (see DESIGN.md §15).
//!
//! A timed leg measures checkpoint/restore cost: the skip-on run
//! is paused at its halfway cycle, the full pool state is serialized
//! with `BeaconSystem::snapshot`, a fresh system is reconstructed with
//! `BeaconSystem::resume`, and the run completes there. Its digest must
//! also match bit-identically, and its wall time over the plain skip-on
//! leg is the snapshot overhead — reported per cell and gated in
//! aggregate by `--max-snap-overhead`. The snapshot gate is separate
//! from `--max-overhead` because the two costs scale differently:
//! attribution cost is proportional to simulated work, so one ratio
//! fits every scale, while a checkpoint cycle is a fixed cost
//! (serialize + restore of the whole pool, under a millisecond), so
//! the ratio shrinks as runs grow — tiny `--quick` cells need a looser
//! ceiling than the bench-scale bar.
//!
//! A final timed leg runs the same kernel × genome cell through the
//! `beacon-pool` service frontend as a one-tenant, one-job spec:
//! admission, scheduling, layout replay and SLO reporting wrap the same
//! simulation. Its per-job digest must match the plain skip-on leg
//! bit-identically — a single-job service round is configured exactly
//! like the direct run — and the wall-time ratio is the service
//! overhead, reported per row as `svc ovh` and gated in aggregate by
//! `--max-service-overhead`. Like the snapshot gate, the service cost
//! is dominated by fixed per-round work (spec expansion, workload
//! build, reservation replay), so tiny `--quick` cells need a looser
//! ceiling than bench scale.

use std::time::Instant;

use beacon_bench::bench_scale;
use beacon_core::config::{BeaconConfig, BeaconVariant, Optimizations};
use beacon_core::experiments::common::{
    fm_workload, kmer_workload, prealign_workload, AppWorkload, WorkloadScale,
};
use beacon_core::mmf::build_layout;
use beacon_core::system::BeaconSystem;
use beacon_genomics::genome::GenomeId;
use beacon_pool::prelude::{run_service_with, JobKind, JobSpec, JobStatus, ServiceSpec};
use beacon_sim::engine::RunOptions;
use beacon_sim::journey::{self, JourneyRecorder};
use beacon_sim::rng::SimRng;

/// Sampling period of the attribution leg (the `--report` default).
const ATTR_SAMPLE_EVERY: u64 = 8;

/// One kernel × genome cell of the measurement matrix.
struct Cell {
    kernel: &'static str,
    genome: &'static str,
    variant: BeaconVariant,
    workload: AppWorkload,
    switches: u32,
    /// The service-frontend job equivalent to `workload` (the service
    /// leg rebuilds the workload from `kind`/`genome_id`/`scale`).
    kind: JobKind,
    genome_id: GenomeId,
    scale: WorkloadScale,
}

/// One timed run of a cell.
struct Sample {
    wall_s: f64,
    cycles: u64,
    digest: u64,
}

fn usage() -> String {
    "usage: simspeed [--quick] [--threads <n>] [--out <path>] [--min-speedup <x>] \
     [--min-dense-speedup <x>] [--max-overhead <x>] [--max-snap-overhead <x>] \
     [--max-service-overhead <x>]\n\
     \n\
     \x20 --quick            tiny test scale (CI smoke)\n\
     \x20 --threads <n>      measure on the parallel engine with n workers\n\
     \x20 --out <path>       JSON output path (default BENCH_SIM.json)\n\
     \x20 --min-speedup <x>  exit non-zero when any cell speeds up less than x\n\
     \x20 --min-dense-speedup <x>  exit non-zero when the dense fast path\n\
     \x20                    (per-component tick gates) pays less than x overall\n\
     \x20 --max-overhead <x> exit non-zero when attribution costs more than x overall\n\
     \x20 --max-snap-overhead <x>  exit non-zero when one checkpoint/restore\n\
     \x20                    cycle costs more than x overall\n\
     \x20 --max-service-overhead <x>  exit non-zero when the beacon-pool service\n\
     \x20                    frontend costs more than x overall\n\
     \x20 --help             show this message\n"
        .to_owned()
}

fn build_cells(scale: &WorkloadScale) -> Vec<Cell> {
    // A latency-bound variant of seeding: a handful of reads in flight
    // means the pool spends most cycles waiting on DRAM and link round
    // trips — the regime where fast-forwarding pays the most. The read
    // count is fixed (not scaled) so the cell stays latency-bound at
    // every scale.
    let sparse = WorkloadScale { reads: 4, ..*scale };
    vec![
        Cell {
            kernel: "fm-seeding",
            genome: "Pt",
            variant: BeaconVariant::D,
            workload: fm_workload(GenomeId::Pt, scale),
            switches: 2,
            kind: JobKind::FmSeeding,
            genome_id: GenomeId::Pt,
            scale: *scale,
        },
        Cell {
            kernel: "fm-seeding",
            genome: "Ss",
            variant: BeaconVariant::D,
            workload: fm_workload(GenomeId::Ss, scale),
            switches: 2,
            kind: JobKind::FmSeeding,
            genome_id: GenomeId::Ss,
            scale: *scale,
        },
        Cell {
            kernel: "fm-seeding-sparse",
            genome: "Pt",
            variant: BeaconVariant::D,
            workload: fm_workload(GenomeId::Pt, &sparse),
            switches: 2,
            kind: JobKind::FmSeeding,
            genome_id: GenomeId::Pt,
            scale: sparse,
        },
        Cell {
            kernel: "pre-alignment",
            genome: "Pg",
            variant: BeaconVariant::D,
            workload: prealign_workload(GenomeId::Pg, scale),
            switches: 2,
            kind: JobKind::PreAlignment,
            genome_id: GenomeId::Pg,
            scale: *scale,
        },
        Cell {
            kernel: "kmer-counting",
            genome: "Human",
            variant: BeaconVariant::S,
            workload: kmer_workload(scale),
            switches: 2,
            kind: JobKind::KmerCounting,
            genome_id: GenomeId::Human,
            scale: *scale,
        },
    ]
}

fn measure(cell: &Cell, run: RunOptions, attr: bool) -> Sample {
    let w = &cell.workload;
    let mut cfg = BeaconConfig::paper(cell.variant, w.app)
        .with_opts(Optimizations::full(cell.variant, w.app));
    cfg.switches = cell.switches;
    cfg.pes_per_module = 8;
    let layout = build_layout(&cfg, &w.layout);
    let mut sys = BeaconSystem::new(cfg, layout);
    sys.submit_round_robin(w.traces.iter().cloned());
    if attr {
        let salt = SimRng::from_seed(42).child(0xA77).below(u64::MAX);
        journey::install(JourneyRecorder::new(ATTR_SAMPLE_EVERY, salt));
    }
    let t = Instant::now();
    let r = sys.run_with(run);
    let wall_s = t.elapsed().as_secs_f64();
    if attr {
        journey::uninstall().expect("recorder was installed");
        let a = r
            .attribution
            .as_ref()
            .expect("attribution was enabled for this run");
        assert!(
            a.tracked > 0,
            "{}/{}: the attribution leg must track requests",
            cell.kernel,
            cell.genome
        );
    }
    Sample {
        wall_s,
        cycles: r.cycles,
        digest: r.digest(),
    }
}

/// The checkpoint/restore leg: run to the halfway cycle on the
/// sequential engine, serialize a full snapshot, reconstruct a new
/// system from it, and finish the run there under `run`. The wall time
/// includes both the serialize and the deserialize, so the ratio
/// against the plain skip-on leg is the end-to-end cost of one
/// checkpoint cycle.
fn measure_snap(cell: &Cell, run: RunOptions, mid: u64) -> Sample {
    let w = &cell.workload;
    let mut cfg = BeaconConfig::paper(cell.variant, w.app)
        .with_opts(Optimizations::full(cell.variant, w.app));
    cfg.switches = cell.switches;
    cfg.pes_per_module = 8;
    let layout = build_layout(&cfg, &w.layout);
    let mut sys = BeaconSystem::new(cfg, layout);
    sys.submit_round_robin(w.traces.iter().cloned());
    let t = Instant::now();
    let drained = sys.run_to(mid, run);
    assert!(
        !drained,
        "{}/{}: workload drained before the halfway checkpoint at cycle {mid}",
        cell.kernel, cell.genome
    );
    let bytes = sys.snapshot();
    let mut resumed = BeaconSystem::resume(&bytes).expect("own snapshot must resume");
    let r = resumed.run_with(run);
    let wall_s = t.elapsed().as_secs_f64();
    Sample {
        wall_s,
        cycles: r.cycles,
        digest: r.digest(),
    }
}

/// The service-frontend leg: the same kernel × genome cell submitted
/// as a one-tenant, one-job `beacon-pool` spec. Admission control,
/// layout replay, scheduling and SLO rollup all run, wrapping one
/// simulation round configured exactly like the plain skip-on leg —
/// the per-job digest must match it bit-identically, so the ratio of
/// wall times is pure service overhead.
fn measure_service(cell: &Cell, run: RunOptions) -> Sample {
    let mut spec = ServiceSpec::demo(42);
    spec.scale = cell.scale;
    spec.variant = cell.variant;
    spec.switches = cell.switches;
    spec.pes_per_module = 8;
    // The plain legs run with the BeaconConfig::paper default (refresh
    // enabled); the demo spec disables it, so restore it here — the
    // digests must be comparable.
    spec.refresh = true;
    spec.sample_every = 0;
    spec.synth = None;
    spec.tenants.truncate(1);
    spec.jobs = vec![JobSpec {
        id: 0,
        tenant: "broad".into(),
        kind: cell.kind,
        genome: cell.genome_id,
        arrival_round: 0,
    }];
    let t = Instant::now();
    let report = run_service_with(&spec, run);
    let wall_s = t.elapsed().as_secs_f64();
    assert_eq!(report.jobs.len(), 1);
    assert_eq!(
        report.jobs[0].status,
        JobStatus::Completed,
        "{}/{}: the service leg must complete its one job",
        cell.kernel,
        cell.genome
    );
    Sample {
        wall_s,
        cycles: report.total_cycles,
        digest: report.jobs[0].digest,
    }
}

/// One untimed warm-up run per leg, then `rounds` timed runs per leg
/// with the legs *interleaved* (off, on, off, on, …), keeping the
/// fastest wall time of each. Two noise defences, both aimed at the
/// ratio the perf gates check rather than at absolute times:
/// interference on a shared machine is one-sided (it only ever adds
/// time), so the minimum estimates each leg's true cost; and
/// interleaving spreads both legs across the same wall-clock window, so
/// a slow patch degrades them together instead of poisoning whichever
/// leg it landed on. Every repetition must reproduce the warm-up's
/// digest and cycle count bit-identically — the simulator is
/// deterministic, so any difference is a bug, not noise.
#[allow(clippy::type_complexity)]
fn measure_legs(
    cell: &Cell,
    threads: usize,
    rounds: usize,
) -> (Sample, Sample, Sample, Sample, Sample, Sample) {
    let keep_best = |r: Sample, warm: &Sample, what: &str, best: Option<Sample>| {
        assert_eq!(
            r.digest, warm.digest,
            "{}/{}: repeated run diverged ({what})",
            cell.kernel, cell.genome
        );
        assert_eq!(r.cycles, warm.cycles);
        match best {
            Some(b) if b.wall_s <= r.wall_s => Some(b),
            _ => Some(r),
        }
    };
    let on_run = RunOptions {
        threads,
        ..RunOptions::default()
    };
    let off_run = RunOptions {
        skip: false,
        ..on_run
    };
    let dense_off_run = RunOptions {
        dense: false,
        ..on_run
    };
    let warm_off = measure(cell, off_run, false);
    let warm_on = measure(cell, on_run, false);
    let warm_dense_off = measure(cell, dense_off_run, false);
    assert_eq!(
        warm_dense_off.digest, warm_on.digest,
        "{}/{}: the dense fast path changed the run digest",
        cell.kernel, cell.genome
    );
    let warm_attr = measure(cell, on_run, true);
    assert_eq!(
        warm_attr.digest, warm_on.digest,
        "{}/{}: attribution changed the run digest",
        cell.kernel, cell.genome
    );
    let mid = warm_on.cycles / 2;
    let warm_snap = measure_snap(cell, on_run, mid);
    assert_eq!(
        warm_snap.digest, warm_on.digest,
        "{}/{}: checkpoint/restore changed the run digest",
        cell.kernel, cell.genome
    );
    let warm_svc = measure_service(cell, on_run);
    assert_eq!(
        warm_svc.digest, warm_on.digest,
        "{}/{}: the service frontend changed the run digest",
        cell.kernel, cell.genome
    );
    let (mut off, mut on, mut dense_off, mut attr, mut snap, mut svc) =
        (None, None, None, None, None, None);
    for _ in 0..rounds {
        off = keep_best(measure(cell, off_run, false), &warm_off, "skip off", off);
        on = keep_best(measure(cell, on_run, false), &warm_on, "skip on", on);
        dense_off = keep_best(
            measure(cell, dense_off_run, false),
            &warm_dense_off,
            "dense off",
            dense_off,
        );
        attr = keep_best(measure(cell, on_run, true), &warm_attr, "attr", attr);
        let s = measure_snap(cell, on_run, mid);
        snap = keep_best(s, &warm_snap, "snapshot", snap);
        svc = keep_best(measure_service(cell, on_run), &warm_svc, "service", svc);
    }
    (
        off.expect("at least one timed run"),
        on.expect("at least one timed run"),
        dense_off.expect("at least one timed run"),
        attr.expect("at least one timed run"),
        snap.expect("at least one timed run"),
        svc.expect("at least one timed run"),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut threads = 1usize;
    let mut out = "BENCH_SIM.json".to_owned();
    let mut min_speedup: Option<f64> = None;
    let mut min_dense_speedup: Option<f64> = None;
    let mut max_overhead: Option<f64> = None;
    let mut max_snap_overhead: Option<f64> = None;
    let mut max_service_overhead: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return;
            }
            "--quick" => quick = true,
            "--threads" => {
                i += 1;
                let n = args.get(i).and_then(|n| n.parse::<usize>().ok());
                match n.filter(|&n| n > 0) {
                    Some(n) => threads = n,
                    None => die("--threads needs a positive integer"),
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = p.clone(),
                    None => die("--out needs a file path"),
                }
            }
            "--min-speedup" => {
                i += 1;
                match args.get(i).and_then(|x| x.parse::<f64>().ok()) {
                    Some(x) if x > 0.0 => min_speedup = Some(x),
                    _ => die("--min-speedup needs a positive number"),
                }
            }
            "--min-dense-speedup" => {
                i += 1;
                match args.get(i).and_then(|x| x.parse::<f64>().ok()) {
                    Some(x) if x > 0.0 => min_dense_speedup = Some(x),
                    _ => die("--min-dense-speedup needs a positive number"),
                }
            }
            "--max-overhead" => {
                i += 1;
                match args.get(i).and_then(|x| x.parse::<f64>().ok()) {
                    Some(x) if x >= 1.0 => max_overhead = Some(x),
                    _ => die("--max-overhead needs a number >= 1.0"),
                }
            }
            "--max-snap-overhead" => {
                i += 1;
                match args.get(i).and_then(|x| x.parse::<f64>().ok()) {
                    Some(x) if x >= 1.0 => max_snap_overhead = Some(x),
                    _ => die("--max-snap-overhead needs a number >= 1.0"),
                }
            }
            "--max-service-overhead" => {
                i += 1;
                match args.get(i).and_then(|x| x.parse::<f64>().ok()) {
                    Some(x) if x >= 1.0 => max_service_overhead = Some(x),
                    _ => die("--max-service-overhead needs a number >= 1.0"),
                }
            }
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    let scale = if quick {
        WorkloadScale::test()
    } else {
        bench_scale()
    };
    // Quick-scale runs finish in under a millisecond, where one
    // scheduler hiccup is larger than the quantity being measured —
    // min-of-5 does not converge there. Bench-scale rounds are tens of
    // milliseconds, long enough for preemption to land *inside* most
    // rounds, so the minimum still needs a decent sample count to find
    // an undisturbed run; the overhead gate compares two ~1.0x-close
    // minima and is the most noise-sensitive consumer.
    let rounds = if quick { 25 } else { 11 };
    println!(
        "simspeed — Pt={} bases, {} reads, {} thread(s), skip-off vs skip-on\n",
        scale.pt_genome_len, scale.reads, threads
    );
    println!(
        "{:<20} {:<7} {:>12} {:>12} {:>12} {:>8} {:>7} {:>9} {:>9} {:>9}",
        "kernel",
        "genome",
        "cycles",
        "off Mcyc/s",
        "on Mcyc/s",
        "speedup",
        "dense",
        "attr ovh",
        "snap ovh",
        "svc ovh"
    );

    let mut rows = Vec::new();
    let mut best = 0.0f64;
    let mut worst = f64::INFINITY;
    let mut worst_cell = String::new();
    let mut wall_on_total = 0.0f64;
    let mut wall_dense_off_total = 0.0f64;
    let mut wall_attr_total = 0.0f64;
    let mut wall_snap_total = 0.0f64;
    let mut wall_svc_total = 0.0f64;
    for cell in build_cells(&scale) {
        let (off, on, dense_off, attr, snap, svc) = measure_legs(&cell, threads, rounds);
        assert_eq!(
            off.digest, on.digest,
            "{}/{}: fast-forwarded run diverged from per-cycle run",
            cell.kernel, cell.genome
        );
        assert_eq!(off.cycles, on.cycles);
        let rate_off = off.cycles as f64 / off.wall_s;
        let rate_on = on.cycles as f64 / on.wall_s;
        let speedup = rate_on / rate_off;
        let dense_speedup = dense_off.wall_s / on.wall_s;
        let overhead = attr.wall_s / on.wall_s;
        let snap_overhead = snap.wall_s / on.wall_s;
        let svc_overhead = svc.wall_s / on.wall_s;
        wall_on_total += on.wall_s;
        wall_dense_off_total += dense_off.wall_s;
        wall_attr_total += attr.wall_s;
        wall_snap_total += snap.wall_s;
        wall_svc_total += svc.wall_s;
        best = best.max(speedup);
        if speedup < worst {
            worst = speedup;
            worst_cell = format!("{}/{}", cell.kernel, cell.genome);
        }
        println!(
            "{:<20} {:<7} {:>12} {:>12.2} {:>12.2} {:>7.2}x {:>6.2}x {:>8.3}x {:>8.3}x {:>8.3}x",
            cell.kernel,
            cell.genome,
            on.cycles,
            rate_off / 1e6,
            rate_on / 1e6,
            speedup,
            dense_speedup,
            overhead,
            snap_overhead,
            svc_overhead
        );
        rows.push(format!(
            "    {{\"kernel\": \"{}\", \"genome\": \"{}\", \"threads\": {}, \
             \"simulated_cycles\": {}, \"digest\": \"{:#018x}\", \
             \"wall_s_skip_off\": {:.6}, \"wall_s_skip_on\": {:.6}, \
             \"cycles_per_sec_skip_off\": {:.1}, \"cycles_per_sec_skip_on\": {:.1}, \
             \"speedup\": {:.3}, \"wall_s_dense_off\": {:.6}, \
             \"dense_speedup\": {:.3}, \"wall_s_attr_on\": {:.6}, \
             \"attr_overhead\": {:.3}, \"wall_s_snapshot\": {:.6}, \
             \"snapshot_overhead\": {:.3}, \"wall_s_service\": {:.6}, \
             \"service_overhead\": {:.3}}}",
            cell.kernel,
            cell.genome,
            threads,
            on.cycles,
            on.digest,
            off.wall_s,
            on.wall_s,
            rate_off,
            rate_on,
            speedup,
            dense_off.wall_s,
            dense_speedup,
            attr.wall_s,
            overhead,
            snap.wall_s,
            snap_overhead,
            svc.wall_s,
            svc_overhead
        ));
    }

    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"threads\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "bench" },
        threads,
        rows.join(",\n")
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    let agg_overhead = wall_attr_total / wall_on_total;
    let agg_snap_overhead = wall_snap_total / wall_on_total;
    let agg_svc_overhead = wall_svc_total / wall_on_total;
    let agg_dense_speedup = wall_dense_off_total / wall_on_total;
    println!(
        "\nbest speedup {best:.2}x, worst {worst:.2}x ({worst_cell}); \
         aggregate dense speedup {agg_dense_speedup:.3}x, \
         attribution overhead {agg_overhead:.3}x, \
         snapshot overhead {agg_snap_overhead:.3}x, \
         service overhead {agg_svc_overhead:.3}x -> {out}"
    );
    if let Some(floor) = min_speedup {
        if worst < floor {
            eprintln!(
                "FAIL: {worst_cell} speedup {worst:.3}x is below the \
                 --min-speedup floor of {floor}x"
            );
            std::process::exit(1);
        }
    }
    if let Some(floor) = min_dense_speedup {
        if agg_dense_speedup < floor {
            eprintln!(
                "FAIL: aggregate dense speedup {agg_dense_speedup:.3}x is \
                 below the --min-dense-speedup floor of {floor}x"
            );
            std::process::exit(1);
        }
    }
    if let Some(ceiling) = max_overhead {
        if agg_overhead > ceiling {
            eprintln!(
                "FAIL: aggregate attribution overhead {agg_overhead:.3}x \
                 exceeds the --max-overhead ceiling of {ceiling}x"
            );
            std::process::exit(1);
        }
    }
    if let Some(ceiling) = max_snap_overhead {
        if agg_snap_overhead > ceiling {
            eprintln!(
                "FAIL: aggregate snapshot overhead {agg_snap_overhead:.3}x \
                 exceeds the --max-snap-overhead ceiling of {ceiling}x"
            );
            std::process::exit(1);
        }
    }
    if let Some(ceiling) = max_service_overhead {
        if agg_svc_overhead > ceiling {
            eprintln!(
                "FAIL: aggregate service overhead {agg_svc_overhead:.3}x \
                 exceeds the --max-service-overhead ceiling of {ceiling}x"
            );
            std::process::exit(1);
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    eprint!("{}", usage());
    std::process::exit(2);
}
