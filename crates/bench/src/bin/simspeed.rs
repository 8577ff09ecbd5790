//! Measures how fast the simulator simulates: wall time and simulated
//! cycles per second for every kernel × genome cell, with event-horizon
//! fast-forwarding off (per-cycle reference) and on.
//!
//! ```text
//! cargo run -p beacon-bench --bin simspeed --release -- [--quick]
//!     [--threads <n>] [--out <path>] [--min-speedup <x>]
//!     [--max-overhead <x>] [--max-snap-overhead <x>]
//!     [--max-service-overhead <x>]
//! ```
//!
//! Every cell runs through the legs of [`LEGS`], one table row each:
//! skip off (the per-cycle reference), skip on (the base every other
//! leg is compared against), attribution, snapshot+resume and service.
//! A leg's row names its runner, its stdout column, its `BENCH_SIM.json`
//! keys and, for the overhead legs, the flag that ceilings its
//! aggregate ratio.
//!
//! Noise control: every cell gets one untimed warm-up run per leg, then
//! `rounds` timed runs per leg with the legs interleaved, and the
//! fastest wall time of each leg is reported (interference noise is
//! one-sided, so the minimum estimates the true cost, and interleaving
//! keeps a slow patch from poisoning one leg's whole window). Every run
//! of a cell must produce the base leg's `RunResult` digest, so the
//! harness doubles as a coarse conformance check; the digest is
//! recorded per row. Results go to stdout as a table and to `--out`
//! (default `BENCH_SIM.json`) as JSON. `--quick` uses the tiny test
//! scale so CI can smoke the harness in seconds; the cell matrix itself
//! is identical at every scale. `--min-speedup` makes the process exit
//! non-zero when any cell's skip-on/skip-off speedup falls below the
//! threshold (the CI perf gate).
//!
//! The attribution leg repeats the base run with journey attribution
//! sampling enabled (1-in-8, the `--report` default); attribution is
//! observation only. The snapshot leg pauses the base run at its
//! halfway cycle, serializes the full pool state with
//! `BeaconSystem::snapshot`, reconstructs a fresh system with
//! `BeaconSystem::resume` and completes the run there. The service leg
//! runs the same cell through the `beacon-pool` frontend as a
//! one-tenant, one-job spec: admission, scheduling, layout replay and
//! SLO reporting wrap the same simulation.
//!
//! Each of these legs reports its wall time over the base leg's as an
//! overhead, and its ceiling flag gates the *aggregate* ratio (total leg
//! wall time over total base wall time across all cells): individual
//! cells finish in milliseconds, where one scheduler hiccup swamps the
//! quantity being measured, but the sum is stable. The ceilings are
//! separate because the costs scale differently: attribution cost is
//! proportional to simulated work, so one ratio fits every scale, while
//! a checkpoint cycle (serialize + restore of the whole pool, under a
//! millisecond) and a service round (spec expansion, workload build,
//! reservation replay) are fixed costs whose ratio shrinks as runs grow
//! — tiny `--quick` cells need looser ceilings than bench scale.

use std::fmt::Write as _;
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
use beacon_sim::journey::JourneyRecorder;
use beacon_sim::json::Writer;
use beacon_sim::observer::Observer;
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
#[derive(Clone, Copy)]
struct Sample {
    wall_s: f64,
    cycles: u64,
    digest: u64,
}

impl Sample {
    /// Simulated cycles per wall-clock second.
    fn rate(&self) -> f64 {
        self.cycles as f64 / self.wall_s
    }
}

/// One measurement leg: a way to run a cell that must reproduce the
/// base leg's digest.
struct Leg {
    /// Name in assertion and gate messages.
    name: &'static str,
    /// Header of the leg's stdout column.
    column: &'static str,
    /// `BENCH_SIM.json` key of the best wall time.
    wall_key: &'static str,
    /// `BENCH_SIM.json` key of [`Leg::figure`].
    figure_key: &'static str,
    /// The flag that ceilings the leg's aggregate overhead (total leg
    /// wall time over total base wall time). `None` marks the two skip
    /// legs, which report a rate instead of an overhead.
    ceiling_flag: Option<&'static str>,
    /// Runs the cell once: `run` carries the base options, `mid` is the
    /// base run's halfway cycle.
    run: fn(cell: &Cell, run: RunOptions, mid: u64) -> Sample,
}

impl Leg {
    fn is_rate(&self) -> bool {
        self.ceiling_flag.is_none()
    }

    /// Simulated cycles per second for a skip leg, otherwise the wall
    /// time over the base leg's.
    fn figure(&self, s: &Sample, base: &Sample) -> f64 {
        if self.is_rate() {
            s.rate()
        } else {
            s.wall_s / base.wall_s
        }
    }
}

/// The per-cycle reference leg of the `--min-speedup` floor.
const REFERENCE: usize = 0;
/// The leg every digest and overhead is compared against.
const BASE: usize = 1;

const LEGS: [Leg; 5] = [
    Leg {
        name: "skip-off",
        column: "off Mcyc/s",
        wall_key: "wall_s_skip_off",
        figure_key: "cycles_per_sec_skip_off",
        ceiling_flag: None,
        run: |cell, run, _| measure(cell, RunOptions { skip: false, ..run }, false),
    },
    Leg {
        name: "skip-on",
        column: "on Mcyc/s",
        wall_key: "wall_s_skip_on",
        figure_key: "cycles_per_sec_skip_on",
        ceiling_flag: None,
        run: |cell, run, _| measure(cell, run, false),
    },
    Leg {
        name: "attribution",
        column: "attr ovh",
        wall_key: "wall_s_attr_on",
        figure_key: "attr_overhead",
        ceiling_flag: Some("--max-overhead"),
        run: |cell, run, _| measure(cell, run, true),
    },
    Leg {
        name: "snapshot",
        column: "snap ovh",
        wall_key: "wall_s_snapshot",
        figure_key: "snapshot_overhead",
        ceiling_flag: Some("--max-snap-overhead"),
        run: measure_snap,
    },
    Leg {
        name: "service",
        column: "svc ovh",
        wall_key: "wall_s_service",
        figure_key: "service_overhead",
        ceiling_flag: Some("--max-service-overhead"),
        run: |cell, run, _| measure_service(cell, run),
    },
];

fn usage() -> String {
    "usage: simspeed [--quick] [--threads <n>] [--out <path>] [--min-speedup <x>] \
     [--max-overhead <x>] [--max-snap-overhead <x>] [--max-service-overhead <x>]\n\
     \n\
     \x20 --quick            tiny test scale (CI smoke)\n\
     \x20 --threads <n>      measure on the parallel engine with n workers\n\
     \x20 --out <path>       JSON output path (default BENCH_SIM.json)\n\
     \x20 --min-speedup <x>  exit non-zero when any cell speeds up less than x\n\
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

/// The cell's pool with its workload submitted: the untimed setup of
/// the direct legs.
fn build_system(cell: &Cell) -> BeaconSystem {
    let w = &cell.workload;
    let mut cfg = BeaconConfig::paper(cell.variant, w.app)
        .with_opts(Optimizations::full(cell.variant, w.app));
    cfg.switches = cell.switches;
    cfg.pes_per_module = 8;
    let layout = build_layout(&cfg, &w.layout);
    let mut sys = BeaconSystem::new(cfg, layout);
    sys.submit_round_robin(w.traces.iter().cloned());
    sys
}

fn measure(cell: &Cell, run: RunOptions, attr: bool) -> Sample {
    let mut sys = build_system(cell);
    let mut obs = Observer {
        journey: attr.then(|| {
            let salt = SimRng::from_seed(42).child(0xA77).below(u64::MAX);
            JourneyRecorder::new(ATTR_SAMPLE_EVERY, salt)
        }),
        ..Observer::default()
    };
    let t = Instant::now();
    let r = sys.run_with(run, &mut obs);
    let wall_s = t.elapsed().as_secs_f64();
    if attr {
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
    let mut sys = build_system(cell);
    let t = Instant::now();
    let drained = sys.run_to(mid, run, &mut Observer::default());
    assert!(
        !drained,
        "{}/{}: workload drained before the halfway checkpoint at cycle {mid}",
        cell.kernel, cell.genome
    );
    let bytes = sys.snapshot();
    let mut resumed = BeaconSystem::resume(&bytes).expect("own snapshot must resume");
    let r = resumed.run_with(run, &mut Observer::default());
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
    let report = run_service_with(&spec, run, &mut Observer::default());
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
/// with the legs *interleaved*, keeping the fastest wall time of each
/// (in [`LEGS`] order). Two noise defences, both aimed at the ratios
/// the perf gates check rather than at absolute times: interference on
/// a shared machine is one-sided (it only ever adds time), so the
/// minimum estimates each leg's true cost; and interleaving spreads
/// every leg across the same wall-clock window, so a slow patch
/// degrades them together instead of poisoning whichever leg it landed
/// on. Every warm-up must reproduce the base leg's digest, and every
/// repetition its own warm-up's digest and cycle count — the simulator
/// is deterministic, so any difference is a bug, not noise.
fn measure_legs(cell: &Cell, threads: usize, rounds: usize) -> Vec<Sample> {
    let run = RunOptions {
        threads,
        ..RunOptions::default()
    };
    let base = (LEGS[BASE].run)(cell, run, 0);
    let mid = base.cycles / 2;
    let warm: Vec<Sample> = LEGS
        .iter()
        .map(|leg| {
            let s = (leg.run)(cell, run, mid);
            assert_eq!(
                s.digest, base.digest,
                "{}/{}: the {} leg changed the run digest",
                cell.kernel, cell.genome, leg.name
            );
            s
        })
        .collect();
    let mut best: Vec<Option<Sample>> = vec![None; LEGS.len()];
    for _ in 0..rounds {
        for ((leg, warm), best) in LEGS.iter().zip(&warm).zip(&mut best) {
            let s = (leg.run)(cell, run, mid);
            assert_eq!(
                s.digest, warm.digest,
                "{}/{}: repeated run diverged ({})",
                cell.kernel, cell.genome, leg.name
            );
            assert_eq!(s.cycles, warm.cycles);
            if best.is_none_or(|b| s.wall_s < b.wall_s) {
                *best = Some(s);
            }
        }
    }
    best.into_iter()
        .map(|b| b.expect("at least one timed run"))
        .collect()
}

/// One measured cell: the best sample of every leg, in [`LEGS`] order.
struct Row {
    kernel: &'static str,
    genome: &'static str,
    best: Vec<Sample>,
}

impl Row {
    /// Skip-on over skip-off simulated cycles per second.
    fn speedup(&self) -> f64 {
        self.best[BASE].rate() / self.best[REFERENCE].rate()
    }
}

/// `x` rounded to `places` decimals, so the written file carries no
/// digits below the timer's resolution.
fn rounded(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// The `BENCH_SIM.json` document.
fn bench_sim_json(scale: &str, threads: usize, rows: &[Row]) -> String {
    let mut w = Writer::new();
    w.object(|w| {
        w.key("scale").str(scale);
        w.key("threads").u64(threads as u64);
        w.key("results").objects(rows, |w, row| {
            let base = &row.best[BASE];
            w.key("kernel").str(row.kernel);
            w.key("genome").str(row.genome);
            w.key("threads").u64(threads as u64);
            w.key("simulated_cycles").u64(base.cycles);
            w.key("digest").str(&format!("{:#018x}", base.digest));
            for (leg, s) in LEGS.iter().zip(&row.best) {
                let places = if leg.is_rate() { 1 } else { 3 };
                w.key(leg.wall_key).f64(rounded(s.wall_s, 6));
                w.key(leg.figure_key)
                    .f64(rounded(leg.figure(s, base), places));
            }
            w.key("speedup").f64(rounded(row.speedup(), 3));
        });
    });
    let mut json = w.finish();
    json.push('\n');
    json
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut threads = 1usize;
    let mut out = "BENCH_SIM.json".to_owned();
    let mut min_speedup: Option<f64> = None;
    let mut ceilings: [Option<f64>; LEGS.len()] = [None; LEGS.len()];
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
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
            _ => {
                let Some(leg) = LEGS.iter().position(|l| l.ceiling_flag == Some(flag)) else {
                    die(&format!("unknown flag {flag}"))
                };
                i += 1;
                match args.get(i).and_then(|x| x.parse::<f64>().ok()) {
                    Some(x) if x >= 1.0 => ceilings[leg] = Some(x),
                    _ => die(&format!("{flag} needs a number >= 1.0")),
                }
            }
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
    let mut header = format!("{:<20} {:<7} {:>12}", "kernel", "genome", "cycles");
    for leg in &LEGS {
        let width = if leg.is_rate() { 12 } else { 9 };
        write!(header, " {:>width$}", leg.column).expect("writing to a String");
    }
    println!("{header} {:>8}", "speedup");

    let mut rows = Vec::new();
    let mut wall_totals = [0.0f64; LEGS.len()];
    for cell in build_cells(&scale) {
        let row = Row {
            kernel: cell.kernel,
            genome: cell.genome,
            best: measure_legs(&cell, threads, rounds),
        };
        let base = &row.best[BASE];
        let mut line = format!("{:<20} {:<7} {:>12}", row.kernel, row.genome, base.cycles);
        for ((leg, s), total) in LEGS.iter().zip(&row.best).zip(&mut wall_totals) {
            *total += s.wall_s;
            let v = leg.figure(s, base);
            if leg.is_rate() {
                write!(line, " {:>12.2}", v / 1e6)
            } else {
                write!(line, " {v:>8.3}x")
            }
            .expect("writing to a String");
        }
        println!("{line} {:>7.2}x", row.speedup());
        rows.push(row);
    }

    let json = bench_sim_json(if quick { "quick" } else { "bench" }, threads, &rows);
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    let worst = rows
        .iter()
        .min_by(|a, b| a.speedup().total_cmp(&b.speedup()))
        .expect("the cell matrix is not empty");
    let best = rows.iter().map(Row::speedup).fold(0.0, f64::max);
    let mut failures = Vec::new();
    if let Some(floor) = min_speedup.filter(|&f| worst.speedup() < f) {
        failures.push(format!(
            "{}/{} speedup {:.3}x is below the --min-speedup floor of {floor}x",
            worst.kernel,
            worst.genome,
            worst.speedup()
        ));
    }
    let mut overheads = Vec::new();
    for (i, leg) in LEGS.iter().enumerate() {
        let Some(flag) = leg.ceiling_flag else {
            continue;
        };
        let agg = wall_totals[i] / wall_totals[BASE];
        overheads.push(format!("{} overhead {agg:.3}x", leg.name));
        if let Some(ceiling) = ceilings[i].filter(|&c| agg > c) {
            failures.push(format!(
                "aggregate {} overhead {agg:.3}x exceeds the {flag} ceiling of {ceiling}x",
                leg.name
            ));
        }
    }
    println!(
        "\nbest speedup {best:.2}x, worst {:.2}x ({}/{}); aggregate {} -> {out}",
        worst.speedup(),
        worst.kernel,
        worst.genome,
        overheads.join(", ")
    );
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    eprint!("{}", usage());
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_sim::json::JsonValue;

    #[test]
    fn bench_sim_json_parses_back_with_the_committed_keys() {
        let sample = |wall_s| Sample {
            wall_s,
            cycles: 9685,
            digest: 0xb621_1cb0_d23b_1cc3,
        };
        let row = Row {
            kernel: "fm-seeding",
            genome: "Pt",
            best: [0.0274, 0.0268, 0.0299, 0.03, 0.041]
                .into_iter()
                .map(sample)
                .collect(),
        };
        let doc = JsonValue::parse(&bench_sim_json("bench", 1, &[row])).expect("valid JSON");
        assert_eq!(doc.get("scale").and_then(JsonValue::as_str), Some("bench"));
        assert_eq!(doc.get("threads").and_then(JsonValue::as_f64), Some(1.0));
        let rows = doc.get("results").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows.len(), 1);
        let JsonValue::Object(row) = &rows[0] else {
            panic!("a result row is an object");
        };
        let keys: Vec<&str> = row.keys().map(String::as_str).collect();
        let committed = [
            "attr_overhead",
            "cycles_per_sec_skip_off",
            "cycles_per_sec_skip_on",
            "digest",
            "genome",
            "kernel",
            "service_overhead",
            "simulated_cycles",
            "snapshot_overhead",
            "speedup",
            "threads",
            "wall_s_attr_on",
            "wall_s_service",
            "wall_s_skip_off",
            "wall_s_skip_on",
            "wall_s_snapshot",
        ];
        assert_eq!(keys, committed);
        let num = |k: &str| row[k].as_f64().unwrap();
        assert_eq!(row["digest"].as_str(), Some("0xb6211cb0d23b1cc3"));
        assert_eq!(num("simulated_cycles"), 9685.0);
        assert_eq!(num("wall_s_attr_on"), 0.0299);
        assert_eq!(num("attr_overhead"), 1.116);
        assert_eq!(num("cycles_per_sec_skip_on"), 361380.6);
        assert_eq!(num("speedup"), 1.022);
    }
}
