//! The repository benchmark: how fast the simulator simulates BEACON's
//! genome kernels, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --workload <fm-dense|kmer-rmw|seed-sparse|pool-mixed> [--seed <n>] \
//!     [--seconds <s>] [--trace <0|1>] [--quick] [--out <path>]
//! ```
//!
//! One workload per process, on one thread. After one untimed warm-up
//! rep, reps run until `--seconds` have passed, and at least three;
//! `--quick` runs two reps at test scale. With `--trace 0` every rep is
//! a plain run and the end-to-end metrics are reported; with `--trace 1`
//! each iteration replays the workload once untraced and once traced and
//! the per-layer metrics are reported. Every rep is checked (see
//! README.md); any failure makes the exit status 1.
//!
//! Each metric prints as `workload metric median unit q1=.. q3=.. n=..`,
//! host-noise context as `workload context.name value unit`, and the
//! last line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--out` (default `target/benchmark/last.json`) gets
//! the full record, spans included.

mod host;
mod trace;
mod workloads;

use std::time::{Duration, Instant};

use beacon_sim::stats::percentile_of_sorted;

use trace::Spans;
use workloads::{Prepared, Rep, Workload};

/// The seed the golden digests are pinned at.
const DEFAULT_SEED: u64 = 42;

fn usage() -> &'static str {
    "usage: benchmark --workload <fm-dense|kmer-rmw|seed-sparse|pool-mixed> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick] [--out <path>]\n"
}

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: String,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10;
        let mut trace = false;
        let mut quick = false;
        let mut out = "target/benchmark/last.json".to_owned();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
                }
                "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
                "--seconds" => {
                    seconds = value()?
                        .parse()
                        .map_err(|_| "--seconds needs a whole number")?
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace needs 0 or 1".into()),
                    }
                }
                "--quick" => quick = true,
                "--out" => out = value()?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            quick,
            out,
        })
    }
}

/// One reported metric: a value per rep, summarised by its median.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    values: Vec<f64>,
}

impl Metric {
    /// The median, first and third quartile, by the method of Python's
    /// `statistics.median` and `statistics.quantiles(n=4)`.
    fn summary(&self) -> (f64, f64, f64) {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            let x = v.first().copied().unwrap_or(0.0);
            return (x, x, x);
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let quartile = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        (median, quartile(1), quartile(3))
    }
}

/// Everything one invocation measured and checked.
struct Outcome {
    args: Args,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    digest: u64,
    cycles: u64,
    metrics: Vec<Metric>,
    context: Vec<(&'static str, f64, &'static str)>,
    /// Spans of the reps the metrics come from, merged.
    spans: Spans,
    reps: usize,
}

/// Counts reps against the checks they must pass.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    /// `rep` must report no failure of its own and reproduce `digest`
    /// and `cycles`.
    fn check(&mut self, what: &str, rep: &Rep, digest: u64, cycles: u64) {
        self.attempted += 1;
        let mut errors: Vec<String> = rep.errors.iter().map(|e| format!("{what}: {e}")).collect();
        if rep.digest != digest {
            errors.push(format!(
                "{what}: digest {:#018x}, expected {digest:#018x}",
                rep.digest
            ));
        }
        if rep.cycles != cycles {
            errors.push(format!(
                "{what}: {} simulated cycles, expected {cycles}",
                rep.cycles
            ));
        }
        if !errors.is_empty() {
            self.failed += 1;
            self.errors.extend(errors);
        }
    }
}

/// Host seconds of the rep's simulation: the engine runs of a direct
/// workload or replay, the whole service run of `pool-mixed`.
fn run_s(rep: &Rep) -> f64 {
    rep.spans.total_s("run") + rep.spans.total_s("pool.service")
}

/// Host seconds of the rep's set-up: building the inputs, the layout
/// and the system.
fn setup_s(rep: &Rep) -> f64 {
    rep.spans.prefix_s("setup.")
}

fn bench(args: &Args) -> Outcome {
    let calibration_s = host::calibration_s();
    let w = Prepared::new(args.workload, args.seed, args.quick);
    let mut checks = Checks::default();

    // The warm-up rep fills caches and fixes the reference every later
    // rep must reproduce: the golden values at the default seed. Being
    // the process's first rep, it also gives the peak memory of one run;
    // later reps would add allocator history to it.
    let warm = w.rep();
    let peak_rss_mb = host::peak_rss_mb();
    let (digest, cycles) = if args.seed == DEFAULT_SEED {
        args.workload.golden(args.quick)
    } else {
        // The golden values pin the simulated behaviour at the default
        // seed only; at any other seed a test-scale rep checks them.
        let pinned = Prepared::new(args.workload, DEFAULT_SEED, true).rep();
        let (d, c) = args.workload.golden(true);
        checks.check("golden", &pinned, d, c);
        (warm.digest, warm.cycles)
    };
    checks.check("warm-up", &warm, digest, cycles);
    let service = warm.report.as_ref();
    let (replay_digest, replay_cycles) = match service {
        Some(report) => (Prepared::rounds_digest(report), report.total_cycles),
        None => (digest, cycles),
    };

    let (min_reps, budget) = if args.quick {
        (2, Duration::ZERO)
    } else {
        (3, Duration::from_secs(args.seconds))
    };
    let wait_before = host::run_queue_wait_ns();
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    while plain.len() < min_reps || start.elapsed() < budget {
        if args.trace {
            let p = w.replay(service, false);
            checks.check("untraced replay", &p, replay_digest, replay_cycles);
            plain.push(p);
            let t = w.replay(service, true);
            checks.check("traced replay", &t, replay_digest, replay_cycles);
            traced.push(t);
        } else {
            let r = w.rep();
            checks.check("rep", &r, digest, cycles);
            plain.push(r);
        }
    }
    let window = start.elapsed().as_secs_f64();
    let mut context = vec![("calibration_s", calibration_s, "s")];
    if let (Some(a), Some(b)) = (wait_before, host::run_queue_wait_ns()) {
        let wait = (b - a) as f64 / 1e9;
        context.push(("run_queue_wait_s", wait, "s"));
        context.push(("run_queue_wait_share", wait / window, "ratio"));
    }

    let metrics = if args.trace {
        per_layer(&plain, &traced)
    } else {
        let peak = peak_rss_mb.unwrap_or_else(|| {
            checks.failed += 1;
            checks.errors.push("cannot read VmHWM".into());
            0.0
        });
        end_to_end(&plain, peak)
    };
    let measured = if args.trace { &traced } else { &plain };
    let mut spans = Spans::default();
    for r in measured {
        spans.merge(&r.spans);
    }
    Outcome {
        args: args.clone(),
        attempted: checks.attempted,
        failed: checks.failed,
        errors: checks.errors,
        digest: warm.digest,
        cycles: warm.cycles,
        metrics,
        context,
        spans,
        reps: measured.len(),
    }
}

/// The end-to-end metrics over the plain reps.
fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Vec<Metric> {
    let per_rep = |f: fn(&Rep) -> f64| reps.iter().map(f).collect();
    let latency = |p: f64| {
        let mut l = reps[0].latencies.clone();
        l.sort_unstable();
        vec![percentile_of_sorted(&l, p) as f64]
    };
    vec![
        Metric {
            name: "sim_mcycles_per_s",
            unit: "Mcycles/s",
            values: per_rep(|r| r.cycles as f64 / run_s(r) / 1e6),
        },
        Metric {
            name: "jobs_per_s",
            unit: "1/s",
            // What a user waits for from inputs to results: set-up plus
            // run, or the service run, which builds its own inputs.
            values: per_rep(|r| {
                let wall = match r.report {
                    Some(_) => run_s(r),
                    None => setup_s(r) + run_s(r),
                };
                r.latencies.len() as f64 / wall
            }),
        },
        Metric {
            name: "setup_s",
            unit: "s",
            values: per_rep(setup_s),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            values: vec![peak_rss_mb],
        },
        Metric {
            name: "sim_cycles",
            unit: "cycles",
            values: vec![reps[0].cycles as f64],
        },
        Metric {
            name: "job_latency_p50_cycles",
            unit: "cycles",
            values: latency(50.0),
        },
        Metric {
            name: "job_latency_p90_cycles",
            unit: "cycles",
            values: latency(90.0),
        },
    ]
}

/// `a / b`, or 0 when `b` is.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of one traced rep.
fn layer_values(rep: &Rep) -> Vec<(&'static str, &'static str, f64)> {
    let s = &rep.spans;
    let l = rep.layers.as_ref().expect("traced reps record layers");
    let ticks = s.count("run/core.tick") as f64;
    let probes = s.count("run/sim.probe") as f64;
    let tick_s = s.total_s("run/core.tick");
    let probe_s = s.total_s("run/sim.probe");
    let cycles = l.cycles as f64;
    let dram = |k: &str| l.dram.get(k) as f64;
    let comm = |k: &str| l.comm.get(k) as f64;
    let columns = dram("dram.cmd.read") + dram("dram.cmd.write");
    let mut waits = l.queue_waits.clone();
    waits.sort_unstable();
    vec![
        ("genomics.workload_s", "s", s.total_s("setup.genomics")),
        ("genomics.tasks", "count", l.tasks as f64),
        ("genomics.steps", "count", l.steps as f64),
        ("genomics.accesses", "count", l.accesses as f64),
        ("genomics.trace_bytes", "bytes", l.trace_bytes as f64),
        ("mmf.layout_s", "s", s.total_s("setup.mmf")),
        ("core.system_build_s", "s", s.total_s("setup.system")),
        ("core.tick_s", "s", tick_s),
        ("core.tick_ns_per_cycle", "ns", ratio(tick_s * 1e9, ticks)),
        ("core.events", "count", l.events as f64),
        (
            "core.tick_ns_per_event",
            "ns",
            ratio(tick_s * 1e9, l.events as f64),
        ),
        ("sim.ticked_cycles", "cycles", ticks),
        ("sim.skip_ratio", "ratio", 1.0 - ratio(ticks, cycles)),
        ("sim.probes", "count", probes),
        (
            "sim.probe_jump_ratio",
            "ratio",
            ratio(l.jumps as f64, probes),
        ),
        ("sim.probe_s", "s", probe_s),
        ("sim.probe_ns", "ns", ratio(probe_s * 1e9, probes)),
        ("sim.loop_s", "s", s.self_s("run")),
        ("dram.req.read", "count", dram("dram.req.read")),
        ("dram.req.write", "count", dram("dram.req.write")),
        ("dram.cmd.act", "count", dram("dram.cmd.act")),
        ("dram.cmd.read", "count", dram("dram.cmd.read")),
        ("dram.cmd.write", "count", dram("dram.cmd.write")),
        (
            "dram.row_hit_ratio",
            "ratio",
            1.0 - ratio(dram("dram.cmd.act"), columns),
        ),
        (
            "dram.cmds_per_cycle",
            "1/cycle",
            ratio(
                dram("dram.cmd.act") + dram("dram.cmd.pre") + columns,
                cycles,
            ),
        ),
        ("cxl.flits", "count", comm("cxl.flits")),
        (
            "cxl.packing_efficiency",
            "ratio",
            ratio(comm("cxl.useful_bytes"), comm("cxl.wire_bytes")),
        ),
        ("cxl.backpressure", "count", comm("cxl.backpressure")),
        ("switch.forwarded", "count", comm("switch.forwarded")),
        ("packer.flush_full", "count", comm("packer.flush_full")),
        ("packer.flush_age", "count", comm("packer.flush_age")),
        (
            "engine.accesses_issued",
            "count",
            l.engine.get("engine.accesses_issued") as f64,
        ),
        (
            "server.atomic_ops",
            "count",
            l.engine.get("server.atomic_ops") as f64,
        ),
        (
            "accel.pe_util",
            "ratio",
            ratio(l.pe_busy as f64, l.pe_capacity as f64),
        ),
        ("pool.rounds", "count", l.rounds as f64),
        (
            "pool.mean_corun",
            "jobs",
            ratio(l.jobs as f64, l.rounds as f64),
        ),
        ("pool.decisions", "count", l.decisions as f64),
        (
            "pool.queue_wait_p50_cycles",
            "cycles",
            percentile_of_sorted(&waits, 50.0) as f64,
        ),
    ]
}

/// The per-layer metrics: medians over the traced reps, plus the
/// tracing overhead from each traced rep against the untraced one run
/// just before it.
fn per_layer(plain: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let mut metrics: Vec<Metric> = Vec::new();
    for rep in traced {
        for (i, (name, unit, value)) in layer_values(rep).into_iter().enumerate() {
            match metrics.get_mut(i) {
                Some(m) => m.values.push(value),
                None => metrics.push(Metric {
                    name,
                    unit,
                    values: vec![value],
                }),
            }
        }
    }
    metrics.push(Metric {
        name: "trace.overhead",
        unit: "ratio",
        values: plain
            .iter()
            .zip(traced)
            .map(|(p, t)| run_s(t) / run_s(p))
            .collect(),
    });
    metrics
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last line of standard output: the machine-readable result.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.summary().0,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

/// The full record written to `--out`.
fn record(o: &Outcome) -> String {
    let a = &o.args;
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let (median, q1, q3) = m.summary();
            format!(
                "    {}: {{\"median\": {median}, \"q1\": {q1}, \"q3\": {q3}, \"n\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.values.len(),
                json_str(m.unit)
            )
        })
        .collect();
    let context: Vec<String> = o
        .context
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "    {}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let spans: Vec<String> = o
        .spans
        .iter()
        .map(|s| {
            format!(
                "    {{\"path\": {}, \"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                json_str(&format!("{}/rep/{}", a.workload.name(), s.path)),
                s.count,
                s.total.as_secs_f64(),
                o.spans.self_s(&s.path)
            )
        })
        .collect();
    let errors: Vec<String> = o.errors.iter().map(|e| json_str(e)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"quick\": {},\n  \"trace\": {},\n  \
         \"reps\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"errors\": [{}],\n  \
         \"digest\": \"{:#018x}\",\n  \"sim_cycles\": {},\n  \"metrics\": {{\n{}\n  }},\n  \
         \"context\": {{\n{}\n  }},\n  \"spans\": [\n{}\n  ]\n}}\n",
        json_str(a.workload.name()),
        a.seed,
        a.quick,
        a.trace,
        o.reps,
        o.attempted,
        o.failed,
        errors.join(", "),
        o.digest,
        o.cycles,
        metrics.join(",\n"),
        context.join(",\n"),
        spans.join(",\n")
    )
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprint!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let o = bench(&args);
    let name = args.workload.name();
    for m in &o.metrics {
        let (median, q1, q3) = m.summary();
        println!(
            "{name} {} {median} {} q1={q1} q3={q3} n={}",
            m.name,
            m.unit,
            m.values.len()
        );
    }
    for (what, value, unit) in &o.context {
        println!("{name} context.{what} {value} {unit}");
    }
    for e in &o.errors {
        eprintln!("FAIL {name}: {e}");
    }
    let path = std::path::Path::new(&args.out);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, record(&o)) {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("{}", result_line(&o));
    if o.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_sim::json::JsonValue;

    fn quick(workload: Workload, trace: bool) -> Outcome {
        bench(&Args {
            workload,
            seed: DEFAULT_SEED,
            seconds: 0,
            trace,
            quick: true,
            out: String::new(),
        })
    }

    /// The metric names `BENCHMARK.json` lists under `key`.
    fn listed(key: &str) -> Vec<String> {
        let doc = JsonValue::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn every_workload_passes_its_checks_and_prints_the_listed_metrics() {
        for w in Workload::ALL {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let o = quick(w, trace);
                assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.errors);
                let names: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
                assert_eq!(names, listed(key), "{} --trace {}", w.name(), trace as u8);
                assert!(o.metrics.iter().all(|m| m.summary().0.is_finite()));
            }
        }
    }

    #[test]
    fn traced_replay_digest_equals_untraced() {
        for w in Workload::ALL {
            let p = Prepared::new(w, 7, true);
            let warm = p.rep();
            let plain = p.replay(warm.report.as_ref(), false);
            let traced = p.replay(warm.report.as_ref(), true);
            assert!(plain.errors.is_empty() && traced.errors.is_empty());
            assert_eq!(plain.digest, traced.digest, "{}", w.name());
            assert_eq!(plain.cycles, traced.cycles, "{}", w.name());
            let expected = match &warm.report {
                Some(r) => Prepared::rounds_digest(r),
                None => warm.digest,
            };
            assert_eq!(plain.digest, expected, "{}", w.name());
        }
    }

    #[test]
    fn record_and_result_line_parse_as_json() {
        let o = quick(Workload::FmDense, true);
        let rec = JsonValue::parse(&record(&o)).expect("record parses");
        assert_eq!(
            rec.get("workload").and_then(JsonValue::as_str),
            Some("fm-dense")
        );
        assert!(rec
            .get("metrics")
            .and_then(|m| m.get("core.tick_s"))
            .is_some());
        assert!(!rec
            .get("spans")
            .and_then(JsonValue::as_array)
            .unwrap()
            .is_empty());
        let line = JsonValue::parse(&result_line(&o)).expect("result line parses");
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(line.get(key).is_some(), "{key}");
        }
    }

    /// The non-blank, non-comment lines of the TOML table `[name]`.
    fn toml_table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
        let header = format!("[{name}]");
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// This package builds outside the repository workspace, so the
    /// workspace's release profile and crates.io patches do not reach
    /// it; its manifest repeats them. A benchmark built differently from
    /// the repository's release build would measure another program, so
    /// the copies must match: the same release profile, and the root's
    /// patch for every crate this package's lock file resolves, rebased
    /// onto this directory.
    #[test]
    fn manifest_mirrors_the_root_release_profile_and_patches() {
        let root = include_str!("../../../../../Cargo.toml");
        let own = include_str!("Cargo.toml");
        let lock = include_str!("Cargo.lock");
        assert_eq!(
            toml_table(own, "profile.release"),
            toml_table(root, "profile.release")
        );
        let patches: Vec<String> = toml_table(root, "patch.crates-io")
            .into_iter()
            .filter(|l| {
                let krate = l.split_whitespace().next().unwrap_or_default();
                lock.contains(&format!("name = \"{krate}\""))
            })
            .map(|l| l.replace("\"vendor/", "\"../../../../../vendor/"))
            .collect();
        assert!(!patches.is_empty());
        assert_eq!(toml_table(own, "patch.crates-io"), patches);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        let m = Metric {
            name: "x",
            unit: "s",
            values: (1..=10).rev().map(f64::from).collect(),
        };
        assert_eq!(m.summary(), (5.5, 2.75, 8.25));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload seed-sparse --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::SeedSparse, 7, 3, true)
        );
        assert!(parse("--seed 7").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload fm-dense --trace 2").is_err());
        assert!(parse("--workload fm-dense --seconds").is_err());
    }
}
