//! Regenerates every table and figure of the BEACON paper.
//!
//! ```text
//! cargo run -p beacon-bench --bin figures --release -- [--all]
//!     [--table1] [--table2] [--fig3] [--fig12] [--fig13] [--fig14]
//!     [--fig15] [--fig16] [--fig17] [--faults <seed>] [--report]
//!     [--report-json <out.json>] [--quick] [--threads <n>] [--no-skip]
//!     [--trace <out.json>] [--metrics <out.jsonl|out.csv>] [--progress]
//!     [--snapshot-every <cycles>] [--snapshot-out <prefix>]
//!     [--resume <file.snap>] [--service <spec.json>]
//!     [--service-json <out.json>]
//! ```
//!
//! With no selector (or `--all`) everything runs. `--quick` switches to
//! the smaller bench scale (useful for smoke-testing the harness).
//! `--faults <seed>` runs the RAS fault sweep — link CRC error rates
//! against slowdown, plus a whole-DIMM failure mid-run — from one
//! deterministic seed.
//! `--report` runs the journey-attribution bottleneck report (per-phase
//! latency breakdown, component utilization, most-contended queues) for
//! the five genomes; `--report-json <path>` additionally writes the
//! machine-readable report (and implies `--report`).
//! `--threads <n>` runs every BEACON system on the deterministic
//! epoch-parallel engine with `n` worker threads — results are
//! bit-identical to the default sequential engine, just faster.
//! `--no-skip` disables event-horizon fast-forwarding and ticks every
//! cycle — an escape hatch for debugging the skipping machinery itself
//! (results are bit-identical either way, `--no-skip` is just slower).
//! `--trace` records a Chrome-trace-event JSON of every simulated run
//! (open in `chrome://tracing` or Perfetto), `--metrics` samples gauge
//! time-series to JSON-lines (or CSV when the path ends in `.csv`) and
//! `--progress` prints periodic simulation-rate lines to stderr.
//! `--snapshot-every <cycles>` runs the checkpoint demonstration: the
//! FM-seeding/Pt workload on BEACON-D, pausing at every epoch boundary
//! to write a resumable snapshot to `<prefix>-<cycle>.snap` (prefix
//! from `--snapshot-out`, default `beacon`), then prints the final
//! digest. `--resume <file>` reconstructs the system from a snapshot
//! and runs it to completion — the printed `final digest:` line is
//! bit-identical to the uninterrupted run's, regardless of `--threads`
//! or `--no-skip`.
//! `--service <spec.json>` runs the multi-tenant pool service on a
//! replayable spec file (see `specs/demo_two_tenant.json` and
//! `schemas/service.schema.json`): seeded job arrivals, quota-aware
//! admission, weighted fair-share scheduling, and a per-tenant SLO
//! report. The output's `report digest:` and per-job `digest:` lines
//! are greppable and bit-identical across `--threads`/`--no-skip`;
//! `--service-json <path>` additionally writes the schema-checked
//! machine-readable report.

use std::time::Instant;

use beacon_bench::{bench_scale, figures_scale, BENCH_PES, FIGURE_PES};
use beacon_core::config::{BeaconConfig, BeaconVariant, Optimizations};
use beacon_core::experiments::common::{fm_workload, WorkloadScale};
use beacon_core::experiments::{
    faults, fig12, fig13, fig14, fig15, fig16, fig17, fig3, report, tables,
};
use beacon_core::mmf::build_layout;
use beacon_core::system::BeaconSystem;
use beacon_genomics::genome::GenomeId;
use beacon_pool::prelude::{run_service_with, ServiceSpec};
use beacon_sim::engine::RunOptions;
use beacon_sim::observer::{ObsConfig, Observer, Sampler, DEFAULT_STALL_WINDOW};
use beacon_sim::trace::{TraceBuffer, TraceLevel};

/// Cycles between metrics samples (quick scale).
const METRICS_EVERY_QUICK: u64 = 4_096;
/// Cycles between metrics samples (full figure scale).
const METRICS_EVERY_FULL: u64 = 8_192;
/// Cycles between progress lines.
const PROGRESS_EVERY: u64 = 20_000_000;
/// Trace ring-buffer capacity in events.
const TRACE_CAPACITY: usize = 1 << 20;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Selection {
    help: bool,
    table1: bool,
    table2: bool,
    fig3: bool,
    fig12: bool,
    fig13: bool,
    fig14: bool,
    fig15: bool,
    fig16: bool,
    fig17: bool,
    quick: bool,
    faults: Option<u64>,
    report: bool,
    report_json: Option<String>,
    threads: usize,
    no_skip: bool,
    trace: Option<String>,
    metrics: Option<String>,
    progress: bool,
    snapshot_every: Option<u64>,
    snapshot_out: String,
    resume: Option<String>,
    service: Option<String>,
    service_json: Option<String>,
}

fn usage() -> String {
    "usage: figures [flags]\n\
     \n\
     section selectors (default: all):\n\
     \x20 --all              run every table and figure\n\
     \x20 --table1           Table I  (per-application speedups)\n\
     \x20 --table2           Table II (configuration summary)\n\
     \x20 --fig3             Fig. 3   (motivation: host-centric vs NDP)\n\
     \x20 --fig12            Fig. 12  (speedup ladder)\n\
     \x20 --fig13            Fig. 13  (per-chip access balance)\n\
     \x20 --fig14            Fig. 14  (communication breakdown)\n\
     \x20 --fig15            Fig. 15  (scalability)\n\
     \x20 --fig16            Fig. 16  (energy)\n\
     \x20 --fig17            Fig. 17  (sensitivity)\n\
     \x20 --faults <seed>    RAS fault sweep (link errors, DIMM loss)\n\
     \x20 --report           journey-attribution bottleneck report\n\
     \x20 --report-json <path>  write the report as JSON too (implies --report)\n\
     \x20 --snapshot-every <cycles>  checkpoint demo: snapshot FM-seeding/Pt\n\
     \x20                    at every epoch boundary, print the final digest\n\
     \x20 --resume <file>    resume a snapshot to completion, print its digest\n\
     \x20 --service <spec.json>  run the multi-tenant pool service on a spec\n\
     \x20                    file, print per-job digests and the SLO report\n\
     \n\
     options:\n\
     \x20 --quick            small bench scale (smoke test)\n\
     \x20 --snapshot-out <prefix>  snapshot file prefix (default: beacon)\n\
     \x20 --service-json <path>  write the service SLO report as JSON too\n\
     \x20 --threads <n>      deterministic parallel engine with n workers\n\
     \x20 --no-skip          tick every cycle (disable event-horizon fast-forwarding)\n\
     \x20 --trace <path>     write a Chrome-trace-event JSON of the runs\n\
     \x20 --metrics <path>   write gauge time-series (.csv -> CSV, else JSONL)\n\
     \x20 --progress         print periodic simulation-rate lines to stderr\n\
     \x20 --help             show this message\n"
        .to_owned()
}

impl Selection {
    fn parse(args: &[String]) -> Result<Selection, String> {
        let mut sel = Selection {
            help: false,
            table1: false,
            table2: false,
            fig3: false,
            fig12: false,
            fig13: false,
            fig14: false,
            fig15: false,
            fig16: false,
            fig17: false,
            quick: false,
            faults: None,
            report: false,
            report_json: None,
            threads: 1,
            no_skip: false,
            trace: None,
            metrics: None,
            progress: false,
            snapshot_every: None,
            snapshot_out: "beacon".to_owned(),
            resume: None,
            service: None,
            service_json: None,
        };
        let mut any = false;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--help" | "-h" => sel.help = true,
                "--table1" => {
                    sel.table1 = true;
                    any = true;
                }
                "--table2" => {
                    sel.table2 = true;
                    any = true;
                }
                "--fig3" => {
                    sel.fig3 = true;
                    any = true;
                }
                "--fig12" => {
                    sel.fig12 = true;
                    any = true;
                }
                "--fig13" => {
                    sel.fig13 = true;
                    any = true;
                }
                "--fig14" => {
                    sel.fig14 = true;
                    any = true;
                }
                "--fig15" => {
                    sel.fig15 = true;
                    any = true;
                }
                "--fig16" => {
                    sel.fig16 = true;
                    any = true;
                }
                "--fig17" => {
                    sel.fig17 = true;
                    any = true;
                }
                "--all" => {
                    any = false;
                }
                "--report" => {
                    sel.report = true;
                    any = true;
                }
                "--report-json" => {
                    i += 1;
                    let path = args.get(i).ok_or("--report-json needs a file path")?;
                    sel.report = true;
                    sel.report_json = Some(path.clone());
                    any = true;
                }
                "--quick" => sel.quick = true,
                "--faults" => {
                    i += 1;
                    let seed = args.get(i).ok_or("--faults needs a seed")?;
                    sel.faults = Some(
                        seed.parse::<u64>()
                            .map_err(|_| format!("--faults needs an integer seed, got {seed}"))?,
                    );
                    any = true;
                }
                "--threads" => {
                    i += 1;
                    let n = args.get(i).ok_or("--threads needs a worker count")?;
                    sel.threads =
                        n.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                            format!("--threads needs a positive integer, got {n}")
                        })?;
                }
                "--no-skip" => sel.no_skip = true,
                "--progress" => sel.progress = true,
                "--trace" => {
                    i += 1;
                    let path = args.get(i).ok_or("--trace needs a file path")?;
                    sel.trace = Some(path.clone());
                }
                "--metrics" => {
                    i += 1;
                    let path = args.get(i).ok_or("--metrics needs a file path")?;
                    sel.metrics = Some(path.clone());
                }
                "--snapshot-every" => {
                    i += 1;
                    let n = args.get(i).ok_or("--snapshot-every needs a cycle count")?;
                    sel.snapshot_every =
                        Some(n.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                            format!("--snapshot-every needs a positive cycle count, got {n}")
                        })?);
                    any = true;
                }
                "--snapshot-out" => {
                    i += 1;
                    let prefix = args.get(i).ok_or("--snapshot-out needs a path prefix")?;
                    sel.snapshot_out = prefix.clone();
                }
                "--resume" => {
                    i += 1;
                    let path = args.get(i).ok_or("--resume needs a snapshot file")?;
                    sel.resume = Some(path.clone());
                    any = true;
                }
                "--service" => {
                    i += 1;
                    let path = args.get(i).ok_or("--service needs a spec file")?;
                    sel.service = Some(path.clone());
                    any = true;
                }
                "--service-json" => {
                    i += 1;
                    let path = args.get(i).ok_or("--service-json needs a file path")?;
                    sel.service_json = Some(path.clone());
                }
                other => return Err(format!("unknown flag {other}")),
            }
            i += 1;
        }
        if sel.service_json.is_some() && sel.service.is_none() {
            return Err("--service-json needs --service <spec.json>".to_owned());
        }
        if !any {
            sel.table1 = true;
            sel.table2 = true;
            sel.fig3 = true;
            sel.fig12 = true;
            sel.fig13 = true;
            sel.fig14 = true;
            sel.fig15 = true;
            sel.fig16 = true;
            sel.fig17 = true;
        }
        Ok(sel)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sel = match Selection::parse(&args) {
        Ok(sel) => sel,
        Err(msg) => {
            eprintln!("{msg}");
            eprint!("{}", usage());
            std::process::exit(2);
        }
    };
    if sel.help {
        print!("{}", usage());
        return;
    }
    let scale = if sel.quick {
        bench_scale()
    } else {
        figures_scale()
    };
    let pes = if sel.quick { BENCH_PES } else { FIGURE_PES };
    let run = RunOptions {
        threads: sel.threads,
        skip: !sel.no_skip,
    };

    // One observer for every section; its trace and metrics files are
    // written at the end.
    let mut obs = Observer {
        trace: sel
            .trace
            .as_ref()
            .map(|_| TraceBuffer::new(TraceLevel::Command, TRACE_CAPACITY)),
        journey: None,
        metrics: (sel.metrics.is_some() || sel.progress).then(|| {
            Sampler::new(ObsConfig {
                metrics_every: if sel.metrics.is_some() {
                    if sel.quick {
                        METRICS_EVERY_QUICK
                    } else {
                        METRICS_EVERY_FULL
                    }
                } else {
                    0
                },
                progress_every: if sel.progress { PROGRESS_EVERY } else { 0 },
                stall_window: DEFAULT_STALL_WINDOW,
            })
        }),
    };

    println!(
        "BEACON figure harness — scale: Pt={} bases, {} reads, {} PEs/module, {} sim thread(s)\n",
        scale.pt_genome_len, scale.reads, pes, sel.threads
    );

    let t0 = Instant::now();
    if sel.table1 {
        section("Table I", tables::table1);
    }
    if sel.table2 {
        section("Table II", tables::table2);
    }
    if sel.fig3 {
        section("Fig. 3", || fig3::run(&scale, pes, &mut obs).render());
    }
    if sel.fig12 {
        section("Fig. 12", || {
            fig12::run(&scale, pes, run, &mut obs).render()
        });
    }
    if sel.fig13 {
        section("Fig. 13", || {
            fig13::run(&scale, pes, run, &mut obs).render()
        });
    }
    if sel.fig14 {
        section("Fig. 14", || {
            fig14::run(&scale, pes, run, &mut obs).render()
        });
    }
    if sel.fig15 {
        section("Fig. 15", || {
            fig15::run(&scale, pes, run, &mut obs).render()
        });
    }
    if sel.fig16 {
        section("Fig. 16", || {
            fig16::run(&scale, pes, run, &mut obs).render()
        });
    }
    if sel.fig17 {
        section("Fig. 17", || {
            fig17::run(&scale, pes, run, &mut obs).render()
        });
    }
    if let Some(seed) = sel.faults {
        section("Fault sweep", || {
            faults::run(&scale, pes, seed, run, &mut obs).render()
        });
    }
    if sel.report {
        let rep = report::run(&scale, pes, run, &mut obs);
        section("Bottleneck report", || rep.render());
        if let Some(path) = &sel.report_json {
            write_or_die(path, &rep.render_json());
            println!("report: attribution JSON -> {path}");
        }
    }
    if let Some(every) = sel.snapshot_every {
        section("Checkpoint", || {
            checkpoint_section(&scale, pes, every, &sel.snapshot_out, run, &mut obs)
        });
    }
    if let Some(path) = &sel.resume {
        section("Resume", || resume_section(path, run, &mut obs));
    }
    if let Some(path) = &sel.service {
        section("Pool service", || {
            service_section(path, sel.service_json.as_deref(), run, &mut obs)
        });
    }
    println!("total harness time: {:?}", t0.elapsed());

    if let (Some(path), Some(buf)) = (&sel.trace, &obs.trace) {
        if buf.dropped() > 0 {
            eprintln!(
                "trace: ring buffer evicted {} oldest events (kept {})",
                buf.dropped(),
                buf.len()
            );
        }
        write_or_die(path, &buf.to_chrome_json());
        println!("trace: {} events -> {path}", buf.len());
    }
    if let (Some(path), Some(sampler)) = (&sel.metrics, &obs.metrics) {
        let series = &sampler.series;
        let body = if path.ends_with(".csv") {
            series.to_csv()
        } else {
            series.to_jsonl()
        };
        write_or_die(path, &body);
        println!("metrics: {} samples -> {path}", series.len());
    }
}

fn write_or_die(path: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Runs the FM-seeding/Pt workload on BEACON-D, pausing at every
/// `every`-cycle epoch boundary to write a resumable snapshot, then
/// finishes the run and prints a greppable `final digest:` line. The
/// interruptions are invisible to the simulation: the digest is
/// bit-identical to an uninterrupted run of the same workload. The
/// pauses need the sequential engine, so `run.threads` does not apply.
fn checkpoint_section(
    scale: &WorkloadScale,
    pes: usize,
    every: u64,
    prefix: &str,
    run: RunOptions,
    obs: &mut Observer,
) -> String {
    use std::fmt::Write as _;
    let w = fm_workload(GenomeId::Pt, scale);
    let mut cfg = BeaconConfig::paper(BeaconVariant::D, w.app)
        .with_opts(Optimizations::full(BeaconVariant::D, w.app));
    cfg.pes_per_module = pes;
    let layout = build_layout(&cfg, &w.layout);
    let mut sys = BeaconSystem::new(cfg, layout);
    sys.submit_observed(w.traces.iter().cloned(), obs);
    let mut out = String::new();
    let mut at = every;
    while !sys.run_to(at, run, obs) {
        let bytes = sys.snapshot();
        let path = format!("{prefix}-{:012}.snap", sys.clock().as_u64());
        if let Err(e) = std::fs::write(&path, &bytes) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        let _ = writeln!(
            out,
            "snapshot: cycle {:>12} -> {path} ({} bytes)",
            sys.clock().as_u64(),
            bytes.len()
        );
        at += every;
    }
    let r = sys.collect();
    let _ = writeln!(
        out,
        "final digest: {:#018x} ({} tasks, {} cycles)",
        r.digest(),
        r.tasks,
        r.cycles
    );
    out
}

/// Reconstructs a [`BeaconSystem`] from a snapshot file and runs it to
/// completion (on the engine selected by `--threads`/`--no-skip`),
/// printing the same greppable `final digest:` line as the checkpoint
/// section — the two must match bit-identically.
fn resume_section(path: &str, run: RunOptions, obs: &mut Observer) -> String {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let mut sys = match BeaconSystem::resume(&bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot resume {path}: {e}");
            std::process::exit(1);
        }
    };
    let from = sys.clock().as_u64();
    let r = sys.run_with(run, obs);
    format!(
        "resumed: {path} @ cycle {from}\n\
         final digest: {:#018x} ({} tasks, {} cycles)\n",
        r.digest(),
        r.tasks,
        r.cycles
    )
}

/// Runs the multi-tenant pool service on a replayable spec file and
/// renders the per-job digest lines and per-tenant SLO table. The
/// whole-report `report digest:` line is bit-identical across
/// `--threads` and `--no-skip` (enforced by `tests/service.rs`). When
/// `json_out` is set, the machine-readable report (shape:
/// `schemas/service.schema.json`) is written there too.
fn service_section(
    path: &str,
    json_out: Option<&str>,
    run: RunOptions,
    obs: &mut Observer,
) -> String {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let spec = match ServiceSpec::parse_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot parse service spec {path}: {e}");
            std::process::exit(1);
        }
    };
    let report = run_service_with(&spec, run, obs);
    let mut out = report.render_text();
    if let Some(p) = json_out {
        write_or_die(p, &report.render_json());
        out.push_str(&format!("service: SLO report JSON -> {p}\n"));
    }
    out
}

fn section<F: FnOnce() -> String>(name: &str, f: F) {
    let t = Instant::now();
    println!("################ {name} ################");
    println!("{}", f());
    println!("({name} took {:?})\n", t.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_args_selects_everything() {
        let sel = Selection::parse(&[]).unwrap();
        assert!(sel.table1 && sel.table2 && sel.fig3 && sel.fig12);
        assert!(sel.fig13 && sel.fig14 && sel.fig15 && sel.fig16 && sel.fig17);
        assert!(!sel.quick && !sel.progress);
        assert_eq!(sel.trace, None);
        assert_eq!(sel.metrics, None);
    }

    #[test]
    fn single_selector_disables_the_rest() {
        let sel = Selection::parse(&args(&["--fig12", "--quick"])).unwrap();
        assert!(sel.fig12 && sel.quick);
        assert!(!sel.table1 && !sel.fig3 && !sel.fig17);
        assert_eq!(sel.threads, 1);
        assert!(!sel.no_skip);
    }

    #[test]
    fn no_skip_flag_parses() {
        let sel = Selection::parse(&args(&["--fig12", "--no-skip"])).unwrap();
        assert!(sel.no_skip);
    }

    #[test]
    fn threads_flag_takes_a_count() {
        let sel = Selection::parse(&args(&["--fig12", "--threads", "4"])).unwrap();
        assert_eq!(sel.threads, 4);
        assert!(Selection::parse(&args(&["--threads"])).is_err());
        assert!(Selection::parse(&args(&["--threads", "0"])).is_err());
        assert!(Selection::parse(&args(&["--threads", "lots"])).is_err());
    }

    #[test]
    fn faults_flag_takes_a_seed_and_acts_as_a_selector() {
        let sel = Selection::parse(&args(&["--faults", "42"])).unwrap();
        assert_eq!(sel.faults, Some(42));
        // A lone --faults must not drag every figure along.
        assert!(!sel.table1 && !sel.fig12 && !sel.fig17);
        assert!(Selection::parse(&args(&["--faults"])).is_err());
        assert!(Selection::parse(&args(&["--faults", "lots"])).is_err());
        // And with no selector at all, no fault sweep runs.
        assert_eq!(Selection::parse(&[]).unwrap().faults, None);
    }

    #[test]
    fn report_flag_acts_as_a_selector() {
        let sel = Selection::parse(&args(&["--report"])).unwrap();
        assert!(sel.report);
        assert_eq!(sel.report_json, None);
        // A lone --report must not drag every figure along.
        assert!(!sel.table1 && !sel.fig12 && !sel.fig17);
        // And with no selector at all, no report runs.
        assert!(!Selection::parse(&[]).unwrap().report);
    }

    #[test]
    fn report_json_implies_report_and_takes_a_path() {
        let sel = Selection::parse(&args(&["--report-json", "/tmp/r.json"])).unwrap();
        assert!(sel.report);
        assert_eq!(sel.report_json.as_deref(), Some("/tmp/r.json"));
        assert!(Selection::parse(&args(&["--report-json"])).is_err());
    }

    #[test]
    fn observability_flags_take_values() {
        let sel = Selection::parse(&args(&[
            "--fig12",
            "--trace",
            "/tmp/t.json",
            "--metrics",
            "/tmp/m.csv",
            "--progress",
        ]))
        .unwrap();
        assert_eq!(sel.trace.as_deref(), Some("/tmp/t.json"));
        assert_eq!(sel.metrics.as_deref(), Some("/tmp/m.csv"));
        assert!(sel.progress);
    }

    #[test]
    fn missing_flag_value_is_an_error() {
        assert!(Selection::parse(&args(&["--trace"])).is_err());
        assert!(Selection::parse(&args(&["--fig12", "--metrics"])).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = Selection::parse(&args(&["--fig99"])).unwrap_err();
        assert!(err.contains("--fig99"));
    }

    #[test]
    fn help_flag_parses_alongside_others() {
        let sel = Selection::parse(&args(&["--help"])).unwrap();
        assert!(sel.help);
        assert!(Selection::parse(&args(&["-h"])).unwrap().help);
    }

    #[test]
    fn usage_mentions_every_flag() {
        let u = usage();
        for flag in [
            "--all",
            "--table1",
            "--table2",
            "--fig3",
            "--fig12",
            "--fig13",
            "--fig14",
            "--fig15",
            "--fig16",
            "--fig17",
            "--faults",
            "--report",
            "--report-json",
            "--quick",
            "--threads",
            "--no-skip",
            "--trace",
            "--metrics",
            "--progress",
            "--snapshot-every",
            "--snapshot-out",
            "--resume",
            "--service",
            "--service-json",
            "--help",
        ] {
            assert!(u.contains(flag), "usage must list {flag}");
        }
    }

    #[test]
    fn snapshot_every_takes_a_count_and_acts_as_a_selector() {
        let sel = Selection::parse(&args(&["--snapshot-every", "5000"])).unwrap();
        assert_eq!(sel.snapshot_every, Some(5000));
        assert_eq!(sel.snapshot_out, "beacon");
        // A lone --snapshot-every must not drag every figure along.
        assert!(!sel.table1 && !sel.fig12 && !sel.fig17);
        assert!(Selection::parse(&args(&["--snapshot-every"])).is_err());
        assert!(Selection::parse(&args(&["--snapshot-every", "0"])).is_err());
        assert!(Selection::parse(&args(&["--snapshot-every", "often"])).is_err());
        // And with no selector at all, no checkpoint demo runs.
        assert_eq!(Selection::parse(&[]).unwrap().snapshot_every, None);
    }

    #[test]
    fn snapshot_out_takes_a_prefix() {
        let sel = Selection::parse(&args(&[
            "--snapshot-every",
            "1000",
            "--snapshot-out",
            "/tmp/ckpt",
        ]))
        .unwrap();
        assert_eq!(sel.snapshot_out, "/tmp/ckpt");
        assert!(Selection::parse(&args(&["--snapshot-out"])).is_err());
    }

    #[test]
    fn service_takes_a_spec_and_acts_as_a_selector() {
        let sel = Selection::parse(&args(&["--service", "specs/demo.json"])).unwrap();
        assert_eq!(sel.service.as_deref(), Some("specs/demo.json"));
        assert_eq!(sel.service_json, None);
        // A lone --service must not drag every figure along.
        assert!(!sel.table1 && !sel.fig12 && !sel.fig17);
        assert!(Selection::parse(&args(&["--service"])).is_err());
        assert_eq!(Selection::parse(&[]).unwrap().service, None);
    }

    #[test]
    fn service_json_needs_the_service_spec() {
        let sel = Selection::parse(&args(&[
            "--service",
            "specs/demo.json",
            "--service-json",
            "/tmp/slo.json",
        ]))
        .unwrap();
        assert_eq!(sel.service_json.as_deref(), Some("/tmp/slo.json"));
        assert!(Selection::parse(&args(&["--service-json"])).is_err());
        // Unlike --report-json there is nothing to imply: the service
        // needs a spec file, so a lone --service-json is an error.
        let err = Selection::parse(&args(&["--service-json", "/tmp/slo.json"])).unwrap_err();
        assert!(err.contains("--service"));
    }

    #[test]
    fn resume_takes_a_file_and_acts_as_a_selector() {
        let sel = Selection::parse(&args(&["--resume", "/tmp/a.snap"])).unwrap();
        assert_eq!(sel.resume.as_deref(), Some("/tmp/a.snap"));
        assert!(!sel.table1 && !sel.fig12 && !sel.fig17);
        assert!(Selection::parse(&args(&["--resume"])).is_err());
        assert_eq!(Selection::parse(&[]).unwrap().resume, None);
    }
}
