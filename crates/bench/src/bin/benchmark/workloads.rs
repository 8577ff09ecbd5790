//! The four workloads: how each builds its inputs from the seed, runs
//! them through the simulator, and what it hands back to be checked.
//!
//! Every rep rebuilds everything (genome, index, reads, layout, system),
//! so the set-up a user pays on every run is measured on every rep. The
//! runs use the production configuration: fast-forwarding and the dense
//! path on, sequential engine.

use std::time::Instant;

use beacon_core::config::{BeaconConfig, BeaconVariant, Optimizations};
use beacon_core::experiments::common::{fm_workload, kmer_workload, AppWorkload, WorkloadScale};
use beacon_core::mmf::{build_layout, LayoutSpec};
use beacon_core::obs;
use beacon_core::system::BeaconSystem;
use beacon_genomics::genome::GenomeId;
use beacon_pool::prelude::{run_service, JobStatus, ServiceReport, ServiceSpec};
use beacon_sim::component::Probe;
use beacon_sim::engine::Engine;
use beacon_sim::stats::{Fnv64, Stats};

use crate::trace::{Spans, Timed};

/// The `pool-mixed` service spec. `--seed` replaces its data seed
/// (`scale.seed`); the arrival stream (`seed`) stays as checked in, so
/// every seed runs the same traffic mix over different genomes and reads.
const POOL_MIXED: &str = include_str!("pool_mixed.json");

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed batch of 4096 short reads seeded on BEACON-D: an event
    /// every cycle, random bucket reads over a large index.
    FmDense,
    /// Closed batch of 4096 reads k-mer counted on BEACON-S: the counting
    /// Bloom filter updates are read-modify-write atomics.
    KmerRmw,
    /// Four long exact reads seeded on BEACON-D: latency-bound, most
    /// cycles are fast-forwarded.
    SeedSparse,
    /// 120 short jobs from three tenants through the pool service.
    PoolMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::FmDense,
        Workload::KmerRmw,
        Workload::SeedSparse,
        Workload::PoolMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FmDense => "fm-dense",
            Workload::KmerRmw => "kmer-rmw",
            Workload::SeedSparse => "seed-sparse",
            Workload::PoolMixed => "pool-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The digest and simulated cycles a rep at the default seed must
    /// reproduce, at full or `quick` scale: the run digest of a direct
    /// workload, the service report digest of `pool-mixed`.
    pub fn golden(self, quick: bool) -> (u64, u64) {
        match (self, quick) {
            (Workload::FmDense, false) => (0x213f_85eb_d46a_4971, 99_771),
            (Workload::KmerRmw, false) => (0x1db8_3fcc_0701_4104, 559_399),
            (Workload::SeedSparse, false) => (0x4568_4cbc_bcba_7abe, 7_290_978),
            (Workload::PoolMixed, false) => (0xe6ba_38db_5fb8_94d7, 544_042),
            (Workload::FmDense, true) => (0x2792_5aac_cad5_33da, 4_190),
            (Workload::KmerRmw, true) => (0x364c_0089_eff0_965a, 1_095),
            (Workload::SeedSparse, true) => (0x82c0_5606_a0de_44f2, 136_188),
            (Workload::PoolMixed, true) => (0x2053_5db1_56d4_0fb7, 14_223),
        }
    }

    /// Input sizes of the direct workloads; `quick` shrinks them to the
    /// test scale.
    fn scale(self, seed: u64, quick: bool) -> WorkloadScale {
        let base = if quick {
            WorkloadScale {
                seed,
                ..WorkloadScale::test()
            }
        } else {
            WorkloadScale {
                pt_genome_len: 400_000,
                reads: 4096,
                read_len: 64,
                error_rate: 0.01,
                kmer_k: 28,
                kmer_reads: 4096,
                cbf_bytes: 256 * 1024,
                seed,
            }
        };
        match self {
            Workload::SeedSparse => WorkloadScale {
                reads: 4,
                read_len: if quick { 1_000 } else { 50_000 },
                error_rate: 0.0,
                ..base
            },
            _ => base,
        }
    }
}

/// Per-layer counts of one traced rep, summed over its rounds.
#[derive(Debug, Default)]
pub struct Layers {
    /// Task traces built.
    pub tasks: u64,
    /// Steps over all traces.
    pub steps: u64,
    /// Memory accesses over all traces.
    pub accesses: u64,
    /// Bytes those accesses touch.
    pub trace_bytes: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Horizon probes that let the engine jump.
    pub jumps: u64,
    /// Useful events (`Probe::progress_counter`).
    pub events: u64,
    /// Merged DRAM counters.
    pub dram: Stats,
    /// Merged link, switch and packer counters.
    pub comm: Stats,
    /// Merged task-engine and server counters.
    pub engine: Stats,
    /// Busy PE-cycles.
    pub pe_busy: u64,
    /// PE-cycles available (PEs × cycles, per round).
    pub pe_capacity: u64,
    /// Systems built and run: one per service round.
    pub rounds: u64,
    /// Jobs those rounds ran.
    pub jobs: u64,
    /// Admission decisions the service logged.
    pub decisions: u64,
    /// Each job's simulated wait before its round started.
    pub queue_waits: Vec<u64>,
}

/// What one rep produced. Its spans give the set-up and run times.
#[derive(Debug)]
pub struct Rep {
    /// Wall-clock spans.
    pub spans: Spans,
    /// Digest to compare against the reference: the run digest of a
    /// direct workload, the report digest of a service run, and the
    /// fold of the round digests of a replayed service.
    pub digest: u64,
    /// Simulated cycles, summed over rounds.
    pub cycles: u64,
    /// Simulated latency of every completed job, arrival to completion.
    pub latencies: Vec<u64>,
    /// Checks this rep failed on its own.
    pub errors: Vec<String>,
    /// The service report (service reps only).
    pub report: Option<ServiceReport>,
    /// Per-layer counts (traced reps only).
    pub layers: Option<Layers>,
}

/// A workload at one seed and scale.
pub struct Prepared {
    workload: Workload,
    scale: WorkloadScale,
    spec: Option<ServiceSpec>,
}

impl Prepared {
    /// Fixes the inputs of `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64, quick: bool) -> Prepared {
        let spec = (workload == Workload::PoolMixed).then(|| {
            let mut spec = ServiceSpec::parse_json(POOL_MIXED).expect("pool_mixed.json parses");
            if quick {
                spec.scale = WorkloadScale::test();
                spec.synth
                    .as_mut()
                    .expect("spec synthesizes jobs")
                    .jobs_per_tenant = 2;
            }
            spec.scale.seed = seed;
            spec
        });
        Prepared {
            workload,
            scale: workload.scale(seed, quick),
            spec,
        }
    }

    /// One rep as a user runs the workload: a direct workload builds and
    /// runs its one system; `pool-mixed` runs the whole service.
    pub fn rep(&self) -> Rep {
        let Some(spec) = &self.spec else {
            return self.replay(None, false);
        };
        // `run_service` builds each job's inputs inside its round loop,
        // out of the benchmark's sight. Building them once here first
        // times that set-up on its own; the service then builds its own.
        // Each is dropped before the next is built, so this holds one
        // job's inputs at a time and adds nothing to the peak memory.
        let mut spans = Spans::default();
        let t = Instant::now();
        for j in spec.expand_jobs() {
            drop(j.kind.workload(j.genome, &spec.scale));
        }
        spans.add("setup.genomics", t.elapsed());
        let t = Instant::now();
        let report = run_service(spec);
        spans.add("pool.service", t.elapsed());
        let mut errors = Vec::new();
        let mut latencies = Vec::new();
        for j in &report.jobs {
            match j.status {
                JobStatus::Completed => latencies.push(j.latency_cycles()),
                _ => errors.push(format!("job {} was not completed: {:?}", j.id, j.status)),
            }
        }
        Rep {
            spans,
            digest: report.digest(),
            cycles: report.total_cycles,
            latencies,
            errors,
            report: Some(report),
            layers: None,
        }
    }

    /// The digest a [`Prepared::replay`] of `report`'s rounds must
    /// reproduce.
    pub fn rounds_digest(report: &ServiceReport) -> u64 {
        let mut h = Fnv64::new();
        for r in &report.rounds {
            h.write_u64(report.jobs[r.jobs[0] as usize].digest);
        }
        h.finish()
    }

    /// One rep driven round by round from the benchmark: a direct
    /// workload's single system, or every round of `service` rebuilt
    /// from its record (same jobs, same order, same configuration as
    /// `run_service` used). `traced` runs each system through the timed
    /// [`Timed`] wrapper on the loop `BeaconSystem::run` drives and
    /// records per-layer counts.
    pub fn replay(&self, service: Option<&ServiceReport>, traced: bool) -> Rep {
        let mut spans = Spans::default();
        let t = Instant::now();
        let (inputs, plan): (Vec<AppWorkload>, Vec<(BeaconConfig, Vec<usize>)>) =
            match (&self.spec, service) {
                (Some(spec), Some(report)) => {
                    let inputs = build_jobs(spec);
                    let plan = report
                        .rounds
                        .iter()
                        .map(|r| {
                            let jobs: Vec<usize> = r.jobs.iter().map(|&id| id as usize).collect();
                            (spec.system_config(inputs[jobs[0]].app), jobs)
                        })
                        .collect();
                    (inputs, plan)
                }
                (None, None) => {
                    let (variant, w) = match self.workload {
                        Workload::KmerRmw => (BeaconVariant::S, kmer_workload(&self.scale)),
                        _ => (BeaconVariant::D, fm_workload(GenomeId::Pt, &self.scale)),
                    };
                    let mut cfg = BeaconConfig::paper(variant, w.app)
                        .with_opts(Optimizations::full(variant, w.app));
                    cfg.switches = 2;
                    cfg.pes_per_module = 8;
                    (vec![w], vec![(cfg, vec![0])])
                }
                _ => panic!("a service is replayed from its report"),
            };
        spans.add("setup.genomics", t.elapsed());

        let mut layers = traced.then(|| {
            let mut l = Layers::default();
            for t in inputs.iter().flat_map(|w| &w.traces) {
                l.tasks += 1;
                l.steps += t.steps.len() as u64;
                l.accesses += t.access_count() as u64;
                l.trace_bytes += t.total_bytes();
            }
            if let Some(report) = service {
                l.decisions = report.decisions.len() as u64;
                l.queue_waits = report.jobs.iter().map(|j| j.queue_wait_cycles).collect();
            }
            l
        });
        let mut errors = Vec::new();
        let mut digests = Fnv64::new();
        let mut digest = 0;
        let mut cycles = 0;
        let mut latencies = Vec::new();
        for (cfg, jobs) in plan {
            let round: Vec<&AppWorkload> = jobs.iter().map(|&j| &inputs[j]).collect();
            let submitted: usize = round.iter().map(|w| w.traces.len()).sum();
            let r = run_round(cfg, &round, &mut spans, layers.as_mut());
            if r.tasks != submitted {
                errors.push(format!("{} of {submitted} tasks completed", r.tasks));
            }
            digest = r.digest();
            digests.write_u64(digest);
            match service {
                Some(report) => {
                    latencies.extend(jobs.iter().map(|&j| report.jobs[j].latency_cycles()));
                }
                None => latencies.push(r.cycles),
            }
            cycles += r.cycles;
        }
        if service.is_some() {
            digest = digests.finish();
        }
        Rep {
            spans,
            digest,
            cycles,
            latencies,
            errors,
            report: None,
            layers,
        }
    }
}

/// Expands the service's jobs and builds each one's inputs, as
/// `run_service` does when the job arrives.
fn build_jobs(spec: &ServiceSpec) -> Vec<AppWorkload> {
    spec.expand_jobs()
        .iter()
        .map(|j| j.kind.workload(j.genome, &spec.scale))
        .collect()
}

/// Builds one system from `jobs` the way `run_service` builds a round
/// (merged layouts, traces round-robin in job order) and runs it to
/// drain. With `layers`, the run goes through [`Timed`] on
/// [`obs::drive`], the instrumented loop (stall detector armed) that
/// the sequential `BeaconSystem::run` drives, and its counts are added
/// to `layers`.
fn run_round(
    cfg: BeaconConfig,
    jobs: &[&AppWorkload],
    spans: &mut Spans,
    layers: Option<&mut Layers>,
) -> beacon_accel::result::RunResult {
    let t = Instant::now();
    let specs: Vec<LayoutSpec> = jobs.iter().flat_map(|w| w.layout.iter().cloned()).collect();
    let layout = build_layout(&cfg, &specs);
    spans.add("setup.mmf", t.elapsed());

    let t = Instant::now();
    let mut sys = BeaconSystem::new(cfg, layout);
    sys.submit_round_robin(jobs.iter().flat_map(|w| w.traces.iter().cloned()));
    spans.add("setup.system", t.elapsed());

    let t = Instant::now();
    let Some(l) = layers else {
        let r = sys.run();
        spans.add("run", t.elapsed());
        return r;
    };
    // `BeaconSystem::run` also re-arms the switches' journey gates, which
    // `BeaconSystem::new` has just armed from the same (absent) recorder.
    let mut engine = Engine::starting_at(sys.clock());
    let mut timed = Timed::new(&mut sys);
    let outcome = obs::drive(&mut engine, &mut timed);
    let times = timed.times();
    // The end cycle is private to the system; outside attribution, which
    // no benchmark run records, `collect` reads it only for `cycles`.
    let mut r = sys.collect();
    r.cycles = outcome.finished_at().as_u64();
    spans.add("run", t.elapsed());
    spans.add_n("run/core.tick", times.ticks, times.tick);
    spans.add_n("run/sim.probe", times.probes, times.probe);

    l.cycles += r.cycles;
    l.jumps += times.jumps;
    l.events += sys.progress_counter();
    l.dram.merge(&r.dram);
    l.comm.merge(&r.comm);
    l.engine.merge(&r.engine);
    l.pe_busy += r.pe_busy_cycles;
    l.pe_capacity += cfg.total_pes() as u64 * r.cycles;
    l.rounds += 1;
    l.jobs += jobs.len() as u64;
    r
}
