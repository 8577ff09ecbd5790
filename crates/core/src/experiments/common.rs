//! Shared workload construction and system runners for the experiments.
//!
//! Every figure driver builds an [`AppWorkload`] (traces + region
//! descriptions) and pushes it through the CPU roofline, the MEDAL/NEST
//! baselines and the BEACON systems at chosen optimisation points.

use beacon_accel::cpu_model::{CpuModel, CpuRun, WorkloadSummary};
use beacon_accel::medal::{Medal, MedalConfig, RegionSpec};
use beacon_accel::nest::{combine, Nest, NestConfig};
use beacon_accel::result::RunResult;
use beacon_genomics::genome::{Genome, GenomeId};
use beacon_genomics::hash_index::HashIndex;
use beacon_genomics::kmer::KmerCounter;
use beacon_genomics::prealign::PreAlignFilter;
use beacon_genomics::prelude::FmIndex;
use beacon_genomics::reads::ReadSampler;
use beacon_genomics::trace::{Access, AppKind, Region, Step, TaskTrace};
use beacon_sim::engine::RunOptions;
use beacon_sim::observer::Observer;
use beacon_sim::rng::SimRng;

use crate::config::{BeaconConfig, BeaconVariant, Optimizations};
use crate::mmf::{build_layout, LayoutSpec};
use crate::system::BeaconSystem;

/// Size knobs of one experiment campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadScale {
    /// Synthetic length of the Pt genome; the other four scale by their
    /// real relative sizes.
    pub pt_genome_len: usize,
    /// Reads per genome for the seeding/pre-alignment apps.
    pub reads: usize,
    /// Read length in bases.
    pub read_len: usize,
    /// Per-base sequencing error rate.
    pub error_rate: f64,
    /// k for k-mer counting.
    pub kmer_k: usize,
    /// Reads for the k-mer counting app.
    pub kmer_reads: usize,
    /// Counting-Bloom-filter size in bytes.
    pub cbf_bytes: u64,
    /// Master seed.
    pub seed: u64,
}

impl WorkloadScale {
    /// Tiny scale for unit/integration tests (sub-second runs).
    pub fn test() -> Self {
        WorkloadScale {
            pt_genome_len: 4_000,
            reads: 12,
            read_len: 32,
            error_rate: 0.01,
            kmer_k: 24,
            kmer_reads: 8,
            cbf_bytes: 64 * 1024,
            seed: 42,
        }
    }

    /// The scale used by the `figures` harness and benches.
    pub fn bench() -> Self {
        WorkloadScale {
            pt_genome_len: 60_000,
            reads: 96,
            read_len: 64,
            error_rate: 0.01,
            kmer_k: 28,
            kmer_reads: 64,
            cbf_bytes: 512 * 1024,
            seed: 42,
        }
    }
}

/// One application's ready-to-run workload.
#[derive(Debug, Clone)]
pub struct AppWorkload {
    /// The application.
    pub app: AppKind,
    /// Per-task traces.
    pub traces: Vec<TaskTrace>,
    /// Region descriptions for the BEACON memory manager.
    pub layout: Vec<LayoutSpec>,
    /// Region descriptions for the MEDAL/NEST baselines.
    pub medal: Vec<RegionSpec>,
}

impl AppWorkload {
    /// The CPU roofline summary of this workload.
    pub fn cpu_summary(&self) -> WorkloadSummary {
        WorkloadSummary::from_traces(&self.traces)
    }
}

/// Builds the FM-index seeding workload for one genome.
pub fn fm_workload(genome_id: GenomeId, scale: &WorkloadScale) -> AppWorkload {
    let len = genome_id.scaled_len(scale.pt_genome_len);
    let genome = Genome::synthetic(genome_id, len, scale.seed);
    let index = FmIndex::build(genome.sequence());
    let mut sampler = ReadSampler::new(&genome, scale.read_len, scale.error_rate, scale.seed ^ 1);
    let traces: Vec<TaskTrace> = (0..scale.reads)
        .map(|_| index.trace_search(sampler.next_read().bases()))
        .collect();
    let bytes = index.index_bytes();
    AppWorkload {
        app: AppKind::FmSeeding,
        traces,
        layout: vec![LayoutSpec::shared_random(Region::FmIndex, bytes)],
        medal: vec![RegionSpec::random(Region::FmIndex, bytes)],
    }
}

/// Builds the hash-index seeding workload for one genome.
pub fn hash_workload(genome_id: GenomeId, scale: &WorkloadScale) -> AppWorkload {
    let len = genome_id.scaled_len(scale.pt_genome_len);
    let genome = Genome::synthetic(genome_id, len, scale.seed);
    let bucket_bits = ((len as f64).log2().ceil() as u32).clamp(10, 22);
    let index = HashIndex::build(genome.sequence(), 12, bucket_bits);
    let mut sampler = ReadSampler::new(&genome, scale.read_len, scale.error_rate, scale.seed ^ 2);
    let traces: Vec<TaskTrace> = (0..scale.reads)
        .map(|_| index.trace_seed_read(sampler.next_read().bases(), 64))
        .collect();
    AppWorkload {
        app: AppKind::HashSeeding,
        traces,
        layout: vec![
            LayoutSpec::shared_random(Region::HashTable, index.header_bytes()),
            LayoutSpec::shared_spatial(Region::CandidateLists, index.candidate_bytes()),
        ],
        medal: vec![
            RegionSpec::random(Region::HashTable, index.header_bytes()),
            RegionSpec::spatial(Region::CandidateLists, index.candidate_bytes()),
        ],
    }
}

/// Builds the k-mer counting workload (human-like genome, paper §VI-A).
pub fn kmer_workload(scale: &WorkloadScale) -> AppWorkload {
    let len = GenomeId::Human.scaled_len(scale.pt_genome_len);
    let genome = Genome::synthetic(GenomeId::Human, len, scale.seed);
    let counter = KmerCounter::new(scale.kmer_k, scale.cbf_bytes as usize, 3, scale.seed ^ 3);
    let mut sampler = ReadSampler::new(&genome, scale.read_len, scale.error_rate, scale.seed ^ 4);
    let traces: Vec<TaskTrace> = (0..scale.kmer_reads)
        .map(|_| counter.trace_read(&sampler.next_read()))
        .collect();
    AppWorkload {
        app: AppKind::KmerCounting,
        traces,
        layout: vec![LayoutSpec::shared_random_writable(
            Region::Bloom,
            scale.cbf_bytes,
        )],
        medal: vec![RegionSpec::random(Region::Bloom, scale.cbf_bytes)],
    }
}

/// Builds the DNA pre-alignment workload for one genome: each read is
/// filtered against its true location plus one decoy candidate.
pub fn prealign_workload(genome_id: GenomeId, scale: &WorkloadScale) -> AppWorkload {
    let len = genome_id.scaled_len(scale.pt_genome_len);
    let genome = Genome::synthetic(genome_id, len, scale.seed);
    let filter = PreAlignFilter::new(5);
    let mut sampler = ReadSampler::new(&genome, scale.read_len, scale.error_rate, scale.seed ^ 5);
    let mut rng = SimRng::from_seed(scale.seed ^ 6);
    let mut traces = Vec::with_capacity(scale.reads * 2);
    for _ in 0..scale.reads {
        let read = sampler.next_read();
        traces.push(filter.trace_filter(scale.read_len, read.origin()));
        let decoy = rng.index(len - scale.read_len);
        traces.push(filter.trace_filter(scale.read_len, decoy));
    }
    let ref_bytes = (len as u64).div_ceil(4);
    AppWorkload {
        app: AppKind::PreAlignment,
        traces,
        layout: vec![
            LayoutSpec::shared_spatial(Region::Reference, ref_bytes),
            LayoutSpec::partitioned(Region::ReadBuf, (scale.reads * scale.read_len / 4) as u64),
        ],
        medal: vec![
            RegionSpec::spatial(Region::Reference, ref_bytes),
            RegionSpec::spatial(Region::ReadBuf, (scale.reads * scale.read_len / 4) as u64),
        ],
    }
}

/// Runs BEACON at an optimisation point under `run`. Small-PE variant
/// used by tests; experiments scale PEs via `pes_per_module`.
pub fn run_beacon(
    variant: BeaconVariant,
    opts: Optimizations,
    workload: &AppWorkload,
    pes_per_module: usize,
    run: RunOptions,
    obs: &mut Observer,
) -> RunResult {
    let mut cfg = BeaconConfig::paper(variant, workload.app).with_opts(opts);
    cfg.pes_per_module = pes_per_module;
    cfg.refresh_enabled = false;
    let layout = build_layout(&cfg, &workload.layout);
    let mut sys = BeaconSystem::new(cfg, layout);
    if workload.app == AppKind::KmerCounting
        && variant == BeaconVariant::S
        && !opts.single_pass_kmer
    {
        // Without the single-pass optimisation, BEACON-S inherits NEST's
        // multi-pass strategy: two passes over the input plus the filter
        // merge (paper §IV-D).
        let r1 = {
            let mut s1 = BeaconSystem::new(cfg, build_layout(&cfg, &workload.layout));
            s1.submit_observed(workload.traces.iter().cloned(), obs);
            s1.run_with(run, obs)
        };
        let merge = {
            let mut sm = BeaconSystem::new(cfg, build_layout(&cfg, &workload.layout));
            let cbf_bytes: u64 = workload
                .layout
                .iter()
                .find(|s| s.region == Region::Bloom)
                .map(|s| s.bytes)
                .unwrap_or(0);
            sm.submit_observed(bulk_read_traces(Region::Bloom, cbf_bytes, 4096), obs);
            sm.run_with(run, obs)
        };
        sys.submit_observed(workload.traces.iter().cloned(), obs);
        let r3 = sys.run_with(run, obs);
        return combine(vec![r1, merge, r3], workload.traces.len());
    }
    sys.submit_observed(workload.traces.iter().cloned(), obs);
    sys.run_with(run, obs)
}

/// Bulk sequential read traces covering `bytes` of `region` (used for the
/// multi-pass filter merge).
pub fn bulk_read_traces(region: Region, bytes: u64, chunk: u64) -> Vec<TaskTrace> {
    let n_chunks = bytes.div_ceil(chunk);
    (0..n_chunks)
        .map(|c| {
            let base = c * chunk;
            let mut accesses = Vec::new();
            let mut off = 0;
            while off < chunk && base + off < bytes {
                let take = 64.min(bytes - (base + off)) as u32;
                accesses.push(Access::read(region, base + off, take));
                off += 64;
            }
            TaskTrace::new(AppKind::KmerCounting, vec![Step::posted(accesses)])
        })
        .collect()
}

/// Runs the MEDAL baseline on a seeding/pre-alignment workload,
/// recording into `obs`. Host-centric baselines do not take
/// [`RunOptions`]: their engines always run with the defaults (results
/// are identical under any options).
pub fn run_medal(
    workload: &AppWorkload,
    ideal: bool,
    pes_per_dimm: usize,
    obs: &mut Observer,
) -> RunResult {
    let mut cfg = MedalConfig::paper(workload.app.pe_latency_cycles());
    cfg.pes_per_dimm = pes_per_dimm;
    cfg.refresh_enabled = false;
    if ideal {
        cfg = cfg.idealized();
    }
    let map = cfg.region_map(&workload.medal);
    let mut medal = Medal::with_shared_map(cfg, map);
    medal.submit_observed(workload.traces.iter().cloned(), obs);
    medal.run_observed(obs)
}

/// Runs the NEST baseline (multi-pass) on the k-mer workload, recording
/// into `obs`.
pub fn run_nest(
    workload: &AppWorkload,
    cbf_bytes: u64,
    ideal: bool,
    pes: usize,
    obs: &mut Observer,
) -> RunResult {
    let mut cfg = NestConfig::paper(cbf_bytes);
    cfg.hw.pes_per_dimm = pes;
    cfg.hw.refresh_enabled = false;
    if ideal {
        cfg = cfg.idealized();
    }
    Nest::new(cfg).run_multipass(&workload.traces, obs)
}

/// Runs the CPU roofline baseline. For k-mer counting the software
/// baseline (BFCounter) is single-pass.
pub fn run_cpu(workload: &AppWorkload) -> CpuRun {
    CpuModel::default().run(&workload.cpu_summary())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builders_produce_nonempty_traces() {
        let s = WorkloadScale::test();
        for w in [
            fm_workload(GenomeId::Pt, &s),
            hash_workload(GenomeId::Pg, &s),
            kmer_workload(&s),
            prealign_workload(GenomeId::Ss, &s),
        ] {
            assert!(!w.traces.is_empty(), "{:?}", w.app);
            assert!(!w.layout.is_empty());
            assert!(w.traces.iter().all(|t| t.app == w.app));
        }
    }

    #[test]
    fn prealign_has_two_candidates_per_read() {
        let s = WorkloadScale::test();
        let w = prealign_workload(GenomeId::Am, &s);
        assert_eq!(w.traces.len(), 2 * s.reads);
    }

    #[test]
    fn bulk_traces_cover_all_bytes() {
        let traces = bulk_read_traces(Region::Bloom, 10_000, 2048);
        let total: u64 = traces.iter().map(TaskTrace::total_bytes).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn cpu_baseline_runs() {
        let s = WorkloadScale::test();
        let w = fm_workload(GenomeId::Pt, &s);
        let cpu = run_cpu(&w);
        assert!(cpu.seconds > 0.0);
        assert!(cpu.dram_cycles > 0);
    }

    #[test]
    fn beacon_and_medal_run_the_same_workload() {
        let s = WorkloadScale::test();
        let w = fm_workload(GenomeId::Pt, &s);
        let mut obs = Observer::default();
        let m = run_medal(&w, false, 8, &mut obs);
        let opts = Optimizations::full(BeaconVariant::D, w.app);
        let d = run_beacon(
            BeaconVariant::D,
            opts,
            &w,
            8,
            RunOptions::default(),
            &mut obs,
        );
        assert_eq!(m.tasks, w.traces.len());
        assert_eq!(d.tasks, w.traces.len());
    }
}
