//! NEST: the DDR-DIMM based k-mer counting baseline (ICCAD'20).
//!
//! NEST uses the same DIMM-NDP hardware as MEDAL but a *multi-pass*
//! counting strategy to avoid random remote accesses (paper §IV-D):
//!
//! 1. **Pass 1** — every DIMM builds a *local* counting Bloom filter over
//!    the entire input (all CBF updates stay inside the DIMM),
//! 2. **merge** — the per-DIMM filters are merged into a global filter
//!    and redistributed (bulk inter-DIMM traffic), and
//! 3. **Pass 2** — every DIMM counts its share of the input against its
//!    local copy of the global filter.
//!
//! The price is processing the whole input twice — exactly what
//! BEACON-S's single-pass optimisation removes.

use beacon_genomics::trace::{Access, AppKind, Region, Step, TaskTrace};
use beacon_sim::observer::Observer;

use crate::medal::{Medal, MedalConfig, RegionSpec};
use crate::result::RunResult;
use crate::translate::{Placement, RegionMap};

/// Configuration of the NEST system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NestConfig {
    /// The underlying DIMM-NDP hardware (PE latency should be the k-mer
    /// counting engine's 59 cycles).
    pub hw: MedalConfig,
    /// Counting-Bloom-filter size in bytes.
    pub cbf_bytes: u64,
    /// Bytes each merge task moves (one task = one bulk chunk).
    pub merge_chunk_bytes: u64,
}

impl NestConfig {
    /// The paper's NEST configuration over a CBF of `cbf_bytes`.
    pub fn paper(cbf_bytes: u64) -> Self {
        NestConfig {
            hw: MedalConfig::paper(AppKind::KmerCounting.pe_latency_cycles()),
            cbf_bytes,
            merge_chunk_bytes: 4096,
        }
    }

    /// Idealised-communication variant.
    pub fn idealized(mut self) -> Self {
        self.hw = self.hw.idealized();
        self
    }
}

/// The NEST system runner.
#[derive(Debug, Clone)]
pub struct Nest {
    cfg: NestConfig,
}

impl Nest {
    /// Creates the runner.
    pub fn new(cfg: NestConfig) -> Self {
        Nest { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &NestConfig {
        &self.cfg
    }

    fn local_maps(&self) -> Vec<RegionMap> {
        use beacon_dram::address::Interleave;
        let geometry = self.cfg.hw.geometry;
        self.cfg
            .hw
            .nodes()
            .into_iter()
            .map(|node| {
                let mut map = RegionMap::new(geometry);
                map.place(
                    Region::Bloom,
                    Placement::single(
                        node,
                        0,
                        Interleave::ChipLevel {
                            block_bytes: 32,
                            groups: geometry.chips_per_rank,
                        },
                    )
                    .with_sparse_rows(64),
                );
                map
            })
            .collect()
    }

    /// The merge traces: every module bulk-reads the full global CBF
    /// (the remote 3/4 is the redistribution traffic).
    fn merge_traces(&self) -> Vec<TaskTrace> {
        let chunk = self.cfg.merge_chunk_bytes;
        let n_chunks = self.cfg.cbf_bytes.div_ceil(chunk);
        let mut traces = Vec::new();
        for c in 0..n_chunks {
            let mut accesses = Vec::new();
            let base = c * chunk;
            let mut off = 0;
            while off < chunk && base + off < self.cfg.cbf_bytes {
                let take = 64.min(self.cfg.cbf_bytes - (base + off)) as u32;
                accesses.push(Access::read(Region::Bloom, base + off, take));
                off += 64;
            }
            traces.push(TaskTrace::new(
                AppKind::KmerCounting,
                vec![Step::posted(accesses)],
            ));
        }
        traces
    }

    /// Runs the full multi-pass pipeline over a counting workload
    /// (`traces` are per-read CBF-update traces, replayed in both
    /// passes), recording every pass into `obs`.
    pub fn run_multipass(&self, traces: &[TaskTrace], obs: &mut Observer) -> RunResult {
        // Pass 1: local CBF per DIMM.
        let mut pass1 = Medal::new(self.cfg.hw, self.local_maps());
        pass1.submit_observed(traces.iter().cloned(), obs);
        let r1 = pass1.run_observed(obs);

        // Merge: bulk-read the global filter (striped) from every DIMM.
        let merge_spec = [RegionSpec::spatial(Region::Bloom, self.cfg.cbf_bytes)];
        let merge_map = self.cfg.hw.region_map(&merge_spec);
        let mut merge = Medal::with_shared_map(self.cfg.hw, merge_map);
        let n_modules = self.cfg.hw.dimm_count() as usize;
        for m in 0..n_modules {
            for t in self.merge_traces() {
                merge.submit_to(m, t, obs);
            }
        }
        let r2 = merge.run_observed(obs);

        // Pass 2: count again against the (now local) global filter.
        let mut pass2 = Medal::new(self.cfg.hw, self.local_maps());
        pass2.submit_observed(traces.iter().cloned(), obs);
        let r3 = pass2.run_observed(obs);

        combine(vec![r1, r2, r3], traces.len())
    }

    /// Runs only a single local pass (a lower bound used in tests).
    pub fn run_single_local_pass(&self, traces: &[TaskTrace]) -> RunResult {
        let mut pass = Medal::new(self.cfg.hw, self.local_maps());
        pass.submit_round_robin(traces.iter().cloned());
        pass.run()
    }
}

/// Combines sequential phase results into one (cycles add, counters
/// merge, `tasks` is the caller's workload size).
pub fn combine(results: Vec<RunResult>, tasks: usize) -> RunResult {
    let mut it = results.into_iter();
    let mut acc = it.next().expect("at least one phase");
    for r in it {
        acc.cycles += r.cycles;
        acc.dram.merge(&r.dram);
        acc.comm.merge(&r.comm);
        acc.engine.merge(&r.engine);
        acc.pe_busy_cycles += r.pe_busy_cycles;
        for (a, b) in acc.chip_histograms.iter_mut().zip(&r.chip_histograms) {
            if a.len() == b.len() {
                a.merge(b);
            }
        }
    }
    acc.tasks = tasks;
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_genomics::genome::{Genome, GenomeId};
    use beacon_genomics::kmer::KmerCounter;
    use beacon_genomics::reads::ReadSampler;

    fn kmer_traces(n: usize, cbf_bytes: u64) -> Vec<TaskTrace> {
        let g = Genome::synthetic(GenomeId::Human, 3000, 3);
        let counter = KmerCounter::new(28, cbf_bytes as usize, 3, 7);
        let mut sampler = ReadSampler::new(&g, 60, 0.01, 4);
        (0..n)
            .map(|_| counter.trace_read(&sampler.next_read()))
            .collect()
    }

    fn small_cfg(cbf_bytes: u64) -> NestConfig {
        let mut cfg = NestConfig::paper(cbf_bytes);
        cfg.hw.pes_per_dimm = 8;
        cfg.hw.refresh_enabled = false;
        cfg
    }

    #[test]
    fn multipass_runs_and_counts_tasks() {
        let cbf = 64 * 1024;
        let traces = kmer_traces(12, cbf);
        let nest = Nest::new(small_cfg(cbf));
        let r = nest.run_multipass(&traces, &mut Observer::default());
        assert_eq!(r.tasks, 12);
        assert!(r.cycles > 0);
        // Atomic RMWs happened.
        assert!(r.engine.get("server.atomic_ops") > 0);
    }

    #[test]
    fn multipass_costs_more_than_single_pass() {
        let cbf = 64 * 1024;
        let traces = kmer_traces(12, cbf);
        let nest = Nest::new(small_cfg(cbf));
        let multi = nest.run_multipass(&traces, &mut Observer::default());
        let single = nest.run_single_local_pass(&traces);
        assert!(multi.cycles > single.cycles);
    }

    #[test]
    fn merge_generates_inter_dimm_traffic() {
        let cbf = 64 * 1024;
        let traces = kmer_traces(6, cbf);
        let nest = Nest::new(small_cfg(cbf));
        let multi = nest.run_multipass(&traces, &mut Observer::default());
        let single = nest.run_single_local_pass(&traces);
        assert!(multi.comm.get("cxl.wire_bytes") > single.comm.get("cxl.wire_bytes"));
    }

    #[test]
    fn merge_trace_covers_whole_cbf() {
        let cbf = 10_000;
        let nest = Nest::new(small_cfg(cbf));
        let total: u64 = nest.merge_traces().iter().map(TaskTrace::total_bytes).sum();
        assert_eq!(total, cbf);
    }

    #[test]
    fn idealized_merge_is_not_slower() {
        // NEST's passes are local, so idealised communication only
        // shortens the merge. Instantaneous delivery also interleaves the
        // four requester streams at the target controllers, which can
        // cost a few percent of FR-FCFS row locality — allow that
        // scheduling noise but nothing more.
        let cbf = 64 * 1024;
        let traces = kmer_traces(8, cbf);
        let real = Nest::new(small_cfg(cbf)).run_multipass(&traces, &mut Observer::default());
        let ideal =
            Nest::new(small_cfg(cbf).idealized()).run_multipass(&traces, &mut Observer::default());
        assert!(
            (ideal.cycles as f64) < real.cycles as f64 * 1.08,
            "ideal {} vs real {}",
            ideal.cycles,
            real.cycles
        );
    }
}
