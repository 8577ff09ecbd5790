//! The analytical 48-thread CPU baseline (paper Table I).
//!
//! The paper normalises every result to software on a dual-socket Xeon
//! E5-2680 v3 (48 threads, 2.5 GHz, four DDR4-1600 channels). Running
//! BWA-MEM/SMALT/BFCounter/Shouji is out of scope for a simulator
//! artifact, so the baseline is an analytical roofline over the *same
//! workload summary* the accelerators execute: the CPU is limited by
//! whichever is slower of
//!
//! * **memory**: every fine-grained random access costs at least one
//!   64 B cache line over the channels at a random-access-derated
//!   bandwidth, and
//! * **compute**: each kernel step costs a per-application number of
//!   instructions across the 48 threads.
//!
//! This reproduces the *shape* that matters — the CPU wastes most of each
//! cache line on fine-grained accesses and has far less usable random
//! bandwidth than in-DIMM NDP.

use beacon_genomics::trace::{AppKind, TaskTrace};

/// Summary of a workload: everything the roofline model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSummary {
    /// Application.
    pub app: AppKind,
    /// Number of tasks (reads / candidates).
    pub tasks: u64,
    /// Total dependency steps.
    pub steps: u64,
    /// Total memory accesses.
    pub accesses: u64,
    /// Total useful bytes moved.
    pub bytes: u64,
}

impl WorkloadSummary {
    /// Builds the summary of a batch of traces.
    ///
    /// # Panics
    /// Panics when `traces` is empty or apps are mixed.
    pub fn from_traces(traces: &[TaskTrace]) -> Self {
        assert!(!traces.is_empty(), "empty workload");
        let app = traces[0].app;
        assert!(
            traces.iter().all(|t| t.app == app),
            "mixed applications in one workload"
        );
        WorkloadSummary {
            app,
            tasks: traces.len() as u64,
            steps: traces.iter().map(|t| t.steps.len() as u64).sum(),
            accesses: traces.iter().map(|t| t.access_count() as u64).sum(),
            bytes: traces.iter().map(TaskTrace::total_bytes).sum(),
        }
    }
}

/// Result of the CPU roofline: runtime and energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuRun {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Total energy in joules (package + DRAM).
    pub energy_joules: f64,
    /// Runtime expressed in DDR4-1600 DRAM cycles (800 MHz) for direct
    /// comparison with the simulators.
    pub dram_cycles: u64,
}

/// Parameters of the CPU baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Hardware threads.
    pub threads: u32,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// DDR channels.
    pub channels: u32,
    /// Peak bandwidth per channel in GB/s.
    pub channel_gbps: f64,
    /// Effective fraction of peak bandwidth under fine-grained random
    /// access (row misses, open-page thrash).
    pub random_bw_derate: f64,
    /// Package power in watts (both sockets).
    pub package_watts: f64,
    /// DRAM subsystem power in watts.
    pub dram_watts: f64,
}

impl CpuModel {
    /// The paper's baseline: 2× Xeon E5-2680 v3, 48 threads @ 2.5 GHz,
    /// 4 DDR4-1600 channels.
    pub fn xeon_e5_2680_v3() -> Self {
        CpuModel {
            threads: 48,
            freq_ghz: 2.5,
            channels: 4,
            channel_gbps: 12.8,
            random_bw_derate: 0.35,
            package_watts: 240.0,
            dram_watts: 50.0,
        }
    }

    /// CPU cycles per kernel step, calibrated so the roofline matches the
    /// measured throughput of the paper's software baselines rather than
    /// a theoretical lower bound. A hardware "step" maps to far more
    /// software work: BWA-MEM's seeding loop does SMEM bookkeeping,
    /// re-seeding and chaining around each Occ pair; SMALT re-ranks
    /// candidates per probe; BFCounter takes locks and chases a hash map
    /// beside the filter; Shouji runs its window search serially.
    pub fn cycles_per_step(app: AppKind) -> f64 {
        match app {
            AppKind::FmSeeding => 10_000.0,
            AppKind::HashSeeding => 6_000.0,
            AppKind::KmerCounting => 2_500.0,
            AppKind::PreAlignment => 8_000.0,
        }
    }

    /// Runs the roofline for a workload.
    pub fn run(&self, w: &WorkloadSummary) -> CpuRun {
        // Memory roof: each access moves at least one 64 B line; larger
        // accesses move ceil(bytes/64) lines. Approximate the line count
        // by accesses plus the extra lines of bulk transfers.
        let bulk_lines = w.bytes / 64;
        let lines = w.accesses.max(bulk_lines) + bulk_lines / 4;
        let bw = self.channels as f64 * self.channel_gbps * 1e9 * self.random_bw_derate;
        let mem_seconds = (lines as f64 * 64.0) / bw;

        // Compute roof.
        let cps = Self::cycles_per_step(w.app);
        let compute_seconds = (w.steps as f64 * cps) / (self.threads as f64 * self.freq_ghz * 1e9);

        let seconds = mem_seconds.max(compute_seconds);
        let energy = seconds * (self.package_watts + self.dram_watts);
        CpuRun {
            seconds,
            energy_joules: energy,
            dram_cycles: (seconds * 800e6).round() as u64,
        }
    }
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel::xeon_e5_2680_v3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_genomics::trace::{Access, Region, Step};

    fn fm_workload(tasks: u64, steps_per_task: u64) -> WorkloadSummary {
        WorkloadSummary {
            app: AppKind::FmSeeding,
            tasks,
            steps: tasks * steps_per_task,
            accesses: tasks * steps_per_task * 2,
            bytes: tasks * steps_per_task * 64,
        }
    }

    #[test]
    fn runtime_scales_with_workload() {
        let cpu = CpuModel::default();
        let small = cpu.run(&fm_workload(1000, 100));
        let large = cpu.run(&fm_workload(10_000, 100));
        assert!((large.seconds / small.seconds - 10.0).abs() < 0.01);
    }

    #[test]
    fn fm_seeding_is_software_bound() {
        // The calibrated software cost dominates the raw bandwidth roof
        // (the software baselines never reach streaming bandwidth).
        let cpu = CpuModel::default();
        let w = fm_workload(1000, 100);
        let compute =
            w.steps as f64 * CpuModel::cycles_per_step(AppKind::FmSeeding) / (48.0 * 2.5e9);
        let run = cpu.run(&w);
        assert!((run.seconds - compute).abs() / compute < 1e-9);
    }

    #[test]
    fn energy_tracks_runtime() {
        let cpu = CpuModel::default();
        let r = cpu.run(&fm_workload(1000, 50));
        assert!((r.energy_joules - r.seconds * 290.0).abs() < 1e-9);
    }

    #[test]
    fn dram_cycles_conversion() {
        let cpu = CpuModel::default();
        let r = cpu.run(&fm_workload(100, 10));
        assert_eq!(r.dram_cycles, (r.seconds * 800e6).round() as u64);
    }

    #[test]
    fn summary_from_traces() {
        let traces = vec![
            TaskTrace::new(
                AppKind::FmSeeding,
                vec![Step::blocking(vec![
                    Access::read(Region::FmIndex, 0, 32),
                    Access::read(Region::FmIndex, 64, 32),
                ])],
            );
            3
        ];
        let w = WorkloadSummary::from_traces(&traces);
        assert_eq!(w.tasks, 3);
        assert_eq!(w.steps, 3);
        assert_eq!(w.accesses, 6);
        assert_eq!(w.bytes, 192);
    }

    #[test]
    #[should_panic(expected = "mixed applications")]
    fn mixed_apps_rejected() {
        let traces = vec![
            TaskTrace::new(AppKind::FmSeeding, vec![Step::blocking(vec![])]),
            TaskTrace::new(AppKind::KmerCounting, vec![Step::blocking(vec![])]),
        ];
        let _ = WorkloadSummary::from_traces(&traces);
    }
}
