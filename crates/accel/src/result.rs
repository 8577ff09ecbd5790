//! Raw measurement bundle of one accelerator run.
//!
//! Systems (MEDAL, NEST, BEACON-D/S) produce a [`RunResult`]; the energy
//! model in `beacon-core` turns the counters into joules and the
//! experiment drivers into figures.

use std::fmt::Write as _;

use beacon_sim::journey::Attribution;
use beacon_sim::stats::{Fnv64, Histogram, Stats};

/// RAS outcome of a run that executed under a fault schedule: what
/// broke, what it cost, and how the system degraded instead of dying.
///
/// Deliberately **excluded** from [`RunResult::digest`]: the digest pins
/// the simulated machine state, and a fault-free run must stay
/// bit-identical whether or not the (quiet) fault machinery was armed.
/// Fault effects that change machine state (retry cycles, re-issued
/// accesses, re-mapped placements) show up in the digested counters on
/// their own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradedRun {
    /// Seed of the fault schedule the run executed under.
    pub seed: u64,
    /// Whole-DIMM hard failures executed.
    pub failed_dimms: u64,
    /// Pool capacity lost to failed DIMMs, in bytes.
    pub lost_capacity_bytes: u64,
    /// Link flits that arrived with a bad CRC and were retried.
    pub crc_errors: u64,
    /// Extra link cycles burned by CRC retries and their backoff.
    pub retry_cycles: u64,
    /// Switch-port flap (down-window) events.
    pub port_flaps: u64,
    /// Uncorrectable DRAM errors returned as poisoned reads.
    pub dimm_ue: u64,
    /// Requests nak'd back to their requester (dead DIMM or poison).
    pub naks: u64,
    /// Accesses re-issued after a nak.
    pub requeued: u64,
    /// Accesses abandoned after exhausting their retry budget.
    pub dropped: u64,
    /// Placements re-homed off the dead DIMM by the MMF.
    pub remap_regions: u64,
    /// Bytes the MMF re-homed onto surviving DIMMs.
    pub moved_bytes: u64,
    /// Estimated link cost of that migration, in cycles.
    pub remap_cost_cycles: u64,
}

impl DegradedRun {
    /// True when no fault of any kind actually fired.
    pub fn is_clean(&self) -> bool {
        self.failed_dimms == 0
            && self.crc_errors == 0
            && self.port_flaps == 0
            && self.dimm_ue == 0
            && self.naks == 0
            && self.dropped == 0
    }
}

/// Counters and outcomes of one full system run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Cycles until the workload drained.
    pub cycles: u64,
    /// Tasks completed.
    pub tasks: usize,
    /// Merged DRAM counters of every DIMM (`dram.*`).
    pub dram: Stats,
    /// Merged communication counters of every link/switch (`cxl.*`,
    /// `switch.*`).
    pub comm: Stats,
    /// Merged engine/server counters (`engine.*`, `server.*`).
    pub engine: Stats,
    /// Integral of busy-PE count over time.
    pub pe_busy_cycles: u64,
    /// Total DRAM chips in the system (background energy).
    pub total_chips: u64,
    /// Per-DIMM chip-access histograms (Fig. 13 data).
    pub chip_histograms: Vec<Histogram>,
    /// RAS report when the run executed under a fault schedule
    /// (`None` on a pristine machine). Not part of the digest — see
    /// [`DegradedRun`].
    pub degraded: Option<DegradedRun>,
    /// Request-journey attribution report when the run executed with
    /// sampling enabled (`None` otherwise). Like [`DegradedRun`], this
    /// is observability metadata: **excluded** from the digest, so
    /// enabling attribution can never perturb an equivalence check.
    pub attribution: Option<Attribution>,
}

impl RunResult {
    /// Tasks per kilocycle — the throughput figure used for speedups.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.tasks as f64 * 1000.0 / self.cycles as f64
    }

    /// Wall-clock seconds at a given tCK.
    pub fn seconds(&self, tck_ps: u64) -> f64 {
        self.cycles as f64 * tck_ps as f64 * 1e-12
    }

    /// A stable FNV-1a digest over every field — cycles, task count,
    /// every per-component counter and energy accumulator, the PE busy
    /// integral and all chip histograms.
    ///
    /// Two runs digest equal iff they are observationally identical, so
    /// equivalence tests (sequential vs parallel, golden seed pins)
    /// compare one `u64`. When digests differ, [`RunResult::diff`]
    /// locates the first divergent quantity.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.cycles);
        h.write_u64(self.tasks as u64);
        h.write_str("dram");
        self.dram.digest_into(&mut h);
        h.write_str("comm");
        self.comm.digest_into(&mut h);
        h.write_str("engine");
        self.engine.digest_into(&mut h);
        h.write_u64(self.pe_busy_cycles);
        h.write_u64(self.total_chips);
        h.write_u64(self.chip_histograms.len() as u64);
        for hist in &self.chip_histograms {
            hist.digest_into(&mut h);
        }
        h.finish()
    }

    /// Structured diff against another result: a report naming every
    /// divergent scalar, counter, accumulator and histogram bucket (the
    /// first divergence per component group leads). Returns `None` when
    /// the results are identical.
    pub fn diff(&self, other: &RunResult) -> Option<String> {
        let mut out = String::new();
        let mut scalar = |name: &str, a: u64, b: u64| {
            if a != b {
                let _ = writeln!(out, "{name}: {a} != {b}");
            }
        };
        scalar("cycles", self.cycles, other.cycles);
        scalar("tasks", self.tasks as u64, other.tasks as u64);
        scalar("pe_busy_cycles", self.pe_busy_cycles, other.pe_busy_cycles);
        scalar("total_chips", self.total_chips, other.total_chips);
        for (group, a, b) in [
            ("dram", &self.dram, &other.dram),
            ("comm", &self.comm, &other.comm),
            ("engine", &self.engine, &other.engine),
        ] {
            Self::diff_stats(group, a, b, &mut out);
        }
        if self.chip_histograms.len() != other.chip_histograms.len() {
            let _ = writeln!(
                out,
                "chip_histograms: {} DIMMs != {} DIMMs",
                self.chip_histograms.len(),
                other.chip_histograms.len()
            );
        } else {
            for (i, (a, b)) in self
                .chip_histograms
                .iter()
                .zip(&other.chip_histograms)
                .enumerate()
            {
                if a.buckets() != b.buckets() {
                    let chip = a
                        .buckets()
                        .iter()
                        .zip(b.buckets())
                        .position(|(x, y)| x != y)
                        .unwrap_or(0);
                    let _ = writeln!(
                        out,
                        "chip_histograms[{i}] chip {chip}: {} != {}",
                        a.buckets().get(chip).copied().unwrap_or(0),
                        b.buckets().get(chip).copied().unwrap_or(0),
                    );
                }
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    fn diff_stats(group: &str, a: &Stats, b: &Stats, out: &mut String) {
        let keys: std::collections::BTreeSet<&str> = a
            .iter()
            .map(|(k, _)| k)
            .chain(b.iter().map(|(k, _)| k))
            .collect();
        for k in keys {
            let (x, y) = (a.get(k), b.get(k));
            if x != y {
                let _ = writeln!(out, "{group}.{k}: {x} != {y}");
            }
        }
        let fkeys: std::collections::BTreeSet<&str> = a
            .iter_f64()
            .map(|(k, _)| k)
            .chain(b.iter_f64().map(|(k, _)| k))
            .collect();
        for k in fkeys {
            let (x, y) = (a.get_f64(k), b.get_f64(k));
            if x.to_bits() != y.to_bits() {
                let _ = writeln!(out, "{group}.{k}: {x} != {y}");
            }
        }
    }

    /// Merged per-chip histogram across all DIMMs.
    pub fn merged_chip_histogram(&self) -> Option<Histogram> {
        let mut it = self.chip_histograms.iter();
        let first = it.next()?;
        let mut merged = first.clone();
        for h in it {
            if h.len() == merged.len() {
                merged.merge(h);
            }
        }
        Some(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_tasks_per_kilocycle() {
        let r = RunResult {
            cycles: 10_000,
            tasks: 50,
            dram: Stats::new(),
            comm: Stats::new(),
            engine: Stats::new(),
            pe_busy_cycles: 0,
            total_chips: 0,
            chip_histograms: vec![],
            degraded: None,
            attribution: None,
        };
        assert_eq!(r.throughput(), 5.0);
        assert!((r.seconds(1250) - 1.25e-5).abs() < 1e-18);
    }

    fn sample() -> RunResult {
        let mut dram = Stats::new();
        dram.add("dram.reads", 42);
        let mut engine = Stats::new();
        engine.add_f64("engine.util", 0.5);
        let mut hist = Histogram::new(4);
        hist.record(2, 1);
        RunResult {
            cycles: 10_000,
            tasks: 50,
            dram,
            comm: Stats::new(),
            engine,
            pe_busy_cycles: 123,
            total_chips: 8,
            chip_histograms: vec![hist],
            degraded: None,
            attribution: None,
        }
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let a = sample();
        let b = sample();
        assert_eq!(a.digest(), b.digest());
        assert!(a.diff(&b).is_none());

        let mut c = sample();
        c.dram.incr("dram.reads");
        assert_ne!(a.digest(), c.digest());

        let mut d = sample();
        d.chip_histograms[0].record(3, 1);
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn degraded_report_stays_out_of_the_digest() {
        // The digest pins machine state; the RAS report is metadata. A
        // quiet armed run must digest identically to an unarmed one.
        let a = sample();
        let mut b = sample();
        b.degraded = Some(DegradedRun {
            seed: 42,
            failed_dimms: 1,
            naks: 7,
            ..DegradedRun::default()
        });
        assert_eq!(a.digest(), b.digest());
        assert!(a.diff(&b).is_none());
        assert!(!b.degraded.unwrap().is_clean());
        assert!(DegradedRun::default().is_clean());
    }

    #[test]
    fn attribution_report_stays_out_of_the_digest() {
        // Same contract as the RAS report: attribution is observability
        // metadata, so a sampled run digests identically to a blind one.
        let a = sample();
        let mut b = sample();
        b.attribution = Some(Attribution {
            sample_every: 8,
            seen: 100,
            tracked: 13,
            ..Default::default()
        });
        assert_eq!(a.digest(), b.digest());
        assert!(a.diff(&b).is_none());
    }

    #[test]
    fn diff_names_the_divergent_counter() {
        let a = sample();
        let mut b = sample();
        b.cycles += 1;
        b.dram.incr("dram.reads");
        b.engine.add_f64("engine.util", 0.25);
        b.chip_histograms[0].record(1, 1);
        let report = a.diff(&b).expect("divergent");
        assert!(report.contains("cycles: 10000 != 10001"), "{report}");
        assert!(report.contains("dram.dram.reads: 42 != 43"), "{report}");
        assert!(
            report.contains("engine.engine.util: 0.5 != 0.75"),
            "{report}"
        );
        assert!(
            report.contains("chip_histograms[0] chip 1: 0 != 1"),
            "{report}"
        );
    }

    #[test]
    fn zero_cycles_is_zero_throughput() {
        let r = RunResult {
            cycles: 0,
            tasks: 50,
            dram: Stats::new(),
            comm: Stats::new(),
            engine: Stats::new(),
            pe_busy_cycles: 0,
            total_chips: 0,
            chip_histograms: vec![],
            degraded: None,
            attribution: None,
        };
        assert_eq!(r.throughput(), 0.0);
        assert!(r.merged_chip_histogram().is_none());
    }
}
