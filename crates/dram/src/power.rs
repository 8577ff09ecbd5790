//! DRAMPower-style event-counter energy model.
//!
//! The [`crate::module::Dimm`] counts chip-level command events
//! (`dram.act_chips`, `dram.rd_burst_chips`, …). This module turns those
//! counters into energy using per-event constants derived from DDR4 8 Gb x4
//! datasheet currents at 1.2 V — the same methodology as DRAMPower, which
//! the paper uses for its DRAM energy numbers.

use beacon_sim::stats::Stats;

/// Per-event energy constants, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// One ACT+PRE pair on one chip (row cycle energy).
    pub act_pre_per_chip_pj: f64,
    /// One read burst (BL8) on one chip, core + on-DIMM IO.
    pub rd_burst_per_chip_pj: f64,
    /// One write burst (BL8) on one chip.
    pub wr_burst_per_chip_pj: f64,
    /// One all-bank refresh on one chip.
    pub refresh_per_chip_pj: f64,
    /// Background (standby) energy per chip per DRAM cycle.
    pub background_per_chip_cycle_pj: f64,
}

impl EnergyParams {
    /// Constants for DDR4-1600 8 Gb x4 devices at 1.2 V.
    ///
    /// Derived from datasheet currents: IDD0-based row-cycle energy
    /// ≈ 0.9 nJ/chip, per-burst read/write energy (IDD4R/IDD4W minus
    /// background, plus x4 IO switching) ≈ 0.35/0.37 nJ, refresh (IDD5B
    /// over tRFC) ≈ 2.2 nJ, and IDD3N-based background ≈ 46 mW ⇒
    /// 0.0575 nJ per 1.25 ns cycle.
    pub fn ddr4_8gb_x4() -> Self {
        EnergyParams {
            act_pre_per_chip_pj: 900.0,
            rd_burst_per_chip_pj: 350.0,
            wr_burst_per_chip_pj: 370.0,
            refresh_per_chip_pj: 2200.0,
            // 46 mW × 1.25 ns = 57.5 pJ per chip per cycle.
            background_per_chip_cycle_pj: 57.5,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams::ddr4_8gb_x4()
    }
}

/// Energy breakdown of one DIMM over a simulated interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DramEnergy {
    /// Row activate/precharge energy (pJ).
    pub act_pre_pj: f64,
    /// Read-burst energy (pJ).
    pub read_pj: f64,
    /// Write-burst energy (pJ).
    pub write_pj: f64,
    /// Refresh energy (pJ).
    pub refresh_pj: f64,
    /// Standby/background energy (pJ).
    pub background_pj: f64,
}

impl DramEnergy {
    /// Computes the breakdown from a DIMM's stats registry.
    ///
    /// `total_chips` is the number of chips on the DIMM and `cycles` the
    /// simulated interval (for background energy).
    pub fn from_stats(stats: &Stats, params: &EnergyParams, total_chips: u64, cycles: u64) -> Self {
        DramEnergy {
            act_pre_pj: stats.get("dram.act_chips") as f64 * params.act_pre_per_chip_pj,
            read_pj: stats.get("dram.rd_burst_chips") as f64 * params.rd_burst_per_chip_pj,
            write_pj: stats.get("dram.wr_burst_chips") as f64 * params.wr_burst_per_chip_pj,
            refresh_pj: stats.get("dram.refresh_chips") as f64 * params.refresh_per_chip_pj,
            background_pj: (total_chips * cycles) as f64 * params.background_per_chip_cycle_pj,
        }
    }

    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.act_pre_pj + self.read_pj + self.write_pj + self.refresh_pj + self.background_pj
    }

    /// Dynamic (non-background) energy in picojoules.
    pub fn dynamic_pj(&self) -> f64 {
        self.total_pj() - self.background_pj
    }

    /// Element-wise sum of two breakdowns.
    pub fn add(&self, other: &DramEnergy) -> DramEnergy {
        DramEnergy {
            act_pre_pj: self.act_pre_pj + other.act_pre_pj,
            read_pj: self.read_pj + other.read_pj,
            write_pj: self.write_pj + other.write_pj,
            refresh_pj: self.refresh_pj + other.refresh_pj,
            background_pj: self.background_pj + other.background_pj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_from_counters() {
        let mut s = Stats::new();
        s.add("dram.act_chips", 10);
        s.add("dram.rd_burst_chips", 100);
        let p = EnergyParams::default();
        let e = DramEnergy::from_stats(&s, &p, 64, 1000);
        assert_eq!(e.act_pre_pj, 10.0 * p.act_pre_per_chip_pj);
        assert_eq!(e.read_pj, 100.0 * p.rd_burst_per_chip_pj);
        assert_eq!(e.write_pj, 0.0);
        assert!(e.background_pj > 0.0);
        assert!(e.total_pj() > e.dynamic_pj());
    }

    #[test]
    fn fine_grained_read_uses_less_energy_than_lockstep() {
        // 32 useful bytes: per-chip mode reads 8 bursts on 1 chip;
        // lock-step reads 1 burst on 16 chips (64 B, half wasted).
        let p = EnergyParams::default();
        let fine = 8.0 * p.rd_burst_per_chip_pj + 1.0 * p.act_pre_per_chip_pj;
        let lockstep = 16.0 * p.rd_burst_per_chip_pj + 16.0 * p.act_pre_per_chip_pj;
        assert!(fine < lockstep);
    }

    #[test]
    fn add_is_elementwise() {
        let a = DramEnergy {
            act_pre_pj: 1.0,
            read_pj: 2.0,
            write_pj: 3.0,
            refresh_pj: 4.0,
            background_pj: 5.0,
        };
        let b = a.add(&a);
        assert_eq!(b.total_pj(), 2.0 * a.total_pj());
    }
}
