//! The energy model: DRAM + communication + computation.
//!
//! Mirrors the paper's methodology: DRAM energy from DRAMPower-style
//! event counters (`beacon-dram::power`), communication energy from
//! per-byte link/bus constants (CACTI-IO for the DDR channel, Keckler et
//! al. for high-speed serial links), and PE energy from the 28 nm
//! synthesis numbers of Table II.

use beacon_accel::result::RunResult;
use beacon_dram::power::{DramEnergy, EnergyParams};

/// PE synthesis results (paper Table II, 28 nm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeHardware {
    /// Architecture name.
    pub name: &'static str,
    /// Area in µm².
    pub area_um2: f64,
    /// Dynamic power in mW (when busy).
    pub dynamic_mw: f64,
    /// Leakage power in µW.
    pub leakage_uw: f64,
}

impl PeHardware {
    /// MEDAL's PE (single-purpose FM/hash seeding).
    pub const MEDAL: PeHardware = PeHardware {
        name: "MEDAL",
        area_um2: 8941.39,
        dynamic_mw: 10.57,
        leakage_uw: 36.16,
    };

    /// NEST's PE (single-purpose k-mer counting).
    pub const NEST: PeHardware = PeHardware {
        name: "NEST",
        area_um2: 16721.12,
        dynamic_mw: 8.12,
        leakage_uw: 24.83,
    };

    /// BEACON's multi-purpose PE (FM + hash + KMC + pre-alignment
    /// engines).
    pub const BEACON: PeHardware = PeHardware {
        name: "BEACON",
        area_um2: 14090.23,
        dynamic_mw: 9.48,
        leakage_uw: 18.97,
    };

    /// All three rows of Table II.
    pub const TABLE2: [PeHardware; 3] = [PeHardware::MEDAL, PeHardware::NEST, PeHardware::BEACON];
}

/// Energy breakdown of one run, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// DRAM device energy.
    pub dram_pj: f64,
    /// Communication energy (links + switch buses).
    pub comm_pj: f64,
    /// PE computation energy (dynamic + leakage).
    pub compute_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total_pj(&self) -> f64 {
        self.dram_pj + self.comm_pj + self.compute_pj
    }

    /// Fraction of total energy spent on communication (the paper's
    /// Fig. 17 metric).
    pub fn comm_share(&self) -> f64 {
        if self.total_pj() == 0.0 {
            return 0.0;
        }
        self.comm_pj / self.total_pj()
    }

    /// Fraction of total energy spent on computation.
    pub fn compute_share(&self) -> f64 {
        if self.total_pj() == 0.0 {
            return 0.0;
        }
        self.compute_pj / self.total_pj()
    }

    /// Total in joules.
    pub fn total_joules(&self) -> f64 {
        self.total_pj() * 1e-12
    }
}

/// The assembled energy model for one system kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Link energy per wire byte (CXL SerDes or DDR channel I/O).
    pub link_pj_per_byte: f64,
    /// Switch-internal bus energy per byte.
    pub bus_pj_per_byte: f64,
    /// PE synthesis point.
    pub pe: PeHardware,
    /// Total PEs (for leakage).
    pub total_pes: usize,
    /// DRAM event-energy constants.
    pub dram: EnergyParams,
    /// DRAM cycle time in picoseconds.
    pub tck_ps: u64,
}

impl EnergyModel {
    /// BEACON over CXL: ~10 pJ/bit SerDes links.
    pub fn beacon(total_pes: usize) -> Self {
        EnergyModel {
            link_pj_per_byte: 80.0,
            bus_pj_per_byte: 15.0,
            pe: PeHardware::BEACON,
            total_pes,
            dram: EnergyParams::ddr4_8gb_x4(),
            tck_ps: 1250,
        }
    }

    /// MEDAL/NEST over a DDR channel: ~19 pJ/bit channel I/O (CACTI-IO),
    /// and the host forwarding path.
    pub fn ddr_baseline(pe: PeHardware, total_pes: usize) -> Self {
        EnergyModel {
            link_pj_per_byte: 150.0,
            bus_pj_per_byte: 15.0,
            pe,
            total_pes,
            dram: EnergyParams::ddr4_8gb_x4(),
            tck_ps: 1250,
        }
    }

    /// Computes the breakdown of a run.
    pub fn breakdown(&self, result: &RunResult) -> EnergyBreakdown {
        let dram =
            DramEnergy::from_stats(&result.dram, &self.dram, result.total_chips, result.cycles);

        let wire_bytes = result.comm.get("cxl.wire_bytes") as f64;
        let bus_bytes = result.comm.get("switch.bus_bytes") as f64;
        let comm_pj = wire_bytes * self.link_pj_per_byte + bus_bytes * self.bus_pj_per_byte;

        // Dynamic: busy-PE cycle integral × per-cycle dynamic energy.
        let dyn_pj_per_cycle = self.pe.dynamic_mw * 1e-3 * (self.tck_ps as f64) * 1e-12 * 1e12;
        let dynamic_pj = result.pe_busy_cycles as f64 * dyn_pj_per_cycle;
        // Leakage: all PEs, all cycles.
        let leak_pj_per_cycle = self.pe.leakage_uw * 1e-6 * (self.tck_ps as f64) * 1e-12 * 1e12;
        let leakage_pj = (self.total_pes as f64) * (result.cycles as f64) * leak_pj_per_cycle;

        EnergyBreakdown {
            dram_pj: dram.total_pj(),
            comm_pj,
            compute_pj: dynamic_pj + leakage_pj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_sim::stats::Stats;

    fn result_with(wire_bytes: u64, rd_chips: u64, busy: u64, cycles: u64) -> RunResult {
        let mut dram = Stats::new();
        dram.add("dram.rd_burst_chips", rd_chips);
        let mut comm = Stats::new();
        comm.add("cxl.wire_bytes", wire_bytes);
        RunResult {
            cycles,
            tasks: 1,
            dram,
            comm,
            engine: Stats::new(),
            pe_busy_cycles: busy,
            total_chips: 64,
            chip_histograms: vec![],
            degraded: None,
            attribution: None,
        }
    }

    #[test]
    fn table2_constants_match_paper() {
        assert_eq!(PeHardware::MEDAL.area_um2, 8941.39);
        assert_eq!(PeHardware::NEST.dynamic_mw, 8.12);
        assert_eq!(PeHardware::BEACON.leakage_uw, 18.97);
        // BEACON's PE is smaller than NEST's and leaks less than both.
        let beacon = PeHardware::BEACON;
        let nest = PeHardware::NEST;
        let medal = PeHardware::MEDAL;
        assert!(beacon.area_um2 < nest.area_um2);
        assert!(beacon.leakage_uw < medal.leakage_uw);
    }

    #[test]
    fn comm_energy_scales_with_wire_bytes() {
        let m = EnergyModel::beacon(512);
        let a = m.breakdown(&result_with(1000, 0, 0, 100));
        let b = m.breakdown(&result_with(2000, 0, 0, 100));
        assert!((b.comm_pj / a.comm_pj - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dram_energy_present_when_bursts_counted() {
        let m = EnergyModel::beacon(512);
        let e = m.breakdown(&result_with(0, 100, 0, 100));
        assert!(e.dram_pj > 0.0);
    }

    #[test]
    fn compute_is_dynamic_plus_leakage() {
        let m = EnergyModel::beacon(512);
        let idle = m.breakdown(&result_with(0, 0, 0, 1000));
        let busy = m.breakdown(&result_with(0, 0, 500_000, 1000));
        assert!(idle.compute_pj > 0.0, "leakage always present");
        assert!(busy.compute_pj > idle.compute_pj);
    }

    #[test]
    fn shares_sum_to_one() {
        let m = EnergyModel::beacon(512);
        let e = m.breakdown(&result_with(1000, 100, 1000, 1000));
        let dram_share = e.dram_pj / e.total_pj();
        assert!((e.comm_share() + e.compute_share() + dram_share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ddr_links_cost_more_per_byte_than_cxl() {
        let cxl = EnergyModel::beacon(512);
        let ddr = EnergyModel::ddr_baseline(PeHardware::MEDAL, 512);
        assert!(ddr.link_pj_per_byte > cxl.link_pj_per_byte);
    }
}
