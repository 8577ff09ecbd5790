//! DDR4 timing and geometry parameters.
//!
//! Values follow the paper's Table I: DDR4-1600 with CL-tRCD-tRP =
//! 22-22-22 and 64 GB DIMMs built from 8 Gb x4 chips (4 ranks × 16 chips,
//! 4 bank groups × 4 banks).

use beacon_sim::cycle::Duration;

/// Primary DDR4 timing parameters, in DRAM bus cycles.
///
/// Only the constraints that influence the modelled applications are kept;
/// they are the same set Ramulator enforces on the critical path of reads
/// and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Cycle time in picoseconds (DDR4-1600 ⇒ 1250 ps).
    pub tck_ps: u64,
    /// CAS latency: READ command to first data beat.
    pub cl: u64,
    /// CAS write latency: WRITE command to first data beat.
    pub cwl: u64,
    /// ACT to internal READ/WRITE delay.
    pub trcd: u64,
    /// PRE to ACT delay (same bank).
    pub trp: u64,
    /// ACT to PRE delay (same bank).
    pub tras: u64,
    /// Column-to-column delay (same bank group).
    pub tccd: u64,
    /// READ to PRE delay.
    pub trtp: u64,
    /// End of write burst to PRE delay (write recovery).
    pub twr: u64,
    /// ACT to ACT delay, different banks of the same rank.
    pub trrd: u64,
    /// Four-activate window (per rank).
    pub tfaw: u64,
    /// Burst length in bus cycles (BL8 on a DDR bus ⇒ 4 cycles).
    pub tbl: u64,
    /// Average refresh interval.
    pub trefi: u64,
    /// Refresh cycle time (all banks of a rank busy).
    pub trfc: u64,
}

impl TimingParams {
    /// DDR4-1600 at 22-22-22, the grade used throughout the paper.
    pub fn ddr4_1600_22() -> Self {
        TimingParams {
            tck_ps: 1250,
            cl: 22,
            cwl: 16,
            trcd: 22,
            trp: 22,
            tras: 28,
            tccd: 4,
            trtp: 6,
            twr: 12,
            trrd: 5,
            tfaw: 20,
            tbl: 4,
            trefi: 6240, // 7.8 us / 1.25 ns
            trfc: 280,   // 350 ns for 8 Gb devices
        }
    }

    /// ACT → PRE → ACT minimum period (row cycle time).
    pub fn trc(&self) -> u64 {
        self.tras + self.trp
    }

    /// Duration helper: `cycles` as a [`Duration`].
    pub fn dur(&self, cycles: u64) -> Duration {
        Duration::new(cycles)
    }

    /// Peak data-bus bandwidth of one chip in bytes per cycle, given the
    /// chip IO width in bits. A DDR bus moves two beats per cycle.
    pub fn chip_bytes_per_cycle(&self, io_bits: u32) -> f64 {
        (io_bits as f64) * 2.0 / 8.0
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first violated relationship.
    pub fn validate(&self) -> Result<(), String> {
        if self.tck_ps == 0 {
            return Err("tck_ps must be positive".into());
        }
        if self.tras < self.trcd {
            return Err("tRAS must cover tRCD".into());
        }
        if self.tfaw < self.trrd {
            return Err("tFAW must be at least tRRD".into());
        }
        if self.tbl == 0 {
            return Err("burst length must be positive".into());
        }
        Ok(())
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::ddr4_1600_22()
    }
}

/// Physical organisation of one DIMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimmGeometry {
    /// Ranks per DIMM.
    pub ranks: u32,
    /// DRAM chips per rank.
    pub chips_per_rank: u32,
    /// IO width of one chip in bits (x4 devices ⇒ 4).
    pub chip_io_bits: u32,
    /// Banks per chip (bank groups × banks per group).
    pub banks: u32,
    /// Rows per bank.
    pub rows: u64,
    /// Row (page) size of one chip in bytes (x4 8 Gb ⇒ 512 B).
    pub row_bytes_per_chip: u32,
}

impl DimmGeometry {
    /// The 64 GB DIMM of the paper: 8 Gb x4 chips, 4 ranks × 16 chips,
    /// 16 banks, 128 Ki rows × 512 B pages.
    pub fn ddr4_8gb_x4() -> Self {
        DimmGeometry {
            ranks: 4,
            chips_per_rank: 16,
            chip_io_bits: 4,
            banks: 16,
            rows: 1 << 17,
            row_bytes_per_chip: 512,
        }
    }

    /// Bytes delivered by one chip in one burst (BL8 × io/8).
    pub fn burst_bytes_per_chip(&self) -> u32 {
        self.chip_io_bits * 8 / 8 // 8 beats × io_bits bits / 8 bits-per-byte
    }

    /// Total DIMM capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.ranks as u64)
            * (self.chips_per_rank as u64)
            * (self.banks as u64)
            * self.rows
            * (self.row_bytes_per_chip as u64)
    }

    /// Column (burst) positions in one row of one chip.
    pub fn cols_per_row(&self) -> u32 {
        self.row_bytes_per_chip / self.burst_bytes_per_chip()
    }

    /// The simulation-scaled DIMM: identical structure to
    /// [`DimmGeometry::ddr4_8gb_x4`] but with rows shrunk 8x (64 B per
    /// chip). The reproduction scales datasets down ~1000x; shrinking the
    /// row proportionally keeps the row-hit/row-miss mix of the
    /// full-size system (a fine-grained random index access misses its
    /// row buffer almost always, exactly as a multi-GB index would).
    pub fn sim_scaled() -> Self {
        DimmGeometry {
            row_bytes_per_chip: 64,
            ..DimmGeometry::ddr4_8gb_x4()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first violated relationship.
    pub fn validate(&self) -> Result<(), String> {
        if self.ranks == 0 || self.chips_per_rank == 0 || self.banks == 0 || self.rows == 0 {
            return Err("geometry dimensions must be positive".into());
        }
        if !self
            .row_bytes_per_chip
            .is_multiple_of(self.burst_bytes_per_chip())
        {
            return Err("row size must be a whole number of bursts".into());
        }
        Ok(())
    }
}

impl Default for DimmGeometry {
    fn default() -> Self {
        DimmGeometry::ddr4_8gb_x4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimm_is_64_gib() {
        let g = DimmGeometry::ddr4_8gb_x4();
        assert_eq!(g.capacity_bytes(), 64 << 30);
    }

    #[test]
    fn burst_bytes_for_x4_is_4() {
        let g = DimmGeometry::ddr4_8gb_x4();
        assert_eq!(g.burst_bytes_per_chip(), 4);
        assert_eq!(g.cols_per_row(), 128);
    }

    #[test]
    fn default_timing_is_valid() {
        assert!(TimingParams::ddr4_1600_22().validate().is_ok());
        assert!(DimmGeometry::ddr4_8gb_x4().validate().is_ok());
    }

    #[test]
    fn invalid_timing_detected() {
        let mut t = TimingParams::ddr4_1600_22();
        t.tras = 1;
        assert!(t.validate().is_err());
    }

    #[test]
    fn chip_bandwidth_matches_ddr() {
        let t = TimingParams::ddr4_1600_22();
        // x4 chip: 4 bits × 2 beats = 1 byte per cycle.
        assert_eq!(t.chip_bytes_per_cycle(4), 1.0);
        // full 64-bit rank: 16 bytes per cycle = 12.8 GB/s at 800 MHz.
        assert_eq!(t.chip_bytes_per_cycle(64), 16.0);
    }

    #[test]
    fn trc_is_tras_plus_trp() {
        let t = TimingParams::ddr4_1600_22();
        assert_eq!(t.trc(), t.tras + t.trp);
    }
}
