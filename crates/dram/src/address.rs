//! DIMM-local coordinates and standard interleaving schemes.
//!
//! A [`DramCoord`] pinpoints one burst-aligned location inside a DIMM:
//! `(rank, chip-group, bank, row, col)`. The BEACON memory-management
//! framework decides *which* DIMM and *which* scheme; [`Interleave`]
//! provides the two standard decodes the paper contrasts:
//!
//! * **rank-level** interleave — consecutive cache lines rotate across
//!   ranks, every access drives the whole rank in lock-step (unmodified
//!   DIMMs, Fig. 10 d–f), and
//! * **chip-level** interleave — consecutive fine-grained blocks rotate
//!   across chip groups inside a rank, exploiting the per-chip chip-select
//!   of CXLG-DIMMs (Fig. 10 a–c).

use crate::params::DimmGeometry;

/// A burst-aligned location inside one DIMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramCoord {
    /// Rank index.
    pub rank: u32,
    /// Chip-group index within the rank (meaning depends on the DIMM's
    /// [`crate::module::AccessMode`]).
    pub group: u32,
    /// Bank index within each chip.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
    /// Column (burst) index within the row.
    pub col: u32,
}

impl DramCoord {
    /// The all-zero coordinate.
    pub fn zero() -> Self {
        DramCoord {
            rank: 0,
            group: 0,
            bank: 0,
            row: 0,
            col: 0,
        }
    }

    /// Packs the coordinate into one `u64` (rank 4 b | group 8 b | bank
    /// 8 b | row 32 b | col 12 b) so it can travel in message words.
    ///
    /// # Panics
    /// Panics (debug) when a field exceeds its packed width; no real DIMM
    /// geometry comes close.
    pub fn pack(&self) -> u64 {
        debug_assert!(self.rank < (1 << 4));
        debug_assert!(self.group < (1 << 8));
        debug_assert!(self.bank < (1 << 8));
        debug_assert!(self.row < (1 << 32));
        debug_assert!(self.col < (1 << 12));
        ((self.rank as u64) << 60)
            | ((self.group as u64) << 52)
            | ((self.bank as u64) << 44)
            | ((self.row) << 12)
            | (self.col as u64)
    }

    /// Inverse of [`DramCoord::pack`].
    pub fn unpack(word: u64) -> Self {
        DramCoord {
            rank: (word >> 60) as u32 & 0xF,
            group: (word >> 52) as u32 & 0xFF,
            bank: (word >> 44) as u32 & 0xFF,
            row: (word >> 12) & 0xFFFF_FFFF,
            col: word as u32 & 0xFFF,
        }
    }
}

/// Standard address-interleaving schemes for a flat DIMM-local byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interleave {
    /// Cache-line rotation across ranks then banks; the whole rank is one
    /// group (`group == 0`). `line_bytes` is the rotation granule (64 B for
    /// a conventional system).
    RankLevel {
        /// Rotation granule in bytes.
        line_bytes: u32,
    },
    /// Fine-grained rotation across chip groups inside a rank, then banks,
    /// then ranks. `block_bytes` is the rotation granule, normally the
    /// fine-grained access size (e.g. 32 B FM-index buckets).
    ChipLevel {
        /// Rotation granule in bytes.
        block_bytes: u32,
        /// Number of chip groups the DIMM is partitioned into.
        groups: u32,
    },
    /// Row-major placement for spatially-local data (paper §IV-C
    /// principle 2): consecutive bytes fill one whole DRAM row of a chip
    /// group, then rotate bank → group → rank. Sequential scans become
    /// row-buffer hits.
    RowMajor {
        /// Number of chip groups the DIMM is partitioned into.
        groups: u32,
    },
}

impl Interleave {
    /// Decodes a flat DIMM-local byte address into a coordinate.
    ///
    /// The decode is a bijection from `[0, capacity)` onto the coordinate
    /// space as long as `granule` divides the row size of a group (checked
    /// by `debug_assert`s; the property tests cover it).
    pub fn decode(&self, geometry: &DimmGeometry, addr: u64) -> DramCoord {
        match *self {
            Interleave::RankLevel { line_bytes } => {
                let line_bytes = line_bytes as u64;
                let rank_line_bytes =
                    (geometry.chips_per_rank * geometry.burst_bytes_per_chip()) as u64;
                debug_assert!(line_bytes.is_multiple_of(rank_line_bytes));
                let bursts_per_line = line_bytes / rank_line_bytes;

                let line = addr / line_bytes;
                let within = addr % line_bytes;
                let burst_in_line = within / rank_line_bytes;

                let rank = line % geometry.ranks as u64;
                let rest = line / geometry.ranks as u64;
                let bank = rest % geometry.banks as u64;
                let rest = rest / geometry.banks as u64;
                let lines_per_row = (geometry.cols_per_row() as u64) / bursts_per_line.max(1);
                let col_base = (rest % lines_per_row) * bursts_per_line;
                let row = rest / lines_per_row;

                DramCoord {
                    rank: rank as u32,
                    group: 0,
                    bank: bank as u32,
                    row: row % geometry.rows,
                    col: (col_base + burst_in_line) as u32,
                }
            }
            Interleave::ChipLevel {
                block_bytes,
                groups,
            } => {
                let block_bytes = block_bytes as u64;
                let chips_per_group = geometry.chips_per_rank / groups;
                let group_burst_bytes = (chips_per_group * geometry.burst_bytes_per_chip()) as u64;
                debug_assert!(block_bytes.is_multiple_of(group_burst_bytes));
                let bursts_per_block = block_bytes / group_burst_bytes;

                let block = addr / block_bytes;
                let within = addr % block_bytes;
                let burst_in_block = within / group_burst_bytes;

                // Rotate chip groups fastest, then ranks, then banks, so
                // even a small region spreads over every independent
                // resource before reusing one.
                let group = block % groups as u64;
                let rest = block / groups as u64;
                let rank = rest % geometry.ranks as u64;
                let rest = rest / geometry.ranks as u64;
                let bank = rest % geometry.banks as u64;
                let rest = rest / geometry.banks as u64;
                let group_cols = geometry.cols_per_row() as u64;
                let blocks_per_row = group_cols / bursts_per_block.max(1);
                let col_base = (rest % blocks_per_row) * bursts_per_block;
                let row = rest / blocks_per_row;

                DramCoord {
                    rank: rank as u32,
                    group: group as u32,
                    bank: bank as u32,
                    row: row % geometry.rows,
                    col: (col_base + burst_in_block) as u32,
                }
            }
            Interleave::RowMajor { groups } => {
                let chips_per_group = geometry.chips_per_rank / groups;
                let group_burst_bytes = (chips_per_group * geometry.burst_bytes_per_chip()) as u64;
                let row_bytes = group_burst_bytes * geometry.cols_per_row() as u64;

                let row_linear = addr / row_bytes;
                let within = addr % row_bytes;
                let col = within / group_burst_bytes;

                // Rotate chip groups fastest so bulk streams engage every
                // chip, then ranks, then banks.
                let group = row_linear % groups as u64;
                let rest = row_linear / groups as u64;
                let rank = rest % geometry.ranks as u64;
                let rest2 = rest / geometry.ranks as u64;
                let bank = rest2 % geometry.banks as u64;
                let row = rest2 / geometry.banks as u64;

                DramCoord {
                    rank: rank as u32,
                    group: group as u32,
                    bank: bank as u32,
                    row: row % geometry.rows,
                    col: col as u32,
                }
            }
        }
    }

    /// The number of chip groups this scheme addresses.
    pub fn groups(&self) -> u32 {
        match *self {
            Interleave::RankLevel { .. } => 1,
            Interleave::ChipLevel { groups, .. } | Interleave::RowMajor { groups } => groups,
        }
    }

    /// The largest byte span guaranteed to decode to consecutive columns
    /// of one `(rank, group, bank, row)` — callers must split accesses at
    /// this granule.
    pub fn contiguous_granule(&self, geometry: &DimmGeometry) -> u64 {
        match *self {
            Interleave::RankLevel { line_bytes } => line_bytes as u64,
            Interleave::ChipLevel { block_bytes, .. } => block_bytes as u64,
            Interleave::RowMajor { groups } => {
                let chips_per_group = geometry.chips_per_rank / groups;
                (chips_per_group * geometry.burst_bytes_per_chip()) as u64
                    * geometry.cols_per_row() as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rank_level_rotates_ranks_per_line() {
        let g = DimmGeometry::ddr4_8gb_x4();
        let s = Interleave::RankLevel { line_bytes: 64 };
        let c0 = s.decode(&g, 0);
        let c1 = s.decode(&g, 64);
        let c2 = s.decode(&g, 128);
        assert_eq!(c0.rank, 0);
        assert_eq!(c1.rank, 1);
        assert_eq!(c2.rank, 2);
        assert_eq!(c0.group, 0);
    }

    #[test]
    fn chip_level_rotates_groups_per_block() {
        let g = DimmGeometry::ddr4_8gb_x4();
        let s = Interleave::ChipLevel {
            block_bytes: 32,
            groups: 2,
        };
        let c0 = s.decode(&g, 0);
        let c1 = s.decode(&g, 32);
        assert_eq!(c0.group, 0);
        assert_eq!(c1.group, 1);
    }

    #[test]
    fn consecutive_bytes_in_line_share_coord_row() {
        let g = DimmGeometry::ddr4_8gb_x4();
        let s = Interleave::RankLevel { line_bytes: 64 };
        let a = s.decode(&g, 3);
        let b = s.decode(&g, 60);
        assert_eq!(a.rank, b.rank);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
    }

    #[test]
    fn rank_level_decode_is_injective_over_lines() {
        let g = DimmGeometry::ddr4_8gb_x4();
        let s = Interleave::RankLevel { line_bytes: 64 };
        let mut seen = HashSet::new();
        for line in 0..4096u64 {
            let c = s.decode(&g, line * 64);
            assert!(seen.insert((c.rank, c.group, c.bank, c.row, c.col)));
        }
    }

    #[test]
    fn chip_level_decode_is_injective_over_blocks() {
        let g = DimmGeometry::ddr4_8gb_x4();
        let s = Interleave::ChipLevel {
            block_bytes: 32,
            groups: 8,
        };
        let mut seen = HashSet::new();
        for blk in 0..4096u64 {
            let c = s.decode(&g, blk * 32);
            assert!(seen.insert((c.rank, c.group, c.bank, c.row, c.col)));
        }
    }

    #[test]
    fn pack_unpack_round_trip() {
        let coords = [
            DramCoord::zero(),
            DramCoord {
                rank: 3,
                group: 15,
                bank: 15,
                row: (1 << 17) - 1,
                col: 127,
            },
            DramCoord {
                rank: 1,
                group: 7,
                bank: 9,
                row: 12345,
                col: 64,
            },
        ];
        for c in coords {
            assert_eq!(DramCoord::unpack(c.pack()), c);
        }
    }

    #[test]
    fn group_count_matches_scheme() {
        assert_eq!(Interleave::RankLevel { line_bytes: 64 }.groups(), 1);
        assert_eq!(
            Interleave::ChipLevel {
                block_bytes: 32,
                groups: 4
            }
            .groups(),
            4
        );
    }

    #[test]
    fn row_major_fills_rows_sequentially() {
        let g = DimmGeometry::ddr4_8gb_x4();
        let s = Interleave::RowMajor { groups: 2 };
        let granule = s.contiguous_granule(&g);
        // 8 chips × 4 B × 128 cols = 4096 B per row.
        assert_eq!(granule, 4096);
        let a = s.decode(&g, 0);
        let b = s.decode(&g, granule - 32);
        assert_eq!(
            (a.rank, a.group, a.bank, a.row),
            (b.rank, b.group, b.bank, b.row)
        );
        assert!(b.col > a.col);
        let c = s.decode(&g, granule);
        assert_ne!(
            (a.rank, a.group, a.bank, a.row),
            (c.rank, c.group, c.bank, c.row)
        );
        // Consecutive rows rotate chip groups first (bulk streams engage
        // every chip).
        assert_eq!(c.group, 1);
    }

    #[test]
    fn row_major_decode_is_injective() {
        let g = DimmGeometry::ddr4_8gb_x4();
        let s = Interleave::RowMajor { groups: 4 };
        let mut seen = HashSet::new();
        for i in 0..4096u64 {
            let c = s.decode(&g, i * 128);
            assert!(seen.insert((c.rank, c.group, c.bank, c.row, c.col)));
        }
    }

    #[test]
    fn decoded_fields_stay_in_bounds() {
        let g = DimmGeometry::ddr4_8gb_x4();
        let schemes = [
            Interleave::RankLevel { line_bytes: 64 },
            Interleave::ChipLevel {
                block_bytes: 32,
                groups: 2,
            },
            Interleave::ChipLevel {
                block_bytes: 4,
                groups: 16,
            },
            Interleave::RowMajor { groups: 8 },
        ];
        for s in schemes {
            for i in 0..10_000u64 {
                let c = s.decode(&g, i * 97);
                assert!(c.rank < g.ranks);
                assert!(c.group < s.groups());
                assert!(c.bank < g.banks);
                assert!(c.row < g.rows);
                assert!(c.col < g.cols_per_row());
            }
        }
    }
}
