//! The checkpointed Occ structure: 32 B buckets.
//!
//! Every [`BUCKET_SYMBOLS`] BWT positions form one bucket of
//! [`BUCKET_BYTES`] bytes: four `u32` running counts (16 B) followed by the
//! bucket's 64 BWT symbols packed 2 bits each (16 B). A rank query
//! `occ(c, i)` therefore reads **exactly one 32 B bucket** — the
//! fine-grained access unit quoted throughout MEDAL and BEACON.

use super::bwt::Bwt;

/// BWT symbols covered by one bucket.
pub const BUCKET_SYMBOLS: usize = 64;

/// Bytes per bucket in the modelled memory layout (16 B counts + 16 B
/// packed symbols).
pub const BUCKET_BYTES: u32 = 32;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Bucket {
    /// Occ(c, bucket_start) for each of the four bases.
    counts: [u32; 4],
    /// 64 symbols × 2 bits.
    packed: [u64; 2],
}

/// Rank (Occ) table over a BWT, bucketed for fine-grained access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccTable {
    buckets: Vec<Bucket>,
    sentinel_pos: usize,
    len: usize,
    /// `counts[c]` = total occurrences of base `c` in the BWT.
    totals: [u32; 4],
}

impl OccTable {
    /// Builds the bucketed Occ table from a BWT.
    pub fn build(bwt: &Bwt) -> Self {
        let len = bwt.codes.len();
        let n_buckets = len / BUCKET_SYMBOLS + 1;
        let mut buckets = Vec::with_capacity(n_buckets);
        let mut running = [0u32; 4];
        for b in 0..n_buckets {
            let mut packed = [0u64; 2];
            let start = b * BUCKET_SYMBOLS;
            let bucket_counts = running;
            for j in 0..BUCKET_SYMBOLS {
                let i = start + j;
                if i >= len {
                    break;
                }
                let code = bwt.codes[i];
                packed[j / 32] |= (code as u64) << ((j % 32) * 2);
                if i != bwt.sentinel_pos {
                    running[code as usize] += 1;
                }
            }
            buckets.push(Bucket {
                counts: bucket_counts,
                packed,
            });
        }
        OccTable {
            buckets,
            sentinel_pos: bwt.sentinel_pos,
            len,
            totals: running,
        }
    }

    /// `occ(c, i)`: occurrences of base code `c` in `bwt[0..i]`.
    ///
    /// # Panics
    /// Panics when `i > len` or `c > 3`.
    pub fn occ(&self, c: u8, i: usize) -> u32 {
        assert!(c < 4, "invalid base code");
        assert!(i <= self.len, "occ index out of range");
        let b = i / BUCKET_SYMBOLS;
        let bucket = &self.buckets[b];
        let mut count = bucket.counts[c as usize];
        let start = b * BUCKET_SYMBOLS;
        for j in 0..(i - start) {
            let pos = start + j;
            if pos == self.sentinel_pos {
                continue;
            }
            let code = ((bucket.packed[j / 32] >> ((j % 32) * 2)) & 0b11) as u8;
            if code == c {
                count += 1;
            }
        }
        count
    }

    /// Bucket index a query for position `i` reads.
    pub fn bucket_of(&self, i: usize) -> usize {
        i / BUCKET_SYMBOLS
    }

    /// Byte offset of bucket `b` within the index region.
    pub fn bucket_offset(&self, b: usize) -> u64 {
        (b as u64) * (BUCKET_BYTES as u64)
    }

    /// Total occurrences of base `c` in the whole BWT.
    pub fn total(&self, c: u8) -> u32 {
        self.totals[c as usize]
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Size of the Occ region in bytes (what the placement layer
    /// allocates).
    pub fn index_bytes(&self) -> u64 {
        self.bucket_count() as u64 * BUCKET_BYTES as u64
    }

    /// BWT length (including the sentinel position).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table covers an empty BWT.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::{bwt_from_sa, suffix_array};
    use crate::genome::{Genome, GenomeId};
    use crate::sequence::PackedSeq;

    fn table(text: &str) -> (OccTable, Bwt) {
        let s: PackedSeq = text.parse().unwrap();
        let sa = suffix_array(&s);
        let bwt = bwt_from_sa(&s, &sa);
        (OccTable::build(&bwt), bwt)
    }

    fn naive_occ(bwt: &Bwt, c: u8, i: usize) -> u32 {
        bwt.codes[..i]
            .iter()
            .enumerate()
            .filter(|(p, &x)| *p != bwt.sentinel_pos && x == c)
            .count() as u32
    }

    #[test]
    fn occ_matches_naive_small() {
        let (occ, bwt) = table("GATTACAGATTACA");
        for c in 0..4 {
            for i in 0..=bwt.codes.len() {
                assert_eq!(occ.occ(c, i), naive_occ(&bwt, c, i), "c={c} i={i}");
            }
        }
    }

    #[test]
    fn occ_matches_naive_across_buckets() {
        let g = Genome::synthetic(GenomeId::Ss, 700, 13);
        let sa = suffix_array(g.sequence());
        let bwt = bwt_from_sa(g.sequence(), &sa);
        let occ = OccTable::build(&bwt);
        for c in 0..4 {
            for i in (0..=bwt.codes.len()).step_by(37) {
                assert_eq!(occ.occ(c, i), naive_occ(&bwt, c, i));
            }
            assert_eq!(
                occ.occ(c, bwt.codes.len()),
                naive_occ(&bwt, c, bwt.codes.len())
            );
        }
    }

    #[test]
    fn totals_match_full_scan() {
        let (occ, bwt) = table("ACGTACGTAACCGGTT");
        for c in 0..4 {
            assert_eq!(occ.total(c), naive_occ(&bwt, c, bwt.codes.len()));
        }
    }

    #[test]
    fn bucket_layout_is_32_bytes() {
        let (occ, _) = table("ACGT");
        assert_eq!(occ.bucket_offset(0), 0);
        assert_eq!(occ.bucket_offset(3), 96);
        assert_eq!(occ.index_bytes(), occ.bucket_count() as u64 * 32);
    }

    #[test]
    fn query_at_len_is_legal() {
        let (occ, bwt) = table("TTTT");
        assert_eq!(occ.occ(3, bwt.codes.len()), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn query_past_len_panics() {
        let (occ, bwt) = table("ACGT");
        let _ = occ.occ(0, bwt.codes.len() + 1);
    }
}
