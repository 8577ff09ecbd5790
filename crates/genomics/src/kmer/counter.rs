//! k-mer extraction and counting strategies.

use std::collections::HashMap;

use crate::alphabet::Base;
use crate::reads::Read;
use crate::trace::{AppKind, TaskTrace};

use super::bloom::CountingBloom;

/// Packs a k-mer window into a `u64` and canonicalises it (the smaller of
/// the k-mer and its reverse complement, as real counters do so both
/// strands count together).
fn canonical(bases: &[Base]) -> u64 {
    let mut fwd = 0u64;
    let mut rev = 0u64;
    let k = bases.len();
    for (i, &b) in bases.iter().enumerate() {
        fwd = (fwd << 2) | b.code() as u64;
        rev |= (b.complement().code() as u64) << (2 * i);
    }
    let _ = k;
    fwd.min(rev)
}

/// Iterates over the canonical k-mers of a read.
///
/// # Panics
/// Panics when `k == 0` or `k > 31`.
pub fn canonical_kmers(bases: &[Base], k: usize) -> Vec<u64> {
    assert!(k > 0 && k <= 31, "k must be in 1..=31");
    if bases.len() < k {
        return Vec::new();
    }
    (0..=bases.len() - k)
        .map(|i| canonical(&bases[i..i + k]))
        .collect()
}

/// A k-mer counter combining an exact reference count (for verification)
/// with the counting-Bloom-filter pipeline that the accelerators run.
#[derive(Debug, Clone)]
pub struct KmerCounter {
    k: usize,
    cbf: CountingBloom,
    /// Exact counts, the ground truth the CBF approximates.
    exact: HashMap<u64, u32>,
}

impl KmerCounter {
    /// Creates a counter for `k`-mers over a CBF with `m` counters and
    /// `h` hashes.
    pub fn new(k: usize, m: usize, h: u32, seed: u64) -> Self {
        assert!(k > 0 && k <= 31, "k must be in 1..=31");
        KmerCounter {
            k,
            cbf: CountingBloom::new(m, h, seed),
            exact: HashMap::new(),
        }
    }

    /// Seed length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying filter.
    pub fn bloom(&self) -> &CountingBloom {
        &self.cbf
    }

    /// Counts every canonical k-mer of `read` (updates both the CBF and
    /// the exact table).
    pub fn count_read(&mut self, read: &Read) {
        for km in canonical_kmers(read.bases(), self.k) {
            self.cbf.insert(km);
            *self.exact.entry(km).or_insert(0) += 1;
        }
    }

    /// Counts a batch of reads.
    pub fn count_reads<'a, I: IntoIterator<Item = &'a Read>>(&mut self, reads: I) {
        for r in reads {
            self.count_read(r);
        }
    }

    /// Exact count of a canonical k-mer.
    pub fn exact_count(&self, kmer: u64) -> u32 {
        self.exact.get(&kmer).copied().unwrap_or(0)
    }

    /// CBF estimate of a canonical k-mer (upper bound on the exact
    /// count).
    pub fn estimate(&self, kmer: u64) -> u32 {
        self.cbf.estimate(kmer) as u32
    }

    /// Number of distinct k-mers whose exact count is ≥ `threshold` —
    /// the quantity BFCounter reports.
    pub fn distinct_at_least(&self, threshold: u32) -> usize {
        self.exact.values().filter(|&&c| c >= threshold).count()
    }

    /// The access trace of counting one read on the accelerator: one
    /// posted RMW step per k-mer (each step issues `h` byte-wide atomic
    /// increments at hash-derived Bloom offsets).
    pub fn trace_read(&self, read: &Read) -> TaskTrace {
        let steps = canonical_kmers(read.bases(), self.k)
            .into_iter()
            .map(|km| self.cbf.trace_insert(km))
            .collect();
        TaskTrace::new(AppKind::KmerCounting, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{Genome, GenomeId};
    use crate::reads::ReadSampler;

    fn reads(n: usize) -> Vec<Read> {
        let g = Genome::synthetic(GenomeId::Human, 5000, 33);
        ReadSampler::new(&g, 100, 0.01, 8).take_reads(n)
    }

    #[test]
    fn canonical_is_strand_symmetric() {
        let fwd: Vec<Base> = "ACGTTGCA"
            .bytes()
            .map(|c| Base::from_ascii(c).unwrap())
            .collect();
        let rev: Vec<Base> = fwd.iter().rev().map(|b| b.complement()).collect();
        assert_eq!(canonical(&fwd), canonical(&rev));
    }

    #[test]
    fn kmer_count_per_read_is_len_minus_k_plus_1() {
        let rs = reads(1);
        let kms = canonical_kmers(rs[0].bases(), 28);
        assert_eq!(kms.len(), 100 - 28 + 1);
    }

    #[test]
    fn estimate_bounds_exact() {
        let mut c = KmerCounter::new(28, 1 << 16, 3, 1);
        let rs = reads(20);
        c.count_reads(&rs);
        for (&km, &exact) in c.exact.iter().take(200) {
            assert!(c.estimate(km) >= exact.min(255));
        }
    }

    #[test]
    fn repeated_reads_raise_counts() {
        let mut c = KmerCounter::new(28, 1 << 16, 3, 2);
        let rs = reads(1);
        c.count_read(&rs[0]);
        c.count_read(&rs[0]);
        let km = canonical_kmers(rs[0].bases(), 28)[0];
        assert!(c.exact_count(km) >= 2);
        assert!(c.estimate(km) >= 2);
        assert!(c.distinct_at_least(2) > 0);
    }

    #[test]
    fn trace_shape_matches_kmers_times_hashes() {
        let c = KmerCounter::new(28, 1 << 16, 3, 3);
        let rs = reads(1);
        let t = c.trace_read(&rs[0]);
        assert_eq!(t.app, AppKind::KmerCounting);
        assert_eq!(t.steps.len(), 100 - 28 + 1);
        assert!(t.steps.iter().all(|s| s.accesses.len() == 3));
        assert!(t.steps.iter().all(|s| !s.wait_for_data));
    }

    #[test]
    fn short_read_yields_no_kmers() {
        assert!(canonical_kmers(&[Base::A; 5], 28).is_empty());
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn oversized_k_panics() {
        let _ = canonical_kmers(&[Base::A; 40], 32);
    }
}
