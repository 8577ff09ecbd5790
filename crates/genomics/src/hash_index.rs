//! Hash-index based DNA seeding (the SMALT kernel).
//!
//! The reference is indexed by k-mer: a power-of-two bucket table maps a
//! k-mer hash to a *candidate list* of reference positions. Matching the
//! paper's data-placement principle 2, candidate lists are stored
//! contiguously (and placed row-by-row by the mapping layer), so a seed
//! lookup is one fine-grained random read (the bucket header) followed by
//! a spatially-local list read.

use crate::alphabet::Base;
use crate::sequence::PackedSeq;
use crate::trace::{Access, AppKind, Region, Step, TaskTrace};

/// Bytes of one bucket header (list offset + length).
pub const HEADER_BYTES: u32 = 8;

/// Bytes per stored candidate position.
pub const CANDIDATE_BYTES: u32 = 4;

/// A hash-based seed index over a reference.
#[derive(Debug, Clone)]
pub struct HashIndex {
    k: usize,
    bucket_bits: u32,
    /// `headers[b] = (offset_into_candidates, count)`.
    headers: Vec<(u32, u32)>,
    /// All candidate positions, grouped by bucket.
    candidates: Vec<u32>,
    text_len: usize,
}

impl HashIndex {
    /// Builds the index with `k`-mers over a `1 << bucket_bits` bucket
    /// table.
    ///
    /// # Panics
    /// Panics when `k` is zero, larger than 31, or longer than the text.
    pub fn build(text: &PackedSeq, k: usize, bucket_bits: u32) -> Self {
        assert!(k > 0 && k <= 31, "k must be in 1..=31");
        assert!(k <= text.len(), "k exceeds text length");
        let n_buckets = 1usize << bucket_bits;

        // Count pass.
        let mut counts = vec![0u32; n_buckets];
        let n_kmers = text.len() - k + 1;
        for i in 0..n_kmers {
            let h = Self::bucket_of_kmer(Self::pack_kmer(text, i, k), bucket_bits);
            counts[h] += 1;
        }

        // Prefix-sum into offsets.
        let mut headers = Vec::with_capacity(n_buckets);
        let mut offset = 0u32;
        for &c in &counts {
            headers.push((offset, c));
            offset += c;
        }

        // Fill pass.
        let mut candidates = vec![0u32; n_kmers];
        let mut cursor: Vec<u32> = headers.iter().map(|&(o, _)| o).collect();
        for i in 0..n_kmers {
            let h = Self::bucket_of_kmer(Self::pack_kmer(text, i, k), bucket_bits);
            candidates[cursor[h] as usize] = i as u32;
            cursor[h] += 1;
        }

        HashIndex {
            k,
            bucket_bits,
            headers,
            candidates,
            text_len: text.len(),
        }
    }

    /// Packs the `k`-mer starting at `i` into a `u64` (2 bits per base).
    fn pack_kmer(text: &PackedSeq, i: usize, k: usize) -> u64 {
        let mut v = 0u64;
        for j in 0..k {
            v = (v << 2) | text.get(i + j).code() as u64;
        }
        v
    }

    /// Packs a k-mer from a base slice.
    fn pack_slice(bases: &[Base]) -> u64 {
        let mut v = 0u64;
        for &b in bases {
            v = (v << 2) | b.code() as u64;
        }
        v
    }

    /// Fibonacci-hash a packed k-mer into a bucket index.
    fn bucket_of_kmer(kmer: u64, bucket_bits: u32) -> usize {
        (kmer.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bucket_bits)) as usize
    }

    /// Seed length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Length of the indexed text in bases.
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Size of the header region in bytes.
    pub fn header_bytes(&self) -> u64 {
        self.headers.len() as u64 * HEADER_BYTES as u64
    }

    /// Size of the candidate-list region in bytes.
    pub fn candidate_bytes(&self) -> u64 {
        self.candidates.len() as u64 * CANDIDATE_BYTES as u64
    }

    /// Candidate reference positions whose `k`-mer hashes like `seed`
    /// (includes hash-collision false positives, exactly like the real
    /// structure).
    ///
    /// # Panics
    /// Panics when `seed.len() != k`.
    pub fn lookup(&self, seed: &[Base]) -> &[u32] {
        assert_eq!(seed.len(), self.k, "seed length must equal k");
        let b = Self::bucket_of_kmer(Self::pack_slice(seed), self.bucket_bits);
        let (off, cnt) = self.headers[b];
        &self.candidates[off as usize..(off + cnt) as usize]
    }

    /// Seeds a whole read: looks up non-overlapping `k`-mers and votes on
    /// the implied read origin. Returns `(origin, votes)` pairs with at
    /// least `min_votes`.
    pub fn seed_read(&self, read: &[Base], min_votes: u32) -> Vec<(u32, u32)> {
        let mut votes: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut s = 0;
        while s + self.k <= read.len() {
            for &pos in self.lookup(&read[s..s + self.k]) {
                if pos >= s as u32 {
                    *votes.entry(pos - s as u32).or_insert(0) += 1;
                }
            }
            s += self.k;
        }
        let mut out: Vec<(u32, u32)> = votes.into_iter().filter(|&(_, v)| v >= min_votes).collect();
        out.sort_unstable();
        out
    }

    /// The access trace of seeding one read: per non-overlapping seed, a
    /// fine-grained header read then a spatially-local candidate-list
    /// read (capped at `max_candidates`).
    pub fn trace_seed_read(&self, read: &[Base], max_candidates: u32) -> TaskTrace {
        let mut steps = Vec::new();
        let mut s = 0;
        while s + self.k <= read.len() {
            let b = Self::bucket_of_kmer(Self::pack_slice(&read[s..s + self.k]), self.bucket_bits);
            let (off, cnt) = self.headers[b];
            steps.push(Step::blocking(vec![Access::read(
                Region::HashTable,
                b as u64 * HEADER_BYTES as u64,
                HEADER_BYTES,
            )]));
            let take = cnt.min(max_candidates);
            if take > 0 {
                steps.push(Step::blocking(vec![Access::read(
                    Region::CandidateLists,
                    off as u64 * CANDIDATE_BYTES as u64,
                    take * CANDIDATE_BYTES,
                )]));
            }
            s += self.k;
        }
        TaskTrace::new(AppKind::HashSeeding, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{Genome, GenomeId};
    use crate::reads::ReadSampler;

    fn setup() -> (Genome, HashIndex) {
        let g = Genome::synthetic(GenomeId::Pt, 4000, 12);
        let idx = HashIndex::build(g.sequence(), 12, 12);
        (g, idx)
    }

    #[test]
    fn lookup_contains_true_position() {
        let (g, idx) = setup();
        for start in [0usize, 100, 999, 2500] {
            let seed = g.sequence().slice(start, 12);
            let hits = idx.lookup(&seed);
            assert!(hits.contains(&(start as u32)), "missing position {start}");
        }
    }

    #[test]
    fn every_candidate_list_entry_is_valid_position() {
        let (g, idx) = setup();
        let total: usize = idx.candidates.len();
        assert_eq!(total, g.len() - 12 + 1);
        assert!(idx.candidates.iter().all(|&p| (p as usize) < g.len()));
    }

    #[test]
    fn seed_read_recovers_origin() {
        let (g, idx) = setup();
        let mut sampler = ReadSampler::new(&g, 48, 0.0, 3);
        for _ in 0..10 {
            let r = sampler.next_read();
            let hits = idx.seed_read(r.bases(), 2);
            assert!(
                hits.iter().any(|&(pos, _)| pos == r.origin() as u32),
                "origin {} not among {hits:?}",
                r.origin()
            );
        }
    }

    #[test]
    fn seeding_tolerates_errors() {
        let (g, idx) = setup();
        let mut sampler = ReadSampler::new(&g, 60, 0.02, 4);
        let mut recovered = 0;
        for _ in 0..20 {
            let r = sampler.next_read();
            let hits = idx.seed_read(r.bases(), 2);
            if hits.iter().any(|&(pos, _)| pos == r.origin() as u32) {
                recovered += 1;
            }
        }
        assert!(recovered >= 12, "only {recovered}/20 recovered");
    }

    #[test]
    fn trace_alternates_header_and_list_reads() {
        let (g, idx) = setup();
        let read = g.sequence().slice(40, 36); // 3 seeds
        let trace = idx.trace_seed_read(&read, 64);
        assert_eq!(trace.app, AppKind::HashSeeding);
        let headers = trace
            .steps
            .iter()
            .flat_map(|s| &s.accesses)
            .filter(|a| a.region == Region::HashTable)
            .count();
        assert_eq!(headers, 3);
        for a in trace.steps.iter().flat_map(|s| &s.accesses) {
            match a.region {
                Region::HashTable => {
                    assert_eq!(a.bytes, HEADER_BYTES);
                    assert!(a.offset < idx.header_bytes());
                }
                Region::CandidateLists => {
                    assert!(a.bytes >= CANDIDATE_BYTES);
                    assert!(a.offset < idx.candidate_bytes());
                }
                other => panic!("unexpected region {other:?}"),
            }
        }
    }

    #[test]
    fn trace_caps_candidate_reads() {
        let (g, idx) = setup();
        let read = g.sequence().slice(0, 12);
        let trace = idx.trace_seed_read(&read, 2);
        for a in trace.steps.iter().flat_map(|s| &s.accesses) {
            if a.region == Region::CandidateLists {
                assert!(a.bytes <= 2 * CANDIDATE_BYTES);
            }
        }
    }

    #[test]
    #[should_panic(expected = "seed length")]
    fn lookup_validates_length() {
        let (_, idx) = setup();
        let _ = idx.lookup(&[Base::A; 5]);
    }

    #[test]
    fn region_sizes_are_consistent() {
        let (g, idx) = setup();
        assert_eq!(idx.header_bytes(), (1u64 << 12) * 8);
        assert_eq!(
            idx.candidate_bytes(),
            (g.len() as u64 - 12 + 1) * CANDIDATE_BYTES as u64
        );
    }
}
