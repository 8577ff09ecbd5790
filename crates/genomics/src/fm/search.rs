//! The FM-index and backward search, with access-trace recording.

use crate::alphabet::Base;
use crate::sequence::PackedSeq;
use crate::trace::{Access, AppKind, Region, Step, TaskTrace};

use super::bwt::bwt_from_sa;
use super::occ::{OccTable, BUCKET_BYTES};
use super::sais::suffix_array_fast;

/// A half-open range `[lo, hi)` of suffix-array positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaRange {
    /// First matching SA position.
    pub lo: u32,
    /// One past the last matching SA position.
    pub hi: u32,
}

impl SaRange {
    /// Number of occurrences in the range.
    pub fn count(&self) -> u32 {
        self.hi.saturating_sub(self.lo)
    }

    /// True when the pattern does not occur.
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }
}

/// An FM-index over a reference sequence.
///
/// Built from the suffix array and BWT; stores the bucketed
/// [`OccTable`], the `C` array and a sampled suffix array for `locate`.
#[derive(Debug, Clone)]
pub struct FmIndex {
    occ: OccTable,
    /// `c_array[c]` = number of suffixes starting with a symbol < `c`
    /// (including the sentinel).
    c_array: [u32; 5],
    /// Suffix array sampled every `sa_sample` positions.
    sa_samples: Vec<u32>,
    sa_sample: u32,
    text_len: usize,
}

impl FmIndex {
    /// Sampling stride of the stored suffix array.
    pub const SA_SAMPLE: u32 = 32;

    /// Default depth of the NDP bucket cache: the first five levels of
    /// backward search touch at most ~2·4^5 = 2048 distinct buckets
    /// (64 KB of SRAM), which every DIMM-NDP design keeps on-chip.
    pub const HOT_CACHE_STEPS: usize = 5;

    /// Builds the index (suffix array → BWT → Occ buckets). Uses the
    /// linear-time SA-IS builder for large texts.
    pub fn build(text: &PackedSeq) -> Self {
        let sa = suffix_array_fast(text);
        let bwt = bwt_from_sa(text, &sa);
        let occ = OccTable::build(&bwt);

        let mut c_array = [0u32; 5];
        c_array[0] = 1; // the sentinel sorts first
        for c in 0..4usize {
            c_array[c + 1] = c_array[c] + occ.total(c as u8);
        }

        let sa_samples: Vec<u32> = sa
            .iter()
            .step_by(Self::SA_SAMPLE as usize)
            .copied()
            .collect();

        FmIndex {
            occ,
            c_array,
            sa_samples,
            sa_sample: Self::SA_SAMPLE,
            text_len: text.len(),
        }
    }

    /// Length of the indexed text (without sentinel).
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Size in bytes of the Occ region (what the memory manager places).
    pub fn index_bytes(&self) -> u64 {
        self.occ.index_bytes()
    }

    /// Backward search: SA range of exact occurrences of `pattern`.
    pub fn backward_search(&self, pattern: &[Base]) -> SaRange {
        let mut lo = 0u32;
        let mut hi = (self.occ.len()) as u32;
        for &b in pattern.iter().rev() {
            let c = b.code();
            lo = self.c_array[c as usize] + self.occ.occ(c, lo as usize);
            hi = self.c_array[c as usize] + self.occ.occ(c, hi as usize);
            if lo >= hi {
                return SaRange { lo, hi: lo };
            }
        }
        SaRange { lo, hi }
    }

    /// Backward search that also records the memory-access trace the
    /// hardware would produce: one step per pattern symbol, each reading
    /// the two 32 B Occ buckets of the current range boundaries.
    ///
    /// The first [`FmIndex::HOT_CACHE_STEPS`] levels are served from the
    /// NDP module's bucket cache. Every search shares its first levels:
    /// step *k* can only touch one of ~2·4^k distinct Occ buckets, so NDP
    /// designs keep the top of the index in a small SRAM next to the PEs.
    /// Cached steps still pay the PE compute latency but issue no memory
    /// access.
    pub fn trace_search(&self, pattern: &[Base]) -> TaskTrace {
        let mut steps = Vec::with_capacity(pattern.len());
        let mut lo = 0u32;
        let mut hi = (self.occ.len()) as u32;
        for (depth, &b) in pattern.iter().rev().enumerate() {
            let c = b.code();
            if depth < Self::HOT_CACHE_STEPS {
                // Served by the bucket cache: compute-only step.
                steps.push(Step::blocking(vec![]));
            } else {
                let b_lo = self.occ.bucket_of(lo as usize);
                let b_hi = self.occ.bucket_of(hi as usize);
                let mut accesses = vec![Access::read(
                    Region::FmIndex,
                    self.occ.bucket_offset(b_lo),
                    BUCKET_BYTES,
                )];
                if b_hi != b_lo {
                    accesses.push(Access::read(
                        Region::FmIndex,
                        self.occ.bucket_offset(b_hi),
                        BUCKET_BYTES,
                    ));
                }
                steps.push(Step::blocking(accesses));
            }

            lo = self.c_array[c as usize] + self.occ.occ(c, lo as usize);
            hi = self.c_array[c as usize] + self.occ.occ(c, hi as usize);
            if lo >= hi {
                break;
            }
        }
        TaskTrace::new(AppKind::FmSeeding, steps)
    }

    /// LF-mapping step: the SA position of the suffix one symbol earlier.
    fn lf(&self, i: u32, c: u8) -> u32 {
        self.c_array[c as usize] + self.occ.occ(c, i as usize)
    }

    /// Text positions of every occurrence in `range`, via the sampled
    /// suffix array (capped at `max` results).
    pub fn locate(&self, range: SaRange, max: usize) -> Vec<u32> {
        let mut out = Vec::new();
        'outer: for i in range.lo..range.hi {
            if out.len() >= max {
                break 'outer;
            }
            // Walk LF until we land on a sampled SA entry.
            let mut pos = i;
            let mut steps = 0u32;
            loop {
                if pos % self.sa_sample == 0 {
                    let base = self.sa_samples[(pos / self.sa_sample) as usize];
                    out.push((base + steps) % (self.text_len as u32 + 1));
                    break;
                }
                // BWT symbol at pos: recover via occ difference.
                let c = self.bwt_symbol(pos);
                match c {
                    Some(code) => {
                        pos = self.lf(pos, code);
                        steps += 1;
                    }
                    None => {
                        // Sentinel: suffix 0.
                        out.push(steps % (self.text_len as u32 + 1));
                        break;
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Symbol of the BWT at position `i` (`None` for the sentinel),
    /// recovered from the Occ table.
    fn bwt_symbol(&self, i: u32) -> Option<u8> {
        (0..4u8).find(|&c| self.occ.occ(c, i as usize + 1) > self.occ.occ(c, i as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{Genome, GenomeId};
    use crate::reads::ReadSampler;

    fn naive_count(text: &PackedSeq, pattern: &[Base]) -> u32 {
        if pattern.is_empty() || pattern.len() > text.len() {
            return 0;
        }
        let mut count = 0;
        for i in 0..=(text.len() - pattern.len()) {
            if (0..pattern.len()).all(|j| text.get(i + j) == pattern[j]) {
                count += 1;
            }
        }
        count
    }

    #[test]
    fn counts_match_naive_search() {
        let g = Genome::synthetic(GenomeId::Pt, 2000, 21);
        let idx = FmIndex::build(g.sequence());
        let mut sampler = ReadSampler::new(&g, 12, 0.0, 5);
        for _ in 0..20 {
            let r = sampler.next_read();
            let range = idx.backward_search(r.bases());
            assert_eq!(range.count(), naive_count(g.sequence(), r.bases()));
            assert!(range.count() >= 1, "error-free read must occur");
        }
    }

    #[test]
    fn absent_pattern_has_empty_range() {
        // Build a genome over a restricted alphabet region then search a
        // pattern guaranteed absent by length.
        let g = Genome::synthetic(GenomeId::Pg, 500, 2);
        let idx = FmIndex::build(g.sequence());
        // A 40-mer sampled from a different genome is (overwhelmingly)
        // absent; verify against naive search for certainty.
        let other = Genome::synthetic(GenomeId::Nf, 500, 99);
        let pattern = other.sequence().slice(0, 40);
        let naive = naive_count(g.sequence(), &pattern);
        let range = idx.backward_search(&pattern);
        assert_eq!(range.count(), naive);
    }

    #[test]
    fn locate_finds_true_origin() {
        let g = Genome::synthetic(GenomeId::Ss, 1500, 4);
        let idx = FmIndex::build(g.sequence());
        let mut sampler = ReadSampler::new(&g, 20, 0.0, 6);
        for _ in 0..10 {
            let r = sampler.next_read();
            let range = idx.backward_search(r.bases());
            let positions = idx.locate(range, 64);
            assert!(
                positions.contains(&(r.origin() as u32)),
                "origin {} not in {positions:?}",
                r.origin()
            );
        }
    }

    #[test]
    fn locate_positions_all_match() {
        let g = Genome::synthetic(GenomeId::Am, 800, 8);
        let idx = FmIndex::build(g.sequence());
        let pattern = g.sequence().slice(100, 10);
        let range = idx.backward_search(&pattern);
        for p in idx.locate(range, 1000) {
            let w = g.sequence().slice(p as usize, 10);
            assert_eq!(w, pattern, "mismatch at reported position {p}");
        }
    }

    #[test]
    fn trace_has_one_step_per_matched_symbol() {
        let g = Genome::synthetic(GenomeId::Pt, 1000, 31);
        let idx = FmIndex::build(g.sequence());
        let pattern = g.sequence().slice(37, 16);
        let trace = idx.trace_search(&pattern);
        assert_eq!(trace.app, AppKind::FmSeeding);
        assert_eq!(trace.steps.len(), 16);
        assert!(trace.steps.iter().all(|s| s.wait_for_data));
        for s in &trace.steps[FmIndex::HOT_CACHE_STEPS..] {
            assert!((1..=2).contains(&s.accesses.len()));
            for a in &s.accesses {
                assert_eq!(a.bytes, BUCKET_BYTES);
                assert_eq!(a.region, Region::FmIndex);
                assert_eq!(a.offset % BUCKET_BYTES as u64, 0);
                assert!(a.offset < idx.index_bytes());
            }
        }
    }

    #[test]
    fn cached_levels_issue_no_memory_access() {
        let g = Genome::synthetic(GenomeId::Pt, 1000, 31);
        let idx = FmIndex::build(g.sequence());
        let pattern = g.sequence().slice(37, 16);
        let trace = idx.trace_search(&pattern);
        for (i, s) in trace.steps.iter().enumerate() {
            if i < FmIndex::HOT_CACHE_STEPS {
                assert!(s.accesses.is_empty(), "step {i} should be cached");
            } else {
                assert!(!s.accesses.is_empty(), "step {i} should hit memory");
            }
        }
    }

    #[test]
    fn trace_stops_early_on_mismatch() {
        let g = Genome::synthetic(GenomeId::Pg, 400, 17);
        let idx = FmIndex::build(g.sequence());
        let other = Genome::synthetic(GenomeId::Nf, 400, 71);
        let pattern = other.sequence().slice(0, 60);
        if idx.backward_search(&pattern).is_empty() {
            let trace = idx.trace_search(&pattern);
            assert!(trace.steps.len() <= 60);
        }
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let g = Genome::synthetic(GenomeId::Pt, 100, 1);
        let idx = FmIndex::build(g.sequence());
        let range = idx.backward_search(&[]);
        assert_eq!(range.count() as usize, g.len() + 1);
    }
}
