//! DNA pre-alignment filtering (the Shouji kernel).
//!
//! Pre-alignment filters cheaply reject candidate (read, reference
//! location) pairs that cannot align within an edit-distance threshold,
//! sparing the expensive dynamic-programming aligner. This implements the
//! Shouji idea: build match bit-vectors for every diagonal within ±E,
//! slide a 4-wide window selecting the best-matching diagonal segment,
//! and count the columns no diagonal could cover.

use crate::alphabet::Base;
use crate::sequence::PackedSeq;
use crate::trace::{Access, AppKind, Region, Step, TaskTrace};

/// Sliding-window width used by the Shouji heuristic.
const WINDOW: usize = 4;

/// Verdict of the filter for one candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterVerdict {
    /// Whether the pair should proceed to full alignment.
    pub accept: bool,
    /// Lower-bound estimate of the edit count.
    pub estimated_edits: u32,
}

/// A Shouji-style pre-alignment filter with edit threshold `e`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreAlignFilter {
    e: u32,
}

impl PreAlignFilter {
    /// Creates a filter with edit-distance threshold `e`.
    pub fn new(e: u32) -> Self {
        PreAlignFilter { e }
    }

    /// The edit threshold.
    pub fn threshold(&self) -> u32 {
        self.e
    }

    /// Reference window length needed for a read of `read_len` bases.
    pub fn window_len(&self, read_len: usize) -> usize {
        read_len + 2 * self.e as usize
    }

    /// Filters one candidate: `read` against the reference window
    /// starting at `ref_pos - e` (clamped).
    ///
    /// # Panics
    /// Panics when the read is empty.
    pub fn filter(&self, read: &[Base], reference: &PackedSeq, ref_pos: usize) -> FilterVerdict {
        assert!(!read.is_empty(), "empty read");
        let e = self.e as isize;
        let n = read.len();

        // Build one match bit-vector per diagonal shift in [-e, +e]:
        // diag[d][i] == true when read[i] == ref[ref_pos + i + d].
        let shifts: Vec<isize> = (-e..=e).collect();
        let mut diags: Vec<Vec<bool>> = Vec::with_capacity(shifts.len());
        for &d in &shifts {
            let mut v = vec![false; n];
            for (i, item) in v.iter_mut().enumerate() {
                let p = ref_pos as isize + i as isize + d;
                if p >= 0 && (p as usize) < reference.len() {
                    *item = reference.get(p as usize) == read[i];
                }
            }
            diags.push(v);
        }

        // Slide a 4-wide window; for each window pick the diagonal with
        // the most matches; accumulate the mismatch count of the chosen
        // windows (Shouji's greedy lower bound).
        let mut edits = 0u32;
        let mut i = 0;
        while i < n {
            let w = WINDOW.min(n - i);
            let best = diags
                .iter()
                .map(|dv| dv[i..i + w].iter().filter(|&&m| m).count())
                .max()
                .unwrap_or(0);
            edits += (w - best) as u32;
            i += w;
        }

        FilterVerdict {
            accept: edits <= self.e,
            estimated_edits: edits,
        }
    }

    /// The access trace of filtering one candidate on the accelerator:
    /// the PE streams the packed reference window (sequential 64 B reads
    /// from the `Reference` region) and the read from its staging buffer.
    pub fn trace_filter(&self, read_len: usize, ref_pos: usize) -> TaskTrace {
        let window_bases = self.window_len(read_len);
        // 2-bit packed: 4 bases per byte.
        let window_bytes = window_bases.div_ceil(4) as u32;
        let start = (ref_pos.saturating_sub(self.e as usize) / 4) as u64;

        let mut accesses = Vec::new();
        let mut off = 0u32;
        while off < window_bytes {
            let chunk = 64.min(window_bytes - off);
            accesses.push(Access::read(Region::Reference, start + off as u64, chunk));
            off += chunk;
        }
        let read_bytes = (read_len.div_ceil(4)) as u32;
        accesses.push(Access::read(Region::ReadBuf, 0, read_bytes));

        TaskTrace::new(AppKind::PreAlignment, vec![Step::blocking(accesses)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{Genome, GenomeId};
    use crate::reads::ReadSampler;

    fn genome() -> Genome {
        Genome::synthetic(GenomeId::Am, 5000, 77)
    }

    #[test]
    fn exact_match_is_accepted_with_zero_edits() {
        let g = genome();
        let f = PreAlignFilter::new(3);
        let read = g.sequence().slice(1000, 64);
        let v = f.filter(&read, g.sequence(), 1000);
        assert!(v.accept);
        assert_eq!(v.estimated_edits, 0);
    }

    #[test]
    fn few_errors_still_accepted() {
        let g = genome();
        let f = PreAlignFilter::new(5);
        let mut sampler = ReadSampler::new(&g, 64, 0.02, 9);
        let mut accepted = 0;
        for _ in 0..20 {
            let r = sampler.next_read();
            if f.filter(r.bases(), g.sequence(), r.origin()).accept {
                accepted += 1;
            }
        }
        assert!(accepted >= 15, "only {accepted}/20 accepted");
    }

    #[test]
    fn wrong_location_is_rejected() {
        let g = genome();
        let f = PreAlignFilter::new(3);
        let read = g.sequence().slice(1000, 64);
        // A far-away random location should need many more than 3 edits.
        let v = f.filter(&read, g.sequence(), 3300);
        assert!(!v.accept, "estimated {}", v.estimated_edits);
    }

    #[test]
    fn estimate_never_exceeds_hamming_distance() {
        // The greedy windowed estimate is a lower bound on edits, so it
        // must not exceed the plain mismatch count at shift 0.
        let g = genome();
        let f = PreAlignFilter::new(2);
        let mut sampler = ReadSampler::new(&g, 48, 0.1, 10);
        for _ in 0..10 {
            let r = sampler.next_read();
            let window = g.sequence().slice(r.origin(), 48);
            let hamming = r
                .bases()
                .iter()
                .zip(&window)
                .filter(|(a, b)| a != b)
                .count() as u32;
            let v = f.filter(r.bases(), g.sequence(), r.origin());
            assert!(v.estimated_edits <= hamming);
        }
    }

    #[test]
    fn trace_is_sequential_reference_stream() {
        let f = PreAlignFilter::new(5);
        let t = f.trace_filter(100, 4000);
        assert_eq!(t.app, AppKind::PreAlignment);
        assert_eq!(t.steps.len(), 1);
        let refs: Vec<_> = t.steps[0]
            .accesses
            .iter()
            .filter(|a| a.region == Region::Reference)
            .collect();
        // 110 bases -> 28 bytes -> one chunk.
        assert_eq!(refs.len(), 1);
        assert!(t.steps[0]
            .accesses
            .iter()
            .any(|a| a.region == Region::ReadBuf));
    }

    #[test]
    fn long_reads_chunk_at_64_bytes() {
        let f = PreAlignFilter::new(10);
        let t = f.trace_filter(1000, 0);
        let ref_chunks: Vec<_> = t.steps[0]
            .accesses
            .iter()
            .filter(|a| a.region == Region::Reference)
            .collect();
        assert!(ref_chunks.len() > 1);
        assert!(ref_chunks.iter().all(|a| a.bytes <= 64));
        let total: u32 = ref_chunks.iter().map(|a| a.bytes).sum();
        assert_eq!(total, (1020u32).div_ceil(4));
    }

    #[test]
    fn boundary_positions_do_not_panic() {
        let g = genome();
        let f = PreAlignFilter::new(4);
        let read = g.sequence().slice(0, 32);
        let _ = f.filter(&read, g.sequence(), 0);
        let tail = g.sequence().slice(g.len() - 32, 32);
        let _ = f.filter(&tail, g.sequence(), g.len() - 32);
    }
}
