//! Banded global alignment — the pipeline stage *after* BEACON.
//!
//! The paper's genome-analysis pipeline (Fig. 2) ends in full alignment:
//! seeding and pre-alignment produce candidate (read, location) pairs and
//! the survivors go to a dynamic-programming aligner (on the host, as in
//! the paper — alignment is compute-bound, not memory-bound). This module
//! provides that final stage so the repository covers the whole
//! pipeline: a banded Needleman–Wunsch/Smith–Waterman hybrid returning
//! the edit distance and an alignment path.

use crate::alphabet::Base;
use crate::sequence::PackedSeq;

/// One alignment operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOp {
    /// Bases match.
    Match,
    /// Substitution.
    Mismatch,
    /// Base present in the read but not the reference.
    Insertion,
    /// Base present in the reference but not the read.
    Deletion,
}

/// Result of aligning a read against a reference window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Total edits (substitutions + indels).
    pub edits: u32,
    /// Operations from the start of the read to its end.
    pub ops: Vec<AlignOp>,
}

impl Alignment {
    /// Number of matched bases.
    pub fn matches(&self) -> usize {
        self.ops.iter().filter(|&&o| o == AlignOp::Match).count()
    }

    /// Compact CIGAR-style rendering (`5=1X3=` …).
    pub fn cigar(&self) -> String {
        let mut out = String::new();
        let mut run: Option<(AlignOp, usize)> = None;
        let sym = |o: AlignOp| match o {
            AlignOp::Match => '=',
            AlignOp::Mismatch => 'X',
            AlignOp::Insertion => 'I',
            AlignOp::Deletion => 'D',
        };
        for &op in &self.ops {
            match run {
                Some((o, n)) if o == op => run = Some((o, n + 1)),
                Some((o, n)) => {
                    out.push_str(&format!("{n}{}", sym(o)));
                    run = Some((op, 1));
                }
                None => run = Some((op, 1)),
            }
        }
        if let Some((o, n)) = run {
            out.push_str(&format!("{n}{}", sym(o)));
        }
        out
    }
}

/// Banded global alignment of `read` against the reference window
/// starting at `ref_pos`, allowing at most `band` diagonal drift.
///
/// Returns `None` when no alignment within the band exists (more than
/// `band` edits of drift) — exactly the candidates the pre-alignment
/// filter is supposed to have rejected.
///
/// # Panics
/// Panics when the read is empty or `ref_pos` is out of range.
pub fn banded_align(
    read: &[Base],
    reference: &PackedSeq,
    ref_pos: usize,
    band: usize,
) -> Option<Alignment> {
    assert!(!read.is_empty(), "empty read");
    assert!(ref_pos < reference.len(), "ref_pos out of range");
    let n = read.len();
    // Reference window: read length plus band slack on each side.
    let start = ref_pos.saturating_sub(band);
    let end = (ref_pos + n + band).min(reference.len());
    let m = end - start;
    if m == 0 {
        return None;
    }
    let win: Vec<Base> = (start..end).map(|i| reference.get(i)).collect();

    const INF: u32 = u32::MAX / 2;
    // dp[i][j] = edits aligning read[..i] to win[..j]; banded around the
    // diagonal j ≈ i + (ref_pos - start).
    let offset = ref_pos - start;
    let width = 2 * band + 1;
    let idx = |i: usize, j: usize| -> Option<usize> {
        let center = i + offset;
        let lo = center.saturating_sub(band);
        if j < lo || j > center + band || j > m {
            None
        } else {
            Some(i * width + (j - lo))
        }
    };

    let mut dp = vec![INF; (n + 1) * width];
    let mut from = vec![0u8; (n + 1) * width]; // 0 diag, 1 up(ins), 2 left(del)

    for j in offset.saturating_sub(band)..=(offset + band).min(m) {
        if let Some(k) = idx(0, j) {
            dp[k] = 0; // semi-global: the read may start anywhere in band
            from[k] = 2;
        }
    }
    for i in 1..=n {
        let center = i + offset;
        for j in center.saturating_sub(band)..=(center + band).min(m) {
            let k = idx(i, j).expect("in band");
            let mut best = INF;
            let mut dir = 0u8;
            if j >= 1 {
                if let Some(kd) = idx(i - 1, j - 1) {
                    let cost = dp[kd] + u32::from(read[i - 1] != win[j - 1]);
                    if cost < best {
                        best = cost;
                        dir = 0;
                    }
                }
            }
            if let Some(ku) = idx(i - 1, j) {
                if dp[ku] + 1 < best {
                    best = dp[ku] + 1;
                    dir = 1;
                }
            }
            if j >= 1 {
                if let Some(kl) = idx(i, j - 1) {
                    if dp[kl] + 1 < best {
                        best = dp[kl] + 1;
                        dir = 2;
                    }
                }
            }
            dp[k] = best;
            from[k] = dir;
        }
    }

    // Best end column in the band of row n (semi-global: the read must be
    // fully consumed, the window end is free).
    let center = n + offset;
    let mut best_j = None;
    let mut best_cost = INF;
    for j in center.saturating_sub(band)..=(center + band).min(m) {
        if let Some(k) = idx(n, j) {
            if dp[k] < best_cost {
                best_cost = dp[k];
                best_j = Some(j);
            }
        }
    }
    let mut j = best_j?;
    if best_cost >= INF {
        return None;
    }

    // Trace back.
    let mut ops = Vec::with_capacity(n + band);
    let mut i = n;
    while i > 0 {
        let k = idx(i, j).expect("in band");
        match from[k] {
            0 => {
                ops.push(if read[i - 1] == win[j - 1] {
                    AlignOp::Match
                } else {
                    AlignOp::Mismatch
                });
                i -= 1;
                j -= 1;
            }
            1 => {
                ops.push(AlignOp::Insertion);
                i -= 1;
            }
            _ => {
                ops.push(AlignOp::Deletion);
                j -= 1;
            }
        }
    }
    ops.reverse();
    Some(Alignment {
        edits: best_cost,
        ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{Genome, GenomeId};
    use crate::reads::ReadSampler;

    fn seq(s: &str) -> PackedSeq {
        s.parse().unwrap()
    }

    fn bases(s: &str) -> Vec<Base> {
        s.bytes().map(|c| Base::from_ascii(c).unwrap()).collect()
    }

    #[test]
    fn perfect_match_has_zero_edits() {
        let reference = seq("AACCGGTTAACCGGTT");
        let read = bases("CCGGTT");
        let a = banded_align(&read, &reference, 2, 3).unwrap();
        assert_eq!(a.edits, 0);
        assert_eq!(a.matches(), 6);
        assert_eq!(a.cigar(), "6=");
    }

    #[test]
    fn substitution_counts_one_edit() {
        let reference = seq("AAAACCCC");
        let read = bases("AATACCCC"); // one substitution at index 2
        let a = banded_align(&read, &reference, 0, 3).unwrap();
        assert_eq!(a.edits, 1);
        assert!(a.cigar().contains('X'));
    }

    #[test]
    fn insertion_and_deletion_are_found() {
        let reference = seq("ACGTACGTACGT");
        // read = reference[0..8] with an extra base inserted.
        let read = bases("ACGTTACGT");
        let a = banded_align(&read, &reference, 0, 3).unwrap();
        assert_eq!(a.edits, 1);
        assert!(a.ops.contains(&AlignOp::Insertion));

        // read = reference[0..8] with one base deleted.
        let read = bases("ACGACGT");
        let a = banded_align(&read, &reference, 0, 3).unwrap();
        assert_eq!(a.edits, 1);
        assert!(a.ops.contains(&AlignOp::Deletion));
    }

    #[test]
    fn band_too_small_returns_none_or_high_cost() {
        let reference = seq("AAAAAAAAAAAAAAAA");
        let read = bases("TTTTTTTT");
        let a = banded_align(&read, &reference, 4, 2).unwrap();
        assert_eq!(a.edits, 8, "all mismatches within the band");
    }

    #[test]
    fn sampled_reads_align_at_their_origin_with_few_edits() {
        let g = Genome::synthetic(GenomeId::Pt, 5000, 9);
        let mut sampler = ReadSampler::new(&g, 80, 0.02, 3);
        for _ in 0..20 {
            let r = sampler.next_read();
            let a = banded_align(r.bases(), g.sequence(), r.origin(), 5)
                .expect("true origin must align");
            // 2% substitutions over 80 bases: expect a handful of edits.
            assert!(a.edits <= 10, "too many edits: {}", a.edits);
            assert_eq!(
                a.ops
                    .iter()
                    .filter(|&&o| o != crate::align::AlignOp::Deletion)
                    .count(),
                80,
                "every read base consumed"
            );
        }
    }

    #[test]
    fn agrees_with_full_edit_distance_when_band_is_wide() {
        fn full_edit_distance(a: &[Base], b: &[Base]) -> u32 {
            let mut dp: Vec<u32> = (0..=b.len() as u32).collect();
            for i in 1..=a.len() {
                let mut prev = dp[0];
                dp[0] = i as u32;
                for j in 1..=b.len() {
                    let cur = dp[j];
                    dp[j] = (prev + u32::from(a[i - 1] != b[j - 1]))
                        .min(dp[j] + 1)
                        .min(dp[j - 1] + 1);
                    prev = cur;
                }
            }
            dp[b.len()]
        }

        let reference = seq("ACGGTTACGGAACCTT");
        let read = bases("ACGTTTACGGACC");
        let win: Vec<Base> = (0..reference.len()).map(|i| reference.get(i)).collect();
        // Wide band == full matrix; the banded aligner is infix-style
        // (both window ends free), so compare against the best window
        // substring.
        let banded = banded_align(&read, &reference, 0, reference.len()).unwrap();
        let mut best_full = u32::MAX;
        for s in 0..win.len() {
            for e in s..=win.len() {
                best_full = best_full.min(full_edit_distance(&read, &win[s..e]));
            }
        }
        assert_eq!(banded.edits, best_full);
    }

    #[test]
    fn cigar_compacts_runs() {
        let a = Alignment {
            edits: 1,
            ops: vec![
                AlignOp::Match,
                AlignOp::Match,
                AlignOp::Mismatch,
                AlignOp::Match,
            ],
        };
        assert_eq!(a.cigar(), "2=1X1=");
    }

    #[test]
    #[should_panic(expected = "empty read")]
    fn empty_read_panics() {
        let reference = seq("ACGT");
        let _ = banded_align(&[], &reference, 0, 2);
    }
}
