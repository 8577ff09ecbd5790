//! Synthetic genomes standing in for the paper's NCBI datasets.
//!
//! The paper evaluates on five large genomes — Pinus taeda (Pt), Picea
//! glauca (Pg), Sequoia sempervirens (Ss), Ambystoma mexicanum (Am) and
//! Neoceratodus forsteri (Nf) — plus a human genome at 50x coverage for
//! k-mer counting. Those datasets are tens of gigabases; the simulator
//! substitutes synthetic genomes that preserve what actually drives the
//! modelled behaviour:
//!
//! * the **relative sizes** of the five genomes (index sizes scale with
//!   genome length, which determines how many DIMMs the data spans), and
//! * a **repeat structure** (plant genomes are highly repetitive), which
//!   determines seed hit counts and candidate-list lengths.

use beacon_sim::rng::SimRng;

use crate::alphabet::Base;
use crate::sequence::PackedSeq;

/// The five evaluation genomes of the paper plus the human-like k-mer
/// counting dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GenomeId {
    /// Pinus taeda (loblolly pine), ~22 Gbp.
    Pt,
    /// Picea glauca (white spruce), ~20 Gbp.
    Pg,
    /// Sequoia sempervirens (coast redwood), ~27 Gbp.
    Ss,
    /// Ambystoma mexicanum (axolotl), ~32 Gbp.
    Am,
    /// Neoceratodus forsteri (Australian lungfish), ~34 Gbp.
    Nf,
    /// Human-like genome used for the k-mer counting experiments, ~3 Gbp.
    Human,
}

impl GenomeId {
    /// The five seeding/pre-alignment genomes, in paper order.
    pub const FIVE: [GenomeId; 5] = [
        GenomeId::Pt,
        GenomeId::Pg,
        GenomeId::Ss,
        GenomeId::Am,
        GenomeId::Nf,
    ];

    /// Short label as used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            GenomeId::Pt => "Pt",
            GenomeId::Pg => "Pg",
            GenomeId::Ss => "Ss",
            GenomeId::Am => "Am",
            GenomeId::Nf => "Nf",
            GenomeId::Human => "Human",
        }
    }

    /// Real genome size in megabases (for documentation and scaling).
    pub fn real_size_mbp(&self) -> f64 {
        match self {
            GenomeId::Pt => 22_100.0,
            GenomeId::Pg => 20_000.0,
            GenomeId::Ss => 26_500.0,
            GenomeId::Am => 32_400.0,
            GenomeId::Nf => 34_500.0,
            GenomeId::Human => 3_100.0,
        }
    }

    /// Scales a base length so that this genome keeps its size *relative*
    /// to the others when `Pt` is given `pt_len` bases.
    pub fn scaled_len(&self, pt_len: usize) -> usize {
        let ratio = self.real_size_mbp() / GenomeId::Pt.real_size_mbp();
        ((pt_len as f64) * ratio).round() as usize
    }

    /// Fraction of the genome covered by repeats (plant genomes are highly
    /// repetitive; these drive seed-hit multiplicity).
    pub fn repeat_fraction(&self) -> f64 {
        match self {
            GenomeId::Pt => 0.74,
            GenomeId::Pg => 0.70,
            GenomeId::Ss => 0.72,
            GenomeId::Am => 0.65,
            GenomeId::Nf => 0.60,
            GenomeId::Human => 0.45,
        }
    }
}

/// A reference genome (synthetic stand-in for an NCBI assembly).
#[derive(Debug, Clone)]
pub struct Genome {
    id: GenomeId,
    sequence: PackedSeq,
}

impl Genome {
    /// Generates a synthetic genome of `len` bases with the repeat
    /// structure of `id`, deterministically from `seed`.
    ///
    /// The generator emits a mixture of fresh random sequence and copies
    /// of earlier segments (repeats of geometric length), reproducing the
    /// repeat-driven multiplicity of seed hits.
    ///
    /// # Panics
    /// Panics when `len == 0`.
    pub fn synthetic(id: GenomeId, len: usize, seed: u64) -> Self {
        assert!(len > 0, "genome length must be positive");
        let mut rng = SimRng::from_seed(seed ^ 0xBEAC_0000 ^ id.real_size_mbp() as u64);
        let mut seq = PackedSeq::with_capacity(len);
        let repeat_p = id.repeat_fraction();

        while seq.len() < len {
            if seq.len() > 256 && rng.chance(repeat_p) {
                // Copy a repeat: pick an earlier segment and replay it.
                let rep_len = rng.geometric_between(32, 256, 0.97) as usize;
                let rep_len = rep_len.min(len - seq.len());
                let start = rng.index(seq.len() - rep_len.min(seq.len() - 1));
                for i in 0..rep_len {
                    seq.push(seq.get(start + i));
                }
            } else {
                // Fresh random stretch.
                let fresh = rng.geometric_between(16, 128, 0.95) as usize;
                let fresh = fresh.min(len - seq.len());
                for _ in 0..fresh {
                    seq.push(Base::from_code(rng.below(4) as u8));
                }
            }
        }
        Genome { id, sequence: seq }
    }

    /// Wraps an existing sequence (e.g. parsed from FASTA) as a genome.
    ///
    /// # Panics
    /// Panics when the sequence is empty.
    pub fn from_sequence(id: GenomeId, sequence: crate::sequence::PackedSeq) -> Self {
        assert!(!sequence.is_empty(), "genome must be non-empty");
        Genome { id, sequence }
    }

    /// Which dataset this genome stands in for.
    pub fn id(&self) -> GenomeId {
        self.id
    }

    /// The reference sequence.
    pub fn sequence(&self) -> &PackedSeq {
        &self.sequence
    }

    /// Genome length in bases.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// True when the genome is empty (never the case for constructed
    /// genomes).
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Genome::synthetic(GenomeId::Pt, 5000, 1);
        let b = Genome::synthetic(GenomeId::Pt, 5000, 1);
        assert_eq!(a.sequence(), b.sequence());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Genome::synthetic(GenomeId::Pt, 5000, 1);
        let b = Genome::synthetic(GenomeId::Pt, 5000, 2);
        assert_ne!(a.sequence(), b.sequence());
    }

    #[test]
    fn exact_requested_length() {
        for len in [1, 63, 1024, 4097] {
            let g = Genome::synthetic(GenomeId::Am, len, 3);
            assert_eq!(g.len(), len);
        }
    }

    #[test]
    fn scaled_lengths_preserve_order() {
        let pt = GenomeId::Pt.scaled_len(100_000);
        let pg = GenomeId::Pg.scaled_len(100_000);
        let nf = GenomeId::Nf.scaled_len(100_000);
        assert_eq!(pt, 100_000);
        assert!(pg < pt);
        assert!(nf > pt);
    }

    #[test]
    fn repetitive_genome_has_repeats() {
        // A highly repetitive genome should contain at least one 32-mer
        // appearing more than once.
        let g = Genome::synthetic(GenomeId::Pt, 20_000, 9);
        let s = g.sequence();
        let mut counts = std::collections::HashMap::new();
        for i in 0..s.len() - 32 {
            let key: Vec<u8> = (0..32).map(|j| s.get(i + j).code()).collect();
            *counts.entry(key).or_insert(0u32) += 1;
        }
        assert!(counts.values().any(|&c| c > 1));
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = GenomeId::FIVE.iter().map(|g| g.label()).collect();
        assert_eq!(labels, vec!["Pt", "Pg", "Ss", "Am", "Nf"]);
    }
}
