//! Sequencing-read simulation.

use beacon_sim::rng::SimRng;

use crate::alphabet::Base;
use crate::genome::Genome;

/// One sequencing read: a window of the reference with substitution
/// errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    bases: Vec<Base>,
    /// True position the read was sampled from (ground truth for tests).
    origin: usize,
}

impl Read {
    /// The read's bases.
    pub fn bases(&self) -> &[Base] {
        &self.bases
    }

    /// Read length.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// True when the read is empty.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// Reference position the read was sampled from.
    pub fn origin(&self) -> usize {
        self.origin
    }
}

/// Samples error-injected reads from a genome (an NGS read simulator).
#[derive(Debug, Clone)]
pub struct ReadSampler<'g> {
    genome: &'g Genome,
    read_len: usize,
    error_rate: f64,
    rng: SimRng,
}

impl<'g> ReadSampler<'g> {
    /// Creates a sampler producing reads of `read_len` bases with a
    /// per-base substitution probability of `error_rate`.
    ///
    /// # Panics
    /// Panics when `read_len` is zero or longer than the genome.
    pub fn new(genome: &'g Genome, read_len: usize, error_rate: f64, seed: u64) -> Self {
        assert!(read_len > 0, "read length must be positive");
        assert!(
            read_len <= genome.len(),
            "read length {read_len} exceeds genome length {}",
            genome.len()
        );
        ReadSampler {
            genome,
            read_len,
            error_rate,
            rng: SimRng::from_seed(seed ^ 0x5EED),
        }
    }

    /// Samples the next read.
    pub fn next_read(&mut self) -> Read {
        let origin = self.rng.index(self.genome.len() - self.read_len + 1);
        let seq = self.genome.sequence();
        let mut bases = Vec::with_capacity(self.read_len);
        for i in 0..self.read_len {
            let mut b = seq.get(origin + i);
            if self.rng.chance(self.error_rate) {
                // Substitute with one of the three other bases.
                let shift = 1 + self.rng.below(3) as u8;
                b = Base::from_code((b.code() + shift) % 4);
            }
            bases.push(b);
        }
        Read { bases, origin }
    }

    /// Samples `n` reads.
    pub fn take_reads(&mut self, n: usize) -> Vec<Read> {
        (0..n).map(|_| self.next_read()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::GenomeId;

    fn genome() -> Genome {
        Genome::synthetic(GenomeId::Pt, 10_000, 11)
    }

    #[test]
    fn error_free_reads_match_reference() {
        let g = genome();
        let mut s = ReadSampler::new(&g, 50, 0.0, 1);
        for _ in 0..20 {
            let r = s.next_read();
            let window = g.sequence().slice(r.origin(), 50);
            assert_eq!(r.bases(), window.as_slice());
        }
    }

    #[test]
    fn errors_change_some_bases() {
        let g = genome();
        let mut s = ReadSampler::new(&g, 100, 0.2, 2);
        let mut mismatches = 0;
        for _ in 0..10 {
            let r = s.next_read();
            let window = g.sequence().slice(r.origin(), 100);
            mismatches += r
                .bases()
                .iter()
                .zip(&window)
                .filter(|(a, b)| a != b)
                .count();
        }
        // Expected ~200 mismatches over 1000 bases at 20%.
        assert!(mismatches > 100, "only {mismatches} mismatches");
    }

    #[test]
    fn sampling_is_deterministic() {
        let g = genome();
        let a = ReadSampler::new(&g, 40, 0.05, 3).take_reads(5);
        let b = ReadSampler::new(&g, 40, 0.05, 3).take_reads(5);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exceeds genome length")]
    fn oversized_read_panics() {
        let g = genome();
        let _ = ReadSampler::new(&g, 20_000, 0.0, 1);
    }

    #[test]
    fn take_reads_returns_n() {
        let g = genome();
        let reads = ReadSampler::new(&g, 30, 0.01, 4).take_reads(7);
        assert_eq!(reads.len(), 7);
        assert!(reads.iter().all(|r| r.len() == 30));
    }
}
