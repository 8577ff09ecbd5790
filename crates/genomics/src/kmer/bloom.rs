//! A counting Bloom filter with byte-wide saturating counters.

use crate::trace::{Access, Region, Step};

/// A counting Bloom filter: `m` byte counters, `h` hash functions.
///
/// ```
/// use beacon_genomics::kmer::CountingBloom;
/// let mut cbf = CountingBloom::new(1 << 16, 3, 42);
/// cbf.insert(0xDEAD);
/// cbf.insert(0xDEAD);
/// assert!(cbf.estimate(0xDEAD) >= 2);
/// assert_eq!(cbf.estimate(0xBEEF), 0); // almost surely
/// ```
#[derive(Debug, Clone)]
pub struct CountingBloom {
    counters: Vec<u8>,
    h: u32,
    seed: u64,
}

impl CountingBloom {
    /// Creates a filter with `m` counters and `h` hash functions.
    ///
    /// # Panics
    /// Panics when `m == 0` or `h == 0`.
    pub fn new(m: usize, h: u32, seed: u64) -> Self {
        assert!(m > 0, "filter size must be positive");
        assert!(h > 0, "need at least one hash function");
        CountingBloom {
            counters: vec![0; m],
            h,
            seed,
        }
    }

    /// Number of counters.
    pub fn m(&self) -> usize {
        self.counters.len()
    }

    /// Number of hash functions.
    pub fn h(&self) -> u32 {
        self.h
    }

    /// Region size in bytes (one byte per counter).
    pub fn bytes(&self) -> u64 {
        self.counters.len() as u64
    }

    /// The `h` counter positions for `key` (double hashing).
    pub fn positions(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let m = self.counters.len() as u64;
        let h1 = key
            .wrapping_add(self.seed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let h2 = key.rotate_left(31).wrapping_mul(0xC2B2_AE3D_27D4_EB4F) | 1; // odd, so strides cover the table
        (0..self.h as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize)
    }

    /// Increments the counters of `key` (saturating at 255).
    pub fn insert(&mut self, key: u64) {
        let positions: Vec<usize> = self.positions(key).collect();
        for p in positions {
            self.counters[p] = self.counters[p].saturating_add(1);
        }
    }

    /// Estimated count of `key` (minimum over its counters; an upper
    /// bound on the true count).
    pub fn estimate(&self, key: u64) -> u8 {
        self.positions(key)
            .map(|p| self.counters[p])
            .min()
            .unwrap_or(0)
    }

    /// Merges another filter of the same shape (element-wise saturating
    /// add) — the NEST multi-pass merge step.
    ///
    /// # Panics
    /// Panics when shapes differ.
    pub fn merge(&mut self, other: &CountingBloom) {
        assert_eq!(self.counters.len(), other.counters.len(), "size mismatch");
        assert_eq!(self.h, other.h, "hash count mismatch");
        assert_eq!(self.seed, other.seed, "seed mismatch");
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a = a.saturating_add(*b);
        }
    }

    /// The posted RMW access step that inserting `key` generates on the
    /// accelerator (one 1-byte atomic increment per hash function).
    pub fn trace_insert(&self, key: u64) -> Step {
        let accesses = self
            .positions(key)
            .map(|p| Access::rmw(Region::Bloom, p as u64, 1))
            .collect();
        Step::posted(accesses)
    }

    /// Fraction of non-zero counters (load factor).
    pub fn load(&self) -> f64 {
        let nz = self.counters.iter().filter(|&&c| c > 0).count();
        nz as f64 / self.counters.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_is_upper_bound() {
        let mut cbf = CountingBloom::new(1 << 12, 3, 1);
        for _ in 0..5 {
            cbf.insert(77);
        }
        assert!(cbf.estimate(77) >= 5);
    }

    #[test]
    fn distinct_keys_mostly_independent() {
        let mut cbf = CountingBloom::new(1 << 16, 3, 2);
        for k in 0..100 {
            cbf.insert(k);
        }
        // With 100 keys in 64 Ki counters, a fresh key should estimate 0.
        let fresh = (1000..1100).filter(|&k| cbf.estimate(k) == 0).count();
        assert!(fresh >= 95, "only {fresh}/100 fresh keys estimated 0");
    }

    #[test]
    fn positions_are_h_many_and_in_range() {
        let cbf = CountingBloom::new(1000, 4, 3);
        let ps: Vec<usize> = cbf.positions(123).collect();
        assert_eq!(ps.len(), 4);
        assert!(ps.iter().all(|&p| p < 1000));
    }

    #[test]
    fn merge_equals_union_of_inserts() {
        let mut a = CountingBloom::new(1 << 10, 3, 4);
        let mut b = CountingBloom::new(1 << 10, 3, 4);
        a.insert(1);
        a.insert(2);
        b.insert(2);
        b.insert(3);
        let mut merged = a.clone();
        merged.merge(&b);

        let mut direct = CountingBloom::new(1 << 10, 3, 4);
        for k in [1, 2, 2, 3] {
            direct.insert(k);
        }
        assert_eq!(merged.counters, direct.counters);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn merge_validates_shape() {
        let mut a = CountingBloom::new(10, 3, 0);
        let b = CountingBloom::new(20, 3, 0);
        a.merge(&b);
    }

    #[test]
    fn counters_saturate() {
        let mut cbf = CountingBloom::new(64, 1, 5);
        for _ in 0..300 {
            cbf.insert(9);
        }
        assert_eq!(cbf.estimate(9), 255);
    }

    #[test]
    fn trace_is_posted_rmw_bytes() {
        let cbf = CountingBloom::new(1 << 10, 3, 6);
        let step = cbf.trace_insert(42);
        assert!(!step.wait_for_data);
        assert_eq!(step.accesses.len(), 3);
        for a in &step.accesses {
            assert_eq!(a.bytes, 1);
            assert_eq!(a.region, Region::Bloom);
            assert!(a.offset < cbf.bytes());
        }
    }

    #[test]
    fn load_grows_with_inserts() {
        let mut cbf = CountingBloom::new(1 << 10, 3, 7);
        assert_eq!(cbf.load(), 0.0);
        for k in 0..50 {
            cbf.insert(k);
        }
        assert!(cbf.load() > 0.05);
    }
}
