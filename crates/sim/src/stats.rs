//! Statistics collection: named counters and histograms.
//!
//! Every simulated component owns (or shares) a [`Stats`] registry. The
//! registry is deliberately string-keyed: experiments print whichever subset
//! of counters a figure needs, and ad-hoc counters can be added deep inside a
//! model without threading new struct fields through the stack.

use std::fmt;

use crate::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};

/// A registry of named counters and histograms.
///
/// Backed by key-sorted dense arrays rather than a tree map: registries
/// hold a few dozen keys, hot loops hammer the same key millions of
/// times, and an MRU index hint turns the common repeat-increment into a
/// single string compare with no pointer chasing. All observable
/// behavior (sorted iteration, digests, snapshot bytes) is identical to
/// the former `BTreeMap` backing.
///
/// ```
/// use beacon_sim::stats::Stats;
/// let mut s = Stats::new();
/// s.add("dram.read", 2);
/// s.add("dram.read", 3);
/// assert_eq!(s.get("dram.read"), 5);
/// assert_eq!(s.get("dram.write"), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Counters, sorted by key (binary-searched on miss).
    counters: Vec<(Box<str>, u64)>,
    /// Float accumulators, sorted by key.
    values: Vec<(Box<str>, f64)>,
    /// Way cache mapping a key's *address* to its index in `counters`.
    /// Hot call sites pass `&'static str` literals whose address never
    /// changes, so one compare replaces the binary search. Every hit is
    /// verified by key *content* before use, so a stale or colliding
    /// entry degrades to the slow path instead of corrupting a counter —
    /// the cache is never observable (and meaningless across
    /// serialization).
    hints: [(usize, u32); HINT_WAYS],
    /// MRU hint for `values`.
    hint_f64: usize,
    /// Registered [`StatId`] handles: `(key, index-or-MAX)`. Unlike the
    /// way cache these are maintained *exactly* (every counter insert
    /// fixes them up), so `add_id` needs no content verification — one
    /// bounds-checked load replaces the whole lookup. `u32::MAX` marks a
    /// key whose counter does not exist yet: registering a handle never
    /// materializes a zero counter, so handles are invisible to
    /// iteration, digests and snapshots.
    handles: Vec<(Box<str>, u32)>,
}

/// A stable handle to one counter in a specific [`Stats`] registry,
/// obtained from [`Stats::id`]. Turns the string lookup of
/// [`Stats::add`] into a direct index — the right tool for per-cycle
/// flush paths that hammer a fixed set of keys. A handle is only
/// meaningful on the registry (or a clone of the registry) that issued
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatId(u32);

/// Sentinel in the handle table for "counter not materialized yet".
const NO_SLOT: u32 = u32::MAX;

/// Ways in the counter-hint cache (power of two; a registry has ~a
/// dozen keys, of which a handful are hot).
const HINT_WAYS: usize = 8;

/// The way a key address falls into. Distinct literals sit at distinct
/// rodata offsets, so low address bits spread them well.
#[inline]
fn hint_way(key: &str) -> (usize, usize) {
    let ptr = key.as_ptr() as usize;
    (ptr, (ptr >> 3) & (HINT_WAYS - 1))
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Adds `amount` to counter `key`, creating it at zero if absent.
    pub fn add(&mut self, key: &str, amount: u64) {
        if amount == 0 {
            return;
        }
        let (ptr, way) = hint_way(key);
        let (hptr, hidx) = self.hints[way];
        if hptr == ptr {
            if let Some((k, v)) = self.counters.get_mut(hidx as usize) {
                if &**k == key {
                    *v += amount;
                    return;
                }
            }
        }
        let i = match self.counters.binary_search_by(|(k, _)| (**k).cmp(key)) {
            Ok(i) => {
                self.counters[i].1 += amount;
                i
            }
            Err(i) => {
                self.counters.insert(i, (key.into(), amount));
                self.reindex_after_insert(i, key);
                i
            }
        };
        self.hints[way] = (ptr, i as u32);
    }

    /// Increments counter `key` by one.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Registers `key` and returns a stable [`StatId`] for O(1) adds.
    /// Does **not** create the counter — a handle whose key is never
    /// bumped leaves the registry untouched. Registering the same key
    /// twice returns the same handle.
    pub fn id(&mut self, key: &str) -> StatId {
        if let Some(i) = self.handles.iter().position(|(k, _)| &**k == key) {
            return StatId(i as u32);
        }
        let slot = match self.counters.binary_search_by(|(k, _)| (**k).cmp(key)) {
            Ok(i) => i as u32,
            Err(_) => NO_SLOT,
        };
        self.handles.push((key.into(), slot));
        StatId(self.handles.len() as u32 - 1)
    }

    /// Adds `amount` to the counter behind `id` — one indexed load on
    /// the hot path, no string compare.
    ///
    /// # Panics
    /// Panics when `id` was issued by a different registry (out of
    /// range). Handles from a clone of the same registry are fine.
    #[inline]
    pub fn add_id(&mut self, id: StatId, amount: u64) {
        if amount == 0 {
            return;
        }
        let slot = self.handles[id.0 as usize].1;
        if slot != NO_SLOT {
            self.counters[slot as usize].1 += amount;
            return;
        }
        self.materialize(id, amount);
    }

    /// Increments the counter behind `id` by one.
    #[inline]
    pub fn incr_id(&mut self, id: StatId) {
        self.add_id(id, 1);
    }

    /// First nonzero add through a handle: insert the counter and
    /// reindex. Cold by construction (once per key per registry).
    #[cold]
    fn materialize(&mut self, id: StatId, amount: u64) {
        let key = self.handles[id.0 as usize].0.clone();
        match self.counters.binary_search_by(|(k, _)| (**k).cmp(&*key)) {
            Ok(i) => {
                // `add` created it behind our back; adopt the index.
                self.counters[i].1 += amount;
                self.handles[id.0 as usize].1 = i as u32;
            }
            Err(i) => {
                self.counters.insert(i, (key.clone(), amount));
                self.reindex_after_insert(i, &key);
            }
        }
    }

    /// Restores the handle table's exactness after an insert at `i`:
    /// shifts every index at-or-past `i` and binds handles waiting on
    /// `key`. O(handles), and inserts happen once per key.
    fn reindex_after_insert(&mut self, i: usize, key: &str) {
        for (k, slot) in &mut self.handles {
            if *slot != NO_SLOT {
                if *slot >= i as u32 {
                    *slot += 1;
                }
            } else if &**k == key {
                *slot = i as u32;
            }
        }
    }

    /// Current value of counter `key` (zero when never touched).
    pub fn get(&self, key: &str) -> u64 {
        match self.counters.binary_search_by(|(k, _)| (**k).cmp(key)) {
            Ok(i) => self.counters[i].1,
            Err(_) => 0,
        }
    }

    /// Adds `amount` to the floating-point accumulator `key` (used for
    /// energy in picojoules, which overflows integer granularity).
    pub fn add_f64(&mut self, key: &str, amount: f64) {
        if let Some((k, v)) = self.values.get_mut(self.hint_f64) {
            if &**k == key {
                *v += amount;
                return;
            }
        }
        let i = match self.values.binary_search_by(|(k, _)| (**k).cmp(key)) {
            Ok(i) => {
                self.values[i].1 += amount;
                i
            }
            Err(i) => {
                self.values.insert(i, (key.into(), amount));
                i
            }
        };
        self.hint_f64 = i;
    }

    /// Current value of float accumulator `key` (zero when never touched).
    pub fn get_f64(&self, key: &str) -> f64 {
        match self.values.binary_search_by(|(k, _)| (**k).cmp(key)) {
            Ok(i) => self.values[i].1,
            Err(_) => 0.0,
        }
    }

    /// Sum of every float accumulator whose key starts with `prefix`.
    pub fn sum_f64_prefix(&self, prefix: &str) -> f64 {
        self.values
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Sum of every counter whose key starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Iterates over `(key, value)` counter pairs in **sorted key
    /// order** — a guarantee, not an accident of the backing store.
    /// Reports and JSON built from this iterator are byte-stable
    /// across runs regardless of counter insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (&**k, *v))
    }

    /// Iterates over `(key, value)` float pairs in **sorted key order**
    /// (same byte-stability guarantee as [`Stats::iter`]).
    pub fn iter_f64(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (&**k, *v))
    }

    /// Merges another registry into this one (summing matching keys).
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
        for (k, v) in &other.values {
            self.add_f64(k, *v);
        }
    }

    /// Removes every counter and accumulator. Issued [`StatId`] handles
    /// stay valid: their keys are retained and rebind on the next add.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.values.clear();
        self.hints = [(0, 0); HINT_WAYS];
        self.hint_f64 = 0;
        for (_, slot) in &mut self.handles {
            *slot = NO_SLOT;
        }
    }
}

impl Snapshot for Stats {
    const TAG: &'static str = "sim.stats";
    const VERSION: u16 = 1;
    fn snap(&self, w: &mut SnapWriter) {
        // The arrays are key-sorted, so equal registries always encode
        // to equal bytes (same wire layout as the former tree map).
        w.usize(self.counters.len());
        for (k, v) in &self.counters {
            w.str(k);
            w.u64(*v);
        }
        w.usize(self.values.len());
        for (k, v) in &self.values {
            w.str(k);
            w.f64(*v);
        }
    }
}

impl Restore for Stats {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        for _ in 0..r.seq_len()? {
            let k = r.str()?;
            let v = r.u64()?;
            self.counters.push((k.into_boxed_str(), v));
        }
        // Snapshots are written sorted; sorting here keeps a hand-built
        // image from silently breaking the sorted-array invariant.
        self.counters.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for _ in 0..r.seq_len()? {
            let k = r.str()?;
            let v = r.f64()?;
            self.values.push((k.into_boxed_str(), v));
        }
        self.values.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        // `clear` parked the handles; rebind them against the restored
        // counter array so callers' cached `StatId`s stay exact.
        for hi in 0..self.handles.len() {
            let slot = match self
                .counters
                .binary_search_by(|(k, _)| (**k).cmp(&self.handles[hi].0))
            {
                Ok(i) => i as u32,
                Err(_) => NO_SLOT,
            };
            self.handles[hi].1 = slot;
        }
        Ok(())
    }
}

impl Snapshot for Histogram {
    const TAG: &'static str = "sim.hist";
    const VERSION: u16 = 1;
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.buckets.len());
        for &b in &self.buckets {
            w.u64(b);
        }
    }
}

impl Restore for Histogram {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.seq_len()?;
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            buckets.push(r.u64()?);
        }
        self.buckets = buckets;
        Ok(())
    }
}

/// A dependency-free 64-bit FNV-1a hasher for stable run digests.
///
/// Unlike [`std::hash::DefaultHasher`], the output is specified and
/// stable across Rust releases, platforms and processes — two runs that
/// feed it the same bytes produce the same digest forever, which is what
/// the differential conformance suite pins its golden values to.
///
/// ```
/// use beacon_sim::stats::Fnv64;
/// let mut h = Fnv64::new();
/// h.write_str("dram.cmd.read");
/// h.write_u64(42);
/// assert_eq!(h.finish(), {
///     let mut h2 = Fnv64::new();
///     h2.write_str("dram.cmd.read");
///     h2.write_u64(42);
///     h2.finish()
/// });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET_BASIS)
    }

    /// Folds raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u64` as a single word-wise FNV-1a round: one xor-multiply
    /// instead of the eight byte rounds of [`Fnv64::write_u64`]. Produces
    /// a different stream from the byte-wise writers, so it must not be
    /// mixed into digests that golden values pin; it exists for cheap
    /// per-request sampling decisions on hot paths.
    pub fn fold_u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Folds an `f64` into the digest via its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string into the digest, with a terminator so `("ab", "c")`
    /// and `("a", "bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Stats {
    /// Folds every counter and float accumulator (in key order) into a
    /// digest hasher. Key order is deterministic because the registry is
    /// a `BTreeMap`.
    pub fn digest_into(&self, h: &mut Fnv64) {
        for (k, v) in &self.counters {
            h.write_str(k);
            h.write_u64(*v);
        }
        for (k, v) in &self.values {
            h.write_str(k);
            h.write_f64(*v);
        }
    }
}

impl Histogram {
    /// Folds the bucket vector into a digest hasher.
    pub fn digest_into(&self, h: &mut Fnv64) {
        h.write_u64(self.buckets.len() as u64);
        for &b in &self.buckets {
            h.write_u64(b);
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k:50} {v}")?;
        }
        for (k, v) in &self.values {
            writeln!(f, "{k:50} {v:.3}")?;
        }
        Ok(())
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// Used for e.g. per-chip access distributions (Fig. 13) and request-latency
/// distributions.
///
/// ```
/// use beacon_sim::stats::Histogram;
/// let mut h = Histogram::new(4);
/// h.record(0, 10);
/// h.record(3, 2);
/// assert_eq!(h.bucket(0), 10);
/// assert_eq!(h.total(), 12);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `n` buckets, all zero.
    pub fn new(n: usize) -> Self {
        Histogram {
            buckets: vec![0; n],
        }
    }

    /// Adds `amount` to bucket `idx`.
    ///
    /// # Panics
    /// Panics when `idx` is out of range: in the BEACON models a bucket
    /// index is a physical resource index (a DRAM chip, a PE) and an
    /// out-of-range index is a wiring bug, not a data condition.
    pub fn record(&mut self, idx: usize, amount: u64) {
        self.buckets[idx] += amount;
    }

    /// Value of bucket `idx`.
    pub fn bucket(&self, idx: usize) -> u64 {
        self.buckets[idx]
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when the histogram has no buckets.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Largest bucket value.
    pub fn max(&self) -> u64 {
        self.buckets.iter().copied().max().unwrap_or(0)
    }

    /// Smallest bucket value.
    pub fn min(&self) -> u64 {
        self.buckets.iter().copied().min().unwrap_or(0)
    }

    /// Arithmetic mean of bucket values.
    pub fn mean(&self) -> f64 {
        if self.buckets.is_empty() {
            return 0.0;
        }
        self.total() as f64 / self.buckets.len() as f64
    }

    /// Population coefficient of variation (σ/μ) of the bucket values — the
    /// imbalance metric used for the multi-chip-coalescing study.
    pub fn coefficient_of_variation(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .buckets
            .iter()
            .map(|&b| {
                let d = b as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.buckets.len() as f64;
        var.sqrt() / mean
    }

    /// Nearest-rank percentile of the bucket *values* (`p` in `0..=100`,
    /// clamped): the smallest bucket value such that at least `p`% of
    /// buckets are `<=` it.
    ///
    /// Edge behavior is part of the contract: `p = 0` returns the
    /// minimum, `p = 100` the maximum, an **empty histogram returns 0**
    /// for every `p`, a **single-bucket histogram returns that sole
    /// bucket's value** for every `p`, and out-of-range `p` clamps
    /// instead of panicking — all deterministically, so report output
    /// built on percentiles is byte-stable.
    ///
    /// ```
    /// use beacon_sim::stats::Histogram;
    /// let mut h = Histogram::new(4);
    /// for (i, v) in [2u64, 4, 6, 8].into_iter().enumerate() {
    ///     h.record(i, v);
    /// }
    /// assert_eq!(h.percentile(50.0), 4);
    /// assert_eq!(h.percentile(95.0), 8);
    /// ```
    pub fn percentile(&self, p: f64) -> u64 {
        if self.buckets.is_empty() {
            return 0;
        }
        let mut sorted = self.buckets.clone();
        sorted.sort_unstable();
        let p = p.clamp(0.0, 100.0);
        let n = sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        sorted[rank.clamp(1, n) - 1]
    }

    /// Read-only view of the raw buckets.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Merges another histogram of identical shape into this one.
    ///
    /// # Panics
    /// Panics when the bucket counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.buckets.len(), other.buckets.len());
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// Nearest-rank percentile over an **ascending-sorted** sample slice —
/// the service-level latency statistic (exact over every observation,
/// unlike [`Histogram::percentile`] which ranks bucket totals).
///
/// Returns 0 for an empty slice.
///
/// ```
/// use beacon_sim::stats::percentile_of_sorted;
/// let xs = [10u64, 20, 30, 40];
/// assert_eq!(percentile_of_sorted(&xs, 50.0), 20);
/// assert_eq!(percentile_of_sorted(&xs, 99.0), 40);
/// ```
///
/// # Panics
/// Panics (debug) when the slice is not sorted ascending.
pub fn percentile_of_sorted(sorted: &[u64], p: f64) -> u64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "slice not sorted");
    if sorted.is_empty() {
        return 0;
    }
    let p = p.clamp(0.0, 100.0);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.incr("a");
        s.add("a", 4);
        assert_eq!(s.get("a"), 5);
        assert_eq!(s.get("missing"), 0);
    }

    #[test]
    fn stat_ids_accumulate_without_materializing_early() {
        let mut s = Stats::new();
        let hot = s.id("hot");
        let cold = s.id("cold");
        // Registering alone is invisible: no counters, digest unchanged.
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.get("hot"), 0);
        s.add_id(hot, 0);
        assert_eq!(s.iter().count(), 0, "zero add must not materialize");
        s.add_id(hot, 2);
        s.incr_id(hot);
        assert_eq!(s.get("hot"), 3);
        assert_eq!(s.iter().count(), 1, "cold handle never materialized");
        let _ = cold;
        // Same key, same handle.
        assert_eq!(s.id("hot"), hot);
    }

    #[test]
    fn stat_ids_survive_interleaved_string_inserts() {
        // String-keyed inserts shift the sorted array under the handles;
        // the handle table must be reindexed exactly.
        let mut s = Stats::new();
        let m = s.id("mm");
        s.add_id(m, 5);
        s.add("aa", 1); // inserts before "mm"
        s.add("zz", 1); // inserts after
        s.add_id(m, 5);
        assert_eq!(s.get("mm"), 10);
        // A parked handle binds when `add` creates its key directly.
        let z = s.id("z-late");
        s.add("z-late", 7);
        s.add("ab", 1); // another shifting insert
        s.add_id(z, 3);
        assert_eq!(s.get("z-late"), 10);
    }

    #[test]
    fn stat_ids_survive_clear_and_restore() {
        let mut s = Stats::new();
        let a = s.id("k.a");
        let b = s.id("k.b");
        s.add_id(a, 1);
        s.add_id(b, 2);
        s.clear();
        assert_eq!(s.iter().count(), 0);
        s.add_id(b, 4);
        assert_eq!(s.get("k.b"), 4);
        assert_eq!(s.get("k.a"), 0);
        // Round-trip through the snapshot machinery rebinds handles.
        let mut w = SnapWriter::new();
        s.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut t = s.clone();
        t.restore(&mut r).unwrap();
        t.add_id(a, 9);
        t.add_id(b, 1);
        assert_eq!(t.get("k.a"), 9);
        assert_eq!(t.get("k.b"), 5);
    }

    #[test]
    fn float_accumulators_work() {
        let mut s = Stats::new();
        s.add_f64("energy.dram", 1.5);
        s.add_f64("energy.dram", 2.5);
        s.add_f64("energy.comm", 1.0);
        assert_eq!(s.get_f64("energy.dram"), 4.0);
        assert_eq!(s.sum_f64_prefix("energy."), 5.0);
    }

    #[test]
    fn merge_sums_matching_keys() {
        let mut a = Stats::new();
        a.add("x", 1);
        let mut b = Stats::new();
        b.add("x", 2);
        b.add("y", 3);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
    }

    #[test]
    fn prefix_sum_counts_only_matches() {
        let mut s = Stats::new();
        s.add("dram.read", 2);
        s.add("dram.write", 3);
        s.add("cxl.flit", 7);
        assert_eq!(s.sum_prefix("dram."), 5);
    }

    #[test]
    fn iter_is_sorted_regardless_of_insertion_order() {
        // The byte-stability contract: whatever order counters were
        // touched in, iteration is sorted by key.
        let mut s = Stats::new();
        for key in ["zeta", "alpha", "mid", "beta.x", "beta"] {
            s.add(key, 1);
        }
        s.add_f64("w.energy", 1.0);
        s.add_f64("a.energy", 2.0);
        let keys: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(keys, vec!["alpha", "beta", "beta.x", "mid", "zeta"]);
        let fkeys: Vec<&str> = s.iter_f64().map(|(k, _)| k).collect();
        assert_eq!(fkeys, vec!["a.energy", "w.energy"]);
        // And therefore two equal-content registries render identically.
        let mut t = Stats::new();
        for key in ["beta", "beta.x", "zeta", "alpha", "mid"] {
            t.add(key, 1);
        }
        t.add_f64("a.energy", 2.0);
        t.add_f64("w.energy", 1.0);
        assert_eq!(s.to_string(), t.to_string());
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new(4);
        h.record(0, 2);
        h.record(1, 4);
        h.record(2, 6);
        h.record(3, 8);
        assert_eq!(h.total(), 20);
        assert_eq!(h.mean(), 5.0);
        assert_eq!(h.max(), 8);
        assert_eq!(h.min(), 2);
        assert!(h.coefficient_of_variation() > 0.0);
    }

    #[test]
    fn balanced_histogram_has_zero_cv() {
        let mut h = Histogram::new(3);
        for i in 0..3 {
            h.record(i, 5);
        }
        assert_eq!(h.coefficient_of_variation(), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut h = Histogram::new(4);
        for (i, v) in [8u64, 2, 6, 4].into_iter().enumerate() {
            h.record(i, v); // order must not matter
        }
        assert_eq!(h.percentile(0.0), 2);
        assert_eq!(h.percentile(25.0), 2);
        assert_eq!(h.percentile(50.0), 4);
        assert_eq!(h.percentile(75.0), 6);
        assert_eq!(h.percentile(76.0), 8);
        assert_eq!(h.percentile(95.0), 8);
        assert_eq!(h.percentile(100.0), 8);
    }

    #[test]
    fn percentile_degenerate_cases() {
        // Empty histogram: 0 for every p, including the clamped edges.
        for p in [-5.0, 0.0, 50.0, 100.0, 400.0] {
            assert_eq!(Histogram::new(0).percentile(p), 0, "empty, p={p}");
        }
        // Single bucket: the sole bucket's value for every p.
        let mut single = Histogram::new(1);
        single.record(0, 9);
        for p in [-5.0, 0.0, 37.5, 100.0, 400.0] {
            assert_eq!(single.percentile(p), 9, "single, p={p}");
        }
        // A single *zero* bucket is still deterministic (0, not a panic).
        assert_eq!(Histogram::new(1).percentile(50.0), 0);
        // NaN p clamps to the low edge rather than poisoning the rank.
        assert_eq!(single.percentile(f64::NAN), 9);
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let mut h = Histogram::new(17);
        for i in 0..17 {
            h.record(i, (i as u64 * 37) % 13);
        }
        let mut last = h.percentile(0.0);
        for p in 1..=100 {
            let v = h.percentile(p as f64);
            assert!(v >= last, "percentile must be monotone (p={p})");
            last = v;
        }
        assert_eq!(h.percentile(100.0), h.max());
    }

    #[test]
    fn histogram_merge_adds_bucketwise() {
        let mut a = Histogram::new(2);
        a.record(0, 1);
        let mut b = Histogram::new(2);
        b.record(1, 2);
        a.merge(&b);
        assert_eq!(a.buckets(), &[1, 2]);
    }

    #[test]
    fn fnv64_is_order_sensitive_and_stable() {
        let digest = |pairs: &[(&str, u64)]| {
            let mut h = Fnv64::new();
            for (k, v) in pairs {
                h.write_str(k);
                h.write_u64(*v);
            }
            h.finish()
        };
        assert_eq!(digest(&[("a", 1), ("b", 2)]), digest(&[("a", 1), ("b", 2)]));
        assert_ne!(digest(&[("a", 1), ("b", 2)]), digest(&[("b", 2), ("a", 1)]));
        // The string terminator keeps boundaries unambiguous.
        let mut x = Fnv64::new();
        x.write_str("ab");
        x.write_str("c");
        let mut y = Fnv64::new();
        y.write_str("a");
        y.write_str("bc");
        assert_ne!(x.finish(), y.finish());
        // Pinned value: FNV-1a of the empty input is the offset basis.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn stats_digest_tracks_content() {
        let mut a = Stats::new();
        a.add("x", 1);
        a.add_f64("e", 0.5);
        let mut b = a.clone();
        let digest = |s: &Stats| {
            let mut h = Fnv64::new();
            s.digest_into(&mut h);
            h.finish()
        };
        assert_eq!(digest(&a), digest(&b));
        b.add("x", 1);
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn histogram_digest_tracks_buckets() {
        let mut a = Histogram::new(3);
        a.record(1, 5);
        let mut b = a.clone();
        let digest = |h: &Histogram| {
            let mut f = Fnv64::new();
            h.digest_into(&mut f);
            f.finish()
        };
        assert_eq!(digest(&a), digest(&b));
        b.record(2, 1);
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn display_renders_all_counters() {
        let mut s = Stats::new();
        s.add("z", 1);
        s.add_f64("e", 2.0);
        let text = s.to_string();
        assert!(text.contains('z'));
        assert!(text.contains('e'));
    }
}
