//! The pool allocator: on-demand memory allocation and de-allocation
//! over the CXL pool (paper §IV-C, "Memory Allocation" / "Memory
//! De-allocation").
//!
//! The memory-management framework manages the pool at DRAM-row
//! granularity (rows are the isolation unit of every interleave — see
//! `beacon-accel::translate::Placement::row_offset`). Each DIMM has a
//! first-fit free list of row ranges; an allocation reserves the same
//! row range on every home DIMM so one `row_offset` serves the whole
//! placement, and a de-allocation returns the range (coalescing
//! neighbours).

use std::collections::BTreeMap;
use std::fmt;

use beacon_cxl::message::NodeId;
use beacon_dram::params::DimmGeometry;
use beacon_sim::snap::{SnapError, SnapReader, SnapWriter};

/// Why an allocation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// No aligned free range of the requested size exists on every home.
    OutOfRows {
        /// Rows requested per home DIMM.
        requested: u64,
    },
    /// A node in the request is not part of this pool.
    UnknownNode(NodeId),
    /// A node in the request has been excluded (failed DIMM).
    NodeExcluded(NodeId),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfRows { requested } => {
                write!(f, "no common free range of {requested} rows")
            }
            AllocError::UnknownNode(n) => write!(f, "node {n:?} is not in the pool"),
            AllocError::NodeExcluded(n) => write!(f, "node {n:?} is excluded (failed)"),
        }
    }
}

impl std::error::Error for AllocError {}

/// A granted allocation: the row range shared by every home DIMM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowGrant {
    /// Homes holding the region.
    pub homes: Vec<NodeId>,
    /// First row of the grant.
    pub base_row: u64,
    /// Rows granted per home.
    pub rows: u64,
}

/// First-fit free list of `[start, start+len)` row ranges for one DIMM.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FreeList {
    ranges: Vec<(u64, u64)>,
}

impl FreeList {
    fn new(rows: u64) -> Self {
        FreeList {
            ranges: vec![(0, rows)],
        }
    }

    fn free_rows(&self) -> u64 {
        self.ranges.iter().map(|&(_, l)| l).sum()
    }

    /// True when `[base, base+rows)` is entirely free.
    fn covers(&self, base: u64, rows: u64) -> bool {
        self.ranges
            .iter()
            .any(|&(s, l)| s <= base && base + rows <= s + l)
    }

    fn take(&mut self, base: u64, rows: u64) {
        debug_assert!(self.covers(base, rows));
        let idx = self
            .ranges
            .iter()
            .position(|&(s, l)| s <= base && base + rows <= s + l)
            .expect("covered");
        let (s, l) = self.ranges.remove(idx);
        if base > s {
            self.ranges.insert(idx, (s, base - s));
        }
        let tail_start = base + rows;
        if tail_start < s + l {
            let insert_at = self
                .ranges
                .iter()
                .position(|&(rs, _)| rs > tail_start)
                .unwrap_or(self.ranges.len());
            self.ranges
                .insert(insert_at, (tail_start, s + l - tail_start));
        }
    }

    fn release(&mut self, base: u64, rows: u64) {
        let at = self
            .ranges
            .iter()
            .position(|&(s, _)| s > base)
            .unwrap_or(self.ranges.len());
        self.ranges.insert(at, (base, rows));
        // Coalesce neighbours.
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.ranges.len());
        for &(s, l) in &self.ranges {
            match merged.last_mut() {
                Some((ms, ml)) if *ms + *ml >= s => {
                    debug_assert!(*ms + *ml == s, "double free of rows {s}..");
                    *ml += l;
                }
                _ => merged.push((s, l)),
            }
        }
        self.ranges = merged;
    }
}

/// Row-granular allocator over the pool's DIMMs.
///
/// ```
/// use beacon_core::allocator::PoolAllocator;
/// use beacon_cxl::message::NodeId;
/// use beacon_dram::params::DimmGeometry;
///
/// let nodes = vec![NodeId::dimm(0, 0), NodeId::dimm(0, 1)];
/// let mut pool = PoolAllocator::new(DimmGeometry::sim_scaled(), &nodes);
/// let grant = pool.allocate(&nodes, 1 << 20, 1).unwrap();
/// pool.deallocate(&grant).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolAllocator {
    geometry: DimmGeometry,
    free: BTreeMap<NodeId, FreeList>,
    /// Failed DIMMs, sorted; allocations never land here again.
    excluded: Vec<NodeId>,
}

impl PoolAllocator {
    /// Creates an allocator with every row of every node free.
    pub fn new(geometry: DimmGeometry, nodes: &[NodeId]) -> Self {
        PoolAllocator {
            geometry,
            free: nodes
                .iter()
                .map(|&n| (n, FreeList::new(geometry.rows)))
                .collect(),
            excluded: Vec::new(),
        }
    }

    /// RAS: removes a failed DIMM from the allocatable pool. Returns
    /// `(free_bytes, used_bytes)` lost with it — the unallocated
    /// capacity and the already-allocated bytes whose data must be
    /// re-homed. `None` when the node is unknown or already excluded.
    pub fn exclude(&mut self, node: NodeId) -> Option<(u64, u64)> {
        if self.is_excluded(node) {
            return None;
        }
        let free = self.free_bytes(node)?;
        let capacity = self.geometry.rows * self.row_sweep_bytes();
        let at = self.excluded.partition_point(|&n| n < node);
        self.excluded.insert(at, node);
        Some((free, capacity - free))
    }

    /// True when `node` has been excluded by [`PoolAllocator::exclude`].
    pub fn is_excluded(&self, node: NodeId) -> bool {
        self.excluded.binary_search(&node).is_ok()
    }

    /// Bytes one row index covers on one DIMM.
    pub fn row_sweep_bytes(&self) -> u64 {
        (self.geometry.ranks * self.geometry.chips_per_rank * self.geometry.banks) as u64
            * self.geometry.row_bytes_per_chip as u64
    }

    /// Rows needed per home for `per_node_bytes`, scaled by the
    /// sparse-row `window`.
    pub fn rows_needed(&self, per_node_bytes: u64, window: u64) -> u64 {
        per_node_bytes.div_ceil(self.row_sweep_bytes()).max(1) * window
    }

    /// Allocates `per_node_bytes` (× `window` sparsity) on every node of
    /// `homes` at a common base row.
    ///
    /// # Errors
    /// [`AllocError::OutOfRows`] when no common range fits;
    /// [`AllocError::UnknownNode`] for nodes outside the pool.
    pub fn allocate(
        &mut self,
        homes: &[NodeId],
        per_node_bytes: u64,
        window: u64,
    ) -> Result<RowGrant, AllocError> {
        let rows = self.rows_needed(per_node_bytes, window);
        for n in homes {
            if !self.free.contains_key(n) {
                return Err(AllocError::UnknownNode(*n));
            }
            if self.is_excluded(*n) {
                return Err(AllocError::NodeExcluded(*n));
            }
        }
        // First-fit over the first home's candidates, then check the rest.
        let first = &self.free[&homes[0]];
        let candidates: Vec<u64> = first
            .ranges
            .iter()
            .filter(|&&(_, l)| l >= rows)
            .map(|&(s, _)| s)
            .collect();
        let base = candidates
            .into_iter()
            .find(|&b| homes.iter().all(|n| self.free[n].covers(b, rows)));
        let Some(base_row) = base else {
            return Err(AllocError::OutOfRows { requested: rows });
        };
        for n in homes {
            self.free.get_mut(n).expect("checked").take(base_row, rows);
        }
        Ok(RowGrant {
            homes: homes.to_vec(),
            base_row,
            rows,
        })
    }

    /// Returns a grant to the pool.
    ///
    /// # Errors
    /// [`AllocError::UnknownNode`] when the grant references a node
    /// outside this pool.
    ///
    /// # Panics
    /// Panics (debug) on double free.
    pub fn deallocate(&mut self, grant: &RowGrant) -> Result<(), AllocError> {
        for n in &grant.homes {
            if !self.free.contains_key(n) {
                return Err(AllocError::UnknownNode(*n));
            }
        }
        for n in &grant.homes {
            self.free
                .get_mut(n)
                .expect("checked")
                .release(grant.base_row, grant.rows);
        }
        Ok(())
    }

    /// Free rows remaining on `node` (`None` for unknown nodes).
    pub fn free_rows(&self, node: NodeId) -> Option<u64> {
        self.free.get(&node).map(FreeList::free_rows)
    }

    /// The pool's nodes in sorted order, excluded DIMMs included.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.free.keys().copied()
    }

    /// Total row capacity of the pool's live (non-excluded) nodes —
    /// the service-level accounting denominator.
    pub fn total_capacity_rows(&self) -> u64 {
        self.free.keys().filter(|n| !self.is_excluded(**n)).count() as u64 * self.geometry.rows
    }

    /// Total free rows across the pool's live (non-excluded) nodes.
    pub fn total_free_rows(&self) -> u64 {
        self.free
            .iter()
            .filter(|(n, _)| !self.is_excluded(**n))
            .map(|(_, l)| l.free_rows())
            .sum()
    }

    /// Total rows currently reserved on live (non-excluded) nodes.
    pub fn total_used_rows(&self) -> u64 {
        self.total_capacity_rows() - self.total_free_rows()
    }

    /// Free bytes remaining on `node`.
    pub fn free_bytes(&self, node: NodeId) -> Option<u64> {
        self.free_rows(node).map(|r| r * self.row_sweep_bytes())
    }

    /// Registers additional DIMMs (on-demand memory expansion with
    /// unmodified CXL-DIMMs, the paper's headline capability).
    pub fn expand(&mut self, nodes: &[NodeId]) {
        for &n in nodes {
            self.free
                .entry(n)
                .or_insert_with(|| FreeList::new(self.geometry.rows));
        }
    }

    /// Serialises the allocator for a checkpoint (see
    /// [`PoolAllocator::from_snap`]).
    pub fn snap_into(&self, w: &mut SnapWriter) {
        beacon_dram::snap::put_geometry(w, &self.geometry);
        w.usize(self.free.len());
        for (node, list) in &self.free {
            beacon_cxl::snap::put_node(w, *node);
            w.usize(list.ranges.len());
            for (start, len) in &list.ranges {
                w.u64(*start);
                w.u64(*len);
            }
        }
        w.usize(self.excluded.len());
        for node in &self.excluded {
            beacon_cxl::snap::put_node(w, *node);
        }
    }

    /// Rebuilds an allocator serialised by [`PoolAllocator::snap_into`].
    ///
    /// # Errors
    /// [`SnapError::Corrupt`] on unsorted free lists or exclusions; any
    /// decode error from the constituent fields.
    pub fn from_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let geometry = beacon_dram::snap::get_geometry(r)?;
        let n = r.seq_len()?;
        let mut free = BTreeMap::new();
        for _ in 0..n {
            let node = beacon_cxl::snap::get_node(r)?;
            let m = r.seq_len()?;
            let mut ranges = Vec::with_capacity(m);
            let mut prev_end = 0u64;
            for _ in 0..m {
                let start = r.u64()?;
                let len = r.u64()?;
                if !ranges.is_empty() && start < prev_end {
                    return Err(SnapError::Corrupt(format!(
                        "free list of {node:?} not sorted"
                    )));
                }
                prev_end = start + len;
                ranges.push((start, len));
            }
            free.insert(node, FreeList { ranges });
        }
        let n = r.seq_len()?;
        let mut excluded = Vec::with_capacity(n);
        for _ in 0..n {
            let node = beacon_cxl::snap::get_node(r)?;
            if excluded.last().is_some_and(|&last| node <= last) {
                return Err(SnapError::Corrupt("excluded nodes not sorted".into()));
            }
            excluded.push(node);
        }
        Ok(PoolAllocator {
            geometry,
            free,
            excluded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(|i| NodeId::dimm(0, i)).collect()
    }

    fn pool(n: u32) -> PoolAllocator {
        PoolAllocator::new(DimmGeometry::sim_scaled(), &nodes(n))
    }

    #[test]
    fn allocations_get_disjoint_rows() {
        let mut p = pool(2);
        let homes = nodes(2);
        let a = p.allocate(&homes, 1 << 20, 1).unwrap();
        let b = p.allocate(&homes, 1 << 20, 1).unwrap();
        assert_ne!(a.base_row, b.base_row);
        assert!(b.base_row >= a.base_row + a.rows || a.base_row >= b.base_row + b.rows);
    }

    #[test]
    fn deallocate_makes_rows_reusable() {
        let mut p = pool(1);
        let homes = nodes(1);
        let total = p.free_rows(homes[0]).unwrap();
        let a = p.allocate(&homes, 1 << 24, 4).unwrap();
        assert_eq!(p.free_rows(homes[0]).unwrap(), total - a.rows);
        p.deallocate(&a).unwrap();
        assert_eq!(p.free_rows(homes[0]).unwrap(), total);
        // The exact range is handed out again (first fit from the start).
        let b = p.allocate(&homes, 1 << 24, 4).unwrap();
        assert_eq!(b.base_row, a.base_row);
    }

    #[test]
    fn freeing_coalesces_neighbours() {
        let mut p = pool(1);
        let homes = nodes(1);
        let a = p.allocate(&homes, 1 << 22, 1).unwrap();
        let b = p.allocate(&homes, 1 << 22, 1).unwrap();
        let c = p.allocate(&homes, 1 << 22, 1).unwrap();
        p.deallocate(&a).unwrap();
        p.deallocate(&c).unwrap();
        p.deallocate(&b).unwrap();
        // Everything merged back: one allocation the size of all three
        // fits at the original base.
        let big = p
            .allocate(&homes, 3 * (1 << 22), 1)
            .expect("coalesced range fits");
        assert_eq!(big.base_row, a.base_row);
    }

    #[test]
    fn exhaustion_is_an_error_not_a_panic() {
        let mut p = pool(1);
        let homes = nodes(1);
        let sweep = p.row_sweep_bytes();
        // Grab everything.
        let total_rows = p.free_rows(homes[0]).unwrap();
        let _grant = p.allocate(&homes, total_rows * sweep, 1).unwrap();
        let e = p.allocate(&homes, sweep, 1).unwrap_err();
        assert!(matches!(e, AllocError::OutOfRows { .. }));
    }

    #[test]
    fn unknown_node_is_rejected() {
        let mut p = pool(1);
        let foreign = [NodeId::dimm(9, 9)];
        let e = p.allocate(&foreign, 1024, 1).unwrap_err();
        assert_eq!(e, AllocError::UnknownNode(NodeId::dimm(9, 9)));
    }

    #[test]
    fn expansion_adds_capacity() {
        let mut p = pool(1);
        assert!(p.free_rows(NodeId::dimm(0, 1)).is_none());
        p.expand(&[NodeId::dimm(0, 1)]);
        let rows = p.free_rows(NodeId::dimm(0, 1)).unwrap();
        assert_eq!(rows, DimmGeometry::sim_scaled().rows);
        // And allocations spanning old + new homes work.
        let homes = vec![NodeId::dimm(0, 0), NodeId::dimm(0, 1)];
        assert!(p.allocate(&homes, 1 << 20, 1).is_ok());
    }

    #[test]
    fn common_base_respects_per_node_fragmentation() {
        // Fragment node 0 so the first free range of node 1 is taken on
        // node 0; the allocator must find a range free on BOTH.
        let mut p = pool(2);
        let n0 = vec![NodeId::dimm(0, 0)];
        let both = nodes(2);
        let hole = p.allocate(&n0, 1 << 24, 2).unwrap();
        let joint = p.allocate(&both, 1 << 24, 2).unwrap();
        assert!(joint.base_row >= hole.base_row + hole.rows);
        assert!(p.free_rows(both[1]).unwrap() > p.free_rows(both[0]).unwrap());
    }

    #[test]
    fn excluded_nodes_reject_allocations() {
        let mut p = pool(2);
        let homes = nodes(2);
        let (free, used) = p.exclude(homes[1]).expect("known node");
        assert!(used == 0 && free > 0, "nothing allocated yet");
        assert!(p.is_excluded(homes[1]));
        let e = p.allocate(&homes, 1 << 20, 1).unwrap_err();
        assert_eq!(e, AllocError::NodeExcluded(homes[1]));
        // The surviving node still serves allocations.
        assert!(p.allocate(&homes[..1], 1 << 20, 1).is_ok());
        // Double exclusion is idempotent.
        assert!(p.exclude(homes[1]).is_none());
    }

    #[test]
    fn exclude_reports_used_bytes_for_rehoming() {
        let mut p = pool(1);
        let homes = nodes(1);
        let grant = p.allocate(&homes, 1 << 24, 1).unwrap();
        let (_, used) = p.exclude(homes[0]).unwrap();
        assert_eq!(used, grant.rows * p.row_sweep_bytes());
    }

    #[test]
    fn rows_needed_scales_with_window() {
        let p = pool(1);
        let one = p.rows_needed(1, 1);
        assert_eq!(one, 1);
        assert_eq!(p.rows_needed(1, 64), 64);
        let sweep = p.row_sweep_bytes();
        assert_eq!(p.rows_needed(sweep + 1, 1), 2);
    }
}
