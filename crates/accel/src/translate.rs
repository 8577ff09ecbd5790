//! The Address Translator: logical kernel accesses → physical locations.
//!
//! Kernels address flat per-region byte spaces ([`Region`]). The memory
//! management framework decides a [`Placement`] per region: which nodes
//! hold it (striped at a chosen granularity), where each shard starts in
//! the DIMM's local address space, and which within-DIMM interleave
//! applies. A [`RegionMap`] bundles the placements and performs the
//! translation, splitting accesses at stripe and interleave boundaries
//! exactly as the hardware translator would.

use std::collections::BTreeMap;

use beacon_cxl::message::NodeId;
use beacon_dram::address::{DramCoord, Interleave};
use beacon_dram::params::DimmGeometry;
use beacon_genomics::trace::{Access, Region};
use beacon_sim::snap::{SnapError, SnapReader, SnapWriter};

/// One physical piece of a translated access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysSegment {
    /// Node whose DIMM serves this piece.
    pub node: NodeId,
    /// Burst-aligned coordinate inside that DIMM.
    pub coord: DramCoord,
    /// Bytes of this piece.
    pub bytes: u32,
}

/// Where one region lives.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Nodes holding the region, striped round-robin.
    pub homes: Vec<NodeId>,
    /// Striping granularity across homes, in bytes.
    pub stripe_bytes: u64,
    /// Byte offset of this region's shard inside each home DIMM.
    pub base_offset: u64,
    /// Row shift applied after decode. Because `row` is the slowest
    /// dimension of every interleave, giving each region on a DIMM a
    /// disjoint row range guarantees physically disjoint placements even
    /// when their interleaves differ.
    pub row_offset: u64,
    /// Row-sparsity window: each interleave block lands on a
    /// hash-derived row within a window this many rows wide. `1` = dense.
    ///
    /// Scaled-down datasets would otherwise pack a whole region into one
    /// DRAM row per bank, making every random access a row hit; at full
    /// size the same structure spans thousands of rows and random
    /// accesses are row misses. Spreading blocks across a row window
    /// restores the realistic row-buffer behaviour.
    pub sparse_window: u64,
    /// Within-DIMM interleave of the shard.
    pub interleave: Interleave,
}

impl Placement {
    /// A region living wholly on one node.
    pub fn single(node: NodeId, base_offset: u64, interleave: Interleave) -> Self {
        Placement {
            homes: vec![node],
            stripe_bytes: u64::MAX,
            base_offset,
            row_offset: 0,
            sparse_window: 1,
            interleave,
        }
    }

    /// A region striped across several nodes.
    ///
    /// # Panics
    /// Panics when `homes` is empty or `stripe_bytes` is zero.
    pub fn striped(
        homes: Vec<NodeId>,
        stripe_bytes: u64,
        base_offset: u64,
        interleave: Interleave,
    ) -> Self {
        assert!(!homes.is_empty(), "placement needs at least one home");
        assert!(stripe_bytes > 0, "stripe must be positive");
        Placement {
            homes,
            stripe_bytes,
            base_offset,
            row_offset: 0,
            sparse_window: 1,
            interleave,
        }
    }

    /// Shifts the decoded rows by `rows` (region isolation).
    pub fn with_row_offset(mut self, rows: u64) -> Self {
        self.row_offset = rows;
        self
    }

    /// Spreads interleave blocks across a `window`-row range (see
    /// [`Placement::sparse_window`]).
    ///
    /// # Panics
    /// Panics when `window` is zero.
    pub fn with_sparse_rows(mut self, window: u64) -> Self {
        assert!(window > 0, "sparse window must be positive");
        self.sparse_window = window;
        self
    }

    /// `(home, local shard byte offset)` of a region byte offset.
    fn locate(&self, offset: u64) -> (NodeId, u64) {
        if self.homes.len() == 1 || self.stripe_bytes == u64::MAX {
            return (self.homes[0], offset);
        }
        let stripe = offset / self.stripe_bytes;
        let home = (stripe % self.homes.len() as u64) as usize;
        let local_stripe = stripe / self.homes.len() as u64;
        let within = offset % self.stripe_bytes;
        (self.homes[home], local_stripe * self.stripe_bytes + within)
    }
}

/// The translator: placements for every region a workload touches.
#[derive(Debug, Clone)]
pub struct RegionMap {
    geometry: DimmGeometry,
    placements: BTreeMap<Region, Placement>,
}

impl RegionMap {
    /// Creates an empty map over DIMMs of the given geometry.
    pub fn new(geometry: DimmGeometry) -> Self {
        RegionMap {
            geometry,
            placements: BTreeMap::new(),
        }
    }

    /// Registers (or replaces) the placement of `region`.
    pub fn place(&mut self, region: Region, placement: Placement) -> &mut Self {
        self.placements.insert(region, placement);
        self
    }

    /// The placement of `region`, if registered.
    pub fn placement(&self, region: Region) -> Option<&Placement> {
        self.placements.get(&region)
    }

    /// The DIMM geometry translations target.
    pub fn geometry(&self) -> &DimmGeometry {
        &self.geometry
    }

    /// RAS re-map: replaces every occurrence of `dead` in this map's
    /// placements with nodes from `survivors` (round-robin). Returns the
    /// number of placements changed. Physical coordinates are kept — the
    /// model charges the data migration separately and survivors simply
    /// absorb the dead DIMM's shard of each region.
    ///
    /// # Panics
    /// Panics when `survivors` is empty.
    pub fn remap_node(&mut self, dead: NodeId, survivors: &[NodeId]) -> u64 {
        assert!(!survivors.is_empty(), "no surviving homes to re-map onto");
        let mut changed = 0;
        for p in self.placements.values_mut() {
            let mut replaced = 0usize;
            for h in &mut p.homes {
                if *h == dead {
                    *h = survivors[replaced % survivors.len()];
                    replaced += 1;
                }
            }
            if replaced > 0 {
                changed += 1;
            }
        }
        changed
    }

    /// Serialises this map for a checkpoint (see [`RegionMap::from_snap`]).
    pub fn snap_into(&self, w: &mut SnapWriter) {
        beacon_dram::snap::put_geometry(w, &self.geometry);
        w.usize(self.placements.len());
        for (region, p) in &self.placements {
            beacon_genomics::snap::put_region(w, *region);
            w.usize(p.homes.len());
            for home in &p.homes {
                beacon_cxl::snap::put_node(w, *home);
            }
            w.u64(p.stripe_bytes);
            w.u64(p.base_offset);
            w.u64(p.row_offset);
            w.u64(p.sparse_window);
            beacon_dram::snap::put_interleave(w, &p.interleave);
        }
    }

    /// Rebuilds a map serialised by [`RegionMap::snap_into`].
    ///
    /// # Errors
    /// [`SnapError::Corrupt`] on malformed placements; any decode error
    /// from the constituent fields.
    pub fn from_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let geometry = beacon_dram::snap::get_geometry(r)?;
        let n = r.seq_len()?;
        let mut placements = BTreeMap::new();
        for _ in 0..n {
            let region = beacon_genomics::snap::get_region(r)?;
            let h = r.seq_len()?;
            if h == 0 {
                return Err(SnapError::Corrupt(format!(
                    "placement of {region:?} has no homes"
                )));
            }
            let mut homes = Vec::with_capacity(h);
            for _ in 0..h {
                homes.push(beacon_cxl::snap::get_node(r)?);
            }
            let stripe_bytes = r.u64()?;
            let base_offset = r.u64()?;
            let row_offset = r.u64()?;
            let sparse_window = r.u64()?;
            let interleave = beacon_dram::snap::get_interleave(r)?;
            placements.insert(
                region,
                Placement {
                    homes,
                    stripe_bytes,
                    base_offset,
                    row_offset,
                    sparse_window,
                    interleave,
                },
            );
        }
        Ok(RegionMap {
            geometry,
            placements,
        })
    }

    /// Translates one logical access into physical segments, splitting at
    /// stripe and interleave boundaries.
    ///
    /// # Panics
    /// Panics when the region has no placement — the memory management
    /// framework must place every region before execution starts.
    pub fn translate(&self, access: &Access) -> Vec<PhysSegment> {
        let placement = self
            .placements
            .get(&access.region)
            .unwrap_or_else(|| panic!("region {:?} has no placement", access.region));
        let granule = placement
            .interleave
            .contiguous_granule(&self.geometry)
            .min(placement.stripe_bytes);

        let mut out = Vec::new();
        let mut offset = access.offset;
        let mut remaining = access.bytes as u64;
        while remaining > 0 {
            let room = granule - (offset % granule);
            let take = room.min(remaining);
            let (node, local) = placement.locate(offset);
            let mut coord = placement
                .interleave
                .decode(&self.geometry, placement.base_offset + local);
            if placement.sparse_window > 1 {
                // Blocks sharing a decoded row scatter across the window;
                // distinct decoded rows get distinct windows, so the
                // mapping stays collision-free.
                let block = (placement.base_offset + local) / granule.max(1);
                let scatter = block.wrapping_mul(0x9E37_79B9) % placement.sparse_window;
                coord.row = coord.row * placement.sparse_window + scatter;
            }
            coord.row = (coord.row + placement.row_offset) % self.geometry.rows;
            out.push(PhysSegment {
                node,
                coord,
                bytes: take as u32,
            });
            offset += take;
            remaining -= take;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_genomics::trace::AccessKind;

    fn geometry() -> DimmGeometry {
        DimmGeometry::ddr4_8gb_x4()
    }

    fn access(region: Region, offset: u64, bytes: u32) -> Access {
        Access {
            region,
            offset,
            bytes,
            kind: AccessKind::Read,
        }
    }

    #[test]
    fn single_home_small_access_is_one_segment() {
        let mut map = RegionMap::new(geometry());
        map.place(
            Region::FmIndex,
            Placement::single(
                NodeId::dimm(0, 0),
                0,
                Interleave::ChipLevel {
                    block_bytes: 32,
                    groups: 16,
                },
            ),
        );
        let segs = map.translate(&access(Region::FmIndex, 96, 32));
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].node, NodeId::dimm(0, 0));
        assert_eq!(segs[0].bytes, 32);
        // Third 32 B block rotates to group 3.
        assert_eq!(segs[0].coord.group, 3);
    }

    #[test]
    fn striping_rotates_homes() {
        let homes = vec![NodeId::dimm(0, 0), NodeId::dimm(0, 1)];
        let mut map = RegionMap::new(geometry());
        map.place(
            Region::Bloom,
            Placement::striped(
                homes.clone(),
                4096,
                0,
                Interleave::RankLevel { line_bytes: 64 },
            ),
        );
        let a = map.translate(&access(Region::Bloom, 0, 1));
        let b = map.translate(&access(Region::Bloom, 4096, 1));
        let c = map.translate(&access(Region::Bloom, 8192, 1));
        assert_eq!(a[0].node, homes[0]);
        assert_eq!(b[0].node, homes[1]);
        assert_eq!(c[0].node, homes[0]);
        // Stripe 2 is home 0's second local stripe: same decode as local
        // offset 4096.
        assert_eq!(
            c[0].coord,
            Interleave::RankLevel { line_bytes: 64 }.decode(&geometry(), 4096)
        );
    }

    #[test]
    fn access_splits_at_interleave_granule() {
        let mut map = RegionMap::new(geometry());
        map.place(
            Region::CandidateLists,
            Placement::single(
                NodeId::dimm(0, 0),
                0,
                Interleave::RankLevel { line_bytes: 64 },
            ),
        );
        // 256 B starting at 32: splits 32 + 64 + 64 + 64 + 32.
        let segs = map.translate(&access(Region::CandidateLists, 32, 256));
        assert_eq!(segs.len(), 5);
        let total: u32 = segs.iter().map(|s| s.bytes).sum();
        assert_eq!(total, 256);
        assert_eq!(segs[0].bytes, 32);
        assert_eq!(segs[1].bytes, 64);
    }

    #[test]
    fn row_major_keeps_long_reads_in_one_row() {
        let mut map = RegionMap::new(geometry());
        map.place(
            Region::CandidateLists,
            Placement::single(NodeId::dimm(0, 0), 0, Interleave::RowMajor { groups: 2 }),
        );
        // 1 KiB inside a 4 KiB row: single segment.
        let segs = map.translate(&access(Region::CandidateLists, 0, 1024));
        assert_eq!(segs.len(), 1);
    }

    #[test]
    fn base_offset_shifts_decode() {
        let mut map = RegionMap::new(geometry());
        let il = Interleave::RankLevel { line_bytes: 64 };
        map.place(
            Region::HashTable,
            Placement::single(NodeId::dimm(0, 0), 1 << 20, il),
        );
        let segs = map.translate(&access(Region::HashTable, 0, 8));
        assert_eq!(segs[0].coord, il.decode(&geometry(), 1 << 20));
    }

    #[test]
    #[should_panic(expected = "no placement")]
    fn unplaced_region_panics() {
        let map = RegionMap::new(geometry());
        let _ = map.translate(&access(Region::Reference, 0, 64));
    }

    #[test]
    fn remap_node_rehomes_only_the_dead_node() {
        let dead = NodeId::dimm(0, 1);
        let survivor = NodeId::dimm(0, 2);
        let mut map = RegionMap::new(geometry());
        map.place(
            Region::Bloom,
            Placement::striped(
                vec![NodeId::dimm(0, 0), dead],
                4096,
                0,
                Interleave::RankLevel { line_bytes: 64 },
            ),
        );
        map.place(
            Region::Reference,
            Placement::single(
                NodeId::dimm(0, 0),
                0,
                Interleave::RankLevel { line_bytes: 64 },
            ),
        );
        assert_eq!(map.remap_node(dead, &[survivor]), 1);
        let p = map.placement(Region::Bloom).unwrap();
        assert_eq!(p.homes, vec![NodeId::dimm(0, 0), survivor]);
        // Untouched placement stays put; second remap is a no-op.
        assert_eq!(
            map.placement(Region::Reference).unwrap().homes,
            vec![NodeId::dimm(0, 0)]
        );
        assert_eq!(map.remap_node(dead, &[survivor]), 0);
        // Translations now land on the survivor.
        let segs = map.translate(&access(Region::Bloom, 4096, 1));
        assert_eq!(segs[0].node, survivor);
    }

    #[test]
    fn stripe_boundary_splits_nodes() {
        let homes = vec![NodeId::dimm(0, 0), NodeId::dimm(0, 1)];
        let mut map = RegionMap::new(geometry());
        map.place(
            Region::Reference,
            Placement::striped(
                homes.clone(),
                128,
                0,
                Interleave::RankLevel { line_bytes: 64 },
            ),
        );
        // 128 B starting at 64 crosses the stripe boundary at 128.
        let segs = map.translate(&access(Region::Reference, 64, 128));
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].node, homes[0]);
        assert_eq!(segs[1].node, homes[1]);
    }
}
