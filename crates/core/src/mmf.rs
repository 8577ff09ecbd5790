//! The Memory Management Framework (paper §IV-C).
//!
//! Decides, per optimisation point, where every workload region lives in
//! the pool and how it is interleaved:
//!
//! * **vanilla** — locality-blind: every region page-striped across every
//!   DIMM in the pool, rank-level interleave (what a host OS would do),
//! * **placement/mapping on** — the paper's architecture- and data-aware
//!   scheme (Fig. 10): fine-grained random regions move onto the
//!   CXLG-DIMMs with chip-level interleave (BEACON-D) or are fine-striped
//!   across the pool (BEACON-S, whose unmodified DIMMs only support
//!   rank-level access); spatially-local regions are placed row-by-row;
//!   partitioned regions (per-module inputs) become local to the module
//!   that consumes them.

use beacon_accel::translate::{Placement, RegionMap};
use beacon_cxl::message::NodeId;
use beacon_dram::address::Interleave;
use beacon_dram::module::AccessMode;
use beacon_dram::params::DimmGeometry;
use beacon_genomics::trace::Region;

use crate::config::{BeaconConfig, BeaconVariant};

/// A workload region to place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutSpec {
    /// The region.
    pub region: Region,
    /// Total size in bytes.
    pub bytes: u64,
    /// Whether it has spatial locality (row-major candidate).
    pub spatial: bool,
    /// Whether each compute module accesses a private shard (inputs)
    /// that should be placed near that module.
    pub partitioned: bool,
    /// Whether the region is read-only (indexes, references). Read-only
    /// shared regions can be *replicated* per switch by the placement
    /// optimisation, eliminating cross-switch traffic — writable regions
    /// (the counting Bloom filter) must stay single-copy.
    pub read_only: bool,
}

impl LayoutSpec {
    /// A read-only fine-grained random-access region (indexes).
    pub fn shared_random(region: Region, bytes: u64) -> Self {
        LayoutSpec {
            region,
            bytes,
            spatial: false,
            partitioned: false,
            read_only: true,
        }
    }

    /// A writable fine-grained random-access region (counting filters).
    pub fn shared_random_writable(region: Region, bytes: u64) -> Self {
        LayoutSpec {
            region,
            bytes,
            spatial: false,
            partitioned: false,
            read_only: false,
        }
    }

    /// A read-only spatially-local region (candidate lists, reference).
    pub fn shared_spatial(region: Region, bytes: u64) -> Self {
        LayoutSpec {
            region,
            bytes,
            spatial: true,
            partitioned: false,
            read_only: true,
        }
    }

    /// A per-module input region (read staging).
    pub fn partitioned(region: Region, bytes: u64) -> Self {
        LayoutSpec {
            region,
            bytes,
            spatial: true,
            partitioned: true,
            read_only: true,
        }
    }
}

/// The result of memory allocation: per-compute-module views plus the
/// access mode the CXLG-DIMMs are configured in.
#[derive(Debug, Clone)]
pub struct MemoryLayout {
    /// One region map per compute module.
    pub maps: Vec<RegionMap>,
    /// Chip-select mode of the CXLG-DIMMs.
    pub cxlg_mode: AccessMode,
    /// The pool allocator holding this layout's grants; callers can keep
    /// allocating (and de-allocating) against the same pool.
    pub allocator: crate::allocator::PoolAllocator,
}

/// Row window used for fine-grained random regions: blocks scatter over
/// this many rows so that random accesses are row misses, as they would
/// be in the full-size system (see `Placement::sparse_window`).
pub const SPARSE_ROW_WINDOW: u64 = 64;

/// The CXLG-DIMM chip-select mode implied by a configuration's
/// optimisation point. Pure function of `cfg.opts` — snapshot resume
/// recomputes the mode from the restored configuration instead of
/// serialising it.
pub fn cxlg_mode_for(cfg: &BeaconConfig) -> AccessMode {
    if !cfg.opts.placement_mapping {
        AccessMode::RankLockstep
    } else {
        match cfg.opts.multi_chip_coalescing {
            Some(c) => AccessMode::Coalesced { chips: c },
            None => AccessMode::PerChip,
        }
    }
}

/// The MMF's graceful-degradation plan for a whole-DIMM failure: a
/// second map epoch with every placement re-homed off the dead DIMM,
/// plus the accounting of what that costs.
///
/// Built *before* the run (the failure cycle is part of the fault
/// schedule, so the recovery layout is deterministic); the system flips
/// from epoch 0 to epoch 1 the first time it translates an access at or
/// after [`RemapPlan::at`]. Requests already in flight against the old
/// map are nak'd by the dead DIMM and retried under the new one.
#[derive(Debug, Clone)]
pub struct RemapPlan {
    /// Cycle of the failure (epoch boundary).
    pub at: beacon_sim::cycle::Cycle,
    /// The node that dies.
    pub dead: NodeId,
    /// Epoch-1 maps: epoch 0 with `dead` re-homed onto survivors.
    pub maps: Vec<RegionMap>,
    /// Pool capacity lost with the DIMM, in bytes.
    pub lost_capacity_bytes: u64,
    /// Live bytes that must migrate to surviving DIMMs.
    pub moved_bytes: u64,
    /// Estimated migration cost: moved bytes pushed over one DIMM link.
    pub remap_cost_cycles: u64,
    /// Placements (across all module maps) that referenced the dead
    /// DIMM and were re-homed.
    pub remap_regions: u64,
}

/// Plans graceful degradation for the hard failure described by
/// `faults` (see [`RemapPlan`]). Returns `None` when the schedule has
/// no DIMM failure.
///
/// Survivors are chosen same-switch first — re-homing onto siblings of
/// the dead DIMM keeps the placement optimisation's locality story
/// intact — falling back to every surviving unmodified DIMM in the
/// pool when the dead DIMM had no same-switch siblings.
pub fn plan_dimm_loss(
    cfg: &BeaconConfig,
    layout: &MemoryLayout,
    faults: &crate::config::FaultsConfig,
) -> Option<RemapPlan> {
    if faults.dimm_fail_at == 0 {
        return None;
    }
    let dead = NodeId::dimm(faults.dimm_fail_switch, faults.dimm_fail_slot);
    let mut survivors: Vec<NodeId> = (cfg.cxlg_per_switch..cfg.slots_per_switch())
        .map(|d| NodeId::dimm(faults.dimm_fail_switch, d))
        .filter(|n| *n != dead)
        .collect();
    if survivors.is_empty() {
        survivors = cfg
            .unmodified_nodes()
            .into_iter()
            .filter(|n| *n != dead)
            .collect();
    }
    assert!(
        !survivors.is_empty(),
        "pool must outlive a single DIMM failure"
    );

    let mut allocator = layout.allocator.clone();
    let (free, used) = allocator
        .exclude(dead)
        .expect("failing DIMM must be a pool node");
    let mut maps = layout.maps.clone();
    let mut remap_regions = 0;
    for map in &mut maps {
        remap_regions += map.remap_node(dead, &survivors);
    }
    // Migration cost: every live byte of the dead DIMM re-read from a
    // replica / re-built and pushed over one survivor's link.
    let remap_cost_cycles = (used as f64 / cfg.dimm_link.bytes_per_cycle).ceil() as u64;
    Some(RemapPlan {
        at: beacon_sim::cycle::Cycle::new(faults.dimm_fail_at),
        dead,
        maps,
        lost_capacity_bytes: free + used,
        moved_bytes: used,
        remap_cost_cycles,
        remap_regions,
    })
}

/// Allocation front-end over [`crate::allocator::PoolAllocator`]:
/// because `row` is the slowest dimension of every interleave, disjoint
/// row grants guarantee physically disjoint regions even across
/// different interleaves.
#[derive(Debug)]
struct Cursors(crate::allocator::PoolAllocator);

impl Cursors {
    /// Reserves `per_node` bytes worth of rows (times `window` for
    /// sparse regions) on each of `homes`, returning the common base row.
    ///
    /// # Panics
    /// Panics when the pool cannot satisfy the request — at layout-build
    /// time that is a configuration error, not a runtime condition.
    fn reserve(
        &mut self,
        _geometry: &DimmGeometry,
        homes: &[NodeId],
        per_node: u64,
        window: u64,
    ) -> u64 {
        self.0
            .allocate(homes, per_node, window)
            .expect("pool must fit the workload's regions")
            .base_row
    }
}

/// Builds the layout for a configuration and workload.
///
/// # Panics
/// Panics when `specs` is empty or the configuration is invalid.
pub fn build_layout(cfg: &BeaconConfig, specs: &[LayoutSpec]) -> MemoryLayout {
    assert!(!specs.is_empty(), "no regions to place");
    cfg.validate().expect("invalid configuration");
    let geometry = cfg.geometry;
    let n_modules = cfg.compute_modules() as usize;

    let cxlg_mode = cxlg_mode_for(cfg);
    let cxlg_groups = cxlg_mode.group_count(&geometry);

    let mut cursors = Cursors(crate::allocator::PoolAllocator::new(
        geometry,
        &cfg.all_dimm_nodes(),
    ));
    let mut maps: Vec<RegionMap> = (0..n_modules).map(|_| RegionMap::new(geometry)).collect();

    // Shared regions. Vanilla keeps one pool-wide copy; the placement
    // optimisation replicates read-only regions per switch (eliminating
    // cross-switch traffic) while writable regions stay single-copy.
    for spec in specs.iter().filter(|s| !s.partitioned) {
        if !cfg.opts.placement_mapping {
            // Vanilla: page-striped over the whole pool, rank-level.
            let homes = cfg.all_dimm_nodes();
            let per_node = per_node_bytes(spec.bytes, cfg.vanilla_stripe_bytes, homes.len());
            let window = if spec.spatial { 1 } else { SPARSE_ROW_WINDOW };
            let base_row = cursors.reserve(&geometry, &homes, per_node, window);
            let placement = Placement::striped(
                homes,
                cfg.vanilla_stripe_bytes,
                0,
                Interleave::RankLevel { line_bytes: 64 },
            )
            .with_row_offset(base_row)
            .with_sparse_rows(window);
            for map in &mut maps {
                map.place(spec.region, placement.clone());
            }
            continue;
        }

        if spec.read_only {
            // Replicate per switch; each module uses its switch's copy.
            let mut per_switch: Vec<Placement> = Vec::with_capacity(cfg.switches as usize);
            for sw in 0..cfg.switches {
                per_switch.push(switch_local_placement(
                    cfg,
                    spec,
                    sw,
                    cxlg_groups,
                    &geometry,
                    &mut cursors,
                ));
            }
            for (mi, map) in maps.iter_mut().enumerate() {
                let sw = module_switch(cfg, mi as u32) as usize;
                map.place(spec.region, per_switch[sw].clone());
            }
        } else {
            // Writable: one pool-wide copy.
            let placement = match cfg.variant {
                BeaconVariant::D => {
                    let homes = cfg.cxlg_nodes();
                    let per_node = per_node_bytes(spec.bytes, cfg.opt_stripe_bytes, homes.len());
                    let base_row = cursors.reserve(&geometry, &homes, per_node, SPARSE_ROW_WINDOW);
                    Placement::striped(
                        homes,
                        cfg.opt_stripe_bytes,
                        0,
                        Interleave::ChipLevel {
                            block_bytes: 32,
                            groups: cxlg_groups,
                        },
                    )
                    .with_row_offset(base_row)
                    .with_sparse_rows(SPARSE_ROW_WINDOW)
                }
                BeaconVariant::S => {
                    let homes = cfg.all_dimm_nodes();
                    let per_node = per_node_bytes(spec.bytes, 64, homes.len());
                    let base_row = cursors.reserve(&geometry, &homes, per_node, SPARSE_ROW_WINDOW);
                    Placement::striped(homes, 64, 0, Interleave::RankLevel { line_bytes: 64 })
                        .with_row_offset(base_row)
                        .with_sparse_rows(SPARSE_ROW_WINDOW)
                }
            };
            for map in &mut maps {
                map.place(spec.region, placement.clone());
            }
        }
    }

    // Partitioned regions: near the consuming module when placement is
    // on, pool-striped otherwise.
    for spec in specs.iter().filter(|s| s.partitioned) {
        if !cfg.opts.placement_mapping {
            let homes = cfg.all_dimm_nodes();
            let per_node = per_node_bytes(spec.bytes, cfg.vanilla_stripe_bytes, homes.len());
            let base_row = cursors.reserve(&geometry, &homes, per_node, 1);
            let placement = Placement::striped(
                homes,
                cfg.vanilla_stripe_bytes,
                0,
                Interleave::RankLevel { line_bytes: 64 },
            )
            .with_row_offset(base_row);
            for map in &mut maps {
                map.place(spec.region, placement.clone());
            }
        } else {
            for (mi, map) in maps.iter_mut().enumerate() {
                let homes = module_local_nodes(cfg, mi as u32);
                let share = spec.bytes / n_modules as u64 + 1;
                let stripe = row_bytes(&geometry, 1);
                let per_node = per_node_bytes(share, stripe, homes.len());
                let base_row = cursors.reserve(&geometry, &homes, per_node, 1);
                let interleave = match cfg.variant {
                    // A CXLG-DIMM streams its input from itself.
                    BeaconVariant::D => Interleave::RowMajor {
                        groups: cxlg_groups,
                    },
                    BeaconVariant::S => Interleave::RowMajor { groups: 1 },
                };
                map.place(
                    spec.region,
                    Placement::striped(homes, stripe, 0, interleave).with_row_offset(base_row),
                );
            }
        }
    }

    MemoryLayout {
        maps,
        cxlg_mode,
        allocator: cursors.0,
    }
}

/// One row reservation [`build_layout`] performs: `per_node_bytes`
/// (scaled by the sparse-row `window`) on every node of `homes` at a
/// common base row.
///
/// The admission controller of the pool job service replays these
/// requests against its *persistent* allocator, so service-level
/// capacity accounting uses exactly the arithmetic of the real
/// placement — a job admitted by the service can never fail its
/// round's [`build_layout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowRequest {
    /// Home DIMMs of the reservation.
    pub homes: Vec<NodeId>,
    /// Bytes reserved per home.
    pub per_node_bytes: u64,
    /// Sparse-row window multiplier (see [`SPARSE_ROW_WINDOW`]).
    pub window: u64,
}

impl RowRequest {
    /// Rows this request consumes on each of its homes.
    pub fn rows(&self, allocator: &crate::allocator::PoolAllocator) -> u64 {
        allocator.rows_needed(self.per_node_bytes, self.window)
    }
}

/// The exact sequence of row reservations [`build_layout`] makes for
/// `specs` under `cfg` — same branches, same homes, same per-node byte
/// and window arithmetic, in the same order. Kept in lock-step with
/// [`build_layout`] by the `reservation_plan_matches_build_layout`
/// test, which replays the plan against a fresh allocator and demands
/// the free lists come out identical to the built layout's.
pub fn reservation_plan(cfg: &BeaconConfig, specs: &[LayoutSpec]) -> Vec<RowRequest> {
    let geometry = cfg.geometry;
    let n_modules = cfg.compute_modules() as usize;
    let mut plan = Vec::new();
    let mut push = |homes: Vec<NodeId>, per_node_bytes: u64, window: u64| {
        plan.push(RowRequest {
            homes,
            per_node_bytes,
            window,
        });
    };

    for spec in specs.iter().filter(|s| !s.partitioned) {
        if !cfg.opts.placement_mapping {
            let homes = cfg.all_dimm_nodes();
            let per_node = per_node_bytes(spec.bytes, cfg.vanilla_stripe_bytes, homes.len());
            let window = if spec.spatial { 1 } else { SPARSE_ROW_WINDOW };
            push(homes, per_node, window);
            continue;
        }
        if spec.read_only {
            for sw in 0..cfg.switches {
                match (cfg.variant, spec.spatial) {
                    (BeaconVariant::D, false) => {
                        let homes: Vec<NodeId> = (0..cfg.cxlg_per_switch)
                            .map(|d| NodeId::dimm(sw, d))
                            .collect();
                        let per_node =
                            per_node_bytes(spec.bytes, cfg.opt_stripe_bytes, homes.len());
                        push(homes, per_node, SPARSE_ROW_WINDOW);
                    }
                    (BeaconVariant::D, true) => {
                        let homes: Vec<NodeId> = (cfg.cxlg_per_switch..cfg.slots_per_switch())
                            .map(|d| NodeId::dimm(sw, d))
                            .collect();
                        let stripe = row_bytes(&geometry, 1);
                        let per_node = per_node_bytes(spec.bytes, stripe, homes.len());
                        push(homes, per_node, 1);
                    }
                    (BeaconVariant::S, false) => {
                        let homes: Vec<NodeId> = (0..cfg.slots_per_switch())
                            .map(|d| NodeId::dimm(sw, d))
                            .collect();
                        let per_node = per_node_bytes(spec.bytes, 64, homes.len());
                        push(homes, per_node, SPARSE_ROW_WINDOW);
                    }
                    (BeaconVariant::S, true) => {
                        let homes: Vec<NodeId> = (0..cfg.slots_per_switch())
                            .map(|d| NodeId::dimm(sw, d))
                            .collect();
                        let stripe = row_bytes(&geometry, 1);
                        let per_node = per_node_bytes(spec.bytes, stripe, homes.len());
                        push(homes, per_node, 1);
                    }
                }
            }
        } else {
            match cfg.variant {
                BeaconVariant::D => {
                    let homes = cfg.cxlg_nodes();
                    let per_node = per_node_bytes(spec.bytes, cfg.opt_stripe_bytes, homes.len());
                    push(homes, per_node, SPARSE_ROW_WINDOW);
                }
                BeaconVariant::S => {
                    let homes = cfg.all_dimm_nodes();
                    let per_node = per_node_bytes(spec.bytes, 64, homes.len());
                    push(homes, per_node, SPARSE_ROW_WINDOW);
                }
            }
        }
    }

    for spec in specs.iter().filter(|s| s.partitioned) {
        if !cfg.opts.placement_mapping {
            let homes = cfg.all_dimm_nodes();
            let per_node = per_node_bytes(spec.bytes, cfg.vanilla_stripe_bytes, homes.len());
            push(homes, per_node, 1);
        } else {
            for mi in 0..n_modules {
                let homes = module_local_nodes(cfg, mi as u32);
                let share = spec.bytes / n_modules as u64 + 1;
                let stripe = row_bytes(&geometry, 1);
                let per_node = per_node_bytes(share, stripe, homes.len());
                push(homes, per_node, 1);
            }
        }
    }

    plan
}

/// The nodes "near" compute module `mi`: itself for BEACON-D, the
/// switch's unmodified DIMMs for BEACON-S.
fn module_local_nodes(cfg: &BeaconConfig, mi: u32) -> Vec<NodeId> {
    match cfg.variant {
        BeaconVariant::D => {
            let s = mi / cfg.cxlg_per_switch;
            let d = mi % cfg.cxlg_per_switch;
            vec![NodeId::dimm(s, d)]
        }
        BeaconVariant::S => (cfg.cxlg_per_switch..cfg.slots_per_switch())
            .map(|d| NodeId::dimm(mi, d))
            .collect(),
    }
}

/// The switch a compute module lives on.
fn module_switch(cfg: &BeaconConfig, mi: u32) -> u32 {
    match cfg.variant {
        BeaconVariant::D => mi / cfg.cxlg_per_switch,
        BeaconVariant::S => mi,
    }
}

/// Builds the per-switch replica placement of a read-only shared region.
fn switch_local_placement(
    cfg: &BeaconConfig,
    spec: &LayoutSpec,
    sw: u32,
    cxlg_groups: u32,
    geometry: &DimmGeometry,
    cursors: &mut Cursors,
) -> Placement {
    match (cfg.variant, spec.spatial) {
        // D, random: this switch's CXLG-DIMMs, chip-level interleave.
        (BeaconVariant::D, false) => {
            let homes: Vec<NodeId> = (0..cfg.cxlg_per_switch)
                .map(|d| NodeId::dimm(sw, d))
                .collect();
            let per_node = per_node_bytes(spec.bytes, cfg.opt_stripe_bytes, homes.len());
            let base_row = cursors.reserve(geometry, &homes, per_node, SPARSE_ROW_WINDOW);
            Placement::striped(
                homes,
                cfg.opt_stripe_bytes,
                0,
                Interleave::ChipLevel {
                    block_bytes: 32,
                    groups: cxlg_groups,
                },
            )
            .with_row_offset(base_row)
            .with_sparse_rows(SPARSE_ROW_WINDOW)
        }
        // D, spatial: this switch's unmodified DIMMs, row-major.
        (BeaconVariant::D, true) => {
            let homes: Vec<NodeId> = (cfg.cxlg_per_switch..cfg.slots_per_switch())
                .map(|d| NodeId::dimm(sw, d))
                .collect();
            let stripe = row_bytes(geometry, 1);
            let per_node = per_node_bytes(spec.bytes, stripe, homes.len());
            let base_row = cursors.reserve(geometry, &homes, per_node, 1);
            Placement::striped(homes, stripe, 0, Interleave::RowMajor { groups: 1 })
                .with_row_offset(base_row)
        }
        // S, random: this switch's DIMMs, fine rank-level striping.
        (BeaconVariant::S, false) => {
            let homes: Vec<NodeId> = (0..cfg.slots_per_switch())
                .map(|d| NodeId::dimm(sw, d))
                .collect();
            let per_node = per_node_bytes(spec.bytes, 64, homes.len());
            let base_row = cursors.reserve(geometry, &homes, per_node, SPARSE_ROW_WINDOW);
            Placement::striped(homes, 64, 0, Interleave::RankLevel { line_bytes: 64 })
                .with_row_offset(base_row)
                .with_sparse_rows(SPARSE_ROW_WINDOW)
        }
        // S, spatial: this switch's DIMMs, row-major.
        (BeaconVariant::S, true) => {
            let homes: Vec<NodeId> = (0..cfg.slots_per_switch())
                .map(|d| NodeId::dimm(sw, d))
                .collect();
            let stripe = row_bytes(geometry, 1);
            let per_node = per_node_bytes(spec.bytes, stripe, homes.len());
            let base_row = cursors.reserve(geometry, &homes, per_node, 1);
            Placement::striped(homes, stripe, 0, Interleave::RowMajor { groups: 1 })
                .with_row_offset(base_row)
        }
    }
}

fn per_node_bytes(total: u64, stripe: u64, homes: usize) -> u64 {
    total.div_ceil(stripe * homes as u64) * stripe
}

fn row_bytes(geometry: &DimmGeometry, groups: u32) -> u64 {
    let chips_per_group = geometry.chips_per_rank / groups;
    (chips_per_group * geometry.burst_bytes_per_chip()) as u64 * geometry.cols_per_row() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;
    use beacon_genomics::trace::{Access, AppKind};

    fn specs() -> Vec<LayoutSpec> {
        vec![
            LayoutSpec::shared_random(Region::FmIndex, 1 << 20),
            LayoutSpec::shared_spatial(Region::CandidateLists, 1 << 20),
            LayoutSpec::partitioned(Region::ReadBuf, 1 << 16),
        ]
    }

    #[test]
    fn reservation_plan_matches_build_layout() {
        // Every placement branch: D/S × placement on/off, with a
        // writable region thrown in. Replaying the plan on a fresh
        // allocator must reproduce the built layout's allocator
        // exactly — this is the lock-step guarantee the pool service's
        // admission controller relies on.
        let mut all = specs();
        all.push(LayoutSpec::shared_random_writable(
            Region::HashTable,
            1 << 20,
        ));
        for (variant, placement) in [
            (BeaconVariant::D, false),
            (BeaconVariant::D, true),
            (BeaconVariant::S, false),
            (BeaconVariant::S, true),
        ] {
            let mut cfg = match variant {
                BeaconVariant::D => BeaconConfig::paper_d(AppKind::FmSeeding),
                BeaconVariant::S => BeaconConfig::paper_s(AppKind::FmSeeding),
            };
            if placement {
                cfg = cfg.with_opts(Optimizations::full(variant, AppKind::FmSeeding));
            }
            let layout = build_layout(&cfg, &all);
            let mut replay =
                crate::allocator::PoolAllocator::new(cfg.geometry, &cfg.all_dimm_nodes());
            for req in reservation_plan(&cfg, &all) {
                replay
                    .allocate(&req.homes, req.per_node_bytes, req.window)
                    .expect("plan fits wherever build_layout fit");
            }
            assert_eq!(
                replay, layout.allocator,
                "plan diverged for {variant:?} placement={placement}"
            );
        }
    }

    #[test]
    fn vanilla_stripes_everything_over_the_pool() {
        let cfg = BeaconConfig::paper_d(AppKind::FmSeeding);
        let layout = build_layout(&cfg, &specs());
        assert_eq!(layout.cxlg_mode, AccessMode::RankLockstep);
        assert_eq!(layout.maps.len(), 4);
        let p = layout.maps[0].placement(Region::FmIndex).unwrap();
        assert_eq!(p.homes.len(), 8);
    }

    #[test]
    fn placement_moves_random_regions_to_cxlg() {
        let cfg = BeaconConfig::paper_d(AppKind::FmSeeding)
            .with_opts(Optimizations::full(BeaconVariant::D, AppKind::FmSeeding));
        let layout = build_layout(&cfg, &specs());
        assert_eq!(layout.cxlg_mode, AccessMode::Coalesced { chips: 4 });
        // Read-only random regions are replicated per switch: module 0
        // (switch 0) uses switch 0's CXLG-DIMMs.
        let p = layout.maps[0].placement(Region::FmIndex).unwrap();
        assert!(p.homes.iter().all(|n| n.switch() == Some(0)));
        assert_eq!(p.homes.len(), cfg.cxlg_per_switch as usize);
        let p3 = layout.maps[3].placement(Region::FmIndex).unwrap();
        assert!(p3.homes.iter().all(|n| n.switch() == Some(1)));
        // Spatial data went to the switch's unmodified DIMMs.
        let c = layout.maps[0].placement(Region::CandidateLists).unwrap();
        assert!(c
            .homes
            .iter()
            .all(|n| matches!(n, NodeId::Dimm { slot, .. } if !cfg.slot_is_cxlg(*slot))));
    }

    #[test]
    fn partitioned_regions_are_module_local_under_placement() {
        let cfg = BeaconConfig::paper_d(AppKind::FmSeeding)
            .with_opts(Optimizations::full(BeaconVariant::D, AppKind::FmSeeding));
        let layout = build_layout(&cfg, &specs());
        for (mi, map) in layout.maps.iter().enumerate() {
            let p = map.placement(Region::ReadBuf).unwrap();
            assert_eq!(p.homes, module_local_nodes(&cfg, mi as u32));
        }
    }

    #[test]
    fn s_variant_keeps_pool_striping_for_random_regions() {
        let cfg = BeaconConfig::paper_s(AppKind::FmSeeding)
            .with_opts(Optimizations::full(BeaconVariant::S, AppKind::FmSeeding));
        let layout = build_layout(&cfg, &specs());
        assert_eq!(layout.cxlg_mode, AccessMode::PerChip); // irrelevant: no CXLG
                                                           // Read-only: replicated per switch over that switch's 4 DIMMs.
        let p = layout.maps[0].placement(Region::FmIndex).unwrap();
        assert_eq!(p.homes.len(), 4);
        assert!(p.homes.iter().all(|n| n.switch() == Some(0)));
        assert_eq!(p.stripe_bytes, 64);
        // S inputs live on the module's own switch.
        let r0 = layout.maps[0].placement(Region::ReadBuf).unwrap();
        let r1 = layout.maps[1].placement(Region::ReadBuf).unwrap();
        assert!(r0.homes.iter().all(|n| n.switch() == Some(0)));
        assert!(r1.homes.iter().all(|n| n.switch() == Some(1)));
    }

    #[test]
    fn regions_do_not_overlap_per_node() {
        // Translate a sample of offsets in each region and check physical
        // (node, coord) pairs never collide between regions.
        let cfg = BeaconConfig::paper_d(AppKind::FmSeeding)
            .with_opts(Optimizations::full(BeaconVariant::D, AppKind::FmSeeding));
        let layout = build_layout(&cfg, &specs());
        let map = &layout.maps[0];
        let mut seen = std::collections::HashSet::new();
        for region in [Region::FmIndex, Region::CandidateLists, Region::ReadBuf] {
            for i in 0..512u64 {
                let a = Access::read(region, i * 96, 32);
                for seg in map.translate(&a) {
                    assert!(
                        seen.insert((region, seg.node, seg.coord)),
                        "collision in {region:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn coalescing_sets_group_mode() {
        let mut opts = Optimizations::full(BeaconVariant::D, AppKind::FmSeeding);
        opts.multi_chip_coalescing = Some(4);
        let cfg = BeaconConfig::paper_d(AppKind::FmSeeding).with_opts(opts);
        let layout = build_layout(&cfg, &specs());
        assert_eq!(layout.cxlg_mode, AccessMode::Coalesced { chips: 4 });
        let p = layout.maps[0].placement(Region::FmIndex).unwrap();
        match p.interleave {
            Interleave::ChipLevel { groups, .. } => assert_eq!(groups, 4),
            other => panic!("unexpected interleave {other:?}"),
        }
    }

    #[test]
    fn dimm_loss_plan_rehomes_onto_siblings() {
        let cfg = BeaconConfig::paper_d(AppKind::FmSeeding);
        let layout = build_layout(&cfg, &specs());
        let fc = crate::config::FaultsConfig::dimm_loss(1, 0, 2, 5_000);
        let plan = plan_dimm_loss(&cfg, &layout, &fc).expect("failure scheduled");
        let dead = NodeId::dimm(0, 2);
        assert_eq!(plan.dead, dead);
        assert_eq!(plan.at, beacon_sim::cycle::Cycle::new(5_000));
        // Vanilla stripes every region over the whole pool, so every
        // module map referenced the dead DIMM.
        assert_eq!(plan.remap_regions as usize, 3 * layout.maps.len());
        assert!(plan.lost_capacity_bytes > 0);
        assert!(plan.moved_bytes > 0, "regions lived on the dead DIMM");
        assert!(plan.remap_cost_cycles > 0);
        for map in &plan.maps {
            for region in [Region::FmIndex, Region::CandidateLists, Region::ReadBuf] {
                let p = map.placement(region).unwrap();
                assert!(
                    !p.homes.contains(&dead),
                    "{region:?} still homes the dead DIMM"
                );
                // Same-switch survivor: the other unmodified slot.
                assert!(p.homes.contains(&NodeId::dimm(0, 3)));
            }
        }
        // No failure scheduled => no plan.
        let quiet = crate::config::FaultsConfig::quiet(1);
        assert!(plan_dimm_loss(&cfg, &layout, &quiet).is_none());
    }

    #[test]
    #[should_panic(expected = "no regions")]
    fn empty_specs_panic() {
        let cfg = BeaconConfig::paper_d(AppKind::FmSeeding);
        let _ = build_layout(&cfg, &[]);
    }
}
