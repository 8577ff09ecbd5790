//! The DIMM: ranks × chip groups × banks behind an FR-FCFS controller.
//!
//! One [`Dimm`] owns the bank timing state, the shared command bus, the
//! per-chip-group data lanes and the request queue, and advances cycle by
//! cycle. The chip-select organisation is captured by [`AccessMode`]:
//!
//! * [`AccessMode::RankLockstep`] — a conventional DIMM: one chip select
//!   per rank, all 16 chips act together, every burst moves 64 B.
//! * [`AccessMode::PerChip`] — MEDAL-style fine-grained access: each chip
//!   is its own group, a burst moves 4 B and chips serve independent
//!   requests concurrently (Fig. 11 b).
//! * [`AccessMode::Coalesced`] — BEACON's multi-chip coalescing: a tunable
//!   number of chips form a group (Fig. 11 c), trading access granularity
//!   against per-chip load balance.
//!
//! # Scheduling index
//!
//! The controller keeps, besides the age-ordered queue, a per-bank index
//! of unfinished requests split into three age-ordered lists: `hit_read`
//! and `hit_write` (requests whose row is open in the bank) and `miss`
//! (requests needing an ACT or PRE first). Within one list every entry
//! shares the *same* readiness condition — same bank timer fields, same
//! rank and command bus, same data lane and CAS lead — so the head of
//! each list dominates the rest and both the FR-FCFS choice and the
//! event horizon reduce to a scan over list heads instead of the whole
//! queue. Reads and writes need separate hit lists because the data-lane
//! availability check leads by `cl` vs `cwl`. The index is maintained on
//! enqueue, ACT (misses to the activated row become hits), PRE and
//! refresh (all entries of the bank become misses) and burst completion;
//! [`Dimm::reference_choice`] / [`Dimm::reference_next_event`] retain the
//! original whole-queue scans for differential testing.
//!
//! The per-cycle sweeps (the FR-FCFS scan and the horizon fold) read
//! neither the lists nor the bank columns: each active bank has one
//! cache-line record (`BankHot`) holding its topology, open flag,
//! timers and the ids of its three list heads, re-synced wherever one
//! of those changes. tRRD and tFAW fold into one `act_ready` cycle per
//! data lane at each ACT.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use beacon_sim::component::Tick;
use beacon_sim::cycle::{Cycle, Duration};
use beacon_sim::faults::FaultStream;
use beacon_sim::horizon::HorizonCache;
use beacon_sim::observer::Observer;
use beacon_sim::queue::QueueFullError;
use beacon_sim::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use beacon_sim::stats::{Histogram, StatId, Stats};
use beacon_sim::trace::{TraceCategory, TraceEvent, TraceLevel};

use crate::address::DramCoord;
use crate::bank::BankSoa;
use crate::command::CmdKind;
use crate::params::{DimmGeometry, TimingParams};
use crate::request::{CompletedAccess, MemRequest, ReqId, ReqKind};

/// Chip-select organisation of a DIMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Conventional: all chips of a rank in lock-step (one group).
    RankLockstep,
    /// One chip-select per chip (MEDAL-style fine-grained access).
    PerChip,
    /// Chips grouped `chips` at a time (BEACON multi-chip coalescing).
    Coalesced {
        /// Chips per group; must divide the chips per rank.
        chips: u32,
    },
}

impl AccessMode {
    /// Chips driven together by one chip select.
    pub fn chips_per_group(&self, geometry: &DimmGeometry) -> u32 {
        match *self {
            AccessMode::RankLockstep => geometry.chips_per_rank,
            AccessMode::PerChip => 1,
            AccessMode::Coalesced { chips } => chips,
        }
    }

    /// Number of independently addressable chip groups per rank.
    ///
    /// # Panics
    /// Panics when the group size does not divide the chips per rank.
    pub fn group_count(&self, geometry: &DimmGeometry) -> u32 {
        let per = self.chips_per_group(geometry);
        assert!(
            per > 0 && geometry.chips_per_rank.is_multiple_of(per),
            "group size {per} must divide chips per rank {}",
            geometry.chips_per_rank
        );
        geometry.chips_per_rank / per
    }

    /// Bytes moved by one burst of one group.
    pub fn burst_bytes(&self, geometry: &DimmGeometry) -> u32 {
        self.chips_per_group(geometry) * geometry.burst_bytes_per_chip()
    }
}

/// Static configuration of a [`Dimm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimmConfig {
    /// Physical organisation.
    pub geometry: DimmGeometry,
    /// Timing grade.
    pub timing: TimingParams,
    /// Chip-select organisation.
    pub access_mode: AccessMode,
    /// Controller request-queue depth.
    pub queue_depth: usize,
    /// Whether periodic refresh is modelled.
    pub refresh_enabled: bool,
    /// NDP-customized DIMMs re-drive each rank's command/address bus from
    /// the on-DIMM logic, giving one command slot per rank per cycle.
    /// Commodity CXL memory expanders also qualify (their buffer chip has
    /// an internal channel per rank); only bare DDR-DIMMs on a host
    /// channel share one C/A bus.
    pub per_rank_cmd_bus: bool,
    /// Custom on-DIMM memory controllers expand a multi-burst fine-grained
    /// access into back-to-back column bursts with a single command
    /// (CXLG/MEDAL customisation).
    pub chained_columns: bool,
}

impl DimmConfig {
    /// The paper's DIMM with a given access mode: DDR4-1600 22-22-22,
    /// 64 GB, queue depth 32, refresh on.
    pub fn paper(access_mode: AccessMode) -> Self {
        DimmConfig {
            geometry: DimmGeometry::ddr4_8gb_x4(),
            timing: TimingParams::ddr4_1600_22(),
            access_mode,
            queue_depth: 32,
            refresh_enabled: true,
            per_rank_cmd_bus: false,
            chained_columns: false,
        }
    }

    /// The paper's DIMM as customized by an NDP design (per-rank command
    /// buses and chained fine-grained column commands driven by the
    /// on-DIMM logic).
    pub fn paper_ndp(access_mode: AccessMode) -> Self {
        let mut cfg = DimmConfig::paper(access_mode);
        cfg.per_rank_cmd_bus = true;
        cfg.chained_columns = true;
        cfg
    }
}

#[derive(Debug, Clone)]
struct Pending {
    id: ReqId,
    req: MemRequest,
    enqueued_at: Cycle,
    /// Cycle of the first DRAM command issued for this request
    /// (`Cycle::NEVER` until then) — splits queueing from bank service.
    first_cmd_at: Cycle,
    bursts_done: u32,
    bursts_total: u32,
    last_data_end: Cycle,
    /// Flattened bank index, decoded once at admission and reused by
    /// every scheduler pass (snapshot payload v3 persists it with the
    /// entry).
    bidx: u32,
}

impl Pending {
    fn finished(&self) -> bool {
        self.bursts_done == self.bursts_total
    }
}

/// One admission-ready command: a [`MemRequest`] plus everything the
/// controller would otherwise re-derive from it (flattened bank index,
/// total burst count). Produced by [`Dimm::decode`].
#[derive(Debug, Clone, Copy)]
pub struct DecodedCmd {
    /// Read or write at the DRAM level.
    pub kind: ReqKind,
    /// Target coordinate.
    pub coord: DramCoord,
    /// Payload bytes.
    pub bytes: u32,
    /// Caller tag (opaque to the controller).
    pub tag: u64,
    /// Flattened bank index (decode-once).
    pub bidx: u32,
    /// Total bursts the request needs.
    pub bursts: u32,
}

/// Fixed-capacity SoA ring of already-decoded commands between a
/// producer (`DimmServer`) and the controller (DESIGN.md §15.5). The
/// producer stages at most `queue_free()` commands per tick —
/// write-phase RMWs first, then the backlog, preserving the per-message
/// wire order — and [`Dimm::consume_ring`] admits them all in arrival
/// order in one sweep. The ring is filled and fully drained within one
/// tick, so it is never live across a snapshot and needs no wire slot.
#[derive(Debug, Clone, Default)]
pub struct CmdRing {
    kinds: Vec<ReqKind>,
    coords: Vec<DramCoord>,
    bytes: Vec<u32>,
    tags: Vec<u64>,
    bidxs: Vec<u32>,
    bursts: Vec<u32>,
    /// Staging capacity (the consumer's queue depth).
    cap: usize,
}

impl CmdRing {
    /// A ring that stages at most `cap` commands (the controller queue
    /// depth: the producer never decodes more than the queue can admit).
    pub fn with_capacity(cap: usize) -> Self {
        CmdRing {
            kinds: Vec::with_capacity(cap),
            coords: Vec::with_capacity(cap),
            bytes: Vec::with_capacity(cap),
            tags: Vec::with_capacity(cap),
            bidxs: Vec::with_capacity(cap),
            bursts: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Staged commands.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Stages a decoded command.
    ///
    /// # Panics
    /// Panics when the ring is full — the producer must bound its fill
    /// by the consumer's `queue_free()`.
    pub fn push(&mut self, cmd: DecodedCmd) {
        assert!(self.len() < self.cap, "command ring overfilled");
        self.kinds.push(cmd.kind);
        self.coords.push(cmd.coord);
        self.bytes.push(cmd.bytes);
        self.tags.push(cmd.tag);
        self.bidxs.push(cmd.bidx);
        self.bursts.push(cmd.bursts);
    }

    /// Drops every staged command.
    pub fn clear(&mut self) {
        self.kinds.clear();
        self.coords.clear();
        self.bytes.clear();
        self.tags.clear();
        self.bidxs.clear();
        self.bursts.clear();
    }
}

/// Per-bank scheduling index: age-ordered slab indices of the bank's
/// unfinished requests, split by the command class each needs next.
#[derive(Debug, Clone, Default)]
struct BankSched {
    /// Open-row reads (data lane leads by `cl`).
    hit_read: VecDeque<u32>,
    /// Open-row writes (data lane leads by `cwl`).
    hit_write: VecDeque<u32>,
    /// Requests needing ACT (bank closed) or PRE (other row open).
    miss: VecDeque<u32>,
}

impl BankSched {
    fn is_empty(&self) -> bool {
        self.hit_read.is_empty() && self.hit_write.is_empty() && self.miss.is_empty()
    }
}

/// Head id of an empty list in a [`BankHot`] record. Ids count up from
/// zero per DIMM, so no request ever carries it.
const NO_HEAD: ReqId = ReqId(u64::MAX);

/// `active_pos` of a bank with no hot record.
const IDLE: u32 = u32::MAX;

/// Everything the FR-FCFS scan and the horizon fold read about one
/// active bank, in one cache line: its topology, its timers (from
/// [`BankSoa`]) and the ids of its three list heads. Derived state,
/// like the `active_pos` index over it: re-synced at every site that
/// changes a timer or a head, rebuilt on restore, never snapshotted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(align(64))]
struct BankHot {
    /// The earliest cycle the bank's own timers let a listed command
    /// issue: `col` if a hit list is non-empty, `miss_at` if the miss
    /// list is. The rank, bus, lane and ACT-window floors only delay
    /// further, so the scan passes over the bank before it.
    ready: Cycle,
    /// Column timer, `Cycle::NEVER` while the bank is closed.
    col: Cycle,
    /// Timer of the command the miss head needs: PRE when the bank is
    /// open, ACT when it is closed.
    miss_at: Cycle,
    /// Head ids of `hit_read`, `hit_write` and `miss`, or [`NO_HEAD`].
    read: ReqId,
    write: ReqId,
    miss: ReqId,
    bidx: u32,
    /// `(rank, group)` data lane.
    lane: u32,
    rank: u16,
    /// Command bus.
    bus: u16,
    open: bool,
}

impl BankHot {
    /// Loads the bank's timers `(open, act, col, pre)` and head ids
    /// `[read, write, miss]`, deriving `miss_at` and `ready`.
    fn load(&mut self, timers: (bool, Cycle, Cycle, Cycle), heads: [ReqId; 3]) {
        let (open, act, col, pre) = timers;
        self.open = open;
        self.col = col;
        self.miss_at = if open { pre } else { act };
        [self.read, self.write, self.miss] = heads;
        let hit = if self.read != NO_HEAD || self.write != NO_HEAD {
            col
        } else {
            Cycle::NEVER
        };
        let miss = if self.miss != NO_HEAD {
            self.miss_at
        } else {
            Cycle::NEVER
        };
        self.ready = hit.min(miss);
    }
}

/// One command bus's FR-FCFS candidate for the current cycle. Picks
/// order by `(miss, id)`: any row hit before any ACT/PRE, then age.
#[derive(Debug, Clone, Copy)]
struct BusPick {
    /// The command is an ACT or PRE rather than a row-hit column command.
    miss: bool,
    id: ReqId,
    /// Bank whose list head (`hit_read`, `hit_write` or `miss`, by
    /// `kind`) the command serves.
    bidx: u32,
    kind: CmdKind,
}

impl BusPick {
    fn key(&self) -> (bool, ReqId) {
        (self.miss, self.id)
    }
}

/// Deterministic per-tick work counters (`tick-audit` feature): a
/// retired-work proxy for the microbench budget columns. Pure
/// observation — never snapshotted, never digested, identical across
/// runs with the same tick pattern.
#[cfg(feature = "tick-audit")]
#[derive(Debug, Clone, Default)]
pub struct TickAudit {
    /// `tick` calls observed.
    ticks: u64,
    /// Ticks short-circuited by the horizon gate (no sweep performed).
    gated_ticks: u64,
    /// Active-bank inspections by the FR-FCFS scan.
    choice_scans: std::cell::Cell<u64>,
    /// Active-bank terms folded during full horizon recomputes.
    horizon_scans: std::cell::Cell<u64>,
    /// Active-bank terms folded by `due` probes.
    due_terms: std::cell::Cell<u64>,
}

/// A point-in-time copy of the [`TickAudit`] counters.
#[cfg(feature = "tick-audit")]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickAuditCounters {
    /// `tick` calls observed.
    pub ticks: u64,
    /// Ticks short-circuited by the horizon gate (no sweep performed).
    pub gated_ticks: u64,
    /// Active-bank inspections by the FR-FCFS scan.
    pub choice_scans: u64,
    /// Active-bank terms folded during full horizon recomputes.
    pub horizon_scans: u64,
    /// Active-bank terms folded by `due` probes.
    pub due_terms: u64,
}

/// Tick-local command-mix accumulators (DESIGN.md §15.5): `apply_command`
/// bumps plain integers and `tick_banks` folds them into `Stats` once
/// per sweep, so the sorted-array/hint-cache machinery is hit
/// O(counters) per tick instead of O(commands). `Stats::add` ignores
/// zeroes, so counters a workload never touches are never created —
/// the final counter set and values are bit-identical to per-command
/// increments.
#[derive(Debug, Clone, Copy, Default)]
struct CmdStatAcc {
    act: u64,
    act_chips: u64,
    row_miss: u64,
    pre: u64,
    pre_chips: u64,
    row_conflict: u64,
    read: u64,
    write: u64,
    rd_burst_chips: u64,
    wr_burst_chips: u64,
    row_hit: u64,
}

/// [`StatId`] handles for the eleven command-mix counters the per-sweep
/// fold touches, resolved once at construction (handles survive
/// snapshot restore; see [`Stats::id`]).
#[derive(Debug, Clone, Copy)]
struct CmdStatIds {
    act: StatId,
    act_chips: StatId,
    row_miss: StatId,
    pre: StatId,
    pre_chips: StatId,
    row_conflict: StatId,
    read: StatId,
    write: StatId,
    rd_burst_chips: StatId,
    wr_burst_chips: StatId,
    row_hit: StatId,
}

impl CmdStatIds {
    fn resolve(stats: &mut Stats) -> Self {
        CmdStatIds {
            act: stats.id("dram.cmd.act"),
            act_chips: stats.id("dram.act_chips"),
            row_miss: stats.id("dram.row_miss"),
            pre: stats.id("dram.cmd.pre"),
            pre_chips: stats.id("dram.pre_chips"),
            row_conflict: stats.id("dram.row_conflict"),
            read: stats.id("dram.cmd.read"),
            write: stats.id("dram.cmd.write"),
            rd_burst_chips: stats.id("dram.rd_burst_chips"),
            wr_burst_chips: stats.id("dram.wr_burst_chips"),
            row_hit: stats.id("dram.row_hit"),
        }
    }
}

/// Injected-fault state. Boxed behind an `Option` so fault-free DIMMs —
/// the common case — pay one pointer of space and a never-taken branch.
#[derive(Debug, Clone, Default)]
struct DimmFaults {
    /// Pre-drawn uncorrectable-error stamps: each read retiring at or
    /// after a stamp consumes it and returns poisoned data.
    ue: FaultStream,
    /// Whole-DIMM failure happened; the controller is permanently dead.
    dead: bool,
}

/// A cycle-accurate model of one DIMM (devices + controller front-end).
#[derive(Debug, Clone)]
pub struct Dimm {
    cfg: DimmConfig,
    groups_per_rank: u32,
    /// `[rank][group][bank]`, flattened, stored as parallel columns.
    banks: BankSoa,
    /// Request slab; freed slots are recycled through `free_slots`, so
    /// the controller performs no per-request allocation in steady state.
    entries: Vec<Option<Pending>>,
    free_slots: Vec<u32>,
    /// Age-ordered slab indices of every queued request, finished but
    /// unretired ones included (explicitly bounded by `cfg.queue_depth`).
    order: VecDeque<u32>,
    /// Scheduling index, parallel to `banks`.
    sched: Vec<BankSched>,
    /// One record per bank whose index holds at least one unfinished
    /// request, in activation order with `swap_remove` on idling (the
    /// order the snapshot's active-bank list persists).
    hot: Vec<BankHot>,
    /// Position of each bank's record in `hot`, or [`IDLE`].
    active_pos: Vec<u32>,
    /// Finished-but-unretired entries keyed by their last data beat: an
    /// O(1) "anything due?" guard for retirement and the finished-entry
    /// term of the event horizon.
    finishing: BinaryHeap<Reverse<(Cycle, u32)>>,
    completed: Vec<CompletedAccess>,
    /// Data-lane occupancy per `(rank, chip group)`. The NDP module sits
    /// on the DIMM and wires each rank independently, so ranks do not
    /// share data lanes (this is where DIMM-NDP's intra-DIMM bandwidth
    /// advantage comes from).
    data_bus_free: Vec<Cycle>,
    /// One entry per command bus (per rank when `per_rank_cmd_bus`,
    /// otherwise a single shared bus).
    cmd_bus_free: Vec<Cycle>,
    /// Sliding window of the last four ACT cycles per `(rank, group)`.
    /// tFAW is a per-device power constraint: chips that activate
    /// independently (fine-grained chip select) each get their own
    /// four-activate window — a key advantage of per-chip access.
    act_window: Vec<VecDeque<Cycle>>,
    /// Last ACT per `(rank, group)` (tRRD, same per-device reasoning).
    last_act: Vec<Cycle>,
    /// Earliest cycle tRRD and tFAW allow the next ACT per `(rank,
    /// group)`: derived from `last_act` and `act_window` at each ACT and
    /// on restore, never snapshotted.
    act_ready: Vec<Cycle>,
    /// Next refresh deadline per rank.
    refresh_due: Vec<Cycle>,
    /// Rank unusable until this cycle (refreshing).
    rank_busy: Vec<Cycle>,
    next_id: u64,
    stats: Stats,
    chip_hist: Histogram,
    /// Total cycles the data lanes spent moving beats (summed over every
    /// `(rank, group)` lane). Plain field, never digested: feeds the
    /// attribution report's utilization accounting only.
    data_cycles: u64,
    ticked_cycles: u64,
    horizon: HorizonCache,
    /// Reusable buffer for the order-preserving merges on PRE/refresh.
    merge_scratch: VecDeque<u32>,
    /// Per-command-bus FR-FCFS picks of the current sweep. Scratch:
    /// rebuilt every `tick_banks`, never snapshotted.
    picks: Vec<Option<BusPick>>,
    /// `(id, slot)` of the requests retiring in the current sweep.
    /// Scratch: empty between sweeps, never snapshotted.
    due: Vec<(ReqId, u32)>,
    /// Tick-local command-mix accumulators, folded into `stats` once per
    /// `tick_banks` sweep. Always zero between sweeps — never
    /// snapshotted (DESIGN.md §15.5).
    acc: CmdStatAcc,
    /// Pre-resolved [`StatId`] handles for the per-sweep fold: eleven
    /// O(1) indexed adds instead of eleven string lookups through an
    /// 8-way hint cache that eleven keys thrash.
    cmd_ids: CmdStatIds,
    /// Trace-track label; `None` falls back to `"dram"`.
    trace_id: Option<Box<str>>,
    /// Injected-fault state; `None` when no faults are configured.
    faults: Option<Box<DimmFaults>>,
    #[cfg(feature = "tick-audit")]
    audit: TickAudit,
}

impl Dimm {
    /// Builds a DIMM from its configuration.
    ///
    /// # Panics
    /// Panics when the geometry or timing parameters are inconsistent.
    pub fn new(cfg: DimmConfig) -> Self {
        cfg.geometry.validate().expect("invalid geometry");
        cfg.timing.validate().expect("invalid timing");
        let groups = cfg.access_mode.group_count(&cfg.geometry);
        let nbanks = (cfg.geometry.ranks * groups * cfg.geometry.banks) as usize;
        let chips = (cfg.geometry.ranks * cfg.geometry.chips_per_rank) as usize;
        let lanes = (cfg.geometry.ranks * groups) as usize;
        assert!(
            u16::try_from(cfg.geometry.ranks).is_ok() && u32::try_from(nbanks).is_ok(),
            "geometry too large"
        );
        let mut stats = Stats::new();
        let cmd_ids = CmdStatIds::resolve(&mut stats);
        Dimm {
            cfg,
            groups_per_rank: groups,
            banks: BankSoa::new(nbanks),
            entries: Vec::with_capacity(cfg.queue_depth),
            free_slots: Vec::with_capacity(cfg.queue_depth),
            order: VecDeque::with_capacity(cfg.queue_depth),
            sched: vec![BankSched::default(); nbanks],
            hot: Vec::new(),
            active_pos: vec![IDLE; nbanks],
            finishing: BinaryHeap::new(),
            completed: Vec::new(),
            data_bus_free: vec![Cycle::ZERO; lanes],
            cmd_bus_free: vec![
                Cycle::ZERO;
                if cfg.per_rank_cmd_bus {
                    cfg.geometry.ranks as usize
                } else {
                    1
                }
            ],
            act_window: vec![VecDeque::with_capacity(4); lanes],
            last_act: vec![Cycle::ZERO; lanes],
            act_ready: vec![Cycle::ZERO; lanes],
            refresh_due: vec![Cycle::new(cfg.timing.trefi); cfg.geometry.ranks as usize],
            rank_busy: vec![Cycle::ZERO; cfg.geometry.ranks as usize],
            next_id: 0,
            stats,
            chip_hist: Histogram::new(chips),
            data_cycles: 0,
            ticked_cycles: 0,
            horizon: HorizonCache::new(),
            merge_scratch: VecDeque::new(),
            picks: Vec::new(),
            due: Vec::with_capacity(cfg.queue_depth),
            acc: CmdStatAcc::default(),
            cmd_ids,
            trace_id: None,
            faults: None,
            #[cfg(feature = "tick-audit")]
            audit: TickAudit::default(),
        }
    }

    /// Snapshot of the deterministic work counters (`tick-audit` only).
    #[cfg(feature = "tick-audit")]
    pub fn audit_counters(&self) -> TickAuditCounters {
        TickAuditCounters {
            ticks: self.audit.ticks,
            gated_ticks: self.audit.gated_ticks,
            choice_scans: self.audit.choice_scans.get(),
            horizon_scans: self.audit.horizon_scans.get(),
            due_terms: self.audit.due_terms.get(),
        }
    }

    /// Arms an uncorrectable-error stream: each read retiring at or
    /// after a pending stamp consumes it and completes `poisoned`.
    /// An empty stream is a no-op, keeping the fault-free path untouched.
    pub fn set_ue_faults(&mut self, ue: FaultStream) {
        if ue.is_empty() {
            return;
        }
        self.faults.get_or_insert_with(Default::default).ue = ue;
    }

    /// True once [`Dimm::fail`] has been called.
    pub fn is_dead(&self) -> bool {
        matches!(&self.faults, Some(f) if f.dead)
    }

    /// RAS: the whole DIMM fails. Every outstanding request — queued,
    /// mid-service and finished-but-undrained — is aborted and its
    /// caller tag appended to `aborted_tags` so the owner can notify the
    /// requesters. The controller is idle and permanently dead
    /// afterwards; callers must stop enqueuing.
    pub fn fail(&mut self, aborted_tags: &mut Vec<u64>) {
        let before = aborted_tags.len();
        while let Some(slot) = self.order.pop_front() {
            let p = self.free_slot(slot);
            aborted_tags.push(p.req.tag);
        }
        for c in self.completed.drain(..) {
            aborted_tags.push(c.request.tag);
        }
        for sched in &mut self.sched {
            sched.hit_read.clear();
            sched.hit_write.clear();
            sched.miss.clear();
        }
        self.hot.clear();
        self.active_pos.fill(IDLE);
        self.finishing.clear();
        self.faults.get_or_insert_with(Default::default).dead = true;
        self.stats
            .add("ras.dimm_aborted", (aborted_tags.len() - before) as u64);
        self.horizon.invalidate();
    }

    /// Sets the track label this DIMM's trace events are emitted under.
    pub fn set_trace_id(&mut self, id: impl Into<String>) {
        self.trace_id = Some(id.into().into_boxed_str());
    }

    /// Requests currently in the controller queue (an occupancy gauge).
    #[inline]
    pub fn queue_len(&self) -> usize {
        self.order.len()
    }

    /// This DIMM's configuration.
    pub fn config(&self) -> &DimmConfig {
        &self.cfg
    }

    /// Chip groups per rank under the configured access mode.
    pub fn groups_per_rank(&self) -> u32 {
        self.groups_per_rank
    }

    /// Free request-queue slots (for caller-side back-pressure checks).
    pub fn queue_free(&self) -> usize {
        self.cfg.queue_depth - self.order.len()
    }

    fn entry(&self, slot: u32) -> &Pending {
        self.entries[slot as usize].as_ref().expect("live slot")
    }

    fn entry_mut(&mut self, slot: u32) -> &mut Pending {
        self.entries[slot as usize].as_mut().expect("live slot")
    }

    fn alloc_slot(&mut self, p: Pending) -> u32 {
        match self.free_slots.pop() {
            Some(slot) => {
                self.entries[slot as usize] = Some(p);
                slot
            }
            None => {
                let slot = self.entries.len() as u32;
                self.entries.push(Some(p));
                slot
            }
        }
    }

    fn free_slot(&mut self, slot: u32) -> Pending {
        let p = self.entries[slot as usize].take().expect("live slot");
        self.free_slots.push(slot);
        p
    }

    /// Id of the request at the head of `list`, or [`NO_HEAD`].
    fn head_id(&self, list: &VecDeque<u32>) -> ReqId {
        list.front().map_or(NO_HEAD, |&slot| self.entry(slot).id)
    }

    /// Bank `bidx`'s `[read, write, miss]` list-head ids.
    fn heads(&self, bidx: usize) -> [ReqId; 3] {
        let sched = &self.sched[bidx];
        [&sched.hit_read, &sched.hit_write, &sched.miss].map(|l| self.head_id(l))
    }

    /// Bank `bidx`'s hot record, built from the bank columns, its lists
    /// and the slab.
    fn hot_record(&self, bidx: usize) -> BankHot {
        let lane = bidx / self.cfg.geometry.banks as usize;
        let rank = lane / self.groups_per_rank as usize;
        let mut record = BankHot {
            ready: Cycle::NEVER,
            col: Cycle::NEVER,
            miss_at: Cycle::NEVER,
            read: NO_HEAD,
            write: NO_HEAD,
            miss: NO_HEAD,
            bidx: bidx as u32,
            lane: lane as u32,
            rank: rank as u16,
            bus: self.cmd_bus_index(rank as u32) as u16,
            open: false,
        };
        record.load(self.banks.timers(bidx), self.heads(bidx));
        record
    }

    /// Bank `bidx`'s hot record, if the bank is active.
    fn hot_mut(&mut self, bidx: usize) -> Option<&mut BankHot> {
        match self.active_pos[bidx] {
            IDLE => None,
            pos => Some(&mut self.hot[pos as usize]),
        }
    }

    /// Re-reads bank `bidx`'s timers and list heads into its hot record,
    /// if active (the topology fields never change).
    fn sync_hot(&mut self, bidx: usize) {
        let (timers, heads) = (self.banks.timers(bidx), self.heads(bidx));
        if let Some(h) = self.hot_mut(bidx) {
            h.load(timers, heads);
        }
    }

    fn mark_bank_idle(&mut self, bidx: usize) {
        debug_assert!(self.sched[bidx].is_empty());
        let pos = std::mem::replace(&mut self.active_pos[bidx], IDLE);
        if pos != IDLE {
            self.hot.swap_remove(pos as usize);
            if let Some(moved) = self.hot.get(pos as usize) {
                self.active_pos[moved.bidx as usize] = pos;
            }
        }
    }

    /// Enqueues a request, returning its id.
    ///
    /// # Errors
    /// Hands the request back when the controller queue is full.
    ///
    /// # Panics
    /// Panics when the coordinate is outside the configured geometry or
    /// the request is empty — both are wiring bugs in the caller, not
    /// runtime conditions.
    pub fn enqueue(&mut self, req: MemRequest) -> Result<ReqId, QueueFullError<MemRequest>> {
        let cmd = self.decode(req.kind, req.coord, req.bytes, req.tag);
        if self.order.len() >= self.cfg.queue_depth {
            return Err(QueueFullError(req));
        }
        let id = self.admit(cmd);
        self.horizon.invalidate();
        self.stats.incr(match req.kind {
            ReqKind::Read => "dram.req.read",
            ReqKind::Write => "dram.req.write",
        });
        Ok(id)
    }

    /// Decodes a request's admission-invariant fields once: flattened
    /// bank index and total burst count. Producers staging through a
    /// [`CmdRing`] decode at fill time so [`Dimm::consume_ring`] admits
    /// without re-deriving anything.
    ///
    /// # Panics
    /// Panics when the coordinate is outside the configured geometry or
    /// the request is empty — wiring bugs in the caller.
    pub fn decode(&self, kind: ReqKind, coord: DramCoord, bytes: u32, tag: u64) -> DecodedCmd {
        let g = &self.cfg.geometry;
        assert!(coord.rank < g.ranks, "rank out of range");
        assert!(coord.group < self.groups_per_rank, "group out of range");
        assert!(coord.bank < g.banks, "bank out of range");
        assert!(coord.row < g.rows, "row out of range");
        assert!(coord.col < g.cols_per_row(), "column out of range");
        assert!(bytes > 0, "empty request");
        let burst_bytes = self.cfg.access_mode.burst_bytes(g);
        DecodedCmd {
            kind,
            coord,
            bytes,
            tag,
            bidx: self.bank_index(coord.rank, coord.group, coord.bank) as u32,
            bursts: bytes.div_ceil(burst_bytes).max(1),
        }
    }

    /// Admits one decoded command: slab slot, age order, scheduling
    /// index. Capacity and geometry were checked at decode/staging
    /// time; the caller owns the horizon invalidation and request
    /// counters so batches pay them once.
    fn admit(&mut self, cmd: DecodedCmd) -> ReqId {
        debug_assert!(self.order.len() < self.cfg.queue_depth, "queue overfilled");
        let id = ReqId(self.next_id);
        self.next_id += 1;
        let bidx = cmd.bidx as usize;
        let slot = self.alloc_slot(Pending {
            id,
            req: MemRequest {
                kind: cmd.kind,
                coord: cmd.coord,
                bytes: cmd.bytes,
                tag: cmd.tag,
            },
            enqueued_at: self.now_hint(),
            first_cmd_at: Cycle::NEVER,
            bursts_done: 0,
            bursts_total: cmd.bursts,
            last_data_end: Cycle::ZERO,
            bidx: cmd.bidx,
        });
        self.order.push_back(slot);

        // Index the new request: ids are assigned in admission order, so
        // a plain push_back keeps every list age-ordered.
        let sched = &mut self.sched[bidx];
        let list = match self.banks.open_row(bidx) {
            Some(open) if open == cmd.coord.row => match cmd.kind {
                ReqKind::Read => &mut sched.hit_read,
                ReqKind::Write => &mut sched.hit_write,
            },
            _ => &mut sched.miss,
        };
        list.push_back(slot);
        if list.len() == 1 {
            // A new list head: the bank's hot record changes or starts.
            if self.active_pos[bidx] == IDLE {
                self.active_pos[bidx] = self.hot.len() as u32;
                self.hot.push(self.hot_record(bidx));
            } else {
                self.sync_hot(bidx);
            }
        }
        id
    }

    /// Admits every staged command in arrival order, then empties the
    /// ring. One horizon invalidation and one request-counter flush
    /// cover the whole batch; the per-command work is the slab insert
    /// and the scheduling-index push only. Equivalent to calling
    /// [`Dimm::enqueue`] once per staged command (the retained
    /// per-event oracle path).
    ///
    /// # Panics
    /// Panics (debug) when the batch exceeds the queue's free slots —
    /// the producer must bound its fill by `queue_free()`.
    pub fn consume_ring(&mut self, ring: &mut CmdRing) {
        if ring.is_empty() {
            return;
        }
        debug_assert!(
            self.order.len() + ring.len() <= self.cfg.queue_depth,
            "ring batch exceeds queue capacity"
        );
        let (mut reads, mut writes) = (0u64, 0u64);
        for i in 0..ring.len() {
            let cmd = DecodedCmd {
                kind: ring.kinds[i],
                coord: ring.coords[i],
                bytes: ring.bytes[i],
                tag: ring.tags[i],
                bidx: ring.bidxs[i],
                bursts: ring.bursts[i],
            };
            match cmd.kind {
                ReqKind::Read => reads += 1,
                ReqKind::Write => writes += 1,
            }
            self.admit(cmd);
        }
        ring.clear();
        self.horizon.invalidate();
        self.stats.add("dram.req.read", reads);
        self.stats.add("dram.req.write", writes);
    }

    fn now_hint(&self) -> Cycle {
        Cycle::new(self.ticked_cycles)
    }

    /// Removes and returns every finished access.
    pub fn drain_completed(&mut self) -> Vec<CompletedAccess> {
        if !self.completed.is_empty() {
            self.horizon.invalidate();
        }
        std::mem::take(&mut self.completed)
    }

    /// Appends every finished access to `out` (allocation-free variant of
    /// [`Dimm::drain_completed`] for callers with a reusable buffer).
    pub fn drain_completed_into(&mut self, out: &mut Vec<CompletedAccess>) {
        if !self.completed.is_empty() {
            self.horizon.invalidate();
        }
        out.append(&mut self.completed);
    }

    /// Statistics registry (command counts, row hits/misses, …).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Per-chip access histogram: bursts served by each physical chip.
    pub fn chip_histogram(&self) -> &Histogram {
        &self.chip_hist
    }

    /// Cycles this DIMM has been ticked (for background-energy accounting).
    pub fn ticked_cycles(&self) -> u64 {
        self.ticked_cycles
    }

    /// Total data-lane busy cycles summed across every `(rank, group)`
    /// lane — divide by `ticked_cycles() * data_lane_count()` for mean
    /// lane utilization. Attribution-only; never part of any digest.
    pub fn data_lane_cycles(&self) -> u64 {
        self.data_cycles
    }

    /// Number of independent data lanes (`ranks * chip groups`).
    pub fn data_lane_count(&self) -> usize {
        self.data_bus_free.len()
    }

    /// Advances the DIMM's internal time high-water to `now` without
    /// ticking. Owners that enqueue *before* calling [`Tick::tick`] in the
    /// same cycle must call this first so `enqueued_at` timestamps stay
    /// exact when the surrounding engine fast-forwards over dead cycles
    /// (under per-cycle ticking the previous tick already left the
    /// high-water at `now`, so this is a no-op there).
    pub fn sync_time(&mut self, now: Cycle) {
        self.ticked_cycles = self.ticked_cycles.max(now.as_u64());
    }

    /// The DIMM's event horizon as an absolute cycle: the earliest moment
    /// ticking could issue a command, retire a request, or start a
    /// refresh. [`Cycle::NEVER`] when nothing is scheduled (empty queue,
    /// refresh off). Conservative: every term below is a *necessary*
    /// condition checked by the issue logic, so the minimum over them
    /// never overshoots the next actual state change.
    ///
    /// The value is memoized: it depends only on internal state, every
    /// mutating operation invalidates the cache, and a clean hit is O(1).
    pub fn next_event(&self) -> Cycle {
        self.horizon.get_or(|| self.fold_horizon(Cycle::ZERO))
    }

    /// True when ticking at `now` could change state: the same answer as
    /// `next_event() <= now`, without the exact horizon. The terms fold
    /// cheapest first and the probe stops at the first one at or before
    /// `now`; [`HorizonCache::due`] remembers that term, or the exact
    /// horizon when a probe folds every term without finding one, so
    /// later probes are a load until the next mutation.
    pub fn due(&self, now: Cycle) -> bool {
        self.horizon.due(now, |until| self.fold_horizon(until))
    }

    /// Folds the horizon terms, cheapest first, and returns their
    /// minimum — or, as soon as one term lies before `until`, that
    /// term. `until = Cycle::ZERO` never stops early: that is the
    /// from-scratch horizon. There is one term per active bank (all
    /// entries of a list share their readiness cycle) plus refresh
    /// deadlines and the earliest finished entry, so the cost is
    /// O(active banks), not O(queue entries).
    fn fold_horizon(&self, until: Cycle) -> Cycle {
        if !self.completed.is_empty() {
            // The owner still has completions to drain.
            return Cycle::ZERO;
        }
        let mut h = Cycle::NEVER;
        if let Some(&Reverse((at, _))) = self.finishing.peek() {
            // Earliest all-bursts-issued entry retires once its last data
            // beat leaves the bus.
            if at < until {
                return at;
            }
            h = at;
        }
        if self.cfg.refresh_enabled {
            for (due, busy) in self.refresh_due.iter().zip(&self.rank_busy) {
                let at = (*due).max(*busy);
                if at < until {
                    return at;
                }
                h = h.min(at);
            }
        }
        #[cfg(feature = "tick-audit")]
        let terms = if until == Cycle::ZERO {
            &self.audit.horizon_scans
        } else {
            &self.audit.due_terms
        };
        let t = self.cfg.timing;
        for b in &self.hot {
            #[cfg(feature = "tick-audit")]
            terms.set(terms.get() + 1);
            // Every term of the bank lies at or after `ready`, and `h` is
            // not below `until` yet: a bank ready no earlier than `h` can
            // neither lower it nor stop the fold.
            if b.ready >= h {
                continue;
            }
            // Row hits wait for the column timer and for the data lane to
            // be free when the burst starts (issue cycle n satisfies
            // data_bus_free <= n + lead); a miss for PRE, or for ACT and
            // the lane's tRRD/tFAW window.
            let mut own = if b.miss == NO_HEAD {
                Cycle::NEVER
            } else if b.open {
                b.miss_at
            } else {
                b.miss_at.max(self.act_ready[b.lane as usize])
            };
            // With both hit lists non-empty, the longer lead is the
            // earlier of the two lane terms.
            let lead = match (b.read != NO_HEAD, b.write != NO_HEAD) {
                (true, true) => Some(t.cl.max(t.cwl)),
                (true, false) => Some(t.cl),
                (false, true) => Some(t.cwl),
                (false, false) => None,
            };
            if let Some(lead) = lead {
                let lane = self.data_bus_free[b.lane as usize].as_u64();
                own = own.min(b.col.max(Cycle::new(lane.saturating_sub(lead))));
            }
            let at = own
                .max(self.cmd_bus_free[b.bus as usize])
                .max(self.rank_busy[b.rank as usize]);
            if at < until {
                return at;
            }
            h = h.min(at);
        }
        h
    }

    /// The original whole-queue horizon scan, kept as the differential
    /// oracle for [`Dimm::next_event`]: on any reachable state the two
    /// must agree bit-identically.
    #[doc(hidden)]
    pub fn reference_next_event(&self) -> Cycle {
        let mut h = Cycle::NEVER;
        if !self.completed.is_empty() {
            return Cycle::ZERO;
        }
        let t = self.cfg.timing;
        if self.cfg.refresh_enabled {
            for rank in 0..self.cfg.geometry.ranks as usize {
                h = h.min(self.refresh_due[rank].max(self.rank_busy[rank]));
            }
        }
        for &slot in &self.order {
            let p = self.entry(slot);
            if p.finished() {
                h = h.min(p.last_data_end);
                continue;
            }
            let c = p.req.coord;
            let col_kind = match p.req.kind {
                ReqKind::Read => CmdKind::Read,
                ReqKind::Write => CmdKind::Write,
            };
            let bidx = p.bidx as usize;
            let need = self.banks.next_cmd_for(bidx, c.row, col_kind);
            let mut ready = self
                .banks
                .earliest(bidx, need)
                .max(self.cmd_bus_free[self.cmd_bus_index(c.rank)])
                .max(self.rank_busy[c.rank as usize]);
            if need == CmdKind::Activate {
                let r = self.lane_index(c.rank, c.group);
                if self.last_act[r] != Cycle::ZERO {
                    ready = ready.max(self.last_act[r] + Duration::new(t.trrd));
                }
                let w = &self.act_window[r];
                if w.len() == 4 {
                    if let Some(&oldest) = w.front() {
                        ready = ready.max(oldest + Duration::new(t.tfaw));
                    }
                }
            } else if need.is_column() {
                let lead = match p.req.kind {
                    ReqKind::Read => t.cl,
                    ReqKind::Write => t.cwl,
                };
                let lane = self.data_bus_free[self.lane_index(c.rank, c.group)];
                ready = ready.max(Cycle::new(lane.as_u64().saturating_sub(lead)));
            }
            h = h.min(ready);
        }
        h
    }

    fn bank_index(&self, rank: u32, group: u32, bank: u32) -> usize {
        ((rank * self.groups_per_rank + group) * self.cfg.geometry.banks + bank) as usize
    }

    fn lane_index(&self, rank: u32, group: u32) -> usize {
        (rank * self.groups_per_rank + group) as usize
    }

    fn record_chip_access(&mut self, rank: u32, group: u32, bursts: u64) {
        let chips_per_group = self.cfg.access_mode.chips_per_group(&self.cfg.geometry);
        let base = rank * self.cfg.geometry.chips_per_rank + group * chips_per_group;
        for c in 0..chips_per_group {
            self.chip_hist.record((base + c) as usize, bursts);
        }
    }

    fn maybe_refresh(&mut self, now: Cycle, obs: &mut Observer) {
        if !self.cfg.refresh_enabled {
            return;
        }
        for rank in 0..self.cfg.geometry.ranks {
            if now < self.refresh_due[rank as usize] || now < self.rank_busy[rank as usize] {
                continue;
            }
            // Close every open row in the rank (auto-precharge) and hold the
            // rank busy for tRFC.
            let t = self.cfg.timing;
            for group in 0..self.groups_per_rank {
                for bank in 0..self.cfg.geometry.banks {
                    let idx = self.bank_index(rank, group, bank);
                    if self.banks.is_open(idx) {
                        // Model the forced precharge as resetting the bank;
                        // its cost is folded into tRFC.
                        self.banks.reset(idx);
                        // Requests that were hits are misses now.
                        self.rehome_all_to_miss(idx);
                        self.sync_hot(idx);
                    }
                }
            }
            self.rank_busy[rank as usize] = now + Duration::new(t.trfc);
            self.refresh_due[rank as usize] = now + Duration::new(t.trefi);
            self.horizon.invalidate();
            self.stats.incr("dram.cmd.refresh");
            self.stats.add(
                "dram.refresh_chips",
                self.cfg.geometry.chips_per_rank as u64,
            );
            if let Some(tr) = obs.trace_at(TraceLevel::Command) {
                tr.record(
                    self.trace_id.as_deref().unwrap_or("dram"),
                    TraceEvent::span(
                        now.as_u64(),
                        t.trfc,
                        TraceLevel::Command,
                        TraceCategory::Dram,
                        "dram.refresh",
                        rank as u64,
                    ),
                );
            }
        }
    }

    fn retire_finished(&mut self, now: Cycle) {
        // O(1) guard: nothing retires before the earliest last data beat.
        match self.finishing.peek() {
            Some(&Reverse((at, _))) if at <= now => {}
            _ => return,
        }
        // `finishing` holds exactly the finished, unretired entries, so
        // the due ones pop straight off the heap. Requests retire out of
        // order with respect to queue age, but completions due in the
        // same cycle keep age order, which is `ReqId` order.
        let mut due = std::mem::take(&mut self.due);
        while let Some(&Reverse((at, slot))) = self.finishing.peek() {
            if at > now {
                break;
            }
            self.finishing.pop();
            due.push((self.entry(slot).id, slot));
        }
        due.sort_unstable();
        for &(_, slot) in &due {
            self.complete(slot, now);
        }
        // `order` is age-ordered too, so one merge walk unlinks them.
        let mut next = due.iter().map(|&(_, slot)| slot).peekable();
        self.order.retain(|&slot| next.next_if_eq(&slot).is_none());
        due.clear();
        self.due = due;
        self.horizon.invalidate();
    }

    /// Frees a finished entry's slot and appends its completion. Does
    /// not touch `order` or `finishing`; the caller unlinks the slot.
    fn complete(&mut self, slot: u32, now: Cycle) {
        let done = self.free_slot(slot);
        // UE stream: retirement cycles are identical whether the engine
        // fast-forwards or not, so consuming a stamp here poisons the
        // same read in every execution mode.
        let poisoned = match &mut self.faults {
            Some(f) if done.req.kind == ReqKind::Read => f.ue.pop_due(now).is_some(),
            _ => false,
        };
        if poisoned {
            self.stats.incr("ras.dimm_ue");
        }
        self.completed.push(CompletedAccess {
            id: done.id,
            request: done.req,
            finished_at: done.last_data_end,
            enqueued_at: done.enqueued_at,
            service_started_at: if done.first_cmd_at == Cycle::NEVER {
                done.enqueued_at
            } else {
                done.first_cmd_at
            },
            poisoned,
        });
    }

    /// True when an ACT to `(rank, group)` would violate tRRD or tFAW at
    /// `now` (per-device windows).
    fn act_blocked(&self, rank: u32, group: u32, now: Cycle) -> bool {
        let t = &self.cfg.timing;
        let r = self.lane_index(rank, group);
        if now < self.last_act[r] + Duration::new(t.trrd) && self.last_act[r] != Cycle::ZERO {
            return true;
        }
        let w = &self.act_window[r];
        if w.len() == 4 {
            if let Some(&oldest) = w.front() {
                if now < oldest + Duration::new(t.tfaw) {
                    return true;
                }
            }
        }
        false
    }

    fn note_act(&mut self, lane: usize, now: Cycle) {
        self.last_act[lane] = now;
        let w = &mut self.act_window[lane];
        if w.len() == 4 {
            w.pop_front();
        }
        w.push_back(now);
        self.act_ready[lane] = self.act_window_end(lane);
    }

    /// The first cycle neither tRRD nor tFAW blocks an ACT on `lane`:
    /// [`Dimm::act_blocked`] as one cycle.
    fn act_window_end(&self, lane: usize) -> Cycle {
        let t = &self.cfg.timing;
        let mut ready = Cycle::ZERO;
        if self.last_act[lane] != Cycle::ZERO {
            ready = self.last_act[lane] + Duration::new(t.trrd);
        }
        let w = &self.act_window[lane];
        if w.len() == 4 {
            if let Some(&oldest) = w.front() {
                ready = ready.max(oldest + Duration::new(t.tfaw));
            }
        }
        ready
    }

    fn cmd_bus_index(&self, rank: u32) -> usize {
        if self.cfg.per_rank_cmd_bus {
            rank as usize
        } else {
            0
        }
    }

    /// Re-indexes bank `bidx` after an ACT opened `row`: misses to the
    /// freshly opened row become hits. ACT is only legal on a precharged
    /// bank, so the hit lists start empty and a single order-preserving
    /// partition of `miss` suffices.
    fn rehome_after_activate(&mut self, bidx: usize, row: u64) {
        debug_assert!(
            self.sched[bidx].hit_read.is_empty() && self.sched[bidx].hit_write.is_empty(),
            "ACT on a bank with hit entries"
        );
        let n = self.sched[bidx].miss.len();
        for _ in 0..n {
            let slot = self.sched[bidx].miss.pop_front().expect("length checked");
            let (req_row, kind) = {
                let p = self.entry(slot);
                (p.req.coord.row, p.req.kind)
            };
            let sched = &mut self.sched[bidx];
            if req_row == row {
                match kind {
                    ReqKind::Read => sched.hit_read.push_back(slot),
                    ReqKind::Write => sched.hit_write.push_back(slot),
                }
            } else {
                sched.miss.push_back(slot);
            }
        }
    }

    /// Re-indexes bank `bidx` after its row closed (PRE or refresh):
    /// every entry needs an ACT now. Merges the three lists back into
    /// `miss` by request id so age order is preserved; the scratch
    /// buffers rotate, so steady state allocates nothing.
    fn rehome_all_to_miss(&mut self, bidx: usize) {
        if self.sched[bidx].hit_read.is_empty() && self.sched[bidx].hit_write.is_empty() {
            return;
        }
        let mut hr = std::mem::take(&mut self.sched[bidx].hit_read);
        let mut hw = std::mem::take(&mut self.sched[bidx].hit_write);
        let mut mi = std::mem::take(&mut self.sched[bidx].miss);
        let mut out = std::mem::take(&mut self.merge_scratch);
        out.clear();
        loop {
            let mut best: Option<(ReqId, u8)> = None;
            for (which, list) in [(0u8, &hr), (1, &hw), (2, &mi)] {
                if let Some(&slot) = list.front() {
                    let id = self.entry(slot).id;
                    if best.is_none_or(|(b, _)| id < b) {
                        best = Some((id, which));
                    }
                }
            }
            let Some((_, which)) = best else { break };
            let slot = match which {
                0 => hr.pop_front(),
                1 => hw.pop_front(),
                _ => mi.pop_front(),
            }
            .expect("head observed");
            out.push_back(slot);
        }
        let sched = &mut self.sched[bidx];
        sched.hit_read = hr;
        sched.hit_write = hw;
        sched.miss = out;
        self.merge_scratch = mi;
    }

    /// The FR-FCFS scan: one pass over the hot records that leaves in
    /// `picks[bus]` that command bus's oldest issuable row hit, failing
    /// that its oldest issuable ACT/PRE. Every entry of one per-bank
    /// list shares the same readiness condition (bank timers, rank,
    /// bus, data lane, CAS lead), so the oldest issuable request of a
    /// list is its head when the head can issue, and none otherwise.
    fn scan_frfcfs(&self, now: Cycle, picks: &mut [Option<BusPick>]) {
        let t = self.cfg.timing;
        for b in &self.hot {
            #[cfg(feature = "tick-audit")]
            self.audit
                .choice_scans
                .set(self.audit.choice_scans.get() + 1);
            if now < b.ready
                || now < self.rank_busy[b.rank as usize]
                || now < self.cmd_bus_free[b.bus as usize]
            {
                continue;
            }
            let best = &mut picks[b.bus as usize];
            // `col` is shared by reads and writes and is NEVER on a
            // closed bank; the data lane must be free when the burst
            // starts.
            if now >= b.col {
                let lane = self.data_bus_free[b.lane as usize];
                for (id, kind, lead) in [
                    (b.read, CmdKind::Read, t.cl),
                    (b.write, CmdKind::Write, t.cwl),
                ] {
                    if id != NO_HEAD
                        && lane <= now + Duration::new(lead)
                        && best.is_none_or(|p| p.key() > (false, id))
                    {
                        *best = Some(BusPick {
                            miss: false,
                            id,
                            bidx: b.bidx,
                            kind,
                        });
                    }
                }
            }
            // A row hit on this bus outranks every ACT/PRE, and an older
            // ACT/PRE this bank's.
            if b.miss == NO_HEAD || best.is_some_and(|p| !p.miss || p.id < b.miss) {
                continue;
            }
            if now < b.miss_at {
                continue;
            }
            let kind = if b.open {
                CmdKind::Precharge
            } else {
                if now < self.act_ready[b.lane as usize] {
                    continue;
                }
                CmdKind::Activate
            };
            *best = Some(BusPick {
                miss: true,
                id: b.miss,
                bidx: b.bidx,
                kind,
            });
        }
    }

    /// Issues this cycle's FR-FCFS commands: one scan, then every bus's
    /// pick in `(miss, id)` order. An issue changes only state local to
    /// its command bus's rank (the bank, its lists, the bus, the rank's
    /// data lanes and ACT windows), so no other bus's pick goes stale.
    /// The order reproduces re-choosing after every issue: the oldest
    /// remaining hit while any bus has one, then the oldest miss.
    fn issue_frfcfs(&mut self, now: Cycle, obs: &mut Observer) {
        if self.hot.is_empty() {
            return;
        }
        let mut picks = std::mem::take(&mut self.picks);
        picks.clear();
        picks.resize(self.cmd_bus_free.len(), None);
        self.scan_frfcfs(now, &mut picks);
        picks.sort_unstable_by_key(|p| p.map(|p| p.key()));
        for p in picks.iter().flatten() {
            let sched = &self.sched[p.bidx as usize];
            let list = match p.kind {
                CmdKind::Read => &sched.hit_read,
                CmdKind::Write => &sched.hit_write,
                _ => &sched.miss,
            };
            let slot = *list.front().expect("picked list has a head");
            debug_assert_eq!(self.entry(slot).id, p.id, "pick is its list head");
            self.apply_command(slot, p.kind, now, obs);
        }
        self.picks = picks;
    }

    /// The first command the per-bank index would issue at `now` as a
    /// `(request id, command)` pair, for differential testing against
    /// [`Dimm::reference_choice`].
    #[doc(hidden)]
    pub fn indexed_choice(&self, now: Cycle) -> Option<(ReqId, CmdKind)> {
        let mut picks = vec![None; self.cmd_bus_free.len()];
        self.scan_frfcfs(now, &mut picks);
        picks
            .into_iter()
            .flatten()
            .min_by_key(BusPick::key)
            .map(|p| (p.id, p.kind))
    }

    /// The original linear two-pass FR-FCFS scan, kept as the
    /// differential oracle for the per-bank index: on any reachable
    /// state [`Dimm::indexed_choice`] must pick the same request and
    /// command.
    #[doc(hidden)]
    pub fn reference_choice(&self, now: Cycle) -> Option<(ReqId, CmdKind)> {
        let t = self.cfg.timing;
        // Pass 1 (row hits first): oldest request whose column command can
        // issue right now with a free data lane.
        for &slot in &self.order {
            let p = self.entry(slot);
            if p.finished() {
                continue;
            }
            let c = p.req.coord;
            if now < self.rank_busy[c.rank as usize]
                || now < self.cmd_bus_free[self.cmd_bus_index(c.rank)]
            {
                continue;
            }
            let col_kind = match p.req.kind {
                ReqKind::Read => CmdKind::Read,
                ReqKind::Write => CmdKind::Write,
            };
            let bidx = p.bidx as usize;
            if self.banks.next_cmd_for(bidx, c.row, col_kind) == col_kind
                && self.banks.can_issue(bidx, col_kind, now)
            {
                let lead = match p.req.kind {
                    ReqKind::Read => t.cl,
                    ReqKind::Write => t.cwl,
                };
                let start = now + Duration::new(lead);
                if self.data_bus_free[self.lane_index(c.rank, c.group)] <= start {
                    return Some((p.id, col_kind));
                }
            }
        }
        // Pass 2: oldest request that needs an ACT or PRE it can issue now.
        for &slot in &self.order {
            let p = self.entry(slot);
            if p.finished() {
                continue;
            }
            let c = p.req.coord;
            if now < self.rank_busy[c.rank as usize]
                || now < self.cmd_bus_free[self.cmd_bus_index(c.rank)]
            {
                continue;
            }
            let col_kind = match p.req.kind {
                ReqKind::Read => CmdKind::Read,
                ReqKind::Write => CmdKind::Write,
            };
            let bidx = p.bidx as usize;
            let need = self.banks.next_cmd_for(bidx, c.row, col_kind);
            if need.is_column() {
                continue; // column handled in pass 1
            }
            if need == CmdKind::Activate && self.act_blocked(c.rank, c.group, now) {
                continue;
            }
            if self.banks.can_issue(bidx, need, now) {
                return Some((p.id, need));
            }
        }
        None
    }

    /// Issues `kind` for the request in `slot` at `now`: bank, command
    /// bus, data lane and ACT-window state, the scheduling index and its
    /// hot record, the command-mix accumulators and the trace. The
    /// caller has checked that the command can issue.
    fn apply_command(&mut self, slot: u32, kind: CmdKind, now: Cycle, obs: &mut Observer) {
        let t = self.cfg.timing;
        let chips_per_group = self.cfg.access_mode.chips_per_group(&self.cfg.geometry) as u64;

        let (coord, req_kind, bidx) = {
            let p = self.entry(slot);
            (p.req.coord, p.req.kind, p.bidx as usize)
        };
        let window = self.banks.apply(bidx, kind, coord.row, now, &t);
        let cbus = self.cmd_bus_index(coord.rank);
        self.cmd_bus_free[cbus] = now + Duration::new(1);
        self.horizon.invalidate();
        {
            let p = self.entry_mut(slot);
            if p.first_cmd_at == Cycle::NEVER {
                p.first_cmd_at = now;
            }
        }

        match kind {
            CmdKind::Activate => {
                self.note_act(self.lane_index(coord.rank, coord.group), now);
                self.rehome_after_activate(bidx, coord.row);
                self.sync_hot(bidx);
                self.acc.act += 1;
                self.acc.act_chips += chips_per_group;
                self.acc.row_miss += 1;
                if let Some(tr) = obs.trace_at(TraceLevel::Command) {
                    tr.record(
                        self.trace_id.as_deref().unwrap_or("dram"),
                        TraceEvent::span(
                            now.as_u64(),
                            t.trcd,
                            TraceLevel::Command,
                            TraceCategory::Dram,
                            "dram.act",
                            coord.bank as u64,
                        ),
                    );
                }
            }
            CmdKind::Precharge => {
                self.rehome_all_to_miss(bidx);
                self.sync_hot(bidx);
                self.acc.pre += 1;
                self.acc.pre_chips += chips_per_group;
                self.acc.row_conflict += 1;
                if let Some(tr) = obs.trace_at(TraceLevel::Command) {
                    tr.record(
                        self.trace_id.as_deref().unwrap_or("dram"),
                        TraceEvent::span(
                            now.as_u64(),
                            t.trp,
                            TraceLevel::Command,
                            TraceCategory::Dram,
                            "dram.pre",
                            coord.bank as u64,
                        ),
                    );
                }
            }
            CmdKind::Read | CmdKind::Write => {
                let (start, end) = window.expect("column command has data window");
                let lane = self.lane_index(coord.rank, coord.group);
                let cols = self.cfg.geometry.cols_per_row();
                let chained = {
                    let p = self.entry(slot);
                    if self.cfg.chained_columns {
                        // Custom MC: expand the remaining same-row bursts
                        // into one chained command (clamped at row end).
                        let left = (p.bursts_total - p.bursts_done) as u64;
                        let room = (cols - p.req.coord.col) as u64;
                        left.min(room).max(1)
                    } else {
                        1
                    }
                };
                // Recompute the data window for the chain length.
                let end = if chained > 1 {
                    // First burst already applied; extend by the remaining
                    // occupancy directly.
                    end + Duration::new(t.tbl).saturating_mul(chained - 1)
                } else {
                    end
                };
                self.data_bus_free[lane] = end;
                self.data_cycles += end.since(start).as_u64();
                let finished = {
                    let p = self.entry_mut(slot);
                    p.bursts_done += chained as u32;
                    p.last_data_end = end;
                    p.req.coord.col = (p.req.coord.col + chained as u32) % cols;
                    p.finished()
                };
                if finished {
                    // A column issue always serves the head of its hit
                    // list (older same-list entries would have issued
                    // first); unlink it and queue it for retirement.
                    let sched = &mut self.sched[bidx];
                    let list = match req_kind {
                        ReqKind::Read => &mut sched.hit_read,
                        ReqKind::Write => &mut sched.hit_write,
                    };
                    let head = list.pop_front();
                    debug_assert_eq!(head, Some(slot), "finished entry must be its list head");
                    self.finishing.push(Reverse((end, slot)));
                    if self.sched[bidx].is_empty() {
                        self.mark_bank_idle(bidx);
                    }
                }
                // A column command moves only the timers and the hit-list
                // heads; the miss head stays.
                let timers = self.banks.timers(bidx);
                let sched = &self.sched[bidx];
                let [read, write] = [&sched.hit_read, &sched.hit_write].map(|l| self.head_id(l));
                if let Some(h) = self.hot_mut(bidx) {
                    h.load(timers, [read, write, h.miss]);
                }
                match req_kind {
                    ReqKind::Read => {
                        self.acc.read += 1;
                        self.acc.rd_burst_chips += chips_per_group * chained;
                    }
                    ReqKind::Write => {
                        self.acc.write += 1;
                        self.acc.wr_burst_chips += chips_per_group * chained;
                    }
                }
                self.acc.row_hit += 1;
                self.record_chip_access(coord.rank, coord.group, chained);
                if let Some(tr) = obs.trace_at(TraceLevel::Command) {
                    tr.record(
                        self.trace_id.as_deref().unwrap_or("dram"),
                        TraceEvent::span(
                            now.as_u64(),
                            end.since(now).as_u64().max(1),
                            TraceLevel::Command,
                            TraceCategory::Dram,
                            match req_kind {
                                ReqKind::Read => "dram.rd",
                                ReqKind::Write => "dram.wr",
                            },
                            chained,
                        ),
                    );
                }
            }
            CmdKind::Refresh => unreachable!("refresh issued by maybe_refresh"),
        }
    }

    /// The batched per-cycle sweep over the SoA bank state: refresh,
    /// one command slot per command bus, retirement. [`Tick::tick`]
    /// gates this behind the memoized horizon; callers that already
    /// know the cycle is live (microbenchmarks, oracles) may invoke it
    /// directly. Command and refresh trace events go to `obs`.
    pub fn tick_banks(&mut self, now: Cycle, obs: &mut Observer) {
        self.maybe_refresh(now, obs);
        self.issue_frfcfs(now, obs);
        self.retire_finished(now);
        self.flush_cmd_stats();
    }

    /// Folds the tick-local command-mix accumulators into `stats`.
    /// `Stats::add` ignores zeroes, so counters the sweep did not touch
    /// cost one branch each and are never created.
    fn flush_cmd_stats(&mut self) {
        let a = std::mem::take(&mut self.acc);
        let ids = self.cmd_ids;
        self.stats.add_id(ids.act, a.act);
        self.stats.add_id(ids.act_chips, a.act_chips);
        self.stats.add_id(ids.row_miss, a.row_miss);
        self.stats.add_id(ids.pre, a.pre);
        self.stats.add_id(ids.pre_chips, a.pre_chips);
        self.stats.add_id(ids.row_conflict, a.row_conflict);
        self.stats.add_id(ids.read, a.read);
        self.stats.add_id(ids.write, a.write);
        self.stats.add_id(ids.rd_burst_chips, a.rd_burst_chips);
        self.stats.add_id(ids.wr_burst_chips, a.wr_burst_chips);
        self.stats.add_id(ids.row_hit, a.row_hit);
    }
}

fn put_request(w: &mut SnapWriter, req: &MemRequest) {
    w.u8(match req.kind {
        ReqKind::Read => 0,
        ReqKind::Write => 1,
    });
    w.u64(req.coord.pack());
    w.u32(req.bytes);
    w.u64(req.tag);
}

fn get_request(r: &mut SnapReader<'_>) -> Result<MemRequest, SnapError> {
    let kind = match r.u8()? {
        0 => ReqKind::Read,
        1 => ReqKind::Write,
        t => return Err(SnapError::Corrupt(format!("unknown ReqKind tag {t}"))),
    };
    Ok(MemRequest {
        kind,
        coord: crate::address::DramCoord::unpack(r.u64()?),
        bytes: r.u32()?,
        tag: r.u64()?,
    })
}

fn put_cycles(w: &mut SnapWriter, cycles: &[Cycle]) {
    w.usize(cycles.len());
    for c in cycles {
        w.cycle(*c);
    }
}

fn get_cycles_into(r: &mut SnapReader<'_>, out: &mut [Cycle], what: &str) -> Result<(), SnapError> {
    let n = r.seq_len()?;
    if n != out.len() {
        return Err(SnapError::Topology(format!(
            "{what}: snapshot has {n} entries, DIMM has {}",
            out.len()
        )));
    }
    for c in out.iter_mut() {
        *c = r.cycle()?;
    }
    Ok(())
}

fn put_slots(w: &mut SnapWriter, slots: &VecDeque<u32>) {
    w.usize(slots.len());
    for s in slots {
        w.u32(*s);
    }
}

/// The live entry at `slot`, or the typed error a snapshot naming an
/// out-of-range or freed slot restores to.
fn live_entry<'a>(
    entries: &'a [Option<Pending>],
    slot: u32,
    what: &str,
) -> Result<&'a Pending, SnapError> {
    entries
        .get(slot as usize)
        .and_then(Option::as_ref)
        .ok_or_else(|| SnapError::Corrupt(format!("{what} slot {slot} is not a live entry")))
}

/// Reads a slot list, each slot of which must index a live entry.
fn get_live_slots(
    r: &mut SnapReader<'_>,
    entries: &[Option<Pending>],
    what: &str,
) -> Result<VecDeque<u32>, SnapError> {
    let n = r.seq_len()?;
    let mut out = VecDeque::with_capacity(n);
    for _ in 0..n {
        let slot = r.u32()?;
        live_entry(entries, slot, what)?;
        out.push_back(slot);
    }
    Ok(out)
}

impl Snapshot for Dimm {
    const TAG: &'static str = "dram.dimm";
    // v2: bank state travels as four SoA columns (open-row with the
    // ROW_NONE sentinel, then act/col/pre cycles) instead of per-bank
    // "dram.bank" component frames.
    // v3: each live slab entry persists its decoded flattened bank
    // index (the command-ring admission path decodes once and the
    // scheduler passes reuse the stored index).
    const VERSION: u16 = 3;
    fn snap(&self, w: &mut SnapWriter) {
        // `cfg`, `groups_per_rank` and `trace_id` are construction-time;
        // `merge_scratch` is drained empty between commands, the horizon
        // cache restores dirty, and the hot records and `act_ready` are
        // rebuilt from the state below (only the active banks' order
        // travels).
        let (open_row, act, col, pre) = self.banks.columns();
        w.usize(open_row.len());
        for &row in open_row {
            w.u64(row);
        }
        for &at in act {
            w.cycle(at);
        }
        for &at in col {
            w.cycle(at);
        }
        for &at in pre {
            w.cycle(at);
        }
        w.usize(self.entries.len());
        for entry in &self.entries {
            match entry {
                None => w.bool(false),
                Some(p) => {
                    w.bool(true);
                    w.u64(p.id.0);
                    put_request(w, &p.req);
                    w.cycle(p.enqueued_at);
                    w.cycle(p.first_cmd_at);
                    w.u32(p.bursts_done);
                    w.u32(p.bursts_total);
                    w.cycle(p.last_data_end);
                    w.u32(p.bidx);
                }
            }
        }
        w.usize(self.free_slots.len());
        for s in &self.free_slots {
            w.u32(*s);
        }
        put_slots(w, &self.order);
        w.usize(self.sched.len());
        for sched in &self.sched {
            put_slots(w, &sched.hit_read);
            put_slots(w, &sched.hit_write);
            put_slots(w, &sched.miss);
        }
        w.usize(self.hot.len());
        for b in &self.hot {
            w.u32(b.bidx);
        }
        // The heap serialises in its canonical sorted order so identical
        // logical state always yields identical bytes.
        let finishing = self.finishing.clone().into_sorted_vec();
        w.usize(finishing.len());
        for Reverse((at, slot)) in &finishing {
            w.cycle(*at);
            w.u32(*slot);
        }
        w.usize(self.completed.len());
        for c in &self.completed {
            w.u64(c.id.0);
            put_request(w, &c.request);
            w.cycle(c.finished_at);
            w.cycle(c.enqueued_at);
            w.cycle(c.service_started_at);
            w.bool(c.poisoned);
        }
        put_cycles(w, &self.data_bus_free);
        put_cycles(w, &self.cmd_bus_free);
        w.usize(self.act_window.len());
        for window in &self.act_window {
            w.usize(window.len());
            for at in window {
                w.cycle(*at);
            }
        }
        put_cycles(w, &self.last_act);
        put_cycles(w, &self.refresh_due);
        put_cycles(w, &self.rank_busy);
        w.u64(self.next_id);
        w.component(&self.stats);
        w.component(&self.chip_hist);
        w.u64(self.data_cycles);
        w.u64(self.ticked_cycles);
        match &self.faults {
            None => w.bool(false),
            Some(f) => {
                w.bool(true);
                w.component(&f.ue);
                w.bool(f.dead);
            }
        }
    }
}

impl Restore for Dimm {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let nbanks = r.seq_len()?;
        if nbanks != self.banks.len() {
            return Err(SnapError::Topology(format!(
                "snapshot has {nbanks} banks, DIMM has {}",
                self.banks.len()
            )));
        }
        {
            let (open_row, act, col, pre) = self.banks.columns_mut();
            for row in open_row.iter_mut() {
                *row = r.u64()?;
            }
            for at in act.iter_mut() {
                *at = r.cycle()?;
            }
            for at in col.iter_mut() {
                *at = r.cycle()?;
            }
            for at in pre.iter_mut() {
                *at = r.cycle()?;
            }
        }
        #[cfg(feature = "soa-oracle")]
        self.banks.rebuild_shadow();
        let n = r.seq_len()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(if r.bool()? {
                let p = Pending {
                    id: ReqId(r.u64()?),
                    req: get_request(r)?,
                    enqueued_at: r.cycle()?,
                    first_cmd_at: r.cycle()?,
                    bursts_done: r.u32()?,
                    bursts_total: r.u32()?,
                    last_data_end: r.cycle()?,
                    bidx: r.u32()?,
                };
                if p.bidx as usize >= nbanks {
                    return Err(SnapError::Corrupt(format!(
                        "entry bank index {} of {nbanks}",
                        p.bidx
                    )));
                }
                Some(p)
            } else {
                None
            });
        }
        self.entries = entries;
        let n = r.seq_len()?;
        let mut free_slots = Vec::with_capacity(n);
        for _ in 0..n {
            let slot = r.u32()?;
            if !matches!(self.entries.get(slot as usize), Some(None)) {
                return Err(SnapError::Corrupt(format!(
                    "free slot {slot} is not an empty entry"
                )));
            }
            free_slots.push(slot);
        }
        self.free_slots = free_slots;
        self.order = get_live_slots(r, &self.entries, "queue")?;
        let n = r.seq_len()?;
        if n != self.sched.len() {
            return Err(SnapError::Topology(format!(
                "snapshot has {n} bank-sched entries, DIMM has {}",
                self.sched.len()
            )));
        }
        for sched in &mut self.sched {
            sched.hit_read = get_live_slots(r, &self.entries, "read-hit list")?;
            sched.hit_write = get_live_slots(r, &self.entries, "write-hit list")?;
            sched.miss = get_live_slots(r, &self.entries, "miss list")?;
        }
        let n = r.seq_len()?;
        self.hot.clear();
        self.active_pos.fill(IDLE);
        for _ in 0..n {
            let b = r.u32()? as usize;
            if b >= nbanks || self.active_pos[b] != IDLE || self.sched[b].is_empty() {
                return Err(SnapError::Corrupt(format!(
                    "active bank {b} of {nbanks} is out of range, listed twice or has no requests"
                )));
            }
            self.active_pos[b] = self.hot.len() as u32;
            self.hot.push(self.hot_record(b));
        }
        // A bank with requests but no record would never be scanned.
        if let Some(b) =
            (0..nbanks).find(|&b| self.active_pos[b] == IDLE && !self.sched[b].is_empty())
        {
            return Err(SnapError::Corrupt(format!(
                "bank {b} has requests but is not listed active"
            )));
        }
        let n = r.seq_len()?;
        let mut finishing = BinaryHeap::with_capacity(n);
        for _ in 0..n {
            let at = r.cycle()?;
            let slot = r.u32()?;
            let p = live_entry(&self.entries, slot, "finishing")?;
            if !p.finished() || p.last_data_end != at {
                return Err(SnapError::Corrupt(format!(
                    "finishing slot {slot} at cycle {at} is not an entry finished then"
                )));
            }
            finishing.push(Reverse((at, slot)));
        }
        self.finishing = finishing;
        let n = r.seq_len()?;
        let mut completed = Vec::with_capacity(n);
        for _ in 0..n {
            completed.push(CompletedAccess {
                id: ReqId(r.u64()?),
                request: get_request(r)?,
                finished_at: r.cycle()?,
                enqueued_at: r.cycle()?,
                service_started_at: r.cycle()?,
                poisoned: r.bool()?,
            });
        }
        self.completed = completed;
        get_cycles_into(r, &mut self.data_bus_free, "data lanes")?;
        get_cycles_into(r, &mut self.cmd_bus_free, "command buses")?;
        let n = r.seq_len()?;
        if n != self.act_window.len() {
            return Err(SnapError::Topology(format!(
                "snapshot has {n} ACT windows, DIMM has {}",
                self.act_window.len()
            )));
        }
        for window in &mut self.act_window {
            let m = r.seq_len()?;
            window.clear();
            for _ in 0..m {
                window.push_back(r.cycle()?);
            }
        }
        get_cycles_into(r, &mut self.last_act, "ACT trackers")?;
        for lane in 0..self.act_ready.len() {
            self.act_ready[lane] = self.act_window_end(lane);
        }
        get_cycles_into(r, &mut self.refresh_due, "refresh deadlines")?;
        get_cycles_into(r, &mut self.rank_busy, "rank-busy windows")?;
        self.next_id = r.u64()?;
        r.component(&mut self.stats)?;
        r.component(&mut self.chip_hist)?;
        self.data_cycles = r.u64()?;
        self.ticked_cycles = r.u64()?;
        if r.bool()? {
            let f = self.faults.get_or_insert_with(Default::default);
            r.component(&mut f.ue)?;
            f.dead = r.bool()?;
        } else {
            self.faults = None;
        }
        self.merge_scratch.clear();
        self.horizon.invalidate();
        Ok(())
    }
}

impl Tick for Dimm {
    fn tick(&mut self, now: Cycle) {
        self.tick_observed(now, &mut Observer::default());
    }

    fn tick_observed(&mut self, now: Cycle, obs: &mut Observer) {
        self.ticked_cycles = now.as_u64() + 1;
        #[cfg(feature = "tick-audit")]
        {
            self.audit.ticks += 1;
        }
        // Tick gate: the horizon is conservative-exact (the same property
        // the engine-level skip relies on), so when no term of it is due
        // the sweep below is provably a state no-op — no refresh due, no
        // issuable command, nothing retiring. The probe stops at the first
        // due term, so a dense issue stream, which dirties the cache every
        // cycle, pays a few terms per tick rather than a fold over every
        // active bank; there is nothing left to throttle.
        if !self.due(now) {
            #[cfg(feature = "tick-audit")]
            {
                self.audit.gated_ticks += 1;
            }
            return;
        }
        self.tick_banks(now, obs);
    }

    fn is_idle(&self) -> bool {
        self.order.is_empty()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let h = Dimm::next_event(self);
        if h == Cycle::NEVER {
            None
        } else {
            Some(h.max(now.next()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::DramCoord;
    use beacon_sim::engine::Engine;
    use beacon_sim::snap::{SnapReader, SnapWriter};
    use beacon_sim::trace::TraceBuffer;

    fn dimm(mode: AccessMode) -> Dimm {
        let mut cfg = DimmConfig::paper(mode);
        cfg.refresh_enabled = false;
        Dimm::new(cfg)
    }

    fn coord(rank: u32, group: u32, bank: u32, row: u64, col: u32) -> DramCoord {
        DramCoord {
            rank,
            group,
            bank,
            row,
            col,
        }
    }

    #[test]
    fn single_read_latency_is_trcd_cl_bl() {
        let mut d = dimm(AccessMode::RankLockstep);
        let t = d.config().timing;
        d.enqueue(MemRequest::read(coord(0, 0, 0, 10, 0), 64))
            .unwrap();
        let mut e = Engine::new();
        e.run(&mut d);
        let done = d.drain_completed();
        assert_eq!(done.len(), 1);
        // ACT at 0, RD at tRCD, data ends at tRCD+CL+BL.
        assert_eq!(done[0].finished_at.as_u64(), t.trcd + t.cl + t.tbl);
    }

    #[test]
    fn fine_grained_32b_needs_8_bursts_on_one_chip() {
        let mut d = dimm(AccessMode::PerChip);
        let t = d.config().timing;
        d.enqueue(MemRequest::read(coord(0, 0, 0, 10, 0), 32))
            .unwrap();
        let mut e = Engine::new();
        e.run(&mut d);
        let done = d.drain_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(d.stats().get("dram.cmd.read"), 8);
        // 8 bursts spaced tCCD apart: last read at tRCD + 7*tCCD.
        assert_eq!(
            done[0].finished_at.as_u64(),
            t.trcd + 7 * t.tccd + t.cl + t.tbl
        );
    }

    #[test]
    fn coalesced_8_chips_32b_single_burst() {
        let mut d = dimm(AccessMode::Coalesced { chips: 8 });
        d.enqueue(MemRequest::read(coord(0, 1, 0, 10, 0), 32))
            .unwrap();
        let mut e = Engine::new();
        e.run(&mut d);
        assert_eq!(d.stats().get("dram.cmd.read"), 1);
        // 8 chips touched once.
        assert_eq!(d.chip_histogram().total(), 8);
    }

    #[test]
    fn row_hit_skips_activate() {
        let mut d = dimm(AccessMode::RankLockstep);
        d.enqueue(MemRequest::read(coord(0, 0, 0, 10, 0), 64))
            .unwrap();
        d.enqueue(MemRequest::read(coord(0, 0, 0, 10, 1), 64))
            .unwrap();
        let mut e = Engine::new();
        e.run(&mut d);
        assert_eq!(d.stats().get("dram.cmd.act"), 1);
        assert_eq!(d.stats().get("dram.cmd.read"), 2);
    }

    #[test]
    fn row_conflict_precharges() {
        let mut d = dimm(AccessMode::RankLockstep);
        d.enqueue(MemRequest::read(coord(0, 0, 0, 10, 0), 64))
            .unwrap();
        d.enqueue(MemRequest::read(coord(0, 0, 0, 11, 0), 64))
            .unwrap();
        let mut e = Engine::new();
        e.run(&mut d);
        assert_eq!(d.stats().get("dram.cmd.act"), 2);
        assert_eq!(d.stats().get("dram.cmd.pre"), 1);
    }

    #[test]
    fn per_chip_groups_serve_in_parallel() {
        // Two requests to different chips should overlap; total time is far
        // less than 2x the single-request latency.
        let mut d = dimm(AccessMode::PerChip);
        d.enqueue(MemRequest::read(coord(0, 0, 0, 10, 0), 32))
            .unwrap();
        d.enqueue(MemRequest::read(coord(0, 1, 1, 10, 0), 32))
            .unwrap();
        let mut e = Engine::new();
        let out = e.run(&mut d);
        let serial_estimate = 2 * (22 + 7 * 4 + 22 + 4);
        assert!(out.finished_at().as_u64() < serial_estimate as u64);
        let done = d.drain_completed();
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn service_split_and_data_lane_accounting() {
        let mut d = dimm(AccessMode::RankLockstep);
        let t = d.config().timing;
        d.enqueue(MemRequest::read(coord(0, 0, 0, 10, 0), 64))
            .unwrap();
        let mut e = Engine::new();
        e.run(&mut d);
        let done = d.drain_completed();
        assert_eq!(done.len(), 1);
        // The ACT issued the cycle the request arrived: no queueing, the
        // whole latency is bank service.
        assert_eq!(done[0].service_started_at, done[0].enqueued_at);
        assert_eq!(done[0].queue_latency().as_u64(), 0);
        assert_eq!(done[0].service_latency(), done[0].latency());
        // One burst occupied the data lane for BL cycles (CAS latency is
        // dead time on the command path, not lane occupancy).
        assert_eq!(d.data_lane_cycles(), t.tbl);
        assert!(d.data_lane_count() > 0);
    }

    #[test]
    fn queued_behind_a_conflict_starts_service_late() {
        let mut d = dimm(AccessMode::RankLockstep);
        d.enqueue(MemRequest::read(coord(0, 0, 0, 10, 0), 64))
            .unwrap();
        // Same bank, different row: must wait for PRE + ACT of the first.
        d.enqueue(MemRequest::read(coord(0, 0, 0, 11, 0), 64))
            .unwrap();
        let mut e = Engine::new();
        e.run(&mut d);
        let done = d.drain_completed();
        assert_eq!(done.len(), 2);
        let second = done.iter().find(|c| c.request.coord.row == 11).unwrap();
        assert!(
            second.queue_latency().as_u64() > 0,
            "conflicted request must record queue time"
        );
        assert_eq!(
            second.queue_latency().as_u64() + second.service_latency().as_u64(),
            second.latency().as_u64()
        );
    }

    #[test]
    fn writes_complete() {
        let mut d = dimm(AccessMode::RankLockstep);
        d.enqueue(MemRequest::write(coord(0, 0, 2, 5, 0), 64))
            .unwrap();
        let mut e = Engine::new();
        e.run(&mut d);
        let done = d.drain_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(d.stats().get("dram.cmd.write"), 1);
    }

    #[test]
    fn queue_full_returns_request() {
        let mut cfg = DimmConfig::paper(AccessMode::RankLockstep);
        cfg.queue_depth = 2;
        cfg.refresh_enabled = false;
        let mut d = Dimm::new(cfg);
        d.enqueue(MemRequest::read(coord(0, 0, 0, 1, 0), 64))
            .unwrap();
        d.enqueue(MemRequest::read(coord(0, 0, 0, 2, 0), 64))
            .unwrap();
        let err = d.enqueue(MemRequest::read(coord(0, 0, 0, 3, 0), 64));
        assert!(err.is_err());
    }

    #[test]
    fn refresh_fires_periodically() {
        let mut cfg = DimmConfig::paper(AccessMode::RankLockstep);
        cfg.refresh_enabled = true;
        let mut d = Dimm::new(cfg);
        let mut e = Engine::new();
        // Run past two refresh intervals with an occasional request to keep
        // the model non-idle.
        let trefi = d.config().timing.trefi;
        e.run_for(&mut d, 2 * trefi + 10);
        assert!(d.stats().get("dram.cmd.refresh") >= d.config().geometry.ranks as u64);
    }

    #[test]
    fn chip_histogram_records_lockstep_rank() {
        let mut d = dimm(AccessMode::RankLockstep);
        d.enqueue(MemRequest::read(coord(1, 0, 0, 10, 0), 64))
            .unwrap();
        let mut e = Engine::new();
        e.run(&mut d);
        // One burst × 16 chips of rank 1.
        assert_eq!(d.chip_histogram().total(), 16);
        assert_eq!(d.chip_histogram().bucket(16), 1); // first chip of rank 1
        assert_eq!(d.chip_histogram().bucket(0), 0); // rank 0 untouched
    }

    #[test]
    #[should_panic(expected = "group out of range")]
    fn enqueue_validates_group() {
        let mut d = dimm(AccessMode::RankLockstep);
        let _ = d.enqueue(MemRequest::read(coord(0, 5, 0, 0, 0), 64));
    }

    #[test]
    fn per_device_tfaw_lets_fine_grained_activate_faster() {
        // Random row misses on many chips: per-chip CS has one tFAW
        // window per chip, lock-step has one per rank, so the fine-grained
        // DIMM sustains a much higher activate rate.
        let run_random = |mode: AccessMode| -> u64 {
            let mut cfg = DimmConfig::paper_ndp(mode);
            cfg.refresh_enabled = false;
            cfg.queue_depth = 64;
            let mut d = Dimm::new(cfg);
            let groups = d.groups_per_rank();
            let mut e = Engine::new();
            let mut issued = 0u32;
            let mut seed = 0x9E3779B97F4A7C15u64;
            while issued < 512 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let c = coord(
                    (seed >> 60) as u32 % 4,
                    ((seed >> 40) % groups as u64) as u32,
                    ((seed >> 20) % 16) as u32,
                    seed % 512,
                    0,
                );
                match d.enqueue(MemRequest::read(c, 4)) {
                    Ok(_) => issued += 1,
                    Err(_) => e.run_for(&mut d, 8),
                }
            }
            e.run(&mut d).finished_at().as_u64()
        };
        let lockstep = run_random(AccessMode::RankLockstep);
        let fine = run_random(AccessMode::PerChip);
        assert!(
            (fine as f64) * 1.5 < lockstep as f64,
            "per-chip ({fine}) should be >=1.5x faster than lock-step ({lockstep}) on random activates"
        );
    }

    #[test]
    fn chained_columns_cut_command_count() {
        // A 32 B fine-grained read is 8 bursts; the custom MC issues them
        // as one chained command, a stock controller as eight.
        let mut chained_cfg = DimmConfig::paper_ndp(AccessMode::PerChip);
        chained_cfg.refresh_enabled = false;
        let mut stock_cfg = DimmConfig::paper(AccessMode::PerChip);
        stock_cfg.refresh_enabled = false;

        for (cfg, expected_reads) in [(chained_cfg, 1u64), (stock_cfg, 8u64)] {
            let mut d = Dimm::new(cfg);
            d.enqueue(MemRequest::read(coord(0, 0, 0, 3, 0), 32))
                .unwrap();
            Engine::new().run(&mut d);
            assert_eq!(d.stats().get("dram.cmd.read"), expected_reads);
            // Same data volume either way.
            assert_eq!(d.stats().get("dram.rd_burst_chips"), 8);
        }
    }

    #[test]
    fn latency_includes_queueing() {
        let mut d = dimm(AccessMode::RankLockstep);
        for i in 0..4 {
            d.enqueue(MemRequest::read(coord(0, 0, 0, 10 + i, 0), 64))
                .unwrap();
        }
        let mut e = Engine::new();
        e.run(&mut d);
        let done = d.drain_completed();
        assert_eq!(done.len(), 4);
        let mut latencies: Vec<u64> = done.iter().map(|c| c.latency().as_u64()).collect();
        latencies.sort_unstable();
        assert!(latencies[3] > latencies[0]);
    }

    /// A 64-bit LCG: the random source of the differential drivers.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        }
    }

    /// Row-reuse-heavy random request for `d` drawn from `r`: few
    /// distinct rows, so hits, conflicts and chained candidates all
    /// occur.
    fn random_request(d: &Dimm, r: u64) -> MemRequest {
        let g = d.config().geometry;
        let c = coord(
            (r >> 48) as u32 % g.ranks,
            ((r >> 32) % d.groups_per_rank() as u64) as u32,
            ((r >> 16) % g.banks as u64) as u32,
            r % 4,
            ((r >> 8) % 4) as u32,
        );
        let bytes = [4u32, 32, 64, 256][(r % 4) as usize];
        if r.is_multiple_of(5) {
            MemRequest::write(c, bytes)
        } else {
            MemRequest::read(c, bytes)
        }
    }

    /// The hot records rebuilt from ground truth — the bank columns, the
    /// per-bank lists and the slab — without the helpers that maintain
    /// them. Records keep the live table's order, which only history
    /// determines.
    fn rebuilt_hot(d: &Dimm) -> Vec<BankHot> {
        let (open_row, act, col, pre) = d.banks.columns();
        let g = d.config().geometry;
        let mut topology = vec![(0, 0); d.sched.len()];
        for rank in 0..g.ranks {
            for group in 0..d.groups_per_rank() {
                for bank in 0..g.banks {
                    topology[d.bank_index(rank, group, bank)] = (rank, d.lane_index(rank, group));
                }
            }
        }
        let head = |list: &VecDeque<u32>| list.front().map_or(NO_HEAD, |&s| d.entry(s).id);
        d.hot
            .iter()
            .map(|h| {
                let b = h.bidx as usize;
                let (rank, lane) = topology[b];
                let open = open_row[b] != crate::bank::ROW_NONE;
                let sched = &d.sched[b];
                let miss_at = if open { pre[b] } else { act[b] };
                let mut ready = Cycle::NEVER;
                if !sched.hit_read.is_empty() || !sched.hit_write.is_empty() {
                    ready = col[b];
                }
                if !sched.miss.is_empty() {
                    ready = ready.min(miss_at);
                }
                BankHot {
                    ready,
                    col: col[b],
                    miss_at,
                    read: head(&sched.hit_read),
                    write: head(&sched.hit_write),
                    miss: head(&sched.miss),
                    bidx: b as u32,
                    lane: lane as u32,
                    rank: rank as u16,
                    bus: if d.cfg.per_rank_cmd_bus {
                        rank as u16
                    } else {
                        0
                    },
                    open,
                }
            })
            .collect()
    }

    /// Checks the hot table against [`rebuilt_hot`], its membership
    /// against the non-empty per-bank lists, `active_pos` against the
    /// table, and each lane's `act_ready` against the ACT windows: it
    /// is the first cycle the oracle's `act_blocked` lets an ACT
    /// through.
    fn check_hot(d: &Dimm, what: &str) {
        assert_eq!(d.hot, rebuilt_hot(d), "hot records diverge {what}");
        for (lane, &ready) in d.act_ready.iter().enumerate() {
            let (rank, group) = (
                lane as u32 / d.groups_per_rank,
                lane as u32 % d.groups_per_rank,
            );
            let first = !d.act_blocked(rank, group, ready)
                && (ready == Cycle::ZERO
                    || d.act_blocked(rank, group, Cycle::new(ready.as_u64() - 1)));
            assert!(first, "lane {lane} act_ready {ready:?} {what}");
        }
        for (b, sched) in d.sched.iter().enumerate() {
            let pos = d.active_pos[b];
            assert_eq!(pos != IDLE, !sched.is_empty(), "bank {b} membership {what}");
            if pos != IDLE {
                assert_eq!(
                    d.hot[pos as usize].bidx as usize, b,
                    "bank {b} position {what}"
                );
            }
        }
    }

    /// Drives random mixed traffic through a DIMM while checking, every
    /// cycle, that the per-bank index agrees with the linear-scan oracle
    /// on the scheduling decision, the event horizon and the `due`
    /// probe, that the hot table matches one rebuilt from ground truth,
    /// and, every 97th cycle, that a snapshot restores the same table.
    fn check_index_against_reference(cfg: DimmConfig, seed: u64, steps: u64) {
        let mut d = Dimm::new(cfg);
        let mut next = lcg(seed);
        for step in 0..steps {
            let now = Cycle::new(step);
            // Mixed enqueue pressure: bursty, row-reuse-heavy traffic.
            if !next().is_multiple_of(3) {
                let req = random_request(&d, next());
                d.sync_time(now);
                let _ = d.enqueue(req);
            }
            check_hot(&d, &format!("before cycle {step}"));
            assert_eq!(
                d.indexed_choice(now),
                d.reference_choice(now),
                "scheduling divergence at cycle {step}"
            );
            assert_eq!(
                d.due(now),
                d.reference_next_event() <= now,
                "due probe diverges at cycle {step}"
            );
            d.tick(now);
            check_hot(&d, &format!("after cycle {step}"));
            // Probe before `next_event`, so a dirty cache takes the
            // folding path and a probe that fills it is checked next.
            assert_eq!(
                d.due(now.next()),
                d.reference_next_event() <= now.next(),
                "due probe diverges after cycle {step}"
            );
            assert_eq!(
                Dimm::next_event(&d),
                d.reference_next_event(),
                "horizon divergence after cycle {step}"
            );
            if step % 97 == 0 {
                let mut restored = Dimm::new(cfg);
                SnapReader::new(&payload(&d))
                    .component(&mut restored)
                    .expect("mid-run snapshot restores");
                assert_eq!(restored.hot, d.hot, "restored hot table after cycle {step}");
                assert_eq!(restored.active_pos, d.active_pos);
                assert_eq!(restored.act_ready, d.act_ready);
            }
            if next().is_multiple_of(7) {
                let _ = d.drain_completed();
            }
        }
    }

    #[test]
    fn index_matches_reference_frfcfs_lockstep() {
        let mut cfg = DimmConfig::paper(AccessMode::RankLockstep);
        cfg.refresh_enabled = true;
        check_index_against_reference(cfg, 0x1234_5678, 4000);
    }

    #[test]
    fn index_matches_reference_frfcfs_perchip_ndp() {
        let cfg = DimmConfig::paper_ndp(AccessMode::PerChip);
        check_index_against_reference(cfg, 0xDEAD_BEEF, 4000);
    }

    #[test]
    fn index_matches_reference_frfcfs_perchip_ndp_with_refresh() {
        let mut cfg = DimmConfig::paper_ndp(AccessMode::PerChip);
        // Short refresh interval: refreshes close banks with queued hits.
        cfg.timing.trefi = 700;
        check_index_against_reference(cfg, 0x00DD_BA11, 4000);
    }

    #[test]
    fn hot_record_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<BankHot>(), 64);
    }

    /// The tick as it was before the one-scan scheduler: re-run the
    /// linear [`Dimm::reference_choice`] after every issue (at most one
    /// command per bus), apply each pick through the shared command
    /// path, then retire with an age-ordered sweep of the queue.
    fn reference_tick(d: &mut Dimm, now: Cycle, obs: &mut Observer) {
        d.maybe_refresh(now, obs);
        for _ in 0..d.cmd_bus_free.len() {
            let Some((id, kind)) = d.reference_choice(now) else {
                break;
            };
            let slot = d
                .order
                .iter()
                .copied()
                .find(|&s| d.entry(s).id == id)
                .expect("chosen request is queued");
            d.apply_command(slot, kind, now, obs);
        }
        if d.finishing
            .peek()
            .is_some_and(|&Reverse((at, _))| at <= now)
        {
            let mut i = 0;
            while i < d.order.len() {
                let slot = d.order[i];
                let p = d.entry(slot);
                if p.finished() && p.last_data_end <= now {
                    d.order.remove(i);
                    d.complete(slot, now);
                } else {
                    i += 1;
                }
            }
            d.finishing.retain(|&Reverse((at, _))| at > now);
            d.horizon.invalidate();
        }
        d.flush_cmd_stats();
    }

    fn payload(d: &Dimm) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.component(d);
        w.into_bytes()
    }

    fn commands_issued(d: &Dimm) -> u64 {
        [
            "dram.cmd.act",
            "dram.cmd.pre",
            "dram.cmd.read",
            "dram.cmd.write",
        ]
        .iter()
        .map(|name| d.stats().get(name))
        .sum()
    }

    /// Runs `f` with a command-level trace ring and returns the events
    /// it recorded, in order.
    fn traced(f: impl FnOnce(&mut Observer)) -> Vec<TraceEvent> {
        let mut obs = Observer {
            trace: Some(TraceBuffer::new(TraceLevel::Command, 64)),
            ..Observer::default()
        };
        f(&mut obs);
        let sink = obs.trace.expect("ring present");
        sink.iter().map(|(_, event)| *event).collect()
    }

    /// Ticks a DIMM through `tick_banks` and a clone through
    /// [`reference_tick`] on the same random traffic, requiring
    /// identical command traces, completion lists and snapshot payloads
    /// after every cycle. Returns the most commands one tick issued.
    fn check_ticks_against_reference(cfg: DimmConfig, ue: FaultStream, seed: u64) -> u64 {
        let mut d = Dimm::new(cfg);
        d.set_ue_faults(ue);
        let mut oracle = d.clone();
        let mut next = lcg(seed);
        let mut most = 0;
        for step in 0..2500 {
            let now = Cycle::new(step);
            d.sync_time(now);
            oracle.sync_time(now);
            if !next().is_multiple_of(3) {
                let req = random_request(&d, next());
                assert_eq!(d.enqueue(req).ok(), oracle.enqueue(req).ok());
            }
            let before = commands_issued(&d);
            let ours = traced(|obs| d.tick_banks(now, obs));
            let theirs = traced(|obs| reference_tick(&mut oracle, now, obs));
            assert_eq!(ours, theirs, "command trace diverges at cycle {step}");
            most = most.max(commands_issued(&d) - before);
            assert_eq!(
                d.completed, oracle.completed,
                "completions diverge at cycle {step}"
            );
            assert!(
                payload(&d) == payload(&oracle),
                "state diverges at cycle {step}"
            );
            if next().is_multiple_of(7) {
                d.drain_completed();
                oracle.drain_completed();
            }
        }
        most
    }

    #[test]
    fn ticks_match_reference_lockstep_with_refresh() {
        let mut cfg = DimmConfig::paper(AccessMode::RankLockstep);
        // Short refresh interval so several refreshes land in the run.
        cfg.timing.trefi = 700;
        let most = check_ticks_against_reference(cfg, FaultStream::empty(), 0x1234_5678);
        assert_eq!(most, 1, "one shared command bus issues once per cycle");
    }

    #[test]
    fn ticks_match_reference_perchip_ndp() {
        let cfg = DimmConfig::paper_ndp(AccessMode::PerChip);
        let most = check_ticks_against_reference(cfg, FaultStream::empty(), 0xDEAD_BEEF);
        assert!(most >= 3, "per-rank buses must multi-issue (most {most})");
    }

    #[test]
    fn ticks_match_reference_coalesced_ndp() {
        let cfg = DimmConfig::paper_ndp(AccessMode::Coalesced { chips: 8 });
        let most = check_ticks_against_reference(cfg, FaultStream::empty(), 0xFEED_F00D);
        assert!(most >= 3, "per-rank buses must multi-issue (most {most})");
    }

    #[test]
    fn ticks_match_reference_with_ue_faults() {
        let cfg = DimmConfig::paper_ndp(AccessMode::PerChip);
        let stamps = (0..2500).step_by(23).map(Cycle::new).collect();
        check_ticks_against_reference(cfg, FaultStream::from_cycles(stamps), 0xBAD_C0DE);
    }

    /// A DIMM with a finished, unretired request and an unfinished one.
    fn dimm_with_finishing() -> Dimm {
        let mut d = Dimm::new(DimmConfig::paper_ndp(AccessMode::PerChip));
        d.enqueue(MemRequest::read(coord(0, 0, 0, 10, 0), 32))
            .unwrap();
        d.enqueue(MemRequest::read(coord(0, 0, 0, 11, 0), 32))
            .unwrap();
        let mut now = Cycle::ZERO;
        while d.finishing.is_empty() {
            d.tick_banks(now, &mut Observer::default());
            now = now.next();
        }
        d
    }

    fn restore(d: &Dimm) -> Result<(), SnapError> {
        let mut fresh = Dimm::new(*d.config());
        SnapReader::new(&payload(d)).component(&mut fresh)
    }

    #[test]
    fn restore_rejects_dangling_slots() {
        let d = dimm_with_finishing();
        restore(&d).expect("valid snapshot restores");
        let Reverse((at, done)) = *d.finishing.peek().expect("finishing entry");
        let pending = d.order.iter().copied().find(|&s| s != done);
        let pending = pending.expect("unfinished entry");
        let out_of_range = d.entries.len() as u32 + 7;
        for entry in [(at, out_of_range), (at.next(), done), (at, pending)] {
            let mut t = d.clone();
            t.finishing.pop();
            t.finishing.push(Reverse(entry));
            assert!(
                matches!(restore(&t), Err(SnapError::Corrupt(_))),
                "finishing entry {entry:?} must not restore"
            );
        }
        // A queued slot that was freed, and a free slot still in use.
        let mut t = d.clone();
        t.entries[pending as usize] = None;
        t.free_slots.push(pending);
        assert!(matches!(restore(&t), Err(SnapError::Corrupt(_))));
        let mut t = d.clone();
        t.free_slots.push(done);
        assert!(matches!(restore(&t), Err(SnapError::Corrupt(_))));
        // An active-bank list that disagrees with the per-bank lists:
        // the busy bank dropped, listed twice, or an idle bank added.
        let busy = d.hot[0];
        for hot in [vec![], vec![busy, busy], vec![busy, d.hot_record(5)]] {
            let mut t = d.clone();
            t.hot = hot;
            assert!(
                matches!(restore(&t), Err(SnapError::Corrupt(_))),
                "active banks {:?} must not restore",
                t.hot.iter().map(|h| h.bidx).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn ue_stamp_poisons_exactly_one_read() {
        let mut d = dimm(AccessMode::PerChip);
        d.set_ue_faults(FaultStream::one_shot(Cycle::ZERO));
        for i in 0..3u64 {
            d.enqueue(MemRequest::read(coord(0, 0, 0, 10, i as u32), 32).with_tag(i))
                .unwrap();
        }
        let mut e = Engine::new();
        e.run(&mut d);
        let done = d.drain_completed();
        assert_eq!(done.len(), 3);
        // The stamp at cycle 0 is consumed by the first retiring read;
        // later reads complete clean.
        assert_eq!(done.iter().filter(|c| c.poisoned).count(), 1);
        assert!(done[0].poisoned);
        assert_eq!(d.stats().get("ras.dimm_ue"), 1);
    }

    #[test]
    fn writes_never_consume_ue_stamps() {
        let mut d = dimm(AccessMode::PerChip);
        d.set_ue_faults(FaultStream::one_shot(Cycle::ZERO));
        d.enqueue(MemRequest::write(coord(0, 0, 0, 10, 0), 32))
            .unwrap();
        d.enqueue(MemRequest::read(coord(0, 0, 0, 10, 1), 32))
            .unwrap();
        let mut e = Engine::new();
        e.run(&mut d);
        let done = d.drain_completed();
        let write = done.iter().find(|c| c.request.kind == ReqKind::Write);
        let read = done.iter().find(|c| c.request.kind == ReqKind::Read);
        assert!(!write.expect("write done").poisoned);
        assert!(read.expect("read done").poisoned);
    }

    #[test]
    fn fail_aborts_everything_and_leaves_the_dimm_idle() {
        let mut d = dimm(AccessMode::PerChip);
        for i in 0..6u64 {
            d.enqueue(MemRequest::read(coord(0, (i % 4) as u32, 0, 9, 0), 32).with_tag(100 + i))
                .unwrap();
        }
        // Let some requests finish (unretired completions count too).
        d.tick(Cycle::ZERO);
        let mut tags = Vec::new();
        d.fail(&mut tags);
        tags.sort_unstable();
        assert_eq!(tags, vec![100, 101, 102, 103, 104, 105]);
        assert!(d.is_dead());
        assert!(d.is_idle());
        assert_eq!(d.next_event(), Cycle::NEVER);
        assert_eq!(d.stats().get("ras.dimm_aborted"), 6);
        assert!(d.drain_completed().is_empty());
    }
}
