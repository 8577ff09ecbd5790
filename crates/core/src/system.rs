//! The BEACON system model: BEACON-D and BEACON-S (paper Fig. 4/5).
//!
//! One [`BeaconSystem`] instantiates the full pool: CXL switches with
//! per-port links and an internal switch-bus, CXLG-DIMMs (BEACON-D's
//! compute modules: NDP engine + fine-grained DIMM), unmodified
//! CXL-DIMMs (the memory-expansion pool, rank-lock-step devices with a
//! standard CXL.mem interface), the in-switch logic (BEACON-S's compute
//! modules, and the switch MC + Atomic Engine in both variants) and a
//! host root complex that forwards cross-switch and host-bias traffic.
//!
//! The optimisation toggles of [`crate::config::Optimizations`] map to
//! mechanisms:
//!
//! * `data_packing` → [`DataPacker`]s on every NDP sender,
//! * `mem_access_opt` → requests to unmodified DIMMs carry
//!   `via_host = false` (device bias) instead of detouring off the host,
//! * `placement_mapping` / `multi_chip_coalescing` → consumed by
//!   [`crate::mmf::build_layout`] before the system is built,
//! * `ideal_comm` → every link, bus and forwarding latency becomes free.

use std::collections::{BTreeMap, VecDeque};

use std::fmt::Write as _;

use beacon_sim::component::{Probe, Tick};
use beacon_sim::cycle::{Cycle, Duration};
use beacon_sim::engine::{Engine, RunOptions, RunOutcome};
use beacon_sim::faults::{stream, FaultSchedule};
use beacon_sim::journey::{self, ComponentUtil, JGate, JStamp, Phase, QueueAcc, QueueStat};
use beacon_sim::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use beacon_sim::stats::Stats;
use beacon_sim::trace::{self, TraceCategory, TraceEvent, TraceLevel};

use beacon_accel::pending::PendingTable;
use beacon_accel::result::RunResult;
use beacon_accel::server::{DimmServer, ServiceOp};
use beacon_accel::task::{AccessToken, IssuedAccess, TaskEngine};
use beacon_accel::translate::RegionMap;
use beacon_cxl::bundle::Bundle;
use beacon_cxl::message::{Message, MsgKind, NodeId};
use beacon_cxl::packer::DataPacker;
use beacon_cxl::switch::{Switch, SwitchConfig};
use beacon_dram::address::DramCoord;
use beacon_dram::module::{AccessMode, DimmConfig};
use beacon_dram::params::TimingParams;
use beacon_genomics::trace::{AccessKind, TaskTrace};

use crate::config::{BeaconConfig, BeaconVariant};
use crate::mmf::{MemoryLayout, RemapPlan};

/// Service ids with this bit serve a remote request at a CXLG/unmodified
/// DIMM (vs completing a local pending access).
const SERVE_BIT: u64 = 1 << 60;
/// Message tags with this bit are switch-logic atomic phase operations.
const LOGIC_BIT: u64 = 1 << 59;
/// Times a nak'd access is re-issued before it is dropped (the
/// accelerator-task equivalent of an MCE: the task continues, the loss
/// is reported in the [`beacon_accel::result::DegradedRun`] section).
const MAX_ACCESS_RETRIES: u32 = 8;

/// Requester-side RAS state, armed only when the run has a fault
/// schedule: every in-flight logical access by pending id, so a nak can
/// re-issue it (under the current map epoch) instead of wedging its task.
#[derive(Debug, Default)]
struct RasState {
    inflight: BTreeMap<u64, (IssuedAccess, u32)>,
}

/// Removes a completed access from the retry table (no-op while RAS is
/// unarmed).
#[inline]
fn ras_done(ras: &mut Option<Box<RasState>>, pid: u64) {
    if let Some(r) = ras {
        r.inflight.remove(&pid);
    }
}

/// A scheduled whole-DIMM hard failure on one switch.
#[derive(Debug, Clone, Copy)]
struct SlotFault {
    slot: usize,
    at: Cycle,
    done: bool,
}

#[derive(Debug, Clone, Copy)]
struct ServeEntry {
    requester: NodeId,
    orig_tag: u64,
    kind: MsgKind,
    bytes: u32,
    via_host: bool,
    in_use: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomicPhase {
    Read,
    Write,
}

#[derive(Debug, Clone, Copy)]
struct LogicServe {
    requester: NodeId,
    orig_tag: u64,
    coord: DramCoord,
    bytes: u32,
    dimm: NodeId,
    phase: AtomicPhase,
    via_host: bool,
    in_use: bool,
    /// Journey stamp of a tracked atomic parked in the serve table while
    /// the logic runs its read/ALU/write phases (all one `Serve` span).
    jny: Option<JStamp>,
}

/// Sender-side egress: optional packer plus a retry buffer for
/// back-pressured bundles.
#[derive(Debug)]
struct Egress {
    packer: Option<DataPacker>,
    queue: VecDeque<Bundle>,
}

impl Egress {
    fn new(packing: bool, flush_age: u64) -> Self {
        Egress {
            packer: packing.then(|| DataPacker::new(flush_age)),
            queue: VecDeque::new(),
        }
    }

    fn push(&mut self, msg: Message, now: Cycle) {
        match &mut self.packer {
            Some(p) => p.push(msg, now),
            None => self.queue.push_back(Bundle::single(msg)),
        }
    }

    /// Moves packer output into the retry queue.
    fn collect(&mut self, now: Cycle) {
        if let Some(p) = &mut self.packer {
            p.tick(now);
            while let Some(b) = p.pop_ready() {
                self.queue.push_back(b);
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty()
            && self
                .packer
                .as_ref()
                .map(DataPacker::is_idle)
                .unwrap_or(true)
    }

    /// Sender-side event horizon: immediate while bundles wait in the
    /// retry queue (they are re-offered to the fabric every cycle),
    /// otherwise the packer's next age-flush deadline.
    fn next_event(&self) -> Cycle {
        if !self.queue.is_empty() {
            return Cycle::ZERO;
        }
        self.packer
            .as_ref()
            .map(DataPacker::next_event)
            .unwrap_or(Cycle::NEVER)
    }

    fn stats(&self) -> Option<&Stats> {
        self.packer.as_ref().map(DataPacker::stats)
    }
}

#[derive(Debug)]
struct CxlgModule {
    node: NodeId,
    engine: TaskEngine,
    server: DimmServer,
    map_idx: usize,
    pending: PendingTable,
    serve: Vec<ServeEntry>,
    free_serve: Vec<u32>,
    egress: Egress,
    /// Nak retry state; `None` on a pristine machine.
    ras: Option<Box<RasState>>,
    /// Precomputed class label for attribution rollups (no per-request
    /// formatting on the hot path).
    jny_label: Box<str>,
}

#[derive(Debug)]
struct UnmodDimm {
    node: NodeId,
    server: DimmServer,
    serve: Vec<ServeEntry>,
    free_serve: Vec<u32>,
    /// Standard CXL.mem interface: no packer.
    egress: Egress,
}

#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // few instances, arena-like ownership
enum DimmSlot {
    Cxlg(CxlgModule),
    Unmodified(UnmodDimm),
}

#[derive(Debug)]
struct LogicNode {
    /// BEACON-S compute engine.
    engine: Option<TaskEngine>,
    map_idx: usize,
    pending: PendingTable,
    serve: Vec<LogicServe>,
    free_serve: Vec<u32>,
    egress: Egress,
    /// Atomic-ALU results waiting to start their write phase.
    alu_stage: VecDeque<(Cycle, u32)>,
    stats: Stats,
    /// Nak retry state; `None` on a pristine machine.
    ras: Option<Box<RasState>>,
    /// Precomputed class label for attribution rollups.
    jny_label: Box<str>,
}

/// One switch subtree: the fabric, its in-switch logic and the DIMMs
/// behind it. Everything under a `SwitchNode` only talks to the rest of
/// the pool through the uplink, which is what makes it an independently
/// advanceable shard for [`crate::parallel`].
/// A same-switch RMW short-circuited into the logic serve table:
/// (pending id, DRAM coordinate, payload bytes, requesting node,
/// journey stamp when the access is tracked).
type LocalRmw = (u64, DramCoord, u32, NodeId, Option<JStamp>);

#[derive(Debug)]
pub(crate) struct SwitchNode {
    index: usize,
    fabric: Switch,
    logic: LogicNode,
    dimms: Vec<DimmSlot>,
    /// Per-tick scratch buffers, reused so the steady-state drive loop
    /// performs no heap allocation. Always drained back to empty before
    /// the driver returns.
    issued_scratch: Vec<IssuedAccess>,
    rmw_scratch: Vec<LocalRmw>,
    done_scratch: Vec<(u64, Cycle)>,
    resp_scratch: Vec<Message>,
    comp_scratch: Vec<u64>,
    poison_scratch: Vec<u64>,
    jny_scratch: Vec<(u64, JStamp)>,
    /// Queue-depth integrals for the attribution report. Observed once
    /// per executed tick — depth only changes inside [`tick_cycle`], so
    /// the plateau accounting stays exact under fast-forwarding. Plain
    /// fields, never digested.
    q_staged: QueueAcc,
    q_inbox: QueueAcc,
    q_backlog: Vec<QueueAcc>,
    /// Memoized endpoint term of [`SwitchNode::slot_due`] per slot
    /// (engine ∧ server ∧ egress next-event), filled whenever a probe
    /// finds nothing due. A slot's endpoints mutate only inside
    /// [`SwitchNode::drive_slot`] (which clears the flag), at task
    /// submission and on injected DIMM failure — every other cycle the
    /// cached value is exact, so the slot-gate probe pays one indexed
    /// load plus the live port-arrival term instead of three component
    /// probes (DESIGN.md §15.5).
    slot_h: Vec<Cycle>,
    slot_h_valid: Vec<bool>,
    /// Run-local sampling gate: refreshed from the installed recorder at
    /// run start, consulted (without thread-local traffic) on every
    /// access this subtree issues, summed into the report at collect.
    /// Plain field, never digested.
    jgate: Option<JGate>,
    /// Scheduled hard failure of one of this switch's DIMMs. A pending
    /// failure is a time-driven fault: `subtree_next_event` surfaces it
    /// so fast-forwarding cannot jump over the death.
    ras_fail: Option<SlotFault>,
}

/// Read-only system context threaded through the per-switch drivers so
/// a [`SwitchNode`] can advance without borrowing the whole
/// [`BeaconSystem`].
#[derive(Clone, Copy)]
pub(crate) struct SysCtx<'a> {
    pub(crate) cfg: &'a BeaconConfig,
    pub(crate) maps: &'a [RegionMap],
    pub(crate) rmw_alu_cycles: u64,
    /// Post-failure map epoch, when a DIMM loss is scheduled.
    pub(crate) remap: Option<&'a RemapPlan>,
}

impl<'a> SysCtx<'a> {
    /// The region maps in force at `now`: epoch 0 until the scheduled
    /// DIMM failure, the re-homed epoch-1 maps from the failure cycle
    /// on. One branch on the pristine path.
    #[inline]
    pub(crate) fn maps_at(&self, now: Cycle) -> &'a [RegionMap] {
        match self.remap {
            Some(r) if now >= r.at => &r.maps,
            _ => self.maps,
        }
    }
}

/// The assembled BEACON-D / BEACON-S system.
#[derive(Debug)]
pub struct BeaconSystem {
    pub(crate) cfg: BeaconConfig,
    pub(crate) maps: Vec<RegionMap>,
    pub(crate) switches: Vec<SwitchNode>,
    pub(crate) host_stage: VecDeque<(Cycle, Bundle)>,
    /// Reusable buffer for back-pressured host-stage entries.
    host_scratch: VecDeque<(Cycle, Bundle)>,
    /// Host-stage queue-depth integral (attribution only, not digested).
    q_host: QueueAcc,
    pub(crate) finished_at: Cycle,
    pub(crate) rmw_alu_cycles: u64,
    /// Precomputed graceful-degradation plan for the scheduled DIMM
    /// failure (see [`crate::mmf::plan_dimm_loss`]).
    pub(crate) remap: Option<Box<RemapPlan>>,
    /// The next cycle this system will simulate: zero on a fresh build,
    /// the capture cycle on a restored checkpoint, the finish cycle
    /// after a drained run. Every engine the system spawns starts here.
    pub(crate) clock: Cycle,
    /// The pool allocator holding this system's layout grants, retained
    /// so checkpoints can serialise it and resume can rebuild the
    /// degradation plan from identical pre-run state.
    pub(crate) allocator: crate::allocator::PoolAllocator,
}

impl BeaconSystem {
    /// Builds the system from a configuration and the memory layout
    /// produced by [`crate::mmf::build_layout`].
    ///
    /// # Panics
    /// Panics when the configuration is invalid or the layout's map
    /// count does not match the number of compute modules.
    pub fn new(cfg: BeaconConfig, layout: MemoryLayout) -> Self {
        cfg.validate().expect("invalid configuration");
        assert_eq!(
            layout.maps.len(),
            cfg.compute_modules() as usize,
            "layout must have one map per compute module"
        );

        let mut switch_cfg = SwitchConfig {
            index: 0,
            dimm_slots: cfg.slots_per_switch(),
            dimm_link: cfg.dimm_link,
            uplink: cfg.uplink,
            bus_bytes_per_cycle: cfg.switch_bus_bytes_per_cycle,
            forward_latency: cfg.switch_latency,
            atomic_intercept_from: cfg.cxlg_per_switch,
        };
        if cfg.opts.ideal_comm {
            switch_cfg = switch_cfg.idealized();
            switch_cfg.atomic_intercept_from = cfg.cxlg_per_switch;
        }

        let mut cxlg_cfg = DimmConfig::paper_ndp(layout.cxlg_mode);
        cxlg_cfg.geometry = cfg.geometry;
        cxlg_cfg.refresh_enabled = cfg.refresh_enabled;
        cxlg_cfg.queue_depth = cfg.dimm_queue_depth;
        // Unmodified CXL-DIMMs are commodity memory-expander devices: the
        // CXL buffer chip drives each rank over its own internal channel,
        // so they also get per-rank command issue (but no chip-select
        // customisation and no chained fine-grained commands -- those are
        // the CXLG modifications).
        let mut unmod_cfg = DimmConfig::paper(AccessMode::RankLockstep);
        unmod_cfg.per_rank_cmd_bus = true;
        unmod_cfg.geometry = cfg.geometry;
        unmod_cfg.refresh_enabled = cfg.refresh_enabled;
        unmod_cfg.queue_depth = cfg.dimm_queue_depth;

        let packing = cfg.opts.data_packing;
        let flush_age = cfg.packer_flush_age;

        let mut switches: Vec<SwitchNode> = (0..cfg.switches)
            .map(|s| {
                let mut sc = switch_cfg;
                sc.index = s;
                let dimms = (0..cfg.slots_per_switch())
                    .map(|slot| {
                        let node = NodeId::dimm(s, slot);
                        if cfg.slot_is_cxlg(slot) {
                            let map_idx = (s * cfg.cxlg_per_switch + slot) as usize;
                            DimmSlot::Cxlg(CxlgModule {
                                node,
                                engine: TaskEngine::new(cfg.pes_per_module, cfg.pe_latency),
                                server: DimmServer::new(cxlg_cfg),
                                map_idx,
                                pending: PendingTable::new(),
                                serve: Vec::new(),
                                free_serve: Vec::new(),
                                egress: Egress::new(packing, flush_age),
                                ras: None,
                                jny_label: format!("sw{s}.dimm{slot}").into_boxed_str(),
                            })
                        } else {
                            DimmSlot::Unmodified(UnmodDimm {
                                node,
                                server: DimmServer::new(unmod_cfg),
                                serve: Vec::new(),
                                free_serve: Vec::new(),
                                egress: Egress::new(false, flush_age),
                            })
                        }
                    })
                    .collect();
                let logic_engine = match cfg.variant {
                    BeaconVariant::S => Some(TaskEngine::new(cfg.pes_per_module, cfg.pe_latency)),
                    BeaconVariant::D => None,
                };
                SwitchNode {
                    index: s as usize,
                    fabric: Switch::new(sc),
                    logic: LogicNode {
                        engine: logic_engine,
                        map_idx: s as usize,
                        pending: PendingTable::new(),
                        serve: Vec::new(),
                        free_serve: Vec::new(),
                        egress: Egress::new(packing, flush_age),
                        alu_stage: VecDeque::new(),
                        stats: Stats::new(),
                        ras: None,
                        jny_label: format!("sw{s}.logic").into_boxed_str(),
                    },
                    dimms,
                    issued_scratch: Vec::new(),
                    rmw_scratch: Vec::new(),
                    done_scratch: Vec::new(),
                    resp_scratch: Vec::new(),
                    comp_scratch: Vec::new(),
                    poison_scratch: Vec::new(),
                    jny_scratch: Vec::new(),
                    q_staged: QueueAcc::default(),
                    q_inbox: QueueAcc::default(),
                    q_backlog: vec![QueueAcc::default(); cfg.slots_per_switch() as usize],
                    slot_h: vec![Cycle::ZERO; cfg.slots_per_switch() as usize],
                    slot_h_valid: vec![false; cfg.slots_per_switch() as usize],
                    jgate: journey::gate(),
                    ras_fail: None,
                }
            })
            .collect();

        // Label every component's trace track with its place in the
        // topology so exported traces read `sw0.dimm2.dram` rather than a
        // pile of identical `dram` rows.
        for (s, sw) in switches.iter_mut().enumerate() {
            if let Some(e) = sw.logic.engine.as_mut() {
                e.set_trace_id(format!("sw{s}.logic.engine"));
            }
            if let Some(p) = sw.logic.egress.packer.as_mut() {
                p.set_trace_id(format!("sw{s}.logic.packer"));
            }
            for (slot, d) in sw.dimms.iter_mut().enumerate() {
                match d {
                    DimmSlot::Cxlg(m) => {
                        m.engine.set_trace_id(format!("sw{s}.dimm{slot}.engine"));
                        m.server.set_trace_id(format!("sw{s}.dimm{slot}.dram"));
                        if let Some(p) = m.egress.packer.as_mut() {
                            p.set_trace_id(format!("sw{s}.dimm{slot}.packer"));
                        }
                    }
                    DimmSlot::Unmodified(u) => {
                        u.server.set_trace_id(format!("sw{s}.dimm{slot}.dram"));
                    }
                }
            }
        }

        // Arm the fault schedule. Every stream is derived from the one
        // seed and a stable component coordinate, so the schedule is
        // identical across thread counts and with skipping on or off.
        if let Some(fc) = &cfg.faults {
            let sched = FaultSchedule::new(fc.seed);
            let h = fc.horizon;
            for (s, sw) in switches.iter_mut().enumerate() {
                let si = s as u32;
                let crc = |port: usize, dir: u32| {
                    sched.stream(
                        stream::id(stream::LINK_CRC, si, port as u32, dir),
                        fc.link_crc_per_mcycle,
                        h,
                    )
                };
                sw.fabric.install_crc_faults(
                    Switch::UPLINK,
                    crc(Switch::UPLINK, 0),
                    crc(Switch::UPLINK, 1),
                );
                for slot in 0..cfg.slots_per_switch() {
                    let port = sw.fabric.dimm_port(slot);
                    sw.fabric
                        .install_crc_faults(port, crc(port, 0), crc(port, 1));
                    sw.fabric.install_port_flaps(
                        port,
                        sched.stream(
                            stream::id(stream::PORT_FLAP, si, port as u32, 0),
                            fc.port_flap_per_mcycle,
                            h,
                        ),
                        fc.flap_down_cycles,
                    );
                }
                // Uncorrectable errors hit the unmodified expansion
                // DIMMs; CXLG modules scrub their local accesses.
                for (slot, d) in sw.dimms.iter_mut().enumerate() {
                    if let DimmSlot::Unmodified(u) = d {
                        u.server.set_ue_faults(sched.stream(
                            stream::id(stream::DIMM_UE, si, slot as u32, 0),
                            fc.dimm_ue_per_mcycle,
                            h,
                        ));
                    }
                }
                // Arm requester-side retry tables.
                sw.logic.ras = Some(Box::default());
                for d in sw.dimms.iter_mut() {
                    if let DimmSlot::Cxlg(m) = d {
                        m.ras = Some(Box::default());
                    }
                }
            }
            if fc.dimm_fail_at > 0 {
                switches[fc.dimm_fail_switch as usize].ras_fail = Some(SlotFault {
                    slot: fc.dimm_fail_slot as usize,
                    at: Cycle::new(fc.dimm_fail_at),
                    done: false,
                });
            }
        }
        let remap = cfg
            .faults
            .as_ref()
            .and_then(|fc| crate::mmf::plan_dimm_loss(&cfg, &layout, fc))
            .map(Box::new);

        BeaconSystem {
            cfg,
            maps: layout.maps,
            switches,
            host_stage: VecDeque::new(),
            host_scratch: VecDeque::new(),
            q_host: QueueAcc::default(),
            finished_at: Cycle::ZERO,
            rmw_alu_cycles: 4,
            remap,
            clock: Cycle::ZERO,
            allocator: layout.allocator,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &BeaconConfig {
        &self.cfg
    }

    /// Submits a task to compute module `module`.
    pub fn submit_to(&mut self, module: usize, trace: TaskTrace) {
        match self.cfg.variant {
            BeaconVariant::D => {
                let s = module / self.cfg.cxlg_per_switch as usize;
                let d = module % self.cfg.cxlg_per_switch as usize;
                match &mut self.switches[s].dimms[d] {
                    DimmSlot::Cxlg(m) => {
                        // Multi-purpose PEs: pick the engine (and its
                        // latency) from the task's application.
                        m.engine.submit_for_app(trace);
                    }
                    DimmSlot::Unmodified(_) => unreachable!("slot layout broken"),
                }
                self.switches[s].slot_h_valid[d] = false;
            }
            BeaconVariant::S => {
                self.switches[module]
                    .logic
                    .engine
                    .as_mut()
                    .expect("S has logic engines")
                    .submit_for_app(trace);
            }
        }
    }

    /// Distributes tasks round-robin over the compute modules (the host's
    /// task dispatch through the framework interface).
    pub fn submit_round_robin<I: IntoIterator<Item = TaskTrace>>(&mut self, traces: I) {
        let n = self.cfg.compute_modules() as usize;
        for (i, t) in traces.into_iter().enumerate() {
            self.submit_to(i % n, t);
        }
    }

    /// Runs until the workload drains and returns the measurements, on
    /// the production configuration ([`RunOptions::default`]).
    ///
    /// # Panics
    /// Panics when the model deadlocks (cycle limit / stall).
    pub fn run(&mut self) -> RunResult {
        self.run_with(RunOptions::default())
    }

    /// Runs until the workload drains under `run` and returns the
    /// measurements — bit-identical for every option value. More than
    /// one thread routes through the epoch-parallel engine; one thread
    /// is the sequential reference.
    ///
    /// # Panics
    /// Panics when `run.threads` is zero or the model deadlocks (cycle
    /// limit / stall).
    pub fn run_with(&mut self, run: RunOptions) -> RunResult {
        assert!(run.threads > 0, "need at least one thread");
        if run.threads > 1 {
            return self.run_parallel(run);
        }
        self.arm();
        let mut engine = Engine::starting_at(self.clock).with_skip(run.skip);
        let outcome = crate::obs::drive(&mut engine, self);
        self.finished_at = outcome.finished_at();
        self.clock = self.finished_at;
        self.collect()
    }

    /// Runs the sequential engine up to cycle `to` (an epoch boundary
    /// for checkpointing) or until the workload drains, whichever comes
    /// first, honouring `run.skip` (`run.threads` does not apply).
    /// Returns `true` when the run drained. The system's state at the
    /// pause is bit-identical to an uninterrupted run passing through
    /// `to`, so [`BeaconSystem::snapshot`] here captures
    /// a resumable checkpoint; calling [`BeaconSystem::run`] afterwards
    /// continues to completion.
    pub fn run_to(&mut self, to: u64, run: RunOptions) -> bool {
        self.arm();
        let mut engine = Engine::starting_at(self.clock)
            .with_limit(to)
            .with_skip(run.skip);
        let outcome = engine.run(self);
        self.clock = engine.now();
        match outcome {
            RunOutcome::Drained { finished_at } => {
                self.finished_at = finished_at;
                true
            }
            _ => false,
        }
    }

    /// The next cycle this system will simulate (the capture cycle of a
    /// checkpoint taken now).
    pub fn clock(&self) -> Cycle {
        self.clock
    }

    /// Run entry: re-arms the per-switch sampling gates from the
    /// installed recorder (attribution may have been installed or
    /// swapped after this system was built).
    pub(crate) fn arm(&mut self) {
        let gate = journey::gate();
        for sw in &mut self.switches {
            sw.jgate = gate;
        }
    }

    /// Assembles the measurement bundle after a run.
    pub fn collect(&self) -> RunResult {
        let mut dram = Stats::new();
        let mut comm = Stats::new();
        let mut eng = Stats::new();
        let mut pe_busy = 0;
        let mut tasks = 0;
        let mut hists = Vec::new();
        for sw in &self.switches {
            comm.merge(&sw.fabric.merged_stats());
            eng.merge(&sw.logic.stats);
            if let Some(e) = &sw.logic.engine {
                eng.merge(e.stats());
                pe_busy += e.busy_pe_cycles();
                tasks += e.completed();
            }
            if let Some(ps) = sw.logic.egress.stats() {
                comm.merge(ps);
            }
            for d in &sw.dimms {
                match d {
                    DimmSlot::Cxlg(m) => {
                        dram.merge(m.server.dimm().stats());
                        eng.merge(m.engine.stats());
                        eng.merge(m.server.stats());
                        pe_busy += m.engine.busy_pe_cycles();
                        tasks += m.engine.completed();
                        hists.push(m.server.chip_histogram().clone());
                        if let Some(ps) = m.egress.stats() {
                            comm.merge(ps);
                        }
                    }
                    DimmSlot::Unmodified(u) => {
                        dram.merge(u.server.dimm().stats());
                        eng.merge(u.server.stats());
                        hists.push(u.server.chip_histogram().clone());
                    }
                }
            }
        }
        // RAS report: only for runs armed with a fault schedule. The
        // re-map accounting applies only when the failure actually
        // executed (a run can drain before its scheduled death).
        let degraded = self.cfg.faults.as_ref().map(|fc| {
            let plan = self
                .remap
                .as_deref()
                .filter(|_| eng.get("ras.dimm_killed") > 0);
            beacon_accel::result::DegradedRun {
                seed: fc.seed,
                failed_dimms: eng.get("ras.dimm_killed"),
                lost_capacity_bytes: plan.map_or(0, |r| r.lost_capacity_bytes),
                crc_errors: comm.get("ras.crc_errors"),
                retry_cycles: comm.get("ras.retry_cycles"),
                port_flaps: comm.get("ras.port_flaps"),
                dimm_ue: dram.get("ras.dimm_ue"),
                naks: eng.get("ras.naks"),
                requeued: eng.get("ras.requeued"),
                dropped: eng.get("ras.dropped"),
                remap_regions: plan.map_or(0, |r| r.remap_regions),
                moved_bytes: plan.map_or(0, |r| r.moved_bytes),
                remap_cost_cycles: plan.map_or(0, |r| r.remap_cost_cycles),
            }
        });
        let attribution = journey::snapshot().map(|rec| self.build_attribution(&rec));
        let geometry = self.cfg.geometry;
        RunResult {
            cycles: self.finished_at.as_u64(),
            tasks,
            dram,
            comm,
            engine: eng,
            pe_busy_cycles: pe_busy,
            total_chips: (geometry.ranks * geometry.chips_per_rank) as u64
                * self.cfg.total_dimms() as u64,
            chip_histograms: hists,
            degraded,
            attribution,
        }
    }

    /// Assembles the full bottleneck report from the phase/class
    /// aggregates in `rec` plus component state: utilization rows from
    /// busy-cycle counters and queue rows from the plain (never
    /// digested) depth accumulators.
    fn build_attribution(
        &self,
        rec: &beacon_sim::journey::JourneyRecorder,
    ) -> beacon_sim::journey::Attribution {
        let mut attr = rec.attribution();
        // The hot-path sampling decisions count into the per-switch
        // run-local gates, not the recorder; fold their tallies in.
        for g in self.switches.iter().filter_map(|sw| sw.jgate.as_ref()) {
            attr.seen += g.seen;
            attr.tracked += g.tracked;
        }
        let end = self.finished_at;
        let total = end.as_u64();
        let push_q = |queues: &mut Vec<QueueStat>, label: String, acc: &QueueAcc| {
            let mut acc = acc.clone();
            acc.finalize(end);
            queues.push(QueueStat {
                component: label,
                mean_depth: acc.mean_depth(),
                peak_depth: acc.peak(),
            });
        };
        push_q(&mut attr.queues, "host.stage".to_owned(), &self.q_host);
        for sw in &self.switches {
            let i = sw.index;
            let fab_stats = sw.fabric.merged_stats();
            let bus_bpc = sw.fabric.config().bus_bytes_per_cycle;
            attr.utilization.push(ComponentUtil {
                component: format!("sw{i}.bus"),
                busy_cycles: (fab_stats.get("switch.bus_bytes") as f64 / bus_bpc).ceil() as u64,
                total_cycles: total,
                blocked_events: 0,
            });
            for pl in sw.fabric.port_link_loads() {
                attr.utilization.push(ComponentUtil {
                    component: format!("sw{i}.port{}.{}", pl.port, pl.dir),
                    busy_cycles: (pl.wire_bytes as f64 / pl.bytes_per_cycle).ceil() as u64,
                    total_cycles: total,
                    blocked_events: pl.backpressure,
                });
            }
            if let Some(e) = &sw.logic.engine {
                attr.utilization.push(ComponentUtil {
                    component: format!("sw{i}.logic.pe"),
                    busy_cycles: e.busy_pe_cycles(),
                    total_cycles: e.pe_count() as u64 * total,
                    blocked_events: 0,
                });
            }
            push_q(&mut attr.queues, format!("sw{i}.staged"), &sw.q_staged);
            push_q(&mut attr.queues, format!("sw{i}.logic_inbox"), &sw.q_inbox);
            for (slot, d) in sw.dimms.iter().enumerate() {
                push_q(
                    &mut attr.queues,
                    format!("sw{i}.dimm{slot}.backlog"),
                    &sw.q_backlog[slot],
                );
                let server = match d {
                    DimmSlot::Cxlg(m) => {
                        attr.utilization.push(ComponentUtil {
                            component: format!("sw{i}.dimm{slot}.pe"),
                            busy_cycles: m.engine.busy_pe_cycles(),
                            total_cycles: m.engine.pe_count() as u64 * total,
                            blocked_events: 0,
                        });
                        &m.server
                    }
                    DimmSlot::Unmodified(u) => &u.server,
                };
                let dimm = server.dimm();
                attr.utilization.push(ComponentUtil {
                    component: format!("sw{i}.dimm{slot}.data"),
                    busy_cycles: dimm.data_lane_cycles(),
                    total_cycles: dimm.data_lane_count() as u64 * total,
                    blocked_events: dimm.stats().get("dram.row_conflict"),
                });
            }
        }
        attr.rank_queues();
        attr
    }

    /// Per-chip access histogram of the CXLG-DIMMs only (Fig. 13 data).
    pub fn cxlg_chip_histogram(&self) -> Option<beacon_sim::stats::Histogram> {
        let mut merged: Option<beacon_sim::stats::Histogram> = None;
        for sw in &self.switches {
            for d in &sw.dimms {
                if let DimmSlot::Cxlg(m) = d {
                    match &mut merged {
                        Some(h) => h.merge(m.server.chip_histogram()),
                        None => merged = Some(m.server.chip_histogram().clone()),
                    }
                }
            }
        }
        merged
    }

    // ----- host root complex -------------------------------------------

    fn pump_host(&mut self, now: Cycle) {
        for s in 0..self.switches.len() {
            while let Some(mut bundle) = self.switches[s].fabric.endpoint_recv(Switch::UPLINK, now)
            {
                if journey::active() {
                    // Everything accrued on the uplink is charged to
                    // `Link` here; residency in the host stage becomes
                    // `HostForward` (closed by the next downlink send).
                    for m in &mut bundle.messages {
                        if let Some(stamp) = &mut m.jny {
                            journey::hop(stamp, now, Phase::HostForward);
                        }
                    }
                }
                let ready = now + Duration::new(self.cfg.host_latency);
                // The stage stays sorted by ready cycle: `now` is
                // nondecreasing across pumps and the latency constant.
                debug_assert!(self.host_stage.back().is_none_or(|&(r, _)| r <= ready));
                self.host_stage.push_back((ready, bundle));
            }
        }
        // Sorted stage: the due entries form a prefix, so the sweep stops
        // at the first not-yet-ready deadline instead of cycling the whole
        // queue. Back-pressured bundles go to a reusable scratch and
        // return to the front in their original order — exactly the
        // sequence the old whole-queue rebuild produced.
        debug_assert!(self.host_scratch.is_empty());
        let mut rest = std::mem::take(&mut self.host_scratch);
        while let Some(&(ready, _)) = self.host_stage.front() {
            if ready > now {
                break;
            }
            let (ready, mut bundle) = self.host_stage.pop_front().expect("front checked");
            for m in &mut bundle.messages {
                *m = m.cleared_via_host();
            }
            let dst_switch = bundle.messages[0]
                .dst
                .switch()
                .expect("pool destinations only") as usize;
            match self.switches[dst_switch]
                .fabric
                .endpoint_send(Switch::UPLINK, bundle, now)
            {
                Ok(()) => {}
                Err(e) => rest.push_back((ready, e.into_bundle())),
            }
        }
        while let Some(entry) = rest.pop_back() {
            self.host_stage.push_front(entry);
        }
        self.host_scratch = rest;
        if journey::active() {
            self.q_host.observe_if_changed(self.host_stage.len(), now);
        }
    }

    /// The wall-clock seconds of the finished run at DDR4-1600 tCK.
    pub fn seconds(&self) -> f64 {
        self.finished_at
            .to_seconds(TimingParams::ddr4_1600_22().tck_ps)
    }
}

impl SwitchNode {
    /// Terminal attribution for a tracked request: record the residency
    /// of the final phase, the end-to-end total under `class`, and emit
    /// the closing flow event.
    fn journey_finish(stamp: &JStamp, class: &str, now: Cycle) {
        journey::arrive(stamp, now);
        journey::total(stamp, now, class);
        if trace::enabled(TraceLevel::Flit) {
            trace::emit(
                "journey",
                TraceEvent::instant(
                    now.as_u64(),
                    TraceLevel::Flit,
                    TraceCategory::Journey,
                    "jny.end",
                    stamp.id,
                ),
            );
        }
    }

    fn op_of(kind: AccessKind) -> (ServiceOp, MsgKind) {
        match kind {
            AccessKind::Read => (ServiceOp::Read, MsgKind::ReadReq),
            AccessKind::Write => (ServiceOp::Write, MsgKind::WriteReq),
            AccessKind::Rmw => (ServiceOp::Rmw, MsgKind::AtomicReq),
        }
    }

    // ----- engine access issue (shared by CXLG modules and S logic) ----

    /// Translates and dispatches one engine access. Local segments go to
    /// `local` (the module's own server), remote ones become messages in
    /// `egress`. For the switch logic, `local` is `None` and same-switch
    /// RMWs short-circuit into the logic serve table via `out_local_rmw`.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_access(
        cfg: &BeaconConfig,
        map: &RegionMap,
        self_node: NodeId,
        access: beacon_accel::task::IssuedAccess,
        pending: &mut PendingTable,
        mut local_server: Option<&mut DimmServer>,
        egress: &mut Egress,
        mut local_rmw: Option<&mut Vec<LocalRmw>>,
        jny_gate: Option<&mut JGate>,
        ras: Option<(&mut RasState, u32)>,
        now: Cycle,
    ) {
        let segments = map.translate(&access.access);
        let pid = pending.alloc(access.token, segments.len() as u32, access.blocking);
        if let Some((r, retries)) = ras {
            r.inflight.insert(pid, (access, retries));
        }
        // Attribution sampling: one decision per logical access; every
        // segment carries a copy of the stamp, so multi-segment accesses
        // contribute one phase sample per segment (per-message
        // semantics). `None` whenever attribution is off. The decision
        // runs through the caller's run-local gate — a plain field, so
        // the per-access fast path costs a hash and a compare, with no
        // thread-local traffic.
        let jny = jny_gate.and_then(|g| {
            let (jsw, jmod) = match self_node {
                NodeId::Dimm { switch_idx, slot } => (switch_idx, slot),
                NodeId::SwitchLogic(i) => (i, u32::MAX),
                NodeId::Host => (u32::MAX, u32::MAX),
            };
            g.admit(jsw, jmod, pid, now)
                .map(|id| JStamp::fresh(id, now))
        });
        if let Some(stamp) = &jny {
            if trace::enabled(TraceLevel::Flit) {
                trace::emit(
                    "journey",
                    TraceEvent::instant(
                        now.as_u64(),
                        TraceLevel::Flit,
                        TraceCategory::Journey,
                        "jny.begin",
                        stamp.id,
                    ),
                );
            }
        }
        let (op, msg_kind) = Self::op_of(access.access.kind);
        for seg in segments {
            let seg_is_cxlg =
                matches!(seg.node, NodeId::Dimm { slot, .. } if cfg.slot_is_cxlg(slot));
            if seg.node == self_node {
                if let Some(server) = local_server.as_deref_mut() {
                    let seg_jny = jny.map(|mut st| {
                        journey::hop(&mut st, now, Phase::BankQueue);
                        st
                    });
                    server.request_with(pid, seg.coord, seg.bytes, op, seg_jny);
                    continue;
                }
            }
            // Same-switch RMW short-circuit for the S logic.
            if access.access.kind == AccessKind::Rmw {
                if let Some(rmws) = local_rmw.as_deref_mut() {
                    if seg.node.switch() == self_node.switch() {
                        rmws.push((pid, seg.coord, seg.bytes, seg.node, jny));
                        continue;
                    }
                }
            }
            let via_host = !cfg.opts.mem_access_opt && !seg_is_cxlg;
            let msg = Message {
                src: self_node,
                dst: seg.node,
                kind: msg_kind,
                payload_bytes: seg.bytes,
                tag: pid,
                aux: seg.coord.pack(),
                via_host,
                jny,
            };
            egress.push(msg, now);
        }
    }

    // ----- switch logic -------------------------------------------------

    fn alloc_logic_serve(logic: &mut LogicNode, entry: LogicServe) -> u32 {
        match logic.free_serve.pop() {
            Some(i) => {
                logic.serve[i as usize] = entry;
                i
            }
            None => {
                logic.serve.push(entry);
                (logic.serve.len() - 1) as u32
            }
        }
    }

    /// Issues the read phase of an atomic served by this switch's logic.
    fn logic_start_atomic(&mut self, entry: LogicServe, now: Cycle) {
        let via_host = entry.via_host;
        let sidx = Self::alloc_logic_serve(&mut self.logic, entry);
        self.logic.stats.incr("logic.atomics");
        let msg = Message {
            src: NodeId::SwitchLogic(self.index as u32),
            dst: entry.dimm,
            kind: MsgKind::ReadReq,
            payload_bytes: entry.bytes,
            tag: LOGIC_BIT | sidx as u64,
            aux: entry.coord.pack(),
            via_host,
            // The whole DIMM round trip is the atomic's `Serve` span;
            // its internal phase operations are not separately stamped.
            jny: None,
        };
        self.logic.egress.push(msg, now);
    }

    fn drive_logic(&mut self, ctx: SysCtx<'_>, now: Cycle) {
        // 1. Incoming bundles addressed to this logic.
        while let Some(bundle) = self.fabric.logic_recv() {
            for msg in bundle.messages {
                self.handle_logic_message(ctx, msg, now);
            }
        }

        // 2. ALU stage: atomics whose read phase returned start writing.
        while let Some(&(ready, sidx)) = self.logic.alu_stage.front() {
            if ready > now {
                break;
            }
            self.logic.alu_stage.pop_front();
            let entry = self.logic.serve[sidx as usize];
            let msg = Message {
                src: NodeId::SwitchLogic(self.index as u32),
                dst: entry.dimm,
                kind: MsgKind::WriteReq,
                payload_bytes: entry.bytes,
                tag: LOGIC_BIT | sidx as u64,
                aux: entry.coord.pack(),
                via_host: entry.via_host,
                jny: None,
            };
            self.logic.egress.push(msg, now);
        }

        // 3. The S-variant compute engine. Issued accesses and the
        // same-switch RMW short-circuits go through reusable scratch
        // buffers (taken out of `self` around the loops that need
        // `&mut self` methods).
        if self.logic.engine.is_some() {
            debug_assert!(self.issued_scratch.is_empty());
            self.logic
                .engine
                .as_mut()
                .expect("checked")
                .tick_into(now, &mut self.issued_scratch);
            let self_node = NodeId::SwitchLogic(self.index as u32);
            let map_idx = self.logic.map_idx;
            debug_assert!(self.rmw_scratch.is_empty());
            let mut issued = std::mem::take(&mut self.issued_scratch);
            let mut local_rmws = std::mem::take(&mut self.rmw_scratch);
            for ia in issued.drain(..) {
                Self::dispatch_access(
                    ctx.cfg,
                    &ctx.maps_at(now)[map_idx],
                    self_node,
                    ia,
                    &mut self.logic.pending,
                    None,
                    &mut self.logic.egress,
                    Some(&mut local_rmws),
                    self.jgate.as_mut(),
                    self.logic.ras.as_deref_mut().map(|r| (r, 0)),
                    now,
                );
            }
            self.issued_scratch = issued;
            for (pid, coord, bytes, dimm, jny) in local_rmws.drain(..) {
                let entry = LogicServe {
                    requester: self_node,
                    orig_tag: pid,
                    coord,
                    bytes,
                    dimm,
                    phase: AtomicPhase::Read,
                    via_host: !ctx.cfg.opts.mem_access_opt,
                    in_use: true,
                    jny: jny.map(|mut st| {
                        journey::hop(&mut st, now, Phase::Serve);
                        st
                    }),
                };
                self.logic_start_atomic(entry, now);
            }
            self.rmw_scratch = local_rmws;
        }

        // 4. Pump egress onto the switch-bus.
        self.logic.egress.collect(now);
        while let Some(bundle) = self.logic.egress.queue.pop_front() {
            self.fabric.logic_send(bundle, now);
        }
    }

    fn handle_logic_message(&mut self, ctx: SysCtx<'_>, msg: Message, now: Cycle) {
        match msg.kind {
            MsgKind::AtomicReq => {
                // Atomic intercepted for an unmodified DIMM of this switch.
                let entry = LogicServe {
                    requester: msg.src,
                    orig_tag: msg.tag,
                    coord: DramCoord::unpack(msg.aux),
                    bytes: msg.payload_bytes,
                    dimm: msg.dst,
                    phase: AtomicPhase::Read,
                    via_host: msg.via_host || !ctx.cfg.opts.mem_access_opt,
                    in_use: true,
                    jny: msg.jny.map(|mut st| {
                        journey::hop(&mut st, now, Phase::Serve);
                        st
                    }),
                };
                self.logic_start_atomic(entry, now);
            }
            MsgKind::ReadResp | MsgKind::Ack if msg.tag & LOGIC_BIT != 0 => {
                let sidx = (msg.tag & !LOGIC_BIT) as u32;
                let entry = self.logic.serve[sidx as usize];
                debug_assert!(entry.in_use);
                match entry.phase {
                    AtomicPhase::Read => {
                        // Arithmetic in the Atomic Engine, then write back.
                        self.logic.serve[sidx as usize].phase = AtomicPhase::Write;
                        let ready = now + Duration::new(ctx.rmw_alu_cycles);
                        self.logic.alu_stage.push_back((ready, sidx));
                    }
                    AtomicPhase::Write => {
                        self.logic.serve[sidx as usize].in_use = false;
                        self.logic.free_serve.push(sidx);
                        let requester = entry.requester;
                        if requester == NodeId::SwitchLogic(self.index as u32) {
                            // Our own engine's RMW (BEACON-S local case).
                            if let Some(stamp) = &entry.jny {
                                Self::journey_finish(stamp, &self.logic.jny_label, now);
                            }
                            if let Some((token, _)) =
                                self.logic.pending.complete_one(entry.orig_tag)
                            {
                                ras_done(&mut self.logic.ras, entry.orig_tag);
                                if let Some(e) = self.logic.engine.as_mut() {
                                    e.on_data(token, now);
                                }
                            }
                        } else {
                            let ack = Message {
                                src: NodeId::SwitchLogic(self.index as u32),
                                dst: requester,
                                kind: MsgKind::Ack,
                                payload_bytes: 0,
                                tag: entry.orig_tag,
                                aux: 0,
                                via_host: entry.via_host,
                                jny: entry.jny.map(|mut st| {
                                    journey::hop(&mut st, now, Phase::Return);
                                    st.resp = true;
                                    st
                                }),
                            };
                            self.logic.egress.push(ack, now);
                        }
                    }
                }
            }
            MsgKind::ReadResp | MsgKind::Ack => {
                // Response for the S-variant engine's plain access.
                if let Some(stamp) = &msg.jny {
                    Self::journey_finish(stamp, &self.logic.jny_label, now);
                }
                if let Some((token, _)) = self.logic.pending.complete_one(msg.tag) {
                    ras_done(&mut self.logic.ras, msg.tag);
                    if let Some(e) = self.logic.engine.as_mut() {
                        e.on_data(token, now);
                    }
                }
            }
            MsgKind::Nak if msg.tag & LOGIC_BIT != 0 => {
                // A DIMM serving one phase of an atomic is gone: abort
                // the atomic and bounce it to the original requester,
                // who retries it under the post-failure maps.
                let sidx = (msg.tag & !LOGIC_BIT) as u32;
                let entry = self.logic.serve[sidx as usize];
                debug_assert!(entry.in_use);
                self.logic.serve[sidx as usize].in_use = false;
                self.logic.free_serve.push(sidx);
                let self_node = NodeId::SwitchLogic(self.index as u32);
                if entry.requester == self_node {
                    self.logic_retry_or_drop(ctx, entry.orig_tag, now);
                } else {
                    self.logic.stats.incr("ras.naks");
                    self.logic.egress.push(
                        Message::nak_to(self_node, entry.requester, entry.orig_tag, entry.via_host),
                        now,
                    );
                }
            }
            MsgKind::Nak => {
                // A plain access of the S engine hit a dead or poisoned
                // DIMM.
                self.logic_retry_or_drop(ctx, msg.tag, now);
            }
            other => {
                debug_assert!(false, "unexpected {other:?} at switch logic");
            }
        }
    }

    /// Requester-side nak handling for the switch logic's own accesses:
    /// the first failed segment hands the token back, and the whole
    /// logical access is re-issued under the map epoch in force at
    /// `now`. After [`MAX_ACCESS_RETRIES`] the access is dropped — the
    /// task resumes without its data rather than wedging the run, and
    /// the loss is reported in the degraded-run section.
    fn logic_retry_or_drop(&mut self, ctx: SysCtx<'_>, pid: u64, now: Cycle) {
        let Some((_token, _)) = self.logic.pending.poison_one(pid) else {
            return; // straggler segment of an already-retried access
        };
        let (ia, retries) = self
            .logic
            .ras
            .as_mut()
            .and_then(|r| r.inflight.remove(&pid))
            .expect("nak'd access must be tracked");
        if retries >= MAX_ACCESS_RETRIES {
            self.logic.stats.incr("ras.dropped");
            if let Some(e) = self.logic.engine.as_mut() {
                e.on_data(ia.token, now);
            }
            return;
        }
        self.logic.stats.incr("ras.requeued");
        let self_node = NodeId::SwitchLogic(self.index as u32);
        let map_idx = self.logic.map_idx;
        debug_assert!(self.rmw_scratch.is_empty());
        let mut local_rmws = std::mem::take(&mut self.rmw_scratch);
        Self::dispatch_access(
            ctx.cfg,
            &ctx.maps_at(now)[map_idx],
            self_node,
            ia,
            &mut self.logic.pending,
            None,
            &mut self.logic.egress,
            Some(&mut local_rmws),
            self.jgate.as_mut(),
            self.logic.ras.as_deref_mut().map(|r| (r, retries + 1)),
            now,
        );
        for (pid, coord, bytes, dimm, jny) in local_rmws.drain(..) {
            let entry = LogicServe {
                requester: self_node,
                orig_tag: pid,
                coord,
                bytes,
                dimm,
                phase: AtomicPhase::Read,
                via_host: !ctx.cfg.opts.mem_access_opt,
                in_use: true,
                jny: jny.map(|mut st| {
                    journey::hop(&mut st, now, Phase::Serve);
                    st
                }),
            };
            self.logic_start_atomic(entry, now);
        }
        self.rmw_scratch = local_rmws;
    }

    // ----- DIMM slots ----------------------------------------------------

    fn alloc_serve(serve: &mut Vec<ServeEntry>, free: &mut Vec<u32>, entry: ServeEntry) -> u32 {
        match free.pop() {
            Some(i) => {
                serve[i as usize] = entry;
                i
            }
            None => {
                serve.push(entry);
                (serve.len() - 1) as u32
            }
        }
    }

    fn drive_slot(&mut self, ctx: SysCtx<'_>, slot: usize, now: Cycle) {
        let port = self.fabric.dimm_port(slot as u32);

        // 1. Deliver incoming bundles.
        while let Some(bundle) = self.fabric.endpoint_recv(port, now) {
            for msg in bundle.messages {
                self.handle_slot_message(ctx, slot, msg, now);
            }
        }

        // 2. CXLG engines issue accesses (through the reusable scratch).
        if let DimmSlot::Cxlg(_) = &self.dimms[slot] {
            debug_assert!(self.issued_scratch.is_empty());
            let mut issued = std::mem::take(&mut self.issued_scratch);
            match &mut self.dimms[slot] {
                DimmSlot::Cxlg(m) => m.engine.tick_into(now, &mut issued),
                DimmSlot::Unmodified(_) => unreachable!(),
            }
            for ia in issued.drain(..) {
                match &mut self.dimms[slot] {
                    DimmSlot::Cxlg(m) => {
                        Self::dispatch_access(
                            ctx.cfg,
                            &ctx.maps_at(now)[m.map_idx],
                            m.node,
                            ia,
                            &mut m.pending,
                            Some(&mut m.server),
                            &mut m.egress,
                            None,
                            self.jgate.as_mut(),
                            m.ras.as_deref_mut().map(|r| (r, 0)),
                            now,
                        );
                    }
                    DimmSlot::Unmodified(_) => unreachable!(),
                }
            }
            self.issued_scratch = issued;
        }

        // 3. Server progress + completions, split into response messages
        // and local pending ids through the reusable scratch buffers.
        // Completions whose data beat hit an uncorrectable error answer
        // with a Nak instead of their response.
        debug_assert!(
            self.done_scratch.is_empty()
                && self.resp_scratch.is_empty()
                && self.comp_scratch.is_empty()
                && self.poison_scratch.is_empty()
        );
        let mut done = std::mem::take(&mut self.done_scratch);
        let mut responses = std::mem::take(&mut self.resp_scratch);
        let mut completions = std::mem::take(&mut self.comp_scratch);
        let mut poisoned = std::mem::take(&mut self.poison_scratch);
        let mut jny = std::mem::take(&mut self.jny_scratch);
        match &mut self.dimms[slot] {
            DimmSlot::Cxlg(m) => {
                m.server.tick(now);
                m.server.drain_done_into(&mut done);
                m.server.drain_poisoned_into(&mut poisoned);
                m.server.drain_jny_done_into(&mut jny);
                Self::split_server_done(
                    &mut done,
                    &mut m.serve,
                    &mut m.free_serve,
                    m.node,
                    false,
                    &poisoned,
                    &mut jny,
                    &mut responses,
                    &mut completions,
                );
            }
            DimmSlot::Unmodified(u) => {
                u.server.tick(now);
                u.server.drain_done_into(&mut done);
                u.server.drain_poisoned_into(&mut poisoned);
                u.server.drain_jny_done_into(&mut jny);
                Self::split_server_done(
                    &mut done,
                    &mut u.serve,
                    &mut u.free_serve,
                    u.node,
                    true,
                    &poisoned,
                    &mut jny,
                    &mut responses,
                    &mut completions,
                );
            }
        }
        if !poisoned.is_empty() {
            // UE streams are installed only on serve-only unmodified
            // DIMMs, so every poisoned completion nak'd a remote
            // requester.
            debug_assert!(poisoned.iter().all(|id| id & SERVE_BIT != 0));
            self.logic.stats.add("ras.naks", poisoned.len() as u64);
            poisoned.clear();
        }
        for msg in responses.drain(..) {
            match &mut self.dimms[slot] {
                DimmSlot::Cxlg(m) => m.egress.push(msg, now),
                DimmSlot::Unmodified(u) => u.egress.push(msg, now),
            }
        }
        for pid in completions.drain(..) {
            if let DimmSlot::Cxlg(m) = &mut self.dimms[slot] {
                if !jny.is_empty() {
                    if let Some(pos) = jny.iter().position(|(jid, _)| *jid == pid) {
                        let (_, stamp) = jny.swap_remove(pos);
                        Self::journey_finish(&stamp, &m.jny_label, now);
                    }
                }
                if let Some((token, _)) = m.pending.complete_one(pid) {
                    ras_done(&mut m.ras, pid);
                    m.engine.on_data(token, now);
                }
            }
        }
        // Every finished stamp was attached to a response or closed
        // above; anything left would leak lookups into later ticks.
        debug_assert!(jny.is_empty());
        jny.clear();
        self.jny_scratch = jny;
        self.done_scratch = done;
        self.resp_scratch = responses;
        self.comp_scratch = completions;
        self.poison_scratch = poisoned;

        // 4. Pump egress onto the port link (with back-pressure retry).
        let fabric = &mut self.fabric;
        match &mut self.dimms[slot] {
            DimmSlot::Cxlg(m) => {
                m.egress.collect(now);
                Self::pump_port(fabric, port, &mut m.egress, now);
            }
            DimmSlot::Unmodified(u) => {
                u.egress.collect(now);
                Self::pump_port(fabric, port, &mut u.egress, now);
            }
        }
        // The drive above is the only steady-state mutator of this
        // slot's endpoints; recompute the memoized horizon lazily on
        // the next probe.
        self.slot_h_valid[slot] = false;
    }

    fn pump_port(fabric: &mut Switch, port: usize, egress: &mut Egress, now: Cycle) {
        while let Some(bundle) = egress.queue.pop_front() {
            match fabric.endpoint_send(port, bundle, now) {
                Ok(()) => {}
                Err(e) => {
                    egress.queue.push_front(e.into_bundle());
                    break;
                }
            }
        }
    }

    /// Splits finished server operations into response messages (for
    /// remote serves) and local pending ids, appending to the caller's
    /// reusable buffers and draining `done`. Unmodified DIMMs inflate
    /// read responses to whole 64 B lines (standard CXL.mem transfers).
    /// Ids in `poisoned` (a UE hit their data beat) answer with a Nak.
    #[allow(clippy::too_many_arguments)]
    fn split_server_done(
        done: &mut Vec<(u64, Cycle)>,
        serve: &mut [ServeEntry],
        free: &mut Vec<u32>,
        node: NodeId,
        inflate_lines: bool,
        poisoned: &[u64],
        jny: &mut Vec<(u64, JStamp)>,
        responses: &mut Vec<Message>,
        completions: &mut Vec<u64>,
    ) {
        for (id, _at) in done.drain(..) {
            if id & SERVE_BIT != 0 {
                // Reclaim the stamp the server finished alongside this
                // id (if the request was tracked) and attach it to the
                // response. Local ids keep theirs in `jny` for the
                // caller's completion loop to close.
                let stamp = if jny.is_empty() {
                    None
                } else {
                    jny.iter()
                        .position(|(jid, _)| *jid == id)
                        .map(|pos| jny.swap_remove(pos).1)
                };
                let sidx = (id & !SERVE_BIT) as usize;
                let entry = serve[sidx];
                debug_assert!(entry.in_use);
                serve[sidx].in_use = false;
                free.push(sidx as u32);
                // `poisoned` is almost always empty; a linear scan of
                // the rare fault-cycle entries beats any set lookup.
                if !poisoned.is_empty() && poisoned.contains(&id) {
                    // The retry travels as a fresh access; the aborted
                    // journey is dropped rather than half-attributed.
                    responses.push(Message::nak_to(
                        node,
                        entry.requester,
                        entry.orig_tag,
                        entry.via_host,
                    ));
                    continue;
                }
                let resp = match entry.kind {
                    MsgKind::ReadReq => {
                        let bytes = if inflate_lines {
                            entry.bytes.div_ceil(64) * 64
                        } else {
                            entry.bytes
                        };
                        Message {
                            src: node,
                            dst: entry.requester,
                            kind: MsgKind::ReadResp,
                            payload_bytes: bytes,
                            tag: entry.orig_tag,
                            aux: 0,
                            via_host: entry.via_host,
                            jny: stamp,
                        }
                    }
                    _ => Message {
                        src: node,
                        dst: entry.requester,
                        kind: MsgKind::Ack,
                        payload_bytes: 0,
                        tag: entry.orig_tag,
                        aux: 0,
                        via_host: entry.via_host,
                        jny: stamp,
                    },
                };
                responses.push(resp);
            } else {
                completions.push(id);
            }
        }
    }

    fn handle_slot_message(&mut self, ctx: SysCtx<'_>, slot: usize, msg: Message, now: Cycle) {
        match msg.kind {
            MsgKind::ReadReq | MsgKind::WriteReq | MsgKind::AtomicReq => {
                let coord = DramCoord::unpack(msg.aux);
                let op = match msg.kind {
                    MsgKind::ReadReq => ServiceOp::Read,
                    MsgKind::WriteReq => ServiceOp::Write,
                    MsgKind::AtomicReq => ServiceOp::Rmw,
                    _ => unreachable!(),
                };
                let entry = ServeEntry {
                    requester: msg.src,
                    orig_tag: msg.tag,
                    kind: msg.kind,
                    bytes: msg.payload_bytes,
                    via_host: msg.via_host,
                    in_use: true,
                };
                // Arrival at the serving DIMM: everything since the last
                // transition was transport; residency from here is
                // `BankQueue` until the first DRAM command issues.
                let jny = msg.jny.map(|mut st| {
                    journey::hop(&mut st, now, Phase::BankQueue);
                    if trace::enabled(TraceLevel::Flit) {
                        trace::emit(
                            "journey",
                            TraceEvent::instant(
                                now.as_u64(),
                                TraceLevel::Flit,
                                TraceCategory::Journey,
                                "jny.hop",
                                st.id,
                            ),
                        );
                    }
                    st
                });
                match &mut self.dimms[slot] {
                    DimmSlot::Cxlg(m) => {
                        let sidx = Self::alloc_serve(&mut m.serve, &mut m.free_serve, entry);
                        m.server.request_with(
                            SERVE_BIT | sidx as u64,
                            coord,
                            msg.payload_bytes,
                            op,
                            jny,
                        );
                    }
                    DimmSlot::Unmodified(u) => {
                        debug_assert!(
                            msg.kind != MsgKind::AtomicReq,
                            "atomics must be intercepted by the switch logic"
                        );
                        if u.server.is_failed() {
                            // The DIMM is dead: bounce the request
                            // straight back so the requester re-homes it
                            // (the tracked journey, if any, is dropped).
                            u.egress
                                .push(Message::nak_to(u.node, msg.src, msg.tag, msg.via_host), now);
                            self.logic.stats.incr("ras.naks");
                            return;
                        }
                        let sidx = Self::alloc_serve(&mut u.serve, &mut u.free_serve, entry);
                        u.server.request_with(
                            SERVE_BIT | sidx as u64,
                            coord,
                            msg.payload_bytes,
                            op,
                            jny,
                        );
                    }
                }
            }
            MsgKind::ReadResp | MsgKind::Ack => match &mut self.dimms[slot] {
                DimmSlot::Cxlg(m) => {
                    if let Some(stamp) = &msg.jny {
                        Self::journey_finish(stamp, &m.jny_label, now);
                    }
                    if let Some((token, _)) = m.pending.complete_one(msg.tag) {
                        ras_done(&mut m.ras, msg.tag);
                        m.engine.on_data(token, now);
                    }
                }
                DimmSlot::Unmodified(_) => {
                    debug_assert!(false, "unmodified DIMM received a response");
                }
            },
            MsgKind::Nak => match &mut self.dimms[slot] {
                // One segment of a CXLG engine's access hit a dead or
                // poisoned DIMM: the first nak hands the token back and
                // re-issues the whole logical access under the map epoch
                // in force at `now`; stragglers just drain.
                DimmSlot::Cxlg(m) => {
                    if m.pending.poison_one(msg.tag).is_some() {
                        let (ia, retries) = m
                            .ras
                            .as_mut()
                            .and_then(|r| r.inflight.remove(&msg.tag))
                            .expect("nak'd access must be tracked");
                        if retries >= MAX_ACCESS_RETRIES {
                            self.logic.stats.incr("ras.dropped");
                            m.engine.on_data(ia.token, now);
                        } else {
                            self.logic.stats.incr("ras.requeued");
                            Self::dispatch_access(
                                ctx.cfg,
                                &ctx.maps_at(now)[m.map_idx],
                                m.node,
                                ia,
                                &mut m.pending,
                                Some(&mut m.server),
                                &mut m.egress,
                                None,
                                self.jgate.as_mut(),
                                m.ras.as_deref_mut().map(|r| (r, retries + 1)),
                                now,
                            );
                        }
                    }
                }
                DimmSlot::Unmodified(_) => {
                    debug_assert!(false, "unmodified DIMM received a nak");
                }
            },
            MsgKind::Control => {}
        }
    }

    // ----- shard surface -------------------------------------------------

    /// Executes a scheduled whole-DIMM hard failure once `now` reaches
    /// its cycle: the DIMM aborts everything it holds, and every aborted
    /// operation naks its remote requester (unmodified DIMMs never issue
    /// requests of their own, so every casualty has one). Shard-local
    /// and identical under the sequential and parallel engines.
    fn apply_dimm_failure(&mut self, now: Cycle) {
        let Some(f) = &mut self.ras_fail else { return };
        if f.done || now < f.at {
            return;
        }
        f.done = true;
        let slot = f.slot;
        match &mut self.dimms[slot] {
            DimmSlot::Unmodified(u) => {
                // One-time path: a fresh Vec beats threading scratch here.
                let mut lost = Vec::new();
                u.server.fail_into(&mut lost);
                for id in &lost {
                    debug_assert!(id & SERVE_BIT != 0, "unmodified DIMMs only serve");
                    let sidx = (id & !SERVE_BIT) as usize;
                    let entry = u.serve[sidx];
                    debug_assert!(entry.in_use);
                    u.serve[sidx].in_use = false;
                    u.free_serve.push(sidx as u32);
                    u.egress.push(
                        Message::nak_to(u.node, entry.requester, entry.orig_tag, entry.via_host),
                        now,
                    );
                }
                self.logic.stats.incr("ras.dimm_killed");
                self.logic.stats.add("ras.naks", lost.len() as u64);
                self.slot_h_valid[slot] = false;
            }
            DimmSlot::Cxlg(_) => {
                unreachable!("validate() restricts hard failures to unmodified slots")
            }
        }
    }

    /// Advances this switch subtree by one cycle: fabric, in-switch
    /// logic, then every DIMM slot — exactly the per-switch slice of the
    /// sequential [`Tick::tick`] loop.
    pub(crate) fn tick_cycle(&mut self, ctx: SysCtx<'_>, now: Cycle) {
        self.apply_dimm_failure(now);
        self.fabric.tick(now);
        // Drive only the endpoints that can act this cycle. Each gate is
        // the same per-component horizon the engine-level skip already
        // trusts, plus the port's link-arrival horizon — before it, the
        // endpoint's receive pump is guaranteed empty and every drive
        // step below is a no-op.
        if self.logic_horizon() <= now {
            self.drive_logic(ctx, now);
        }
        for slot in 0..self.dimms.len() {
            if self.slot_due(slot, now) {
                self.drive_slot(ctx, slot, now);
            }
        }
        if journey::active() {
            // Queue depths only mutate inside this function, so a check
            // per executed tick integrates depth-over-time exactly even
            // when the engine fast-forwards dead spans; the unchanged
            // case (the common one) is a compare per queue.
            self.q_staged
                .observe_if_changed(self.fabric.staged_len(), now);
            self.q_inbox
                .observe_if_changed(self.fabric.logic_inbox_len(), now);
            for (slot, d) in self.dimms.iter().enumerate() {
                let depth = match d {
                    DimmSlot::Cxlg(m) => m.server.backlog_len() + m.server.dimm().queue_len(),
                    DimmSlot::Unmodified(u) => u.server.backlog_len() + u.server.dimm().queue_len(),
                };
                self.q_backlog[slot].observe_if_changed(depth, now);
            }
        }
    }

    /// The in-switch logic's event horizon: the earliest cycle at which
    /// [`SwitchNode::drive_logic`] can do anything — inbox delivery, an
    /// ALU-stage writeback, engine progress, or an egress pump. The same
    /// per-component horizons [`SwitchNode::subtree_next_event`] sums,
    /// restricted to the logic.
    fn logic_horizon(&self) -> Cycle {
        if self.fabric.logic_inbox_len() > 0 {
            return Cycle::ZERO;
        }
        let mut h = self.logic.egress.next_event();
        if let Some(&(ready, _)) = self.logic.alu_stage.front() {
            h = h.min(ready);
        }
        if let Some(e) = &self.logic.engine {
            h = h.min(e.next_event());
        }
        h
    }

    /// True when [`SwitchNode::drive_slot`] can do anything at `now` — a
    /// bundle landing on the slot's port, engine or server progress, or
    /// an egress pump. The server term is [`DimmServer::due`], which
    /// stops at the first due term; when nothing is due, it has left the
    /// server's horizon exact and cached, and the minimum of the terms
    /// fills the slot's memo.
    fn slot_due(&mut self, slot: usize, now: Cycle) -> bool {
        let port = self.fabric.dimm_port(slot as u32);
        if self.fabric.port_arrival(port) <= now {
            return true;
        }
        if self.slot_h_valid[slot] {
            return self.slot_h[slot] <= now;
        }
        let (local, server) = match &self.dimms[slot] {
            DimmSlot::Cxlg(m) => (m.engine.next_event().min(m.egress.next_event()), &m.server),
            DimmSlot::Unmodified(u) => (u.egress.next_event(), &u.server),
        };
        if local <= now || server.due(now) {
            return true;
        }
        self.slot_h[slot] = local.min(server.next_event());
        self.slot_h_valid[slot] = true;
        false
    }

    /// True when nothing under this switch has queued or in-flight work
    /// (the per-switch clause of the sequential idle check).
    pub(crate) fn subtree_idle(&self) -> bool {
        self.fabric.is_idle()
            && self.logic.egress.is_idle()
            && self.logic.alu_stage.is_empty()
            && self.logic.pending.is_empty()
            && self
                .logic
                .engine
                .as_ref()
                .map(TaskEngine::all_done)
                .unwrap_or(true)
            && self.dimms.iter().all(|d| match d {
                DimmSlot::Cxlg(m) => {
                    m.engine.all_done()
                        && m.server.is_idle()
                        && m.egress.is_idle()
                        && m.pending.is_empty()
                }
                DimmSlot::Unmodified(u) => u.server.is_idle() && u.egress.is_idle(),
            })
    }

    /// This subtree's event horizon as an absolute cycle: the minimum of
    /// every component's own horizon — fabric (staged bundles, link
    /// arrivals, logic inbox), in-switch logic (ALU stage, compute
    /// engine, egress) and each DIMM slot (engine, server, egress). A
    /// cycle at or before "now" means the subtree must be ticked next
    /// cycle; [`Cycle::NEVER`] means it is fully quiescent.
    pub(crate) fn subtree_next_event(&self) -> Cycle {
        // `Cycle::ZERO` means "actionable immediately" — nothing can
        // lower the min further, so stop sweeping the moment any
        // contributor reports it. In a dense phase (the only time the
        // sweep is hot) some component is almost always immediately
        // actionable, so the common case touches a fraction of the
        // subtree.
        let mut h = self.fabric.next_event();
        // A pending DIMM death is a time-driven fault: fast-forwarding
        // must stop at (or before) it, or the kill cycle would depend on
        // the skip pattern.
        if let Some(f) = &self.ras_fail {
            if !f.done {
                h = h.min(f.at);
            }
        }
        if h == Cycle::ZERO {
            return h;
        }
        h = h.min(self.logic.egress.next_event());
        if let Some(&(ready, _)) = self.logic.alu_stage.front() {
            h = h.min(ready);
        }
        if let Some(e) = &self.logic.engine {
            h = h.min(e.next_event());
        }
        for d in &self.dimms {
            if h == Cycle::ZERO {
                return h;
            }
            match d {
                DimmSlot::Cxlg(m) => {
                    h = h
                        .min(m.engine.next_event())
                        .min(m.server.next_event())
                        .min(m.egress.next_event());
                }
                DimmSlot::Unmodified(u) => {
                    h = h.min(u.server.next_event()).min(u.egress.next_event());
                }
            }
        }
        h
    }

    /// This subtree's share of [`Probe::progress_counter`].
    pub(crate) fn progress_counter(&self) -> u64 {
        let dram_cmds =
            |s: &Stats| s.get("dram.cmd.read") + s.get("dram.cmd.write") + s.get("dram.cmd.act");
        let mut n = self.fabric.stats().get("switch.forwarded");
        if let Some(e) = &self.logic.engine {
            n += e.completed() as u64 + e.stats().get("engine.accesses_issued");
        }
        for d in &self.dimms {
            match d {
                DimmSlot::Cxlg(m) => {
                    n += m.engine.completed() as u64
                        + m.engine.stats().get("engine.accesses_issued")
                        + dram_cmds(m.server.dimm().stats());
                }
                DimmSlot::Unmodified(u) => {
                    n += dram_cmds(u.server.dimm().stats());
                }
            }
        }
        n
    }

    /// Accumulates this subtree's share of [`Probe::gauges`].
    pub(crate) fn accumulate_gauges(&self, acc: &mut GaugeAcc) {
        acc.link_occupancy += self.fabric.link_occupancy();
        acc.switch_staged += self.fabric.staged_len() + self.fabric.logic_inbox_len();
        acc.pending += self.logic.pending.in_flight();
        if let Some(e) = &self.logic.engine {
            acc.pe_busy += e.busy_pes();
            acc.tasks_ready += e.ready_len();
            acc.tasks_completed += e.completed();
        }
        for d in &self.dimms {
            match d {
                DimmSlot::Cxlg(m) => {
                    acc.dram_queue += m.server.dimm().queue_len();
                    acc.dram_backlog += m.server.backlog_len();
                    acc.pending += m.pending.in_flight();
                    acc.pe_busy += m.engine.busy_pes();
                    acc.tasks_ready += m.engine.ready_len();
                    acc.tasks_completed += m.engine.completed();
                }
                DimmSlot::Unmodified(u) => {
                    acc.dram_queue += u.server.dimm().queue_len();
                    acc.dram_backlog += u.server.backlog_len();
                }
            }
        }
    }

    /// Writes this subtree's stall-report lines (the per-switch chunk of
    /// [`Probe::state_snapshot`]).
    pub(crate) fn snapshot_into(&self, s: &mut String) {
        let i = self.index;
        let _ = writeln!(
            s,
            "switch {i}: staged={} inbox={} links={}",
            self.fabric.staged_len(),
            self.fabric.logic_inbox_len(),
            self.fabric.link_occupancy(),
        );
        if let Some(e) = &self.logic.engine {
            let _ = writeln!(
                s,
                "  logic: tasks {}/{} busy={} ready={} pending={} egress={}",
                e.completed(),
                e.submitted(),
                e.busy_pes(),
                e.ready_len(),
                self.logic.pending.in_flight(),
                self.logic.egress.queue.len(),
            );
        }
        for (slot, d) in self.dimms.iter().enumerate() {
            match d {
                DimmSlot::Cxlg(m) => {
                    let _ = writeln!(
                        s,
                        "  dimm {slot} (cxlg): tasks {}/{} busy={} ready={} \
                         pending={} backlog={} queue={} egress={}",
                        m.engine.completed(),
                        m.engine.submitted(),
                        m.engine.busy_pes(),
                        m.engine.ready_len(),
                        m.pending.in_flight(),
                        m.server.backlog_len(),
                        m.server.dimm().queue_len(),
                        m.egress.queue.len(),
                    );
                }
                DimmSlot::Unmodified(u) => {
                    let _ = writeln!(
                        s,
                        "  dimm {slot} (unmod): backlog={} queue={} egress={}",
                        u.server.backlog_len(),
                        u.server.dimm().queue_len(),
                        u.egress.queue.len(),
                    );
                }
            }
        }
    }

    /// Pops one bundle that fully arrived at the uplink endpoint before
    /// `horizon`, with its exact arrival cycle.
    pub(crate) fn uplink_recv_before(&mut self, horizon: Cycle) -> Option<(Cycle, Bundle)> {
        self.fabric.endpoint_recv_before(Switch::UPLINK, horizon)
    }

    /// Injects a host-forwarded bundle into the uplink ingress.
    pub(crate) fn uplink_send(
        &mut self,
        bundle: Bundle,
        now: Cycle,
    ) -> Result<(), beacon_cxl::link::SendError> {
        self.fabric.endpoint_send(Switch::UPLINK, bundle, now)
    }
}

// ----- checkpoint serialisation ---------------------------------------
//
// Only dynamic state travels: static topology (node ids, map indices,
// trace labels, per-component parameters) is rebuilt by
// `BeaconSystem::new` from the restored configuration, and each
// component's `restore` overwrites the freshly constructed dynamic
// fields. Attribution state (journey stamps, queue-depth integrals,
// sampling gates) is digest-excluded and restores empty.

fn put_serve_entry(w: &mut SnapWriter, e: &ServeEntry) {
    beacon_cxl::snap::put_node(w, e.requester);
    w.u64(e.orig_tag);
    beacon_cxl::snap::put_kind(w, e.kind);
    w.u32(e.bytes);
    w.bool(e.via_host);
    w.bool(e.in_use);
}

fn get_serve_entry(r: &mut SnapReader<'_>) -> Result<ServeEntry, SnapError> {
    Ok(ServeEntry {
        requester: beacon_cxl::snap::get_node(r)?,
        orig_tag: r.u64()?,
        kind: beacon_cxl::snap::get_kind(r)?,
        bytes: r.u32()?,
        via_host: r.bool()?,
        in_use: r.bool()?,
    })
}

fn put_logic_serve(w: &mut SnapWriter, e: &LogicServe) {
    beacon_cxl::snap::put_node(w, e.requester);
    w.u64(e.orig_tag);
    w.u64(e.coord.pack());
    w.u32(e.bytes);
    beacon_cxl::snap::put_node(w, e.dimm);
    w.u8(match e.phase {
        AtomicPhase::Read => 0,
        AtomicPhase::Write => 1,
    });
    w.bool(e.via_host);
    w.bool(e.in_use);
}

fn get_logic_serve(r: &mut SnapReader<'_>) -> Result<LogicServe, SnapError> {
    Ok(LogicServe {
        requester: beacon_cxl::snap::get_node(r)?,
        orig_tag: r.u64()?,
        coord: DramCoord::unpack(r.u64()?),
        bytes: r.u32()?,
        dimm: beacon_cxl::snap::get_node(r)?,
        phase: match r.u8()? {
            0 => AtomicPhase::Read,
            1 => AtomicPhase::Write,
            t => return Err(SnapError::Corrupt(format!("unknown AtomicPhase tag {t}"))),
        },
        via_host: r.bool()?,
        in_use: r.bool()?,
        // An in-flight atomic's tracked journey does not survive a
        // checkpoint: attribution is digest-excluded by contract.
        jny: None,
    })
}

fn put_issued(w: &mut SnapWriter, ia: &IssuedAccess) {
    w.u64(ia.token.encode());
    beacon_genomics::snap::put_access(w, &ia.access);
    w.bool(ia.blocking);
}

fn get_issued(r: &mut SnapReader<'_>) -> Result<IssuedAccess, SnapError> {
    Ok(IssuedAccess {
        token: AccessToken::decode(r.u64()?),
        access: beacon_genomics::snap::get_access(r)?,
        blocking: r.bool()?,
    })
}

fn put_ras(w: &mut SnapWriter, ras: &Option<Box<RasState>>) {
    match ras {
        None => w.bool(false),
        Some(r) => {
            w.bool(true);
            w.usize(r.inflight.len());
            for (pid, (ia, retries)) in &r.inflight {
                w.u64(*pid);
                put_issued(w, ia);
                w.u32(*retries);
            }
        }
    }
}

fn get_ras(r: &mut SnapReader<'_>) -> Result<Option<Box<RasState>>, SnapError> {
    if !r.bool()? {
        return Ok(None);
    }
    let n = r.seq_len()?;
    let mut inflight = BTreeMap::new();
    for _ in 0..n {
        let pid = r.u64()?;
        let ia = get_issued(r)?;
        let retries = r.u32()?;
        inflight.insert(pid, (ia, retries));
    }
    Ok(Some(Box::new(RasState { inflight })))
}

/// Bounds-checks a serialised free-list index against its table.
fn check_free(idx: u32, len: usize, what: &str) -> Result<u32, SnapError> {
    if (idx as usize) < len {
        Ok(idx)
    } else {
        Err(SnapError::Corrupt(format!(
            "{what} free index {idx} out of range (table holds {len})"
        )))
    }
}

impl Egress {
    fn snap(&self, w: &mut SnapWriter) {
        match &self.packer {
            None => w.bool(false),
            Some(p) => {
                w.bool(true);
                w.component(p);
            }
        }
        w.usize(self.queue.len());
        for b in &self.queue {
            beacon_cxl::snap::put_bundle(w, b);
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>, what: &str) -> Result<(), SnapError> {
        let has_packer = r.bool()?;
        match (&mut self.packer, has_packer) {
            (Some(p), true) => r.component(p)?,
            (None, false) => {}
            (mine, theirs) => {
                return Err(SnapError::Topology(format!(
                    "{what}: snapshot egress packer={theirs}, system has packer={}",
                    mine.is_some()
                )))
            }
        }
        let n = r.seq_len()?;
        self.queue.clear();
        for _ in 0..n {
            self.queue.push_back(beacon_cxl::snap::get_bundle(r)?);
        }
        Ok(())
    }
}

impl LogicNode {
    fn snap(&self, w: &mut SnapWriter) {
        match &self.engine {
            None => w.bool(false),
            Some(e) => {
                w.bool(true);
                w.component(e);
            }
        }
        w.component(&self.pending);
        w.usize(self.serve.len());
        for e in &self.serve {
            put_logic_serve(w, e);
        }
        w.usize(self.free_serve.len());
        for i in &self.free_serve {
            w.u32(*i);
        }
        self.egress.snap(w);
        w.usize(self.alu_stage.len());
        for (ready, sidx) in &self.alu_stage {
            w.cycle(*ready);
            w.u32(*sidx);
        }
        w.component(&self.stats);
        put_ras(w, &self.ras);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>, sw: usize) -> Result<(), SnapError> {
        let has_engine = r.bool()?;
        match (&mut self.engine, has_engine) {
            (Some(e), true) => r.component(e)?,
            (None, false) => {}
            (mine, theirs) => {
                return Err(SnapError::Topology(format!(
                    "switch {sw} logic: snapshot engine={theirs}, system has engine={}",
                    mine.is_some()
                )))
            }
        }
        r.component(&mut self.pending)?;
        let n = r.seq_len()?;
        self.serve.clear();
        for _ in 0..n {
            self.serve.push(get_logic_serve(r)?);
        }
        let n = r.seq_len()?;
        self.free_serve.clear();
        for _ in 0..n {
            self.free_serve
                .push(check_free(r.u32()?, self.serve.len(), "logic serve")?);
        }
        self.egress.restore(r, "switch logic")?;
        let n = r.seq_len()?;
        self.alu_stage.clear();
        for _ in 0..n {
            let ready = r.cycle()?;
            let sidx = check_free(r.u32()?, self.serve.len(), "logic ALU stage")?;
            self.alu_stage.push_back((ready, sidx));
        }
        r.component(&mut self.stats)?;
        self.ras = get_ras(r)?;
        Ok(())
    }
}

impl CxlgModule {
    fn snap(&self, w: &mut SnapWriter) {
        w.component(&self.engine);
        w.component(&self.server);
        w.component(&self.pending);
        w.usize(self.serve.len());
        for e in &self.serve {
            put_serve_entry(w, e);
        }
        w.usize(self.free_serve.len());
        for i in &self.free_serve {
            w.u32(*i);
        }
        self.egress.snap(w);
        put_ras(w, &self.ras);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.component(&mut self.engine)?;
        r.component(&mut self.server)?;
        r.component(&mut self.pending)?;
        let n = r.seq_len()?;
        self.serve.clear();
        for _ in 0..n {
            self.serve.push(get_serve_entry(r)?);
        }
        let n = r.seq_len()?;
        self.free_serve.clear();
        for _ in 0..n {
            self.free_serve
                .push(check_free(r.u32()?, self.serve.len(), "cxlg serve")?);
        }
        self.egress.restore(r, "cxlg module")?;
        self.ras = get_ras(r)?;
        Ok(())
    }
}

impl UnmodDimm {
    fn snap(&self, w: &mut SnapWriter) {
        w.component(&self.server);
        w.usize(self.serve.len());
        for e in &self.serve {
            put_serve_entry(w, e);
        }
        w.usize(self.free_serve.len());
        for i in &self.free_serve {
            w.u32(*i);
        }
        self.egress.snap(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.component(&mut self.server)?;
        let n = r.seq_len()?;
        self.serve.clear();
        for _ in 0..n {
            self.serve.push(get_serve_entry(r)?);
        }
        let n = r.seq_len()?;
        self.free_serve.clear();
        for _ in 0..n {
            self.free_serve
                .push(check_free(r.u32()?, self.serve.len(), "unmod serve")?);
        }
        self.egress.restore(r, "unmodified DIMM")
    }
}

impl Snapshot for SwitchNode {
    const TAG: &'static str = "core.switch";
    const VERSION: u16 = 1;

    fn snap(&self, w: &mut SnapWriter) {
        // Scratch buffers are drained back to empty before every driver
        // returns; a checkpoint boundary sits between ticks.
        debug_assert!(
            self.issued_scratch.is_empty()
                && self.rmw_scratch.is_empty()
                && self.done_scratch.is_empty()
                && self.resp_scratch.is_empty()
                && self.comp_scratch.is_empty()
                && self.poison_scratch.is_empty()
                && self.jny_scratch.is_empty()
        );
        w.component(&self.fabric);
        self.logic.snap(w);
        w.usize(self.dimms.len());
        for d in &self.dimms {
            match d {
                DimmSlot::Cxlg(m) => {
                    w.u8(0);
                    m.snap(w);
                }
                DimmSlot::Unmodified(u) => {
                    w.u8(1);
                    u.snap(w);
                }
            }
        }
        match &self.ras_fail {
            None => w.bool(false),
            Some(f) => {
                w.bool(true);
                w.usize(f.slot);
                w.cycle(f.at);
                w.bool(f.done);
            }
        }
    }
}

impl Restore for SwitchNode {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.component(&mut self.fabric)?;
        let sw = self.index;
        self.logic.restore(r, sw)?;
        let n = r.seq_len()?;
        if n != self.dimms.len() {
            return Err(SnapError::Topology(format!(
                "switch {sw} has {} DIMM slots, snapshot has {n}",
                self.dimms.len()
            )));
        }
        for (slot, d) in self.dimms.iter_mut().enumerate() {
            let tag = r.u8()?;
            match (d, tag) {
                (DimmSlot::Cxlg(m), 0) => m.restore(r)?,
                (DimmSlot::Unmodified(u), 1) => u.restore(r)?,
                (DimmSlot::Cxlg(_), 1) | (DimmSlot::Unmodified(_), 0) => {
                    return Err(SnapError::Topology(format!(
                        "switch {sw} slot {slot}: snapshot DIMM kind does not match"
                    )))
                }
                (_, t) => {
                    return Err(SnapError::Corrupt(format!("unknown DimmSlot tag {t}")));
                }
            }
        }
        self.ras_fail = if r.bool()? {
            let slot = r.usize()?;
            if slot >= self.dimms.len() {
                return Err(SnapError::Corrupt(format!(
                    "scheduled DIMM failure names slot {slot} of {}",
                    self.dimms.len()
                )));
            }
            Some(SlotFault {
                slot,
                at: r.cycle()?,
                done: r.bool()?,
            })
        } else {
            None
        };
        // Per-tick scratch is always empty at a boundary; attribution
        // state (queue integrals, sampling gate) is digest-excluded and
        // restores empty — `arm` re-arms the gate at
        // the next run entry.
        self.issued_scratch.clear();
        self.rmw_scratch.clear();
        self.done_scratch.clear();
        self.resp_scratch.clear();
        self.comp_scratch.clear();
        self.poison_scratch.clear();
        self.jny_scratch.clear();
        self.q_staged = QueueAcc::default();
        self.q_inbox = QueueAcc::default();
        for q in &mut self.q_backlog {
            *q = QueueAcc::default();
        }
        for v in &mut self.slot_h_valid {
            *v = false;
        }
        self.jgate = None;
        Ok(())
    }
}

impl BeaconSystem {
    /// Clears restore-transient host-side state: the back-pressure
    /// scratch, the staged queue (about to be overwritten) and the
    /// digest-excluded queue-depth integral.
    pub(crate) fn reset_host_for_restore(&mut self) {
        self.host_stage.clear();
        self.host_scratch.clear();
        self.q_host = QueueAcc::default();
    }
}

/// Accumulator behind [`Probe::gauges`], shared by the sequential probe
/// and the parallel barrier sampler so both report identical keys.
#[derive(Debug, Default)]
pub(crate) struct GaugeAcc {
    pub(crate) dram_queue: usize,
    pub(crate) dram_backlog: usize,
    pub(crate) link_occupancy: usize,
    pub(crate) switch_staged: usize,
    pub(crate) pe_busy: usize,
    pub(crate) tasks_ready: usize,
    pub(crate) pending: usize,
    pub(crate) tasks_completed: usize,
}

impl GaugeAcc {
    /// Emits the gauge vector in the stable key order established by the
    /// observability layer.
    pub(crate) fn push_into(&self, host_staged: usize, out: &mut Vec<(String, f64)>) {
        out.push(("dram.queue".to_owned(), self.dram_queue as f64));
        out.push(("dram.backlog".to_owned(), self.dram_backlog as f64));
        out.push(("cxl.link_occupancy".to_owned(), self.link_occupancy as f64));
        out.push(("switch.staged".to_owned(), self.switch_staged as f64));
        out.push(("accel.pe_busy".to_owned(), self.pe_busy as f64));
        out.push(("accel.ready".to_owned(), self.tasks_ready as f64));
        out.push(("accel.pending".to_owned(), self.pending as f64));
        out.push(("tasks.completed".to_owned(), self.tasks_completed as f64));
        out.push(("host.staged".to_owned(), host_staged as f64));
    }
}

impl Tick for BeaconSystem {
    fn tick(&mut self, now: Cycle) {
        self.pump_host(now);
        let ctx = SysCtx {
            cfg: &self.cfg,
            maps: &self.maps,
            rmw_alu_cycles: self.rmw_alu_cycles,
            remap: self.remap.as_deref(),
        };
        for sw in &mut self.switches {
            sw.tick_cycle(ctx, now);
        }
    }

    fn is_idle(&self) -> bool {
        self.host_stage.is_empty() && self.switches.iter().all(SwitchNode::subtree_idle)
    }

    /// The whole pool's event horizon: the minimum over the host stage's
    /// forwarding deadlines and every switch subtree. Lets the engine
    /// fast-forward dead spans (e.g. all PEs computing, DRAM between
    /// refreshes) without changing a single observable cycle.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut h = Cycle::NEVER;
        // The host stage is sorted by ready cycle (see `pump_host`), so
        // its horizon is just the front deadline.
        if let Some(&(ready, _)) = self.host_stage.front() {
            h = h.min(ready);
        }
        for sw in &self.switches {
            h = h.min(sw.subtree_next_event());
            if h == Cycle::ZERO {
                // Already the global minimum: something is actionable
                // immediately, the remaining subtrees cannot lower it.
                break;
            }
        }
        if h == Cycle::NEVER {
            None
        } else {
            Some(h.max(now.next()))
        }
    }
}

impl Probe for BeaconSystem {
    /// Useful work only: forwarded bundles, issued accesses, retired
    /// tasks and DRAM data/row commands. Refresh is deliberately
    /// excluded — a refreshing but otherwise wedged pool must still trip
    /// the stall detector.
    fn progress_counter(&self) -> u64 {
        self.switches.iter().map(SwitchNode::progress_counter).sum()
    }

    fn gauges(&self, out: &mut Vec<(String, f64)>) {
        let mut acc = GaugeAcc::default();
        for sw in &self.switches {
            sw.accumulate_gauges(&mut acc);
        }
        acc.push_into(self.host_stage.len(), out);
    }

    fn state_snapshot(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "host_stage: {}", self.host_stage.len());
        for sw in &self.switches {
            sw.snapshot_into(&mut s);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;
    use crate::mmf::{build_layout, LayoutSpec};
    use beacon_genomics::genome::{Genome, GenomeId};
    use beacon_genomics::prelude::FmIndex;
    use beacon_genomics::reads::ReadSampler;
    use beacon_genomics::trace::Region;

    fn fm_workload(n: usize) -> (Vec<TaskTrace>, u64) {
        let g = Genome::synthetic(GenomeId::Pt, 3000, 5);
        let idx = FmIndex::build(g.sequence());
        let mut sampler = ReadSampler::new(&g, 24, 0.0, 9);
        let traces = (0..n)
            .map(|_| idx.trace_search(sampler.next_read().bases()))
            .collect();
        (traces, idx.index_bytes())
    }

    fn small(cfg: &mut BeaconConfig) {
        cfg.pes_per_module = 8;
        cfg.refresh_enabled = false;
    }

    fn build(cfg: BeaconConfig, index_bytes: u64) -> BeaconSystem {
        let specs = [LayoutSpec::shared_random(Region::FmIndex, index_bytes)];
        let layout = build_layout(&cfg, &specs);
        BeaconSystem::new(cfg, layout)
    }

    fn run_point(
        variant: BeaconVariant,
        opts: Optimizations,
        traces: &[TaskTrace],
        bytes: u64,
    ) -> RunResult {
        let app = beacon_genomics::trace::AppKind::FmSeeding;
        let mut cfg = BeaconConfig::paper(variant, app).with_opts(opts);
        small(&mut cfg);
        let mut sys = build(cfg, bytes);
        sys.submit_round_robin(traces.iter().cloned());
        sys.run()
    }

    #[test]
    fn beacon_d_vanilla_drains() {
        let (traces, bytes) = fm_workload(16);
        let r = run_point(BeaconVariant::D, Optimizations::vanilla(), &traces, bytes);
        assert_eq!(r.tasks, 16);
        assert!(r.cycles > 0);
        assert!(r.dram.get("dram.cmd.read") > 0);
        assert!(r.comm.get("cxl.flits") > 0);
    }

    #[test]
    fn beacon_s_vanilla_drains() {
        let (traces, bytes) = fm_workload(16);
        let r = run_point(BeaconVariant::S, Optimizations::vanilla(), &traces, bytes);
        assert_eq!(r.tasks, 16);
        assert!(r.comm.get("cxl.flits") > 0);
    }

    #[test]
    fn full_opts_beat_vanilla_on_d() {
        let (traces, bytes) = fm_workload(24);
        let app = beacon_genomics::trace::AppKind::FmSeeding;
        let v = run_point(BeaconVariant::D, Optimizations::vanilla(), &traces, bytes);
        let f = run_point(
            BeaconVariant::D,
            Optimizations::full(BeaconVariant::D, app),
            &traces,
            bytes,
        );
        assert!(
            f.cycles < v.cycles,
            "full ({}) should beat vanilla ({})",
            f.cycles,
            v.cycles
        );
    }

    #[test]
    fn mem_access_opt_removes_host_traffic() {
        let (traces, bytes) = fm_workload(12);
        let mut no_opt = Optimizations::vanilla();
        no_opt.data_packing = true;
        let mut with_opt = no_opt;
        with_opt.mem_access_opt = true;
        let a = run_point(BeaconVariant::S, no_opt, &traces, bytes);
        let b = run_point(BeaconVariant::S, with_opt, &traces, bytes);
        assert!(
            b.cycles < a.cycles,
            "device bias must help ({} vs {})",
            b.cycles,
            a.cycles
        );
    }

    #[test]
    fn ideal_comm_is_fastest() {
        let (traces, bytes) = fm_workload(16);
        let app = beacon_genomics::trace::AppKind::FmSeeding;
        let full = run_point(
            BeaconVariant::D,
            Optimizations::full(BeaconVariant::D, app),
            &traces,
            bytes,
        );
        let ideal = run_point(
            BeaconVariant::D,
            Optimizations::full_ideal(BeaconVariant::D, app),
            &traces,
            bytes,
        );
        assert!(ideal.cycles <= full.cycles);
    }

    #[test]
    fn d_uses_cxlg_dram_under_placement() {
        let (traces, bytes) = fm_workload(8);
        let app = beacon_genomics::trace::AppKind::FmSeeding;
        let mut cfg =
            BeaconConfig::paper_d(app).with_opts(Optimizations::full(BeaconVariant::D, app));
        small(&mut cfg);
        let mut sys = build(cfg, bytes);
        sys.submit_round_robin(traces);
        let r = sys.run();
        // The FM index lives on the CXLG-DIMMs; their chip histograms are
        // the only ones with traffic.
        let hist = sys.cxlg_chip_histogram().unwrap();
        assert!(hist.total() > 0);
        assert_eq!(r.tasks, 8);
    }

    #[test]
    fn kmer_atomics_reach_switch_logic_on_s() {
        // k-mer counting on BEACON-S: RMWs are served by the switch PEs.
        let g = Genome::synthetic(GenomeId::Human, 2000, 3);
        let counter = beacon_genomics::kmer::KmerCounter::new(28, 1 << 16, 3, 7);
        let mut sampler = ReadSampler::new(&g, 60, 0.01, 4);
        let traces: Vec<TaskTrace> = (0..8)
            .map(|_| counter.trace_read(&sampler.next_read()))
            .collect();

        let app = beacon_genomics::trace::AppKind::KmerCounting;
        let mut cfg =
            BeaconConfig::paper_s(app).with_opts(Optimizations::full(BeaconVariant::S, app));
        small(&mut cfg);
        let specs = [LayoutSpec::shared_random(Region::Bloom, 1 << 16)];
        let layout = build_layout(&cfg, &specs);
        let mut sys = BeaconSystem::new(cfg, layout);
        sys.submit_round_robin(traces);
        let r = sys.run();
        assert_eq!(r.tasks, 8);
        assert!(r.engine.get("logic.atomics") > 0);
        // Both the read and write phase hit DRAM.
        assert!(r.dram.get("dram.cmd.write") > 0);
    }
}
