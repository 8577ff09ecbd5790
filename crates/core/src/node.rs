//! One switch subtree of the pool: the CXL switch fabric, its in-switch
//! logic and the DIMM slots behind it, plus their checkpoint codec.
//!
//! A slot is one standard CXL-DIMM — a [`DimmServer`], the table of
//! remote requests it is serving and its port egress. A CXLG-DIMM is the
//! same slot with an NDP module added on the PCB (paper §"BEACON-D"): the
//! optional [`Compute`] part holds its task engine, pending-access table
//! and retry state. Unmodified CXL-DIMMs (the memory-expansion pool,
//! rank-lock-step devices with a standard CXL.mem interface) carry no
//! compute part, and their read responses round up to whole 64 B lines.

#[cfg(test)]
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

use std::fmt::Write as _;

use beacon_sim::component::{Probe, Tick};
use beacon_sim::cycle::{Cycle, Duration};
use beacon_sim::faults::{stream, FaultSchedule};
use beacon_sim::horizon::HorizonCache;
use beacon_sim::journey::{JGate, JStamp, Phase, QueueAcc};
use beacon_sim::observer::Observer;
use beacon_sim::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use beacon_sim::stats::Stats;
use beacon_sim::trace::{TraceCategory, TraceEvent, TraceLevel};

use beacon_accel::pending::PendingTable;
use beacon_accel::server::{DimmServer, ServiceOp};
use beacon_accel::task::{AccessToken, IssuedAccess, TaskEngine};
use beacon_accel::translate::RegionMap;
use beacon_cxl::bundle::Bundle;
use beacon_cxl::message::{Message, MsgKind, NodeId};
use beacon_cxl::packer::DataPacker;
use beacon_cxl::switch::{Switch, SwitchConfig};
use beacon_dram::address::DramCoord;
use beacon_dram::module::DimmConfig;
use beacon_genomics::trace::{AccessKind, TaskTrace};

use crate::config::{BeaconConfig, BeaconVariant, FaultsConfig};
use crate::mmf::RemapPlan;

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

/// Stores `entry` in a serve table, reusing a freed index when one is
/// available, and returns its index.
fn alloc_serve<T>(table: &mut Vec<T>, free: &mut Vec<u32>, entry: T) -> u32 {
    match free.pop() {
        Some(i) => {
            table[i as usize] = entry;
            i
        }
        None => {
            table.push(entry);
            (table.len() - 1) as u32
        }
    }
}

/// Moves a tracked request's stamp to phase `next` at `now`, recording
/// the phase it leaves into `obs`'s journey recorder.
#[inline]
fn hop(obs: &mut Observer, mut stamp: JStamp, now: Cycle, next: Phase) -> JStamp {
    if let Some(j) = &mut obs.journey {
        j.hop(&mut stamp, now, next);
    }
    stamp
}

/// Removes and returns the journey stamp the server finished alongside
/// request `id`, if the request was tracked.
#[inline]
fn take_stamp(jny: &mut Vec<(u64, JStamp)>, id: u64) -> Option<JStamp> {
    if jny.is_empty() {
        return None;
    }
    let pos = jny.iter().position(|(jid, _)| *jid == id)?;
    Some(jny.swap_remove(pos).1)
}

/// Sender-side egress: optional packer plus a retry buffer for
/// back-pressured bundles.
#[derive(Debug)]
pub(crate) struct Egress {
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

    fn push(&mut self, msg: Message, now: Cycle, obs: &mut Observer) {
        match &mut self.packer {
            Some(p) => p.push(msg, now, obs),
            None => self.queue.push_back(Bundle::single(msg)),
        }
    }

    /// Moves packer output into the retry queue.
    fn collect(&mut self, now: Cycle, obs: &mut Observer) {
        if let Some(p) = &mut self.packer {
            p.tick(now, obs);
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

    /// [`Egress::next_event`] from scratch, past the packer's memo.
    #[cfg(any(test, debug_assertions))]
    fn reference_next_event(&self) -> Cycle {
        if !self.queue.is_empty() {
            return Cycle::ZERO;
        }
        self.packer
            .as_ref()
            .map_or(Cycle::NEVER, DataPacker::compute_next_event)
    }

    pub(crate) fn stats(&self) -> Option<&Stats> {
        self.packer.as_ref().map(DataPacker::stats)
    }
}

/// The NDP module a CXLG-DIMM adds to a standard CXL-DIMM: the task
/// engine and the requester-side state of the accesses it issues.
#[derive(Debug)]
pub(crate) struct Compute {
    pub(crate) engine: TaskEngine,
    pending: PendingTable,
    map_idx: usize,
    /// Nak retry state; `None` on a pristine machine.
    ras: Option<Box<RasState>>,
    /// Precomputed class label for attribution rollups (no per-request
    /// formatting on the hot path).
    jny_label: Box<str>,
}

impl Compute {
    /// Closes one segment of this module's access `pid`: the tracked
    /// journey (if any) ends here, and the last segment hands the data
    /// token back to the engine.
    fn complete(&mut self, pid: u64, stamp: Option<&JStamp>, now: Cycle, obs: &mut Observer) {
        if let Some(stamp) = stamp {
            SwitchNode::journey_finish(stamp, &self.jny_label, now, obs);
        }
        if let Some((token, _)) = self.pending.complete_one(pid) {
            ras_done(&mut self.ras, pid);
            self.engine.on_data(token, now, obs);
        }
    }
}

/// One DIMM slot behind a switch port: a standard CXL-DIMM, plus the
/// NDP module when the slot holds a CXLG-DIMM. The compute part sits
/// inline so driving a slot chases no extra pointer.
#[derive(Debug)]
pub(crate) struct Slot {
    node: NodeId,
    pub(crate) server: DimmServer,
    serve: Vec<ServeEntry>,
    free_serve: Vec<u32>,
    pub(crate) egress: Egress,
    /// `Some` on a CXLG-DIMM, `None` on an unmodified CXL-DIMM.
    pub(crate) compute: Option<Compute>,
    /// Backlog-depth integral for the attribution report (server
    /// backlog plus DRAM queue), observed after each drive of the slot
    /// and after its injected failure. Plain field, never digested.
    pub(crate) q_backlog: QueueAcc,
}

impl Slot {
    /// The slot's horizon apart from its server: the egress and, on a
    /// CXLG-DIMM, the task engine.
    fn local_horizon(&self) -> Cycle {
        self.egress.next_event().min(self.engine_horizon())
    }

    /// The task engine's horizon; [`Cycle::NEVER`] on an unmodified DIMM.
    fn engine_horizon(&self) -> Cycle {
        self.compute
            .as_ref()
            .map_or(Cycle::NEVER, |c| c.engine.next_event())
    }

    /// The slot's endpoint horizon: engine, server and egress.
    fn horizon(&self) -> Cycle {
        self.local_horizon().min(self.server.next_event())
    }

    /// [`Slot::horizon`] from scratch, read past every memo.
    #[cfg(any(test, debug_assertions))]
    fn reference_horizon(&self) -> Cycle {
        self.egress
            .reference_next_event()
            .min(self.server.reference_next_event())
            .min(self.engine_horizon())
    }

    /// Folds the backlog depth into its integral when the run records
    /// journeys (no-op otherwise).
    #[inline]
    fn observe_depth(&mut self, now: Cycle, obs: &Observer) {
        if obs.journey.is_some() {
            let depth = self.server.backlog_len() + self.server.dimm().queue_len();
            self.q_backlog.observe_if_changed(depth, now);
        }
    }

    fn is_idle(&self) -> bool {
        // A CXLG engine with tasks left answers first and cheapest.
        self.compute
            .as_ref()
            .is_none_or(|c| c.engine.all_done() && c.pending.is_empty())
            && self.server.is_idle()
            && self.egress.is_idle()
    }
}

/// The in-switch logic: the switch MC and Atomic Engine in both variants,
/// plus BEACON-S's compute engine. It is not a [`Compute`]: on BEACON-D
/// it has no engine yet keeps its pending and retry tables, which the
/// `core.switch` wire carries either way.
#[derive(Debug)]
pub(crate) struct LogicNode {
    /// BEACON-S compute engine.
    pub(crate) engine: Option<TaskEngine>,
    map_idx: usize,
    pending: PendingTable,
    serve: Vec<LogicServe>,
    free_serve: Vec<u32>,
    pub(crate) egress: Egress,
    /// Atomic-ALU results waiting to start their write phase.
    alu_stage: VecDeque<(Cycle, u32)>,
    pub(crate) stats: Stats,
    /// Nak retry state; `None` on a pristine machine.
    ras: Option<Box<RasState>>,
    /// Precomputed class label for attribution rollups.
    jny_label: Box<str>,
}

impl LogicNode {
    /// The logic's own horizon over its egress term `egress`: an
    /// ALU-stage writeback or engine progress. The inbox term belongs
    /// to the fabric.
    fn horizon(&self, egress: Cycle) -> Cycle {
        let mut h = egress;
        if let Some(&(ready, _)) = self.alu_stage.front() {
            h = h.min(ready);
        }
        if let Some(e) = &self.engine {
            h = h.min(e.next_event());
        }
        h
    }

    /// Closes one segment of the logic's own access `pid` (see
    /// [`Compute::complete`]).
    fn complete(&mut self, pid: u64, stamp: Option<&JStamp>, now: Cycle, obs: &mut Observer) {
        if let Some(stamp) = stamp {
            SwitchNode::journey_finish(stamp, &self.jny_label, now, obs);
        }
        if let Some((token, _)) = self.pending.complete_one(pid) {
            ras_done(&mut self.ras, pid);
            if let Some(e) = self.engine.as_mut() {
                e.on_data(token, now, obs);
            }
        }
    }
}

/// A same-switch RMW short-circuited into the logic serve table:
/// (pending id, DRAM coordinate, payload bytes, requesting node,
/// journey stamp when the access is tracked).
type LocalRmw = (u64, DramCoord, u32, NodeId, Option<JStamp>);

/// One switch subtree: the fabric, its in-switch logic and the DIMMs
/// behind it. Everything under a `SwitchNode` only talks to the rest of
/// the pool through the uplink, which is what makes it an independently
/// advanceable shard for [`crate::parallel`].
#[derive(Debug)]
pub(crate) struct SwitchNode {
    pub(crate) index: usize,
    pub(crate) fabric: Switch,
    pub(crate) logic: LogicNode,
    pub(crate) dimms: Vec<Slot>,
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
    /// Queue-depth integrals for the attribution report, observed once
    /// per executed tick (each slot keeps its own backlog integral).
    /// Fast-forwarded spans extend the last plateau, so the accounting
    /// stays exact. Plain fields, never digested.
    pub(crate) q_staged: QueueAcc,
    pub(crate) q_inbox: QueueAcc,
    /// Memoized endpoint horizon per slot (engine ∧ server ∧ egress;
    /// the port-arrival term is the fabric's). [`SwitchNode::slot_due`]
    /// and [`SwitchNode::subtree_next_event`] both fill it, so the slot
    /// gate and the engine's probe share one fold per change. A slot's
    /// endpoints mutate only in [`SwitchNode::drive_slot`], at task
    /// submission and on the injected DIMM failure, and each clears it
    /// (DESIGN.md §11.1).
    slot_h: Vec<HorizonCache>,
    /// Memoized non-fabric horizon of the subtree: the logic's egress,
    /// ALU stage and engine, plus the min over `slot_h`. Cleared
    /// wherever a slot memo is, and by a drive of or a submission to
    /// the logic. The fabric and pending-death terms stay live (the
    /// fabric memoizes its own), so host traffic through the uplink
    /// needs no hook here.
    local_h: HorizonCache,
    /// Work counts the deterministic work pin reads.
    #[cfg(test)]
    work: WorkCounts,
    /// Run-local sampling gate: armed from the run's journey recorder at
    /// run entry ([`crate::system::BeaconSystem`]'s `arm`), consulted on
    /// every access this subtree issues, summed into the report at
    /// collect. Plain field, never digested.
    pub(crate) jgate: Option<JGate>,
    /// Scheduled hard failure of one of this switch's DIMMs. A pending
    /// failure is a time-driven fault: `subtree_next_event` surfaces it
    /// so fast-forwarding cannot jump over the death.
    ras_fail: Option<SlotFault>,
}

/// Horizon work one switch did, counted for the deterministic work pin.
#[cfg(test)]
#[derive(Debug, Default)]
struct WorkCounts {
    /// Slot memos a probe refolded.
    probe_folds: Cell<u64>,
    /// Slot memo clears: slot drives, task submissions and failures.
    slot_changes: Cell<u64>,
    /// Ticks the switch gate skipped.
    quiet_ticks: Cell<u64>,
}

/// Read-only system context threaded through the per-switch drivers so
/// a [`SwitchNode`] can advance without borrowing the whole
/// [`crate::system::BeaconSystem`].
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

impl SwitchNode {
    /// Builds switch `s` of `cfg`: the fabric from `fabric`, the
    /// in-switch logic, and one slot per DIMM — CXLG-DIMMs on `cxlg`
    /// timing with a compute part, unmodified ones on `unmod`. Trace
    /// tracks are labelled with their place in the topology, and the
    /// configured fault schedule is armed.
    pub(crate) fn new(
        cfg: &BeaconConfig,
        s: u32,
        mut fabric: SwitchConfig,
        cxlg: DimmConfig,
        unmod: DimmConfig,
    ) -> Self {
        fabric.index = s;
        let packing = cfg.opts.data_packing;
        let flush_age = cfg.packer_flush_age;
        let slots = cfg.slots_per_switch();
        // Labels read `sw0.dimm2.dram` rather than a pile of identical
        // `dram` rows in exported traces.
        let dimms = (0..slots)
            .map(|slot| {
                let label = format!("sw{s}.dimm{slot}");
                let is_cxlg = cfg.slot_is_cxlg(slot);
                let mut server = DimmServer::new(if is_cxlg { cxlg } else { unmod });
                server.set_trace_id(format!("{label}.dram"));
                // Unmodified DIMMs keep the standard CXL.mem interface:
                // no packer.
                let mut egress = Egress::new(is_cxlg && packing, flush_age);
                if let Some(p) = egress.packer.as_mut() {
                    p.set_trace_id(format!("{label}.packer"));
                }
                let compute = is_cxlg.then(|| {
                    let mut engine = TaskEngine::new(cfg.pes_per_module, cfg.pe_latency);
                    engine.set_trace_id(format!("{label}.engine"));
                    Compute {
                        engine,
                        pending: PendingTable::new(),
                        map_idx: (s * cfg.cxlg_per_switch + slot) as usize,
                        ras: None,
                        jny_label: label.into_boxed_str(),
                    }
                });
                Slot {
                    node: NodeId::dimm(s, slot),
                    server,
                    serve: Vec::new(),
                    free_serve: Vec::new(),
                    egress,
                    compute,
                    q_backlog: QueueAcc::default(),
                }
            })
            .collect();
        let mut logic_engine = match cfg.variant {
            BeaconVariant::S => Some(TaskEngine::new(cfg.pes_per_module, cfg.pe_latency)),
            BeaconVariant::D => None,
        };
        if let Some(e) = logic_engine.as_mut() {
            e.set_trace_id(format!("sw{s}.logic.engine"));
        }
        let mut logic_egress = Egress::new(packing, flush_age);
        if let Some(p) = logic_egress.packer.as_mut() {
            p.set_trace_id(format!("sw{s}.logic.packer"));
        }
        let slots = slots as usize;
        let mut node = SwitchNode {
            index: s as usize,
            fabric: Switch::new(fabric),
            logic: LogicNode {
                engine: logic_engine,
                map_idx: s as usize,
                pending: PendingTable::new(),
                serve: Vec::new(),
                free_serve: Vec::new(),
                egress: logic_egress,
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
            slot_h: vec![HorizonCache::new(); slots],
            local_h: HorizonCache::new(),
            #[cfg(test)]
            work: WorkCounts::default(),
            jgate: None,
            ras_fail: None,
        };
        if let Some(fc) = &cfg.faults {
            node.arm_faults(fc);
        }
        node
    }

    /// Arms the fault schedule on this switch. Every stream is derived
    /// from the one seed and a stable component coordinate, so the
    /// schedule is identical across thread counts and with skipping on
    /// or off.
    fn arm_faults(&mut self, fc: &FaultsConfig) {
        let sched = FaultSchedule::new(fc.seed);
        let h = fc.horizon;
        let si = self.index as u32;
        let crc = |port: usize, dir: u32| {
            sched.stream(
                stream::id(stream::LINK_CRC, si, port as u32, dir),
                fc.link_crc_per_mcycle,
                h,
            )
        };
        self.fabric.install_crc_faults(
            Switch::UPLINK,
            crc(Switch::UPLINK, 0),
            crc(Switch::UPLINK, 1),
        );
        // Arm requester-side retry tables.
        self.logic.ras = Some(Box::default());
        for (slot, d) in self.dimms.iter_mut().enumerate() {
            let port = self.fabric.dimm_port(slot as u32);
            self.fabric
                .install_crc_faults(port, crc(port, 0), crc(port, 1));
            self.fabric.install_port_flaps(
                port,
                sched.stream(
                    stream::id(stream::PORT_FLAP, si, port as u32, 0),
                    fc.port_flap_per_mcycle,
                    h,
                ),
                fc.flap_down_cycles,
            );
            match &mut d.compute {
                Some(c) => c.ras = Some(Box::default()),
                // Uncorrectable errors hit the unmodified expansion
                // DIMMs; CXLG modules scrub their local accesses.
                None => d.server.set_ue_faults(sched.stream(
                    stream::id(stream::DIMM_UE, si, slot as u32, 0),
                    fc.dimm_ue_per_mcycle,
                    h,
                )),
            }
        }
        if fc.dimm_fail_at > 0 && fc.dimm_fail_switch == si {
            self.ras_fail = Some(SlotFault {
                slot: fc.dimm_fail_slot as usize,
                at: Cycle::new(fc.dimm_fail_at),
                done: false,
            });
        }
    }

    /// Submits a task to the compute part of `slot` (BEACON-D), tracing
    /// the submission into `obs`.
    pub(crate) fn submit_to_slot(&mut self, slot: usize, trace: TaskTrace, obs: &mut Observer) {
        let Some(c) = &mut self.dimms[slot].compute else {
            panic!(
                "compute modules map to CXLG slots, but switch {} slot {slot} is unmodified",
                self.index
            );
        };
        // Multi-purpose PEs: pick the engine (and its latency) from the
        // task's application.
        c.engine.submit_for_app(trace, obs);
        self.slot_changed(slot);
    }

    /// Submits a task to the in-switch logic's compute engine
    /// (BEACON-S), tracing the submission into `obs`.
    pub(crate) fn submit_to_logic(&mut self, trace: TaskTrace, obs: &mut Observer) {
        self.logic
            .engine
            .as_mut()
            .expect("S has logic engines")
            .submit_for_app(trace, obs);
        self.local_h.invalidate();
    }

    /// Clears the horizon memos a mutation of `slot` stales.
    fn slot_changed(&self, slot: usize) {
        self.slot_h[slot].invalidate();
        self.local_h.invalidate();
        #[cfg(test)]
        self.work.slot_changes.set(self.work.slot_changes.get() + 1);
    }

    /// Terminal attribution for a tracked request: record the residency
    /// of the final phase, the end-to-end total under `class`, and emit
    /// the closing flow event.
    fn journey_finish(stamp: &JStamp, class: &str, now: Cycle, obs: &mut Observer) {
        if let Some(j) = &mut obs.journey {
            j.arrive(stamp, now);
            j.total(stamp, now, class);
        }
        if let Some(tr) = obs.trace_at(TraceLevel::Flit) {
            tr.record(
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
        obs: &mut Observer,
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
        // the per-access fast path costs a hash and a compare.
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
            if let Some(tr) = obs.trace_at(TraceLevel::Flit) {
                tr.record(
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
                    let seg_jny = jny.map(|st| hop(obs, st, now, Phase::BankQueue));
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
            egress.push(msg, now, obs);
        }
    }

    // ----- switch logic -------------------------------------------------

    /// Issues the read phase of an atomic served by this switch's logic.
    fn logic_start_atomic(&mut self, entry: LogicServe, now: Cycle, obs: &mut Observer) {
        let sidx = alloc_serve(&mut self.logic.serve, &mut self.logic.free_serve, entry);
        self.logic.stats.incr("logic.atomics");
        self.logic_phase(MsgKind::ReadReq, sidx, now, obs);
    }

    /// Sends one DIMM phase (`ReadReq` or `WriteReq`) of the atomic in
    /// logic serve slot `sidx`.
    fn logic_phase(&mut self, kind: MsgKind, sidx: u32, now: Cycle, obs: &mut Observer) {
        let entry = self.logic.serve[sidx as usize];
        let msg = Message {
            src: NodeId::SwitchLogic(self.index as u32),
            dst: entry.dimm,
            kind,
            payload_bytes: entry.bytes,
            tag: LOGIC_BIT | sidx as u64,
            aux: entry.coord.pack(),
            via_host: entry.via_host,
            // The whole DIMM round trip is the atomic's `Serve` span;
            // its internal phase operations are not separately stamped.
            jny: None,
        };
        self.logic.egress.push(msg, now, obs);
    }

    fn drive_logic(&mut self, ctx: SysCtx<'_>, now: Cycle, obs: &mut Observer) {
        // 1. Incoming bundles addressed to this logic.
        while let Some(bundle) = self.fabric.logic_recv() {
            for msg in bundle.messages {
                self.handle_logic_message(ctx, msg, now, obs);
            }
        }

        // 2. ALU stage: atomics whose read phase returned start writing.
        while let Some(&(ready, sidx)) = self.logic.alu_stage.front() {
            if ready > now {
                break;
            }
            self.logic.alu_stage.pop_front();
            self.logic_phase(MsgKind::WriteReq, sidx, now, obs);
        }

        // 3. The S-variant compute engine. Issued accesses and the
        // same-switch RMW short-circuits go through reusable scratch
        // buffers (taken out of `self` around the loops that need
        // `&mut self` methods).
        if self.logic.engine.is_some() {
            debug_assert!(self.issued_scratch.is_empty());
            self.logic.engine.as_mut().expect("checked").tick_into(
                now,
                &mut self.issued_scratch,
                obs,
            );
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
                    obs,
                );
            }
            self.issued_scratch = issued;
            self.start_local_rmws(ctx, local_rmws, now, obs);
        }

        // 4. Pump egress onto the switch-bus.
        self.logic.egress.collect(now, obs);
        while let Some(bundle) = self.logic.egress.queue.pop_front() {
            self.fabric.logic_send(bundle, now, obs);
        }
        self.local_h.invalidate();
    }

    fn handle_logic_message(
        &mut self,
        ctx: SysCtx<'_>,
        msg: Message,
        now: Cycle,
        obs: &mut Observer,
    ) {
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
                    jny: msg.jny.map(|st| hop(obs, st, now, Phase::Serve)),
                };
                self.logic_start_atomic(entry, now, obs);
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
                            self.logic
                                .complete(entry.orig_tag, entry.jny.as_ref(), now, obs);
                        } else {
                            let ack = Message {
                                src: NodeId::SwitchLogic(self.index as u32),
                                dst: requester,
                                kind: MsgKind::Ack,
                                payload_bytes: 0,
                                tag: entry.orig_tag,
                                aux: 0,
                                via_host: entry.via_host,
                                jny: entry.jny.map(|st| JStamp {
                                    resp: true,
                                    ..hop(obs, st, now, Phase::Return)
                                }),
                            };
                            self.logic.egress.push(ack, now, obs);
                        }
                    }
                }
            }
            MsgKind::ReadResp | MsgKind::Ack => {
                // Response for the S-variant engine's plain access.
                self.logic.complete(msg.tag, msg.jny.as_ref(), now, obs);
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
                    self.logic_retry_or_drop(ctx, entry.orig_tag, now, obs);
                } else {
                    self.logic.stats.incr("ras.naks");
                    self.logic.egress.push(
                        Message::nak_to(self_node, entry.requester, entry.orig_tag, entry.via_host),
                        now,
                        obs,
                    );
                }
            }
            MsgKind::Nak => {
                // A plain access of the S engine hit a dead or poisoned
                // DIMM.
                self.logic_retry_or_drop(ctx, msg.tag, now, obs);
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
    fn logic_retry_or_drop(&mut self, ctx: SysCtx<'_>, pid: u64, now: Cycle, obs: &mut Observer) {
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
                e.on_data(ia.token, now, obs);
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
            obs,
        );
        self.start_local_rmws(ctx, local_rmws, now, obs);
    }

    /// Starts the same-switch RMWs the logic's own engine issued, then
    /// returns the drained buffer to its scratch slot.
    fn start_local_rmws(
        &mut self,
        ctx: SysCtx<'_>,
        mut local_rmws: Vec<LocalRmw>,
        now: Cycle,
        obs: &mut Observer,
    ) {
        let self_node = NodeId::SwitchLogic(self.index as u32);
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
                jny: jny.map(|st| hop(obs, st, now, Phase::Serve)),
            };
            self.logic_start_atomic(entry, now, obs);
        }
        self.rmw_scratch = local_rmws;
    }

    // ----- DIMM slots ----------------------------------------------------

    fn drive_slot(&mut self, ctx: SysCtx<'_>, slot: usize, now: Cycle, obs: &mut Observer) {
        let port = self.fabric.dimm_port(slot as u32);

        // 1. Deliver incoming bundles.
        while let Some(bundle) = self.fabric.endpoint_recv(port, now, obs) {
            for msg in bundle.messages {
                self.handle_slot_message(ctx, slot, msg, now, obs);
            }
        }

        // 2. A CXLG engine issues accesses (through the reusable scratch).
        let d = &mut self.dimms[slot];
        if let Some(c) = &mut d.compute {
            debug_assert!(self.issued_scratch.is_empty());
            c.engine.tick_into(now, &mut self.issued_scratch, obs);
            for ia in self.issued_scratch.drain(..) {
                Self::dispatch_access(
                    ctx.cfg,
                    &ctx.maps_at(now)[c.map_idx],
                    d.node,
                    ia,
                    &mut c.pending,
                    Some(&mut d.server),
                    &mut d.egress,
                    None,
                    self.jgate.as_mut(),
                    c.ras.as_deref_mut().map(|r| (r, 0)),
                    now,
                    obs,
                );
            }
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
        d.server.tick_observed(now, obs);
        d.server.drain_done_into(&mut self.done_scratch);
        d.server.drain_poisoned_into(&mut self.poison_scratch);
        d.server.drain_jny_done_into(&mut self.jny_scratch);
        Self::split_server_done(
            &mut self.done_scratch,
            &mut d.serve,
            &mut d.free_serve,
            d.node,
            d.compute.is_none(),
            &self.poison_scratch,
            &mut self.jny_scratch,
            &mut self.resp_scratch,
            &mut self.comp_scratch,
        );
        if !self.poison_scratch.is_empty() {
            // UE streams are installed only on serve-only unmodified
            // DIMMs, so every poisoned completion nak'd a remote
            // requester.
            debug_assert!(self.poison_scratch.iter().all(|id| id & SERVE_BIT != 0));
            self.logic
                .stats
                .add("ras.naks", self.poison_scratch.len() as u64);
            self.poison_scratch.clear();
        }
        for msg in self.resp_scratch.drain(..) {
            d.egress.push(msg, now, obs);
        }
        // Only a compute part issues local accesses, so an unmodified
        // DIMM has no completions to close.
        if let Some(c) = &mut d.compute {
            for pid in self.comp_scratch.drain(..) {
                let stamp = take_stamp(&mut self.jny_scratch, pid);
                c.complete(pid, stamp.as_ref(), now, obs);
            }
        }
        // Every finished stamp was attached to a response or closed
        // above; anything left would leak lookups into later ticks.
        debug_assert!(self.jny_scratch.is_empty());
        self.jny_scratch.clear();

        // 4. Pump egress onto the port link (with back-pressure retry).
        d.egress.collect(now, obs);
        Self::pump_port(&mut self.fabric, port, &mut d.egress, now, obs);
        d.observe_depth(now, obs);
        // The drive above is the only steady-state mutator of this
        // slot's endpoints; refold the memos lazily on the next probe.
        self.slot_changed(slot);
    }

    fn pump_port(
        fabric: &mut Switch,
        port: usize,
        egress: &mut Egress,
        now: Cycle,
        obs: &mut Observer,
    ) {
        while let Some(bundle) = egress.queue.pop_front() {
            match fabric.endpoint_send(port, bundle, now, obs) {
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
                let stamp = take_stamp(jny, id);
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
                let (kind, payload_bytes) = match entry.kind {
                    MsgKind::ReadReq if inflate_lines => {
                        (MsgKind::ReadResp, entry.bytes.div_ceil(64) * 64)
                    }
                    MsgKind::ReadReq => (MsgKind::ReadResp, entry.bytes),
                    _ => (MsgKind::Ack, 0),
                };
                responses.push(Message {
                    src: node,
                    dst: entry.requester,
                    kind,
                    payload_bytes,
                    tag: entry.orig_tag,
                    aux: 0,
                    via_host: entry.via_host,
                    jny: stamp,
                });
            } else {
                completions.push(id);
            }
        }
    }

    fn handle_slot_message(
        &mut self,
        ctx: SysCtx<'_>,
        slot: usize,
        msg: Message,
        now: Cycle,
        obs: &mut Observer,
    ) {
        let d = &mut self.dimms[slot];
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
                let jny = msg.jny.map(|st| {
                    let st = hop(obs, st, now, Phase::BankQueue);
                    if let Some(tr) = obs.trace_at(TraceLevel::Flit) {
                        tr.record(
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
                debug_assert!(
                    d.compute.is_some() || msg.kind != MsgKind::AtomicReq,
                    "atomics to unmodified DIMMs must be intercepted by the switch logic"
                );
                if d.server.is_failed() {
                    // The DIMM is dead: bounce the request straight back
                    // so the requester re-homes it (the tracked journey,
                    // if any, is dropped).
                    d.egress.push(
                        Message::nak_to(d.node, msg.src, msg.tag, msg.via_host),
                        now,
                        obs,
                    );
                    self.logic.stats.incr("ras.naks");
                    return;
                }
                let sidx = alloc_serve(&mut d.serve, &mut d.free_serve, entry);
                d.server
                    .request_with(SERVE_BIT | sidx as u64, coord, msg.payload_bytes, op, jny);
            }
            MsgKind::ReadResp | MsgKind::Ack => match &mut d.compute {
                Some(c) => c.complete(msg.tag, msg.jny.as_ref(), now, obs),
                None => debug_assert!(false, "unmodified DIMM received a response"),
            },
            MsgKind::Nak => {
                // One segment of a CXLG engine's access hit a dead or
                // poisoned DIMM: the first nak hands the token back and
                // re-issues the whole logical access under the map epoch
                // in force at `now`; stragglers just drain.
                let Some(c) = &mut d.compute else {
                    debug_assert!(false, "unmodified DIMM received a nak");
                    return;
                };
                if c.pending.poison_one(msg.tag).is_none() {
                    return;
                }
                let (ia, retries) = c
                    .ras
                    .as_mut()
                    .and_then(|r| r.inflight.remove(&msg.tag))
                    .expect("nak'd access must be tracked");
                if retries >= MAX_ACCESS_RETRIES {
                    self.logic.stats.incr("ras.dropped");
                    c.engine.on_data(ia.token, now, obs);
                } else {
                    self.logic.stats.incr("ras.requeued");
                    Self::dispatch_access(
                        ctx.cfg,
                        &ctx.maps_at(now)[c.map_idx],
                        d.node,
                        ia,
                        &mut c.pending,
                        Some(&mut d.server),
                        &mut d.egress,
                        None,
                        self.jgate.as_mut(),
                        c.ras.as_deref_mut().map(|r| (r, retries + 1)),
                        now,
                        obs,
                    );
                }
            }
            MsgKind::Control => {}
        }
    }

    // ----- shard surface -------------------------------------------------

    /// Executes a scheduled whole-DIMM hard failure once `now` reaches
    /// its cycle: the DIMM aborts everything it holds, and every aborted
    /// operation naks its remote requester (unmodified DIMMs never issue
    /// requests of their own, so every casualty has one). Shard-local
    /// and identical under the sequential and parallel engines.
    fn apply_dimm_failure(&mut self, now: Cycle, obs: &mut Observer) {
        let Some(f) = &mut self.ras_fail else { return };
        if f.done || now < f.at {
            return;
        }
        f.done = true;
        let slot = f.slot;
        let d = &mut self.dimms[slot];
        let None = d.compute else {
            panic!(
                "validate() restricts hard failures to unmodified slots, but slot {slot} is CXLG"
            );
        };
        // One-time path: a fresh Vec beats threading scratch here.
        let mut lost = Vec::new();
        d.server.fail_into(&mut lost);
        for id in &lost {
            debug_assert!(id & SERVE_BIT != 0, "unmodified DIMMs only serve");
            let sidx = (id & !SERVE_BIT) as usize;
            let entry = d.serve[sidx];
            debug_assert!(entry.in_use);
            d.serve[sidx].in_use = false;
            d.free_serve.push(sidx as u32);
            d.egress.push(
                Message::nak_to(d.node, entry.requester, entry.orig_tag, entry.via_host),
                now,
                obs,
            );
        }
        self.logic.stats.incr("ras.dimm_killed");
        self.logic.stats.add("ras.naks", lost.len() as u64);
        self.slot_changed(slot);
        self.dimms[slot].observe_depth(now, obs);
    }

    /// Advances this switch subtree by one cycle: fabric, in-switch
    /// logic, then every DIMM slot — exactly the per-switch slice of the
    /// sequential [`beacon_sim::component::Tick::tick`] loop. Trace
    /// events and journey records go to `obs`.
    pub(crate) fn tick_cycle(&mut self, ctx: SysCtx<'_>, now: Cycle, obs: &mut Observer) {
        // Switch gate: a clean subtree memo means nothing under this
        // switch changed since the last probe, so when no term is due by
        // `now` every step below is a no-op. A dirty memo is not refolded
        // here — a dense phase dirties it every cycle — and the per-part
        // gates below decide instead.
        if self.quiet(now) {
            #[cfg(debug_assertions)]
            self.assert_skip("switch", self.reference_next_event(), now);
            #[cfg(test)]
            self.work.quiet_ticks.set(self.work.quiet_ticks.get() + 1);
            return;
        }
        self.apply_dimm_failure(now, obs);
        self.fabric.tick_observed(now, obs);
        // Drive only the endpoints that can act this cycle. Each gate is
        // the same per-component horizon the engine-level skip already
        // trusts, plus the port's link-arrival horizon — before it, the
        // endpoint's receive pump is guaranteed empty and every drive
        // step below is a no-op.
        if self.logic_horizon() <= now {
            self.drive_logic(ctx, now, obs);
        } else {
            #[cfg(debug_assertions)]
            self.assert_skip("logic", self.reference_logic_horizon(), now);
        }
        for slot in 0..self.dimms.len() {
            if self.slot_due(slot, now) {
                self.drive_slot(ctx, slot, now, obs);
            } else {
                #[cfg(debug_assertions)]
                self.assert_skip("slot", self.dimms[slot].reference_horizon(), now);
            }
        }
        self.observe_switch_queues(now, obs);
    }

    /// [`SwitchNode::tick_cycle`] without its gates: drives the fabric,
    /// the logic and every slot on every cycle. A gate may only skip a
    /// drive that would have been a no-op, so this is the reference the
    /// gated tick must match cycle for cycle.
    #[cfg(test)]
    pub(crate) fn tick_cycle_ungated(&mut self, ctx: SysCtx<'_>, now: Cycle, obs: &mut Observer) {
        self.apply_dimm_failure(now, obs);
        self.fabric.tick_observed(now, obs);
        self.drive_logic(ctx, now, obs);
        for slot in 0..self.dimms.len() {
            self.drive_slot(ctx, slot, now, obs);
        }
        self.observe_switch_queues(now, obs);
    }

    /// Folds the switch-level queue depths into their attribution
    /// integrals. They only mutate inside a tick, so a check per executed
    /// tick is exact; the unchanged case (the common one) is a compare
    /// per queue.
    fn observe_switch_queues(&mut self, now: Cycle, obs: &Observer) {
        if obs.journey.is_some() {
            self.q_staged
                .observe_if_changed(self.fabric.staged_len(), now);
            self.q_inbox
                .observe_if_changed(self.fabric.logic_inbox_len(), now);
        }
    }

    /// True when the switch gate may skip the tick at `now`: the subtree
    /// memo is clean and neither it, the fabric nor a pending DIMM death
    /// is due.
    fn quiet(&self, now: Cycle) -> bool {
        self.local_h.clean().is_some_and(|h| h > now)
            && self.death_horizon() > now
            && self.fabric.next_event() > now
    }

    /// The cycle of a pending DIMM death. It is a time-driven fault:
    /// fast-forwarding must stop at (or before) it, or the kill cycle
    /// would depend on the skip pattern.
    fn death_horizon(&self) -> Cycle {
        match &self.ras_fail {
            Some(f) if !f.done => f.at,
            _ => Cycle::NEVER,
        }
    }

    /// The in-switch logic's event horizon: the earliest cycle at which
    /// [`SwitchNode::drive_logic`] can do anything — inbox delivery, an
    /// ALU-stage writeback, engine progress, or an egress pump.
    fn logic_horizon(&self) -> Cycle {
        if self.fabric.logic_inbox_len() > 0 {
            return Cycle::ZERO;
        }
        self.logic.horizon(self.logic.egress.next_event())
    }

    /// True when [`SwitchNode::drive_slot`] can do anything at `now` — a
    /// bundle landing on the slot's port, engine or server progress, or
    /// an egress pump. The server term is [`DimmServer::due`], which
    /// stops at the first due term; a probe that finds none has folded
    /// the exact endpoint horizon into the slot's memo.
    fn slot_due(&self, slot: usize, now: Cycle) -> bool {
        let port = self.fabric.dimm_port(slot as u32);
        if self.fabric.port_arrival(port) <= now {
            return true;
        }
        let d = &self.dimms[slot];
        self.slot_h[slot].due(now, |_| {
            let local = d.local_horizon();
            if local <= now || d.server.due(now) {
                // A due term bounds the horizon; the drive clears it.
                return local.min(now);
            }
            local.min(d.server.next_event())
        })
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
            && self.dimms.iter().all(Slot::is_idle)
    }

    /// This subtree's event horizon as an absolute cycle: the minimum of
    /// the fabric's (staged bundles, link arrivals, logic inbox), a
    /// pending DIMM death and the memoized rest of the subtree
    /// ([`SwitchNode::local_horizon`]). A cycle at or before "now" means
    /// the subtree must be ticked next cycle; [`Cycle::NEVER`] means it
    /// is fully quiescent.
    pub(crate) fn subtree_next_event(&self) -> Cycle {
        let h = self.fabric.next_event().min(self.death_horizon());
        if h == Cycle::ZERO {
            return h;
        }
        h.min(self.local_h.get_or(|| self.local_horizon()))
    }

    /// The subtree's non-fabric horizon, folded over the slot memos:
    /// only a slot whose memo a mutation cleared is refolded.
    fn local_horizon(&self) -> Cycle {
        let mut h = self.logic.horizon(self.logic.egress.next_event());
        for (d, memo) in self.dimms.iter().zip(&self.slot_h) {
            // `Cycle::ZERO` cannot be lowered: stop sweeping.
            if h == Cycle::ZERO {
                return h;
            }
            h = h.min(memo.get_or(|| {
                #[cfg(test)]
                self.work.probe_folds.set(self.work.probe_folds.get() + 1);
                d.horizon()
            }));
        }
        h
    }

    /// [`SwitchNode::subtree_next_event`] folded from scratch over every
    /// component's reference horizon, reading none of the memos: the
    /// oracle the memos and the gates are checked against.
    #[cfg(any(test, debug_assertions))]
    fn reference_next_event(&self) -> Cycle {
        self.dimms.iter().map(Slot::reference_horizon).fold(
            self.fabric
                .compute_next_event()
                .min(self.death_horizon())
                .min(self.reference_logic_horizon()),
            Cycle::min,
        )
    }

    /// The logic's own horizon from scratch.
    #[cfg(any(test, debug_assertions))]
    fn reference_logic_horizon(&self) -> Cycle {
        self.logic.horizon(self.logic.egress.reference_next_event())
    }

    /// Debug builds check every gate decision to skip `part` at `now`
    /// against the part's from-scratch horizon `h` (DESIGN.md §15.3).
    #[cfg(debug_assertions)]
    fn assert_skip(&self, part: &str, h: Cycle, now: Cycle) {
        assert!(
            h > now,
            "switch {} skipped its {part} at {now:?}, but an event is due at {h:?}",
            self.index
        );
    }

    /// This subtree's share of [`beacon_sim::component::Probe::progress_counter`].
    pub(crate) fn progress_counter(&self) -> u64 {
        let dram_cmds =
            |s: &Stats| s.get("dram.cmd.read") + s.get("dram.cmd.write") + s.get("dram.cmd.act");
        let mut n = self.fabric.stats().get("switch.forwarded");
        if let Some(e) = &self.logic.engine {
            n += e.completed() as u64 + e.stats().get("engine.accesses_issued");
        }
        for d in &self.dimms {
            if let Some(c) = &d.compute {
                n += c.engine.completed() as u64 + c.engine.stats().get("engine.accesses_issued");
            }
            n += dram_cmds(d.server.dimm().stats());
        }
        n
    }

    /// Accumulates this subtree's share of [`beacon_sim::component::Probe::gauges`].
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
            acc.dram_queue += d.server.dimm().queue_len();
            acc.dram_backlog += d.server.backlog_len();
            if let Some(c) = &d.compute {
                acc.pending += c.pending.in_flight();
                acc.pe_busy += c.engine.busy_pes();
                acc.tasks_ready += c.engine.ready_len();
                acc.tasks_completed += c.engine.completed();
            }
        }
    }

    /// Writes this subtree's stall-report lines (the per-switch chunk of
    /// [`beacon_sim::component::Probe::state_snapshot`]).
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
            match &d.compute {
                Some(c) => {
                    let _ = write!(
                        s,
                        "  dimm {slot} (cxlg): tasks {}/{} busy={} ready={} pending={} ",
                        c.engine.completed(),
                        c.engine.submitted(),
                        c.engine.busy_pes(),
                        c.engine.ready_len(),
                        c.pending.in_flight(),
                    );
                }
                None => {
                    let _ = write!(s, "  dimm {slot} (unmod): ");
                }
            }
            let _ = writeln!(
                s,
                "backlog={} queue={} egress={}",
                d.server.backlog_len(),
                d.server.dimm().queue_len(),
                d.egress.queue.len(),
            );
        }
    }

    /// Pops one bundle that fully arrived at the uplink endpoint before
    /// `horizon`, with its exact arrival cycle.
    pub(crate) fn uplink_recv_before(
        &mut self,
        horizon: Cycle,
        obs: &mut Observer,
    ) -> Option<(Cycle, Bundle)> {
        self.fabric
            .endpoint_recv_before(Switch::UPLINK, horizon, obs)
    }

    /// Injects a host-forwarded bundle into the uplink ingress.
    pub(crate) fn uplink_send(
        &mut self,
        bundle: Bundle,
        now: Cycle,
        obs: &mut Observer,
    ) -> Result<(), beacon_cxl::link::SendError> {
        self.fabric.endpoint_send(Switch::UPLINK, bundle, now, obs)
    }
}

/// The pool as [`Probe`] reads it: its switch subtrees plus the number of
/// bundles staged at the host. `Probe for BeaconSystem` and the epoch
/// engine's barrier view both read through it, so they report identical
/// values.
pub(crate) struct PoolProbe<I> {
    pub(crate) nodes: I,
    pub(crate) host_staged: usize,
}

impl<'n, I: Iterator<Item = &'n SwitchNode> + Clone> Probe for PoolProbe<I> {
    /// Useful work only: forwarded bundles, issued accesses, retired
    /// tasks and DRAM data/row commands. Refresh is deliberately
    /// excluded — a refreshing but otherwise wedged pool must still trip
    /// the stall detector.
    fn progress_counter(&self) -> u64 {
        self.nodes.clone().map(SwitchNode::progress_counter).sum()
    }

    /// Emits the gauge vector in the stable key order established by
    /// the observability layer.
    fn gauges(&self, out: &mut Vec<(String, f64)>) {
        let mut acc = GaugeAcc::default();
        for sw in self.nodes.clone() {
            sw.accumulate_gauges(&mut acc);
        }
        out.push(("dram.queue".to_owned(), acc.dram_queue as f64));
        out.push(("dram.backlog".to_owned(), acc.dram_backlog as f64));
        out.push(("cxl.link_occupancy".to_owned(), acc.link_occupancy as f64));
        out.push(("switch.staged".to_owned(), acc.switch_staged as f64));
        out.push(("accel.pe_busy".to_owned(), acc.pe_busy as f64));
        out.push(("accel.ready".to_owned(), acc.tasks_ready as f64));
        out.push(("accel.pending".to_owned(), acc.pending as f64));
        out.push(("tasks.completed".to_owned(), acc.tasks_completed as f64));
        out.push(("host.staged".to_owned(), self.host_staged as f64));
    }

    fn state_snapshot(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "host_stage: {}", self.host_staged);
        for sw in self.nodes.clone() {
            sw.snapshot_into(&mut s);
        }
        s
    }
}

/// The subtree gauge sums behind [`PoolProbe`]'s gauges.
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

// ----- checkpoint serialisation ---------------------------------------
//
// Only dynamic state travels: static topology (node ids, map indices,
// trace labels, per-component parameters) is rebuilt by
// `SwitchNode::new` from the restored configuration, and each
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

/// Writes a serve table and its free list.
fn put_serve_table<T>(w: &mut SnapWriter, serve: &[T], free: &[u32], put: fn(&mut SnapWriter, &T)) {
    w.usize(serve.len());
    for e in serve {
        put(w, e);
    }
    w.usize(free.len());
    for i in free {
        w.u32(*i);
    }
}

/// Reads a serve table and its free list, bounds-checking every free
/// index against the table.
fn get_serve_table<T>(
    r: &mut SnapReader<'_>,
    serve: &mut Vec<T>,
    free: &mut Vec<u32>,
    get: fn(&mut SnapReader<'_>) -> Result<T, SnapError>,
    what: &str,
) -> Result<(), SnapError> {
    let n = r.seq_len()?;
    serve.clear();
    for _ in 0..n {
        serve.push(get(r)?);
    }
    let n = r.seq_len()?;
    free.clear();
    for _ in 0..n {
        free.push(check_free(r.u32()?, serve.len(), what)?);
    }
    Ok(())
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
        put_serve_table(w, &self.serve, &self.free_serve, put_logic_serve);
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
        get_serve_table(
            r,
            &mut self.serve,
            &mut self.free_serve,
            get_logic_serve,
            "logic serve",
        )?;
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

impl Slot {
    /// One slot's `core.switch` record: a kind tag (0 CXLG, 1
    /// unmodified), then `engine`, `server`, `pending`, the serve table,
    /// `egress` and `ras`, where the compute part's fields (`engine`,
    /// `pending`, `ras`) appear on CXLG slots only.
    fn snap(&self, w: &mut SnapWriter) {
        let c = self.compute.as_ref();
        w.u8(if c.is_some() { 0 } else { 1 });
        if let Some(c) = c {
            w.component(&c.engine);
        }
        w.component(&self.server);
        if let Some(c) = c {
            w.component(&c.pending);
        }
        put_serve_table(w, &self.serve, &self.free_serve, put_serve_entry);
        self.egress.snap(w);
        if let Some(c) = c {
            put_ras(w, &c.ras);
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>, what: &str) -> Result<(), SnapError> {
        let cxlg = match r.u8()? {
            0 => true,
            1 => false,
            t => return Err(SnapError::Corrupt(format!("unknown DIMM slot tag {t}"))),
        };
        if cxlg != self.compute.is_some() {
            return Err(SnapError::Topology(format!(
                "{what}: snapshot DIMM kind does not match"
            )));
        }
        if let Some(c) = &mut self.compute {
            r.component(&mut c.engine)?;
        }
        r.component(&mut self.server)?;
        if let Some(c) = &mut self.compute {
            r.component(&mut c.pending)?;
        }
        get_serve_table(
            r,
            &mut self.serve,
            &mut self.free_serve,
            get_serve_entry,
            what,
        )?;
        self.egress.restore(r, what)?;
        if let Some(c) = &mut self.compute {
            c.ras = get_ras(r)?;
        }
        Ok(())
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
            d.snap(w);
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
            d.restore(r, &format!("switch {sw} slot {slot}"))?;
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
        for d in &mut self.dimms {
            d.q_backlog = QueueAcc::default();
        }
        for h in &self.slot_h {
            h.invalidate();
        }
        self.local_h.invalidate();
        self.jgate = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;
    use crate::experiments::common::{
        fm_workload, hash_workload, kmer_workload, prealign_workload, AppWorkload, WorkloadScale,
    };
    use crate::mmf::build_layout;
    use crate::system::BeaconSystem;
    use beacon_accel::result::RunResult;
    use beacon_genomics::genome::GenomeId;
    use beacon_sim::component::Probe;
    use beacon_sim::journey::JourneyRecorder;
    use proptest::prelude::*;

    /// Test scale with 4× the reads, so every cell runs thousands of
    /// cycles with slots going idle and waking again.
    fn scale() -> WorkloadScale {
        let t = WorkloadScale::test();
        WorkloadScale {
            reads: 4 * t.reads,
            kmer_reads: 4 * t.kmer_reads,
            ..t
        }
    }

    /// Seed-sparse's shape at test scale: four exact long reads, so
    /// the pool is latency-bound and its switches often go quiet.
    fn sparse_scale() -> WorkloadScale {
        WorkloadScale {
            reads: 4,
            read_len: 1_000,
            error_rate: 0.0,
            ..WorkloadScale::test()
        }
    }

    fn build(
        variant: BeaconVariant,
        w: &AppWorkload,
        switches: u32,
        faults: Option<FaultsConfig>,
    ) -> BeaconSystem {
        build_with(
            variant,
            w,
            switches,
            faults,
            Optimizations::full(variant, w.app),
        )
    }

    fn build_with(
        variant: BeaconVariant,
        w: &AppWorkload,
        switches: u32,
        faults: Option<FaultsConfig>,
        opts: Optimizations,
    ) -> BeaconSystem {
        let mut cfg = BeaconConfig::paper(variant, w.app).with_opts(opts);
        cfg.pes_per_module = 8;
        cfg.switches = switches;
        if let Some(f) = faults {
            cfg = cfg.with_faults(f);
        }
        let layout = build_layout(&cfg, &w.layout);
        let mut sys = BeaconSystem::new(cfg, layout);
        // Probe the empty pool first: it fills every horizon memo, so
        // the submissions below must clear what they stale.
        let _ = sys.next_event(Cycle::ZERO);
        sys.submit_round_robin(w.traces.iter().cloned());
        sys
    }

    /// One whole-system cycle on the ungated reference: the sequential
    /// tick with [`SwitchNode::tick_cycle_ungated`] per switch.
    fn tick_ungated(sys: &mut BeaconSystem, now: Cycle, obs: &mut Observer) {
        sys.pump_host(now, obs);
        let ctx = SysCtx {
            cfg: &sys.cfg,
            maps: &sys.maps,
            rmw_alu_cycles: sys.rmw_alu_cycles,
            remap: sys.remap.as_deref(),
        };
        for sw in &mut sys.switches {
            sw.tick_cycle_ungated(ctx, now, obs);
        }
    }

    /// Advances the production (gated) tick and the ungated reference
    /// on two identical systems in lockstep, one cycle at a time, until
    /// the workload drains. The gated side is probed after every tick,
    /// as the engine probes with skip on, so its switch gates act on
    /// filled memos; every switch's memoized horizon must equal the
    /// from-scratch sweep. After every cycle both sides must have made
    /// the same progress and agree on idleness; at the drain both runs
    /// must digest alike. With `resume_at`, the gated side is
    /// snapshotted and replaced by its resumed image at that cycle. Each
    /// side records into its own observer from `observer`. Returns the
    /// two collected results.
    fn assert_lockstep(
        build_sys: impl Fn() -> BeaconSystem,
        resume_at: Option<u64>,
        observer: impl Fn() -> Observer,
    ) -> (RunResult, RunResult) {
        let (mut gated, mut reference) = (build_sys(), build_sys());
        let (mut g_obs, mut r_obs) = (observer(), observer());
        gated.arm(&g_obs);
        reference.arm(&r_obs);
        let mut now = Cycle::ZERO;
        while !gated.is_idle() {
            if resume_at == Some(now.as_u64()) {
                gated.clock = now;
                gated = BeaconSystem::resume(&gated.snapshot()).expect("snapshot must resume");
                gated.arm(&g_obs);
            }
            gated.tick_observed(now, &mut g_obs);
            let _ = gated.next_event(now);
            for sw in &gated.switches {
                assert_eq!(
                    sw.subtree_next_event(),
                    sw.reference_next_event(),
                    "switch {} memoized horizon diverged from the sweep at cycle {now:?}",
                    sw.index
                );
            }
            tick_ungated(&mut reference, now, &mut r_obs);
            assert_eq!(
                gated.progress_counter(),
                reference.progress_counter(),
                "gated progress diverged from the ungated reference at cycle {now:?}"
            );
            assert_eq!(
                gated.is_idle(),
                reference.is_idle(),
                "gated idleness diverged from the ungated reference at cycle {now:?}"
            );
            now = now.next();
            assert!(now.as_u64() < 50_000_000, "lockstep run did not drain");
        }
        assert!(
            resume_at.is_none_or(|at| at < now.as_u64()),
            "drained before the resume point"
        );
        gated.finished_at = now;
        reference.finished_at = now;
        let (g, r) = (
            gated.collect_with(g_obs.journey.as_ref()),
            reference.collect_with(r_obs.journey.as_ref()),
        );
        assert!(g.tasks > 0, "cell must do work to be meaningful");
        assert_eq!(
            g.digest(),
            r.digest(),
            "gated run diverged from the ungated reference:\n{}",
            g.diff(&r).unwrap_or_default()
        );
        (g, r)
    }

    #[test]
    fn gates_match_ungated_reference_fm_seeding_on_d() {
        let w = fm_workload(GenomeId::Pt, &scale());
        // Vanilla placement sends most accesses to remote DIMMs, so slots
        // go idle and are woken by port arrivals.
        for opts in [
            Optimizations::full(BeaconVariant::D, w.app),
            Optimizations::vanilla(),
        ] {
            for switches in [1, 2] {
                assert_lockstep(
                    || build_with(BeaconVariant::D, &w, switches, None, opts),
                    None,
                    Observer::default,
                );
            }
        }
    }

    #[test]
    fn gates_match_ungated_reference_kmer_counting_on_s() {
        let w = kmer_workload(&scale());
        for switches in [1, 2] {
            assert_lockstep(
                || build(BeaconVariant::S, &w, switches, None),
                None,
                Observer::default,
            );
        }
    }

    // The cells below run pre-alignment on BEACON-D: placement homes its
    // spatial reference region on the unmodified DIMMs, so those slots
    // serve remote requests while the CXLG engines issue accesses.

    #[test]
    fn gates_match_ungated_reference_under_faults_and_dimm_loss() {
        let w = prealign_workload(GenomeId::Pg, &scale());
        let healthy = build(BeaconVariant::D, &w, 2, None).run();
        let mut faults = FaultsConfig::noisy(42, 400.0);
        faults.dimm_fail_at = healthy.cycles / 3;
        faults.dimm_fail_slot = 2;
        let (g, _) = assert_lockstep(
            || build(BeaconVariant::D, &w, 2, Some(faults)),
            None,
            Observer::default,
        );
        let d = g.degraded.expect("armed run carries a RAS report");
        assert_eq!(d.failed_dimms, 1, "the scheduled kill must have fired");
        assert!(
            d.crc_errors > 0 && d.naks > 0 && d.requeued > 0,
            "the faults must have fired: {d:?}"
        );
    }

    /// A DIMM death scheduled on a cycle the switch gate would skip: the
    /// pending death must wake its switch all the same.
    #[test]
    fn gates_match_ungated_reference_when_a_dimm_dies_on_a_quiet_switch() {
        let w = fm_workload(GenomeId::Pt, &sparse_scale());
        let dies_at = |at| FaultsConfig {
            dimm_fail_at: at,
            dimm_fail_switch: 1,
            dimm_fail_slot: 2,
            ..FaultsConfig::quiet(1)
        };
        // Find the first quiet cycle of switch 1 past cycle 20 000 on a
        // run whose death never comes, probing every switch after each
        // tick as the lockstep harness does.
        let mut sys = build(BeaconVariant::D, &w, 2, Some(dies_at(1 << 40)));
        let mut obs = Observer::default();
        let mut now = Cycle::ZERO;
        while now.as_u64() <= 20_000 || !sys.switches[1].quiet(now) {
            sys.tick_observed(now, &mut obs);
            for sw in &sys.switches {
                sw.subtree_next_event();
            }
            now = now.next();
            assert!(!sys.is_idle(), "switch 1 never went quiet");
        }
        let (g, _) = assert_lockstep(
            || build(BeaconVariant::D, &w, 2, Some(dies_at(now.as_u64()))),
            None,
            Observer::default,
        );
        let d = g.degraded.expect("armed run carries a RAS report");
        assert_eq!(d.failed_dimms, 1, "the scheduled kill must have fired");
    }

    #[test]
    fn gates_match_ungated_reference_across_snapshot_resume() {
        let w = prealign_workload(GenomeId::Pg, &scale());
        let golden = build(BeaconVariant::D, &w, 2, None).run();
        assert_lockstep(
            || build(BeaconVariant::D, &w, 2, None),
            Some(golden.cycles / 2),
            Observer::default,
        );
    }

    #[test]
    fn gates_match_ungated_reference_with_attribution() {
        let w = prealign_workload(GenomeId::Pg, &scale());
        let attributed = || Observer {
            journey: Some(JourneyRecorder::new(1, 7)),
            ..Observer::default()
        };
        let (g, r) = assert_lockstep(|| build(BeaconVariant::D, &w, 2, None), None, attributed);
        // The ungated reference observes every slot's depth on every
        // cycle; the gated run only where it changes. The integrals
        // must agree.
        let (ga, ra) = (g.attribution.expect("on"), r.attribution.expect("on"));
        assert!(ga.queues.iter().any(|q| q.peak_depth > 0));
        assert_eq!(ga.queues, ra.queues);
    }

    /// Deterministic work pin on seed-sparse's shape: four exact long
    /// reads FM-seeded on BEACON-D over two switches, run through the
    /// engine with skip on. Probes refold a slot memo at most once per
    /// change of the slot, and the switch gate skips quiet ticks.
    #[test]
    fn probes_refold_only_changed_slots_and_quiet_switches_skip() {
        let w = fm_workload(GenomeId::Pt, &sparse_scale());
        let mut sys = build(BeaconVariant::D, &w, 2, None);
        let r = sys.run();
        assert_eq!(r.tasks, 4);
        let sum = |f: fn(&WorkCounts) -> u64| sys.switches.iter().map(|sw| f(&sw.work)).sum();
        let folds: u64 = sum(|c| c.probe_folds.get());
        let changes: u64 = sum(|c| c.slot_changes.get());
        let quiet: u64 = sum(|c| c.quiet_ticks.get());
        println!(
            "{} cycles: {folds} probe folds, {changes} slot changes, {quiet} quiet switch ticks",
            r.cycles
        );
        assert!(
            folds <= changes,
            "probes refolded {folds} slot memos over {changes} changes"
        );
        assert!(quiet > 0, "the switch gate never skipped a tick");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The gates against the ungated reference on random cells: any
        /// kernel, genome, pool size and workload seed, at test scale.
        #[test]
        fn gates_match_ungated_reference_on_random_cells(
            kernel in 0usize..4,
            genome in prop::sample::select(GenomeId::FIVE.to_vec()),
            switches in 1u32..5,
            seed in 0u64..1_000,
        ) {
            let scale = WorkloadScale {
                seed,
                ..WorkloadScale::test()
            };
            let (variant, w) = match kernel {
                0 => (BeaconVariant::D, fm_workload(genome, &scale)),
                1 => (BeaconVariant::S, hash_workload(genome, &scale)),
                2 => (BeaconVariant::S, kmer_workload(&scale)),
                _ => (BeaconVariant::D, prealign_workload(genome, &scale)),
            };
            assert_lockstep(|| build(variant, &w, switches, None), None, Observer::default);
        }
    }
}
