//! `DimmServer`: executes memory service operations against one DIMM.
//!
//! Systems (MEDAL, NEST, BEACON-D/S) hand the server *service
//! operations* — plain reads, writes and two-phase atomic RMWs — each
//! identified by a caller-chosen `u64` service id. The server owns the
//! [`Dimm`], queues operations when its controller is full, sequences the
//! read and write phases of atomics (the Atomic Engine's job, paper
//! Fig. 7) and reports completions.

use std::collections::VecDeque;

use beacon_sim::component::Tick;
use beacon_sim::cycle::Cycle;
use beacon_sim::journey::{JStamp, Phase};
use beacon_sim::observer::Observer;
use beacon_sim::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use beacon_sim::stats::{Histogram, StatId, Stats};

use beacon_dram::address::DramCoord;
use beacon_dram::module::{CmdRing, Dimm, DimmConfig};
use beacon_dram::request::{CompletedAccess, ReqKind};

/// Kind of service operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceOp {
    /// Read `bytes`.
    Read,
    /// Write `bytes`.
    Write,
    /// Atomic read-modify-write: a read phase, the arithmetic in the
    /// atomic engine, then a write phase.
    Rmw,
}

#[derive(Debug, Clone, Copy)]
struct ServiceReq {
    id: u64,
    coord: DramCoord,
    bytes: u32,
    op: ServiceOp,
}

/// Tag discriminators on the DRAM request tags.
const PHASE_SINGLE: u64 = 0 << 62;
const PHASE_RMW_READ: u64 = 1 << 62;
const PHASE_RMW_WRITE: u64 = 2 << 62;
const PHASE_MASK: u64 = 0b11 << 62;

/// One DIMM with its service front-end.
#[derive(Debug, Clone)]
pub struct DimmServer {
    dimm: Dimm,
    backlog: VecDeque<ServiceReq>,
    /// Completions ready to hand back: `(service id, finish cycle)`.
    done: Vec<(u64, Cycle)>,
    /// Extra latency of the atomic engine's arithmetic between the RMW
    /// read and write phases, in cycles (small ALU op).
    rmw_alu_cycles: u64,
    /// RMW operations between phases: `(ready_cycle, write request)`.
    rmw_stage: VecDeque<(Cycle, ServiceReq)>,
    /// Reusable buffer for draining DIMM completions each tick.
    drain_scratch: Vec<CompletedAccess>,
    /// Staging ring to the DIMM: commands decode once at fill and the
    /// controller admits the batch in one sweep. Filled and fully
    /// drained inside [`Tick::tick`], so never live across a snapshot.
    ring: CmdRing,
    /// Service ids whose completion carried poisoned data (DIMM UE) —
    /// a subset of `done`; empty unless fault injection is armed.
    poisoned: Vec<u64>,
    /// Whole-DIMM failure happened; no further service is possible.
    failed: bool,
    /// Journey stamps of tracked in-flight service operations, keyed by
    /// service id. Holds only sampled requests (empty when attribution
    /// is off), so linear scans stay cheap.
    jny: Vec<(u64, JStamp)>,
    /// Return-phase stamps of completed tracked operations, for the
    /// owner to attach to response messages.
    jny_done: Vec<(u64, JStamp)>,
    stats: Stats,
    /// Pre-resolved handle for the per-tick atomic-op fold.
    atomic_ops_id: StatId,
}

impl DimmServer {
    /// Creates a server over a fresh DIMM.
    pub fn new(config: DimmConfig) -> Self {
        let ring = CmdRing::with_capacity(config.queue_depth);
        let mut stats = Stats::new();
        let atomic_ops_id = stats.id("server.atomic_ops");
        DimmServer {
            dimm: Dimm::new(config),
            backlog: VecDeque::new(),
            done: Vec::new(),
            rmw_alu_cycles: 4,
            rmw_stage: VecDeque::new(),
            drain_scratch: Vec::new(),
            ring,
            poisoned: Vec::new(),
            failed: false,
            jny: Vec::new(),
            jny_done: Vec::new(),
            stats,
            atomic_ops_id,
        }
    }

    /// Arms an uncorrectable-error stream on the underlying DIMM (see
    /// [`Dimm::set_ue_faults`]). Poisoned completions surface through
    /// [`DimmServer::drain_poisoned_into`].
    pub fn set_ue_faults(&mut self, ue: beacon_sim::faults::FaultStream) {
        self.dimm.set_ue_faults(ue);
    }

    /// True once [`DimmServer::fail_into`] has been called.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// RAS: the DIMM behind this server fails. Every outstanding
    /// service operation — backlogged, between RMW phases, inside the
    /// DRAM controller or completed-but-undrained — is aborted and its
    /// service id appended to `out` so the owner can nak the
    /// requesters. The server is permanently idle afterwards; the owner
    /// must stop submitting (`is_failed`).
    pub fn fail_into(&mut self, out: &mut Vec<u64>) {
        for r in self.backlog.drain(..) {
            out.push(r.id);
        }
        for (_, r) in self.rmw_stage.drain(..) {
            out.push(r.id);
        }
        for (id, _) in self.done.drain(..) {
            out.push(id);
        }
        let mut aborted = Vec::new();
        self.dimm.fail(&mut aborted);
        for tag in aborted {
            out.push(tag & !PHASE_MASK);
        }
        self.poisoned.clear();
        // Aborted operations drop their stamps: faults undercount in the
        // attribution report rather than fabricate phase durations.
        self.jny.clear();
        self.jny_done.clear();
        self.failed = true;
    }

    /// Submits a service operation.
    ///
    /// # Panics
    /// Panics when `id` uses the two reserved discriminator bits (ids
    /// must stay below 2^62).
    pub fn request(&mut self, id: u64, coord: DramCoord, bytes: u32, op: ServiceOp) {
        self.request_with(id, coord, bytes, op, None);
    }

    /// Submits a service operation carrying an optional journey stamp.
    /// The stamp's phase should already be [`Phase::BankQueue`] (the
    /// caller hops it on hand-over); the server splits queueing from
    /// bank service at completion and surfaces the return-phase stamp
    /// through [`DimmServer::drain_jny_done_into`].
    ///
    /// # Panics
    /// Panics when `id` uses the two reserved discriminator bits (ids
    /// must stay below 2^62).
    pub fn request_with(
        &mut self,
        id: u64,
        coord: DramCoord,
        bytes: u32,
        op: ServiceOp,
        jny: Option<JStamp>,
    ) {
        assert_eq!(id & PHASE_MASK, 0, "service id too large");
        if let Some(stamp) = jny {
            self.jny.push((id, stamp));
        }
        self.backlog.push_back(ServiceReq {
            id,
            coord,
            bytes,
            op,
        });
    }

    /// Backlogged operations not yet in the DRAM controller.
    #[inline]
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Completed service ids (drains the internal list).
    pub fn drain_done(&mut self) -> Vec<(u64, Cycle)> {
        std::mem::take(&mut self.done)
    }

    /// Allocation-free variant of [`DimmServer::drain_done`]: appends the
    /// completions to `out`, letting the owner reuse one buffer across
    /// ticks.
    pub fn drain_done_into(&mut self, out: &mut Vec<(u64, Cycle)>) {
        out.append(&mut self.done);
    }

    /// Service ids among the drained completions whose data was
    /// poisoned by a DIMM uncorrectable error. Empty on fault-free runs;
    /// owners only need to consult it when it is non-empty.
    pub fn drain_poisoned_into(&mut self, out: &mut Vec<u64>) {
        out.append(&mut self.poisoned);
    }

    /// Return-phase journey stamps of completed tracked operations
    /// (`(service id, stamp)`; the stamp's `at` is the completion
    /// cycle). Empty unless attribution is sampling.
    pub fn drain_jny_done_into(&mut self, out: &mut Vec<(u64, JStamp)>) {
        out.append(&mut self.jny_done);
    }

    /// The underlying DIMM (stats, histograms).
    #[inline]
    pub fn dimm(&self) -> &Dimm {
        &self.dimm
    }

    /// Sets the track label the underlying DIMM's trace events are
    /// emitted under.
    pub fn set_trace_id(&mut self, id: impl Into<String>) {
        self.dimm.set_trace_id(id);
    }

    /// Server statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Per-chip access histogram of the DIMM.
    pub fn chip_histogram(&self) -> &Histogram {
        self.dimm.chip_histogram()
    }

    /// Stages every admissible command into the ring — RMW write phases
    /// first (the atomic engine's write-phase priority), then the
    /// backlog — decoding each exactly once. Bounded by the DIMM's free
    /// queue slots, so [`Dimm::consume_ring`] cannot overfill. The
    /// batch admission order equals the retired per-message
    /// `Dimm::enqueue` order bit for bit.
    fn fill_ring(&mut self, now: Cycle) {
        let mut free = self.dimm.queue_free();
        while free > 0 {
            let Some(&(ready, req)) = self.rmw_stage.front() else {
                break;
            };
            if ready > now {
                break;
            }
            let cmd = self.dimm.decode(
                ReqKind::Write,
                req.coord,
                req.bytes,
                PHASE_RMW_WRITE | req.id,
            );
            self.ring.push(cmd);
            self.rmw_stage.pop_front();
            free -= 1;
        }
        while free > 0 {
            let Some(req) = self.backlog.front().copied() else {
                break;
            };
            let (kind, tag) = match req.op {
                ServiceOp::Read => (ReqKind::Read, PHASE_SINGLE | req.id),
                ServiceOp::Write => (ReqKind::Write, PHASE_SINGLE | req.id),
                ServiceOp::Rmw => (ReqKind::Read, PHASE_RMW_READ | req.id),
            };
            let cmd = self.dimm.decode(kind, req.coord, req.bytes, tag);
            self.ring.push(cmd);
            self.backlog.pop_front();
            free -= 1;
        }
    }

    /// The server's event horizon as an absolute cycle: the earliest
    /// moment ticking could move a service operation forward. A cycle at
    /// or before "now" means immediately; [`Cycle::NEVER`] means nothing
    /// is scheduled and only a new [`DimmServer::request`] can wake it.
    pub fn next_event(&self) -> Cycle {
        if !self.done.is_empty() {
            // The owner still has completions to collect.
            return Cycle::ZERO;
        }
        if !self.backlog.is_empty() && self.dimm.queue_free() > 0 {
            return Cycle::ZERO;
        }
        let mut h = Dimm::next_event(&self.dimm);
        if let Some(&(ready, _)) = self.rmw_stage.front() {
            if self.dimm.queue_free() > 0 {
                // Queue-full stalls are covered by the DIMM horizon (a
                // retirement frees the slot); here only the ALU delay.
                h = h.min(ready);
            }
        }
        h
    }

    /// True when ticking at `now` could move a service operation
    /// forward: `next_event() <= now`, answered by the server's own O(1)
    /// terms first and then by [`Dimm::due`], which stops at the first
    /// due term instead of folding the exact horizon.
    pub fn due(&self, now: Cycle) -> bool {
        if !self.done.is_empty() {
            return true;
        }
        if self.dimm.queue_free() > 0 {
            let ready = self.rmw_stage.front().map_or(Cycle::NEVER, |&(at, _)| at);
            if !self.backlog.is_empty() || ready <= now {
                return true;
            }
        }
        self.dimm.due(now)
    }

    /// Terminal completion of a tracked operation: split its residency
    /// into queueing and bank service, then park the stamp (now in the
    /// return phase) for the owner to attach to the response.
    ///
    /// For RMWs the split is approximate: the read phase and the ALU
    /// delay land in `BankQueue` (only the final write's service window
    /// counts as `BankService`).
    fn finish_journey(&mut self, id: u64, c: &CompletedAccess, obs: &mut Observer) {
        if self.jny.is_empty() {
            return;
        }
        let Some(pos) = self.jny.iter().position(|(jid, _)| *jid == id) else {
            return;
        };
        let (_, mut stamp) = self.jny.swap_remove(pos);
        if let Some(j) = &mut obs.journey {
            j.record(Phase::BankQueue, c.service_started_at.since(stamp.at));
            j.record(Phase::BankService, c.service_latency());
        }
        stamp.at = c.finished_at;
        stamp.phase = Phase::Return;
        stamp.resp = true;
        self.jny_done.push((id, stamp));
    }
}

fn put_service_req(w: &mut SnapWriter, req: &ServiceReq) {
    w.u64(req.id);
    w.u64(req.coord.pack());
    w.u32(req.bytes);
    w.u8(match req.op {
        ServiceOp::Read => 0,
        ServiceOp::Write => 1,
        ServiceOp::Rmw => 2,
    });
}

fn get_service_req(r: &mut SnapReader<'_>) -> Result<ServiceReq, SnapError> {
    let id = r.u64()?;
    let coord = DramCoord::unpack(r.u64()?);
    let bytes = r.u32()?;
    let op = match r.u8()? {
        0 => ServiceOp::Read,
        1 => ServiceOp::Write,
        2 => ServiceOp::Rmw,
        t => return Err(SnapError::Corrupt(format!("unknown ServiceOp tag {t}"))),
    };
    Ok(ServiceReq {
        id,
        coord,
        bytes,
        op,
    })
}

impl Snapshot for DimmServer {
    const TAG: &'static str = "accel.server";
    const VERSION: u16 = 1;
    fn snap(&self, w: &mut SnapWriter) {
        // Journey stamps (`jny`/`jny_done`) are attribution-only state,
        // excluded from the result digest — a resumed run restarts with
        // them empty. `drain_scratch` is empty between ticks.
        w.component(&self.dimm);
        w.usize(self.backlog.len());
        for req in &self.backlog {
            put_service_req(w, req);
        }
        w.usize(self.done.len());
        for (id, at) in &self.done {
            w.u64(*id);
            w.cycle(*at);
        }
        w.u64(self.rmw_alu_cycles);
        w.usize(self.rmw_stage.len());
        for (ready, req) in &self.rmw_stage {
            w.cycle(*ready);
            put_service_req(w, req);
        }
        w.usize(self.poisoned.len());
        for id in &self.poisoned {
            w.u64(*id);
        }
        w.bool(self.failed);
        w.component(&self.stats);
    }
}

impl Restore for DimmServer {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.component(&mut self.dimm)?;
        let n = r.seq_len()?;
        let mut backlog = VecDeque::with_capacity(n);
        for _ in 0..n {
            backlog.push_back(get_service_req(r)?);
        }
        self.backlog = backlog;
        let n = r.seq_len()?;
        let mut done = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.u64()?;
            done.push((id, r.cycle()?));
        }
        self.done = done;
        self.rmw_alu_cycles = r.u64()?;
        let n = r.seq_len()?;
        let mut rmw_stage = VecDeque::with_capacity(n);
        for _ in 0..n {
            let ready = r.cycle()?;
            rmw_stage.push_back((ready, get_service_req(r)?));
        }
        self.rmw_stage = rmw_stage;
        let n = r.seq_len()?;
        let mut poisoned = Vec::with_capacity(n);
        for _ in 0..n {
            poisoned.push(r.u64()?);
        }
        self.poisoned = poisoned;
        self.failed = r.bool()?;
        r.component(&mut self.stats)?;
        self.drain_scratch.clear();
        self.jny.clear();
        self.jny_done.clear();
        Ok(())
    }
}

impl Tick for DimmServer {
    fn tick(&mut self, now: Cycle) {
        self.tick_observed(now, &mut Observer::default());
    }

    fn tick_observed(&mut self, now: Cycle, obs: &mut Observer) {
        // Tick gate: the horizon is conservative-exact, so while no term
        // of it is due neither pump can move, the DIMM tick is a state
        // no-op and there is nothing to drain. Only the DIMM's time
        // high-water needs maintaining for later `enqueued_at` stamps.
        if !self.due(now) {
            self.dimm.sync_time(now);
            return;
        }
        // Keep the DIMM's time high-water exact: the ring batch lands
        // before `dimm.tick(now)`, and a fast-forwarding engine may not
        // have ticked the DIMM on the previous cycle.
        self.dimm.sync_time(now);
        self.fill_ring(now);
        self.dimm.consume_ring(&mut self.ring);
        self.dimm.tick_observed(now, obs);
        // Reuse one scratch buffer for completions (taken out of `self`
        // so the loop body can borrow the other fields mutably).
        let mut completed = std::mem::take(&mut self.drain_scratch);
        self.dimm.drain_completed_into(&mut completed);
        // Tick-local accumulator: one sorted-array lookup per tick
        // instead of one per retiring atomic (DESIGN.md §15.5).
        let mut atomic_ops = 0u64;
        for c in completed.drain(..) {
            let id = c.request.tag & !PHASE_MASK;
            match c.request.tag & PHASE_MASK {
                PHASE_SINGLE => {
                    if c.poisoned {
                        self.poisoned.push(id);
                    }
                    self.finish_journey(id, &c, obs);
                    self.done.push((id, c.finished_at));
                }
                PHASE_RMW_READ if c.poisoned => {
                    // UE on the atomic's read phase: the operand is
                    // garbage, so the RMW aborts instead of writing back.
                    self.poisoned.push(id);
                    self.finish_journey(id, &c, obs);
                    self.done.push((id, c.finished_at));
                }
                PHASE_RMW_READ => {
                    // Atomic engine: arithmetic, then the write phase.
                    atomic_ops += 1;
                    let ready =
                        c.finished_at + beacon_sim::cycle::Duration::new(self.rmw_alu_cycles);
                    self.rmw_stage.push_back((
                        ready,
                        ServiceReq {
                            id,
                            coord: c.request.coord,
                            bytes: c.request.bytes,
                            op: ServiceOp::Rmw,
                        },
                    ));
                }
                PHASE_RMW_WRITE => {
                    self.finish_journey(id, &c, obs);
                    self.done.push((id, c.finished_at));
                }
                _ => unreachable!("invalid phase bits"),
            }
        }
        self.drain_scratch = completed;
        // `Stats::add_id` ignores zero, so idle drains cost one branch.
        self.stats.add_id(self.atomic_ops_id, atomic_ops);
    }

    fn is_idle(&self) -> bool {
        self.backlog.is_empty() && self.rmw_stage.is_empty() && self.dimm.is_idle()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let h = DimmServer::next_event(self);
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
    use beacon_dram::module::AccessMode;
    use beacon_sim::engine::Engine;

    fn server() -> DimmServer {
        let mut cfg = DimmConfig::paper(AccessMode::PerChip);
        cfg.refresh_enabled = false;
        DimmServer::new(cfg)
    }

    fn coord(group: u32, row: u64) -> DramCoord {
        DramCoord {
            rank: 0,
            group,
            bank: 0,
            row,
            col: 0,
        }
    }

    #[test]
    fn read_completes_with_id() {
        let mut s = server();
        s.request(42, coord(0, 5), 32, ServiceOp::Read);
        let mut e = Engine::new();
        e.run(&mut s);
        let done = s.drain_done();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 42);
    }

    #[test]
    fn rmw_is_read_then_write() {
        let mut s = server();
        s.request(7, coord(1, 9), 1, ServiceOp::Rmw);
        let mut e = Engine::new();
        e.run(&mut s);
        let done = s.drain_done();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 7);
        assert_eq!(s.dimm().stats().get("dram.cmd.read"), 1);
        assert_eq!(s.dimm().stats().get("dram.cmd.write"), 1);
        assert_eq!(s.stats().get("server.atomic_ops"), 1);
    }

    #[test]
    fn rmw_takes_longer_than_read() {
        let mut sr = server();
        sr.request(1, coord(0, 3), 4, ServiceOp::Read);
        let mut e = Engine::new();
        e.run(&mut sr);
        let t_read = sr.drain_done()[0].1;

        let mut sm = server();
        sm.request(1, coord(0, 3), 4, ServiceOp::Rmw);
        let mut e = Engine::new();
        e.run(&mut sm);
        let t_rmw = sm.drain_done()[0].1;
        assert!(t_rmw > t_read);
    }

    #[test]
    fn backlog_absorbs_bursts_beyond_queue_depth() {
        let mut s = server();
        for i in 0..200 {
            s.request(i, coord((i % 16) as u32, i), 4, ServiceOp::Read);
        }
        assert!(s.backlog_len() > 0);
        let mut e = Engine::new();
        e.run(&mut s);
        assert_eq!(s.drain_done().len(), 200);
    }

    #[test]
    #[should_panic(expected = "service id too large")]
    fn oversized_id_panics() {
        let mut s = server();
        s.request(1 << 62, coord(0, 0), 4, ServiceOp::Read);
    }

    #[test]
    fn writes_complete_too() {
        let mut s = server();
        s.request(9, coord(2, 4), 8, ServiceOp::Write);
        let mut e = Engine::new();
        e.run(&mut s);
        assert_eq!(s.drain_done()[0].0, 9);
    }

    #[test]
    fn ue_marks_the_service_id_poisoned() {
        let mut s = server();
        s.set_ue_faults(beacon_sim::faults::FaultStream::one_shot(Cycle::ZERO));
        s.request(5, coord(0, 2), 32, ServiceOp::Read);
        let mut e = Engine::new();
        e.run(&mut s);
        // The completion is still reported (the requester must observe
        // it to retry), but flagged poisoned.
        assert_eq!(s.drain_done()[0].0, 5);
        let mut poisoned = Vec::new();
        s.drain_poisoned_into(&mut poisoned);
        assert_eq!(poisoned, vec![5]);
    }

    #[test]
    fn poisoned_rmw_aborts_without_the_write_phase() {
        let mut s = server();
        s.set_ue_faults(beacon_sim::faults::FaultStream::one_shot(Cycle::ZERO));
        s.request(3, coord(1, 1), 4, ServiceOp::Rmw);
        let mut e = Engine::new();
        e.run(&mut s);
        assert_eq!(s.drain_done()[0].0, 3);
        let mut poisoned = Vec::new();
        s.drain_poisoned_into(&mut poisoned);
        assert_eq!(poisoned, vec![3]);
        // No write-back happened: the aborted RMW issued its read only.
        assert_eq!(s.dimm().stats().get("dram.cmd.write"), 0);
    }

    /// Random reads, writes and RMWs through a shallow queue, first
    /// faster than it drains (a standing backlog), then slower (the RMW
    /// stage and the DIMM gate alone), with completions left undrained
    /// on one cycle in five: every cycle, the `due` probe must answer
    /// `next_event() <= now`, both on the folding path (dirty DIMM
    /// cache) and after it.
    #[test]
    fn due_matches_the_horizon() {
        let mut cfg = DimmConfig::paper_ndp(AccessMode::PerChip);
        cfg.queue_depth = 6;
        cfg.timing.trefi = 1000;
        let mut s = DimmServer::new(cfg);
        let mut r = 0x5EED_u64;
        let mut id = 0;
        let (mut probes, mut due) = (0, 0);
        for c in 0..2000u64 {
            let now = Cycle::new(c);
            r = r
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let arrives = if c < 300 {
                r >> 61 == 0
            } else {
                c < 1600 && r >> 58 == 0
            };
            if arrives {
                let op =
                    [ServiceOp::Read, ServiceOp::Write, ServiceOp::Rmw][(r >> 20) as usize % 3];
                s.request(id, coord((r >> 8) as u32 % 16, (r >> 32) % 6), 32, op);
                id += 1;
            }
            for at in [now, now.next()] {
                // The exact horizon on a clone leaves this server's DIMM
                // cache as it was, dirty or clean.
                let expect = s.clone().next_event() <= at;
                assert_eq!(s.due(at), expect, "due({at:?}) diverges at cycle {c}");
                probes += 1;
                due += u32::from(expect);
            }
            s.tick(now);
            if !r.is_multiple_of(5) {
                s.drain_done();
            }
        }
        assert!(
            due > probes / 10 && due < probes,
            "{due} of {probes} probes due"
        );
    }

    #[test]
    fn fail_aborts_backlog_stage_queue_and_undrained_completions() {
        let mut s = server();
        for i in 0..200 {
            s.request(i, coord((i % 16) as u32, i), 4, ServiceOp::Read);
        }
        s.request(500, coord(0, 30), 4, ServiceOp::Rmw);
        // Advance a little so work spreads across the DIMM queue, the
        // backlog and (possibly) undrained completions.
        for c in 0..40u64 {
            s.tick(Cycle::new(c));
        }
        let mut lost = Vec::new();
        s.fail_into(&mut lost);
        lost.sort_unstable();
        // Everything not yet drained by the owner is reported exactly
        // once, including ids that had already completed.
        assert_eq!(lost.len(), 201);
        lost.dedup();
        assert_eq!(lost.len(), 201);
        assert!(s.is_failed());
        assert!(s.is_idle());
        assert!(s.drain_done().is_empty());
        assert_eq!(s.next_event(), Cycle::NEVER);
    }
}
