//! The NDP module's task machinery: PEs and the Task Scheduler.
//!
//! A *task* is one [`TaskTrace`] (one read / one candidate pair). PEs
//! execute a task's steps: compute for the application's PE latency, then
//! issue the step's memory accesses. A task that must wait for data
//! (`wait_for_data`) leaves its PE and parks in the scheduler's incoming
//! queue — the PE immediately picks another ready task, which is how the
//! paper's design hides memory latency behind task-level parallelism.
//! When the last outstanding access of a parked task returns, the task
//! moves to the out-going queue and is assigned to the next free PE.

use std::collections::VecDeque;

use beacon_sim::cycle::{Cycle, Duration};
use beacon_sim::observer::Observer;
use beacon_sim::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
use beacon_sim::stats::Stats;
use beacon_sim::trace::{TraceCategory, TraceEvent, TraceLevel};

use beacon_genomics::trace::{Access, TaskTrace};

/// Identifier of a task within one [`TaskEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

/// Matches a returned datum to the access that requested it.
///
/// Encodes `(task, step, index-within-step)` into a `u64` so it can ride
/// in message tags across the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessToken {
    /// The requesting task.
    pub task: TaskId,
    /// Step index within the task.
    pub step: u32,
    /// Access index within the step.
    pub idx: u32,
}

impl AccessToken {
    /// Packs the token into a `u64` tag.
    pub fn encode(&self) -> u64 {
        ((self.task.0 as u64) << 32)
            | ((self.step as u64 & 0xFFFF) << 16)
            | (self.idx as u64 & 0xFFFF)
    }

    /// Unpacks a token from a `u64` tag.
    pub fn decode(tag: u64) -> Self {
        AccessToken {
            task: TaskId((tag >> 32) as u32),
            step: ((tag >> 16) & 0xFFFF) as u32,
            idx: (tag & 0xFFFF) as u32,
        }
    }
}

/// An access a PE has just issued; the owning system must translate and
/// deliver it, then call [`TaskEngine::on_data`] with the token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuedAccess {
    /// Token to return via [`TaskEngine::on_data`].
    pub token: AccessToken,
    /// The logical access.
    pub access: Access,
    /// Whether the issuing task blocks on this access.
    pub blocking: bool,
}

/// Deterministic per-tick work counters (`tick-audit` feature): the
/// batched-drain analogue of the DRAM crate's `TickAudit`. Pure
/// observation — never snapshotted, never digested, identical across
/// runs with the same tick pattern.
#[cfg(feature = "tick-audit")]
#[derive(Debug, Clone, Default)]
pub struct EngineAudit {
    /// `tick_into` calls observed.
    ticks: u64,
    /// Completion buckets drained (one sort + one sweep each).
    batches: u64,
    /// PE step completions processed out of drained buckets.
    completions: u64,
}

/// A point-in-time copy of the [`EngineAudit`] counters.
#[cfg(feature = "tick-audit")]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineAuditCounters {
    /// `tick_into` calls observed.
    pub ticks: u64,
    /// Completion buckets drained (one sort + one sweep each).
    pub batches: u64,
    /// PE step completions processed out of drained buckets.
    pub completions: u64,
}

/// Cycle-keyed completion buckets (DESIGN.md §15.5): every PE finishing
/// on the same cycle sits in one bucket, so a tick drains whole batches
/// instead of popping a heap once per completion. Buckets stay sorted
/// ascending by finish cycle; a drained bucket is sorted by `TaskId`
/// before processing, which reproduces the old
/// `BinaryHeap<Reverse<(Cycle, TaskId)>>` pop order exactly. Drained
/// bucket `Vec`s are recycled through a spare pool so the steady state
/// allocates nothing.
#[derive(Debug, Clone, Default)]
struct CompletionQueue {
    /// `(finish_cycle, tasks)` buckets, ascending by cycle, each
    /// non-empty and unsorted until drained.
    buckets: VecDeque<(Cycle, Vec<TaskId>)>,
    /// Total computing PEs (sum of bucket lengths).
    busy: usize,
    /// Emptied bucket storage kept for reuse.
    spare: Vec<Vec<TaskId>>,
}

/// Bucket `Vec`s retained for reuse; beyond this the engine is cycling
/// through more distinct finish cycles than any real workload mix.
const SPARE_BUCKETS: usize = 8;

impl CompletionQueue {
    /// Number of computing PEs.
    fn len(&self) -> usize {
        self.busy
    }

    /// Earliest finish cycle, if any PE is computing.
    fn next_cycle(&self) -> Option<Cycle> {
        self.buckets.front().map(|&(c, _)| c)
    }

    fn fresh_bucket(&mut self, task: TaskId) -> Vec<TaskId> {
        let mut ids = self.spare.pop().unwrap_or_default();
        ids.push(task);
        ids
    }

    /// Records that `task`'s PE finishes at `until`.
    fn push(&mut self, until: Cycle, task: TaskId) {
        self.busy += 1;
        // Fast paths: uniform-latency engines land every assignment of a
        // tick on the tail bucket (same finish cycle) or just past it.
        match self.buckets.back_mut() {
            Some((c, ids)) if *c == until => {
                ids.push(task);
                return;
            }
            Some((c, _)) if *c < until => {
                let ids = self.fresh_bucket(task);
                self.buckets.push_back((until, ids));
                return;
            }
            None => {
                let ids = self.fresh_bucket(task);
                self.buckets.push_back((until, ids));
                return;
            }
            _ => {}
        }
        // Mixed per-app latencies: find or create the bucket in place.
        match self.buckets.binary_search_by(|(c, _)| c.cmp(&until)) {
            Ok(i) => self.buckets[i].1.push(task),
            Err(i) => {
                let ids = self.fresh_bucket(task);
                self.buckets.insert(i, (until, ids));
            }
        }
    }

    /// Takes the earliest bucket when it is due at `now`, sorted by
    /// `TaskId` (heap pop order). The caller must hand the `Vec` back
    /// via [`CompletionQueue::recycle`].
    fn take_due(&mut self, now: Cycle) -> Option<Vec<TaskId>> {
        match self.buckets.front() {
            Some(&(c, _)) if c <= now => {
                let (_, mut ids) = self.buckets.pop_front().expect("front checked");
                ids.sort_unstable();
                self.busy -= ids.len();
                Some(ids)
            }
            _ => None,
        }
    }

    /// Returns a drained bucket's storage to the spare pool.
    fn recycle(&mut self, mut ids: Vec<TaskId>) {
        if self.spare.len() < SPARE_BUCKETS {
            ids.clear();
            self.spare.push(ids);
        }
    }
}

#[derive(Debug, Clone)]
struct TaskState {
    trace: TaskTrace,
    /// Per-step compute latency (from the task's application engine —
    /// the PEs are multi-purpose, paper Fig. 5 d).
    latency: Duration,
    /// Next step to execute.
    cursor: usize,
    /// Outstanding blocking accesses of the current step.
    outstanding: u32,
    /// Outstanding posted (fire-and-forget) accesses across all steps.
    outstanding_posted: u32,
    /// All steps executed (may still have posted accesses in flight).
    steps_done: bool,
    retired: bool,
}

/// PEs + Task Scheduler of one NDP module.
///
/// The tick path is event-driven and batched: computing PEs sit in
/// cycle-keyed buckets ([`CompletionQueue`]), so a tick drains every
/// completion due at `now` in one pass rather than one heap pop per PE —
/// essential with the paper's 512-PE configurations, where dense
/// kernels finish tens of steps per cycle.
#[derive(Debug, Clone)]
pub struct TaskEngine {
    n_pes: usize,
    /// Finish-cycle buckets of every computing PE.
    computing: CompletionQueue,
    /// Default per-step compute latency for tasks whose application is
    /// not consulted (see [`TaskEngine::submit`]).
    pe_latency: Duration,
    /// Out-going queue: tasks ready for a PE.
    ready: VecDeque<TaskId>,
    tasks: Vec<TaskState>,
    completed: usize,
    stats: Stats,
    /// Integral of busy-PE count over time (utilisation / PE energy).
    busy_pe_cycles: u64,
    last_busy_update: Cycle,
    /// Tick-local accumulator for `engine.accesses_issued`: folded into
    /// `stats` once per `tick_into` so the sorted-array lookup runs
    /// O(1) per tick instead of once per issued step. Always zero
    /// outside `tick_into` — never snapshotted.
    acc_accesses_issued: u64,
    /// Trace-track label; `None` falls back to `"engine"`.
    trace_id: Option<Box<str>>,
    #[cfg(feature = "tick-audit")]
    audit: EngineAudit,
}

impl TaskEngine {
    /// Creates an engine with `n_pes` processing elements whose per-step
    /// compute latency is `pe_latency_cycles`.
    ///
    /// # Panics
    /// Panics when `n_pes` is zero.
    pub fn new(n_pes: usize, pe_latency_cycles: u32) -> Self {
        assert!(n_pes > 0, "need at least one PE");
        TaskEngine {
            n_pes,
            computing: CompletionQueue::default(),
            pe_latency: Duration::new(pe_latency_cycles as u64),
            ready: VecDeque::new(),
            tasks: Vec::new(),
            completed: 0,
            stats: Stats::new(),
            busy_pe_cycles: 0,
            last_busy_update: Cycle::ZERO,
            acc_accesses_issued: 0,
            trace_id: None,
            #[cfg(feature = "tick-audit")]
            audit: EngineAudit::default(),
        }
    }

    /// Snapshot of the deterministic work counters (`tick-audit` only).
    #[cfg(feature = "tick-audit")]
    pub fn audit_counters(&self) -> EngineAuditCounters {
        EngineAuditCounters {
            ticks: self.audit.ticks,
            batches: self.audit.batches,
            completions: self.audit.completions,
        }
    }

    /// Sets the track label this engine's trace events are emitted under.
    pub fn set_trace_id(&mut self, id: impl Into<String>) {
        self.trace_id = Some(id.into().into_boxed_str());
    }

    fn trace_task(
        &self,
        now: Cycle,
        level: TraceLevel,
        name: &'static str,
        arg: u64,
        obs: &mut Observer,
    ) {
        if let Some(tr) = obs.trace_at(level) {
            tr.record(
                self.trace_id.as_deref().unwrap_or("engine"),
                TraceEvent::instant(now.as_u64(), level, TraceCategory::Accel, name, arg),
            );
        }
    }

    /// Number of PEs.
    pub fn pe_count(&self) -> usize {
        self.n_pes
    }

    /// Submits a task with the engine's default per-step latency; it
    /// joins the ready queue. The submission is traced into `obs`.
    pub fn submit(&mut self, trace: TaskTrace, obs: &mut Observer) -> TaskId {
        let latency = self.pe_latency;
        self.submit_with_latency(trace, latency, obs)
    }

    /// Submits a task that runs on the PE engine matching its
    /// application (the multi-purpose PE picks the right functional
    /// unit; paper Fig. 5 d lists FM, hash, KMC and pre-alignment
    /// engines with distinct latencies). Lets one module co-run
    /// different genome-analysis applications.
    pub fn submit_for_app(&mut self, trace: TaskTrace, obs: &mut Observer) -> TaskId {
        let latency = Duration::new(trace.app.pe_latency_cycles() as u64);
        self.submit_with_latency(trace, latency, obs)
    }

    fn submit_with_latency(
        &mut self,
        trace: TaskTrace,
        latency: Duration,
        obs: &mut Observer,
    ) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        let empty = trace.steps.is_empty();
        self.tasks.push(TaskState {
            trace,
            latency,
            cursor: 0,
            outstanding: 0,
            outstanding_posted: 0,
            steps_done: empty,
            retired: false,
        });
        if empty {
            self.tasks[id.0 as usize].retired = true;
            self.completed += 1;
        } else {
            self.ready.push_back(id);
        }
        self.stats.incr("engine.tasks_submitted");
        self.trace_task(
            self.last_busy_update,
            TraceLevel::Task,
            "task.submit",
            id.0 as u64,
            obs,
        );
        id
    }

    /// Tasks retired so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Total tasks submitted.
    pub fn submitted(&self) -> usize {
        self.tasks.len()
    }

    /// True when every submitted task has retired.
    pub fn all_done(&self) -> bool {
        self.completed == self.tasks.len()
    }

    /// Engine statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// PE-busy cycle count (for utilisation and PE energy).
    pub fn busy_pe_cycles(&self) -> u64 {
        self.busy_pe_cycles
    }

    /// Number of PEs currently computing a step.
    pub fn busy_pes(&self) -> usize {
        self.computing.len()
    }

    /// Tasks in the out-going (ready-for-a-PE) queue.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Advances the PEs to cycle `now`, appending the accesses issued to
    /// `out` so the owning system can reuse one scratch buffer across
    /// ticks instead of allocating a `Vec` per call. Steps are traced
    /// into `obs`.
    ///
    /// Completions due at `now` drain in whole cycle buckets (sorted by
    /// `TaskId`, matching the retired min-heap's pop order bit for bit)
    /// so the per-completion bookkeeping amortises across the batch.
    pub fn tick_into(&mut self, now: Cycle, out: &mut Vec<IssuedAccess>, obs: &mut Observer) {
        #[cfg(feature = "tick-audit")]
        {
            self.audit.ticks += 1;
        }
        // Accumulate the busy-PE integral over the elapsed interval.
        let elapsed = now.since(self.last_busy_update).as_u64();
        self.busy_pe_cycles += elapsed * self.computing.len() as u64;
        self.last_busy_update = now;

        loop {
            // Finish every compute that is due, one bucket at a time.
            while let Some(batch) = self.computing.take_due(now) {
                #[cfg(feature = "tick-audit")]
                {
                    self.audit.batches += 1;
                    self.audit.completions += batch.len() as u64;
                }
                for &task in &batch {
                    self.finish_step(task, now, out, obs);
                }
                self.computing.recycle(batch);
            }
            // Assign ready tasks to free PEs.
            let mut assigned = false;
            while self.computing.len() < self.n_pes {
                let Some(task) = self.ready.pop_front() else {
                    break;
                };
                let until = now + self.tasks[task.0 as usize].latency;
                self.computing.push(until, task);
                assigned = true;
            }
            // Zero-latency engines (or immediate finishes) may cascade:
            // keep going until nothing new happened this cycle.
            if !assigned || self.computing.next_cycle().map(|u| u > now).unwrap_or(true) {
                break;
            }
        }
        // Flush the tick-local counter; `Stats::add` ignores zero.
        let issued = std::mem::take(&mut self.acc_accesses_issued);
        self.stats.add("engine.accesses_issued", issued);
    }

    /// The cycle at which the engine next has internal work due
    /// ([`Cycle::NEVER`] when only waiting on memory). Lets owning
    /// systems skip dead cycles.
    pub fn next_event(&self) -> Cycle {
        if !self.ready.is_empty() {
            return Cycle::ZERO; // work available immediately
        }
        self.computing.next_cycle().unwrap_or(Cycle::NEVER)
    }

    /// Executes the step the PE just finished computing for `task`:
    /// emits its accesses and either parks the task (blocking step),
    /// requeues it (posted step with more work) or retires it.
    fn finish_step(
        &mut self,
        task: TaskId,
        now: Cycle,
        issued: &mut Vec<IssuedAccess>,
        obs: &mut Observer,
    ) {
        let t = &mut self.tasks[task.0 as usize];
        debug_assert!(!t.steps_done && !t.retired);
        let step_idx = t.cursor;
        let step = &t.trace.steps[step_idx];
        let blocking = step.wait_for_data && !step.accesses.is_empty();

        for (i, access) in step.accesses.iter().enumerate() {
            issued.push(IssuedAccess {
                token: AccessToken {
                    task,
                    step: step_idx as u32,
                    idx: i as u32,
                },
                access: *access,
                blocking,
            });
        }
        self.acc_accesses_issued += step.accesses.len() as u64;
        if let Some(tr) = obs.trace_at(TraceLevel::Flit) {
            tr.record(
                self.trace_id.as_deref().unwrap_or("engine"),
                TraceEvent::instant(
                    now.as_u64(),
                    TraceLevel::Flit,
                    TraceCategory::Accel,
                    "task.step",
                    step.accesses.len() as u64,
                ),
            );
        }

        if blocking {
            t.outstanding = step.accesses.len() as u32;
            // Parked: in the incoming queue awaiting operands. It returns
            // via on_data.
        } else {
            t.outstanding_posted += step.accesses.len() as u32;
            t.cursor += 1;
            if t.cursor >= t.trace.steps.len() {
                t.steps_done = true;
                self.try_retire(task, now, obs);
            } else {
                // Continue on some PE: back into the ready queue (the same
                // PE will usually grab it this very cycle if free).
                self.ready.push_back(task);
            }
        }
    }

    /// Delivers returned data for `token`. Posted accesses are
    /// acknowledged through the same path; a retirement is traced into
    /// `obs`.
    ///
    /// # Panics
    /// Panics when the token does not correspond to an in-flight access —
    /// that is a wiring bug in the owning system.
    pub fn on_data(&mut self, token: AccessToken, now: Cycle, obs: &mut Observer) {
        let t = &mut self.tasks[token.task.0 as usize];
        assert!(!t.retired, "data for retired task {:?}", token.task);

        let step = &t.trace.steps[token.step as usize];
        if step.wait_for_data {
            debug_assert_eq!(token.step as usize, t.cursor, "stale blocking token");
            debug_assert!(t.outstanding > 0);
            t.outstanding -= 1;
            if t.outstanding == 0 {
                t.cursor += 1;
                if t.cursor >= t.trace.steps.len() {
                    t.steps_done = true;
                    self.try_retire(token.task, now, obs);
                } else {
                    self.ready.push_back(token.task);
                }
            }
        } else {
            debug_assert!(t.outstanding_posted > 0);
            t.outstanding_posted -= 1;
            if t.steps_done {
                self.try_retire(token.task, now, obs);
            }
        }
    }

    fn try_retire(&mut self, task: TaskId, now: Cycle, obs: &mut Observer) {
        let t = &mut self.tasks[task.0 as usize];
        if t.steps_done && t.outstanding == 0 && t.outstanding_posted == 0 && !t.retired {
            t.retired = true;
            self.completed += 1;
            self.stats.incr("engine.tasks_completed");
            self.trace_task(now, TraceLevel::Task, "task.retire", task.0 as u64, obs);
        }
    }
}

impl Snapshot for TaskEngine {
    const TAG: &'static str = "accel.engine";
    const VERSION: u16 = 1;
    fn snap(&self, w: &mut SnapWriter) {
        // `n_pes`, `pe_latency` and `trace_id` are construction-time.
        // Per-task latency IS dynamic (submit_for_app varies it), so it
        // travels with each task. The buckets serialise as ascending
        // `(cycle, task)` pairs — byte-identical to the retired heap's
        // `into_sorted_vec` wire form, so the payload version is
        // unchanged. The accumulator is flushed at every tick boundary
        // and snapshots only happen between cycles, so it never needs a
        // wire slot.
        debug_assert_eq!(self.acc_accesses_issued, 0, "unflushed accumulator");
        w.usize(self.computing.len());
        for (until, ids) in &self.computing.buckets {
            let mut sorted: Vec<u32> = ids.iter().map(|t| t.0).collect();
            sorted.sort_unstable();
            for id in sorted {
                w.cycle(*until);
                w.u32(id);
            }
        }
        w.usize(self.ready.len());
        for task in &self.ready {
            w.u32(task.0);
        }
        w.usize(self.tasks.len());
        for t in &self.tasks {
            beacon_genomics::snap::put_trace(w, &t.trace);
            w.duration(t.latency);
            w.usize(t.cursor);
            w.u32(t.outstanding);
            w.u32(t.outstanding_posted);
            w.bool(t.steps_done);
            w.bool(t.retired);
        }
        w.usize(self.completed);
        w.component(&self.stats);
        w.u64(self.busy_pe_cycles);
        w.cycle(self.last_busy_update);
    }
}

impl Restore for TaskEngine {
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.seq_len()?;
        let mut computing = CompletionQueue::default();
        for _ in 0..n {
            let until = r.cycle()?;
            // Pairs arrive ascending, so every push lands on the tail
            // bucket fast path.
            computing.push(until, TaskId(r.u32()?));
        }
        self.computing = computing;
        self.acc_accesses_issued = 0;
        let n = r.seq_len()?;
        let mut ready = VecDeque::with_capacity(n);
        for _ in 0..n {
            ready.push_back(TaskId(r.u32()?));
        }
        self.ready = ready;
        let n = r.seq_len()?;
        let mut tasks = Vec::with_capacity(n);
        for _ in 0..n {
            tasks.push(TaskState {
                trace: beacon_genomics::snap::get_trace(r)?,
                latency: r.duration()?,
                cursor: r.usize()?,
                outstanding: r.u32()?,
                outstanding_posted: r.u32()?,
                steps_done: r.bool()?,
                retired: r.bool()?,
            });
        }
        self.tasks = tasks;
        self.completed = r.usize()?;
        r.component(&mut self.stats)?;
        self.busy_pe_cycles = r.u64()?;
        self.last_busy_update = r.cycle()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beacon_genomics::trace::{AccessKind, AppKind, Region, Step};

    fn read_access(off: u64) -> Access {
        Access {
            region: Region::FmIndex,
            offset: off,
            bytes: 32,
            kind: AccessKind::Read,
        }
    }

    fn chain_trace(steps: usize) -> TaskTrace {
        TaskTrace::new(
            AppKind::FmSeeding,
            (0..steps)
                .map(|i| Step::blocking(vec![read_access(i as u64 * 32)]))
                .collect(),
        )
    }

    fn posted_trace(steps: usize) -> TaskTrace {
        TaskTrace::new(
            AppKind::KmerCounting,
            (0..steps)
                .map(|i| Step::posted(vec![read_access(i as u64)]))
                .collect(),
        )
    }

    /// Collecting shim for the removed allocating `tick` wrapper: the
    /// engine API is `tick_into`; tests trade the scratch reuse for
    /// brevity.
    fn tick(e: &mut TaskEngine, now: Cycle) -> Vec<IssuedAccess> {
        let mut out = Vec::new();
        e.tick_into(now, &mut out, &mut Observer::default());
        out
    }

    /// Runs the engine with an ideal zero-latency memory.
    fn run_ideal(engine: &mut TaskEngine, max_cycles: u64) -> u64 {
        for c in 0..max_cycles {
            let now = Cycle::new(c);
            let issued = tick(engine, now);
            for a in issued {
                engine.on_data(a.token, now, &mut Observer::default());
            }
            if engine.all_done() {
                return c;
            }
        }
        panic!("engine did not drain");
    }

    #[test]
    fn token_encode_decode_round_trip() {
        let t = AccessToken {
            task: TaskId(123456),
            step: 789,
            idx: 42,
        };
        assert_eq!(AccessToken::decode(t.encode()), t);
    }

    #[test]
    fn single_task_completes_after_all_steps() {
        let mut e = TaskEngine::new(1, 16);
        e.submit(chain_trace(4), &mut Observer::default());
        let finished = run_ideal(&mut e, 10_000);
        // 4 steps × 16 cycles compute, plus scheduling overhead cycles.
        assert!(finished >= 4 * 16);
        assert_eq!(e.completed(), 1);
    }

    #[test]
    fn posted_steps_do_not_block() {
        let mut e = TaskEngine::new(1, 10);
        e.submit(posted_trace(5), &mut Observer::default());
        run_ideal(&mut e, 10_000);
        assert_eq!(e.completed(), 1);
        assert_eq!(e.stats().get("engine.accesses_issued"), 5);
    }

    #[test]
    fn empty_trace_retires_immediately() {
        let mut e = TaskEngine::new(2, 16);
        e.submit(
            TaskTrace::new(AppKind::FmSeeding, vec![]),
            &mut Observer::default(),
        );
        assert!(e.all_done());
        assert_eq!(e.completed(), 1);
    }

    #[test]
    fn parallel_pes_overlap_tasks() {
        let mut obs = Observer::default();
        let mut one = TaskEngine::new(1, 16);
        let mut many = TaskEngine::new(8, 16);
        for _ in 0..16 {
            one.submit(chain_trace(4), &mut obs);
            many.submit(chain_trace(4), &mut obs);
        }
        let t_one = run_ideal(&mut one, 100_000);
        let t_many = run_ideal(&mut many, 100_000);
        assert!(
            t_many * 4 < t_one,
            "8 PEs ({t_many}) not ≥4x faster than 1 PE ({t_one})"
        );
    }

    #[test]
    fn blocked_task_frees_its_pe() {
        let mut obs = Observer::default();
        // One PE, two tasks: while task A waits for memory, task B must
        // make progress (latency hiding).
        let mut e = TaskEngine::new(1, 10);
        let a = e.submit(chain_trace(1), &mut obs);
        let b = e.submit(chain_trace(1), &mut obs);

        // Tick until both tasks have issued their (single) access without
        // returning any data: possible only if the PE switched tasks.
        let mut issued_tasks = std::collections::HashSet::new();
        for c in 0..200 {
            for acc in tick(&mut e, Cycle::new(c)) {
                issued_tasks.insert(acc.token.task);
            }
            if issued_tasks.len() == 2 {
                break;
            }
        }
        assert!(issued_tasks.contains(&a) && issued_tasks.contains(&b));
        assert_eq!(e.completed(), 0);
    }

    #[test]
    fn multi_access_step_waits_for_all() {
        let mut obs = Observer::default();
        let trace = TaskTrace::new(
            AppKind::FmSeeding,
            vec![Step::blocking(vec![read_access(0), read_access(64)])],
        );
        let mut e = TaskEngine::new(1, 4);
        e.submit(trace, &mut obs);
        let mut tokens = Vec::new();
        for c in 0..100 {
            tokens.extend(tick(&mut e, Cycle::new(c)).into_iter().map(|a| a.token));
            if !tokens.is_empty() {
                break;
            }
        }
        assert_eq!(tokens.len(), 2);
        e.on_data(tokens[0], Cycle::new(50), &mut obs);
        assert_eq!(e.completed(), 0);
        e.on_data(tokens[1], Cycle::new(51), &mut obs);
        assert_eq!(e.completed(), 1);
    }

    #[test]
    fn utilisation_counter_grows() {
        let mut e = TaskEngine::new(2, 16);
        e.submit(chain_trace(2), &mut Observer::default());
        run_ideal(&mut e, 10_000);
        assert!(e.busy_pe_cycles() >= 32);
    }

    #[test]
    fn per_app_latencies_coexist_on_one_engine() {
        let mut obs = Observer::default();
        // Multi-purpose PEs: an FM task (16 cycles/step) and a
        // pre-alignment task (82 cycles/step) run on the same module.
        let mut e = TaskEngine::new(2, 16);
        let fm = TaskTrace::new(AppKind::FmSeeding, vec![Step::blocking(vec![])]);
        let pa = TaskTrace::new(AppKind::PreAlignment, vec![Step::blocking(vec![])]);
        e.submit_for_app(fm, &mut obs);
        e.submit_for_app(pa, &mut obs);
        // Tick cycle by cycle: the FM task retires at 16, the
        // pre-alignment task at 82.
        let mut done_at = Vec::new();
        for c in 0..200 {
            let before = e.completed();
            tick(&mut e, Cycle::new(c));
            if e.completed() > before {
                done_at.push(c);
            }
            if e.all_done() {
                break;
            }
        }
        assert_eq!(done_at, vec![16, 82]);
    }

    mod completion_queue_oracle {
        use super::*;
        use proptest::prelude::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The bucket queue drains in exactly the retained
            /// `BinaryHeap<Reverse<(Cycle, TaskId)>>` pop order — the
            /// per-event oracle the batched tick replaced — and agrees
            /// with it on occupancy and horizon after every operation.
            #[test]
            fn bucket_drain_matches_heap_pop_order(
                ops in prop::collection::vec(0u64..u64::MAX, 1..300)
            ) {
                let mut q = CompletionQueue::default();
                let mut heap: BinaryHeap<Reverse<(Cycle, TaskId)>> = BinaryHeap::new();
                let mut now = 0u64;
                for &r in &ops {
                    if r % 3 == 0 {
                        // Advance the clock and drain everything due:
                        // whole buckets on one side, one pop at a time
                        // on the other.
                        now += r % 5;
                        let n = Cycle::new(now);
                        let mut batched = Vec::new();
                        while let Some(b) = q.take_due(n) {
                            batched.extend_from_slice(&b);
                            q.recycle(b);
                        }
                        let mut popped = Vec::new();
                        while heap.peek().is_some_and(|&Reverse((c, _))| c <= n) {
                            popped.push(heap.pop().expect("peeked").0 .1);
                        }
                        prop_assert_eq!(
                            &batched, &popped,
                            "drain order diverged at cycle {}", now
                        );
                    } else {
                        // Narrow ranges force bucket collisions and
                        // duplicate task ids within one bucket.
                        let until = Cycle::new(now + 1 + (r >> 8) % 24);
                        let task = TaskId((r % 7) as u32);
                        q.push(until, task);
                        heap.push(Reverse((until, task)));
                    }
                    prop_assert_eq!(q.len(), heap.len());
                    prop_assert_eq!(
                        q.next_cycle(),
                        heap.peek().map(|&Reverse((c, _))| c)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "retired task")]
    fn data_for_retired_task_panics() {
        let mut obs = Observer::default();
        let mut e = TaskEngine::new(1, 4);
        e.submit(chain_trace(1), &mut obs);
        let mut token = None;
        for c in 0..100 {
            if let Some(a) = tick(&mut e, Cycle::new(c)).first() {
                token = Some(a.token);
                break;
            }
        }
        let token = token.unwrap();
        e.on_data(token, Cycle::new(60), &mut obs);
        assert!(e.all_done());
        e.on_data(token, Cycle::new(61), &mut obs); // double delivery
    }
}
