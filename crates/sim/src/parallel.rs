//! Deterministic conservative-parallel epoch engine.
//!
//! [`ParallelEngine`] drives a set of [`EpochShard`]s — independent
//! sub-models that only interact through a central [`EpochHub`] — in
//! fixed-length epochs. Within an epoch every shard advances on its own
//! worker thread; at the epoch barrier the hub collects each shard's
//! outbound traffic and schedules deliveries in a fixed canonical
//! order. Because shard-to-shard influence is bounded below by the
//! epoch length (the conservative lookahead), the result is
//! *bit-identical* to single-threaded execution regardless of the
//! thread count or OS scheduling.
//!
//! The run loop mirrors [`crate::engine::Engine::run`]'s contract: it
//! returns [`RunOutcome::Drained`] at the first cycle every shard is
//! quiescent, [`RunOutcome::LimitReached`] at the deadlock-guard limit
//! and [`RunOutcome::Stalled`] when the summed progress counters stop
//! moving for a whole stall window. Observer hooks fire at epoch
//! barriers rather than exact cycles — coarser than the sequential
//! engine's, but equally read-only.
//!
//! Trace and journey records follow the work, not the thread: a shard
//! advanced on a worker records into its own [`Observer::fork`], which
//! travels with it in the job message; everything the coordinator runs
//! (the hub exchange, the final catch-up, every shard when the run is
//! inline) records into the run's observer. The forks merge back in one
//! step at the end of the run ([`Observer::absorb`]).

use std::sync::mpsc;

use crate::cycle::{Cycle, Duration};
use crate::engine::{Engine, Progress, ProgressFn, RunOutcome, StallFn, StallReport};
use crate::observer::Observer;

/// One independently advanceable partition of a model.
///
/// Implementations must uphold the conservative contract: between
/// epoch barriers a shard's behaviour depends only on its own state and
/// the deliveries its hub pushed before the epoch started.
pub trait EpochShard: Send {
    /// Advances the shard's local clock from [`EpochShard::position`]
    /// towards `to`, stopping early (pausing) once the shard has
    /// nothing left to do. Must be resumable: a later `advance` with a
    /// larger horizon continues where this one stopped.
    ///
    /// Implementations are free to *fast-forward* inside the epoch: the
    /// event horizon of a shard is purely local (cross-shard influence
    /// arrives only through the hub, and only at barriers), so skipping
    /// provably dead spans up to `min(horizon, to)` composes cleanly
    /// with the epoch barrier and keeps results bit-identical.
    ///
    /// Trace and journey records go to `obs`.
    fn advance(&mut self, to: Cycle, obs: &mut Observer);

    /// Ticks an already-quiescent shard up to `to` so every shard ends
    /// the run having simulated exactly the same final cycle (periodic
    /// background state such as DRAM refresh must match a sequential
    /// run tick for tick). Runs on the coordinator, recording into the
    /// run's observer `obs`.
    fn finish_to(&mut self, to: Cycle, obs: &mut Observer);

    /// The shard's local clock: the next cycle it would simulate.
    fn position(&self) -> Cycle;

    /// True when the shard has no work queued anywhere — its pause
    /// point is final unless the hub delivers more traffic.
    fn quiescent(&self) -> bool;

    /// Monotone count of useful work done, summed across shards for
    /// stall detection (see [`crate::component::Probe`]).
    fn progress(&self) -> u64;

    /// Cycles this shard has actually ticked so far, fast-forwarded
    /// spans excluded; summed across shards for the raw-rate field of
    /// barrier progress reports. The default assumes every simulated
    /// cycle was ticked (no skipping).
    fn ticked(&self) -> u64 {
        self.position().as_u64()
    }

    /// Human-readable state dump for stall reports.
    fn snapshot(&self) -> String {
        String::new()
    }
}

/// The single synchronization point between shards.
pub trait EpochHub<S: EpochShard> {
    /// Called at every epoch barrier *before* the epoch `[horizon -
    /// epoch, horizon)` runs: collect each shard's outbound traffic in
    /// canonical order and deliver everything due before `horizon` back
    /// into the destination shards. Returns `true` while undelivered
    /// traffic remains inside the hub (so the run cannot finish yet).
    /// Runs on the coordinator, recording into the run's observer `obs`.
    fn exchange(&mut self, shards: &mut [S], horizon: Cycle, obs: &mut Observer) -> bool;
}

/// Boxed barrier-granular metrics callback (receives all shards).
pub type ShardSampleFn<'a, S> = Box<dyn FnMut(Cycle, &[S]) + 'a>;

/// Observer hooks for [`ParallelEngine::run_instrumented`], mirroring
/// [`crate::engine::EngineHooks`] at epoch-barrier granularity.
pub struct ParallelHooks<'a, S> {
    /// Report progress at the first barrier past each multiple of this
    /// many cycles (0 = never).
    pub progress_every: u64,
    /// Periodic progress callback.
    pub on_progress: Option<ProgressFn<'a>>,
    /// Sample at the first barrier past each multiple of this many
    /// cycles (0 = never); also once at run start and once at the end.
    pub sample_every: u64,
    /// Metrics-sampling callback; reads the shards.
    pub on_sample: Option<ShardSampleFn<'a, S>>,
    /// Declare a stall after this many cycles without summed-progress
    /// movement (0 = stall detection off).
    pub stall_window: u64,
    /// Stall callback, invoked right before returning
    /// [`RunOutcome::Stalled`].
    pub on_stall: Option<StallFn<'a>>,
}

impl<S> Default for ParallelHooks<'_, S> {
    fn default() -> Self {
        ParallelHooks {
            progress_every: 0,
            on_progress: None,
            sample_every: 0,
            on_sample: None,
            stall_window: 0,
            on_stall: None,
        }
    }
}

/// Message from the coordinator to a worker: advance shard `1` (kept at
/// index `0`), recording into its fork `2`, to cycle `3`.
type Job<S> = (usize, S, Observer, Cycle);
/// Worker reply: the shard and its fork back (or the panic payload of
/// its model).
type JobResult<S> = (usize, Result<(S, Observer), Box<dyn std::any::Any + Send>>);

struct WorkerPool<S> {
    txs: Vec<mpsc::Sender<Job<S>>>,
    ret_rx: mpsc::Receiver<JobResult<S>>,
    /// Each shard's private observer, by shard index.
    forks: Vec<Observer>,
}

/// Epoch-barrier scheduler for [`EpochShard`]s.
///
/// `epoch` must not exceed the model's true lookahead (the minimum
/// cross-shard delivery latency) or determinism versus the sequential
/// reference is lost — that bound is the *model's* responsibility.
#[derive(Debug, Clone)]
pub struct ParallelEngine {
    epoch: Duration,
    limit: Cycle,
    threads: usize,
    start: Cycle,
}

impl ParallelEngine {
    /// Creates an engine advancing `epoch_cycles` per barrier on up to
    /// `threads` worker threads, with the default deadlock-guard limit.
    ///
    /// # Panics
    /// Panics when `epoch_cycles` or `threads` is zero.
    pub fn new(epoch_cycles: u64, threads: usize) -> Self {
        assert!(epoch_cycles > 0, "epoch must be at least one cycle");
        assert!(threads > 0, "need at least one thread");
        ParallelEngine {
            epoch: Duration::new(epoch_cycles),
            limit: Cycle::new(Engine::DEFAULT_LIMIT),
            threads,
            start: Cycle::ZERO,
        }
    }

    /// Replaces the deadlock-guard cycle limit.
    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = Cycle::new(limit);
        self
    }

    /// Starts the epoch clock at `at` instead of cycle zero — the
    /// resume path of checkpoint/restore. Every shard must already be
    /// positioned at `at`; observer cadences are measured relative to
    /// it, mirroring [`Engine::starting_at`].
    pub fn starting_at(mut self, at: Cycle) -> Self {
        self.start = at;
        self
    }

    /// The configured epoch length in cycles.
    pub fn epoch_cycles(&self) -> u64 {
        self.epoch.as_u64()
    }

    /// Runs the shards to completion without hooks, recording into `obs`.
    pub fn run<S: EpochShard, H: EpochHub<S>>(
        &self,
        shards: &mut Vec<S>,
        hub: &mut H,
        obs: &mut Observer,
    ) -> RunOutcome {
        self.run_instrumented(shards, hub, &mut ParallelHooks::default(), obs)
    }

    /// Runs the shards to completion, driving barrier-granular observer
    /// hooks and recording into `obs`. With default hooks this behaves
    /// exactly like [`ParallelEngine::run`].
    pub fn run_instrumented<S: EpochShard, H: EpochHub<S>>(
        &self,
        shards: &mut Vec<S>,
        hub: &mut H,
        hooks: &mut ParallelHooks<'_, S>,
        obs: &mut Observer,
    ) -> RunOutcome {
        let workers = self.threads.min(shards.len());
        if workers <= 1 {
            return self.drive(shards, hub, hooks, obs, None);
        }
        std::thread::scope(|scope| {
            let (ret_tx, ret_rx) = mpsc::channel::<JobResult<S>>();
            let txs = (0..workers)
                .map(|_| {
                    let (tx, rx) = mpsc::channel::<Job<S>>();
                    let ret = ret_tx.clone();
                    scope.spawn(move || worker_loop(rx, ret));
                    tx
                })
                .collect();
            drop(ret_tx);
            let forks = shards.iter().map(|_| obs.fork()).collect();
            let mut pool = WorkerPool { txs, ret_rx, forks };
            let outcome = self.drive(shards, hub, hooks, obs, Some(&mut pool));
            // The end-of-run merge. Dropping the pool then closes the job
            // channels, so every worker drains and exits.
            obs.absorb(std::mem::take(&mut pool.forks));
            outcome
        })
    }

    fn drive<S: EpochShard, H: EpochHub<S>>(
        &self,
        shards: &mut Vec<S>,
        hub: &mut H,
        hooks: &mut ParallelHooks<'_, S>,
        obs: &mut Observer,
        mut pool: Option<&mut WorkerPool<S>>,
    ) -> RunOutcome {
        let wall_start = std::time::Instant::now();
        let progress_every = match hooks.on_progress {
            Some(_) => hooks.progress_every,
            None => 0,
        };
        let sample_every = match hooks.on_sample {
            Some(_) => hooks.sample_every,
            None => 0,
        };
        let stall_window = hooks.stall_window;

        let mut next_progress = cadence_start(self.start, progress_every);
        let mut next_sample = cadence_start(self.start, sample_every);
        let mut next_stall_check = cadence_start(self.start, stall_window);

        if sample_every > 0 {
            if let Some(cb) = hooks.on_sample.as_mut() {
                cb(self.start, shards);
            }
        }
        let mut last_progress_count: u64 = shards.iter().map(EpochShard::progress).sum();
        let mut last_progress_at = self.start;

        let mut t0 = self.start;
        let outcome = loop {
            let horizon = (t0 + self.epoch).min(self.limit);
            let hub_busy = hub.exchange(shards, horizon, obs);
            if !hub_busy && shards.iter().all(EpochShard::quiescent) {
                // Every shard is paused with nothing in flight: the run
                // finished at the latest pause point (the first cycle a
                // sequential engine would see a globally idle model).
                // Catch the earlier-paused shards up so all of them end
                // having ticked the same cycles.
                let finished_at = shards.iter().map(EpochShard::position).max().unwrap_or(t0);
                for shard in shards.iter_mut() {
                    shard.finish_to(finished_at, obs);
                }
                break RunOutcome::Drained { finished_at };
            }
            if t0 >= self.limit {
                for shard in shards.iter_mut() {
                    shard.finish_to(self.limit, obs);
                }
                break RunOutcome::LimitReached { limit: self.limit };
            }

            advance_epoch(shards, horizon, obs, pool.as_deref_mut());
            t0 = horizon;

            if sample_every > 0 && t0 >= next_sample {
                if let Some(cb) = hooks.on_sample.as_mut() {
                    cb(t0, shards);
                }
                next_sample = t0 + Duration::new(sample_every);
            }
            if t0 >= next_progress {
                let events: u64 = shards.iter().map(EpochShard::progress).sum();
                let cycles = t0.as_u64();
                let ticked: u64 = shards.iter().map(EpochShard::ticked).sum();
                let wall_secs = wall_start.elapsed().as_secs_f64();
                let per_sec = |n: u64| {
                    if wall_secs > 0.0 {
                        n as f64 / wall_secs
                    } else {
                        0.0
                    }
                };
                let report = Progress {
                    now: t0,
                    cycles,
                    ticked,
                    events,
                    wall_secs,
                    cycles_per_sec: per_sec(cycles),
                    ticked_per_sec: per_sec(ticked),
                };
                if let Some(cb) = hooks.on_progress.as_mut() {
                    cb(&report);
                }
                next_progress = t0 + Duration::new(progress_every);
            }
            if t0 >= next_stall_check {
                let count: u64 = shards.iter().map(EpochShard::progress).sum();
                if count > last_progress_count {
                    last_progress_count = count;
                    last_progress_at = t0;
                } else {
                    let mut snapshot = String::new();
                    for (i, shard) in shards.iter().enumerate() {
                        let s = shard.snapshot();
                        if !s.is_empty() {
                            snapshot.push_str(&format!("shard {i}:\n{s}"));
                        }
                    }
                    let report = StallReport {
                        at: t0,
                        last_progress_at,
                        events: count,
                        snapshot,
                    };
                    if let Some(cb) = hooks.on_stall.as_mut() {
                        cb(&report);
                    }
                    break RunOutcome::Stalled {
                        at: t0,
                        last_progress_at,
                    };
                }
                next_stall_check = t0 + Duration::new(stall_window);
            }
        };

        if sample_every > 0 {
            if let Some(cb) = hooks.on_sample.as_mut() {
                let now = match outcome {
                    RunOutcome::Drained { finished_at } => finished_at,
                    RunOutcome::LimitReached { limit } => limit,
                    RunOutcome::Stalled { at, .. } => at,
                };
                cb(now, shards);
            }
        }
        outcome
    }
}

fn cadence_start(from: Cycle, every: u64) -> Cycle {
    if every > 0 {
        from + Duration::new(every)
    } else {
        Cycle::NEVER
    }
}

/// Receive with a bounded spin before blocking. Epochs are short (the
/// lookahead is tens of cycles), so job hand-offs recur every few
/// microseconds; a futex sleep/wake on each one costs more than the
/// epoch's compute. Spinning keeps the hot path wake-free while the
/// blocking fallback keeps long-idle phases (a drained pool waiting on
/// the hub) off the CPU.
fn spin_recv<T>(rx: &mpsc::Receiver<T>) -> Result<T, mpsc::RecvError> {
    for spins in 0..50_000u32 {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(mpsc::TryRecvError::Empty) => {
                if spins % 64 == 63 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => return Err(mpsc::RecvError),
        }
    }
    rx.recv()
}

/// Advances every non-quiescent shard to `to` — inline into `obs`, or
/// fanned out over the worker pool, each shard with its own fork.
/// Shards come back in their original slots, so downstream iteration
/// order never depends on completion order.
fn advance_epoch<S: EpochShard>(
    shards: &mut Vec<S>,
    to: Cycle,
    obs: &mut Observer,
    pool: Option<&mut WorkerPool<S>>,
) {
    let Some(pool) = pool else {
        for shard in shards.iter_mut() {
            if !shard.quiescent() {
                shard.advance(to, obs);
            }
        }
        return;
    };
    let owned = std::mem::take(shards);
    let n = owned.len();
    let mut slots: Vec<Option<S>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let mut dispatched = 0usize;
    for (idx, shard) in owned.into_iter().enumerate() {
        if shard.quiescent() {
            slots[idx] = Some(shard);
        } else {
            let fork = std::mem::take(&mut pool.forks[idx]);
            pool.txs[dispatched % pool.txs.len()]
                .send((idx, shard, fork, to))
                .expect("worker hung up");
            dispatched += 1;
        }
    }
    for _ in 0..dispatched {
        let (idx, result) = spin_recv(&pool.ret_rx).expect("all workers hung up");
        match result {
            Ok((shard, fork)) => {
                slots[idx] = Some(shard);
                pool.forks[idx] = fork;
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    shards.extend(slots.into_iter().map(|s| s.expect("shard not returned")));
}

fn worker_loop<S: EpochShard>(rx: mpsc::Receiver<Job<S>>, ret: mpsc::Sender<JobResult<S>>) {
    while let Ok((idx, mut shard, mut fork, to)) = spin_recv(&rx) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shard.advance(to, &mut fork);
            (shard, fork)
        }));
        let failed = result.is_err();
        if ret.send((idx, result)).is_err() || failed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy model: each shard burns `work` cycles, sending one message to
    /// the next shard every `send_every` cycles; messages arrive
    /// `LATENCY` cycles later and extend the receiver's work.
    const LATENCY: u64 = 8;

    #[derive(Debug, Clone)]
    struct ToyShard {
        index: usize,
        pos: Cycle,
        work_until: Cycle,
        send_every: u64,
        sent: Vec<(Cycle, usize)>,
        done_work: u64,
        ticked: u64,
        /// Deliveries that still extend the busy window; bounded so the
        /// ring traffic provably dies out.
        boosts_left: u32,
    }

    impl ToyShard {
        fn new(index: usize, work: u64, send_every: u64) -> Self {
            ToyShard {
                index,
                pos: Cycle::ZERO,
                work_until: Cycle::new(work),
                send_every,
                sent: Vec::new(),
                done_work: 0,
                ticked: 0,
                boosts_left: 6,
            }
        }

        fn deliver(&mut self, at: Cycle) {
            // Each delivery extends the busy period a little.
            if self.boosts_left > 0 {
                self.boosts_left -= 1;
                self.work_until = self.work_until.max(at + Duration::new(3));
            }
        }
    }

    impl EpochShard for ToyShard {
        fn advance(&mut self, to: Cycle, _obs: &mut Observer) {
            while self.pos < to {
                if self.quiescent() {
                    return;
                }
                let now = self.pos;
                self.done_work += 1;
                self.ticked += 1;
                if self.send_every > 0 && now.as_u64().is_multiple_of(self.send_every) {
                    self.sent.push((now, self.index + 1));
                }
                self.pos = now.next();
            }
        }

        fn finish_to(&mut self, to: Cycle, _obs: &mut Observer) {
            while self.pos < to {
                self.ticked += 1;
                self.pos = self.pos.next();
            }
        }

        fn position(&self) -> Cycle {
            self.pos
        }

        fn quiescent(&self) -> bool {
            self.pos >= self.work_until
        }

        fn progress(&self) -> u64 {
            self.done_work
        }

        fn ticked(&self) -> u64 {
            self.ticked
        }
    }

    #[derive(Default)]
    struct ToyHub {
        pending: Vec<(Cycle, usize)>,
    }

    impl EpochHub<ToyShard> for ToyHub {
        fn exchange(
            &mut self,
            shards: &mut [ToyShard],
            horizon: Cycle,
            _obs: &mut Observer,
        ) -> bool {
            let n = shards.len();
            let mut collected: Vec<(Cycle, usize)> = Vec::new();
            for shard in shards.iter_mut() {
                collected.append(&mut shard.sent);
            }
            collected.sort_by_key(|&(at, dst)| (at, dst));
            for (at, dst) in collected {
                self.pending.push((at + Duration::new(LATENCY), dst % n));
            }
            self.pending.sort_by_key(|&(ready, dst)| (ready, dst));
            let mut rest = Vec::new();
            for (ready, dst) in self.pending.drain(..) {
                if ready < horizon {
                    shards[dst].deliver(ready);
                } else {
                    rest.push((ready, dst));
                }
            }
            self.pending = rest;
            !self.pending.is_empty()
        }
    }

    fn build(n: usize) -> (Vec<ToyShard>, ToyHub) {
        let shards = (0..n)
            .map(|i| ToyShard::new(i, 40 + 13 * i as u64, 5 + i as u64))
            .collect();
        (shards, ToyHub::default())
    }

    type Fingerprint = Vec<(u64, u64, u64)>;

    fn fingerprint(shards: &[ToyShard]) -> Fingerprint {
        shards
            .iter()
            .map(|s| (s.pos.as_u64(), s.done_work, s.ticked))
            .collect()
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        let mut reference: Option<(Cycle, Fingerprint)> = None;
        for threads in [1, 2, 4, 8] {
            let (mut shards, mut hub) = build(5);
            let engine = ParallelEngine::new(LATENCY, threads);
            let outcome = engine.run(&mut shards, &mut hub, &mut Observer::default());
            let fin = outcome.finished_at();
            let fp = fingerprint(&shards);
            match &reference {
                None => reference = Some((fin, fp)),
                Some((rf, rfp)) => {
                    assert_eq!(fin, *rf, "finish diverged at {threads} threads");
                    assert_eq!(&fp, rfp, "state diverged at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn all_shards_tick_to_the_same_final_cycle() {
        let (mut shards, mut hub) = build(4);
        let engine = ParallelEngine::new(LATENCY, 4);
        let outcome = engine.run(&mut shards, &mut hub, &mut Observer::default());
        let fin = outcome.finished_at();
        for s in &shards {
            assert_eq!(s.pos, fin, "shard {} not caught up", s.index);
        }
    }

    #[test]
    fn already_idle_shards_finish_at_zero() {
        let mut shards = vec![ToyShard::new(0, 0, 0), ToyShard::new(1, 0, 0)];
        let mut hub = ToyHub::default();
        let engine = ParallelEngine::new(LATENCY, 2);
        let outcome = engine.run(&mut shards, &mut hub, &mut Observer::default());
        assert_eq!(outcome.finished_at(), Cycle::ZERO);
    }

    #[test]
    fn limit_reached_when_work_exceeds_limit() {
        let mut shards = vec![ToyShard::new(0, 10_000, 0)];
        let mut hub = ToyHub::default();
        let engine = ParallelEngine::new(LATENCY, 1).with_limit(100);
        match engine.run(&mut shards, &mut hub, &mut Observer::default()) {
            RunOutcome::LimitReached { limit } => assert_eq!(limit, Cycle::new(100)),
            other => panic!("expected limit, got {other:?}"),
        }
        assert_eq!(shards[0].pos, Cycle::new(100));
    }

    #[test]
    fn stall_detection_fires_on_wedged_shards() {
        struct Wedged;
        impl EpochShard for Wedged {
            fn advance(&mut self, _to: Cycle, _obs: &mut Observer) {}
            fn finish_to(&mut self, _to: Cycle, _obs: &mut Observer) {}
            fn position(&self) -> Cycle {
                Cycle::ZERO
            }
            fn quiescent(&self) -> bool {
                false
            }
            fn progress(&self) -> u64 {
                0
            }
            fn snapshot(&self) -> String {
                "wedged\n".to_owned()
            }
        }
        struct NullHub;
        impl EpochHub<Wedged> for NullHub {
            fn exchange(
                &mut self,
                _shards: &mut [Wedged],
                _horizon: Cycle,
                _obs: &mut Observer,
            ) -> bool {
                false
            }
        }
        let mut shards = vec![Wedged];
        let mut reports = Vec::new();
        let mut hooks = ParallelHooks {
            stall_window: 64,
            on_stall: Some(Box::new(|r: &StallReport| {
                reports.push(r.snapshot.clone());
            })),
            ..ParallelHooks::default()
        };
        let engine = ParallelEngine::new(16, 1);
        let outcome = engine.run_instrumented(
            &mut shards,
            &mut NullHub,
            &mut hooks,
            &mut Observer::default(),
        );
        drop(hooks);
        assert!(matches!(outcome, RunOutcome::Stalled { .. }));
        assert_eq!(reports.len(), 1);
        assert!(reports[0].contains("wedged"));
    }

    #[test]
    fn barrier_hooks_sample_and_report() {
        let mut sampled: Vec<u64> = Vec::new();
        let mut progressed = 0usize;
        {
            let mut hooks = ParallelHooks {
                sample_every: 16,
                on_sample: Some(Box::new(|now: Cycle, _shards: &[ToyShard]| {
                    sampled.push(now.as_u64());
                })),
                progress_every: 16,
                on_progress: Some(Box::new(|_p: &Progress| {
                    progressed += 1;
                })),
                ..ParallelHooks::default()
            };
            let (mut shards, mut hub) = build(3);
            let engine = ParallelEngine::new(LATENCY, 2);
            let outcome = engine.run_instrumented(
                &mut shards,
                &mut hub,
                &mut hooks,
                &mut Observer::default(),
            );
            assert!(outcome.drained());
        }
        assert!(sampled.len() >= 2, "start and end samples at minimum");
        assert_eq!(sampled[0], 0);
        assert!(sampled.windows(2).all(|w| w[0] <= w[1]));
        assert!(progressed >= 1);
    }

    #[test]
    fn worker_traces_merge_into_coordinator_sink() {
        use crate::trace::{TraceBuffer, TraceCategory, TraceEvent, TraceLevel};

        /// Shard that emits one trace event per busy cycle.
        struct Tracing(ToyShard);
        impl EpochShard for Tracing {
            fn advance(&mut self, to: Cycle, obs: &mut Observer) {
                while self.0.pos < to {
                    if self.0.quiescent() {
                        return;
                    }
                    obs.trace_at(TraceLevel::Task).expect("traced run").record(
                        "toy",
                        TraceEvent::instant(
                            self.0.pos.as_u64(),
                            TraceLevel::Task,
                            TraceCategory::Engine,
                            "toy.tick",
                            self.0.index as u64,
                        ),
                    );
                    self.0.done_work += 1;
                    self.0.pos = self.0.pos.next();
                }
            }
            fn finish_to(&mut self, to: Cycle, obs: &mut Observer) {
                self.0.finish_to(to, obs);
            }
            fn position(&self) -> Cycle {
                self.0.pos
            }
            fn quiescent(&self) -> bool {
                self.0.quiescent()
            }
            fn progress(&self) -> u64 {
                self.0.progress()
            }
        }
        struct NullHub;
        impl EpochHub<Tracing> for NullHub {
            fn exchange(
                &mut self,
                _shards: &mut [Tracing],
                _horizon: Cycle,
                _obs: &mut Observer,
            ) -> bool {
                false
            }
        }

        let run = |threads: usize| {
            let mut obs = Observer {
                trace: Some(TraceBuffer::new(TraceLevel::Command, 1 << 12)),
                ..Observer::default()
            };
            let mut shards: Vec<Tracing> = (0..4)
                .map(|i| Tracing(ToyShard::new(i, 20 + i as u64, 0)))
                .collect();
            let engine = ParallelEngine::new(LATENCY, threads);
            engine.run(&mut shards, &mut NullHub, &mut obs);
            obs.trace.expect("sink").canonical_events()
        };
        let seq = run(1);
        let par = run(4);
        assert!(!seq.is_empty());
        assert_eq!(seq, par, "trace streams must merge canonically");
    }
}
