//! Deterministic conservative-parallel epoch engine.
//!
//! [`ParallelEngine`] drives a set of [`EpochShard`]s — independent
//! sub-models that only interact through a central [`EpochHub`] — in
//! epochs no longer than the lookahead. Within an epoch every shard
//! advances on its own worker thread; at the epoch barrier the hub
//! collects each shard's
//! outbound traffic and schedules deliveries in a fixed
//! canonical order. Because shard-to-shard influence is bounded below by the
//! epoch length (the conservative lookahead), the result is
//! *bit-identical* to single-threaded execution regardless of the
//! thread count or OS scheduling.
//!
//! The run loop mirrors [`crate::engine::Engine::run`]'s contract: it
//! returns [`RunOutcome::Drained`] at the first cycle every shard is
//! quiescent, [`RunOutcome::LimitReached`] at the deadlock-guard limit
//! and [`RunOutcome::Stalled`] when the run's [`Watch`] finds no
//! progress over a whole stall window.
//!
//! The watch is the sequential engine's: epochs end at its deadlines
//! (an epoch shorter than the lookahead is always safe), and it reads
//! the whole model through the hub's [`EpochHub::view`], so samples,
//! progress lines and stall verdicts land on the same cycles, with the
//! same values, as in a sequential run.
//!
//! Trace and journey records follow the work, not the thread: a shard
//! advanced on a worker records into its own [`Observer::fork`], which
//! travels with it in the job message; everything the coordinator runs
//! (the hub exchange, the final catch-up, every shard when the run is
//! inline) records into the run's observer. The forks merge back in one
//! step at the end of the run ([`Observer::absorb`]).

use std::sync::mpsc;

use crate::component::Probe;
use crate::cycle::{Cycle, Duration};
use crate::engine::{Engine, RunOutcome};
use crate::observer::{Observer, Watch};

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

    /// Cycles this shard has ticked in this run, fast-forwarded spans
    /// excluded; summed across shards for the raw rate of progress
    /// reports.
    fn ticked(&self) -> u64;
}

/// The single synchronization point between shards.
pub trait EpochHub<S: EpochShard> {
    /// Called at every epoch barrier before the next epoch runs: collect
    /// each shard's outbound traffic in canonical order and deliver
    /// everything due before `horizon` — the end of the longest epoch
    /// the lookahead allows — back into the destination shards, which
    /// hold a delivery until its cycle (the epoch that follows may end
    /// earlier, at a watch deadline). Returns `true` while undelivered
    /// traffic remains inside the hub (so the run cannot finish yet).
    /// Runs on the coordinator, recording into the run's observer `obs`.
    fn exchange(&mut self, shards: &mut [S], horizon: Cycle, obs: &mut Observer) -> bool;

    /// The whole model at a barrier — the hub and every shard — as the
    /// run's [`Watch`] reads it: the same progress counter, gauges and
    /// stall dump a sequential run of the model reports at that cycle.
    fn view<'v>(&'v self, shards: &'v [S]) -> impl Probe + 'v;
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
    /// Creates an engine advancing at most `epoch_cycles` per barrier on
    /// up to `threads` worker threads, with the default deadlock-guard
    /// limit.
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

    /// Runs the shards to completion with nothing watched, recording
    /// into `obs`.
    pub fn run<S: EpochShard, H: EpochHub<S>>(
        &self,
        shards: &mut Vec<S>,
        hub: &mut H,
        obs: &mut Observer,
    ) -> RunOutcome {
        self.run_watched(shards, hub, &mut Watch::off(), obs)
    }

    /// Runs the shards to completion under `watch`, recording into
    /// `obs`: epochs end at the watch's deadlines, where it fires on the
    /// hub's view of the whole model.
    pub fn run_watched<S: EpochShard, H: EpochHub<S>>(
        &self,
        shards: &mut Vec<S>,
        hub: &mut H,
        watch: &mut Watch<'_>,
        obs: &mut Observer,
    ) -> RunOutcome {
        let workers = self.threads.min(shards.len());
        if workers <= 1 {
            return self.drive(shards, hub, watch, obs, None);
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
            let outcome = self.drive(shards, hub, watch, obs, Some(&mut pool));
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
        watch: &mut Watch<'_>,
        obs: &mut Observer,
        mut pool: Option<&mut WorkerPool<S>>,
    ) -> RunOutcome {
        let mut t0 = self.start;
        watch.begin(t0, &hub.view(shards));
        let outcome = loop {
            let hub_busy = hub.exchange(shards, (t0 + self.epoch).min(self.limit), obs);
            let mut drained = None;
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
                drained = Some(finished_at);
            }
            // The sequential loop fires at a deadline it reaches before it
            // sees the model idle there, and never reaches one past the
            // drain.
            if t0 >= watch.deadline() && drained.is_none_or(|at| at == t0) {
                let ticked = shards.iter().map(EpochShard::ticked).sum();
                if let Some(stalled) = watch.fire(t0, ticked, &hub.view(shards)) {
                    break stalled;
                }
            }
            if let Some(finished_at) = drained {
                break RunOutcome::Drained { finished_at };
            }
            if t0 >= self.limit {
                for shard in shards.iter_mut() {
                    shard.finish_to(self.limit, obs);
                }
                break RunOutcome::LimitReached { limit: self.limit };
            }
            let horizon = (t0 + self.epoch).min(self.limit).min(watch.deadline());
            advance_epoch(shards, horizon, obs, pool.as_deref_mut());
            t0 = horizon;
        };
        let end = match outcome {
            RunOutcome::Drained { finished_at } => finished_at,
            RunOutcome::LimitReached { limit } => limit,
            RunOutcome::Stalled { at, .. } => at,
        };
        watch.end(end, &hub.view(shards));
        outcome
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
    use crate::observer::{ObsConfig, Sampler};

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

        fn ticked(&self) -> u64 {
            self.ticked
        }
    }

    /// The toy pool as the watch reads it: work done is its progress.
    struct ToyView<'v>(&'v [ToyShard]);

    impl Probe for ToyView<'_> {
        fn progress_counter(&self) -> u64 {
            self.0.iter().map(|s| s.done_work).sum()
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

        fn view<'v>(&'v self, shards: &'v [ToyShard]) -> impl Probe + 'v {
            ToyView(shards)
        }
    }

    /// A shard that never moves and never idles.
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
        fn ticked(&self) -> u64 {
            0
        }
    }

    /// A hub that carries no traffic and reads the model as [`Stuck`].
    struct NullHub;

    impl<S: EpochShard> EpochHub<S> for NullHub {
        fn exchange(&mut self, _shards: &mut [S], _horizon: Cycle, _obs: &mut Observer) -> bool {
            false
        }

        fn view<'v>(&'v self, _shards: &'v [S]) -> impl Probe + 'v {
            Stuck
        }
    }

    /// A model without progress.
    struct Stuck;

    impl Probe for Stuck {
        fn state_snapshot(&self) -> String {
            "wedged\n".to_owned()
        }
    }

    fn sampler(metrics_every: u64, progress_every: u64, stall_window: u64) -> Sampler {
        Sampler::new(ObsConfig {
            metrics_every,
            progress_every,
            stall_window,
        })
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
        let mut s = sampler(0, 0, 64);
        let mut watch = Watch::new(Some(&mut s));
        let engine = ParallelEngine::new(16, 1);
        let outcome = engine.run_watched(
            &mut vec![Wedged],
            &mut NullHub,
            &mut watch,
            &mut Observer::default(),
        );
        assert!(matches!(outcome, RunOutcome::Stalled { .. }));
        let report = watch.stall().expect("the stall was reported");
        assert!(report.snapshot.contains("wedged"));
    }

    #[test]
    fn stall_verdict_matches_the_sequential_engine() {
        /// The sequential twin of a wedged pool.
        struct Spinning;
        impl crate::component::Tick for Spinning {
            fn tick(&mut self, _now: Cycle) {}
            fn is_idle(&self) -> bool {
                false
            }
        }
        impl Probe for Spinning {}

        // A window that is not a multiple of the epoch.
        let mut s = sampler(0, 0, 50);
        let parallel = ParallelEngine::new(16, 1).run_watched(
            &mut vec![Wedged],
            &mut NullHub,
            &mut Watch::new(Some(&mut s)),
            &mut Observer::default(),
        );
        let sequential = Engine::new().run_watched(&mut Spinning, &mut Watch::new(Some(&mut s)));
        assert_eq!(parallel, sequential);
        assert_eq!(
            parallel,
            RunOutcome::Stalled {
                at: Cycle::new(50),
                last_progress_at: Cycle::ZERO,
            }
        );
    }

    #[test]
    fn barrier_hooks_sample_and_report() {
        let mut s = sampler(16, 16, 0);
        let mut watch = Watch::new(Some(&mut s));
        let (mut shards, mut hub) = build(3);
        let engine = ParallelEngine::new(LATENCY, 2);
        let outcome =
            engine.run_watched(&mut shards, &mut hub, &mut watch, &mut Observer::default());
        assert!(outcome.drained());
        assert!(watch.progress().is_some());
        // Samples land on the cadence, as in a sequential run, not on
        // epoch barriers: at the start, every 16 cycles up to and
        // including the drain cycle, and at the end.
        let sampled: Vec<u64> = s.series.samples().iter().map(|x| x.cycle).collect();
        let fin = outcome.finished_at().as_u64();
        let expected: Vec<u64> = (0..=fin).step_by(16).chain([fin]).collect();
        assert_eq!(sampled, expected);
    }

    #[test]
    fn progress_counts_cycles_from_the_run_start() {
        let start = Cycle::new(1_000);
        let mut shards: Vec<ToyShard> = (0..2)
            .map(|i| {
                let mut shard = ToyShard::new(i, 0, 0);
                shard.pos = start;
                shard.work_until = start + Duration::new(100);
                shard
            })
            .collect();
        let mut s = sampler(0, 32, 0);
        let mut watch = Watch::new(Some(&mut s));
        let engine = ParallelEngine::new(LATENCY, 2).starting_at(start);
        let outcome = engine.run_watched(
            &mut shards,
            &mut ToyHub::default(),
            &mut watch,
            &mut Observer::default(),
        );
        assert_eq!(outcome.finished_at(), Cycle::new(1_100));
        let p = watch.progress().expect("progress reported");
        assert_eq!(p.now, Cycle::new(1_096));
        assert_eq!(p.cycles, 96, "cycles count from the run's start");
        assert_eq!(p.ticked, 2 * 96);
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
            fn ticked(&self) -> u64 {
                self.0.ticked()
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
