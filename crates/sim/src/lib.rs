//! # beacon-sim — cycle-level simulation kernel
//!
//! This crate provides the shared machinery that the BEACON simulator stack
//! is built on: a strongly-typed [`cycle::Cycle`] time base, bounded queues with
//! back-pressure ([`queue::BoundedQueue`]), a statistics registry
//! ([`stats::Stats`]), deterministic random-number helpers ([`rng`]) and a
//! simple tick-driven execution [`engine`].
//!
//! All of the hardware models in `beacon-dram`, `beacon-cxl`,
//! `beacon-accel` and `beacon-core` advance in units of one **DRAM bus
//! cycle** (tCK). Components implement [`component::Tick`] and are advanced
//! by an [`engine::Engine`] until the modelled workload drains.
//!
//! ```
//! use beacon_sim::prelude::*;
//!
//! let mut q: BoundedQueue<u32> = BoundedQueue::new(2);
//! assert!(q.try_push(1).is_ok());
//! assert!(q.try_push(2).is_ok());
//! assert!(q.try_push(3).is_err()); // back-pressure
//! assert_eq!(q.pop(), Some(1));
//! ```

#![warn(missing_docs)]

pub mod component;
pub mod cycle;
pub mod engine;
pub mod faults;
pub mod horizon;
pub mod journey;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod parallel;
pub mod queue;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod trace;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::component::{Probe, Tick};
    pub use crate::cycle::{Cycle, Duration};
    pub use crate::engine::{Engine, RunOptions};
    pub use crate::faults::{FaultSchedule, FaultStream};
    pub use crate::horizon::{Backoff, HorizonCache};
    pub use crate::journey::{Attribution, JStamp, JourneyRecorder, LatencyHistogram, Phase};
    pub use crate::metrics::{MetricsSample, MetricsSeries};
    pub use crate::observer::{ObsConfig, Observed, Observer, Sampler, Watch};
    pub use crate::parallel::{EpochHub, EpochShard, ParallelEngine};
    pub use crate::queue::BoundedQueue;
    pub use crate::rng::SimRng;
    pub use crate::snap::{Restore, SnapError, SnapReader, SnapWriter, Snapshot};
    pub use crate::stats::{Fnv64, Histogram, Stats};
    pub use crate::trace::{TraceBuffer, TraceCategory, TraceEvent, TraceLevel};
}
