//! Test axes shared by the conformance suites (`differential`, `faults`,
//! `snapshot`, `service`). CI fans the suites out over two environment
//! variables:
//!
//! * `BEACON_THREADS` — comma-separated worker counts (default
//!   `1,2,4,8`);
//! * `BEACON_FAULT_SEED` — the fault history under test (default 42).
//!
//! Each suite uses the subset of these helpers it needs.
#![allow(dead_code)]

use beacon_core::prelude::RunOptions;

/// Worker-thread counts under test.
pub fn thread_matrix() -> Vec<usize> {
    match std::env::var("BEACON_THREADS") {
        Ok(v) => v
            .split(',')
            .map(|s| s.trim().parse().expect("BEACON_THREADS must be integers"))
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    }
}

/// The fault seed under test.
pub fn fault_seed() -> u64 {
    match std::env::var("BEACON_FAULT_SEED") {
        Ok(v) => v
            .trim()
            .parse()
            .expect("BEACON_FAULT_SEED must be an integer"),
        Err(_) => 42,
    }
}

/// The production options on `threads` workers.
pub fn on_threads(threads: usize) -> RunOptions {
    RunOptions {
        threads,
        ..RunOptions::default()
    }
}

/// Every thread count under test, each with fast-forwarding on and off.
pub fn run_matrix() -> Vec<RunOptions> {
    thread_matrix()
        .into_iter()
        .flat_map(|threads| {
            [true, false].map(|skip| RunOptions {
                skip,
                ..on_threads(threads)
            })
        })
        .collect()
}
