//! Hot-path microbenchmarks with allocation accounting.
//!
//! Measures the per-iteration cost of the three tick paths the
//! horizon-cache work optimises — `Dimm::tick`, `Switch::tick` and the
//! `BeaconSystem::next_event` min-composition — under a counting global
//! allocator, and **asserts that the steady state performs zero heap
//! allocations per iteration**. Scratch buffers, slab free lists and
//! warmed queue capacities must absorb all churn; any regression that
//! reintroduces per-cycle allocation fails this binary, not just a
//! profile.
//!
//! ```text
//! cargo run -p beacon-bench --bin microbench --release
//! ```
//!
//! Each section warms up (growing every buffer to its steady-state
//! capacity), snapshots the allocation counter, runs the timed loop and
//! reports ns/iter plus the allocation delta. Exit status is non-zero
//! when any steady-state loop allocated.
//!
//! Built with `--features audit` (forwarding beacon-dram's and
//! beacon-accel's `tick-audit` features), the DIMM and engine sections
//! also report *work-budget* columns from
//! the deterministic per-tick counters: banks inspected by the FR-FCFS
//! scan, full horizon-recompute terms and `due`-probe terms per
//! iteration. Hardware
//! instruction/branch counters are not available in every environment
//! this runs in, so these deterministic iteration counts are the
//! budget proxy: they bound the branchy inner-loop work of
//! `Dimm::tick_banks` exactly and reproduce bit-identically across
//! runs. The sections assert their per-tick budgets — a regression
//! that makes the batched bank sweep super-linear (e.g. re-scanning
//! every queue entry instead of the per-bank list heads) or degrades
//! `TaskEngine`'s bucketed completion drain back to per-completion
//! dequeues fails this binary even when wall-clock noise would hide
//! it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use beacon_accel::task::TaskEngine;
use beacon_core::config::{BeaconConfig, BeaconVariant, Optimizations};
use beacon_core::experiments::common::{fm_workload, WorkloadScale};
use beacon_core::mmf::build_layout;
use beacon_core::system::BeaconSystem;
use beacon_cxl::bundle::Bundle;
use beacon_cxl::message::{Message, NodeId};
use beacon_cxl::switch::{Switch, SwitchConfig};
use beacon_dram::address::DramCoord;
use beacon_dram::module::{AccessMode, Dimm, DimmConfig};
use beacon_dram::request::{CompletedAccess, MemRequest, ReqKind};
use beacon_genomics::genome::GenomeId;
use beacon_genomics::trace::{Access, AppKind, Region, Step, TaskTrace};
use beacon_sim::component::Tick;
use beacon_sim::cycle::Cycle;
use beacon_sim::observer::Observer;

/// Counts every allocation and reallocation going through the global
/// allocator. Deallocations are not interesting here: freeing into the
/// allocator is cheap and the assertion targets *new* heap traffic.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

struct Report {
    name: &'static str,
    iters: u64,
    ns_per_iter: f64,
    allocs: u64,
    /// FR-FCFS bank inspections per iteration (`audit` builds only).
    choice_per_iter: Option<f64>,
    /// Horizon-recompute terms per iteration (`audit` builds only).
    horizon_per_iter: Option<f64>,
    /// Active-bank terms folded by `due` probes per iteration (`audit`
    /// builds only).
    due_per_iter: Option<f64>,
    /// Completion buckets drained per iteration (`audit` builds only).
    batch_per_iter: Option<f64>,
    /// PE step completions per iteration (`audit` builds only).
    comp_per_iter: Option<f64>,
}

/// Per-tick budget for `Dimm::tick_banks` FR-FCFS bank inspections,
/// asserted by the DIMM section in `audit` builds. The traffic below
/// keeps up to 16 banks of rank 0 active, and the scheduler inspects
/// each active bank once per ungated tick, whatever the number of
/// commands it issues: 4.5 per iteration here. Choosing again after
/// every issued command runs up to (buses + 1) × 2 passes per tick,
/// 11.0 per iteration on this traffic, and a per-entry rescan (O(queue)
/// per tick) costs more still, so both fail this budget.
const DIMM_CHOICE_SCAN_BUDGET: f64 = 8.0;

/// Per-tick budget for full horizon recomputes' terms (one per active
/// bank, only when `next_event` meets a dirty cache). The drive below
/// gates on `Dimm::due` as `DimmServer::tick` does and never asks for
/// the exact horizon, so it reads 0 per iteration; a gate that falls
/// back to full recomputes folds every active bank (4 per iteration on
/// this traffic) and fails.
const DIMM_HORIZON_TERM_BUDGET: f64 = 1.0;

/// Per-tick budget for the active-bank terms `Dimm::due` folds: 3.22
/// per iteration on this traffic, where a probe stops at the first due
/// term and only a probe that finds nothing due folds every bank (most
/// cycles here have nothing to issue). A probe that folds every bank
/// even after finding a due one reads 3.50 and fails.
const DIMM_DUE_TERM_BUDGET: f64 = 3.35;

/// Per-tick budget for `TaskEngine` completion-bucket drains, asserted
/// by the engine section in `audit` builds. Ticking every cycle, at
/// most one bucket of PE completions matures per tick (all PEs
/// finishing on the same cycle share one bucket), so the batched drain
/// performs at most one sort + sweep per iteration. A regression back
/// to per-completion dequeues (one "batch" per finishing PE, the old
/// `BinaryHeap` shape) pushes this to the per-tick completion count
/// and fails the assertion even when wall-clock noise would hide it.
const ENGINE_BATCH_BUDGET: f64 = 1.0;

/// Mixed open-row-hit / row-conflict traffic at a fixed queue depth:
/// exercises column issue, ACT/PRE rehoming, retirement and the `due`
/// gate every cycle — the dense-kernel worst case for the caches.
fn bench_dimm_tick(warm: u64, iters: u64) -> Report {
    let mut cfg = DimmConfig::paper_ndp(AccessMode::PerChip);
    cfg.refresh_enabled = false;
    let mut dimm = Dimm::new(cfg);
    let mut completed: Vec<CompletedAccess> = Vec::with_capacity(64);
    let mut seq = 0u64;

    let mut drive = |dimm: &mut Dimm, completed: &mut Vec<CompletedAccess>, c: u64| {
        let now = Cycle::new(c);
        while dimm.queue_free() > 0 {
            // Alternate banks and rows so roughly half the requests hit
            // the open row and half force a precharge/activate pair.
            let req = MemRequest {
                kind: if seq.is_multiple_of(3) {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                },
                coord: DramCoord {
                    rank: 0,
                    group: (seq % 4) as u32,
                    bank: ((seq / 4) % 4) as u32,
                    row: (seq % 2) * 7,
                    col: (seq % 64) as u32,
                },
                bytes: 32,
                tag: seq,
            };
            if dimm.enqueue(req).is_err() {
                break;
            }
            seq += 1;
        }
        // Gate the way `DimmServer::tick` does; nothing in production
        // asks for the exact horizon on a ticked cycle.
        if dimm.due(now) {
            dimm.tick(now);
        } else {
            dimm.sync_time(now);
        }
        dimm.drain_completed_into(completed);
        completed.clear();
    };

    for c in 0..warm {
        drive(&mut dimm, &mut completed, c);
    }
    let base = allocs();
    #[cfg(feature = "audit")]
    let audit_base = dimm.audit_counters();
    let t = Instant::now();
    for c in warm..warm + iters {
        drive(&mut dimm, &mut completed, c);
    }
    let elapsed = t.elapsed();
    #[cfg(feature = "audit")]
    let (choice_per_iter, horizon_per_iter, due_per_iter) = {
        let a = dimm.audit_counters();
        let per_iter = |now: u64, base: u64| Some((now - base) as f64 / iters as f64);
        (
            per_iter(a.choice_scans, audit_base.choice_scans),
            per_iter(a.horizon_scans, audit_base.horizon_scans),
            per_iter(a.due_terms, audit_base.due_terms),
        )
    };
    #[cfg(not(feature = "audit"))]
    let (choice_per_iter, horizon_per_iter, due_per_iter) = (None, None, None);
    Report {
        name: "dimm_tick",
        iters,
        ns_per_iter: elapsed.as_nanos() as f64 / iters as f64,
        allocs: allocs() - base,
        choice_per_iter,
        horizon_per_iter,
        due_per_iter,
        batch_per_iter: None,
        comp_per_iter: None,
    }
}

/// Bundles recirculating through the staged queue and the port links:
/// every delivered bundle is re-offered (moved, never re-built), so the
/// steady state exercises stage/pump/deliver without creating traffic.
fn bench_switch_tick(warm: u64, iters: u64) -> Report {
    let slots = 4u32;
    let mut sw = Switch::new(SwitchConfig::paper(0, slots));
    // Seed: a few bundles per DIMM slot, injected from the uplink. The
    // recirculation below keeps them in flight forever.
    for slot in 0..slots {
        for k in 0..3u64 {
            let msg = Message::read_req(
                NodeId::Host,
                NodeId::dimm(0, slot),
                64,
                (slot as u64) << 8 | k,
            );
            let _ = sw.endpoint_send(
                Switch::UPLINK,
                Bundle::single(msg),
                Cycle::new(k),
                &mut Observer::default(),
            );
        }
    }
    let mut retry: VecDeque<(usize, Bundle)> = VecDeque::with_capacity(16);

    let drive = |sw: &mut Switch, retry: &mut VecDeque<(usize, Bundle)>, c: u64| {
        let now = Cycle::new(c);
        let obs = &mut Observer::default();
        sw.tick_observed(now, obs);
        for _ in 0..retry.len() {
            let (port, bundle) = retry.pop_front().expect("counted");
            if let Err(e) = sw.endpoint_send(port, bundle, now, obs) {
                retry.push_back((port, e.into_bundle()));
            }
        }
        for slot in 0..slots {
            let port = sw.dimm_port(slot);
            while let Some(bundle) = sw.endpoint_recv(port, now, obs) {
                // Loop the bundle straight back into the fabric: same
                // destination, so it egresses on this same port again.
                if let Err(e) = sw.endpoint_send(port, bundle, now, obs) {
                    retry.push_back((port, e.into_bundle()));
                }
            }
        }
        let _ = sw.next_event();
    };

    for c in 0..warm {
        drive(&mut sw, &mut retry, c);
    }
    let base = allocs();
    let t = Instant::now();
    for c in warm..warm + iters {
        drive(&mut sw, &mut retry, c);
    }
    let elapsed = t.elapsed();
    Report {
        name: "switch_tick",
        iters,
        ns_per_iter: elapsed.as_nanos() as f64 / iters as f64,
        allocs: allocs() - base,
        choice_per_iter: None,
        horizon_per_iter: None,
        due_per_iter: None,
        batch_per_iter: None,
        comp_per_iter: None,
    }
}

/// The accelerator tick path in its steady state: blocking tasks cycle
/// PE-compute → issue → `on_data` → ready forever (data returns the
/// same cycle), so every iteration exercises `tick_into`'s batched
/// completion drain, access emission into the caller's scratch and the
/// ready-queue round trip. Submission happens up front; the measured
/// loop must allocate nothing and drain at most one completion bucket
/// per tick.
fn bench_engine_tick(warm: u64, iters: u64) -> Report {
    let pes = 4usize;
    let latency = 16u32;
    let mut engine = TaskEngine::new(pes, latency);
    // Twice the work the loop can consume (each blocking step occupies
    // a PE for `latency` cycles, so the pool retires at most
    // `pes / latency` steps per cycle): the measured window must stay
    // strictly in the steady state, clear of the end-of-workload drain
    // where the thinning ready queue changes the bucket pattern.
    let steps_needed = (warm + iters) * pes as u64 / latency as u64 * 2;
    let steps_per_task = 8usize;
    let tasks = steps_needed as usize / steps_per_task + 1;
    for t in 0..tasks {
        let steps = (0..steps_per_task)
            .map(|s| {
                Step::blocking(vec![Access::read(
                    Region::FmIndex,
                    ((t * steps_per_task + s) as u64) * 64,
                    32,
                )])
            })
            .collect();
        engine.submit(
            TaskTrace::new(AppKind::FmSeeding, steps),
            &mut Observer::default(),
        );
    }
    let mut out = Vec::with_capacity(pes * 2);

    let drive = |engine: &mut TaskEngine, out: &mut Vec<_>, c: u64| {
        let now = Cycle::new(c);
        let obs = &mut Observer::default();
        engine.tick_into(now, out, obs);
        let _ = engine.next_event();
        for ia in out.drain(..) {
            engine.on_data(ia.token, now, obs);
        }
    };

    for c in 0..warm {
        drive(&mut engine, &mut out, c);
    }
    let base = allocs();
    #[cfg(feature = "audit")]
    let audit_base = engine.audit_counters();
    let t = Instant::now();
    for c in warm..warm + iters {
        drive(&mut engine, &mut out, c);
    }
    let elapsed = t.elapsed();
    #[cfg(feature = "audit")]
    let (batch_per_iter, comp_per_iter) = {
        let a = engine.audit_counters();
        (
            Some((a.batches - audit_base.batches) as f64 / iters as f64),
            Some((a.completions - audit_base.completions) as f64 / iters as f64),
        )
    };
    #[cfg(not(feature = "audit"))]
    let (batch_per_iter, comp_per_iter) = (None, None);
    Report {
        name: "engine_tick",
        iters,
        ns_per_iter: elapsed.as_nanos() as f64 / iters as f64,
        allocs: allocs() - base,
        choice_per_iter: None,
        horizon_per_iter: None,
        due_per_iter: None,
        batch_per_iter,
        comp_per_iter,
    }
}

/// The full-pool horizon min-composition on a mid-run system: every
/// child horizon is clean after the first query, so each iteration is a
/// pure cached-read sweep — the cost fast-forwarding pays on every
/// skipped span.
fn bench_next_event(warm: u64, iters: u64) -> Report {
    let scale = WorkloadScale::test();
    let w = fm_workload(GenomeId::Pt, &scale);
    let mut cfg = BeaconConfig::paper(BeaconVariant::D, w.app)
        .with_opts(Optimizations::full(BeaconVariant::D, w.app));
    cfg.switches = 2;
    cfg.pes_per_module = 8;
    let layout = build_layout(&cfg, &w.layout);
    let mut sys = BeaconSystem::new(cfg, layout);
    sys.submit_round_robin(w.traces.iter().cloned());
    // Advance into the dense mid-run region so the pool is busy.
    for c in 0..warm {
        sys.tick(Cycle::new(c));
    }
    let now = Cycle::new(warm);
    let _ = sys.next_event(now); // fill every dirty cache once
    let base = allocs();
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..iters {
        if let Some(h) = sys.next_event(now) {
            acc = acc.wrapping_add(h.as_u64());
        }
    }
    let elapsed = t.elapsed();
    std::hint::black_box(acc);
    Report {
        name: "next_event_composition",
        iters,
        ns_per_iter: elapsed.as_nanos() as f64 / iters as f64,
        allocs: allocs() - base,
        choice_per_iter: None,
        horizon_per_iter: None,
        due_per_iter: None,
        batch_per_iter: None,
        comp_per_iter: None,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warm, iters) = if quick {
        (2_000, 10_000)
    } else {
        (20_000, 200_000)
    };

    println!("microbench — warm-up {warm} iters, measuring {iters} iters\n");
    println!(
        "{:<24} {:>12} {:>12} {:>14} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "benchmark",
        "iters",
        "ns/iter",
        "allocs (steady)",
        "choice/iter",
        "horizon/iter",
        "due/iter",
        "batch/iter",
        "comp/iter"
    );

    let reports = [
        bench_dimm_tick(warm, iters),
        bench_switch_tick(warm, iters),
        bench_engine_tick(warm, iters),
        bench_next_event(warm.min(4_000), iters),
    ];

    let fmt_opt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.2}"),
        None => "-".to_owned(),
    };
    let mut failed = false;
    for r in &reports {
        println!(
            "{:<24} {:>12} {:>12.1} {:>14} {:>12} {:>12} {:>12} {:>12} {:>12}",
            r.name,
            r.iters,
            r.ns_per_iter,
            r.allocs,
            fmt_opt(r.choice_per_iter),
            fmt_opt(r.horizon_per_iter),
            fmt_opt(r.due_per_iter),
            fmt_opt(r.batch_per_iter),
            fmt_opt(r.comp_per_iter)
        );
        if r.allocs != 0 {
            failed = true;
        }
        if r.name == "dimm_tick" {
            if let Some(c) = r.choice_per_iter {
                if c > DIMM_CHOICE_SCAN_BUDGET {
                    eprintln!(
                        "FAIL: dimm_tick choice scans {c:.2}/iter exceed the \
                         budget of {DIMM_CHOICE_SCAN_BUDGET}/iter"
                    );
                    failed = true;
                }
            }
            if let Some(h) = r.horizon_per_iter {
                if h > DIMM_HORIZON_TERM_BUDGET {
                    eprintln!(
                        "FAIL: dimm_tick horizon terms {h:.2}/iter exceed the \
                         budget of {DIMM_HORIZON_TERM_BUDGET}/iter"
                    );
                    failed = true;
                }
            }
            if let Some(d) = r.due_per_iter {
                if d > DIMM_DUE_TERM_BUDGET {
                    eprintln!(
                        "FAIL: dimm_tick due-probe terms {d:.2}/iter exceed the \
                         budget of {DIMM_DUE_TERM_BUDGET}/iter"
                    );
                    failed = true;
                }
            }
        }
        if r.name == "engine_tick" {
            if let Some(b) = r.batch_per_iter {
                if b > ENGINE_BATCH_BUDGET {
                    eprintln!(
                        "FAIL: engine_tick completion batches {b:.2}/iter exceed \
                         the budget of {ENGINE_BATCH_BUDGET}/iter"
                    );
                    failed = true;
                }
            }
        }
    }
    if failed {
        eprintln!("\nFAIL: a steady-state loop broke its allocation or work budget");
        std::process::exit(1);
    }
    println!("\nall steady-state loops within allocation and work budgets");
}
