//! `Network::step` performs no heap allocation in steady state, and
//! neither does the manycore machine's cycle loop over two networks.
//!
//! A counting wrapper around the system allocator tallies every allocation
//! in this test binary (which is why this lives alone in its own
//! integration-test file). After a warmup that grows all reusable scratch
//! buffers to their high-water marks, further cycles — including active
//! traffic — must allocate nothing.
//!
//! The step engine is serial: all simulator work runs on the thread that
//! calls `step`. The tally is therefore per thread, so allocations made by
//! the test harness or by tests running concurrently on other threads can
//! never leak into a measured region.

// Counting host allocations is meaningless (and unsupported for a
// `#[global_allocator]`) under Miri's interpreted heap.
#![cfg(not(miri))]
// A `#[global_allocator]` must implement the `unsafe` trait `GlobalAlloc`.
#![allow(unsafe_code)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ruche_manycore::prelude::{Op, SystemConfig, Workload};
use ruche_noc::packet::Flit;
use ruche_noc::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations (including reallocations) made by this thread. `const`
    /// initialised and destructor-free, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with` fails only during thread teardown, which no measured
    // region overlaps.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: pure pass-through to the `System` allocator plus a thread-local
// counter bump; every `GlobalAlloc` contract obligation is met by `System`
// itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s layout
        // contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Drives `net` under random traffic; flits are pre-generated so the
/// measured region contains only `enqueue` + `step`.
fn assert_steady_state_alloc_free(cfg: NetworkConfig, label: &str) {
    let dims = cfg.dims;
    let mut net = Network::new(cfg).unwrap();
    let mut rng = SmallRng::seed_from_u64(11);
    let mut traffic: Vec<Vec<(EndpointId, Flit)>> = Vec::new();
    let mut id = 0u64;
    for cycle in 0..600u64 {
        let mut batch = Vec::new();
        for c in dims.iter() {
            if rng.gen_bool(0.25) {
                let d = Coord::new(rng.gen_range(0..dims.cols), rng.gen_range(0..dims.rows));
                batch.push((
                    net.tile_endpoint(c),
                    Flit::single(c, Dest::tile(d), id, cycle),
                ));
                id += 1;
            }
        }
        traffic.push(batch);
    }

    // Warmup: the first 300 cycles grow every scratch buffer, source queue,
    // and the ejection vector to their high-water marks.
    let mut batches = traffic.into_iter();
    for batch in batches.by_ref().take(300) {
        for &(ep, f) in &batch {
            net.enqueue(ep, f);
        }
        net.step();
    }

    // Measured region: every remaining step, under load and through the
    // drain. Enqueues stay outside the count — source queues are unbounded
    // by design and may still grow.
    let mut in_step = 0u64;
    for batch in batches {
        for &(ep, f) in &batch {
            net.enqueue(ep, f);
        }
        let before = allocations();
        net.step();
        in_step += allocations() - before;
    }
    while !net.snapshot().is_idle() {
        let before = allocations();
        net.step();
        in_step += allocations() - before;
        assert!(
            net.snapshot().cycles_since_progress < 20_000,
            "{label}: drain stalled"
        );
    }
    assert_eq!(
        in_step, 0,
        "{label}: {in_step} heap allocations inside steady-state `step` calls"
    );
}

#[test]
fn wormhole_step_is_allocation_free_in_steady_state() {
    let dims = Dims::new(8, 8);
    assert_steady_state_alloc_free(NetworkConfig::mesh(dims), "mesh");
    assert_steady_state_alloc_free(
        NetworkConfig::full_ruche(dims, 2, CrossbarScheme::Depopulated),
        "ruche",
    );
}

#[test]
fn vc_step_is_allocation_free_in_steady_state() {
    assert_steady_state_alloc_free(NetworkConfig::torus(Dims::new(8, 8)), "torus");
}

/// The event wheel adds nothing to the steady-state allocation story:
/// driving a bursty workload through `step` + `fast_forward` — bursts,
/// drains, and skipped quiescent spans alike — allocates nothing once the
/// scratch buffers are warm.
#[test]
fn event_mode_fast_forward_is_allocation_free_in_steady_state() {
    assert_event_drive_alloc_free(NetworkConfig::mesh(Dims::new(8, 8)), "event mesh");
}

/// Drives `cfg` through the bursty event-wheel workload: bursts, drains,
/// and fast-forwarded quiescent spans, all measured after a ten-burst
/// warmup.
fn assert_event_drive_alloc_free(cfg: NetworkConfig, label: &str) {
    let dims = cfg.dims;
    let mut net = Network::new(cfg).unwrap();
    let mut rng = SmallRng::seed_from_u64(11);
    let (bursts, period) = (40u64, 64u64);
    let horizon = bursts * period;
    let mut schedule: Vec<(u64, EndpointId, Flit)> = Vec::new();
    let mut id = 0u64;
    for b in 0..bursts {
        let cycle = b * period;
        for _ in 0..6 {
            let s = Coord::new(rng.gen_range(0..dims.cols), rng.gen_range(0..dims.rows));
            let d = Coord::new(rng.gen_range(0..dims.cols), rng.gen_range(0..dims.rows));
            schedule.push((
                cycle,
                net.tile_endpoint(s),
                Flit::single(s, Dest::tile(d), id, cycle),
            ));
            id += 1;
        }
    }

    // Warmup: the first ten bursts grow every scratch buffer; the rest of
    // the run — load, drain, and fast-forwarded spans — is measured.
    let warm_until = 10 * period;
    let mut next = 0usize;
    let mut measured = 0u64;
    let mut iters = 0u64;
    while net.cycle() < horizon || !net.is_quiescent() {
        while schedule.get(next).is_some_and(|&(c, ..)| c == net.cycle()) {
            let (_, ep, f) = schedule[next];
            net.enqueue(ep, f);
            next += 1;
        }
        let measuring = net.cycle() >= warm_until;
        let before = allocations();
        net.step();
        let wake = schedule.get(next).map_or(horizon, |&(c, ..)| c);
        net.fast_forward(wake.min(horizon));
        if measuring {
            measured += allocations() - before;
        }
        iters += 1;
        assert!(iters < 2 * horizon, "event drive stalled");
    }
    assert!(net.is_quiescent());
    assert_eq!(
        measured, 0,
        "{label}: {measured} heap allocations inside steady-state \
         step/fast_forward calls"
    );
}

/// A machine run's allocations do not grow with the cycles it simulates:
/// one kernel shape run for `k` and for `4k` iterations allocates the same
/// number of times, so everything past set-up (the two networks, the bank
/// and server queues, the latency memo) runs allocation-free once warm.
#[test]
fn machine_run_allocations_do_not_grow_with_its_length() {
    let dims = Dims::new(8, 4);
    // Each iteration streams LLC loads, a store, an atomic and a
    // scratchpad load from the next tile, then waits and synchronizes:
    // every queue of the machine fills and drains once per iteration.
    let kernel = |iters: usize| Workload {
        name: format!("stream x{iters}"),
        programs: (0..dims.count())
            .map(|t| {
                let peer = dims.coord((t + 1) % dims.count());
                let mut once: Vec<Op> = (0..12).map(|k| Op::Load((t * 64 + k) as u64)).collect();
                once.extend([
                    Op::Store(t as u64),
                    Op::Amo(7),
                    Op::LoadTile(peer),
                    Op::Compute(3),
                    Op::WaitAll,
                    Op::Barrier,
                ]);
                once.repeat(iters)
            })
            .collect(),
    };
    for cfg in [
        NetworkConfig::mesh(dims),
        NetworkConfig::half_ruche(dims, 2, CrossbarScheme::Depopulated),
        NetworkConfig::half_torus(dims),
    ] {
        let label = cfg.label();
        let sys = SystemConfig::new(cfg);
        let (short, long) = (kernel(2), kernel(8));
        // Warm the process-wide crossbar memo outside the count.
        ruche_manycore::machine::run(&sys, &short).unwrap();
        let count = |w: &Workload| {
            let before = allocations();
            let res = ruche_manycore::machine::run(&sys, w).unwrap();
            (allocations() - before, res.cycles)
        };
        let (a_short, c_short) = count(&short);
        let (a_long, c_long) = count(&long);
        assert!(
            c_long > 3 * c_short,
            "{label}: {c_long} vs {c_short} cycles"
        );
        assert_eq!(
            a_long, a_short,
            "{label}: {c_short} cycles allocate {a_short} times, {c_long} cycles {a_long}"
        );
    }
}
