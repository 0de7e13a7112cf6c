//! The service engine: screening, deduplication, and execution.
//!
//! A batch flows through three gates before any cycle is simulated:
//!
//! 1. **Screening.** Each job is validated (`NetworkConfig::validate`,
//!    `Testbench::validate`, `Pattern::validate`, `FaultModel::validate`)
//!    and then proven deadlock-free by `ruche-verify`
//!    ([`verify_cached`](ruche_verify::verify_cached) /
//!    [`verify_faulted_cached`](ruche_verify::verify_faulted_cached)).
//!    A rejected job becomes a structured [`JobError`] in its response
//!    slot; its siblings are untouched.
//! 2. **Store lookup.** Jobs already answered by the shared
//!    [`ResultStore`] stream back immediately.
//! 3. **In-flight deduplication.** A job identical (same canonical
//!    cache key) to one some connection is already simulating *joins* it:
//!    exactly one simulation runs, every waiter receives the published
//!    result. The dedup map spans connections, so two clients submitting
//!    the same sweep concurrently cost one simulation.
//!
//! What remains is simulated on the existing [`SweepRunner`] worker pool
//! (honoring `StepMode`), with results published to
//! waiters and streamed to the batch's own connection **in job order**,
//! incrementally — job `i`'s line is written the moment jobs `0..=i` have
//! all resolved, not when the whole batch finishes.
//!
//! Responses are **byte-stable**: a scalar batch (the default) answers
//! with per-tile accumulators scrubbed whether the job was freshly
//! simulated, served from the store, or joined in flight; per-tile data
//! comes back only when the batch asks for it (`"per_tile":true`).

use crate::metrics::Metrics;
use crate::proto::{Batch, JobError};
use ruche_bench::store::ResultStore;
use ruche_bench::sweep::{SweepJob, SweepRunner};
use ruche_noc::topology::StepMode;
use ruche_traffic::{SweepRequest, TbResult};
// lint:allow(hash-order): the in-flight map is get/insert/remove by key
// only; nothing ever iterates it, so its order cannot reach any artifact.
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// How one job resolved: a result, or the structured error that stopped it.
pub type Outcome = Result<TbResult, JobError>;

/// One simulation in flight: a publish-once slot plus the condvar its
/// waiters block on. Cloned `Arc`s of this are handed to every batch that
/// deduplicates onto the same job.
#[derive(Debug, Default)]
struct InFlight {
    slot: Mutex<Option<Outcome>>,
    cv: Condvar,
}

impl InFlight {
    /// First write wins; later publishes are no-ops. Wakes every waiter.
    fn publish(&self, outcome: Outcome) {
        let mut slot = self.slot.lock().expect("in-flight slot lock");
        if slot.is_none() {
            *slot = Some(outcome);
            self.cv.notify_all();
        }
    }

    /// Blocks until a publish, then returns the outcome.
    fn wait(&self) -> Outcome {
        let mut slot = self.slot.lock().expect("in-flight slot lock");
        while slot.is_none() {
            slot = self.cv.wait(slot).expect("in-flight slot lock");
        }
        slot.clone().expect("slot checked non-empty")
    }
}

/// Publishes an `engine`-stage error to every flight still unpublished
/// when dropped. Held across the simulation so that even a panicking
/// worker can never strand a waiter on another connection: their `wait`
/// returns this error instead of blocking forever. Publishing is
/// first-write-wins, so flights that already carry results are untouched.
struct PublishGuard {
    flights: Vec<Arc<InFlight>>,
}

impl Drop for PublishGuard {
    fn drop(&mut self) {
        for f in &self.flights {
            f.publish(Err(JobError::new(
                "engine",
                "simulation worker failed before publishing this job",
            )));
        }
    }
}

/// How a batch slot resolves during emission: screened/stored outcomes
/// are ready immediately; deduplicated jobs wait on their flight.
enum Slot {
    Ready(Outcome),
    Wait(Arc<InFlight>),
}

/// The long-lived evaluation engine a daemon (or the offline `eval` path)
/// drives. Shareable across connection threads by reference.
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    step_mode: Option<StepMode>,
    store: Option<Arc<ResultStore>>,
    inflight: Mutex<HashMap<String, Arc<InFlight>>>,
    metrics: Metrics,
}

impl Engine {
    /// An engine whose simulations run on `threads` pool workers, with no
    /// result store and the default step mode. Builder methods refine it.
    pub fn new(threads: usize) -> Self {
        Engine {
            threads: threads.max(1),
            step_mode: None,
            store: None,
            inflight: Mutex::new(HashMap::new()),
            metrics: Metrics::new(),
        }
    }

    /// Selects the clock-advance engine for simulated jobs. Pure
    /// performance knob: results and cache keys are unaffected.
    pub fn with_step_mode(mut self, mode: StepMode) -> Self {
        self.step_mode = Some(mode);
        self
    }

    /// Backs the engine with a result store shared by every connection
    /// (and, through the same directory, by offline `repro` runs).
    pub fn with_store(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The result store, if one backs this engine.
    pub fn store(&self) -> Option<&Arc<ResultStore>> {
        self.store.as_ref()
    }

    /// This engine's counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Evaluates `batch`, calling `emit(i, outcome)` for each job in
    /// job order, each invoked as soon as jobs `0..=i` have resolved.
    /// Rejected jobs (decode or screening) emit their error without
    /// disturbing siblings; deduplicated jobs emit the result published
    /// by whichever connection owns the simulation.
    pub fn eval_batch(&self, batch: &Batch, emit: &mut dyn FnMut(usize, &Outcome)) {
        Metrics::add(&self.metrics.batches, 1);
        Metrics::add(&self.metrics.jobs, batch.jobs.len() as u64);

        let mut slots: Vec<Slot> = Vec::with_capacity(batch.jobs.len());
        let mut owned: Vec<(String, SweepJob, Arc<InFlight>)> = Vec::new();
        for req in &batch.jobs {
            let req = match req {
                Err(e) => {
                    Metrics::add(&self.metrics.rejected, 1);
                    slots.push(Slot::Ready(Err(e.clone())));
                    continue;
                }
                Ok(r) => r,
            };
            if let Err(e) = screen(req) {
                Metrics::add(&self.metrics.rejected, 1);
                slots.push(Slot::Ready(Err(e)));
                continue;
            }
            let mut job = SweepJob::new(req.cfg.clone(), req.tb.clone());
            if batch.per_tile {
                job = job.with_per_tile();
            }
            if !batch.per_tile {
                if let Some(res) = self.store.as_ref().and_then(|s| s.get(&job.cache_key())) {
                    Metrics::add(&self.metrics.store_hits, 1);
                    slots.push(Slot::Ready(Ok(res)));
                    continue;
                }
            }
            // The dedup key carries the per-tile flag: a scalar-only run
            // must not be answered by per-tile data or vice versa.
            let key = format!("{}|{}", u8::from(batch.per_tile), job.cache_key());
            let mut inflight = self.inflight.lock().expect("in-flight map lock");
            match inflight.get(&key) {
                Some(flight) => {
                    Metrics::add(&self.metrics.inflight_joins, 1);
                    slots.push(Slot::Wait(flight.clone()));
                }
                None => {
                    let flight = Arc::new(InFlight::default());
                    inflight.insert(key.clone(), flight.clone());
                    owned.push((key, job, flight.clone()));
                    slots.push(Slot::Wait(flight));
                }
            }
        }

        if owned.is_empty() {
            for (i, slot) in slots.iter().enumerate() {
                emit_slot(i, slot, emit);
            }
            return;
        }

        std::thread::scope(|s| {
            let worker = s.spawn(|| self.simulate(&owned));
            for (i, slot) in slots.iter().enumerate() {
                emit_slot(i, slot, emit);
            }
            // A panicked simulation has already error-published every
            // owned flight (PublishGuard), and those errors were emitted
            // above — swallow the panic rather than tearing down the
            // connection thread mid-response.
            let _ = worker.join();
        });

        // Retire owned keys so later identical jobs consult the store
        // (now populated) instead of a dead flight. Guarded by pointer
        // identity: never evict a newer flight someone else registered.
        let mut inflight = self.inflight.lock().expect("in-flight map lock");
        for (key, _, flight) in &owned {
            if inflight
                .get(key)
                .is_some_and(|cur| Arc::ptr_eq(cur, flight))
            {
                inflight.remove(key);
            }
        }
    }

    /// Runs the owned jobs on a [`SweepRunner`] pool, publishing each
    /// result to its flight the moment the worker finishes it.
    fn simulate(&self, owned: &[(String, SweepJob, Arc<InFlight>)]) {
        let guard = PublishGuard {
            flights: owned.iter().map(|(_, _, f)| f.clone()).collect(),
        };
        let mut runner = SweepRunner::uncached(self.threads);
        if let Some(mode) = self.step_mode {
            runner = runner.with_step_mode(mode);
        }
        if let Some(store) = &self.store {
            runner = runner.with_store(store.clone());
        }
        let jobs: Vec<SweepJob> = owned.iter().map(|(_, job, _)| job.clone()).collect();
        // Scalar jobs publish with per-tile data scrubbed — exactly what
        // a store hit would answer — so a job's response bytes are
        // identical whether it was simulated, stored, or joined.
        runner.run_all_with(&jobs, |k, res| {
            let res = if jobs[k].per_tile {
                res.clone()
            } else {
                TbResult {
                    per_tile_latency: Vec::new(),
                    ..res.clone()
                }
            };
            owned[k].2.publish(Ok(res));
        });
        Metrics::add(&self.metrics.simulated, runner.simulated as u64);
        // The runner can itself hit the store (a concurrent process wrote
        // the key between our front-door miss and the pool claiming it).
        Metrics::add(&self.metrics.store_hits, runner.cache_hits as u64);
        drop(guard);
    }
}

/// Resolves one slot (immediately or by waiting on its flight) and emits.
fn emit_slot(i: usize, slot: &Slot, emit: &mut dyn FnMut(usize, &Outcome)) {
    match slot {
        Slot::Ready(outcome) => emit(i, outcome),
        Slot::Wait(flight) => emit(i, &flight.wait()),
    }
}

/// The front door: full validation plus the `ruche-verify`
/// deadlock-freedom proof, all before a single cycle is simulated. The
/// verifier calls are memoized per config, so screening a sweep that
/// varies only traffic parameters pays for one proof.
fn screen(req: &SweepRequest) -> Result<(), JobError> {
    req.cfg
        .validate()
        .map_err(|e| JobError::new("config", e.to_string()))?;
    req.tb
        .validate()
        .map_err(|e| JobError::new("testbench", e.to_string()))?;
    req.tb
        .pattern
        .validate(req.cfg.dims)
        .map_err(|e| JobError::new("pattern", e.to_string()))?;
    req.tb
        .faults
        .validate(&req.cfg)
        .map_err(|e| JobError::new("faults", e.to_string()))?;
    if req.tb.faults.is_empty() {
        ruche_verify::verify_cached(&req.cfg).map_err(|e| JobError::new("verify", e))
    } else {
        ruche_verify::verify_faulted_cached(&req.cfg, &req.tb.faults)
            .map_err(|e| JobError::new("verify", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruche_noc::geometry::{Coord, Dims};
    use ruche_noc::topology::NetworkConfig;
    use ruche_traffic::{Pattern, Testbench};

    fn quick(rate: f64) -> Testbench {
        Testbench::builder(Pattern::UniformRandom, rate)
            .quick()
            .build()
            .expect("valid testbench")
    }

    #[test]
    fn screening_names_the_failing_stage() {
        let dims = Dims::new(4, 4);
        let bad_cfg = SweepRequest::new(NetworkConfig::mesh(dims).with_fifo_depth(0), quick(0.1));
        assert_eq!(screen(&bad_cfg).unwrap_err().stage, "config");

        let bad_pattern = SweepRequest::new(
            NetworkConfig::mesh(dims),
            Testbench::builder(Pattern::Hotspot(Coord::new(9, 9)), 0.1)
                .quick()
                .build()
                .expect("builder leaves pattern unvalidated"),
        );
        assert_eq!(screen(&bad_pattern).unwrap_err().stage, "pattern");

        assert!(screen(&SweepRequest::new(NetworkConfig::mesh(dims), quick(0.1))).is_ok());
    }

    #[test]
    fn publish_is_first_write_wins() {
        let flight = InFlight::default();
        flight.publish(Ok(sample()));
        flight.publish(Err(JobError::new("engine", "late failure")));
        assert!(flight.wait().is_ok(), "first publish sticks");
    }

    #[test]
    fn guard_error_publishes_unpublished_flights_only() {
        let done = Arc::new(InFlight::default());
        let pending = Arc::new(InFlight::default());
        done.publish(Ok(sample()));
        drop(PublishGuard {
            flights: vec![done.clone(), pending.clone()],
        });
        assert!(done.wait().is_ok());
        assert_eq!(pending.wait().unwrap_err().stage, "engine");
    }

    fn sample() -> TbResult {
        TbResult {
            offered: 0.1,
            accepted: 0.1,
            avg_latency: 5.0,
            p99_latency: 9.0,
            delivered: 10,
            lost: 0,
            per_tile_latency: Vec::new(),
            saturated: false,
        }
    }
}
