//! The parallel sweep engine.
//!
//! Every figure's point set — one testbench run per (network config,
//! testbench) pair — is expressed as a list of independent [`SweepJob`]s
//! and executed by a [`SweepRunner`] across a worker pool. Results come
//! back **in job order** regardless of thread count, so figure output
//! (tables, CSVs) is byte-identical between `--threads 1` and `--threads N`.
//!
//! The runner consults the keyed result store (`results/sweep_store/`,
//! see [`crate::store`]) before simulating: the key is [`MODEL_VERSION`]
//! plus the canonical [`SweepRequest`] wire rendering of the full
//! `NetworkConfig` + `Testbench`, so any change to either parameter set —
//! or a bumped model or key version — is a clean miss. Jobs that need
//! per-tile latency data ([`SweepJob::with_per_tile`]) bypass the store,
//! which persists scalar aggregates only. A legacy `sweep_cache.tsv` is
//! migrated into the store once, on first use.

use crate::opts::Opts;
use crate::out::results_dir;
use crate::store::ResultStore;
use ruche_noc::prelude::*;
use ruche_stats::Accum;
use ruche_traffic::{CurvePoint, Pattern, SweepRequest, TbResult, Testbench};
// lint:allow(hash-order): the legacy sweep cache is insert/lookup only;
// every artifact writer sorts the merged keys before emitting a byte.
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Bump when simulator or model changes invalidate cached sweep results
/// (router engine, RNG, testbench methodology).
pub const MODEL_VERSION: &str = "v1";

/// One independent simulation: a network configuration driven by one
/// testbench. Plain data, so jobs move freely across worker threads.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepJob {
    /// The network under test.
    pub cfg: NetworkConfig,
    /// The traffic driving it.
    pub tb: Testbench,
    /// Keep per-tile latency accumulators (skips the cache, which stores
    /// scalar aggregates only).
    pub per_tile: bool,
}

impl SweepJob {
    /// A job running `tb` on `cfg`.
    pub fn new(cfg: NetworkConfig, tb: Testbench) -> Self {
        SweepJob {
            cfg,
            tb,
            per_tile: false,
        }
    }

    /// Marks the job as needing per-tile latency data (uncached).
    pub fn with_per_tile(mut self) -> Self {
        self.per_tile = true;
        self
    }

    /// The job's canonical wire identity — the [`SweepRequest`] shared by
    /// the daemon, the result store, and `repro`.
    pub fn request(&self) -> SweepRequest {
        SweepRequest::new(self.cfg.clone(), self.tb.clone())
    }

    /// The store key: [`MODEL_VERSION`] plus the canonical
    /// [`SweepRequest`] rendering (which carries its own explicit
    /// `key_version`). Byte-stable across processes and constructible by
    /// any client that can write JSON — unlike the `Debug`-based
    /// `SweepJob::key` it replaced (deprecated in 0.7.0, removed the
    /// release after, per the one-release deprecation policy).
    /// `step_mode` never reaches the key, so results from either step
    /// mode are interchangeable.
    pub fn cache_key(&self) -> String {
        format!("{MODEL_VERSION}|{}", self.request().cache_key())
    }
}

/// The latency-curve point set: one job per injection rate, mirroring
/// `ruche_traffic::latency_curve`.
pub fn curve_jobs(cfg: &NetworkConfig, proto: &Testbench, rates: &[f64]) -> Vec<SweepJob> {
    rates
        .iter()
        .map(|&r| {
            SweepJob::new(
                cfg.clone(),
                Testbench {
                    injection_rate: r,
                    ..proto.clone()
                },
            )
        })
        .collect()
}

/// The saturation-throughput job, mirroring
/// `ruche_traffic::saturation_throughput` (rate 1.0; read `accepted`).
pub fn saturation_job(cfg: &NetworkConfig, pattern: Pattern, seed: u64) -> SweepJob {
    SweepJob::new(
        cfg.clone(),
        Testbench::builder(pattern, 1.0)
            .seed(seed)
            .build()
            .expect("saturation testbench is valid"),
    )
}

/// The zero-load-latency job, mirroring `ruche_traffic::zero_load_latency`
/// (rate 0.005; read `avg_latency`).
pub fn zero_load_job(cfg: &NetworkConfig, pattern: Pattern, seed: u64) -> SweepJob {
    SweepJob::new(
        cfg.clone(),
        Testbench::builder(pattern, 0.005)
            .seed(seed)
            .build()
            .expect("zero-load testbench is valid"),
    )
}

/// Projects a testbench result onto the latency-curve point figures plot.
pub fn curve_point(res: &TbResult) -> CurvePoint {
    CurvePoint {
        offered: res.offered,
        accepted: res.accepted,
        avg_latency: res.avg_latency,
        saturated: res.saturated,
    }
}

/// The **legacy** keyed on-disk result cache, persisted as TSV under
/// `results/sweep_cache.tsv`.
///
/// Superseded by [`ResultStore`], which the runner and the sweep service
/// now share; an existing TSV is migrated into the store once
/// ([`ResultStore::migrate_legacy_tsv`]) and renamed away. The type stays
/// for that migration and for downstream code that still links it; its
/// `save` is now atomic (tmp + rename), so even the legacy path can no
/// longer truncate the cache mid-write.
///
/// Follows the same discipline as `suite::Suite`: only instances created
/// with [`SweepCache::load`] persist, so ad-hoc in-memory caches can never
/// clobber the on-disk file with a partial view.
#[derive(Debug, Default)]
pub struct SweepCache {
    entries: HashMap<String, TbResult>,
    dirty: bool,
    persist: bool,
}

impl SweepCache {
    fn path() -> std::path::PathBuf {
        results_dir().join("sweep_cache.tsv")
    }

    /// Loads the persisted cache (empty if none). Entries from other model
    /// versions are dropped.
    pub fn load() -> Self {
        let mut entries = HashMap::new();
        if let Ok(body) = std::fs::read_to_string(Self::path()) {
            for line in body.lines() {
                if let Some((key, res)) = Self::parse_line(line) {
                    entries.insert(key, res);
                }
            }
        }
        SweepCache {
            entries,
            dirty: false,
            persist: true,
        }
    }

    pub(crate) fn parse_line(line: &str) -> Option<(String, TbResult)> {
        let fields: Vec<&str> = line.split('\t').collect();
        let [key, offered, accepted, avg, p99, delivered, lost, saturated] = fields[..] else {
            return None;
        };
        if !key.starts_with(MODEL_VERSION) || !key[MODEL_VERSION.len()..].starts_with('|') {
            return None;
        }
        Some((
            key.to_string(),
            TbResult {
                offered: offered.parse().ok()?,
                accepted: accepted.parse().ok()?,
                avg_latency: avg.parse().ok()?,
                p99_latency: p99.parse().ok()?,
                delivered: delivered.parse().ok()?,
                lost: lost.parse().ok()?,
                per_tile_latency: Vec::new(),
                saturated: match saturated {
                    "1" => true,
                    "0" => false,
                    _ => return None,
                },
            },
        ))
    }

    fn render_line(key: &str, r: &TbResult) -> String {
        format!(
            "{key}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.offered,
            r.accepted,
            r.avg_latency,
            r.p99_latency,
            r.delivered,
            r.lost,
            u8::from(r.saturated)
        )
    }

    /// The cached result for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&TbResult> {
        self.entries.get(key)
    }

    /// Caches `res` under `key`.
    pub fn insert(&mut self, key: String, res: TbResult) {
        self.entries.insert(key, res);
        self.dirty = true;
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Persists new entries, merging with whatever is on disk first so
    /// concurrent harnesses never erase each other's results. The write
    /// is atomic — a temporary file renamed into place — so an
    /// interrupted run leaves either the old complete file or the new
    /// one, never a truncated prefix.
    pub fn save(&mut self) {
        if !self.persist || !self.dirty {
            return;
        }
        let mut merged = SweepCache::load().entries;
        merged.extend(self.entries.iter().map(|(k, v)| (k.clone(), v.clone())));
        let mut keys: Vec<&String> = merged.keys().collect();
        keys.sort();
        let mut body = String::new();
        for k in keys {
            let _ = writeln!(body, "{}", Self::render_line(k, &merged[k]));
        }
        let path = Self::path();
        let tmp = path.with_extension(format!("tsv.tmp.{}", std::process::id()));
        if std::fs::write(&tmp, body).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
            self.dirty = false;
        }
    }
}

/// Executes [`SweepJob`]s across a worker pool, returning results in job
/// order (deterministic output regardless of thread count).
#[derive(Debug)]
pub struct SweepRunner {
    threads: usize,
    step_mode: Option<StepMode>,
    store: Option<Arc<ResultStore>>,
    /// Jobs served from the result store across this runner's lifetime.
    pub cache_hits: usize,
    /// Jobs simulated across this runner's lifetime.
    pub simulated: usize,
}

impl SweepRunner {
    /// A runner honoring `opts` (thread count, cache enable, step mode).
    pub fn new(opts: Opts) -> Self {
        let store = (!opts.no_cache).then(|| {
            let store = ResultStore::open_default();
            store.migrate_legacy_tsv(&results_dir().join("sweep_cache.tsv"));
            Arc::new(store)
        });
        SweepRunner {
            threads: opts.threads,
            step_mode: opts.step_mode,
            store,
            cache_hits: 0,
            simulated: 0,
        }
    }

    /// A runner with an explicit thread count and no result store (tests).
    pub fn uncached(threads: usize) -> Self {
        SweepRunner {
            threads,
            step_mode: None,
            store: None,
            cache_hits: 0,
            simulated: 0,
        }
    }

    /// A runner backed by an explicit (typically shared) result store —
    /// how the sweep service daemon and its runner see one cache.
    pub fn with_store(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The result store backing this runner, if caching is enabled.
    pub fn store(&self) -> Option<&Arc<ResultStore>> {
        self.store.as_ref()
    }

    /// Applies a clock-advance mode to every simulated job (tests;
    /// [`SweepRunner::new`] derives this from its opts). Results — and
    /// hence cache entries — are byte-identical in either mode.
    pub fn with_step_mode(mut self, mode: StepMode) -> Self {
        self.step_mode = Some(mode);
        self
    }

    /// The worker-pool width this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The clock-advance mode applied to simulated jobs (`None` lets each
    /// network resolve `RUCHE_STEP_MODE` itself).
    pub fn step_mode(&self) -> Option<StepMode> {
        self.step_mode
    }

    /// Runs every job, in parallel, returning `results[i]` for `jobs[i]`.
    ///
    /// # Panics
    ///
    /// Panics if any job's pattern is invalid for its configuration (the
    /// same contract as `ruche_traffic::run`), or if a worker panics.
    pub fn run_all(&mut self, jobs: &[SweepJob]) -> Vec<TbResult> {
        self.run_all_with(jobs, |_, _| {})
    }

    /// Like [`SweepRunner::run_all`], additionally invoking `sink(i,
    /// &result)` the moment `jobs[i]`'s result exists — store hits
    /// immediately (in job order), simulated jobs from the worker that
    /// finished them (in completion order). The sweep service streams
    /// per-job responses through this hook while the batch is still
    /// running; the returned vector stays in job order regardless.
    ///
    /// Every job reaches the sink exactly once. The sink runs on worker
    /// threads, so it must be `Sync` and should be quick.
    ///
    /// # Panics
    ///
    /// As [`SweepRunner::run_all`].
    pub fn run_all_with(
        &mut self,
        jobs: &[SweepJob],
        sink: impl Fn(usize, &TbResult) + Sync,
    ) -> Vec<TbResult> {
        let mut slots: Vec<Option<TbResult>> = vec![None; jobs.len()];
        let mut misses: Vec<usize> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            let cached = (self.store.is_some() && !job.per_tile)
                .then(|| self.store.as_ref().and_then(|s| s.get(&job.cache_key())))
                .flatten();
            match cached {
                Some(res) => {
                    sink(i, &res);
                    slots[i] = Some(res);
                    self.cache_hits += 1;
                }
                None => misses.push(i),
            }
        }

        if !misses.is_empty() {
            let computed = run_pool(jobs, &misses, self.threads, self.step_mode, &sink);
            for (&i, res) in misses.iter().zip(computed) {
                if let Some(store) = &self.store {
                    if !jobs[i].per_tile {
                        store.put(&jobs[i].cache_key(), &scrub_per_tile(&res));
                    }
                }
                slots[i] = Some(res);
                self.simulated += 1;
            }
            if let Some(store) = &self.store {
                store.flush();
            }
        }

        slots
            .into_iter()
            .map(|s| s.expect("every job resolved"))
            .collect()
    }
}

/// Drops per-tile accumulators before caching: the cache stores scalar
/// aggregates, and cached jobs never ask for per-tile data.
fn scrub_per_tile(res: &TbResult) -> TbResult {
    TbResult {
        per_tile_latency: Vec::<Accum>::new(),
        ..res.clone()
    }
}

/// Runs `jobs[misses[..]]` on a scoped worker pool; returns results in
/// `misses` order. Workers pull the next job index from a shared atomic
/// cursor, so scheduling is dynamic but the output order is fixed. A set
/// `step_mode` selects the clock-advance mode (both modes are
/// byte-identical, so it only changes where wall-clock time goes).
fn run_pool(
    jobs: &[SweepJob],
    misses: &[usize],
    threads: usize,
    step_mode: Option<StepMode>,
    sink: &(impl Fn(usize, &TbResult) + Sync),
) -> Vec<TbResult> {
    let workers = threads.min(misses.len()).max(1);
    let slots: Vec<Mutex<Option<TbResult>>> = misses.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = misses.get(k) else { break };
                let job = &jobs[i];
                let mut cfg = job.cfg.clone();
                if let Some(mode) = step_mode {
                    cfg = cfg.with_step_mode(mode);
                }
                let res = ruche_traffic::run(&cfg, &job.tb)
                    .unwrap_or_else(|e| panic!("sweep job {i} cannot run: {e}"));
                sink(i, &res);
                *slots[k].lock().expect("slot lock") = Some(res);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruche_noc::geometry::Dims;

    fn quick_tb(rate: f64) -> Testbench {
        Testbench::builder(Pattern::UniformRandom, rate)
            .quick()
            .build()
            .expect("test parameters are valid")
    }

    #[test]
    fn distinct_configs_get_distinct_keys() {
        let dims = Dims::new(8, 8);
        let tb = quick_tb(0.1);
        let a = SweepJob::new(NetworkConfig::mesh(dims), tb.clone());
        let b = SweepJob::new(NetworkConfig::torus(dims), tb.clone());
        let c = SweepJob::new(NetworkConfig::mesh(dims).with_fifo_depth(4), tb.clone());
        let d = SweepJob::new(NetworkConfig::mesh(dims), quick_tb(0.2));
        let e = SweepJob::new(
            NetworkConfig::mesh(dims),
            ruche_traffic::TestbenchBuilder::from(tb.clone())
                .seed(99)
                .build()
                .unwrap(),
        );
        let keys = [
            a.cache_key(),
            b.cache_key(),
            c.cache_key(),
            d.cache_key(),
            e.cache_key(),
        ];
        for (i, k) in keys.iter().enumerate() {
            for (j, l) in keys.iter().enumerate() {
                assert_eq!(i == j, k == l, "{k} vs {l}");
            }
        }
    }

    #[test]
    fn identical_jobs_share_a_key_and_hit_the_cache() {
        let dims = Dims::new(4, 4);
        let job = SweepJob::new(NetworkConfig::mesh(dims), quick_tb(0.05));
        assert_eq!(job.cache_key(), job.clone().cache_key());

        let mut cache = SweepCache::default();
        let res = ruche_traffic::run(&job.cfg, &job.tb).unwrap();
        cache.insert(job.cache_key(), res.clone());
        let hit = cache.get(&job.cache_key()).expect("cache hit");
        assert_eq!(hit.avg_latency, res.avg_latency);
        assert_eq!(hit.delivered, res.delivered);
        assert!(cache
            .get(&SweepJob::new(NetworkConfig::torus(dims), quick_tb(0.05)).cache_key())
            .is_none());
    }

    #[test]
    fn step_mode_does_not_change_the_cache_key() {
        let dims = Dims::new(8, 8);
        let tb = quick_tb(0.1);
        let cycle = SweepJob::new(NetworkConfig::mesh(dims), tb.clone());
        let event = SweepJob::new(
            NetworkConfig::mesh(dims).with_step_mode(StepMode::EventDriven),
            tb,
        );
        assert_eq!(
            cycle.cache_key(),
            event.cache_key(),
            "event-driven and cycle-accurate runs are byte-identical, so \
             they must share a cache entry"
        );
        // And therefore a result computed in one mode is a hit for a run
        // in the other.
        let mut cache = SweepCache::default();
        let tb4 = quick_tb(0.05);
        let a = SweepJob::new(NetworkConfig::mesh(Dims::new(4, 4)), tb4.clone());
        let b = SweepJob::new(
            NetworkConfig::mesh(Dims::new(4, 4)).with_step_mode(StepMode::EventDriven),
            tb4,
        );
        let res = ruche_traffic::run(&a.cfg, &a.tb).unwrap();
        cache.insert(a.cache_key(), res);
        assert!(
            cache.get(&b.cache_key()).is_some(),
            "cache hits must be step-mode-independent"
        );
    }

    #[test]
    fn cache_lines_roundtrip() {
        let r = TbResult {
            offered: 0.1,
            accepted: 0.0975,
            avg_latency: 7.25,
            p99_latency: 19.0,
            delivered: 1234,
            lost: 0,
            per_tile_latency: Vec::new(),
            saturated: false,
        };
        let line = SweepCache::render_line("v1|k", &r);
        let (key, back) = SweepCache::parse_line(&line).expect("parses");
        assert_eq!(key, "v1|k");
        assert_eq!(back.offered, r.offered);
        assert_eq!(back.accepted, r.accepted);
        assert_eq!(back.avg_latency, r.avg_latency);
        assert_eq!(back.p99_latency, r.p99_latency);
        assert_eq!(back.delivered, r.delivered);
        assert_eq!(back.lost, r.lost);
        assert_eq!(back.saturated, r.saturated);
        // Foreign model versions are ignored on load.
        assert!(SweepCache::parse_line(&line.replacen("v1|", "v0|", 1)).is_none());
    }

    #[test]
    fn results_are_in_job_order_for_any_thread_count() {
        let dims = Dims::new(4, 4);
        let jobs: Vec<SweepJob> = [0.02, 0.05, 0.1, 0.15, 0.2, 0.25]
            .iter()
            .map(|&r| SweepJob::new(NetworkConfig::mesh(dims), quick_tb(r)))
            .collect();
        let serial = SweepRunner::uncached(1).run_all(&jobs);
        let parallel = SweepRunner::uncached(4).run_all(&jobs);
        assert_eq!(serial.len(), jobs.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(s.offered, jobs[i].tb.injection_rate, "order preserved");
            assert_eq!(s.avg_latency, p.avg_latency, "job {i}");
            assert_eq!(s.accepted, p.accepted, "job {i}");
            assert_eq!(s.delivered, p.delivered, "job {i}");
        }
    }

    #[test]
    fn per_tile_jobs_bypass_the_cache_and_keep_their_data() {
        let dims = Dims::new(4, 4);
        let job = SweepJob::new(NetworkConfig::mesh(dims), quick_tb(0.05)).with_per_tile();
        let mut runner = SweepRunner::uncached(2);
        let res = runner.run_all(std::slice::from_ref(&job));
        assert_eq!(res[0].per_tile_latency.len(), dims.count());
        assert_eq!(runner.cache_hits, 0);
        assert_eq!(runner.simulated, 1);
    }
}
