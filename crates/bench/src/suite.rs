//! The shared Half-Ruche manycore simulation suite (Figures 10–13 and
//! Table 6 all consume it), with a disk cache so each (array, network,
//! workload) combination is simulated exactly once across harnesses.

use crate::opts::Opts;
use crate::out::results_dir;
use crate::store::{read_lines, write_merged};
use ruche_manycore::prelude::*;
use ruche_noc::prelude::*;
// lint:allow(hash-order): the suite cache is keyed by config label and only
// ever looked up; artifact emission collects the keys and sorts them first.
use std::collections::HashMap;

/// The network configurations of the Half-Ruche evaluation (§4.6),
/// paper order: mesh, ruche2-depop, ruche2-pop, ruche3-depop, ruche3-pop,
/// half-torus.
pub fn half_ruche_configs(dims: Dims) -> Vec<NetworkConfig> {
    use CrossbarScheme::{Depopulated, FullyPopulated};
    vec![
        NetworkConfig::mesh(dims),
        NetworkConfig::half_ruche(dims, 2, Depopulated),
        NetworkConfig::half_ruche(dims, 2, FullyPopulated),
        NetworkConfig::half_ruche(dims, 3, Depopulated),
        NetworkConfig::half_ruche(dims, 3, FullyPopulated),
        NetworkConfig::half_torus(dims),
    ]
}

/// The benchmark × dataset list (Table 5). `quick` trims to one dataset
/// per benchmark.
pub fn workload_list(opts: Opts) -> Vec<(Benchmark, DatasetId)> {
    let mut list = Vec::new();
    for b in Benchmark::ALL {
        let ds = b.datasets();
        let take = if opts.quick { 1 } else { ds.len() };
        for d in ds.into_iter().take(take) {
            list.push((b, d));
        }
    }
    list
}

/// Cached aggregates of one machine run — everything Figures 10–13 and
/// Table 6 need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Runtime, cycles.
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Stall cycles (waiting).
    pub stall: u64,
    /// Idle cycles (after completion).
    pub idle: u64,
    /// Memory operations issued.
    pub mem_ops: u64,
    /// Mean remote-load latency, cycles.
    pub lat_total: f64,
    /// Mean intrinsic component.
    pub lat_intrinsic: f64,
    /// Mean congestion component.
    pub lat_congestion: f64,
    /// Measured accesses.
    pub lat_count: u64,
    /// Core dynamic energy, pJ.
    pub core_pj: f64,
    /// Stall/idle energy, pJ.
    pub stall_pj: f64,
    /// Router energy, pJ.
    pub router_pj: f64,
    /// Long-wire energy, pJ.
    pub wire_pj: f64,
}

impl Entry {
    /// Total energy, pJ.
    pub fn total_pj(&self) -> f64 {
        self.core_pj + self.stall_pj + self.router_pj + self.wire_pj
    }

    /// NoC energy (router + wire), pJ.
    pub fn noc_pj(&self) -> f64 {
        self.router_pj + self.wire_pj
    }

    /// Compute energy (core + stall), pJ.
    pub fn compute_pj(&self) -> f64 {
        self.core_pj + self.stall_pj
    }

    fn from_run(r: &RunResult) -> Self {
        Entry {
            cycles: r.cycles,
            instructions: r.instructions,
            stall: r.stall_cycles,
            idle: r.idle_cycles,
            mem_ops: r.mem_ops,
            lat_total: r.load_latency.total.mean(),
            lat_intrinsic: r.load_latency.intrinsic.mean(),
            lat_congestion: r.load_latency.congestion.mean(),
            lat_count: r.load_latency.total.count(),
            core_pj: r.energy.core_pj,
            stall_pj: r.energy.stall_pj,
            router_pj: r.energy.router_pj,
            wire_pj: r.energy.wire_pj,
        }
    }

    fn to_tsv(self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.cycles,
            self.instructions,
            self.stall,
            self.idle,
            self.mem_ops,
            self.lat_total,
            self.lat_intrinsic,
            self.lat_congestion,
            self.lat_count,
            self.core_pj,
            self.stall_pj,
            self.router_pj,
            self.wire_pj
        )
    }

    fn from_tsv(value: &str) -> Option<Entry> {
        let fields: Vec<&str> = value.split('\t').collect();
        if fields.len() != 13 {
            return None;
        }
        Some(Entry {
            cycles: fields[0].parse().ok()?,
            instructions: fields[1].parse().ok()?,
            stall: fields[2].parse().ok()?,
            idle: fields[3].parse().ok()?,
            mem_ops: fields[4].parse().ok()?,
            lat_total: fields[5].parse().ok()?,
            lat_intrinsic: fields[6].parse().ok()?,
            lat_congestion: fields[7].parse().ok()?,
            lat_count: fields[8].parse().ok()?,
            core_pj: fields[9].parse().ok()?,
            stall_pj: fields[10].parse().ok()?,
            router_pj: fields[11].parse().ok()?,
            wire_pj: fields[12].parse().ok()?,
        })
    }
}

/// Bump when anything that invalidates cached runs changes (engine,
/// kernels, calibration). v5: vendored RNG changed workload streams.
const CACHE_VERSION: &str = "v5";

/// The run cache: maps (array, network label, workload) to aggregates,
/// persisted as TSV under `results/cache.tsv`.
///
/// Only instances created with [`Suite::load`] persist; `Suite::default()`
/// is in-memory only, so tests and ad-hoc uses can never clobber the
/// on-disk cache with a partial view.
#[derive(Debug, Default)]
pub struct Suite {
    entries: HashMap<String, Entry>,
    workload_cache: HashMap<String, Workload>,
    persist: bool,
}

impl Suite {
    fn key(dims: Dims, label: &str, workload: &str) -> String {
        format!("{CACHE_VERSION}|{dims}|{label}|{workload}")
    }

    fn cache_path() -> std::path::PathBuf {
        results_dir().join("cache.tsv")
    }

    /// A `cache.tsv` line worth keeping: a current-version key and 13
    /// parseable fields.
    fn is_current(key: &str, value: &str) -> bool {
        key.starts_with(CACHE_VERSION) && Entry::from_tsv(value).is_some()
    }

    /// Loads the persisted cache (empty if none).
    pub fn load() -> Self {
        let entries = read_lines(&Self::cache_path(), Self::is_current)
            .into_iter()
            .filter_map(|(k, v)| Some((k, Entry::from_tsv(&v)?)))
            .collect();
        Suite {
            entries,
            workload_cache: HashMap::new(),
            persist: true,
        }
    }

    /// Persists the cache. Merges with whatever is on disk first, so a
    /// suite holding a subset of entries never erases another's work. The
    /// write is atomic, so an interrupted run leaves the old file whole.
    pub fn save(&self) {
        if !self.persist {
            return;
        }
        let mut lines = self
            .entries
            .iter()
            .map(|(k, e)| (k.clone(), e.to_tsv()))
            .collect();
        let _ = write_merged(&Self::cache_path(), &mut lines, Self::is_current);
    }

    /// Number of cached runs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the aggregates for (dims, net, workload), simulating and
    /// caching on a miss.
    ///
    /// # Panics
    ///
    /// Panics if the machine run fails (invalid config or cycle-cap).
    pub fn get_or_run(
        &mut self,
        dims: Dims,
        net: &NetworkConfig,
        bench: Benchmark,
        ds: DatasetId,
    ) -> Entry {
        let wname = Workload::build_name(bench, ds);
        let key = Self::key(dims, &net.label(), &wname);
        if let Some(&e) = self.entries.get(&key) {
            return e;
        }
        let wkey = format!("{dims}|{wname}");
        let workload = self
            .workload_cache
            .entry(wkey)
            .or_insert_with(|| Workload::build(bench, ds, dims));
        eprintln!("[suite] running {wname} on {} {}", dims, net.label());
        let result = run(&SystemConfig::new(net.clone()), workload)
            .unwrap_or_else(|e| panic!("machine run failed for {wname}: {e}"));
        let entry = Entry::from_run(&result);
        self.entries.insert(key, entry);
        self.save();
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_paper_order() {
        let cfgs = half_ruche_configs(Dims::new(16, 8));
        let labels: Vec<String> = cfgs.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "mesh",
                "half-ruche2-depop",
                "half-ruche2-pop",
                "half-ruche3-depop",
                "half-ruche3-pop",
                "half-torus"
            ]
        );
        for c in cfgs {
            c.validate().unwrap();
        }
    }

    #[test]
    fn workload_list_sizes() {
        assert_eq!(workload_list(Opts::quick()).len(), 7);
        assert_eq!(workload_list(Opts::full()).len(), 19);
    }

    #[test]
    fn entry_tsv_roundtrip() {
        let e = Entry {
            cycles: 123,
            instructions: 456,
            stall: 7,
            idle: 8,
            mem_ops: 9,
            lat_total: 31.5,
            lat_intrinsic: 20.25,
            lat_congestion: 11.25,
            lat_count: 42,
            core_pj: 1.5,
            stall_pj: 2.5,
            router_pj: 3.5,
            wire_pj: 4.5,
        };
        assert_eq!(Entry::from_tsv(&e.to_tsv()), Some(e));
        assert_eq!(e.total_pj(), 12.0);
        assert_eq!(e.noc_pj(), 8.0);
        assert_eq!(e.compute_pj(), 4.0);
    }

    #[test]
    fn cache_lines_need_the_current_version_and_thirteen_fields() {
        let fields = "1\t2\t3\t4\t5\t6.5\t7\t8\t9\t10\t11\t12\t13";
        let key = Suite::key(Dims::new(8, 4), "mesh", "jacobi");
        assert!(Suite::is_current(&key, fields));
        assert!(
            !Suite::is_current("v0|8x4|mesh|jacobi", fields),
            "old version"
        );
        assert!(!Suite::is_current(&key, "1\t2\t3"), "too few fields");
        assert!(
            !Suite::is_current(&key, &fields.replace('7', "x")),
            "bad number"
        );
    }

    #[test]
    fn suite_runs_and_caches() {
        let dims = Dims::new(8, 4);
        let mut suite = Suite::default();
        let net = NetworkConfig::mesh(dims);
        let a = suite.get_or_run(dims, &net, Benchmark::Jacobi, DatasetId::Default);
        let b = suite.get_or_run(dims, &net, Benchmark::Jacobi, DatasetId::Default);
        assert_eq!(a, b);
        assert_eq!(suite.len(), 1);
        assert!(!suite.is_empty());
        assert!(a.cycles > 0);
    }

    #[test]
    fn default_suite_never_touches_the_disk_cache() {
        // Regression test: a partial in-memory suite (as used above) must
        // not clobber results/cache.tsv when it "saves".
        let before = std::fs::read_to_string(Suite::cache_path()).unwrap_or_default();
        let dims = Dims::new(8, 4);
        let mut suite = Suite::default();
        let net = NetworkConfig::mesh(dims);
        let _ = suite.get_or_run(dims, &net, Benchmark::Jacobi, DatasetId::Default);
        suite.save();
        let after = std::fs::read_to_string(Suite::cache_path()).unwrap_or_default();
        assert_eq!(before, after, "ephemeral suites leave the cache alone");
    }
}
