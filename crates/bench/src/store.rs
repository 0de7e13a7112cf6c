//! The crash-safe concurrent sweep result store.
//!
//! The keyed result backend shared by the sweep service daemon and the
//! offline `repro` path. Design:
//!
//! * **Sharded in-memory index.** Keys hash (FNV-1a) onto [`SHARDS`]
//!   independently locked shards, so concurrent daemon connections never
//!   contend on one global lock.
//! * **Versioned serialized values.** Each entry's value is the rendered
//!   [`TbResult::to_wire`] JSON, which carries `result_version`. A value
//!   some future build wrote with a different version decodes as a miss —
//!   but its *bytes* are preserved verbatim through every flush and
//!   compaction, so downgrading never destroys data.
//! * **Atomic writes.** A flush writes each dirty shard to a
//!   pid-suffixed temporary file and `rename`s it into place. A crash at
//!   any instant leaves either the old complete file or the new complete
//!   file — never a truncated one.
//! * **Torn-tail tolerance.** Loading drops any line whose value is not
//!   valid JSON (the signature of a partial write by some non-atomic
//!   producer) and keeps everything else, so one bad tail cannot poison
//!   the store.
//! * **Explicit compaction.** [`ResultStore::compact`] rewrites every
//!   shard sorted and deduplicated and sweeps leftover temporaries;
//!   entries survive byte-identically.
//!
//! Entry format is one `key\tvalue` line per result: keys are canonical
//! [`SweepRequest`](ruche_traffic::SweepRequest) renderings prefixed with
//! [`MODEL_VERSION`](crate::sweep::MODEL_VERSION) (neither can contain a
//! tab or newline), values are JSON objects.

use crate::out::results_dir;
use ruche_telemetry::json::{check, parse};
use ruche_traffic::TbResult;
// lint:allow(hash-order): shard maps are insert/lookup only; every byte
// that reaches disk goes through an explicit sort in `render_shard`.
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Number of shard files (and independent locks). Fixed: the shard of a
/// key must be stable across processes and versions.
pub const SHARDS: usize = 8;

/// One shard: its entries (key → rendered value bytes) and whether any
/// differ from what its file held at load time.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<String, String>,
    dirty: bool,
}

/// The concurrent keyed result store. See the module docs for the layout
/// and crash-safety contract.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    shards: Vec<Mutex<Shard>>,
}

/// FNV-1a, the shard routing hash — stable across processes, platforms,
/// and Rust versions (unlike `DefaultHasher`).
fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Writes `body` to `path` atomically: temporary file in the same
/// directory, then rename. Readers see the old or the new file, never a
/// prefix.
pub(crate) fn write_atomic(path: &Path, body: &str) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path)
}

/// Parses one stored line into `(key, value)`, or `None` for torn or
/// foreign garbage: the line must have a tab, a non-empty key, and a value
/// that is at least well-formed JSON (any version). The value is checked,
/// not parsed: its tree is only built when [`ResultStore::get`] decodes it.
fn parse_entry(line: &str) -> Option<(&str, &str)> {
    let (key, value) = line.split_once('\t')?;
    if key.is_empty() || check(value).is_err() {
        return None;
    }
    Some((key, value))
}

impl ResultStore {
    /// Opens the store rooted at `dir`, loading whatever shard files
    /// exist. Nothing is created on disk until the first [`flush`]
    /// (ResultStore::flush), so opening a store is free of side effects.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let mut shards = Vec::with_capacity(SHARDS);
        for i in 0..SHARDS {
            let mut shard = Shard::default();
            if let Ok(body) = std::fs::read_to_string(Self::shard_path(&dir, i)) {
                for line in body.lines() {
                    if let Some((k, v)) = parse_entry(line) {
                        shard.entries.insert(k.to_string(), v.to_string());
                    }
                }
            }
            shards.push(Mutex::new(shard));
        }
        ResultStore { dir, shards }
    }

    /// Opens the store at its default location,
    /// `results/sweep_store/` (honoring `RUCHE_RESULTS_DIR`).
    pub fn open_default() -> Self {
        Self::open(results_dir().join("sweep_store"))
    }

    /// The directory this store persists under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn shard_path(dir: &Path, i: usize) -> PathBuf {
        dir.join(format!("shard-{i}.tsv"))
    }

    fn shard_of(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[(fnv1a(key) % SHARDS as u64) as usize]
    }

    /// The decoded result stored under `key`. Foreign-version or
    /// undecodable values read as a miss (their bytes stay put).
    pub fn get(&self, key: &str) -> Option<TbResult> {
        let shard = self.shard_of(key).lock().expect("store shard lock");
        let raw = shard.entries.get(key)?;
        TbResult::from_wire(&parse(raw).ok()?).ok()
    }

    /// The raw stored value bytes under `key`, decodable or not.
    pub fn get_raw(&self, key: &str) -> Option<String> {
        let shard = self.shard_of(key).lock().expect("store shard lock");
        shard.entries.get(key).cloned()
    }

    /// Stores `res` under `key` (in memory; [`flush`](ResultStore::flush)
    /// persists).
    pub fn put(&self, key: &str, res: &TbResult) {
        self.put_raw(key, res.to_wire().render());
    }

    /// Stores pre-rendered value bytes under `key`. Tests use this;
    /// `value` must be a single line of valid JSON.
    pub fn put_raw(&self, key: &str, value: String) {
        debug_assert!(!key.contains(['\t', '\n']), "keys are single-line");
        debug_assert!(!value.contains('\n'), "values are single-line");
        let mut shard = self.shard_of(key).lock().expect("store shard lock");
        if shard.entries.get(key).map(String::as_str) != Some(value.as_str()) {
            shard.entries.insert(key.to_string(), value);
            shard.dirty = true;
        }
    }

    /// Total entries across all shards (in memory, persisted or not).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("store shard lock").entries.len())
            .sum()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders a shard's merged view, sorted by key for byte-stable files.
    fn render_shard(entries: &HashMap<String, String>) -> String {
        let mut keys: Vec<&String> = entries.keys().collect();
        keys.sort();
        let mut body = String::new();
        for k in keys {
            body.push_str(k);
            body.push('\t');
            body.push_str(&entries[k]);
            body.push('\n');
        }
        body
    }

    /// Persists every dirty shard: the on-disk file is re-read and merged
    /// under the shard lock (an entry written by a concurrent process
    /// survives unless this store overwrote that very key), then the
    /// merged view is written atomically.
    pub fn flush(&self) {
        self.persist(false);
    }

    /// Rewrites **every** shard — sorted, deduplicated by key, merged
    /// with whatever is on disk — and sweeps leftover temporary files.
    /// Every live entry survives byte-identically; only duplicate-key
    /// lines (last wins at load) and torn tails disappear. Returns the
    /// number of entries in the compacted store.
    pub fn compact(&self) -> usize {
        self.persist(true);
        if let Ok(dir) = std::fs::read_dir(&self.dir) {
            for f in dir.flatten() {
                if f.file_name().to_string_lossy().contains(".tmp.") {
                    let _ = std::fs::remove_file(f.path());
                }
            }
        }
        self.len()
    }

    fn persist(&self, everything: bool) {
        for (i, slot) in self.shards.iter().enumerate() {
            let mut shard = slot.lock().expect("store shard lock");
            if !shard.dirty && !everything {
                continue;
            }
            let path = Self::shard_path(&self.dir, i);
            let mut merged: HashMap<String, String> = HashMap::new();
            if let Ok(body) = std::fs::read_to_string(&path) {
                for line in body.lines() {
                    if let Some((k, v)) = parse_entry(line) {
                        merged.insert(k.to_string(), v.to_string());
                    }
                }
            }
            merged.extend(shard.entries.iter().map(|(k, v)| (k.clone(), v.clone())));
            if merged.is_empty() {
                shard.dirty = false;
                continue;
            }
            if std::fs::create_dir_all(&self.dir).is_ok()
                && write_atomic(&path, &Self::render_shard(&merged)).is_ok()
            {
                shard.entries = merged;
                shard.dirty = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable() {
        // Pinned: a changed hash would strand every persisted entry in
        // the wrong file. These are the published FNV-1a test vectors.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
        // lint:allow(hash-order): cardinality check only
        let spread: std::collections::HashSet<u64> = (0..64)
            .map(|i| fnv1a(&format!("key-{i}")) % SHARDS as u64)
            .collect();
        assert!(spread.len() > 1, "keys spread across shards");
    }

    #[test]
    fn atomic_writes_replace_the_whole_file_and_leave_no_temporary() {
        let dir = std::env::temp_dir().join(format!("ruche-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("cache.tsv");
        std::fs::write(&path, "a much longer original body\nwith two lines\n").unwrap();
        write_atomic(&path, "new\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new\n");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|f| f.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["cache.tsv"], "no .tmp. sibling left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_lines_are_dropped_and_valid_ones_kept() {
        assert!(parse_entry("k\t{\"a\":1}").is_some());
        assert!(parse_entry("k\t{\"a\":1").is_none(), "torn JSON");
        assert!(parse_entry("no-tab-here").is_none());
        assert!(parse_entry("\t{}").is_none(), "empty key");
        // Foreign but well-formed values pass through.
        assert_eq!(
            parse_entry("k\t{\"result_version\":99}"),
            Some(("k", "{\"result_version\":99}"))
        );
    }
}
