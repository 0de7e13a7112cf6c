//! The crash-safe sweep result store, and the `key\tvalue` line format it
//! shares with the manycore suite cache (`results/cache.tsv`).
//!
//! The keyed result backend shared by the sweep service daemon and the
//! offline `repro` path. Design:
//!
//! * **One file, one lock.** Entries live in one map behind one `Mutex`
//!   and persist to `store.tsv` in the store's directory.
//! * **Versioned serialized values.** Each entry's value is the rendered
//!   [`TbResult::to_wire`] JSON, which carries `result_version`. A value
//!   some future build wrote with a different version decodes as a miss —
//!   but its *bytes* are preserved verbatim through every flush, so
//!   downgrading never destroys data.
//! * **Atomic writes.** A flush merges the file on disk under the
//!   in-memory entries and writes the whole union, sorted by key, to a
//!   pid-suffixed temporary file that it then `rename`s into place. A
//!   crash at any instant leaves either the old complete file or the new
//!   complete file — never a truncated one.
//! * **Torn-tail tolerance.** Loading drops any line whose value is not
//!   valid JSON (the signature of a partial write by some non-atomic
//!   producer) and keeps everything else, so one bad tail cannot poison
//!   the store.
//!
//! Entry format is one `key\tvalue` line per result: keys are canonical
//! [`SweepRequest`](ruche_traffic::SweepRequest) renderings prefixed with
//! [`MODEL_VERSION`](crate::sweep::MODEL_VERSION) (neither can contain a
//! tab or newline), values are JSON objects.

use crate::out::results_dir;
use ruche_telemetry::json::{check, parse};
use ruche_traffic::TbResult;
// lint:allow(hash-order): entry maps are insert/lookup only; every byte
// that reaches disk goes through the explicit sort in `write_merged`.
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The entries (key → rendered value bytes) and whether any differ from
/// what the file held at load time.
#[derive(Debug, Default)]
struct Entries {
    map: HashMap<String, String>,
    dirty: bool,
}

/// The keyed result store. See the module docs for the file format and
/// crash-safety contract.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    entries: Mutex<Entries>,
}

/// Writes `body` to `path` atomically: temporary file in the same
/// directory, then rename. Readers see the old or the new file, never a
/// prefix.
fn write_atomic(path: &Path, body: &str) -> std::io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path)
}

/// Splits one stored line into `(key, value)` at its first tab, or `None`
/// for torn or foreign garbage: the key must be non-empty and `valid`
/// must accept the pair.
fn parse_line(line: &str, valid: impl Fn(&str, &str) -> bool) -> Option<(&str, &str)> {
    let (key, value) = line.split_once('\t')?;
    (!key.is_empty() && valid(key, value)).then_some((key, value))
}

/// Reads the lines of `path` that [`parse_line`] keeps; a repeated key
/// keeps its last line, and a missing file reads as empty.
pub(crate) fn read_lines(
    path: &Path,
    valid: impl Fn(&str, &str) -> bool,
) -> HashMap<String, String> {
    let mut map = HashMap::new();
    if let Ok(body) = std::fs::read_to_string(path) {
        for line in body.lines() {
            if let Some((k, v)) = parse_line(line, &valid) {
                map.insert(k.to_string(), v.to_string());
            }
        }
    }
    map
}

/// Adds to `entries` every line of `path` that `valid` accepts under a
/// key `entries` lacks, so an entry another process wrote survives unless
/// `entries` overwrote that very key. Then, unless the union is empty,
/// writes it sorted by key with [`write_atomic`], creating the directory.
pub(crate) fn write_merged(
    path: &Path,
    entries: &mut HashMap<String, String>,
    valid: impl Fn(&str, &str) -> bool,
) -> std::io::Result<()> {
    for (k, v) in read_lines(path, valid) {
        entries.entry(k).or_insert(v);
    }
    if entries.is_empty() {
        return Ok(());
    }
    let mut keys: Vec<&String> = entries.keys().collect();
    keys.sort();
    let mut body = String::new();
    for k in keys {
        body.push_str(k);
        body.push('\t');
        body.push_str(&entries[k]);
        body.push('\n');
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    write_atomic(path, &body)
}

/// The store's line check: the value is at least well-formed JSON (any
/// version). It is checked, not parsed: its tree is only built when
/// [`ResultStore::get`] decodes it.
fn is_json(_key: &str, value: &str) -> bool {
    check(value).is_ok()
}

impl ResultStore {
    /// Opens the store rooted at `dir`, loading its file if one exists.
    /// Nothing is created on disk until the first
    /// [`flush`](Self::flush), so opening a store is free of side effects.
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let map = read_lines(&Self::file(&dir), is_json);
        ResultStore {
            dir,
            entries: Mutex::new(Entries { map, dirty: false }),
        }
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

    fn file(dir: &Path) -> PathBuf {
        dir.join("store.tsv")
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Entries> {
        self.entries.lock().expect("store lock")
    }

    /// The decoded result stored under `key`. Foreign-version or
    /// undecodable values read as a miss (their bytes stay put).
    pub fn get(&self, key: &str) -> Option<TbResult> {
        let raw = self.get_raw(key)?;
        TbResult::from_wire(&parse(&raw).ok()?).ok()
    }

    /// The raw stored value bytes under `key`, decodable or not.
    pub fn get_raw(&self, key: &str) -> Option<String> {
        self.lock().map.get(key).cloned()
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
        let mut entries = self.lock();
        if entries.map.get(key).map(String::as_str) != Some(value.as_str()) {
            entries.map.insert(key.to_string(), value);
            entries.dirty = true;
        }
    }

    /// Number of entries (in memory, persisted or not).
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Persists the entries if any changed: under the lock, the file on
    /// disk is re-read and merged (an entry written by a concurrent process
    /// survives unless this store overwrote that very key), then the whole
    /// union is rewritten sorted, one line per key, atomically.
    pub fn flush(&self) {
        let mut entries = self.lock();
        if !entries.dirty {
            return;
        }
        if write_merged(&Self::file(&self.dir), &mut entries.map, is_json).is_ok() {
            entries.dirty = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(parse_line("k\t{\"a\":1}", is_json).is_some());
        assert!(parse_line("k\t{\"a\":1", is_json).is_none(), "torn JSON");
        assert!(parse_line("no-tab-here", is_json).is_none());
        assert!(parse_line("\t{}", is_json).is_none(), "empty key");
        // Foreign but well-formed values pass through.
        assert_eq!(
            parse_line("k\t{\"result_version\":99}", is_json),
            Some(("k", "{\"result_version\":99}"))
        );
    }

    #[test]
    fn merged_writes_keep_other_writers_keys_and_let_ours_win() {
        let dir = std::env::temp_dir().join(format!("ruche-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sub").join("store.tsv");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "b\t{\"old\":1}\nz\t{\"theirs\":1}\ntorn\t{\"x\n").unwrap();
        let mut ours: HashMap<String, String> = [("b", "{\"new\":2}"), ("a", "{}")]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        write_merged(&path, &mut ours, is_json).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "a\t{}\nb\t{\"new\":2}\nz\t{\"theirs\":1}\n",
            "sorted union, ours win, torn line gone"
        );
        assert_eq!(ours.len(), 3, "the merge lands in memory too");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
