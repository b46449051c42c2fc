//! The storage virtual filesystem: one small trait between the store
//! and the bytes, so crash consistency is *testable*.
//!
//! [`ArtifactStore`](crate::store::ArtifactStore) performs every I/O
//! operation through a [`Vfs`] handle. Production uses [`RealVfs`]
//! (thin `std::fs` passthrough). Tests and the chaos harness use:
//!
//! * [`MemVfs`] — an in-memory filesystem with an explicit *durability
//!   model*: every file tracks both its live content and the content
//!   guaranteed to survive a crash. `write`/`append`/`rename`/`remove`
//!   change only the live view; [`Vfs::sync_file`] makes content
//!   durable and [`Vfs::sync_dir`] commits directory metadata (new
//!   names, renames, removals). [`MemVfs::crash`] folds the live view
//!   down to a *seeded* post-crash state: unsynced writes survive as
//!   torn prefixes, unsynced renames/removals may roll back, unsynced
//!   names may vanish — deterministically, from the crash seed.
//! * [`FaultVfs`] — wraps a [`MemVfs`] and injects faults per a seeded
//!   [`FaultPlan`]: transient `ErrorKind` failures, short writes that
//!   leave a torn prefix behind, and a crash at a chosen operation
//!   index (after which every call fails, exactly like a dead process;
//!   re-open the same [`MemVfs`] to model the reboot).
//!
//! The fsync-ordering discipline the store must follow is thereby
//! encoded in the op sequence itself: a mutation is only crash-proof
//! once the matching `sync_file`/`sync_dir` ops have run, and the
//! crash-point exhaustion suite (`tests/crash_points.rs`) proves the
//! store's protocol correct at *every* operation index.
//!
//! Everything is deterministic: same op sequence, same seeds, same
//! post-crash bytes — on any machine, at any thread count.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::fs;
use std::io::{Error, ErrorKind, Result as IoResult, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use bmf_stat::rng::{derive_seed, seeded, Rng};

/// The I/O surface the store needs, small enough to fault-inject
/// exhaustively. Paths are plain `/`-separated strings; `list` returns
/// names (not full paths), sorted, so iteration order is deterministic
/// on every backend.
pub trait Vfs: Debug + Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &str) -> IoResult<Vec<u8>>;
    /// Creates or truncates a file with exactly these bytes.
    fn write(&self, path: &str, bytes: &[u8]) -> IoResult<()>;
    /// Appends bytes, creating the file when missing.
    fn append(&self, path: &str, bytes: &[u8]) -> IoResult<()>;
    /// Atomically renames `from` to `to` (replacing `to`); the rename
    /// is only crash-durable after `sync_dir` on the parent.
    fn rename(&self, from: &str, to: &str) -> IoResult<()>;
    /// Removes a file.
    fn remove(&self, path: &str) -> IoResult<()>;
    /// `true` when a file exists at `path`.
    fn exists(&self, path: &str) -> IoResult<bool>;
    /// Size of the file at `path`, in bytes.
    fn len(&self, path: &str) -> IoResult<u64>;
    /// Sorted file names (not paths) directly inside `dir`.
    fn list(&self, dir: &str) -> IoResult<Vec<String>>;
    /// Creates a directory and all its ancestors.
    fn create_dir_all(&self, path: &str) -> IoResult<()>;
    /// Makes the file's *content* crash-durable (fsync).
    fn sync_file(&self, path: &str) -> IoResult<()>;
    /// Makes the directory's *metadata* crash-durable: created names,
    /// renames, and removals inside `dir` survive a crash after this.
    fn sync_dir(&self, dir: &str) -> IoResult<()>;
}

/// Locks a mutex, recovering from poisoning: every critical section in
/// this module leaves the state consistent at any panic point, so
/// continuing with the inner value preserves the panic-free contract.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The production backend: a thin passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn read(&self, path: &str) -> IoResult<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &str, bytes: &[u8]) -> IoResult<()> {
        fs::write(path, bytes)
    }

    fn append(&self, path: &str, bytes: &[u8]) -> IoResult<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)
    }

    fn rename(&self, from: &str, to: &str) -> IoResult<()> {
        fs::rename(from, to)
    }

    fn remove(&self, path: &str) -> IoResult<()> {
        fs::remove_file(path)
    }

    fn exists(&self, path: &str) -> IoResult<bool> {
        Ok(fs::metadata(path).is_ok())
    }

    fn len(&self, path: &str) -> IoResult<u64> {
        fs::metadata(path).map(|m| m.len())
    }

    fn list(&self, dir: &str) -> IoResult<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    fn create_dir_all(&self, path: &str) -> IoResult<()> {
        fs::create_dir_all(path)
    }

    fn sync_file(&self, path: &str) -> IoResult<()> {
        fs::File::open(path)?.sync_all()
    }

    #[cfg(unix)]
    fn sync_dir(&self, dir: &str) -> IoResult<()> {
        fs::File::open(dir)?.sync_all()
    }

    #[cfg(not(unix))]
    fn sync_dir(&self, _dir: &str) -> IoResult<()> {
        // Directory handles cannot be fsynced portably off unix; the
        // rename itself is still atomic there.
        Ok(())
    }
}

/// One in-memory file: the live content plus what a crash preserves.
#[derive(Debug, Clone, Default)]
struct FileState {
    /// Current content as the process sees it.
    data: Vec<u8>,
    /// Content guaranteed after a crash (set by `sync_file`); `None`
    /// means nothing of this file's content is durable yet.
    durable: Option<Vec<u8>>,
    /// Whether the directory entry survives a crash (set by `sync_dir`
    /// on the parent). An un-durable name may vanish entirely.
    name_durable: bool,
    /// Durable content the *target* of an unsynced rename held before
    /// being replaced: until `sync_dir`, a crash may keep the old file.
    prev: Option<Vec<u8>>,
    /// Where an unsynced rename moved this file from, with the durable
    /// content under that old name: a rename is one atomic metadata
    /// update, so at a crash exactly one of (old name with this
    /// content, new name) survives — never both, never neither.
    renamed_from: Option<(String, Vec<u8>)>,
}

#[derive(Debug, Default)]
struct MemState {
    files: BTreeMap<String, FileState>,
    /// Old names removed by an unsynced rename/remove, with the durable
    /// content that may resurrect under them at a crash.
    shadows: BTreeMap<String, Vec<u8>>,
    dirs: BTreeSet<String>,
}

/// A deterministic in-memory filesystem with an explicit durability
/// model; see the [module docs](self).
///
/// Share it behind an [`Arc`](std::sync::Arc): a [`FaultVfs`] and a
/// post-"reboot" store can then operate on the same disk image.
#[derive(Debug, Default)]
pub struct MemVfs {
    state: Mutex<MemState>,
}

/// Parent directory of a path (`""` for a bare name, which always
/// exists).
fn parent(path: &str) -> &str {
    path.rfind('/').map_or("", |i| &path[..i])
}

fn not_found(path: &str) -> Error {
    Error::new(ErrorKind::NotFound, format!("no such file: `{path}`"))
}

impl MemVfs {
    /// A fresh, empty filesystem.
    pub fn new() -> Self {
        MemVfs::default()
    }

    /// Folds the live state down to a seeded post-crash state, in
    /// place — modelling a power cut followed by a reboot:
    ///
    /// * a file whose name is not durable survives only by a seeded
    ///   coin toss (its directory entry may or may not have reached
    ///   the platter);
    /// * surviving content is the durable content, extended by a
    ///   seeded *prefix* of any unsynced appended suffix (a torn
    ///   append), or — for unsynced rewrites — a seeded choice between
    ///   the durable content and a torn prefix of the new bytes;
    /// * an unsynced rename/remove may roll back: the old name
    ///   resurrects with its durable content by a seeded coin toss.
    ///
    /// After the fold everything that survived is durable (the disk
    /// state *is* the state). Same seed, same pre-crash op sequence ⇒
    /// same post-crash bytes.
    pub fn crash(&self, seed: u64) {
        let mut rng = seeded(seed);
        let mut st = lock(&self.state);
        let mut next: BTreeMap<String, FileState> = BTreeMap::new();
        let mut resurrect: Vec<(String, Vec<u8>)> = Vec::new();
        // BTreeMap iteration is sorted, so the draw order — and with it
        // the whole post-crash state — is deterministic.
        for (path, f) in &st.files {
            let (content, rollback) = crash_resolve(f, &mut rng);
            if let Some(content) = content {
                next.insert(path.clone(), durable_file(content));
            }
            if let Some(old) = rollback {
                resurrect.push(old);
            }
        }
        for (path, bytes) in resurrect {
            // An unsynced rename rolled back: its source name is live
            // again (unless something else already claimed it).
            next.entry(path).or_insert_with(|| durable_file(bytes));
        }
        for (path, bytes) in &st.shadows {
            if rng.gen_bool(0.5) && !next.contains_key(path) {
                // The removal metadata never hit the disk: the old
                // entry is still there.
                next.insert(path.clone(), durable_file(bytes.clone()));
            }
        }
        st.files = next;
        st.shadows.clear();
    }

    /// Sorted list of every file path currently live (for tests).
    pub fn paths(&self) -> Vec<String> {
        lock(&self.state).files.keys().cloned().collect()
    }
}

/// A fully-durable post-crash file.
fn durable_file(content: Vec<u8>) -> FileState {
    FileState {
        data: content.clone(),
        durable: Some(content),
        name_durable: true,
        prev: None,
        renamed_from: None,
    }
}

/// Content surviving under the file's own name, plus an old name and
/// content to resurrect when an unsynced rename rolls back.
type CrashFate = (Option<Vec<u8>>, Option<(String, Vec<u8>)>);

/// Crash fate of one file: its content under its current name (`None`
/// when the name vanishes) plus, when an unsynced rename rolls back,
/// the old name and content to resurrect. One seeded decision covers
/// both — a rename is atomic, so exactly one side survives.
fn crash_resolve(f: &FileState, rng: &mut Rng) -> CrashFate {
    if f.name_durable {
        if let Some(prev) = &f.prev {
            if rng.gen_bool(0.5) {
                // The rename over this file never committed: the old
                // target content survives here, and the rename source
                // (if its name was durable) is still in place too.
                return (Some(prev.clone()), f.renamed_from.clone());
            }
        }
        (Some(crash_content(f, rng)), None)
    } else {
        match (&f.renamed_from, rng.gen_bool(0.5)) {
            // Rename committed: the new name holds the content.
            (Some(_), true) => (Some(crash_content(f, rng)), None),
            // Rename rolled back: the old name holds the old content.
            (Some(old), false) => (None, Some(old.clone())),
            // A plain new file: its directory entry made it, or not.
            (None, true) => (Some(crash_content(f, rng)), None),
            (None, false) => (None, None),
        }
    }
}

/// Post-crash content of one surviving file; see [`MemVfs::crash`].
fn crash_content(f: &FileState, rng: &mut Rng) -> Vec<u8> {
    match &f.durable {
        Some(d) if f.data.starts_with(d) => {
            // Pure appends since the sync: durable base plus a torn
            // prefix of the unsynced suffix.
            let suffix = &f.data[d.len()..];
            let keep = rng.gen_index(suffix.len() + 1);
            let mut out = d.clone();
            out.extend_from_slice(&suffix[..keep]);
            out
        }
        Some(d) => {
            // Rewritten since the sync: either the durable content or
            // a torn prefix of the new bytes.
            if rng.gen_bool(0.5) {
                d.clone()
            } else {
                torn(&f.data, rng)
            }
        }
        None => torn(&f.data, rng),
    }
}

/// A seeded prefix of `data`, possibly empty, possibly whole.
fn torn(data: &[u8], rng: &mut Rng) -> Vec<u8> {
    data[..rng.gen_index(data.len() + 1)].to_vec()
}

impl Vfs for MemVfs {
    fn read(&self, path: &str) -> IoResult<Vec<u8>> {
        lock(&self.state)
            .files
            .get(path)
            .map(|f| f.data.clone())
            .ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &str, bytes: &[u8]) -> IoResult<()> {
        let mut st = lock(&self.state);
        let dir = parent(path);
        if !dir.is_empty() && !st.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        let f = st.files.entry(path.to_string()).or_default();
        f.data = bytes.to_vec();
        Ok(())
    }

    fn append(&self, path: &str, bytes: &[u8]) -> IoResult<()> {
        let mut st = lock(&self.state);
        let dir = parent(path);
        if !dir.is_empty() && !st.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        let f = st.files.entry(path.to_string()).or_default();
        f.data.extend_from_slice(bytes);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> IoResult<()> {
        let mut st = lock(&self.state);
        let Some(src) = st.files.remove(from) else {
            return Err(not_found(from));
        };
        // Until sync_dir, a crash may roll the rename back to the old
        // name (only meaningful when that name was itself durable; a
        // chain of renames keeps pointing at the original durable one).
        let renamed_from = if src.name_durable {
            src.durable.clone().map(|d| (from.to_string(), d))
        } else {
            src.renamed_from.clone()
        };
        let old_target = st.files.get(to);
        // The *name* `to` is only crash-guaranteed to resolve to this
        // content after sync_dir; if the old target was durable, the
        // name survives either way (with either content, chosen at
        // crash time via `prev`).
        let name_durable = old_target.is_some_and(|f| f.name_durable);
        let prev = old_target.and_then(|old| {
            if old.name_durable {
                old.durable.clone().or(old.prev.clone())
            } else {
                old.prev.clone()
            }
        });
        st.files.insert(
            to.to_string(),
            FileState {
                data: src.data,
                durable: src.durable,
                name_durable,
                prev,
                renamed_from,
            },
        );
        Ok(())
    }

    fn remove(&self, path: &str) -> IoResult<()> {
        let mut st = lock(&self.state);
        let Some(f) = st.files.remove(path) else {
            return Err(not_found(path));
        };
        if f.name_durable {
            if let Some(d) = f.durable {
                st.shadows.insert(path.to_string(), d);
            }
        }
        Ok(())
    }

    fn exists(&self, path: &str) -> IoResult<bool> {
        Ok(lock(&self.state).files.contains_key(path))
    }

    fn len(&self, path: &str) -> IoResult<u64> {
        lock(&self.state)
            .files
            .get(path)
            .map(|f| f.data.len() as u64)
            .ok_or_else(|| not_found(path))
    }

    fn list(&self, dir: &str) -> IoResult<Vec<String>> {
        let st = lock(&self.state);
        if !dir.is_empty() && !st.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        Ok(st
            .files
            .keys()
            .filter(|p| parent(p) == dir)
            .map(|p| p.rfind('/').map_or(p.as_str(), |i| &p[i + 1..]).to_string())
            .collect())
    }

    fn create_dir_all(&self, path: &str) -> IoResult<()> {
        let mut st = lock(&self.state);
        let mut at = path;
        loop {
            st.dirs.insert(at.to_string());
            let up = parent(at);
            if up.is_empty() {
                return Ok(());
            }
            at = up;
        }
    }

    fn sync_file(&self, path: &str) -> IoResult<()> {
        let mut st = lock(&self.state);
        let Some(f) = st.files.get_mut(path) else {
            return Err(not_found(path));
        };
        f.durable = Some(f.data.clone());
        Ok(())
    }

    fn sync_dir(&self, dir: &str) -> IoResult<()> {
        let mut st = lock(&self.state);
        if !dir.is_empty() && !st.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        for (path, f) in st.files.iter_mut() {
            if parent(path) == dir {
                f.name_durable = true;
                f.prev = None;
                f.renamed_from = None;
            }
        }
        let stale: Vec<String> = st
            .shadows
            .keys()
            .filter(|p| parent(p) == dir)
            .cloned()
            .collect();
        for p in stale {
            st.shadows.remove(&p);
        }
        Ok(())
    }
}

/// What a [`FaultVfs`] injects, all seeded and deterministic.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Master seed for every injection decision (and for the crash
    /// fold, via [`derive_seed`] with the op index).
    pub seed: u64,
    /// Per-op probability (in permille) of a transient
    /// [`ErrorKind::Interrupted`] failure that leaves state untouched.
    pub error_permille: u32,
    /// Per-write probability (in permille) of a short write: a seeded
    /// prefix of the bytes is applied, then the op fails.
    pub short_write_permille: u32,
    /// Crash at this zero-based op index: the underlying [`MemVfs`] is
    /// folded via [`MemVfs::crash`] and every subsequent op fails with
    /// [`ErrorKind::BrokenPipe`], exactly like a dead process.
    pub crash_at_op: Option<u64>,
}

/// A fault-injecting [`Vfs`] over a shared [`MemVfs`]; see the
/// [module docs](self).
#[derive(Debug)]
pub struct FaultVfs {
    inner: std::sync::Arc<MemVfs>,
    plan: FaultPlan,
    rng: Mutex<Rng>,
    ops: AtomicU64,
    injected: AtomicU64,
    crashed: AtomicBool,
}

impl FaultVfs {
    /// Wraps a shared in-memory filesystem with a fault plan.
    pub fn new(inner: std::sync::Arc<MemVfs>, plan: FaultPlan) -> Self {
        let rng = Mutex::new(seeded(derive_seed(plan.seed, 0x7fau64)));
        FaultVfs {
            inner,
            plan,
            rng,
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
        }
    }

    /// Total VFS operations attempted so far (including faulted ones).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Transient errors and short writes injected so far.
    pub fn injected_errors(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// `true` once the planned crash point has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Per-op admission: counts the op, fires the planned crash at its
    /// index, and injects a seeded transient error.
    fn gate(&self, path: &str) -> IoResult<u64> {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        if self.crashed.load(Ordering::SeqCst) {
            return Err(Error::new(
                ErrorKind::BrokenPipe,
                format!("vfs op {op} after simulated crash"),
            ));
        }
        if self.plan.crash_at_op == Some(op) {
            self.inner.crash(derive_seed(self.plan.seed, op));
            self.crashed.store(true, Ordering::SeqCst);
            return Err(Error::new(
                ErrorKind::BrokenPipe,
                format!("simulated crash at vfs op {op} (`{path}`)"),
            ));
        }
        if self.plan.error_permille > 0 {
            let draw = (lock(&self.rng).next_u64() % 1000) as u32;
            if draw < self.plan.error_permille {
                self.injected.fetch_add(1, Ordering::SeqCst);
                return Err(Error::new(
                    ErrorKind::Interrupted,
                    format!("injected transient fault at vfs op {op} (`{path}`)"),
                ));
            }
        }
        Ok(op)
    }

    /// Seeded short-write decision: `Some(prefix_len)` when this write
    /// of `len` bytes should tear.
    fn short_write(&self, len: usize) -> Option<usize> {
        if self.plan.short_write_permille == 0 || len == 0 {
            return None;
        }
        let mut rng = lock(&self.rng);
        let draw = (rng.next_u64() % 1000) as u32;
        if draw < self.plan.short_write_permille {
            Some(rng.gen_index(len))
        } else {
            None
        }
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &str) -> IoResult<Vec<u8>> {
        self.gate(path)?;
        self.inner.read(path)
    }

    fn write(&self, path: &str, bytes: &[u8]) -> IoResult<()> {
        let op = self.gate(path)?;
        if let Some(keep) = self.short_write(bytes.len()) {
            self.inner.write(path, &bytes[..keep])?;
            self.injected.fetch_add(1, Ordering::SeqCst);
            return Err(Error::new(
                ErrorKind::WriteZero,
                format!(
                    "injected short write ({keep}/{} bytes) at vfs op {op} (`{path}`)",
                    bytes.len()
                ),
            ));
        }
        self.inner.write(path, bytes)
    }

    fn append(&self, path: &str, bytes: &[u8]) -> IoResult<()> {
        let op = self.gate(path)?;
        if let Some(keep) = self.short_write(bytes.len()) {
            self.inner.append(path, &bytes[..keep])?;
            self.injected.fetch_add(1, Ordering::SeqCst);
            return Err(Error::new(
                ErrorKind::WriteZero,
                format!(
                    "injected short append ({keep}/{} bytes) at vfs op {op} (`{path}`)",
                    bytes.len()
                ),
            ));
        }
        self.inner.append(path, bytes)
    }

    fn rename(&self, from: &str, to: &str) -> IoResult<()> {
        self.gate(from)?;
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &str) -> IoResult<()> {
        self.gate(path)?;
        self.inner.remove(path)
    }

    fn exists(&self, path: &str) -> IoResult<bool> {
        self.gate(path)?;
        self.inner.exists(path)
    }

    fn len(&self, path: &str) -> IoResult<u64> {
        self.gate(path)?;
        self.inner.len(path)
    }

    fn list(&self, dir: &str) -> IoResult<Vec<String>> {
        self.gate(dir)?;
        self.inner.list(dir)
    }

    fn create_dir_all(&self, path: &str) -> IoResult<()> {
        self.gate(path)?;
        self.inner.create_dir_all(path)
    }

    fn sync_file(&self, path: &str) -> IoResult<()> {
        self.gate(path)?;
        self.inner.sync_file(path)
    }

    fn sync_dir(&self, dir: &str) -> IoResult<()> {
        self.gate(dir)?;
        self.inner.sync_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mem_vfs_round_trips_and_lists_sorted() {
        let v = MemVfs::new();
        v.create_dir_all("root/sub").unwrap();
        v.write("root/b.txt", b"bee").unwrap();
        v.write("root/a.txt", b"ay").unwrap();
        v.append("root/a.txt", b"!").unwrap();
        assert_eq!(v.read("root/a.txt").unwrap(), b"ay!");
        assert_eq!(v.len("root/b.txt").unwrap(), 3);
        assert!(v.exists("root/b.txt").unwrap());
        assert!(!v.exists("root/c.txt").unwrap());
        assert_eq!(v.list("root").unwrap(), vec!["a.txt", "b.txt"]);
        v.rename("root/b.txt", "root/c.txt").unwrap();
        assert_eq!(v.list("root").unwrap(), vec!["a.txt", "c.txt"]);
        v.remove("root/c.txt").unwrap();
        assert!(v.read("root/c.txt").is_err());
        assert!(v.write("nodir/x", b"x").is_err());
    }

    #[test]
    fn unsynced_write_is_torn_or_lost_at_crash() {
        // Never synced, name never synced: the file may vanish or keep
        // only a prefix — but never bytes that were not written.
        for seed in 0..32 {
            let v = MemVfs::new();
            v.create_dir_all("r").unwrap();
            v.write("r/f", b"0123456789").unwrap();
            v.crash(seed);
            match v.read("r/f") {
                Err(_) => {}
                Ok(bytes) => assert!(b"0123456789".starts_with(&bytes[..])),
            }
        }
    }

    #[test]
    fn synced_content_and_name_survive_any_crash() {
        for seed in 0..32 {
            let v = MemVfs::new();
            v.create_dir_all("r").unwrap();
            v.write("r/f", b"durable").unwrap();
            v.sync_file("r/f").unwrap();
            v.sync_dir("r").unwrap();
            v.append("r/f", b"-torn-suffix").unwrap();
            v.crash(seed);
            let bytes = v.read("r/f").unwrap();
            assert!(bytes.starts_with(b"durable"), "durable base lost");
            assert!(b"durable-torn-suffix".starts_with(&bytes[..]));
        }
    }

    #[test]
    fn crash_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let v = MemVfs::new();
            v.create_dir_all("r").unwrap();
            v.write("r/a", b"aaaa").unwrap();
            v.sync_file("r/a").unwrap();
            v.write("r/b", b"bbbb").unwrap();
            v.append("r/a", b"AAAA").unwrap();
            v.rename("r/b", "r/c").unwrap();
            v.crash(seed);
            let mut dump = Vec::new();
            for p in v.paths() {
                dump.push((p.clone(), v.read(&p).unwrap()));
            }
            dump
        };
        assert_eq!(run(7), run(7));
        let mut seen = BTreeSet::new();
        for seed in 0..16 {
            seen.insert(format!("{:?}", run(seed)));
        }
        assert!(seen.len() > 1, "crash fold ignores its seed");
    }

    #[test]
    fn unsynced_rename_may_roll_back_but_synced_rename_holds() {
        let mut rolled_back = false;
        let mut committed = false;
        for seed in 0..64 {
            let v = MemVfs::new();
            v.create_dir_all("r").unwrap();
            v.write("r/old", b"content").unwrap();
            v.sync_file("r/old").unwrap();
            v.sync_dir("r").unwrap();
            v.rename("r/old", "r/new").unwrap();
            v.crash(seed);
            let old = v.exists("r/old").unwrap();
            let new = v.exists("r/new").unwrap();
            rolled_back |= old;
            committed |= new;
            assert!(
                old || new,
                "a durable file vanished entirely at an unsynced rename"
            );
        }
        assert!(rolled_back, "rename rollback never exercised");
        assert!(committed, "rename commit never exercised");

        // With sync_dir, the rename always holds.
        for seed in 0..16 {
            let v = MemVfs::new();
            v.create_dir_all("r").unwrap();
            v.write("r/old", b"content").unwrap();
            v.sync_file("r/old").unwrap();
            v.sync_dir("r").unwrap();
            v.rename("r/old", "r/new").unwrap();
            v.sync_dir("r").unwrap();
            v.crash(seed);
            assert!(!v.exists("r/old").unwrap());
            assert_eq!(v.read("r/new").unwrap(), b"content");
        }
    }

    #[test]
    fn rename_over_durable_target_keeps_old_or_new_never_a_mix() {
        for seed in 0..64 {
            let v = MemVfs::new();
            v.create_dir_all("r").unwrap();
            v.write("r/t", b"old-target").unwrap();
            v.sync_file("r/t").unwrap();
            v.sync_dir("r").unwrap();
            v.write("r/t.tmp", b"new-content").unwrap();
            v.sync_file("r/t.tmp").unwrap();
            v.rename("r/t.tmp", "r/t").unwrap();
            v.crash(seed);
            let bytes = v.read("r/t").unwrap();
            assert!(
                bytes == b"old-target" || bytes == b"new-content",
                "torn rename produced a content mix: {bytes:?}"
            );
        }
    }

    #[test]
    fn fault_vfs_counts_ops_and_crashes_at_the_chosen_index() {
        let disk = Arc::new(MemVfs::new());
        let v = FaultVfs::new(
            Arc::clone(&disk),
            FaultPlan {
                seed: 3,
                crash_at_op: Some(2),
                ..FaultPlan::default()
            },
        );
        v.create_dir_all("r").unwrap(); // op 0
        v.write("r/a", b"x").unwrap(); // op 1
        let err = v.write("r/b", b"y").unwrap_err(); // op 2: crash
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
        assert!(v.crashed());
        // Everything after the crash fails too.
        assert!(v.read("r/a").is_err());
        assert_eq!(v.ops(), 4);
        // The disk survives with the folded state; op 1 was never
        // synced so `r/a` is at best a prefix.
        if let Ok(bytes) = disk.read("r/a") {
            assert!(b"x".starts_with(&bytes[..]));
        }
    }

    #[test]
    fn fault_vfs_transient_errors_are_seeded_and_counted() {
        let run = |seed: u64| {
            let disk = Arc::new(MemVfs::new());
            let v = FaultVfs::new(
                Arc::clone(&disk),
                FaultPlan {
                    seed,
                    error_permille: 400,
                    ..FaultPlan::default()
                },
            );
            let mut outcomes = Vec::new();
            v.create_dir_all("r").ok();
            for i in 0..50 {
                outcomes.push(v.write("r/f", format!("{i}").as_bytes()).is_ok());
            }
            (outcomes, v.injected_errors())
        };
        let (a, injected) = run(11);
        let (b, _) = run(11);
        assert_eq!(a, b, "fault schedule not deterministic");
        assert!(injected > 0, "no transient faults at 400 permille");
        assert!(injected < 51, "every op faulted at 400 permille");
    }

    #[test]
    fn fault_vfs_short_writes_leave_a_prefix() {
        let disk = Arc::new(MemVfs::new());
        let v = FaultVfs::new(
            Arc::clone(&disk),
            FaultPlan {
                seed: 9,
                short_write_permille: 1000,
                ..FaultPlan::default()
            },
        );
        v.create_dir_all("r").unwrap();
        let err = v.write("r/f", b"full-content").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
        let on_disk = disk.read("r/f").unwrap();
        assert!(on_disk.len() < b"full-content".len());
        assert!(b"full-content".starts_with(&on_disk[..]));
    }
}
