//! Injectable file I/O: the seam between the durability layer and the
//! operating system.
//!
//! Everything the WAL, checkpointer, and recovery code do to disk goes
//! through the [`Vfs`] trait, which has two implementations:
//!
//! * [`StdVfs`] — the real thing, a thin veneer over `std::fs` with
//!   `fsync` mapped to `File::sync_all` and a best-effort directory sync
//!   after renames.
//! * [`FaultVfs`] — a deterministic in-memory filesystem that models the
//!   *durability* semantics of a real one: every file tracks which prefix
//!   has been fsync'ed, and a simulated crash throws away everything
//!   after that watermark (optionally keeping a configurable prefix of
//!   the unsynced tail, which is how torn writes at byte offsets are
//!   produced). Named [crash points](Vfs::crash_point), failing fsyncs,
//!   and reboot are all scriptable, so recovery tests can iterate a
//!   crash-point matrix instead of hoping `kill -9` lands somewhere
//!   interesting.
//!
//! The durability code sprinkles `vfs.crash_point("wal.append")?` calls
//! at every point where a crash is interesting; on [`StdVfs`] these are
//! free no-ops, on [`FaultVfs`] they are the trigger mechanism.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::{HyError, Result};

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// A writable file handle obtained from a [`Vfs`].
pub trait VfsFile: Send {
    /// Append `data` to the file. On a real filesystem this lands in the
    /// page cache; it is *not* durable until [`VfsFile::sync`] returns.
    fn write_all(&mut self, data: &[u8]) -> Result<()>;

    /// Flush and `fsync`: on success every previously written byte of
    /// this file survives a crash.
    fn sync(&mut self) -> Result<()>;
}

/// The filesystem operations the durability layer needs, small enough to
/// fake deterministically.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Create the directory (and parents) if absent.
    fn create_dir_all(&self, dir: &Path) -> Result<()>;

    /// Create `path`, truncating any existing file.
    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>>;

    /// Open `path` for appending, creating it if absent.
    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>>;

    /// Read the entire file.
    fn read(&self, path: &Path) -> Result<Vec<u8>>;

    /// Read `len` bytes starting at `offset`. Errors if the range runs
    /// past the end of the file — segment readers use this to pull one
    /// block without touching the rest of the file.
    fn read_range(&self, path: &Path, offset: u64, len: u64) -> Result<Vec<u8>> {
        let data = self.read(path)?;
        let start = usize::try_from(offset)
            .map_err(|_| HyError::Storage(format!("read_range: bad offset {offset}")))?;
        let n = usize::try_from(len)
            .map_err(|_| HyError::Storage(format!("read_range: bad len {len}")))?;
        let end = start
            .checked_add(n)
            .filter(|&e| e <= data.len())
            .ok_or_else(|| {
                HyError::Storage(format!(
                    "read_range: [{offset}, {offset}+{len}) past end of {} ({} bytes)",
                    path.display(),
                    data.len()
                ))
            })?;
        Ok(data[start..end].to_vec())
    }

    /// File names (not full paths) of the direct children of `dir`.
    /// Missing directories list as empty. Used by segment garbage
    /// collection to find orphaned files.
    fn list_dir(&self, dir: &Path) -> Result<Vec<String>> {
        let _ = dir;
        Ok(Vec::new())
    }

    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;

    /// Atomically replace `to` with `from` (the checkpoint publish step).
    /// The new entry is durable once the caller's [`Vfs::sync_dir`] of the
    /// directory returns, not before.
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;

    /// Delete a file.
    fn remove(&self, path: &Path) -> Result<()>;

    /// Cut the file down to `len` bytes (used to drop a torn WAL tail and
    /// to reset the WAL after a checkpoint).
    fn truncate(&self, path: &Path, len: u64) -> Result<()>;

    /// File size in bytes.
    fn len(&self, path: &Path) -> Result<u64>;

    /// Fsync a *directory*: make its entries (file creations, renames)
    /// durable. Creating and fsyncing a file is not enough on POSIX — a
    /// power loss can still lose the directory entry, and the file with
    /// it. Best-effort by default (in-memory backends model directory
    /// entries as always durable).
    fn sync_dir(&self, dir: &Path) -> Result<()> {
        let _ = dir;
        Ok(())
    }

    /// A named potential-crash location. Real backends do nothing;
    /// [`FaultVfs`] may simulate a crash here, after which every
    /// subsequent operation fails until [`FaultVfs::reboot`].
    fn crash_point(&self, name: &str) -> Result<()> {
        let _ = name;
        Ok(())
    }
}

fn io_err(op: &str, path: &Path, e: std::io::Error) -> HyError {
    // ENOSPC is its own typed error so the durability layer can flip the
    // node into read-only degraded mode instead of treating a full disk
    // like corruption.
    if e.raw_os_error() == Some(28) || e.kind() == std::io::ErrorKind::StorageFull {
        return HyError::DiskFull(format!("{op} {} failed: {e}", path.display()));
    }
    HyError::Storage(format!("{op} {} failed: {e}", path.display()))
}

fn disk_full_err(op: &str, path: &Path) -> HyError {
    HyError::DiskFull(format!(
        "{op} {} failed: no space left on device (injected)",
        path.display()
    ))
}

// ---------------------------------------------------------------------------
// StdVfs — the real filesystem
// ---------------------------------------------------------------------------

/// [`Vfs`] backed by `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

struct StdFile {
    file: std::fs::File,
    path: PathBuf,
}

impl VfsFile for StdFile {
    fn write_all(&mut self, data: &[u8]) -> Result<()> {
        self.file
            .write_all(data)
            .map_err(|e| io_err("write", &self.path, e))
    }

    fn sync(&mut self) -> Result<()> {
        self.file
            .sync_all()
            .map_err(|e| io_err("fsync", &self.path, e))
    }
}

/// Fill `buf` from byte `offset` of `file`: `pread` where the platform
/// has it, seek + read elsewhere.
#[cfg(unix)]
fn read_exact_at(file: &std::fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(mut file: &std::fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read as _, Seek as _, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

impl Vfs for StdVfs {
    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create_dir_all", dir, e))
    }

    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        let file = std::fs::File::create(path).map_err(|e| io_err("create", path, e))?;
        Ok(Box::new(StdFile {
            file,
            path: path.to_owned(),
        }))
    }

    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| io_err("open_append", path, e))?;
        Ok(Box::new(StdFile {
            file,
            path: path.to_owned(),
        }))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        std::fs::read(path).map_err(|e| io_err("read", path, e))
    }

    fn read_range(&self, path: &Path, offset: u64, len: u64) -> Result<Vec<u8>> {
        // A block load is `open` + one positioned read; a range past the
        // end shows up as the short read.
        let file = std::fs::File::open(path).map_err(|e| io_err("open", path, e))?;
        let n = usize::try_from(len)
            .map_err(|_| HyError::Storage(format!("read_range: bad len {len}")))?;
        let mut buf = vec![0u8; n];
        match read_exact_at(&file, &mut buf, offset) {
            Ok(()) => Ok(buf),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                Err(HyError::Storage(format!(
                    "read_range: [{offset}, {offset}+{len}) past end of {}",
                    path.display()
                )))
            }
            Err(e) => Err(io_err("read_range", path, e)),
        }
    }

    fn list_dir(&self, dir: &Path) -> Result<Vec<String>> {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err("read_dir", dir, e)),
        };
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read_dir", dir, e))?;
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        std::fs::rename(from, to).map_err(|e| io_err("rename", from, e))
    }

    fn sync_dir(&self, dir: &Path) -> Result<()> {
        // Best-effort: some platforms refuse to open directories.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        std::fs::remove_file(path).map_err(|e| io_err("remove", path, e))
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("open for truncate", path, e))?;
        file.set_len(len).map_err(|e| io_err("truncate", path, e))?;
        file.sync_all().map_err(|e| io_err("fsync", path, e))
    }

    fn len(&self, path: &Path) -> Result<u64> {
        std::fs::metadata(path)
            .map(|m| m.len())
            .map_err(|e| io_err("stat", path, e))
    }
}

// ---------------------------------------------------------------------------
// FaultVfs — deterministic fault injection
// ---------------------------------------------------------------------------

/// What happens to a file's unsynced tail when a simulated crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepUnsynced {
    /// Strict power-loss model: everything past the fsync watermark is
    /// lost. The default.
    Nothing,
    /// Process-kill model (`kill -9`): the page cache survives, so
    /// written-but-unsynced bytes are all still there after reboot.
    All,
    /// Torn write: each file keeps at most this many bytes of its
    /// unsynced tail — a write that was only partially persisted.
    Prefix(usize),
}

/// A scripted crash: fire at the `hit`-th arrival (1-based) at the named
/// crash point, treating unsynced data per `keep`.
#[derive(Debug, Clone)]
pub struct CrashSpec {
    /// Crash point name (see the `CRASH_POINTS` list in `hylite-storage`).
    pub point: String,
    /// Which arrival at the point triggers the crash (1 = first).
    pub hit: usize,
    /// Unsynced-tail policy at crash time.
    pub keep: KeepUnsynced,
}

impl CrashSpec {
    /// Crash at the first arrival at `point`, strict power-loss model.
    pub fn first(point: impl Into<String>) -> CrashSpec {
        CrashSpec {
            point: point.into(),
            hit: 1,
            keep: KeepUnsynced::Nothing,
        }
    }

    /// Same, but with an explicit unsynced-tail policy.
    pub fn first_keeping(point: impl Into<String>, keep: KeepUnsynced) -> CrashSpec {
        CrashSpec {
            point: point.into(),
            hit: 1,
            keep,
        }
    }
}

#[derive(Debug, Default)]
struct MemFile {
    content: Vec<u8>,
    /// Bytes `[0, synced_len)` survive a crash.
    synced_len: usize,
}

#[derive(Debug, Default)]
struct FaultState {
    files: BTreeMap<PathBuf, MemFile>,
    crash: Option<CrashSpec>,
    /// Fail the next N fsyncs (without advancing the durability
    /// watermark).
    fail_fsyncs: usize,
    /// Arrival counters per crash point name.
    hits: BTreeMap<String, usize>,
    crashed: bool,
    /// Simulated ENOSPC: while set, anything that grows the filesystem
    /// (create, write, fsync) fails with [`HyError::DiskFull`], while
    /// reads, truncates, and removes keep working — matching a real full
    /// disk, where space can still be *freed*.
    disk_full: bool,
}

impl FaultState {
    fn check_alive(&self) -> Result<()> {
        if self.crashed {
            return Err(HyError::Storage(
                "simulated crash: filesystem is down until reboot".into(),
            ));
        }
        Ok(())
    }

    fn apply_crash(&mut self, keep: KeepUnsynced) {
        for file in self.files.values_mut() {
            let keep_len = match keep {
                KeepUnsynced::Nothing => file.synced_len,
                KeepUnsynced::All => file.content.len(),
                KeepUnsynced::Prefix(n) => (file.synced_len
                    + n.min(file.content.len() - file.synced_len))
                .min(file.content.len()),
            };
            file.content.truncate(keep_len);
            file.synced_len = file.content.len().min(file.synced_len);
        }
        self.crashed = true;
    }
}

/// Deterministic in-memory [`Vfs`] with scriptable crashes, torn writes,
/// and failing fsyncs. Clone-cheap (`Arc` inside): hand one instance to
/// the database and keep a handle in the test to script faults and
/// reboot.
#[derive(Debug, Clone, Default)]
pub struct FaultVfs {
    state: Arc<Mutex<FaultState>>,
}

impl FaultVfs {
    /// A fresh, empty, fault-free in-memory filesystem.
    pub fn new() -> FaultVfs {
        FaultVfs::default()
    }

    /// Arm a crash. Replaces any previously armed crash and resets the
    /// hit counters, so `spec.hit` counts from *now* — `CrashSpec::first`
    /// always means "the next time execution reaches this point".
    pub fn arm_crash(&self, spec: CrashSpec) {
        let mut s = self.state.lock().unwrap();
        s.crash = Some(spec);
        s.hits.clear();
    }

    /// Fail the next `n` fsyncs with an I/O error (data stays unsynced).
    pub fn fail_fsyncs(&self, n: usize) {
        self.state.lock().unwrap().fail_fsyncs = n;
    }

    /// Toggle simulated disk exhaustion. While on, `create`, `write_all`,
    /// and `sync` fail with [`HyError::DiskFull`]; reads, truncates, and
    /// removes still succeed (freeing space works on a full disk).
    pub fn set_disk_full(&self, full: bool) {
        self.state.lock().unwrap().disk_full = full;
    }

    /// Whether simulated disk exhaustion is currently on.
    pub fn disk_full(&self) -> bool {
        self.state.lock().unwrap().disk_full
    }

    /// Whether a scripted crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Come back from a crash: operations work again, scripted faults and
    /// hit counters are cleared, durable file contents are untouched.
    pub fn reboot(&self) {
        let mut s = self.state.lock().unwrap();
        s.crashed = false;
        s.crash = None;
        s.fail_fsyncs = 0;
        s.hits.clear();
    }

    /// How many times the named crash point has been passed.
    pub fn hits(&self, point: &str) -> usize {
        self.state
            .lock()
            .unwrap()
            .hits
            .get(point)
            .copied()
            .unwrap_or(0)
    }

    /// Current size of a file (test inspection).
    pub fn file_len(&self, path: &Path) -> Option<usize> {
        self.state
            .lock()
            .unwrap()
            .files
            .get(path)
            .map(|f| f.content.len())
    }

    /// Size of a file's fsync'ed (crash-surviving) prefix.
    pub fn durable_len(&self, path: &Path) -> Option<usize> {
        self.state
            .lock()
            .unwrap()
            .files
            .get(path)
            .map(|f| f.synced_len)
    }

    /// Flip bits in a file at the given byte offset (corruption testing;
    /// bypasses the crash model entirely).
    pub fn corrupt(&self, path: &Path, offset: usize, xor_mask: u8) -> Result<()> {
        let mut s = self.state.lock().unwrap();
        let file = s
            .files
            .get_mut(path)
            .ok_or_else(|| HyError::Storage(format!("corrupt: no file {}", path.display())))?;
        if offset >= file.content.len() {
            return Err(HyError::Storage(format!(
                "corrupt: offset {offset} past end of {} ({} bytes)",
                path.display(),
                file.content.len()
            )));
        }
        file.content[offset] ^= xor_mask;
        Ok(())
    }
}

/// Write handle into a [`FaultVfs`] file.
#[derive(Debug)]
struct FaultFile {
    state: Arc<Mutex<FaultState>>,
    path: PathBuf,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, data: &[u8]) -> Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_alive()?;
        if s.disk_full {
            return Err(disk_full_err("write", &self.path));
        }
        match s.files.get_mut(&self.path) {
            Some(f) => {
                f.content.extend_from_slice(data);
                Ok(())
            }
            None => Err(HyError::Storage(format!(
                "write: file {} was removed",
                self.path.display()
            ))),
        }
    }

    fn sync(&mut self) -> Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_alive()?;
        if s.disk_full {
            return Err(disk_full_err("fsync", &self.path));
        }
        if s.fail_fsyncs > 0 {
            s.fail_fsyncs -= 1;
            return Err(HyError::Storage(format!(
                "injected fsync failure on {}",
                self.path.display()
            )));
        }
        match s.files.get_mut(&self.path) {
            Some(f) => {
                f.synced_len = f.content.len();
                Ok(())
            }
            None => Err(HyError::Storage(format!(
                "fsync: file {} was removed",
                self.path.display()
            ))),
        }
    }
}

impl Vfs for FaultVfs {
    fn create_dir_all(&self, _dir: &Path) -> Result<()> {
        self.state.lock().unwrap().check_alive()
    }

    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        let mut s = self.state.lock().unwrap();
        s.check_alive()?;
        if s.disk_full {
            return Err(disk_full_err("create", path));
        }
        s.files.insert(path.to_owned(), MemFile::default());
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            path: path.to_owned(),
        }))
    }

    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        let mut s = self.state.lock().unwrap();
        s.check_alive()?;
        s.files.entry(path.to_owned()).or_default();
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            path: path.to_owned(),
        }))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let s = self.state.lock().unwrap();
        s.check_alive()?;
        s.files
            .get(path)
            .map(|f| f.content.clone())
            .ok_or_else(|| HyError::Storage(format!("read: no file {}", path.display())))
    }

    fn read_range(&self, path: &Path, offset: u64, len: u64) -> Result<Vec<u8>> {
        let s = self.state.lock().unwrap();
        s.check_alive()?;
        let file = s
            .files
            .get(path)
            .ok_or_else(|| HyError::Storage(format!("read: no file {}", path.display())))?;
        let start = offset as usize;
        let end = start
            .checked_add(len as usize)
            .filter(|&e| e <= file.content.len())
            .ok_or_else(|| {
                HyError::Storage(format!(
                    "read_range: [{offset}, {offset}+{len}) past end of {} ({} bytes)",
                    path.display(),
                    file.content.len()
                ))
            })?;
        Ok(file.content[start..end].to_vec())
    }

    fn list_dir(&self, dir: &Path) -> Result<Vec<String>> {
        let s = self.state.lock().unwrap();
        s.check_alive()?;
        let mut names = Vec::new();
        for path in s.files.keys() {
            if path.parent() == Some(dir) {
                if let Some(name) = path.file_name() {
                    names.push(name.to_string_lossy().into_owned());
                }
            }
        }
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        let s = self.state.lock().unwrap();
        !s.crashed && s.files.contains_key(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_alive()?;
        let file = s
            .files
            .remove(from)
            .ok_or_else(|| HyError::Storage(format!("rename: no file {}", from.display())))?;
        // Modeled as atomic and immediately durable; on a disk the entry is
        // durable at the caller's `sync_dir`, which `files::publish_atomic`
        // issues before it reports the publish.
        s.files.insert(to.to_owned(), file);
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_alive()?;
        s.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| HyError::Storage(format!("remove: no file {}", path.display())))
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_alive()?;
        let file = s
            .files
            .get_mut(path)
            .ok_or_else(|| HyError::Storage(format!("truncate: no file {}", path.display())))?;
        file.content.truncate(len as usize);
        file.synced_len = file.synced_len.min(file.content.len());
        Ok(())
    }

    fn len(&self, path: &Path) -> Result<u64> {
        let s = self.state.lock().unwrap();
        s.check_alive()?;
        s.files
            .get(path)
            .map(|f| f.content.len() as u64)
            .ok_or_else(|| HyError::Storage(format!("stat: no file {}", path.display())))
    }

    fn sync_dir(&self, _dir: &Path) -> Result<()> {
        // Directory entries are modeled as always durable; only the
        // crashed state matters.
        self.state.lock().unwrap().check_alive()
    }

    fn crash_point(&self, name: &str) -> Result<()> {
        let mut s = self.state.lock().unwrap();
        s.check_alive()?;
        let count = s.hits.entry(name.to_owned()).or_insert(0);
        *count += 1;
        let count = *count;
        let fire = s
            .crash
            .as_ref()
            .is_some_and(|c| c.point == name && c.hit == count);
        if fire {
            let keep = s.crash.as_ref().map(|c| c.keep).unwrap();
            s.apply_crash(keep);
            return Err(HyError::Storage(format!("simulated crash at '{name}'")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn unsynced_data_dies_in_a_crash() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("wal")).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync().unwrap();
        f.write_all(b"-volatile").unwrap();
        vfs.arm_crash(CrashSpec::first("boom"));
        assert!(vfs.crash_point("boom").is_err());
        assert!(vfs.crashed());
        // Everything errors until reboot.
        assert!(vfs.read(&p("wal")).is_err());
        vfs.reboot();
        assert_eq!(vfs.read(&p("wal")).unwrap(), b"durable");
    }

    #[test]
    fn torn_write_keeps_a_prefix() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("wal")).unwrap();
        f.write_all(b"AAAA").unwrap();
        f.sync().unwrap();
        f.write_all(b"BBBBBBBB").unwrap();
        vfs.arm_crash(CrashSpec::first_keeping("tear", KeepUnsynced::Prefix(3)));
        assert!(vfs.crash_point("tear").is_err());
        vfs.reboot();
        assert_eq!(vfs.read(&p("wal")).unwrap(), b"AAAABBB");
    }

    #[test]
    fn kill_dash_nine_keeps_page_cache() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("wal")).unwrap();
        f.write_all(b"unsynced").unwrap();
        vfs.arm_crash(CrashSpec::first_keeping("kill", KeepUnsynced::All));
        assert!(vfs.crash_point("kill").is_err());
        vfs.reboot();
        assert_eq!(vfs.read(&p("wal")).unwrap(), b"unsynced");
    }

    #[test]
    fn crash_fires_on_the_nth_hit() {
        let vfs = FaultVfs::new();
        vfs.arm_crash(CrashSpec {
            point: "x".into(),
            hit: 3,
            keep: KeepUnsynced::Nothing,
        });
        assert!(vfs.crash_point("x").is_ok());
        assert!(vfs.crash_point("y").is_ok(), "other points don't count");
        assert!(vfs.crash_point("x").is_ok());
        assert!(vfs.crash_point("x").is_err());
        assert_eq!(vfs.hits("x"), 3);
    }

    #[test]
    fn failing_fsync_does_not_advance_watermark() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("wal")).unwrap();
        f.write_all(b"data").unwrap();
        vfs.fail_fsyncs(1);
        assert!(f.sync().is_err());
        assert_eq!(vfs.durable_len(&p("wal")), Some(0));
        // The next fsync works.
        f.sync().unwrap();
        assert_eq!(vfs.durable_len(&p("wal")), Some(4));
    }

    #[test]
    fn disk_full_blocks_growth_but_not_frees() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("wal")).unwrap();
        f.write_all(b"settled").unwrap();
        f.sync().unwrap();
        vfs.set_disk_full(true);
        // Growth paths fail with the typed DiskFull error...
        assert!(matches!(f.write_all(b"more"), Err(HyError::DiskFull(_))));
        assert!(matches!(f.sync(), Err(HyError::DiskFull(_))));
        assert!(matches!(vfs.create(&p("seg")), Err(HyError::DiskFull(_))));
        // ...while reads, truncates, and removes still work.
        assert_eq!(vfs.read(&p("wal")).unwrap(), b"settled");
        vfs.truncate(&p("wal"), 3).unwrap();
        assert_eq!(vfs.read(&p("wal")).unwrap(), b"set");
        vfs.set_disk_full(false);
        f.write_all(b"tled").unwrap();
        f.sync().unwrap();
        assert_eq!(vfs.read(&p("wal")).unwrap(), b"settled");
    }

    #[test]
    fn rename_is_atomic_and_durable() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("tmp")).unwrap();
        f.write_all(b"ckpt").unwrap();
        f.sync().unwrap();
        vfs.rename(&p("tmp"), &p("final")).unwrap();
        assert!(!vfs.exists(&p("tmp")));
        assert_eq!(vfs.read(&p("final")).unwrap(), b"ckpt");
    }

    #[test]
    fn read_range_and_list_dir() {
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&p("segments/seg_1")).unwrap();
        f.write_all(b"hello world").unwrap();
        drop(f);
        vfs.create(&p("segments/seg_2")).unwrap();
        vfs.create(&p("other/seg_3")).unwrap();
        assert_eq!(
            vfs.read_range(&p("segments/seg_1"), 6, 5).unwrap(),
            b"world"
        );
        assert!(vfs.read_range(&p("segments/seg_1"), 6, 6).is_err());
        assert!(vfs.read_range(&p("segments/seg_1"), u64::MAX, 1).is_err());
        let names = vfs.list_dir(&p("segments")).unwrap();
        assert_eq!(names, vec!["seg_1".to_string(), "seg_2".to_string()]);
        assert!(vfs.list_dir(&p("missing")).unwrap().is_empty());
    }

    #[test]
    fn std_vfs_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hylite-vfs-test-{}", std::process::id()));
        let vfs = StdVfs;
        vfs.create_dir_all(&dir).unwrap();
        let file = dir.join("probe");
        let mut f = vfs.create(&file).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(vfs.read(&file).unwrap(), b"hello");
        assert_eq!(vfs.len(&file).unwrap(), 5);
        assert_eq!(vfs.read_range(&file, 1, 3).unwrap(), b"ell");
        assert!(vfs.read_range(&file, 4, 2).is_err());
        assert_eq!(vfs.list_dir(&dir).unwrap(), vec!["probe".to_string()]);
        vfs.truncate(&file, 2).unwrap();
        assert_eq!(vfs.read(&file).unwrap(), b"he");
        let renamed = dir.join("probe2");
        vfs.rename(&file, &renamed).unwrap();
        assert!(vfs.exists(&renamed) && !vfs.exists(&file));
        vfs.remove(&renamed).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
