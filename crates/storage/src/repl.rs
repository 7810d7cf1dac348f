//! Replication identity: the persisted role + epoch of a data directory.
//!
//! Replication needs a cheap way to answer "is this replica's history a
//! prefix of this primary's history?". CRCs catch torn frames and the
//! LSN-gap check catches holes, but neither catches the *fork* case: a
//! primary crashes losing its buffered WAL tail, restarts, and re-issues
//! the same LSNs for different commits. A replica that had applied the
//! lost tail would then resume mid-fork and silently diverge.
//!
//! The guard is an **epoch**: a random nonzero token minted every time a
//! data directory is opened as a primary. The epoch identifies one
//! *incarnation* of a primary's history. A replica remembers the epoch it
//! bootstrapped from and presents it when it reconnects; any mismatch —
//! including the conservative false positives from a clean primary
//! restart — forces a re-bootstrap from a fresh checkpoint instead of a
//! resume. Epochs are compared for equality only, never ordered.
//!
//! Role is persisted alongside the epoch as a fence against accidental
//! split-brain: a directory last opened as a replica refuses to open as a
//! primary unless promotion is requested explicitly.
//!
//! On-disk layout of `replstate.hylite` (version 2):
//!
//! ```text
//! [u32 magic "HYRP"] [u32 version] [u8 role] [u64 epoch] [u32 crc32]
//! ```
//!
//! — [`ReplState`] sealed in the shared `[magic][version][record][crc32]`
//! envelope ([`crate::files::seal_framed`]), the CRC covering everything
//! before it, and published with [`crate::files::publish_atomic`] like
//! the checkpoint, so a crash mid-write leaves the previous state intact.
//! (Version 1 had its own envelope, whose CRC covered only role + epoch;
//! it never shipped, and this build refuses it.)

use std::path::Path;
use std::time::SystemTime;

use hylite_common::faultfs::Vfs;
use hylite_common::hash::splitmix64;
use hylite_common::{records, HyError, Result};

use crate::files::{open_framed, publish_atomic, seal_framed, Sealed, Signature};

/// File name of the replication state inside the data directory.
pub const REPL_STATE_FILE: &str = "replstate.hylite";

records! {
    /// Whether a data directory serves writes or follows a primary.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ReplRole {
        /// Accepts writes and streams its WAL to replicas.
        1 Primary,
        /// Read-only; applies a primary's WAL stream.
        2 Replica,
    } else other => HyError::Storage(format!("replication state has unknown role tag {other}"));
}

records! {
    /// The persisted replication identity of a data directory.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ReplState {
        /// Last role the directory was opened under.
        pub role: ReplRole,
        /// The primary-incarnation epoch this directory's history belongs
        /// to. `0` on a replica means "never bootstrapped" and always forces
        /// a snapshot.
        pub epoch: u64,
    }
}

impl Sealed for ReplState {
    const SIGNATURE: Signature = Signature::new(b"HYRP", 2, "replication state");
}

/// Mint a fresh nonzero epoch, mixing wall-clock entropy with the
/// previous epoch so even two opens in the same clock tick differ.
pub fn next_epoch(prev: u64) -> u64 {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut e = splitmix64(nanos ^ prev.rotate_left(32));
    if e == 0 {
        e = 1; // 0 is reserved for "never bootstrapped"
    }
    e
}

/// Load the replication state of a data directory, `None` if the
/// directory predates replication (or is fresh). A present-but-corrupt
/// state file is a hard error: guessing a role or epoch could serve
/// forked data.
pub fn load_repl_state(vfs: &dyn Vfs, dir: &Path) -> Result<Option<ReplState>> {
    let path = dir.join(REPL_STATE_FILE);
    if !vfs.exists(&path) {
        return Ok(None);
    }
    open_framed(&vfs.read(&path)?).map(Some)
}

/// Durably persist the replication state (see [`publish_atomic`]).
pub fn store_repl_state(vfs: &dyn Vfs, dir: &Path, state: ReplState) -> Result<()> {
    publish_atomic(vfs, dir, REPL_STATE_FILE, &seal_framed(&state), [None; 3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::FaultVfs;
    use std::path::PathBuf;

    #[test]
    fn state_roundtrips() {
        let fault = FaultVfs::new();
        let dir = PathBuf::from("data");
        fault.create_dir_all(&dir).unwrap();
        assert_eq!(load_repl_state(&fault, &dir).unwrap(), None);
        let state = ReplState {
            role: ReplRole::Replica,
            epoch: 0xABCD_EF01_2345_6789,
        };
        store_repl_state(&fault, &dir, state).unwrap();
        assert_eq!(load_repl_state(&fault, &dir).unwrap(), Some(state));
        // Overwrite with a new role/epoch.
        let promoted = ReplState {
            role: ReplRole::Primary,
            epoch: 7,
        };
        store_repl_state(&fault, &dir, promoted).unwrap();
        assert_eq!(load_repl_state(&fault, &dir).unwrap(), Some(promoted));
    }

    #[test]
    fn corrupt_state_is_fatal() {
        let fault = FaultVfs::new();
        let dir = PathBuf::from("data");
        fault.create_dir_all(&dir).unwrap();
        store_repl_state(
            &fault,
            &dir,
            ReplState {
                role: ReplRole::Primary,
                epoch: 42,
            },
        )
        .unwrap();
        fault.corrupt(&dir.join(REPL_STATE_FILE), 12, 0x10).unwrap();
        assert!(load_repl_state(&fault, &dir).is_err());
    }

    #[test]
    fn epochs_are_nonzero_and_vary() {
        let a = next_epoch(0);
        let b = next_epoch(a);
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b, "mixing in the previous epoch breaks clock ties");
    }
}
