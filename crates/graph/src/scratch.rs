//! Unique scratch directories: one per caller, removed on drop.
//!
//! Tests and replay harnesses that write files (journals, snapshots, edge
//! lists) run concurrently inside one test process. A directory keyed on
//! something two callers can share — a fixed name, a seed, the process id —
//! lets them delete each other's files mid-run. [`ScratchDir`] joins the
//! process id with a process-wide counter, so no two live directories of
//! one process, nor of two processes, collide.
//!
//! ```
//! use dspc_graph::scratch::ScratchDir;
//!
//! let a = ScratchDir::new("doc").unwrap();
//! let b = ScratchDir::new("doc").unwrap();
//! assert_ne!(a.path(), b.path());
//! let kept = a.path().to_path_buf();
//! drop(a);
//! assert!(!kept.exists());
//! ```

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// An empty directory that exists for as long as this value lives.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<temp dir>/<label>-<pid>-<n>`.
    pub fn new(label: &str) -> io::Result<ScratchDir> {
        Self::new_in(&std::env::temp_dir(), label)
    }

    /// Creates `<parent>/<label>-<pid>-<n>` (and `parent` if missing). A
    /// leftover directory of that name, from a process that died under the
    /// same pid, is cleared first.
    pub fn new_in(parent: &Path, label: &str) -> io::Result<ScratchDir> {
        // Relaxed: the counter only has to hand out distinct values.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("{label}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless and Drop must not
        // panic.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_distinct_and_removed_on_drop() {
        let a = ScratchDir::new("dspc-scratch").unwrap();
        let b = ScratchDir::new("dspc-scratch").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("wal"), b"a").unwrap();
        std::fs::write(b.path().join("wal"), b"b").unwrap();
        let kept = b.path().to_path_buf();
        drop(a);
        assert_eq!(std::fs::read(kept.join("wal")).unwrap(), b"b");
        drop(b);
        assert!(!kept.exists());
    }

    #[test]
    fn concurrent_users_never_share_a_directory() {
        let dirs: Vec<ScratchDir> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| ScratchDir::new("dspc-race").unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut paths: Vec<&Path> = dirs.iter().map(ScratchDir::path).collect();
        paths.sort();
        paths.dedup();
        assert_eq!(paths.len(), 4);
    }
}
