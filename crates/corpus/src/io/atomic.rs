//! Crash-safe file writes: temp file in the target directory + fsync +
//! atomic rename.
//!
//! Every persistent artifact of the workspace (checkpoints, frozen models,
//! bench reports) is written through [`atomic_write`], which guarantees that
//! a reader can **never** observe a torn write: the bytes land in a hidden
//! temp file next to the destination, are flushed and fsync'd, and only then
//! renamed over the target — rename within one directory is atomic on every
//! platform this workspace builds on. A crash (or an injected fault) at any
//! point leaves either the old file or the new file, never a prefix of the
//! new one, and the temp file is removed on every failure path.
//!
//! The module also owns the **write fault injection** point of the
//! deterministic fault harness: [`fail_nth_write`] arms a thread-local
//! countdown so the Nth `write` call issued through an [`atomic_write`]
//! writer returns a typed I/O error. Crash-mid-save is thereby a scripted,
//! reproducible test — not a hope that `kill -9` lands at the right moment.
//! The countdown is thread-local so parallel tests cannot trip each other.

use std::cell::Cell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Writes remaining before the armed fault fires; `None` = disarmed.
    static WRITE_FAULT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Distinguishes injected write faults from genuine I/O errors in tests.
const INJECTED_WRITE_FAULT: &str = "injected write fault";

/// Arms the fault injector: the `n`-th `write` call (1-based) issued through
/// an [`atomic_write`] writer **on this thread** fails with a typed
/// [`std::io::Error`] whose message is `INJECTED_WRITE_FAULT`. The fault
/// fires once and disarms itself; call [`disarm_write_faults`] to cancel an
/// armed fault that never fired.
pub fn fail_nth_write(n: u64) {
    assert!(n > 0, "write faults are 1-based: n = 0 would never fire");
    WRITE_FAULT.with(|f| f.set(Some(n)));
}

/// Disarms a pending write fault on this thread.
pub fn disarm_write_faults() {
    WRITE_FAULT.with(|f| f.set(None));
}

/// Counts a write against the armed fault; `true` means this write must fail.
fn consume_write_budget() -> bool {
    WRITE_FAULT.with(|f| match f.get() {
        None => false,
        Some(1) => {
            f.set(None);
            true
        }
        Some(n) => {
            f.set(Some(n - 1));
            false
        }
    })
}

/// The writer handed to [`atomic_write`] closures: buffered, with the fault
/// injection point in front of the buffer so every logical `write` call from
/// the encoder counts as one potential fault site.
struct FaultingWriter {
    inner: BufWriter<File>,
}

impl Write for FaultingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if consume_write_budget() {
            return Err(std::io::Error::other(INJECTED_WRITE_FAULT));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Removes the temp file unless the write completed and disarmed it.
struct TmpGuard {
    path: PathBuf,
    armed: bool,
}

impl Drop for TmpGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Monotonic discriminator so concurrent writers in one process never race on
/// the same temp name.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmp_path_for(path: &Path) -> PathBuf {
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let tmp = format!(
        ".{name}.tmp-{}-{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    path.with_file_name(tmp)
}

/// Writes a file crash-safely: `write` streams the content into a hidden temp
/// file in the destination directory, which is flushed, fsync'd and atomically
/// renamed to `path` only after `write` returns success. On any error — from
/// the closure, the filesystem, or an injected fault — the destination is
/// untouched and the temp file is removed. Parent directories are created as
/// needed.
///
/// The error type is the caller's (any `E: From<std::io::Error>`), so codec
/// writers pass their typed errors through unchanged.
pub fn atomic_write<E, F>(path: &Path, write: F) -> Result<(), E>
where
    E: From<std::io::Error>,
    F: FnOnce(&mut dyn Write) -> Result<(), E>,
{
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_path_for(path);
    let mut guard = TmpGuard { path: tmp.clone(), armed: true };
    let file = File::create(&tmp)?;
    let mut w = FaultingWriter { inner: BufWriter::new(file) };
    write(&mut w)?;
    w.flush()?;
    let file = w.inner.into_inner().map_err(|e| std::io::Error::from(e.into_error().kind()))?;
    // The data must be durable *before* the rename makes it visible — a crash
    // between rename and writeback must not surface a hollow file.
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    guard.armed = false;
    // Durability of the rename itself: fsync the directory entry.
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_bytes(path: &Path, contents: &[u8]) -> std::io::Result<()> {
        atomic_write(path, |w| w.write_all(contents))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("warplda-atomic-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn debris_in(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().contains(".tmp-"))
            .collect()
    }

    #[test]
    fn successful_write_lands_whole_with_no_debris() {
        let dir = tmp_dir("ok");
        let path = dir.join("artifact.bin");
        write_bytes(&path, b"first version").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first version");
        write_bytes(&path, b"second, longer version").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer version");
        assert!(debris_in(&dir).is_empty(), "temp files must not survive success");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn closure_error_leaves_original_untouched_and_cleans_up() {
        let dir = tmp_dir("closure-err");
        let path = dir.join("artifact.bin");
        write_bytes(&path, b"original").unwrap();
        let err = atomic_write::<std::io::Error, _>(&path, |w| {
            w.write_all(b"half a new ver")?;
            Err(std::io::Error::other("encoder blew up"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "encoder blew up");
        assert_eq!(std::fs::read(&path).unwrap(), b"original");
        assert!(debris_in(&dir).is_empty(), "temp file must be removed on failure");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_nth_write_fault_aborts_without_touching_the_target() {
        let dir = tmp_dir("inject");
        let path = dir.join("artifact.bin");
        write_bytes(&path, b"stable").unwrap();
        // Three writes scripted; the second one fails.
        fail_nth_write(2);
        let err = atomic_write::<std::io::Error, _>(&path, |w| {
            w.write_all(b"one")?;
            w.write_all(b"two")?;
            w.write_all(b"three")
        })
        .unwrap_err();
        assert!(err.to_string().contains(INJECTED_WRITE_FAULT), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"stable");
        assert!(debris_in(&dir).is_empty());
        // The fault disarmed itself: the retry succeeds.
        write_bytes(&path, b"onetwothree").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"onetwothree");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disarm_cancels_a_pending_fault() {
        let dir = tmp_dir("disarm");
        let path = dir.join("artifact.bin");
        fail_nth_write(1);
        disarm_write_faults();
        write_bytes(&path, b"clean").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"clean");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_write_failure_means_no_file_at_all() {
        let dir = tmp_dir("no-file");
        let path = dir.join("never-created.bin");
        fail_nth_write(1);
        assert!(write_bytes(&path, b"doomed").is_err());
        assert!(!path.exists(), "a failed first save must not create the target");
        assert!(debris_in(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
