//! Scratch directories inside the checkout.
//!
//! Every run (and every unit test) gets a directory of its own — process
//! id + seed + a process-wide counter — so concurrent runs and parallel
//! tests never share a file, and it is removed when the guard drops,
//! which includes unwinding from a failed run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// Where the harness may write: `$CARGO_TARGET_DIR/e2e`, or `target/e2e`
/// under the working directory. Both are git-ignored build output.
pub fn output_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("e2e")
}

#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(seed: u64) -> std::io::Result<TempDir> {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = output_root().join("tmp").join(format!("run_{}_{seed}_{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_distinct_and_removed_on_drop() {
        let a = TempDir::new(1).unwrap();
        let b = TempDir::new(1).unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().exists());
    }

    #[test]
    fn directory_is_removed_when_the_run_panics() {
        let seen = std::sync::Mutex::new(PathBuf::new());
        let result = std::panic::catch_unwind(|| {
            let d = TempDir::new(2).unwrap();
            *seen.lock().unwrap() = d.path().to_path_buf();
            panic!("run failed");
        });
        assert!(result.is_err());
        let path = seen.lock().unwrap().clone();
        assert!(!path.as_os_str().is_empty() && !path.exists());
    }
}
