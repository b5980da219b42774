//! What a number needs beside it to be read without the commit that
//! produced it: the host, the resolved kernel backend, the revision.

use std::path::{Path, PathBuf};

use ive_math::kernel::{self, BackendKind};

use crate::json::Json;

/// Host and build facts stamped into every output.
pub fn fingerprint() -> Json {
    let isa: Vec<Json> = [
        ("avx2", kernel::simd_available()),
        ("avx512f", kernel::avx512_available()),
        ("avx512ifma", kernel::avx512_ifma_available()),
    ]
    .into_iter()
    .filter(|(_, detected)| *detected)
    .map(|(name, _)| Json::str(name))
    .collect();
    Json::obj([
        ("nproc", Json::from(std::thread::available_parallelism().map_or(0, usize::from))),
        ("effective_llc_bytes", Json::from(kernel::effective_llc_bytes())),
        ("isa", Json::Arr(isa)),
        ("backend", Json::str(BackendKind::Auto.backend().name())),
        ("git_commit", Json::str(git_commit().unwrap_or_else(|| "unknown".into()))),
    ])
}

/// The checked-out commit, read from `.git` above the current directory
/// without running a program; `None` outside a git checkout (as when the
/// driver runs the benchmark from an exported tree).
fn git_commit() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let git = cwd.ancestors().map(|d| d.join(".git")).find(|g| g.is_dir())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_string()))
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// A directory for files a workload needs on disk (the update journal),
/// created beside the running executable — inside the build directory,
/// hence inside the checkout — and removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// # Errors
    /// Fails when the directory cannot be created.
    pub fn create(label: &str) -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let dir = base.join(format!("ive_benchmark_tmp-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory sits in the build directory.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
