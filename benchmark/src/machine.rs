//! What the operating system knows about this process: CPU time, peak
//! memory, core count, and a scratch directory that is removed on drop.
//! Read from `/proc/self/*` so the benchmark needs no external crate.

use std::path::{Path, PathBuf};

/// Kernel clock ticks per second as `/proc/self/stat` reports them
/// (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has consumed.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its
    // closing parenthesis: state is field 3, utime 14, stime 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Confines this process, every thread it has and every thread it will
/// start, to one of the CPUs it may run on (the highest-numbered), and
/// says whether that worked. With one CPU the client and the service
/// threads hand over by blocking, so nothing measured depends on how long
/// the hypervisor takes to wake a second, idle virtual CPU or on which
/// of the two CPUs the guest's scheduler puts a thread: on the host this
/// was written on those decide throughput by a factor of two to eight
/// from one run to the next.
///
/// Setting affinity is a system call and this package forbids `unsafe`,
/// so `taskset` (util-linux) does it; without it the run goes on
/// unconfined and reports so.
pub fn confine_to_one_cpu() -> bool {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(cpu) = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().rsplit([',', '-']).next()?.parse::<usize>().ok())
    else {
        return false;
    };
    let done = std::process::Command::new("taskset")
        .args(["-a", "-p", "-c"])
        .arg(cpu.to_string())
        .arg(std::process::id().to_string())
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
    matches!(done, Ok(status) if status.success()) && cores() == 1
}

/// Whether the CPU has the AVX2 unit the wide retrieval kernel needs.
pub fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A scratch directory next to the executable (inside the build
/// directory, so inside the checkout and on a real file system), removed
/// with everything in it on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<exe dir>/rqfa-benchmark-tmp-<pid>`, emptying a stale one.
    pub fn create() -> std::io::Result<ScratchDir> {
        let exe = std::env::current_exe()?;
        let parent = exe.parent().unwrap_or(Path::new("."));
        let path = parent.join(format!("rqfa-benchmark-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// A sub-directory path (not created).
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
