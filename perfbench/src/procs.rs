//! Spawned server processes and the `/proc` counters read from them.
//!
//! Every spawned process lives in a [`Proc`] guard whose `Drop` stops
//! and reaps it, so an early return or a panic cannot leave a server or
//! a router replica holding one of the machine's cores into the next
//! run.

use crate::stats::{cpu_ticks_from_stat, ppid_from_stat, status_kb};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

fn signal(pid: u32, sig: i32) {
    // SAFETY: kill(2) takes plain integers and touches no memory of
    // this process; a stale pid only makes it return an error.
    unsafe {
        kill(pid as i32, sig);
    }
}

/// Clock ticks per second of the `/proc/<pid>/stat` CPU counters.
pub fn ticks_per_s() -> u64 {
    // SAFETY: sysconf(3) only reads a configuration constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as u64
    } else {
        100
    }
}

/// User + system CPU ticks of `pid`, threads included.
pub fn cpu_ticks(pid: u32) -> Option<u64> {
    cpu_ticks_from_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set (`VmHWM`) of `pid` in MB.
pub fn rss_peak_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

/// (stolen, total) jiffies of the whole machine from `/proc/stat`: time
/// the hypervisor gave this VM's CPUs to someone else.
pub fn host_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time stolen between two [`host_steal`] readings, %.
pub fn steal_pct(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some(a), Some(b)) if b.1 > a.1 => (b.0 - a.0) as f64 * 100.0 / (b.1 - a.1) as f64,
        _ => 0.0,
    }
}

/// Live children of `pid` (scanned from `/proc`).
pub fn children_of(pid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|p| {
            std::fs::read_to_string(format!("/proc/{p}/stat"))
                .ok()
                .and_then(|s| ppid_from_stat(&s))
                == Some(pid)
        })
        .collect()
}

fn alive(pid: u32) -> bool {
    // A zombie still has a /proc entry but no longer runs.
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map(|s| {
            s.rfind(')')
                .is_some_and(|i| !s[i + 1..].trim_start().starts_with('Z'))
        })
        .unwrap_or(false)
}

/// A spawned server (or router) that printed `listening on <addr>`.
pub struct Proc {
    child: Child,
    /// Processes it spawned itself (router replicas), reaped with it.
    pub descendants: Vec<u32>,
    pub addr: String,
    stdout: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawn `cmd`, sending its stderr to `log`, and wait for its
    /// readiness line.
    pub fn spawn(mut cmd: Command, log: &Path, timeout: Duration) -> Result<Self, String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("create {log:?}: {e}"))?;
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file);
        let mut child = cmd.spawn().map_err(|e| format!("spawn {cmd:?}: {e}"))?;
        let out = child.stdout.take().ok_or("no stdout pipe")?;
        let (tx, rx) = mpsc::channel();
        // Reads the readiness line, then drains stdout until the
        // process exits so it never blocks on a full pipe.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut proc = Self {
            child,
            descendants: Vec::new(),
            addr: String::new(),
            stdout: Some(reader),
        };
        match rx.recv_timeout(timeout) {
            Ok(addr) => proc.addr = addr,
            Err(_) => return Err(format!("{cmd:?} printed no readiness line; see {log:?}")),
        }
        Ok(proc)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// This process and the ones it spawned.
    pub fn pids(&self) -> Vec<u32> {
        std::iter::once(self.pid())
            .chain(self.descendants.iter().copied())
            .collect()
    }

    /// Summed CPU ticks of [`Self::pids`].
    pub fn cpu_ticks(&self) -> Option<u64> {
        self.pids().into_iter().map(cpu_ticks).sum()
    }

    /// Summed peak RSS of [`Self::pids`], MB.
    pub fn rss_peak_mb(&self) -> Option<f64> {
        self.pids().into_iter().map(rss_peak_mb).sum()
    }

    /// SIGTERM (the servers drain and exit 0), SIGKILL after a grace
    /// period, then reap the process and every descendant.
    pub fn stop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            signal(self.pid(), SIGTERM);
            let deadline = Instant::now() + Duration::from_secs(5);
            while self.child.try_wait().ok().flatten().is_none() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        // Descendants were reparented when their parent exited; make
        // sure each is gone before the next run starts.
        for &pid in &self.descendants {
            let deadline = Instant::now() + Duration::from_secs(5);
            while alive(pid) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            if alive(pid) {
                signal(pid, SIGKILL);
                while alive(pid) {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.stop();
    }
}
