//! The `serve` child process and the `/proc` readings taken of it.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Microseconds per `/proc/<pid>/stat` clock tick (`USER_HZ` is 100 on
/// every Linux architecture this runs on).
pub const TICK_US: f64 = 10_000.0;

/// The release `serve` binary next to this executable.
///
/// # Errors
///
/// When it is missing: the benchmark refuses to run rather than measure
/// something else.
pub fn serve_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating e2e: {e}"))?;
    let serve = exe.with_file_name("serve");
    if serve.is_file() {
        Ok(serve)
    } else {
        Err(format!(
            "{} is missing: build it with `cargo build --release -p disparity-service --bin serve` \
             into the same target directory as e2e",
            serve.display()
        ))
    }
}

/// A running `serve --workers 2` listening on an ephemeral loopback port.
/// Dropping it kills the process; [`Serve::shutdown`] drains it.
#[derive(Debug)]
pub struct Serve {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl Serve {
    /// Spawns `serve` and waits for its `listening on ADDR` line.
    ///
    /// # Errors
    ///
    /// Spawn failures, or an exit before it listens.
    pub fn spawn(path: &Path) -> Result<Serve, String> {
        let mut child = Command::new(path)
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", path.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("serve has no stdout pipe".to_string());
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening on ")?.parse().ok());
        match addr {
            Some(addr) => Ok(Serve {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "serve did not report a listening address (got {line:?})"
                ))
            }
        }
    }

    /// The child's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends the `shutdown` op and waits for the drained process to exit
    /// (killing it after 10 s).
    ///
    /// # Errors
    ///
    /// When it had to be killed or exited unsuccessfully.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut conn) = std::net::TcpStream::connect(self.addr) {
            let _ = conn.write_all(b"{\"id\":\"bye\",\"op\":\"shutdown\"}\n");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("serve did not drain within 10 s; killed".to_string()),
            }
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// user + system CPU time of process `pid`, in clock ticks.
///
/// # Errors
///
/// When `/proc/<pid>/stat` is unreadable or malformed.
pub fn cpu_ticks(pid: u32) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after `) `.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (field(11), field(12)) {
        (Some(u), Some(s)) => Ok(u + s),
        _ => Err(format!("/proc/{pid}/stat: unexpected format")),
    }
}

/// Peak resident set size (`VmHWM`) of process `pid`, in KiB.
///
/// # Errors
///
/// When `/proc/<pid>/status` is unreadable or has no `VmHWM`.
pub fn peak_rss_kib(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM"))
}

/// Resets this process's `VmHWM` to its current RSS.
///
/// # Errors
///
/// When the kernel refuses the write.
pub fn reset_own_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_proc_readings_parse() {
        let pid = std::process::id();
        let before = cpu_ticks(pid).unwrap();
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(50) {
            std::hint::black_box(0u64);
        }
        assert!(cpu_ticks(pid).unwrap() >= before);
        assert!(peak_rss_kib(pid).unwrap() > 0);
    }
}
