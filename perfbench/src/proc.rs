//! Running the program under test: timed CLI invocations, the daemon's
//! lifetime, its socket connections, and the peak memory of both.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux `struct rusage`: two `timeval`s, then fourteen `long`s of which
/// `ru_maxrss` (in KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

impl RUsage {
    fn zeroed() -> RUsage {
        RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        }
    }

    /// User plus system CPU time (ms).
    fn cpu_ms(&self) -> f64 {
        let ms = |tv: [i64; 2]| tv[0] as f64 * 1e3 + tv[1] as f64 / 1e3;
        ms(self.utime) + ms(self.stime)
    }
}

/// Linux `struct timespec`.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// The daemon's `--cache-cap`: room for the 30-module working set plus
/// the 34 most recent edited versions. The reader sends every text once
/// a round and the editor one edit per round, so at most two edits and
/// 29 other reads come between two reads of one text; none is evicted
/// in a healthy run.
pub const CACHE_CAP: usize = 64;

/// Peak resident set (MB) of the largest child this process has waited
/// for. The harness's only children are the CLI invocations of the
/// workload, so this is the program's peak, not the load generator's.
pub fn children_peak_rss_mb() -> f64 {
    let mut u = RUsage::zeroed();
    // SAFETY: getrusage writes exactly one `struct rusage` through the
    // pointer; `RUsage` is `repr(C)` with that struct's layout on 64-bit
    // Linux, and `u` lives for the whole call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_CHILDREN) cannot fail with a valid pointer"
    );
    u.maxrss as f64 / 1024.0
}

/// One finished CLI invocation.
pub struct CliRun {
    /// Spawn to exit (ms).
    pub wall_ms: f64,
    /// User plus system CPU time of the process, all its threads (ms).
    pub cpu_ms: f64,
    pub code: Option<i32>,
}

/// Runs `bin args..` to completion with its output discarded, and reaps
/// it with `wait4` so its own CPU time comes back with its exit status.
pub fn run_cli(bin: &Path, args: &[String]) -> std::io::Result<CliRun> {
    let t = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    let mut status = 0i32;
    let mut u = RUsage::zeroed();
    loop {
        // SAFETY: `status` and `u` are valid for writes for the whole
        // call, `RUsage` has `struct rusage`'s layout, and the pid is a
        // child of this process that nothing else waits for (`child` is
        // dropped below without being waited on).
        let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut u) };
        if rc >= 0 {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(child);
    // WIFEXITED / WEXITSTATUS.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(CliRun {
        wall_ms,
        cpu_ms: u.cpu_ms(),
        code,
    })
}

/// A running `fenceplace serve --socket` process. Dropping it kills and
/// reaps the process if it has not shut down cleanly.
///
/// The cache is capped at [`CACHE_CAP`] modules, as a resident daemon
/// should be run, so memory stays bounded however many edited versions
/// a run sends.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    pub fn spawn(bin: &Path, socket: &Path) -> std::io::Result<Daemon> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--cache-cap")
            .arg(CACHE_CAP.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        Ok(Daemon {
            child,
            socket: socket.to_path_buf(),
        })
    }

    /// Connects once the socket is bound (polling for up to 10 s) and
    /// completes the protocol handshake.
    pub fn connect(&mut self) -> Result<Conn, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => break s,
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("daemon exited early: {status}"));
                    }
                    if Instant::now() > deadline {
                        return Err(format!("cannot connect to {}: {e}", self.socket.display()));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: stream,
        };
        let hello = conn
            .request("{\"id\":0,\"type\":\"hello\",\"version\":1}\n")
            .map_err(|e| e.to_string())?;
        if !hello.contains("\"type\":\"hello\"") {
            return Err(format!("handshake refused: {hello}"));
        }
        Ok(conn)
    }

    /// CPU time (ms) the daemon has used so far, all threads together,
    /// read from its process CPU clock (nanosecond resolution).
    pub fn cpu_ms(&self) -> Result<f64, String> {
        // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) from the kernel's
        // posix-timers.h; clock_gettime may read it for any process.
        let clock = ((!(self.child.id() as i32)) << 3) | 2;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: clock_gettime writes one `struct timespec` through the
        // pointer, and `ts` lives for the whole call.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        if rc != 0 {
            return Err(format!(
                "cannot read the daemon's CPU clock: {}",
                std::io::Error::last_os_error()
            ));
        }
        Ok(ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6)
    }

    /// Peak resident set (MB) so far, from `VmHWM`.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Sends `shutdown` on `conn` (every other connection must already
    /// be closed, or the daemon keeps serving them) and waits for exit.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        let bye = conn
            .request("{\"id\":0,\"type\":\"shutdown\"}\n")
            .map_err(|e| e.to_string())?;
        drop(conn);
        if !bye.contains("\"type\":\"bye\"") {
            return Err(format!("shutdown refused: {bye}"));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return Err("daemon did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One client connection: a request line out, one response line back.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// `line` must end with its newline, so a request is one write.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        debug_assert!(line.ends_with('\n'));
        self.writer.write_all(line.as_bytes())?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(resp)
    }
}
