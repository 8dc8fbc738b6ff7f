//! The host's speed, measured with a fixed CPU kernel.
//!
//! The machine the benchmark runs on is shared: the CPU time of one and
//! the same invocation drifts by ±10% within a minute and shifted by a
//! third within five minutes as other tenants came and went. The kernel
//! below belongs to the benchmark, not to the program, so it does the
//! same work at every commit. The harness runs it after every timed
//! operation (see [`after`]) and scales the run's CPU times by
//! `NOMINAL_MS / median`, so a time reads as it would at the host speed
//! where the kernel takes [`NOMINAL_MS`].
//!
//! The kernel mixes the kinds of work the program does: UTF-8
//! validation over shifting slices of a text (the daemon's request
//! decoder), string keys in a hash map (allocation and hashing), and a
//! sort.

use std::collections::HashMap;
use std::hint::black_box;

/// The kernel's CPU time (ms) at the reference speed: a round figure
/// near its median on the 2-vCPU virtual machine where the bounds were
/// set.
pub const NOMINAL_MS: f64 = 1.0;

/// Linux `struct timespec`.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time (ms) of the calling thread.
fn thread_cpu_ms() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: clock_gettime writes one `struct timespec` through the
    // pointer, and `ts` lives for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the calling thread's CPU clock is always readable");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

fn kernel(text: &[u8]) -> usize {
    let mut acc = 0;
    for i in 0..text.len() / 8 {
        acc += std::str::from_utf8(&text[i..]).map_or(0, str::len);
    }
    let mut keys: HashMap<String, Vec<usize>> = HashMap::new();
    for i in 0..4000 {
        keys.entry(format!("k{}", (i * 7919) % 1500))
            .or_default()
            .push(i);
    }
    let mut rows: Vec<(usize, &String)> =
        keys.iter().map(|(k, v)| (v.len() ^ k.len(), k)).collect();
    rows.sort();
    acc + rows.len()
        + keys
            .values()
            .map(|v| v.iter().sum::<usize>())
            .sum::<usize>()
}

/// Probing time after an operation, as a share of the operation's wall
/// clock: a run of 25 one-second invocations then still takes hundreds
/// of samples, and a run of short ones one sample per operation.
const SHARE: f64 = 0.02;

/// Samples the kernel after an operation that took `op_wall_ms`: at
/// least once, and for about [`SHARE`] of the operation's time.
pub fn after(op_wall_ms: f64, out: &mut Vec<f64>) {
    let n = (op_wall_ms * SHARE / NOMINAL_MS).ceil().max(1.0) as usize;
    out.extend((0..n).map(|_| sample()));
}

/// One sample: the CPU time (ms) of the calling thread for one run of
/// the kernel.
fn sample() -> f64 {
    let text: Vec<u8> = (0..3000).map(|i| b'a' + (i % 26) as u8).collect();
    let t = thread_cpu_ms();
    black_box(kernel(black_box(&text)));
    thread_cpu_ms() - t
}
