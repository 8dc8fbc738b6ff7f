//! The repository benchmark: times the real `fenceplace` binary and
//! `fenceplace serve` daemon on seeded, generated inputs, checks every
//! output against an independent reference, and (with `--trace 1`)
//! replays the same inputs through each layer's public functions with
//! spans recorded around every call.
//!
//! ```text
//! perfbench --fenceplace BIN --work DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `perfbench/run.py`
//! builds both binaries and is the entry point to use.

mod check;
mod gen;
mod json;
mod probe;
mod proc;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

pub const WORKLOADS: [&str; 4] = ["paper_sweep", "large_stream", "serve_edit", "certify"];

/// Everything one run needs to know.
pub struct Cx {
    /// The `fenceplace` binary under test.
    pub bin: PathBuf,
    /// Scratch directory of this run (inputs, reports, socket).
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
}

/// Operations attempted and failed; a failed check prints its reason
/// (the first few) to standard error.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: FAILED {what}: {e}");
            }
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

struct Args {
    bin: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut bin, mut work, mut workload) = (None, None, None);
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--fenceplace" => bin = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        bin: bin.ok_or("--fenceplace is required")?,
        work: work.ok_or("--work is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let cx = Cx {
        bin: args.bin,
        work: args.work,
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
    };
    let mut tally = Tally::default();
    let result = if args.trace {
        trace::run(&cx, &args.workload, &mut tally)
    } else {
        workloads::run(&cx, &args.workload, &mut tally)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    // A failed check leaves its inputs and reports for inspection.
    if tally.failed == 0 {
        let _ = std::fs::remove_dir_all(&cx.work);
    }

    let mut out = String::new();
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{out}}}}}",
        tally.attempted.max(1),
        tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
