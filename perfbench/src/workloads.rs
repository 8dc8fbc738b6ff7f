//! The timed (untraced) workloads and their end-to-end metrics.
//!
//! Every workload reports the same five metrics; an *operation* is one
//! CLI invocation (spawn to exit) for `paper_sweep`, `large_stream` and
//! `certify`, and one read request for `serve_edit` (a cache hit, taking
//! turns with an editor connection that keeps re-analyzing). Times are
//! the CPU time of the program under test: the CLI child's, reaped with
//! `wait4`, or the daemon's process CPU clock around each request,
//! scaled to the reference host speed (see [`crate::probe`]). The wall
//! clock of the same operations is kept for the traced run.

use crate::check::{self, Expect, Golden};
use crate::gen::{self, Input, Rng};
use crate::json::{self, J};
use crate::probe;
use crate::proc::{self, Conn, Daemon};
use crate::stats::{median, tail, tail_rank};
use crate::{metric, Cx, Metric, Tally};
use fence_ir::printer::print_module;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const GOLDEN: &str = "tests/golden/pipeline.txt";

/// Set-ups per run of a CLI workload: at least [`SETUPS`], and at least
/// [`SETUP_MIN`] of wall clock, so a cheap workload's median set-up comes
/// from many samples. The median of their CPU time is `setup_s`.
const SETUPS: usize = 5;
const SETUP_MIN: Duration = Duration::from_secs(1);

/// Daemon processes per `serve_edit` run, one after another; each one's
/// spawn-and-prime is one of the workload's set-ups.
const DAEMONS: usize = 8;

/// The nine configs of the paper's Figs 7–9 sweep.
pub const SWEEP_CONFIGS: Configs = &[
    ("Pensieve", "x86tso"),
    ("Pensieve", "sc"),
    ("Pensieve", "weak"),
    ("AddressControl", "x86tso"),
    ("AddressControl", "sc"),
    ("AddressControl", "weak"),
    ("Control", "x86tso"),
    ("Control", "sc"),
    ("Control", "weak"),
];

pub const CERTIFY_CONFIGS: Configs = &[("Control", "x86tso"), ("Control", "weak")];
pub const CERTIFY_STATES: u64 = 50_000;

/// (program, config) pairs the certifier proves today. Each must keep
/// coming back `certified`; a pair moving the other way is a failure.
pub const CERTIFIED_TODAY: [(&str, &str); 4] = [
    ("kernel:CLH Lock", "x86tso"),
    ("kernel:CLH Lock", "weak"),
    ("kernel:Cilk-5 WSQ", "x86tso"),
    ("kernel:Michael Scott LFQ", "x86tso"),
];

/// Request-text size buckets of the daemon workload.
pub const SMALL_MAX: usize = 8 * 1024;

/// The name reports and the golden file give a CLI variant spelling
/// (`AddressControl` is reported as `Address+Control`).
pub fn golden_variant(cli: &str) -> &str {
    match cli {
        "AddressControl" => "Address+Control",
        v => v,
    }
}

/// Raw samples of one timed workload.
#[derive(Default)]
pub struct E2e {
    /// CPU seconds of the program per set-up.
    pub setup_s: Vec<f64>,
    /// Wall-clock latency per operation.
    pub op_ms: Vec<f64>,
    /// CPU time of the program per operation (for the daemon, the
    /// median per working-set text).
    pub cpu_ms: Vec<f64>,
    /// Input megabytes per CPU second, per operation (for the daemon,
    /// the median per working-set text).
    pub mb_per_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub full_fences: u64,
    /// Daemon requests completed per second over both connections.
    pub served_per_s: f64,
    /// The daemon's wall-clock latencies by kind and request size.
    pub hit_small_ms: Vec<f64>,
    pub hit_large_ms: Vec<f64>,
    pub edit_ms: Vec<f64>,
    /// The daemon's CPU time per large hit and per edit.
    pub hit_large_cpu_ms: Vec<f64>,
    pub edit_cpu_ms: Vec<f64>,
    /// Host speed probe samples, taken after every operation.
    pub probe_ms: Vec<f64>,
}

impl E2e {
    /// How much slower the host ran than the reference speed: CPU times
    /// are divided by this, rates multiplied.
    pub fn host_factor(&self) -> f64 {
        median(&self.probe_ms) / probe::NOMINAL_MS
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let f = self.host_factor();
        vec![
            metric("setup_s", median(&self.setup_s) / f, "s"),
            metric("norm_cpu_ms.p50", median(&self.cpu_ms) / f, "ms"),
            metric("norm_ir_mb_per_s", median(&self.mb_per_s) * f, "MB/s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
            metric("full_fences", self.full_fences as f64, "count"),
        ]
    }

    /// Sample counts and the size breakdown, for standard error.
    pub fn describe(&self, workload: &str) {
        eprintln!(
            "perfbench: {workload}: {} ops timed; {} setups; CPU ms per op p50 {:.3} before scaling; host probe p50 {:.4} ms of {} samples (nominal {})",
            self.op_ms.len(),
            self.setup_s.len(),
            median(&self.cpu_ms),
            median(&self.probe_ms),
            self.probe_ms.len(),
            probe::NOMINAL_MS
        );
        for (what, xs) in [
            ("wall ms per op", &self.op_ms),
            ("hit_ms (<=8 KB)", &self.hit_small_ms),
            ("hit_ms (17-71 KB)", &self.hit_large_ms),
            ("edit_ms", &self.edit_ms),
        ] {
            if !xs.is_empty() {
                eprintln!(
                    "perfbench: {workload}: {what}: p50 {:.3}, tail {:.3} (p{:.1} of {})",
                    median(xs),
                    tail(xs),
                    tail_rank(xs.len()),
                    xs.len()
                );
            }
        }
    }
}

pub fn run(cx: &Cx, workload: &str, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let e2e = run_e2e(cx, workload, cx.seconds, SETUPS, tally)?;
    e2e.describe(workload);
    Ok(e2e.metrics())
}

pub fn run_e2e(
    cx: &Cx,
    workload: &str,
    dur: Duration,
    setups: usize,
    tally: &mut Tally,
) -> Result<E2e, String> {
    match workload {
        "paper_sweep" => paper_workload(cx, SWEEP_CONFIGS, false)?.run(cx, dur, setups, tally),
        "large_stream" => large_stream(cx)?.run(cx, dur, setups, tally),
        "certify" => paper_workload(cx, CERTIFY_CONFIGS, true)?.run(cx, dur, setups, tally),
        "serve_edit" => serve_edit(cx, dur, tally),
        other => Err(format!("unknown workload {other}")),
    }
}

fn io<T>(r: std::io::Result<T>, what: &Path) -> Result<T, String> {
    r.map_err(|e| format!("{}: {e}", what.display()))
}

fn config_args(configs: &[(&str, &str)]) -> Vec<String> {
    configs
        .iter()
        .flat_map(|(v, t)| ["--config".to_string(), format!("{v}:{t}")])
        .collect()
}

fn read_report(out: &Path, job: &str) -> Result<J, String> {
    let path = out.join(format!("{}.json", check::file_stem(job)));
    let text = io(std::fs::read_to_string(&path), &path)?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.str("status") {
        Some("ok") => Ok(doc),
        other => Err(format!("{job}: status {other:?}")),
    }
}

/// Checks one report's `configs` array against per-config expectations
/// and returns the full fences the report itself states.
fn check_configs(doc: &J, job: &str, want: &[((&str, &str), Expect)]) -> Result<u64, String> {
    let cfgs = doc.arr("configs").ok_or(format!("{job}: no configs"))?;
    if cfgs.len() != want.len() {
        return Err(format!(
            "{job}: {} configs, want {}",
            cfgs.len(),
            want.len()
        ));
    }
    let mut full = 0;
    for (cfg, ((variant, target), expect)) in cfgs.iter().zip(want) {
        if cfg.str("variant") != Some(golden_variant(variant)) || cfg.str("target") != Some(target)
        {
            return Err(format!("{job}: config order differs at {variant}:{target}"));
        }
        check::config_matches(cfg, expect).map_err(|e| format!("{job} {variant}:{target}: {e}"))?;
        full += cfg
            .num("full_fences")
            .ok_or(format!("{job} {variant}:{target}: no full_fences"))? as u64;
    }
    Ok(full)
}

/// Per-config expectations of one module, in config order.
pub type Want = Vec<((&'static str, &'static str), Expect)>;

/// The check of one invocation's `--out` directory; returns the run's
/// full-fence total.
type Check = Box<dyn Fn(&Path) -> Result<u64, String>>;

/// One CLI-driven workload: the arguments of an invocation, the input
/// size it reads, and the check of its output.
struct CliWorkload {
    args: Vec<String>,
    out: PathBuf,
    input_bytes: usize,
    check: Check,
}

impl CliWorkload {
    /// One invocation. The `--out` directory is reused, as a user
    /// re-running the CLI would: deleting a few dozen report files per
    /// invocation made this filesystem's latency, not the program's, the
    /// larger share of the spread. Only the roll-up is removed first;
    /// finding it again shows this invocation wrote its reports.
    fn invoke(&self, cx: &Cx, tally: &mut Tally, e2e: &mut E2e) -> Result<proc::CliRun, String> {
        let summary = self.out.join("fleet_summary.json");
        let _ = std::fs::remove_file(&summary);
        let run = io(proc::run_cli(&cx.bin, &self.args), &cx.bin)?;
        let result = match run.code {
            Some(0) if !summary.exists() => Err("no fleet_summary.json written".into()),
            Some(0) => (self.check)(&self.out).map(|full| e2e.full_fences = full),
            code => Err(format!("exit code {code:?}")),
        };
        tally.record("invocation", result);
        Ok(run)
    }

    fn run(self, cx: &Cx, dur: Duration, setups: usize, tally: &mut Tally) -> Result<E2e, String> {
        let mut e2e = E2e::default();
        let started = Instant::now();
        while e2e.setup_s.len() < setups || started.elapsed() < SETUP_MIN {
            let run = self.invoke(cx, tally, &mut e2e)?;
            e2e.setup_s.push(run.cpu_ms / 1e3);
            probe::after(run.wall_ms, &mut e2e.probe_ms);
        }
        let start = Instant::now();
        while e2e.cpu_ms.len() < 3 || start.elapsed() < dur {
            let run = self.invoke(cx, tally, &mut e2e)?;
            e2e.op_ms.push(run.wall_ms);
            e2e.cpu_ms.push(run.cpu_ms);
            e2e.mb_per_s
                .push(self.input_bytes as f64 / 1e6 / (run.cpu_ms / 1e3));
            probe::after(run.wall_ms, &mut e2e.probe_ms);
        }
        e2e.peak_rss_mb = proc::children_peak_rss_mb();
        let _ = std::fs::remove_dir_all(&self.out);
        Ok(e2e)
    }
}

pub fn job_name(path: &Path) -> String {
    format!("file:{}", path.display())
}

/// A list of `Variant:target` configs.
pub type Configs = &'static [(&'static str, &'static str)];

/// One of the paper's programs written as a `.fir` file, with its
/// golden label and its golden placements under each config.
pub struct PaperFile {
    pub path: PathBuf,
    pub label: String,
    pub want: Want,
}

/// The paper's 26 programs as `.fir` files in `dir`, in `dir:` order,
/// and their total size in bytes.
pub fn paper_files(
    cx: &Cx,
    dir: &Path,
    configs: Configs,
) -> Result<(Vec<PaperFile>, usize), String> {
    let inputs = gen::paper_programs();
    let files = io(
        gen::write_dir(dir, &inputs, &mut Rng::new(cx.seed, gen::NAMES)),
        dir,
    )?;
    let golden = Golden::load(GOLDEN)?;
    let mut out = Vec::new();
    for (path, i) in files {
        let label = inputs[i].label.clone();
        let mut want = Vec::new();
        for &(v, t) in configs {
            let e = golden
                .get(&label, golden_variant(v), t)
                .ok_or(format!("{label} {v}:{t} missing from {GOLDEN}"))?;
            want.push(((v, t), e));
        }
        out.push(PaperFile { path, label, want });
    }
    Ok((out, inputs.iter().map(|i| i.text.len()).sum()))
}

/// `paper_sweep` and `certify`: the paper's 26 programs as one `dir:`,
/// each report checked against the golden file under every config and,
/// when certifying, against the certifier's verdicts of today.
fn paper_workload(cx: &Cx, configs: Configs, certify: bool) -> Result<CliWorkload, String> {
    let dir = cx.work.join("in");
    let out = cx.work.join("out");
    let (files, input_bytes) = paper_files(cx, &dir, configs)?;
    let mut args = vec![
        "--program".to_string(),
        format!("dir:{}", dir.display()),
        "--out".to_string(),
        out.display().to_string(),
    ];
    if certify {
        args.extend(["--certify-states".to_string(), CERTIFY_STATES.to_string()]);
    }
    args.extend(config_args(configs));
    Ok(CliWorkload {
        args,
        out,
        input_bytes,
        check: Box::new(move |out| {
            let mut full = 0;
            for f in &files {
                let job = job_name(&f.path);
                let doc = read_report(out, &job)?;
                full += check_configs(&doc, &job, &f.want)?;
                if certify {
                    check_certifications(&doc, &f.label, &f.want)?;
                }
            }
            Ok(full)
        }),
    })
}

/// No certification may come back `unsound`, and every pair in
/// [`CERTIFIED_TODAY`] must still be `certified`.
fn check_certifications(doc: &J, label: &str, per: &Want) -> Result<(), String> {
    let certs = doc
        .arr("certifications")
        .ok_or(format!("{label}: no certifications"))?;
    if certs.len() != per.len() {
        return Err(format!("{label}: {} certifications", certs.len()));
    }
    for (cert, ((_, target), _)) in certs.iter().zip(per) {
        let status = cert.str("status").unwrap_or("?");
        if status == "unsound" {
            return Err(format!("{label} {target}: unsound placement"));
        }
        if CERTIFIED_TODAY.contains(&(label, *target)) && status != "certified" {
            return Err(format!("{label} {target}: {status}, was certified"));
        }
    }
    Ok(())
}

/// The `large_stream` pack: seeded synthetic modules whose sizes always
/// sum to the same total (about 5.6 MB of text), concatenated into one
/// file.
pub const STREAM_TOTAL_N: usize = 80_000;

pub fn stream_inputs(cx: &Cx) -> Vec<Input> {
    gen::synthetic(&gen::stream_sizes(
        &mut Rng::new(cx.seed, gen::SIZES),
        STREAM_TOTAL_N,
    ))
}

pub fn write_pack(cx: &Cx, inputs: &[Input]) -> Result<PathBuf, String> {
    let dir = cx.work.join("in");
    io(std::fs::create_dir_all(&dir), &dir)?;
    let path = dir.join(format!(
        "{:016x}.pack",
        Rng::new(cx.seed, gen::NAMES).next()
    ));
    let text: String = inputs.iter().map(|i| i.text.as_str()).collect();
    io(std::fs::write(&path, text), &path)?;
    Ok(path)
}

fn large_stream(cx: &Cx) -> Result<CliWorkload, String> {
    let inputs = stream_inputs(cx);
    let pack = write_pack(cx, &inputs)?;
    let out = cx.work.join("out");
    // The reference is computed once, before anything is timed.
    let want: Vec<(String, Expect)> = inputs
        .iter()
        .enumerate()
        .map(|(k, i)| {
            (
                format!("pack:{}#{k}", pack.display()),
                check::naive_control_x86(&i.module),
            )
        })
        .collect();
    Ok(CliWorkload {
        args: vec![
            "--program".to_string(),
            format!("pack:{}", pack.display()),
            "--window".to_string(),
            "2".to_string(),
            "--config".to_string(),
            "Control:x86tso".to_string(),
            "--out".to_string(),
            out.display().to_string(),
        ],
        out,
        input_bytes: inputs.iter().map(|i| i.text.len()).sum(),
        check: Box::new(move |out| {
            let mut full = 0;
            for (job, expect) in &want {
                let doc = read_report(out, job)?;
                full += check_configs(&doc, job, &[(("Control", "x86tso"), *expect)])?;
            }
            Ok(full)
        }),
    })
}

/// The request line of one inline analyze request.
pub fn analyze_line(id: usize, name: &str, text: &str) -> String {
    format!(
        "{{\"id\":{id},\"type\":\"analyze\",\"module\":\"{}\",\"text\":\"{}\",\"configs\":[\"Control:x86tso\"]}}\n",
        json::escape(name),
        json::escape(text)
    )
}

/// The daemon's working set: the 26 programs plus four synthetic
/// modules of seeded sizes, as files (so the CLI can produce the
/// reference reports) and as pre-encoded request lines.
pub struct WorkingSet {
    pub inputs: Vec<Input>,
    /// Job name (`file:PATH`) per input.
    pub names: Vec<String>,
    pub lines: Vec<String>,
    /// The CLI's report per input.
    pub reference: Vec<String>,
    /// Independent expectation per input under `Control:x86tso`.
    pub expect: Vec<Expect>,
    /// Indices of the synthetic inputs (the editor's targets).
    pub synthetic: Vec<usize>,
}

pub fn working_set(cx: &Cx, tally: &mut Tally) -> Result<WorkingSet, String> {
    let mut inputs = gen::paper_programs();
    let first_synthetic = inputs.len();
    inputs.extend(gen::synthetic(&gen::serve_sizes(&mut Rng::new(
        cx.seed,
        gen::SIZES,
    ))));
    let dir = cx.work.join("ws");
    let files = io(
        gen::write_dir(&dir, &inputs, &mut Rng::new(cx.seed, gen::NAMES)),
        &dir,
    )?;
    let mut names = vec![String::new(); inputs.len()];
    for (path, i) in &files {
        names[*i] = job_name(path);
    }
    let reference = cli_reports(cx, &dir, &names, &cx.work.join("ws_out"), tally)?;
    let golden = Golden::load(GOLDEN)?;
    let expect = inputs
        .iter()
        .map(|input| expect_control_x86(&golden, input))
        .collect::<Result<_, _>>()?;
    let lines = (0..inputs.len())
        .map(|i| analyze_line(i, &names[i], &inputs[i].text))
        .collect();
    Ok(WorkingSet {
        inputs,
        names,
        lines,
        reference,
        expect,
        synthetic: (first_synthetic..first_synthetic + 4).collect(),
    })
}

/// Runs the CLI once over `dir` (`Control:x86tso`) and returns the
/// report of each job in `names` (empty when missing).
fn cli_reports(
    cx: &Cx,
    dir: &Path,
    names: &[String],
    out: &Path,
    tally: &mut Tally,
) -> Result<Vec<String>, String> {
    let args = vec![
        "--program".to_string(),
        format!("dir:{}", dir.display()),
        "--out".to_string(),
        out.display().to_string(),
    ];
    let run = io(proc::run_cli(&cx.bin, &args), &cx.bin)?;
    tally.record(
        "reference CLI run",
        match run.code {
            Some(0) => Ok(()),
            code => Err(format!("exit code {code:?}")),
        },
    );
    let reports = names
        .iter()
        .map(|n| {
            std::fs::read_to_string(out.join(format!("{}.json", check::file_stem(n))))
                .unwrap_or_default()
        })
        .collect();
    let _ = std::fs::remove_dir_all(out);
    Ok(reports)
}

/// The fields of one analyze response.
pub struct Response {
    pub cache: String,
    pub status: String,
    pub report: String,
}

pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = json::parse(line.trim_end()).map_err(|e| format!("bad response: {e}"))?;
    if v.str("type") != Some("report") {
        return Err(format!("not a report: {}", line.trim_end()));
    }
    let field = |k: &str| {
        v.str(k)
            .map(str::to_string)
            .ok_or(format!("response without `{k}`"))
    };
    Ok(Response {
        cache: field("cache")?,
        status: field("status")?,
        report: field("report")?,
    })
}

/// The report with its `"module"` line removed: the CLI names a job by
/// the file it read, the daemon by the request's module name.
fn without_name(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"module\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Independent expectation for one working-set input under
/// `Control:x86tso`: the golden file for the paper's programs, the seed
/// ordering stage for synthetic modules.
fn expect_control_x86(golden: &Golden, input: &Input) -> Result<Expect, String> {
    if input.label.starts_with("synthetic:") {
        Ok(check::naive_control_x86(&input.module))
    } else {
        golden
            .get(&input.label, "Control", "x86tso")
            .ok_or(format!("{} missing from {GOLDEN}", input.label))
    }
}

pub fn check_report(report: &str, expect: &Expect, job: &str) -> Result<u64, String> {
    let doc = json::parse(report).map_err(|e| format!("{job}: {e}"))?;
    if doc.str("status") != Some("ok") {
        return Err(format!("{job}: status {:?}", doc.str("status")));
    }
    check_configs(&doc, job, &[(("Control", "x86tso"), *expect)])
}

/// Spawns the daemon and primes it with the working set; returns the
/// daemon, the priming connection, the priming responses and the CPU
/// seconds the daemon spent from spawn to primed.
fn prime(cx: &Cx, ws: &WorkingSet) -> Result<(Daemon, Conn, Vec<String>, f64), String> {
    let socket = cx.work.join("d.sock");
    let mut daemon = io(Daemon::spawn(&cx.bin, &socket), &cx.bin)?;
    let mut conn = daemon.connect()?;
    let responses = ws
        .lines
        .iter()
        .map(|line| conn.request(line).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let cpu_s = daemon.cpu_ms()? / 1e3;
    Ok((daemon, conn, responses, cpu_s))
}

/// Checks one read or priming response of working-set input `i`: it
/// must equal the CLI's report byte for byte. Returns the report's full
/// fences and whether the daemon answered from cache.
pub fn check_read(ws: &WorkingSet, i: usize, resp: &str) -> Result<(u64, bool), String> {
    let r = parse_response(resp)?;
    if r.status != "ok" || r.report != ws.reference[i] {
        return Err(format!("{}: report differs from the CLI's", ws.names[i]));
    }
    let full = check_report(&r.report, &ws.expect[i], &ws.names[i])?;
    Ok((full, r.cache == "hit"))
}

fn serve_edit(cx: &Cx, dur: Duration, tally: &mut Tally) -> Result<E2e, String> {
    let ws = working_set(cx, tally)?;
    let mut e2e = E2e::default();
    let mut order: Vec<usize> = (0..ws.lines.len()).collect();
    let mut rng = Rng::new(cx.seed, gen::READER);
    let mut edit_seq = Edits::new(cx.seed, &ws);
    let (mut reads, mut edits) = (Vec::new(), Vec::new());
    let mut phase_s = 0.0;
    let mut peaks = Vec::new();
    let start = Instant::now();
    // One daemon per segment: a process's CPU cost per request depends on
    // where its code and heap landed, so a run spreads its requests over
    // several processes. Each segment's spawn-and-prime is a set-up.
    for seg in 1..=DAEMONS {
        let (mut daemon, mut reader, responses, cpu_s) = prime(cx, &ws)?;
        e2e.setup_s.push(cpu_s);
        e2e.full_fences = 0;
        for (i, resp) in responses.iter().enumerate() {
            let result = check_read(&ws, i, resp).map(|(full, _)| e2e.full_fences += full);
            tally.record("priming request", result);
        }
        let mut editor = daemon.connect()?;

        // The reader and the editor take turns, so that the daemon's CPU
        // clock around a request counts that request alone: a round of
        // reads (every text once), then one edit. Whole rounds only, so
        // every text is read equally often.
        let seg_start = Instant::now();
        let seg_end = start + dur * seg as u32 / DAEMONS as u32;
        loop {
            rng.shuffle(&mut order);
            for &i in &order {
                let t = timed(&daemon, &mut reader, &ws.lines[i], "reader")?;
                probe::after(t.wall_ms, &mut e2e.probe_ms);
                reads.push((i, t));
            }
            let (k, _, text) = edit_seq.next_edit();
            let line = analyze_line(k, &ws.names[k], &text);
            edits.push(timed(&daemon, &mut editor, &line, "editor")?);
            if Instant::now() >= seg_end {
                break;
            }
        }
        phase_s += seg_start.elapsed().as_secs_f64();
        peaks.push(daemon.peak_rss_mb());
        drop(editor);
        daemon.shutdown(reader)?;
    }

    e2e.peak_rss_mb = median(&peaks);

    // Each text's reads are reduced to their median first: the texts'
    // costs differ by orders of magnitude, and a median over all reads
    // would move with how many reads of each text the run happened to
    // make.
    let mut per_text = vec![Vec::new(); ws.lines.len()];
    let mut not_hit = 0;
    for (i, t) in &reads {
        let size = ws.inputs[*i].text.len();
        e2e.op_ms.push(t.wall_ms);
        per_text[*i].push(t.cpu_ms);
        let result = check_read(&ws, *i, &t.resp).map(|(_, hit)| {
            if !hit {
                not_hit += 1;
            } else if size <= SMALL_MAX {
                e2e.hit_small_ms.push(t.wall_ms);
            } else {
                e2e.hit_large_ms.push(t.wall_ms);
                e2e.hit_large_cpu_ms.push(t.cpu_ms);
            }
        });
        tally.record("read request", result);
    }
    for (i, cpu) in per_text.iter().enumerate().filter(|(_, c)| !c.is_empty()) {
        let ms = median(cpu);
        e2e.cpu_ms.push(ms);
        e2e.mb_per_s
            .push(ws.inputs[i].text.len() as f64 / 1e6 / (ms / 1e3));
    }
    eprintln!(
        "perfbench: serve_edit: {} reads ({not_hit} not answered from cache), {} edits",
        reads.len(),
        edits.len()
    );
    check_edits(cx, &ws, &edits, &mut e2e, tally)?;
    e2e.served_per_s = (reads.len() + edits.len()) as f64 / phase_s;
    Ok(e2e)
}

/// One daemon request as the client saw it.
struct Timed {
    wall_ms: f64,
    /// The daemon's CPU time from the request's send to its answer.
    cpu_ms: f64,
    resp: String,
}

fn timed(daemon: &Daemon, conn: &mut Conn, line: &str, who: &str) -> Result<Timed, String> {
    let (t, cpu) = (Instant::now(), daemon.cpu_ms()?);
    let resp = conn.request(line).map_err(|e| format!("{who}: {e}"))?;
    Ok(Timed {
        cpu_ms: daemon.cpu_ms()? - cpu,
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
        resp,
    })
}

/// The editor's deterministic edit sequence: rounds over the synthetic
/// modules in seeded order. Each edit is a fresh copy of the module's
/// working-set version with one seeded constant changed, stamped so that
/// no two edits share a text. An edit therefore differs in one function
/// from the version the reader keeps re-sending, and in at most two from
/// the previous edit, so the daemon's dirty-diff always has unchanged
/// functions to reuse. Replaying the sequence rebuilds every edit.
pub struct Edits<'a> {
    ws: &'a WorkingSet,
    rng: Rng,
    round: Vec<usize>,
    stamp: u64,
}

impl<'a> Edits<'a> {
    pub fn new(seed: u64, ws: &'a WorkingSet) -> Self {
        Edits {
            ws,
            rng: Rng::new(seed, gen::EDITS),
            round: Vec::new(),
            stamp: 0,
        }
    }

    /// The next edit: (working-set index, edited module, its text).
    pub fn next_edit(&mut self) -> (usize, fence_ir::Module, String) {
        if self.round.is_empty() {
            self.round = self.ws.synthetic.clone();
            self.rng.shuffle(&mut self.round);
        }
        let i = self.round.pop().expect("refilled above");
        self.stamp += 1;
        let mut module = self.ws.inputs[i].module.clone();
        gen::edit(&mut module, &mut self.rng, self.stamp);
        let text = print_module(&module);
        (i, module, text)
    }
}

/// Replays the edit sequence and checks every edited report against the
/// seed ordering stage and against the CLI's report for the same text.
fn check_edits(
    cx: &Cx,
    ws: &WorkingSet,
    edits: &[Timed],
    e2e: &mut E2e,
    tally: &mut Tally,
) -> Result<(), String> {
    if edits.is_empty() {
        return Ok(());
    }
    let dir = cx.work.join("edits");
    io(std::fs::create_dir_all(&dir), &dir)?;
    let mut replay = Edits::new(cx.seed, ws);
    let mut jobs = Vec::new();
    let mut expects = Vec::new();
    for k in 0..edits.len() {
        let (_, module, text) = replay.next_edit();
        expects.push(check::naive_control_x86(&module));
        let path = dir.join(format!("{k:06}.fir"));
        io(std::fs::write(&path, text), &path)?;
        jobs.push(job_name(&path));
    }
    let reference = cli_reports(cx, &dir, &jobs, &cx.work.join("edits_out"), tally)?;
    for (k, t) in edits.iter().enumerate() {
        e2e.edit_ms.push(t.wall_ms);
        e2e.edit_cpu_ms.push(t.cpu_ms);
        let result = parse_response(&t.resp).and_then(|r| {
            if r.cache != "incremental" {
                return Err(format!("edit {k}: cache {}, want incremental", r.cache));
            }
            if without_name(&r.report) != without_name(&reference[k]) {
                return Err(format!("edit {k}: report differs from the CLI's"));
            }
            check_report(&r.report, &expects[k], &format!("edit {k}")).map(|_| ())
        });
        tally.record("edit request", result);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
