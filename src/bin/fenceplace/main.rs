//! `fenceplace` — the batch CLI over the fleet driver.
//!
//! Loads a manifest of corpus/kernel/synthetic/file programs plus
//! variant × target configs, runs the whole set as **one fleet** (every
//! per-(module, function) work unit scheduled onto the persistent pool,
//! reachability rows interned fleet-wide), and emits per-module JSON
//! reports plus a roll-up — the repo as a drivable batch service.
//!
//! ```text
//! cargo run --release --bin fenceplace -- --manifest fleet.manifest --out reports/
//! cargo run --release --bin fenceplace -- --program kernel:* --config Control:x86tso
//! cargo run --release --bin fenceplace -- --list
//! ```
//!
//! Two subcommands wrap the same engine as a resident service:
//! `fenceplace serve` (see [`serve`]) keeps analyses cached between
//! requests behind a newline-delimited JSON protocol (`docs/PROTOCOL.md`),
//! and `fenceplace client` (see [`client`]) drives a running daemon.
//!
//! Manifest format (line-based; `#` starts a comment):
//!
//! ```text
//! program kernel:*
//! program corpus:FFT
//! program synthetic:4000
//! program file:path/to/module.fir
//! program dir:path/to/modules
//! program pack:path/to/corpus.pack
//! config Control x86tso
//! config Pensieve weak
//! threads 8
//! scale 16
//! ```
//!
//! # Streaming
//!
//! Every run goes through one entry point, `fenceplace::run_fleet_streamed`:
//! file-backed specs are read lazily, each module's text parses as a
//! pool work unit, and each per-module report is spilled to `--out` the
//! moment that module retires. Without `--window` the whole stream is
//! materialized and the resident scheduler runs it (rows interned
//! fleet-wide); `--window N` admits at most N modules at once, each
//! text's parse overlapped with other modules' analysis, so peak memory
//! is O(window). Per-module reports are byte-identical either way.
//!
//! # Failure model and exit codes
//!
//! The fleet quarantines sick modules instead of dying: a module that
//! fails IR validation, panics in a work unit, or blows `--budget` is
//! reported with a structured status (its slot in the per-module JSON
//! and `fleet_summary.json` carries the stage and error) while every
//! other module completes normally. Load problems are quarantined per
//! item in admission order: an unreadable file is a `load_failed` slot,
//! an unparsable text an `invalid_ir` slot, and a duplicate module name
//! a `load_failed` slot that writes no report of its own — each exit 2,
//! never aborting the run.
//! `--fail-fast` checks once the fleet drains and, on a trip, removes
//! the reports the run spilled.
//!
//! | exit | meaning                                                    |
//! |------|------------------------------------------------------------|
//! | 0    | every module completed                                     |
//! | 1    | fatal: bad usage, unresolvable spec, I/O error, `--fail-fast` trip |
//! | 2    | partial success: some modules quarantined (including load failures and duplicates) or a `--certify` run came back unsound; reports written |

mod client;
mod serve;

use corpus::manifest::available;
use corpus::{ModuleSource, Params};
use fence_suite::stream_items;
use fenceplace::json::{file_stem, json_escape, module_json, outcome_fields, target_name};
use fenceplace::service::wire::parse_config_spec as parse_config;
use fenceplace::{
    run_fleet_streamed, CertifyOptions, FleetOptions, FleetStats, ModuleOutcome, PipelineConfig,
    PipelineResult, StreamItem, StreamSummary,
};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

/// A program spec plus the manifest file/line it came from (None for
/// command-line specs), so resolution errors point at the right entry.
struct SpecAt {
    spec: String,
    origin: Option<(String, u32)>,
}

struct Cli {
    specs: Vec<SpecAt>,
    configs: Vec<PipelineConfig>,
    params: Params,
    parallel: bool,
    out_dir: Option<String>,
    list: bool,
    fail_fast: bool,
    budget: Option<u64>,
    certify: Option<CertifyOptions>,
    window: Option<usize>,
}

/// What `parse_args` decided: run, or print help and exit 0.
enum Parsed {
    Run(Cli),
    Help,
}

fn usage() -> &'static str {
    "fenceplace — batch fence placement over a program manifest (fleet-backed)

USAGE:
  fenceplace [--manifest FILE] [--program SPEC]... [--config V:T]... [options]
  fenceplace serve (--socket PATH | --stdio) [options]   resident daemon
  fenceplace client --socket PATH [options]              drive a daemon
  (`fenceplace serve --help` / `fenceplace client --help` for their options)

OPTIONS:
  --manifest FILE    read `program`/`config`/`threads`/`scale` lines from FILE
  --program SPEC     add a program spec: kernel:NAME|*, corpus:NAME|*,
                     manual:NAME|*, synthetic:N, file:PATH, dir:PATH,
                     pack:PATH  (repeatable)
  --config V:T       add a config, variant:target — variants Pensieve|Control|
                     AddressControl|Manual, targets x86tso|sc|weak (repeatable;
                     default Control:x86tso)
  --threads N        corpus build parameter (default 8)
  --scale N          corpus build parameter (default 16)
  --seq              run the fleet sequentially (default: persistent pool)
  --window N         admit at most N modules at once: a new module is
                     admitted as a prior one retires, so peak memory is
                     O(window), not O(corpus); reports are byte-identical
                     to a run without --window
  --budget N         deterministic per-module step budget: a module whose
                     static instruction-count spend exceeds N is quarantined
                     as deadline_exceeded (never wall-clock)
  --fail-fast        exit 1 if any module failed instead of quarantining
                     it; checked once the fleet drains, and the reports
                     the run spilled to --out are removed again
  --certify          after placement, model-check every (module, config):
                     bounded exhaustive interleaving under the target model,
                     proving SC-equivalence for race-free thread groups and
                     minimality of every placed fence
  --certify-states N total distinct-state budget per certification run
                     (implies --certify; default 400000)
  --out DIR          write per-module JSON reports + fleet_summary.json to DIR
  --list             print every concrete program spec and exit
  --help             this text

EXIT CODES:
  0  every module completed
  1  fatal error (bad usage, unresolvable spec, I/O error, --fail-fast trip)
  2  partial success (some modules quarantined — including unreadable files
     and duplicate names — or a certification came back unsound; reports
     still written)
"
}

fn parse_manifest(path: &str, cli: &mut Cli) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read manifest {path}: {e}"))?;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let loc = || format!("{path}:{}", ln + 1);
        let (key, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match key {
            "program" => cli.specs.push(SpecAt {
                spec: rest.to_string(),
                origin: Some((path.to_string(), ln as u32 + 1)),
            }),
            "config" => {
                // `config Control x86tso` or `config Control:x86tso`
                let spec = rest.split_whitespace().collect::<Vec<_>>().join(":");
                cli.configs
                    .push(parse_config(&spec).map_err(|e| format!("{}: {e}", loc()))?);
            }
            "threads" => {
                cli.params.threads = rest
                    .parse()
                    .map_err(|_| format!("{}: bad threads `{rest}`", loc()))?;
            }
            "scale" => {
                cli.params.scale = rest
                    .parse()
                    .map_err(|_| format!("{}: bad scale `{rest}`", loc()))?;
            }
            other => return Err(format!("{}: unknown directive `{other}`", loc())),
        }
    }
    Ok(())
}

fn parse_args(args: &[String]) -> Result<Parsed, String> {
    let mut cli = Cli {
        specs: Vec::new(),
        configs: Vec::new(),
        params: Params::default(),
        parallel: true,
        out_dir: None,
        list: false,
        fail_fast: false,
        budget: None,
        certify: None,
        window: None,
    };
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--manifest" => {
                let path = need(&mut it, "--manifest")?;
                parse_manifest(&path, &mut cli)?;
            }
            "--program" => {
                let spec = need(&mut it, "--program")?;
                cli.specs.extend(spec.split(',').map(|s| SpecAt {
                    spec: s.to_string(),
                    origin: None,
                }));
            }
            "--config" => {
                let spec = need(&mut it, "--config")?;
                cli.configs.push(parse_config(&spec)?);
            }
            "--threads" => {
                let v = need(&mut it, "--threads")?;
                cli.params.threads = v.parse().map_err(|_| format!("bad --threads `{v}`"))?;
            }
            "--scale" => {
                let v = need(&mut it, "--scale")?;
                cli.params.scale = v.parse().map_err(|_| format!("bad --scale `{v}`"))?;
            }
            "--budget" => {
                let v = need(&mut it, "--budget")?;
                cli.budget = Some(v.parse().map_err(|_| format!("bad --budget `{v}`"))?);
            }
            "--fail-fast" => cli.fail_fast = true,
            "--certify" => {
                cli.certify.get_or_insert_with(CertifyOptions::default);
            }
            "--certify-states" => {
                let v = need(&mut it, "--certify-states")?;
                let max_states = v
                    .parse()
                    .map_err(|_| format!("bad --certify-states `{v}`"))?;
                cli.certify
                    .get_or_insert_with(CertifyOptions::default)
                    .max_states = max_states;
            }
            "--seq" => cli.parallel = false,
            "--window" => {
                let v = need(&mut it, "--window")?;
                let w: usize = v.parse().map_err(|_| format!("bad --window `{v}`"))?;
                if w == 0 {
                    return Err(
                        "bad --window `0`: the window must admit at least one module".into(),
                    );
                }
                cli.window = Some(w);
            }
            "--out" => cli.out_dir = Some(need(&mut it, "--out")?),
            "--list" => cli.list = true,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.configs.is_empty() {
        cli.configs.push(PipelineConfig::default());
    }
    Ok(Parsed::Run(cli))
}

/// Per-config roll-up totals, folded over completed modules (a
/// quarantined module has no results to count) in the completion sink
/// as each module retires.
#[derive(Clone, Copy, Default)]
struct ConfigTotals {
    full_fences: usize,
    compiler_fences: usize,
    acquires: usize,
    fence_points: usize,
}

impl ConfigTotals {
    fn add(&mut self, r: &PipelineResult) {
        self.full_fences += r.report.full_fences();
        self.compiler_fences += r.report.compiler_fences();
        self.acquires += r.report.acquires();
        self.fence_points += r.points.len();
    }
}

/// The roll-up JSON (`fleet_summary.json` and stdout), built from the
/// O(1)-per-module summaries and incrementally folded totals — the full
/// results were spilled through the completion sink, never retained —
/// plus a `"stream"` block recording the admission window (`null`
/// without `--window`) and the peak-residency counters it bounds.
fn summary_json(
    configs: &[PipelineConfig],
    summaries: &[StreamSummary],
    totals: &[ConfigTotals],
    stats: &FleetStats,
    window: Option<usize>,
    wall_ms: f64,
) -> String {
    let load_failures = summaries
        .iter()
        .filter(|s| matches!(s.outcome, ModuleOutcome::LoadFailed { .. }))
        .count();
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"programs\": {}, \"configs_per_program\": {}, \"functions\": {},",
        summaries.len(),
        configs.len(),
        stats.functions
    );
    let _ = writeln!(
        out,
        "  \"modules_failed\": {}, \"load_failures\": {load_failures},",
        stats.failed
    );
    let _ = writeln!(
        out,
        "  \"fleet\": {{\"analyses\": {}, \"substrates\": {}, \"unique_rows\": {}, \
         \"row_hits\": {}, \"row_words\": {}, \"certifications\": {}, \
         \"certify_unsound\": {}, \"wall_ms\": {wall_ms:.3}}},",
        stats.analyses,
        stats.substrates,
        stats.unique_rows,
        stats.row_hits,
        stats.row_words,
        stats.certifications,
        stats.certify_unsound
    );
    let window_json = match window {
        Some(w) => w.to_string(),
        None => "null".to_string(),
    };
    let _ = writeln!(
        out,
        "  \"stream\": {{\"window\": {window_json}, \"peak_resident_modules\": {}, \
         \"peak_resident_insts\": {}}},",
        stats.peak_resident_modules, stats.peak_resident_insts
    );
    out.push_str("  \"modules\": [\n");
    for (i, s) in summaries.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", {}}}{}",
            json_escape(&s.name),
            outcome_fields(&s.outcome),
            if i + 1 < summaries.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"totals\": [\n");
    for (c, (config, t)) in configs.iter().zip(totals).enumerate() {
        let _ = writeln!(
            out,
            "    {{\"variant\": \"{}\", \"target\": \"{}\", \"full_fences\": {}, \
             \"compiler_fences\": {}, \"acquires\": {}, \"fence_points\": {}}}{}",
            json_escape(config.variant.name()),
            target_name(config.target),
            t.full_fences,
            t.compiler_fences,
            t.acquires,
            t.fence_points,
            if c + 1 < configs.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the batch. `Ok(0)` = clean, `Ok(2)` = partial success, `Err` =
/// fatal (exit 1).
///
/// Specs resolve through a [`ModuleSource`]: built-in families eagerly
/// (a typo is fatal before the run starts), file-backed specs lazily,
/// one item per module. Texts parse as pool work units, each per-module
/// report is spilled to `--out` the moment that module retires, and only
/// O(1) state per module (its [`StreamSummary`] plus the folded totals)
/// is retained.
fn run(cli: &Cli) -> Result<u8, String> {
    if cli.list {
        for spec in available() {
            println!("{spec}");
        }
        println!("synthetic:N");
        println!("file:PATH");
        println!("dir:PATH");
        println!("pack:PATH");
        return Ok(0);
    }
    if cli.specs.is_empty() {
        return Err("no programs: pass --program SPEC or --manifest FILE (see --help)".into());
    }
    let mut source = ModuleSource::new(cli.params);
    for s in &cli.specs {
        let pushed = match &s.origin {
            Some((file, line)) => source.push_spec_at(&s.spec, file, *line),
            None => source.push_spec(&s.spec),
        };
        pushed.map_err(|e| e.to_string())?;
    }
    let created_out = match &cli.out_dir {
        Some(dir) => {
            let existed = Path::new(dir).exists();
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
            !existed
        }
        None => false,
    };

    // Admission-time dedup: a lazy stream cannot look ahead, so the
    // duplicate itself is quarantined (exit 2) and the batch runs on. Its
    // admission index is kept so the sink writes no report for it: the
    // file would carry the first program's name and overwrite its report.
    let duplicates = Mutex::new(HashSet::new());
    let mut seen = HashSet::new();
    let items = stream_items(source).enumerate().map(|(index, item)| {
        let name = match &item {
            StreamItem::Module { name, .. }
            | StreamItem::Text { name, .. }
            | StreamItem::Failed { name, .. } => name.clone(),
        };
        if seen.insert(name.clone()) {
            item
        } else {
            duplicates.lock().unwrap().insert(index);
            StreamItem::Failed {
                name,
                error: "duplicate program: specs overlap (e.g. a wildcard plus a named spec)"
                    .into(),
            }
        }
    });

    let opts = FleetOptions {
        parallel: cli.parallel,
        budget: cli.budget,
        certify: cli.certify,
        window: cli.window,
        ..FleetOptions::default()
    };

    // Everything the roll-up needs is folded here as modules retire; the
    // full FleetResult is spilled to disk and dropped.
    let mut totals = vec![ConfigTotals::default(); cli.configs.len()];
    let mut unsound: Vec<String> = Vec::new();
    let mut spill_err: Option<String> = None;
    let mut written = 0usize;
    let t = Instant::now();
    let (summaries, stats) = run_fleet_streamed(items, &cli.configs, &opts, |index, fr| {
        for (tot, r) in totals.iter_mut().zip(&fr.results) {
            tot.add(r);
        }
        for (config, cr) in cli.configs.iter().zip(&fr.certifications) {
            if cr.status() == fenceplace::CertifyStatus::Unsound {
                unsound.push(format!(
                    "unsound: {} [{}:{}] — a race-free thread group reaches a non-SC outcome",
                    fr.name,
                    config.variant.name(),
                    target_name(config.target)
                ));
            }
        }
        if let Some(dir) = &cli.out_dir {
            if spill_err.is_none() && !duplicates.lock().unwrap().contains(&index) {
                let path = format!("{dir}/{}.json", file_stem(&fr.name));
                match std::fs::write(&path, module_json(&fr.name, &cli.configs, &fr)) {
                    Ok(()) => written += 1,
                    Err(e) => spill_err = Some(format!("cannot write {path}: {e}")),
                }
            }
        }
    });
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    if let Some(e) = spill_err {
        return Err(e);
    }
    if summaries.is_empty() {
        return Err("no programs resolved".into());
    }

    // A failure may surface after later modules already retired, so the
    // check runs once the fleet drains: a trip takes back every report
    // this run spilled (one per summary) and the `--out` it created.
    if cli.fail_fast {
        if let Some(bad) = summaries.iter().find(|s| !s.outcome.is_ok()) {
            if let Some(dir) = &cli.out_dir {
                for s in &summaries {
                    let _ = std::fs::remove_file(format!("{dir}/{}.json", file_stem(&s.name)));
                }
                if created_out {
                    let _ = std::fs::remove_dir(dir);
                }
            }
            return Err(format!(
                "--fail-fast: module `{}` {}",
                bad.name, bad.outcome
            ));
        }
    }

    let summary = summary_json(
        &cli.configs,
        &summaries,
        &totals,
        &stats,
        cli.window,
        wall_ms,
    );
    if let Some(dir) = &cli.out_dir {
        let path = format!("{dir}/fleet_summary.json");
        std::fs::write(&path, &summary).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {written} module reports + fleet_summary.json to {dir}");
    }
    print!("{summary}");

    if stats.failed > 0 {
        for s in summaries.iter().filter(|s| !s.outcome.is_ok()) {
            eprintln!("quarantined: {} — {}", s.name, s.outcome);
        }
        eprintln!(
            "{} of {} modules quarantined (exit 2: partial success)",
            stats.failed,
            summaries.len()
        );
        return Ok(2);
    }
    if stats.certify_unsound > 0 {
        for line in &unsound {
            eprintln!("{line}");
        }
        eprintln!(
            "{} certification(s) unsound (exit 2: partial success)",
            stats.certify_unsound
        );
        return Ok(2);
    }
    Ok(0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            return match serve::run(&args[1..]) {
                Ok(code) => ExitCode::from(code),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("client") => {
            return match client::run(&args[1..]) {
                Ok(code) => ExitCode::from(code),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {}
    }
    let cli = match parse_args(&args) {
        Ok(Parsed::Run(cli)) => cli,
        Ok(Parsed::Help) => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match run(&cli) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
