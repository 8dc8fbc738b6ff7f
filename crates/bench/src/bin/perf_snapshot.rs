//! Wall-clock snapshot of the static-analysis pipeline, stage by stage,
//! over the full corpus plus a synthetic scaling point. Emits
//! `BENCH_analysis.json` so future PRs have a perf trajectory to compare
//! against:
//!
//! ```text
//! cargo run --release -p fence_bench --bin perf_snapshot
//! ```
//!
//! Stages: parse (textual-IR ingestion of the module's printed form, the
//! unit of work the streamed scheduler overlaps with analysis),
//! points-to (function-sharded worklist Andersen), escape
//! closure, acquire detection (Address+Control — the superset detector),
//! cfg (the cache-once `FuncSubstrate` builds: `Cfg` + `Reachability`,
//! once per function, exactly as the batch pipeline amortizes them),
//! ordering generation over the prebuilt substrates, and pruning + fence
//! minimization (x86-TSO). Each stage is run `REPS` times and the
//! minimum is reported, which is the usual low-noise estimator for short
//! deterministic workloads.
//!
//! An extra `overlap` line times the cfg/points-to phase the way the
//! pipeline actually schedules it — the module analysis and every
//! `FuncSubstrate` build as **one** pool pass. It re-measures work the
//! serial stages already cover, so it sits beside them in the report but
//! is excluded from `total`.
//!
//! The program list comes from the corpus manifest builder
//! (`kernel:* corpus:* synthetic:{4000,16000}`), and the snapshot also
//! times the **fleet driver** against the per-module batch loop over the
//! 26 kernel+corpus modules (the multi-module workload the fleet
//! schedules as one cross-module unit list).
//!
//! A `stream` section times the same multi-module workload fed as
//! printed texts: serial vs pooled parse throughput, and the full
//! resident streamed run (`window: None`) against the windowed admission
//! scheduler — recorded, like `fleet`, but not gated.
//!
//! A `service` section times the analysis service (`fenceplace serve`'s
//! core) over the same workload: a cold pass through a fresh
//! content-hashed cache vs a warm re-request of the identical corpus
//! (served from cache with zero pipeline work) — recorded, not gated.
//!
//! ## `--check` mode (the CI perf gate)
//!
//! ```text
//! cargo run --release -p fence_bench --bin perf_snapshot -- --check --tolerance 1.5
//! ```
//!
//! Re-measures the snapshot and compares each stage's corpus-wide total
//! against the committed `BENCH_analysis.json`. Exits non-zero if any
//! stage regressed by more than the tolerance factor; never rewrites the
//! committed file. Fleet timings are recorded but not gated (the
//! fleet-vs-loop ratio is hardware-dependent).

use corpus::Params;
use fence_analysis::{EscapeInfo, ModuleAnalysis, PointsTo};
use fence_ir::{FuncSubstrate, Module};
use fenceplace::acquire::{detect_acquires, DetectMode};
use fenceplace::minimize::minimize_function;
use fenceplace::orderings::FuncOrderings;
use fenceplace::{
    run_fleet_opts, run_fleet_streamed, run_pipeline_batch, FleetJob, FleetOptions, PipelineConfig,
    Service, ServiceOptions, StreamItem, TargetModel, Variant,
};
use std::time::Instant;

const REPS: usize = 3;
const BENCH_PATH: &str = "BENCH_analysis.json";
/// Admission window for the streamed timing section.
const STREAM_WINDOW: usize = 4;
const STAGES: [&str; 9] = [
    "parse",
    "points_to",
    "escape",
    "acquire",
    "cfg",
    "overlap",
    "orderings",
    "minimize",
    "total",
];

#[derive(Default, Clone, Copy)]
struct StageMs {
    /// Parsing the module's printed textual form — the ingest work the
    /// streamed scheduler runs as a pool unit.
    parse: f64,
    points_to: f64,
    escape: f64,
    acquire: f64,
    cfg: f64,
    /// Wall clock of the pipeline's *overlapped* analysis+substrate pass
    /// (one unit list: the module analysis plus every `FuncSubstrate`).
    /// Re-times work already attributed to `points_to`/`escape`/`cfg`,
    /// so it is reported alongside them but excluded from `total`.
    overlap: f64,
    orderings: f64,
    minimize: f64,
}

impl StageMs {
    fn total(&self) -> f64 {
        self.parse
            + self.points_to
            + self.escape
            + self.acquire
            + self.cfg
            + self.orderings
            + self.minimize
    }

    fn add(&mut self, o: &StageMs) {
        self.parse += o.parse;
        self.points_to += o.points_to;
        self.escape += o.escape;
        self.acquire += o.acquire;
        self.cfg += o.cfg;
        self.overlap += o.overlap;
        self.orderings += o.orderings;
        self.minimize += o.minimize;
    }

    fn get(&self, stage: &str) -> f64 {
        match stage {
            "parse" => self.parse,
            "points_to" => self.points_to,
            "escape" => self.escape,
            "acquire" => self.acquire,
            "cfg" => self.cfg,
            "overlap" => self.overlap,
            "orderings" => self.orderings,
            "minimize" => self.minimize,
            "total" => self.total(),
            _ => unreachable!("unknown stage {stage}"),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"parse\": {:.3}, \"points_to\": {:.3}, \"escape\": {:.3}, \"acquire\": {:.3}, \"cfg\": {:.3}, \"overlap\": {:.3}, \"orderings\": {:.3}, \"minimize\": {:.3}, \"total\": {:.3}}}",
            self.parse, self.points_to, self.escape, self.acquire, self.cfg, self.overlap, self.orderings, self.minimize, self.total()
        )
    }
}

fn time_min<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn snapshot(module: &Module) -> StageMs {
    let text = fence_ir::printer::print_module(module);
    let mut s = StageMs {
        parse: time_min(|| fence_ir::parser::parse_module(&text).expect("printed module parses")),
        points_to: time_min(|| PointsTo::analyze(module)),
        ..StageMs::default()
    };
    let pt = PointsTo::analyze(module);
    s.escape = time_min(|| EscapeInfo::analyze(module, &pt));
    let an = ModuleAnalysis::run(module);
    s.acquire = time_min(|| {
        for (fid, _) in module.iter_funcs() {
            std::hint::black_box(
                detect_acquires(
                    module,
                    &an.points_to,
                    &an.escape,
                    fid,
                    DetectMode::AddressControl,
                )
                .count(),
            );
        }
    });
    // The cache-once CFG substrate: built exactly once per function per
    // batch by the pipeline; measured as its own stage here.
    s.cfg = time_min(|| {
        for (_, func) in module.iter_funcs() {
            std::hint::black_box(FuncSubstrate::new(func));
        }
    });
    // The overlapped cfg/points-to phase exactly as the batch pipeline
    // schedules it: one pool pass over `n + 1` units, unit 0 the whole
    // module analysis (points-to + escape), units `1..=n` the substrate
    // builds. On a multi-core host this wall clock approaches
    // `max(analysis, substrates)`; serial it degrades to the sum.
    s.overlap = time_min(|| {
        let n = module.funcs.len();
        let next = std::sync::atomic::AtomicUsize::new(0);
        fence_ir::pool::ThreadPool::global().run_scoped(n + 1, &|| loop {
            let u = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if u > n {
                break;
            }
            if u == 0 {
                std::hint::black_box(ModuleAnalysis::run_on(module, false));
            } else {
                std::hint::black_box(FuncSubstrate::new(
                    module.func(fence_ir::FuncId::new(u - 1)),
                ));
            }
        });
    });
    let substrates: Vec<FuncSubstrate> = module
        .iter_funcs()
        .map(|(_, func)| FuncSubstrate::new(func))
        .collect();
    s.orderings = time_min(|| {
        for (fid, _) in module.iter_funcs() {
            std::hint::black_box(
                FuncOrderings::generate(module, &an.escape, fid, &substrates[fid.index()]).counts(),
            );
        }
    });
    // Pruning + minimization against the Control detector on x86-TSO (the
    // pipeline default).
    let sync: Vec<_> = module
        .iter_funcs()
        .map(|(fid, _)| {
            detect_acquires(module, &an.points_to, &an.escape, fid, DetectMode::Control).sync_reads
        })
        .collect();
    let ords: Vec<_> = module
        .iter_funcs()
        .map(|(fid, _)| FuncOrderings::generate(module, &an.escape, fid, &substrates[fid.index()]))
        .collect();
    s.minimize = time_min(|| {
        for (fid, func) in module.iter_funcs() {
            let kept = ords[fid.index()].prune(&sync[fid.index()]);
            // The fused split: aggregate computation (shared with
            // counting in the pipeline's per-variant cache) is
            // attributed here, to the consumer.
            let aggs = kept.aggregates();
            let entry = !sync[fid.index()].is_empty();
            std::hint::black_box(minimize_function(
                func,
                fid,
                &kept,
                &aggs,
                TargetModel::X86Tso,
                entry,
            ));
        }
    });
    s
}

/// Fleet-vs-loop timing over the multi-module kernel+corpus workload:
/// `(fleet_ms, loop_ms)`, both minima over `REPS` runs of the same
/// 3-variant sweep.
fn fleet_vs_loop(entries: &[corpus::ManifestEntry]) -> (f64, f64) {
    let configs = vec![
        PipelineConfig::for_variant(Variant::Pensieve),
        PipelineConfig::for_variant(Variant::AddressControl),
        PipelineConfig::for_variant(Variant::Control),
    ];
    let jobs: Vec<FleetJob<'_>> = entries
        .iter()
        .map(|e| FleetJob::new(e.name.clone(), &e.module, configs.clone()))
        .collect();
    let fleet_ms = time_min(|| {
        run_fleet_opts(
            &jobs,
            &FleetOptions {
                parallel: true,
                ..FleetOptions::default()
            },
        )
    });
    let loop_ms = time_min(|| {
        for e in entries {
            std::hint::black_box(run_pipeline_batch(&e.module, &configs));
        }
    });
    (fleet_ms, loop_ms)
}

/// Streamed-ingestion timings over the multi-module workload fed as
/// printed texts: serial vs pooled parse throughput, and resident
/// (`window: None`) vs windowed streamed runs of the same single-config
/// fleet. Demonstrates that windowed admission with off-thread parsing
/// keeps wall-clock at (or under, multi-core) the resident run.
fn stream_snapshot(entries: &[corpus::ManifestEntry]) -> String {
    let texts: Vec<(String, String)> = entries
        .iter()
        .map(|e| (e.name.clone(), fence_ir::printer::print_module(&e.module)))
        .collect();
    let strs: Vec<&str> = texts.iter().map(|(_, t)| t.as_str()).collect();
    let parse_serial = time_min(|| fence_ir::parser::parse_modules(&strs, false));
    let parse_pooled = time_min(|| fence_ir::parser::parse_modules(&strs, true));

    let configs = vec![PipelineConfig::for_variant(Variant::Control)];
    let run = |window: Option<usize>| {
        time_min(|| {
            let items: Vec<StreamItem> = texts
                .iter()
                .map(|(name, text)| StreamItem::Text {
                    name: name.clone(),
                    text: text.clone(),
                })
                .collect();
            let opts = FleetOptions {
                parallel: true,
                window,
                ..FleetOptions::default()
            };
            run_fleet_streamed(items, &configs, &opts, |_, _| {})
        })
    };
    let resident_ms = run(None);
    let streamed_ms = run(Some(STREAM_WINDOW));
    format!(
        "{{\"modules\": {}, \"window\": {STREAM_WINDOW}, \"parse_serial_ms\": {parse_serial:.3}, \
         \"parse_pooled_ms\": {parse_pooled:.3}, \"resident_ms\": {resident_ms:.3}, \
         \"streamed_ms\": {streamed_ms:.3}}}",
        texts.len()
    )
}

/// Analysis-service timings over the multi-module workload fed as
/// printed texts: a cold pass through a fresh service (content hashing,
/// parse, validate, full pipeline) vs a warm re-request of the same
/// corpus, which the content-hashed cache answers with zero pipeline
/// work (`tests/service.rs` pins the zero, this pins the wall-clock
/// payoff).
fn service_snapshot(entries: &[corpus::ManifestEntry]) -> String {
    let texts: Vec<(String, String)> = entries
        .iter()
        .map(|e| (e.name.clone(), fence_ir::printer::print_module(&e.module)))
        .collect();
    let configs = vec![PipelineConfig::for_variant(Variant::Control)];
    let cold_ms = time_min(|| {
        let mut service = Service::new(ServiceOptions::default());
        for (name, text) in &texts {
            std::hint::black_box(service.analyze(name, text, &configs, None));
        }
    });
    let mut warm = Service::new(ServiceOptions::default());
    for (name, text) in &texts {
        warm.analyze(name, text, &configs, None);
    }
    let warm_ms = time_min(|| {
        for (name, text) in &texts {
            std::hint::black_box(warm.analyze(name, text, &configs, None));
        }
    });
    format!(
        "{{\"modules\": {}, \"cold_ms\": {cold_ms:.3}, \"warm_ms\": {warm_ms:.3}, \"speedup\": {:.3}}}",
        texts.len(),
        cold_ms / warm_ms.max(1e-9)
    )
}

fn measure() -> (Vec<(String, StageMs)>, StageMs, String) {
    let p = Params::default();
    let mut rows: Vec<(String, StageMs)> = Vec::new();
    let multi = corpus::manifest::full_fleet(&p);
    for e in &multi {
        rows.push((e.name.clone(), snapshot(&e.module)));
    }
    for spec in ["synthetic:4000", "synthetic:16000"] {
        for e in corpus::resolve_spec(spec, &p).expect("builtin spec") {
            rows.push((e.name, snapshot(&e.module)));
        }
    }

    let mut totals = StageMs::default();
    for (_, s) in &rows {
        totals.add(s);
    }

    let (fleet_ms, loop_ms) = fleet_vs_loop(&multi);
    let fleet_json = format!(
        "{{\"modules\": {}, \"configs\": 3, \"fleet_ms\": {fleet_ms:.3}, \"loop_ms\": {loop_ms:.3}, \"speedup\": {:.3}}}",
        multi.len(),
        loop_ms / fleet_ms.max(1e-9)
    );

    let mut out = String::from("{\n  \"unit\": \"ms\",\n  \"programs\": [\n");
    for (i, (name, s)) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"stages\": {}}}{}\n",
            s.json(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!("  ],\n  \"totals\": {},\n", totals.json()));
    out.push_str(&format!("  \"fleet\": {fleet_json},\n"));
    out.push_str(&format!("  \"stream\": {},\n", stream_snapshot(&multi)));
    out.push_str(&format!(
        "  \"service\": {}\n}}\n",
        service_snapshot(&multi)
    ));
    (rows, totals, out)
}

/// Pulls `"stage": <num>` out of the committed snapshot's `"totals"`
/// line. The file is machine-written by this binary, so a line-anchored
/// scan is exact, not heuristic.
fn committed_totals(text: &str) -> Result<StageMs, String> {
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("\"totals\""))
        .ok_or("no \"totals\" line in committed snapshot")?;
    let field = |key: &str| -> Result<f64, String> {
        let pat = format!("\"{key}\": ");
        let at = line
            .find(&pat)
            .ok_or_else(|| format!("no `{key}` in totals line"))?;
        let rest = &line[at + pat.len()..];
        let end = rest
            .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end]
            .parse()
            .map_err(|e| format!("bad `{key}` value: {e}"))
    };
    Ok(StageMs {
        parse: field("parse")?,
        points_to: field("points_to")?,
        escape: field("escape")?,
        acquire: field("acquire")?,
        cfg: field("cfg")?,
        overlap: field("overlap")?,
        orderings: field("orderings")?,
        minimize: field("minimize")?,
    })
}

fn check(tolerance: f64) -> i32 {
    let committed = match std::fs::read_to_string(BENCH_PATH) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf check: cannot read {BENCH_PATH}: {e}");
            return 2;
        }
    };
    let baseline = match committed_totals(&committed) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perf check: cannot parse {BENCH_PATH}: {e}");
            return 2;
        }
    };
    let (_, fresh, _) = measure();
    let mut failed = 0;
    println!(
        "{:<12} {:>12} {:>12} {:>8}  (tolerance {tolerance:.2}x)",
        "stage", "baseline ms", "fresh ms", "ratio"
    );
    for stage in STAGES {
        let base = baseline.get(stage);
        let now = fresh.get(stage);
        let ratio = if base > 0.0 { now / base } else { 1.0 };
        let verdict = if ratio > tolerance {
            failed += 1;
            "  << REGRESSION"
        } else {
            ""
        };
        println!("{stage:<12} {base:>12.3} {now:>12.3} {ratio:>7.2}x{verdict}");
    }
    if failed > 0 {
        eprintln!("perf check FAILED: {failed} stage(s) regressed beyond {tolerance:.2}x");
        1
    } else {
        println!("perf check OK: no stage regressed beyond {tolerance:.2}x");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check_mode = false;
    let mut tolerance = 1.5f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check_mode = true,
            "--tolerance" => {
                let v = it.next().expect("--tolerance needs a value");
                tolerance = v.parse().expect("--tolerance wants a number");
                // A tolerance only means anything when gating; never let
                // it fall through to write mode and silently overwrite
                // the committed baseline.
                check_mode = true;
            }
            other => panic!("unknown argument `{other}` (known: --check, --tolerance X)"),
        }
    }
    if check_mode {
        std::process::exit(check(tolerance));
    }

    let (rows, _, out) = measure();
    std::fs::write(BENCH_PATH, &out).expect("write BENCH_analysis.json");
    println!("{out}");
    println!("wrote {BENCH_PATH} ({} programs)", rows.len());
}
