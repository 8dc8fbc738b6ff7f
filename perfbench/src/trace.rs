//! The traced run: replays a workload's inputs through each layer's
//! public functions, with a span recorded in this file around every
//! call, and reports per-layer self times and work counters.
//!
//! One *rep* replays the work of one operation: for the CLI workloads
//! the whole invocation (read, parse, analyze, place, render, then the
//! fleet driver on the same inputs), for `serve_edit` a fixed request
//! mix against a fresh in-process `Service`. Reps alternate between
//! traced (spans recorded) and untraced (the same code, recorder off);
//! the difference of their medians is the tracing overhead. Every rep
//! opens root spans, and every layer span is a direct child of a root,
//! so per rep the layer self times plus the roots' own self time
//! (`unattributed_ms`) add up to the traced wall clock exactly.

use crate::check::{self, Expect};
use crate::gen::Rng;
use crate::stats::{median, tail};
use crate::workloads::{self, Configs, Edits, WorkingSet, SMALL_MAX};
use crate::{gen, metric, Cx, Metric, Tally};
use fence_analysis::{AliasOracle, EscapeInfo, PointsTo};
use fence_ir::cfg::{FuncSubstrate, RowInterner};
use fence_ir::{FenceKind, FuncId, Module};
use fenceplace::acquire::{detect_acquires_with, pensieve_all_reads, AcquireInfo, DetectMode};
use fenceplace::json::{cert_json, config_json, module_json_parts};
use fenceplace::minimize::{minimize_function, FencePoint};
use fenceplace::orderings::FuncOrderings;
use fenceplace::service::wire::{self, parse_config_spec, Request};
use fenceplace::service::{CacheDisposition, Service, ServiceOptions};
use fenceplace::{
    certify, run_fleet_opts, run_fleet_streamed, CertifyOptions, CertifyStatus, FleetJob,
    FleetOptions, FuncReport, ModuleOutcome, ModuleReport, PipelineConfig, PipelineResult,
    StreamItem, Variant,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    req: u64,
}

/// An in-memory span recorder. When off, `begin`/`end`/`leaf` record no
/// spans and read the clock only at root spans, whose total time is
/// kept either way: an untraced rep times the same regions as a traced
/// one, minus the recording.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    depth: usize,
    root_start: Instant,
    /// Total duration of the root spans closed since the last reset.
    roots_ns: u64,
}

impl Tracer {
    fn new() -> Self {
        let now = Instant::now();
        Tracer {
            on: false,
            t0: now,
            spans: Vec::new(),
            stack: Vec::new(),
            depth: 0,
            root_start: now,
            roots_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, req: u64) {
        if self.depth == 0 {
            self.root_start = Instant::now();
        }
        self.depth += 1;
        if self.on {
            let start = self.now();
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: self.stack.last().copied(),
                req,
            });
            self.stack.push(self.spans.len() - 1);
        }
    }

    fn end(&mut self) {
        if self.on {
            let i = self.stack.pop().expect("end without begin");
            self.spans[i].end = self.now();
        }
        self.depth -= 1;
        if self.depth == 0 {
            self.roots_ns += self.root_start.elapsed().as_nanos() as u64;
        }
    }

    /// A leaf span around one call into a layer.
    fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let req = self.stack.last().map_or(0, |&i| self.spans[i].req);
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    /// Duration (ms) of the most recently closed span.
    fn last_ms(&self) -> f64 {
        self.spans
            .last()
            .map_or(0.0, |s| (s.end - s.start) as f64 / 1e6)
    }
}

/// Per-rep work counters and per-request samples.
#[derive(Default)]
struct Rep {
    counts: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Rep {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_default() += v;
    }

    fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }
}

/// One rep of a workload's replay.
type Replay = Box<dyn FnMut(&mut Tracer, &mut Rep, &mut Tally) -> Result<(), String>>;

/// Every layer span name, in report order, with the metric its
/// per-rep self time is reported as.
const LAYERS: [(&str, &str); 18] = [
    ("parser", "parser.ms"),
    ("manifest", "manifest.split_ms"),
    ("verify", "verify.ms"),
    ("pointsto", "pointsto.ms"),
    ("escape", "escape.ms"),
    ("cfg", "cfg.ms"),
    ("acquire", "acquire.ms"),
    ("orderings", "orderings.ms"),
    ("minimize", "minimize.ms"),
    ("insert", "insert.ms"),
    ("json", "json.ms"),
    ("fleet", "fleet.ms"),
    ("fleet.seq", "fleet.seq_ms"),
    ("hash", "hash.ms"),
    ("service", "service.ms"),
    ("wire.decode", "wire.decode_ms"),
    ("wire.encode", "wire.encode_ms"),
    ("certify", "certify.ms"),
];

pub fn run(cx: &Cx, workload: &str, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    // The real program first, untraced: the end-to-end figure the
    // layer numbers are read against.
    let e2e = workloads::run_e2e(cx, workload, cx.seconds / 4, 1, tally)?;
    let mut replay: Replay = match workload {
        "paper_sweep" => Box::new(pipeline_replay(cx, PipeKind::Sweep)?),
        "large_stream" => Box::new(pipeline_replay(cx, PipeKind::Stream)?),
        "certify" => Box::new(pipeline_replay(cx, PipeKind::Certify)?),
        "serve_edit" => Box::new(serve_replay(cx, tally)?),
        other => return Err(format!("unknown workload {other}")),
    };

    let mut tr = Tracer::new();
    let mut traced: Vec<(std::ops::Range<usize>, Rep)> = Vec::new();
    let mut untraced_ms = Vec::new();
    let start = Instant::now();
    let budget = cx.seconds.saturating_sub(cx.seconds / 4);
    while traced.len() < 2 || untraced_ms.len() < 2 || start.elapsed() < budget {
        // Alternate, so drift on the machine hits both kinds alike.
        for on in [true, false] {
            tr.on = on;
            let first = tr.spans.len();
            let mut rep = Rep::default();
            tr.roots_ns = 0;
            replay(&mut tr, &mut rep, tally)?;
            if on {
                traced.push((first..tr.spans.len(), rep));
            } else {
                untraced_ms.push(tr.roots_ns as f64 / 1e6);
            }
        }
    }
    write_spans(cx, workload, &tr.spans);
    Ok(layer_metrics(&tr.spans, &traced, &untraced_ms, &e2e))
}

/// Writes every span as one JSON line to `.bench_work/trace/<workload>.jsonl`.
fn write_spans(cx: &Cx, workload: &str, spans: &[Span]) {
    let dir = cx.work.parent().unwrap_or(Path::new(".")).join("trace");
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            s.name, s.start, s.end, s.req
        );
    }
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{workload}.jsonl")), out);
    }
}

fn layer_metrics(
    spans: &[Span],
    traced: &[(std::ops::Range<usize>, Rep)],
    untraced_ms: &[f64],
    e2e: &workloads::E2e,
) -> Vec<Metric> {
    // Self time of every span: its duration minus its children's.
    let mut self_ns: Vec<i64> = spans.iter().map(|s| (s.end - s.start) as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] -= (s.end - s.start) as i64;
        }
    }
    let ms = |ns: i64| ns as f64 / 1e6;
    let mut wall = Vec::new();
    let mut unattributed = Vec::new();
    let mut per_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut worst_residual = 0f64;
    for (range, _) in traced {
        let (mut w, mut u) = (0i64, 0i64);
        let mut layer: BTreeMap<&str, i64> = LAYERS.iter().map(|(n, _)| (*n, 0)).collect();
        for i in range.clone() {
            let s = &spans[i];
            match s.parent {
                None => {
                    w += (s.end - s.start) as i64;
                    u += self_ns[i];
                }
                Some(_) => {
                    *layer.get_mut(s.name).expect("every span name is a layer") += self_ns[i]
                }
            }
        }
        let sum: i64 = layer.values().sum::<i64>() + u;
        worst_residual = worst_residual.max(ms(w - sum).abs());
        wall.push(ms(w));
        unattributed.push(ms(u));
        for (name, v) in layer {
            per_layer.entry(name).or_default().push(ms(v));
        }
    }
    eprintln!(
        "perfbench: trace: {} traced and {} untraced reps; layer self times + unattributed = traced wall (worst residual {worst_residual:.6} ms)",
        traced.len(),
        untraced_ms.len()
    );

    // Counters: median over traced reps; per-request samples: median
    // over every request of every traced rep.
    let count = |key: &str| -> f64 {
        let xs: Vec<f64> = traced
            .iter()
            .map(|(_, r)| r.counts.get(key).copied().unwrap_or(0.0))
            .collect();
        median(&xs)
    };
    let pooled = |key: &str| -> f64 {
        let xs: Vec<f64> = traced
            .iter()
            .flat_map(|(_, r)| r.samples.get(key).cloned().unwrap_or_default())
            .collect();
        median(&xs)
    };
    let ratio = |num: &str, den: &str| -> f64 {
        let d = count(den);
        if d > 0.0 {
            count(num) / d
        } else {
            0.0
        }
    };
    let layer = |name: &str| median(&per_layer[name]);

    let hits: Vec<f64> = e2e
        .hit_small_ms
        .iter()
        .chain(&e2e.hit_large_ms)
        .copied()
        .collect();
    let traced_wall = median(&wall);
    let untraced = median(untraced_ms);
    let mut m = vec![
        metric("trace.wall_ms", traced_wall, "ms"),
        metric("trace.untraced_ms", untraced, "ms"),
        metric("trace.overhead_ms", traced_wall - untraced, "ms"),
        metric("unattributed_ms", median(&unattributed), "ms"),
        metric("e2e_ms", median(&e2e.op_ms), "ms"),
        metric("e2e_ms.tail", tail(&e2e.op_ms), "ms"),
        metric("e2e_cpu_ms", median(&e2e.cpu_ms), "ms"),
        metric("host.probe_ms", median(&e2e.probe_ms), "ms"),
    ];
    for (name, metric_name) in LAYERS {
        m.push(metric(metric_name, layer(name), "ms"));
    }
    // MB per second from a byte counter and a time in milliseconds.
    let rate = |bytes: &str, ms: f64| {
        if ms > 0.0 {
            count(bytes) / 1e6 / (ms / 1e3)
        } else {
            0.0
        }
    };
    let (decode_small, decode_large) =
        (count("wire.decode_ms.small"), count("wire.decode_ms.large"));
    m.extend([
        metric(
            "parser.mb_per_s",
            rate("parser.bytes", layer("parser")),
            "MB/s",
        ),
        metric("cfg.unique_rows", count("cfg.unique_rows"), "count"),
        metric(
            "cfg.row_hit_ratio",
            ratio("cfg.row_hits", "cfg.row_lookups"),
            "ratio",
        ),
        metric("acquire.sync_reads", count("acquire.sync_reads"), "count"),
        metric(
            "orderings.kept_ratio",
            ratio("orderings.kept", "orderings.total"),
            "ratio",
        ),
        metric(
            "minimize.full_fences",
            count("minimize.full_fences"),
            "count",
        ),
        metric(
            "fleet.peak_resident_modules",
            count("fleet.peak_resident_modules"),
            "count",
        ),
        metric(
            "fleet.peak_resident_insts",
            count("fleet.peak_resident_insts"),
            "count",
        ),
        metric("service.hit_us", pooled("service.hit_ms") * 1e3, "us"),
        metric(
            "service.incremental_ms",
            pooled("service.incremental_ms"),
            "ms",
        ),
        metric("service.miss_ms", pooled("service.miss_ms"), "ms"),
        metric("service.hits", count("service.hits"), "count"),
        metric(
            "service.incrementals",
            count("service.incrementals"),
            "count",
        ),
        metric("service.misses", count("service.misses"), "count"),
        metric("wire.decode_ms.small", decode_small, "ms"),
        metric("wire.decode_ms.large", decode_large, "ms"),
        metric(
            "wire.decode_mb_per_s.small",
            rate("wire.decode_bytes.small", decode_small),
            "MB/s",
        ),
        metric(
            "wire.decode_mb_per_s.large",
            rate("wire.decode_bytes.large", decode_large),
            "MB/s",
        ),
    ]);
    m.extend([
        metric("certify.states", count("certify.states"), "count"),
        metric("certify.exhausted", count("certify.exhausted"), "count"),
        metric("certify.skipped", count("certify.skipped"), "count"),
        metric(
            "certify.decided_share",
            ratio("certify.decided", "certify.runs"),
            "ratio",
        ),
        metric("daemon.hit_ms.small", median(&e2e.hit_small_ms), "ms"),
        metric("daemon.hit_ms.large", median(&e2e.hit_large_ms), "ms"),
        metric("daemon.hit_ms.tail", tail(&hits), "ms"),
        metric("daemon.edit_ms", median(&e2e.edit_ms), "ms"),
        metric("daemon.edit_ms.tail", tail(&e2e.edit_ms), "ms"),
        metric(
            "daemon.hit_cpu_ms.large",
            median(&e2e.hit_large_cpu_ms),
            "ms",
        ),
        metric("daemon.edit_cpu_ms", median(&e2e.edit_cpu_ms), "ms"),
        metric("daemon.served_per_s", e2e.served_per_s, "1/s"),
    ]);
    m
}

// ---------------------------------------------------------------------
// The CLI workloads: parse → verify → points-to → escape → cfg →
// orderings/acquire → per config: orderings, minimize, insert, json
// (and certify), then the fleet driver on the same inputs.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum PipeKind {
    Sweep,
    Stream,
    Certify,
}

/// Where a pipeline replay reads its module texts from each rep.
enum Source {
    Files(Vec<PathBuf>),
    Pack(PathBuf),
}

fn pipeline_replay(
    cx: &Cx,
    kind: PipeKind,
) -> Result<impl FnMut(&mut Tracer, &mut Rep, &mut Tally) -> Result<(), String>, String> {
    let (specs, source, expects): (Configs, Source, Vec<Vec<Expect>>) = match kind {
        PipeKind::Sweep | PipeKind::Certify => {
            let specs = if kind == PipeKind::Sweep {
                workloads::SWEEP_CONFIGS
            } else {
                workloads::CERTIFY_CONFIGS
            };
            let (files, _) = workloads::paper_files(cx, &cx.work.join("replay_in"), specs)?;
            let expects = files
                .iter()
                .map(|f| f.want.iter().map(|(_, e)| *e).collect())
                .collect();
            let files = files.into_iter().map(|f| f.path).collect();
            (specs, Source::Files(files), expects)
        }
        PipeKind::Stream => {
            let inputs = workloads::stream_inputs(cx);
            let pack = workloads::write_pack(cx, &inputs)?;
            let expects = inputs
                .iter()
                .map(|i| vec![check::naive_control_x86(&i.module)])
                .collect();
            (&[("Control", "x86tso")], Source::Pack(pack), expects)
        }
    };
    let configs: Vec<PipelineConfig> = specs
        .iter()
        .map(|(v, t)| parse_config_spec(&format!("{v}:{t}")))
        .collect::<Result<_, _>>()?;
    let certify_opts = (kind == PipeKind::Certify).then(|| CertifyOptions {
        max_states: workloads::CERTIFY_STATES,
        ..CertifyOptions::default()
    });
    let out_dir = cx.work.join("replay_out");
    let mut req = 0u64;

    Ok(move |tr: &mut Tracer, rep: &mut Rep, tally: &mut Tally| {
        req += 1;
        tr.begin("op", req);
        // Loading is file I/O: it stays in the root's own time.
        let texts: Vec<(String, String)> = match &source {
            Source::Pack(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
                let chunks = tr.leaf("manifest", || corpus::split_corpus(&text));
                chunks
                    .into_iter()
                    .enumerate()
                    .map(|(k, c)| (format!("pack:{}#{k}", path.display()), c))
                    .collect()
            }
            Source::Files(files) => files
                .iter()
                .map(|p| {
                    std::fs::read_to_string(p)
                        .map(|t| (workloads::job_name(p), t))
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<_, _>>()?,
        };
        let _ = std::fs::create_dir_all(&out_dir);
        let interner = RowInterner::new();
        // A streamed run keeps no module once its report is out; the
        // resident fleet below needs them all.
        let mut modules = Vec::new();
        let mut placed = Vec::new();
        for (name, text) in &texts {
            rep.add("parser.bytes", text.len() as f64);
            let (module, p, doc) =
                replay_module(tr, rep, &interner, name, text, &configs, certify_opts)?;
            let path = out_dir.join(format!("{}.json", check::file_stem(name)));
            std::fs::write(&path, doc).map_err(|e| e.to_string())?;
            placed.push(p);
            if kind == PipeKind::Sweep {
                modules.push(module);
            }
        }
        rep.add("cfg.unique_rows", interner.unique_rows() as f64);
        rep.add("cfg.row_hits", interner.hits() as f64);
        rep.add(
            "cfg.row_lookups",
            (interner.hits() + interner.unique_rows()) as f64,
        );

        let mut fleet_placed: Vec<Vec<Expect>> = Vec::new();
        let stats = match kind {
            PipeKind::Sweep => {
                let jobs: Vec<FleetJob<'_>> = modules
                    .iter()
                    .zip(&texts)
                    .map(|(m, (name, _))| FleetJob::new(name.clone(), m, configs.clone()))
                    .collect();
                let pooled = FleetOptions::default();
                let seq = FleetOptions {
                    parallel: false,
                    ..pooled
                };
                let (fleet, stats) = tr.leaf("fleet", || run_fleet_opts(&jobs, &pooled));
                tr.leaf("fleet.seq", || run_fleet_opts(&jobs, &seq));
                fleet_placed = fleet
                    .iter()
                    .map(|fr| fr.results.iter().map(|r| placed_by(&r.points)).collect())
                    .collect();
                Some(stats)
            }
            PipeKind::Stream => {
                let items: Vec<StreamItem> = texts
                    .into_iter()
                    .map(|(name, text)| StreamItem::Text { name, text })
                    .collect();
                let opts = FleetOptions {
                    window: Some(2),
                    ..FleetOptions::default()
                };
                fleet_placed = vec![Vec::new(); expects.len()];
                let (_, stats) = tr.leaf("fleet", || {
                    run_fleet_streamed(items, &configs, &opts, |k, fr| {
                        fleet_placed[k] = fr.results.iter().map(|r| placed_by(&r.points)).collect();
                    })
                });
                Some(stats)
            }
            PipeKind::Certify => None,
        };
        tr.end();

        if let Some(stats) = stats {
            rep.add(
                "fleet.peak_resident_modules",
                stats.peak_resident_modules as f64,
            );
            rep.add(
                "fleet.peak_resident_insts",
                stats.peak_resident_insts as f64,
            );
            for (k, got) in fleet_placed.iter().enumerate() {
                tally.record(
                    "fleet replay",
                    same(got, &expects[k], &format!("module {k}")),
                );
            }
        }
        for (k, got) in placed.iter().enumerate() {
            tally.record(
                "layer replay",
                same(got, &expects[k], &format!("module {k}")),
            );
        }
        Ok(())
    })
}

/// Compares placements on fence points, full and compiler fences (the
/// fields every reference has).
fn same(got: &[Expect], want: &[Expect], what: &str) -> Result<(), String> {
    let strip = |e: &Expect| (e.points, e.full, e.compiler);
    if got.len() == want.len() && got.iter().zip(want).all(|(g, w)| strip(g) == strip(w)) {
        Ok(())
    } else {
        Err(format!("{what}: placement differs from the reference"))
    }
}

fn placed_by(points: &[FencePoint]) -> Expect {
    let full = points.iter().filter(|p| p.kind == FenceKind::Full).count() as u64;
    Expect {
        points: points.len() as u64,
        full,
        compiler: points.len() as u64 - full,
        ..Expect::default()
    }
}

/// One module through every layer; returns the module, its placement
/// per config and its report document.
fn replay_module(
    tr: &mut Tracer,
    rep: &mut Rep,
    interner: &RowInterner,
    name: &str,
    text: &str,
    configs: &[PipelineConfig],
    certify_opts: Option<CertifyOptions>,
) -> Result<(Module, Vec<Expect>, String), String> {
    let module = tr
        .leaf("parser", || fence_ir::parser::parse_module(text))
        .map_err(|e| format!("{name}: {e}"))?;
    tr.leaf("verify", || fence_ir::verify_module_checked(&module))
        .map_err(|e| format!("{name}: {} verify errors", e.len()))?;
    let pt = tr.leaf("pointsto", || PointsTo::analyze_on(&module, false));
    let esc = tr.leaf("escape", || EscapeInfo::analyze(&module, &pt));
    let fids: Vec<FuncId> = (0..module.funcs.len()).map(FuncId::new).collect();
    let subs: Vec<FuncSubstrate> = tr.leaf("cfg", || {
        module
            .funcs
            .iter()
            .map(|f| FuncSubstrate::new_interned(f, interner))
            .collect()
    });
    let ords: Vec<FuncOrderings<'_>> = tr.leaf("orderings", || {
        fids.iter()
            .map(|&f| FuncOrderings::generate(&module, &esc, f, &subs[f.index()]))
            .collect()
    });
    let oracles: Vec<AliasOracle<'_>> = tr.leaf("acquire", || {
        fids.iter()
            .map(|&f| AliasOracle::new(&module, &pt, f))
            .collect()
    });
    // Acquire detection once per distinct variant, as the batch does.
    let mut infos: Vec<(Variant, Vec<AcquireInfo>)> = Vec::new();
    for c in configs {
        if infos.iter().any(|(v, _)| *v == c.variant) {
            continue;
        }
        let per = tr.leaf("acquire", || {
            fids.iter()
                .map(|&f| {
                    let func = module.func(f);
                    let esc_set = esc.escaping_set(f);
                    match c.variant {
                        Variant::Pensieve => pensieve_all_reads(&module, &esc, f),
                        Variant::Control => detect_acquires_with(
                            func,
                            &oracles[f.index()],
                            esc_set,
                            DetectMode::Control,
                        ),
                        _ => detect_acquires_with(
                            func,
                            &oracles[f.index()],
                            esc_set,
                            DetectMode::AddressControl,
                        ),
                    }
                })
                .collect::<Vec<_>>()
        });
        rep.add(
            "acquire.sync_reads",
            per.iter().map(|i| i.count() as f64).sum(),
        );
        infos.push((c.variant, per));
    }

    // The program's per-function context caches the unpruned counts once
    // per function and the selection aggregates once per (function,
    // variant), shared by every config; the replay does the same work.
    let totals: Vec<[usize; 4]> =
        tr.leaf("orderings", || ords.iter().map(|o| o.counts()).collect());
    let mut aggs_by_variant: Vec<(Variant, Vec<_>)> = Vec::new();

    let mut placed_per_config = Vec::new();
    let mut lines = Vec::new();
    let mut certs = Vec::new();
    for c in configs {
        let info = &infos
            .iter()
            .find(|(v, _)| *v == c.variant)
            .expect("detected above")
            .1;
        let sels: Vec<_> = tr.leaf("orderings", || {
            fids.iter()
                .map(|&f| {
                    let i = f.index();
                    match c.variant {
                        Variant::Pensieve => ords[i].all(),
                        _ => ords[i].prune(&info[i].sync_reads),
                    }
                })
                .collect()
        });
        if !aggs_by_variant.iter().any(|(v, _)| *v == c.variant) {
            let aggs = tr.leaf("orderings", || {
                sels.iter().map(|sel| sel.aggregates()).collect()
            });
            aggs_by_variant.push((c.variant, aggs));
        }
        let aggs = &aggs_by_variant
            .iter()
            .find(|(v, _)| *v == c.variant)
            .expect("computed above")
            .1;
        let kept: Vec<[usize; 4]> = tr.leaf("orderings", || {
            sels.iter()
                .zip(aggs)
                .map(|(sel, a)| sel.counts_with(a))
                .collect()
        });
        let per_func: Vec<Vec<FencePoint>> = tr.leaf("minimize", || {
            fids.iter()
                .map(|&f| {
                    let i = f.index();
                    let entry = !info[i].sync_reads.is_empty();
                    minimize_function(module.func(f), f, &sels[i], &aggs[i], c.target, entry)
                })
                .collect()
        });
        let points: Vec<FencePoint> = per_func.iter().flatten().copied().collect();
        let instrumented = tr.leaf("insert", || {
            fenceplace::insert::insert_fences(&module, &points)
        });
        let report = tr.leaf("json", || {
            let funcs = fids
                .iter()
                .map(|&f| {
                    let pts = &per_func[f.index()];
                    let full = pts.iter().filter(|p| p.kind == FenceKind::Full).count();
                    let inf = &info[f.index()];
                    FuncReport {
                        name: module.func(f).name.clone(),
                        escaping_reads: esc.escaping_read_count(&module, f),
                        escaping_writes: esc.escaping_write_count(&module, f),
                        acquires: inf.count(),
                        control_acquires: inf.control.count(),
                        address_acquires: inf.address.count(),
                        pure_address_acquires: inf.pure_address_count(),
                        orderings_total: totals[f.index()],
                        orderings_kept: kept[f.index()],
                        full_fences: full,
                        compiler_fences: pts.len() - full,
                    }
                })
                .collect();
            let report = ModuleReport {
                module_name: module.name.clone(),
                variant: c.variant.name().to_string(),
                funcs,
            };
            lines.push(config_json(c, &report, points.len()));
            report
        });
        for (kept, total) in kept.iter().zip(&totals) {
            rep.add("orderings.kept", kept.iter().sum::<usize>() as f64);
            rep.add("orderings.total", total.iter().sum::<usize>() as f64);
        }
        let p = placed_by(&points);
        rep.add("minimize.full_fences", p.full as f64);
        placed_per_config.push(p);
        if let Some(opts) = certify_opts {
            let result = PipelineResult {
                module: instrumented,
                points,
                report,
            };
            let cr = tr.leaf("certify", || certify(&result, c.variant, c.target, &opts));
            rep.add("certify.runs", 1.0);
            rep.add("certify.states", cr.states as f64);
            rep.add("certify.exhausted", cr.exhausted as u8 as f64);
            rep.add("certify.skipped", cr.skipped.len() as f64);
            let status = cr.status();
            if matches!(
                status,
                CertifyStatus::Certified | CertifyStatus::NotMinimal | CertifyStatus::Unsound
            ) {
                rep.add("certify.decided", 1.0);
            }
            if status == CertifyStatus::Unsound {
                return Err(format!("{name}: unsound placement"));
            }
            certs.push(tr.leaf("json", || cert_json(c, &cr)));
        }
    }
    let doc = tr.leaf("json", || {
        module_json_parts(name, &ModuleOutcome::Ok, &lines, &certs)
    });
    Ok((module, placed_per_config, doc))
}

// ---------------------------------------------------------------------
// The daemon workload: decode → hash → Service::analyze → encode, one
// root span per request, against a fresh Service per rep.
// ---------------------------------------------------------------------

fn serve_replay(
    cx: &Cx,
    tally: &mut Tally,
) -> Result<impl FnMut(&mut Tracer, &mut Rep, &mut Tally) -> Result<(), String>, String> {
    let ws: WorkingSet = workloads::working_set(cx, tally)?;
    // The rep's request mix: prime (all misses), then rounds as the
    // timed run makes them: one read of every text in the reader's order
    // (hits), then the next edit of the seeded edit sequence. One round
    // per synthetic module, so each is edited.
    // (text size, request line, parsed by the service, edit reference)
    let mut requests: Vec<(usize, String, bool, Option<Expect>)> = Vec::new();
    for (i, line) in ws.lines.iter().enumerate() {
        requests.push((ws.inputs[i].text.len(), line.clone(), true, None));
    }
    let mut order: Vec<usize> = (0..ws.lines.len()).collect();
    let mut rng = Rng::new(cx.seed, gen::READER);
    let mut edits = Edits::new(cx.seed, &ws);
    for _ in 0..ws.synthetic.len() {
        rng.shuffle(&mut order);
        for &i in &order {
            requests.push((ws.inputs[i].text.len(), ws.lines[i].clone(), false, None));
        }
        let (k, module, text) = edits.next_edit();
        let expect = check::naive_control_x86(&module);
        let line = workloads::analyze_line(k, &ws.names[k], &text);
        requests.push((text.len(), line, true, Some(expect)));
    }
    let mut req = 0u64;

    Ok(move |tr: &mut Tracer, rep: &mut Rep, tally: &mut Tally| {
        let mut service = Service::new(ServiceOptions::default());
        for (size, line, parsed, edit_expect) in &requests {
            req += 1;
            tr.begin("request", req);
            let decoded = tr.leaf("wire.decode", || wire::parse_request(line.trim_end()));
            let decode_ms = tr.last_ms();
            let (id, request) = decoded.map_err(|e| e.message.clone())?;
            let Request::Analyze {
                module,
                text: Some(text),
                configs,
                budget,
                ..
            } = request
            else {
                return Err("replayed request is not an inline analyze".into());
            };
            // Shadow calls: the hash the service computes, and the parse
            // it runs on every request it cannot answer from cache (the
            // priming misses and the edits), timed on their own.
            tr.leaf("hash", || corpus::hash::content_hash(&text));
            if *parsed {
                rep.add("parser.bytes", text.len() as f64);
                tr.leaf("parser", || fence_ir::parser::parse_module(&text))
                    .map_err(|e| e.to_string())?;
            }
            let r = tr.leaf("service", || {
                service.analyze(&module, &text, &configs, budget)
            });
            let service_ms = tr.last_ms();
            let resp = tr.leaf("wire.encode", || {
                wire::report_json(
                    id,
                    &module,
                    r.cache.name(),
                    r.outcome.kind(),
                    Some(&r.hash),
                    false,
                    &r.report,
                )
            });
            tr.end();

            let bucket_small = *size <= SMALL_MAX;
            if bucket_small {
                rep.add("wire.decode_ms.small", decode_ms);
                rep.add("wire.decode_bytes.small", *size as f64);
            } else {
                rep.add("wire.decode_ms.large", decode_ms);
                rep.add("wire.decode_bytes.large", *size as f64);
            }
            match r.cache {
                CacheDisposition::Hit => {
                    rep.add("service.hits", 1.0);
                    rep.sample("service.hit_ms", service_ms);
                }
                CacheDisposition::Incremental => {
                    rep.add("service.incrementals", 1.0);
                    rep.sample("service.incremental_ms", service_ms);
                }
                CacheDisposition::Miss => {
                    rep.add("service.misses", 1.0);
                    rep.sample("service.miss_ms", service_ms);
                }
            }
            // The encoded response line must carry the expected report.
            let result = match edit_expect {
                None => workloads::check_read(&ws, id as usize, &resp).map(|_| ()),
                Some(_) if r.cache != CacheDisposition::Incremental => {
                    Err(format!("edit: cache {}, want incremental", r.cache.name()))
                }
                Some(e) => workloads::parse_response(&resp)
                    .and_then(|r| workloads::check_report(&r.report, e, "edit"))
                    .map(|_| ()),
            };
            tally.record("replayed request", result);
        }
        Ok(())
    })
}
