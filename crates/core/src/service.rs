//! Analysis as a service: the resident cache engine behind
//! `fenceplace serve`.
//!
//! A [`Service`] keeps analyzed modules resident between requests so a
//! fleet of clients hammering mostly-unchanged modules sees near-zero
//! marginal cost per request. The design constraints, in order:
//!
//! 1. **Byte-identity.** The report served for a module is byte-identical
//!    to what the one-shot CLI would emit for the same module text and
//!    config list — cold cache, warm cache, sequential or pooled
//!    (pinned by the differential test in `tests/service.rs`). Both
//!    paths render through [`crate::json`].
//! 2. **Content addressing.** Cache entries are keyed by the 128-bit
//!    content hash of the module *text* ([`corpus::hash::content_hash`]),
//!    never by the request's module name: same content under a different
//!    name is a hit, and a touched-but-unchanged file re-hashes to the
//!    same key. A side table maps each request name to the last content
//!    hash analyzed under it, which is what makes **function-granular
//!    dirty sets** possible: when a name re-arrives with changed text,
//!    the previous version's per-function hashes
//!    ([`corpus::hash::func_hashes`]) say exactly which functions
//!    changed, and only those rebuild their interned
//!    [`FuncSubstrate`]s. The module-wide [`ModuleAnalysis`] (points-to
//!    and escape) re-runs on any change — it is a whole-module fixpoint
//!    and caching it per function would be unsound.
//! 3. **One executor.** The service owns only the cache: content-hash
//!    lookup, name aliases, dirty-set donation, LRU and rendered report
//!    lines. Everything that runs a stage — ingest, the IR validation
//!    gate, analysis, substrates, contexts, acquires, tails — runs in the
//!    fleet executor ([`crate::fleet`]), seeded with the cached analysis
//!    and substrates, so a request is quarantined and budgeted exactly as
//!    the CLI would quarantine and budget it. Seeded units are skipped
//!    but charged: the executor charges the whole request's charge plan,
//!    and a warm hit replays that same plan without running anything, so
//!    a budgeted request gets the same `deadline_exceeded` outcome
//!    whether or not the cache could have served it.
//!
//! Eviction is LRU over whole entries, opt-in via
//! [`ServiceOptions::capacity`]: when the entry count exceeds the
//! capacity, least-recently-used entries are dropped (their interned
//! reachability rows stay in the service-wide [`RowInterner`], which is
//! append-only — the streaming roadmap's row-LRU applies here too).
//!
//! The wire protocol over this engine lives in [`wire`]; the transport
//! loops (Unix socket, stdio) live in the `fenceplace` binary.

pub mod wire;

use crate::fleet::{self, ChargePlan, FleetJob, FleetOptions, Seed};
use crate::json;
use crate::minimize::TargetModel;
use crate::pipeline::PipelineConfig;
use crate::report::{FleetStage, ModuleOutcome};
use corpus::hash::{content_hash, func_hashes, ContentHash};
use fence_analysis::ModuleAnalysis;
use fence_ir::cfg::{FuncSubstrate, RowInterner};
use fence_ir::Module;
use std::collections::HashMap;
use std::sync::Arc;

/// Knobs of a [`Service`], fixed for its lifetime.
#[derive(Clone, Copy, Debug)]
pub struct ServiceOptions {
    /// Schedule work units on the persistent pool (default). Sequential
    /// and pooled services serve byte-identical reports.
    pub parallel: bool,
    /// Catch per-unit panics and quarantine the request with a
    /// [`ModuleOutcome::Panicked`] instead of unwinding (default).
    pub isolate: bool,
    /// Reject malformed modules at the IR validation gate (default).
    pub validate: bool,
    /// Default deterministic step budget applied to every request that
    /// does not carry its own (`None` = no deadline).
    pub budget: Option<u64>,
    /// Maximum cached module entries; least-recently-used entries are
    /// evicted beyond it (`None` = unbounded).
    pub capacity: Option<usize>,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            parallel: true,
            isolate: true,
            validate: true,
            budget: None,
            capacity: None,
        }
    }
}

/// How much cached state an analyze request could reuse.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CacheDisposition {
    /// Served entirely from cache: the content hash was resident and
    /// every requested config's report line was already rendered (or
    /// the entry is quarantined, so its report is fully determined).
    Hit,
    /// Partially reused: the content hash was resident but some config
    /// lines had to be computed from the cached analysis/substrates, or
    /// the content was new but unchanged functions of the previous
    /// version under the same name donated their substrates.
    Incremental,
    /// Computed from scratch.
    Miss,
}

impl CacheDisposition {
    /// The stable lowercase tag used on the wire.
    pub fn name(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Incremental => "incremental",
            CacheDisposition::Miss => "miss",
        }
    }
}

/// What one analyze request produced.
pub struct AnalyzeOutcome {
    /// Cache disposition (see [`CacheDisposition`]).
    pub cache: CacheDisposition,
    /// The module's outcome under the fleet's quarantine/budget rules.
    pub outcome: ModuleOutcome,
    /// Content hash of the request's module text.
    pub hash: ContentHash,
    /// The per-module report document — byte-identical to what
    /// `fenceplace --out DIR` would write for this module.
    pub report: String,
}

/// Deterministic service counters, exposed by the `stats` wire request.
/// All counts are cumulative over the service's lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Well-formed, accepted wire requests (all kinds; counted by the
    /// transport loop via [`Service::note_request`]).
    pub requests: u64,
    /// Analyze requests (library calls included).
    pub analyze_requests: u64,
    /// Analyze requests served entirely from cache.
    pub hits: u64,
    /// Analyze requests that partially reused cached state.
    pub incremental: u64,
    /// Analyze requests computed from scratch.
    pub misses: u64,
    /// Module-wide [`ModuleAnalysis`] executions.
    pub analyses: u64,
    /// [`FuncSubstrate`] builds (dirty functions only).
    pub substrates_built: u64,
    /// Substrates reused across module *versions* (unchanged functions
    /// of a changed module; same-version reuse is not counted — it is
    /// the cache working as designed).
    pub substrates_reused: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Entries dropped by invalidate requests.
    pub invalidated: u64,
}

/// One resident module: parsed IR, per-function content hashes, the
/// module-wide analysis, interned substrates, and every config report
/// line rendered so far.
struct Entry {
    /// Parsed module (`None` only for parse-failure entries).
    module: Option<Module>,
    /// Cached terminal outcome: `Ok` or `InvalidIr`. Transient outcomes
    /// (`Panicked`, `DeadlineExceeded`) are never cached — they depend
    /// on the request's config list and budget.
    outcome: ModuleOutcome,
    /// Per-function `(name, content hash)` in function order.
    funcs: Vec<(String, ContentHash)>,
    /// Module-wide analysis (absent until a non-`Manual` config needs it).
    analysis: Option<ModuleAnalysis>,
    /// Interned substrates, aligned with `funcs` (empty until built).
    substrates: Vec<Arc<FuncSubstrate>>,
    /// Rendered config report lines keyed by `(variant, target)` index.
    reports: HashMap<(usize, usize), String>,
    /// LRU clock value of the last request that touched this entry.
    last_used: u64,
}

/// The resident analysis cache. See the module docs for the design; the
/// public surface is [`Service::analyze`] plus cache management
/// ([`Service::invalidate`], [`Service::invalidate_all`]) and the
/// [`ServiceStats`] snapshot.
pub struct Service {
    opts: ServiceOptions,
    interner: RowInterner,
    entries: HashMap<ContentHash, Entry>,
    names: HashMap<String, ContentHash>,
    tick: u64,
    stats: ServiceStats,
}

/// Dense target index for the per-config report key.
fn target_idx(t: TargetModel) -> usize {
    match t {
        TargetModel::X86Tso => 0,
        TargetModel::ScHardware => 1,
        TargetModel::Weak => 2,
    }
}

/// Cache key of one config's report line. `PipelineConfig::parallel` is
/// deliberately not part of the key: scheduling cannot affect report
/// bytes (pinned by the fleet's seq/par determinism tests).
fn config_key(c: &PipelineConfig) -> (usize, usize) {
    (c.variant.idx(), target_idx(c.target))
}

impl Service {
    /// Creates an empty service with the given options.
    pub fn new(opts: ServiceOptions) -> Self {
        Service {
            opts,
            interner: RowInterner::new(),
            entries: HashMap::new(),
            names: HashMap::new(),
            tick: 0,
            stats: ServiceStats::default(),
        }
    }

    /// The options this service was created with.
    pub fn options(&self) -> &ServiceOptions {
        &self.opts
    }

    /// A snapshot of the cumulative counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Number of resident cache entries (distinct module contents).
    pub fn cached_modules(&self) -> usize {
        self.entries.len()
    }

    /// Counts one accepted wire request (any kind). Called by the
    /// transport loop so `stats.requests` covers hello/stats/shutdown
    /// traffic, not just analyzes.
    pub fn note_request(&mut self) {
        self.stats.requests += 1;
    }

    /// Drops the entry the given module name last resolved to (and every
    /// name alias pointing at the same content). Returns the number of
    /// entries dropped (0 or 1).
    pub fn invalidate(&mut self, name: &str) -> usize {
        match self.names.remove(name) {
            Some(h) => {
                self.names.retain(|_, v| *v != h);
                if self.entries.remove(&h).is_some() {
                    self.stats.invalidated += 1;
                    1
                } else {
                    0
                }
            }
            None => 0,
        }
    }

    /// Drops every cache entry and name binding. Returns the number of
    /// entries dropped.
    pub fn invalidate_all(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        self.names.clear();
        self.stats.invalidated += n as u64;
        n
    }

    /// Analyzes one module text under the fleet's semantics, reusing
    /// cached state where the content hashes allow it. `budget`
    /// overrides [`ServiceOptions::budget`] for this request.
    ///
    /// The returned [`AnalyzeOutcome::report`] is byte-identical to the
    /// per-module report the one-shot CLI writes for the same (name,
    /// text, configs, budget) — including quarantined outcomes.
    pub fn analyze(
        &mut self,
        name: &str,
        text: &str,
        configs: &[PipelineConfig],
        budget: Option<u64>,
    ) -> AnalyzeOutcome {
        self.stats.analyze_requests += 1;
        self.tick += 1;
        let tick = self.tick;
        let hash = content_hash(text);
        let budget = budget.or(self.opts.budget);

        // ---- fully-cached fast path: zero pipeline work ----
        let fully_cached = match self.entries.get(&hash) {
            Some(e) => {
                !e.outcome.is_ok()
                    || configs
                        .iter()
                        .all(|c| e.reports.contains_key(&config_key(c)))
            }
            None => false,
        };
        if fully_cached {
            self.stats.hits += 1;
            self.names.insert(name.to_string(), hash);
            let entry = self.entries.get_mut(&hash).expect("cached entry");
            entry.last_used = tick;
            let (outcome, lines): (ModuleOutcome, Vec<String>) = if entry.outcome.is_ok() {
                // Budgets are charged even warm, from the plan a cold run
                // charges, so the outcome matches a cold CLI run exactly.
                let module = entry.module.as_ref().expect("ok entries hold their module");
                match ChargePlan::new(module, configs, self.opts.validate, false)
                    .replay(name, budget)
                {
                    Some(dl) => (dl, Vec::new()),
                    None => (ModuleOutcome::Ok, entry.lines(configs)),
                }
            } else {
                // InvalidIr wins over any deadline: the fleet absorbs the
                // validation verdict before the Validate-stage charge.
                (entry.outcome.clone(), Vec::new())
            };
            return answer(name, hash, CacheDisposition::Hit, outcome, &lines);
        }

        // ---- same content resident with configs missing, or new content ----
        let (mut entry, donated) = match self.entries.remove(&hash) {
            Some(entry) => (entry, None),
            None => match fleet::ingest(name, text, self.opts.isolate, budget) {
                Ok(module) => {
                    let funcs = func_hashes(&module);
                    let donated = self.donations(name, &funcs);
                    (
                        Entry::new(Some(module), funcs, ModuleOutcome::Ok),
                        Some(donated),
                    )
                }
                Err(outcome) => {
                    // An unparsable text is a content-keyed verdict (the
                    // same bytes fail the same way); panics and deadlines
                    // depend on the request and are never cached.
                    self.stats.misses += 1;
                    if matches!(outcome, ModuleOutcome::InvalidIr { .. }) {
                        self.keep(
                            name,
                            hash,
                            Entry::new(None, Vec::new(), outcome.clone()),
                            tick,
                        );
                    }
                    return answer(name, hash, CacheDisposition::Miss, outcome, &[]);
                }
            },
        };
        let resident = donated.is_none();
        let reused = donated.iter().flatten().flatten().count();
        let outcome = self.run(name, &mut entry, donated, configs, budget);
        // A module the gate rejects reused nothing.
        let rejected = matches!(
            outcome,
            ModuleOutcome::InvalidIr { .. }
                | ModuleOutcome::Panicked {
                    stage: FleetStage::Validate,
                    ..
                }
        );
        let cache = if resident || (reused > 0 && !rejected) {
            self.stats.incremental += 1;
            self.stats.substrates_reused += reused as u64;
            CacheDisposition::Incremental
        } else {
            self.stats.misses += 1;
            CacheDisposition::Miss
        };
        let lines = if outcome.is_ok() {
            entry.lines(configs)
        } else {
            Vec::new()
        };
        if let ModuleOutcome::InvalidIr { .. } = outcome {
            entry.outcome = outcome.clone();
        }
        // Transient outcomes (panic, deadline) of new content are never
        // cached: they depend on this request's configs and budget, and
        // the next request may legitimately succeed. A resident entry
        // keeps what the run built for it.
        if resident || outcome.is_ok() || entry.outcome != ModuleOutcome::Ok {
            self.keep(name, hash, entry, tick);
        }
        answer(name, hash, cache, outcome, &lines)
    }

    /// Dirty-set seeding: unchanged functions of the previous version
    /// under `name` donate their interned substrates; `None` marks a
    /// function whose substrate must be rebuilt.
    fn donations(
        &self,
        name: &str,
        funcs: &[(String, ContentHash)],
    ) -> Vec<Option<Arc<FuncSubstrate>>> {
        let prev = self
            .names
            .get(name)
            .and_then(|h| self.entries.get(h))
            .filter(|p| p.outcome.is_ok() && p.substrates.len() == p.funcs.len());
        funcs
            .iter()
            .map(|(fname, fh)| {
                let prev = prev?;
                let j = prev.funcs.iter().position(|(n, _)| n == fname)?;
                (prev.funcs[j].1 == *fh).then(|| prev.substrates[j].clone())
            })
            .collect()
    }

    /// Caches `entry` under `hash`, binds `name` to it, and evicts down
    /// to capacity.
    fn keep(&mut self, name: &str, hash: ContentHash, mut entry: Entry, tick: u64) {
        entry.last_used = tick;
        self.entries.insert(hash, entry);
        self.names.insert(name.to_string(), hash);
        self.evict();
    }

    /// LRU eviction down to the configured capacity.
    fn evict(&mut self) {
        let Some(cap) = self.opts.capacity else {
            return;
        };
        while self.entries.len() > cap {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(h, _)| *h)
                .expect("len > cap > 0 implies non-empty");
            self.entries.remove(&oldest);
            self.names.retain(|_, v| *v != oldest);
            self.stats.evictions += 1;
        }
    }

    /// Renders every config of `configs` that `entry` has no report line
    /// for, by running those configs through the fleet executor seeded
    /// with the entry's analysis and substrates (`donated` replaces the
    /// substrates of a new entry). The executor charges the plan of the
    /// whole request, so budgets trip exactly where a cold run trips
    /// them. The analysis and substrates it builds are kept whatever the
    /// outcome — they depend on the module alone — but report lines of a
    /// quarantined request never reach the cache.
    fn run(
        &mut self,
        name: &str,
        entry: &mut Entry,
        donated: Option<Vec<Option<Arc<FuncSubstrate>>>>,
        configs: &[PipelineConfig],
        budget: Option<u64>,
    ) -> ModuleOutcome {
        let module = entry.module.as_ref().expect("computable entries hold IR");
        let substrates = donated.unwrap_or_else(|| {
            let mut own: Vec<_> = entry.substrates.iter().cloned().map(Some).collect();
            own.resize(module.funcs.len(), None);
            own
        });
        let dirty = substrates.iter().filter(|s| s.is_none()).count();
        let seed = Seed {
            plan: ChargePlan::new(module, configs, self.opts.validate, false),
            analysis: entry.analysis.as_ref(),
            substrates,
        };
        let missing: Vec<PipelineConfig> = configs
            .iter()
            .filter(|c| !entry.reports.contains_key(&config_key(c)))
            .copied()
            .collect();
        let job = FleetJob::new(name, module, missing);
        // A rendered line means the module already passed the gate; an
        // entry whose requests all carried empty config lists has not
        // been validated yet.
        let opts = FleetOptions {
            parallel: self.opts.parallel,
            isolate: self.opts.isolate,
            validate: self.opts.validate && entry.reports.is_empty(),
            budget,
            certify: None,
            window: None,
        };
        // Only report lines are rendered: no instrumented module clones.
        let (mut results, _, mut built) = fleet::execute(
            std::slice::from_ref(&job),
            vec![Some(seed)],
            &self.interner,
            &opts,
            false,
        );
        let (result, built) = (results.remove(0), built.remove(0));
        if let Some(analysis) = built.analysis {
            self.stats.analyses += 1;
            entry.analysis = Some(analysis);
        }
        if let Some(substrates) = built.substrates {
            self.stats.substrates_built += dirty as u64;
            entry.substrates = substrates;
        }
        for (config, r) in job.configs.iter().zip(result.results) {
            let line = json::config_json(config, &r.report, r.points.len());
            entry.reports.insert(config_key(config), line);
        }
        result.outcome
    }
}

impl Entry {
    fn new(
        module: Option<Module>,
        funcs: Vec<(String, ContentHash)>,
        outcome: ModuleOutcome,
    ) -> Self {
        Entry {
            module,
            outcome,
            funcs,
            analysis: None,
            substrates: Vec::new(),
            reports: HashMap::new(),
            last_used: 0,
        }
    }

    /// The cached report lines of `configs`, in request order.
    fn lines(&self, configs: &[PipelineConfig]) -> Vec<String> {
        configs
            .iter()
            .map(|c| self.reports[&config_key(c)].clone())
            .collect()
    }
}

/// Renders one analyze answer.
fn answer(
    name: &str,
    hash: ContentHash,
    cache: CacheDisposition,
    outcome: ModuleOutcome,
    lines: &[String],
) -> AnalyzeOutcome {
    let report = json::module_json_parts(name, &outcome, lines, &[]);
    AnalyzeOutcome {
        cache,
        outcome,
        hash,
        report,
    }
}
