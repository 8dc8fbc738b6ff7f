//! The seed (pre-optimization) analysis stages, preserved verbatim as
//! the baselines the scaling benches measure against:
//!
//! * **ordering stage** (`ordering_scaling`): per-block DFS all-pairs
//!   reachability (`O(B·E)`), `O(A²)` double loop materializing the
//!   `Vec<(u32, u32)>` pair list, pair-sweep pruning and
//!   interval-per-pair fence minimization;
//! * **acquire stage** (`acquire_scaling`): the seed alias oracle with a
//!   cloned `BitSet` per access and an `O(writers)` linear scan per
//!   `potential_writers` query, plus the seed slicer with its eager
//!   all-locals writer cache and `Vec`-returning writer queries;
//! * **points-to** (`pointsto_scaling`): the seed fixpoint-by-
//!   re-execution Andersen solver — every constraint re-applied every
//!   round with two owned `BitSet` clones per operand visit — measured
//!   against the sharded constraint-graph worklist solver;
//! * **parser** (`seed_parse_module`): the seed textual-IR parser that
//!   re-tokenizes every line into owned `String`s on each of its passes,
//!   kept as the differential reference for the borrowed-token parser.
//!
//! Nothing in the pipeline uses this module; it exists so the
//! quadratic→near-linear wins stay measurable after the seed code is
//! gone.

mod seed_parser;

pub use seed_parser::seed_parse_module;

use fence_analysis::escape::EscapeInfo;
use fence_analysis::pointsto::{AbsLoc, PointsTo};
use fence_ir::cfg::Cfg;
use fence_ir::util::BitSet;
use fence_ir::FenceKind;
use fence_ir::{BlockId, FuncId, Function, InstId, InstKind, Module, Value};
use fenceplace::acquire::{AcquireInfo, DetectMode};
use fenceplace::minimize::{FencePoint, TargetModel};
use fenceplace::orderings::{Access, AccessKind, OrderKind};

/// Seed reachability: one DFS per block.
pub struct NaiveReachability {
    rows: Vec<BitSet>,
}

impl NaiveReachability {
    /// Computes all-pairs reachability by a DFS from every block.
    pub fn new(cfg: &Cfg) -> Self {
        let n = cfg.num_blocks();
        let mut rows = Vec::with_capacity(n);
        let mut stack = Vec::new();
        for b in 0..n {
            let mut row = BitSet::new(n);
            stack.clear();
            for &s in &cfg.succs[b] {
                if row.insert(s.index()) {
                    stack.push(s);
                }
            }
            while let Some(cur) = stack.pop() {
                for &s in &cfg.succs[cur.index()] {
                    if row.insert(s.index()) {
                        stack.push(s);
                    }
                }
            }
            rows.push(row);
        }
        NaiveReachability { rows }
    }

    fn reaches(&self, from: BlockId, to: BlockId) -> bool {
        self.rows[from.index()].contains(to.index())
    }

    fn in_cycle(&self, b: BlockId) -> bool {
        self.reaches(b, b)
    }
}

/// Seed orderings: the explicit pair list.
pub struct NaiveOrderings {
    /// All escaping access occurrences, block-sequential.
    pub accesses: Vec<Access>,
    /// The materialized `O(A²)` pair list.
    pub pairs: Vec<(u32, u32)>,
}

impl NaiveOrderings {
    /// The seed generation algorithm, verbatim.
    #[allow(clippy::if_same_then_else)] // seed control flow, kept verbatim
    pub fn generate(module: &Module, escape: &EscapeInfo, fid: FuncId) -> Self {
        let func = module.func(fid);
        let cfg = Cfg::new(func);
        let reach = NaiveReachability::new(&cfg);

        let mut accesses = Vec::new();
        for (bid, block) in func.iter_blocks() {
            for (index, &iid) in block.insts.iter().enumerate() {
                let kind = &func.inst(iid).kind;
                if kind.is_mem_access() {
                    if !escape.is_escaping(fid, iid) {
                        continue;
                    }
                    let atomic = kind.is_mem_read() && kind.is_mem_write();
                    if kind.is_mem_read() {
                        accesses.push(Access {
                            inst: iid,
                            kind: AccessKind::Read,
                            atomic,
                            block: bid,
                            index,
                        });
                    }
                    if kind.is_mem_write() {
                        accesses.push(Access {
                            inst: iid,
                            kind: AccessKind::Write,
                            atomic,
                            block: bid,
                            index,
                        });
                    }
                } else if let InstKind::CallIntrinsic { intr, .. } = kind {
                    if intr.is_sync_boundary() {
                        for k in [AccessKind::Read, AccessKind::Write] {
                            accesses.push(Access {
                                inst: iid,
                                kind: k,
                                atomic: true,
                                block: bid,
                                index,
                            });
                        }
                    }
                }
            }
        }

        let mut pairs = Vec::new();
        for (i, a) in accesses.iter().enumerate() {
            for (j, b) in accesses.iter().enumerate() {
                if i == j {
                    if reach.in_cycle(a.block) {
                        pairs.push((i as u32, j as u32));
                    }
                    continue;
                }
                if a.inst == b.inst && a.index == b.index {
                    if a.kind == AccessKind::Read && b.kind == AccessKind::Write {
                        pairs.push((i as u32, j as u32));
                    } else if reach.in_cycle(a.block) {
                        pairs.push((i as u32, j as u32));
                    }
                    continue;
                }
                let ordered = if a.block == b.block {
                    a.index < b.index || reach.in_cycle(a.block)
                } else {
                    reach.reaches(a.block, b.block)
                };
                if ordered {
                    pairs.push((i as u32, j as u32));
                }
            }
        }

        NaiveOrderings { accesses, pairs }
    }

    fn kind(&self, p: (u32, u32)) -> OrderKind {
        let of = |a: AccessKind, b: AccessKind| match (a, b) {
            (AccessKind::Read, AccessKind::Read) => OrderKind::RR,
            (AccessKind::Read, AccessKind::Write) => OrderKind::RW,
            (AccessKind::Write, AccessKind::Read) => OrderKind::WR,
            (AccessKind::Write, AccessKind::Write) => OrderKind::WW,
        };
        of(
            self.accesses[p.0 as usize].kind,
            self.accesses[p.1 as usize].kind,
        )
    }

    /// Seed pruning: a full sweep of the pair list.
    pub fn prune(&self, sync_reads: &BitSet) -> Vec<(u32, u32)> {
        self.pairs
            .iter()
            .copied()
            .filter(|&(a, b)| {
                let fa = &self.accesses[a as usize];
                let fb = &self.accesses[b as usize];
                match self.kind((a, b)) {
                    OrderKind::RR => sync_reads.contains(fa.inst.index()),
                    OrderKind::WR => sync_reads.contains(fb.inst.index()),
                    OrderKind::RW | OrderKind::WW => true,
                }
            })
            .collect()
    }

    /// Seed per-kind pair counts: a sweep.
    pub fn counts_of(&self, pairs: &[(u32, u32)]) -> [usize; 4] {
        let mut c = [0usize; 4];
        for &p in pairs {
            c[self.kind(p).idx()] += 1;
        }
        c
    }

    /// Seed fence minimization: one interval per kept pair.
    pub fn minimize(
        &self,
        func: &fence_ir::Function,
        fid: FuncId,
        kept: &[(u32, u32)],
        target: TargetModel,
        entry_fence: bool,
    ) -> Vec<FencePoint> {
        struct Interval {
            block: u32,
            lo: u32,
            hi: u32,
            full: bool,
        }
        let mut intervals = Vec::with_capacity(kept.len());
        for &(ai, bi) in kept {
            let a = &self.accesses[ai as usize];
            let b = &self.accesses[bi as usize];
            if a.atomic || b.atomic {
                continue;
            }
            let kind = self.kind((ai, bi));
            let full = target.needs_full(kind);
            let term = func.block(a.block).insts.len() - 1;
            let (lo, hi) = if a.block == b.block && a.index < b.index {
                (a.index + 1, b.index)
            } else {
                (a.index + 1, term)
            };
            intervals.push(Interval {
                block: a.block.index() as u32,
                lo: lo as u32,
                hi: hi as u32,
                full,
            });
        }
        let mut by_block: Vec<Vec<Interval>> = (0..func.num_blocks()).map(|_| Vec::new()).collect();
        for iv in intervals {
            by_block[iv.block as usize].push(iv);
        }
        let mut points = Vec::new();
        if entry_fence {
            let kind = if target == TargetModel::ScHardware {
                FenceKind::Compiler
            } else {
                FenceKind::Full
            };
            points.push(FencePoint {
                func: fid,
                block: func.entry,
                gap: 0,
                kind,
            });
        }
        for (b, mut ivs) in by_block.into_iter().enumerate() {
            if ivs.is_empty() {
                continue;
            }
            ivs.sort_by_key(|iv| iv.hi);
            let mut full_pts: Vec<u32> = Vec::new();
            for iv in ivs.iter().filter(|iv| iv.full) {
                if full_pts.last().is_none_or(|&p| p < iv.lo) {
                    full_pts.push(iv.hi);
                }
            }
            let mut dir_pts: Vec<u32> = Vec::new();
            for iv in ivs.iter().filter(|iv| !iv.full) {
                let by_full = full_pts.iter().any(|&p| p >= iv.lo && p <= iv.hi);
                let by_dir = dir_pts.last().is_some_and(|&p| p >= iv.lo);
                if !by_full && !by_dir {
                    dir_pts.push(iv.hi);
                }
            }
            for p in full_pts {
                points.push(FencePoint {
                    func: fid,
                    block: BlockId::new(b),
                    gap: p as usize,
                    kind: FenceKind::Full,
                });
            }
            for p in dir_pts {
                points.push(FencePoint {
                    func: fid,
                    block: BlockId::new(b),
                    gap: p as usize,
                    kind: FenceKind::Compiler,
                });
            }
        }
        points
    }
}

/// Runs the whole seed ordering stage (generate → prune → counts →
/// minimize) over every function; returns a checksum so callers can
/// compare against the optimized stage.
pub fn naive_ordering_stage(
    module: &Module,
    escape: &EscapeInfo,
    sync_reads: &[BitSet],
    target: TargetModel,
) -> (usize, Vec<FencePoint>) {
    let mut total_kept = 0usize;
    let mut points = Vec::new();
    for (fid, func) in module.iter_funcs() {
        let ords = NaiveOrderings::generate(module, escape, fid);
        let kept = ords.prune(&sync_reads[fid.index()]);
        total_kept += ords.counts_of(&kept).iter().sum::<usize>();
        let entry = !sync_reads[fid.index()].is_empty();
        points.extend(ords.minimize(func, fid, &kept, target, entry));
    }
    (total_kept, points)
}

/// The seed per-function alias oracle, verbatim: one owned `BitSet`
/// clone per access (`to_bitset`), and `potential_writers` as a linear
/// filter over *all* writers of the function.
pub struct NaiveAliasOracle {
    unknown: usize,
    access_locs: Vec<Option<BitSet>>,
    writers: Vec<InstId>,
}

impl NaiveAliasOracle {
    /// Builds the seed oracle for `func_id`.
    pub fn new(module: &Module, pt: &PointsTo, func_id: FuncId) -> Self {
        let func = module.func(func_id);
        let mut access_locs = vec![None; func.num_insts()];
        let mut writers = Vec::new();
        for (iid, inst) in func.iter_insts() {
            if let Some(addr) = inst.kind.mem_addr() {
                access_locs[iid.index()] =
                    Some(pt.addr_locs(func_id, addr).to_bitset(pt.num_locs()));
                if inst.kind.is_mem_write() {
                    writers.push(iid);
                }
            } else if let InstKind::CallIntrinsic { intr, args } = &inst.kind {
                if intr.is_sync_boundary() {
                    if let Some(&addr) = args.first() {
                        access_locs[iid.index()] =
                            Some(pt.addr_locs(func_id, addr).to_bitset(pt.num_locs()));
                        writers.push(iid);
                    }
                }
            }
        }
        NaiveAliasOracle {
            unknown: pt.unknown_idx(),
            access_locs,
            writers,
        }
    }

    fn may_alias(&self, a: InstId, b: InstId) -> bool {
        let (sa, sb) = match (
            self.access_locs[a.index()].as_ref(),
            self.access_locs[b.index()].as_ref(),
        ) {
            (Some(x), Some(y)) => (x, y),
            _ => return false,
        };
        sa.contains(self.unknown) || sb.contains(self.unknown) || sa.intersects(sb)
    }

    /// The seed `O(writers)` linear filter.
    pub fn potential_writers(&self, read: InstId) -> Vec<InstId> {
        self.writers
            .iter()
            .copied()
            .filter(|&w| w != read && self.may_alias(read, w))
            .collect()
    }
}

/// The seed backwards slicer: eager writer cache for *every* local slot
/// and a `Vec` allocation per memory-read slice step.
struct NaiveSlicer<'a> {
    func: &'a Function,
    oracle: &'a NaiveAliasOracle,
    escaping: &'a BitSet,
    seen: BitSet,
    sync_reads: BitSet,
    local_writers: Vec<Vec<InstId>>,
}

impl<'a> NaiveSlicer<'a> {
    fn new(func: &'a Function, oracle: &'a NaiveAliasOracle, escaping: &'a BitSet) -> Self {
        let local_writers = (0..func.locals.len())
            .map(|l| func.writers_of_local(fence_ir::LocalId::new(l)))
            .collect();
        NaiveSlicer {
            func,
            oracle,
            escaping,
            seen: BitSet::new(func.num_insts()),
            sync_reads: BitSet::new(func.num_insts()),
            local_writers,
        }
    }

    fn push_def(work_list: &mut Vec<InstId>, v: Value) {
        if let Value::Inst(i) = v {
            work_list.push(i);
        }
    }

    fn slice(&mut self, mut work_list: Vec<InstId>) {
        while let Some(inst) = work_list.pop() {
            if !self.seen.insert(inst.index()) {
                continue;
            }
            let kind = &self.func.inst(inst).kind;
            if kind.is_mem_read() {
                if self.escaping.contains(inst.index()) {
                    self.sync_reads.insert(inst.index());
                }
                for w in self.oracle.potential_writers(inst) {
                    work_list.push(w);
                }
                if kind.is_mem_write() {
                    kind.for_each_operand(|v| Self::push_def(&mut work_list, v));
                }
            } else {
                match kind {
                    InstKind::ReadLocal { local } => {
                        work_list.extend_from_slice(&self.local_writers[local.index()]);
                    }
                    _ => {
                        kind.for_each_operand(|v| Self::push_def(&mut work_list, v));
                    }
                }
            }
        }
    }
}

/// The seed acquire detector: fresh oracle, linear writer scans, eager
/// slicer caches — the `acquire_scaling` baseline.
pub fn naive_detect_acquires(
    module: &Module,
    pt: &PointsTo,
    escape: &EscapeInfo,
    fid: FuncId,
    mode: DetectMode,
) -> AcquireInfo {
    let func = module.func(fid);
    let oracle = NaiveAliasOracle::new(module, pt, fid);
    let escaping = escape.escaping_set(fid);

    let mut control_slicer = NaiveSlicer::new(func, &oracle, escaping);
    let mut roots = Vec::new();
    for (_, inst) in func.iter_insts() {
        if let InstKind::CondBr { cond, .. } = inst.kind {
            NaiveSlicer::push_def(&mut roots, cond);
        }
    }
    control_slicer.slice(roots);
    let control = control_slicer.sync_reads.clone();

    let address = if mode == DetectMode::AddressControl {
        let mut addr_slicer = NaiveSlicer::new(func, &oracle, escaping);
        let mut roots = Vec::new();
        for (_, inst) in func.iter_insts() {
            match &inst.kind {
                InstKind::Gep { index, .. } => NaiveSlicer::push_def(&mut roots, *index),
                k if k.is_mem_access() => {
                    if let Some(addr) = k.mem_addr() {
                        NaiveSlicer::push_def(&mut roots, addr);
                    }
                }
                _ => {}
            }
        }
        addr_slicer.slice(roots);
        addr_slicer.sync_reads
    } else {
        BitSet::new(func.num_insts())
    };

    let mut sync_reads = control.clone();
    sync_reads.union_with(&address);
    AcquireInfo {
        control,
        address,
        sync_reads,
    }
}

/// The optimized ordering stage over every function (same work, new
/// algorithms) for apples-to-apples comparison.
pub fn optimized_ordering_stage(
    module: &Module,
    escape: &EscapeInfo,
    sync_reads: &[BitSet],
    target: TargetModel,
) -> (usize, Vec<FencePoint>) {
    use fenceplace::minimize::minimize_function;
    use fenceplace::orderings::FuncOrderings;
    let mut total_kept = 0usize;
    let mut points = Vec::new();
    for (fid, func) in module.iter_funcs() {
        let substrate = fence_ir::FuncSubstrate::new(func);
        let ords = FuncOrderings::generate(module, escape, fid, &substrate);
        let kept = ords.prune(&sync_reads[fid.index()]);
        // One aggregate computation serves counting and minimization,
        // mirroring the pipeline's per-(function, variant) cache.
        let aggs = kept.aggregates();
        total_kept += kept.counts_with(&aggs).iter().sum::<usize>();
        let entry = !sync_reads[fid.index()].is_empty();
        points.extend(minimize_function(func, fid, &kept, &aggs, target, entry));
    }
    (total_kept, points)
}

/// The seed points-to solver's result: one owned set per value, argument,
/// local and abstract location.
pub struct SeedPointsTo {
    /// Per function, per instruction result.
    pub val: Vec<Vec<BitSet>>,
    /// Per function, per argument.
    pub arg: Vec<Vec<BitSet>>,
    /// Per abstract location (same dense indexing as [`PointsTo`]).
    pub loc: Vec<BitSet>,
}

/// The seed Andersen solver, verbatim: apply every instruction's
/// constraints in program order, repeat until a whole round changes
/// nothing. `O(rounds · insts · locs/64)` with owned `BitSet` clones on
/// every operand visit — the baseline `pointsto_scaling` measures the
/// sharded constraint-graph solver against.
#[allow(clippy::needless_range_loop)] // seed control flow, kept verbatim
pub fn seed_points_to(module: &Module) -> SeedPointsTo {
    let mut locs: Vec<AbsLoc> = module
        .iter_globals()
        .map(|(g, _)| AbsLoc::Global(g))
        .collect();
    for (fid, func) in module.iter_funcs() {
        for (iid, inst) in func.iter_insts() {
            if matches!(inst.kind, InstKind::Alloc { .. }) {
                locs.push(AbsLoc::Alloc(fid, iid));
            }
        }
    }
    let unknown = locs.len();
    locs.push(AbsLoc::Unknown);
    let n = locs.len();
    // Prebuilt alloc-site map, exactly as the seed solver had it — an
    // O(locs) scan here would inflate the baseline on alloc-heavy
    // modules and overstate the sharded solver's speedup.
    let alloc_idx: fence_ir::util::FastMap<(u32, u32), usize> = locs
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match l {
            AbsLoc::Alloc(f, inst) => Some(((f.index() as u32, inst.index() as u32), i)),
            _ => None,
        })
        .collect();
    let alloc_of = |f: FuncId, i: InstId| alloc_idx[&(f.index() as u32, i.index() as u32)];

    let mut val: Vec<Vec<BitSet>> = module
        .funcs
        .iter()
        .map(|f| vec![BitSet::new(n); f.num_insts()])
        .collect();
    let mut arg: Vec<Vec<BitSet>> = module
        .funcs
        .iter()
        .map(|f| vec![BitSet::new(n); f.num_params as usize])
        .collect();
    let mut local: Vec<Vec<BitSet>> = module
        .funcs
        .iter()
        .map(|f| vec![BitSet::new(n); f.locals.len()])
        .collect();
    let mut loc = vec![BitSet::new(n); n];
    let mut ret = vec![BitSet::new(n); module.funcs.len()];
    loc[unknown].insert(unknown);

    let value_set = |val: &[Vec<BitSet>], arg: &[Vec<BitSet>], f: FuncId, v: Value| match v {
        Value::Const(_) => BitSet::new(n),
        Value::Global(g) => {
            let mut s = BitSet::new(n);
            s.insert(g.index());
            s
        }
        Value::Arg(a) => arg[f.index()][a as usize].clone(),
        Value::Inst(i) => val[f.index()][i.index()].clone(),
    };
    let addr_locs = |val: &[Vec<BitSet>], arg: &[Vec<BitSet>], f: FuncId, a: Value| {
        let mut s = value_set(val, arg, f, a);
        if s.is_empty() {
            s.insert(unknown);
        }
        s
    };

    let mut changed = true;
    while changed {
        changed = false;
        for (fid, func) in module.iter_funcs() {
            let fi = fid.index();
            for (iid, inst) in func.iter_insts() {
                match &inst.kind {
                    InstKind::Alloc { .. } => {
                        changed |= val[fi][iid.index()].insert(alloc_of(fid, iid));
                    }
                    InstKind::Gep { base, .. } => {
                        let s = value_set(&val, &arg, fid, *base);
                        changed |= val[fi][iid.index()].union_with(&s);
                    }
                    InstKind::Bin { lhs, rhs, .. } => {
                        for v in [*lhs, *rhs] {
                            let s = value_set(&val, &arg, fid, v);
                            changed |= val[fi][iid.index()].union_with(&s);
                        }
                    }
                    InstKind::Select {
                        then_val, else_val, ..
                    } => {
                        for v in [*then_val, *else_val] {
                            let s = value_set(&val, &arg, fid, v);
                            changed |= val[fi][iid.index()].union_with(&s);
                        }
                    }
                    InstKind::Load { addr } => {
                        let als = addr_locs(&val, &arg, fid, *addr);
                        let mut acc = BitSet::new(n);
                        for l in als.iter() {
                            acc.union_with(&loc[l]);
                        }
                        changed |= val[fi][iid.index()].union_with(&acc);
                    }
                    InstKind::Store { addr, val: v } => {
                        let s = value_set(&val, &arg, fid, *v);
                        let als = addr_locs(&val, &arg, fid, *addr);
                        for l in als.iter() {
                            changed |= loc[l].union_with(&s);
                        }
                    }
                    InstKind::AtomicRmw { addr, val: v, .. }
                    | InstKind::AtomicCas { addr, new: v, .. } => {
                        let als = addr_locs(&val, &arg, fid, *addr);
                        let mut acc = BitSet::new(n);
                        for l in als.iter() {
                            acc.union_with(&loc[l]);
                        }
                        changed |= val[fi][iid.index()].union_with(&acc);
                        let s = value_set(&val, &arg, fid, *v);
                        for l in als.iter() {
                            changed |= loc[l].union_with(&s);
                        }
                    }
                    InstKind::ReadLocal { local: lo } => {
                        let s = local[fi][lo.index()].clone();
                        changed |= val[fi][iid.index()].union_with(&s);
                    }
                    InstKind::WriteLocal { local: lo, val: v } => {
                        let s = value_set(&val, &arg, fid, *v);
                        changed |= local[fi][lo.index()].union_with(&s);
                    }
                    InstKind::Call { callee, args } => {
                        let cf = callee.index();
                        for (k, a) in args.iter().enumerate() {
                            if k < module.funcs[cf].num_params as usize {
                                let s = value_set(&val, &arg, fid, *a);
                                changed |= arg[cf][k].union_with(&s);
                            }
                        }
                        let r = ret[cf].clone();
                        changed |= val[fi][iid.index()].union_with(&r);
                    }
                    InstKind::Ret { val: Some(v) } => {
                        let s = value_set(&val, &arg, fid, *v);
                        changed |= ret[fi].union_with(&s);
                    }
                    _ => {}
                }
            }
        }
    }
    SeedPointsTo { val, arg, loc }
}
