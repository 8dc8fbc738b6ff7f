//! Output checks against references that do not run the code under
//! test: the golden file recorded from the seed implementation, the
//! seed ordering stage preserved in `fence_bench::naive`, and the CLI's
//! own report for the daemon's answers.

use crate::json::J;
use fence_analysis::ModuleAnalysis;
use fence_bench::naive::{naive_detect_acquires, naive_ordering_stage};
use fence_ir::{FenceKind, Module};
use fenceplace::acquire::DetectMode;
use fenceplace::TargetModel;
use std::collections::HashMap;

/// What a placement must reproduce: fence points, full fences and
/// compiler fences (plus, where the reference knows them, the kept
/// ordering total and the acquire count).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Expect {
    pub points: u64,
    pub full: u64,
    pub compiler: u64,
    pub kept: Option<u64>,
    pub acquires: Option<u64>,
}

/// `tests/golden/pipeline.txt`, keyed by `label|variant|target`.
pub struct Golden(HashMap<String, Expect>);

impl Golden {
    pub fn load(path: &str) -> Result<Golden, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut map: HashMap<String, Expect> = HashMap::new();
        for line in text.lines() {
            let parts: Vec<&str> = line.split('|').collect();
            if parts.len() < 4 {
                continue;
            }
            let key = parts[..3].join("|");
            let field = |name: &str| -> Option<u64> {
                parts[3..]
                    .iter()
                    .find_map(|p| p.strip_prefix(name))
                    .and_then(|v| v.parse().ok())
            };
            let e = map.entry(key).or_default();
            if let Some(points) = field("points=") {
                e.points = points;
            } else {
                e.full += field("full=").ok_or_else(|| format!("bad golden line: {line}"))?;
                e.compiler += field("dir=").ok_or_else(|| format!("bad golden line: {line}"))?;
            }
        }
        Ok(Golden(map))
    }

    pub fn get(&self, label: &str, variant: &str, target: &str) -> Option<Expect> {
        self.0.get(&format!("{label}|{variant}|{target}")).copied()
    }
}

/// The seed implementation's placement of `module` under
/// `Control:x86tso`: seed acquire detection, then the seed ordering
/// stage (pair generation, pruning, counting, minimization).
pub fn naive_control_x86(module: &Module) -> Expect {
    let an = ModuleAnalysis::run(module);
    let mut acquires = 0u64;
    let sync: Vec<_> = module
        .iter_funcs()
        .map(|(fid, _)| {
            let info =
                naive_detect_acquires(module, &an.points_to, &an.escape, fid, DetectMode::Control);
            acquires += info.count() as u64;
            info.sync_reads
        })
        .collect();
    let (kept, points) = naive_ordering_stage(module, &an.escape, &sync, TargetModel::X86Tso);
    let full = points.iter().filter(|p| p.kind == FenceKind::Full).count() as u64;
    Expect {
        points: points.len() as u64,
        full,
        compiler: points.len() as u64 - full,
        kept: Some(kept as u64),
        acquires: Some(acquires),
    }
}

/// Compares one entry of a report's `configs` array with `want`;
/// returns a description of the first mismatch.
pub fn config_matches(cfg: &J, want: &Expect) -> Result<(), String> {
    let n = |k: &str| cfg.num(k).map(|v| v as u64);
    let kept: Option<u64> = cfg.arr("orderings_kept").map(|a| {
        a.iter()
            .map(|v| if let J::Num(x) = v { *x as u64 } else { 0 })
            .sum()
    });
    let got = Expect {
        points: n("fence_points").unwrap_or(u64::MAX),
        full: n("full_fences").unwrap_or(u64::MAX),
        compiler: n("compiler_fences").unwrap_or(u64::MAX),
        kept: want.kept.and(kept),
        acquires: want.acquires.and(n("acquires")),
    };
    if got == *want {
        Ok(())
    } else {
        Err(format!("got {got:?}, want {want:?}"))
    }
}

/// The CLI's report file stem for a job name (every non-alphanumeric
/// character becomes `_`, as the `--out` contract documents).
pub fn file_stem(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}
