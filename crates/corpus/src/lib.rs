//! # corpus
//!
//! The benchmark corpus of the evaluation, built as `fence-ir` modules:
//!
//! * [`kernels`] — the nine synchronization primitives of **Table II**
//!   (Chase-Lev WSQ, Cilk-5 THE, CLH, Dekker, Lamport, MCS, Michael-Scott
//!   queue, Peterson, Szymanski), modelled after their published
//!   pseudocode;
//! * [`splash`] — synchronization-faithful proxies of the fourteen
//!   SPLASH-2 programs (locks/barriers plus the documented ad hoc
//!   synchronization in FMM and Volrend);
//! * [`lockfree`] — the three lock-free programs: Canneal (PARSEC),
//!   Matrix (Michael-Scott queue work distribution) and SpanningTree
//!   (Bader-Cong work stealing);
//! * [`arbitrary`] — randomized-module generators shared by the
//!   property-test suites: the points-to cross-shard family and the
//!   litmus-shaped sync family driving the place→certify fuzzer.
//!
//! Every [`Program`] comes in two builds: `module` (no fences — the input
//! to the automatic pipeline) and `manual_module` (expert hand-placed
//! fences — the paper's performance baseline), plus a thread launch spec
//! and a result checker used by the tests.

#![warn(missing_docs)]

pub mod arbitrary;
pub mod hash;
pub mod kernels;
pub mod lockfree;
pub mod manifest;
pub mod splash;
pub mod synthetic;

pub use manifest::{
    is_file_backed, resolve_spec, resolve_specs, split_corpus, ManifestEntry, ManifestError,
    ModuleSource, ModuleSplitter, SourceItem,
};
pub use synthetic::synthetic_scaled;

use fence_ir::Module;
use memsim::ThreadSpec;

/// Which suite a program belongs to (Figure 7–10 grouping).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Suite {
    /// SPLASH-2 proxy.
    Splash2,
    /// Lock-free program.
    LockFree,
}

/// Workload scaling knobs (the paper used Simlarge-class inputs and 64
/// threads on real hardware; the simulator defaults are smaller).
#[derive(Copy, Clone, Debug)]
pub struct Params {
    /// Number of worker threads to launch.
    pub threads: usize,
    /// Problem-size scale factor (each program interprets it).
    pub scale: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            threads: 8,
            scale: 16,
        }
    }
}

impl Params {
    /// A tiny configuration for fast unit tests.
    pub fn tiny() -> Self {
        Params {
            threads: 4,
            scale: 4,
        }
    }
}

/// Validates a result of simulating the program.
pub type Checker = fn(&memsim::SimResult, &Module, &Params) -> Result<(), String>;

/// One benchmark program of the evaluation.
pub struct Program {
    /// Display name matching the paper's figures.
    pub name: &'static str,
    /// Suite grouping.
    pub suite: Suite,
    /// The legacy (fence-free) build — input to the automatic pipeline.
    pub module: Module,
    /// The expert build with hand-placed fences (`Manual` baseline).
    pub manual_module: Module,
    /// Thread launch specification.
    pub threads: Vec<ThreadSpec>,
    /// Number of hand-placed full fences in `manual_module`.
    pub manual_full_fences: usize,
    /// Optional correctness check on the simulation result.
    pub check: Option<Checker>,
    /// Parameters the program was built with.
    pub params: Params,
}

impl Program {
    /// Convenience: count the explicit full fences of the manual build.
    pub fn count_manual_fences(module: &Module) -> usize {
        let mut n = 0;
        for (_, f) in module.iter_funcs() {
            for (_, inst) in f.iter_insts() {
                if matches!(
                    inst.kind,
                    fence_ir::InstKind::Fence {
                        kind: fence_ir::FenceKind::Full
                    }
                ) {
                    n += 1;
                }
            }
        }
        n
    }
}

/// Builds the full 17-program corpus (14 SPLASH-2 + 3 lock-free) at the
/// given scale, in the order the paper's figures list them.
pub fn programs(params: &Params) -> Vec<Program> {
    let mut v = splash::all(params);
    v.extend(lockfree::all(params));
    v
}

/// The paper's program order (figures 7–10 x-axis).
pub const PROGRAM_NAMES: [&str; 17] = [
    "Barnes",
    "Cholesky",
    "FFT",
    "FMM",
    "LU-con",
    "LU-noncon",
    "Ocean-con",
    "Ocean-noncon",
    "Radiosity",
    "Radix",
    "Raytrace",
    "Volrend",
    "Water-NSquared",
    "Water-Spatial",
    "Canneal",
    "Matrix",
    "SpanningTree",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_complete_and_ordered() {
        let p = Params::tiny();
        let progs = programs(&p);
        assert_eq!(progs.len(), 17);
        let names: Vec<&str> = progs.iter().map(|p| p.name).collect();
        assert_eq!(names, PROGRAM_NAMES.to_vec());
    }

    #[test]
    fn all_modules_verify() {
        let p = Params::tiny();
        for prog in programs(&p) {
            let errs = fence_ir::verify_module(&prog.module);
            assert!(errs.is_empty(), "{}: {errs:?}", prog.name);
            let errs = fence_ir::verify_module(&prog.manual_module);
            assert!(errs.is_empty(), "{} (manual): {errs:?}", prog.name);
        }
    }

    #[test]
    fn manual_fence_counts_recorded() {
        let p = Params::tiny();
        for prog in programs(&p) {
            assert_eq!(
                Program::count_manual_fences(&prog.manual_module),
                prog.manual_full_fences,
                "{}",
                prog.name
            );
            assert_eq!(
                Program::count_manual_fences(&prog.module),
                0,
                "{} legacy build must be fence-free",
                prog.name
            );
        }
    }
}
