//! Seeded input generation. The program under test only ever sees the
//! files and request texts built here; the seed fixes file names (and so
//! the order a `dir:` spec lists them in), synthetic module sizes, the
//! reader's request order and every edit.

use corpus::Params;
use fence_ir::printer::print_module;
use fence_ir::{InstKind, Module, Value};
use std::path::{Path, PathBuf};

/// splitmix64: small, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed, so adding a
    /// draw for one purpose never shifts the draws of another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Draw purposes (the `stream` argument of [`Rng::new`]).
pub const NAMES: u64 = 1;
pub const SIZES: u64 = 2;
pub const READER: u64 = 3;
pub const EDITS: u64 = 4;

/// One generated input module: its golden-file label (for the paper's
/// programs), the in-memory module it was printed from, and the text.
pub struct Input {
    pub label: String,
    pub module: Module,
    pub text: String,
}

impl Input {
    fn new(label: String, module: Module) -> Self {
        let text = print_module(&module);
        Input {
            label,
            module,
            text,
        }
    }
}

/// The paper's 26 programs: the nine Table II kernels and the seventeen
/// SPLASH-2/lock-free programs at `Params::default()`, labelled as in
/// `tests/golden/pipeline.txt`.
pub fn paper_programs() -> Vec<Input> {
    let params = Params::default();
    let mut out: Vec<Input> = corpus::kernels::all()
        .into_iter()
        .map(|k| Input::new(format!("kernel:{}", k.name), k.module))
        .collect();
    out.extend(
        corpus::programs(&params)
            .into_iter()
            .map(|p| Input::new(format!("corpus:{}@s{}", p.name, params.scale), p.module)),
    );
    out
}

/// `synthetic_scaled(n)` for each drawn size.
pub fn synthetic(sizes: &[usize]) -> Vec<Input> {
    sizes
        .iter()
        .map(|&n| Input::new(format!("synthetic:{n}"), corpus::synthetic_scaled(n)))
        .collect()
}

/// Sizes for the `large_stream` pack: four modules, three drawn from
/// [18000, 22000] and the fourth making the sum exactly `total`, so
/// every seed parses the same amount of IR in modules of similar shape
/// (peak memory under a two-module window then depends on the program,
/// not on which two modules a seed happened to make largest).
pub fn stream_sizes(rng: &mut Rng, total: usize) -> Vec<usize> {
    let mut out: Vec<usize> = (0..3).map(|_| rng.range(18_000, 22_000)).collect();
    out.push(total - out.iter().sum::<usize>());
    rng.shuffle(&mut out);
    out
}

/// Sizes for the daemon's four synthetic modules: one draw from each of
/// four narrow ranges spread over [250, 1000], so every seed sends the
/// same spread of request sizes (16–70 KB of text) and the size buckets
/// stay comparable from seed to seed.
pub fn serve_sizes(rng: &mut Rng) -> Vec<usize> {
    let mut out: Vec<usize> = [(250, 270), (490, 510), (730, 750), (980, 1000)]
        .iter()
        .map(|&(lo, hi)| rng.range(lo, hi))
        .collect();
    rng.shuffle(&mut out);
    out
}

/// Writes each input as `<dir>/<seeded hex name>.fir` and returns the
/// paths in the order a `dir:` spec lists them (sorted), paired with the
/// index of the input each holds.
pub fn write_dir(
    dir: &Path,
    inputs: &[Input],
    rng: &mut Rng,
) -> std::io::Result<Vec<(PathBuf, usize)>> {
    std::fs::create_dir_all(dir)?;
    let mut files: Vec<(PathBuf, usize)> = (0..inputs.len())
        .map(|i| (dir.join(format!("{:016x}.fir", rng.next())), i))
        .collect();
    for (path, i) in &files {
        std::fs::write(path, &inputs[*i].text)?;
    }
    files.sort();
    Ok(files)
}

/// One edit: a new constant in one seeded store of one seeded function.
/// `stamp` makes every edit's constant distinct, so no edited text ever
/// repeats an earlier one.
pub fn edit(module: &mut Module, rng: &mut Rng, stamp: u64) {
    loop {
        let f = rng.below(module.funcs.len());
        let func = &mut module.funcs[f];
        let sites: Vec<usize> = func
            .insts
            .iter()
            .enumerate()
            .filter(|(_, inst)| {
                matches!(
                    inst.kind,
                    InstKind::Store {
                        val: Value::Const(_),
                        ..
                    }
                )
            })
            .map(|(i, _)| i)
            .collect();
        if sites.is_empty() {
            continue;
        }
        let i = sites[rng.below(sites.len())];
        if let InstKind::Store { val, .. } = &mut func.insts[i].kind {
            *val = Value::Const(1_000 + (stamp as i64) * 1_000 + rng.below(1_000) as i64);
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_sizes_sum_and_range() {
        for seed in 0..200 {
            let sizes = stream_sizes(&mut Rng::new(seed, SIZES), 80_000);
            assert_eq!(sizes.iter().sum::<usize>(), 80_000);
            assert!(
                sizes.iter().all(|&n| (14_000..=26_000).contains(&n)),
                "{sizes:?}"
            );
        }
    }
}
