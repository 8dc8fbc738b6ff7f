//! Property test: `parse_module` is total on arbitrary mutations of
//! well-formed printed IR — it returns `Ok` or a `ParseError` carrying a
//! plausible line number, and never panics, however the text is mangled.
//! On the same mutations it agrees with the seed parser
//! (`fence_bench::naive::seed_parse_module`): the same module, or the
//! same `(line, message)` diagnostic.
//!
//! Mutations model realistic corruption of `file:` specs: truncated
//! writes, dropped/duplicated/swapped lines, and byte splices (snapped
//! to char boundaries so the input stays valid UTF-8).

use proptest::prelude::*;

/// One text mutation, decoded from three raw numbers so the strategy
/// stays a plain tuple vector.
#[derive(Debug)]
enum Mutation {
    /// Cut the text at a byte offset.
    Truncate(usize),
    /// Remove one line.
    DeleteLine(usize),
    /// Repeat one line in place.
    DuplicateLine(usize),
    /// Exchange two lines.
    SwapLines(usize, usize),
    /// Insert a printable fragment at a byte offset.
    Splice(usize, u64),
    /// Overwrite one char with another printable char.
    Replace(usize, u64),
}

fn decode(op: u32, a: u64, b: u64) -> Mutation {
    match op % 6 {
        0 => Mutation::Truncate(a as usize),
        1 => Mutation::DeleteLine(a as usize),
        2 => Mutation::DuplicateLine(a as usize),
        3 => Mutation::SwapLines(a as usize, b as usize),
        4 => Mutation::Splice(a as usize, b),
        _ => Mutation::Replace(a as usize, b),
    }
}

/// Snaps `pos` (mod len+1) to the nearest char boundary at or below it.
fn snap(text: &str, pos: usize) -> usize {
    let mut p = pos % (text.len() + 1);
    while !text.is_char_boundary(p) {
        p -= 1;
    }
    p
}

/// Printable fragments a splice can inject — parser-adjacent tokens mixed
/// with junk, so mutations hit both "almost valid" and "nonsense" text.
const FRAGMENTS: [&str; 12] = [
    "bb",
    "%",
    "@",
    "fn ",
    "}",
    "{",
    ";",
    ":",
    "store ",
    "bb999999999",
    "\u{00e9}\u{2603}",
    "0x",
];

fn apply(text: &mut String, m: &Mutation) {
    match *m {
        Mutation::Truncate(pos) => {
            let p = snap(text, pos);
            text.truncate(p);
        }
        Mutation::DeleteLine(i) => {
            let mut lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return;
            }
            let i = i % lines.len();
            lines.remove(i);
            *text = lines.join("\n");
            text.push('\n');
        }
        Mutation::DuplicateLine(i) => {
            let mut lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return;
            }
            let i = i % lines.len();
            lines.insert(i, lines[i]);
            *text = lines.join("\n");
            text.push('\n');
        }
        Mutation::SwapLines(i, j) => {
            let mut lines: Vec<&str> = text.lines().collect();
            if lines.len() < 2 {
                return;
            }
            let (i, j) = (i % lines.len(), j % lines.len());
            lines.swap(i, j);
            *text = lines.join("\n");
            text.push('\n');
        }
        Mutation::Splice(pos, pick) => {
            let p = snap(text, pos);
            text.insert_str(p, FRAGMENTS[(pick % FRAGMENTS.len() as u64) as usize]);
        }
        Mutation::Replace(pos, pick) => {
            let p = snap(text, pos);
            if p >= text.len() {
                return;
            }
            let c = text[p..].chars().next().unwrap();
            let replacement = (b' ' + (pick % 95) as u8) as char;
            text.replace_range(p..p + c.len_utf8(), &replacement.to_string());
        }
    }
}

/// Printed forms of the seed modules mutations start from: four kernels
/// plus one module from each `corpus::arbitrary` generator family, so
/// mutations also exercise generated-shape text (branches with locals,
/// call/alloc pointer flows).
fn seeds() -> Vec<String> {
    let p = corpus::Params::tiny();
    let mut out: Vec<String> = [
        "kernel:Dekker",
        "kernel:Peterson",
        "kernel:Lamport",
        "kernel:CLH Lock",
    ]
    .iter()
    .map(|spec| {
        let entries = corpus::resolve_spec(spec, &p).expect("seed spec resolves");
        fence_ir::printer::print_module(&entries[0].module)
    })
    .collect();
    let mut rng = proptest::TestRng::from_seed(0x5eed);
    let sync = corpus::arbitrary::sync_shape_strategy().new_value(&mut rng);
    out.push(fence_ir::printer::print_module(
        &corpus::arbitrary::build_sync(&sync),
    ));
    let pt = corpus::arbitrary::pt_shape_strategy().new_value(&mut rng);
    out.push(fence_ir::printer::print_module(
        &corpus::arbitrary::build_pt(&pt, false),
    ));
    out
}

/// Checks `parse_module` against the seed parser on one text. Where the
/// seed returns a module, `parse_module` must return the same one: equal
/// printed bytes and equal `Debug` forms, which also cover what the
/// printer drops or rewrites (block names, raw local names, the entry
/// block). Where the seed returns a diagnostic, `parse_module` must
/// return one with the same line and message. Where the seed panics,
/// `parse_module` must return a diagnostic.
fn same_as_seed(text: &str) -> Result<(), String> {
    let new = fence_ir::parser::parse_module(text);
    let seed = std::panic::catch_unwind(|| fence_bench::naive::seed_parse_module(text));
    match (seed, new) {
        (Ok(Ok(seed)), Ok(new)) => {
            prop_assert_eq!(
                fence_ir::printer::print_module(&new),
                fence_ir::printer::print_module(&seed)
            );
            prop_assert_eq!(format!("{new:?}"), format!("{seed:?}"));
        }
        (Ok(Err(seed)), Err(new)) => prop_assert_eq!(new, seed),
        (Err(_), Err(_)) => {}
        (seed, new) => {
            let seed = seed.map_err(|_| "panic");
            prop_assert!(false, "seed {seed:?} but new {new:?}");
        }
    }
    Ok(())
}

/// Panics with the differential's message if `text` parses differently
/// from the seed; returns `parse_module`'s result for further checks.
fn check(text: &str) -> Result<fence_ir::Module, fence_ir::parser::ParseError> {
    if let Err(msg) = same_as_seed(text) {
        panic!("parser differs from the seed on {text:?}: {msg}");
    }
    fence_ir::parser::parse_module(text)
}

const MP: &str = "module mp
global data 1
global flag 1

fn producer params=0 locals=() {
bb0: ; start
  store @data, c42
  store @flag, c1
  ret
}

fn consumer params=0 locals=(x) {
bb0:
  br bb1
bb1: ; spin
  %v = load @flag
  %c = cmp eq %v, c0
  condbr %c, bb1, bb2
bb2:
  %d = load @data
  write_local x, %d
  ret %d
}
";

#[test]
fn seed_agrees_on_line_endings_and_whitespace() {
    let base = check(MP).expect("MP parses");
    let crlf = MP.replace('\n', "\r\n");
    let tabs = MP.replace("  ", "\t");
    // U+00A0 is whitespace to the lexer, inside a line and in a comment.
    let nbsp = MP
        .replace("store @data, c42", "store\u{a0}@data,\u{a0}c42")
        .replace("; spin", ";\u{a0}spin\u{a0}");
    for text in [&crlf, &tabs, &nbsp] {
        let m = check(text).expect("reformatted MP parses");
        assert_eq!(format!("{m:?}"), format!("{base:?}"));
    }
    // A body error keeps its line number under `\r\n`.
    let bad = MP.replace("ret %d", "ret %nope").replace('\n', "\r\n");
    assert_eq!(check(&bad).unwrap_err().line, 22);
}

#[test]
fn seed_agrees_on_labels_and_forward_references() {
    // `bb1 :` with a space is a block label like `bb1:`.
    let spaced = MP.replace("bb1: ; spin", "bb1 : ; spin");
    let m = check(&spaced).expect("spaced label parses");
    assert_eq!(m.funcs[1].blocks[1].name, "spin");
    // A repeated label line reopens its block; an empty comment keeps the
    // name an earlier label line gave it.
    let reopened = "module m\nfn f params=0 locals=() {\nbb0: ; first\n  %a = load c0\n\
                    bb0: ;\n  ret %a\n}\n";
    let m = check(reopened).expect("reopened block parses");
    assert_eq!(m.funcs[0].blocks[0].name, "first");
    // A `%label` used before the line defining it, and a global declared
    // after the function using it.
    let fwd = "module m\nfn f params=0 locals=() {\nbb0:\n  br bb1\nbb2:\n  \
               ret %v\nbb1:\n  %v = load @late\n  br bb2\n}\nglobal late 1\n";
    check(fwd).expect("forward references resolve");
    // The main pass reports an unknown instruction on line 4 only after
    // the pre-pass found no duplicate label (line 6 here): pre-pass wins.
    let twice = "module m\nfn f params=0 locals=() {\nbb0:\n  frob\n  %a = load c0\n  \
                 %a = load c0\n  ret\n}\n";
    let e = check(twice).unwrap_err();
    assert_eq!(
        (e.line, e.message.as_str()),
        (6, "duplicate result label %a")
    );
}

#[test]
fn seed_agrees_on_closing_lines_and_error_order() {
    // `} x` and `}x` end the body for the header scan, but only a line
    // that is exactly `}` terminates it.
    for close in ["} x", "}x", "}}"] {
        let text = MP.replacen("  ret\n}", &format!("  ret\n{close}"), 1);
        let e = check(&text).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (5, "unterminated function body (missing `}`)")
        );
    }
    // A header error after a body error wins: the header scan runs first.
    let text = format!("{MP}global data 2\n").replace("ret %d", "ret %nope");
    let e = check(&text).unwrap_err();
    assert_eq!((e.line, e.message.as_str()), (24, "duplicate global data"));
    // Of two body errors, the earlier function's wins.
    let text = MP
        .replace("store @flag, c1", "store @nope, c1")
        .replace("ret %d", "ret %x");
    assert_eq!(check(&text).unwrap_err().line, 8);
}

#[test]
fn truncated_entry_is_a_diagnostic() {
    // The seed indexes past the header here and panics; `parse_module`
    // reports the malformed header instead.
    let text = "module m\nfn f params=0 locals=() entry=\nbb0:\n  ret\n}\n";
    let e = check(text).unwrap_err();
    assert_eq!((e.line, e.message.as_str()), (2, "expected `entry=bbK`"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On mutated printed IR `parse_module` returns exactly what the seed
    /// parser returns: the same module or the same diagnostic.
    #[test]
    fn parse_module_matches_seed_under_mutation(
        input in (
            0usize..6,
            proptest::collection::vec((0u32..6, any::<u64>(), any::<u64>()), 1..8),
        )
    ) {
        let (seed_idx, raw_mutations) = input;
        let seeds = seeds();
        let mut text = seeds[seed_idx].clone();
        for (op, a, b) in &raw_mutations {
            apply(&mut text, &decode(*op, *a, *b));
        }
        same_as_seed(&text)?;
    }

    /// However we mangle printed IR, the parser never panics: it returns
    /// `Ok` or a `ParseError` whose line number points into the text.
    #[test]
    fn parse_module_is_total_under_mutation(
        input in (
            0usize..6,
            proptest::collection::vec((0u32..6, any::<u64>(), any::<u64>()), 1..8),
        )
    ) {
        let (seed_idx, raw_mutations) = input;
        let seeds = seeds();
        let mut text = seeds[seed_idx].clone();
        for (op, a, b) in &raw_mutations {
            apply(&mut text, &decode(*op, *a, *b));
        }
        match fence_ir::parser::parse_module(&text) {
            Ok(module) => {
                // Whatever parsed must at least survive re-printing
                // (the printer indexes blocks/insts the parser built).
                let _ = fence_ir::printer::print_module(&module);
            }
            Err(e) => {
                let max_line = text.lines().count().max(1);
                prop_assert!(
                    e.line >= 1 && e.line <= max_line,
                    "error line {} outside 1..={} for error `{}`",
                    e.line,
                    max_line,
                    e
                );
                prop_assert!(!e.message.is_empty());
            }
        }
    }

    /// Splitting a concatenation of printed seed modules recovers each
    /// module's text: every chunk parses, and chunk-by-chunk parsing is
    /// equivalent to parsing each module individually (the streamed
    /// `pack:` ingestion path ≡ the per-file path).
    #[test]
    fn split_then_parse_equals_parse_individually(
        picks in proptest::collection::vec(0usize..6, 1..6)
    ) {
        let seeds = seeds();
        let mut pack = String::new();
        for &i in &picks {
            pack.push_str(&seeds[i]);
        }
        let chunks = corpus::split_corpus(&pack);
        prop_assert_eq!(chunks.len(), picks.len(), "one chunk per module");
        for (chunk, &i) in chunks.iter().zip(&picks) {
            let from_chunk = fence_ir::parser::parse_module(chunk)
                .expect("chunk of well-formed pack parses");
            let individually = fence_ir::parser::parse_module(&seeds[i]).unwrap();
            prop_assert_eq!(
                fence_ir::printer::print_module(&from_chunk),
                fence_ir::printer::print_module(&individually),
                "chunk {} diverges from its source module", i
            );
        }
    }

    /// The splitter is total on arbitrary mutations of a pack: it never
    /// panics, never loses bytes outside line endings — every chunk's
    /// lines appear in the input in order — and mis-split chunks merely
    /// fail to parse (the streamed path quarantines them).
    #[test]
    fn splitter_is_total_under_mutation(
        input in (
            proptest::collection::vec(0usize..6, 1..4),
            proptest::collection::vec((0u32..6, any::<u64>(), any::<u64>()), 1..8),
        )
    ) {
        let (picks, raw_mutations) = input;
        let seeds = seeds();
        let mut pack = String::new();
        for &i in &picks {
            pack.push_str(&seeds[i]);
        }
        for (op, a, b) in &raw_mutations {
            apply(&mut pack, &decode(*op, *a, *b));
        }
        let chunks = corpus::split_corpus(&pack);
        // Conservation: as long as any content line survived the
        // mutations, the chunks' lines are exactly the input's lines in
        // order. (A pack of only blank/comment lines yields no chunks.)
        let has_content = pack.lines().any(|l| {
            let code = l.split(';').next().unwrap_or("");
            code.split_whitespace().next().is_some()
        });
        let rejoined: Vec<&str> = chunks.iter().flat_map(|c| c.lines()).collect();
        if has_content {
            let original: Vec<&str> = pack.lines().collect();
            prop_assert_eq!(rejoined, original, "splitter must not lose or reorder lines");
        } else {
            prop_assert!(chunks.is_empty(), "content-free pack yields no chunks");
        }
        for chunk in &chunks {
            // Parsing a chunk must be total too (Ok or a ParseError).
            let _ = fence_ir::parser::parse_module(chunk);
        }
    }
}
