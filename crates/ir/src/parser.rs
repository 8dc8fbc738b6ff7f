//! Parser for the textual IR format emitted by [`crate::printer`].
//!
//! The format is line-oriented; `;` starts a comment. See the printer docs
//! for the grammar by example. One lexer, [`tokenize`], splits a line into
//! `&str` slices of the input, so no line is copied and only the names
//! that end up in the [`Module`] are allocated.
//!
//! Forward references (mutually recursive calls, globals declared after
//! their users, instruction results used across blocks) resolve without
//! declaration order constraints, because parsing runs in two steps:
//!
//! 1. the header scan reads the `module`, `global` and `fn` lines and
//!    finds where each function body ends, from the first token of each
//!    body line;
//! 2. each body is then tokenized once into a buffer that a pre-pass
//!    (blocks, instruction ids, `%label`s) and the main pass both read.
//!
//! This order also fixes which diagnostic a text with several errors
//! reports: any header error, else the first function's pre-pass error,
//! else its main-pass error, then the next function's.

use crate::func::{Block, Function, Inst};
use crate::ids::{BlockId, FuncId, GlobalId, InstId, LocalId};
use crate::inst::{BinOp, CmpOp, FenceKind, InstKind, Intrinsic, RmwOp};
use crate::module::{GlobalDecl, Module};
use crate::util::FastMap;
use crate::value::Value;

/// A parse diagnostic with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

fn is_punct(c: char) -> bool {
    matches!(c, ',' | '(' | ')' | '=' | '{' | '}')
}

/// The lexer: the tokens of one line, borrowed from it. `, ( ) = { }` are
/// single-char tokens, whitespace separates tokens, and `;` starts a
/// comment that runs to the end of the line.
pub fn tokenize(line: &str) -> impl Iterator<Item = &str> {
    let mut rest = line;
    std::iter::from_fn(move || {
        rest = rest.trim_start();
        let len = match rest.chars().next()? {
            ';' => return None,
            c if is_punct(c) => 1,
            _ => rest
                .find(|c: char| c.is_whitespace() || c == ';' || is_punct(c))
                .unwrap_or(rest.len()),
        };
        let (tok, tail) = rest.split_at(len);
        rest = tail;
        Some(tok)
    })
}

/// The first token of `line`; `None` for a blank or comment-only line.
pub fn first_token(line: &str) -> Option<&str> {
    tokenize(line).next()
}

struct FuncCtx<'a> {
    globals: &'a FastMap<&'a str, GlobalId>,
    funcs: &'a FastMap<&'a str, FuncId>,
    locals: FastMap<&'a str, LocalId>,
    inst_labels: FastMap<&'a str, InstId>,
}

impl FuncCtx<'_> {
    fn value(&self, tok: &str, line: usize) -> Result<Value, ParseError> {
        if let Some(rest) = tok.strip_prefix('c') {
            if let Ok(v) = rest.parse::<i64>() {
                return Ok(Value::Const(v));
            }
        }
        if let Some(name) = tok.strip_prefix('@') {
            return match self.globals.get(name) {
                Some(&g) => Ok(Value::Global(g)),
                None => err(line, format!("unknown global @{name}")),
            };
        }
        if let Some(rest) = tok.strip_prefix("arg") {
            if let Ok(a) = rest.parse::<u16>() {
                return Ok(Value::Arg(a));
            }
        }
        if let Some(label) = tok.strip_prefix('%') {
            return match self.inst_labels.get(label) {
                Some(&i) => Ok(Value::Inst(i)),
                None => err(line, format!("unknown value %{label}")),
            };
        }
        err(line, format!("cannot parse value `{tok}`"))
    }

    fn local(&self, tok: &str, line: usize) -> Result<LocalId, ParseError> {
        match self.locals.get(tok) {
            Some(&l) => Ok(l),
            None => err(line, format!("unknown local `{tok}`")),
        }
    }
}

fn parse_block_ref(tok: &str, line: usize) -> Result<BlockId, ParseError> {
    match tok.strip_prefix("bb").and_then(|r| r.parse::<usize>().ok()) {
        Some(i) => Ok(BlockId::new(i)),
        None => err(line, format!("expected block reference, got `{tok}`")),
    }
}

/// The `bbN` of a block label line, written `bbN:` or `bbN :`.
fn block_label<'t>(toks: &[&'t str]) -> Option<&'t str> {
    match *toks {
        [first, ":", ..] if first.starts_with("bb") => Some(first),
        [first, ..] => first.strip_suffix(':').filter(|s| s.starts_with("bb")),
        [] => None,
    }
}

/// Splits a `%label = <inst>` line into its label and instruction.
fn split_result<'s, 't>(toks: &'s [&'t str]) -> (Option<&'t str>, &'s [&'t str]) {
    match *toks {
        [first, "=", ..] if first.starts_with('%') => (Some(&first[1..]), &toks[2..]),
        _ => (None, toks),
    }
}

/// Parses operand lists of the shape `a, b, c` (given already-split tokens).
fn parse_args(toks: &[&str], ctx: &FuncCtx, line: usize) -> Result<Vec<Value>, ParseError> {
    let mut args = Vec::new();
    let mut expect_value = true;
    for &t in toks {
        if t == "," {
            if expect_value {
                return err(line, "misplaced comma");
            }
            expect_value = true;
        } else {
            if !expect_value {
                return err(line, format!("expected comma before `{t}`"));
            }
            args.push(ctx.value(t, line)?);
            expect_value = false;
        }
    }
    if expect_value && !args.is_empty() {
        return err(line, "trailing comma");
    }
    Ok(args)
}

/// A function found by the header scan.
struct FnHeader<'a> {
    /// 1-based line of the `fn` header.
    line: usize,
    /// The header's tokens: `fn <name> params = <n> ...`.
    toks: Vec<&'a str>,
    num_params: u16,
    /// The text's lines after the header.
    after: std::str::Lines<'a>,
    /// How many lines lie between the header and the `}` line closing
    /// the body; `None` while the body is unterminated.
    body_lines: Option<usize>,
}

/// Parses a full module from text.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut module = Module::new("anonymous");
    let mut global_map: FastMap<&str, GlobalId> = FastMap::default();
    let mut func_map: FastMap<&str, FuncId> = FastMap::default();
    let mut headers: Vec<FnHeader> = Vec::new();

    // ---- header scan ----
    // Inside a `fn ... {` body only a line's first token matters: `}`
    // ends the body, which the body parse reads. *Top-level* lines must
    // be one of the known directives — free text is a parse error, not
    // an empty module.
    let mut in_body = false;
    let mut nested_fn = false;
    let mut toks: Vec<&str> = Vec::new();
    let mut lines = text.lines();
    let mut ln = 0;
    while let Some(line) = lines.next() {
        ln += 1;
        if in_body {
            let mut line_toks = tokenize(line);
            match line_toks.next() {
                // A body ends at a line that is exactly `}`, with no `fn`
                // line before it; any other `}` line leaves it unterminated.
                Some("}") => {
                    in_body = false;
                    if let Some(f) = headers.last_mut() {
                        if !nested_fn && line_toks.next().is_none() {
                            f.body_lines = Some(ln - f.line - 1);
                        }
                    }
                }
                Some("fn") => nested_fn = true,
                _ => {}
            }
            continue;
        }
        toks.clear();
        toks.extend(tokenize(line));
        let Some(&first) = toks.first() else {
            continue;
        };
        match first {
            "module" => {
                if toks.len() != 2 {
                    return err(ln, "expected `module <name>`");
                }
                module.name = toks[1].to_string();
            }
            "global" => {
                if toks.len() < 3 {
                    return err(ln, "expected `global <name> <words> [= inits]`");
                }
                let name = toks[1];
                let words: u32 = match toks[2].parse() {
                    Ok(w) => w,
                    Err(_) => return err(ln, "bad global size"),
                };
                let mut init = Vec::new();
                if toks.len() > 3 {
                    if toks[3] != "=" {
                        return err(ln, "expected `=` before initializers");
                    }
                    for t in &toks[4..] {
                        match t.parse::<i64>() {
                            Ok(v) => init.push(v),
                            Err(_) => return err(ln, format!("bad initializer `{t}`")),
                        }
                    }
                    if init.len() > words as usize {
                        return err(ln, "more initializers than words");
                    }
                }
                if global_map.contains_key(name) {
                    return err(ln, format!("duplicate global {name}"));
                }
                global_map.insert(name, GlobalId::new(module.globals.len()));
                module.globals.push(GlobalDecl {
                    name: name.to_string(),
                    words,
                    init,
                });
            }
            "fn" => {
                // `fn <name> params = <n> ...`
                if toks.len() < 5 || toks[2] != "params" || toks[3] != "=" {
                    return err(ln, "expected `fn <name> params=<n> locals=(..) {`");
                }
                let num_params: u16 = match toks[4].parse() {
                    Ok(p) => p,
                    Err(_) => return err(ln, "bad params count"),
                };
                if func_map.contains_key(toks[1]) {
                    return err(ln, format!("duplicate function {}", toks[1]));
                }
                func_map.insert(toks[1], FuncId::new(headers.len()));
                headers.push(FnHeader {
                    line: ln,
                    toks: toks.clone(),
                    num_params,
                    after: lines.clone(),
                    body_lines: None,
                });
                in_body = true;
                nested_fn = false;
            }
            other => {
                return err(
                    ln,
                    format!(
                        "unexpected top-level `{other}` (expected `module`, `global`, or `fn`)"
                    ),
                );
            }
        }
    }

    // ---- function bodies, in order ----
    for f in &headers {
        let Some(body_lines) = f.body_lines else {
            return err(f.line, "unterminated function body (missing `}`)");
        };
        let func = parse_function_body(f, body_lines, &global_map, &func_map)?;
        module.funcs.push(func);
    }
    Ok(module)
}

fn parse_function_body<'a>(
    header: &FnHeader<'a>,
    body_lines: usize,
    global_map: &FastMap<&'a str, GlobalId>,
    func_map: &FastMap<&'a str, FuncId>,
) -> Result<Function, ParseError> {
    let header_ln = header.line;
    let header_toks = &header.toks;
    let mut func = Function::new(header_toks[1], header.num_params);

    // Header extras: locals=(..) and optional entry=bbK.
    let mut ctx = FuncCtx {
        globals: global_map,
        funcs: func_map,
        locals: FastMap::default(),
        inst_labels: FastMap::default(),
    };
    let mut t = 5;
    let mut entry: Option<BlockId> = None;
    while t < header_toks.len() {
        match header_toks[t] {
            "locals" => {
                if !matches!(header_toks.get(t + 1..t + 3), Some(["=", "("])) {
                    return err(header_ln, "expected `locals=(...)`");
                }
                t += 3;
                while t < header_toks.len() && header_toks[t] != ")" {
                    let lname = header_toks[t];
                    let lid = LocalId::new(func.locals.len());
                    if ctx.locals.insert(lname, lid).is_some() {
                        return err(header_ln, format!("duplicate local {lname}"));
                    }
                    func.locals.push(lname.to_string());
                    t += 1;
                }
                t += 1; // skip `)`
            }
            "entry" => {
                let Some(["=", block]) = header_toks.get(t + 1..t + 3) else {
                    return err(header_ln, "expected `entry=bbK`");
                };
                entry = Some(parse_block_ref(block, header_ln)?);
                t += 3;
            }
            "{" => t += 1,
            other => return err(header_ln, format!("unexpected token `{other}` in header")),
        }
    }

    // Tokenize the body once; both passes below read the buffer.
    let mut body_toks: Vec<&str> = Vec::new();
    let mut spans = Vec::with_capacity(body_lines);
    for line in header.after.clone().take(body_lines) {
        let start = body_toks.len();
        body_toks.extend(tokenize(line));
        spans.push((start..body_toks.len(), line));
    }
    let body = || {
        (spans.iter().enumerate())
            .map(|(k, (r, line))| (header_ln + 1 + k, &body_toks[r.clone()], *line))
    };

    // Pre-pass over body: assign InstIds in appearance order; bind labels;
    // discover blocks. The block table is dense (`0..=max_block`), so a
    // label index is bounded by the body line count — every block needs
    // its own label line — which keeps a mutated `bb999999999:` label
    // from allocating a billion empty blocks.
    let mut max_block = 0usize;
    let mut saw_block = false;
    let mut next_inst = 0usize;
    for (ln, toks, _) in body() {
        if toks.is_empty() {
            continue;
        }
        if let Some(label) = block_label(toks) {
            let b = parse_block_ref(label, ln)?;
            if b.index() >= body_lines {
                return err(
                    ln,
                    format!(
                        "block label `{label}` out of range (function body has {body_lines} lines)"
                    ),
                );
            }
            max_block = max_block.max(b.index());
            saw_block = true;
            continue;
        }
        if !saw_block {
            return err(ln, "instruction before any block label");
        }
        if let (Some(label), _) = split_result(toks) {
            if ctx
                .inst_labels
                .insert(label, InstId::new(next_inst))
                .is_some()
            {
                return err(ln, format!("duplicate result label %{label}"));
            }
        }
        next_inst += 1;
    }
    func.blocks = vec![Block::default(); max_block + 1];
    func.insts = Vec::with_capacity(next_inst);
    func.entry = entry.unwrap_or(BlockId::new(0));

    // Main pass. The pre-pass rejected instructions before the first
    // label, so `current` is set before it is read.
    let mut current = BlockId::new(0);
    for (ln, toks, line) in body() {
        if toks.is_empty() {
            continue;
        }
        if let Some(label) = block_label(toks) {
            let b = parse_block_ref(label, ln)?;
            // A trailing comment on the label line is the block's name.
            let comment = line.split_once(';').map_or("", |(_, c)| c.trim());
            if !comment.is_empty() {
                func.blocks[b.index()].name = comment.to_string();
            }
            current = b;
            continue;
        }
        let (label, inst) = split_result(toks);
        let kind = parse_inst(inst, &ctx, ln)?;
        if label.is_some() && !kind.has_result() {
            return err(ln, "instruction produces no result but one is bound");
        }
        func.blocks[current.index()]
            .insts
            .push(InstId::new(func.insts.len()));
        func.insts.push(Inst { kind });
    }

    // Drop the growth slack: a parsed module can stay resident for long
    // (the analysis service caches it).
    for block in &mut func.blocks {
        block.insts.shrink_to_fit();
    }
    Ok(func)
}

fn parse_inst(toks: &[&str], ctx: &FuncCtx, ln: usize) -> Result<InstKind, ParseError> {
    if toks.is_empty() {
        return err(ln, "empty instruction");
    }
    let mn = toks[0];
    let rest = &toks[1..];
    let kind = match mn {
        "load" => {
            let a = parse_args(rest, ctx, ln)?;
            if a.len() != 1 {
                return err(ln, "load takes 1 operand");
            }
            InstKind::Load { addr: a[0] }
        }
        "store" => {
            let a = parse_args(rest, ctx, ln)?;
            if a.len() != 2 {
                return err(ln, "store takes 2 operands");
            }
            InstKind::Store {
                addr: a[0],
                val: a[1],
            }
        }
        "rmw" => {
            if rest.is_empty() {
                return err(ln, "rmw needs an operator");
            }
            let op = RmwOp::from_name(rest[0]).ok_or(ParseError {
                line: ln,
                message: format!("bad rmw op `{}`", rest[0]),
            })?;
            let a = parse_args(&rest[1..], ctx, ln)?;
            if a.len() != 2 {
                return err(ln, "rmw takes 2 operands");
            }
            InstKind::AtomicRmw {
                op,
                addr: a[0],
                val: a[1],
            }
        }
        "cas" => {
            let a = parse_args(rest, ctx, ln)?;
            if a.len() != 3 {
                return err(ln, "cas takes 3 operands");
            }
            InstKind::AtomicCas {
                addr: a[0],
                expected: a[1],
                new: a[2],
            }
        }
        "fence" => {
            let kind = match rest.first().copied() {
                Some("full") => FenceKind::Full,
                Some("compiler") => FenceKind::Compiler,
                _ => return err(ln, "fence kind must be `full` or `compiler`"),
            };
            InstKind::Fence { kind }
        }
        "alloc" => {
            let a = parse_args(rest, ctx, ln)?;
            if a.len() != 1 {
                return err(ln, "alloc takes 1 operand");
            }
            InstKind::Alloc { words: a[0] }
        }
        "cmp" => {
            if rest.is_empty() {
                return err(ln, "cmp needs an operator");
            }
            let op = CmpOp::from_name(rest[0]).ok_or(ParseError {
                line: ln,
                message: format!("bad cmp op `{}`", rest[0]),
            })?;
            let a = parse_args(&rest[1..], ctx, ln)?;
            if a.len() != 2 {
                return err(ln, "cmp takes 2 operands");
            }
            InstKind::Cmp {
                op,
                lhs: a[0],
                rhs: a[1],
            }
        }
        "select" => {
            let a = parse_args(rest, ctx, ln)?;
            if a.len() != 3 {
                return err(ln, "select takes 3 operands");
            }
            InstKind::Select {
                cond: a[0],
                then_val: a[1],
                else_val: a[2],
            }
        }
        "gep" => {
            let a = parse_args(rest, ctx, ln)?;
            if a.len() != 2 {
                return err(ln, "gep takes 2 operands");
            }
            InstKind::Gep {
                base: a[0],
                index: a[1],
            }
        }
        "read_local" => {
            if rest.len() != 1 {
                return err(ln, "read_local takes 1 local name");
            }
            InstKind::ReadLocal {
                local: ctx.local(rest[0], ln)?,
            }
        }
        "write_local" => {
            if rest.len() < 3 || rest[1] != "," {
                return err(ln, "expected `write_local <local>, <value>`");
            }
            let local = ctx.local(rest[0], ln)?;
            let a = parse_args(&rest[2..], ctx, ln)?;
            if a.len() != 1 {
                return err(ln, "write_local takes 1 value");
            }
            InstKind::WriteLocal { local, val: a[0] }
        }
        "call" | "intrinsic" => {
            if rest.len() < 3 || rest[1] != "(" || rest.last() != Some(&")") {
                return err(ln, format!("expected `{mn} <name>(args)`"));
            }
            let callee_name = rest[0];
            let args = parse_args(&rest[2..rest.len() - 1], ctx, ln)?;
            if mn == "call" {
                match ctx.funcs.get(callee_name) {
                    Some(&f) => InstKind::Call { callee: f, args },
                    None => return err(ln, format!("unknown function `{callee_name}`")),
                }
            } else {
                match Intrinsic::from_name(callee_name) {
                    Some(intr) => InstKind::CallIntrinsic { intr, args },
                    None => return err(ln, format!("unknown intrinsic `{callee_name}`")),
                }
            }
        }
        "br" => {
            if rest.len() != 1 {
                return err(ln, "br takes 1 block");
            }
            InstKind::Br {
                target: parse_block_ref(rest[0], ln)?,
            }
        }
        "condbr" => {
            if rest.len() != 5 || rest[1] != "," || rest[3] != "," {
                return err(ln, "expected `condbr <val>, bbN, bbM`");
            }
            InstKind::CondBr {
                cond: ctx.value(rest[0], ln)?,
                then_bb: parse_block_ref(rest[2], ln)?,
                else_bb: parse_block_ref(rest[4], ln)?,
            }
        }
        "ret" => {
            if rest.is_empty() {
                InstKind::Ret { val: None }
            } else if rest.len() == 1 {
                InstKind::Ret {
                    val: Some(ctx.value(rest[0], ln)?),
                }
            } else {
                return err(ln, "ret takes at most 1 operand");
            }
        }
        other => {
            // binary ops come last: `add a, b` etc.
            match BinOp::from_name(other) {
                Some(op) => {
                    let a = parse_args(rest, ctx, ln)?;
                    if a.len() != 2 {
                        return err(ln, format!("{other} takes 2 operands"));
                    }
                    InstKind::Bin {
                        op,
                        lhs: a[0],
                        rhs: a[1],
                    }
                }
                None => return err(ln, format!("unknown instruction `{other}`")),
            }
        }
    };
    Ok(kind)
}

/// Parses many module texts as independent pool units (`parse_module`
/// is pure, so parsing is embarrassingly parallel). Results are keyed
/// by input index: sequential and pooled runs return identical vectors,
/// including *which* texts failed. With `parallel: false` this is a
/// plain serial map.
///
/// This is the batch form for callers that hold every text at once. The
/// fleet's streamed ingest does not use it: `fleet::ingest` parses each
/// admitted text as its own pool unit with [`parse_module`].
pub fn parse_modules<S: AsRef<str> + Sync>(
    texts: &[S],
    parallel: bool,
) -> Vec<Result<Module, ParseError>> {
    crate::pool::ThreadPool::global()
        .map_indexed(texts.len(), parallel, |i| parse_module(texts[i].as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ModuleBuilder};
    use crate::printer::print_module;
    use crate::verify::verify_module;

    #[test]
    fn parse_modules_matches_serial_and_keeps_failures_in_place() {
        let texts: Vec<String> = (0..9)
            .map(|i| {
                if i % 3 == 2 {
                    format!("module bad{i}\nthis is not ir\n")
                } else {
                    format!("module m{i}\nglobal g 1\nfn f params=0 locals=() {{\nbb0:\n  store @g, c{i}\n  ret\n}}\n")
                }
            })
            .collect();
        let serial = parse_modules(&texts, false);
        let pooled = parse_modules(&texts, true);
        assert_eq!(serial.len(), 9);
        for (i, (s, p)) in serial.iter().zip(&pooled).enumerate() {
            match (s, p) {
                (Ok(a), Ok(b)) => {
                    assert!(i % 3 != 2, "slot {i} should not fail");
                    assert_eq!(print_module(a), print_module(b));
                }
                (Err(a), Err(b)) => {
                    assert_eq!(i % 3, 2, "slot {i} should parse");
                    assert_eq!(a, b);
                }
                _ => panic!("serial/pooled disagree at slot {i}"),
            }
        }
    }

    const MP: &str = r#"
module mp
global data 1
global flag 1

fn producer params=0 locals=() {
bb0:
  store @data, c42
  store @flag, c1
  ret
}

fn consumer params=0 locals=() {
bb0:
  br bb1
bb1:
  %v = load @flag
  %c = cmp eq %v, c0
  condbr %c, bb1, bb2
bb2:
  %d = load @data
  ret %d
}
"#;

    #[test]
    fn parses_mp() {
        let m = parse_module(MP).expect("parses");
        assert_eq!(m.name, "mp");
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.funcs.len(), 2);
        assert!(verify_module(&m).is_empty(), "parsed module verifies");
        let consumer = m.func(m.func_by_name("consumer").unwrap());
        assert_eq!(consumer.num_blocks(), 3);
    }

    #[test]
    fn roundtrip_print_parse_print() {
        let mut mb = ModuleBuilder::new("rt");
        let g = mb.global_init("arr", 4, vec![1, 2, 3, 4]);
        let lock = mb.global("lock", 1);
        let mut fb = FunctionBuilder::new("worker", 1);
        let l = fb.local("acc");
        fb.write_local(l, 0i64);
        fb.lock_acquire(lock);
        fb.for_loop(0i64, 4i64, |b, i| {
            let p = b.gep(g, i);
            let v = b.load(p);
            let acc = b.read_local(l);
            let s = b.add(acc, v);
            b.write_local(l, s);
        });
        fb.lock_release(lock);
        let r = fb.read_local(l);
        fb.ret(Some(r));
        mb.add_func(fb.build());
        let m = mb.finish();

        let printed = print_module(&m);
        let reparsed = parse_module(&printed).expect("reparse");
        assert!(verify_module(&reparsed).is_empty());
        let printed2 = print_module(&reparsed);
        assert_eq!(printed, printed2, "print-parse-print is a fixpoint");
    }

    #[test]
    fn error_on_unknown_value() {
        let bad = "module m\nfn f params=0 locals=() {\nbb0:\n  ret %nope\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert!(e.message.contains("unknown value"));
        assert_eq!(e.line, 4);
    }

    #[test]
    fn error_on_unknown_instruction() {
        let bad = "module m\nfn f params=0 locals=() {\nbb0:\n  frobnicate c1\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert!(e.message.contains("unknown instruction"));
    }

    #[test]
    fn error_on_duplicate_global() {
        let bad = "module m\nglobal x 1\nglobal x 2\n";
        let e = parse_module(bad).unwrap_err();
        assert!(e.message.contains("duplicate global"));
    }

    #[test]
    fn parses_intrinsics_and_calls() {
        let src = r#"
module m
global lock 1
fn helper params=1 locals=() {
bb0:
  ret arg0
}
fn main params=0 locals=() {
bb0:
  intrinsic lock_acquire(@lock)
  %t = intrinsic thread_id()
  %r = call helper(%t)
  intrinsic lock_release(@lock)
  ret %r
}
"#;
        let m = parse_module(src).expect("parses");
        assert!(verify_module(&m).is_empty());
        let main = m.func(m.func_by_name("main").unwrap());
        assert_eq!(main.num_insts(), 5);
    }

    #[test]
    fn error_on_top_level_junk() {
        let e = parse_module("this is not IR\n").unwrap_err();
        assert!(e.message.contains("unexpected top-level"), "{e}");
        assert_eq!(e.line, 1);
        // Stray instruction after a closed body is junk, not silently dropped.
        let bad = "module m\nfn f params=0 locals=() {\nbb0:\n  ret\n}\n  ret\n";
        let e = parse_module(bad).unwrap_err();
        assert_eq!(e.line, 6);
    }

    #[test]
    fn error_on_out_of_range_block_label() {
        // A mutated label with a huge index must be a diagnostic, not a
        // billion-entry block table.
        let bad = "module m\nfn f params=0 locals=() {\nbb999999999:\n  ret\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        assert_eq!(e.line, 3);
        // Dense labels up to the body size still parse.
        let ok = "module m\nfn f params=0 locals=() {\nbb0:\n  br bb1\nbb1:\n  ret\n}\n";
        assert!(parse_module(ok).is_ok());
    }

    #[test]
    fn global_inits_parse() {
        let m = parse_module("module m\nglobal g 4 = 9 8 7\n").unwrap();
        assert_eq!(m.globals[0].init, vec![9, 8, 7]);
        assert_eq!(m.globals[0].words, 4);
    }
}
