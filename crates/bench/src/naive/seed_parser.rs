//! The seed textual-IR parser, preserved verbatim as the reference the
//! production parser (`fence_ir::parser`) is tested against: it copies
//! every line into owned strings and tokenizes each line three or four
//! times (header scan, body-end scan, label pre-pass, main pass), with a
//! `String` per token. `tests/parser_fuzz.rs` checks that the production
//! parser returns identical modules and identical `(line, message)`
//! diagnostics on mutated IR.

use fence_ir::parser::ParseError;
use fence_ir::util::FastMap;
use fence_ir::{
    BinOp, Block, BlockId, CmpOp, FenceKind, FuncId, Function, GlobalDecl, GlobalId, Inst, InstId,
    InstKind, Intrinsic, LocalId, Module, RmwOp, Value,
};

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Splits a line into tokens; `, ( ) =` are single-char tokens.
fn tokenize(line: &str) -> Vec<String> {
    let mut toks = Vec::new();
    let mut cur = String::new();
    for ch in line.chars() {
        match ch {
            ',' | '(' | ')' | '=' | '{' | '}' => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
                toks.push(ch.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        toks.push(cur);
    }
    toks
}

struct FuncCtx<'a> {
    globals: &'a FastMap<String, GlobalId>,
    funcs: &'a FastMap<String, FuncId>,
    locals: FastMap<String, LocalId>,
    inst_labels: FastMap<String, InstId>,
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

/// Parses operand lists of the shape `a, b, c` (given already-split tokens).
fn parse_args(toks: &[String], ctx: &FuncCtx, line: usize) -> Result<Vec<Value>, ParseError> {
    let mut args = Vec::new();
    let mut expect_value = true;
    for t in toks {
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

/// Parses a full module from text (the seed parser).
pub fn seed_parse_module(text: &str) -> Result<Module, ParseError> {
    let lines: Vec<(usize, String, String)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| {
            let (no_comment, comment) = match l.find(';') {
                Some(p) => (&l[..p], l[p + 1..].trim().to_string()),
                None => (l, String::new()),
            };
            (i + 1, no_comment.trim().to_string(), comment)
        })
        .collect();

    let mut module = Module::new("anonymous");
    let mut global_map: FastMap<String, GlobalId> = FastMap::default();
    let mut func_map: FastMap<String, FuncId> = FastMap::default();

    // ---- phase A: headers ----
    // Tracks whether we are inside a `fn ... { ... }` body: body lines
    // are phase B's job, but *top-level* lines must be one of the known
    // directives — free text is a parse error, not an empty module.
    let mut in_body = false;
    for (ln, line, _) in &lines {
        let toks = tokenize(line);
        if toks.is_empty() {
            continue;
        }
        match toks[0].as_str() {
            "}" if in_body => {
                in_body = false;
                continue;
            }
            _ if in_body => continue, // body lines handled in phase B
            _ => {}
        }
        match toks[0].as_str() {
            "module" => {
                if toks.len() != 2 {
                    return err(*ln, "expected `module <name>`");
                }
                module.name = toks[1].clone();
            }
            "global" => {
                if toks.len() < 3 {
                    return err(*ln, "expected `global <name> <words> [= inits]`");
                }
                let name = toks[1].clone();
                let words: u32 = match toks[2].parse() {
                    Ok(w) => w,
                    Err(_) => return err(*ln, "bad global size"),
                };
                let mut init = Vec::new();
                if toks.len() > 3 {
                    if toks[3] != "=" {
                        return err(*ln, "expected `=` before initializers");
                    }
                    for t in &toks[4..] {
                        match t.parse::<i64>() {
                            Ok(v) => init.push(v),
                            Err(_) => return err(*ln, format!("bad initializer `{t}`")),
                        }
                    }
                    if init.len() > words as usize {
                        return err(*ln, "more initializers than words");
                    }
                }
                if global_map.contains_key(&name) {
                    return err(*ln, format!("duplicate global {name}"));
                }
                let id = GlobalId::new(module.globals.len());
                global_map.insert(name.clone(), id);
                module.globals.push(GlobalDecl { name, words, init });
            }
            "fn" => {
                // `fn <name> params = <n> ...`
                if toks.len() < 5 || toks[2] != "params" || toks[3] != "=" {
                    return err(*ln, "expected `fn <name> params=<n> locals=(..) {`");
                }
                let name = toks[1].clone();
                let num_params: u16 = match toks[4].parse() {
                    Ok(p) => p,
                    Err(_) => return err(*ln, "bad params count"),
                };
                if func_map.contains_key(&name) {
                    return err(*ln, format!("duplicate function {name}"));
                }
                let id = FuncId::new(module.funcs.len());
                func_map.insert(name.clone(), id);
                let mut f = Function::new(name, num_params);
                f.blocks.clear(); // rebuilt in phase B
                module.funcs.push(f);
                in_body = true;
            }
            other => {
                return err(
                    *ln,
                    format!(
                        "unexpected top-level `{other}` (expected `module`, `global`, or `fn`)"
                    ),
                );
            }
        }
    }

    // ---- phase B: function bodies ----
    let mut i = 0;
    while i < lines.len() {
        let (ln, line, _) = &lines[i];
        let toks = tokenize(line);
        if toks.first().map(String::as_str) == Some("fn") {
            // Collect body lines until matching `}` at line start.
            let start = i;
            let mut end = None;
            for (j, (_, l, _)) in lines.iter().enumerate().skip(i + 1) {
                if l.trim() == "}" {
                    end = Some(j);
                    break;
                }
                if tokenize(l).first().map(String::as_str) == Some("fn") {
                    break;
                }
            }
            let end = match end {
                Some(e) => e,
                None => return err(*ln, "unterminated function body (missing `}`)"),
            };
            let fname = toks[1].clone();
            let fid = func_map[&fname];
            let func = parse_function_body(
                &lines[start..=end],
                &toks,
                *ln,
                &module,
                &global_map,
                &func_map,
            )?;
            module.funcs[fid.index()] = func;
            i = end + 1;
        } else {
            i += 1;
        }
    }

    Ok(module)
}

fn parse_function_body(
    lines: &[(usize, String, String)],
    header_toks: &[String],
    header_ln: usize,
    module: &Module,
    global_map: &FastMap<String, GlobalId>,
    func_map: &FastMap<String, FuncId>,
) -> Result<Function, ParseError> {
    let name = header_toks[1].clone();
    let num_params: u16 = header_toks[4].parse().unwrap();
    let mut func = Function::new(name, num_params);
    func.blocks.clear();

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
        match header_toks[t].as_str() {
            "locals" => {
                if header_toks.get(t + 1).map(String::as_str) != Some("=")
                    || header_toks.get(t + 2).map(String::as_str) != Some("(")
                {
                    return err(header_ln, "expected `locals=(...)`");
                }
                t += 3;
                while t < header_toks.len() && header_toks[t] != ")" {
                    let lname = header_toks[t].clone();
                    let lid = LocalId::new(func.locals.len());
                    if ctx.locals.insert(lname.clone(), lid).is_some() {
                        return err(header_ln, format!("duplicate local {lname}"));
                    }
                    func.locals.push(lname);
                    t += 1;
                }
                t += 1; // skip `)`
            }
            "entry" => {
                if header_toks.get(t + 1).map(String::as_str) != Some("=") {
                    return err(header_ln, "expected `entry=bbK`");
                }
                entry = Some(parse_block_ref(&header_toks[t + 2], header_ln)?);
                t += 3;
            }
            "{" => t += 1,
            other => return err(header_ln, format!("unexpected token `{other}` in header")),
        }
    }

    // Pre-pass over body: assign InstIds in appearance order; bind labels;
    // discover blocks. The block table is dense (`0..=max_block`), so a
    // label index is bounded by the body line count — every block needs
    // its own label line — which keeps a mutated `bb999999999:` label
    // from allocating a billion empty blocks.
    let max_legal_block = lines.len() - 2;
    let check_block = |b: BlockId, tok: &str, ln: usize| -> Result<BlockId, ParseError> {
        if b.index() >= max_legal_block {
            return err(
                ln,
                format!(
                    "block label `{tok}` out of range (function body has {max_legal_block} lines)"
                ),
            );
        }
        Ok(b)
    };
    let mut max_block = 0usize;
    let mut saw_block = false;
    let mut next_inst = 0usize;
    for (ln, line, _) in &lines[1..lines.len() - 1] {
        let toks = tokenize(line);
        if toks.is_empty() {
            continue;
        }
        if toks[0].starts_with("bb") && toks.len() >= 2 && toks[1] == ":" {
            let b = check_block(parse_block_ref(&toks[0], *ln)?, &toks[0], *ln)?;
            max_block = max_block.max(b.index());
            saw_block = true;
            continue;
        }
        // also accept `bbN:` fused by tokenizer? ':' isn't split; handle suffix.
        if let Some(stripped) = toks[0].strip_suffix(':') {
            if stripped.starts_with("bb") {
                let b = check_block(parse_block_ref(stripped, *ln)?, stripped, *ln)?;
                max_block = max_block.max(b.index());
                saw_block = true;
                continue;
            }
        }
        if !saw_block {
            return err(*ln, "instruction before any block label");
        }
        let id = InstId::new(next_inst);
        next_inst += 1;
        if toks[0].starts_with('%') && toks.get(1).map(String::as_str) == Some("=") {
            let label = toks[0][1..].to_string();
            if ctx.inst_labels.insert(label.clone(), id).is_some() {
                return err(*ln, format!("duplicate result label %{label}"));
            }
        }
    }
    for bi in 0..=max_block {
        func.blocks.push(Block {
            name: String::new(),
            insts: Vec::new(),
        });
        let _ = bi;
    }
    if func.blocks.is_empty() {
        return err(header_ln, "function has no blocks");
    }
    func.entry = entry.unwrap_or(BlockId::new(0));

    // Main pass.
    let mut current: Option<BlockId> = None;
    let mut next_id = 0usize;
    for (ln, line, comment) in &lines[1..lines.len() - 1] {
        let toks = tokenize(line);
        if toks.is_empty() {
            continue;
        }
        let block_label =
            if toks[0].starts_with("bb") && toks.get(1).map(String::as_str) == Some(":") {
                Some(toks[0].clone())
            } else {
                toks[0]
                    .strip_suffix(':')
                    .filter(|s| s.starts_with("bb"))
                    .map(str::to_string)
            };
        if let Some(lbl) = block_label {
            let b = parse_block_ref(&lbl, *ln)?;
            // A trailing comment on the label line is the block's name.
            if !comment.is_empty() {
                func.blocks[b.index()].name = comment.clone();
            }
            current = Some(b);
            continue;
        }
        let cur = match current {
            Some(c) => c,
            None => return err(*ln, "instruction before any block label"),
        };
        // Strip `%label =` prefix.
        let (has_result, body) =
            if toks[0].starts_with('%') && toks.get(1).map(String::as_str) == Some("=") {
                (true, &toks[2..])
            } else {
                (false, &toks[..])
            };
        let kind = parse_inst(body, &ctx, module, *ln)?;
        if has_result && !kind.has_result() {
            return err(*ln, "instruction produces no result but one is bound");
        }
        let id = InstId::new(next_id);
        next_id += 1;
        func.insts.push(Inst { kind });
        func.blocks[cur.index()].insts.push(id);
    }

    // Drop the growth slack: a parsed module can stay resident for long
    // (the analysis service caches it).
    func.insts.shrink_to_fit();
    func.blocks.shrink_to_fit();
    for block in &mut func.blocks {
        block.insts.shrink_to_fit();
    }
    Ok(func)
}

fn parse_inst(
    toks: &[String],
    ctx: &FuncCtx,
    module: &Module,
    ln: usize,
) -> Result<InstKind, ParseError> {
    if toks.is_empty() {
        return err(ln, "empty instruction");
    }
    let mn = toks[0].as_str();
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
            let op = RmwOp::from_name(&rest[0]).ok_or(ParseError {
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
            let kind = match rest.first().map(String::as_str) {
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
            let op = CmpOp::from_name(&rest[0]).ok_or(ParseError {
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
                local: ctx.local(&rest[0], ln)?,
            }
        }
        "write_local" => {
            if rest.len() < 3 || rest[1] != "," {
                return err(ln, "expected `write_local <local>, <value>`");
            }
            let local = ctx.local(&rest[0], ln)?;
            let a = parse_args(&rest[2..], ctx, ln)?;
            if a.len() != 1 {
                return err(ln, "write_local takes 1 value");
            }
            InstKind::WriteLocal { local, val: a[0] }
        }
        "call" | "intrinsic" => {
            if rest.len() < 3 || rest[1] != "(" || rest.last().map(String::as_str) != Some(")") {
                return err(ln, format!("expected `{mn} <name>(args)`"));
            }
            let callee_name = &rest[0];
            let args = parse_args(&rest[2..rest.len() - 1], ctx, ln)?;
            if mn == "call" {
                match ctx.funcs.get(callee_name.as_str()) {
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
                target: parse_block_ref(&rest[0], ln)?,
            }
        }
        "condbr" => {
            if rest.len() != 5 || rest[1] != "," || rest[3] != "," {
                return err(ln, "expected `condbr <val>, bbN, bbM`");
            }
            InstKind::CondBr {
                cond: ctx.value(&rest[0], ln)?,
                then_bb: parse_block_ref(&rest[2], ln)?,
                else_bb: parse_block_ref(&rest[4], ln)?,
            }
        }
        "ret" => {
            if rest.is_empty() {
                InstKind::Ret { val: None }
            } else if rest.len() == 1 {
                InstKind::Ret {
                    val: Some(ctx.value(&rest[0], ln)?),
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
    let _ = module;
    Ok(kind)
}
