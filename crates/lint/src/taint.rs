//! Pass 2 of `archlint`: nondeterminism-taint propagation.
//!
//! `commlint` denies *direct* uses of the nondeterminism sources
//! (wall-clock, unordered-map iteration, …) at the line level; it
//! cannot see a helper that reads `Instant::now()` two calls away from
//! `core/tsqr.rs`. This pass closes that hole: it extracts every
//! function definition and call site from the stripped sources, builds
//! a name-resolved call graph across the workspace (a call in crate X
//! can bind to any same-named function in X or X's transitive
//! workspace dependencies — deliberately conservative), seeds taint at
//! the sources, propagates it from callee to caller, and denies any
//! taint that reaches a function defined in one of the *deterministic*
//! crates (the `[deterministic]` list of `scripts/layering.toml`).
//!
//! Sources:
//!
//! * **wall-clock** — `Instant::now`, `SystemTime`, blocking
//!   `.recv_timeout(` waits;
//! * **unordered iteration** — iteration over bindings typed
//!   `HashMap`/`HashSet` (per-process seeded order);
//! * **unseeded RNG** — `thread_rng`, `rand::random`, `from_entropy`,
//!   `OsRng` (seeded `StdRng::seed_from_u64` et al. are fine);
//! * **environment** — `std::env::{var, var_os, vars, args, args_os,
//!   temp_dir}` reads;
//! * **thread spawns** — `thread::spawn` / `.spawn(` (an OS scheduler
//!   is a nondeterminism source until a happens-before proof says
//!   otherwise);
//! * **host queries** — `available_parallelism` (the core count differs
//!   from host to host).
//!
//! Escape hatches, read from the **raw** source (comments included) on
//! the line(s) directly above a `fn`:
//!
//! * `archlint: allow(taint) — reason` — the function is a *documented
//!   boundary*: sources inside it are not reported and taint does not
//!   propagate through it to callers. This is how the gridmpi
//!   executor's worker spawn and core-count read are sanctioned (the
//!   justification sits in the annotation comment).
//! * `archlint: source — reason` — force-marks the function as a taint
//!   source even when no pattern matches (for wrappers whose body
//!   hides the source behind another crate or a macro).

use crate::scan::{unordered_iterations, Finding};
use crate::workspace::{SourceFile, Workspace};

/// One extracted function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Short name of the defining crate.
    pub crate_short: String,
    /// Repo-relative file path.
    pub file: String,
    /// Bare function name (last path segment, no generics).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte span of the body in the stripped file (empty for bodyless
    /// trait-method declarations).
    pub body: (usize, usize),
    /// `archlint: allow(taint)` annotation present.
    pub allow_taint: bool,
    /// `archlint: source` annotation present.
    pub forced_source: bool,
    /// Declared plain `pub` (not `pub(crate)` or private).
    pub public: bool,
    /// Defined in a `trait` or an `impl … for …` block: callable
    /// wherever the trait is, whatever its own visibility.
    pub trait_item: bool,
    /// `archlint: allow(reach)` annotation present.
    pub allow_reach: bool,
}

/// One `archlint:` annotation read from the raw source: it applies to
/// the next `fn` within 12 lines (attributes and doc lines may sit
/// between).
#[derive(Debug, Clone, Copy)]
pub struct Annotation {
    /// 1-based line of the annotation comment.
    pub line: usize,
    /// `archlint: allow(taint)` — a documented taint boundary.
    pub allow_taint: bool,
    /// `archlint: source` — a forced taint source.
    pub source: bool,
    /// `archlint: allow(reach)` — kept although nothing reaches it.
    pub allow_reach: bool,
}

/// One seeded taint occurrence inside a function.
#[derive(Debug, Clone)]
struct Source {
    fn_idx: usize,
    kind: &'static str,
    what: String,
    line: usize,
}

/// Extracts every `fn` definition from one stripped file.
///
/// Line-level parsing: a `fn` token (not part of a longer identifier)
/// introduces a definition; the body is the brace-balanced block after
/// the signature (tracking `(`/`[` depth so `fn f(x: [u8; 3])` and
/// `where` clauses parse); a `;` at depth 0 before any `{` means a
/// bodyless trait-method declaration.
pub fn extract_fns(crate_short: &str, file: &SourceFile, annotations: &[Annotation]) -> Vec<FnDef> {
    let code = file.code.as_bytes();
    let traits = trait_blocks(code);
    let mut out = Vec::new();
    let mut i = 0;
    while i + 3 < code.len() {
        // Find `fn` as a standalone token.
        if !(code[i] == b'f' && code[i + 1] == b'n' && !ident_byte(code[i + 2])) {
            i += 1;
            continue;
        }
        if i > 0 && ident_byte(code[i - 1]) {
            i += 1;
            continue;
        }
        let fn_at = i;
        i += 2;
        // Skip whitespace, read the name.
        while i < code.len() && (code[i] as char).is_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < code.len() && ident_byte(code[i]) {
            i += 1;
        }
        if i == name_start {
            continue; // `fn` in `Fn(...)` bounds has no ident after it
        }
        let name = String::from_utf8_lossy(&code[name_start..i]).to_string();
        // Scan the signature for the body `{` or a terminating `;`.
        let mut depth = 0i32;
        let mut body = (0usize, 0usize);
        while i < code.len() {
            match code[i] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b';' if depth == 0 => {
                    i += 1;
                    break;
                }
                b'{' if depth == 0 => {
                    let start = i;
                    let end = match_brace(code, i);
                    body = (start, end);
                    i = end;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        let line = 1 + file.code[..fn_at].bytes().filter(|&b| b == b'\n').count();
        out.push(FnDef {
            crate_short: crate_short.to_string(),
            file: file.rel.clone(),
            name,
            line,
            body,
            allow_taint: false,
            forced_source: false,
            public: declared_pub(code, fn_at),
            trait_item: traits.iter().any(|&(s, e)| s < fn_at && fn_at < e),
            allow_reach: false,
        });
    }
    // An annotation binds to the *first* fn after it (within 12 lines,
    // so attributes and doc lines may sit between) — never to a later
    // neighbor that also happens to fall inside the window.
    for a in annotations {
        if let Some(d) = out
            .iter_mut()
            .filter(|d| d.line > a.line && d.line - a.line <= 12)
            .min_by_key(|d| d.line)
        {
            d.allow_taint |= a.allow_taint;
            d.forced_source |= a.source;
            d.allow_reach |= a.allow_reach;
        }
    }
    out
}

/// True when the `fn` keyword at `fn_at` is declared plain `pub`,
/// looking back over `const`/`async`/`unsafe`/`extern` qualifiers
/// (an `extern` ABI string is already blanked by the stripper).
fn declared_pub(code: &[u8], fn_at: usize) -> bool {
    let mut end = fn_at;
    loop {
        while end > 0 && (code[end - 1] as char).is_whitespace() {
            end -= 1;
        }
        let mut start = end;
        while start > 0 && ident_byte(code[start - 1]) {
            start -= 1;
        }
        match &code[start..end] {
            b"const" | b"async" | b"unsafe" | b"extern" => end = start,
            word => return word == b"pub",
        }
    }
}

/// Brace spans of the `trait` and `impl … for …` blocks in `code`.
fn trait_blocks(code: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, w) in code.windows(5).enumerate() {
        let kw = if w.starts_with(b"impl") && !ident_byte(w[4]) {
            4
        } else if w == b"trait" {
            5
        } else {
            continue;
        };
        if (i > 0 && ident_byte(code[i - 1])) || code.get(i + kw).is_some_and(|&b| ident_byte(b)) {
            continue;
        }
        // The block opens at the first `{` outside parentheses; an
        // `impl Trait` argument closes a parenthesis first and is skipped.
        let mut depth = 0i32;
        let mut open = None;
        for (j, &b) in code.iter().enumerate().skip(i + kw) {
            match b {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => open = Some(j),
                b';' if depth == 0 => depth = -1,
                _ => {}
            }
            if depth < 0 || open.is_some() {
                break;
            }
        }
        let Some(open) = open else { continue };
        let header = &code[i + kw..open];
        let has_for = header
            .windows(5)
            .any(|h| !ident_byte(h[0]) && &h[1..4] == b"for" && !ident_byte(h[4]));
        if kw == 5 || has_for {
            out.push((open, match_brace(code, open)));
        }
    }
    out
}

/// Reads `archlint:` annotations from the raw source: plain `//`
/// comment lines (doc comments only mention them), one per line.
pub fn extract_annotations(raw: &str) -> Vec<Annotation> {
    raw.lines()
        .enumerate()
        .filter(|(_, l)| {
            let l = l.trim_start();
            l.starts_with("//") && !l.starts_with("///") && !l.starts_with("//!")
        })
        .map(|(i, l)| Annotation {
            line: i + 1,
            allow_taint: l.contains("archlint: allow(taint)"),
            source: l.contains("archlint: source"),
            allow_reach: l.contains("archlint: allow(reach)"),
        })
        .filter(|a| a.allow_taint || a.source || a.allow_reach)
        .collect()
}

pub(crate) fn ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Index just past the brace block opening at `open` (best-effort on
/// unbalanced input: end of file).
pub(crate) fn match_brace(code: &[u8], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < code.len() {
        match code[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    code.len()
}

/// Rust keywords that look like calls when followed by `(`.
const KEYWORDS: [&str; 24] = [
    "if", "else", "for", "while", "loop", "match", "return", "fn", "let", "mut", "pub", "impl",
    "where", "move", "unsafe", "as", "in", "use", "mod", "ref", "break", "continue", "await",
    "dyn",
];

/// Extracts callee names from a body span: identifiers directly
/// followed by `(` or by a `::<…>` turbofish and `(`. Macro
/// invocations (`name!`) and non-terminal path segments (`seg::`) are
/// skipped.
pub fn extract_calls(code: &str, span: (usize, usize)) -> Vec<String> {
    let body = &code.as_bytes()[span.0..span.1];
    let mut out = Vec::new();
    let mut i = 0;
    while i < body.len() {
        if !ident_byte(body[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < body.len() && ident_byte(body[i]) {
            i += 1;
        }
        let ident = std::str::from_utf8(&body[start..i]).unwrap_or("");
        if start > 0 && body[start - 1] == b'\'' {
            continue; // lifetime
        }
        let mut j = i;
        // Turbofish: `name::<T>(…)`.
        if body.get(j) == Some(&b':') && body.get(j + 1) == Some(&b':') && body.get(j + 2) == Some(&b'<') {
            let mut angle = 0i32;
            let mut k = j + 2;
            while k < body.len() {
                match body[k] {
                    b'<' => angle += 1,
                    b'>' => {
                        angle -= 1;
                        if angle == 0 {
                            break;
                        }
                    }
                    b';' | b'{' => break, // not a turbofish after all
                    _ => {}
                }
                k += 1;
            }
            if angle == 0 && k < body.len() {
                j = k + 1;
            } else {
                continue;
            }
        } else if body.get(j) == Some(&b':') && body.get(j + 1) == Some(&b':') {
            continue; // non-terminal path segment; the last one is scanned on its own
        }
        if body.get(j) == Some(&b'!') {
            continue; // macro
        }
        if body.get(j) != Some(&b'(') {
            continue;
        }
        if KEYWORDS.contains(&ident) || ident.is_empty() {
            continue;
        }
        // `fn name(` is the definition, not a call.
        let mut back = start;
        while back > 0 && (body[back - 1] as char).is_whitespace() {
            back -= 1;
        }
        if back >= 2 && &body[back - 2..back] == b"fn" && (back < 3 || !ident_byte(body[back - 3])) {
            continue;
        }
        out.push(ident.to_string());
    }
    out.sort();
    out.dedup();
    out
}

/// Textual nondeterminism-source patterns: `(kind, pattern)`.
const SOURCE_PATTERNS: [(&str, &str); 13] = [
    ("wall-clock", "Instant::now"),
    ("wall-clock", "SystemTime"),
    ("wall-clock", ".recv_timeout("),
    ("unseeded-rng", "thread_rng"),
    ("unseeded-rng", "rand::random"),
    ("unseeded-rng", "from_entropy"),
    ("unseeded-rng", "OsRng"),
    ("env-read", "env::var"),
    ("env-read", "env::vars"),
    ("env-read", "env::args"),
    ("env-read", "env::temp_dir"),
    ("thread-spawn", "thread::spawn"),
    ("host-query", "available_parallelism"),
];

/// Finds source occurrences in one file: `(kind, what, line)`.
fn find_sources(file: &SourceFile) -> Vec<(&'static str, String, usize)> {
    let mut out = Vec::new();
    for (ln, line) in file.code.lines().enumerate() {
        for (kind, pat) in SOURCE_PATTERNS {
            if line.contains(pat) {
                out.push((kind, pat.trim_matches(['.', '(']).to_string(), ln + 1));
            }
        }
        // `.spawn(` catches scoped/builder spawns; exclude the textual
        // `thread::spawn` double-count (already matched above).
        if line.contains(".spawn(") && !line.contains("thread::spawn") {
            out.push(("thread-spawn", "spawn".to_string(), ln + 1));
        }
        // HashMap/HashSet iteration: any iterator-adapter use on a line
        // that also mentions the unordered types, plus `for … in` over
        // them. Bindings are resolved per file below.
    }
    for (name, ln) in unordered_iterations(&file.code) {
        out.push(("unordered-iter", name, ln));
    }
    out
}

/// Runs the taint pass over the workspace. `deterministic` lists the
/// crates (short names) whose functions must stay taint-free.
pub fn taint_pass(ws: &Workspace, deterministic: &[String]) -> Vec<Finding> {
    // 1. Extract all functions and their annotations.
    let mut fns: Vec<FnDef> = Vec::new();
    let mut sources: Vec<Source> = Vec::new();
    for c in &ws.crates {
        for f in &c.files {
            let ann = extract_annotations(&f.raw);
            let defs = extract_fns(&c.short, f, &ann);
            let file_sources = find_sources(f);
            let base = fns.len();
            // Attribute each source line to its innermost enclosing fn.
            for (kind, what, line) in file_sources {
                let off = line_to_offset(&f.code, line);
                let mut best: Option<(usize, usize)> = None; // (span len, idx)
                for (idx, d) in defs.iter().enumerate() {
                    let (s, e) = d.body;
                    if s < e && s <= off && off < e {
                        let len = e - s;
                        if best.is_none_or(|(bl, _)| len < bl) {
                            best = Some((len, idx));
                        }
                    }
                }
                if let Some((_, idx)) = best {
                    sources.push(Source { fn_idx: base + idx, kind, what, line });
                }
                // Sources outside any fn (consts, statics) can't execute
                // at runtime on their own; skip them.
            }
            for (idx, d) in defs.iter().enumerate() {
                if d.forced_source {
                    sources.push(Source {
                        fn_idx: base + idx,
                        kind: "annotated",
                        what: "archlint: source".into(),
                        line: d.line,
                    });
                }
            }
            fns.extend(defs);
        }
    }

    // 2. Name index and per-crate dependency closure.
    let mut by_name: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
    for (i, d) in fns.iter().enumerate() {
        by_name.entry(&d.name).or_default().push(i);
    }
    let closures: std::collections::BTreeMap<String, Vec<String>> = ws
        .crates
        .iter()
        .map(|c| {
            let mut cl = ws.transitive_deps(&c.short);
            cl.push(c.short.clone());
            (c.short.clone(), cl)
        })
        .collect();

    // 3. Reverse call edges: callee → callers.
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for c in &ws.crates {
        let visible = &closures[&c.short];
        for f in &c.files {
            let ann = extract_annotations(&f.raw);
            let defs = extract_fns(&c.short, f, &ann);
            // Recompute indices of this file's fns in the global list.
            let file_fn_idx: Vec<usize> = fns
                .iter()
                .enumerate()
                .filter(|(_, d)| d.file == f.rel)
                .map(|(i, _)| i)
                .collect();
            for (local, d) in defs.iter().enumerate() {
                let (s, e) = d.body;
                if s >= e {
                    continue;
                }
                let caller = file_fn_idx[local];
                for callee_name in extract_calls(&f.code, d.body) {
                    if let Some(cands) = by_name.get(callee_name.as_str()) {
                        for &callee in cands {
                            if callee != caller && visible.contains(&fns[callee].crate_short) {
                                callers[callee].push(caller);
                            }
                        }
                    }
                }
            }
        }
    }

    // 4. For each source, BFS callee→caller (blocked at allow(taint)
    //    boundaries) and report if a deterministic-crate fn is reached.
    let mut out = Vec::new();
    let mut reported: Vec<(String, usize)> = Vec::new(); // dedupe by (file, line)
    for src in &sources {
        let origin = &fns[src.fn_idx];
        if origin.allow_taint {
            continue;
        }
        let mut seen = vec![false; fns.len()];
        let mut parent: Vec<Option<usize>> = vec![None; fns.len()];
        let mut queue = std::collections::VecDeque::from([src.fn_idx]);
        seen[src.fn_idx] = true;
        let mut hit: Option<usize> = None;
        while let Some(cur) = queue.pop_front() {
            if deterministic.contains(&fns[cur].crate_short) {
                hit = Some(cur);
                break;
            }
            for &up in &callers[cur] {
                if !seen[up] && !fns[up].allow_taint {
                    seen[up] = true;
                    parent[up] = Some(cur);
                    queue.push_back(up);
                }
            }
        }
        let Some(hit) = hit else { continue };
        let key = (origin.file.clone(), src.line);
        if reported.contains(&key) {
            continue;
        }
        reported.push(key);
        // Chain from the deterministic entry point down to the source.
        let mut chain = Vec::new();
        let mut cur = Some(hit);
        while let Some(i) = cur {
            chain.push(format!("{}::{}", fns[i].crate_short, fns[i].name));
            cur = parent[i];
        }
        let via = if chain.len() > 1 {
            format!(" — reachable from `{}` via {}", chain[0], chain.join(" -> "))
        } else {
            String::new()
        };
        out.push(Finding {
            rule: "nondet-taint",
            path: origin.file.clone(),
            line: src.line,
            message: format!(
                "[{}] `{}` in fn `{}` taints deterministic crate `{}`{} — make the \
                 value schedule-independent, or document the boundary with an \
                 `archlint: allow(taint)` annotation",
                src.kind, src.what, origin.name, fns[hit].crate_short, via
            ),
        });
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Byte offset of the start of 1-based `line` in `code`.
fn line_to_offset(code: &str, line: usize) -> usize {
    if line <= 1 {
        return 0;
    }
    let mut seen = 1;
    for (i, b) in code.bytes().enumerate() {
        if b == b'\n' {
            seen += 1;
            if seen == line {
                return i + 1;
            }
        }
    }
    code.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{SourceFile, WorkspaceCrate};

    fn ws_two(det_code: &str, util_code: &str) -> Workspace {
        let mk = |short: &str, deps: Vec<&str>, code: &str| WorkspaceCrate {
            short: short.into(),
            package: format!("tsqr-{short}"),
            lib_ident: format!("tsqr_{short}"),
            manifest_rel: format!("crates/{short}/Cargo.toml"),
            deps: deps.into_iter().map(|d| (d.to_string(), 1)).collect(),
            files: vec![SourceFile {
                rel: format!("crates/{short}/src/lib.rs"),
                raw: code.into(),
                code: code.into(),
            }],
        };
        Workspace {
            crates: vec![mk("det", vec!["util"], det_code), mk("util", vec![], util_code)],
        }
    }

    #[test]
    fn extracts_fns_and_calls() {
        let f = SourceFile {
            rel: "x.rs".into(),
            raw: String::new(),
            code: "pub fn outer(x: [u8; 3]) -> usize {\n    helper(x.len());\n    x.len()\n}\nfn helper(n: usize) {}\n"
                .into(),
        };
        let defs = extract_fns("c", &f, &[]);
        assert_eq!(defs.len(), 2, "{defs:?}");
        assert_eq!(defs[0].name, "outer");
        assert_eq!(defs[1].line, 5);
        let calls = extract_calls(&f.code, defs[0].body);
        assert!(calls.contains(&"helper".to_string()), "{calls:?}");
        assert!(calls.contains(&"len".to_string()));
        assert!(!calls.contains(&"outer".to_string()));
    }

    #[test]
    fn turbofish_and_macros_parse() {
        let f = SourceFile {
            rel: "x.rs".into(),
            raw: String::new(),
            code: "fn g() {\n    let v = parse::<u32>(s);\n    println(x);\n    assert(y);\n}\n"
                .into(),
        };
        let defs = extract_fns("c", &f, &[]);
        let calls = extract_calls(&f.code, defs[0].body);
        assert!(calls.contains(&"parse".to_string()), "{calls:?}");
    }

    #[test]
    fn indirect_wall_clock_is_caught() {
        // The hole commlint cannot see: det::entry → util::helper →
        // Instant::now.
        let det = "pub fn entry() -> u64 {\n    tsqr_util::helper()\n}\n";
        let util = "pub fn helper() -> u64 {\n    let t = Instant::now();\n    0\n}\n";
        let f = taint_pass(&ws_two(det, util), &["det".to_string()]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "nondet-taint");
        assert!(f[0].message.contains("det::entry"), "{}", f[0].message);
        assert!(f[0].message.contains("util::helper"));
    }

    #[test]
    fn allow_annotation_stops_propagation() {
        let det = "pub fn entry() -> u64 {\n    tsqr_util::helper()\n}\n";
        let util = "// archlint: allow(taint) — documented safety net\npub fn helper() -> u64 {\n    let t = Instant::now();\n    0\n}\n";
        let f = taint_pass(&ws_two(det, util), &["det".to_string()]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn forced_source_annotation_seeds_taint() {
        let det = "pub fn entry() -> u64 {\n    tsqr_util::helper()\n}\n";
        let util = "// archlint: source — wraps an opaque nondeterminism source\npub fn helper() -> u64 { 0 }\n";
        let f = taint_pass(&ws_two(det, util), &["det".to_string()]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("annotated"));
    }

    #[test]
    fn taint_in_nondeterministic_crate_is_fine() {
        let det = "pub fn entry() -> u64 { 0 }\n";
        let util = "pub fn helper() -> u64 {\n    let t = Instant::now();\n    0\n}\n";
        let f = taint_pass(&ws_two(det, util), &["det".to_string()]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn core_count_is_a_source() {
        let det = "pub fn entry() -> usize {\n    tsqr_util::workers()\n}\n";
        let util = "pub fn workers() -> usize {\n    \
                    std::thread::available_parallelism().map_or(1, |n| n.get())\n}\n";
        let f = taint_pass(&ws_two(det, util), &["det".to_string()]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("available_parallelism"), "{}", f[0].message);
        let sanctioned = format!("// archlint: allow(taint) — sizes a worker pool\n{util}");
        assert!(taint_pass(&ws_two(det, &sanctioned), &["det".to_string()]).is_empty());
    }

    #[test]
    fn unordered_iteration_is_a_source() {
        let det = "pub fn entry() {\n    let m: HashMap<u32, u32> = HashMap::new();\n    for k in m.keys() { use_it(k) }\n}\n";
        let f = taint_pass(&ws_two(det, "pub fn unused() {}\n"), &["det".to_string()]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("unordered-iter"), "{}", f[0].message);
    }
}
