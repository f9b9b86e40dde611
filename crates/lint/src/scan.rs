//! Shared source-scanning machinery for the lint binaries.
//!
//! Everything here is deliberately dependency-free and line-level: the
//! workspace builds offline, so the lints are token scanners, not
//! `syn`-based parsers. They are conservative where they must guess.
//!
//! The pipeline every lint shares:
//!
//! 1. [`collect_rs`] walks a directory tree for `.rs` files;
//! 2. [`strip_noncode`] blanks comments, string literals and char
//!    literals (newlines preserved, so line numbers survive);
//! 3. [`truncate_at_test_module`] cuts the file at its trailing
//!    `#[cfg(test)]` module (repo convention: unit tests live in one
//!    `mod tests` at the bottom), so only shipped code is linted;
//! 4. findings are filtered through an allowlist
//!    ([`load_allowlist`] / [`partition_findings`]), and allow entries
//!    that no longer suppress anything are themselves reported as
//!    stale ([`stale_allow_findings`]).

use std::fs;
use std::path::{Path, PathBuf};

/// One lint hit, rendered as `path:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Short rule name (`wall-clock`, `layering`, `nondet-taint`, …).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number; 0 when the finding is file- or spec-level.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// Renders the finding in the shared `path:line: [rule] message`
    /// format used by every lint binary.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// One allowlist entry: suppresses `rule` findings in paths containing
/// `path_part`.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule name the entry suppresses.
    pub rule: String,
    /// Path substring the entry applies to.
    pub path_part: String,
    /// 1-based line in the allow file (for stale-entry reporting).
    pub line: usize,
}

impl Allow {
    /// True when this entry suppresses the finding.
    pub fn matches(&self, f: &Finding) -> bool {
        f.rule == self.rule && f.path.contains(&self.path_part)
    }
}

/// Loads `rule path-substring` allow entries, skipping blanks and `#`
/// comments. A missing file is an empty allowlist.
pub fn load_allowlist(path: &Path) -> Vec<Allow> {
    let Ok(text) = fs::read_to_string(path) else { return Vec::new() };
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|(line, l)| {
            let mut it = l.split_whitespace();
            Some(Allow {
                rule: it.next()?.to_string(),
                path_part: it.next()?.to_string(),
                line,
            })
        })
        .collect()
}

/// Splits findings into `(kept, suppressed)` under the allowlist.
pub fn partition_findings(
    findings: Vec<Finding>,
    allow: &[Allow],
) -> (Vec<Finding>, Vec<Finding>) {
    findings.into_iter().partition(|f| !allow.iter().any(|a| a.matches(f)))
}

/// One `stale-allow` finding per allowlist entry that suppressed zero
/// findings. Dead exceptions rot silently otherwise: the hazard they
/// documented is gone (or the path moved), but the hole in the gate
/// stays open. `allow_file` is the repo-relative path reported.
pub fn stale_allow_findings(
    allow: &[Allow],
    suppressed: &[Finding],
    allow_file: &str,
) -> Vec<Finding> {
    allow
        .iter()
        .filter(|a| !suppressed.iter().any(|f| a.matches(f)))
        .map(|a| Finding {
            rule: "stale-allow",
            path: allow_file.to_string(),
            line: a.line,
            message: format!(
                "allow entry `{} {}` suppresses zero findings — the exception is \
                 dead; delete it (or fix the path substring)",
                a.rule, a.path_part
            ),
        })
        .collect()
}

/// Recursively collects `.rs` files under `dir` (skipping any `target`
/// directory). Missing directories are silently empty.
pub fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// True for paths the lints skip: integration tests, benches and
/// examples are not shipped runtime code.
pub fn is_nonshipped(rel: &str) -> bool {
    rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/")
}

/// Replaces comments, string literals and char literals with spaces
/// (newlines preserved, so line numbers survive).
pub fn strip_noncode(src: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        match st {
            St::Code => {
                if c == '/' && next == Some('/') {
                    st = St::Line;
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::Block(1);
                    out.push_str("  ");
                    i += 2;
                } else if c == 'r' && (next == Some('"') || next == Some('#')) {
                    // Raw string r"…" / r#"…"# / r##"…"## …
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                } else if c == '"' {
                    st = St::Str;
                    out.push(' ');
                    i += 1;
                } else if c == '\'' {
                    // Lifetime or char literal?
                    let is_char = match next {
                        Some('\\') => true,
                        Some(_) => b.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        st = St::Char;
                        out.push(' ');
                        i += 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            St::Line => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            St::Block(depth) => {
                if c == '*' && next == Some('/') {
                    st = if depth == 1 { St::Code } else { St::Block(depth - 1) };
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::Block(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Code;
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut n = 0;
                    while n < hashes && b.get(j) == Some(&'#') {
                        n += 1;
                        j += 1;
                    }
                    if n == hashes {
                        st = St::Code;
                        for _ in i..j {
                            out.push(' ');
                        }
                        i = j;
                        continue;
                    }
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
                i += 1;
            }
            St::Char => {
                if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    st = St::Code;
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        }
    }
    out
}

/// Iterations over bindings typed `HashMap`/`HashSet` in stripped
/// `code`: `(binding name, 1-based line)`, once per binding and line.
/// A binding is tracked when its `let` line mentions either type; an
/// iteration is `name.iter()` (and the other adapters below) with no
/// longer identifier or field path before `name`, or `for … in name`.
/// The order is seeded per process, so anything derived from it is
/// nondeterministic — commlint's `hashmap-iter` rule and the taint
/// pass's `unordered-iter` source both use this scan.
pub fn unordered_iterations(code: &str) -> Vec<(String, usize)> {
    let mut names: Vec<String> = Vec::new();
    for line in code.lines() {
        let mut rest = line;
        while let Some(i) = rest.find("let ") {
            let after = &rest[i + 4..];
            let after = after.strip_prefix("mut ").unwrap_or(after);
            let name: String =
                after.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if !name.is_empty()
                && (after[name.len()..].contains("HashMap")
                    || after[name.len()..].contains("HashSet"))
            {
                names.push(name);
            }
            rest = &rest[i + 4..];
        }
    }
    names.sort();
    names.dedup();
    const SUFFIXES: [&str; 7] = [
        ".iter()", ".iter_mut()", ".keys()", ".values()", ".values_mut()", ".into_iter()", ".drain(",
    ];
    let mut out = Vec::new();
    for (ln, line) in code.lines().enumerate() {
        let padded = format!("{line} ");
        for name in &names {
            let adapter =
                SUFFIXES.iter().any(|suf| occurs_as_ident_use(line, &format!("{name}{suf}")));
            let for_in = line.contains("for ")
                && [format!("in {name} "), format!("in &{name} "), format!("in &mut {name} ")]
                    .iter()
                    .any(|pat| padded.contains(pat.as_str()));
            if adapter || for_in {
                out.push((name.clone(), ln + 1));
            }
        }
    }
    out
}

/// True when `pat` occurs in `line` with no identifier character or
/// `.` right before it (so `sends.iter()` doesn't match the tracked
/// name `ends`, nor `self.m.iter()` the name `m`).
fn occurs_as_ident_use(line: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(i) = line[from..].find(pat) {
        let at = from + i;
        let before_ok = at == 0 || {
            let c = line[..at].chars().next_back().unwrap();
            !(c.is_alphanumeric() || c == '_' || c == '.')
        };
        if before_ok {
            return true;
        }
        from = at + pat.len();
    }
    false
}

/// Cuts the file at its trailing `#[cfg(test)]` module (repo convention:
/// unit tests live in one `mod tests` at the bottom).
pub fn truncate_at_test_module(code: &str) -> &str {
    match code.find("#[cfg(test)]") {
        Some(i) => &code[..i],
        None => code,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_preserves_lines_and_drops_strings() {
        let src = "let a = \"Instant::now\"; // Instant::now\nlet b = 1;\n";
        let s = strip_noncode(src);
        assert_eq!(s.lines().count(), src.lines().count());
        assert!(!s.contains("Instant::now"));
        assert!(s.contains("let b = 1;"));
    }

    #[test]
    fn stripper_handles_raw_strings_and_chars() {
        let src = "let r = r#\"HashMap \"quoted\" inside\"#; let c = '\\n'; let l: &'static str;";
        let s = strip_noncode(src);
        assert!(!s.contains("HashMap"));
        assert!(s.contains("&'static str"));
    }

    #[test]
    fn truncates_at_test_module() {
        let code = "fn a() {}\n#[cfg(test)]\nmod tests { Instant::now; }\n";
        assert!(!truncate_at_test_module(code).contains("Instant"));
    }

    #[test]
    fn stale_allow_detects_dead_entries() {
        let allow = vec![
            Allow { rule: "wall-clock".into(), path_part: "proc.rs".into(), line: 3 },
            Allow { rule: "wall-clock".into(), path_part: "gone.rs".into(), line: 7 },
        ];
        let suppressed = vec![Finding {
            rule: "wall-clock",
            path: "crates/x/src/proc.rs".into(),
            line: 1,
            message: String::new(),
        }];
        let stale = stale_allow_findings(&allow, &suppressed, "scripts/x.allow");
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].line, 7);
        assert!(stale[0].message.contains("gone.rs"));
    }
}
