//! `commlint` — the static half of commcheck (see
//! `docs/static-analysis.md`).
//!
//! A dependency-free source lint that denies the three ways a rank
//! program (or the runtime under it) can silently become
//! schedule-dependent, plus a protocol-table check on message tags:
//!
//! * **wall-clock** — `Instant::now`, `SystemTime` and blocking
//!   `.recv_timeout(` calls outside the allowlisted wall-clock safety
//!   net. Virtual-time paths must never read the wall clock.
//! * **hashmap-iter** — iteration (`.iter()`, `.keys()`, `.values()`,
//!   `.drain(…)`, `for … in`) over bindings typed `HashMap`/`HashSet`:
//!   the order is seeded per process, so anything derived from it is
//!   nondeterministic. Use `BTreeMap`/`BTreeSet` or sort before
//!   draining.
//! * **wildcard-recv** — `.recv_any(` outside test code: a wildcard
//!   receive makes the matched sender delivery-order-dependent.
//! * **tag-protocol** — every protocol file's `const TAG_*` declarations
//!   must match the declared table (`scripts/commlint.protocol`)
//!   exactly, and every tag must appear on both a send side and a
//!   receive side.
//!
//! The scanner strips comments and string literals first and truncates
//! each file at its trailing `#[cfg(test)]` module (repo convention), so
//! only shipped code is linted. Findings are suppressed by
//! `scripts/commlint.allow` lines of the form `rule path-substring`; an
//! allow entry that suppresses nothing is itself a finding
//! (**stale-allow**), so dead exceptions cannot rot silently.
//!
//! This is the line-level lint; `archlint` (same crate) runs the
//! workspace-level passes — crate layering, transitive
//! nondeterminism-taint, and the extracted message-flow model that
//! supersedes this tool's per-file pairing heuristic with real
//! call-site extraction. The shared machinery lives in the `tsqr_lint`
//! library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use tsqr_lint::protocol::{load_protocol, ProtocolFile};
use tsqr_lint::scan::{
    collect_rs, is_nonshipped, load_allowlist, partition_findings, stale_allow_findings,
    strip_noncode, truncate_at_test_module, unordered_iterations, Finding,
};

const ALLOW_REL: &str = "scripts/commlint.allow";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = PathBuf::from(args.next().expect("--root needs a value")),
            "-v" | "--verbose" => verbose = true,
            "--help" | "-h" => {
                println!("usage: commlint [--root DIR] [-v]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("commlint: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let allow = load_allowlist(&root.join(ALLOW_REL));
    let protocol = load_protocol(&root.join("scripts/commlint.protocol"));

    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    collect_rs(&root.join("src"), &mut files);
    files.sort();

    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f).to_string_lossy().replace('\\', "/");
        if is_nonshipped(&rel) {
            continue;
        }
        let Ok(raw) = std::fs::read_to_string(f) else { continue };
        scanned += 1;
        let code = strip_noncode(&raw);
        let code = truncate_at_test_module(&code);
        if verbose {
            eprintln!("commlint: scanning {rel}");
        }
        lint_wall_clock(&rel, code, &mut findings);
        lint_hashmap_iter(&rel, code, &mut findings);
        lint_wildcard_recv(&rel, code, &mut findings);
        if let Some(expected) = protocol.files.iter().find(|p| p.path == rel) {
            lint_tag_protocol(&rel, code, expected, &mut findings);
        }
    }
    // Protocol files that vanished are a protocol violation too.
    for p in &protocol.files {
        if !files.iter().any(|f| {
            f.strip_prefix(&root).unwrap_or(f).to_string_lossy().replace('\\', "/") == p.path
        }) {
            findings.push(Finding {
                rule: "tag-protocol",
                path: p.path.clone(),
                line: 0,
                message: "file listed in commlint.protocol does not exist".into(),
            });
        }
    }

    let (mut kept, suppressed) = partition_findings(findings, &allow);
    kept.extend(stale_allow_findings(&allow, &suppressed, ALLOW_REL));

    for f in &kept {
        println!("{}", f.render());
    }
    println!(
        "commlint: {} file(s) scanned, {} finding(s), {} suppressed by allowlist",
        scanned,
        kept.len(),
        suppressed.len()
    );
    if kept.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------- rules

fn lint_wall_clock(path: &str, code: &str, out: &mut Vec<Finding>) {
    for (ln, line) in code.lines().enumerate() {
        for pat in ["Instant::now", "SystemTime"] {
            if line.contains(pat) {
                out.push(Finding {
                    rule: "wall-clock",
                    path: path.to_string(),
                    line: ln + 1,
                    message: format!(
                        "`{pat}` in a virtual-time codebase — wall-clock reads break replay \
                         determinism (allowlist only the simulator safety net)"
                    ),
                });
            }
        }
        if line.contains(".recv_timeout(") {
            out.push(Finding {
                rule: "wall-clock",
                path: path.to_string(),
                line: ln + 1,
                message: "blocking `.recv_timeout(` — wall-clock wait outside the allowlisted \
                          deadlock safety net"
                    .into(),
            });
        }
    }
}

fn lint_hashmap_iter(path: &str, code: &str, out: &mut Vec<Finding>) {
    for (name, line) in unordered_iterations(code) {
        out.push(Finding {
            rule: "hashmap-iter",
            path: path.to_string(),
            line,
            message: format!(
                "iteration over `{name}` (HashMap/HashSet): order is seeded per \
                 process — use BTreeMap/BTreeSet or sort before draining"
            ),
        });
    }
}

fn lint_wildcard_recv(path: &str, code: &str, out: &mut Vec<Finding>) {
    for (ln, line) in code.lines().enumerate() {
        if line.contains(".recv_any(") || line.contains(".recv_any::<") {
            out.push(Finding {
                rule: "wildcard-recv",
                path: path.to_string(),
                line: ln + 1,
                message: "wildcard receive — the matched sender depends on delivery order; \
                          name the source or move this into test code"
                    .into(),
            });
        }
    }
}

fn lint_tag_protocol(path: &str, code: &str, expected: &ProtocolFile, out: &mut Vec<Finding>) {
    // Extract `const TAG_*: u32 = VALUE;` declarations.
    let mut declared: Vec<(String, String, usize)> = Vec::new();
    for (ln, line) in code.lines().enumerate() {
        let Some(ci) = line.find("const TAG_") else { continue };
        let decl = &line[ci + 6..];
        let name: String =
            decl.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        let Some(eq) = decl.find('=') else { continue };
        let value: String = decl[eq + 1..]
            .trim()
            .trim_end_matches(';')
            .trim()
            .chars()
            .filter(|c| *c != '_')
            .collect::<String>()
            .to_lowercase();
        declared.push((name, value, ln + 1));
    }
    for (name, value, ln) in &declared {
        match expected.tags.iter().find(|(n, _)| n == name) {
            None => out.push(Finding {
                rule: "tag-protocol",
                path: path.to_string(),
                line: *ln,
                message: format!(
                    "tag `{name}` is not in scripts/commlint.protocol — declare it there"
                ),
            }),
            Some((_, want)) if want != value => out.push(Finding {
                rule: "tag-protocol",
                path: path.to_string(),
                line: *ln,
                message: format!("tag `{name}` = {value} but the protocol table says {want}"),
            }),
            _ => {}
        }
    }
    for (name, _) in &expected.tags {
        let Some((_, _, decl_ln)) = declared.iter().find(|(n, _, _)| n == name) else {
            out.push(Finding {
                rule: "tag-protocol",
                path: path.to_string(),
                line: 0,
                message: format!("tag `{name}` is in the protocol table but not declared here"),
            });
            continue;
        };
        // Pairing: the tag must be used on a send side and a receive
        // side (exchange counts as both). Look back a short window from
        // each use for the call name, so multi-line calls still match.
        // (archlint's message-flow model does this properly, from
        // balanced-paren call-site extraction; this windowed heuristic
        // stays as the fast line-level first gate.)
        let (mut send_side, mut recv_side) = (false, false);
        let bytes = code.as_bytes();
        let mut from = 0;
        while let Some(i) = code[from..].find(name.as_str()) {
            let at = from + i;
            from = at + name.len();
            // Skip the declaration itself and longer identifiers.
            let line_no = code[..at].bytes().filter(|&b| b == b'\n').count() + 1;
            let before_ok = at == 0 || {
                let c = bytes[at - 1] as char;
                !(c.is_alphanumeric() || c == '_')
            };
            let after_ok = at + name.len() >= code.len() || {
                let c = bytes[at + name.len()] as char;
                !(c.is_alphanumeric() || c == '_')
            };
            if !before_ok || !after_ok || line_no == *decl_ln {
                continue;
            }
            let window_start = at.saturating_sub(240);
            let window = &code[window_start..at];
            if window.contains("send(") || window.contains("exchange(") || window.contains("exchange::<") {
                send_side = true;
            }
            if window.contains("recv(")
                || window.contains("recv::<")
                || window.contains("recv_any")
                || window.contains("exchange(")
                || window.contains("exchange::<")
            {
                recv_side = true;
            }
        }
        if !send_side || !recv_side {
            let mut sides = String::new();
            if !send_side {
                let _ = write!(sides, "no send-side use");
            }
            if !recv_side {
                if !sides.is_empty() {
                    sides.push_str(", ");
                }
                let _ = write!(sides, "no recv-side use");
            }
            out.push(Finding {
                rule: "tag-protocol",
                path: path.to_string(),
                line: *decl_ln,
                message: format!("tag `{name}` is unpaired: {sides}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_rule_fires() {
        let mut f = Vec::new();
        lint_wall_clock("x.rs", "let t = Instant::now();\nlet y = inbox.recv_timeout(d);\n", &mut f);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == "wall-clock"));
        // set_recv_timeout is a configuration call, not a wall-clock wait.
        let mut g = Vec::new();
        lint_wall_clock("x.rs", "rt.set_recv_timeout(d);\n", &mut g);
        assert!(g.is_empty());
    }

    #[test]
    fn hashmap_iter_rule_tracks_bindings() {
        let code = "let mut m: HashMap<u32, u32> = HashMap::new();\n\
                    for k in m.keys() { }\n\
                    let ok: BTreeMap<u32, u32> = BTreeMap::new();\n\
                    for k in ok.keys() { }\n";
        let mut f = Vec::new();
        lint_hashmap_iter("x.rs", code, &mut f);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn wildcard_recv_rule_fires() {
        let mut f = Vec::new();
        lint_wildcard_recv("x.rs", "let (s, m) = p.recv_any::<f64>(1)?;\n", &mut f);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn tag_protocol_checks_values_and_pairing() {
        let expected = ProtocolFile {
            path: "x.rs".into(),
            tags: vec![("TAG_A".into(), "1001".into()), ("TAG_B".into(), "1002".into())],
        };
        let code = "const TAG_A: u32 = 1001;\nconst TAG_B: u32 = 9;\n\
                    p.send(1, TAG_A, x)?;\nlet y: f64 = p.recv(0, TAG_A)?;\n";
        let mut f = Vec::new();
        lint_tag_protocol("x.rs", code, &expected, &mut f);
        // TAG_B: wrong value + unpaired (no uses at all).
        assert!(f.iter().any(|x| x.message.contains("TAG_B") && x.message.contains("1002")));
        assert!(f.iter().any(|x| x.message.contains("unpaired")));
        assert!(!f.iter().any(|x| x.message.contains("`TAG_A`")), "{f:?}");
    }
}
