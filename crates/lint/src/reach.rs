//! Pass 5 of `archlint`: reachability.
//!
//! Reports every shipped `pub fn` that no binary, example, test or
//! benchmark can reach. Rustc's `dead_code` lint cannot see these: a
//! `pub` item is assumed used by some other crate, so a module that
//! only its own unit tests call compiles warning-free forever.
//!
//! * **Roots** — every non-lib cargo target of the workspace: `[[bin]]`
//!   paths, `src/main.rs`, `src/bin/`, and each crate's `examples/`,
//!   `tests/` and `benches/` (fixture trees under `fixtures/` are data,
//!   not targets). Packages beside `crates/` that are *not* workspace
//!   members but depend on it by path (the `perfbench/` benchmark) are
//!   roots too, all of their sources. Unit tests (`#[cfg(test)]`
//!   modules) and doctests are not roots.
//! * **Edges** — any identifier in a root file or a reached body that
//!   names a function (or a `macro_rules!` macro) defined in a crate
//!   visible from there: the crate itself and its transitive workspace
//!   dependencies. Fn-pointer uses such as
//!   `.map(Matrix::upper_triangular)` count; name resolution is by bare
//!   name, like the taint pass, so the analysis errs towards "reached".
//! * **Findings** — a `pub fn` in a library crate that nothing
//!   reaches, unless `archlint: allow(reach) — <reason>` sits directly
//!   above it. Annotated functions are kept on purpose, so what they
//!   call counts as reached too. An annotation on a function the roots
//!   *do* reach (or on a non-`pub` one) is itself a `stale-allow`
//!   finding.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs;
use std::path::Path;

use crate::scan::{collect_rs, strip_noncode, truncate_at_test_module, Finding};
use crate::taint::{extract_annotations, extract_fns, ident_byte, match_brace, FnDef};
use crate::workspace::{parse_package_name, parse_workspace_deps, Workspace};

/// Directories beside `src/` whose every file belongs to a non-lib
/// target.
const TARGET_DIRS: [&str; 3] = ["examples", "tests", "benches"];

/// Code of one non-lib target file and the crates its identifiers may
/// name.
struct Root {
    code: String,
    visible: Vec<String>,
}

/// Runs the reachability pass over the workspace rooted at `root`.
pub fn reach_pass(root: &Path, ws: &Workspace) -> Vec<Finding> {
    // Each crate sees itself and its transitive workspace dependencies.
    let visible_of: BTreeMap<&str, Vec<String>> = ws
        .crates
        .iter()
        .map(|c| {
            let mut cl = ws.transitive_deps(&c.short);
            cl.push(c.short.clone());
            (c.short.as_str(), cl)
        })
        .collect();
    let mut roots: Vec<Root> = Vec::new();
    let mut defs: Vec<FnDef> = Vec::new();
    let mut macros: Vec<FnDef> = Vec::new();
    let mut code_of: BTreeMap<String, &str> = BTreeMap::new();
    for c in &ws.crates {
        let dir = c.manifest_rel.trim_end_matches("Cargo.toml");
        let bins = bin_paths(&root.join(&c.manifest_rel));
        let visible = &visible_of[c.short.as_str()];
        for f in &c.files {
            let local = &f.rel[dir.len()..];
            if local == "src/main.rs"
                || local.starts_with("src/bin/")
                || bins.iter().any(|b| b == local)
            {
                roots.push(Root {
                    code: f.code.clone(),
                    visible: visible.clone(),
                });
            } else {
                defs.extend(extract_fns(&c.short, f, &extract_annotations(&f.raw)));
                macros.extend(extract_macros(&c.short, &f.rel, &f.code));
                code_of.insert(f.rel.clone(), &f.code);
            }
        }
        for sub in TARGET_DIRS {
            load_roots(root, &format!("{dir}{sub}"), false, visible, &mut roots);
        }
    }
    // Packages beside the workspace that build against it by path.
    let members: Vec<String> = ws.crates.iter().map(|c| c.package.clone()).collect();
    let mut outside: Vec<String> = fs::read_dir(root)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    outside.sort();
    for name in outside {
        let manifest = root.join(&name).join("Cargo.toml");
        if parse_package_name(&manifest).is_none_or(|p| members.contains(&p)) {
            continue;
        }
        let mut visible: Vec<String> = Vec::new();
        for (dep, _) in parse_workspace_deps(&manifest, &members) {
            visible.extend(visible_of[dep.as_str()].iter().cloned());
        }
        visible.sort();
        visible.dedup();
        load_roots(root, &format!("{name}/src"), true, &visible, &mut roots);
        for sub in TARGET_DIRS {
            load_roots(root, &format!("{name}/{sub}"), false, &visible, &mut roots);
        }
    }

    // Macros follow the functions, so `defs[..fns]` are the functions.
    let fns = defs.len();
    defs.extend(macros);
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, d) in defs.iter().enumerate() {
        by_name.entry(&d.name).or_default().push(i);
    }
    // The definitions that identifiers in `code[span]` can name: in a
    // `visible` crate, and outside their own crate only when `pub` or
    // reached through a trait. `home` is the naming crate, if any.
    let targets = |code: &str, span: (usize, usize), visible: &[String], home: Option<&str>| {
        idents(code, span)
            .into_iter()
            .filter_map(|id| by_name.get(id))
            .flatten()
            .copied()
            .filter(|&i| {
                let d = &defs[i];
                visible.contains(&d.crate_short)
                    && (d.public || d.trait_item || home == Some(d.crate_short.as_str()))
            })
            .collect::<Vec<usize>>()
    };

    // Breadth-first from the roots, then once more from the annotated
    // functions, which are kept on purpose.
    let spread = |seeds: Vec<usize>, reached: &mut [bool]| {
        let mut queue = VecDeque::from(seeds);
        while let Some(i) = queue.pop_front() {
            if !std::mem::replace(&mut reached[i], true) {
                let d = &defs[i];
                let home = d.crate_short.as_str();
                queue.extend(targets(
                    code_of[&d.file],
                    d.body,
                    &visible_of[home],
                    Some(home),
                ));
            }
        }
    };
    let mut reached = vec![false; defs.len()];
    // A root is a crate of its own (bin, example, test), so it names only
    // `pub` items.
    let seeds = roots
        .iter()
        .flat_map(|r| targets(&r.code, (0, r.code.len()), &r.visible, None));
    spread(seeds.collect(), &mut reached);
    let from_roots = reached.clone();
    spread(
        (0..defs.len()).filter(|&i| defs[i].allow_reach).collect(),
        &mut reached,
    );

    let mut out = Vec::new();
    for (i, d) in defs.iter().enumerate().take(fns) {
        if d.allow_reach && (from_roots[i] || !d.public) {
            let why = if d.public {
                "is reached from a binary, example, test or benchmark"
            } else {
                "is not `pub`"
            };
            out.push(Finding {
                rule: "stale-allow",
                path: d.file.clone(),
                line: d.line,
                message: format!(
                    "`archlint: allow(reach)` on fn `{}`, which {why} — delete the annotation",
                    d.name
                ),
            });
        } else if d.public && !d.allow_reach && !reached[i] {
            out.push(Finding {
                rule: "reach",
                path: d.file.clone(),
                line: d.line,
                message: format!(
                    "`pub fn {}` is reached by no binary, example, test or benchmark — delete \
                     it, or keep it with an `archlint: allow(reach) — <reason>` annotation",
                    d.name
                ),
            });
        }
    }
    out
}

/// Loads every `.rs` file under `root/rel_dir` as a root (skipping
/// `fixtures/` trees), test-truncated when `truncate`.
fn load_roots(root: &Path, rel_dir: &str, truncate: bool, visible: &[String], out: &mut Vec<Root>) {
    let mut paths = Vec::new();
    collect_rs(&root.join(rel_dir), &mut paths);
    paths.sort();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.split('/').any(|seg| seg == "fixtures") {
            continue;
        }
        let Ok(raw) = fs::read_to_string(&p) else {
            continue;
        };
        let stripped = strip_noncode(&raw);
        let code = if truncate {
            truncate_at_test_module(&stripped).to_string()
        } else {
            stripped
        };
        out.push(Root {
            code,
            visible: visible.to_vec(),
        });
    }
}

/// `path = "…"` of every `[[bin]]` table in a manifest.
fn bin_paths(manifest: &Path) -> Vec<String> {
    let Ok(text) = fs::read_to_string(manifest) else {
        return Vec::new();
    };
    let mut in_bin = false;
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bin = line == "[[bin]]";
        } else if let Some(rest) = line.strip_prefix("path").filter(|_| in_bin) {
            if let Some(v) = rest.trim_start().strip_prefix('=') {
                out.push(v.trim().trim_matches('"').to_string());
            }
        }
    }
    out
}

/// `macro_rules! name { … }` definitions as bodies reached by the
/// macro's name, so a macro that expands to library calls reaches them.
/// They count as `pub` (`#[macro_export]`) but are never findings.
fn extract_macros(crate_short: &str, rel: &str, code: &str) -> Vec<FnDef> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = code[from..].find("macro_rules!").map(|i| from + i) {
        from = at + "macro_rules!".len();
        let name_start = from
            + bytes[from..]
                .iter()
                .take_while(|b| b.is_ascii_whitespace())
                .count();
        let name_end = name_start
            + bytes[name_start..]
                .iter()
                .take_while(|&&b| ident_byte(b))
                .count();
        let open = name_end
            + bytes[name_end..]
                .iter()
                .take_while(|b| b.is_ascii_whitespace())
                .count();
        if name_end == name_start || bytes.get(open) != Some(&b'{') {
            continue;
        }
        out.push(FnDef {
            crate_short: crate_short.to_string(),
            file: rel.to_string(),
            name: code[name_start..name_end].to_string(),
            line: 1 + code[..at].matches('\n').count(),
            body: (open, match_brace(bytes, open)),
            allow_taint: false,
            forced_source: false,
            public: true,
            trait_item: false,
            allow_reach: false,
        });
    }
    out
}

/// The distinct identifiers in `code[span]` (lifetimes and numeric
/// literals excluded).
fn idents(code: &str, span: (usize, usize)) -> BTreeSet<&str> {
    let bytes = code.as_bytes();
    let mut out = BTreeSet::new();
    let mut i = span.0;
    while i < span.1 {
        if !ident_byte(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < span.1 && ident_byte(bytes[i]) {
            i += 1;
        }
        if !bytes[start].is_ascii_digit() && (start == 0 || bytes[start - 1] != b'\'') {
            out.insert(&code[start..i]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::load_workspace;
    use std::path::PathBuf;

    /// Writes a two-crate tree (`app` depends on `lib`) plus `extra`
    /// files into a fresh temp dir and returns its root.
    fn tree(name: &str, lib_src: &str, extra: &[(&str, &str)]) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("archlint-reach-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let files = [
            ("crates/lib/Cargo.toml", "[package]\nname = \"tsqr-lib\"\n"),
            ("crates/lib/src/lib.rs", lib_src),
            ("crates/app/Cargo.toml", "[package]\nname = \"tsqr-app\"\n\n[dependencies]\ntsqr-lib = { path = \"../lib\" }\n"),
            ("crates/app/src/lib.rs", "pub fn run() {}\n"),
            ("crates/app/src/main.rs", "fn main() { tsqr_app::run(); }\n"),
        ];
        for (rel, text) in files.iter().chain(extra) {
            let p = root.join(rel);
            fs::create_dir_all(p.parent().unwrap()).unwrap();
            fs::write(p, text).unwrap();
        }
        root
    }

    /// The pass's findings as sorted `rule path:line` strings.
    fn reported(root: &Path) -> Vec<String> {
        let out = reach_pass(root, &load_workspace(root));
        let _ = fs::remove_dir_all(root);
        let mut got: Vec<String> = out
            .iter()
            .map(|f| format!("{} {}:{}", f.rule, f.path, f.line))
            .collect();
        got.sort();
        got
    }

    const LIB: &str = "pub fn used() -> u32 { helper() }\npub fn helper() -> u32 { 1 }\n";

    #[test]
    fn unreached_pub_fn_is_reported_with_its_callees() {
        assert_eq!(
            reported(&tree("none", LIB, &[])),
            [
                "reach crates/lib/src/lib.rs:1",
                "reach crates/lib/src/lib.rs:2"
            ]
        );
    }

    #[test]
    fn example_root_reaches_through_the_call_graph() {
        let ex = (
            "crates/lib/examples/demo.rs",
            "fn main() { tsqr_lib::used(); }\n",
        );
        assert!(reported(&tree("example", LIB, &[ex])).is_empty());
    }

    #[test]
    fn integration_test_root_reaches() {
        let t = (
            "crates/app/tests/it.rs",
            "#[test]\nfn t() { assert_eq!(tsqr_lib::used(), 1); }\n",
        );
        assert!(reported(&tree("itest", LIB, &[t])).is_empty());
    }

    #[test]
    fn fn_pointer_use_reaches() {
        let lib = "pub fn square(x: u32) -> u32 { x * x }\n";
        let main = (
            "crates/app/src/bin/tool.rs",
            "fn main() { let v: Vec<u32> = [1].into_iter().map(tsqr_lib::square).collect(); }\n",
        );
        assert!(reported(&tree("fnptr", lib, &[main])).is_empty());
    }

    #[test]
    fn external_benchmark_package_reaches() {
        let manifest = ("perfbench/Cargo.toml", "[package]\nname = \"perfbench\"\n\n[workspace]\n\n[dependencies]\ntsqr-app = { path = \"../crates/app\" }\n");
        let main = ("perfbench/src/main.rs", "fn main() { tsqr_lib::used(); }\n");
        assert!(reported(&tree("external", LIB, &[manifest, main])).is_empty());
    }

    #[test]
    fn unit_tests_and_invisible_crates_are_not_roots() {
        // A unit test is not a root, and `lib`'s own example cannot
        // name `app`'s functions (`app` is not among its dependencies).
        let lib = "pub fn used() {}\n#[cfg(test)]\nmod tests { fn t() { super::used(); } }\n";
        let app = (
            "crates/app/src/lib.rs",
            "pub fn run() {}\npub fn orphan() {}\n",
        );
        let ex = ("crates/lib/examples/demo.rs", "fn main() { orphan(); }\n");
        assert_eq!(
            reported(&tree("unit", lib, &[app, ex])),
            [
                "reach crates/app/src/lib.rs:2",
                "reach crates/lib/src/lib.rs:1"
            ]
        );
    }

    #[test]
    fn private_fns_are_named_only_in_their_crate_but_trait_methods_anywhere() {
        // The bin's own `helper()` cannot name `lib`'s private `helper`,
        // so `only_via_helper` stays unreached; a trait method is callable
        // wherever the trait is, so `shown` is reached through `show`.
        let lib = "pub fn only_via_helper() {}\nfn helper() { only_via_helper() }\n\
                   pub trait Show { fn show(&self); }\nimpl Show for u8 { fn show(&self) { shown() } }\n\
                   pub fn shown() {}\n";
        let main = (
            "crates/app/src/main.rs",
            "fn helper() {}\nfn main() { helper(); 1u8.show(); tsqr_app::run(); }\n",
        );
        assert_eq!(
            reported(&tree("privacy", lib, &[main])),
            ["reach crates/lib/src/lib.rs:1"]
        );
    }

    #[test]
    fn macro_bodies_reach_what_they_expand_to() {
        let lib = "#[macro_export]\nmacro_rules! check { ($e:expr) => { $crate::verify($e) }; }\npub fn verify(x: u32) {}\n";
        let t = (
            "crates/lib/tests/it.rs",
            "#[test]\nfn t() { tsqr_lib::check!(1); }\n",
        );
        assert!(reported(&tree("macro", lib, &[t])).is_empty());
    }

    #[test]
    fn annotation_keeps_a_fn_and_what_it_calls() {
        let lib = "// archlint: allow(reach) — reference oracle\npub fn oracle() -> u32 { helper() }\npub fn helper() -> u32 { 1 }\n";
        assert!(reported(&tree("kept", lib, &[])).is_empty());
    }

    #[test]
    fn stale_annotation_is_reported() {
        let lib = "// archlint: allow(reach) — no longer true\npub fn used() {}\n// archlint: allow(reach) — private anyway\nfn private() {}\n";
        let ex = (
            "crates/lib/examples/demo.rs",
            "fn main() { tsqr_lib::used(); }\n",
        );
        assert_eq!(
            reported(&tree("stale", lib, &[ex])),
            [
                "stale-allow crates/lib/src/lib.rs:2",
                "stale-allow crates/lib/src/lib.rs:4"
            ]
        );
    }
}
