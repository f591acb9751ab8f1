//! Doc drift: the design notes and the README must not name files or
//! items that no longer exist. A deletion that leaves its path, its
//! `Type::item` or its bare `function()` behind in the docs fails here
//! instead of misleading the next reader.

use std::collections::HashSet;
use std::path::Path;

/// Documents whose backticked paths must resolve from the repository
/// root, and whose backticked items must be defined in the workspace.
/// EXPERIMENTS.md is the per-change record and may name deleted files.
const CHECKED_DOCS: &[&str] = &["DESIGN.md", "README.md"];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the integration package sits one level below the root")
}

/// Every backticked span in `text`, in order.
fn backticked(text: &str) -> impl Iterator<Item = &str> {
    text.split('`').skip(1).step_by(2)
}

/// Whether a backticked span reads as a repository path: no spaces, no
/// URL scheme, at least one `/`, and either a file name with an extension,
/// a trailing `/`, or a first segment that is a top-level directory.
/// Units such as `images/s` are none of these.
fn as_path(span: &str, root: &Path) -> Option<String> {
    let path_chars = |c: char| c.is_ascii_alphanumeric() || "_.-/".contains(c);
    if !span.contains('/') || span.contains("//") || !span.chars().all(path_chars) {
        return None;
    }
    let last = span.rsplit('/').next().unwrap_or("");
    let first = span.split('/').next().unwrap_or("");
    let looks_like_path = last.contains('.')
        || span.ends_with('/')
        || (!first.is_empty() && root.join(first).is_dir());
    looks_like_path.then(|| span.to_string())
}

fn missing_paths(doc: &str, text: &str, root: &Path) -> Vec<String> {
    backticked(text)
        .filter_map(|span| as_path(span, root))
        .filter(|path| !root.join(path).exists())
        .map(|path| format!("{doc}: `{path}`"))
        .collect()
}

/// Path roots the workspace does not define: the standard library and
/// the primitive types.
const FOREIGN_ROOTS: &[&str] = &[
    "std", "core", "alloc", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64",
    "i128", "isize", "f32", "f64", "bool", "char", "str",
];

/// Keywords after which a Rust source line names the item it defines.
const DEFINING: &[&str] = &[
    "fn",
    "const",
    "static",
    "struct",
    "enum",
    "union",
    "trait",
    "type",
    "mod",
    "macro_rules!",
];

/// The leading identifier of `text` and what follows it.
fn ident_prefix(text: &str) -> (&str, &str) {
    let end = text
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(text.len());
    text.split_at(end)
}

/// The item a backticked `A::b`, `A::b()` or bare `b()` names, `b`,
/// unless the span is no such path or call, or its root is foreign.
fn item_name(span: &str) -> Option<&str> {
    let (path, min_segments) = match span.strip_suffix("()") {
        Some(path) => (path, 1),
        None => (span, 2),
    };
    let segments: Vec<&str> = path.split("::").collect();
    let is_ident = |s: &&str| {
        !s.is_empty()
            && ident_prefix(s).1.is_empty()
            && !s.starts_with(|c: char| c.is_ascii_digit())
    };
    (segments.len() >= min_segments
        && segments.iter().all(is_ident)
        && !FOREIGN_ROOTS.contains(&segments[0]))
    .then(|| segments[segments.len() - 1])
}

/// Every name a Rust source line defines: the identifier after a
/// defining keyword, and a line's leading identifier when a variant or
/// field follows from it (`Name,`, `Name(`, `Name {`, `name:`).
fn defined_on(line: &str, names: &mut HashSet<String>) {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    for pair in tokens.windows(2) {
        if DEFINING.contains(&pair[0]) {
            let (name, _) = ident_prefix(pair[1]);
            names.insert(name.to_string());
        }
    }
    let body = line.trim_start();
    let body = body.strip_prefix("pub ").unwrap_or(body);
    let (name, rest) = ident_prefix(body);
    let rest = rest.trim_start();
    let variant_or_field = rest.starts_with([',', '(', '{', '='])
        || (rest.starts_with(':') && !rest.starts_with("::"));
    if !name.is_empty() && variant_or_field {
        names.insert(name.to_string());
    }
}

/// Every name the Rust sources under `dir` define, build outputs
/// skipped.
fn defined_names(dir: &Path, names: &mut HashSet<String>) {
    let entries = std::fs::read_dir(dir).expect("source directory is readable");
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                defined_names(&path, names);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("source is readable");
            text.lines().for_each(|line| defined_on(line, names));
        }
    }
}

fn undefined_items(doc: &str, text: &str, defined: &HashSet<String>) -> Vec<String> {
    backticked(text)
        .filter(|span| item_name(span).is_some_and(|name| !defined.contains(name)))
        .map(|span| format!("{doc}: `{span}`"))
        .collect()
}

/// The names the workspace's crates and the benchmark package define.
fn workspace_names(root: &Path) -> HashSet<String> {
    let mut names = HashSet::new();
    for dir in ["crates", "benchmark"] {
        defined_names(&root.join(dir), &mut names);
    }
    names
}

#[test]
fn docs_name_only_existing_paths() {
    let root = repo_root();
    let mut missing = Vec::new();
    for doc in CHECKED_DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        missing.extend(missing_paths(doc, &text, root));
    }
    assert!(
        missing.is_empty(),
        "paths named in the docs do not exist from the repository root:\n{}",
        missing.join("\n")
    );
}

#[test]
fn a_deleted_path_is_reported() {
    let root = repo_root();
    let text = "see `crates/rtos/src/kernel.rs`, `crates/rtos/src/gone.rs`, \
                `tests/`, `images/s` and `chrome://tracing`";
    assert_eq!(
        missing_paths("doc", text, root),
        vec!["doc: `crates/rtos/src/gone.rs`".to_string()]
    );
}

#[test]
fn docs_name_only_defined_items() {
    let root = repo_root();
    let defined = workspace_names(root);
    let mut missing = Vec::new();
    for doc in CHECKED_DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        missing.extend(undefined_items(doc, &text, &defined));
    }
    assert!(
        missing.is_empty(),
        "`Type::item` and `function()` names in the docs define nothing under crates/ or \
         benchmark/:\n{}",
        missing.join("\n")
    );
}

#[test]
fn a_deleted_item_is_reported() {
    let defined = workspace_names(repo_root());
    let text = "see `Machine::run`, `CfMonitor::record_repeat()`, `AccessMode::Memo`, \
                `TOp::prefix`, `Machine::gone_forever()`, `u32::MAX`, `std::mem::take`, \
                `engine_throughput()`, `deleted_helper()`, `a::b c`, `run` and `f(x)`";
    assert_eq!(
        undefined_items("doc", text, &defined),
        vec![
            "doc: `Machine::gone_forever()`".to_string(),
            "doc: `deleted_helper()`".to_string()
        ]
    );
}
