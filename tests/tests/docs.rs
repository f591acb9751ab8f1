//! Doc drift: the design notes and the README must not name files that
//! no longer exist. A deletion that leaves its path behind in the docs
//! fails here instead of misleading the next reader.

use std::path::Path;

/// Documents whose backticked paths must resolve from the repository root.
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
