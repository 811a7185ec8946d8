//! The two rules that clippy's configuration cannot state
//! (LINTS.md), checked over the source tree as tier-1 tests.
//!
//! * F1: `partial_cmp` is not a total order on floats; a NaN key panics
//!   the comparator or silently reorders a sort. A `disallowed-methods`
//!   entry for `PartialOrd::partial_cmp` would also fire on every
//!   `#[derive(PartialOrd)]`, so the rule is a source scan instead.
//! * Crate coverage: the panic-safety lints live in the workspace
//!   `[lints]` table, which a crate must opt into. A new library crate
//!   that forgets the opt-in would silently escape them.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn rel(path: &Path) -> String {
    path.strip_prefix(root())
        .unwrap_or(path)
        .display()
        .to_string()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `crates/*` directories, sorted.
fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

#[test]
fn f1_no_partial_cmp_in_library_or_example_code() {
    let mut files = Vec::new();
    for dir in crate_dirs() {
        rust_files(&dir.join("src"), &mut files);
    }
    rust_files(&root().join("src"), &mut files);
    rust_files(&root().join("examples"), &mut files);
    assert!(files.len() > 50, "scan found only {} files", files.len());

    let mut hits = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source");
        for (i, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            if code.contains(".partial_cmp(") {
                hits.push(format!("{}:{}: {}", rel(file), i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "F1: use f64::total_cmp instead of partial_cmp:\n{}",
        hits.join("\n")
    );
}

#[test]
fn every_library_crate_inherits_the_workspace_lints() {
    let mut missing = Vec::new();
    for dir in crate_dirs() {
        if dir.ends_with("bench") {
            continue; // benches time the host and may panic; see LINTS.md
        }
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("readable manifest");
        let opted_in = manifest
            .split("\n[")
            .any(|table| table.starts_with("lints]") && table.contains("\nworkspace = true"));
        if !opted_in {
            missing.push(rel(&dir));
        }
    }
    assert!(
        missing.is_empty(),
        "these crates need `[lints] workspace = true` in their Cargo.toml: {}",
        missing.join(", ")
    );
}
