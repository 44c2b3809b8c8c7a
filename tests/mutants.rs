//! The mutant manifest stays in step with the code it breaks.
//!
//! Each `mutants/<name>.patch` plants one bug, and its header names the
//! `cargo test` invocations that must fail on it (`mutants/run.sh` runs
//! them, outside tier-1). This test only reads the files: every header
//! names a test, every named test is still a `fn` under `crates/` or
//! `tests/`, and every file a patch touches still exists. A rename that
//! would strand a mutant fails here at once.

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_mutant_names_tests_and_files_that_exist() {
    let mut sources = Vec::new();
    rust_files(&root().join("crates"), &mut sources);
    rust_files(&root().join("tests"), &mut sources);
    let sources: Vec<String> = sources
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();

    let mut patches: Vec<PathBuf> = std::fs::read_dir(root().join("mutants"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "patch"))
        .collect();
    patches.sort();
    assert!(!patches.is_empty(), "no mutant under mutants/");

    for patch in &patches {
        let text = std::fs::read_to_string(patch).unwrap();
        let name = patch.display();
        let (header, diff) = text
            .split_once("\ndiff --git ")
            .unwrap_or_else(|| panic!("{name}: no `diff --git` section"));
        let tests: Vec<&str> = header
            .lines()
            .filter_map(|l| l.strip_prefix("must fail: cargo test "))
            .map(|args| args.split_whitespace().last().unwrap_or(""))
            .collect();
        assert!(!tests.is_empty(), "{name}: the header names no test");
        for test in tests {
            let f = test.rsplit("::").next().unwrap();
            let defined = format!("fn {f}(");
            assert!(
                sources.iter().any(|s| s.contains(&defined)),
                "{name}: no `fn {f}` under crates/ or tests/"
            );
        }
        for section in diff.split("\ndiff --git ") {
            let file = section.split_whitespace().next().unwrap();
            let file = file.strip_prefix("a/").unwrap_or(file);
            assert!(root().join(file).is_file(), "{name}: {file} is gone");
        }
    }
}
