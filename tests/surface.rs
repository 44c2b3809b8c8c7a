//! The public surface is a file: `SURFACE.txt` at the repository root.
//!
//! This test derives the list from the source and compares it with the
//! committed file. It reads the non-test source of `src/lib.rs` and of
//! every `crates/*/src` file, up to the first column-0 `#[cfg(test)]`,
//! and lists:
//!
//! * every `pub` item — fn (as `Type::name` inside an inherent `impl`),
//!   struct, enum, trait, const, static, type, mod, and each name a
//!   `pub use` re-exports;
//! * every `pub` field of a `pub` struct named `*Config` or `*Plan`, and
//!   of `Envelope`: the values a caller can set.
//!
//! Items marked `#[cfg(test)]` are skipped. On a mismatch the test
//! prints the difference and writes the derived list to
//! `target/SURFACE.txt`; `cp target/SURFACE.txt SURFACE.txt` accepts it.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
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

/// The library source files, relative to the repository root.
fn sources() -> Vec<String> {
    let root = root();
    let mut files = vec![root.join("src/lib.rs")];
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    for src in crates {
        rust_files(&src, &mut files);
    }
    files
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(&root).expect("under the root");
            rel.to_string_lossy().replace('\\', "/")
        })
        .collect()
}

/// The text before the first column-0 `#[cfg(test)]`.
fn non_test(text: &str) -> &str {
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        at += line.len();
    }
    &text[..at]
}

/// `text` with every comment and the inside of every string and char
/// literal blanked, so that the braces and keywords left are code.
fn code_only(text: &str) -> String {
    let c: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let ident = |ch: char| ch.is_alphanumeric() || ch == '_';
    let mut i = 0;
    let blank = |out: &mut String, ch: char| out.push(if ch == '\n' { '\n' } else { ' ' });
    while i < c.len() {
        let prev = if i > 0 { c[i - 1] } else { ' ' };
        if c[i] == '/' && c.get(i + 1) == Some(&'/') {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
        } else if c[i] == '/' && c.get(i + 1) == Some(&'*') {
            let mut depth = 0;
            while i < c.len() {
                if c[i] == '/' && c.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if c[i] == '*' && c.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, c[i]);
                    i += 1;
                }
            }
        } else if c[i] == 'r'
            && !(ident(prev) && prev != 'b')
            && matches!(c.get(i + 1), Some('"') | Some('#'))
        {
            let mut j = i + 1;
            while c.get(j) == Some(&'#') {
                j += 1;
            }
            if c.get(j) != Some(&'"') {
                out.push(c[i]);
                i += 1;
                continue;
            }
            let hashes = j - i - 1;
            out.push('"');
            i = j + 1;
            while i < c.len() {
                if c[i] == '"' && (1..=hashes).all(|k| c.get(i + k) == Some(&'#')) {
                    i += hashes + 1;
                    break;
                }
                blank(&mut out, c[i]);
                i += 1;
            }
            out.push('"');
        } else if c[i] == '"' {
            out.push('"');
            i += 1;
            while i < c.len() && c[i] != '"' {
                if c[i] == '\\' {
                    blank(&mut out, c[i]);
                    i += 1;
                }
                if i < c.len() {
                    blank(&mut out, c[i]);
                    i += 1;
                }
            }
            out.push('"');
            i += 1;
        } else if c[i] == '\'' && (c.get(i + 1) == Some(&'\\') || c.get(i + 2) == Some(&'\'')) {
            // A char literal; a lone quote is a lifetime.
            i += 1;
            while i < c.len() && c[i] != '\'' {
                if c[i] == '\\' {
                    i += 1;
                }
                i += 1;
            }
            out.push_str("' '");
            i += 1;
        } else {
            out.push(c[i]);
            i += 1;
        }
    }
    out
}

fn tokens(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut word = String::new();
    for ch in code.chars() {
        if ch.is_alphanumeric() || ch == '_' {
            word.push(ch);
            continue;
        }
        if !word.is_empty() {
            out.push(std::mem::take(&mut word));
        }
        if !ch.is_whitespace() {
            out.push(ch.to_string());
        }
    }
    if !word.is_empty() {
        out.push(word);
    }
    out
}

/// What a `{ … }` block is, for the items inside it.
enum Block {
    /// An inherent or trait `impl` of the named type.
    Impl(String),
    /// A `pub` struct whose `pub` fields are listed.
    Settable(String),
    /// An inline module.
    Mod(String),
    /// An item marked `#[cfg(test)]`: nothing inside is listed.
    Test,
    Other,
}

/// The type an `impl` header names: the one after `for`, else the first.
fn impl_type(header: &[String]) -> String {
    let mut angle = 0;
    let mut last_ident = None;
    let mut after_for = None;
    for (i, t) in header.iter().enumerate() {
        match t.as_str() {
            "<" => angle += 1,
            ">" if i > 0 && header[i - 1] != "-" => angle -= 1,
            "for" if angle == 0 => after_for = Some(i + 1),
            "where" if angle == 0 => break,
            _ => {}
        }
        let word = t.chars().all(|c| c.is_alphanumeric() || c == '_');
        if angle == 0 && after_for.is_none() && word && t != "impl" && t != "where" {
            last_ident = Some(t.clone());
        }
    }
    if let Some(start) = after_for {
        let mut name = None;
        for t in &header[start..] {
            if t == "<" || t == "where" {
                break;
            }
            if t.chars().all(|c| c.is_alphanumeric() || c == '_') {
                name = Some(t.clone());
            }
        }
        return name.unwrap_or_default();
    }
    last_ident.unwrap_or_default()
}

/// Expands a `use` tree (`a::{b, c::{d, e}}`) into its leaf paths.
fn use_leaves(toks: &[String]) -> Vec<String> {
    fn tree(toks: &[String], at: &mut usize, prefix: &str, out: &mut Vec<String>) {
        let mut path = prefix.to_string();
        while *at < toks.len() {
            match toks[*at].as_str() {
                "{" => {
                    *at += 1;
                    loop {
                        tree(toks, at, &path, out);
                        match toks.get(*at).map(String::as_str) {
                            Some(",") => *at += 1,
                            _ => break,
                        }
                        if toks.get(*at).map(String::as_str) == Some("}") {
                            break;
                        }
                    }
                    *at += 1; // the closing brace
                    return;
                }
                "," | "}" => break,
                ":" => {
                    path.push(':');
                    *at += 1;
                }
                t => {
                    if !path.is_empty() && !path.ends_with(':') {
                        path.push(' ');
                    }
                    path.push_str(t);
                    *at += 1;
                }
            }
        }
        out.push(path);
    }
    let mut out = Vec::new();
    let mut at = 0;
    tree(toks, &mut at, "", &mut out);
    out
}

fn settable(name: &str) -> bool {
    name.ends_with("Config") || name.ends_with("Plan") || name == "Envelope"
}

const KINDS: [&str; 10] = [
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "use", "union",
];

/// The surface lines of one file.
fn scan(rel: &str, text: &str, out: &mut Vec<String>) {
    let toks = tokens(&code_only(non_test(text)));
    let mut stack: Vec<Block> = Vec::new();
    let mut pending: Option<Block> = None;
    let mut cfg_test = false;
    let mut i = 0;
    let at = |i: usize| toks.get(i).map(String::as_str).unwrap_or("");
    while i < toks.len() {
        let skipping = stack.iter().any(|b| matches!(b, Block::Test));
        let prefix: String = stack
            .iter()
            .filter_map(|b| match b {
                Block::Mod(m) => Some(format!("{m}::")),
                _ => None,
            })
            .collect();
        match at(i) {
            "#" if at(i + 1) == "["
                && at(i + 2) == "cfg"
                && at(i + 3) == "("
                && at(i + 4) == "test" =>
            {
                cfg_test = true;
                i += 5;
                continue;
            }
            "{" => {
                let block = if cfg_test {
                    Block::Test
                } else {
                    pending.take().unwrap_or(Block::Other)
                };
                cfg_test = false;
                pending = None;
                stack.push(block);
            }
            "}" => {
                stack.pop();
            }
            ";" => {
                pending = None;
                cfg_test = false;
            }
            "impl" => {
                let end = (i..toks.len())
                    .find(|&j| at(j) == "{" || at(j) == ";")
                    .unwrap_or(toks.len());
                pending = Some(Block::Impl(impl_type(&toks[i..end])));
            }
            "fn" | "struct" | "enum" | "trait" | "union" => pending = Some(Block::Other),
            "mod" => pending = Some(Block::Mod(at(i + 1).to_string())),
            "pub" if at(i + 1) != "(" && !skipping && !cfg_test => {
                let mut j = i + 1;
                while matches!(at(j), "unsafe" | "async" | "extern" | "\"")
                    || (at(j) == "const" && at(j + 1) == "fn")
                {
                    j += 1;
                }
                let kind = at(j);
                if kind == "use" {
                    let end = (j..toks.len())
                        .find(|&k| at(k) == ";")
                        .unwrap_or(toks.len());
                    for leaf in use_leaves(&toks[j + 1..end]) {
                        out.push(format!("{rel}: use {prefix}{leaf}"));
                    }
                    i = end;
                    continue;
                }
                if KINDS.contains(&kind) {
                    let name = if kind == "static" && at(j + 1) == "mut" {
                        at(j + 2)
                    } else {
                        at(j + 1)
                    };
                    let owner = match (kind, stack.last()) {
                        ("fn", Some(Block::Impl(ty))) => format!("{ty}::"),
                        _ => prefix.clone(),
                    };
                    out.push(format!("{rel}: {kind} {owner}{name}"));
                    pending = match kind {
                        "struct" if settable(name) => Some(Block::Settable(name.to_string())),
                        "mod" => Some(Block::Mod(name.to_string())),
                        "fn" | "struct" | "enum" | "trait" | "union" => Some(Block::Other),
                        _ => None,
                    };
                    i = j + 2;
                    continue;
                }
                if let (Some(Block::Settable(owner)), ":") = (stack.last(), at(j + 1)) {
                    out.push(format!("{rel}: field {owner}.{kind}"));
                }
            }
            _ => {}
        }
        i += 1;
    }
}

fn derive() -> String {
    let root = root();
    let mut lines = Vec::new();
    for rel in sources() {
        let text = fs::read_to_string(root.join(&rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        scan(&rel, &text, &mut lines);
    }
    let mut text = String::new();
    for line in lines {
        text.push_str(&line);
        text.push('\n');
    }
    text
}

#[test]
fn the_public_surface_matches_surface_txt() {
    let root = root();
    let derived = derive();
    let committed = fs::read_to_string(root.join("SURFACE.txt")).unwrap_or_default();
    if derived == committed {
        return;
    }
    let want: BTreeSet<&str> = committed.lines().collect();
    let got: BTreeSet<&str> = derived.lines().collect();
    let mut diff = String::new();
    for line in want.difference(&got) {
        diff.push_str(&format!("- {line}\n"));
    }
    for line in got.difference(&want) {
        diff.push_str(&format!("+ {line}\n"));
    }
    let target = root.join("target");
    let _ = fs::create_dir_all(&target);
    let written = fs::write(target.join("SURFACE.txt"), &derived).is_ok();
    panic!(
        "the public surface differs from SURFACE.txt (- committed, + derived{}):\n{diff}{}",
        if diff.is_empty() {
            "; only the order differs"
        } else {
            ""
        },
        if written {
            "the derived list is in target/SURFACE.txt; `cp target/SURFACE.txt SURFACE.txt` accepts it"
        } else {
            "target/SURFACE.txt could not be written"
        },
    );
}

#[test]
fn the_scanner_reads_items_fields_and_reexports() {
    let src = r#"
//! pub fn not_code() {}
pub use crate::a::{B, c::{D, E}};
pub(crate) fn hidden() {}
pub struct EngineConfig {
    /// pub fn in_a_doc()
    pub tau: u64,
    seed: u64,
    pub(crate) inner: u64,
}
pub struct Plain { pub x: u64 }
impl<T: Ord> Register<T> where T: Clone {
    pub fn push(&mut self) { let s = "pub fn in_a_string() {"; let c = '{'; }
    #[cfg(test)]
    pub fn test_only(&self) {}
    fn private(&self) {}
}
impl From<u8> for Plain {
    fn from(_: u8) -> Self { Plain { x: 0 } }
}
pub mod prelude {
    pub use quts_db::Store;
}
pub const fn k() -> u64 { 1 }
pub const LIMIT: u64 = 3;
#[cfg(test)]
mod tests {
    pub fn helper() {}
}
"#;
    let mut out = Vec::new();
    scan("x.rs", src, &mut out);
    assert_eq!(
        out,
        [
            "x.rs: use crate::a::B",
            "x.rs: use crate::a::c::D",
            "x.rs: use crate::a::c::E",
            "x.rs: struct EngineConfig",
            "x.rs: field EngineConfig.tau",
            "x.rs: struct Plain",
            "x.rs: fn Register::push",
            "x.rs: mod prelude",
            "x.rs: use prelude::quts_db::Store",
            "x.rs: fn k",
            "x.rs: const LIMIT",
        ]
    );
}
