//! `outran-lint` — workspace-local determinism & simulation-soundness
//! source scan, in the spirit of rustc's `tidy` pass.
//!
//! Every result this reproduction publishes rests on bit-identical
//! determinism. Most of the invariants behind that are stated where
//! the compiler or a stock lint can hold them (`unsafe_code = "forbid"`
//! in `[workspace.lints]`, `clippy.toml`'s `disallowed-types`, field
//! privacy, the determinism test suites); this crate checks the five
//! that only a source scan can state, on every commit, as structured
//! diagnostics with `file:line` positions, rule IDs, and
//! reason-carrying inline suppressions that are themselves linted. It
//! is std-only by construction (the workspace builds without crates.io
//! access), so the Rust surface scanning is a small hand-rolled lexer
//! rather than `syn`.
//!
//! The rule table lives in [`rules::RuleId`]; the rationale per rule
//! is documented in DESIGN.md § "Static analysis".

pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

pub use rules::{analyze_source, Diagnostic, RuleId};

/// Directories never descended into during the workspace walk.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "fixtures"];

/// Collect all lintable `.rs` files under `root`, workspace-relative.
///
/// Skips build output and this crate's own known-bad test fixtures.
/// Results are sorted so diagnostics order is stable across filesystems.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint result for a set of files.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of files scanned.
    pub checked_files: usize,
    /// All findings, ordered by (file in walk order, line, rule).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lint `files` (absolute paths under `root`) with the given rule set.
/// `check_stale` enables the stale-suppression meta-rule L102 and
/// should be false when `enabled` is a filtered subset.
pub fn lint_files(
    root: &Path,
    files: &[PathBuf],
    enabled: &[RuleId],
    check_stale: bool,
) -> std::io::Result<Report> {
    let mut diagnostics = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        diagnostics.extend(analyze_source(&rel, &src, enabled, check_stale));
    }
    Ok(Report {
        checked_files: files.len(),
        diagnostics,
    })
}

/// Lint the whole workspace rooted at `root` with every catalog rule.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let files = workspace_files(root)?;
    lint_files(root, &files, &RuleId::CATALOG, true)
}

/// Locate the simulator workspace root: walk up from `start` to the
/// first directory whose `Cargo.toml` has a `members` key. A bare
/// `[workspace]` table does not count — `benchmark/` carries an empty
/// one to stay a package of its own, and stopping there would lint six
/// files and report a vacuous "clean".
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start.ancestors().find_map(|d| {
        let text = std::fs::read_to_string(d.join("Cargo.toml")).ok()?;
        text.lines()
            .any(|l| l.trim_start().starts_with("members"))
            .then(|| d.to_path_buf())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_same_root_from_the_benchmark_package() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates").is_dir());
        let from_benchmark = find_workspace_root(&root.join("benchmark/benches"));
        assert_eq!(from_benchmark, Some(root));
    }
}
