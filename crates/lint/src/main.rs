//! CLI for `outran-lint`.
//!
//! ```text
//! cargo run -p outran-lint --release -- [--rule <id>]... [paths…]
//! ```
//!
//! With no paths, lints the whole workspace. Paths (files or
//! directories, relative to the workspace root or absolute) restrict
//! the scan. `--rule` restricts the catalog to the named rules (the
//! suppression-hygiene meta-rules still run; the stale-suppression
//! check L102 is disabled under a filter); unknown rule names exit
//! non-zero with the known-rule list. Exits non-zero on any diagnostic.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use outran_lint::{find_workspace_root, lint_files, workspace_files, RuleId};

/// The known-rule list for error messages, read off the rule table.
fn known_rules() -> String {
    let names: Vec<&str> = RuleId::TABLE.iter().map(|&(_, name, _)| name).collect();
    names.join(", ")
}

fn main() -> ExitCode {
    let mut rules: Vec<RuleId> = Vec::new();
    let mut paths: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rule" => {
                let Some(name) = args.next() else {
                    eprintln!(
                        "error: --rule needs an argument (one of: {})",
                        known_rules()
                    );
                    return ExitCode::from(2);
                };
                let Some(rule) = RuleId::parse(&name) else {
                    eprintln!(
                        "error: unknown rule `{name}` (known rules: {})",
                        known_rules()
                    );
                    return ExitCode::from(2);
                };
                rules.push(rule);
            }
            "--help" | "-h" => {
                println!(
                    "outran-lint: determinism & simulation-soundness checks\n\
                     usage: outran-lint [--rule <id>]... [paths...]\n\
                     rules:"
                );
                for (_, name, summary) in RuleId::TABLE {
                    println!("  {name:<5} {summary}");
                }
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag `{other}`");
                return ExitCode::from(2);
            }
            other => paths.push(other.to_string()),
        }
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let Some(root) = find_workspace_root(&cwd).or_else(|| find_workspace_root(&manifest_dir))
    else {
        eprintln!(
            "error: no workspace root (a Cargo.toml with `members`) above {}",
            cwd.display()
        );
        return ExitCode::from(2);
    };

    let all = match workspace_files(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let files: Vec<PathBuf> = if paths.is_empty() {
        all
    } else {
        let wanted: Vec<PathBuf> = paths
            .iter()
            .map(|p| {
                let pb = Path::new(p);
                if pb.is_absolute() {
                    pb.to_path_buf()
                } else {
                    root.join(pb)
                }
            })
            .collect();
        all.into_iter()
            .filter(|f| wanted.iter().any(|w| f == w || f.starts_with(w)))
            .collect()
    };

    let check_stale = rules.is_empty();
    let enabled: Vec<RuleId> = if rules.is_empty() {
        RuleId::CATALOG.to_vec()
    } else {
        rules
    };

    let report = match lint_files(&root, &files, &enabled, check_stale) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &report.diagnostics {
        println!("{d}");
    }
    eprintln!(
        "outran-lint: {} file(s) checked, {} diagnostic(s)",
        report.checked_files,
        report.diagnostics.len()
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
