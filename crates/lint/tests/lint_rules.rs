//! Fixture-driven tests for every lint rule, the lexer's
//! false-positive traps, suppression hygiene, and a clean-pass run
//! over the real workspace (the same gate CI enforces).

use std::path::Path;

use outran_lint::{analyze_source, find_workspace_root, lint_workspace, RuleId};

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Analyze a fixture as if it lived at `rel` inside the workspace,
/// with the full catalog + stale-suppression checking, and return the
/// `(line, rule)` pairs that fired.
fn run_at(rel: &str, name: &str) -> Vec<(usize, RuleId)> {
    analyze_source(rel, &fixture(name), &RuleId::CATALOG, true)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

const SIM_LIB: &str = "crates/ran/src/fixture.rs";

#[test]
fn d1_wall_clock_fires() {
    let got = run_at(SIM_LIB, "d1_wall_clock.rs");
    assert_eq!(got, vec![(5, RuleId::D1), (9, RuleId::D1)]);
}

#[test]
fn d1_allowlisted_in_bench_and_tests() {
    let src = fixture("d1_wall_clock.rs");
    assert!(analyze_source("crates/bench/src/bin/x.rs", &src, &[RuleId::D1], false).is_empty());
    assert!(analyze_source("crates/cli/src/lib.rs", &src, &[RuleId::D1], false).is_empty());
    assert!(analyze_source("crates/ran/tests/x.rs", &src, &[RuleId::D1], false).is_empty());
    // The linter itself is held to D1: it has no timing of its own.
    assert!(!analyze_source("crates/lint/src/main.rs", &src, &[RuleId::D1], false).is_empty());
}

#[test]
fn d4_pop_due_drain_fires() {
    let got = run_at(SIM_LIB, "d4_pop_due.rs");
    assert_eq!(got, vec![(3, RuleId::D4), (9, RuleId::D4)]);
}

#[test]
fn d5_panic_fires() {
    let got = run_at(SIM_LIB, "d5_panic.rs");
    assert_eq!(
        got,
        vec![
            (3, RuleId::D5),
            (7, RuleId::D5),
            (12, RuleId::D5),
            (19, RuleId::D5),
        ]
    );
}

#[test]
fn d5_does_not_apply_outside_sim_crates() {
    let src = fixture("d5_panic.rs");
    assert!(analyze_source("crates/bench/src/lib.rs", &src, &[RuleId::D5], false).is_empty());
}

#[test]
fn d6_stub_markers_fire() {
    let got = run_at(SIM_LIB, "d6_stubs.rs");
    assert_eq!(
        got,
        vec![
            (2, RuleId::D6),
            (6, RuleId::D6),
            (10, RuleId::D6),
            (13, RuleId::D6),
            (16, RuleId::D6),
        ]
    );
}

#[test]
fn d8_stage_pub_fields_fire() {
    let got = run_at("crates/ran/src/stages/fixture.rs", "d8_stage_fields.rs");
    assert_eq!(got, vec![(4, RuleId::D8), (5, RuleId::D8), (9, RuleId::D8)]);
}

#[test]
fn d8_is_scoped_to_stage_files() {
    let src = fixture("d8_stage_fields.rs");
    assert!(analyze_source("crates/ran/src/cell.rs", &src, &[RuleId::D8], false).is_empty());
    assert!(analyze_source("crates/mac/src/lib.rs", &src, &[RuleId::D8], false).is_empty());
}

#[test]
fn lexer_traps_stay_clean() {
    let got = run_at(SIM_LIB, "traps_clean.rs");
    assert_eq!(got, vec![], "literal/comment contents must never fire");
}

#[test]
fn valid_suppressions_silence_and_are_not_stale() {
    let got = run_at(SIM_LIB, "suppressed_ok.rs");
    assert_eq!(got, vec![]);
}

/// Lines 19–20 name retired rules (S2, D10): a directive left behind
/// by the old catalog is an unknown-rule error, not a silent no-op.
#[test]
fn suppression_hygiene_failures() {
    let got = run_at(SIM_LIB, "suppressed_bad.rs");
    assert_eq!(
        got,
        vec![
            (4, RuleId::L100),
            (5, RuleId::D5),
            (9, RuleId::L101),
            (14, RuleId::L102),
            (19, RuleId::L101),
            (20, RuleId::L101),
        ]
    );
}

#[test]
fn rule_filter_disables_other_rules() {
    let src = fixture("d5_panic.rs");
    let got = analyze_source(SIM_LIB, &src, &[RuleId::D1], false);
    assert!(
        got.is_empty(),
        "D5 findings must not appear under --rule d1"
    );
}

/// `--rule` with an unknown name — here a retired one — must exit
/// non-zero and list the known rules, so typos and stale names in CI
/// configs fail loudly instead of silently linting nothing.
#[test]
fn cli_rejects_unknown_rule_names() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_outran-lint"))
        .args(["--rule", "S1"])
        .output()
        .expect("run outran-lint");
    assert_eq!(out.status.code(), Some(2), "unknown rule must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown rule `S1`"), "{stderr}");
    assert!(
        stderr.contains("known rules: D1, D4, D5, D6, D8, L100, L101, L102"),
        "{stderr}"
    );
}

/// The real workspace must lint clean — the same invariant the CI
/// `lint` job enforces, kept inside `cargo test` so a violation fails
/// fast locally too.
#[test]
fn workspace_is_clean() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root above crates/lint");
    let report = lint_workspace(&root).expect("workspace walk");
    // A walk rooted in the wrong directory (or an empty one) must not
    // pass as "clean".
    assert!(report.checked_files > 100, "walk found too few files");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.is_clean(),
        "workspace has lint diagnostics:\n{}",
        rendered.join("\n")
    );
}
