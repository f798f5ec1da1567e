//! Fixture-driven tests for every lint rule, the lexer's
//! false-positive traps, suppression hygiene, and a clean-pass run
//! over the real workspace (the same gate CI enforces).

#![forbid(unsafe_code)]

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
}

#[test]
fn d2_hash_iteration_fires() {
    let got = run_at(SIM_LIB, "d2_hash_iter.rs");
    assert_eq!(
        got,
        vec![
            (11, RuleId::D2),
            (16, RuleId::D2),
            (21, RuleId::D2),
            (23, RuleId::D2),
            (27, RuleId::D2),
        ]
    );
}

#[test]
fn d2_is_scoped_to_sim_crates() {
    let src = fixture("d2_hash_iter.rs");
    assert!(analyze_source("crates/cli/src/lib.rs", &src, &[RuleId::D2], false).is_empty());
    assert!(analyze_source("crates/lint/src/x.rs", &src, &[RuleId::D2], false).is_empty());
}

#[test]
fn d3_ambient_rng_fires() {
    let got = run_at(SIM_LIB, "d3_ambient_rng.rs");
    assert_eq!(
        got,
        vec![(3, RuleId::D3), (8, RuleId::D3), (12, RuleId::D3)]
    );
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
fn d7_missing_forbid_fires_on_crate_roots_only() {
    let src = fixture("d7_missing_forbid.rs");
    let roots = [
        "crates/phy/src/lib.rs",
        "crates/cli/src/main.rs",
        "crates/bench/src/bin/fig1.rs",
        "crates/bench/benches/b.rs",
        "examples/demo.rs",
        "src/lib.rs",
    ];
    for rel in roots {
        let got = analyze_source(rel, &src, &[RuleId::D7], false);
        assert_eq!(got.len(), 1, "{rel} should need the forbid attribute");
        assert_eq!(got[0].rule, RuleId::D7);
    }
    // Non-root modules are exempt.
    assert!(analyze_source("crates/phy/src/harq.rs", &src, &[RuleId::D7], false).is_empty());
    assert!(analyze_source("crates/ran/tests/t.rs", &src, &[RuleId::D7], false).is_empty());
}

#[test]
fn d8_stage_pub_fields_fire() {
    // Scope to D8 only: the fixture's stage structs have no snapshot
    // impls, so the full catalog would also raise D9 on them.
    let src = fixture("d8_stage_fields.rs");
    let got: Vec<(usize, RuleId)> = analyze_source(
        "crates/ran/src/stages/fixture.rs",
        &src,
        &[RuleId::D8],
        false,
    )
    .into_iter()
    .map(|d| (d.line, d.rule))
    .collect();
    assert_eq!(got, vec![(4, RuleId::D8), (5, RuleId::D8), (9, RuleId::D8)]);
}

#[test]
fn d8_is_scoped_to_stage_files() {
    let src = fixture("d8_stage_fields.rs");
    assert!(analyze_source("crates/ran/src/cell.rs", &src, &[RuleId::D8], false).is_empty());
    assert!(analyze_source("crates/mac/src/lib.rs", &src, &[RuleId::D8], false).is_empty());
}

#[test]
fn d10_alloc_in_data_path_fires() {
    let got = run_at("crates/rlc/src/fixture.rs", "d10_alloc_hot.rs");
    assert_eq!(
        got,
        vec![
            (5, RuleId::D10),
            (6, RuleId::D10),
            (7, RuleId::D10),
            (8, RuleId::D10),
        ]
    );
    // Same hits from the RAN stage directory.
    let src = fixture("d10_alloc_hot.rs");
    let got = analyze_source("crates/ran/src/stages/x.rs", &src, &[RuleId::D10], false);
    assert_eq!(got.len(), 4);
}

#[test]
fn d10_is_scoped_to_data_path_crates() {
    let src = fixture("d10_alloc_hot.rs");
    // Outside the data-path directories (including rlc's own tests and
    // the non-stage parts of ran), allocation is fine.
    assert!(analyze_source("crates/ran/src/cell.rs", &src, &[RuleId::D10], false).is_empty());
    assert!(analyze_source("crates/rlc/tests/x.rs", &src, &[RuleId::D10], false).is_empty());
    assert!(analyze_source("crates/simcore/src/pool.rs", &src, &[RuleId::D10], false).is_empty());
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

/// Analyze a fixture at `rel` under a single-rule filter.
fn run_rule_at(rel: &str, name: &str, rule: RuleId) -> Vec<(usize, RuleId)> {
    analyze_source(rel, &fixture(name), &[rule], false)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

#[test]
fn s1_rng_taint_fires() {
    let got = run_rule_at(
        "crates/ran/src/stages/fixture.rs",
        "s1_rng_taint.rs",
        RuleId::S1,
    );
    // (17) delivery reaches a draw through helper.noise();
    // (22) draw from another stage's fork; (28)/(38) label collision.
    assert_eq!(
        got,
        vec![
            (17, RuleId::S1),
            (22, RuleId::S1),
            (28, RuleId::S1),
            (38, RuleId::S1),
        ]
    );
}

#[test]
fn s1_clean_stage_rng_discipline_passes() {
    let got = run_rule_at(
        "crates/ran/src/stages/fixture.rs",
        "s1_clean.rs",
        RuleId::S1,
    );
    assert_eq!(got, vec![]);
}

#[test]
fn s2_panic_reachability_fires_at_public_caller() {
    let got = run_rule_at(SIM_LIB, "s2_panic_reach.rs", RuleId::S2);
    assert_eq!(got, vec![(7, RuleId::S2)]);
}

#[test]
fn s2_seed_suppression_clears_callers_and_is_not_stale() {
    // Full catalog + stale checking: the allow(D5,S2) at the panic
    // site must silence the direct D5 diagnostic, remove the taint
    // seed (so `pub fn entry` stays clean), and count as used.
    let got = run_at(SIM_LIB, "s2_clean.rs");
    assert_eq!(got, vec![]);
}

#[test]
fn s4_stage_purity_fires_on_foreign_stage_fields() {
    let got = run_rule_at(
        "crates/ran/src/stages/fixture.rs",
        "s4_purity.rs",
        RuleId::S4,
    );
    // The fixture declares its snapshot layouts with item-position
    // macro calls ahead of the impl: they must not cost S4 coverage.
    assert_eq!(got, vec![(16, RuleId::S4)]);
}

#[test]
fn s4_own_fields_helpers_and_contract_types_pass() {
    let got = run_rule_at(
        "crates/ran/src/stages/fixture.rs",
        "s4_clean.rs",
        RuleId::S4,
    );
    assert_eq!(got, vec![]);
}

#[test]
fn s5_wall_clock_taint_fires_at_public_caller() {
    let got = run_rule_at(SIM_LIB, "s5_wall_clock.rs", RuleId::S5);
    assert_eq!(got, vec![(8, RuleId::S5)]);
}

#[test]
fn s5_seed_suppression_clears_callers_and_is_not_stale() {
    let got = run_at(SIM_LIB, "s5_clean.rs");
    assert_eq!(got, vec![]);
}

/// The parser must cross generics, where-clauses, trait impls, nested
/// modules, macro definitions, item-position macro calls, turbofish,
/// lifetimes, and literals containing rule-trigger text without a
/// single false positive.
#[test]
fn parser_torture_file_stays_clean() {
    let got = run_at(SIM_LIB, "parser_torture.rs");
    assert_eq!(got, vec![], "parser torture fixture must stay clean");
}

#[test]
fn json_report_carries_schema_version() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root above crates/lint");
    let json = lint_workspace(&root).expect("workspace walk").to_json();
    assert!(
        json.contains("\"schema_version\": 2"),
        "JSON report must lead with the schema version:\n{json}"
    );
}

/// `--rule` with an unknown name must exit non-zero and list the
/// known rules, so typos in CI configs fail loudly instead of
/// silently linting nothing.
#[test]
fn cli_rejects_unknown_rule_names() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_outran-lint"))
        .args(["--rule", "BOGUS"])
        .output()
        .expect("run outran-lint");
    assert_eq!(out.status.code(), Some(2), "unknown rule must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown rule `BOGUS`"), "{stderr}");
    assert!(stderr.contains("known rules:"), "{stderr}");
    assert!(stderr.contains("S1"), "{stderr}");
}

/// The real workspace must lint clean — the same invariant the CI
/// `lint` job enforces, kept inside `cargo test` so a violation fails
/// fast locally too.
#[test]
fn workspace_is_clean() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root above crates/lint");
    let report = lint_workspace(&root).expect("workspace walk");
    assert!(report.checked_files > 80, "walk found too few files");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.is_clean(),
        "workspace has lint diagnostics:\n{}",
        rendered.join("\n")
    );
}
