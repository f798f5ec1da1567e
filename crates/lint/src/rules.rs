//! The rule table and the per-file analysis.
//!
//! Every rule reports structured [`Diagnostic`]s with a stable
//! [`RuleId`]; all of them run on the masked view produced by
//! [`crate::lexer::mask`], so literal and comment contents can never
//! trigger a code rule. Only rules that a type, a visibility modifier,
//! a stock lint or a test cannot state live here; DESIGN.md § "Static
//! analysis" names what guards each retired rule instead.

use crate::lexer::MaskedFile;

/// Declares [`RuleId`] and its one table: each row is a variant, its
/// name (the variant's spelling) and the summary that is both its doc
/// comment and its `--help` line.
macro_rules! rule_table {
    ($($id:ident: $summary:literal,)*) => {
        /// Stable rule identifiers.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum RuleId {
            $(#[doc = $summary] $id,)*
        }

        impl RuleId {
            /// Every rule as `(id, name, summary)`, in declaration order.
            pub const TABLE: &'static [(RuleId, &'static str, &'static str)] =
                &[$((RuleId::$id, stringify!($id), $summary),)*];
        }
    };
}

rule_table! {
    D1: "wall-clock read (`Instant::now`, `SystemTime`) outside the bench/cli crates and tests",
    D4: "`pop_due` used outside a `while let` drain",
    D5: "`unwrap()`/`expect()`/`panic!`/`unreachable!` in non-test sim library code",
    D6: "stub marker in library code: `#[allow(dead_code)]`, `todo!`, `unimplemented!`, or a to-do/fix-me comment",
    D8: "non-private field on a `*Stage` struct under `crates/ran/src/stages/`",
    L100: "suppression directive that is malformed or carries no reason",
    L101: "suppression directive naming an unknown rule",
    L102: "suppression directive that suppressed nothing (stale)",
}

impl RuleId {
    /// The source rules (excludes the `L1xx` suppression-hygiene
    /// meta-rules, which are always on).
    pub const CATALOG: [RuleId; 5] = [RuleId::D1, RuleId::D4, RuleId::D5, RuleId::D6, RuleId::D8];

    /// Canonical name, e.g. `"D5"`.
    pub fn name(self) -> &'static str {
        Self::TABLE[self as usize].1
    }

    /// Parse a rule name, case-insensitively.
    pub fn parse(s: &str) -> Option<RuleId> {
        let s = s.trim();
        Self::TABLE
            .iter()
            .find(|(_, name, _)| name.eq_ignore_ascii_case(s))
            .map(|&(id, _, _)| id)
    }
}

/// One finding: `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    fn new(path: &str, line: usize, rule: RuleId, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            path: path.to_string(),
            line,
            rule,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Crates whose state feeds replay fingerprints: the no-panic contract
/// (D5) applies to their library code.
const SIM_CRATES: [&str; 11] = [
    "simcore",
    "phy",
    "pdcp",
    "rlc",
    "mac",
    "transport",
    "workload",
    "metrics",
    "core",
    "ran",
    "faults",
];

/// Crates allowed to read the wall clock (measurement front-ends).
const WALL_CLOCK_ALLOWED_CRATES: [&str; 2] = ["bench", "cli"];

/// How a file participates in the rule matrix, derived from its
/// workspace-relative path.
struct FileClass {
    /// Library code of a sim crate or the facade (D5 scope).
    is_sim_lib: bool,
    /// Integration tests, benches, examples: measurement/demo code,
    /// exempt from D1/D4/D5/D6.
    is_testish: bool,
    /// Wall-clock allowlisted (bench/cli crates or testish files).
    wall_clock_ok: bool,
}

/// Classify a workspace-relative path (always with `/` separators).
fn classify(rel: &str) -> FileClass {
    // Crate directory name under `crates/`; anything else belongs to
    // the facade package at the workspace root, which is sim code.
    let crate_name = rel
        .strip_prefix("crates/")
        .map(|rest| rest.split('/').next().unwrap_or(""));
    let sim_crate = match crate_name {
        Some(c) => SIM_CRATES.contains(&c),
        None => true,
    };
    let is_testish = ["tests/", "benches/", "examples/"]
        .iter()
        .any(|dir| rel.starts_with(dir) || rel.contains(&format!("/{dir}")));
    let in_src = rel.contains("/src/") || rel.starts_with("src/");
    FileClass {
        is_sim_lib: sim_crate && in_src && !is_testish,
        is_testish,
        wall_clock_ok: crate_name.is_some_and(|c| WALL_CLOCK_ALLOWED_CRATES.contains(&c))
            || is_testish,
    }
}

/// A parsed suppression: the directive marker followed by
/// `allow(<rules>)`, a `--` separator, and a mandatory reason.
struct Suppression {
    line: usize,
    rules: Vec<RuleId>,
    used: bool,
}

const DIRECTIVE: &str = "outran-lint:";

/// Extract suppression directives from a file's comments, emitting
/// hygiene diagnostics (L100 missing reason, L101 unknown rule) in
/// place.
fn parse_suppressions(
    rel: &str,
    masked: &MaskedFile,
    diags: &mut Vec<Diagnostic>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (line, text) in &masked.comments {
        let Some(at) = text.find(DIRECTIVE) else {
            continue;
        };
        let rest = text[at + DIRECTIVE.len()..].trim();
        let Some(inner) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
            .map(|(inner, _)| inner)
        else {
            diags.push(Diagnostic::new(
                rel,
                *line,
                RuleId::L100,
                format!("malformed directive; expected `{DIRECTIVE} allow(<rule>) -- <reason>`"),
            ));
            continue;
        };
        let reason = rest
            .split_once("--")
            .map(|(_, r)| r.trim())
            .unwrap_or_default();
        if reason.is_empty() {
            diags.push(Diagnostic::new(
                rel,
                *line,
                RuleId::L100,
                "suppression without a reason; write `-- <why this is sound>`",
            ));
            continue;
        }
        let mut rules = Vec::new();
        let mut bad = false;
        for name in inner.split(',') {
            match RuleId::parse(name) {
                Some(r) => rules.push(r),
                None => {
                    diags.push(Diagnostic::new(
                        rel,
                        *line,
                        RuleId::L101,
                        format!("unknown rule `{}` in allow(…)", name.trim()),
                    ));
                    bad = true;
                }
            }
        }
        if !bad && !rules.is_empty() {
            out.push(Suppression {
                line: *line,
                rules,
                used: false,
            });
        }
    }
    out
}

/// The trailing identifier of `s`, if any (`self.foo.bar` → `bar`).
fn last_ident(s: &str) -> Option<String> {
    let end = s.len();
    let start = s
        .char_indices()
        .rev()
        .take_while(|&(_, c)| c.is_alphanumeric() || c == '_')
        .map(|(i, _)| i)
        .last()?;
    let id = &s[start..end];
    if id.is_empty() || id.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(id.to_string())
    }
}

/// Byte offsets of whole-word occurrences of `word` in `line`.
fn find_word(line: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = line[from..].find(word) {
        let pos = from + rel;
        let before_ok = pos == 0
            || !line[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = line[pos + word.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            out.push(pos);
        }
        from = pos + word.len();
    }
    out
}

/// Produce the *raw* rule diagnostics for one already-masked file: no
/// suppression application, no hygiene meta-rules.
fn token_rules(rel: &str, masked: &MaskedFile, enabled: &[RuleId]) -> Vec<Diagnostic> {
    let class = classify(rel);
    let mut raw: Vec<Diagnostic> = Vec::new();
    let on = |r: RuleId| enabled.contains(&r);
    let mut fire = |line: usize, rule: RuleId, message: String| {
        raw.push(Diagnostic::new(rel, line, rule, message));
    };

    for (idx, line) in masked.code.iter().enumerate() {
        let line_no = idx + 1;
        if masked.in_test[idx] {
            continue;
        }

        // D1 — wall clock.
        if on(RuleId::D1) && !class.wall_clock_ok {
            for pat in ["Instant::now", "SystemTime"] {
                if line.contains(pat) {
                    fire(
                        line_no,
                        RuleId::D1,
                        format!(
                            "wall-clock read `{pat}` outside the measurement allowlist; \
                             simulation state must advance on virtual time only"
                        ),
                    );
                }
            }
        }

        // D4 — pop_due must drain via `while let`.
        if on(RuleId::D4) && !class.is_testish && line.contains(".pop_due(") {
            let window = masked.code[idx.saturating_sub(2)..=idx].join("\n");
            if !window.contains("while let") {
                fire(
                    line_no,
                    RuleId::D4,
                    "`pop_due` outside a `while let` drain: a single pop leaves \
                     due events queued past their deadline"
                        .to_string(),
                );
            }
        }

        // D5 — no panics in sim library code.
        if on(RuleId::D5) && class.is_sim_lib {
            for (pat, what) in [
                (".unwrap()", "unwrap()"),
                (".expect(", "expect()"),
                ("panic!", "panic!"),
                ("unreachable!", "unreachable!"),
            ] {
                if line.contains(pat) {
                    fire(
                        line_no,
                        RuleId::D5,
                        format!(
                            "`{what}` in sim library code violates the never-panic \
                             contract; restructure to total code or suppress with a reason"
                        ),
                    );
                }
            }
        }

        // D6 — stub markers in library code.
        if on(RuleId::D6) && !class.is_testish {
            for pat in ["#[allow(dead_code)]", "todo!(", "unimplemented!("] {
                if line.contains(pat) {
                    fire(
                        line_no,
                        RuleId::D6,
                        format!("stub marker `{pat}` left in library code"),
                    );
                }
            }
        }
    }

    // D6 — stale to-do/fix-me marker comments in library code.
    if on(RuleId::D6) && !class.is_testish {
        for (line, text) in &masked.comments {
            if text.contains(DIRECTIVE) || masked.in_test[line - 1] {
                continue;
            }
            for word in ["TODO", "FIXME"] {
                if !find_word(text, word).is_empty() {
                    fire(
                        *line,
                        RuleId::D6,
                        format!(
                            "`{word}` comment in library code; fix it or convert to a \
                             reason-suppressed tracked item"
                        ),
                    );
                }
            }
        }
    }

    // D8 — stage structs must keep their fields private.
    if on(RuleId::D8) && rel.starts_with("crates/ran/src/stages/") {
        d8_stage_fields(rel, masked, &mut raw);
    }

    raw
}

/// D8: every struct named `*Stage` in a pipeline-stage file must
/// declare only private fields. The stage contract routes all
/// cross-stage state through typed messages and accessor methods; a
/// `pub` (or `pub(…)`) field would let other code reach into a stage's
/// slice of the former god-object again. With the fields private, each
/// stage living in its own module makes a sibling's reach-in a compile
/// error (E0616). Line-based like the other rules: rustfmt keeps one
/// field per line in this workspace.
fn d8_stage_fields(rel: &str, masked: &MaskedFile, raw: &mut Vec<Diagnostic>) {
    let n = masked.code.len();
    let mut i = 0;
    while i < n {
        let line = &masked.code[i];
        let decl = find_word(line, "struct")
            .into_iter()
            .next()
            .filter(|_| !masked.in_test[i]);
        let Some(kw) = decl else {
            i += 1;
            continue;
        };
        let rest = line[kw + "struct".len()..].trim_start();
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() || !name.ends_with("Stage") {
            i += 1;
            continue;
        }
        // Find the body opener — `{` (named fields), `(` (tuple
        // struct) or `;` (unit struct), whichever comes first.
        let mut opener: Option<(usize, usize, char)> = None; // (line idx, byte off, kind)
        'scan: for j in i..n {
            let start = if j == i { kw } else { 0 };
            let text = &masked.code[j][start..];
            for (off, c) in text.char_indices() {
                if matches!(c, '{' | '(' | ';') {
                    opener = Some((j, start + off, c));
                    break 'scan;
                }
            }
        }
        let Some((open_idx, open_off, kind)) = opener else {
            break;
        };
        if kind == ';' {
            i = open_idx + 1;
            continue;
        }
        let (open_ch, close_ch) = if kind == '{' { ('{', '}') } else { ('(', ')') };
        let mut depth = 0i32;
        let mut j = open_idx;
        'body: while j < n {
            let start = if j == open_idx { open_off } else { 0 };
            let text = &masked.code[j][start..];
            let fires = depth == 1
                && text
                    .trim_start()
                    .strip_prefix("pub")
                    .is_some_and(|r| r.starts_with(' ') || r.starts_with('('));
            if fires {
                let field = text
                    .trim_start()
                    .split_once(':')
                    .and_then(|(head, _)| last_ident(head.trim_end()))
                    .unwrap_or_else(|| "field".to_string());
                raw.push(Diagnostic::new(
                    rel,
                    j + 1,
                    RuleId::D8,
                    format!(
                        "non-private field `{field}` on stage struct `{name}`; stage state \
                         crosses stages only through typed messages — keep fields private \
                         and expose accessors"
                    ),
                ));
            }
            for (off, c) in text.char_indices() {
                if c == open_ch {
                    depth += 1;
                } else if c == close_ch {
                    depth -= 1;
                    if depth == 0 {
                        // Tuple-struct bodies get a whole-body check:
                        // their fields share the declaration line.
                        if kind == '(' && j == open_idx {
                            let body = &masked.code[j][open_off..start + off];
                            if !find_word(body, "pub").is_empty() {
                                raw.push(Diagnostic::new(
                                    rel,
                                    j + 1,
                                    RuleId::D8,
                                    format!(
                                        "non-private field on stage struct `{name}`; stage \
                                         state crosses stages only through typed messages — \
                                         keep fields private and expose accessors"
                                    ),
                                ));
                            }
                        }
                        i = j + 1;
                        break 'body;
                    }
                }
            }
            j += 1;
            if j >= n {
                i = n;
            }
        }
    }
}

/// Analyze one file's source text as if it lived at the
/// workspace-relative path `rel`: the `enabled` rules, suppressions
/// applied (same line, or the line directly below a standalone
/// directive comment), the always-on hygiene meta-rules L100/L101, and
/// — when `check_stale` — L102 for directives that matched nothing
/// (leave it off when `enabled` is a filtered subset). Ordered by
/// (line, rule).
pub fn analyze_source(
    rel: &str,
    src: &str,
    enabled: &[RuleId],
    check_stale: bool,
) -> Vec<Diagnostic> {
    let masked = crate::lexer::mask(src);
    let mut diags = Vec::new();
    let mut sups = parse_suppressions(rel, &masked, &mut diags);

    for d in token_rules(rel, &masked, enabled) {
        let mut suppressed = false;
        for s in sups.iter_mut() {
            let covers = d.line == s.line || d.line == s.line + 1;
            if covers && s.rules.contains(&d.rule) {
                s.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            diags.push(d);
        }
    }

    if check_stale {
        for s in sups.iter().filter(|s| !s.used) {
            let names: Vec<&str> = s.rules.iter().map(|r| r.name()).collect();
            diags.push(Diagnostic::new(
                rel,
                s.line,
                RuleId::L102,
                format!(
                    "stale suppression: allow({}) matched no diagnostic",
                    names.join(",")
                ),
            ));
        }
    }

    diags.sort_by_key(|d| (d.line, d.rule));
    diags
}
