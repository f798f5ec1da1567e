//! The rule catalog and the per-file analysis engine.
//!
//! Every rule reports structured [`Diagnostic`]s with a stable
//! [`RuleId`]; all of them run on the masked view produced by
//! [`crate::lexer::mask`], so literal and comment contents can never
//! trigger a code rule. See DESIGN.md § "Static analysis" for the
//! rationale per rule.

use crate::lexer::MaskedFile;

/// Stable identifiers for the rule catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Wall-clock reads (`Instant::now`, `SystemTime`) outside the
    /// profiling allowlist.
    D1,
    /// `HashMap`/`HashSet` iteration in sim crates.
    D2,
    /// Ambient (unseeded) randomness.
    D3,
    /// `EventQueue`-style `pop_due` used outside a `while let` drain.
    D4,
    /// `unwrap()`/`expect()`/`panic!` in non-test sim library code.
    D5,
    /// Stub markers left in library code: `#[allow(dead_code)]`,
    /// `todo!`, `unimplemented!`, and stale to-do/fix-me comments.
    D6,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    D7,
    /// Stage structs (`*Stage` under `crates/ran/src/stages/`) with
    /// non-private fields: stage state crosses stage boundaries only
    /// through the typed pipeline messages, never by reaching into
    /// another stage's struct.
    D8,
    /// Heap allocation in the per-TTI data-path crates
    /// (`crates/ran/src/stages/`, `crates/rlc/src/`): `Vec::new(`,
    /// `vec![`, `.to_vec(`, and `.clone()` on buffer-named receivers.
    /// Steady state must run allocation-free (buffers come from the
    /// `outran_simcore::pool` recyclers or reused scratch fields);
    /// genuinely cold sites (constructors, geometry changes, compat
    /// wrappers) carry a reason-suppression instead.
    D10,
    /// RNG-taint reachability (semantic): no `Rng` draw may be
    /// reachable from `DeliveryStage::run` through the workspace call
    /// graph, each `*Stage` draws only from its own declared RNG fork
    /// field, and stage fork labels must be distinct.
    S1,
    /// Transitive panic reachability (semantic): D5 catches direct
    /// `unwrap/expect/panic!` sites; S2 flags sim-crate public
    /// functions from which a live (un-suppressed) panic site is
    /// reachable through workspace-internal calls.
    S2,
    /// Stage purity (semantic): `*Stage` methods may only touch their
    /// own fields, private same-file helper types, and the typed
    /// pipeline message/context structs.
    S4,
    /// Wall-clock taint (semantic): D1 extended transitively — a
    /// sim-crate public function must not reach an `Instant::now` /
    /// `SystemTime` site through helper calls.
    S5,
    /// Suppression directive without a written reason.
    L100,
    /// Suppression directive naming an unknown rule.
    L101,
    /// Suppression directive that suppressed nothing (stale).
    L102,
}

impl RuleId {
    /// All catalog rules (excludes the `L1xx` suppression-hygiene
    /// meta-rules, which are always on).
    pub const CATALOG: [RuleId; 13] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::D4,
        RuleId::D5,
        RuleId::D6,
        RuleId::D7,
        RuleId::D8,
        RuleId::D10,
        RuleId::S1,
        RuleId::S2,
        RuleId::S4,
        RuleId::S5,
    ];

    /// Canonical name, e.g. `"D2"`.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::D6 => "D6",
            RuleId::D7 => "D7",
            RuleId::D8 => "D8",
            RuleId::D10 => "D10",
            RuleId::S1 => "S1",
            RuleId::S2 => "S2",
            RuleId::S4 => "S4",
            RuleId::S5 => "S5",
            RuleId::L100 => "L100",
            RuleId::L101 => "L101",
            RuleId::L102 => "L102",
        }
    }

    /// Parse a rule name, case-insensitively.
    pub fn parse(s: &str) -> Option<RuleId> {
        match s.trim().to_ascii_uppercase().as_str() {
            "D1" => Some(RuleId::D1),
            "D2" => Some(RuleId::D2),
            "D3" => Some(RuleId::D3),
            "D4" => Some(RuleId::D4),
            "D5" => Some(RuleId::D5),
            "D6" => Some(RuleId::D6),
            "D7" => Some(RuleId::D7),
            "D8" => Some(RuleId::D8),
            "D10" => Some(RuleId::D10),
            "S1" => Some(RuleId::S1),
            "S2" => Some(RuleId::S2),
            "S4" => Some(RuleId::S4),
            "S5" => Some(RuleId::S5),
            "L100" => Some(RuleId::L100),
            "L101" => Some(RuleId::L101),
            "L102" => Some(RuleId::L102),
            _ => None,
        }
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

/// Crates whose state feeds replay fingerprints: determinism rules
/// (D2) and the no-panic contract (D5) apply to their library code.
pub const SIM_CRATES: [&str; 11] = [
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

/// Crates allowed to read the wall clock (measurement front-ends and
/// the linter's own sweep-budget timing).
pub const WALL_CLOCK_ALLOWED_CRATES: [&str; 3] = ["bench", "cli", "lint"];

/// How a file participates in the rule matrix, derived from its
/// workspace-relative path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate directory name under `crates/`, or `"outran"` for the
    /// facade package at the workspace root.
    pub crate_name: String,
    /// Library code of a sim crate (D2/D5 scope).
    pub is_sim_lib: bool,
    /// Integration tests, benches, examples: measurement/demo code,
    /// exempt from D1/D4/D5/D6.
    pub is_testish: bool,
    /// Wall-clock allowlisted (bench/cli crates or testish files).
    pub wall_clock_ok: bool,
    /// File is a crate root that D7 requires to carry
    /// `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
    /// Per-TTI data-path file (D10 scope): allocation in steady state
    /// must come from pools/scratch, not the global allocator.
    pub alloc_hot: bool,
}

/// Classify a workspace-relative path (always with `/` separators).
pub fn classify(rel: &str) -> FileClass {
    let crate_name = if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("").to_string()
    } else {
        "outran".to_string()
    };
    let is_testish = rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.contains("/benches/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/");
    let in_src = rel.contains("/src/") || rel.starts_with("src/");
    let is_sim_lib = (SIM_CRATES.contains(&crate_name.as_str()) || crate_name == "outran")
        && in_src
        && !is_testish;
    let wall_clock_ok = WALL_CLOCK_ALLOWED_CRATES.contains(&crate_name.as_str()) || is_testish;

    let last = rel.rsplit('/').next().unwrap_or(rel);
    let is_crate_root = rel == "src/lib.rs"
        || rel == "src/main.rs"
        || (rel.starts_with("crates/")
            && (rel.ends_with("/src/lib.rs")
                || rel.ends_with("/src/main.rs")
                || rel.contains("/src/bin/")
                || rel.contains("/benches/")))
        || (rel.starts_with("examples/") && last.ends_with(".rs"));

    let alloc_hot = (rel.starts_with("crates/ran/src/stages/")
        || rel.starts_with("crates/rlc/src/"))
        && !is_testish;

    FileClass {
        crate_name,
        is_sim_lib,
        is_testish,
        wall_clock_ok,
        is_crate_root,
        alloc_hot,
    }
}

/// A parsed suppression: the directive marker followed by
/// `allow(<rules>)`, a `--` separator, and a mandatory reason.
#[derive(Debug, Clone)]
pub(crate) struct Suppression {
    pub(crate) line: usize,
    pub(crate) rules: Vec<RuleId>,
    pub(crate) used: bool,
}

const DIRECTIVE: &str = "outran-lint:";

/// Extract suppression directives from a file's comments, emitting
/// hygiene diagnostics (L100 missing reason, L101 unknown rule) in
/// place.
pub(crate) fn parse_suppressions(
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
            diags.push(Diagnostic {
                path: rel.to_string(),
                line: *line,
                rule: RuleId::L100,
                message: format!(
                    "malformed directive; expected `{DIRECTIVE} allow(<rule>) -- <reason>`"
                ),
            });
            continue;
        };
        let reason = rest
            .split_once("--")
            .map(|(_, r)| r.trim())
            .unwrap_or_default();
        if reason.is_empty() {
            diags.push(Diagnostic {
                path: rel.to_string(),
                line: *line,
                rule: RuleId::L100,
                message: "suppression without a reason; write `-- <why this is sound>`".to_string(),
            });
            continue;
        }
        let mut rules = Vec::new();
        let mut bad = false;
        for name in inner.split(',') {
            match RuleId::parse(name) {
                Some(r) => rules.push(r),
                None => {
                    diags.push(Diagnostic {
                        path: rel.to_string(),
                        line: *line,
                        rule: RuleId::L101,
                        message: format!("unknown rule `{}` in allow(…)", name.trim()),
                    });
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

/// True when the suppression on `sup_line` covers a diagnostic on
/// `diag_line`: same line (trailing comment) or the line directly
/// below (standalone comment line).
pub(crate) fn covers(sup_line: usize, diag_line: usize) -> bool {
    diag_line == sup_line || diag_line == sup_line + 1
}

/// Find identifiers bound to `HashMap`/`HashSet` values in a file's
/// masked code: field/let type ascriptions (`name: HashMap<…>`) and
/// constructor bindings (`name = HashMap::new()` etc.).
fn hash_bound_idents(masked: &MaskedFile) -> Vec<String> {
    let mut names = Vec::new();
    for line in &masked.code {
        for ty in ["HashMap", "HashSet"] {
            for pos in find_word(line, ty) {
                // Walk back over any path prefix (`std::collections::`).
                let before = line[..pos].trim_end();
                let before = before
                    .strip_suffix("std::collections::")
                    .or_else(|| before.strip_suffix("collections::"))
                    .unwrap_or(before)
                    .trim_end();
                let ident = if let Some(s) = before.strip_suffix(':') {
                    last_ident(s.trim_end())
                } else if let Some(s) = before.strip_suffix('=') {
                    last_ident(s.trim_end())
                } else {
                    None
                };
                if let Some(id) = ident {
                    if !names.contains(&id) {
                        names.push(id);
                    }
                }
            }
        }
    }
    names
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

/// Iteration adaptors whose visit order follows the hasher.
const HASH_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Ambient entropy sources: all randomness must flow through the
/// seeded `outran_simcore::Rng` streams.
const AMBIENT_RNG: [&str; 5] = [
    "thread_rng",
    "rand::random",
    "from_entropy",
    "OsRng",
    "getrandom",
];

/// Produce the *raw* token-rule diagnostics (D1–D8, D10) for one
/// already-masked file: no suppression application, no hygiene
/// meta-rules. The workspace orchestrator in [`crate::semantic`]
/// merges these with the semantic pass and applies suppressions once
/// across both, so an `allow(...)` directive can silence either kind.
pub(crate) fn token_rules(rel: &str, masked: &MaskedFile, enabled: &[RuleId]) -> Vec<Diagnostic> {
    let class = classify(rel);
    let mut raw: Vec<Diagnostic> = Vec::new();
    let on = |r: RuleId| enabled.contains(&r);

    let hash_idents = if on(RuleId::D2) && class.is_sim_lib {
        hash_bound_idents(masked)
    } else {
        Vec::new()
    };

    for (idx, line) in masked.code.iter().enumerate() {
        let line_no = idx + 1;
        let in_test = masked.in_test.get(idx).copied().unwrap_or(false);

        // D1 — wall clock.
        if on(RuleId::D1) && !class.wall_clock_ok && !in_test {
            for pat in ["Instant::now", "SystemTime"] {
                if line.contains(pat) {
                    raw.push(Diagnostic {
                        path: rel.to_string(),
                        line: line_no,
                        rule: RuleId::D1,
                        message: format!(
                            "wall-clock read `{pat}` outside the measurement allowlist; \
                             simulation state must advance on virtual time only"
                        ),
                    });
                }
            }
        }

        // D2 — hash iteration in sim library code.
        if on(RuleId::D2) && class.is_sim_lib && !in_test {
            for m in HASH_ITER_METHODS {
                let needle = format!(".{m}(");
                let mut from = 0;
                while let Some(rel_pos) = line[from..].find(&needle) {
                    let pos = from + rel_pos;
                    from = pos + needle.len();
                    // Receiver of the call: trailing identifier before
                    // the dot, looking back across a split method chain
                    // (`self.flows\n    .retain(…)`).
                    let recv = last_ident(&line[..pos]).or_else(|| {
                        let mut back = String::new();
                        for prev in masked.code[idx.saturating_sub(2)..idx].iter() {
                            back.push_str(prev);
                        }
                        back.push_str(&line[..pos]);
                        last_ident(back.trim_end().trim_end_matches('.').trim_end())
                    });
                    if let Some(recv) = recv {
                        if hash_idents.contains(&recv) {
                            raw.push(Diagnostic {
                                path: rel.to_string(),
                                line: line_no,
                                rule: RuleId::D2,
                                message: format!(
                                    "`{recv}.{m}()` iterates a HashMap/HashSet in hasher \
                                     order; use BTreeMap/BTreeSet or sort the keys"
                                ),
                            });
                        }
                    }
                }
            }
            // `for x in &map` / `for x in map` over a hash-bound name.
            if let Some(pos) = find_word(line, "in").into_iter().next() {
                if find_word(line, "for").first().is_some_and(|&f| f < pos) {
                    let tail = line[pos + 2..].trim_start().trim_start_matches('&');
                    let tail = tail.trim_start_matches("mut ").trim_start();
                    let tail = tail.strip_prefix("self.").unwrap_or(tail);
                    let ident: String = tail
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if !ident.is_empty() && hash_idents.contains(&ident) {
                        raw.push(Diagnostic {
                            path: rel.to_string(),
                            line: line_no,
                            rule: RuleId::D2,
                            message: format!(
                                "`for … in {ident}` iterates a HashMap/HashSet in hasher \
                                 order; use BTreeMap/BTreeSet or sort the keys"
                            ),
                        });
                    }
                }
            }
        }

        // D3 — ambient randomness (applies everywhere, tests included:
        // unseeded tests cannot be replayed).
        if on(RuleId::D3) {
            for pat in AMBIENT_RNG {
                if (pat.contains(':') && line.contains(pat)) || !find_word(line, pat).is_empty() {
                    raw.push(Diagnostic {
                        path: rel.to_string(),
                        line: line_no,
                        rule: RuleId::D3,
                        message: format!(
                            "ambient randomness `{pat}`; draw from the seeded \
                             outran_simcore::Rng streams instead"
                        ),
                    });
                }
            }
        }

        // D4 — pop_due must drain via `while let`.
        if on(RuleId::D4) && !class.is_testish && !in_test && line.contains(".pop_due(") {
            let window_start = idx.saturating_sub(2);
            let window = masked.code[window_start..=idx].join("\n");
            if !window.contains("while let") {
                raw.push(Diagnostic {
                    path: rel.to_string(),
                    line: line_no,
                    rule: RuleId::D4,
                    message: "`pop_due` outside a `while let` drain: a single pop leaves \
                              due events queued past their deadline"
                        .to_string(),
                });
            }
        }

        // D5 — no panics in sim library code.
        if on(RuleId::D5) && class.is_sim_lib && !in_test {
            for (pat, what) in [
                (".unwrap()", "unwrap()"),
                (".expect(", "expect()"),
                ("panic!", "panic!"),
                ("unreachable!", "unreachable!"),
            ] {
                if line.contains(pat) {
                    raw.push(Diagnostic {
                        path: rel.to_string(),
                        line: line_no,
                        rule: RuleId::D5,
                        message: format!(
                            "`{what}` in sim library code violates the never-panic \
                             contract; restructure to total code or suppress with a reason"
                        ),
                    });
                }
            }
        }

        // D6 — stub markers in library code.
        if on(RuleId::D6) && !class.is_testish && !in_test {
            for pat in ["#[allow(dead_code)]", "todo!(", "unimplemented!("] {
                if line.contains(pat) {
                    raw.push(Diagnostic {
                        path: rel.to_string(),
                        line: line_no,
                        rule: RuleId::D6,
                        message: format!("stub marker `{pat}` left in library code"),
                    });
                }
            }
        }

        // D10 — heap allocation in the per-TTI data path. Outright
        // allocators always fire; `.clone()` fires only on buffer-named
        // receivers (segment/PDU/byte vectors), since cloning a config
        // or a handle is not an allocation-path concern.
        if on(RuleId::D10) && class.alloc_hot && !in_test {
            for pat in ["Vec::new(", "vec![", ".to_vec("] {
                if line.contains(pat) {
                    raw.push(Diagnostic {
                        path: rel.to_string(),
                        line: line_no,
                        rule: RuleId::D10,
                        message: format!(
                            "`{pat}…` allocates in the per-TTI data path; take the \
                             buffer from an outran_simcore::pool recycler or a reused \
                             scratch field (suppress with a reason if the site is cold)"
                        ),
                    });
                }
            }
            let mut from = 0;
            while let Some(rel_pos) = line[from..].find(".clone()") {
                let pos = from + rel_pos;
                from = pos + ".clone()".len();
                let Some(recv) = last_ident(&line[..pos]) else {
                    continue;
                };
                let lower = recv.to_ascii_lowercase();
                if ["buf", "byte", "seg", "pdu", "payload"]
                    .iter()
                    .any(|b| lower.contains(b))
                {
                    raw.push(Diagnostic {
                        path: rel.to_string(),
                        line: line_no,
                        rule: RuleId::D10,
                        message: format!(
                            "`{recv}.clone()` copies a buffer in the per-TTI data \
                             path; restructure to move/borrow or suppress with a \
                             reason if the copy is semantically required"
                        ),
                    });
                }
            }
        }
    }

    // D6 — stale to-do/fix-me marker comments in library code.
    if on(RuleId::D6) && !class.is_testish {
        for (line, text) in &masked.comments {
            if text.contains(DIRECTIVE) {
                continue;
            }
            let idx = line.saturating_sub(1);
            if masked.in_test.get(idx).copied().unwrap_or(false) {
                continue;
            }
            for word in ["TODO", "FIXME"] {
                if !find_word(text, word).is_empty() {
                    raw.push(Diagnostic {
                        path: rel.to_string(),
                        line: *line,
                        rule: RuleId::D6,
                        message: format!(
                            "`{word}` comment in library code; fix it or convert to a \
                             reason-suppressed tracked item"
                        ),
                    });
                }
            }
        }
    }

    // D7 — crate roots must forbid unsafe code.
    if on(RuleId::D7) && class.is_crate_root {
        let has = masked
            .code
            .iter()
            .any(|l| l.contains("#![forbid(unsafe_code)]"));
        if !has {
            raw.push(Diagnostic {
                path: rel.to_string(),
                line: 1,
                rule: RuleId::D7,
                message: "crate root missing `#![forbid(unsafe_code)]`".to_string(),
            });
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
/// slice of the former god-object again. Line-based like the other
/// rules: rustfmt keeps one field per line in this workspace.
fn d8_stage_fields(rel: &str, masked: &MaskedFile, raw: &mut Vec<Diagnostic>) {
    let n = masked.code.len();
    let mut i = 0;
    while i < n {
        let line = &masked.code[i];
        let decl = find_word(line, "struct")
            .into_iter()
            .next()
            .filter(|_| !masked.in_test.get(i).copied().unwrap_or(false));
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
                raw.push(Diagnostic {
                    path: rel.to_string(),
                    line: j + 1,
                    rule: RuleId::D8,
                    message: format!(
                        "non-private field `{field}` on stage struct `{name}`; stage state \
                         crosses stages only through typed messages — keep fields private \
                         and expose accessors"
                    ),
                });
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
                                raw.push(Diagnostic {
                                    path: rel.to_string(),
                                    line: j + 1,
                                    rule: RuleId::D8,
                                    message: format!(
                                        "non-private field on stage struct `{name}`; stage \
                                         state crosses stages only through typed messages — \
                                         keep fields private and expose accessors"
                                    ),
                                });
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

/// Analyze raw source text as a one-file workspace: token rules plus
/// the semantic pass, with suppression application and (optionally)
/// the stale-suppression meta-rule. Cross-file resolution is limited
/// to the single entry, so callers that want real workspace semantics
/// should go through [`crate::lint_files`].
pub fn analyze_source(
    rel: &str,
    src: &str,
    enabled: &[RuleId],
    check_stale: bool,
) -> Vec<Diagnostic> {
    crate::semantic::analyze_workspace(&[(rel.to_string(), src.to_string())], enabled, check_stale)
}
