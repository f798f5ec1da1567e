//! Workspace-level semantic analysis: the S-rule family.
//!
//! Built on the item model from [`crate::parser`], this module
//! resolves types and impls across the workspace, types place
//! expressions through struct fields and local bindings, builds an
//! intra-workspace call graph, and runs the four semantic rules:
//!
//! * **S1** — RNG-taint reachability: `DeliveryStage::run` must not
//!   reach an `Rng` draw; each `*Stage` draws only from its own
//!   declared RNG fork field; fork labels are distinct across stages.
//! * **S2** — transitive panic reachability: public sim-crate
//!   functions must not reach a live panic site through workspace
//!   calls (direct sites are D5's business).
//! * **S4** — stage purity: stage methods touch only their own
//!   fields, same-file helper types, and the typed pipeline structs.
//! * **S5** — wall-clock taint: D1 extended transitively.
//!
//! (Snapshot field coverage used to be a rule here. It is a compile
//! error now: `outran_simcore::snap_fields!` destructures every
//! persisted struct exhaustively.)
//!
//! Resolution is deliberately conservative: an edge or a type is only
//! recorded when it can be resolved with high confidence (unique name
//! in the workspace, or unique within the calling crate). Anything
//! ambiguous is dropped, and degraded parse regions are skipped, so a
//! modelling limitation can suppress a finding but never invent one.
//!
//! This module also owns the pass orchestration: token rules and
//! semantic rules both produce raw diagnostics, then suppressions are
//! applied once across the union — so a single `allow(D5,S2)`
//! directive with a reason both silences the direct D5 site *and*
//! removes that site from the S2 taint seed set.

use std::collections::BTreeMap;

use crate::lexer::{mask, MaskedFile};
use crate::parser::{self, Acc, Event, FnDef, ParsedFile, Place, Rhs, Root, TypeRef};
use crate::rules::{
    classify, covers, parse_suppressions, token_rules, Diagnostic, FileClass, RuleId, Suppression,
};

/// Methods on `outran_simcore::Rng` that consume stream state.
/// `fork` is deliberately absent: forking derives a child stream
/// without drawing from the parent.
const DRAW_METHODS: [&str; 12] = [
    "next_u64_raw",
    "next_u32",
    "next_u64",
    "fill_bytes",
    "try_fill_bytes",
    "f64",
    "f64_open",
    "range_f64",
    "below",
    "index",
    "chance",
    "shuffle",
];

/// Macro names that unconditionally panic. `assert!`/`debug_assert!`
/// are excluded: they are the sanctioned way to state invariants.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Methods that panic on the err/none arm.
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];

/// Typed pipeline message/context structs that stage methods may
/// reach into (S4). Everything else crossing a stage boundary is a
/// purity violation.
const CONTRACT_TYPES: [&str; 17] = [
    "GbrBearer",
    "SduIngress",
    "TtiRates",
    "HarqPayload",
    "HarqData",
    "AirDelivery",
    "FlowDone",
    "UeContext",
    "CellConfig",
    "CellPools",
    "Allocation",
    "RlcSegment",
    "RlcSdu",
    "AmPdu",
    "DeliveredSdu",
    "StatusPdu",
    "ActiveFaults",
];

/// One analyzed file: masked view, parse, suppressions, class.
struct FileCtx {
    rel: String,
    class: FileClass,
    masked: MaskedFile,
    parsed: ParsedFile,
    sups: Vec<Suppression>,
}

/// Flat function id into [`Model::fns`].
type FnId = usize;

/// A taint witness: where the offending site is and what it is.
#[derive(Debug, Clone)]
struct Witness {
    path: String,
    line: usize,
    what: String,
}

/// A resolved method-call / field-access use inside a fn body.
struct RUse {
    line: usize,
    /// Receiver type of the *place* (after walking fields/indexes).
    recv: TypeRef,
    /// `Some(field)` when the place is exactly `self.<field>`.
    self_field: Option<String>,
    /// Type that owns the first `.field` accessor in the place path
    /// (the root type, or the element type when indexes precede the
    /// field). `None` when the path has no field accessor; opaque
    /// when unresolvable. S4's ownership check.
    field_owner: Option<TypeRef>,
    method: Option<String>,
    lit: Option<u64>,
}

/// Per-function resolved facts.
struct FnFacts {
    uses: Vec<RUse>,
    calls: Vec<(Vec<String>, usize)>,
    macs: Vec<(String, usize)>,
}

/// The workspace model: name tables plus the flat fn list.
struct Model {
    /// Struct name → (file idx, struct idx) declarations.
    types: BTreeMap<String, Vec<(usize, usize)>>,
    /// Enum/union name → declaring file idxs.
    enums: BTreeMap<String, Vec<usize>>,
    /// (impl type, method name) → fn ids.
    methods: BTreeMap<(String, String), Vec<FnId>>,
    /// Free fn name → fn ids.
    free_fns: BTreeMap<String, Vec<FnId>>,
    /// Flat list of modelled fns: (file idx, index into parsed.fns).
    fns: Vec<(usize, usize)>,
}

impl Model {
    fn build(files: &[FileCtx]) -> Model {
        let mut m = Model {
            types: BTreeMap::new(),
            enums: BTreeMap::new(),
            methods: BTreeMap::new(),
            free_fns: BTreeMap::new(),
            fns: Vec::new(),
        };
        for (fi, f) in files.iter().enumerate() {
            if f.class.is_testish {
                continue;
            }
            for (si, s) in f.parsed.structs.iter().enumerate() {
                m.types.entry(s.name.clone()).or_default().push((fi, si));
            }
            for e in &f.parsed.enums {
                m.enums.entry(e.clone()).or_default().push(fi);
            }
            for (xi, func) in f.parsed.fns.iter().enumerate() {
                if func.in_test {
                    continue;
                }
                let id = m.fns.len();
                m.fns.push((fi, xi));
                match &func.impl_of {
                    Some(ty) => m
                        .methods
                        .entry((ty.clone(), func.name.clone()))
                        .or_default()
                        .push(id),
                    None => m.free_fns.entry(func.name.clone()).or_default().push(id),
                }
            }
        }
        m
    }

    fn fn_def<'a>(&self, files: &'a [FileCtx], id: FnId) -> &'a FnDef {
        let (fi, xi) = self.fns[id];
        &files[fi].parsed.fns[xi]
    }

    /// Resolve a type name: unique in the workspace, else unique
    /// within `from_crate`, else unresolved.
    fn resolve_type(
        &self,
        files: &[FileCtx],
        name: &str,
        from_crate: &str,
    ) -> Option<(usize, usize)> {
        let v = self.types.get(name)?;
        if v.len() == 1 {
            return Some(v[0]);
        }
        let same: Vec<&(usize, usize)> = v
            .iter()
            .filter(|(fi, _)| files[*fi].class.crate_name == from_crate)
            .collect();
        if same.len() == 1 {
            Some(*same[0])
        } else {
            None
        }
    }

    /// Resolve the fn ids of `(type, method)`, constrained to the
    /// crate the type itself resolved into (guards against same-named
    /// types in different crates).
    fn resolve_method(
        &self,
        files: &[FileCtx],
        ty: &str,
        method: &str,
        from_crate: &str,
    ) -> Vec<FnId> {
        let Some((tfi, _)) = self.resolve_type(files, ty, from_crate) else {
            return Vec::new();
        };
        let ty_crate = &files[tfi].class.crate_name;
        self.methods
            .get(&(ty.to_string(), method.to_string()))
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| {
                        let (fi, _) = self.fns[id];
                        &files[fi].class.crate_name == ty_crate
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Resolve a bare fn call: same file first, then unique in crate.
    fn resolve_free(&self, files: &[FileCtx], name: &str, from_file: usize) -> Vec<FnId> {
        let Some(ids) = self.free_fns.get(name) else {
            return Vec::new();
        };
        let same_file: Vec<FnId> = ids
            .iter()
            .copied()
            .filter(|&id| self.fns[id].0 == from_file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let crate_name = &files[from_file].class.crate_name;
        let same_crate: Vec<FnId> = ids
            .iter()
            .copied()
            .filter(|&id| &files[self.fns[id].0].class.crate_name == crate_name)
            .collect();
        if same_crate.len() == 1 {
            same_crate
        } else {
            Vec::new()
        }
    }

    /// Walk a place expression to its type under `env`.
    fn type_of_place(
        &self,
        files: &[FileCtx],
        place: &Place,
        self_ty: Option<&str>,
        env: &BTreeMap<String, TypeRef>,
        from_crate: &str,
    ) -> TypeRef {
        let mut cur = match &place.root {
            Root::SelfRoot => match self_ty {
                Some(t) => TypeRef {
                    base: t.to_string(),
                    elem: None,
                },
                None => TypeRef::opaque(),
            },
            Root::Ident(n) => env.get(n).cloned().unwrap_or_else(TypeRef::opaque),
            Root::Opaque => TypeRef::opaque(),
        };
        for acc in &place.path {
            if cur.is_opaque() {
                return TypeRef::opaque();
            }
            match acc {
                Acc::Field(fname) => {
                    let Some((fi, si)) = self.resolve_type(files, &cur.base, from_crate) else {
                        return TypeRef::opaque();
                    };
                    let sd = &files[fi].parsed.structs[si];
                    match sd.fields.iter().find(|fd| fd.name == *fname) {
                        Some(fd) => cur = fd.ty.clone(),
                        None => return TypeRef::opaque(),
                    }
                }
                Acc::Index => match cur.elem.clone() {
                    Some(e) => {
                        cur = TypeRef {
                            base: e,
                            elem: None,
                        }
                    }
                    None => return TypeRef::opaque(),
                },
            }
        }
        cur
    }

    /// Compute the resolved facts for one fn: sequential env walk so
    /// each use sees the bindings established before it.
    fn facts(&self, files: &[FileCtx], id: FnId) -> FnFacts {
        let (fi, _) = self.fns[id];
        let func = self.fn_def(files, id);
        let from_crate = files[fi].class.crate_name.clone();
        let self_ty = func.impl_of.as_deref();
        let mut env: BTreeMap<String, TypeRef> = BTreeMap::new();
        for (name, ty) in &func.params {
            env.insert(name.clone(), ty.clone());
        }
        let mut facts = FnFacts {
            uses: Vec::new(),
            calls: Vec::new(),
            macs: Vec::new(),
        };
        for ev in &func.events {
            match ev {
                Event::Bind { name, rhs } => {
                    let ty = match rhs {
                        Rhs::Ty(t) => t.clone(),
                        Rhs::Ctor(c) => TypeRef {
                            base: c.clone(),
                            elem: None,
                        },
                        Rhs::Pl { place, iter } => {
                            let t = self.type_of_place(files, place, self_ty, &env, &from_crate);
                            if *iter {
                                match t.elem {
                                    Some(e) => TypeRef {
                                        base: e,
                                        elem: None,
                                    },
                                    None => TypeRef::opaque(),
                                }
                            } else {
                                t
                            }
                        }
                        Rhs::Opaque => TypeRef::opaque(),
                    };
                    env.insert(name.clone(), ty);
                }
                Event::Use {
                    place,
                    method,
                    lit,
                    line,
                } => {
                    let recv = self.type_of_place(files, place, self_ty, &env, &from_crate);
                    // Owner of the first field hop: the type reached
                    // after any leading index accessors.
                    let mut field_owner = None;
                    let mut prefix: Vec<Acc> = Vec::new();
                    for acc in &place.path {
                        if matches!(acc, Acc::Field(_)) {
                            field_owner = Some(self.type_of_place(
                                files,
                                &Place {
                                    root: place.root.clone(),
                                    path: prefix.clone(),
                                },
                                self_ty,
                                &env,
                                &from_crate,
                            ));
                            break;
                        }
                        prefix.push(acc.clone());
                    }
                    let self_field = match (&place.root, place.path.as_slice()) {
                        (Root::SelfRoot, [Acc::Field(f)]) => Some(f.clone()),
                        _ => None,
                    };
                    facts.uses.push(RUse {
                        line: *line,
                        recv,
                        self_field,
                        field_owner,
                        method: method.clone(),
                        lit: *lit,
                    });
                }
                Event::Call { path, line } => facts.calls.push((path.clone(), *line)),
                Event::Mac { name, line } => facts.macs.push((name.clone(), *line)),
            }
        }
        facts
    }
}

/// Is an allow(`rule`) suppression present in `sups` covering `line`?
/// Marks it used when found (the suppression is doing real work:
/// declaring the site an asserted invariant / sanctioned read).
fn seed_suppressed(sups: &mut [Suppression], rule: RuleId, line: usize) -> bool {
    let mut hit = false;
    for s in sups.iter_mut() {
        if s.rules.contains(&rule) && covers(s.line, line) {
            s.used = true;
            hit = true;
        }
    }
    hit
}

/// Strictly-transitive reachability over the call graph: a fn is
/// tainted when some *callee* carries a seed or is itself tainted.
/// Returns per-fn witnesses. Deterministic: fns and edges are walked
/// in index order, first witness wins.
fn transitive_taint(edges: &[Vec<FnId>], seeds: &[Option<Witness>]) -> Vec<Option<Witness>> {
    let n = edges.len();
    let mut tainted: Vec<Option<Witness>> = vec![None; n];
    loop {
        let mut changed = false;
        for i in 0..n {
            if tainted[i].is_some() {
                continue;
            }
            for &j in &edges[i] {
                let w = seeds[j].as_ref().or(tainted[j].as_ref());
                if let Some(w) = w {
                    tainted[i] = Some(w.clone());
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            return tainted;
        }
    }
}

/// Seed-inclusive reachability (S1): a fn counts as tainted when its
/// own body draws too.
fn inclusive_taint(edges: &[Vec<FnId>], seeds: &[Option<Witness>]) -> Vec<Option<Witness>> {
    let trans = transitive_taint(edges, seeds);
    seeds
        .iter()
        .zip(trans)
        .map(|(s, t)| s.clone().or(t))
        .collect()
}

/// Analyze a set of `(workspace-relative path, source)` entries as one
/// workspace: token rules + semantic rules, suppressions applied
/// across both, optional stale-suppression check, deterministic
/// (path, line, rule) ordering.
pub fn analyze_workspace(
    entries: &[(String, String)],
    enabled: &[RuleId],
    check_stale: bool,
) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut files: Vec<FileCtx> = Vec::with_capacity(entries.len());
    for (rel, src) in entries {
        let masked = mask(src);
        let class = classify(rel);
        let sups = parse_suppressions(rel, &masked, &mut diags);
        let parsed = parser::parse(&masked);
        files.push(FileCtx {
            rel: rel.clone(),
            class,
            masked,
            parsed,
            sups,
        });
    }

    let mut raw: Vec<Diagnostic> = Vec::new();
    for f in &files {
        raw.extend(token_rules(&f.rel, &f.masked, enabled));
    }

    let model = Model::build(&files);
    let facts: Vec<FnFacts> = (0..model.fns.len())
        .map(|id| model.facts(&files, id))
        .collect();
    let edges = build_edges(&model, &files, &facts);
    let on = |r: RuleId| enabled.contains(&r);

    if on(RuleId::S1) {
        rule_s1(&model, &files, &facts, &edges, &mut raw);
    }
    if on(RuleId::S2) {
        rule_s2(&model, &mut files, &facts, &edges, &mut raw);
    }
    if on(RuleId::S4) {
        rule_s4(&model, &files, &facts, &mut raw);
    }
    if on(RuleId::S5) {
        rule_s5(&model, &mut files, &facts, &edges, &mut raw);
    }

    // Apply suppressions across the union of token + semantic diags.
    let by_rel: BTreeMap<String, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.rel.clone(), i))
        .collect();
    for d in raw {
        let mut suppressed = false;
        if let Some(&fi) = by_rel.get(d.path.as_str()) {
            for s in files[fi].sups.iter_mut() {
                if s.rules.contains(&d.rule) && covers(s.line, d.line) {
                    s.used = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            diags.push(d);
        }
    }

    if check_stale {
        for f in &files {
            for s in &f.sups {
                if !s.used {
                    diags.push(Diagnostic {
                        path: f.rel.clone(),
                        line: s.line,
                        rule: RuleId::L102,
                        message: format!(
                            "stale suppression: allow({}) matched no diagnostic",
                            s.rules
                                .iter()
                                .map(|r| r.name())
                                .collect::<Vec<_>>()
                                .join(",")
                        ),
                    });
                }
            }
        }
    }

    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    diags
}

/// Build the call graph. Conservative: edges only where the callee
/// resolves with high confidence.
fn build_edges(model: &Model, files: &[FileCtx], facts: &[FnFacts]) -> Vec<Vec<FnId>> {
    let mut edges: Vec<Vec<FnId>> = vec![Vec::new(); model.fns.len()];
    for (id, fact) in facts.iter().enumerate() {
        let (fi, _) = model.fns[id];
        let from_crate = files[fi].class.crate_name.clone();
        let self_ty = model.fn_def(files, id).impl_of.clone();
        let out = &mut edges[id];
        for u in &fact.uses {
            if let Some(m) = &u.method {
                if !u.recv.is_opaque() {
                    out.extend(model.resolve_method(files, &u.recv.base, m, &from_crate));
                }
            }
        }
        for (path, _) in &fact.calls {
            match path.as_slice() {
                [name] => out.extend(model.resolve_free(files, name, fi)),
                [.., ty, method] => {
                    let ty = if ty == "Self" {
                        match &self_ty {
                            Some(t) => t.clone(),
                            None => continue,
                        }
                    } else {
                        ty.clone()
                    };
                    let ids = model.resolve_method(files, &ty, method, &from_crate);
                    if !ids.is_empty() {
                        out.extend(ids);
                    } else if ty.chars().next().is_some_and(|c| c.is_lowercase()) {
                        // Module-qualified free fn (`helper::compute`):
                        // resolve the last segment when unique in this
                        // crate.
                        let cands = model
                            .free_fns
                            .get(method)
                            .map(|ids| {
                                ids.iter()
                                    .copied()
                                    .filter(|&cid| {
                                        files[model.fns[cid].0].class.crate_name == from_crate
                                    })
                                    .collect::<Vec<FnId>>()
                            })
                            .unwrap_or_default();
                        if cands.len() == 1 {
                            out.extend(cands);
                        }
                    }
                }
                _ => {}
            }
        }
        out.sort_unstable();
        out.dedup();
    }
    edges
}

/// S1 — RNG-taint reachability, fork ownership, fork-label registry.
fn rule_s1(
    model: &Model,
    files: &[FileCtx],
    facts: &[FnFacts],
    edges: &[Vec<FnId>],
    raw: &mut Vec<Diagnostic>,
) {
    // Direct draws per fn.
    let mut seeds: Vec<Option<Witness>> = vec![None; model.fns.len()];
    for (id, fact) in facts.iter().enumerate() {
        let (fi, _) = model.fns[id];
        for u in &fact.uses {
            if u.recv.base == "Rng" {
                if let Some(m) = &u.method {
                    if DRAW_METHODS.contains(&m.as_str()) {
                        seeds[id] = Some(Witness {
                            path: files[fi].rel.clone(),
                            line: u.line,
                            what: format!("Rng::{m}"),
                        });
                        break;
                    }
                }
            }
        }
    }
    let tainted = inclusive_taint(edges, &seeds);

    // (a) DeliveryStage::run must be draw-free.
    for (id, &(fi, _)) in model.fns.iter().enumerate() {
        let func = model.fn_def(files, id);
        if func.impl_of.as_deref() == Some("DeliveryStage") && func.name == "run" {
            if let Some(w) = &tainted[id] {
                raw.push(Diagnostic {
                    path: files[fi].rel.clone(),
                    line: func.line,
                    rule: RuleId::S1,
                    message: format!(
                        "`DeliveryStage::run` can reach RNG draw `{}` ({}:{}); delivery \
                         must stay randomness-free so replay fingerprints are \
                         stepping-mode invariant",
                        w.what, w.path, w.line
                    ),
                });
            }
        }
    }

    // (b) Fork ownership: a stage method's direct draws must come
    // from an Rng field of its own struct.
    // (c) Fork-label registry: `fork(<literal>)` labels must be
    // distinct across stage types.
    let mut fork_labels: BTreeMap<u64, Vec<(String, usize, usize)>> = BTreeMap::new();
    for (id, fact) in facts.iter().enumerate() {
        let (fi, _) = model.fns[id];
        if !files[fi].rel.starts_with("crates/ran/src/stages/") {
            continue;
        }
        let func = model.fn_def(files, id);
        let Some(stage) = func.impl_of.as_deref().filter(|t| t.ends_with("Stage")) else {
            continue;
        };
        if func.degraded {
            continue;
        }
        let own_rng_field = |f: &str| -> bool {
            model
                .resolve_type(files, stage, &files[fi].class.crate_name)
                .map(|(sfi, si)| {
                    files[sfi].parsed.structs[si]
                        .fields
                        .iter()
                        .any(|fd| fd.name == f && fd.ty.base == "Rng")
                })
                .unwrap_or(false)
        };
        for u in &fact.uses {
            let Some(m) = &u.method else { continue };
            if u.recv.base == "Rng" && DRAW_METHODS.contains(&m.as_str()) {
                let owned = u.self_field.as_deref().is_some_and(own_rng_field);
                if !owned {
                    raw.push(Diagnostic {
                        path: files[fi].rel.clone(),
                        line: u.line,
                        rule: RuleId::S1,
                        message: format!(
                            "stage `{stage}` draws `{m}` from an RNG that is not its own \
                             declared fork field; each stage consumes only its own \
                             `root.fork(label)` stream"
                        ),
                    });
                }
            }
            if m == "fork" && u.recv.base == "Rng" {
                if let Some(l) = u.lit {
                    fork_labels
                        .entry(l)
                        .or_default()
                        .push((stage.to_string(), fi, u.line));
                }
            }
        }
    }
    for (label, sites) in &fork_labels {
        let mut stages: Vec<&str> = sites.iter().map(|(s, _, _)| s.as_str()).collect();
        stages.sort_unstable();
        stages.dedup();
        if stages.len() > 1 {
            for (stage, fi, line) in sites {
                raw.push(Diagnostic {
                    path: files[*fi].rel.clone(),
                    line: *line,
                    rule: RuleId::S1,
                    message: format!(
                        "fork label {label:#x} used by stage `{stage}` collides with \
                         another stage's fork; labels must be distinct or the child \
                         streams are identical"
                    ),
                });
            }
        }
    }
}

/// S2 — transitive panic reachability.
fn rule_s2(
    model: &Model,
    files: &mut [FileCtx],
    facts: &[FnFacts],
    edges: &[Vec<FnId>],
    raw: &mut Vec<Diagnostic>,
) {
    let mut seeds: Vec<Option<Witness>> = vec![None; model.fns.len()];
    for (id, fact) in facts.iter().enumerate() {
        let (fi, _) = model.fns[id];
        if !files[fi].class.is_sim_lib {
            continue;
        }
        let mut sites: Vec<(usize, String)> = Vec::new();
        for u in &fact.uses {
            if let Some(m) = &u.method {
                if PANIC_METHODS.contains(&m.as_str()) {
                    sites.push((u.line, format!("{m}()")));
                }
            }
        }
        for (name, line) in &fact.macs {
            if PANIC_MACROS.contains(&name.as_str()) {
                sites.push((*line, format!("{name}!")));
            }
        }
        sites.sort();
        for (line, what) in sites {
            if seed_suppressed(&mut files[fi].sups, RuleId::S2, line) {
                continue;
            }
            seeds[id] = Some(Witness {
                path: files[fi].rel.clone(),
                line,
                what,
            });
            break;
        }
    }
    let tainted = transitive_taint(edges, &seeds);
    for (id, &(fi, _)) in model.fns.iter().enumerate() {
        let func = model.fn_def(files, id);
        if !files[fi].class.is_sim_lib || !(func.is_pub || func.is_trait_impl) {
            continue;
        }
        if let Some(w) = &tainted[id] {
            raw.push(Diagnostic {
                path: files[fi].rel.clone(),
                line: func.line,
                rule: RuleId::S2,
                message: format!(
                    "public fn `{}` can reach panic site `{}` ({}:{}) through workspace \
                     calls; restructure to total code, or suppress at the site with \
                     allow(D5,S2) and a reason why the invariant holds",
                    func.name, w.what, w.path, w.line
                ),
            });
        }
    }
}

/// S4 — stage purity: first-hop field ownership.
fn rule_s4(model: &Model, files: &[FileCtx], facts: &[FnFacts], raw: &mut Vec<Diagnostic>) {
    for (id, fact) in facts.iter().enumerate() {
        let (fi, _) = model.fns[id];
        let f = &files[fi];
        if !f.rel.starts_with("crates/ran/src/stages/") || f.class.is_testish {
            continue;
        }
        let func = model.fn_def(files, id);
        let Some(stage) = func.impl_of.as_deref().filter(|t| t.ends_with("Stage")) else {
            continue;
        };
        if func.degraded {
            continue;
        }
        let same_file_ty = |name: &str| -> bool {
            f.parsed.structs.iter().any(|s| s.name == name)
                || f.parsed.enums.iter().any(|e| e == name)
        };
        for u in &fact.uses {
            let Some(owner_ty) = &u.field_owner else {
                continue;
            };
            if owner_ty.is_opaque() {
                continue;
            }
            let owner = &owner_ty.base;
            // Same-file helper types are fair game — but another
            // *Stage* sharing the file is still another stage.
            let allowed = owner == stage
                || (same_file_ty(owner) && !owner.ends_with("Stage"))
                || CONTRACT_TYPES.contains(&owner.as_str());
            if !allowed {
                let hint = if owner.ends_with("Stage") {
                    "reaching into another stage's state breaks the typed-message \
                     pipeline contract"
                } else {
                    "route this through a typed pipeline message or an accessor"
                };
                raw.push(Diagnostic {
                    path: f.rel.clone(),
                    line: u.line,
                    rule: RuleId::S4,
                    message: format!(
                        "stage `{stage}` touches fields of `{owner}`, which is neither \
                         its own state, a same-file helper, nor a typed pipeline \
                         struct; {hint}"
                    ),
                });
            }
        }
    }
}

/// S5 — transitive wall-clock taint.
fn rule_s5(
    model: &Model,
    files: &mut [FileCtx],
    facts: &[FnFacts],
    edges: &[Vec<FnId>],
    raw: &mut Vec<Diagnostic>,
) {
    let mut seeds: Vec<Option<Witness>> = vec![None; model.fns.len()];
    for (id, fact) in facts.iter().enumerate() {
        let (fi, _) = model.fns[id];
        if files[fi].class.wall_clock_ok {
            continue;
        }
        let mut sites: Vec<(usize, String)> = Vec::new();
        for (path, line) in &fact.calls {
            let clocky = path.windows(2).any(|w| w[0] == "Instant" && w[1] == "now")
                || path.iter().any(|s| s == "SystemTime");
            if clocky {
                sites.push((*line, path.join("::")));
            }
        }
        sites.sort();
        for (line, what) in sites {
            if seed_suppressed(&mut files[fi].sups, RuleId::S5, line) {
                continue;
            }
            seeds[id] = Some(Witness {
                path: files[fi].rel.clone(),
                line,
                what,
            });
            break;
        }
    }
    let tainted = transitive_taint(edges, &seeds);
    for (id, &(fi, _)) in model.fns.iter().enumerate() {
        let func = model.fn_def(files, id);
        let class = &files[fi].class;
        if !class.is_sim_lib || class.wall_clock_ok || !(func.is_pub || func.is_trait_impl) {
            continue;
        }
        if let Some(w) = &tainted[id] {
            raw.push(Diagnostic {
                path: files[fi].rel.clone(),
                line: func.line,
                rule: RuleId::S5,
                message: format!(
                    "public fn `{}` can reach wall-clock read `{}` ({}:{}) through \
                     helper calls; simulation results must be a pure function of the \
                     seed — suppress at the reading fn with a reason if it is \
                     measurement-only",
                    func.name, w.what, w.path, w.line
                ),
            });
        }
    }
}
