//! Item-level recursive-descent parser over the masked view.
//!
//! This is *not* a full Rust parser. It understands exactly enough of
//! the item grammar to build a workspace model for the semantic rules:
//! structs with named fields, enum/union names, `impl` blocks (which
//! type, trait impl or inherent), and `fn` items whose bodies are
//! flattened into an ordered stream of [`Event`]s — calls, method
//! calls, field-access places, macro invocations, and `let`/`for`
//! bindings. Everything else (traits, macros-by-example, consts,
//! `use` trees) is skipped.
//!
//! Degradation contract: an item the parser cannot shape (an item-
//! position macro call, an item form it does not know) is skipped as
//! an opaque item and parsing resumes at the next item boundary; a
//! function whose signature or body it cannot shape is recorded with
//! `degraded = true`. Semantic rules assert nothing about degraded
//! functions, and an item that was never shaped contributes no facts —
//! so a parse limitation can cause a missed finding but never a false
//! positive. The token rules (D1–D10) still run on the masked text
//! regardless.

use crate::lexer::MaskedFile;

/// Token kinds. Literal *contents* were already blanked by the lexer,
/// so `Str` carries no text; numbers keep their text so fork labels
/// can be matched (`fork(0xCE11)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    Ident(String),
    Num(String),
    /// String/char literal (contents masked).
    Str,
    /// Lifetime or loop label (`'a`).
    Life,
    /// Any punctuation char.
    P(char),
}

/// A token with the 1-based source line it started on.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: Tok,
    pub line: usize,
}

/// Tokenize the masked code lines. Operates per-line (the masked view
/// preserves line structure); multi-char operators are not fused —
/// the parser peeks at adjacent punctuation instead.
pub fn tokenize(masked: &MaskedFile) -> Vec<Token> {
    let mut out = Vec::new();
    for (idx, line) in masked.code.iter().enumerate() {
        let line_no = idx + 1;
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                out.push(Token {
                    kind: Tok::Ident(text),
                    line: line_no,
                });
            } else if c.is_ascii_digit() {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    // Stop a numeric token at `..` (range) and at a
                    // method call on a literal (`1.0.sqrt()` is rare;
                    // `0..n` is everywhere).
                    if chars[i] == '.' && chars.get(i + 1) == Some(&'.') {
                        break;
                    }
                    if chars[i] == '.'
                        && chars
                            .get(i + 1)
                            .is_some_and(|n| n.is_alphabetic() || *n == '_')
                    {
                        break;
                    }
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                out.push(Token {
                    kind: Tok::Num(text),
                    line: line_no,
                });
            } else if c == '"' {
                // Masked string: spaces until the closing quote (the
                // lexer guarantees a partner on some line; scan to end
                // of this line's quote or treat as single token).
                i += 1;
                while i < chars.len() && chars[i] != '"' {
                    i += 1;
                }
                i += 1; // closing quote (or end of line for multi-line)
                out.push(Token {
                    kind: Tok::Str,
                    line: line_no,
                });
            } else if c == '\'' {
                // Char literal (masked: `'` spaces `'`) vs lifetime.
                let mut j = i + 1;
                while j < chars.len() && chars[j] == ' ' {
                    j += 1;
                }
                if j < chars.len() && chars[j] == '\'' {
                    out.push(Token {
                        kind: Tok::Str,
                        line: line_no,
                    });
                    i = j + 1;
                } else {
                    // Lifetime: consume the identifier after the quote.
                    i += 1;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    out.push(Token {
                        kind: Tok::Life,
                        line: line_no,
                    });
                }
            } else if c == '#' {
                // `#` / `#!`: attribute start — emit as punctuation,
                // parser skips the bracketed group.
                out.push(Token {
                    kind: Tok::P('#'),
                    line: line_no,
                });
                i += 1;
            } else {
                out.push(Token {
                    kind: Tok::P(c),
                    line: line_no,
                });
                i += 1;
            }
        }
    }
    out
}

/// A (simplified) type reference: base type name plus the element type
/// for the containers place-typing must see through (`Vec<T>`,
/// `[T; N]`, `&[T]`, `Option<T>`, `Box<T>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeRef {
    /// Last path segment of the base type (`pool::Slab` → `Slab`).
    pub base: String,
    /// Element type for indexable/wrapping containers.
    pub elem: Option<String>,
}

impl TypeRef {
    pub fn opaque() -> TypeRef {
        TypeRef {
            base: String::new(),
            elem: None,
        }
    }
    pub fn is_opaque(&self) -> bool {
        self.base.is_empty()
    }
}

/// A named struct field.
#[derive(Debug, Clone)]
pub struct FieldDef {
    pub name: String,
    pub ty: TypeRef,
    pub line: usize,
}

/// A struct with named fields (tuple/unit structs keep an empty field
/// list — the semantic rules only reason about named fields).
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub line: usize,
    pub fields: Vec<FieldDef>,
}

/// The root of a place expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Root {
    SelfRoot,
    Ident(String),
    /// Receiver we cannot shape (call result, parenthesized expr…).
    Opaque,
}

/// One accessor step in a place path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Acc {
    Field(String),
    /// `[…]` or a tuple index — steps into the element type.
    Index,
}

/// A place expression: root plus accessor path, e.g.
/// `self.flows[i].rt` → root Self, path [Field(flows), Index, Field(rt)].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Place {
    pub root: Root,
    pub path: Vec<Acc>,
}

/// Right-hand side of a binding, as far as we can shape it.
#[derive(Debug, Clone)]
pub enum Rhs {
    /// Explicit type ascription (`let x: T = …`).
    Ty(TypeRef),
    /// A place (`let f = &mut self.flows[i];`); `iter` true for
    /// `for x in place` (binds the *element* type).
    Pl {
        place: Place,
        iter: bool,
    },
    /// Constructor heuristic (`T::new(…)` / `T::default()` /
    /// struct literal `T { … }`).
    Ctor(String),
    Opaque,
}

/// One body event, in source order.
#[derive(Debug, Clone)]
pub enum Event {
    /// Path call: `a::b::c(…)` or `Type::method(…)`. `path` holds the
    /// `::`-separated segments.
    Call { path: Vec<String>, line: usize },
    /// Place use: field accesses and/or a trailing method call.
    /// `lit` carries the first numeric literal argument when `method`
    /// is present (fork-label matching).
    Use {
        place: Place,
        method: Option<String>,
        lit: Option<u64>,
        line: usize,
    },
    /// Macro invocation `name!(…)`.
    Mac { name: String, line: usize },
    /// `let name = …` / `let name: T = …` / `for name in …`.
    Bind { name: String, rhs: Rhs },
}

/// A parsed function.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    pub line: usize,
    pub is_pub: bool,
    pub in_test: bool,
    /// Body contained constructs the extractor could not shape; the
    /// events stream is still usable but may be incomplete.
    pub degraded: bool,
    /// `Some(TypeName)` when declared inside `impl TypeName`.
    pub impl_of: Option<String>,
    /// Declared inside `impl Trait for Type`.
    pub is_trait_impl: bool,
    /// Has a `self` receiver.
    pub self_param: bool,
    /// Non-self parameters: (name, type).
    pub params: Vec<(String, TypeRef)>,
    pub events: Vec<Event>,
}

/// Parse result for one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    pub structs: Vec<StructDef>,
    /// Enum/union names declared here (place typing treats them as
    /// local types for the same-file S4 allowance).
    pub enums: Vec<String>,
    pub fns: Vec<FnDef>,
}

/// Keywords that can prefix an item before the item keyword proper.
const MODIFIERS: [&str; 6] = ["pub", "const", "unsafe", "extern", "async", "default"];

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    in_test: &'a [bool],
    out: ParsedFile,
}

/// Parse a masked file into its item model.
pub fn parse(masked: &MaskedFile) -> ParsedFile {
    let toks = tokenize(masked);
    let mut p = Parser {
        toks: &toks,
        pos: 0,
        in_test: &masked.in_test,
        out: ParsedFile::default(),
    };
    p.items(None, false);
    p.out
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.kind)
    }
    fn peek_at(&self, n: usize) -> Option<&Tok> {
        self.toks.get(self.pos + n).map(|t| &t.kind)
    }
    fn line(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|t| t.line)
            .or_else(|| self.toks.last().map(|t| t.line))
            .unwrap_or(1)
    }
    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }
    fn is_p(&self, c: char) -> bool {
        matches!(self.peek(), Some(Tok::P(p)) if *p == c)
    }
    fn is_ident(&self, s: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(i)) if i == s)
    }
    fn ident_text(&self) -> Option<&'a str> {
        match self.toks.get(self.pos).map(|t| &t.kind) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }
    fn in_test_here(&self) -> bool {
        let line = self.line();
        self.in_test
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// Skip a balanced group starting at the current opening
    /// delimiter. Returns false (and marks degradation at the caller's
    /// discretion) if the stream ends unbalanced.
    fn skip_group(&mut self, open: char, close: char) -> bool {
        if !self.is_p(open) {
            return false;
        }
        let mut depth = 0i32;
        while let Some(t) = self.bump() {
            match t.kind {
                Tok::P(c) if c == open => depth += 1,
                Tok::P(c) if c == close => {
                    depth -= 1;
                    if depth == 0 {
                        return true;
                    }
                }
                _ => {}
            }
        }
        false
    }

    /// Skip attributes (`#[…]`, `#![…]`).
    fn skip_attrs(&mut self) {
        while self.is_p('#') {
            self.bump();
            if self.is_p('!') {
                self.bump();
            }
            if !self.skip_group('[', ']') {
                return;
            }
        }
    }

    /// Skip an angle-bracketed generics group `<…>`, tolerating
    /// nested `<>`, `->` inside `Fn(..) -> T` bounds, and shifts
    /// (masked code never fuses `>>`, so plain counting works).
    fn skip_generics(&mut self) -> bool {
        if !self.is_p('<') {
            return true;
        }
        let mut depth = 0i32;
        while let Some(t) = self.toks.get(self.pos) {
            match t.kind {
                Tok::P('<') => depth += 1,
                Tok::P('>') => {
                    // `->` is an arrow, not a closer.
                    let prev = self.pos.checked_sub(1).map(|i| &self.toks[i].kind);
                    if !matches!(prev, Some(Tok::P('-'))) {
                        depth -= 1;
                        if depth == 0 {
                            self.pos += 1;
                            return true;
                        }
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
        false
    }

    /// Parse a type starting at the current token into a [`TypeRef`].
    /// Consumes the type tokens. Handles `&`, `mut`, paths, generics
    /// (capturing the first argument of `Vec</Option</Box<`), slices
    /// `[T]` / arrays `[T; N]`, tuples `(..)` (→ opaque), and
    /// `dyn`/`impl` (→ opaque).
    fn parse_type(&mut self) -> TypeRef {
        while self.is_p('&') || self.is_p('*') {
            self.bump();
            if matches!(self.peek(), Some(Tok::Life)) {
                self.bump();
            }
            if self.is_ident("mut") || self.is_ident("const") {
                self.bump();
            }
        }
        if self.is_ident("mut") {
            self.bump();
        }
        if self.is_ident("dyn") || self.is_ident("impl") {
            // Opaque: skip a path + generics best-effort.
            self.bump();
            while matches!(self.peek(), Some(Tok::Ident(_))) {
                self.bump();
                if self.is_p(':') && matches!(self.peek_at(1), Some(Tok::P(':'))) {
                    self.bump();
                    self.bump();
                } else {
                    break;
                }
            }
            self.skip_generics();
            return TypeRef::opaque();
        }
        if self.is_p('[') {
            // Slice/array: element type then optional `; N`.
            self.bump();
            let elem = self.parse_type();
            while !self.is_p(']') && self.peek().is_some() {
                self.bump();
            }
            self.bump(); // `]`
            return TypeRef {
                base: "[]".to_string(),
                elem: if elem.is_opaque() {
                    None
                } else {
                    Some(elem.base)
                },
            };
        }
        if self.is_p('(') {
            self.skip_group('(', ')');
            return TypeRef::opaque();
        }
        // Path type: a::b::C<…>.
        let mut last = String::new();
        while let Some(seg) = self.ident_text() {
            last = seg.to_string();
            self.bump();
            if self.is_p(':') && matches!(self.peek_at(1), Some(Tok::P(':'))) {
                self.bump();
                self.bump();
                // Turbofish in type position (`Vec::<u8>`) — rare; let
                // the generic skip below handle a following `<`.
                continue;
            }
            break;
        }
        if last.is_empty() {
            return TypeRef::opaque();
        }
        let mut elem = None;
        if self.is_p('<') {
            // Capture the first generic argument for see-through
            // containers, then skip the rest of the group.
            let seen_through = matches!(
                last.as_str(),
                "Vec" | "Option" | "Box" | "VecDeque" | "Slab"
            );
            let save = self.pos;
            self.bump(); // `<`
            if seen_through {
                // Skip lifetimes and `&` before the element type.
                while matches!(self.peek(), Some(Tok::Life)) || self.is_p('&') {
                    self.bump();
                }
                let inner = self.parse_type();
                if !inner.is_opaque() {
                    elem = Some(inner.base);
                }
            }
            self.pos = save;
            self.skip_generics();
        }
        TypeRef { base: last, elem }
    }

    /// Top-level / module-body item loop. `impl_of` is set inside an
    /// impl block; `trait_impl` marks `impl Trait for Type`.
    fn items(&mut self, impl_of: Option<&str>, trait_impl: bool) {
        loop {
            self.skip_attrs();
            let Some(tok) = self.peek() else { return };
            // Closing brace of the enclosing mod/impl body.
            if matches!(tok, Tok::P('}')) {
                return;
            }
            let start = self.pos;
            // Skip modifiers (pub(crate) etc.).
            while self.ident_text().is_some_and(|t| MODIFIERS.contains(&t)) {
                let was_pub = self.is_ident("pub");
                self.bump();
                if was_pub && self.is_p('(') {
                    self.skip_group('(', ')');
                }
            }
            let is_pub = self.toks[start..self.pos]
                .iter()
                .any(|t| matches!(&t.kind, Tok::Ident(i) if i == "pub"));

            match self.ident_text() {
                Some("mod") => {
                    self.bump();
                    self.bump(); // name
                    if self.is_p(';') {
                        self.bump();
                    } else if self.is_p('{') {
                        self.bump();
                        self.items(None, false);
                        if self.is_p('}') {
                            self.bump();
                        }
                    } else {
                        self.recover();
                    }
                }
                Some("struct") => self.item_struct(),
                Some("enum") | Some("union") => self.item_enum(),
                Some("trait") => {
                    // Trait declarations are skipped whole (documented
                    // degradation: default method bodies are not
                    // modeled).
                    self.bump();
                    self.recover();
                }
                Some("impl") => self.item_impl(),
                Some("fn") => self.item_fn(impl_of, trait_impl, is_pub),
                Some("use") | Some("type") | Some("static") | Some("const") => {
                    // `const` reaching here is a const item (const fn
                    // was consumed as a modifier above only when
                    // followed by fn — re-check).
                    if self.is_ident("const")
                        && matches!(self.peek_at(1), Some(Tok::Ident(i)) if i == "fn")
                    {
                        self.bump();
                        self.bump();
                        // Un-bump: item_fn expects to sit on `fn`.
                        self.pos -= 1;
                        self.item_fn(impl_of, trait_impl, is_pub);
                        continue;
                    }
                    self.bump();
                    self.recover_semi();
                }
                Some("macro_rules") => {
                    self.bump();
                    self.recover();
                }
                Some("extern") => {
                    self.bump();
                    self.recover();
                }
                Some(_) if self.at_macro_call() => self.item_macro_call(),
                _ => {
                    // Unknown item shape: skip it as an opaque item.
                    if self.pos == start {
                        self.bump();
                    }
                    self.recover();
                }
            }
            if self.pos == start {
                // No progress — avoid livelock.
                self.bump();
            }
        }
    }

    /// Whether the cursor sits on an item-position macro call:
    /// `path::to::name ! <group>`.
    fn at_macro_call(&self) -> bool {
        let mut n = 0;
        while matches!(self.peek_at(n), Some(Tok::Ident(_))) {
            if matches!(self.peek_at(n + 1), Some(Tok::P('!'))) {
                return matches!(
                    self.peek_at(n + 2),
                    Some(Tok::P('{')) | Some(Tok::P('(')) | Some(Tok::P('['))
                );
            }
            if !(matches!(self.peek_at(n + 1), Some(Tok::P(':')))
                && matches!(self.peek_at(n + 2), Some(Tok::P(':'))))
            {
                return false;
            }
            n += 3;
        }
        false
    }

    /// Skip an item-position macro call (`name! { … }`, `name!(…);`,
    /// `name![…];`) as one opaque item: what it expands to is unknown,
    /// so it contributes no facts, and nothing around it degrades.
    fn item_macro_call(&mut self) {
        while !self.is_p('!') {
            self.bump();
        }
        self.bump(); // `!`
        let skipped = match self.peek() {
            Some(Tok::P('{')) => self.skip_group('{', '}'),
            Some(Tok::P('(')) => self.skip_group('(', ')'),
            _ => self.skip_group('[', ']'),
        };
        if skipped && self.is_p(';') {
            self.bump();
        }
    }

    /// Recover to the next `;` at depth 0 or past the next balanced
    /// `{}` group, whichever comes first.
    fn recover(&mut self) {
        while let Some(tok) = self.peek() {
            match tok {
                Tok::P(';') => {
                    self.bump();
                    return;
                }
                Tok::P('{') => {
                    self.skip_group('{', '}');
                    return;
                }
                Tok::P('}') => return, // enclosing close — stop
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Recover to the next top-level `;` (for `use`/`type`/`static`).
    fn recover_semi(&mut self) {
        while let Some(tok) = self.peek() {
            match tok {
                Tok::P(';') => {
                    self.bump();
                    return;
                }
                Tok::P('{') => {
                    // `use a::{b, c};` — skip the tree then continue
                    // looking for the semicolon.
                    self.skip_group('{', '}');
                }
                Tok::P('}') => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn item_struct(&mut self) {
        let line = self.line();
        self.bump(); // `struct`
        let Some(name) = self.ident_text().map(str::to_string) else {
            self.recover();
            return;
        };
        self.bump();
        self.skip_generics();
        // `where` clause before the body.
        if self.is_ident("where") {
            while let Some(tok) = self.peek() {
                match tok {
                    Tok::P('{') | Tok::P(';') => break,
                    _ => {
                        self.bump();
                    }
                }
            }
        }
        if self.is_p(';') {
            self.bump();
            self.out.structs.push(StructDef {
                name,
                line,
                fields: Vec::new(),
            });
            return;
        }
        if self.is_p('(') {
            self.skip_group('(', ')');
            if self.is_p(';') {
                self.bump();
            }
            self.out.structs.push(StructDef {
                name,
                line,
                fields: Vec::new(),
            });
            return;
        }
        if !self.is_p('{') {
            self.recover();
            return;
        }
        self.bump(); // `{`
        let mut fields = Vec::new();
        loop {
            self.skip_attrs();
            if self.is_p('}') {
                self.bump();
                break;
            }
            if self.peek().is_none() {
                break;
            }
            // Visibility.
            if self.is_ident("pub") {
                self.bump();
                if self.is_p('(') {
                    self.skip_group('(', ')');
                }
            }
            let fline = self.line();
            let Some(fname) = self.ident_text().map(str::to_string) else {
                self.recover();
                break;
            };
            self.bump();
            if !self.is_p(':') {
                self.recover();
                break;
            }
            self.bump(); // `:`
            let ty = self.parse_type();
            fields.push(FieldDef {
                name: fname,
                ty,
                line: fline,
            });
            // Consume trailing tokens up to `,` or `}` (tolerates
            // type shapes parse_type under-consumed).
            while let Some(tok) = self.peek() {
                match tok {
                    Tok::P(',') => {
                        self.bump();
                        break;
                    }
                    Tok::P('}') => break,
                    Tok::P('<') => {
                        self.skip_generics();
                    }
                    Tok::P('(') => {
                        self.skip_group('(', ')');
                    }
                    Tok::P('[') => {
                        self.skip_group('[', ']');
                    }
                    _ => {
                        self.bump();
                    }
                }
            }
        }
        self.out.structs.push(StructDef { name, line, fields });
    }

    fn item_enum(&mut self) {
        self.bump(); // `enum` / `union`
        if let Some(name) = self.ident_text().map(str::to_string) {
            self.out.enums.push(name);
            self.bump();
        }
        self.skip_generics();
        self.recover();
    }

    fn item_impl(&mut self) {
        self.bump(); // `impl`
        self.skip_generics();
        // First path (trait or type).
        let first = self.impl_path();
        let (type_name, trait_impl) = if self.is_ident("for") {
            self.bump();
            (self.impl_path(), true)
        } else {
            (first, false)
        };
        // `where` clause.
        if self.is_ident("where") {
            while let Some(tok) = self.peek() {
                match tok {
                    Tok::P('{') => break,
                    _ => {
                        self.bump();
                    }
                }
            }
        }
        if !self.is_p('{') {
            self.recover();
            return;
        }
        self.bump(); // `{`
        let Some(ty) = type_name else {
            // Still walk the body so the brace nesting stays balanced.
            let mut depth = 1i32;
            while let Some(t) = self.bump() {
                match t.kind {
                    Tok::P('{') => depth += 1,
                    Tok::P('}') => {
                        depth -= 1;
                        if depth == 0 {
                            return;
                        }
                    }
                    _ => {}
                }
            }
            return;
        };
        self.items(Some(&ty), trait_impl);
        if self.is_p('}') {
            self.bump();
        }
    }

    /// Path in impl-header position: `a::b::Type<…>` → `Some("Type")`.
    /// `&`, slices, tuples → `None` (opaque impl target).
    fn impl_path(&mut self) -> Option<String> {
        if !matches!(self.peek(), Some(Tok::Ident(_))) {
            // Non-path impl target (references, tuples…): skip until
            // `for`/`where`/`{` and report opaque.
            while let Some(tok) = self.peek() {
                match tok {
                    Tok::Ident(i) if i == "for" || i == "where" => return None,
                    Tok::P('{') => return None,
                    Tok::P('<') => {
                        self.skip_generics();
                    }
                    _ => {
                        self.bump();
                    }
                }
            }
            return None;
        }
        let mut last = String::new();
        while let Some(seg) = self.ident_text() {
            last = seg.to_string();
            self.bump();
            if self.is_p(':') && matches!(self.peek_at(1), Some(Tok::P(':'))) {
                self.bump();
                self.bump();
                continue;
            }
            break;
        }
        self.skip_generics();
        if last.is_empty() {
            None
        } else {
            Some(last)
        }
    }

    fn item_fn(&mut self, impl_of: Option<&str>, trait_impl: bool, is_pub: bool) {
        let line = self.line();
        let in_test = self.in_test_here();
        self.bump(); // `fn`
        let Some(name) = self.ident_text().map(str::to_string) else {
            self.recover();
            return;
        };
        self.bump();
        self.skip_generics();
        // Parameters.
        let mut self_param = false;
        let mut params: Vec<(String, TypeRef)> = Vec::new();
        let mut degraded = false;
        if self.is_p('(') {
            self.bump();
            let mut depth = 1i32;
            // Parse comma-separated params at depth 1.
            loop {
                match self.peek() {
                    None => {
                        degraded = true;
                        break;
                    }
                    Some(Tok::P(')')) if depth == 1 => {
                        self.bump();
                        break;
                    }
                    _ => {}
                }
                // One parameter.
                // Strip leading `&`, lifetimes, `mut`.
                while self.is_p('&') {
                    self.bump();
                    if matches!(self.peek(), Some(Tok::Life)) {
                        self.bump();
                    }
                }
                if self.is_ident("mut") {
                    self.bump();
                }
                if self.is_ident("self") {
                    self_param = true;
                    self.bump();
                } else if let Some(pname) = self.ident_text().map(str::to_string) {
                    self.bump();
                    if self.is_p(':') {
                        self.bump();
                        let ty = self.parse_type();
                        params.push((pname, ty));
                    } else if pname == "_" {
                        // `_: T` handled below; bare `_` pattern.
                    }
                } else {
                    // Pattern parameter (tuple/struct destructure) —
                    // skip to the next `,`/`)` at depth 1.
                }
                // Consume to the comma/close at depth 1 (skips
                // whatever the simple parse above didn't: defaulted
                // generic args, fn-pointer types, patterns…).
                loop {
                    match self.peek() {
                        None => {
                            degraded = true;
                            break;
                        }
                        Some(Tok::P('(')) => {
                            self.skip_group('(', ')');
                        }
                        Some(Tok::P('[')) => {
                            self.skip_group('[', ']');
                        }
                        Some(Tok::P('<')) => {
                            self.skip_generics();
                        }
                        Some(Tok::P(',')) => {
                            self.bump();
                            break;
                        }
                        Some(Tok::P(')')) => break,
                        _ => {
                            self.bump();
                        }
                    }
                }
                let _ = depth;
                depth = 1;
                if degraded {
                    break;
                }
            }
        } else {
            degraded = true;
        }
        // Return type.
        if self.is_p('-') && matches!(self.peek_at(1), Some(Tok::P('>'))) {
            self.bump();
            self.bump();
            self.parse_type();
        }
        // `where` clause.
        if self.is_ident("where") {
            while let Some(tok) = self.peek() {
                match tok {
                    Tok::P('{') | Tok::P(';') => break,
                    _ => {
                        self.bump();
                    }
                }
            }
        }
        if self.is_p(';') {
            // Trait-method declaration without a body.
            self.bump();
            return;
        }
        if !self.is_p('{') {
            self.recover();
            return;
        }
        // Body: find the token range of the balanced `{}` group.
        let body_start = self.pos + 1;
        if !self.skip_group('{', '}') {
            degraded = true;
        }
        let body_end = self.pos.saturating_sub(1); // exclusive of `}`
        let body = &self.toks[body_start..body_end.max(body_start)];
        let events = extract_events(body);
        self.out.fns.push(FnDef {
            name,
            line,
            is_pub,
            in_test,
            degraded,
            impl_of: impl_of.map(str::to_string),
            is_trait_impl: trait_impl,
            self_param,
            params,
            events,
        });
    }
}

/// Flatten a fn-body token slice into events. Never fails — anything
/// unshapeable is skipped (and the body stream stays usable);
/// structural breakage (unbalanced groups) was already caught by
/// `skip_group` upstream and recorded on the function.
fn extract_events(body: &[Token]) -> Vec<Event> {
    let mut events = Vec::new();
    let mut i = 0;
    let n = body.len();

    let kind = |j: usize| -> Option<&Tok> { body.get(j).map(|t| &t.kind) };
    let is_p = |j: usize, c: char| matches!(kind(j), Some(Tok::P(p)) if *p == c);

    while i < n {
        match &body[i].kind {
            Tok::Ident(id) => {
                let line = body[i].line;
                // Macro?
                if is_p(i + 1, '!') {
                    events.push(Event::Mac {
                        name: id.clone(),
                        line,
                    });
                    i += 2;
                    continue;
                }
                // `let` binding (simple ident patterns only).
                if id == "let" {
                    if let Some((name, consumed)) = parse_let_head(body, i + 1) {
                        let rhs_at = i + 1 + consumed;
                        let (rhs, _) = parse_rhs(body, rhs_at);
                        events.push(Event::Bind { name, rhs });
                    }
                    i += 1;
                    continue;
                }
                // `for pat in expr` — bind the loop variable to the
                // iterated place's element.
                if id == "for" {
                    if let Some((name, in_at)) = parse_for_head(body, i + 1) {
                        let (rhs, _) = parse_for_rhs(body, in_at);
                        events.push(Event::Bind { name, rhs });
                    }
                    i += 1;
                    continue;
                }
                // Path call or place expression.
                if id == "self" || kind(i).is_some() {
                    let (ev, next) = parse_expr_head(body, i);
                    if let Some(ev) = ev {
                        events.push(ev);
                    }
                    i = next.max(i + 1);
                    continue;
                }
                i += 1;
            }
            Tok::P(')') | Tok::P(']') => {
                // Method call on an opaque receiver: `).unwrap()`.
                if is_p(i + 1, '.') {
                    if let Some(Tok::Ident(m)) = kind(i + 2) {
                        let after = skip_turbofish(body, i + 3);
                        if is_p(after, '(') {
                            events.push(Event::Use {
                                place: Place {
                                    root: Root::Opaque,
                                    path: Vec::new(),
                                },
                                method: Some(m.clone()),
                                lit: first_num_arg(body, after),
                                line: body[i + 2].line,
                            });
                            i = after + 1;
                            continue;
                        }
                    }
                }
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    events
}

/// `let <pat> …`: returns (name, tokens consumed through the pattern)
/// for simple ident patterns (`let x`, `let mut x`); None for
/// destructuring patterns.
fn parse_let_head(body: &[Token], at: usize) -> Option<(String, usize)> {
    let mut j = at;
    if matches!(body.get(j).map(|t| &t.kind), Some(Tok::Ident(i)) if i == "mut") {
        j += 1;
    }
    match body.get(j).map(|t| &t.kind) {
        Some(Tok::Ident(name)) => {
            // `let Some(x)` / `let Ok(x)` / struct patterns are not
            // simple binds.
            match body.get(j + 1).map(|t| &t.kind) {
                Some(Tok::P('(')) | Some(Tok::P('{')) => None,
                _ => Some((name.clone(), j + 1 - at)),
            }
        }
        _ => None,
    }
}

/// After `let name`, parse `: T` and/or `= rhs`.
fn parse_rhs(body: &[Token], at: usize) -> (Rhs, usize) {
    let mut j = at;
    // Type ascription.
    if matches!(body.get(j).map(|t| &t.kind), Some(Tok::P(':'))) {
        // Re-parse the type via a throwaway Parser over the slice.
        let ty = parse_type_at(body, j + 1);
        if let Some((ty, next)) = ty {
            if !ty.is_opaque() {
                return (Rhs::Ty(ty), next);
            }
            j = next;
        }
        // Fall through to `=` scanning.
        while j < body.len() && !matches!(body[j].kind, Tok::P('=') | Tok::P(';')) {
            j += 1;
        }
    }
    if !matches!(body.get(j).map(|t| &t.kind), Some(Tok::P('='))) {
        return (Rhs::Opaque, j);
    }
    j += 1;
    // `&` / `&mut` prefix.
    while matches!(body.get(j).map(|t| &t.kind), Some(Tok::P('&'))) {
        j += 1;
        if matches!(body.get(j).map(|t| &t.kind), Some(Tok::Ident(i)) if i == "mut") {
            j += 1;
        }
    }
    // Place RHS: self.…, or ident place.
    if let Some((place, next)) = parse_place(body, j) {
        // A place followed by `(` is a call, not a place bind; a place
        // followed by `.` method was already stopped at the method.
        let terminated = matches!(
            body.get(next).map(|t| &t.kind),
            Some(Tok::P(';')) | Some(Tok::P(',')) | None
        );
        if terminated && (!place.path.is_empty() || place.root == Root::SelfRoot) {
            return (Rhs::Pl { place, iter: false }, next);
        }
    }
    // Constructor heuristic: `Type::new(` / `Type::default(` /
    // `Type { …`.
    if let Some(Tok::Ident(ty)) = body.get(j).map(|t| &t.kind) {
        if ty.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            if matches!(body.get(j + 1).map(|t| &t.kind), Some(Tok::P(':')))
                && matches!(body.get(j + 2).map(|t| &t.kind), Some(Tok::P(':')))
            {
                if let Some(Tok::Ident(m)) = body.get(j + 3).map(|t| &t.kind) {
                    if (m == "new" || m == "default" || m == "with_capacity")
                        && matches!(body.get(j + 4).map(|t| &t.kind), Some(Tok::P('(')))
                    {
                        return (Rhs::Ctor(ty.clone()), j + 4);
                    }
                }
            }
            if matches!(body.get(j + 1).map(|t| &t.kind), Some(Tok::P('{'))) {
                return (Rhs::Ctor(ty.clone()), j + 1);
            }
        }
    }
    (Rhs::Opaque, j)
}

/// `for <pat> in` → (loop var, index of token after `in`); simple
/// ident patterns only.
fn parse_for_head(body: &[Token], at: usize) -> Option<(String, usize)> {
    let mut j = at;
    if matches!(body.get(j).map(|t| &t.kind), Some(Tok::Ident(i)) if i == "mut") {
        j += 1;
    }
    let Some(Tok::Ident(name)) = body.get(j).map(|t| &t.kind) else {
        return None;
    };
    let name = name.clone();
    j += 1;
    if matches!(body.get(j).map(|t| &t.kind), Some(Tok::Ident(i)) if i == "in") {
        Some((name, j + 1))
    } else {
        None
    }
}

/// RHS of `for x in <expr>`: strip `&`/`&mut`, parse a place, strip a
/// trailing `.iter()`/`.iter_mut()`/`.drain(…)` into the place itself.
fn parse_for_rhs(body: &[Token], at: usize) -> (Rhs, usize) {
    let mut j = at;
    while matches!(body.get(j).map(|t| &t.kind), Some(Tok::P('&'))) {
        j += 1;
        if matches!(body.get(j).map(|t| &t.kind), Some(Tok::Ident(i)) if i == "mut") {
            j += 1;
        }
    }
    if let Some((place, next)) = parse_place(body, j) {
        // Trailing iteration adaptor is fine — the element is still
        // the container's element.
        let mut k = next;
        if matches!(body.get(k).map(|t| &t.kind), Some(Tok::P('.'))) {
            if let Some(Tok::Ident(m)) = body.get(k + 1).map(|t| &t.kind) {
                if matches!(m.as_str(), "iter" | "iter_mut" | "drain" | "into_iter") {
                    k += 2;
                }
            }
        }
        if !place.path.is_empty() || place.root == Root::SelfRoot {
            return (Rhs::Pl { place, iter: true }, k);
        }
    }
    (Rhs::Opaque, j)
}

/// Parse a place expression starting at `at`: `self` / ident root,
/// then `.field`, `.0` (index), `[…]` (index) steps. Stops before a
/// `.method(` (the caller decides what to do with it) and before any
/// other token. Returns the place and the index just past it.
fn parse_place(body: &[Token], at: usize) -> Option<(Place, usize)> {
    let root = match body.get(at).map(|t| &t.kind) {
        Some(Tok::Ident(i)) if i == "self" => Root::SelfRoot,
        Some(Tok::Ident(i)) => Root::Ident(i.clone()),
        _ => return None,
    };
    let mut path = Vec::new();
    let mut j = at + 1;
    loop {
        match body.get(j).map(|t| &t.kind) {
            Some(Tok::P('.')) => {
                match body.get(j + 1).map(|t| &t.kind) {
                    Some(Tok::Ident(f)) => {
                        // `.field(` is a method — stop before the dot.
                        let after = skip_turbofish(body, j + 2);
                        if matches!(body.get(after).map(|t| &t.kind), Some(Tok::P('('))) {
                            return Some((Place { root, path }, j));
                        }
                        path.push(Acc::Field(f.clone()));
                        j += 2;
                    }
                    Some(Tok::Num(_)) => {
                        path.push(Acc::Index);
                        j += 2;
                    }
                    _ => return Some((Place { root, path }, j)),
                }
            }
            Some(Tok::P('[')) => {
                // Skip the index expression (balanced).
                let mut depth = 0i32;
                let mut k = j;
                while k < body.len() {
                    match body[k].kind {
                        Tok::P('[') => depth += 1,
                        Tok::P(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if k >= body.len() {
                    return Some((Place { root, path }, j));
                }
                path.push(Acc::Index);
                j = k + 1;
            }
            _ => return Some((Place { root, path }, j)),
        }
    }
}

/// Skip a `::<…>` turbofish starting at `at`; returns the index after
/// it (or `at` unchanged when there is none).
fn skip_turbofish(body: &[Token], at: usize) -> usize {
    if !matches!(body.get(at).map(|t| &t.kind), Some(Tok::P(':'))) {
        return at;
    }
    if !matches!(body.get(at + 1).map(|t| &t.kind), Some(Tok::P(':'))) {
        return at;
    }
    if !matches!(body.get(at + 2).map(|t| &t.kind), Some(Tok::P('<'))) {
        return at;
    }
    let mut depth = 0i32;
    let mut j = at + 2;
    while j < body.len() {
        match body[j].kind {
            Tok::P('<') => depth += 1,
            // `->` inside Fn(..) -> T bounds does not close a depth.
            Tok::P('>')
                if !matches!(
                    body.get(j.wrapping_sub(1)).map(|t| &t.kind),
                    Some(Tok::P('-'))
                ) =>
            {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    at
}

/// First numeric-literal argument of the call whose `(` sits at `at`;
/// parses hex (`0xCE11`) and decimal with `_` separators.
fn first_num_arg(body: &[Token], at: usize) -> Option<u64> {
    if !matches!(body.get(at).map(|t| &t.kind), Some(Tok::P('('))) {
        return None;
    }
    match body.get(at + 1).map(|t| &t.kind) {
        Some(Tok::Num(text)) => parse_num(text),
        _ => None,
    }
}

/// Parse a numeric literal's text (hex / decimal, `_` separators,
/// type suffixes).
pub fn parse_num(text: &str) -> Option<u64> {
    let t: String = text.chars().filter(|c| *c != '_').collect();
    let t = t
        .trim_end_matches(|c: char| c.is_ascii_alphabetic())
        .to_string();
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        let h: String = hex.chars().filter(|c| c.is_ascii_hexdigit()).collect();
        return u64::from_str_radix(&h, 16).ok();
    }
    t.parse().ok()
}

/// Parse an expression head at `i`: a path call (`a::b::c(`), a
/// place with an optional trailing method call, or nothing
/// interesting. Returns (event, next index).
fn parse_expr_head(body: &[Token], i: usize) -> (Option<Event>, usize) {
    let line = body[i].line;
    // Path call: ident (:: ident)+ (
    if let Some(Tok::Ident(first)) = body.get(i).map(|t| &t.kind) {
        if first != "self" {
            let mut segs = vec![first.clone()];
            let mut j = i + 1;
            while matches!(body.get(j).map(|t| &t.kind), Some(Tok::P(':')))
                && matches!(body.get(j + 1).map(|t| &t.kind), Some(Tok::P(':')))
            {
                // Turbofish in path position: `collect::<Vec<_>>` —
                // treat `::<` as end of path.
                if matches!(body.get(j + 2).map(|t| &t.kind), Some(Tok::P('<'))) {
                    let after = skip_turbofish(body, j);
                    j = after;
                    break;
                }
                match body.get(j + 2).map(|t| &t.kind) {
                    Some(Tok::Ident(seg)) => {
                        segs.push(seg.clone());
                        j += 3;
                    }
                    _ => break,
                }
            }
            // Single-segment calls (`helper(x)`) matter for the taint
            // rules; keyword false-hits (`return (…)`) are harmless
            // because resolution only follows known fn names.
            if !segs.is_empty() && matches!(body.get(j).map(|t| &t.kind), Some(Tok::P('('))) {
                return (Some(Event::Call { path: segs, line }), j + 1);
            }
        }
    }
    // Place (self.…, ident.…) with optional trailing method.
    if let Some((place, next)) = parse_place(body, i) {
        // Method call after the place?
        if matches!(body.get(next).map(|t| &t.kind), Some(Tok::P('.'))) {
            if let Some(Tok::Ident(m)) = body.get(next + 1).map(|t| &t.kind) {
                let after = skip_turbofish(body, next + 2);
                if matches!(body.get(after).map(|t| &t.kind), Some(Tok::P('('))) {
                    let mline = body[next + 1].line;
                    return (
                        Some(Event::Use {
                            place,
                            method: Some(m.clone()),
                            lit: first_num_arg(body, after),
                            line: mline,
                        }),
                        after + 1,
                    );
                }
            }
        }
        // Bare field-access place (no method): only interesting when
        // it has at least one accessor.
        if !place.path.is_empty() {
            return (
                Some(Event::Use {
                    place,
                    method: None,
                    lit: None,
                    line,
                }),
                next,
            );
        }
        return (None, next.max(i + 1));
    }
    (None, i + 1)
}

/// Parse a type at `at` in a token slice (used for `let x: T`).
/// Returns the type and the index after it.
fn parse_type_at(body: &[Token], at: usize) -> Option<(TypeRef, usize)> {
    // Reuse Parser's type machinery via a shim.
    let empty_in_test: Vec<bool> = Vec::new();
    let mut p = Parser {
        toks: body,
        pos: at,
        in_test: &empty_in_test,
        out: ParsedFile::default(),
    };
    let ty = p.parse_type();
    Some((ty, p.pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::mask;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&mask(src))
    }

    #[test]
    fn struct_fields_with_types() {
        let p = parse_src(
            "pub struct FooStage {\n    rng: Rng,\n    flows: Vec<FlowRt>,\n    n: usize,\n}\n",
        );
        assert_eq!(p.structs.len(), 1);
        let s = &p.structs[0];
        assert_eq!(s.name, "FooStage");
        assert_eq!(s.fields.len(), 3);
        assert_eq!(s.fields[0].ty.base, "Rng");
        assert_eq!(s.fields[1].ty.base, "Vec");
        assert_eq!(s.fields[1].ty.elem.as_deref(), Some("FlowRt"));
    }

    #[test]
    fn impl_methods_and_events() {
        let p = parse_src(
            "impl FooStage {\n    pub fn run(&mut self, x: u32) {\n        let v = self.rng.chance(0.5);\n        helper(x);\n        self.buf[i].push(v);\n    }\n}\n",
        );
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "run");
        assert_eq!(f.impl_of.as_deref(), Some("FooStage"));
        assert!(f.self_param);
        assert!(f.is_pub);
        let uses: Vec<_> = f
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Use {
                    place,
                    method: Some(m),
                    ..
                } => Some((place.clone(), m.clone())),
                _ => None,
            })
            .collect();
        assert!(uses.iter().any(|(p, m)| m == "chance"
            && p.root == Root::SelfRoot
            && p.path == vec![Acc::Field("rng".into())]));
        assert!(uses
            .iter()
            .any(|(p, m)| m == "push" && p.path == vec![Acc::Field("buf".into()), Acc::Index]));
        assert!(f.events.iter().any(|e| matches!(
            e,
            Event::Call { path, .. } if path == &vec!["helper".to_string()]
        )));
    }

    #[test]
    fn trait_impl_flag_and_fork_lit() {
        let p = parse_src(
            "impl Stage for PhyTxStage {\n    fn enter(&mut self) {\n        let r = root.fork(0xCE11);\n    }\n}\n",
        );
        let f = &p.fns[0];
        assert!(f.is_trait_impl);
        assert_eq!(f.impl_of.as_deref(), Some("PhyTxStage"));
        let lit = f.events.iter().find_map(|e| match e {
            Event::Use {
                method: Some(m),
                lit,
                ..
            } if m == "fork" => *lit,
            _ => None,
        });
        assert_eq!(lit, Some(0xCE11));
    }

    #[test]
    fn macros_and_opaque_receivers() {
        let p = parse_src(
            "fn f() {\n    panic!(\"boom\");\n    foo().unwrap();\n    bar.get(k).expect(\"x\");\n}\n",
        );
        let f = &p.fns[0];
        let macs: Vec<_> = f
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Mac { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert!(macs.contains(&"panic".to_string()));
        let methods: Vec<_> = f
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Use {
                    method: Some(m), ..
                } => Some(m.clone()),
                _ => None,
            })
            .collect();
        assert!(methods.contains(&"unwrap".to_string()));
        assert!(methods.contains(&"expect".to_string()));
    }

    #[test]
    fn let_and_for_binds() {
        let p = parse_src(
            "fn f(&mut self) {\n    let f2 = &mut self.flows[i];\n    let v: Vec<f64> = xs.collect::<Vec<f64>>();\n    for ue in &mut self.ues {\n        ue.tick();\n    }\n}\n",
        );
        let f = &p.fns[0];
        let binds: Vec<_> = f
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Bind { name, rhs } => Some((name.clone(), rhs.clone())),
                _ => None,
            })
            .collect();
        let (_, rhs) = binds.iter().find(|(n, _)| n == "f2").unwrap();
        match rhs {
            Rhs::Pl { place, iter } => {
                assert!(!iter);
                assert_eq!(place.root, Root::SelfRoot);
                assert_eq!(place.path, vec![Acc::Field("flows".into()), Acc::Index]);
            }
            other => panic!("f2 rhs: {other:?}"),
        }
        let (_, rhs) = binds.iter().find(|(n, _)| n == "v").unwrap();
        match rhs {
            Rhs::Ty(t) => {
                assert_eq!(t.base, "Vec");
                assert_eq!(t.elem.as_deref(), Some("f64"));
            }
            other => panic!("v rhs: {other:?}"),
        }
        let (_, rhs) = binds.iter().find(|(n, _)| n == "ue").unwrap();
        match rhs {
            Rhs::Pl { place, iter } => {
                assert!(iter);
                assert_eq!(place.path, vec![Acc::Field("ues".into())]);
            }
            other => panic!("ue rhs: {other:?}"),
        }
    }

    #[test]
    fn generics_where_clauses_nested_mods_parse() {
        let p = parse_src(
            "mod inner {\n    pub struct W<T: Clone> where T: Default {\n        items: Vec<T>,\n    }\n    impl<T: Clone + Default> W<T> where T: Send {\n        pub fn get(&self, i: usize) -> &T { &self.items[i] }\n    }\n}\n",
        );
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].fields.len(), 1);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].impl_of.as_deref(), Some("W"));
    }

    /// Item-position macro calls — every delimiter, path-qualified,
    /// with braces inside parentheses, at module level and inside an
    /// impl — are opaque items: the neighbours parse undisturbed and
    /// undegraded, with the right impl attribution.
    #[test]
    fn item_position_macro_calls_are_opaque_items() {
        let p = parse_src(
            "snap_fields! { overlay FooStage { a, b: fixed } rebuilt { c } }\n\
             fn first() { work(); }\n\
             outran_simcore::snap_enum!(Ev, \"tag\" { 0 => A { x }, 1 => B(y) });\n\
             thread_local![static X: u8 = 0];\n\
             impl FooStage {\n    lazy! { fn hidden(&self) {} }\n    pub fn run(&mut self) { self.a += 1; }\n}\n\
             fn last() {}\n",
        );
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["first", "run", "last"]);
        assert!(p.fns.iter().all(|f| !f.degraded));
        assert_eq!(p.fns[1].impl_of.as_deref(), Some("FooStage"));
        assert_eq!(p.fns[2].impl_of, None);
    }

    #[test]
    fn unknown_item_is_skipped_without_panicking() {
        let p = parse_src("@@ bizarre token soup {}\nfn ok() { work(); }\n");
        assert!(p.fns.iter().any(|f| f.name == "ok"));
    }
}
