//! Item-level parse of one source file, built on the token stream: fn items
//! with module path, owner type, receiver kind, test scope and the call
//! expressions inside each body, plus struct field types and impl headers —
//! exactly the inputs the cross-crate call-graph resolver ([`crate::graph`])
//! needs.
//!
//! This is a *brace-matched scan*, not a grammar: it recognizes the shapes
//! the graph rules consume (`mod`/`impl`/`trait`/`struct`/`fn` headers,
//! method and path calls, `let`/param type hints) and skips everything else
//! by matching delimiters. Unknown constructs degrade to "no information",
//! never to a parse failure — a linter must not give up on a file it only
//! half-understands.

use crate::lexer::{TokKind, Token};
use crate::rules::SourceFile;

/// How a fn takes its receiver — the signal R1 uses to classify a method as
/// state-mutating (`&mut self`) versus read-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Receiver {
    /// Free function or associated fn without `self`.
    Free,
    /// `&self` (including `&'a self`).
    Ref,
    /// `&mut self`.
    RefMut,
    /// `self` / `mut self` by value.
    Owned,
}

/// Best-effort receiver-type information attached to a method call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hint {
    /// No usable type information; resolve by name only (conservatively).
    None,
    /// The receiver is known (param/`let` annotation, `self`) to be this type.
    Type(String),
    /// The receiver is `self.<field>`; resolve through the owner's fields.
    SelfField(String),
}

/// What a call expression names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `a::b::f(…)` or bare `f(…)` — path segments as written (leading
    /// `crate`/`super`/`self` dropped).
    Path(Vec<String>),
    /// `recv.name(…)` — method syntax, with whatever receiver hint the
    /// scan could recover.
    Method {
        /// The method name.
        name: String,
        /// Receiver-type hint, if any.
        hint: Hint,
    },
}

/// One call expression inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What is being called.
    pub callee: Callee,
    /// 1-based source line of the call.
    pub line: u32,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The fn's name.
    pub name: String,
    /// Impl/trait owner type, if the fn lives in an `impl`/`trait` block.
    pub owner: Option<String>,
    /// In-file module path (names of enclosing `mod` blocks).
    pub module: Vec<String>,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the fn name.
    pub line: u32,
    /// Receiver kind.
    pub receiver: Receiver,
    /// The `fn` token lies in a `#[cfg(test)]` / `#[test]` item or block.
    pub is_test: bool,
    /// Declared `pub` (any visibility restriction counts).
    pub is_pub: bool,
    /// `(name, stripped type)` for each simple `name: Type` parameter.
    pub params: Vec<(String, String)>,
    /// Every call expression found in the body.
    pub calls: Vec<CallSite>,
}

/// A struct definition's field types, for `self.field.method()` resolution.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// `(field, stripped type)` pairs for named fields.
    pub fields: Vec<(String, String)>,
}

/// An `impl` block header.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// The implementing type.
    pub owner: String,
    /// The trait being implemented, for `impl Trait for Type`.
    pub trait_name: Option<String>,
}

/// Everything extracted from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// Workspace-relative path.
    pub file: String,
    /// All fn items (including trait default methods and test fns).
    pub fns: Vec<FnItem>,
    /// All struct definitions with named fields.
    pub structs: Vec<StructDef>,
    /// All impl headers.
    pub impls: Vec<ImplDef>,
}

/// Wrapper types that are resolution-transparent: a method call through
/// `Arc<T>` etc. usually lands on `T`. `Option` is included heuristically —
/// it trades a little hint precision for resolving the common
/// `if let Some(x) = self.field` access pattern's origin type.
const TYPE_WRAPPERS: [&str; 6] = ["Arc", "Rc", "Box", "RefCell", "Cell", "Option"];

/// Idents that can never be a call name.
const KEYWORDS: [&str; 31] = [
    "if", "else", "match", "while", "for", "loop", "return", "let", "fn", "in", "as", "move",
    "mut", "ref", "use", "where", "impl", "pub", "unsafe", "async", "await", "dyn", "break",
    "continue", "struct", "enum", "trait", "type", "const", "static", "crate",
];

/// Parse one lexed file into its items. Never fails; whatever the scan
/// cannot classify is skipped.
pub(crate) fn parse(file: &SourceFile) -> FileItems {
    let mut p = Parser {
        file,
        t: &file.toks,
        i: 0,
        out: FileItems {
            file: file.rel.clone(),
            ..FileItems::default()
        },
        module: Vec::new(),
    };
    p.parse_items(None);
    p.out
}

struct Parser<'a> {
    file: &'a SourceFile,
    t: &'a [Token],
    i: usize,
    out: FileItems,
    module: Vec<String>,
}

impl Parser<'_> {
    fn peek(&self, ahead: usize) -> Option<&Token> {
        self.t.get(self.i + ahead)
    }

    fn ident_text(&self, ahead: usize) -> Option<&str> {
        self.peek(ahead)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    }

    /// Skip a balanced `open … close` group starting at the current token
    /// (which must be `open`); positions after the matching close.
    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 0i32;
        while let Some(tok) = self.peek(0) {
            if tok.is_punct(open) {
                depth += 1;
            } else if tok.is_punct(close) {
                depth -= 1;
                if depth <= 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Skip generic arguments `<…>` starting at the current `<`. Angle
    /// brackets only need to balance against themselves here: this is only
    /// called in type/generic position, where `<`/`>` cannot be comparisons.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while let Some(tok) = self.peek(0) {
            if tok.is_punct('<') {
                depth += 1;
            } else if tok.is_punct('>') {
                depth -= 1;
                if depth <= 0 {
                    self.i += 1;
                    return;
                }
            } else if tok.is_punct('(') {
                self.skip_balanced('(', ')');
                continue;
            } else if tok.is_punct(';') || tok.is_punct('{') {
                return; // malformed; bail without consuming
            }
            self.i += 1;
        }
    }

    /// Skip to just past the next `;` at delimiter depth 0 (brace blocks in
    /// initializers are matched through).
    fn skip_to_semi(&mut self) {
        let mut depth = 0i32;
        while let Some(tok) = self.peek(0) {
            if tok.is_punct('(') || tok.is_punct('[') || tok.is_punct('{') {
                depth += 1;
            } else if tok.is_punct(')') || tok.is_punct(']') || tok.is_punct('}') {
                if depth == 0 {
                    return; // ran past the item level; let the caller see `}`
                }
                depth -= 1;
            } else if tok.is_punct(';') && depth == 0 {
                self.i += 1;
                return;
            }
            self.i += 1;
        }
    }

    /// Skip an attribute `#[…]` / `#![…]` whose `#` is current. Test scope
    /// is not read here: [`SourceFile::in_test`] holds it.
    fn skip_attr(&mut self) {
        self.i += 1; // '#'
        if self.peek(0).is_some_and(|t| t.is_punct('!')) {
            self.i += 1;
        }
        if self.peek(0).is_some_and(|t| t.is_punct('[')) {
            self.skip_balanced('[', ']');
        }
    }

    /// Parse items until EOF or until the `}` closing this level is consumed.
    fn parse_items(&mut self, owner: Option<&str>) {
        let mut pending_pub = false;
        while let Some(tok) = self.peek(0) {
            if tok.is_punct('}') {
                self.i += 1;
                return;
            }
            if tok.is_punct('#') {
                self.skip_attr();
                continue;
            }
            if tok.is_punct(';') {
                self.i += 1;
                continue;
            }
            if tok.kind != TokKind::Ident {
                if tok.is_punct('{') {
                    self.skip_balanced('{', '}');
                } else {
                    self.i += 1;
                }
                continue;
            }
            match tok.text.as_str() {
                "pub" => {
                    pending_pub = true;
                    self.i += 1;
                    if self.peek(0).is_some_and(|t| t.is_punct('(')) {
                        self.skip_balanced('(', ')');
                    }
                }
                "unsafe" | "async" | "default" => self.i += 1,
                "const" | "static" => {
                    // `const fn` is a modifier; `const NAME: …;` is an item.
                    if self.ident_text(1) == Some("fn") {
                        self.i += 1;
                    } else {
                        self.skip_to_semi();
                        pending_pub = false;
                    }
                }
                "extern" => {
                    self.i += 1;
                    if self.peek(0).is_some_and(|t| t.kind == TokKind::Str) {
                        self.i += 1;
                    }
                    if self.ident_text(0) != Some("fn") {
                        self.skip_to_semi();
                        pending_pub = false;
                    }
                }
                "use" | "type" => {
                    self.skip_to_semi();
                    pending_pub = false;
                }
                "mod" => {
                    let name = self.ident_text(1).unwrap_or("").to_string();
                    self.i += 2;
                    if self.peek(0).is_some_and(|t| t.is_punct('{')) {
                        self.i += 1;
                        self.module.push(name);
                        self.parse_items(None);
                        self.module.pop();
                    } else {
                        self.skip_to_semi();
                    }
                    pending_pub = false;
                }
                "impl" => {
                    self.parse_impl();
                    pending_pub = false;
                }
                "trait" => {
                    self.i += 1;
                    let name = self.ident_text(0).unwrap_or("").to_string();
                    self.i += 1;
                    self.scan_to_body_or_semi();
                    if self.peek(0).is_some_and(|t| t.is_punct('{')) {
                        self.i += 1;
                        self.parse_items(Some(&name));
                    }
                    pending_pub = false;
                }
                "struct" => {
                    self.parse_struct();
                    pending_pub = false;
                }
                "enum" | "union" => {
                    self.i += 1;
                    self.scan_to_body_or_semi();
                    if self.peek(0).is_some_and(|t| t.is_punct('{')) {
                        self.skip_balanced('{', '}');
                    }
                    pending_pub = false;
                }
                "fn" => {
                    self.parse_fn(owner, pending_pub);
                    pending_pub = false;
                }
                "macro_rules" => {
                    self.i += 1; // name follows `!`
                    while let Some(t) = self.peek(0) {
                        if t.is_punct('{') {
                            self.skip_balanced('{', '}');
                            break;
                        }
                        if t.is_punct('(') {
                            self.skip_balanced('(', ')');
                            break;
                        }
                        self.i += 1;
                    }
                    pending_pub = false;
                }
                _ => self.i += 1,
            }
        }
    }

    /// Advance to the next `{` (body) or `;` at delimiter depth 0, without
    /// consuming it. Parens/brackets in bounds and where-clauses are
    /// matched through; `<…>` generics are angle-balanced.
    fn scan_to_body_or_semi(&mut self) {
        while let Some(tok) = self.peek(0) {
            if tok.is_punct('{') || tok.is_punct(';') || tok.is_punct('}') {
                return;
            }
            if tok.is_punct('(') {
                self.skip_balanced('(', ')');
                continue;
            }
            if tok.is_punct('[') {
                self.skip_balanced('[', ']');
                continue;
            }
            if tok.is_punct('<') {
                self.skip_angles();
                continue;
            }
            self.i += 1;
        }
    }

    /// `impl[<…>] Type {` / `impl[<…>] Trait for Type {`.
    fn parse_impl(&mut self) {
        self.i += 1; // 'impl'
        if self.peek(0).is_some_and(|t| t.is_punct('<')) {
            self.skip_angles();
        }
        let first = self.scan_type_path();
        let (owner, trait_name) = if self.ident_text(0) == Some("for") {
            self.i += 1;
            (self.scan_type_path(), first)
        } else {
            (first, None)
        };
        self.scan_to_body_or_semi();
        let owner = owner.unwrap_or_default();
        if !self.peek(0).is_some_and(|t| t.is_punct('{')) {
            return;
        }
        self.i += 1;
        if !owner.is_empty() {
            self.out.impls.push(ImplDef {
                owner: owner.clone(),
                trait_name,
            });
        }
        let owner_ref = if owner.is_empty() {
            None
        } else {
            Some(owner.as_str())
        };
        self.parse_items(owner_ref);
    }

    /// Read one type path in impl-header position (`fmt::Display`,
    /// `SimFs<T>`, `&'a ViewRegistry`), returning its last path ident.
    /// Stops before `for`/`where`/`{`/`;`.
    fn scan_type_path(&mut self) -> Option<String> {
        let mut last = None;
        while let Some(tok) = self.peek(0) {
            if tok.is_punct('{') || tok.is_punct(';') || tok.is_punct('}') {
                break;
            }
            if tok.kind == TokKind::Ident {
                match tok.text.as_str() {
                    "for" | "where" => break,
                    "dyn" | "mut" => {
                        self.i += 1;
                        continue;
                    }
                    _ => {
                        last = Some(tok.text.clone());
                        self.i += 1;
                        continue;
                    }
                }
            }
            if tok.is_punct('<') {
                self.skip_angles();
                continue;
            }
            if tok.is_punct('&') || tok.kind == TokKind::Lifetime || tok.is_punct(':') {
                self.i += 1;
                continue;
            }
            if tok.is_punct('(') {
                self.skip_balanced('(', ')');
                continue;
            }
            break;
        }
        last
    }

    /// `struct Name { fields }` / `struct Name(…);` / `struct Name;`.
    fn parse_struct(&mut self) {
        self.i += 1; // 'struct'
        let Some(name) = self.ident_text(0).map(str::to_string) else {
            return;
        };
        self.i += 1;
        self.scan_to_body_or_semi();
        let mut def = StructDef {
            name,
            fields: Vec::new(),
        };
        if self.peek(0).is_some_and(|t| t.is_punct('{')) {
            self.i += 1;
            loop {
                // One field: [#[…]] [pub[(…)]] name : Type ,
                while self.peek(0).is_some_and(|t| t.is_punct('#')) {
                    self.skip_attr();
                }
                if self.ident_text(0) == Some("pub") {
                    self.i += 1;
                    if self.peek(0).is_some_and(|t| t.is_punct('(')) {
                        self.skip_balanced('(', ')');
                    }
                }
                let Some(tok) = self.peek(0) else { break };
                if tok.is_punct('}') {
                    self.i += 1;
                    break;
                }
                if tok.kind == TokKind::Ident && self.peek(1).is_some_and(|t| t.is_punct(':')) {
                    let fname = tok.text.clone();
                    self.i += 2;
                    let ty_start = self.i;
                    // Type runs to the `,` or `}` at depth 0.
                    let mut depth = 0i32;
                    while let Some(t) = self.peek(0) {
                        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                            depth += 1;
                        } else if t.is_punct(')') || t.is_punct(']') {
                            depth -= 1;
                        } else if t.is_punct('<') {
                            self.skip_angles();
                            continue;
                        } else if t.is_punct('}') {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        } else if t.is_punct(',') && depth == 0 {
                            break;
                        }
                        self.i += 1;
                    }
                    if let Some(ty) = strip_type(&self.t[ty_start..self.i]) {
                        def.fields.push((fname, ty));
                    }
                    if self.peek(0).is_some_and(|t| t.is_punct(',')) {
                        self.i += 1;
                    }
                } else {
                    self.i += 1;
                }
            }
        }
        self.out.structs.push(def);
    }

    /// `fn name[<…>](params) [-> …] [where …] { body }`.
    fn parse_fn(&mut self, owner: Option<&str>, is_pub: bool) {
        let is_test = self.file.in_test(self.i);
        self.i += 1; // 'fn'
        let Some(name_tok) = self.peek(0).filter(|t| t.kind == TokKind::Ident) else {
            return;
        };
        let name = name_tok.text.clone();
        let line = name_tok.line;
        self.i += 1;
        if self.peek(0).is_some_and(|t| t.is_punct('<')) {
            self.skip_angles();
        }
        if !self.peek(0).is_some_and(|t| t.is_punct('(')) {
            return;
        }
        // Parameter list: split on `,` at depth 0 inside the parens.
        let params_start = self.i + 1;
        self.skip_balanced('(', ')');
        let params_end = self.i - 1;
        let mut runs: Vec<&[Token]> = Vec::new();
        {
            let toks = &self.t[params_start..params_end];
            let mut depth = 0i32;
            let mut start = 0usize;
            let mut k = 0usize;
            while k < toks.len() {
                let t = &toks[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if t.is_punct('<') {
                    // Angle-skip inline: advance past the balanced group.
                    let mut a = 0i32;
                    while k < toks.len() {
                        if toks[k].is_punct('<') {
                            a += 1;
                        } else if toks[k].is_punct('>') {
                            a -= 1;
                            if a <= 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                } else if t.is_punct(',') && depth == 0 {
                    runs.push(&toks[start..k]);
                    start = k + 1;
                }
                k += 1;
            }
            if start < toks.len() {
                runs.push(&toks[start..]);
            }
        }
        let mut receiver = Receiver::Free;
        let mut params: Vec<(String, String)> = Vec::new();
        for (ri, run) in runs.iter().enumerate() {
            if ri == 0 && run.iter().any(|t| t.is_ident("self")) {
                let has_amp = run.iter().any(|t| t.is_punct('&'));
                let has_mut = run
                    .iter()
                    .take_while(|t| !t.is_ident("self"))
                    .any(|t| t.is_ident("mut"));
                receiver = match (has_amp, has_mut) {
                    (true, true) => Receiver::RefMut,
                    (true, false) => Receiver::Ref,
                    (false, _) => Receiver::Owned,
                };
                continue;
            }
            // `[mut] name : Type` — anything fancier is skipped.
            let mut k = 0usize;
            if run.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            let (Some(n), Some(c)) = (run.get(k), run.get(k + 1)) else {
                continue;
            };
            if n.kind == TokKind::Ident
                && c.is_punct(':')
                && !run.get(k + 2).is_some_and(|t| t.is_punct(':'))
            {
                if let Some(ty) = strip_type(&run[k + 2..]) {
                    params.push((n.text.clone(), ty));
                }
            }
        }
        // Find the body `{` (or a `;` for a bodyless signature). The return
        // type passes through at paren/bracket depth 0; `{` in const-generic
        // positions sits inside brackets, so depth keeps this honest.
        let mut depth = 0i32;
        let mut has_body = false;
        while let Some(tok) = self.peek(0) {
            if tok.is_punct('(') || tok.is_punct('[') {
                depth += 1;
            } else if tok.is_punct(')') || tok.is_punct(']') {
                depth -= 1;
            } else if tok.is_punct(';') && depth <= 0 {
                self.i += 1;
                break;
            } else if tok.is_punct('{') && depth <= 0 {
                has_body = true;
                break;
            }
            self.i += 1;
        }
        let mut item = FnItem {
            name,
            owner: owner.map(str::to_string),
            module: self.module.clone(),
            file: self.out.file.clone(),
            line,
            receiver,
            is_test,
            is_pub,
            params,
            calls: Vec::new(),
        };
        if has_body {
            self.i += 1; // body '{'
            self.scan_body(&mut item);
        }
        self.out.fns.push(item);
    }

    /// Walk a fn body collecting call sites and `let` type hints; consumes
    /// up to and including the matching `}`.
    fn scan_body(&mut self, item: &mut FnItem) {
        let mut hints: Vec<(String, String)> = item.params.clone();
        let mut depth = 1i32;
        while let Some(tok) = self.peek(0) {
            if tok.is_punct('{') {
                depth += 1;
                self.i += 1;
                continue;
            }
            if tok.is_punct('}') {
                depth -= 1;
                self.i += 1;
                if depth == 0 {
                    return;
                }
                continue;
            }
            if tok.kind != TokKind::Ident {
                self.i += 1;
                continue;
            }
            // `let [mut] x : Type` / `let [mut] x = Type::…` hints.
            if tok.is_ident("let") {
                let mut k = self.i + 1;
                if self.t.get(k).is_some_and(|t| t.is_ident("mut")) {
                    k += 1;
                }
                if let Some(n) = self.t.get(k).filter(|t| t.kind == TokKind::Ident) {
                    let n = n.text.clone();
                    if self.t.get(k + 1).is_some_and(|t| t.is_punct(':'))
                        && !self.t.get(k + 2).is_some_and(|t| t.is_punct(':'))
                    {
                        // Type tokens to `=` or `;` at depth 0.
                        let ty_start = k + 2;
                        let mut e = ty_start;
                        let mut d = 0i32;
                        while let Some(t) = self.t.get(e) {
                            if t.is_punct('<') {
                                d += 1;
                            } else if t.is_punct('>') {
                                d -= 1;
                            } else if (t.is_punct('=') || t.is_punct(';')) && d <= 0 {
                                break;
                            }
                            e += 1;
                        }
                        if let Some(ty) = strip_type(&self.t[ty_start..e]) {
                            upsert(&mut hints, n, ty);
                        }
                    } else if self.t.get(k + 1).is_some_and(|t| t.is_punct('='))
                        && self.t.get(k + 3).is_some_and(|t| t.is_punct(':'))
                        && self.t.get(k + 4).is_some_and(|t| t.is_punct(':'))
                    {
                        if let Some(ty) = self.t.get(k + 2).filter(|t| {
                            t.kind == TokKind::Ident
                                && t.text.chars().next().is_some_and(char::is_uppercase)
                        }) {
                            upsert(&mut hints, n, ty.text.clone());
                        }
                    }
                }
                self.i += 1;
                continue;
            }
            if KEYWORDS.contains(&tok.text.as_str()) || tok.is_ident("self") {
                self.i += 1;
                continue;
            }
            // Call detection: `name(` possibly with a `::<…>` turbofish.
            let mut j = self.i + 1;
            if self.t.get(j).is_some_and(|t| t.is_punct('!')) {
                self.i += 1; // macro, not a call
                continue;
            }
            if self.t.get(j).is_some_and(|t| t.is_punct(':'))
                && self.t.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && self.t.get(j + 2).is_some_and(|t| t.is_punct('<'))
            {
                let mut d = 0i32;
                let mut k = j + 2;
                while let Some(t) = self.t.get(k) {
                    if t.is_punct('<') {
                        d += 1;
                    } else if t.is_punct('>') {
                        d -= 1;
                        if d == 0 {
                            k += 1;
                            break;
                        }
                    }
                    k += 1;
                }
                j = k;
            }
            if !self.t.get(j).is_some_and(|t| t.is_punct('(')) {
                self.i += 1;
                continue;
            }
            if self.i >= 1 && self.t[self.i - 1].is_ident("fn") {
                self.i += 1; // nested fn definition header
                continue;
            }
            let call = self.classify_call(item, &hints);
            if let Some(c) = call {
                item.calls.push(c);
            }
            self.i += 1;
        }
    }

    /// Classify the call whose name ident is at `self.i`.
    fn classify_call(&self, item: &FnItem, hints: &[(String, String)]) -> Option<CallSite> {
        let name_tok = &self.t[self.i];
        let name = name_tok.text.clone();
        let line = name_tok.line;
        let i = self.i;
        let prev = i.checked_sub(1).map(|k| &self.t[k]);
        if prev.is_some_and(|p| p.is_punct('.')) {
            // Method call: recover a receiver hint from the token before `.`.
            let hint = match i.checked_sub(2).map(|k| &self.t[k]) {
                Some(r) if r.is_ident("self") => match &item.owner {
                    Some(o) => Hint::Type(o.clone()),
                    None => Hint::None,
                },
                Some(r) if r.kind == TokKind::Ident => {
                    let is_self_field =
                        i >= 4 && self.t[i - 3].is_punct('.') && self.t[i - 4].is_ident("self");
                    if is_self_field {
                        Hint::SelfField(r.text.clone())
                    } else if let Some((_, ty)) = hints.iter().find(|(n, _)| n == &r.text) {
                        Hint::Type(ty.clone())
                    } else {
                        Hint::None
                    }
                }
                _ => Hint::None,
            };
            return Some(CallSite {
                callee: Callee::Method { name, hint },
                line,
            });
        }
        // Path call: walk back over `seg::seg::` prefixes.
        let mut segs = vec![name];
        let mut k = i;
        while k >= 3
            && self.t[k - 1].is_punct(':')
            && self.t[k - 2].is_punct(':')
            && self.t[k - 3].kind == TokKind::Ident
        {
            segs.insert(0, self.t[k - 3].text.clone());
            k -= 3;
        }
        while matches!(
            segs.first().map(String::as_str),
            Some("crate" | "super" | "self")
        ) {
            segs.remove(0);
        }
        if segs.is_empty() {
            return None;
        }
        // `Self::assoc(…)` resolves through the impl owner.
        if segs.len() == 2 && segs[0] == "Self" {
            if let Some(o) = &item.owner {
                return Some(CallSite {
                    callee: Callee::Method {
                        name: segs[1].clone(),
                        hint: Hint::Type(o.clone()),
                    },
                    line,
                });
            }
        }
        Some(CallSite {
            callee: Callee::Path(segs),
            line,
        })
    }
}

fn upsert(hints: &mut Vec<(String, String)>, name: String, ty: String) {
    if let Some(h) = hints.iter_mut().find(|(n, _)| n == &name) {
        h.1 = ty;
    } else {
        hints.push((name, ty));
    }
}

/// Reduce a type token run to its load-bearing ident: strip references,
/// lifetimes, `mut`/`dyn`/`impl`, unwrap transparent wrappers
/// ([`TYPE_WRAPPERS`]), and take the last segment of a path. `Arc<SimFs<T>>`
/// → `SimFs`, `&'a dyn ExecutionBackend` → `ExecutionBackend`.
pub fn strip_type(toks: &[Token]) -> Option<String> {
    let mut i = 0usize;
    loop {
        let tok = toks.get(i)?;
        if tok.is_punct('&') || tok.is_punct('*') || tok.is_punct('(') {
            i += 1;
            continue;
        }
        if tok.kind == TokKind::Lifetime {
            i += 1;
            continue;
        }
        if tok.kind != TokKind::Ident {
            return None;
        }
        match tok.text.as_str() {
            "mut" | "dyn" | "impl" | "const" => {
                i += 1;
                continue;
            }
            name => {
                if TYPE_WRAPPERS.contains(&name) && toks.get(i + 1).is_some_and(|t| t.is_punct('<'))
                {
                    i += 2; // descend into the wrapper's argument
                    continue;
                }
                // Path: follow `::` to the last segment.
                let mut out = name;
                let mut j = i + 1;
                while toks.get(j).is_some_and(|t| t.is_punct(':'))
                    && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident)
                {
                    out = &toks[j + 2].text;
                    j += 3;
                }
                // A wrapper at the end of a path (`std::sync::Arc<T>`).
                if TYPE_WRAPPERS.contains(&out) && toks.get(j).is_some_and(|t| t.is_punct('<')) {
                    i = j + 1;
                    continue;
                }
                return Some(out.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileItems {
        super::parse(&SourceFile::new("crates/core/src/x.rs", src))
    }

    #[test]
    fn fn_receivers_and_visibility() {
        let f = parse(
            "impl Foo {\n\
             pub fn a(&self) {}\n\
             fn b(&mut self, n: u32) {}\n\
             pub(crate) fn c(self) {}\n\
             fn d(x: &Bar) {}\n\
             }",
        );
        let by = |n: &str| f.fns.iter().find(|f| f.name == n).expect("fn present");
        assert_eq!(by("a").receiver, Receiver::Ref);
        assert!(by("a").is_pub);
        assert_eq!(by("b").receiver, Receiver::RefMut);
        assert_eq!(by("c").receiver, Receiver::Owned);
        assert!(by("c").is_pub);
        assert_eq!(by("d").receiver, Receiver::Free);
        assert_eq!(by("d").params, vec![("x".to_string(), "Bar".to_string())]);
        assert_eq!(by("a").owner.as_deref(), Some("Foo"));
    }

    #[test]
    fn impl_trait_for_type_and_modules() {
        let f = parse(
            "mod inner {\n\
             impl<'a> Iterator for FragIter<'a> { fn next(&mut self) {} }\n\
             }",
        );
        assert_eq!(f.impls[0].owner, "FragIter");
        assert_eq!(f.impls[0].trait_name.as_deref(), Some("Iterator"));
        assert_eq!(f.fns[0].module, vec!["inner".to_string()]);
        assert_eq!(f.fns[0].owner.as_deref(), Some("FragIter"));
    }

    #[test]
    fn struct_fields_strip_wrappers() {
        let f = parse(
            "struct S {\n\
             pub a: Arc<SimFs<Table>>,\n\
             b: &'a dyn ExecutionBackend,\n\
             c: Option<Box<Cluster>>,\n\
             d: std::sync::Arc<Journal<R, S>>,\n\
             }",
        );
        let s = &f.structs[0];
        let get = |n: &str| {
            s.fields
                .iter()
                .find(|(f, _)| f == n)
                .map(|(_, t)| t.as_str())
        };
        assert_eq!(get("a"), Some("SimFs"));
        assert_eq!(get("b"), Some("ExecutionBackend"));
        assert_eq!(get("c"), Some("Cluster"));
        assert_eq!(get("d"), Some("Journal"));
    }

    #[test]
    fn call_sites_classify_methods_and_paths() {
        let f = parse(
            "impl Foo {\n\
             fn go(&self, reg: &ViewRegistry) {\n\
             self.step();\n\
             self.registry.track(1);\n\
             reg.view_mut(0);\n\
             helper(2);\n\
             crate::util::helper2();\n\
             let c: Catalog = make();\n\
             c.stats();\n\
             items.len();\n\
             }\n\
             }",
        );
        let calls = &f.fns[0].calls;
        let find = |n: &str| {
            calls
                .iter()
                .find(|c| match &c.callee {
                    Callee::Method { name, .. } => name == n,
                    Callee::Path(p) => p.last().map(String::as_str) == Some(n),
                })
                .expect("call present")
        };
        assert_eq!(
            find("step").callee,
            Callee::Method {
                name: "step".into(),
                hint: Hint::Type("Foo".into())
            }
        );
        assert_eq!(
            find("track").callee,
            Callee::Method {
                name: "track".into(),
                hint: Hint::SelfField("registry".into())
            }
        );
        assert_eq!(
            find("view_mut").callee,
            Callee::Method {
                name: "view_mut".into(),
                hint: Hint::Type("ViewRegistry".into())
            }
        );
        assert_eq!(find("helper").callee, Callee::Path(vec!["helper".into()]));
        assert_eq!(
            find("helper2").callee,
            Callee::Path(vec!["util".into(), "helper2".into()])
        );
        assert_eq!(
            find("stats").callee,
            Callee::Method {
                name: "stats".into(),
                hint: Hint::Type("Catalog".into())
            }
        );
        assert_eq!(
            find("len").callee,
            Callee::Method {
                name: "len".into(),
                hint: Hint::None
            }
        );
    }

    #[test]
    fn cfg_test_scope_marks_fns() {
        let f = parse(
            "fn prod() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
             #[test]\n\
             fn t() { prod(); }\n\
             }",
        );
        assert!(
            !f.fns
                .iter()
                .find(|f| f.name == "prod")
                .expect("prod")
                .is_test
        );
        assert!(f.fns.iter().find(|f| f.name == "t").expect("t").is_test);
    }

    #[test]
    fn turbofish_call_and_macros_are_handled() {
        let f = parse(
            "fn go() {\n\
             parse::<u32>(s);\n\
             format!(\"{}\", x);\n\
             }",
        );
        let calls = &f.fns[0].calls;
        assert_eq!(calls.len(), 1, "macro is not a call: {calls:?}");
        assert_eq!(calls[0].callee, Callee::Path(vec!["parse".into()]));
    }
}
