//! The per-file structural model, built in one pass over the token stream.
//!
//! [`FileModel::build`] lexes one file ([`crate::lexer`]) and walks its
//! tokens once, with a brace stack in place of a grammar. The walk yields
//! every fact the rules query:
//!
//! - test-only byte spans (`#[cfg(test)]` items and `#[test]` functions),
//!   inner attributes (`#![...]`), and the
//!   `// bmf-lint: allow(<rule>) -- <reason>` suppression comments;
//! - every non-test `fn` item with a body, as an [`FnItem`]: name,
//!   visibility, `-> Result`, `f64` in the signature, body span,
//!   qualified id inside its `mod`/`impl`/`trait` scopes, and the
//!   token-ordered calls, sinks and VFS operations of its body.
//!
//! This is deliberately *not* a Rust parser. Item headers are read by a
//! short lookahead from their keyword to their opening brace, and
//! anything the walk cannot classify is dropped, never guessed, so the
//! call graph built from the items is conservative by construction (see
//! `DESIGN.md` §16 for the soundness stance).

use crate::lexer::{lex, Token, TokenKind};
use crate::SourceFile;
use std::cell::Cell;
use std::ops::Range;

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `foo(..)` or `a::b::foo(..)` — normalized path segments, last one
    /// the function name. `crate`/`self`/`super` prefixes are stripped
    /// and `bmf_x` crate roots are rewritten to the short crate name
    /// used by [`crate::rules::crate_of`].
    Path(Vec<String>),
    /// `.foo(..)` — a method call resolved by name (and, when the
    /// receiver is literally `self`, by the surrounding impl type).
    Method {
        /// The method name.
        name: String,
        /// True when the receiver token is exactly `self`.
        on_self: bool,
    },
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What is being called.
    pub callee: Callee,
    /// 1-based line of the callee token.
    pub line: u32,
    /// Code-index of the callee token — call sites, sinks, and VFS ops
    /// within one function are ordered by this.
    pub ci: usize,
}

/// The kind of a sink construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// `panic!`-family macros and `.unwrap()`/`.expect()`.
    Panic,
    /// Allocating constructs: `Vec::new`, `vec!`, `.to_vec()`, `.push()`, ...
    Alloc,
}

/// One sink occurrence inside a function body. Sinks are recorded
/// unconditionally; the reachability rules skip the suppressed ones.
#[derive(Debug, Clone)]
pub struct Sink {
    /// What kind of sink.
    pub kind: SinkKind,
    /// Short description for messages, e.g. "`.unwrap()`".
    pub what: String,
    /// 1-based line of the sink token.
    pub line: u32,
    /// 1-based column of the sink token.
    pub col: u32,
    /// Code-index of the sink token.
    pub ci: usize,
}

/// One VFS operation (`...vfs.<op>(<arg>, ..)`) inside a function body.
#[derive(Debug, Clone)]
pub struct VfsOp {
    /// The operation name: `write`, `append`, `sync_file`, `sync_dir`,
    /// `rename`, `remove`, ...
    pub op: String,
    /// The identifier at the head of the first argument (`&tmp` → `tmp`),
    /// or `""` when the argument is not a simple binding.
    pub arg: String,
    /// 1-based line of the operation token.
    pub line: u32,
    /// Code-index of the operation token.
    pub ci: usize,
}

/// One non-test function item with a body.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// The bare function name.
    pub name: String,
    /// The `impl`/`trait` type the function is defined on, or `""` for a
    /// free function.
    pub self_ty: String,
    /// Fully qualified id: `crate::module[::Type]::name`.
    pub qualified: String,
    /// Short crate name (`core`, `linalg`, `root`, ...).
    pub krate: String,
    /// Whether the function is `pub` (bare `pub` only; restricted
    /// visibility sits behind an already-checked boundary).
    pub is_pub: bool,
    /// Whether the return type mentions `Result`.
    pub returns_result: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the signature mentions `f64` (gates arithmetic events in
    /// the screening rule: integer bookkeeping is not "math").
    pub sig_f64: bool,
    /// Every call site in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Every sink construct in the body, in source order.
    pub sinks: Vec<Sink>,
    /// Every VFS operation in the body, in source order.
    pub vfs_ops: Vec<VfsOp>,
    /// Code-index of the first binary arithmetic operator in the body.
    pub first_math_ci: Option<usize>,
    /// Byte range of the body, braces included.
    pub body: (usize, usize),
}

/// One inline suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule name inside `allow(...)`.
    pub rule: String,
    /// 1-based line the comment sits on. The suppression applies to
    /// findings on this line (trailing comment) and the next line
    /// (comment above the offending statement).
    pub line: u32,
}

/// A suppression comment that does not follow the required
/// `bmf-lint: allow(<rule>) -- <reason>` shape (most commonly: a missing
/// reason string). These become findings of their own.
#[derive(Debug, Clone)]
pub struct MalformedSuppression {
    /// 1-based line of the malformed comment.
    pub line: u32,
    /// 1-based column of the comment.
    pub col: u32,
    /// Why the comment was rejected.
    pub problem: String,
}

/// Everything the rules need to know about one file.
#[derive(Debug)]
pub struct FileModel {
    /// The file's path label and text.
    pub source: SourceFile,
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` items or `#[test]` functions.
    pub test_spans: Vec<(usize, usize)>,
    /// Inner attributes (`#![...]`), rendered with their tokens joined
    /// without whitespace, e.g. `forbid(unsafe_code)`.
    pub inner_attrs: Vec<String>,
    /// Well-formed inline suppressions.
    pub suppressions: Vec<Suppression>,
    /// The index of one suppression [`FileModel::suppressed`] leaves
    /// out, so the dead-suppression check can rerun a rule without it.
    pub ignored: Cell<Option<usize>>,
    /// Ill-formed inline suppressions (reported as findings).
    pub malformed: Vec<MalformedSuppression>,
    /// Where this file's fn items sit in the item list passed to
    /// [`FileModel::build`] (the call graph's node list), in order of
    /// their body's opening brace.
    pub fns: Range<usize>,
}

/// Keywords that can precede `(` without being a call.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "clone", "collect", "push"];
const VFS_OPS: &[&str] = &[
    "write",
    "append",
    "read",
    "sync_file",
    "sync_dir",
    "rename",
    "remove",
    "exists",
    "list",
    "len",
    "create_dir_all",
];

impl FileModel {
    /// Builds the model for one file, appending its fn items to `items`.
    pub fn build(source: SourceFile, items: &mut Vec<FnItem>) -> FileModel {
        let tokens = lex(&source.text);
        let code = (0..tokens.len())
            .filter(|&i| !is_comment(&tokens[i]))
            .collect();
        let start = items.len();
        let mut model = FileModel {
            source,
            tokens,
            code,
            test_spans: Vec::new(),
            inner_attrs: Vec::new(),
            suppressions: Vec::new(),
            ignored: Cell::new(None),
            malformed: Vec::new(),
            fns: start..start,
        };
        let Walk {
            test_spans,
            inner_attrs,
            suppressions,
            malformed,
            ..
        } = Walk::run(&model, items);
        model.test_spans = test_spans;
        model.inner_attrs = inner_attrs;
        model.suppressions = suppressions;
        model.malformed = malformed;
        model.fns.end = items.len();
        model
    }

    /// True when the byte offset falls inside test-only code.
    pub fn in_test(&self, byte: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| byte >= s && byte < e)
    }

    /// True when a well-formed suppression for `rule` other than the
    /// [`FileModel::ignored`] one covers `line`.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        let ignored = self.ignored.get();
        self.suppressions.iter().enumerate().any(|(i, s)| {
            Some(i) != ignored && s.rule == rule && (s.line == line || s.line + 1 == line)
        })
    }

    /// The text of the code token at code-index `ci`, or `""` past the end.
    pub fn text(&self, ci: usize) -> &str {
        self.tok(ci).map_or("", |t| t.text(&self.source.text))
    }

    /// The token at code-index `ci`.
    pub fn tok(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).map(|&ti| &self.tokens[ti])
    }

    fn is_ident(&self, ci: usize) -> bool {
        self.tok(ci).is_some_and(|t| t.kind == TokenKind::Ident)
    }

    /// Code-index of the `]` matching the `[` at code-index `open`.
    fn matching_bracket(&self, open: usize) -> usize {
        let mut depth = 0i32;
        for ci in open..self.code.len() {
            match self.text(ci) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return ci;
                    }
                }
                _ => {}
            }
        }
        self.code.len().saturating_sub(1)
    }

    /// Joins the code tokens in `[from, to)` with no separators.
    fn render(&self, from: usize, to: usize) -> String {
        (from..to.min(self.code.len()))
            .map(|ci| self.text(ci))
            .collect()
    }

    /// Looks back over the modifier tokens preceding `fn` for a bare
    /// `pub`. Restricted visibility (`pub(crate)`, `pub(super)`, ...) is
    /// *not* public: those functions sit behind an already-screened
    /// module boundary.
    fn is_pub_fn(&self, fn_ci: usize) -> bool {
        const MODIFIERS: &[&str] = &[
            "const", "unsafe", "async", "extern", "crate", "super", "self", "in", "(", ")",
        ];
        for back in 1..=fn_ci.min(10) {
            let text = self.text(fn_ci - back);
            if text == "pub" {
                return self.text(fn_ci - back + 1) != "(";
            }
            let is_abi_string = self
                .tok(fn_ci - back)
                .is_some_and(|t| t.kind == TokenKind::Str);
            if !MODIFIERS.contains(&text) && !is_abi_string {
                return false;
            }
        }
        false
    }

    /// Reads an `impl` header starting at code-index `ci`: the
    /// implemented-on type name and the code-index of the body `{`.
    /// `impl` opens a block only at an item boundary — the file's first
    /// token, or after `}`, `;`, `{`, `]` (an attribute) or `unsafe`;
    /// anywhere else (`label: impl Into<String>`, `-> impl Iterator`) it
    /// is a type, and yields nothing.
    fn impl_header(&self, ci: usize) -> Option<(String, usize)> {
        if ci > 0 && !matches!(self.text(ci - 1), "}" | ";" | "{" | "]" | "unsafe") {
            return None;
        }
        let mut angle = 0i64;
        let mut before_for: Vec<&str> = Vec::new();
        let mut after_for: Vec<&str> = Vec::new();
        let mut saw_for = false;
        let mut cur = ci + 1;
        while cur < self.code.len() {
            let text = self.text(cur);
            match text {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "{" | "where" if angle <= 0 => {
                    // Idents in a where clause are bounds, not the type.
                    let open = (cur..self.code.len()).find(|&c| self.text(c) == "{")?;
                    let bucket = if saw_for && !after_for.is_empty() {
                        &after_for
                    } else {
                        &before_for
                    };
                    return Some((bucket.last()?.to_string(), open));
                }
                ";" if angle <= 0 => return None,
                "for" if angle <= 0 => saw_for = true,
                _ => {
                    if angle <= 0 && self.is_ident(cur) && !KEYWORDS.contains(&text) {
                        if saw_for {
                            after_for.push(text);
                        } else {
                            before_for.push(text);
                        }
                    }
                }
            }
            cur += 1;
        }
        None
    }

    /// True when the token at `ci` is immediately called: `name(..)` or the
    /// turbofish form `name::<T>(..)`.
    fn is_called(&self, ci: usize) -> bool {
        if self.text(ci + 1) == "(" {
            return true;
        }
        if self.text(ci + 1) == "::" && self.text(ci + 2) == "<" {
            // Walk the turbofish generics to the matching `>`.
            let mut depth = 0i64;
            for cur in ci + 2..self.code.len() {
                match self.text(cur) {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "<<" => depth += 2,
                    ">>" => depth -= 2,
                    _ => {}
                }
                if depth <= 0 {
                    return self.text(cur + 1) == "(";
                }
            }
        }
        false
    }

    /// The identifier at the head of a call's first argument, skipping `&`
    /// and `mut`: `(&tmp, ..)` → `tmp`.
    fn first_arg_ident(&self, call_ci: usize) -> String {
        let mut cur = call_ci + 2; // skip `name` `(`
        while matches!(self.text(cur), "&" | "mut") {
            cur += 1;
        }
        if self.is_ident(cur) {
            self.text(cur).to_string()
        } else {
            String::new()
        }
    }

    /// True when the code token at `ci` can end a value expression
    /// (identifier, number, closing bracket) — separates binary operators
    /// from unary forms.
    fn is_value_like(&self, ci: usize) -> bool {
        let Some(tok) = self.tok(ci) else {
            return false;
        };
        let text = self.text(ci);
        match tok.kind {
            TokenKind::Ident => !KEYWORDS.contains(&text),
            TokenKind::Number => true,
            _ => matches!(text, ")" | "]"),
        }
    }

    /// True when the punct at `ci` is a binary arithmetic operator or a
    /// compound assignment (same classification the screening rule uses).
    fn is_binary_arithmetic(&self, ci: usize) -> bool {
        match self.text(ci) {
            "+=" | "-=" | "*=" | "/=" | "%=" => true,
            "+" | "-" | "*" | "/" | "%" => ci > 0 && self.is_value_like(ci - 1),
            _ => false,
        }
    }
}

/// A `mod`/`impl`/`trait` scope: the name it contributes to qualified ids.
struct Scope {
    is_mod: bool,
    name: String,
}

/// What a `fn` header contributes to the item its body opens.
struct FnHeader {
    name: String,
    is_pub: bool,
    returns_result: bool,
    sig_f64: bool,
    line: u32,
}

/// What a header read by lookahead says about the `{` it ends at.
enum Opener {
    Scope(Scope),
    Fn(FnHeader),
    /// A `#[cfg(test)]`/`#[test]` item whose attributes start at this byte.
    Test(usize),
}

/// One open brace on the walk's stack.
#[derive(Default)]
struct Frame {
    scope: Option<Scope>,
    /// The item whose body this brace opens.
    item: Option<usize>,
    /// The item that owns the tokens inside this brace: the innermost
    /// enclosing fn body's item, `None` outside fns and inside test fns.
    owner: Option<usize>,
    /// Start byte of the test item this brace closes.
    test_start: Option<usize>,
}

/// The state of [`FileModel::build`]'s one pass.
struct Walk<'m> {
    m: &'m FileModel,
    items: &'m mut Vec<FnItem>,
    file_mods: Vec<String>,
    stack: Vec<Frame>,
    /// Headers read ahead, keyed by the code-index of the `{` they end at.
    pending: Vec<(usize, Opener)>,
    /// How many open frames belong to test items.
    test_depth: usize,
    /// Code-index past the last attribute chain read, so a chain is read
    /// once from its first `#`.
    attr_end: usize,
    test_spans: Vec<(usize, usize)>,
    inner_attrs: Vec<String>,
    suppressions: Vec<Suppression>,
    malformed: Vec<MalformedSuppression>,
}

impl<'m> Walk<'m> {
    fn run(m: &'m FileModel, items: &'m mut Vec<FnItem>) -> Walk<'m> {
        let mut w = Walk {
            m,
            items,
            file_mods: file_module_path(&m.source.path),
            stack: Vec::new(),
            pending: Vec::new(),
            test_depth: 0,
            attr_end: 0,
            test_spans: Vec::new(),
            inner_attrs: Vec::new(),
            suppressions: Vec::new(),
            malformed: Vec::new(),
        };
        let mut ci = 0;
        for tok in &m.tokens {
            if is_comment(tok) {
                w.comment(tok);
                continue;
            }
            match tok.text(&m.source.text) {
                "{" => w.open(ci, tok),
                "}" => w.close(tok.end),
                "#" if ci >= w.attr_end => w.attributes(ci, tok),
                "fn" => w.fn_header(ci, tok),
                "mod" | "impl" | "trait" => w.scope_header(ci),
                _ => {}
            }
            if let Some(owner) = w.stack.last().and_then(|f| f.owner) {
                w.event(ci, tok, owner);
            }
            ci += 1;
        }
        while !w.stack.is_empty() {
            w.close(m.source.text.len());
        }
        w
    }

    fn open(&mut self, ci: usize, tok: &Token) {
        let mut frame = Frame {
            owner: self.stack.last().and_then(|f| f.owner),
            ..Frame::default()
        };
        let mut header = None;
        let mut k = 0;
        while k < self.pending.len() {
            if self.pending[k].0 != ci {
                k += 1;
                continue;
            }
            match self.pending.remove(k).1 {
                Opener::Scope(s) => {
                    frame.scope.get_or_insert(s);
                }
                Opener::Fn(h) => {
                    header.get_or_insert(h);
                }
                Opener::Test(start) => {
                    frame.test_start.get_or_insert(start);
                }
            }
        }
        if frame.test_start.is_some() {
            self.test_depth += 1;
        }
        if let Some(h) = header {
            frame.item = (self.test_depth == 0).then_some(self.items.len());
            frame.owner = frame.item;
            if frame.item.is_some() {
                let item = self.item(h, &frame, tok.start);
                self.items.push(item);
            }
        }
        self.stack.push(frame);
    }

    fn close(&mut self, end: usize) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        if let Some(i) = frame.item {
            self.items[i].body.1 = end;
        }
        if let Some(start) = frame.test_start {
            self.test_depth -= 1;
            self.test_spans.push((start, end));
        }
    }

    /// Lifts a fn header into an item whose body opens at `body_start`:
    /// the enclosing `mod` scopes qualify it, and the innermost
    /// `impl`/`trait` scope (the body's own brace included) is its type.
    fn item(&self, h: FnHeader, frame: &Frame, body_start: usize) -> FnItem {
        let mut scopes = self
            .stack
            .iter()
            .chain([frame])
            .filter_map(|f| f.scope.as_ref());
        let mut path = self.file_mods.clone();
        path.extend(scopes.clone().filter(|s| s.is_mod).map(|s| s.name.clone()));
        let self_ty = scopes
            .rfind(|s| !s.is_mod)
            .map(|s| s.name.clone())
            .unwrap_or_default();
        if !self_ty.is_empty() {
            path.push(self_ty.clone());
        }
        path.push(h.name.clone());
        FnItem {
            file: self.m.source.path.clone(),
            name: h.name,
            self_ty,
            qualified: path.join("::"),
            krate: self.file_mods.first().cloned().unwrap_or_default(),
            is_pub: h.is_pub,
            returns_result: h.returns_result,
            line: h.line,
            sig_f64: h.sig_f64,
            calls: Vec::new(),
            sinks: Vec::new(),
            vfs_ops: Vec::new(),
            first_math_ci: None,
            body: (body_start, body_start),
        }
    }

    /// Reads an attribute chain starting at the `#` at `ci`: inner
    /// attributes are recorded, and a chain carrying `test` or a
    /// `cfg(..test..)` marks its item as test code.
    fn attributes(&mut self, ci: usize, tok: &Token) {
        let m = self.m;
        if m.text(ci + 1) == "!" && m.text(ci + 2) == "[" {
            let end = m.matching_bracket(ci + 2);
            self.inner_attrs.push(m.render(ci + 3, end));
            self.attr_end = end + 1;
            return;
        }
        let mut cur = ci;
        let mut test = false;
        while m.text(cur) == "#" && m.text(cur + 1) == "[" {
            let end = m.matching_bracket(cur + 1);
            let body = m.render(cur + 2, end);
            test |= body == "test" || is_cfg_test(&body);
            cur = end + 1;
        }
        self.attr_end = cur;
        if !test {
            return;
        }
        // The item ends at its first top-level `;` (braceless items) or
        // at the brace matching its first top-level `{`.
        let (mut paren, mut bracket) = (0i32, 0i32);
        for c in cur..m.code.len() {
            match m.text(c) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                ";" if paren == 0 && bracket == 0 => {
                    let end = m.tok(c).map_or(m.source.text.len(), |t| t.end);
                    self.test_spans.push((tok.start, end));
                    return;
                }
                "{" if paren == 0 && bracket == 0 => {
                    self.pending.push((c, Opener::Test(tok.start)));
                    return;
                }
                _ => {}
            }
        }
        self.test_spans.push((tok.start, m.source.text.len()));
    }

    /// Reads a `fn name ...` signature up to its body `{`; bodyless
    /// declarations (trait methods, extern fns) yield nothing.
    fn fn_header(&mut self, ci: usize, tok: &Token) {
        let m = self.m;
        if !m.is_ident(ci + 1) {
            // `fn(...)` pointer types.
            return;
        }
        let mut h = FnHeader {
            name: m.text(ci + 1).to_string(),
            is_pub: m.is_pub_fn(ci),
            returns_result: false,
            sig_f64: false,
            line: tok.line,
        };
        let (mut paren, mut bracket, mut arrow) = (0i32, 0i32, false);
        for cur in ci + 2..m.code.len() {
            let top = paren == 0 && bracket == 0;
            match m.text(cur) {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "->" if top => arrow = true,
                ";" if top => return,
                "{" if top => {
                    self.pending.push((cur, Opener::Fn(h)));
                    return;
                }
                text => {
                    h.returns_result |= arrow && text == "Result";
                    h.sig_f64 |= text == "f64";
                }
            }
        }
    }

    /// Reads a `mod name {`, `impl [..] Type {` or `trait Name {` header.
    fn scope_header(&mut self, ci: usize) {
        let m = self.m;
        let (is_mod, name, open) = match m.text(ci) {
            "mod" if m.is_ident(ci + 1) && m.text(ci + 2) == "{" => {
                (true, m.text(ci + 1).to_string(), ci + 2)
            }
            "impl" => match m.impl_header(ci) {
                Some((name, open)) => (false, name, open),
                None => return,
            },
            "trait" if m.is_ident(ci + 1) => {
                // Skip bounds and generics; `trait Alias = ..;` has no body.
                let Some(open) = (ci + 2..m.code.len()).find(|&c| matches!(m.text(c), "{" | ";"))
                else {
                    return;
                };
                if m.text(open) != "{" {
                    return;
                }
                (false, m.text(ci + 1).to_string(), open)
            }
            _ => return,
        };
        self.pending
            .push((open, Opener::Scope(Scope { is_mod, name })));
    }

    /// Classifies the code token at `ci` inside the body of item `owner`:
    /// call site, sink, VFS op, arithmetic, or nothing.
    fn event(&mut self, ci: usize, tok: &Token, owner: usize) {
        let m = self.m;
        let item = &mut self.items[owner];
        if tok.kind == TokenKind::Punct {
            if item.first_math_ci.is_none() && m.is_binary_arithmetic(ci) {
                item.first_math_ci = Some(ci);
            }
            return;
        }
        if tok.kind != TokenKind::Ident {
            return;
        }
        let text = m.text(ci);
        let sink = |kind, what| Sink {
            kind,
            what,
            line: tok.line,
            col: tok.col,
            ci,
        };
        // Macros: `name!(..)` / `name!{..}` / `name![..]`.
        if m.text(ci + 1) == "!" {
            if PANIC_MACROS.contains(&text) {
                item.sinks.push(sink(SinkKind::Panic, format!("`{text}!`")));
            } else if text == "vec" || text == "format" {
                item.sinks
                    .push(sink(SinkKind::Alloc, format!("allocating `{text}!`")));
            }
            return;
        }
        if !m.is_called(ci) {
            return;
        }
        let prev = if ci > 0 { m.text(ci - 1) } else { "" };
        if prev == "." {
            if PANIC_METHODS.contains(&text) {
                item.sinks
                    .push(sink(SinkKind::Panic, format!("`.{text}()`")));
                return;
            }
            if ALLOC_METHODS.contains(&text) {
                // `.clone()` et al. may share a name with a workspace
                // method; fall through so the call edge exists too.
                item.sinks
                    .push(sink(SinkKind::Alloc, format!("allocating `.{text}()`")));
            }
            let receiver = if ci >= 2 { m.text(ci - 2) } else { "" };
            if receiver == "vfs" && VFS_OPS.contains(&text) {
                item.vfs_ops.push(VfsOp {
                    op: text.to_string(),
                    arg: m.first_arg_ident(ci),
                    line: tok.line,
                    ci,
                });
            }
            item.calls.push(CallSite {
                callee: Callee::Method {
                    name: text.to_string(),
                    on_self: receiver == "self",
                },
                line: tok.line,
                ci,
            });
            return;
        }
        if KEYWORDS.contains(&text) || prev == "fn" {
            return;
        }
        // Path call: collect `a :: b :: name` going backward.
        let mut segments = vec![text.to_string()];
        let mut j = ci;
        while j >= 2 && m.text(j - 1) == "::" && m.is_ident(j - 2) {
            let seg = m.text(j - 2);
            if matches!(seg, "crate" | "self" | "super") {
                break;
            }
            segments.insert(0, seg.strip_prefix("bmf_").unwrap_or(seg).to_string());
            j -= 2;
        }
        if m.text(j.wrapping_sub(1)) == "fn" {
            return;
        }
        if let [.., head, last] = segments.as_slice() {
            // `Vec::new(..)`-style constructor allocations.
            if matches!(head.as_str(), "Vec" | "Box" | "String")
                && matches!(last.as_str(), "new" | "with_capacity" | "from")
            {
                let what = format!("allocating `{head}::{last}`");
                item.sinks.push(sink(SinkKind::Alloc, what));
                return;
            }
        }
        item.calls.push(CallSite {
            callee: Callee::Path(segments),
            line: tok.line,
            ci,
        });
    }

    /// Records a `bmf-lint:` suppression comment, well-formed or not.
    fn comment(&mut self, tok: &Token) {
        const MARKER: &str = "bmf-lint:";
        let text = tok.text(&self.m.source.text);
        if is_doc_comment(text) {
            // Doc comments *describe* the suppression syntax (this
            // crate's own docs do); only plain comments suppress.
            return;
        }
        let Some(pos) = text.find(MARKER) else {
            return;
        };
        match parse_allow(text[pos + MARKER.len()..].trim_start()) {
            Ok(rule) => self.suppressions.push(Suppression {
                rule,
                line: tok.line,
            }),
            Err(problem) => self.malformed.push(MalformedSuppression {
                line: tok.line,
                col: tok.col,
                problem,
            }),
        }
    }
}

fn is_comment(tok: &Token) -> bool {
    matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment)
}

/// True for rustdoc comments: `///` (but not `////`), `//!`, `/**` (but
/// not `/***`), `/*!`.
fn is_doc_comment(text: &str) -> bool {
    (text.starts_with("///") && !text.starts_with("////"))
        || text.starts_with("//!")
        || (text.starts_with("/**") && !text.starts_with("/***") && text != "/**/")
        || text.starts_with("/*!")
}

/// Parses the tail of a suppression comment: `allow(<rule>) -- <reason>`.
fn parse_allow(rest: &str) -> Result<String, String> {
    let Some(inner) = rest.strip_prefix("allow(") else {
        return Err("expected `allow(<rule>) -- <reason>` after `bmf-lint:`".to_string());
    };
    let Some(close) = inner.find(')') else {
        return Err("unclosed `allow(` in suppression".to_string());
    };
    let rule = inner[..close].trim().to_string();
    if rule.is_empty() {
        return Err("empty rule name in `allow()`".to_string());
    }
    let tail = inner[close + 1..].trim_start();
    let reason = tail.strip_prefix("--").map(str::trim).unwrap_or("");
    // Block comments may carry a trailing `*/`; a reason of only that is
    // still empty.
    let reason = reason.trim_end_matches("*/").trim();
    if reason.is_empty() {
        return Err(format!(
            "suppression for `{rule}` is missing its reason (`-- <reason>` is required)"
        ));
    }
    Ok(rule)
}

/// True when a rendered attribute body is a `cfg(...)` whose condition
/// mentions the bare `test` predicate (covers `cfg(test)` and composites
/// like `cfg(any(test, feature="x"))`).
fn is_cfg_test(rendered: &str) -> bool {
    let Some(body) = rendered.strip_prefix("cfg(") else {
        return false;
    };
    // Token-joined rendering has no spaces, so `test` appears delimited
    // by punctuation only.
    let bytes = body.as_bytes();
    let mut i = 0usize;
    while let Some(pos) = body[i..].find("test") {
        let at = i + pos;
        let before_ok = at == 0 || !bytes[at - 1].is_ascii_alphanumeric() && bytes[at - 1] != b'_';
        let after = at + 4;
        let after_ok =
            after >= bytes.len() || !bytes[after].is_ascii_alphanumeric() && bytes[after] != b'_';
        if before_ok && after_ok {
            return true;
        }
        i = at + 4;
    }
    false
}

/// Module path derived from the file path: `crates/x/src/a/b.rs` →
/// `[x, a, b]`, `src/lib.rs` → `[root]`.
fn file_module_path(path: &str) -> Vec<String> {
    let (krate, rest) = if let Some(rest) = path.strip_prefix("crates/") {
        let mut parts = rest.splitn(2, '/');
        let name = parts.next().unwrap_or("").to_string();
        (name, parts.next().unwrap_or(""))
    } else if let Some(rest) = path.strip_prefix("src/") {
        ("root".to_string(), rest)
    } else {
        (String::new(), path)
    };
    let rest = rest.strip_prefix("src/").unwrap_or(rest);
    let mut out = Vec::new();
    if !krate.is_empty() {
        out.push(krate);
    }
    for comp in rest.split('/') {
        let comp = comp.strip_suffix(".rs").unwrap_or(comp);
        if comp.is_empty() || comp == "lib" || comp == "mod" || comp == "main" {
            continue;
        }
        out.push(comp.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> (FileModel, Vec<FnItem>) {
        parse("crates/core/src/demo.rs", src)
    }

    fn parse(path: &str, src: &str) -> (FileModel, Vec<FnItem>) {
        let mut items = Vec::new();
        let source = SourceFile {
            path: path.to_string(),
            text: src.to_string(),
        };
        (FileModel::build(source, &mut items), items)
    }

    #[test]
    fn cfg_test_items_are_test_spans() {
        let src = "fn live() { work(); }\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\n";
        let (m, _) = model(src);
        let unwrap_at = src.find("unwrap").unwrap();
        assert!(m.in_test(unwrap_at));
        let work_at = src.find("work").unwrap();
        assert!(!m.in_test(work_at));
    }

    #[test]
    fn test_attr_fn_is_a_test_span() {
        let src = "#[test]\nfn check() { assert!(true); }\nfn live() {}\n";
        let (m, items) = model(src);
        assert!(m.in_test(src.find("assert").unwrap()));
        assert!(!m.in_test(src.find("live").unwrap()));
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "live");
    }

    #[test]
    fn fn_spans_carry_name_visibility_and_result() {
        let src = "pub fn solve(a: f64) -> Result<f64, E> { inner() }\nfn inner() -> f64 { 1.0 }\npub(crate) fn hidden() {}\n";
        let (m, items) = model(src);
        assert_eq!(m.fns, 0..3);
        assert_eq!(items[0].name, "solve");
        assert!(items[0].is_pub && items[0].returns_result && items[0].sig_f64);
        assert!(!items[1].is_pub && !items[1].returns_result && items[1].sig_f64);
        assert!(!items[2].is_pub && !items[2].sig_f64);
        let body = &src[items[1].body.0..items[1].body.1];
        assert_eq!(body, "{ 1.0 }");
    }

    #[test]
    fn nested_fns_resolve_to_innermost() {
        let src = "fn outer() { fn inner() { mark(); } inner(); }";
        let analysis = crate::Analysis::build(vec![SourceFile {
            path: "crates/core/src/demo.rs".to_string(),
            text: src.to_string(),
        }]);
        let m = &analysis.files[0];
        let name_at = |needle| {
            let at = src.find(needle).unwrap();
            analysis.enclosing_fn(m, at).map(|f| f.name.as_str())
        };
        assert_eq!(name_at("mark"), Some("inner"));
        assert_eq!(name_at("inner();"), Some("outer"));
        let outer = &analysis.graph.nodes[0];
        assert_eq!(outer.calls.len(), 1, "{:?}", outer.calls);
    }

    #[test]
    fn inner_attrs_are_rendered() {
        let src = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\nfn f() {}\n";
        let (m, _) = model(src);
        assert_eq!(
            m.inner_attrs,
            vec!["forbid(unsafe_code)", "deny(missing_docs)"]
        );
    }

    #[test]
    fn suppressions_need_reasons() {
        let good = "// bmf-lint: allow(no-float-eq) -- exact sentinel comparison\nlet x = 1;";
        let (m, _) = model(good);
        assert_eq!(m.suppressions.len(), 1);
        assert!(m.suppressed("no-float-eq", 1));
        assert!(m.suppressed("no-float-eq", 2));
        assert!(!m.suppressed("no-float-eq", 3));
        assert!(!m.suppressed("panic-reachability", 2));

        let bad = "// bmf-lint: allow(no-float-eq)\nlet x = 1;";
        let (m, _) = model(bad);
        assert!(m.suppressions.is_empty());
        assert_eq!(m.malformed.len(), 1);
    }

    #[test]
    fn cfg_test_matcher_is_token_aware() {
        assert!(is_cfg_test("cfg(test)"));
        assert!(is_cfg_test("cfg(any(test,feature=\"x\"))"));
        assert!(!is_cfg_test("cfg(feature=\"testing\")"));
        assert!(!is_cfg_test("cfg(attest)"));
    }

    #[test]
    fn qualified_names_cover_mods_impls_and_traits() {
        let src = "pub struct S;\nimpl S {\n    pub fn m(&self) {}\n}\nmod inner {\n    fn helper() {}\n}\ntrait T {\n    fn d(&self) { () }\n}\nfn free() {}\n";
        let (_, items) = model(src);
        let ids: Vec<&str> = items.iter().map(|i| i.qualified.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "core::demo::S::m",
                "core::demo::inner::helper",
                "core::demo::T::d",
                "core::demo::free"
            ]
        );
    }

    #[test]
    fn calls_sinks_and_order_are_recovered() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    helper();\n    bmf_core::screen::check(1);\n    self_thing.method_a();\n    x.unwrap()\n}\nfn helper() {}\n";
        let (_, items) = model(src);
        let f = &items[0];
        assert_eq!(f.calls.len(), 3, "{:?}", f.calls);
        assert_eq!(f.calls[0].callee, Callee::Path(vec!["helper".to_string()]));
        assert_eq!(
            f.calls[1].callee,
            Callee::Path(vec![
                "core".to_string(),
                "screen".to_string(),
                "check".to_string()
            ])
        );
        assert!(matches!(
            &f.calls[2].callee,
            Callee::Method { name, on_self: false } if name == "method_a"
        ));
        assert_eq!(f.sinks.len(), 1);
        assert_eq!(f.sinks[0].kind, SinkKind::Panic);
        assert_eq!((f.sinks[0].line, f.sinks[0].col), (5, 7));
        assert!(f.calls[1].ci < f.sinks[0].ci);
    }

    #[test]
    fn vfs_ops_capture_op_and_first_arg() {
        let src = "impl Store {\n    fn put(&self) {\n        self.vfs.write(&tmp, bytes);\n        self.vfs.sync_file(&tmp);\n        self.vfs.rename(&tmp, &blob);\n        self.vfs.sync_dir(&root);\n    }\n}\n";
        let (_, items) = parse("crates/persist/src/store.rs", src);
        let ops: Vec<(&str, &str)> = items[0]
            .vfs_ops
            .iter()
            .map(|o| (o.op.as_str(), o.arg.as_str()))
            .collect();
        assert_eq!(
            ops,
            vec![
                ("write", "tmp"),
                ("sync_file", "tmp"),
                ("rename", "tmp"),
                ("sync_dir", "root")
            ]
        );
    }

    #[test]
    fn test_code_is_invisible() {
        let src = "fn live() { helper(); }\nfn helper() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let (_, items) = model(src);
        assert_eq!(items.len(), 2);
        assert!(items.iter().all(|i| i.sinks.is_empty()));
    }

    #[test]
    fn turbofish_calls_are_calls() {
        let src = "fn f() { parse::<u32>(\"1\"); }\nfn parse() {}\n";
        let (_, items) = model(src);
        assert_eq!(items[0].calls.len(), 1);
    }

    #[test]
    fn module_paths_from_file_layout() {
        assert_eq!(file_module_path("crates/core/src/lib.rs"), vec!["core"]);
        assert_eq!(
            file_module_path("crates/core/src/a/b.rs"),
            vec!["core", "a", "b"]
        );
        assert_eq!(
            file_module_path("crates/core/src/a/mod.rs"),
            vec!["core", "a"]
        );
        assert_eq!(file_module_path("src/lib.rs"), vec!["root"]);
    }
}
