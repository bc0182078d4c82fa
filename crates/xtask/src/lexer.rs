//! A token-level view of a source file for simlint's token rules.
//!
//! Rust is not parsed: each file is scanned once into identifiers, numbers
//! (float or integer), operators and delimiters, each with its line and
//! column. Comments and literal contents never become tokens, so a rule
//! never fires on prose, a doc attribute or a string. Scanning also collects
//! the `// simlint: allow(...)` pragmas, the lines inside `#[cfg(test)]`
//! items and a delimiter match map.

/// A `// simlint: allow(rule, reason = "...")` pragma. An empty reason
/// makes it inert; a `standalone` one (no code on its line) covers the next
/// line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    pub line: usize,
    pub rule: String,
    pub reason: String,
    pub standalone: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ident,
    Int,
    /// A `.`, an exponent or an `f32` / `f64` suffix.
    Float,
    /// A string, char or byte literal, or a lifetime.
    Lit,
    /// One token per operator, `+=` and `..=` included.
    Op,
    Open,
    Close,
}

/// A token at its 1-based line and 0-based column. A string literal's text
/// is its opening quote only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: Kind,
    pub text: String,
    pub line: usize,
    pub col: usize,
}

impl Token {
    pub fn is(&self, kind: Kind, text: &str) -> bool {
        self.kind == kind && self.text == text
    }
}

#[derive(Debug, Default)]
pub struct SourceView {
    pub tokens: Vec<Token>,
    /// The index of the delimiter matching token `i`, if it is one.
    pub match_of: Vec<Option<usize>>,
    pub pragmas: Vec<Pragma>,
    /// The (first, last) lines of each `#[cfg(test)]` item.
    pub tests: Vec<(usize, usize)>,
}

impl SourceView {
    pub fn line_in_test(&self, line: usize) -> bool {
        self.tests.iter().any(|&(a, b)| (a..=b).contains(&line))
    }
}

/// Scan a file's text.
pub fn scan(text: &str) -> SourceView {
    let mut v = SourceView::default();
    let mut comments = Vec::new();
    // Carried across lines: the depth of an open block comment, and the
    // closing hash count of an open string.
    let (mut depth, mut in_str) = (0, None);
    for (line, raw) in (1..).zip(text.lines()) {
        let c: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < c.len() {
            let (ch, next) = (c[i], c.get(i + 1).copied());
            if depth > 0 {
                let step = match (ch, next) {
                    ('*', Some('/')) => Some(-1),
                    ('/', Some('*')) => Some(1),
                    _ => None,
                };
                depth += step.unwrap_or(0);
                i += if step.is_some() { 2 } else { 1 };
                continue;
            }
            if let Some(hashes) = in_str {
                let closes = ch == '"' && (1..=hashes).all(|k| c.get(i + k) == Some(&'#'));
                let escape = usize::from(ch == '\\');
                i += 1 + if closes { hashes } else { escape };
                if closes {
                    in_str = None;
                }
                continue;
            }
            let mut push = |kind, end: usize| {
                let text = c[i..end].iter().collect();
                v.tokens.push(Token {
                    kind,
                    text,
                    line,
                    col: i,
                });
                end
            };
            i = if ch.is_whitespace() {
                i + 1
            } else if ch == '/' && next == Some('/') {
                // Doc comments are prose: only plain comments carry pragmas.
                let doc = matches!(c.get(i + 2), Some('/' | '!')) && c.get(i + 3) != Some(&'/');
                if !doc {
                    comments.push((c[i..].iter().collect::<String>(), line));
                }
                break;
            } else if ch == '/' && next == Some('*') {
                depth = 1;
                i + 2
            } else if let Some((hashes, quote)) = string_start(&c, i) {
                in_str = Some(hashes);
                push(Kind::Lit, quote + 1)
            } else if ch == '\'' || (ch == 'b' && next == Some('\'')) {
                push(Kind::Lit, quote_end(&c, i + usize::from(ch == 'b')))
            } else if ch.is_ascii_digit() {
                let (end, float) = number_end(&c, i);
                push(if float { Kind::Float } else { Kind::Int }, end)
            } else if is_ident_char(ch) {
                push(Kind::Ident, ident_end(&c, i))
            } else if "([{".contains(ch) {
                push(Kind::Open, i + 1)
            } else if ")]}".contains(ch) {
                push(Kind::Close, i + 1)
            } else {
                push(Kind::Op, i + op_len(&c[i..]))
            };
        }
    }
    for (comment, line) in comments {
        let standalone = !v.tokens.iter().any(|t| t.line == line);
        v.pragmas.extend(parse_pragma(&comment, line, standalone));
    }
    v.match_of = vec![None; v.tokens.len()];
    let mut open = Vec::new();
    for (i, t) in v.tokens.iter().enumerate() {
        if t.kind == Kind::Open {
            open.push(i);
        } else if let Some(o) = open.pop_if(|_| t.kind == Kind::Close) {
            (v.match_of[o], v.match_of[i]) = (Some(i), Some(o));
        }
    }
    v.tests = test_items(&v);
    v
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// One past the run of characters from `i` that `f` accepts.
fn run(c: &[char], i: usize, f: impl Fn(char) -> bool) -> usize {
    i + c[i.min(c.len())..].iter().take_while(|&&x| f(x)).count()
}

fn ident_end(c: &[char], i: usize) -> usize {
    run(c, i, is_ident_char)
}

/// A string literal opening at `i` (`"`, `b"`, `r#"`, `br"`, ...): its
/// closing hash count and the index of its opening quote. A raw identifier
/// (`r#match`) is not one.
fn string_start(c: &[char], i: usize) -> Option<(usize, usize)> {
    let j = i + usize::from(c[i] == 'b');
    let raw = c.get(j) == Some(&'r');
    let j = j + usize::from(raw);
    let hashes = run(c, j, |x| x == '#') - j;
    let quote = c.get(j + hashes) == Some(&'"') && (raw || hashes == 0);
    quote.then_some((hashes, j + hashes))
}

/// One past the char literal whose quote is at `q`, or past the name of a
/// lifetime (`'a` has no closing quote).
fn quote_end(c: &[char], q: usize) -> usize {
    let name = c.get(q + 1).is_some_and(|&x| is_ident_char(x));
    if name && c.get(q + 2) != Some(&'\'') {
        return ident_end(c, q + 1);
    }
    let mut j = q + 1;
    while j < c.len() && c[j] != '\'' {
        j += if c[j] == '\\' { 2 } else { 1 };
    }
    (j + 1).min(c.len())
}

/// One past the number at `i`, and whether it is a float. `1..2` (a range),
/// `1.max(2)` (a method call) and `0x1e5` are integers; `1.`, `1e-3` and
/// `2f64` are floats.
fn number_end(c: &[char], i: usize) -> (usize, bool) {
    let digits = |i| run(c, i, |x| x.is_ascii_digit() || x == '_');
    let (mut i, mut float) = (digits(i), false);
    match (c.get(i), c.get(i + 1)) {
        (Some('.'), Some(d)) if d.is_ascii_digit() => (i, float) = (digits(i + 1), true),
        (Some('.'), Some(&x)) if x == '.' || is_ident_char(x) => {}
        (Some('.'), _) => (i, float) = (i + 1, true),
        _ => {}
    }
    let sign = usize::from(matches!(c.get(i + 1), Some('+' | '-')));
    let exponent = c.get(i + 1 + sign).is_some_and(char::is_ascii_digit);
    if matches!(c.get(i), Some('e' | 'E')) && exponent {
        (i, float) = (digits(i + 1 + sign), true);
    }
    let end = ident_end(c, i);
    let suffix: String = c[i..end].iter().collect();
    (end, float || suffix == "f32" || suffix == "f64")
}

/// The length of the longest operator at the head of `rest`.
fn op_len(rest: &[char]) -> usize {
    const OPS: &[&str] = &[
        "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=",
        "-=", "*=", "/=", "%=", "^=", "|=", "&=", "<<", ">>", "..",
    ];
    let head: String = rest.iter().take(3).collect();
    let op = OPS.iter().find(|op| head.starts_with(*op));
    op.map_or(1, |op| op.len())
}

/// Parse `simlint: allow(rule, reason = "...")` out of a line comment.
fn parse_pragma(comment: &str, line: usize, standalone: bool) -> Option<Pragma> {
    let (_, rest) = comment.split_once("simlint:")?;
    let inner = rest.trim_start().strip_prefix("allow(")?;
    let inner = &inner[..inner.rfind(')')?];
    let (rule, reason) = inner.split_once(',').unwrap_or((inner, ""));
    let reason = reason.trim().strip_prefix("reason").map(str::trim_start);
    let reason = reason.and_then(|r| r.strip_prefix('=')).unwrap_or("");
    let (rule, reason) = (rule.trim().into(), reason.trim().trim_matches('"').into());
    Some(Pragma {
        line,
        rule,
        reason,
        standalone,
    })
}

/// The line span of each `#[cfg(test)]` item: from the attribute through
/// the brace that closes the item's body, or its `;`.
fn test_items(v: &SourceView) -> Vec<(usize, usize)> {
    let toks = &v.tokens;
    let mut items = Vec::new();
    let mut i = 0;
    while i + 4 < toks.len() {
        let attr = ["#", "[", "cfg", "(", "test"];
        if !toks[i..i + 5].iter().zip(attr).all(|(t, a)| t.text == a) {
            i += 1;
            continue;
        }
        let mut end = v.match_of[i + 1].unwrap_or(i + 4);
        let item_ends = |t: &Token| t.is(Kind::Open, "{") || t.is(Kind::Op, ";");
        while end + 1 < toks.len() && !item_ends(&toks[end]) {
            end += 1;
        }
        end = v.match_of[end].unwrap_or(end);
        items.push((toks[i].line, toks[end].line));
        i = end + 1;
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str, kind: Option<Kind>) -> String {
        let toks = scan(src).tokens.into_iter();
        let toks = toks.filter(|t| kind.is_none_or(|k| t.kind == k));
        toks.map(|t| t.text).collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn tokens() {
        let src = "let x = \"a == 1.0\"; // t += dt\nlet s = r#\"y\nz\"#; /* a /* b */ c */ \
                   f::<'a>('I', b'y'); a += b ..= c <<= d;";
        let want = "let x = \" ; let s = r#\" ; f :: < 'a > ( 'I' , b'y' ) ; a += b ..= c <<= d ;";
        assert_eq!(texts(src, None), want);
        let floats = "a(1e-3f64, 2.5, 1., 2E-7, 2f64, 0..10, 1.max(2), 0x1e5, t.0, 1_000)";
        assert_eq!(texts(floats, Some(Kind::Float)), "1e-3f64 2.5 1. 2E-7 2f64");
    }

    #[test]
    fn pragmas_delimiters_and_test_items() {
        let v = scan(
            "x == 1.0; // simlint: allow(float-eq, reason = \"sentinel\")\n\
             // simlint: allow(unit-mixing, reason = \"r\")\n\
             /// simlint: allow(float-eq, reason = \"docs are prose\")\n\
             f(a[i]); // simlint: allow(float-accum)\n\
             #[cfg(test)]\n#[derive(Debug)]\nmod t {\n}\nfn b() {}\n#[cfg(test)] use x;\n",
        );
        let pragma = |p: &Pragma| format!("{}:{}:{}:{}", p.line, p.rule, p.reason, p.standalone);
        let pragmas: Vec<String> = v.pragmas.iter().map(pragma).collect();
        let want = [
            "1:float-eq:sentinel:false",
            "2:unit-mixing:r:true",
            "4:float-accum::false",
        ];
        assert_eq!(pragmas, want);
        let f = v.tokens.iter().position(|t| t.text == "f").unwrap();
        assert_eq!(
            (v.match_of[f + 1], v.match_of[f + 3]),
            (Some(f + 6), Some(f + 5))
        );
        assert_eq!(v.tests, [(5, 8), (10, 10)]);
    }
}
