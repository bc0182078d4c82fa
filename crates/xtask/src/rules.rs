//! simlint's token rules: what clippy cannot say (DESIGN.md §9.1).
//!
//! * `float-eq`: `==` / `!=` against a float literal. Clippy's `float_cmp`
//!   exempts comparisons with zero; this rule does not.
//! * `unit-mixing`: `+`, `-` or a comparison between identifiers whose
//!   suffixes name different dimensions (`_s` time, `_bytes` data, `_mbps`
//!   rate), though both are often the same `f64` type.
//! * `float-accum`: `t += dt` into a simulated-time name inside a loop,
//!   which drifts by O(n·ulp).
//! * `dead-pragma`: a `// simlint: allow(rule, reason = "...")` that names
//!   no rule above, has no reason, or suppresses nothing.
//!
//! A pragma covers its own line, or the next one when it stands alone.
//! `tests/`, `benches/`, `examples/` and `#[cfg(test)]` items are exempt
//! from the three rules; the tooling sources (`crates/bench`,
//! `crates/xtask/src`) from all but `float-eq`.

use std::path::{Path, PathBuf};

use crate::lexer::{scan, Kind, Pragma, SourceView, Token};

/// A finding: its rule, 1-based line, 0-based column and message.
pub type Finding = (&'static str, usize, usize, String);

/// The sources simlint scans, sorted: `crates/`, `src/`, `tests/` and
/// `examples/`, without `target` and `vendor` directories, `fixtures`
/// (which break rules on purpose) and `examples/perfbench` (a package of its
/// own, which `ci.sh` greps).
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let skip = ["target", "vendor", "fixtures", "perfbench"];
    let tops = ["crates", "src", "tests", "examples"];
    let mut dirs: Vec<PathBuf> = tops.iter().map(|d| root.join(d)).collect();
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
        for path in entries.map(|e| e.path()) {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() && !skip.contains(&name) {
                dirs.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Lint one file's text under its workspace-relative path.
pub fn check(path: &str, text: &str) -> Vec<Finding> {
    let v = scan(text);
    let p = path.replace('\\', "/");
    let in_dir = |d: &str| p.starts_with(&format!("{d}/")) || p.contains(&format!("/{d}/"));
    let relaxed = ["tests", "benches", "examples"].into_iter().any(in_dir);
    let tooling = p.starts_with("crates/bench/") || p.starts_with("crates/xtask/src/");
    let raw = raw_findings(&v, relaxed, tooling);
    let covers = |p: &Pragma, (rule, line, ..): &Finding| {
        let last = p.line + usize::from(p.standalone);
        p.rule == *rule && !p.reason.is_empty() && (p.line..=last).contains(line)
    };
    let live = |f: &&Finding| !v.pragmas.iter().any(|p| covers(p, f));
    let mut out: Vec<Finding> = raw.iter().filter(live).cloned().collect();
    for p in &v.pragmas {
        let why = if !["float-eq", "unit-mixing", "float-accum"].contains(&&*p.rule) {
            "is not a simlint rule (float-eq, unit-mixing, float-accum)"
        } else if p.reason.is_empty() {
            "has no reason"
        } else if !raw.iter().any(|f| covers(p, f)) {
            "does not fire here: delete the pragma"
        } else {
            continue;
        };
        let message = format!("the pragma for `{}` {why}", p.rule);
        out.push(("dead-pragma", p.line, 0, message));
    }
    out.sort_by_key(|&(_, line, col, _)| (line, col));
    out
}

/// Findings before pragmas apply.
fn raw_findings(v: &SourceView, relaxed: bool, tooling: bool) -> Vec<Finding> {
    let toks = &v.tokens;
    let mut out = Vec::new();
    let mut push = |rule, t: &Token, message| out.push((rule, t.line, t.col, message));
    let exempt = |t: &Token| relaxed || v.line_in_test(t.line);
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Op || exempt(t) {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| &toks[j]);
        let negated = toks.get(i + 1).is_some_and(|n| n.is(Kind::Op, "-"));
        let rhs = toks.get(i + 1 + usize::from(negated));
        let float = |t: Option<&Token>| t.is_some_and(|t| t.kind == Kind::Float);
        if (t.text == "==" || t.text == "!=") && (float(prev) || float(rhs)) {
            let msg = "float compared with a literal: use a tolerance";
            push("float-eq", t, msg.to_string());
        }
        let binary = prev.is_some_and(|p| !matches!(p.kind, Kind::Op | Kind::Open));
        let mixing = ["+", "-", "+=", "-=", "<", ">", "<=", ">=", "==", "!="];
        if tooling || !binary || !mixing.contains(&&*t.text) {
            continue;
        }
        if let (Some((lu, ln)), Some((ru, rn))) = (operand(v, i, false), operand(v, i, true)) {
            if lu != ru {
                let msg = format!("`{ln}` ({lu}) {} `{rn}` ({ru}) mixes units", t.text);
                push("unit-mixing", t, msg);
            }
        }
    }
    if tooling {
        return out;
    }
    // float-accum: from each `for` / `while` / `loop`, its first `{` through
    // the matching brace is a loop body.
    let mut seen = Vec::new();
    for (k, kw) in toks.iter().enumerate() {
        let after_path = k > 0 && matches!(&*toks[k - 1].text, "." | "::");
        let is_loop = kw.kind == Kind::Ident && matches!(&*kw.text, "for" | "while" | "loop");
        let body = (k + 1..toks.len()).find(|&j| toks[j].is(Kind::Open, "{"));
        let Some(open) = body.filter(|_| is_loop && !after_path) else {
            continue;
        };
        let close = v.match_of[open].unwrap_or(open);
        for (i, t) in toks.iter().enumerate().take(close).skip(open) {
            if !t.is(Kind::Op, "+=") || exempt(t) || seen.contains(&i) {
                continue;
            }
            if let Some(name) = accum_target(v, i).filter(|n| is_sim_time(n)) {
                seen.push(i);
                let msg = format!("`{name} += …` in a loop drifts; derive it from the step index");
                push("float-accum", t, msg);
            }
        }
    }
    out
}

/// The dimension an identifier's last `_` segment names. Short segments
/// (`s`, `ms`, ...) count only as suffixes (`elapsed_s`), never alone.
fn unit_of(ident: &str) -> Option<&'static str> {
    let seg = ident.rsplit('_').next().unwrap_or(ident);
    let suffixed = ident.len() > seg.len();
    match seg.to_ascii_lowercase().as_str() {
        "s" | "ms" | "us" | "ns" | "sec" if suffixed => Some("time"),
        "secs" | "millis" | "micros" | "nanos" => Some("time"),
        "byte" | "bit" | "pkt" | "seg" if suffixed => Some("data"),
        "bytes" | "bits" | "pkts" | "packets" | "segs" => Some("data"),
        "bps" | "kbps" | "mbps" | "gbps" | "pps" => Some("rate"),
        _ => None,
    }
}

/// Walk one operand chain (`self.cfg.bin_secs`, `x.as_nanos()`, `buf[i]`)
/// away from the operator at `op` to its first unit-suffixed identifier.
/// Groups are jumped over, never entered: leftwards a parenthesized
/// operand, rightwards call arguments and indexes. Unary prefixes are
/// skipped.
fn operand(v: &SourceView, op: usize, right: bool) -> Option<(&'static str, String)> {
    let toks = &v.tokens;
    let unary = |t: &&Token| t.kind == Kind::Op && matches!(&*t.text, "-" | "!" | "&" | "*");
    let mut j = if right {
        op + 1 + toks[op + 1..].iter().take_while(unary).count()
    } else {
        op.checked_sub(1)?
    };
    for _ in 0..64 {
        let t = toks.get(j)?;
        let unit = unit_of(&t.text).filter(|_| t.kind == Kind::Ident);
        match t.kind {
            _ if unit.is_some() => return unit.map(|u| (u, t.text.clone())),
            Kind::Ident | Kind::Int => {}
            Kind::Op if t.text == "." || t.text == "::" => {}
            Kind::Close if !right => j = v.match_of[j]?,
            Kind::Open if right => j = v.match_of[j]?,
            _ => return None,
        }
        j = if right { j + 1 } else { j.checked_sub(1)? };
    }
    None
}

/// The assigned identifier of the compound assignment at `op`.
fn accum_target(v: &SourceView, op: usize) -> Option<String> {
    let mut j = op.checked_sub(1)?;
    for _ in 0..16 {
        let t = &v.tokens[j];
        match t.kind {
            Kind::Ident => return Some(t.text.clone()),
            Kind::Close => j = v.match_of[j]?,
            Kind::Int => {}
            Kind::Op if t.text == "." || t.text == "::" => {}
            _ => return None,
        }
        j = j.checked_sub(1)?;
    }
    None
}

/// Names that carry simulated time as float seconds by workspace
/// convention. `_ms` / `_ns` names are integer ticks and `*_time` fields are
/// `SimDuration`s (exact integer nanoseconds): both are exempt.
fn is_sim_time(name: &str) -> bool {
    let seg = name.rsplit('_').next().unwrap_or(name);
    let suffix = name.len() > seg.len() && matches!(seg, "s" | "sec" | "secs");
    suffix || matches!(name, "t" | "time" | "now" | "elapsed" | "clock")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, src: &str) -> String {
        let found: Vec<&str> = check(path, src).into_iter().map(|f| f.0).collect();
        found.join(" ")
    }

    #[test]
    fn rules_fire_where_they_should() {
        // Each case is the rules that must fire, then a source linted as
        // simulation code.
        let cases = [
            ("float-eq", "if c == 0.0 {}"),
            ("float-eq", "if x != 1.5f64 {}"),
            ("float-eq", "if x == -1.5 {}"),
            ("float-eq", "if 2. == y {}"),
            (
                "",
                "if n == 0 {} for i in 0..10 {} if a <= 1.0 {} s == \"1.0\";",
            ),
            ("", "#[cfg(test)]\nmod t {\n fn f() { x == 1.0; }\n}\n"),
            ("unit-mixing", "let x = horizon_s + window_bytes;"),
            ("unit-mixing", "let x = tx_bytes - rate_mbps;"),
            ("unit-mixing", "if elapsed_s < goodput_mbps {}"),
            ("unit-mixing", "total_pkts += idle_secs;"),
            ("unit-mixing", "let y = self.cfg.bin_secs + pkt.wire_bytes;"),
            ("unit-mixing", "let y = f(a).b_secs + x.get(1)[0].n_bytes;"),
            ("", "let x = horizon_s + window_s + t_ms * 1000.0;"),
            ("", "let r = tx_bytes as f64 / elapsed_s;"),
            ("", "let x = count + tx_bytes + s + 1;"),
            ("", "let x = dur.as_secs() + lag_s; let y = -horizon_s;"),
            ("float-accum", "while go {\n t += dt;\n}\n"),
            ("float-accum", "for _ in 0..n { self.elapsed_s += h; }"),
            ("float-accum", "loop { for x in y { t += dt; } }"),
            ("", "t += dt; x.for_each(|_| {}); t += 1.0;"),
            (
                "",
                "for _ in 0..n { total_bytes += b; self.busy_time += d; }",
            ),
            (
                "",
                "// simlint: allow(float-eq, reason = \"sentinel\")\nif x == 0.0 {}\n",
            ),
            (
                "",
                "t_s + n_bytes; // simlint: allow(unit-mixing, reason = \"r\")",
            ),
            (
                "dead-pragma",
                "let x = 3; // simlint: allow(float-eq, reason = \"none\")",
            ),
            (
                "dead-pragma float-eq",
                "x == 1.0; // simlint: allow(float-eq)",
            ),
            (
                "dead-pragma",
                "x.unwrap(); // simlint: allow(no-such-rule, reason = \"r\")",
            ),
        ];
        for (want, src) in cases {
            assert_eq!(rules("crates/netsim/src/x.rs", src), want, "{src}");
        }
        assert_eq!(
            rules("crates/xtask/src/main.rs", "x == 1.0; a_s + b_bytes"),
            "float-eq"
        );
        assert_eq!(rules("tests/a.rs", "x == 1.0"), "");
    }
}
