//! The clippy ratchet: read a `cargo clippy --message-format=json` stream
//! and hold its warnings, counted per (lint, file), to the checked-in
//! baseline `results/simlint_baseline.json`. One finding more than a file's
//! count is new and fails; one fewer is a stale entry and fails too, until
//! the baseline is rewritten smaller. So the inventory only shrinks. The
//! baseline holds one sorted entry per line, so its diff reads as "this file
//! got better at this lint".

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{self, Json};

/// `(lint, path) -> count`.
pub type Counts = BTreeMap<(String, String), usize>;

/// A `(lint, path)` key with its recorded and actual count.
pub type Delta = ((String, String), usize, usize);

/// One diagnostic, at its outermost macro call site. `path` is relative to
/// the workspace root, as cargo reports it; `end` tells `v[i][j]`'s two
/// indexes apart; `code` is the lint (`clippy::indexing_slicing`,
/// `unsafe_code`) or the error code.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub path: String,
    pub line: u64,
    pub col: u64,
    pub end: (u64, u64),
    pub level: String,
    pub code: String,
    pub message: String,
}

impl Diagnostic {
    pub fn render(&self) -> String {
        let (path, line, col) = (&self.path, self.line, self.col);
        format!(
            "{path}:{line}:{col}: {}[{}] {}",
            self.level, self.code, self.message
        )
    }
}

/// A cargo message stream: its warnings and errors, deduplicated (a file
/// compiled into two targets reports twice), and `build-finished`'s
/// `success`, if the stream got that far.
pub struct Build {
    pub diagnostics: Vec<Diagnostic>,
    pub finished: Option<bool>,
}

impl Build {
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.level != "warning")
    }

    /// Warnings per (lint, file): what the baseline pins.
    pub fn counts(&self) -> Counts {
        let mut counts = Counts::new();
        for d in self.diagnostics.iter().filter(|d| d.level == "warning") {
            *counts.entry((d.code.clone(), d.path.clone())).or_default() += 1;
        }
        counts
    }
}

/// Read cargo's message stream, one JSON message per line. Each primary
/// span is followed through its macro expansions to the call site in the
/// user's source. A finding inside a `debug_assert!` is dropped: it expands
/// to `assert!`, which `disallowed_macros` sees, but it compiles out of
/// release builds.
pub fn read(stream: &str) -> Result<Build, String> {
    let mut found = BTreeSet::new();
    let mut finished = None;
    for line in stream.lines().filter(|l| !l.trim().is_empty()) {
        let msg = json::parse(line)?;
        let diag = msg.at("message");
        let level = diag.at("level").text();
        match msg.at("reason").text() {
            "build-finished" => finished = Some(*msg.at("success") == Json::Bool(true)),
            "compiler-message" if level == "warning" || level.starts_with("error") => {
                for span in diag.at("spans").items() {
                    let (mut site, mut in_debug_assert) = (span, false);
                    while *site.at("expansion") != Json::Null {
                        let exp = site.at("expansion");
                        in_debug_assert |=
                            exp.at("macro_decl_name").text().starts_with("debug_assert");
                        site = exp.at("span");
                    }
                    if *span.at("is_primary") != Json::Bool(true) || in_debug_assert {
                        continue;
                    }
                    let num = |k| site.at(k).num().unwrap_or(0.0) as u64;
                    found.insert(Diagnostic {
                        path: site.at("file_name").text().to_string(),
                        line: num("line_start"),
                        col: num("column_start"),
                        end: (num("line_end"), num("column_end")),
                        level: level.to_string(),
                        code: diag.at("code").at("code").text().to_string(),
                        message: diag.at("message").text().to_string(),
                    });
                }
            }
            _ => {}
        }
    }
    let diagnostics = found.into_iter().collect();
    Ok(Build {
        diagnostics,
        finished,
    })
}

/// Render counts as the checked-in baseline.
pub fn to_json(counts: &Counts) -> String {
    let entry = |((lint, path), n): (&(String, String), &usize)| {
        format!("    {{\"rule\": \"{lint}\", \"path\": \"{path}\", \"count\": {n}}}")
    };
    let entries: Vec<String> = counts.iter().map(entry).collect();
    let head = "{\n  \"schema_version\": 1,\n  \"tool\": \"simlint-baseline\",\n  \"entries\": [";
    format!("{head}\n{}\n  ]\n}}\n", entries.join(",\n"))
}

/// Parse the checked-in baseline.
pub fn parse(text: &str) -> Result<Counts, String> {
    let mut counts = Counts::new();
    for e in json::parse(text)?.at("entries").items() {
        let (rule, path) = (e.at("rule").text(), e.at("path").text());
        let key = (rule.to_string(), path.to_string());
        let n = e.at("count").num().ok_or(format!("no count in {e:?}"))?;
        if counts.insert(key, n as usize).is_some() {
            return Err(format!("the baseline has two entries for {e:?}"));
        }
    }
    Ok(counts)
}

/// The keys over budget (new findings) and under it (stale entries).
pub fn compare(baseline: &Counts, actual: &Counts) -> (Vec<Delta>, Vec<Delta>) {
    let keys: BTreeSet<&(String, String)> = baseline.keys().chain(actual.keys()).collect();
    let count = |c: &Counts, k: &(String, String)| c.get(k).copied().unwrap_or(0);
    let delta = |k: &(String, String)| (k.clone(), count(baseline, k), count(actual, k));
    let changed = keys.into_iter().map(delta);
    let changed = changed.filter(|(_, was, now)| was != now);
    changed.partition(|(_, was, now)| now > was)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Warnings from two targets of one crate (`v[i]` twice, then `v[i][j]`),
    /// an `assert!` and a `debug_assert!` expanded from the standard library,
    /// and a denied lint.
    const STREAM: &str = r#"
{"reason": "compiler-message", "message": {"level": "warning", "message": "m", "code": {"code": "clippy::indexing_slicing"}, "spans": [{"file_name": "src/a.rs", "line_start": 3, "column_start": 5, "column_end": 9, "is_primary": true, "expansion": null}]}}
{"reason": "compiler-message", "message": {"level": "warning", "message": "m", "code": {"code": "clippy::indexing_slicing"}, "spans": [{"file_name": "src/a.rs", "line_start": 3, "column_start": 5, "column_end": 9, "is_primary": true, "expansion": null}]}}
{"reason": "compiler-message", "message": {"level": "warning", "message": "m", "code": {"code": "clippy::indexing_slicing"}, "spans": [{"file_name": "src/a.rs", "line_start": 3, "column_start": 5, "column_end": 12, "is_primary": true}]}}
{"reason": "compiler-message", "message": {"level": "warning", "message": "m", "code": {"code": "clippy::disallowed_macros"}, "spans": [{"file_name": "/rustc/core.rs", "is_primary": true, "expansion": {"macro_decl_name": "assert!", "span": {"file_name": "src/a.rs", "line_start": 4}}}]}}
{"reason": "compiler-message", "message": {"level": "warning", "message": "m", "code": {"code": "clippy::disallowed_macros"}, "spans": [{"file_name": "/rustc/core.rs", "is_primary": true, "expansion": {"macro_decl_name": "debug_assert!", "span": {"file_name": "src/a.rs", "line_start": 5}}}]}}
{"reason": "compiler-message", "message": {"level": "error", "message": "m", "code": {"code": "clippy::unwrap_used"}, "spans": [{"file_name": "src/b.rs", "line_start": 7, "column_start": 5, "is_primary": true}]}}
{"reason": "compiler-artifact"}
{"reason": "build-finished", "success": false}
"#;

    fn key(lint: &str, path: &str) -> (String, String) {
        (lint.to_string(), path.to_string())
    }

    #[test]
    fn reads_call_sites_and_skips_debug_asserts() {
        let build = read(STREAM).unwrap();
        assert_eq!(build.finished, Some(false));
        let errors: Vec<String> = build.errors().map(Diagnostic::render).collect();
        assert_eq!(errors, ["src/b.rs:7:5: error[clippy::unwrap_used] m"]);
        let counts: Vec<_> = build.counts().into_iter().collect();
        let a = |lint, n| (key(lint, "src/a.rs"), n);
        let want = [
            a("clippy::disallowed_macros", 1),
            a("clippy::indexing_slicing", 2),
        ];
        assert_eq!(counts, want);
        assert!(read("not json").is_err());
    }

    #[test]
    fn the_baseline_round_trips_and_only_shrinks() {
        let counts = |entries: [(&str, &str, usize); 3]| {
            Counts::from(entries.map(|(lint, path, n)| (key(lint, path), n)))
        };
        let base = counts([("l", "a.rs", 2), ("l", "b.rs", 2), ("l", "gone.rs", 1)]);
        assert_eq!(parse(&to_json(&base)).unwrap(), base);
        assert!(parse(r#"{"entries": [{"rule": "r"}]}"#).is_err());
        let entry = r#"{"rule": "r", "path": "p", "count": 1}"#;
        assert!(parse(&format!(r#"{{"entries": [{entry}, {entry}]}}"#)).is_err());
        let now = counts([("l", "a.rs", 2), ("l", "b.rs", 3), ("m", "a.rs", 1)]);
        let (new, stale) = compare(&base, &now);
        assert_eq!(new, [(key("l", "b.rs"), 2, 3), (key("m", "a.rs"), 0, 1)]);
        assert_eq!(stale, [(key("l", "gone.rs"), 1, 0)]);
    }
}
