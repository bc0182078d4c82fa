//! Workspace automation (`cargo xtask <command>`, through the alias in
//! `.cargo/config.toml`): the two checks of the lint chain that clippy
//! cannot run itself (DESIGN.md §9.1).
//!
//! * `simlint [paths...]` (alias `lint`): the token rules (float-eq,
//!   unit-mixing, float-accum, dead-pragma) over the workspace sources, or
//!   over the given files.
//! * `ratchet [--baseline <path>] [--update-baseline <path>]`: read a
//!   `cargo clippy --message-format=json` stream on stdin, fail on any
//!   error, and hold the warnings per (lint, file) to the baseline. Without
//!   `--baseline` every warning is new, unless `--update-baseline` rewrites
//!   the baseline to what the stream holds.
//!
//! Exit status: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

mod json;
mod lexer;
mod ratchet;
mod rules;

use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask simlint [paths...]\n       \
                     cargo xtask ratchet [--baseline <path>] [--update-baseline <path>] < clippy.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("simlint" | "lint") => simlint(&args[1..]),
        Some("ratchet") => ratchet(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(clean) => ExitCode::from(u8::from(!clean)),
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::from(2)
        }
    }
}

/// The nearest ancestor whose `Cargo.toml` has a `[workspace]` table.
fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    while !std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|m| m.contains("[workspace]"))
    {
        if !dir.pop() {
            return Err("no Cargo.toml with a [workspace] table above here".to_string());
        }
    }
    Ok(dir)
}

fn simlint(args: &[String]) -> Result<bool, String> {
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        return Err(format!("unknown flag `{flag}`\n{USAGE}"));
    }
    let root = workspace_root()?;
    let paths = match args {
        [] => rules::workspace_files(&root),
        _ => args.iter().map(|a| root.join(a)).collect(),
    };
    let mut findings = 0;
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = path.strip_prefix(&root).unwrap_or(path).to_string_lossy();
        for (rule, line, col, message) in rules::check(&rel, &text) {
            println!("{rel}:{line}:{}: [{rule}] {message}", col + 1);
            findings += 1;
        }
    }
    println!("simlint: {} file(s), {findings} finding(s)", paths.len());
    Ok(findings == 0)
}

fn ratchet(args: &[String]) -> Result<bool, String> {
    let root = workspace_root()?;
    let (mut baseline, mut update) = (None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let slot = match a.as_str() {
            "--baseline" => &mut baseline,
            "--update-baseline" => &mut update,
            _ => return Err(format!("unknown argument `{a}`\n{USAGE}")),
        };
        *slot = Some(root.join(it.next().ok_or(format!("{a} needs a path"))?));
    }
    let mut stream = String::new();
    std::io::stdin()
        .read_to_string(&mut stream)
        .map_err(|e| e.to_string())?;
    let build = ratchet::read(&stream)?;
    let no_end = "no build-finished message: pipe in `cargo clippy --message-format=json`";
    let success = build.finished.ok_or(no_end)?;
    let counts = build.counts();
    let io = |p: &PathBuf, e: std::io::Error| format!("{}: {e}", p.display());
    let base = match (&baseline, &update) {
        (Some(p), _) => ratchet::parse(&std::fs::read_to_string(p).map_err(|e| io(p, e))?)?,
        (None, Some(_)) => counts.clone(),
        (None, None) => ratchet::Counts::new(),
    };
    if let Some(p) = &update {
        std::fs::write(p, ratchet::to_json(&counts)).map_err(|e| io(p, e))?;
    }
    let errors: Vec<String> = build.errors().map(ratchet::Diagnostic::render).collect();
    errors.iter().for_each(|e| println!("{e}"));
    if !success && errors.is_empty() {
        println!("ratchet: cargo reports a failed build with no error diagnostic; run it by hand");
    }
    let (new, stale) = ratchet::compare(&base, &counts);
    for ((lint, path), was, now) in &new {
        println!("{path}: [{lint}] {now} finding(s), the baseline allows {was}:");
        let key = |d: &&ratchet::Diagnostic| (&d.code, &d.path) == (lint, path);
        build
            .diagnostics
            .iter()
            .filter(key)
            .for_each(|d| println!("{}", d.render()));
    }
    for ((lint, path), was, now) in &stale {
        println!("{path}: [{lint}] the baseline allows {was}, the code has {now}: shrink it");
    }
    let total: usize = counts.values().sum();
    let (keys, over, under) = (counts.len(), new.len(), stale.len());
    println!(
        "ratchet: {total} finding(s), {keys} (lint, file) entries, {over} over, {under} stale"
    );
    Ok(success && errors.is_empty() && new.is_empty() && stale.is_empty())
}
