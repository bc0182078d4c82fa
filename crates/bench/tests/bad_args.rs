//! A positional argument that does not parse is refused before anything
//! runs: the usage line on stderr, nothing on stdout, exit status 2 — never
//! a silent fallback to the default.

use std::process::Command;

fn refuses(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("the binary starts");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("usage: "), "{bin} {args:?}: {stderr}");
}

#[test]
fn table1_results_refuses_a_malformed_argument() {
    let bin = env!("CARGO_BIN_EXE_table1_results");
    refuses(bin, &["3O", "2"]);
    refuses(bin, &["3", "2s"]);
    refuses(bin, &["3", "2", "all"]);
}

#[test]
fn sim_counters_refuses_a_malformed_argument() {
    refuses(env!("CARGO_BIN_EXE_sim_counters"), &["x"]);
}
