#![forbid(unsafe_code)]
//! `vsim-lint` CLI. Exit codes: 0 clean, 1 violations, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let mut s = String::from(
        "usage: vsim-lint [--root <dir>]\n\n\
         Walks every .rs file under <dir> (default: the workspace this\n\
         binary was built from) and reports invariant violations as\n\
         `file:line: rule-id: message`.\n",
    );
    s.push_str("\nrules:\n");
    for rule in vsim_lint::rules::all() {
        s.push_str(&format!("  {:<18} {}\n", rule.id(), rule.description()));
    }
    s
}

fn default_root() -> PathBuf {
    // The manifest dir is baked in at compile time; fall back to the
    // current directory when the binary moved (e.g. a CI cache).
    let compiled = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if compiled.join("crates").is_dir() {
        compiled
    } else {
        PathBuf::from(".")
    }
}

fn main() -> ExitCode {
    let mut root = default_root();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory argument\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let diags = match vsim_lint::run(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("vsim-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("vsim-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}
