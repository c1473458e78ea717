//! Workspace invariant linter. See `xar_check::lint` for the rules.
//!
//! ```text
//! xar-lint [--root <path>] [--update] [--test-list <file>]
//! ```
//!
//! Exits non-zero when any rule fires. `--update` regenerates the
//! `tags.lock` / `ops.lock` registry baselines from current source
//! (commit the result so the registry change is a reviewed diff).
//! `--test-list` adds the `ci-filters` rule, given what
//! `cargo test --workspace -- --list 2>&1` printed.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut update = false;
    let mut test_list = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" | "--test-list" => match args.next().map(PathBuf::from) {
                Some(p) if a == "--root" => root = p,
                Some(p) => test_list = Some(p),
                None => {
                    eprintln!("xar-lint: {a} needs a path");
                    return ExitCode::from(2);
                }
            },
            "--update" => update = true,
            "--help" | "-h" => {
                println!("usage: xar-lint [--root <path>] [--update] [--test-list <file>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("xar-lint: unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    // Sanity-anchor: refuse to "pass" when pointed somewhere that is
    // not the workspace at all.
    if !root.join("Cargo.toml").exists() {
        eprintln!("xar-lint: {} does not look like the workspace root", root.display());
        return ExitCode::from(2);
    }
    let findings = xar_check::lint::run_workspace(&root, update).and_then(|mut findings| {
        if let Some(list) = &test_list {
            findings.extend(xar_check::lint::run_ci_filters(&root, list)?);
        }
        Ok(findings)
    });
    match findings {
        Ok(findings) if findings.is_empty() => {
            if update {
                println!("xar-lint: baselines regenerated, no findings");
            } else {
                println!("xar-lint: clean");
            }
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!("xar-lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xar-lint: io error: {e}");
            ExitCode::from(2)
        }
    }
}
