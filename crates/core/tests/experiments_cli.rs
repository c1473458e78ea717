//! The `xar_experiments` driver refuses bad input through its usage
//! message (exit 2) instead of printing tables: `--runs 0` would
//! average over zero runs and print rows of `NaN`.

use std::process::Command;

#[test]
fn zero_runs_and_unknown_experiments_exit_2_with_empty_stdout() {
    for args in [&["fig3", "--runs", "0"][..], &["bogus"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_xar_experiments")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed {}", String::from_utf8_lossy(&out.stdout));
    }
}
