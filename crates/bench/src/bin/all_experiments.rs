//! Runs every table/figure harness in sequence, printing each exhibit,
//! and exits non-zero when any of them is missing or fails.
use std::process::{Command, ExitCode};

use ive_bench::EXHIBITS;

fn main() -> ExitCode {
    // Exec the sibling binaries so each stays independently runnable;
    // they must be built beside this one (`cargo build -p ive_bench --bins`).
    let me = std::env::current_exe().expect("current exe");
    let dir = me.parent().expect("bin dir");
    let mut failed = Vec::new();
    for (bin, _) in EXHIBITS {
        match Command::new(dir.join(bin)).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("error: {bin} failed ({s})");
                failed.push(bin);
            }
            Err(e) => {
                eprintln!("error: {bin} did not run ({e}); build it with `-p ive_bench --bins`");
                failed.push(bin);
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} exhibits missing or failed: {}",
            failed.len(),
            EXHIBITS.len(),
            failed.join(", ")
        );
        ExitCode::FAILURE
    }
}
