//! Runs every table/figure harness in sequence, printing each exhibit.
use std::process::Command;

const BINS: [&str; 10] = [
    "table1_params",
    "fig4_complexity",
    "fig6_roofline",
    "fig7d_optypes",
    "fig8_traffic",
    "table2_area_power",
    "fig12_throughput",
    "table3_prior_hw",
    "fig13_sensitivity",
    "fig14_ark_queue",
];

fn main() {
    // Prefer in-process calls where the harness is a library; exec the
    // sibling binaries so each stays independently runnable.
    let me = std::env::current_exe().expect("current exe");
    let dir = me.parent().expect("bin dir");
    for bin in BINS {
        let path = dir.join(bin);
        let status = Command::new(&path).status();
        match status {
            Ok(s) if s.success() => {}
            _ => eprintln!("warning: {bin} did not run (build it with --bins)"),
        }
    }
    // Table IV last (depends on nothing else).
    let t4 = dir.join("table4_other_schemes");
    let _ = Command::new(&t4).status();
}
