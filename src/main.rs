//! `ive` — command-line front end for the IVE reproduction.
//!
//! ```text
//! ive demo                                   run a live private retrieval
//! ive model   --db-gib 16 [--batch 64]       time one batch on the accelerator model
//! ive cluster --db-gib 1024 --systems 16     model a scale-out deployment
//! ive schedule --db-gib 16                   compare BFS/DFS/HS/+R.O. schedules
//! ive experiments                            list the table/figure harnesses
//! ```

use std::process::ExitCode;

use ive::accel::config::{IveConfig, SchedulePolicy};
use ive::accel::engine::{simulate_batch, DbPlacement};
use ive::accel::{IveCluster, IveSystem};
use ive::baselines::complexity::Geometry;

mod cli {
    //! Minimal flag parsing (no external dependencies).

    /// A parsed `--key value` flag set.
    #[derive(Debug, Default)]
    pub struct Flags {
        pairs: Vec<(String, String)>,
        pub switches: Vec<String>,
    }

    impl Flags {
        /// Parses arguments after the subcommand. `--key value` becomes a
        /// pair; a bare `--key` becomes a switch.
        pub fn parse(args: &[String]) -> Result<Self, String> {
            let mut flags = Flags::default();
            let mut i = 0;
            while i < args.len() {
                let arg = &args[i];
                let key =
                    arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument {arg:?}"))?;
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    flags.pairs.push((key.to_string(), args[i + 1].clone()));
                    i += 2;
                } else {
                    flags.switches.push(key.to_string());
                    i += 1;
                }
            }
            Ok(flags)
        }

        /// A numeric flag with a default.
        pub fn num(&self, key: &str, default: u64) -> Result<u64, String> {
            match self.pairs.iter().find(|(k, _)| k == key) {
                None => Ok(default),
                Some((_, v)) => {
                    v.parse().map_err(|_| format!("--{key} expects a number, got {v:?}"))
                }
            }
        }

        /// Whether a bare switch is present.
        pub fn has(&self, key: &str) -> bool {
            self.switches.iter().any(|s| s == key)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn s(v: &[&str]) -> Vec<String> {
            v.iter().map(|x| x.to_string()).collect()
        }

        #[test]
        fn parses_pairs_and_switches() {
            let f = Flags::parse(&s(&["--db-gib", "16", "--lpddr", "--batch", "64"])).unwrap();
            assert_eq!(f.num("db-gib", 2).unwrap(), 16);
            assert_eq!(f.num("batch", 1).unwrap(), 64);
            assert_eq!(f.num("missing", 7).unwrap(), 7);
            assert!(f.has("lpddr"));
            assert!(!f.has("hbm"));
        }

        #[test]
        fn rejects_malformed() {
            assert!(Flags::parse(&s(&["db-gib"])).is_err());
            let f = Flags::parse(&s(&["--batch", "sixty-four"])).unwrap();
            assert!(f.num("batch", 1).is_err());
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            print_help();
            return ExitCode::SUCCESS;
        }
    };
    let result = match cmd {
        "demo" => demo(),
        "model" => model(rest),
        "cluster" => cluster(rest),
        "schedule" => schedule(rest),
        "experiments" => {
            experiments();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command {other:?} (try `ive help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "ive — single-server PIR acceleration (HPCA 2026 reproduction)\n\n\
         USAGE:\n  ive demo                                 live private retrieval (toy ring)\n  \
         ive model   --db-gib N [--batch B] [--lpddr]  accelerator timing for one batch\n  \
         ive cluster --db-gib N [--systems S] [--batch B]  scale-out deployment model\n  \
         ive schedule --db-gib N [--batch B]      BFS/DFS/HS/+R.O. comparison\n  \
         ive experiments                          list the paper-exhibit harnesses"
    );
}

fn demo() -> Result<(), String> {
    use ive::pir::{Database, PirClient, PirParams, PirServer};
    let params = PirParams::toy();
    let records: Vec<Vec<u8>> =
        (0..params.num_records()).map(|i| format!("demo record #{i:02}").into_bytes()).collect();
    let db = Database::from_records(&params, &records).map_err(|e| e.to_string())?;
    let server = PirServer::new(&params, db).map_err(|e| e.to_string())?;
    let mut client = PirClient::new(&params, rand::thread_rng()).map_err(|e| e.to_string())?;
    let target = 29;
    let query = client.query(target).map_err(|e| e.to_string())?;
    let response = server.answer(client.public_keys(), &query).map_err(|e| e.to_string())?;
    let plain = client.decode(&query, &response).map_err(|e| e.to_string())?;
    println!(
        "retrieved record {target} privately: {:?}",
        String::from_utf8_lossy(&plain[..records[target].len()])
    );
    println!(
        "(the server scanned all {} records and never learned the index)",
        params.num_records()
    );
    Ok(())
}

fn model(rest: &[String]) -> Result<(), String> {
    let flags = cli::Flags::parse(rest)?;
    let gib = flags.num("db-gib", 16)?;
    let batch = flags.num("batch", 64)? as usize;
    let geom = Geometry::paper_for_db_bytes(gib << 30);
    let (cfg, placement) = if flags.has("lpddr") {
        (IveConfig::paper(), DbPlacement::Lpddr)
    } else {
        (IveConfig::paper_hbm_only(), DbPlacement::Hbm)
    };
    if placement == DbPlacement::Hbm && !cfg.hbm.fits(geom.preprocessed_db_bytes()) {
        return Err(format!(
            "{gib}GiB does not fit HBM once preprocessed; pass --lpddr for the scale-up system"
        ));
    }
    let r = simulate_batch(&cfg, &geom, batch, placement);
    println!("IVE model: {gib}GiB database, batch {batch}, DB in {placement:?}");
    let ms = |s: f64| format!("{:8.2}ms", 1e3 * s);
    let bound = |st: &ive::accel::StepTime| if st.memory_bound() { "memory" } else { "compute" };
    println!("  ExpandQuery {} ({}-bound)", ms(r.expand.seconds), bound(&r.expand));
    println!("  RowSel      {} ({}-bound)", ms(r.rowsel.seconds), bound(&r.rowsel));
    println!("  ColTor      {} ({}-bound)", ms(r.coltor.seconds), bound(&r.coltor));
    println!("  Comm        {}", ms(r.comm_s));
    println!("  total       {}  ->  {:.0} QPS", ms(r.total_s), r.qps);
    println!("  DB-read latency floor: {}", ms(r.min_latency_s));
    Ok(())
}

fn cluster(rest: &[String]) -> Result<(), String> {
    let flags = cli::Flags::parse(rest)?;
    let gib = flags.num("db-gib", 1024)?;
    let systems = flags.num("systems", 16)? as usize;
    let batch = flags.num("batch", 128)? as usize;
    let geom = Geometry::paper_for_db_bytes(gib << 30);
    if systems == 1 {
        let sys = IveSystem::paper();
        let r = sys.run(&geom, batch).map_err(|e| e.to_string())?;
        println!("single IVE system: {:.1} QPS, batch latency {:.3}s", r.qps, r.total_s);
        return Ok(());
    }
    let cluster = IveCluster::paper(systems).map_err(|e| e.to_string())?;
    let r = cluster.run(&geom, batch).map_err(|e| e.to_string())?;
    println!("{systems}-system IVE cluster, {gib}GiB database, batch {batch}:");
    println!("  cluster throughput  {:.1} QPS ({:.2} per system)", r.qps, r.qps_per_system);
    println!("  batch latency       {:.3}s", r.total_s);
    println!("  gather + final      {:.2}ms", 1e3 * (r.gather_s + r.final_coltor_s));
    Ok(())
}

fn schedule(rest: &[String]) -> Result<(), String> {
    let flags = cli::Flags::parse(rest)?;
    let gib = flags.num("db-gib", 16)?;
    let batch = flags.num("batch", 64)? as usize;
    let geom = Geometry::paper_for_db_bytes(gib << 30);
    println!("scheduling study, {gib}GiB database, batch {batch}:");
    let variants: [(&str, SchedulePolicy, bool); 4] = [
        ("BFS", SchedulePolicy::Bfs, false),
        ("DFS", SchedulePolicy::Dfs, false),
        ("HS (w/ DFS)", SchedulePolicy::HsDfs, false),
        ("HS+R.O.", SchedulePolicy::HsDfs, true),
    ];
    let mut baseline = None;
    for (label, policy, ro) in variants {
        let mut cfg = IveConfig::paper_hbm_only();
        cfg.policy = policy;
        cfg.reduction_overlap = ro;
        let r = simulate_batch(&cfg, &geom, batch, DbPlacement::Hbm);
        let base = *baseline.get_or_insert(r.total_s);
        println!(
            "  {label:<12} {:8.2}ms  ({:.2}x vs BFS)  tree traffic {:.2}GB",
            1e3 * r.total_s,
            base / r.total_s,
            (r.expand.traffic.total() + r.coltor.traffic.total()) as f64 / 1e9
        );
    }
    Ok(())
}

fn experiments() {
    println!("paper-exhibit harnesses (run with `cargo run --release -p ive_bench --bin <name>`):");
    for (bin, what) in ive_bench::EXHIBITS {
        println!("  {bin:<22} {what}");
    }
}
