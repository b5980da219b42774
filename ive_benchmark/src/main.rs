//! `ive_benchmark`: one command, four workloads, end-to-end and per-layer
//! numbers of the IVE PIR stack, measured through public functions only.
//! See README.md beside this package for what each number means.

use std::process::ExitCode;

mod compare;
mod gen;
mod host;
mod json;
mod report;
mod stats;
mod trace;
mod workloads;

use json::Json;
use report::{Report, RUN_SECONDS, WORKLOADS};
use workloads::Ctx;

const USAGE: &str = "usage:
  ive_benchmark --workload <name>|all --seed <n> [--seconds <s>] [--trace <0|1>] [--traced]
                [--quick] [--json-out <path>] [--trace-out <path>]
  ive_benchmark compare <old.json> <new.json>
  ive_benchmark manifest

  --trace 0     untraced run: the end-to-end metrics (default)
  --trace 1     traced run: the per-layer metrics
  --traced      both, the untraced run first
  --quick       seconds, not minutes: toy geometry, one set-up; not comparable
  --json-out    append the run(s) to the \"runs\" array of this file
  --trace-out   write the spans of a traced run here, one JSON object per line";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    /// Which runs to make: untraced, traced, or both.
    modes: Vec<bool>,
    quick: bool,
    json_out: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: RUN_SECONDS as f64,
        modes: vec![false],
        quick: false,
        json_out: None,
        trace_out: None,
    };
    let mut seed = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes a whole number")?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.modes = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => args.modes = vec![false, true],
            "--quick" => args.quick = true,
            "--json-out" => args.json_out = Some(value()?.clone()),
            "--trace-out" => args.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    if args.workload != "all" && !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {} or all", names.join(", ")));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => compare::run(&argv[1], &argv[2]),
        Some("manifest") if argv.len() == 1 => {
            println!("{}", pretty(&report::manifest(), 0));
            Ok(true)
        }
        _ => parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}")).and_then(|args| {
            if args.workload == "all" || args.modes.len() > 1 {
                run_children(&args)
            } else {
                run_one(&args)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ive_benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Runs each (workload, mode) in a process of its own, so that memory
/// high-water marks are per workload. Returns whether all succeeded.
fn run_children(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.iter().map(|w| w.name).collect(),
        one => vec![one],
    };
    let mut ok = true;
    for name in names {
        for &traced in &args.modes {
            let mut child = std::process::Command::new(&exe);
            child.args(["--workload", name, "--seed", &args.seed.to_string()]);
            child.args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
            ]);
            if args.quick {
                child.arg("--quick");
            }
            if let Some(path) = &args.json_out {
                child.args(["--json-out", path]);
            }
            if let (Some(path), true) = (&args.trace_out, traced) {
                child.args(["--trace-out", &format!("{path}.{name}")]);
            }
            // `status` waits for the child to end.
            ok &= child.status().map_err(|e| format!("{name}: {e}"))?.success();
        }
    }
    Ok(ok)
}

/// One run of one workload in this process. Returns whether every
/// answer was right.
fn run_one(args: &Args) -> Result<bool, String> {
    let traced = args.modes[0];
    let ctx = Ctx::new(args.seed, args.seconds, traced, args.quick);
    let report = workloads::run(&args.workload, &ctx)?;
    let result = report.result_line(traced)?;

    let name = report.workload;
    for (metric, m) in &report.metrics {
        println!("{name} {metric} {} {} n={}", m.value, m.unit, m.samples);
        let supported = stats::highest_supported_percentile(m.samples);
        if metric.ends_with("_p90") && supported < 90.0 {
            println!(
                "{name} note {metric} rests on {} samples: with ten beyond it, p{supported}",
                m.samples
            );
        }
    }
    println!("{name} attempted {} count n=1", report.attempted);
    println!("{name} failed {} count n=1", report.failed);
    let spans = ctx.rec.spans();
    for (span, count, total_ms, self_ms) in trace::summary(&spans) {
        println!("{name} span {span} count={count} total_ms={total_ms:.3} self_ms={self_ms:.3}");
    }
    let run = run_document(args, traced, &report);
    println!("{name} run {run}");
    if let Some(path) = &args.json_out {
        append_run(path, run)?;
    }
    if let (Some(path), true) = (&args.trace_out, traced) {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        trace::dump(&spans, &mut std::io::BufWriter::new(file))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{result}");
    Ok(report.failed == 0)
}

/// Everything about one run: what `--json-out` stores and `compare` reads.
fn run_document(args: &Args, traced: bool, report: &Report) -> Json {
    let Json::Obj(mut fields) = report.to_json() else { unreachable!("a report is an object") };
    fields.extend([
        ("seed".to_string(), Json::from(args.seed)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("traced".to_string(), Json::Bool(traced)),
        ("quick".to_string(), Json::Bool(args.quick)),
        ("host".to_string(), host::fingerprint()),
    ]);
    Json::Obj(fields)
}

fn append_run(path: &str, run: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            doc.get("runs")
                .and_then(Json::as_arr)
                .ok_or(format!("{path}: no \"runs\" array"))?
                .to_vec()
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    runs.push(run);
    let doc = Json::obj([("runs", Json::Arr(runs))]);
    std::fs::write(path, format!("{}\n", pretty(&doc, 0))).map_err(|e| format!("{path}: {e}"))
}

/// Indented form of the outer levels of a document (objects of scalars
/// stay on one line), for files people read.
fn pretty(value: &Json, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let end = "  ".repeat(depth);
    let nested = |v: &Json| matches!(v, Json::Arr(_) | Json::Obj(_));
    match value {
        Json::Obj(fields) if fields.iter().any(|(_, v)| nested(v)) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{pad}{}: {}", Json::str(k.as_str()), pretty(v, depth + 1)))
                .collect();
            format!("{{\n{}\n{end}}}", body.join(",\n"))
        }
        Json::Arr(items) if items.iter().any(nested) => {
            let body: Vec<String> =
                items.iter().map(|v| format!("{pad}{}", pretty(v, depth + 1))).collect();
            format!("[\n{}\n{end}]", body.join(",\n"))
        }
        flat => flat.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a =
            args(&["--workload", "kv_mix_tcp", "--seed", "7", "--seconds", "20", "--trace", "1"])
                .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.modes),
            ("kv_mix_tcp", 7, 20.0, vec![true])
        );
        assert_eq!(
            args(&["--workload", "all", "--seed", "1", "--traced"]).unwrap().modes,
            [false, true]
        );
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "all"],
            &["--workload", "all", "--seed", "x"],
            &["--workload", "all", "--seed", "1", "--trace", "2"],
            &["--workload", "all", "--seed", "1", "--seconds", "0"],
            &["--workload", "all", "--seed", "1", "--bogus"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// A smoke run of every workload in both modes: every answer right,
    /// the result line parses and carries exactly the declared metrics.
    #[test]
    fn quick_runs_emit_exactly_the_declared_metrics() {
        for w in &WORKLOADS {
            for traced in [false, true] {
                let ctx = Ctx::new(42, 1.0, traced, true);
                let report =
                    workloads::run(w.name, &ctx).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                assert_eq!(report.failed, 0, "{} traced={traced}", w.name);
                assert!(report.attempted >= 1);
                let line = report.result_line(traced).unwrap().to_string();
                let parsed = Json::parse(&line).expect("the result line is JSON");
                let keys: Vec<&str> =
                    parsed.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
                let got: Vec<&str> = parsed
                    .get("metrics")
                    .unwrap()
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let want: Vec<&str> = if traced {
                    PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(got, want, "{} traced={traced}", w.name);
                if !traced {
                    for (name, m) in parsed.get("metrics").unwrap().as_obj().unwrap() {
                        assert!(
                            m.get("value").and_then(Json::as_f64).is_some_and(|v| v > 0.0),
                            "{name}"
                        );
                    }
                }
                let doc = run_document(
                    &args(&["--workload", w.name, "--seed", "42", "--quick"]).unwrap(),
                    traced,
                    &report,
                );
                assert_eq!(Json::parse(&pretty(&doc, 0)).unwrap(), doc);
                assert_eq!(doc.get("quick"), Some(&Json::Bool(true)));
                for key in ["nproc", "effective_llc_bytes", "isa", "backend", "git_commit"] {
                    assert!(doc.get("host").unwrap().get(key).is_some(), "host.{key}");
                }
            }
        }
    }
}
