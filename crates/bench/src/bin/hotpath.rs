//! `hotpath` — compute-path microbenchmarks for the VPE kernel layer,
//! run as a **backend matrix**: the scalar reference, the portable
//! Barrett/Shoup backend, and (where the host's ISA probes allow) the
//! AVX2 SIMD and AVX-512 backends, all in one invocation, on the
//! numbers that govern serving throughput:
//!
//! 1. **ns per FMA limb element** — the raw kernel, measured directly on
//!    flat limb rows (what one PE lane does all day), over a 28-bit
//!    serving prime.
//! 2. **NTT µs per transform** — one forward + inverse Harvey dispatch
//!    on a degree-4096 row over a special prime (the `ColTor`/expand
//!    workhorse).
//! 3. **`RowSel` scan GB/s** — a full single-query scan over the
//!    contiguous limb-major database via `row_sel_into` with warm
//!    arena-backed scratch (the memory-bandwidth-bound loop of IM-PIR /
//!    IVE §III), reported alongside this host's **measured** sequential
//!    read bandwidth (`ive_baselines::roofline::measure_read_bandwidth`)
//!    as a fraction of the roofline ceiling.
//! 4. **End-to-end answer latency** — `ExpandQuery → RowSel → ColTor`
//!    through the same backend, on the main geometry (`D0 = 8`: the
//!    whole `ExpandQuery` tree at the default 32 rows) and on a fixed
//!    folded one (`D0 = 64`, 4 rows: fewer rows than `D0/2`, so the
//!    server folds the tree's last level into `RowSel`), one pipeline
//!    on each side of that choice.
//!
//! Writes `BENCH_hotpath.json` with one block per measured backend, the
//! pairwise speedup ratios (`optimized_over_scalar`,
//! `simd_over_optimized`, `avx512_over_simd`, …), a `roofline` block,
//! and a `detected_features` field so artifacts from 1-core or
//! feature-less CI hosts stay interpretable.
//!
//! Usage: `hotpath [--seconds 8] [--dims 5] [--records 2^20]
//! [--json-out BENCH_hotpath.json]`
//!
//! `--records` sizes the database by total record count (accepts `2^20`
//! or plain integers) and overrides `--dims`: paper-scale geometries
//! (2^20-class) exceed any LLC, so the scan numbers become genuine
//! DRAM-roofline measurements rather than cache replays.

use std::time::Instant;

use ive_baselines::roofline::measure_read_bandwidth;
use ive_bench::fmt;
use ive_math::kernel::{avx512_available, effective_llc_bytes, simd_available, BackendKind};
use ive_math::modulus::Modulus;
use ive_math::ntt::NttTable;
use ive_pir::{Database, PirClient, PirParams, PirServer, QueryScratch};
use rand::{Rng, SeedableRng};

struct Args {
    seconds: f64,
    dims: u32,
    json_out: String,
}

/// Parses a record count as either `2^20` or a plain integer; the count
/// must be a power of two covering at least one `RowSel` row (`D0 = 8`).
fn parse_records(value: &str) -> Result<u64, String> {
    let records = match value.split_once('^') {
        Some(("2", exp)) => {
            let exp: u32 = exp.parse().map_err(|_| format!("--records got {value:?}"))?;
            if exp >= 48 {
                return Err(format!("--records 2^{exp} is beyond any addressable database"));
            }
            1u64 << exp
        }
        Some(_) => return Err(format!("--records got {value:?} (use 2^k or an integer)")),
        None => value.parse().map_err(|_| format!("--records got {value:?}"))?,
    };
    if !records.is_power_of_two() || records < 16 {
        return Err(format!("--records {records} must be a power of two >= 16"));
    }
    Ok(records)
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { seconds: 8.0, dims: 5, json_out: "BENCH_hotpath.json".into() };
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].strip_prefix("--").ok_or_else(|| format!("unexpected {:?}", argv[i]))?;
        let value = argv.get(i + 1).cloned().ok_or_else(|| format!("--{key} needs a value"))?;
        match key {
            "seconds" => {
                args.seconds = value.parse().map_err(|_| format!("--seconds got {value:?}"))?
            }
            "dims" => args.dims = value.parse().map_err(|_| format!("--dims got {value:?}"))?,
            // Total records D = D0 · 2^d with D0 = 8, so `--records`
            // is sugar for `--dims log2(records / 8)`.
            "records" => args.dims = parse_records(&value)?.trailing_zeros() - 3,
            "json-out" => args.json_out = value,
            other => return Err(format!("unknown flag --{other}")),
        }
        i += 2;
    }
    Ok(args)
}

/// Runs `op` repeatedly for roughly `budget_s` seconds (after one
/// warm-up call) and returns the mean seconds per iteration.
fn time_loop(budget_s: f64, mut op: impl FnMut()) -> f64 {
    op(); // warm-up
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_secs_f64() < budget_s {
        op();
        iters += 1;
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// ISA features relevant to backend selection that the runtime probe
/// found on this host (empty on non-x86 targets or feature-less CPUs).
fn detected_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            features.push("avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx512ifma") {
            features.push("avx512ifma");
        }
    }
    features
}

/// Per-backend measurements of the hot-path numbers.
struct BackendResult {
    kind: BackendKind,
    /// What actually runs after the runtime-probe fallback chain.
    resolved: &'static str,
    fma_ns_per_elem: f64,
    ntt_us: f64,
    rowsel_s: f64,
    rowsel_gbps: f64,
    answer_s: f64,
    /// The answer on the folded companion geometry.
    answer_folded_s: f64,
}

/// Seconds per `answer_with` of one query on a server over `db`, through
/// `kind`, on one thread and warm scratch.
fn time_answer(kind: BackendKind, params: &PirParams, db: &Database, budget_s: f64) -> f64 {
    let mut server = PirServer::new(params, db.clone()).expect("geometry matches");
    server.set_rowsel_threads(1);
    server.set_backend(kind);
    let mut client = PirClient::new(params, rand::rngs::StdRng::seed_from_u64(7)).expect("keygen");
    let query = client.query(params.num_records() / 2).expect("in range");
    let mut scratch = QueryScratch::new();
    time_loop(budget_s, || {
        let _ = server.answer_with(client.public_keys(), &query, &mut scratch).expect("answer");
    })
}

fn measure(
    kind: BackendKind,
    (params, db): (&PirParams, &Database),
    folded: (&PirParams, &Database),
    budget_s: f64,
) -> BackendResult {
    let backend = kind.backend();
    let per_section = budget_s / 5.0;

    // 1. Raw FMA on one limb row, big enough to stream from cache/memory.
    let modulus = Modulus::special_primes()[0];
    let mut rng = rand::rngs::StdRng::seed_from_u64(4096);
    let len = 1usize << 16;
    let a: Vec<u64> = (0..len).map(|_| rng.gen_range(0..modulus.value())).collect();
    let b: Vec<u64> = (0..len).map(|_| rng.gen_range(0..modulus.value())).collect();
    let mut acc = vec![0u64; len];
    let fma_s = time_loop(per_section, || backend.fma(&modulus, &mut acc, &a, &b));

    // 2. Forward + inverse NTT dispatch at the paper's ring degree.
    let ntt_n = 4096usize;
    let table = NttTable::new(&modulus, ntt_n).expect("special primes reach 2^12");
    let mut row: Vec<u64> = (0..ntt_n).map(|_| rng.gen_range(0..modulus.value())).collect();
    let ntt_pair_s = time_loop(per_section, || {
        backend.ntt_forward(&table, &mut row);
        backend.ntt_inverse(&table, &mut row);
    });

    // 3 + 4. The pipeline on a real server with warm per-worker scratch.
    let mut server = PirServer::new(params, db.clone()).expect("geometry matches");
    server.set_rowsel_threads(1); // measure the kernel path, not the pool
    server.set_backend(kind);
    let mut client = PirClient::new(params, rand::rngs::StdRng::seed_from_u64(7)).expect("keygen");
    let query = client.query(params.num_records() / 2).expect("in range");
    let expanded = server.expand(client.public_keys(), &query).expect("keys ok");
    let mut scratch = QueryScratch::new();
    let rowsel_s =
        time_loop(per_section, || server.row_sel_into(&expanded, &mut scratch).expect("scan"));
    let answer_s = time_answer(kind, params, db, per_section);
    let answer_folded_s = time_answer(kind, folded.0, folded.1, per_section);

    let db_bytes = db.resident_bytes() as f64;
    BackendResult {
        kind,
        resolved: backend.name(),
        fma_ns_per_elem: 1e9 * fma_s / len as f64,
        ntt_us: 1e6 * ntt_pair_s / 2.0,
        rowsel_s,
        rowsel_gbps: db_bytes / rowsel_s / 1e9,
        answer_s,
        answer_folded_s,
    }
}

fn json_backend(r: &BackendResult, roofline_gbps: f64) -> String {
    format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"backend_resolved\": \"{}\",\n",
            "      \"fma_ns_per_elem\": {:.3},\n",
            "      \"ntt_us\": {:.3},\n",
            "      \"row_sel_ms\": {:.4},\n",
            "      \"row_sel_gbps\": {:.4},\n",
            "      \"row_sel_roofline_fraction\": {:.4},\n",
            "      \"answer_ms\": {:.4},\n",
            "      \"answer_folded_ms\": {:.4}\n",
            "    }}"
        ),
        r.kind.as_str(),
        r.resolved,
        r.fma_ns_per_elem,
        r.ntt_us,
        1e3 * r.rowsel_s,
        r.rowsel_gbps,
        r.rowsel_gbps / roofline_gbps,
        1e3 * r.answer_s,
        1e3 * r.answer_folded_s,
    )
}

/// `{"fma": …, "ntt": …, "row_sel": …, "answer": …}` of `num/den` per
/// metric (all "higher = faster" ratios: time of `den` over time of
/// `num` is inverted so the JSON reads as speedup of `num` over `den`).
fn json_speedup(label: &str, fast: &BackendResult, slow: &BackendResult) -> String {
    format!(
        concat!(
            "    \"{}\": {{ \"fma\": {:.3}, \"ntt\": {:.3}, ",
            "\"row_sel\": {:.3}, \"answer\": {:.3} }}"
        ),
        label,
        slow.fma_ns_per_elem / fast.fma_ns_per_elem,
        slow.ntt_us / fast.ntt_us,
        slow.rowsel_s / fast.rowsel_s,
        slow.answer_s / fast.answer_s,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hotpath: {e}");
            std::process::exit(2);
        }
    };
    let he = ive_he::HeParams::toy();
    let params = PirParams::new(he.clone(), 8, args.dims).expect("geometry valid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let db = Database::random(&params, &mut rng);
    let folded = PirParams::new(he, 64, 2).expect("geometry valid");
    let folded_db = Database::random(&folded, &mut rng);

    let features = detected_features();
    let mut kinds = vec![BackendKind::Scalar, BackendKind::Optimized];
    if simd_available() {
        kinds.push(BackendKind::Simd);
    } else {
        eprintln!("hotpath: AVX2 not detected — simd rows omitted (see detected_features)");
    }
    if avx512_available() {
        kinds.push(BackendKind::Avx512);
    } else {
        eprintln!("hotpath: AVX-512F not detected — avx512 rows omitted (see detected_features)");
    }
    println!(
        "hotpath: {} records x {}B ({:.1} MiB preprocessed), backends [{}], features [{}], \
         total budget {:.1}s",
        params.num_records(),
        params.record_bytes(),
        db.resident_bytes() as f64 / (1 << 20) as f64,
        kinds.iter().map(|k| k.as_str()).collect::<Vec<_>>().join(", "),
        features.join(", "),
        args.seconds
    );
    let db_bytes = db.resident_bytes() as usize;
    let llc = effective_llc_bytes();
    if db_bytes <= llc {
        eprintln!(
            "hotpath: WARNING — database ({:.1} MiB) fits in the {:.1} MiB LLC: row_sel GB/s \
             measures cache replay, not DRAM. Use --records 2^20 for roofline-honest numbers.",
            db_bytes as f64 / (1 << 20) as f64,
            llc as f64 / (1 << 20) as f64
        );
    }

    // The roofline ceiling for the scan: this host's measured sequential
    // read bandwidth over a DRAM-sized stream (256 MiB dwarfs any LLC
    // this class of machine carries).
    let roofline_buf = 256usize << 20;
    let roofline_gbps = measure_read_bandwidth(roofline_buf, 3) / 1e9;
    println!("roofline: measured sequential read bandwidth {roofline_gbps:.2} GB/s");

    let per_backend = args.seconds / kinds.len() as f64;
    let results: Vec<BackendResult> = kinds
        .iter()
        .map(|&k| measure(k, (&params, &db), (&folded, &folded_db), per_backend))
        .collect();

    fmt::print_table(
        "hotpath: VPE kernel backend matrix on the RowSel-dominated query path",
        &[
            "backend",
            "fma ns/elem",
            "ntt us",
            "row_sel ms",
            "row_sel GB/s",
            "roofline",
            "answer ms",
            "folded answer ms",
        ],
        &results
            .iter()
            .map(|r| {
                vec![
                    r.kind.as_str().into(),
                    fmt::f(r.fma_ns_per_elem),
                    fmt::f(r.ntt_us),
                    fmt::f(1e3 * r.rowsel_s),
                    fmt::f(r.rowsel_gbps),
                    format!("{:.0}%", 100.0 * r.rowsel_gbps / roofline_gbps),
                    fmt::f(1e3 * r.answer_s),
                    fmt::f(1e3 * r.answer_folded_s),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let scalar = &results[0];
    let optimized = &results[1];
    let simd = results.iter().find(|r| r.kind == BackendKind::Simd);
    let avx512 = results.iter().find(|r| r.kind == BackendKind::Avx512);
    println!("row_sel speedup (optimized / scalar): {:.2}x", scalar.rowsel_s / optimized.rowsel_s);
    if scalar.rowsel_s / optimized.rowsel_s < 1.5 {
        eprintln!("warning: expected the optimized backend to be >= 1.5x faster on row_sel");
    }
    if let Some(simd) = simd {
        println!(
            "simd over optimized: fma {:.2}x, ntt {:.2}x, row_sel {:.2}x, answer {:.2}x",
            optimized.fma_ns_per_elem / simd.fma_ns_per_elem,
            optimized.ntt_us / simd.ntt_us,
            optimized.rowsel_s / simd.rowsel_s,
            optimized.answer_s / simd.answer_s,
        );
        if optimized.fma_ns_per_elem / simd.fma_ns_per_elem < 1.5
            || optimized.ntt_us / simd.ntt_us < 1.5
        {
            eprintln!("warning: expected the simd backend to be >= 1.5x faster on fma and ntt");
        }
    }
    if let (Some(simd), Some(avx512)) = (simd, avx512) {
        let ratios = [
            ("fma", simd.fma_ns_per_elem / avx512.fma_ns_per_elem),
            ("ntt", simd.ntt_us / avx512.ntt_us),
            ("row_sel", simd.rowsel_s / avx512.rowsel_s),
        ];
        println!(
            "avx512 over simd: fma {:.2}x, ntt {:.2}x, row_sel {:.2}x, answer {:.2}x",
            ratios[0].1,
            ratios[1].1,
            ratios[2].1,
            simd.answer_s / avx512.answer_s,
        );
        let wins = ratios.iter().filter(|(_, r)| *r >= 1.3).count();
        if wins < 2 {
            eprintln!(
                "warning: expected avx512 >= 1.3x over simd on at least two of fma/ntt/row_sel, \
                 got {wins}"
            );
        }
        println!(
            "avx512 row_sel at {:.1}% of the measured {:.2} GB/s read roofline",
            100.0 * avx512.rowsel_gbps / roofline_gbps,
            roofline_gbps,
        );
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let backend_blocks =
        results.iter().map(|r| json_backend(r, roofline_gbps)).collect::<Vec<_>>().join(",\n");
    let mut speedup_blocks = vec![json_speedup("optimized_over_scalar", optimized, scalar)];
    if let Some(simd) = simd {
        speedup_blocks.push(json_speedup("simd_over_optimized", simd, optimized));
        speedup_blocks.push(json_speedup("simd_over_scalar", simd, scalar));
    }
    if let Some(avx512) = avx512 {
        if let Some(simd) = simd {
            speedup_blocks.push(json_speedup("avx512_over_simd", avx512, simd));
        }
        speedup_blocks.push(json_speedup("avx512_over_optimized", avx512, optimized));
        speedup_blocks.push(json_speedup("avx512_over_scalar", avx512, scalar));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"hotpath\",\n",
            "  \"cores\": {},\n",
            "  \"arch\": \"{}\",\n",
            "  \"detected_features\": [{}],\n",
            "  \"geometry\": {{ \"records\": {}, \"record_bytes\": {}, ",
            "\"preprocessed_bytes\": {} }},\n",
            "  \"folded_geometry\": {{ \"d0\": {}, \"rows\": {} }},\n",
            "  \"roofline\": {{ \"read_gbps\": {:.4}, \"probe_mib\": {} }},\n",
            "  \"backends\": {{\n{}\n  }},\n",
            "  \"speedup\": {{\n{}\n  }}\n",
            "}}\n"
        ),
        cores,
        std::env::consts::ARCH,
        features.iter().map(|f| format!("\"{f}\"")).collect::<Vec<_>>().join(", "),
        params.num_records(),
        params.record_bytes(),
        db.resident_bytes(),
        folded.d0(),
        folded.num_rows(),
        roofline_gbps,
        roofline_buf >> 20,
        backend_blocks,
        speedup_blocks.join(",\n"),
    );
    std::fs::write(&args.json_out, &json).expect("write json");
    println!("wrote {}", args.json_out);
}
