//! The benchmark's fixed vocabulary — workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics — and the result of one run.
//! `BENCHMARK.json` is generated from these tables ([`manifest`]).

use std::collections::BTreeMap;

use crate::json::Json;

/// How long one run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 25;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "paper_dram_direct",
        why: "Table I ring, 1 GiB database (3.9x LLC), no network: only ive_math/ive_he/ive_pir work, \
              every stage a visible share; the traced run's batch-4 phase is where scan \
              amortisation must show",
    },
    WorkloadDef {
        name: "serve_open_tcp",
        why: "Small records over real TCP, 16 in flight (traced: Poisson 10 and 30 q/s first): \
              wire, window, queueing and batching are a measurable share; ive_serve does the moving",
    },
    WorkloadDef {
        name: "serve_update_mix",
        why: "Closed-loop reads beside 5 update epochs/s on one journaled engine: fsync, CoW page \
              copies and epoch swaps compete with the scan; per-epoch caching shows its cost here",
    },
    WorkloadDef {
        name: "kv_mix_tcp",
        why: "Keyword gets (80% present) beside puts/deletes: same kernels through the KsPIR \
              path and the inline keyword handler, which has no batcher and no scratch",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every one of
/// these (see README.md for what each means per workload). Every timing
/// and the memory high-water mark carry the widest bound the driver
/// allows: the sizing host's speed moves by 10–30 % in episodes of seconds
/// to minutes whatever runs on it, and ten seeds spread by 3–15 %
/// (quartile distance over median). README.md has the figures.
/// `latency_ms_p90` did not repeat within its bound when the driver
/// checked the benchmark, so it is a per-layer metric (ISSUE 11's rule).
pub const END_TO_END: [EndToEndDef; 6] = [
    EndToEndDef { name: "latency_ms_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "throughput_qps", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEndDef { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "query_bytes", unit: "B", better: Better::Lower, bound: 0.01 },
    EndToEndDef { name: "response_bytes", unit: "B", better: Better::Lower, bound: 0.01 },
    EndToEndDef { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.25 },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef { name, unit, better: Better::Higher }
}

/// Single-layer figures from the `--trace 1` run. A workload reports 0
/// for a metric of a call it does not make.
pub const PER_LAYER: [LayerDef; 59] = [
    // ive_math, at fixed sizes; the read bandwidth only beside the DRAM scan.
    lower("math.fma_ns_per_elem", "ns"),
    lower("math.ntt_fwd_us", "us"),
    lower("math.ntt_inv_us", "us"),
    lower("math.decompose_us", "us"),
    higher("math.mem_read_gbps", "GB/s"),
    // ive_he, at the workload's ring.
    lower("he.subs_ms", "ms"),
    lower("he.external_product_ms", "ms"),
    // ive_pir pipeline, at the workload's geometry.
    lower("pir.client.keygen_ms", "ms"),
    lower("pir.client.query_ms", "ms"),
    lower("pir.client.decode_ms", "ms"),
    lower("pir.expand_ms", "ms"),
    lower("pir.rowsel_ms", "ms"),
    lower("pir.coltor_ms", "ms"),
    lower("pir.answer_ms", "ms"),
    lower("pir.stage_sum_over_answer", "ratio"),
    higher("pir.rowsel_gbps", "GB/s"),
    higher("pir.rowsel_roofline_frac", "ratio"),
    lower("pir.answer_batch4_ms_per_query", "ms"),
    lower("pir.rowsel_batch4_over_single", "ratio"),
    // ive_pir data and wire.
    higher("pir.db.preprocess_rec_per_s", "1/s"),
    lower("pir.update.prepare_us_per_record", "us"),
    lower("pir.db.apply_updates_ms", "ms"),
    lower("pir.db.cow_words_per_epoch", "count"),
    lower("pir.wire.encode_query_us", "us"),
    lower("pir.wire.decode_query_us", "us"),
    lower("pir.wire.encode_response_us", "us"),
    lower("pir.wire.decode_response_us", "us"),
    lower("pir.wire.hello_bytes", "B"),
    // ive_pir keyword.
    lower("pir.kspir.query_ms", "ms"),
    lower("pir.kspir.answer_ms", "ms"),
    lower("pir.kspir.decode_ms", "ms"),
    lower("pir.kv.slot_queries_per_get", "count"),
    // ive_serve.
    lower("serve.hello_ms", "ms"),
    lower("serve.stats_rtt_us", "us"),
    lower("serve.engine.answer_b1_ms", "ms"),
    lower("serve.engine.answer_b8_ms_per_query", "ms"),
    lower("serve.engine.commit_ms", "ms"),
    lower("serve.kv.engine_answer_ms", "ms"),
    lower("serve.unloaded_rtt_ms", "ms"),
    lower("serve.overhead_ms", "ms"),
    lower("serve.queue_wait_lo_ms", "ms"),
    lower("serve.queue_wait_hi_ms", "ms"),
    higher("serve.avg_batch_hi", "count"),
    higher("serve.avg_batch_sat", "count"),
    lower("serve.busy_rejections", "count"),
    lower("serve.journal_fsync_ms", "ms"),
    higher("serve.sat_over_single", "ratio"),
    // ive_accel: the Fig. 14 queue model against the live server.
    lower("accel.queue_model_lo_err", "ratio"),
    lower("accel.queue_model_hi_err", "ratio"),
    // The benchmark's own validity checks.
    lower("bench.gen_late_ms_p90", "ms"),
    lower("bench.trace_overhead_frac", "ratio"),
    // User-visible figures that only some workloads have. The driver's
    // contract wants every end-to-end metric from every workload, so
    // these keep their names here, unbounded. So does the p90 of every
    // workload's bounded latency, which does not repeat within a bound.
    lower("latency_ms_p90", "ms"),
    higher("batch_throughput_qps", "1/s"),
    lower("latency_lo_ms_p50", "ms"),
    lower("latency_lo_ms_p90", "ms"),
    lower("latency_hi_ms_p50", "ms"),
    lower("latency_hi_ms_p90", "ms"),
    lower("write_ack_ms_p50", "ms"),
    lower("failed_share", "ratio"),
];

/// `BENCHMARK.json`, generated so the file cannot drift from the tables.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "ive_benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("ive_benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One measured figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the figure (1 for a count or a single reading).
    pub samples: usize,
}

/// Everything one run of one workload measured.
pub struct Report {
    pub workload: &'static str,
    /// Requests sent, of every kind.
    pub attempted: u64,
    /// Requests that failed, were refused, timed out or decoded wrong.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Geometry, resident bytes and their ratio to the LLC.
    pub geometry: Json,
}

impl Report {
    pub fn new(workload: &'static str, geometry: Json) -> Self {
        Report { workload, attempted: 0, failed: 0, metrics: BTreeMap::new(), geometry }
    }

    /// Records `name`, whose unit comes from the tables above.
    ///
    /// # Panics
    /// Panics on a name the tables do not have: a bug in this program.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.insert(name, Metric { value, unit, samples });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line the driver reads: every end-to-end metric for an
    /// untraced run, every per-layer metric (0 where this workload does
    /// not make the call) for a traced one.
    ///
    /// # Errors
    /// Fails when an untraced run lacks an end-to-end metric: no request
    /// of the kind it is taken from was answered.
    pub fn result_line(&self, traced: bool) -> Result<Json, String> {
        let metric =
            |m: Metric| Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
        let metrics: Vec<(&str, Json)> = if traced {
            PER_LAYER
                .iter()
                .map(|d| {
                    let m = self.metrics.get(d.name).copied();
                    (d.name, metric(m.unwrap_or(Metric { value: 0.0, unit: d.unit, samples: 0 })))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|d| {
                    let m = self.metrics.get(d.name).ok_or_else(|| {
                        format!(
                            "{} measured no {}: every request it is taken from failed",
                            self.workload, d.name
                        )
                    })?;
                    Ok((d.name, metric(*m)))
                })
                .collect::<Result<_, String>>()?
        };
        Ok(Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ]))
    }

    /// Every measured metric with its sample count, for `--json-out`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("geometry", self.geometry.clone()),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, m)| {
                    (
                        *name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                            ("samples", Json::from(m.samples)),
                        ]),
                    )
                })),
            ),
        ])
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|d| (d.name, d.unit))
        .chain(PER_LAYER.iter().map(|d| (d.name, d.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_and_units_meet_the_driver_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is declared twice");
        }
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the widest bound");
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(on_disk.len() <= 64 << 10);
        assert_eq!(
            Json::parse(&on_disk).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `ive_benchmark manifest > BENCHMARK.json`"
        );
    }
}
