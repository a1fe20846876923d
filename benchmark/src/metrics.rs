//! Every metric the benchmark prints, by name: the one table behind
//! `BENCHMARK.json` (`--manifest` prints it), the last line of a run
//! and the result files.

use crate::json;
use crate::stats::Summary;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics, which explain and do not gate.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn down(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, bound: None }
}

const fn up(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher, bound: None }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ingest",
        why: "the paper's pipeline on aircraft solids: voxelize r=15/30, greedy covers, vector sets, then build, save, open, query; voxel and features do over 90% of the work",
    },
    Workload {
        name: "knn_mem",
        why: "10-NN on 50000 synthetic sets in memory, ephemeral pools: index candidate pulls and the bounded setdist kernel split the time, the file store is bypassed",
    },
    Workload {
        name: "knn_file",
        why: "the same 50000 sets saved and reopened via pread behind a shared 256-page pool (3.5% of the file): store faults, checksums, eviction and shard locks dominate",
    },
    Workload {
        name: "churn",
        why: "DynamicIndex at n=20000: one writer runs rounds of 150 inserts, 150 deletes and a publish beside one reader on pinned epochs; write cost and the O(n) publish copy show here",
    },
    Workload {
        name: "cluster",
        why: "2000 sets through pairwise_tiled and OPTICS: the unbounded setdist kernel does nearly all the work, index, store and query are bypassed; the no-change case for them",
    },
];

/// What a user of the system sees. Every workload reports every one of
/// these; what the workload's operation is stands in the README.
///
/// The bounds are the widest the driver allows. On the 2-core sandbox
/// the benchmark was sized on, ten runs on ten seeds spread (quartile
/// distance over median) by 3–6 % on `ops_per_s` and `p50_ms`, by up to
/// 2 % on `peak_rss_mb` and by 2–13 % on `setup_s`; the machine that
/// checks the benchmark shares its host with more, and spread `p95_ms`,
/// which this list held at first, by 17–31 %: it is `client.p95_ms`
/// below now. A tighter bound would reject innocent changes; a gain is
/// claimed by paired runs, not by these bounds.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// One layer each (layer = crate name), from the traced run. A layer a
/// workload bypasses reports 0 there.
pub const PER_LAYER: &[Metric] = &[
    // The issue's workload-specific end-to-end numbers, kept by name.
    up("ingest.objects_per_s", "1/s"),
    up("knn.qps", "1/s"),
    down("knn.p99_ms", "ms"),
    up("knn.warm_qps", "1/s"),
    down("knn.save_ms", "ms"),
    down("knn.reopen_ms", "ms"),
    down("knn.bytes_per_object", "B"),
    up("churn.write_ops_per_s", "1/s"),
    up("churn.reader_qps", "1/s"),
    down("churn.reader_p99_ms", "ms"),
    down("churn.publish_p50_ms", "ms"),
    up("cluster.pairs_per_s", "1/s"),
    down("cluster.cluster_s", "s"),
    // The tail of the 1-client operation whose median is `p50_ms`.
    down("client.p95_ms", "ms"),
    // ingest
    down("datagen.solid_us_per_obj", "us"),
    down("voxel.voxelize_r15_ms_per_obj", "ms"),
    down("voxel.voxelize_r30_ms_per_obj", "ms"),
    down("features.cover_ms_per_obj", "ms"),
    up("features.covers_per_obj", "count"),
    down("features.vector_set_us_per_obj", "us"),
    down("core.processed_build_s", "s"),
    up("parallel.ingest_speedup", "ratio"),
    up("ingest.voxel_features_share", "ratio"),
    down("synth.refine_frac", "ratio"),
    down("real.refine_frac", "ratio"),
    // build
    down("query.build_ms", "ms"),
    down("index.build_xtree_ms", "ms"),
    down("index.build_mtree_ms", "ms"),
    down("index.build_pointfile_ms", "ms"),
    down("index.build_heap_ms", "ms"),
    // the k-NN loop
    down("index.next_candidate_ns", "ns"),
    down("index.pull_share", "ratio"),
    down("index.filter_steps_per_query", "count"),
    down("index.node_pages_per_query", "count"),
    down("index.heap_get_ns", "ns"),
    down("index.heap_share", "ratio"),
    down("setdist.centroid_ns", "ns"),
    down("setdist.prepare_ns", "ns"),
    down("setdist.refine_ns_per_call", "ns"),
    down("setdist.refine_share", "ratio"),
    up("setdist.pruned_frac", "ratio"),
    up("setdist.f32_pruned_frac", "ratio"),
    down("setdist.exact_frac", "ratio"),
    down("query.multistep_self_share", "ratio"),
    down("query.refinements_per_query", "count"),
    up("query.refinements_saved_per_query", "count"),
    down("query.pruned_per_query", "count"),
    down("query.f32_prefilter_per_query", "count"),
    down("query.plan_us", "us"),
    down("query.plan_est_ms", "ms"),
    down("query.plan_sim_ms", "ms"),
    down("query.plan_est_ratio", "ratio"),
    down("query.near_tie_id_mismatch", "count"),
    up("parallel.batch_speedup", "ratio"),
    // store
    up("store.pool_hit_rate", "ratio"),
    up("store.warm_hit_rate", "ratio"),
    down("store.faults_per_query", "count"),
    down("store.evictions_per_query", "count"),
    down("store.bytes_per_query", "B"),
    down("store.read_page_us", "us"),
    down("store.read_page_mmap_us", "us"),
    down("store.pool_miss_us", "us"),
    down("store.pool_hit_ns", "ns"),
    up("store.warm_qps_mmap", "1/s"),
    up("store.cold_qps_mmap", "1/s"),
    down("store.write_streams_ms", "ms"),
    down("store.sync_ms", "ms"),
    down("store.open_ms", "ms"),
    down("store.open_mmap_ms", "ms"),
    // churn
    down("query.insert_us", "us"),
    down("query.delete_us", "us"),
    down("index.xtree_insert_us", "us"),
    down("index.xtree_delete_us", "us"),
    down("index.mtree_insert_us", "us"),
    down("index.mtree_delete_us", "us"),
    down("index.heap_append_us", "us"),
    down("query.publish_ms_p99", "ms"),
    down("index.snapshot_xtree_ms", "ms"),
    down("index.snapshot_mtree_ms", "ms"),
    down("index.snapshot_pointfile_ms", "ms"),
    down("index.snapshot_heap_ms", "ms"),
    down("query.epoch_pin_ns", "ns"),
    up("query.generations", "count"),
    down("query.tombstone_ratio", "ratio"),
    down("query.reader_queries_per_generation", "count"),
    // cluster
    down("setdist.full_ns_per_pair", "ns"),
    down("setdist.prepare_ns_per_set", "ns"),
    up("parallel.tile_speedup", "ratio"),
    down("optics.order_s", "s"),
    // the trace itself
    down("trace.overhead_frac", "ratio"),
    up("trace.share_sum", "ratio"),
    up("trace.spans", "count"),
];

/// Something that counts operations: `failed` of `attempted` returned
/// an error, the wrong number of hits or a distance outside tolerance.
pub trait Tally {
    fn ops(&mut self, attempted: u64, failed: u64);
}

/// What one part of an end-to-end run measured: for each end-to-end
/// metric the value of every piece (window, slice, block, set-up) the
/// part ran. The parent pools the pieces of all parts and reports their
/// median.
#[derive(Default)]
pub struct Pieces {
    samples: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally for Pieces {
    fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

impl Pieces {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.extend(name, [value]);
    }

    pub fn extend(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        assert!(END_TO_END.iter().any(|m| m.name == name), "unknown metric `{name}`");
        self.samples.entry(name).or_default().extend(values);
    }

    /// The line a part prints for its parent.
    pub fn to_json(&self) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(name, v)| {
                let values: Vec<String> = v.iter().map(|&x| json::number(x)).collect();
                format!("{}: [{}]", json::string(name), values.join(", "))
            })
            .collect();
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"pieces\": {{{}}}}}",
            self.attempted,
            self.failed,
            samples.join(", ")
        )
    }

    /// Pool the line another part printed into this one.
    pub fn absorb(&mut self, line: &str) -> Result<(), String> {
        let v = json::parse(line)?;
        let count =
            |key: &str| v.get(key).and_then(json::Value::as_f64).ok_or(format!("no `{key}`"));
        self.ops(count("attempted")? as u64, count("failed")? as u64);
        for m in END_TO_END {
            let values = v.get("pieces").and_then(|p| p.get(m.name)).and_then(json::Value::as_arr);
            self.extend(m.name, values.unwrap_or_default().iter().filter_map(json::Value::as_f64));
        }
        Ok(())
    }

    /// The end-to-end report: every metric the median of its pieces.
    pub fn into_report(mut self, workload: &'static str) -> Report {
        let mut report = Report::new(workload, false);
        report.ops(self.attempted, self.failed);
        for m in END_TO_END {
            let pieces = self.samples.get_mut(m.name).filter(|v| !v.is_empty());
            let pieces =
                pieces.unwrap_or_else(|| panic!("{workload}: `{}` was not measured", m.name));
            report.put(m.name, Summary::of(pieces));
        }
        report
    }
}

/// The metrics of one run of one workload.
pub struct Report {
    pub workload: &'static str,
    traced: bool,
    values: BTreeMap<&'static str, Summary>,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally for Report {
    fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

impl Report {
    pub fn new(workload: &'static str, trace: bool) -> Self {
        Report { workload, traced: trace, values: BTreeMap::new(), attempted: 0, failed: 0 }
    }

    /// The metrics this run reports: per-layer when traced, else end to end.
    fn metrics(&self) -> &'static [Metric] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Record a metric of this run's table. A name outside it is a typo.
    pub fn put(&mut self, name: &'static str, s: Summary) {
        assert!(self.metrics().iter().any(|m| m.name == name), "unknown metric `{name}`");
        assert!(s.median.is_finite(), "metric `{name}` is not finite");
        self.values.insert(name, s);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(name, Summary::single(value));
    }

    /// Every metric of the table; a per-layer metric the workload did
    /// not touch is 0, an end-to-end metric must have been measured.
    fn rows(&self) -> impl Iterator<Item = (&'static Metric, Summary)> + '_ {
        self.metrics().iter().map(|m| {
            let s = self.values.get(m.name).copied().unwrap_or_else(|| {
                assert!(m.bound.is_none(), "{}: `{}` was not measured", self.workload, m.name);
                Summary::single(0.0)
            });
            (m, s)
        })
    }

    /// The one-line result the driver reads.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .rows()
            .map(|(m, s)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(m.name),
                    json::number(s.median),
                    json::string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The table a person reads: every metric with unit, sample count,
    /// quartiles and bound.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {}  attempted {}  failed {}\n{:<40} {:>16} {:<6} {:>8} {:>14} {:>14} {:>6} {}\n",
            self.workload,
            self.attempted,
            self.failed,
            "metric",
            "value",
            "unit",
            "samples",
            "q1",
            "q3",
            "bound",
            "better"
        );
        for (m, s) in self.rows() {
            if m.bound.is_none() && !self.values.contains_key(m.name) {
                continue; // a layer this workload bypasses
            }
            out.push_str(&format!(
                "{:<40} {:>16.6} {:<6} {:>8} {:>14.6} {:>14.6} {:>6} {}\n",
                m.name,
                s.median,
                m.unit,
                s.samples,
                s.q1,
                s.q3,
                m.bound.map_or("-".to_string(), |b| format!("{b}")),
                m.better.as_str()
            ));
        }
        out
    }

    /// This workload's entry of a result file.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .rows()
            .map(|(m, s)| {
                format!(
                    "      {{\"name\": {}, \"value\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"samples\": {}, \"q1\": {}, \"q3\": {}}}",
                    json::string(m.name),
                    json::number(s.median),
                    json::string(m.unit),
                    json::string(m.better.as_str()),
                    m.bound.map_or("null".to_string(), json::number),
                    s.samples,
                    json::number(s.q1),
                    json::number(s.q3)
                )
            })
            .collect();
        format!(
            "    {{\"workload\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \"metrics\": [\n{}\n    ]}}",
            json::string(self.workload),
            self.failed == 0,
            self.attempted,
            self.failed,
            json::number(self.failed as f64 / self.attempted.max(1) as f64),
            metrics.join(",\n")
        )
    }
}

/// `BENCHMARK.json`, from the tables above.
pub fn manifest(seconds: u64) -> String {
    let list = |ms: &[Metric]| {
        ms.iter()
            .map(|m| {
                let bound = m.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    json::string(m.name),
                    json::string(m.unit),
                    json::string(m.better.as_str())
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!("    {{\"name\": {}, \"why\": {}}}", json::string(w.name), json::string(w.why))
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        list(END_TO_END),
        list(PER_LAYER)
    )
}
