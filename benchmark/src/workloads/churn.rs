//! `churn`: writes beside reads on a `DynamicIndex` of 20 000 sets.
//!
//! One writer thread runs a seeded script of rounds — 150 inserts, 150
//! deletes, one `publish` — and one reader thread runs 10-NN on pinned
//! epochs until the script ends: two threads, `nproc`. (The reader
//! frees every epoch it outlives, a stall of milliseconds; with rounds
//! this long about one query in forty meets one, so the tail
//! percentile the traced run reports (`client.p95_ms`) is the ordinary
//! queries' and the stalls are `churn.reader_p99_ms`. With 20-operation
//! rounds one query in ten stalls and the 95th percentile sits inside
//! that second mode, where it moves by a third from run to run.) A
//! read-side gain
//! paid for by insert, delete or publish shows here. `publish` is an
//! O(n) deep copy today and heap files are never compacted between
//! saves, so publish time and memory rise with the tombstone ratio over
//! the script; both are reported as measured, not normalised. The
//! script's length is fixed, so both grow the same on every commit and
//! whatever `--seconds` says.
//!
//! A 10-second run is `BLOCKS` blocks, each a process of its own: it
//! builds a fresh index on inputs of its own (one set-up sample) and
//! runs the script on it. The blocks are alike — same sizes, same
//! make-up of objects and queries — and the median over blocks drops
//! the ones this sandbox disturbed.

use super::{
    build_parts, centroid, query_failed, Config, Parts, Spans, K, KNN, TAIL, VERIFY_QUERIES,
};
use crate::metrics::{Pieces, Report, Tally};
use crate::stats::{median, Latencies, Summary};
use crate::synth::{Mixture, DIM};
use crate::trace::{self, Tracer, ROOT};
use crate::verify;
use rand::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use vsim_index::{QueryContext, QueryStats};
use vsim_query::DynamicIndex;
use vsim_setdist::VectorSet;

/// Live objects, before and (the script inserts as many as it deletes)
/// after.
const N: usize = 20_000;
const ROUND_INSERTS: usize = 150;
const ROUND_DELETES: usize = 150;
const ROUND_OPS: usize = ROUND_INSERTS + ROUND_DELETES;
/// Fresh-index repetitions of the script in a 10-second run: its parts.
pub const BLOCKS: usize = 8;
/// Rounds per block: the heap file ends 37.5 % tombstones.
const ROUNDS: usize = 80;
/// The reader's queries, which it cycles through: blocks of one
/// make-up (`synth`), so that it asks an equally hard mix however far
/// it gets.
const QUERY_BLOCKS: usize = 4;
const QUERY_BLOCK: usize = 1024;
/// Operations timed on each standalone structure in the traced run.
const PROBE_OPS: usize = 2000;
const SPAN_CAPACITY: usize = 400_000;

pub fn describe() -> String {
    format!(
        "{{\"n\": {N}, \"round_inserts\": {ROUND_INSERTS}, \"round_deletes\": {ROUND_DELETES}, \
         \"blocks\": {BLOCKS}, \"rounds_per_block\": {ROUNDS}, \"queries\": {}}}",
        QUERY_BLOCKS * QUERY_BLOCK
    )
}

struct Built {
    /// Every set that ever gets an id: the initial `N`, then the
    /// script's inserts in order (ids are append-order dense).
    sets: Vec<VectorSet>,
    queries: Vec<VectorSet>,
    index: DynamicIndex,
}

fn build(cfg: &Config) -> Built {
    let mix = Mixture::new(K);
    let mut sets = mix.sets(cfg.seed, 0, N);
    let index = DynamicIndex::build(&sets, DIM, K).expect("build the dynamic index");
    sets.extend(mix.sets(cfg.seed, 2, ROUNDS * ROUND_INSERTS));
    Built { sets, queries: mix.blocks(cfg.seed, 1, QUERY_BLOCKS, QUERY_BLOCK), index }
}

/// What the writer thread brings back.
struct Written {
    publish_ms: Vec<f64>,
    /// `alive[id]` after the last publish: the model the final epoch is
    /// checked against.
    alive: Vec<bool>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    spans: Vec<trace::Span>,
}

/// The script: `ROUNDS` rounds. Deletes pick a seeded random live id,
/// so the same seed deletes the same objects.
fn writer(b: &Built, seed: u64, tracer: Option<Tracer>) -> Written {
    let ctx = QueryContext::ephemeral();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0063_6875_726e);
    let mut live: Vec<u64> = (0..N as u64).collect();
    let mut alive = vec![true; N];
    let mut next = N;
    let mut out = Written {
        publish_ms: Vec::with_capacity(ROUNDS),
        alive: Vec::new(),
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
        spans: Vec::new(),
    };
    let spans = tracer.as_ref();
    let wall = Instant::now();
    for r in 0..ROUNDS {
        let op = r as u32;
        let round = spans.map_or(ROOT, |t| t.begin("churn.round", ROOT, op));
        for _ in 0..ROUND_INSERTS {
            let ok = trace::span(
                spans,
                "query.insert",
                round,
                op,
                || matches!(b.index.insert(&b.sets[next], &ctx), Ok(id) if id == next as u64),
            );
            out.failed += u64::from(!ok);
            live.push(next as u64);
            alive.push(true);
            next += 1;
        }
        for _ in 0..ROUND_DELETES {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            let ok = trace::span(spans, "query.delete", round, op, || {
                matches!(b.index.delete(id, &ctx), Ok(true))
            });
            out.failed += u64::from(!ok);
            alive[id as usize] = false;
        }
        let p = Instant::now();
        let ok = trace::span(spans, "query.publish", round, op, || b.index.publish().is_ok());
        out.publish_ms.push(p.elapsed().as_secs_f64() * 1e3);
        out.failed += u64::from(!ok);
        if let Some(t) = spans {
            t.end(round);
        }
    }
    out.wall_s = wall.elapsed().as_secs_f64();
    out.attempted = (ROUNDS * (ROUND_OPS + 1)) as u64;
    out.alive = alive;
    out.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    out
}

/// What the reader thread brings back.
struct Read {
    latencies: Latencies,
    stats: QueryStats,
    failed: u64,
    wall_s: f64,
    spans: Vec<trace::Span>,
}

/// One client on pinned epochs, as `QueryExecutor::batch_knn_epoch`
/// runs a query, until the writer is done.
fn reader(b: &Built, done: &AtomicBool, tracer: Option<Tracer>) -> Read {
    let mut out = Read {
        latencies: Latencies::with_capacity(1 << 16),
        stats: QueryStats::default(),
        failed: 0,
        wall_s: 0.0,
        spans: Vec::new(),
    };
    let wall = Instant::now();
    // Relaxed: the flag publishes no data; the join does.
    for (i, q) in b.queries.iter().cycle().enumerate() {
        if done.load(Ordering::Relaxed) {
            break;
        }
        let ctx = QueryContext::ephemeral();
        let t = Instant::now();
        let outcome = match tracer.as_ref().filter(|t| t.has_room(3)) {
            Some(tr) => {
                let op = i as u32;
                let root = tr.begin("churn.read", ROOT, op);
                let epoch = tr.span("query.epoch_pin", root, op, || b.index.pin(&ctx));
                let hits = tr.span("query.knn", root, op, || epoch.index().knn_with(q, KNN, &ctx));
                tr.end(root);
                hits
            }
            None => b.index.pin(&ctx).index().knn_with(q, KNN, &ctx),
        };
        let took = t.elapsed();
        out.latencies.push(took);
        out.failed += u64::from(query_failed(&outcome, KNN));
        out.stats.accumulate(&ctx.stats(took));
    }
    out.wall_s = wall.elapsed().as_secs_f64();
    out.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    out
}

/// Writer and reader side by side; the reader stops when the script ends.
fn side_by_side(b: &Built, seed: u64, traced: bool) -> (Written, Read) {
    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    let tracer = || traced.then(|| Tracer::new(t0, SPAN_CAPACITY));
    std::thread::scope(|scope| {
        let (wt, rt) = (tracer(), tracer());
        let reading = scope.spawn(|| reader(b, &done, rt));
        let written = writer(b, seed, wt);
        done.store(true, Ordering::Relaxed);
        (written, reading.join().expect("reader thread"))
    })
}

/// The final epoch against a plain model of the live sets.
fn verify_final(
    tally: &mut impl Tally,
    b: &Built,
    alive: &[bool],
    queries: std::ops::Range<usize>,
) -> u64 {
    let epoch = b.index.pin(&QueryContext::ephemeral());
    let index = epoch.index();
    let mut near_ties = 0;
    let checks = vsim_parallel::par_map_slice(&b.queries[queries], |_, q| {
        let live = alive.iter().zip(&b.sets).enumerate();
        let want = verify::brute_force(
            live.filter(|(_, (a, _))| **a).map(|(id, (_, s))| (id as u64, s)),
            q,
            KNN,
            |x, y| index.exact_distance(x, y),
        );
        match index.knn_with(q, KNN, &QueryContext::ephemeral()) {
            Ok(got) => verify::check_ranked(&got, &want),
            Err(_) => verify::Check { failed: true, near_tie_ids: 0 },
        }
    });
    for c in checks {
        tally.ops(1, u64::from(c.failed));
        near_ties += c.near_tie_ids;
    }
    // The script inserts as many as it deletes.
    tally.ops(1, u64::from(index.live_len() != N || b.index.live_len() != N));
    near_ties
}

/// Inserts and deletes per writer second, publishes included.
fn write_rate(written: &Written) -> f64 {
    (ROUNDS * ROUND_OPS) as f64 / written.wall_s
}

/// One part of an end-to-end run: one block.
pub fn timed(cfg: &Config, pieces: &mut Pieces) {
    let t = Instant::now();
    let b = build(cfg);
    pieces.push("setup_s", t.elapsed().as_secs_f64());
    let (written, mut read) = side_by_side(&b, cfg.seed, false);
    pieces.ops(written.attempted, written.failed);
    pieces.ops(read.latencies.len() as u64, read.failed);
    pieces.push("ops_per_s", write_rate(&written));
    pieces.extend("p50_ms", read.latencies.per_slice(0.5));
    verify_final(pieces, &b, &written.alive, cfg.verify_range());
}

/// The traced run: per-layer metrics and both threads' span buffers.
pub fn traced(cfg: &Config, report: &mut Report) -> Spans {
    // Three pairs of blocks on equal indexes, untraced then traced;
    // the layer metrics are the last traced block's.
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..3 {
        drop(last.take());
        let b = build(cfg);
        plain_s.push(side_by_side(&b, cfg.seed, false).0.wall_s);
        drop(b);
        let t = Instant::now();
        let b = build(cfg);
        report.set("query.build_ms", t.elapsed().as_secs_f64() * 1e3);
        let (written, read) = side_by_side(&b, cfg.seed, true);
        report.ops(written.attempted, written.failed);
        report.ops(read.latencies.len() as u64, read.failed);
        traced_s.push(written.wall_s);
        last = Some((b, written, read));
    }
    let (b, mut written, mut read) = last.expect("three pairs");
    report.set("trace.overhead_frac", median(&mut traced_s) / median(&mut plain_s) - 1.0);
    report.set("trace.spans", (written.spans.len() + read.spans.len()) as f64);

    report.set("churn.write_ops_per_s", write_rate(&written));
    report.set("churn.reader_qps", read.latencies.len() as f64 / read.wall_s);
    report.put("client.p95_ms", read.latencies.percentile(TAIL));
    report.put("churn.reader_p99_ms", read.latencies.percentile(0.99));
    let publishes = Summary::of(&mut written.publish_ms);
    report.put("churn.publish_p50_ms", publishes);
    report.set("query.publish_ms_p99", crate::stats::quantile(&written.publish_ms, 0.99));
    for (metric, name) in [("query.insert_us", "query.insert"), ("query.delete_us", "query.delete")]
    {
        let mut us: Vec<f64> =
            trace::durations(&written.spans, name).iter().map(|ns| ns * 1e-3).collect();
        report.put(metric, Summary::of(&mut us));
    }
    report.put(
        "query.epoch_pin_ns",
        Summary::of(&mut trace::durations(&read.spans, "query.epoch_pin")),
    );
    let totals = trace::totals(&written.spans);
    let round_ns = totals["churn.round"].total_ns as f64;
    report.set("trace.share_sum", 1.0 - totals["churn.round"].self_ns as f64 / round_ns);

    let generations = b.index.published_generation();
    report.set("query.generations", generations as f64);
    report.set(
        "query.reader_queries_per_generation",
        read.latencies.len() as f64 / generations as f64,
    );
    let epoch = b.index.pin(&QueryContext::ephemeral());
    let (len, live) = (epoch.index().len(), epoch.index().live_len());
    report.set("query.tombstone_ratio", (len - live) as f64 / len as f64);
    let queries = read.latencies.len() as f64;
    let s = &read.stats;
    report.set("index.filter_steps_per_query", s.filter_steps as f64 / queries);
    report.set("query.refinements_per_query", s.refinements as f64 / queries);
    report.set("query.refinements_saved_per_query", s.refinements_saved as f64 / queries);
    report.set("query.pruned_per_query", s.pruned as f64 / queries);
    report.set("query.f32_prefilter_per_query", s.f32_prefilter as f64 / queries);
    report.set("setdist.pruned_frac", s.pruned as f64 / s.refinements as f64);
    report.set("setdist.f32_pruned_frac", s.f32_prefilter as f64 / s.refinements as f64);
    report.set("setdist.exact_frac", (s.refinements - s.pruned) as f64 / s.refinements as f64);

    structure_probes(report, &b.sets);
    let near_ties = verify_final(report, &b, &written.alive, 0..VERIFY_QUERIES);
    report.set("query.near_tie_id_mismatch", near_ties as f64);
    vec![written.spans, read.spans]
}

/// The same inserts, deletes and snapshots on each structure alone:
/// built from the first `N` sets, then `PROBE_OPS` of the later ones
/// inserted and deleted again.
fn structure_probes(report: &mut Report, sets: &[VectorSet]) {
    let extra_sets = &sets[N..(N + PROBE_OPS).min(sets.len())];
    let extra: Vec<Vec<f64>> = extra_sets.iter().map(centroid).collect();
    let id = |i: usize| (N + i) as u64;
    // Microseconds per call of `f` over the extra objects.
    fn per_op(n: usize, mut f: impl FnMut(usize)) -> f64 {
        let t = Instant::now();
        (0..n).for_each(&mut f);
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    }
    fn snapshot_ms<T>(mut snapshot: impl FnMut() -> std::io::Result<T>) -> Summary {
        let mut ms: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(snapshot().expect("snapshot"));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        Summary::of(&mut ms)
    }

    let Parts { mut xtree, mut mtree, points, mut heap } = build_parts(report, &sets[..N]);
    report.set("index.xtree_insert_us", per_op(extra.len(), |i| xtree.insert(&extra[i], id(i))));
    report.put("index.snapshot_xtree_ms", snapshot_ms(|| xtree.snapshot()));
    report.set(
        "index.xtree_delete_us",
        per_op(extra.len(), |i| assert!(xtree.delete(&extra[i], id(i)), "x-tree lost an entry")),
    );
    report.set(
        "index.mtree_insert_us",
        per_op(extra.len(), |i| mtree.insert(extra[i].clone(), id(i))),
    );
    report.put("index.snapshot_mtree_ms", snapshot_ms(|| mtree.snapshot()));
    report.set(
        "index.mtree_delete_us",
        per_op(extra.len(), |i| assert!(mtree.delete(&extra[i], id(i)), "m-tree lost an entry")),
    );
    report.put("index.snapshot_pointfile_ms", snapshot_ms(|| points.snapshot()));
    report.set(
        "index.heap_append_us",
        per_op(extra_sets.len(), |i| {
            heap.append(&extra_sets[i]).expect("append to the heap file");
        }),
    );
    report.put("index.snapshot_heap_ms", snapshot_ms(|| heap.snapshot()));
}
