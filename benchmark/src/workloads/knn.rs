//! `knn_mem` and `knn_file`: the Table 2 query — 10-NN, planner-chosen
//! access path — on 50 000 synthetic sets, ten times the paper's n.
//!
//! `knn_mem` queries the built index with an ephemeral pool per query,
//! so no page is ever read from a file: candidate pulls (`index`) and
//! the bounded, f32-prefiltered matching kernel (`setdist`) split the
//! time. `knn_file` saves the same index (`SaveProtocol::Rename`, fsync
//! as shipped), reopens it through pread and queries it behind one
//! shared pool of 256 pages — 3.5 % of the ≈ 7100-page file, a working
//! set larger than the pool — so faults, checksums, eviction and shard
//! locks (`store`) dominate. The traced `knn_file` run adds the phase
//! where the pool is larger than the file, saves, reopens and the mmap
//! read path.

use super::{
    build_parts, centroid, query_failed, Config, Parts, Spans, K, KNN, TAIL, VERIFY_QUERIES,
};
use crate::metrics::{Pieces, Report, Tally};
use crate::stats::{median, Latencies, Summary};
use crate::synth::{Mixture, DIM};
use crate::trace::{self, Tracer, ROOT};
use crate::verify;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vsim_index::{
    BufferPool, CandidateSource, CostModel, FilePageStore, PageStore, QueryContext, QueryStats,
    StoreResult, VectorSetStore, PAGE_SIZE,
};
use vsim_query::{AccessPath, FilterRefineIndex, QueryExecutor};
use vsim_setdist::{MatchingEngine, MinimalMatching, PrefilteredDistance, VectorSet};

/// Database size.
const N: usize = 50_000;
/// Queries before the first timed one: allocator, branch predictors and
/// (file) the pool's steady state.
const WARMUP_QUERIES: usize = 256;
/// The shared pool of the cold phase, in pages.
const COLD_POOL_PAGES: usize = 256;
/// A pool larger than the index file.
const WARM_POOL_PAGES: usize = 16_384;
/// Child processes of an end-to-end run: one set-up each.
pub const PARTS: usize = 4;
/// Windows of the `nproc`-worker phases of the traced run.
const TRACED_WINDOWS: usize = 16;
/// Spans one traced query may record before the buffer counts as full.
const SPANS_PER_QUERY: usize = 4096;
const SPAN_CAPACITY: usize = 400_000;

/// Number and size of the pieces. The queries are fresh draws of the
/// mixture (not database members) in blocks of one slice, every block
/// with the same make-up (`synth`): all slices are equally hard, and so
/// are all windows. No query is asked twice in an end-to-end run.
struct Load {
    /// Windows of `nproc` workers in a 10-second run, over all parts,
    /// and as many 1-client slices.
    windows: usize,
    /// 1-client queries of a slice (latency samples): one block.
    slice_ops: usize,
    /// Blocks per `nproc`-worker batch.
    window_blocks: usize,
}
const MEM: Load = Load { windows: 20, slice_ops: 512, window_blocks: 4 };
const FILE: Load = Load { windows: 16, slice_ops: 192, window_blocks: 2 };

pub fn describe() -> String {
    format!(
        "{{\"n\": {N}, \"cold_pool_pages\": {COLD_POOL_PAGES}, \
         \"warm_pool_pages\": {WARM_POOL_PAGES}, \"parts\": {PARTS}, \
         \"mem_windows\": {}, \"mem_slice_ops\": {}, \"mem_window_ops\": {}, \
         \"file_windows\": {}, \"file_slice_ops\": {}, \"file_window_ops\": {}}}",
        MEM.windows,
        MEM.slice_ops,
        MEM.slice_ops * MEM.window_blocks,
        FILE.windows,
        FILE.slice_ops,
        FILE.slice_ops * FILE.window_blocks
    )
}

struct Built {
    sets: Vec<VectorSet>,
    /// This part's pieces one after the other: the block of a slice,
    /// then the blocks of a window.
    queries: Vec<VectorSet>,
    /// Queries of a slice and of a window.
    slice_ops: usize,
    window_ops: usize,
    /// 1-client queries of the traced run: a quarter of an end-to-end
    /// run's.
    traced_ops: usize,
    /// Queries of the warm-up, none of them timed.
    warmup: Vec<VectorSet>,
    mem: FilterRefineIndex,
    /// `knn_file`: `mem` saved and reopened through pread.
    file: Option<FilterRefineIndex>,
    build_s: f64,
}

impl Built {
    /// The index under test.
    fn index(&self) -> &FilterRefineIndex {
        self.file.as_ref().unwrap_or(&self.mem)
    }
}

fn build(cfg: &Config, load: &Load, file: Option<&Path>) -> Built {
    let mix = Mixture::new(K);
    let sets = mix.sets(cfg.seed, 0, N);
    let slice_ops = load.slice_ops;
    let blocks = cfg.pieces(load.windows) * (1 + load.window_blocks);
    let queries = mix.blocks(cfg.seed, 1, blocks, slice_ops);
    let warmup = mix.sets(cfg.seed, 3, WARMUP_QUERIES);
    let t = Instant::now();
    let mem = FilterRefineIndex::build(&sets, DIM, K);
    let build_s = t.elapsed().as_secs_f64();
    let file = file.map(|path| {
        mem.save(path).expect("save the index");
        FilterRefineIndex::open(path).expect("reopen the index")
    });
    let window_ops = slice_ops * load.window_blocks;
    let traced_ops = slice_ops * cfg.scaled(load.windows) / 4;
    Built { sets, queries, slice_ops, window_ops, traced_ops, warmup, mem, file, build_s }
}

/// The answer to one query: `(id, distance)` ascending.
type Hits = Vec<(u64, f64)>;

/// One client: each query on its own context, timed alone.
struct OneClient {
    latencies: Latencies,
    /// Summed per-query counters (exact for a fixed query list).
    stats: QueryStats,
    /// Per-query hits and stats, kept for the traced run's comparison.
    kept: Option<(Vec<Hits>, Vec<QueryStats>)>,
    failed: u64,
}

fn context(pool: Option<&Arc<BufferPool>>) -> QueryContext {
    pool.map_or_else(QueryContext::ephemeral, |p| QueryContext::with_pool(Arc::clone(p)))
}

impl OneClient {
    fn new(keep: bool) -> Self {
        OneClient {
            latencies: Latencies::with_capacity(1 << 14),
            stats: QueryStats::default(),
            kept: keep.then(Default::default),
            failed: 0,
        }
    }

    fn run<'a>(
        &mut self,
        index: &FilterRefineIndex,
        path: AccessPath,
        queries: impl Iterator<Item = &'a VectorSet>,
        pool: Option<&Arc<BufferPool>>,
    ) {
        for q in queries {
            let ctx = context(pool);
            let t = Instant::now();
            let outcome = index.knn_via_with(path, q, KNN, &ctx);
            let took = t.elapsed();
            self.latencies.push(took);
            self.failed += u64::from(query_failed(&outcome, KNN));
            let stats = ctx.stats(took);
            self.stats.accumulate(&stats);
            if let Some((hits, per_query)) = &mut self.kept {
                hits.push(outcome.unwrap_or_default());
                per_query.push(stats);
            }
        }
        self.latencies.end_slice();
    }
}

/// `nproc` workers: batches of queries through the executor, one
/// batch a window.
struct Batches {
    ex: QueryExecutor,
    /// Queries per second of each batch.
    rates: Vec<f64>,
    /// Queries of the batches in `rates`.
    ops: usize,
    aggregate: QueryStats,
    failed: u64,
}

impl Batches {
    fn new(ex: QueryExecutor) -> Self {
        Batches {
            ex,
            rates: Vec::with_capacity(TRACED_WINDOWS),
            ops: 0,
            aggregate: QueryStats::default(),
            failed: 0,
        }
    }

    fn window(&mut self, index: &FilterRefineIndex, qs: &[VectorSet]) {
        let t = Instant::now();
        let (batch, _) = self.ex.batch_knn_planned(index, qs, KNN);
        self.rates.push(qs.len() as f64 / t.elapsed().as_secs_f64());
        self.ops += qs.len();
        let bad = |(h, s): &(&Hits, &QueryStats)| s.error.is_some() || h.len() != KNN;
        self.failed += batch.hits.iter().zip(&batch.stats).filter(bad).count() as u64;
        self.aggregate.accumulate(&batch.aggregate);
    }

    /// `TRACED_WINDOWS` windows back to back, over `queries` in chunks
    /// of `window_ops`.
    fn run(&mut self, index: &FilterRefineIndex, queries: &[VectorSet], window_ops: usize) {
        assert!(window_ops <= queries.len(), "a window needs {window_ops} distinct queries");
        for qs in queries.chunks_exact(window_ops).cycle().take(TRACED_WINDOWS) {
            self.window(index, qs);
        }
    }

    /// Counts the windows on `report`; returns the rate summary and the
    /// summed stats.
    fn finish(mut self, report: &mut Report) -> (Summary, QueryStats) {
        report.ops(self.ops as u64, self.failed);
        (Summary::of(&mut self.rates), self.aggregate)
    }
}

/// Brute-force check of `queries` on every backend in `indexes`: the
/// first against an exhaustive scan rank by rank, the others
/// bit-identical to the first. Returns the near-tie id count.
fn verify_backends(
    tally: &mut impl Tally,
    b: &Built,
    indexes: &[&FilterRefineIndex],
    queries: &[VectorSet],
) -> u64 {
    let want = vsim_parallel::par_map_slice(queries, |_, q| {
        verify::brute_force(
            b.sets.iter().enumerate().map(|(i, s)| (i as u64, s)),
            q,
            KNN,
            |x, y| b.mem.exact_distance(x, y),
        )
    });
    let mut near_ties = 0;
    for (q, want) in queries.iter().zip(&want) {
        let (failed, ties) = verify::check_backends(indexes, q, KNN, want);
        tally.ops(indexes.len() as u64, failed);
        near_ties += ties;
    }
    near_ties
}

/// One part of an end-to-end run: set up once, then this part's share
/// of the slices and windows.
pub fn timed(cfg: &Config, pieces: &mut Pieces, file: bool) {
    let scratch = cfg.scratch("knn_file.idx");
    let index_path = file.then_some(scratch.as_path());
    let t = Instant::now();
    let b = build(cfg, if file { &FILE } else { &MEM }, index_path);
    pieces.push("setup_s", t.elapsed().as_secs_f64());

    let index = b.index();
    let path = index.plan_knn(KNN).path;
    let pool = cold_pool(&b);
    OneClient::new(false).run(index, path, b.warmup.iter(), pool.as_ref());

    // A slice of 1-client queries, then a window of `nproc` workers:
    // both metrics sample the whole part.
    let mut client = OneClient::new(false);
    let mut batches = Batches::new(executor(&b));
    for piece in b.queries.chunks_exact(b.slice_ops + b.window_ops) {
        let (slice, window) = piece.split_at(b.slice_ops);
        client.run(index, path, slice.iter(), pool.as_ref());
        batches.window(index, window);
    }
    pieces.ops(client.latencies.len() as u64, client.failed);
    pieces.ops(batches.ops as u64, batches.failed);
    pieces.extend("p50_ms", client.latencies.per_slice(0.5));
    pieces.extend("ops_per_s", batches.rates);

    let mmap = index_path.map(|path| FilterRefineIndex::open_mmap(path).expect("open_mmap"));
    let backends: Vec<_> =
        [Some(&b.mem), b.file.as_ref(), mmap.as_ref()].into_iter().flatten().collect();
    verify_backends(pieces, &b, &backends, &b.queries[cfg.verify_range()]);
    if let Some(path) = index_path {
        std::fs::remove_file(path).expect("remove the scratch index");
    }
}

/// The traced run: per-layer metrics and the span buffer.
pub fn traced(cfg: &Config, report: &mut Report, file: bool) -> Spans {
    let scratch = cfg.scratch("knn_file.idx");
    let index_path = file.then_some(scratch.as_path());
    let b = build(cfg, if file { &FILE } else { &MEM }, index_path);
    let spans = traced_run(cfg, report, &b, index_path);
    if let Some(path) = index_path {
        std::fs::remove_file(path).expect("remove the scratch index");
    }
    spans
}

/// The cold pool of a 1-client phase (`knn_file`), or none (`knn_mem`:
/// an ephemeral pool per query).
fn cold_pool(b: &Built) -> Option<Arc<BufferPool>> {
    b.file.as_ref().map(|_| BufferPool::new(COLD_POOL_PAGES))
}

fn executor(b: &Built) -> QueryExecutor {
    if b.file.is_some() {
        QueryExecutor::shared(COLD_POOL_PAGES)
    } else {
        QueryExecutor::cold()
    }
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// A candidate stream that records one span per pull.
struct TimedSource<'a> {
    inner: &'a mut dyn CandidateSource,
    tracer: &'a Tracer,
    parent: u32,
    op: u32,
}

impl CandidateSource for TimedSource<'_> {
    fn next_candidate(&mut self) -> Option<(u64, f64)> {
        let span = self.tracer.begin("index.next_candidate", self.parent, self.op);
        let c = self.inner.next_candidate();
        self.tracer.end(span);
        c
    }
}

/// The filter/refine loop of `FilterRefineIndex::knn_via_with`, composed
/// from the same public layer functions with a span around each call.
/// Candidates come from `index`, sets from the benchmark-built `heap`
/// (the index keeps its own private). Node pages are charged to `ctx`,
/// heap pages to `heap_ctx`; both read through one pool.
#[allow(clippy::too_many_arguments)]
fn traced_knn(
    tracer: &Tracer,
    op: u32,
    index: &FilterRefineIndex,
    heap: &VectorSetStore,
    path: AccessPath,
    q: &VectorSet,
    ctx: &QueryContext,
    heap_ctx: &QueryContext,
) -> StoreResult<Vec<(u64, f64)>> {
    let root = tracer.begin("knn", ROOT, op);
    let (mut engine, pq) = tracer.span("setdist.prepare", root, op, || {
        let engine = MatchingEngine::new(MinimalMatching::vector_set_model());
        let pq = engine.prepare(q.clone());
        (engine, pq)
    });
    let cq = tracer.span("setdist.centroid", root, op, || centroid(q));
    let hits = index.with_candidate_source(path, &cq, ctx, |src| {
        let ms = tracer.begin("query.multi_step_knn", root, op);
        let mut src = TimedSource { inner: src, tracer, parent: ms, op };
        let hits = vsim_query::multi_step_knn(&mut src, KNN, ctx, |id, upper| {
            let set = tracer.span("index.heap_get", ms, op, || heap.get(id, heap_ctx))?;
            let d = tracer.span("setdist.refine", ms, op, || {
                engine.distance_bounded_prefiltered_half(&pq, &set, upper)
            });
            Ok(match d {
                PrefilteredDistance::Exact(d) => Some(d),
                PrefilteredDistance::PrunedByF32 => {
                    ctx.count_f32_prefilter(1);
                    None
                }
                PrefilteredDistance::Pruned => None,
            })
        });
        tracer.end(ms);
        hits
    });
    tracer.end(root);
    hits
}

/// Save `parts` into a page file of the benchmark's own (the streams,
/// then the sync that commits them) and reopen its heap file through
/// pread.
fn file_backed_heap(report: &mut Report, parts: &Parts, path: &Path) -> VectorSetStore {
    let pages = parts.xtree.total_pages()
        + parts.mtree.total_pages()
        + parts.points.total_pages()
        + parts.heap.total_pages();
    let t = Instant::now();
    let target = FilePageStore::create(path, pages as u64 * 4 + 64).expect("create page file");
    parts.xtree.save_to(&target).expect("save x-tree");
    parts.mtree.save_to(&target).expect("save m-tree");
    parts.points.save_to(&target).expect("save point file");
    let heap = parts.heap.save_to(&target).expect("save heap file");
    report.set("store.write_streams_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    target.set_root(heap.first);
    target.sync().expect("sync page file");
    report.set("store.sync_ms", t.elapsed().as_secs_f64() * 1e3);
    drop(target);
    let store: Arc<dyn PageStore> = Arc::new(FilePageStore::open(path).expect("reopen page file"));
    VectorSetStore::open_from(store, heap.first).expect("open heap file")
}

fn traced_run(cfg: &Config, report: &mut Report, b: &Built, index_path: Option<&Path>) -> Spans {
    let index = b.index();
    report.set("query.build_ms", b.build_s * 1e3);
    let plan = index.plan_knn(KNN);
    let path = plan.path;
    let mut plan_us: Vec<f64> = (0..1000)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(index.plan_knn(KNN));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.put("query.plan_us", Summary::of(&mut plan_us));

    let parts = build_parts(report, &b.sets);
    let heap_path = cfg.scratch("knn_parts.pages");
    let file_heap = index_path.map(|_| file_backed_heap(report, &parts, &heap_path));
    let heap = file_heap.as_ref().unwrap_or(&parts.heap);

    // The same fixed query list, untraced then traced, a quarter of the
    // timed run's count; both start from an empty pool.
    let n = b.traced_ops;
    let queries = || b.queries.iter().take(n);
    OneClient::new(false).run(index, path, b.warmup.iter(), cold_pool(b).as_ref());
    let mut plain = OneClient::new(true);
    plain.run(index, path, queries(), cold_pool(b).as_ref());
    report.ops(n as u64, plain.failed);
    let (plain_hits, plain_stats) = plain.kept.take().expect("kept per-query results");
    report.put("client.p95_ms", plain.latencies.percentile(TAIL));
    report.put("knn.p99_ms", plain.latencies.percentile(0.99));

    let tracer = Tracer::new(Instant::now(), SPAN_CAPACITY);
    let pool = cold_pool(b);
    let mut node_pages = 0;
    let mut traced_ops = 0;
    // Wall of the traced queries, and of the same queries untraced.
    let (mut traced_wall, mut untraced_wall) = (Duration::ZERO, Duration::ZERO);
    for (i, q) in queries().enumerate() {
        if !tracer.has_room(SPANS_PER_QUERY) {
            break;
        }
        let (ctx, heap_ctx) = (context(pool.as_ref()), context(pool.as_ref()));
        let t = Instant::now();
        let got = traced_knn(&tracer, i as u32, index, heap, path, q, &ctx, &heap_ctx);
        traced_wall += t.elapsed();
        untraced_wall += plain_stats[i].cpu;
        let (s, hs) = (ctx.stats(Default::default()), heap_ctx.stats(Default::default()));
        node_pages += s.io.pages;
        // The composed loop must be the program's loop: same hits, same
        // counters and — with a pool per query; a bounded pool's shards
        // hash the benchmark's heap file elsewhere — the same pages.
        let (want, ws) = (&plain_hits[i], &plain_stats[i]);
        let same = matches!(&got, Ok(hits) if verify::bit_identical(hits, want))
            && (s.refinements, s.filter_steps, s.pruned, s.f32_prefilter)
                == (ws.refinements, ws.filter_steps, ws.pruned, ws.f32_prefilter)
            && (pool.is_some() || s.io.pages + hs.io.pages == ws.io.pages);
        report.ops(1, u64::from(!same));
        traced_ops += 1;
    }
    let spans = tracer.into_spans();
    report
        .set("trace.overhead_frac", traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0);
    report.set("trace.spans", spans.len() as f64);
    layer_shares(report, &spans);

    let per_query = |x: u64| x as f64 / n as f64;
    let s = &plain.stats;
    report.set("index.filter_steps_per_query", per_query(s.filter_steps));
    report.set("index.node_pages_per_query", node_pages as f64 / traced_ops as f64);
    report.set("query.refinements_per_query", per_query(s.refinements));
    report.set("query.refinements_saved_per_query", per_query(s.refinements_saved));
    report.set("query.pruned_per_query", per_query(s.pruned));
    report.set("query.f32_prefilter_per_query", per_query(s.f32_prefilter));
    report.set("setdist.pruned_frac", s.pruned as f64 / s.refinements as f64);
    report.set("setdist.f32_pruned_frac", s.f32_prefilter as f64 / s.refinements as f64);
    report.set("setdist.exact_frac", (s.refinements - s.pruned) as f64 / s.refinements as f64);

    // Planner calibration: the estimate against what the same cost
    // model charges for the pages and bytes each query really read.
    let cost = CostModel::for_backend(index.backend());
    let mut sim_ms: Vec<f64> = plain_stats.iter().map(|q| q.io_seconds(&cost) * 1e3).collect();
    let sim = Summary::of(&mut sim_ms);
    report.set("query.plan_est_ms", plan.chosen_ms());
    report.put("query.plan_sim_ms", sim);
    report.set("query.plan_est_ratio", plan.chosen_ms() / sim.median);

    // `nproc` workers on the same index.
    let window_ops = (b.window_ops / 4).max(64);
    let mut batches = Batches::new(executor(b));
    batches.run(index, &b.queries, window_ops);
    let (qps, agg) = batches.finish(report);
    let batch_queries = (TRACED_WINDOWS * window_ops) as f64;
    report.put("knn.qps", qps);
    report.set("parallel.batch_speedup", qps.median * plain.latencies.total_s() / n as f64);
    if b.file.is_some() {
        report.set("store.pool_hit_rate", agg.cache.hits as f64 / agg.cache.accesses() as f64);
        report.set("store.faults_per_query", agg.cache.misses as f64 / batch_queries);
        report.set("store.evictions_per_query", agg.cache.evictions as f64 / batch_queries);
        report.set("store.bytes_per_query", agg.io.bytes as f64 / batch_queries);
    }

    let mmap = index_path.map(|path| {
        std::fs::remove_file(&heap_path).expect("remove the scratch page file");
        file_phases(cfg, report, b, path, window_ops)
    });
    let backends: Vec<_> =
        [Some(&b.mem), b.file.as_ref(), mmap.as_ref()].into_iter().flatten().collect();
    let near_ties = verify_backends(report, b, &backends, &b.queries[..VERIFY_QUERIES]);
    report.set("query.near_tie_id_mismatch", near_ties as f64);
    vec![spans]
}

/// Shares of the traced query wall by layer, and the per-call times.
fn layer_shares(report: &mut Report, spans: &[trace::Span]) {
    let totals = trace::totals(spans);
    let wall = totals["knn"].total_ns as f64;
    let share = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / wall);
    report.set("index.pull_share", share("index.next_candidate"));
    report.set("index.heap_share", share("index.heap_get"));
    report.set("setdist.refine_share", share("setdist.refine"));
    report.set("query.multistep_self_share", share("query.multi_step_knn"));
    // Everything but the root's own glue: what the layers account for.
    report.set("trace.share_sum", 1.0 - share("knn"));
    for (metric, name) in [
        ("index.next_candidate_ns", "index.next_candidate"),
        ("index.heap_get_ns", "index.heap_get"),
        ("setdist.refine_ns_per_call", "setdist.refine"),
        ("setdist.centroid_ns", "setdist.centroid"),
        ("setdist.prepare_ns", "setdist.prepare"),
    ] {
        report.put(metric, Summary::of(&mut trace::durations(spans, name)));
    }
}

/// What only a file-backed index has: the warm phase, saves, reopens,
/// the mmap read path and the cost of a page. Returns the mmap-opened
/// index for the cross-backend check.
fn file_phases(
    cfg: &Config,
    report: &mut Report,
    b: &Built,
    path: &Path,
    window_ops: usize,
) -> FilterRefineIndex {
    let index = b.index();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    // Warm: a first pass of the same queries faults their pages in, the
    // timed pass only hits.
    let warm = |index: &FilterRefineIndex, report: &mut Report| {
        let mut batches = Batches::new(QueryExecutor::shared(WARM_POOL_PAGES));
        batches.run(index, &b.queries, window_ops);
        batches.rates.clear();
        batches.ops = 0;
        batches.aggregate = QueryStats::default();
        batches.run(index, &b.queries, window_ops);
        let (qps, agg) = batches.finish(report);
        (qps, agg.cache.hits as f64 / agg.cache.accesses() as f64)
    };
    let (qps, hit_rate) = warm(index, report);
    report.put("knn.warm_qps", qps);
    report.set("store.warm_hit_rate", hit_rate);

    let mut saves: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            b.mem.save(path).expect("save the index");
            ms(t)
        })
        .collect();
    report.put("knn.save_ms", Summary::of(&mut saves));
    let bytes = std::fs::metadata(path).expect("index file").len();
    report.set("knn.bytes_per_object", bytes as f64 / N as f64);

    let (mut opens, mut reopens) = (Vec::new(), Vec::new());
    for q in &b.queries[..15] {
        let t = Instant::now();
        let opened = FilterRefineIndex::open(path).expect("reopen the index");
        opens.push(ms(t));
        let first =
            opened.knn_via_with(opened.plan_knn(KNN).path, q, KNN, &QueryContext::ephemeral());
        reopens.push(ms(t));
        report.ops(1, u64::from(query_failed(&first, KNN)));
    }
    report.put("store.open_ms", Summary::of(&mut opens));
    report.put("knn.reopen_ms", Summary::of(&mut reopens));

    let mut mmap_opens = Vec::new();
    let mut mmap = None;
    for _ in 0..5 {
        let t = Instant::now();
        mmap = Some(FilterRefineIndex::open_mmap(path).expect("open_mmap"));
        mmap_opens.push(ms(t));
    }
    let mmap = mmap.expect("opened five times");
    report.put("store.open_mmap_ms", Summary::of(&mut mmap_opens));
    let mut cold = Batches::new(QueryExecutor::shared(COLD_POOL_PAGES));
    cold.run(&mmap, &b.queries, window_ops);
    let (qps, _) = cold.finish(report);
    report.put("store.cold_qps_mmap", qps);
    let (qps, _) = warm(&mmap, report);
    report.put("store.warm_qps_mmap", qps);

    page_costs(cfg, report, path);
    mmap
}

/// Microseconds per page: raw reads on both read paths, and a pool
/// miss and a pool hit through `QueryContext::load`.
fn page_costs(cfg: &Config, report: &mut Report, path: &Path) {
    const BATCH: u64 = 64;
    let pread = FilePageStore::open(path).expect("open page file");
    let mmap = FilePageStore::open_mmap(path).expect("mmap page file");
    let pages = pread.page_count();
    // A fixed stride walk over the file, seeded: every batch reads
    // `BATCH` pages far apart.
    let page =
        |i: u64| (cfg.seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11) % pages;
    let raw = |store: &FilePageStore| {
        let mut buf = vec![0u8; PAGE_SIZE];
        let mut per_page: Vec<f64> = (0..256)
            .map(|batch| {
                let t = Instant::now();
                for i in 0..BATCH {
                    store.read_into(page(batch * BATCH + i), &mut buf).expect("read page");
                }
                t.elapsed().as_secs_f64() * 1e6 / BATCH as f64
            })
            .collect();
        std::hint::black_box(&buf);
        Summary::of(&mut per_page)
    };
    report.put("store.read_page_us", raw(&pread));
    report.put("store.read_page_mmap_us", raw(&mmap));

    let through_pool = |ctx: &QueryContext, distinct: bool| {
        let mut per_page: Vec<f64> = (0..256)
            .map(|batch| {
                let t = Instant::now();
                for i in 0..BATCH {
                    let p = if distinct { (batch * BATCH + i) % pages } else { i };
                    std::hint::black_box(ctx.load(&pread, p).expect("load page"));
                }
                t.elapsed().as_secs_f64() / BATCH as f64
            })
            .collect();
        median(&mut per_page)
    };
    // Consecutive distinct pages through a pool a fraction of their
    // number: every load is a miss with an eviction.
    let cold = QueryContext::with_pool(BufferPool::new(COLD_POOL_PAGES));
    report.set("store.pool_miss_us", through_pool(&cold, true) * 1e6);
    let hot = QueryContext::with_pool(BufferPool::unbounded());
    through_pool(&hot, false);
    report.set("store.pool_hit_ns", through_pool(&hot, false) * 1e9);
}
