#![forbid(unsafe_code)]
// Everything downstream of a page store can see an injected fault, so
// library code here propagates typed errors instead of panicking; the
// CI clippy step (`-D warnings`) turns these into errors.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! # vsim-query — similarity query processing (Section 4.3)
//!
//! A similarity query is one value, [`Query`]: the variants of the query
//! object (one for a plain query, the 24/48 transformed copies for
//! Section 3.2's invariance — an object's distance is the minimum over
//! them), the kind ([`QueryKind::Knn`] or [`QueryKind::Range`]) and the
//! access path, or `None` for the [`Planner`]'s cost-based choice. The
//! vector-set indexes answer it with `execute(&Query, &QueryContext)`
//! (a caller's buffer pool) or `run(&Query)` (a fresh cold pool, with
//! the query's [`QueryStats`]). Of Table 2's three rows only the
//! system's lives here; the one-vector X-tree and the sequential scan
//! are `vsim-bench`'s baselines:
//!
//! [`FilterRefineIndex`] — the paper's contribution: extended centroids
//! as a *filter*, exact minimal matching distance as *refinement*,
//! joined by the optimal multi-step algorithm of Seidl & Kriegel \[29\]:
//! pull candidates in ascending order of the Lemma 2 bound
//! `f·‖C(X)−C(q)‖` (`f` the model's factor, `k` or `√k`), refine, stop at
//! ε (range) or at the running k-th distance (k-NN).
//!
//! The filter layer is built on an incremental **candidate-stream
//! abstraction** (`CandidateSource` in `vsim-index`): every access path
//! — X-tree cursor, sorted scan — yields candidates in
//! nondecreasing filter-lower-bound order, and the [`multistep`] module
//! holds the one loop that consumes such a stream. Per-query
//! [`QueryStats`] report `filter_steps` (candidates pulled from the
//! stream) and `refinements_saved` (candidates dismissed by the filter
//! bound alone) next to the refinement counts, measured CPU time and
//! simulated I/O through the shared buffer pool. The [`QueryExecutor`]
//! fans a batch of queries — any closure over `execute` — across worker
//! threads, each query reading through a fresh cold pool of its own
//! ([`QueryExecutor::cold`]) or one shared bounded warm pool
//! ([`QueryExecutor::shared`]).

//! ```
//! use vsim_query::{FilterRefineIndex, Query};
//! use vsim_setdist::{MinimalMatching, VectorSet};
//!
//! let sets: Vec<VectorSet> = (0..50)
//!     .map(|i| VectorSet::from_rows(6, &[&[0.1 * i as f64, 0.2, 0.0, 0.3, 0.3, 0.3]]))
//!     .collect();
//! let filter = FilterRefineIndex::build(&sets, 6, 7);
//! let query = Query::knn(&sets[25..26], 5);
//! let (a, stats) = filter.run(&query);
//! // Brute force: the fifth smallest distance over every object.
//! let mm = MinimalMatching::vector_set_model();
//! let mut all: Vec<f64> = sets.iter().map(|o| mm.distance_value(&sets[25], o)).collect();
//! all.sort_by(f64::total_cmp);
//! assert_eq!(a[0].0, 25);
//! assert!((a[4].1 - all[4]).abs() < 1e-12); // multi-step k-NN is exact
//! assert!(stats.refinements <= 50);
//! assert_eq!(filter.knn(&sets[25], 5).0, a); // the one-line spelling
//! ```

pub mod epoch;
pub mod executor;
pub mod filter;
pub mod multistep;
pub mod planner;
pub mod stats;

pub use epoch::{DynamicIndex, IndexEpoch};
pub use executor::{BatchResult, QueryExecutor};
pub use filter::FilterRefineIndex;
pub use multistep::{multi_step_knn, Query, QueryKind, TopK};
pub use planner::{AccessPath, DatasetStats, Plan, Planner};
pub use stats::QueryStats;
