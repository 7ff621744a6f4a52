//! # snoopy-knn
//!
//! Exact k-nearest-neighbour machinery for the Snoopy feasibility-study
//! system.
//!
//! Snoopy's Bayes-error estimator is built on the 1NN classifier error
//! (Cover & Hart), evaluated on top of many feature transformations and over
//! growing training-set prefixes. Every entry point answers one question —
//! the top-k indexed training rows of each held-out query row — either cold
//! ([`engine::EvalEngine::topk`], [`sharded::ShardedIndex::topk_with_stats`],
//! [`brute::BruteForceIndex::neighbor_table`]) or streamed by appends
//! ([`engine::EvalEngine::update_topk`] under
//! [`incremental::IncrementalTopK`]). This crate provides:
//!
//! * distance metrics ([`metric::Metric`]: squared Euclidean, Euclidean,
//!   cosine dissimilarity), whose expressions live in exactly one place —
//!   the metric-kernel layer ([`kernel::MetricKernel`]). The kernel owns the
//!   per-row norm caches of both scan sides and computes distances in
//!   register-blocked tiles over the fixed-order
//!   [`snoopy_linalg::kernel`] dot microkernel (squared Euclidean via the
//!   `‖q‖² + ‖x‖² − 2⟨q, x⟩` norm trick, cosine from the same dot tile), so
//!   a distance depends only on the pair of rows — never on tile size,
//!   block size, pool worker count, or which consumer computed it,
//! * the blocked, chunk-parallel top-k evaluation engine
//!   ([`engine::EvalEngine`]): one scan loop builds every neighbour table,
//!   `k = 1` included, and KDE's per-class kernel sums, bit-identical to the
//!   serial references [`engine::nearest_reference`] /
//!   [`engine::knn_reference`] for every metric, pool worker count, block
//!   size, tile size, and batch-streamed ingestion order. The engine keeps
//!   no thread count: each scan splits into one chunk per worker of the
//!   `snoopy-pool` pool it runs on,
//! * the query-major [`engine::NeighborTable`] — the one neighbour handshake
//!   every distance consumer speaks. A table computed once at `k_max` answers
//!   every smaller `k` by prefix, which is how the estimator-comparison
//!   pipeline shares a single neighbour computation across all kNN-family
//!   Bayes-error estimators,
//! * the exact pruned index ([`sharded::ShardedIndex`]): a Lloyd's k-means
//!   coarse partition plus triangle-inequality pruning that skips most
//!   distance evaluations on clustered embedding spaces while staying
//!   bit-identical to the exhaustive engine, over a borrowed — typically
//!   mmap-backed ([`snoopy_linalg::disk::DiskDataset`]) — source view. Each
//!   cluster materialises as an independently loadable/evictable shard
//!   under an LRU byte budget ([`sharded::PagingStats`],
//!   [`sharded::PagedResidentBytes`]; `usize::MAX` keeps every visited
//!   shard resident). Each query visits its clusters in triangle-inequality
//!   bound order, so a cluster every query's bound rejects is never faulted
//!   in, but the visit loop is visit-major: it sweeps the clusters, faults
//!   in each one that queries wait on once, on the calling thread, and
//!   scans it for all of them in one chunk per `snoopy-pool` worker.
//!   Cosine dissimilarity has no triangle inequality, so cosine consumers
//!   use the exhaustive engine. The visit-major loop and the f32 tile scan
//!   are one crate-internal cluster-scan core,
//! * an exact brute-force index ([`brute::BruteForceIndex`]) whose
//!   neighbour tables and 1NN / kNN errors on held-out query rows route
//!   through the engine,
//! * the *incremental top-k successor state*
//!   ([`incremental::IncrementalTopK`]) — the one append/relabel-able kNN
//!   state behind the successive-halving bandit (each arm pull **appends** a
//!   batch in `O(batch × queries)` kernel work), the label-cleaning loop
//!   (**relabels** refresh the 1NN and k-prefix vote errors in `O(test)` —
//!   the paper's "0.2 ms for 10 K test / 50 K train samples" real-time
//!   feedback), and the estimator pipeline (its [`engine::NeighborTable`]
//!   snapshot is bit-identical to a cold [`engine::EvalEngine::topk`] at
//!   every point). Every append and every drained-buffer re-scan folds
//!   through the exhaustive engine: one batch, or a handful of re-scanned
//!   queries, is too small to pay for a k-means build.

#![forbid(unsafe_code)]

pub(crate) mod bounds;
pub mod brute;
pub mod engine;
pub mod incremental;
pub mod kernel;
pub mod metric;
pub mod sharded;

pub use bounds::{PruneStats, ResidentBytes, KMEANS_SEED};
pub use brute::BruteForceIndex;
pub use engine::{EvalEngine, NearestHit, NeighborTable, TopKState};
pub use incremental::{EvictReport, IncrementalTopK};
pub use kernel::MetricKernel;
pub use metric::Metric;
pub use sharded::{PagedResidentBytes, PagingStats, ShardedIndex};
