//! # snoopy-knn
//!
//! Exact k-nearest-neighbour machinery for the Snoopy feasibility-study
//! system.
//!
//! Snoopy's Bayes-error estimator is built on the 1NN classifier error
//! (Cover & Hart), evaluated on top of many feature transformations and over
//! growing training-set prefixes. This crate provides:
//!
//! * distance metrics ([`metric::Metric`]: squared Euclidean, Euclidean,
//!   cosine dissimilarity), whose expressions live in exactly one place —
//!   the metric-kernel layer ([`kernel::MetricKernel`]). The kernel owns the
//!   per-row norm caches of both scan sides and computes distances in
//!   register-blocked tiles over the fixed-order
//!   [`snoopy_linalg::kernel`] dot microkernel (squared Euclidean via the
//!   `‖q‖² + ‖x‖² − 2⟨q, x⟩` norm trick, cosine from the same dot tile), so
//!   a distance depends only on the pair of rows — never on tile size,
//!   block size, thread count, or which consumer computed it,
//! * the blocked, chunk-parallel top-k evaluation engine
//!   ([`engine::EvalEngine`]) whose results are bit-identical to the serial
//!   references [`engine::nearest_reference`] / [`engine::knn_reference`]
//!   for every metric, thread count, block size, tile size, and
//!   batch-streamed ingestion order,
//! * the query-major [`engine::NeighborTable`] — the one neighbour handshake
//!   every distance consumer speaks. A table computed once at `k_max` answers
//!   every smaller `k` by prefix, which is how the estimator-comparison
//!   pipeline shares a single neighbour computation across all kNN-family
//!   Bayes-error estimators,
//! * the exact-pruned clustered index ([`clustered::ClusteredIndex`]): a
//!   Lloyd's k-means coarse partition plus triangle-inequality pruning that
//!   skips most distance evaluations on clustered embedding spaces while
//!   staying bit-identical to the exhaustive engine, surfaced as the
//!   [`clustered::EvalBackend`] enum
//!   (`Exhaustive` | `Clustered { nlist, quantize }`, auto-selected for
//!   one-shot tables only when enough queries amortise the k-means build)
//!   behind the same `NeighborTable` handshake —
//!   cosine dissimilarity has no triangle inequality, so cosine consumers
//!   transparently fall back to the exhaustive kernel. Its bound-ordered
//!   cluster visit loop, f32 tile scan and int8 two-phase scan are one
//!   crate-internal cluster-scan core, shared with the shard-paged index
//!   below,
//! * the per-dimension affine int8 shadow ([`quantized::QuantizedShadow`],
//!   `quantize: true`): visited clusters scan approximately at **one byte
//!   per dimension** through a fixed-order int8 dot tile, a
//!   quantization-error-widened bound selects the candidate superset, and
//!   only survivors are re-ranked through the exact f32 kernel — a ~4×
//!   smaller scan copy with the identical `NeighborTable`,
//! * the shard-paged out-of-core index ([`sharded::ShardedIndex`]): the
//!   same partition and the same cluster-scan core over a borrowed —
//!   typically mmap-backed ([`snoopy_linalg::disk::DiskDataset`]) — source
//!   view, but each cluster materialises as an independently
//!   loadable/evictable shard under an LRU byte budget
//!   ([`sharded::PagingStats`], [`sharded::PagedResidentBytes`]); the
//!   triangle-inequality prune order doubles as the paging order, so
//!   rejected clusters are never faulted in, a configurable prefetch
//!   pipeline overlaps upcoming shard materialisation with the current scan
//!   on `snoopy-pool` workers, and results stay bit-identical to the
//!   resident paths at every prefetch depth and worker count,
//! * an exact brute-force index ([`brute::BruteForceIndex`]) whose k-NN
//!   queries, batch evaluation, and leave-one-out error all route through
//!   the engine (or the clustered index, per backend),
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

pub(crate) mod bounds;
pub mod brute;
pub mod clustered;
pub mod engine;
pub mod incremental;
pub mod kernel;
pub mod metric;
pub mod quantized;
pub mod sharded;

pub use brute::BruteForceIndex;
pub use clustered::{ClusteredIndex, EvalBackend, PruneStats, ResidentBytes};
pub use engine::{EvalEngine, NearestHit, NeighborTable, TopKScratch, TopKState};
pub use incremental::{EvictReport, IncrementalTopK};
pub use kernel::MetricKernel;
pub use metric::Metric;
pub use quantized::AffineQuantizer;
pub use sharded::{PagedResidentBytes, PagingStats, ShardedIndex};
