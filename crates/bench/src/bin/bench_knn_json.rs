//! Emits `BENCH_knn.json`: queries/second of the kNN kernels — 1NN serial vs
//! chunk-parallel, top-k (k = 1 vs k = 10) parallel vs the serial reference,
//! the leave-one-out error (parallel self-excluding kernel vs a
//! forced-serial engine), the single-core scalar-vs-tiled kernel comparison
//! (the PR-3 per-pair scalar scan against the tile-blocked `MetricKernel`
//! path, per metric, across an n × d grid), the exhaustive-vs-clustered
//! backend comparison (wall-clock, pruning rates, index build time) on a
//! clustered synthetic workload, the plain-vs-quantized clustered scan
//! (int8 two-phase scan against the exact f32 scan on the same partition,
//! plus resident-bytes accounting for the scan copy), the incremental
//! successor-state comparison (per-round append fold vs full table rebuild,
//! plus the relabel refresh latency), the sliding-window eviction comparison
//! (per-slide append+evict on an eviction-enabled state vs a cold rebuild of
//! the surviving window, with the re-scanned query count per slide), the
//! re-partition policy sweep
//! (growth factors 1.5/2/3 and the prune-rate trigger replaying one
//! *drifting* append stream whose batch means walk round over round), the
//! persistent-pool comparison (per-call latency of the old scoped-spawn
//! fan-out vs the pool-backed engine, plus the zero-alloc scratch variant),
//! the multi-tenant serving comparison (studies/sec of the warm
//! `FeasibilityService` at 1..N tenants vs sequential cold one-shot
//! studies), and the out-of-core comparison (the full feasibility study
//! over a disk dataset `budget_factor`× the resident shard budget, paged
//! through the `ShardedIndex`, vs the fully-resident baseline — with
//! bit-identical tables/estimates, ≥ 2 forced shard evictions, and the
//! peak-residency contract asserted before timing — plus a query-phase
//! comparison of serial paging vs the depth-4 prefetch pipeline on a
//! prebuilt index, bit-identical by assertion and ≥ 1.2× faster at
//! eviction-heavy cases when ≥ 2 pool workers have ≥ 2 cores to run on)
//! — across a few training-set sizes. This is the workspace's
//! perf-trajectory anchor — run it before and after touching the engine.
//!
//! Every section asserts bit-exact parity before timing anything, the
//! clustered section additionally asserts a non-zero pruning rate, the
//! quantized section asserts a ≥ 2× speedup over the plain clustered scan
//! at n ≥ 10 000 plus the exact 4× code-vs-f32 byte ratio, and the
//! incremental section asserts a ≥ 2× round-over-round speedup of the
//! append fold over the rebuild at n ≥ 10 000, and the eviction section
//! asserts a ≥ 2× per-slide speedup of append+evict over the cold window
//! rebuild at n ≥ 10 000 — so a silent regression of any fast path fails
//! the run (CI executes the tiny scale, which includes the 10k incremental
//! and eviction cases).
//!
//! ```text
//! cargo run --release -p snoopy-bench --bin bench_knn_json [--scale tiny|small|standard]
//! ```

use snoopy_bench::time_median;
use snoopy_knn::engine::{knn_reference, nearest_reference, EvalEngine, NeighborTable, TopKState};
use snoopy_knn::{
    BruteForceIndex, ClusteredIndex, EvalBackend, IncrementalTopK, Metric, MetricKernel, RepartitionPolicy,
};
use snoopy_linalg::{rng, DatasetView, LabeledView, Matrix};
use std::fmt::Write as _;
use std::time::Instant;

fn make_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut r = rng::seeded(seed);
    Matrix::from_fn(n, d, |_, _| rng::normal(&mut r) as f32)
}

/// Clustered synthetic features (the shared fixture builder): `n` rows drawn
/// round-robin from `centers` well-separated Gaussian blobs — the workload
/// shape the clustered backend is built for.
fn make_blobs(n: usize, d: usize, centers: usize, seed: u64) -> Matrix {
    snoopy_testutil::blob_cloud(seed, n, d, centers, 4.0, 0.15)
}

/// Cold fold over the surviving window `[start, end)` with *global* row
/// indices — the reference every slid eviction state must match bit for bit.
fn cold_window_table(
    train: DatasetView<'_>,
    queries: DatasetView<'_>,
    metric: Metric,
    k: usize,
    start: usize,
    end: usize,
    engine: &EvalEngine,
) -> NeighborTable {
    let window = train.slice_rows(start, end);
    let mut kernel = MetricKernel::new(metric);
    kernel.bind_queries(queries);
    kernel.bind_train(window);
    let mut states = vec![TopKState::new(k); queries.rows()];
    engine.update_topk(queries, &kernel, window, start, &mut states, None);
    NeighborTable::from_states(&states)
}

struct Case {
    train_n: usize,
    dim: usize,
    metric: Metric,
    serial_qps: f64,
    parallel_qps: f64,
}

struct TopKCase {
    train_n: usize,
    k: usize,
    serial_qps: f64,
    parallel_qps: f64,
}

struct LooCase {
    train_n: usize,
    serial_s: f64,
    parallel_s: f64,
}

struct ClusteredCase {
    train_n: usize,
    nlist: usize,
    k: usize,
    build_s: f64,
    exhaustive_qps: f64,
    clustered_qps: f64,
    cluster_prune_rate: f64,
    row_prune_rate: f64,
}

struct QuantizedCase {
    train_n: usize,
    nlist: usize,
    k: usize,
    quantize_s: f64,
    clustered_qps: f64,
    quantized_qps: f64,
    rerank_rate: f64,
    f32_bytes: usize,
    code_bytes: usize,
    meta_bytes: usize,
}

struct RepartitionCase {
    policy: &'static str,
    total_append_s: f64,
    repartitions: usize,
    row_prune_rate: f64,
    /// Cumulative k-means work (Lloyd's iterations plus batch assignment,
    /// in point–centroid pairs) across *all* partitions of the stream — the
    /// build-side cost the policy trades against query-side pruning.
    partition_pairs: u64,
}

struct PoolCase {
    train_n: usize,
    queries: usize,
    dim: usize,
    k: usize,
    /// Per-call seconds of the pre-pool fan-out: two scoped threads spawned
    /// and joined for every call.
    spawn_s: f64,
    /// Per-call seconds of the same two-way fan-out on the persistent pool.
    pool_s: f64,
    /// Per-call seconds of the pool path with caller-owned scratch
    /// (`topk_with`) — the allocation-free steady-state serving loop.
    scratch_s: f64,
}

struct ServerCase {
    tenants: usize,
    requests_per_tenant: usize,
    /// Sequential cold one-shot studies over the same task mix.
    serial_studies_per_s: f64,
    /// The warm multi-tenant service on the shared pool.
    served_studies_per_s: f64,
}

struct OocoreCase {
    train_n: usize,
    dim: usize,
    eval_rows: usize,
    nlist: usize,
    /// Resident shard budget the paged study ran under (bytes).
    budget_bytes: usize,
    /// Raw feature payload of the whole dataset (bytes) — `budget_factor` ×
    /// the budget.
    dataset_bytes: usize,
    /// How many times over budget the dataset is (≥ 4, ≥ 8 on the largest
    /// case).
    budget_factor: usize,
    /// End-to-end feasibility-study throughput, shard-paged (prefetch off —
    /// the serial baseline PR 9 established).
    paged_qps: f64,
    /// End-to-end feasibility-study throughput, fully resident.
    resident_qps: f64,
    /// Query-phase throughput of a prebuilt paged index, serial paging
    /// (prefetch depth 0).
    serial_query_qps: f64,
    /// Query-phase throughput of the same index with the prefetch pipeline
    /// on (`prefetch_depth` shards ahead).
    prefetch_query_qps: f64,
    /// Pipeline depth of the prefetch query-phase measurement.
    prefetch_depth: usize,
    shards_faulted: usize,
    shards_evicted: usize,
    bytes_faulted: usize,
    /// Speculative loads issued / committed / dropped across the prefetch
    /// query-phase runs.
    shards_prefetched: usize,
    prefetch_committed: usize,
    prefetch_wasted: usize,
    peak_bytes: usize,
    max_shard_bytes: usize,
}

struct KernelCase {
    train_n: usize,
    dim: usize,
    metric: Metric,
    k: usize,
    scalar_qps: f64,
    tiled_qps: f64,
}

struct IncrementalRound {
    consumed: usize,
    append_s: f64,
    rebuild_s: f64,
}

struct IncrementalCase {
    train_n: usize,
    dim: usize,
    k: usize,
    queries: usize,
    rounds: Vec<IncrementalRound>,
    relabel_refresh_s: f64,
}

struct EvictionSlide {
    position: usize,
    window_start: usize,
    append_evict_s: f64,
    rebuild_s: f64,
    affected_queries: usize,
    /// Whether this slide's append crossed the re-partition trigger and
    /// rebuilt the coarse partition (an amortised, policy-scheduled cost —
    /// such slides are exempt from the per-slide ≥ 2× contract).
    repartitioned: bool,
}

struct EvictionCase {
    train_n: usize,
    dim: usize,
    k: usize,
    queries: usize,
    window: usize,
    slide: usize,
    slack: usize,
    backend: &'static str,
    slides: Vec<EvictionSlide>,
}

/// The pre-tile-kernel (PR-3) exhaustive path, reproduced locally as the
/// single-core timing baseline: a blocked scan computing every pair with the
/// scalar per-element loops (`Matrix::row_sq_dist` / `row_dot` / `row_norm`)
/// the engine used before the kernel layer. Only timed — its distance *bits*
/// differ from today's fixed-order kernel, so parity is asserted against
/// `knn_reference` instead.
fn scalar_topk(train: DatasetView<'_>, queries: DatasetView<'_>, metric: Metric, k: usize) -> NeighborTable {
    const BLOCK_ROWS: usize = 128;
    let (mut qn, mut tn) = (Vec::new(), Vec::new());
    if metric == Metric::Cosine {
        qn.extend(queries.rows_iter().map(Matrix::row_norm));
        tn.extend(train.rows_iter().map(Matrix::row_norm));
    }
    let mut states = vec![TopKState::new(k); queries.rows()];
    for (block_idx, block) in train.batches(BLOCK_ROWS).enumerate() {
        let base = block_idx * BLOCK_ROWS;
        for (qi, state) in states.iter_mut().enumerate() {
            let q = queries.row(qi);
            match metric {
                Metric::SquaredEuclidean => {
                    for (j, row) in block.rows_iter().enumerate() {
                        state.offer(Matrix::row_sq_dist(q, row), base + j);
                    }
                }
                Metric::Euclidean => {
                    for (j, row) in block.rows_iter().enumerate() {
                        state.offer(Matrix::row_sq_dist(q, row).sqrt(), base + j);
                    }
                }
                Metric::Cosine => {
                    let na = qn[qi];
                    for (j, row) in block.rows_iter().enumerate() {
                        let nb = tn[base + j];
                        let d = if na == 0.0 && nb == 0.0 {
                            0.0
                        } else if na == 0.0 || nb == 0.0 {
                            2.0
                        } else {
                            1.0 - (Matrix::row_dot(q, row) / (na * nb)).clamp(-1.0, 1.0)
                        };
                        state.offer(d, base + j);
                    }
                }
            }
        }
    }
    NeighborTable::from_states(&states)
}

/// The pre-pool per-call fan-out, reproduced locally as the spawn-churn
/// baseline: two OS threads are spawned and joined for every call, each
/// running the serial engine over half the queries — exactly the per-call
/// thread churn the engine paid before the persistent pool. Results are
/// asserted bit-identical to the reference before timing.
fn scoped_spawn_topk(
    train: DatasetView<'_>,
    queries: DatasetView<'_>,
    metric: Metric,
    k: usize,
) -> [NeighborTable; 2] {
    let serial = EvalEngine::serial();
    let mid = queries.rows() / 2;
    let (head, tail) = (queries.prefix(mid), queries.slice_rows(mid, queries.rows()));
    let mut tables = [NeighborTable::default(), NeighborTable::default()];
    let [t0, t1] = &mut tables;
    std::thread::scope(|scope| {
        scope.spawn(|| *t0 = serial.topk(train, head, metric, k));
        scope.spawn(|| *t1 = serial.topk(train, tail, metric, k));
    });
    tables
}

fn main() {
    let scale = snoopy_bench::scale_from_args();
    let (sizes, queries, dim, reps): (&[usize], usize, usize, usize) = match scale {
        snoopy_data::registry::SizeScale::Tiny => (&[500, 1_000], 100, 32, 5),
        snoopy_data::registry::SizeScale::Standard => (&[2_000, 8_000, 32_000], 500, 64, 7),
        _ => (&[1_000, 4_000, 16_000], 250, 64, 5),
    };

    let threads = EvalEngine::parallel().threads();
    let query_x = make_data(queries, dim, 1);
    let mut cases = Vec::new();
    let mut topk_cases = Vec::new();
    let mut loo_cases = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let train_x = make_data(n, dim, 2 + i as u64);
        for metric in [Metric::SquaredEuclidean, Metric::Cosine] {
            let serial = EvalEngine::serial();
            let parallel = EvalEngine::parallel();
            // Confirm parity before timing anything.
            assert_eq!(
                parallel.nearest(train_x.view(), query_x.view(), metric),
                nearest_reference(train_x.view(), query_x.view(), metric),
                "parallel engine must be bit-identical to the serial reference"
            );
            let t_serial = time_median(reps, || {
                std::hint::black_box(serial.nearest(train_x.view(), query_x.view(), metric));
            });
            let t_parallel = time_median(reps, || {
                std::hint::black_box(parallel.nearest(train_x.view(), query_x.view(), metric));
            });
            let case = Case {
                train_n: n,
                dim,
                metric,
                serial_qps: queries as f64 / t_serial,
                parallel_qps: queries as f64 / t_parallel,
            };
            println!(
                "n={:>6} d={} {:<13} serial {:>10.0} q/s   parallel({} threads) {:>10.0} q/s   speedup {:.2}x",
                case.train_n,
                case.dim,
                metric.name(),
                case.serial_qps,
                threads,
                case.parallel_qps,
                case.parallel_qps / case.serial_qps,
            );
            cases.push(case);
        }

        // Top-k kernel, squared Euclidean (the estimator pipeline's metric):
        // parity is asserted against the sort-based ground truth, but the
        // timed serial baseline is the same kernel on a one-thread engine —
        // a fair comparison that isolates parallelism.
        let serial = EvalEngine::serial();
        let parallel = EvalEngine::parallel();
        for k in [1usize, 10] {
            assert_eq!(
                parallel.topk(train_x.view(), query_x.view(), Metric::SquaredEuclidean, k),
                knn_reference(train_x.view(), query_x.view(), Metric::SquaredEuclidean, k),
                "parallel top-k must be bit-identical to the serial reference"
            );
            let t_serial = time_median(reps, || {
                std::hint::black_box(serial.topk(
                    train_x.view(),
                    query_x.view(),
                    Metric::SquaredEuclidean,
                    k,
                ));
            });
            let t_parallel = time_median(reps, || {
                std::hint::black_box(parallel.topk(
                    train_x.view(),
                    query_x.view(),
                    Metric::SquaredEuclidean,
                    k,
                ));
            });
            let case = TopKCase {
                train_n: n,
                k,
                serial_qps: queries as f64 / t_serial,
                parallel_qps: queries as f64 / t_parallel,
            };
            println!(
                "n={:>6} d={} top-{:<2} {:<7} serial {:>10.0} q/s   parallel({} threads) {:>10.0} q/s   speedup {:.2}x",
                case.train_n,
                dim,
                k,
                "sq-euc",
                case.serial_qps,
                threads,
                case.parallel_qps,
                case.parallel_qps / case.serial_qps,
            );
            topk_cases.push(case);
        }

        // Leave-one-out 1NN error over the training set itself: the parallel
        // self-excluding kernel vs the same kernel on a one-thread engine.
        let labels: Vec<u32> = (0..n).map(|j| (j % 10) as u32).collect();
        let index = BruteForceIndex::new(&train_x, &labels, 10, Metric::SquaredEuclidean);
        let serial_index = index.clone().with_engine(EvalEngine::serial());
        assert_eq!(
            index.leave_one_out_error().to_bits(),
            serial_index.leave_one_out_error().to_bits(),
            "parallel LOO must match the serial engine"
        );
        let loo_reps = reps.min(3);
        let t_serial = time_median(loo_reps, || {
            std::hint::black_box(serial_index.leave_one_out_error());
        });
        let t_parallel = time_median(loo_reps, || {
            std::hint::black_box(index.leave_one_out_error());
        });
        println!(
            "n={:>6} d={} leave-one-out     serial {:>9.4} s     parallel({} threads) {:>9.4} s     speedup {:.2}x",
            n,
            dim,
            t_serial,
            threads,
            t_parallel,
            t_serial / t_parallel,
        );
        loo_cases.push(LooCase { train_n: n, serial_s: t_serial, parallel_s: t_parallel });
    }

    // Scalar vs tiled kernel, single core: the PR-3 per-pair scalar scan
    // against today's tile-blocked MetricKernel path on a one-thread engine
    // — isolates the kernel-layer speedup from parallelism. Parity of the
    // tiled path is asserted bit for bit against the serial reference, and
    // across two tile sizes, before anything is timed.
    let (kernel_sizes, kernel_dims, kernel_queries, kernel_reps): (&[usize], &[usize], usize, usize) =
        match scale {
            snoopy_data::registry::SizeScale::Tiny => (&[2_000], &[16, 64], 100, 3),
            snoopy_data::registry::SizeScale::Standard => (&[2_000, 10_000, 16_000], &[16, 64, 256], 400, 5),
            _ => (&[2_000, 10_000, 16_000], &[16, 64, 256], 200, 3),
        };
    let kernel_k = 10;
    let mut kernel_cases = Vec::new();
    for (i, &n) in kernel_sizes.iter().enumerate() {
        for (j, &d) in kernel_dims.iter().enumerate() {
            let train_x = make_data(n, d, 200 + (i * 8 + j) as u64);
            let query_x = make_data(kernel_queries, d, 300 + (i * 8 + j) as u64);
            let serial = EvalEngine::serial();
            for metric in Metric::all() {
                let reference = knn_reference(train_x.view(), query_x.view(), metric, kernel_k);
                assert_eq!(
                    serial.topk(train_x.view(), query_x.view(), metric, kernel_k),
                    reference,
                    "tiled kernel must be bit-identical to the serial reference"
                );
                assert_eq!(
                    serial.with_tile_rows(23).topk(train_x.view(), query_x.view(), metric, kernel_k),
                    reference,
                    "tiled kernel must be bit-identical across tile sizes"
                );
                let t_scalar = time_median(kernel_reps, || {
                    std::hint::black_box(scalar_topk(train_x.view(), query_x.view(), metric, kernel_k));
                });
                let t_tiled = time_median(kernel_reps, || {
                    std::hint::black_box(serial.topk(train_x.view(), query_x.view(), metric, kernel_k));
                });
                let case = KernelCase {
                    train_n: n,
                    dim: d,
                    metric,
                    k: kernel_k,
                    scalar_qps: kernel_queries as f64 / t_scalar,
                    tiled_qps: kernel_queries as f64 / t_tiled,
                };
                println!(
                    "n={:>6} d={:>3} top-{:<2} {:<13} scalar {:>9.0} q/s   tiled(1 thread) {:>9.0} q/s   kernel speedup {:.2}x",
                    case.train_n,
                    case.dim,
                    kernel_k,
                    metric.name(),
                    case.scalar_qps,
                    case.tiled_qps,
                    case.tiled_qps / case.scalar_qps,
                );
                kernel_cases.push(case);
            }
        }
    }

    // Exhaustive vs clustered backend on a clustered synthetic workload:
    // parity is asserted bit for bit, the pruning rate must be non-zero
    // (otherwise the pruned path silently regressed to an exhaustive scan),
    // and both query paths are timed with the same parallel engine. The
    // k-means build is timed separately — it is a one-off cost amortised
    // over every query batch that reuses the index.
    let (clustered_sizes, clustered_queries): (&[usize], usize) = match scale {
        snoopy_data::registry::SizeScale::Tiny => (&[2_000], 150),
        snoopy_data::registry::SizeScale::Standard => (&[10_000, 32_000], 500),
        _ => (&[10_000, 16_000], 400),
    };
    let blob_dim = 32;
    let blob_centers = 64;
    let k = 10;
    let mut clustered_cases = Vec::new();
    for (i, &n) in clustered_sizes.iter().enumerate() {
        let train_x = make_blobs(n, blob_dim, blob_centers, 40 + i as u64);
        let query_x = make_blobs(clustered_queries, blob_dim, blob_centers, 80 + i as u64);
        let nlist = EvalBackend::default_nlist(n);
        let engine = EvalEngine::parallel();

        let build_start = Instant::now();
        let index =
            ClusteredIndex::build_with_engine(train_x.view(), Metric::SquaredEuclidean, nlist, engine);
        let build_s = build_start.elapsed().as_secs_f64();

        let (table, stats) = index.topk_with_stats(query_x.view(), k);
        assert_eq!(
            table,
            engine.topk(train_x.view(), query_x.view(), Metric::SquaredEuclidean, k),
            "clustered backend must be bit-identical to the exhaustive engine"
        );
        assert!(
            stats.cluster_prune_rate() > 0.0,
            "clustered backend pruned nothing (rate {}) — the pruned path regressed to exhaustive",
            stats.cluster_prune_rate()
        );

        let t_exhaustive = time_median(reps, || {
            std::hint::black_box(engine.topk(train_x.view(), query_x.view(), Metric::SquaredEuclidean, k));
        });
        let t_clustered = time_median(reps, || {
            std::hint::black_box(index.topk(query_x.view(), k));
        });
        let case = ClusteredCase {
            train_n: n,
            nlist,
            k,
            build_s,
            exhaustive_qps: clustered_queries as f64 / t_exhaustive,
            clustered_qps: clustered_queries as f64 / t_clustered,
            cluster_prune_rate: stats.cluster_prune_rate(),
            row_prune_rate: stats.row_prune_rate(),
        };
        println!(
            "n={:>6} d={} top-{:<2} clustered(nlist={:>3}) exhaustive {:>10.0} q/s   clustered {:>10.0} q/s   speedup {:.2}x   prune {:.1}% clusters / {:.1}% rows   build {:.3}s",
            case.train_n,
            blob_dim,
            k,
            nlist,
            case.exhaustive_qps,
            case.clustered_qps,
            case.clustered_qps / case.exhaustive_qps,
            100.0 * case.cluster_prune_rate,
            100.0 * case.row_prune_rate,
            build_s,
        );
        clustered_cases.push(case);
    }

    // Int8 two-phase scan vs the unquantized clustered scan, same partition:
    // loose, high-dimensional blobs (within-fraction 1.2 of the center
    // spread, d = 128) put the workload in the regime the quantized shadow
    // exists for — bound-based pruning decays toward a full scan and row
    // traffic dominates, so streaming one byte per dimension through the
    // integer dot tile beats streaming four. Parity is asserted bit for bit
    // against the exhaustive engine, the re-rank rate must be < 1 (the int8
    // bound actually excludes rows), the int8 scan copy must measure exactly
    // 4× smaller than the f32 rows, and at n ≥ 10k the quantized scan must
    // beat the unquantized one ≥ 2× — the headline contract of the shadow.
    let (quant_sizes, quant_queries): (&[usize], usize) = match scale {
        snoopy_data::registry::SizeScale::Tiny => (&[2_000], 100),
        snoopy_data::registry::SizeScale::Standard => (&[10_000, 16_000], 300),
        _ => (&[10_000, 16_000], 200),
    };
    let quant_dim = 128;
    let quant_centers = 64;
    let quant_k = 10;
    let mut quantized_cases = Vec::new();
    for (i, &n) in quant_sizes.iter().enumerate() {
        let train_x = snoopy_testutil::blob_cloud(140 + i as u64, n, quant_dim, quant_centers, 4.0, 1.2);
        let query_x =
            snoopy_testutil::blob_cloud(180 + i as u64, quant_queries, quant_dim, quant_centers, 4.0, 1.2);
        let nlist = EvalBackend::default_nlist(n);
        let engine = EvalEngine::parallel();
        let plain =
            ClusteredIndex::build_with_engine(train_x.view(), Metric::SquaredEuclidean, nlist, engine);
        let quantize_start = Instant::now();
        let quantized = plain.clone().quantize();
        let quantize_s = quantize_start.elapsed().as_secs_f64();
        assert!(quantized.is_quantized(), "sane blob data must accept the int8 shadow");

        let (table, stats) = quantized.topk_with_stats(query_x.view(), quant_k);
        assert_eq!(
            table,
            engine.topk(train_x.view(), query_x.view(), Metric::SquaredEuclidean, quant_k),
            "quantized scan must be bit-identical to the exhaustive engine"
        );
        assert!(stats.rows_quantized > 0, "quantized index never took the int8 phase: {stats:?}");
        let rerank_rate = stats.rerank_rate();
        assert!(
            rerank_rate < 1.0,
            "int8 bound re-ranked every phase-1 row (rate {rerank_rate}) — the widened bound prunes nothing"
        );
        let rb = quantized.resident_bytes();
        assert_eq!(rb.quantized_codes * 4, rb.train_rows, "int8 scan copy must be exactly 4x smaller");

        let t_plain = time_median(reps, || {
            std::hint::black_box(plain.topk(query_x.view(), quant_k));
        });
        let t_quant = time_median(reps, || {
            std::hint::black_box(quantized.topk(query_x.view(), quant_k));
        });
        if n >= 10_000 {
            assert!(
                t_plain / t_quant >= 2.0,
                "quantized scan must beat the unquantized clustered scan >= 2x at n = {n} \
                 (got {:.2}x) — the two-phase scan regressed below its headline contract",
                t_plain / t_quant
            );
        }
        let case = QuantizedCase {
            train_n: n,
            nlist,
            k: quant_k,
            quantize_s,
            clustered_qps: quant_queries as f64 / t_plain,
            quantized_qps: quant_queries as f64 / t_quant,
            rerank_rate,
            f32_bytes: rb.train_rows,
            code_bytes: rb.quantized_codes,
            meta_bytes: rb.quantized_meta,
        };
        println!(
            "n={:>6} d={quant_dim} top-{quant_k} quantized(nlist={:>3}) clustered {:>8.0} q/s   int8 two-phase {:>8.0} q/s   speedup {:.2}x   rerank {:.1}%   codes {:.1} MiB vs f32 {:.1} MiB   quantize {:.3}s",
            case.train_n,
            nlist,
            case.clustered_qps,
            case.quantized_qps,
            case.quantized_qps / case.clustered_qps,
            100.0 * rerank_rate,
            case.code_bytes as f64 / (1024.0 * 1024.0),
            case.f32_bytes as f64 / (1024.0 * 1024.0),
            quantize_s,
        );
        quantized_cases.push(case);
    }

    // Incremental successor state vs full rebuild: each bandit-style round
    // appends one batch into the growing per-query top-k state
    // (O(batch × queries) kernel work) while the baseline rebuilds the whole
    // prefix table cold (O(consumed × queries)). Parity is asserted bit for
    // bit at every round boundary, and at n ≥ 10k the final round's append
    // must beat the rebuild by ≥ 2× — the contract that makes the bandit
    // loop's incrementality real. The relabel refresh (1% of train labels
    // cleaned, error re-read) is timed as the cleaning-loop latency anchor.
    let (incr_sizes, incr_queries): (&[usize], usize) = match scale {
        snoopy_data::registry::SizeScale::Tiny => (&[10_000], 150),
        snoopy_data::registry::SizeScale::Standard => (&[10_000, 32_000], 500),
        _ => (&[10_000, 16_000], 400),
    };
    let incr_dim = 32;
    let incr_k = 10;
    let incr_rounds = 5;
    let incr_reps = reps.min(3);
    let mut incremental_cases = Vec::new();
    for (i, &n) in incr_sizes.iter().enumerate() {
        let train_x = make_data(n, incr_dim, 500 + i as u64);
        let train_y: Vec<u32> = (0..n).map(|j| (j % 10) as u32).collect();
        let query_x = make_data(incr_queries, incr_dim, 600 + i as u64);
        let query_y: Vec<u32> = (0..incr_queries).map(|j| (j % 10) as u32).collect();
        let engine = EvalEngine::parallel();
        let batch = n / incr_rounds;
        let mut state =
            IncrementalTopK::new(query_x.clone(), query_y.clone(), Metric::SquaredEuclidean, incr_k);
        let mut rounds = Vec::new();
        let mut consumed = 0usize;
        while consumed < n {
            let end = (consumed + batch).min(n);
            let batch_view = train_x.view().slice_rows(consumed, end);
            let batch_labels = &train_y[consumed..end];
            let t_append = time_median(incr_reps, || {
                let mut s = state.clone();
                std::hint::black_box(s.append(batch_view, batch_labels));
            });
            state.append(batch_view, batch_labels);
            consumed = end;
            let prefix = train_x.view().prefix(consumed);
            let t_rebuild = time_median(incr_reps, || {
                std::hint::black_box(engine.topk(prefix, query_x.view(), Metric::SquaredEuclidean, incr_k));
            });
            assert_eq!(
                state.table(),
                engine.topk(prefix, query_x.view(), Metric::SquaredEuclidean, incr_k),
                "incremental state must be bit-identical to a cold rebuild at every round"
            );
            println!(
                "n={:>6} d={incr_dim} top-{incr_k} incremental round @{:>6} rows   append {:>9.2} ms   rebuild {:>9.2} ms   speedup {:.2}x",
                n,
                consumed,
                t_append * 1e3,
                t_rebuild * 1e3,
                t_rebuild / t_append,
            );
            rounds.push(IncrementalRound { consumed, append_s: t_append, rebuild_s: t_rebuild });
        }
        let last = rounds.last().expect("at least one round");
        if n >= 10_000 {
            assert!(
                last.rebuild_s / last.append_s >= 2.0,
                "append fold must beat the full rebuild by >= 2x at n = {n} (got {:.2}x) — the \
                 incremental path regressed to rebuild-shaped work",
                last.rebuild_s / last.append_s
            );
        }
        // Relabel refresh: clean 1% of the training labels, re-read the
        // error — the O(test) cleaning-loop latency.
        let dirty: Vec<(usize, u32)> = (0..n / 100).map(|j| (j * 100, ((j + 1) % 10) as u32)).collect();
        let t_relabel = time_median(incr_reps.max(3), || {
            let mut s = state.clone();
            s.relabel_train_batch(&dirty);
            std::hint::black_box(s.error());
        });
        println!("n={:>6} d={incr_dim} relabel 1% + error refresh {:>9.4} ms", n, t_relabel * 1e3);
        incremental_cases.push(IncrementalCase {
            train_n: n,
            dim: incr_dim,
            k: incr_k,
            queries: incr_queries,
            rounds,
            relabel_refresh_s: t_relabel,
        });
    }

    // Sliding-window eviction vs cold window rebuild: an eviction-enabled
    // state holds a constant-size window of the stream; every slide appends
    // one batch and ages the same number of rows out. The incremental slide
    // costs O(batch × queries) append work plus a re-scan of only the
    // queries whose admission buffers drained (reported per slide), while
    // the cold baseline rebuilds the whole surviving window —
    // O(window × queries). Parity with a cold fold of the surviving window
    // (global indices) is asserted at every position, and at n ≥ 10k every
    // steady-state exhaustive slide must beat the rebuild by ≥ 2× — the
    // contract that makes eviction a slide, not a rebuild in disguise
    // (quantized slides also pay per-slide index compaction; see below).
    let evict_k = 10;
    let evict_slack = 10;
    let mut eviction_cases = Vec::new();
    for (i, &n) in incr_sizes.iter().enumerate() {
        let window = n / 2;
        let slide = n / 20;
        let train_x = make_data(n, incr_dim, 520 + i as u64);
        let train_y: Vec<u32> = (0..n).map(|j| (j % 10) as u32).collect();
        let query_x = make_data(incr_queries, incr_dim, 620 + i as u64);
        let query_y: Vec<u32> = (0..incr_queries).map(|j| (j % 10) as u32).collect();
        let engine = EvalEngine::parallel();
        for (backend_name, backend) in [
            ("exhaustive", EvalBackend::Exhaustive),
            ("quantized", EvalBackend::quantized(EvalBackend::default_nlist(window))),
        ] {
            let mut state =
                IncrementalTopK::new(query_x.clone(), query_y.clone(), Metric::SquaredEuclidean, evict_k)
                    .with_backend(backend)
                    .with_eviction(evict_slack);
            // Pre-fill the window, then slide it over the rest of the stream.
            let mut consumed = 0usize;
            while consumed < window {
                let end = (consumed + slide).min(window);
                state.append(train_x.view().slice_rows(consumed, end), &train_y[consumed..end]);
                consumed = end;
            }
            let mut slides = Vec::new();
            let mut position = 0usize;
            while consumed < n {
                let end = (consumed + slide).min(n);
                let batch_view = train_x.view().slice_rows(consumed, end);
                let batch_labels = &train_y[consumed..end];
                let rows_out = end - consumed;
                // Each rep replays the slide on a fresh clone; the clone
                // itself (large for the quantized window index) is re-seeding
                // machinery, not slide work, so it stays outside the timer.
                let t_slide = {
                    let mut times: Vec<f64> = Vec::with_capacity(incr_reps);
                    for _ in 0..incr_reps {
                        let mut s = state.clone();
                        let start = Instant::now();
                        s.append(batch_view, batch_labels);
                        std::hint::black_box(s.evict_oldest(rows_out));
                        times.push(start.elapsed().as_secs_f64());
                    }
                    times.sort_by(f64::total_cmp);
                    times[times.len() / 2]
                };
                let reps_before = state.repartitions();
                state.append(batch_view, batch_labels);
                let report = state.evict_oldest(rows_out);
                let repartitioned = state.repartitions() > reps_before;
                consumed = end;
                position += 1;
                let start = state.window_start();
                let t_rebuild = time_median(incr_reps, || {
                    std::hint::black_box(engine.topk(
                        train_x.view().slice_rows(start, consumed),
                        query_x.view(),
                        Metric::SquaredEuclidean,
                        evict_k,
                    ));
                });
                assert_eq!(
                    state.table(),
                    cold_window_table(
                        train_x.view(),
                        query_x.view(),
                        Metric::SquaredEuclidean,
                        evict_k,
                        start,
                        consumed,
                        &engine
                    ),
                    "slid window must be bit-identical to a cold fold of the surviving window \
                     ({backend_name}, position {position})"
                );
                if n >= 10_000 && !repartitioned {
                    // The exhaustive backend is the headline contract: a
                    // slide touches O(batch × queries + affected × window)
                    // work and must beat the O(window × queries) rebuild
                    // by 2×. The quantized backend additionally compacts
                    // its persistent window index and int8 shadow in place
                    // on every eviction — O(window) memtraffic the rebuild
                    // never pays — so it is held to the weaker bar of never
                    // being slower than the rebuild.
                    let floor = if backend_name == "exhaustive" { 2.0 } else { 1.0 };
                    assert!(
                        t_rebuild / t_slide >= floor,
                        "append+evict must beat the cold window rebuild >= {floor}x at n = {n} \
                         ({backend_name}, position {position}, got {:.2}x) — eviction regressed \
                         to rebuild-shaped work",
                        t_rebuild / t_slide
                    );
                }
                println!(
                    "n={:>6} d={incr_dim} top-{evict_k} eviction({backend_name:<10}) slide @[{:>6}, {:>6})   append+evict {:>8.2} ms   rebuild {:>8.2} ms   speedup {:.2}x   re-scanned {:>3} queries{}",
                    n,
                    start,
                    consumed,
                    t_slide * 1e3,
                    t_rebuild * 1e3,
                    t_rebuild / t_slide,
                    report.affected_queries,
                    if repartitioned { "   (re-partitioned)" } else { "" },
                );
                slides.push(EvictionSlide {
                    position,
                    window_start: start,
                    append_evict_s: t_slide,
                    rebuild_s: t_rebuild,
                    affected_queries: report.affected_queries,
                    repartitioned,
                });
            }
            eviction_cases.push(EvictionCase {
                train_n: n,
                dim: incr_dim,
                k: evict_k,
                queries: incr_queries,
                window,
                slide,
                slack: evict_slack,
                backend: backend_name,
                slides,
            });
        }
    }

    // Re-partition policy sweep on the quantized incremental path: replay
    // the same append stream under each policy and compare total append
    // wall-clock, re-cluster count, and the cumulative row prune rate. The
    // stream *drifts*: every round's batch is drawn from blob centers whose
    // means walk by one unit per round, so a partition built on early rounds
    // goes stale and the policies differ in how quickly they chase the
    // moving distribution — the adversarial regime the ROADMAP asked the
    // `REPARTITION_GROWTH = 2.0` default to be validated against (the
    // original sweep used stationary blobs, where never re-clustering is
    // nearly free). Every policy must still land on the bit-identical final
    // table (policies only move *when* the partition is rebuilt, never what
    // a query answers).
    let (rep_n, rep_queries, rep_rounds): (usize, usize, usize) = match scale {
        snoopy_data::registry::SizeScale::Tiny => (4_000, 100, 8),
        snoopy_data::registry::SizeScale::Standard => (16_000, 300, 12),
        _ => (10_000, 200, 12),
    };
    let rep_dim = 32;
    let rep_k = 10;
    let rep_policies: [(&str, RepartitionPolicy); 4] = [
        ("growth-1.5", RepartitionPolicy::Growth(1.5)),
        ("growth-2.0", RepartitionPolicy::Growth(2.0)),
        ("growth-3.0", RepartitionPolicy::Growth(3.0)),
        ("prune-rate-0.5", RepartitionPolicy::PruneRate { min_row_prune: 0.5 }),
    ];
    // Walking batch means: round r's rows (and queries) are offset by
    // `r × drift` in every coordinate — a stream whose distribution the
    // early partition has never seen.
    let rep_drift = 1.0f32;
    let drifting = |total: usize, seed_base: u64| {
        let per_round = total.div_ceil(rep_rounds);
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(total);
        for r in 0..rep_rounds {
            let len = per_round.min(total - rows.len());
            if len == 0 {
                break;
            }
            let chunk = make_blobs(len, rep_dim, 64, seed_base + r as u64);
            let offset = rep_drift * r as f32;
            rows.extend(chunk.view().rows_iter().map(|row| row.iter().map(|v| v + offset).collect()));
        }
        Matrix::from_rows(&rows)
    };
    let rep_train = drifting(rep_n, 900);
    let rep_train_y: Vec<u32> = (0..rep_n).map(|j| (j % 10) as u32).collect();
    let rep_query = drifting(rep_queries, 950);
    let rep_query_y: Vec<u32> = (0..rep_queries).map(|j| (j % 10) as u32).collect();
    let rep_nlist = EvalBackend::default_nlist(rep_n);
    let rep_batch = rep_n.div_ceil(rep_rounds);
    let mut repartition_cases = Vec::new();
    let mut rep_reference_table = None;
    for (name, policy) in rep_policies {
        let replay = || {
            let mut state =
                IncrementalTopK::new(rep_query.clone(), rep_query_y.clone(), Metric::SquaredEuclidean, rep_k)
                    .with_backend(EvalBackend::quantized(rep_nlist))
                    .with_repartition_policy(policy);
            let mut consumed = 0usize;
            for chunk in rep_train.view().batches(rep_batch) {
                let len = chunk.rows();
                state.append(chunk, &rep_train_y[consumed..consumed + len]);
                consumed += len;
            }
            state
        };
        let probe = replay();
        let table = probe.table();
        match &rep_reference_table {
            None => rep_reference_table = Some(table),
            Some(reference) => assert_eq!(
                &table, reference,
                "policy {name} changed query results — policies may only move when re-partitions happen"
            ),
        }
        let t_total = time_median(incr_reps, || {
            std::hint::black_box(replay().error());
        });
        let case = RepartitionCase {
            policy: name,
            total_append_s: t_total,
            repartitions: probe.repartitions(),
            row_prune_rate: probe.prune_stats().row_prune_rate(),
            partition_pairs: probe.partition_pairs(),
        };
        println!(
            "n={rep_n:>6} d={rep_dim} top-{rep_k} repartition {:<14} total append {:>8.2} ms   re-clusters {}   row prune {:.1}%   k-means work {} pairs",
            case.policy,
            case.total_append_s * 1e3,
            case.repartitions,
            100.0 * case.row_prune_rate,
            case.partition_pairs,
        );
        repartition_cases.push(case);
    }

    // Persistent pool vs per-call thread churn: the same two-way query
    // fan-out per call, once through freshly spawned scoped threads (what
    // every engine call paid before the pool) and once through the
    // persistent pool (a queue push per chunk). Workloads are small on
    // purpose — that is where per-call overhead dominates and where the
    // bandit's per-round pulls and GHP's shrinking Prim frontiers actually
    // live. The scratch row is the pool path through `topk_with`: the
    // caller-owned kernel caches, per-query states, and output table make
    // the steady-state loop allocation-free. All three paths are asserted
    // bit-identical before timing.
    let pool_k = 10;
    let pool_reps = 30;
    let mut pool_cases = Vec::new();
    for (n, pool_queries, pool_dim) in [(256usize, 32usize, 16usize), (2_048, 64, 32)] {
        let train_x = make_data(n, pool_dim, 700);
        let query_x = make_data(pool_queries, pool_dim, 701);
        let reference = knn_reference(train_x.view(), query_x.view(), Metric::SquaredEuclidean, pool_k);
        let engine = EvalEngine::with_threads(2);
        let [head, tail] =
            scoped_spawn_topk(train_x.view(), query_x.view(), Metric::SquaredEuclidean, pool_k);
        let mid = query_x.rows() / 2;
        assert_eq!(
            head,
            knn_reference(train_x.view(), query_x.view().prefix(mid), Metric::SquaredEuclidean, pool_k)
        );
        assert_eq!(
            tail,
            knn_reference(
                train_x.view(),
                query_x.view().slice_rows(mid, query_x.rows()),
                Metric::SquaredEuclidean,
                pool_k
            ),
            "scoped-spawn baseline must match the reference"
        );
        assert_eq!(
            engine.topk(train_x.view(), query_x.view(), Metric::SquaredEuclidean, pool_k),
            reference,
            "pool-backed engine must match the reference"
        );
        let mut scratch = snoopy_knn::TopKScratch::new();
        assert_eq!(
            engine.topk_with(&mut scratch, train_x.view(), query_x.view(), Metric::SquaredEuclidean, pool_k),
            &reference,
            "scratch variant must match the reference"
        );
        let spawn_s = time_median(pool_reps, || {
            std::hint::black_box(scoped_spawn_topk(
                train_x.view(),
                query_x.view(),
                Metric::SquaredEuclidean,
                pool_k,
            ));
        });
        let pool_s = time_median(pool_reps, || {
            std::hint::black_box(engine.topk(
                train_x.view(),
                query_x.view(),
                Metric::SquaredEuclidean,
                pool_k,
            ));
        });
        let scratch_s = time_median(pool_reps, || {
            std::hint::black_box(engine.topk_with(
                &mut scratch,
                train_x.view(),
                query_x.view(),
                Metric::SquaredEuclidean,
                pool_k,
            ));
        });
        println!(
            "n={n:>6} d={pool_dim} q={pool_queries} top-{pool_k} pool      scoped-spawn {:>8.1} us/call   pool {:>8.1} us/call   pool+scratch {:>8.1} us/call   churn cut {:.2}x",
            spawn_s * 1e6,
            pool_s * 1e6,
            scratch_s * 1e6,
            spawn_s / pool_s,
        );
        pool_cases.push(PoolCase {
            train_n: n,
            queries: pool_queries,
            dim: pool_dim,
            k: pool_k,
            spawn_s,
            pool_s,
            scratch_s,
        });
    }

    // Multi-tenant serving: N tenants each submit R repeated feasibility
    // requests to one warm `FeasibilityService` (round 1 cold, later rounds
    // served from the per-tenant embedding caches, all tenants of a round
    // concurrent on the shared pool). The serial baseline answers the same
    // task mix with sequential cold one-shot studies — the pre-service
    // deployment model, paying full zoo inference per request. The scenario
    // itself asserts winner/BER parity and zero warm inference cost; here
    // the aggregate throughput at ≥ 2 tenants must additionally beat the
    // serial baseline, or warm serving has silently regressed.
    use snoopy_data::registry::{load_clean, SizeScale};
    let server_tasks = [
        load_clean("mnist", SizeScale::Tiny, 1),
        load_clean("sst2", SizeScale::Tiny, 3),
        load_clean("cifar10", SizeScale::Tiny, 5),
    ];
    let server_tenant_counts: &[usize] = match scale {
        snoopy_data::registry::SizeScale::Tiny => &[1, 2],
        _ => &[1, 2, 3],
    };
    let server_requests = 3usize;
    let server_config = snoopy_core::SnoopyConfig::with_target(0.85).batch_fraction(0.25);
    let mut server_cases = Vec::new();
    for &tenants in server_tenant_counts {
        let mix = &server_tasks[..tenants];
        let t_serial = time_median(3, || {
            for task in mix {
                let zoo = snoopy_embeddings::zoo_for_task(task, 7);
                for _ in 0..server_requests {
                    std::hint::black_box(snoopy_core::FeasibilityStudy::new(server_config).run(task, &zoo));
                }
            }
        });
        let serial_studies_per_s = (tenants * server_requests) as f64 / t_serial;
        let run = snoopy_e2e::run_server_scenario(mix, server_requests, server_config);
        if tenants >= 2 {
            assert!(
                run.studies_per_second > serial_studies_per_s,
                "warm multi-tenant serving ({:.2} studies/s at {tenants} tenants) must beat \
                 sequential cold studies ({serial_studies_per_s:.2} studies/s)",
                run.studies_per_second
            );
        }
        println!(
            "tenants={tenants} x {server_requests} requests   serial cold {:>7.2} studies/s   warm service {:>7.2} studies/s   speedup {:.2}x   ({} progress events)",
            serial_studies_per_s,
            run.studies_per_second,
            run.studies_per_second / serial_studies_per_s,
            run.progress_events,
        );
        server_cases.push(ServerCase {
            tenants,
            requests_per_tenant: server_requests,
            serial_studies_per_s,
            served_studies_per_s: run.studies_per_second,
        });
    }

    // Out-of-core: the full default-estimator feasibility study over a disk
    // dataset whose feature payload is `budget_factor`× the resident shard
    // budget, paged through the `ShardedIndex` vs the fully-resident
    // in-memory baseline, plus a query-phase comparison of serial paging vs
    // the prefetch pipeline on a prebuilt index (whole-study time is
    // dominated by the k-means build, so the pipeline's win is measured on
    // the paging+scanning loop alone). Parity is asserted bit for bit
    // (table, estimates, and the serial-vs-prefetch tables), the budget
    // must actually bind (≥ 2 shard evictions), and peak residency must
    // respect the `budget + max_shard × (1 + depth)` contract before
    // anything is timed. Paged throughput depends on page-fault and gather
    // cost (`io_dependent`), and the prefetch comparison degenerates to
    // serial-vs-serial without a second core (`thread_dependent`).
    // The 16k and 64k cases run at every scale on purpose (like the 10k
    // incremental case): the within-2×-of-resident assertion below only has
    // teeth at n ≥ 10 000, so even the tiny CI smoke exercises it. The
    // standard scale adds a 512k-row case at 8× over budget — the current
    // rung toward the million-row north star.
    let oocore_specs: &[(usize, usize, usize)] = match scale {
        snoopy_data::registry::SizeScale::Tiny => &[(2_000, 16, 4), (16_384, 32, 4), (65_536, 16, 4)],
        snoopy_data::registry::SizeScale::Standard => {
            &[(16_384, 32, 4), (65_536, 16, 4), (131_072, 16, 4), (524_288, 16, 8)]
        }
        _ => &[(8_000, 16, 4), (16_384, 32, 4), (65_536, 16, 4)],
    };
    const OOCORE_PREFETCH_DEPTH: usize = 4;
    let mut oocore_cases = Vec::new();
    for (i, &(n, d, budget_factor)) in oocore_specs.iter().enumerate() {
        let x = make_blobs(n, d, 32, 90 + i as u64);
        let y: Vec<u32> = (0..n).map(|r| (r % 4) as u32).collect();
        // The generated dataset lives in a scratch dir the guard removes on
        // drop — bench and test runs leave no artifacts behind.
        let dir = snoopy_testutil::TempDir::new("bench_oocore");
        snoopy_data::DiskLabeledDataset::write(dir.path(), &LabeledView::from_parts(x.view(), &y, 4))
            .expect("write out-of-core bench dataset");

        let eval_rows = (n / 8).min(512);
        let train_rows = n - eval_rows;
        let dataset_bytes = n * d * std::mem::size_of::<f32>();
        let budget_bytes = (train_rows * d * std::mem::size_of::<f32>()) / budget_factor;
        let cfg = snoopy_core::OutOfCoreConfig {
            shard_budget_bytes: budget_bytes,
            nlist: 32,
            eval_rows,
            quantize: false,
            // The whole-study timing keeps PR 9's serial-paging semantics;
            // the pipeline is measured separately on the query phase below.
            prefetch_depth: 0,
        };
        assert!(
            dataset_bytes >= budget_factor * budget_bytes,
            "the dataset must dwarf the budget {budget_factor}x"
        );

        let paged = snoopy_core::run_oocore_study(dir.path(), &cfg).expect("paged study");
        let resident = snoopy_core::run_resident_reference(dir.path(), &cfg).expect("resident study");
        assert_eq!(paged.table, resident.table, "paged table must be bit-identical to resident");
        assert_eq!(paged.estimates, resident.estimates, "estimates must be bit-identical");
        assert!(
            paged.paging.shards_evicted >= 2,
            "the budget must force ≥ 2 shard evictions, got {:?}",
            paged.paging
        );
        let rb = paged.residency;
        assert!(
            rb.peak <= rb.budget + rb.max_shard,
            "peak resident {} exceeds budget {} + largest shard {}",
            rb.peak,
            rb.budget,
            rb.max_shard
        );

        let t_paged = time_median(3, || {
            std::hint::black_box(snoopy_core::run_oocore_study(dir.path(), &cfg).expect("paged study"));
        });
        let t_resident = time_median(3, || {
            std::hint::black_box(
                snoopy_core::run_resident_reference(dir.path(), &cfg).expect("resident study"),
            );
        });
        let paged_qps = eval_rows as f64 / t_paged;
        let resident_qps = eval_rows as f64 / t_resident;
        if n >= 10_000 {
            assert!(
                2.0 * paged_qps >= resident_qps,
                "paged study ({paged_qps:.1} qps) fell more than 2x behind resident ({resident_qps:.1} qps) at n={n}"
            );
        }

        // Query-phase pipeline comparison on one prebuilt index: same
        // eviction-heavy budget, depth 0 vs depth 4, tables asserted
        // bit-identical. Each timed run re-pages most of its shards (the
        // budget is `budget_factor`× oversubscribed), so residual cache
        // state between runs is noise, not signal.
        let dataset = snoopy_data::DiskLabeledDataset::open(dir.path()).expect("open bench dataset");
        let full = dataset.view();
        let train_x = full.features().slice_rows(0, train_rows);
        let eval_x = full.features().slice_rows(train_rows, n);
        let kq = 8usize;
        let mut index =
            snoopy_knn::ShardedIndex::build(train_x, Metric::SquaredEuclidean, cfg.nlist, budget_bytes);
        index.set_prefetch_depth(0);
        let serial_table = index.topk(eval_x, kq); // warm-up + reference
        let t_serial_q = time_median(3, || {
            std::hint::black_box(index.topk(eval_x, kq));
        });
        index.set_prefetch_depth(OOCORE_PREFETCH_DEPTH);
        let before = index.paging_stats();
        let prefetch_table = index.topk(eval_x, kq); // warm-up on the pipeline
        assert_eq!(prefetch_table, serial_table, "prefetch must not change a single bit");
        let t_prefetch_q = time_median(3, || {
            std::hint::black_box(index.topk(eval_x, kq));
        });
        let after = index.paging_stats();
        let shards_prefetched = after.shards_prefetched - before.shards_prefetched;
        let prefetch_committed = after.prefetch_committed - before.prefetch_committed;
        let prefetch_wasted = after.prefetch_wasted - before.prefetch_wasted;
        let qrb = index.resident_bytes();
        assert!(
            qrb.peak <= qrb.budget + (1 + OOCORE_PREFETCH_DEPTH) * qrb.max_shard,
            "pipelined peak {} exceeds budget {} + (1 + {OOCORE_PREFETCH_DEPTH}) x largest shard {}",
            qrb.peak,
            qrb.budget,
            qrb.max_shard
        );
        let serial_query_qps = eval_rows as f64 / t_serial_q;
        let prefetch_query_qps = eval_rows as f64 / t_prefetch_q;
        let host_cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        if threads >= 2 && host_cores >= 2 && n >= 32_768 {
            assert!(
                prefetch_query_qps >= 1.2 * serial_query_qps,
                "prefetch query phase ({prefetch_query_qps:.1} qps) must beat serial paging \
                 ({serial_query_qps:.1} qps) by >= 1.2x at n={n} on {threads} workers"
            );
        }

        println!(
            "oocore n={n} d={d}   budget {:.1} MiB / dataset {:.1} MiB ({budget_factor}x)   paged {:>7.1} qps   resident {:>7.1} qps   ratio {:.2}x   query serial {:>7.1} qps   prefetch(x{OOCORE_PREFETCH_DEPTH}) {:>7.1} qps ({:.2}x)   ({} faults, {} evictions, {}/{} commits/wasted)",
            budget_bytes as f64 / (1 << 20) as f64,
            dataset_bytes as f64 / (1 << 20) as f64,
            paged_qps,
            resident_qps,
            paged_qps / resident_qps,
            serial_query_qps,
            prefetch_query_qps,
            prefetch_query_qps / serial_query_qps,
            paged.paging.shards_faulted,
            paged.paging.shards_evicted,
            prefetch_committed,
            prefetch_wasted,
        );
        oocore_cases.push(OocoreCase {
            train_n: n,
            dim: d,
            eval_rows,
            nlist: cfg.nlist,
            budget_bytes,
            dataset_bytes,
            budget_factor,
            paged_qps,
            resident_qps,
            serial_query_qps,
            prefetch_query_qps,
            prefetch_depth: OOCORE_PREFETCH_DEPTH,
            shards_faulted: paged.paging.shards_faulted,
            shards_evicted: paged.paging.shards_evicted,
            bytes_faulted: paged.paging.bytes_faulted,
            shards_prefetched,
            prefetch_committed,
            prefetch_wasted,
            peak_bytes: rb.peak,
            max_shard_bytes: rb.max_shard,
        });
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"knn_kernels\",");
    let _ = writeln!(json, "  \"threads\": {threads},");
    // Per-section provenance: say what each section's speedup compares and
    // whether that comparison depends on the thread count. A blanket
    // "single-core numbers are noise" note would be wrong for most of the
    // file — kernel/clustered/quantized/incremental/repartition sections
    // compare two single-threaded code paths and are valid on any host; only
    // the serial-vs-parallel sections degenerate when threads == 1.
    let _ = writeln!(json, "  \"section_meta\": {{");
    let thread_dep = |name: &str, compares: &str| {
        format!("    \"{name}\": {{\"compares\": \"{compares}\", \"thread_dependent\": true}},")
    };
    let thread_free = |name: &str, compares: &str| {
        format!("    \"{name}\": {{\"compares\": \"{compares}\", \"thread_dependent\": false}},")
    };
    let _ = writeln!(json, "{}", thread_dep("cases", "serial vs parallel full-scan labeling"));
    let _ = writeln!(json, "{}", thread_dep("topk_cases", "serial vs parallel top-k extraction"));
    let _ = writeln!(json, "{}", thread_dep("leave_one_out", "serial vs parallel LOO error"));
    let _ = writeln!(json, "{}", thread_free("kernel_cases", "scalar vs tile-blocked distance kernel"));
    let _ = writeln!(
        json,
        "{}",
        thread_free("clustered_cases", "exhaustive scan vs triangle-pruned clustered index")
    );
    let _ =
        writeln!(json, "{}", thread_free("quantized_cases", "plain clustered scan vs int8 two-phase scan"));
    let _ = writeln!(json, "{}", thread_free("incremental_cases", "incremental append vs cold rebuild"));
    let _ = writeln!(
        json,
        "{}",
        thread_free("eviction_cases", "sliding-window append+evict vs cold rebuild of the surviving window")
    );
    let _ = writeln!(
        json,
        "{}",
        thread_free("repartition_cases", "re-partition policies on a drifting quantized append stream")
    );
    let _ = writeln!(
        json,
        "{}",
        thread_dep("pool_cases", "per-call scoped thread spawn vs persistent pool submit")
    );
    let _ = writeln!(
        json,
        "    \"oocore_cases\": {{\"compares\": \"shard-paged out-of-core study vs fully-resident study, plus serial paging vs the prefetch pipeline on the query phase\", \"thread_dependent\": true, \"io_dependent\": true}},"
    );
    let _ = writeln!(
        json,
        "    \"server_cases\": {{\"compares\": \"sequential cold studies vs warm multi-tenant service\", \"thread_dependent\": true}}"
    );
    let _ = writeln!(json, "  }},");
    if threads == 1 {
        let _ = writeln!(
            json,
            "  \"note\": \"single-core host: thread_dependent sections degenerate to serial-vs-serial; regenerate those on a multi-core machine\","
        );
    }
    let _ = writeln!(json, "  \"queries\": {queries},");
    let _ = writeln!(json, "  \"cases\": [");
    for (i, c) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"train_n\": {}, \"dim\": {}, \"metric\": \"{}\", \"serial_qps\": {:.1}, \"parallel_qps\": {:.1}, \"speedup\": {:.3}}}{comma}",
            c.train_n,
            c.dim,
            c.metric.name(),
            c.serial_qps,
            c.parallel_qps,
            c.parallel_qps / c.serial_qps,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"topk_cases\": [");
    for (i, c) in topk_cases.iter().enumerate() {
        let comma = if i + 1 < topk_cases.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"train_n\": {}, \"dim\": {dim}, \"k\": {}, \"metric\": \"sq-euclidean\", \"serial_qps\": {:.1}, \"parallel_qps\": {:.1}, \"speedup\": {:.3}}}{comma}",
            c.train_n,
            c.k,
            c.serial_qps,
            c.parallel_qps,
            c.parallel_qps / c.serial_qps,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"leave_one_out\": [");
    for (i, c) in loo_cases.iter().enumerate() {
        let comma = if i + 1 < loo_cases.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"train_n\": {}, \"dim\": {dim}, \"metric\": \"sq-euclidean\", \"serial_s\": {:.6}, \"parallel_s\": {:.6}, \"speedup\": {:.3}}}{comma}",
            c.train_n,
            c.serial_s,
            c.parallel_s,
            c.serial_s / c.parallel_s,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"kernel_cases\": [");
    for (i, c) in kernel_cases.iter().enumerate() {
        let comma = if i + 1 < kernel_cases.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"train_n\": {}, \"dim\": {}, \"k\": {}, \"metric\": \"{}\", \"scalar_qps\": {:.1}, \"tiled_qps\": {:.1}, \"speedup\": {:.3}}}{comma}",
            c.train_n,
            c.dim,
            c.k,
            c.metric.name(),
            c.scalar_qps,
            c.tiled_qps,
            c.tiled_qps / c.scalar_qps,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"clustered_cases\": [");
    for (i, c) in clustered_cases.iter().enumerate() {
        let comma = if i + 1 < clustered_cases.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"train_n\": {}, \"dim\": {blob_dim}, \"centers\": {blob_centers}, \"nlist\": {}, \"k\": {}, \"metric\": \"sq-euclidean\", \"build_s\": {:.6}, \"exhaustive_qps\": {:.1}, \"clustered_qps\": {:.1}, \"speedup\": {:.3}, \"cluster_prune_rate\": {:.4}, \"row_prune_rate\": {:.4}}}{comma}",
            c.train_n,
            c.nlist,
            c.k,
            c.build_s,
            c.exhaustive_qps,
            c.clustered_qps,
            c.clustered_qps / c.exhaustive_qps,
            c.cluster_prune_rate,
            c.row_prune_rate,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"quantized_cases\": [");
    for (i, c) in quantized_cases.iter().enumerate() {
        let comma = if i + 1 < quantized_cases.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"train_n\": {}, \"dim\": {quant_dim}, \"centers\": {quant_centers}, \"nlist\": {}, \"k\": {}, \"metric\": \"sq-euclidean\", \"quantize_s\": {:.6}, \"clustered_qps\": {:.1}, \"quantized_qps\": {:.1}, \"speedup\": {:.3}, \"rerank_rate\": {:.4}, \"f32_bytes\": {}, \"code_bytes\": {}, \"meta_bytes\": {}}}{comma}",
            c.train_n,
            c.nlist,
            c.k,
            c.quantize_s,
            c.clustered_qps,
            c.quantized_qps,
            c.quantized_qps / c.clustered_qps,
            c.rerank_rate,
            c.f32_bytes,
            c.code_bytes,
            c.meta_bytes,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"incremental_cases\": [");
    for (i, c) in incremental_cases.iter().enumerate() {
        let comma = if i + 1 < incremental_cases.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"train_n\": {}, \"dim\": {}, \"k\": {}, \"queries\": {}, \"metric\": \"sq-euclidean\", \"relabel_refresh_s\": {:.6}, \"rounds\": [",
            c.train_n, c.dim, c.k, c.queries, c.relabel_refresh_s,
        );
        for (j, r) in c.rounds.iter().enumerate() {
            let rcomma = if j + 1 < c.rounds.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "      {{\"consumed\": {}, \"append_s\": {:.6}, \"rebuild_s\": {:.6}, \"speedup\": {:.3}}}{rcomma}",
                r.consumed,
                r.append_s,
                r.rebuild_s,
                r.rebuild_s / r.append_s,
            );
        }
        let _ = writeln!(json, "    ]}}{comma}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"eviction_cases\": [");
    for (i, c) in eviction_cases.iter().enumerate() {
        let comma = if i + 1 < eviction_cases.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"train_n\": {}, \"dim\": {}, \"k\": {}, \"queries\": {}, \"window\": {}, \"slide\": {}, \"slack\": {}, \"backend\": \"{}\", \"metric\": \"sq-euclidean\", \"slides\": [",
            c.train_n, c.dim, c.k, c.queries, c.window, c.slide, c.slack, c.backend,
        );
        for (j, s) in c.slides.iter().enumerate() {
            let scomma = if j + 1 < c.slides.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "      {{\"position\": {}, \"window_start\": {}, \"append_evict_s\": {:.6}, \"rebuild_s\": {:.6}, \"speedup\": {:.3}, \"affected_queries\": {}, \"repartitioned\": {}}}{scomma}",
                s.position,
                s.window_start,
                s.append_evict_s,
                s.rebuild_s,
                s.rebuild_s / s.append_evict_s,
                s.affected_queries,
                s.repartitioned,
            );
        }
        let _ = writeln!(json, "    ]}}{comma}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"repartition_cases\": [");
    for (i, c) in repartition_cases.iter().enumerate() {
        let comma = if i + 1 < repartition_cases.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"train_n\": {rep_n}, \"dim\": {rep_dim}, \"k\": {rep_k}, \"queries\": {rep_queries}, \"rounds\": {rep_rounds}, \"metric\": \"sq-euclidean\", \"policy\": \"{}\", \"total_append_s\": {:.6}, \"repartitions\": {}, \"row_prune_rate\": {:.4}, \"partition_pairs\": {}}}{comma}",
            c.policy,
            c.total_append_s,
            c.repartitions,
            c.row_prune_rate,
            c.partition_pairs,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"pool_cases\": [");
    for (i, c) in pool_cases.iter().enumerate() {
        let comma = if i + 1 < pool_cases.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"train_n\": {}, \"queries\": {}, \"dim\": {}, \"k\": {}, \"metric\": \"sq-euclidean\", \"spawn_s\": {:.9}, \"pool_s\": {:.9}, \"pool_scratch_s\": {:.9}, \"speedup\": {:.3}, \"scratch_speedup\": {:.3}}}{comma}",
            c.train_n,
            c.queries,
            c.dim,
            c.k,
            c.spawn_s,
            c.pool_s,
            c.scratch_s,
            c.spawn_s / c.pool_s,
            c.spawn_s / c.scratch_s,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"oocore_cases\": [");
    for (i, c) in oocore_cases.iter().enumerate() {
        let comma = if i + 1 < oocore_cases.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"train_n\": {}, \"dim\": {}, \"eval_rows\": {}, \"nlist\": {}, \"metric\": \"sq-euclidean\", \"budget_bytes\": {}, \"dataset_bytes\": {}, \"budget_factor\": {}, \"paged_qps\": {:.1}, \"resident_qps\": {:.1}, \"ratio\": {:.3}, \"serial_query_qps\": {:.1}, \"prefetch_query_qps\": {:.1}, \"prefetch_speedup\": {:.3}, \"prefetch_depth\": {}, \"shards_faulted\": {}, \"shards_evicted\": {}, \"bytes_faulted\": {}, \"shards_prefetched\": {}, \"prefetch_committed\": {}, \"prefetch_wasted\": {}, \"peak_bytes\": {}, \"max_shard_bytes\": {}}}{comma}",
            c.train_n,
            c.dim,
            c.eval_rows,
            c.nlist,
            c.budget_bytes,
            c.dataset_bytes,
            c.budget_factor,
            c.paged_qps,
            c.resident_qps,
            c.paged_qps / c.resident_qps,
            c.serial_query_qps,
            c.prefetch_query_qps,
            c.prefetch_query_qps / c.serial_query_qps,
            c.prefetch_depth,
            c.shards_faulted,
            c.shards_evicted,
            c.bytes_faulted,
            c.shards_prefetched,
            c.prefetch_committed,
            c.prefetch_wasted,
            c.peak_bytes,
            c.max_shard_bytes,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"server_cases\": [");
    for (i, c) in server_cases.iter().enumerate() {
        let comma = if i + 1 < server_cases.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"tenants\": {}, \"requests_per_tenant\": {}, \"serial_studies_per_s\": {:.4}, \"served_studies_per_s\": {:.4}, \"speedup\": {:.3}}}{comma}",
            c.tenants,
            c.requests_per_tenant,
            c.serial_studies_per_s,
            c.served_studies_per_s,
            c.served_studies_per_s / c.serial_studies_per_s,
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let path = snoopy_bench::results_dir()
        .parent()
        .map(|p| p.join("BENCH_knn.json"))
        .unwrap_or_else(|| "BENCH_knn.json".into());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("(written to {})", path.display()),
        Err(e) => eprintln!("warning: could not write {path:?}: {e}"),
    }
}
