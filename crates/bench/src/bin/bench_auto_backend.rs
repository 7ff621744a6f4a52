//! Emits `BENCH_auto_backend.json`: the break-even sweep behind
//! `EvalBackend::auto_for`, which picks the clustered index only when the
//! exhaustive scan costs more than `AUTO_BUILD_MARGIN` times clustering in
//! the pair counts of `EvalBackend::auto_costs`.
//!
//! For two data shapes — the out-of-core benchmark's 4-class Gaussian
//! mixture (d = 16) and the clustered bench's blobs (d = 32, 64 centres) —
//! and each training size n, the sweep times the top-10 table of q queries
//! two ways over a grid of q: the exhaustive engine, and the build of a
//! `default_nlist(n)` clustered index plus its query scan. Both tables are
//! asserted bit-identical first. Where the clustered total falls below the
//! exhaustive one, the crossing `q*` is interpolated between the bracketing
//! grid points, and the recorded `break_even_pair_ratio` is the exhaustive
//! over clustering pair count at `q*` — the figure `AUTO_BUILD_MARGIN`
//! must not undercut. Every timing is a median over `reps` runs.
//!
//! ```text
//! cargo run --release -p snoopy-bench --bin bench_auto_backend [--scale tiny|small|standard]
//! ```

use snoopy_bench::time_median;
use snoopy_data::gaussian::{GaussianMixture, GaussianMixtureSpec};
use snoopy_data::registry::SizeScale;
use snoopy_knn::clustered::AUTO_BUILD_MARGIN;
use snoopy_knn::{ClusteredIndex, EvalBackend, EvalEngine, Metric};
use snoopy_linalg::{rng, Matrix};
use std::fmt::Write as _;
use std::hint::black_box;

const K: usize = 10;
const QUERY_GRID: [usize; 6] = [512, 1024, 2048, 4096, 8192, 16_384];

/// `n` training rows and `q` query rows of one named shape.
fn sample(shape: &str, n: usize, q: usize, seed: u64) -> (Matrix, Matrix) {
    match shape {
        "mixture-d16" => {
            let mixture = GaussianMixture::from_spec(&GaussianMixtureSpec {
                num_classes: 4,
                latent_dim: 16,
                class_sep: 2.5,
                within_std: 1.0,
                seed,
            });
            let mut r = rng::seeded(seed ^ 0x00c0_4e5e);
            (mixture.sample(n, &mut r).0, mixture.sample(q, &mut r).0)
        }
        _ => {
            // One draw, split, so the queries come from the training blobs.
            let all = snoopy_testutil::blob_cloud(seed, n + q, 32, 64, 4.0, 0.15);
            (all.view().slice_rows(0, n).to_matrix(), all.view().slice_rows(n, n + q).to_matrix())
        }
    }
}

struct Point {
    queries: usize,
    exhaustive_s: f64,
    clustered_s: f64,
    auto: EvalBackend,
}

struct Sweep {
    shape: &'static str,
    train_n: usize,
    dim: usize,
    nlist: usize,
    build_s: f64,
    points: Vec<Point>,
    /// Interpolated query count where build + clustered scan meets the
    /// exhaustive scan (`None` when clustering never won on the grid).
    break_even_q: Option<f64>,
}

impl Sweep {
    /// Exhaustive over clustering pair count at the break-even.
    fn break_even_pair_ratio(&self) -> Option<f64> {
        self.break_even_q.map(|q| {
            let (exhaustive, clustering) = EvalBackend::auto_costs(self.train_n, q.round() as usize);
            exhaustive as f64 / clustering as f64
        })
    }
}

/// Interpolates where `clustered_s − exhaustive_s` turns from positive to
/// non-positive along the grid.
fn break_even(points: &[Point]) -> Option<f64> {
    let gap = |p: &Point| p.clustered_s - p.exhaustive_s;
    points.windows(2).find(|w| gap(&w[0]) > 0.0 && gap(&w[1]) <= 0.0).map(|w| {
        let (a, b) = (&w[0], &w[1]);
        a.queries as f64 + (b.queries - a.queries) as f64 * gap(a) / (gap(a) - gap(b))
    })
}

fn main() {
    let scale = snoopy_bench::scale_from_args();
    let (sizes, reps): (&[usize], usize) = match scale {
        SizeScale::Tiny => (&[8_192], 1),
        _ => (&[8_192, 16_384, 32_768], 5),
    };
    let engine = EvalEngine::parallel();
    let metric = Metric::SquaredEuclidean;
    let max_q = QUERY_GRID[QUERY_GRID.len() - 1];
    let mut sweeps = Vec::new();
    for shape in ["mixture-d16", "blobs-d32"] {
        for (i, &n) in sizes.iter().enumerate() {
            let (train_x, query_x) = sample(shape, n, max_q, 1 + i as u64);
            let nlist = EvalBackend::default_nlist(n);
            let build = || ClusteredIndex::build_with_engine(train_x.view(), metric, nlist, engine);
            let build_s = time_median(reps, || {
                black_box(build());
            });
            let index = build();
            let first = query_x.view().slice_rows(0, QUERY_GRID[0]);
            assert_eq!(
                index.topk(first, K),
                engine.topk(train_x.view(), first, metric, K),
                "the clustered table must be bit-identical to the exhaustive one"
            );
            let points: Vec<Point> = QUERY_GRID
                .iter()
                .map(|&q| {
                    let queries = query_x.view().slice_rows(0, q);
                    let exhaustive_s = time_median(reps, || {
                        black_box(engine.topk(train_x.view(), queries, metric, K));
                    });
                    let scan_s = time_median(reps, || {
                        black_box(index.topk(queries, K));
                    });
                    Point {
                        queries: q,
                        exhaustive_s,
                        clustered_s: build_s + scan_s,
                        auto: EvalBackend::auto_for(n, q, metric),
                    }
                })
                .collect();
            let sweep = Sweep {
                shape,
                train_n: n,
                dim: train_x.cols(),
                nlist,
                build_s,
                break_even_q: break_even(&points),
                points,
            };
            for p in &sweep.points {
                println!(
                    "{shape} n={n:>6} nlist={:>3} q={:>6}  exhaustive {:>8.4} s  build+clustered {:>8.4} s  ({:.2}x)  auto: {}",
                    sweep.nlist,
                    p.queries,
                    p.exhaustive_s,
                    p.clustered_s,
                    p.clustered_s / p.exhaustive_s,
                    p.auto.name(),
                );
            }
            match (sweep.break_even_q, sweep.break_even_pair_ratio()) {
                (Some(q), Some(ratio)) => {
                    println!("{shape} n={n:>6} break-even q* ≈ {q:.0}, pair ratio {ratio:.2} (margin {AUTO_BUILD_MARGIN})")
                }
                _ => println!("{shape} n={n:>6} clustering never won up to q = {max_q}"),
            }
            sweeps.push(sweep);
        }
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"auto_backend_break_even\",");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"pool_workers\": {},", engine.threads());
    let _ = writeln!(json, "  \"k\": {K},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"auto_build_margin\": {AUTO_BUILD_MARGIN},");
    let _ = writeln!(json, "  \"sweeps\": [");
    for (i, s) in sweeps.iter().enumerate() {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.2}"));
        let points: Vec<String> = s
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"queries\": {}, \"exhaustive_s\": {:.6}, \"clustered_s\": {:.6}, \"auto\": \"{}\"}}",
                    p.queries,
                    p.exhaustive_s,
                    p.clustered_s,
                    p.auto.name()
                )
            })
            .collect();
        let comma = if i + 1 < sweeps.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"shape\": \"{}\", \"train_n\": {}, \"dim\": {}, \"nlist\": {}, \"build_s\": {:.6}, \"break_even_q\": {}, \"break_even_pair_ratio\": {}, \"points\": [{}]}}{comma}",
            s.shape,
            s.train_n,
            s.dim,
            s.nlist,
            s.build_s,
            opt(s.break_even_q),
            opt(s.break_even_pair_ratio()),
            points.join(", "),
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let path = snoopy_bench::results_dir()
        .parent()
        .map(|p| p.join("BENCH_auto_backend.json"))
        .unwrap_or_else(|| "BENCH_auto_backend.json".into());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("(written to {})", path.display()),
        Err(e) => eprintln!("warning: could not write {path:?}: {e}"),
    }
}
