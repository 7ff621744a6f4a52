//! Lloyd's k-means coarse partitioner.
//!
//! This is the *indexing* substrate of the pruned nearest-neighbour index
//! in `snoopy-knn`: [`lloyd_kmeans`] learns a small set of centroids over a
//! [`DatasetView`] and assigns every row to one of them; the index then
//! gathers each cluster's rows into its own shard buffer, so a pruned query
//! can scan one cluster as a plain row-contiguous window.
//!
//! Correctness of the exact pruned search does **not** depend on the quality
//! of the clustering — any total assignment of rows to centroids yields valid
//! triangle-inequality bounds — so the implementation favours determinism and
//! simplicity: seeded initial centroids drawn with the crate's own [`rng`]
//! helpers, assignment ties resolved to the lowest cluster index, centroid
//! means accumulated in `f64`, and a fixed iteration cap. Only the
//! assignment step (the `O(n · k · d)` hot loop) is chunk-parallel, one
//! chunk per worker of the current `snoopy-pool` pool; everything else is
//! serial, and the result is byte-for-byte reproducible for a given seed at
//! every worker count.

use crate::view::DatasetView;
use crate::{rng, Matrix};

/// Result of a Lloyd's k-means run.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// `k × d` centroid matrix (`k` after clamping to the row count).
    pub centroids: Matrix,
    /// Cluster id of every input row (`assignments[i] < centroids.rows()`).
    pub assignments: Vec<usize>,
    /// Number of assignment passes performed (at least 1).
    pub iterations: usize,
}

/// Runs Lloyd's k-means on `data` with `k` clusters.
///
/// * Initial centroids are `k` distinct rows drawn without replacement from a
///   [`rng::seeded`] generator, so runs are deterministic per seed.
/// * Each iteration assigns every row to its nearest centroid by squared
///   Euclidean distance (ties to the lowest cluster index; rows are split
///   into one chunk per worker of the current pool, [`snoopy_pool::workers`])
///   and recomputes centroids as `f64`-accumulated means. Clusters that lose
///   all rows keep their previous centroid.
/// * Stops when an assignment pass changes nothing or after `max_iters`
///   passes.
///
/// `k` is clamped to `[1, data.rows()]`.
///
/// # Panics
/// Panics if `data` has no rows or no columns.
pub fn lloyd_kmeans(data: DatasetView<'_>, k: usize, max_iters: usize, seed: u64) -> KMeans {
    let n = data.rows();
    let d = data.cols();
    assert!(n > 0 && d > 0, "cannot cluster an empty dataset");
    let k = k.clamp(1, n);

    let mut r = rng::seeded(seed);
    let mut picks = rng::sample_without_replacement(&mut r, n, k);
    picks.sort_unstable();
    let mut centroids = data.select_rows(&picks);

    // `usize::MAX` marks "unassigned" so the first pass always counts as a
    // change for every row.
    let mut assignments = vec![usize::MAX; n];
    let mut iterations = 0;
    for _ in 0..max_iters.max(1) {
        iterations += 1;
        let changed = assign_rows(data, &centroids, &mut assignments);
        if changed == 0 {
            break;
        }
        // Update step: f64-accumulated means per cluster.
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0usize; k];
        for (row, &a) in data.rows_iter().zip(&assignments) {
            counts[a] += 1;
            for (acc, &v) in sums[a * d..(a + 1) * d].iter_mut().zip(row) {
                *acc += v as f64;
            }
        }
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue; // empty cluster keeps its previous centroid
            }
            let inv = 1.0 / count as f64;
            for j in 0..d {
                centroids.set(c, j, (sums[c * d + j] * inv) as f32);
            }
        }
    }
    KMeans { centroids, assignments, iterations }
}

/// One parallel assignment pass: writes each row's nearest-centroid id into
/// `out` and returns how many assignments changed.
fn assign_rows(data: DatasetView<'_>, centroids: &Matrix, out: &mut [usize]) -> usize {
    let n = data.rows();
    let chunks = snoopy_pool::workers().min(n);
    if chunks <= 1 {
        return assign_chunk(data, centroids, 0, out);
    }
    let chunk = n.div_ceil(chunks);
    let mut changed = vec![0usize; out.len().div_ceil(chunk)];
    snoopy_pool::scope(|scope| {
        for ((t, slot), changed) in out.chunks_mut(chunk).enumerate().zip(changed.iter_mut()) {
            let start = t * chunk;
            scope.spawn(move || *changed = assign_chunk(data, centroids, start, slot));
        }
    });
    changed.iter().sum()
}

/// Assigns rows `[start, start + out.len())`; ties resolve to the lowest
/// cluster index (strict `<` keeps the first minimum).
fn assign_chunk(data: DatasetView<'_>, centroids: &Matrix, start: usize, out: &mut [usize]) -> usize {
    let mut changed = 0;
    for (i, slot) in out.iter_mut().enumerate() {
        let row = data.row(start + i);
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (c, cent) in centroids.rows_iter().enumerate() {
            let dist = Matrix::row_sq_dist(row, cent);
            if dist < best_d {
                best_d = dist;
                best = c;
            }
        }
        if *slot != best {
            *slot = best;
            changed += 1;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize, d: usize, centers: usize, seed: u64) -> Matrix {
        let mut r = rng::seeded(seed);
        let centroids = Matrix::from_fn(centers, d, |_, _| (rng::normal(&mut r) * 5.0) as f32);
        Matrix::from_fn(n, d, |row, col| {
            centroids.get(row % centers, col) + (rng::normal(&mut r) * 0.1) as f32
        })
    }

    /// Runs `f` on a fresh pool of `workers` workers, so every assignment
    /// pass inside splits into that many chunks.
    fn on_pool<R>(workers: usize, f: impl FnOnce() -> R) -> R {
        snoopy_pool::ThreadPool::new(workers).install(f)
    }

    #[test]
    fn kmeans_is_deterministic_per_seed_and_thread_count() {
        let data = blobs(120, 6, 4, 3);
        let a = on_pool(1, || lloyd_kmeans(data.view(), 4, 20, 7));
        let b = on_pool(8, || lloyd_kmeans(data.view(), 4, 20, 7));
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids.data(), b.centroids.data());
        let c = on_pool(1, || lloyd_kmeans(data.view(), 4, 20, 8));
        // A different seed picks different initial rows (not a hard guarantee
        // in general, but true for this fixture).
        assert!(a.assignments != c.assignments || a.centroids.data() != c.centroids.data());
    }

    #[test]
    fn kmeans_recovers_separated_blobs() {
        // Random-row init can collide inside one blob, so exact recovery is
        // per-seed; require it for at least one seed and the structural
        // invariants for all of them.
        let data = blobs(200, 5, 4, 11);
        let mut recovered = false;
        for seed in 0..8u64 {
            let km = on_pool(4, || lloyd_kmeans(data.view(), 4, 30, seed));
            assert_eq!(km.centroids.rows(), 4);
            assert!(km.iterations >= 1);
            assert!(km.assignments.iter().all(|&a| a < 4));
            recovered |= (4..200).all(|i| km.assignments[i] == km.assignments[i % 4]);
        }
        assert!(recovered, "no seed in 0..8 recovered 4 well-separated blobs");
    }

    #[test]
    fn k_is_clamped_and_duplicates_are_tolerated() {
        let data = Matrix::from_fn(5, 3, |_, _| 1.25); // all rows identical
        let km = on_pool(2, || lloyd_kmeans(data.view(), 64, 10, 2));
        assert_eq!(km.centroids.rows(), 5);
        assert!(km.assignments.iter().all(|&a| a < 5));
        // All rows tie to every centroid: the lowest cluster index wins.
        assert!(km.assignments.iter().all(|&a| a == km.assignments[0]));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn kmeans_rejects_empty_input() {
        let data = Matrix::zeros(0, 4);
        let _ = on_pool(1, || lloyd_kmeans(data.view(), 2, 5, 0));
    }
}
