//! # snoopy-estimators
//!
//! Bayes error rate (BER) estimators.
//!
//! The paper groups existing BER estimators into density estimators (KDE,
//! DE-kNN), divergence estimators (GHP), and kNN-classifier-accuracy
//! estimators (1NN-kNN, kNN-extrapolation, and the Cover–Hart 1NN bound that
//! Snoopy ultimately builds on). This crate implements one representative of
//! each family behind a common [`BerEstimator`] trait so the FeeBee-style
//! comparison of Section II-A can be reproduced, plus the finite-sample
//! extrapolation tooling of Section IV-C (Eq. 10).
//!
//! ## The `NeighborTable` handshake
//!
//! No estimator carries its own distance code: every distance comes from the
//! metric kernel of `snoopy-knn`, and every per-query scan from its blocked,
//! chunk-parallel [`EvalEngine`].
//! The kNN-family estimators consume a query-major [`NeighborTable`] —
//! Cover–Hart reads each eval point's first hit, Devijver's posterior
//! plug-in reads a `k`-prefix, and kNN-extrapolation reads the final rung of
//! its convergence ladder from the table (the earlier rungs are snapshots of
//! one [`IncrementalTopK`] grown rung by rung). Because per-query lists are
//! sorted, one table computed at
//! `k_max = max(`[`BerEstimator::table_k`]`)` serves *all* of them by prefix:
//! [`estimate_all`] computes that table once per (train, eval) pair — and
//! the growing-state callers (`exp_estimators`, the estimator-comparison
//! example) go further with [`estimate_all_with_state`]: one
//! [`IncrementalTopK`] per (transformation, split) is **appended** as the
//! training prefix grows round over round and merely re-snapshotted per
//! round *and* per label-noise level, since neighbours depend only on
//! features.
//! GHP and KDE do not rank neighbours. KDE's per-class Gaussian kernel sums
//! run through the engine's one scan loop, the walk that builds the tables;
//! GHP's Prim rounds call the metric kernel directly, one distance tile of
//! the newest tree vertex against the out-of-tree frontier per round.
//!
//! Every one-shot table ([`shared_neighbor_table`], [`estimate_all`]) is
//! one exhaustive [`EvalEngine::topk`] scan. The out-of-core study builds
//! its table through the pruned, shard-paged index in `snoopy-knn` instead
//! and hands it to [`estimate_all_with_table`]; that table is bit-identical
//! to the exhaustive one, so every estimate is too.
//!
//! All estimators receive a training view and a held-out evaluation view;
//! estimators that conceptually use a single sample (GHP, KDE fitted on
//! train and evaluated on train) simply ignore or pool the views as their
//! definition dictates.

#![forbid(unsafe_code)]

pub mod cover_hart;
pub mod devijver;
pub mod extrapolation;
pub mod ghp;
pub mod kde;

/// The shared zero-copy labelled view every estimator consumes. This crate
/// used to define its own view struct; it now speaks the same
/// [`snoopy_linalg::LabeledView`] handshake as the kNN engine, the
/// feasibility study, and the experiment binaries.
pub use snoopy_linalg::LabeledView;

pub use snoopy_knn::{EvalEngine, IncrementalTopK, Metric, NeighborTable};

/// A Bayes-error estimator.
pub trait BerEstimator: Send + Sync {
    /// Short name used in reports (e.g. `"1nn-cover-hart"`).
    fn name(&self) -> &'static str;

    /// Estimates the Bayes error of the task from a training sample and a
    /// held-out evaluation sample.
    fn estimate(&self, train: &LabeledView<'_>, eval: &LabeledView<'_>, num_classes: usize) -> f64;

    /// Number of neighbours per eval point this estimator can consume from a
    /// shared squared-Euclidean [`NeighborTable`] over (train → eval).
    /// `0` (the default) means the estimator does not rank neighbours and the
    /// shared table is not offered to it.
    fn table_k(&self) -> usize {
        0
    }

    /// Estimates from a precomputed neighbour table over (train → eval),
    /// consuming a `table_k()`-prefix of each per-query list. Only called
    /// when [`BerEstimator::table_k`] is positive and the table's distances
    /// rank like this estimator's metric; the default falls back to a
    /// self-contained [`BerEstimator::estimate`].
    fn estimate_with_table(
        &self,
        _table: &NeighborTable,
        train: &LabeledView<'_>,
        eval: &LabeledView<'_>,
        num_classes: usize,
    ) -> f64 {
        self.estimate(train, eval, num_classes)
    }
}

/// The largest table prefix any of `estimators` can consume (0 when none of
/// them uses the shared table).
pub fn shared_table_k(estimators: &[Box<dyn BerEstimator>]) -> usize {
    estimators.iter().map(|e| e.table_k()).max().unwrap_or(0)
}

/// Computes the shared squared-Euclidean neighbour table: the `k_max` nearest
/// training rows of every eval row, by one exhaustive scan of the parallel
/// engine. Neighbours depend only on features, so one table serves every
/// relabelling of the same (transformation, split) pair.
pub fn shared_neighbor_table(
    train: snoopy_linalg::DatasetView<'_>,
    eval: snoopy_linalg::DatasetView<'_>,
    k_max: usize,
) -> NeighborTable {
    EvalEngine::default().topk(train, eval, Metric::SquaredEuclidean, k_max)
}

/// Evaluates every estimator against one precomputed shared table: table
/// consumers ([`BerEstimator::table_k`] `> 0`) read their prefix of it, the
/// rest estimate self-contained.
pub fn estimate_all_with_table(
    estimators: &[Box<dyn BerEstimator>],
    table: &NeighborTable,
    train: &LabeledView<'_>,
    eval: &LabeledView<'_>,
    num_classes: usize,
) -> Vec<f64> {
    estimators
        .iter()
        .map(|e| {
            if e.table_k() > 0 {
                e.estimate_with_table(table, train, eval, num_classes)
            } else {
                e.estimate(train, eval, num_classes)
            }
        })
        .collect()
}

/// Evaluates every estimator against a *growing* incremental state: the
/// state's current [`NeighborTable`] snapshot (bit-identical to a cold
/// build over the rows appended so far) is shared by all kNN-family
/// estimators, the rest estimate self-contained. Callers that sweep
/// training-set *rounds* and label-noise levels hold one state per
/// (transformation, split), append per round, and call this per
/// (round, noise) cell — no neighbour is ever recomputed. `train` must be
/// the labelled view of exactly the rows appended so far.
///
/// # Panics
/// Panics if the state's capacity [`IncrementalTopK::k`] is below
/// [`shared_table_k`] (an undersized state would silently clamp
/// k-consuming estimators to shorter prefixes, breaking the
/// bit-identical-to-cold contract) or if `train` does not cover exactly
/// the appended rows.
pub fn estimate_all_with_state(
    estimators: &[Box<dyn BerEstimator>],
    state: &IncrementalTopK,
    train: &LabeledView<'_>,
    eval: &LabeledView<'_>,
    num_classes: usize,
) -> Vec<f64> {
    assert_eq!(state.consumed(), train.len(), "train view must cover exactly the appended rows");
    assert_eq!(state.test_len(), eval.len(), "eval view must match the state's query split");
    assert!(
        state.k() >= shared_table_k(estimators),
        "state capacity k = {} is below the estimators' shared_table_k = {} — k-consuming \
         estimators would silently read a truncated prefix",
        state.k(),
        shared_table_k(estimators)
    );
    let table = state.table();
    estimate_all_with_table(estimators, &table, train, eval, num_classes)
}

/// Evaluates every estimator, computing the neighbour table once at
/// `k_max = ` [`shared_table_k`] and sharing it across all kNN-family
/// estimators — the amortisation the FeeBee-style comparison relies on.
pub fn estimate_all(
    estimators: &[Box<dyn BerEstimator>],
    train: &LabeledView<'_>,
    eval: &LabeledView<'_>,
    num_classes: usize,
) -> Vec<f64> {
    let k_max = shared_table_k(estimators);
    if k_max == 0 || train.is_empty() || eval.is_empty() {
        return estimators.iter().map(|e| e.estimate(train, eval, num_classes)).collect();
    }
    let table = shared_neighbor_table(train.features(), eval.features(), k_max);
    estimate_all_with_table(estimators, &table, train, eval, num_classes)
}

/// The default collection of estimators used in the FeeBee-style comparison
/// experiment (`exp_estimators`).
pub fn default_estimators() -> Vec<Box<dyn BerEstimator>> {
    vec![
        Box::new(cover_hart::OneNnEstimator::default()),
        Box::new(devijver::KnnPosteriorEstimator::new(10)),
        Box::new(ghp::GhpEstimator::default()),
        Box::new(kde::KdeEstimator::default()),
        Box::new(extrapolation::KnnExtrapolationEstimator::default()),
    ]
}

pub use cover_hart::{cover_hart_lower_bound, OneNnEstimator};
pub use devijver::KnnPosteriorEstimator;
pub use extrapolation::{KnnExtrapolationEstimator, LogLinearFit, PowerLawFit};
pub use ghp::GhpEstimator;
pub use kde::KdeEstimator;
