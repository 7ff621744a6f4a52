//! Property-based pin of the sliding-window contract: an eviction-enabled
//! [`IncrementalTopK`] driven by arbitrary interleaved appends and oldest-row
//! evictions is **bit-identical** to a cold fold over the surviving window at
//! every window position — across metrics, `k ∈ {1, 3, 10}`, admission-buffer
//! slacks (slack 0 forces the buffer-drain re-scan path on almost every
//! slide), and with relabels interleaved between slides.

use proptest::prelude::*;
use snoopy_knn::{EvalEngine, IncrementalTopK, Metric, MetricKernel, NeighborTable, TopKState};
use snoopy_linalg::{DatasetView, Matrix};
use snoopy_testutil::{cloud, cloud_with_ties};

/// Cold fold over the surviving window `[start, end)` with global row
/// indices — the reference every slid state must match bit for bit.
fn cold_window_table(
    train: DatasetView<'_>,
    test_x: &Matrix,
    metric: Metric,
    k: usize,
    start: usize,
    end: usize,
) -> NeighborTable {
    let window = train.slice_rows(start, end);
    let mut kernel = MetricKernel::new(metric);
    kernel.bind_queries(test_x.view());
    kernel.bind_train(window);
    let mut states = vec![TopKState::new(k); test_x.rows()];
    EvalEngine::default().update_topk(test_x.view(), &kernel, window, start, &mut states);
    NeighborTable::from_states(&states)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Slide a window by interleaved appends and evictions: the table, the
    /// 1NN error, and the k-vote error equal a cold fold over the surviving
    /// window at every position, for every metric × k × slack.
    #[test]
    fn sliding_window_equals_cold_fold(
        seed in 0u64..400,
        batch in 1usize..16,
        evict in 1usize..12,
        slack in 0usize..5,
    ) {
        let n = 72;
        // Duplicated rows so distance ties cross window boundaries — the
        // lexicographic tie-break is part of the contract.
        let (train_x, train_y) = cloud_with_ties(seed, n, 5, 3);
        let (test_x, test_y) = cloud(seed ^ 0x51de, 9, 5, 3);
        for metric in Metric::all() {
            for k in [1usize, 3, 10] {
                let mut state =
                    IncrementalTopK::new(test_x.clone(), test_y.clone(), metric, k).with_eviction(slack);
                let mut consumed = 0usize;
                while consumed < n {
                    let end = (consumed + batch).min(n);
                    state.append(train_x.view().slice_rows(consumed, end), &train_y[consumed..end]);
                    consumed = end;
                    // Keep at least k live rows so every query stays at full
                    // width.
                    if state.window_len() > k + evict {
                        state.evict_oldest(evict);
                    }
                    let start = state.window_start();
                    let cold = cold_window_table(train_x.view(), &test_x, metric, k, start, consumed);
                    prop_assert_eq!(
                        &state.table(),
                        &cold,
                        "metric {} k {} slack {} window [{}, {})",
                        metric.name(), k, slack, start, consumed
                    );
                    let cold_err = cold.one_nn_error(&train_y, &test_y);
                    prop_assert_eq!(
                        state.error().to_bits(),
                        cold_err.to_bits(),
                        "1NN bits at window [{}, {})", start, consumed
                    );
                    let cold_k = cold.knn_error(k, &train_y, &test_y, 3);
                    prop_assert_eq!(
                        state.knn_error(k, 3).to_bits(),
                        cold_k.to_bits(),
                        "k-vote bits at window [{}, {})", start, consumed
                    );
                }
                prop_assert!(state.window_start() > 0, "the window must actually slide");
            }
        }
    }

    /// Zero slack plus aggressive slides (drop everything but `k + 1` rows)
    /// drains almost every admission buffer, forcing the per-query re-scan
    /// path; relabels of live and evicted rows interleave between slides.
    /// The state must still track a cold fold bit for bit.
    #[test]
    fn drained_buffers_rescan_to_cold_fold(
        seed in 0u64..400,
        batch in 2usize..14,
        edits in prop::collection::vec((0usize..64, 0u32..3), 1..16),
    ) {
        let n = 64;
        let k = 3;
        let (train_x, mut train_y) = cloud(seed, n, 4, 3);
        let (test_x, mut test_y) = cloud(seed ^ 0xdead, 9, 4, 3);
        let mut state =
            IncrementalTopK::new(test_x.clone(), test_y.clone(), Metric::SquaredEuclidean, k).with_eviction(0);
        let engine_drained = {
            let mut drained = 0usize;
            let mut consumed = 0usize;
            let mut edit_iter = edits.into_iter();
            while consumed < n {
                let end = (consumed + batch).min(n);
                state.append(train_x.view().slice_rows(consumed, end), &train_y[consumed..end]);
                consumed = end;
                if state.window_len() > k + 1 {
                    let report = state.evict_oldest(state.window_len() - (k + 1));
                    drained += report.affected_queries;
                }
                // Relabel one live train row, one already-evicted row (must
                // be inert: evicted rows never sit in any buffer), and one
                // test row between slides.
                if let Some((idx, label)) = edit_iter.next() {
                    let live = state.window_start() + idx % state.window_len();
                    train_y[live] = label;
                    state.relabel_train(live, label);
                    if state.window_start() > 0 {
                        let gone = idx % state.window_start();
                        train_y[gone] = (label + 2) % 3;
                        state.relabel_train(gone, (label + 2) % 3);
                    }
                    let qi = idx % test_y.len();
                    test_y[qi] = (label + 1) % 3;
                    state.relabel_test(qi, (label + 1) % 3);
                }
                let start = state.window_start();
                let cold = cold_window_table(
                    train_x.view(), &test_x, Metric::SquaredEuclidean, k, start, consumed,
                );
                prop_assert_eq!(&state.table(), &cold, "window [{}, {})", start, consumed);
                let cold_err = cold.one_nn_error(&train_y, &test_y);
                prop_assert_eq!(
                    state.error().to_bits(), cold_err.to_bits(),
                    "1NN bits at window [{}, {})", start, consumed
                );
                let cold_k = cold.knn_error(k, &train_y, &test_y, 3);
                prop_assert_eq!(
                    state.knn_error(k, 3).to_bits(), cold_k.to_bits(),
                    "k-vote bits at window [{}, {})", start, consumed
                );
            }
            drained
        };
        prop_assert!(engine_drained > 0, "zero-slack slides must exercise the re-scan path");
    }
}
