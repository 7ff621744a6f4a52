//! Property-based pin of the incremental top-k successor state's central
//! guarantee: an [`IncrementalTopK`] grown by arbitrary appends is
//! **bit-identical** to a cold [`EvalEngine::topk`] build over the consumed
//! prefix — across metrics, `k ∈ {1, 3, 10, len}`, batch shapes, and with
//! relabels interleaved between appends (relabels touch no features, so
//! they must never perturb the table).

use proptest::prelude::*;
use snoopy_knn::{EvalEngine, IncrementalTopK, Metric};
use snoopy_testutil::{cloud, cloud_with_ties};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Appended-then-queried state == cold `EvalEngine::topk`, bit for bit,
    /// at every batch boundary.
    #[test]
    fn appended_state_equals_cold_topk(
        seed in 0u64..400,
        n in 4usize..60,
        batch in 1usize..25,
    ) {
        // Duplicated rows so distance ties actually occur — the tie-break is
        // part of the contract.
        let (train_x, train_y) = cloud_with_ties(seed, n, 5, 3);
        let (test_x, test_y) = cloud(seed ^ 0x1271, 13, 5, 3);
        let engine = EvalEngine::parallel();
        for metric in Metric::all() {
            for k in [1usize, 3, 10, n] {
                let mut state = IncrementalTopK::new(test_x.clone(), test_y.clone(), metric, k);
                let mut consumed = 0;
                while consumed < n {
                    let end = (consumed + batch).min(n);
                    state.append(train_x.view().slice_rows(consumed, end), &train_y[consumed..end]);
                    consumed = end;
                    let cold = engine.topk(train_x.view().prefix(consumed), test_x.view(), metric, k);
                    prop_assert_eq!(
                        &state.table(),
                        &cold,
                        "metric {} k {} prefix {}",
                        metric.name(), k, consumed
                    );
                }
            }
        }
    }

    /// Relabels interleaved with appends: the error refresh equals a cold
    /// rebuild under the current labels at every step, and the neighbour
    /// table is label-oblivious.
    #[test]
    fn interleaved_relabels_track_cold_rebuild(
        seed in 0u64..400,
        batch in 1usize..20,
        edits in prop::collection::vec((0usize..48, 0u32..3), 1..20),
    ) {
        let n = 48;
        let (train_x, mut train_y) = cloud(seed, n, 4, 3);
        let (test_x, mut test_y) = cloud(seed ^ 0xfeed, 11, 4, 3);
        let mut state = IncrementalTopK::new(test_x.clone(), test_y.clone(), Metric::SquaredEuclidean, 3);
        let engine = EvalEngine::parallel();
        let mut consumed = 0;
        let mut edit_iter = edits.into_iter();
        while consumed < n {
            let end = (consumed + batch).min(n);
            state.append(train_x.view().slice_rows(consumed, end), &train_y[consumed..end]);
            consumed = end;
            // Interleave one relabel of an already-consumed train row and one
            // test row between appends.
            if let Some((idx, label)) = edit_iter.next() {
                let ti = idx % consumed;
                train_y[ti] = label;
                state.relabel_train(ti, label);
                let qi = idx % test_y.len();
                test_y[qi] = (label + 1) % 3;
                state.relabel_test(qi, (label + 1) % 3);
            }
            let cold = engine.topk(train_x.view().prefix(consumed), test_x.view(), Metric::SquaredEuclidean, 3);
            prop_assert_eq!(&state.table(), &cold, "table must be label-oblivious at prefix {}", consumed);
            let cold_err = cold.one_nn_error(&train_y[..consumed], &test_y);
            prop_assert_eq!(state.error().to_bits(), cold_err.to_bits(), "1NN refresh at prefix {}", consumed);
            let cold_k3 = cold.knn_error(3, &train_y[..consumed], &test_y, 3);
            prop_assert_eq!(state.knn_error(3, 3).to_bits(), cold_k3.to_bits(), "k-vote refresh at prefix {}", consumed);
        }
    }
}
