//! Sliding-window feasibility monitoring: windowed BER estimates with drift
//! alarms on top of the study's transformation zoo.
//!
//! A feasibility study answers "is `α_target` realistic?" for the dataset it
//! was shown *at study time*. Deployed tasks keep streaming labelled data,
//! and the data distribution drifts: the study-time answer silently goes
//! stale. [`SlidingWindowStudy`] keeps the answer live. It first runs the
//! ordinary [`FeasibilityStudy`] to pin the study-time estimate, then streams
//! labelled rows through one **eviction-enabled** [`IncrementalTopK`] per
//! transformation ([`IncrementalTopK::with_eviction`]): every slide appends
//! the freshest rows and ages the oldest out, so each state holds the exact
//! 1NN neighbour table of the last `window` rows — bit-identical to a cold
//! build over that window at every position, at sliding cost
//! `O(batch × queries)` plus a re-scan of only the queries whose admission
//! buffers drained, never a rebuild.
//!
//! Per position the monitor aggregates the windowed Cover–Hart BER estimate
//! by the minimum over the zoo — the same rule the study uses — and compares
//! it against the study-time estimate. When the windowed estimate departs by
//! more than a configurable margin (in either direction: the task drifting
//! harder *or* easier both invalidate the study-time answer), it raises a
//! [`DriftAlarm`]. Progress streams per window position through a callback
//! ([`WindowProgress`]), mirroring the per-round streaming of
//! [`FeasibilityService`](crate::service::FeasibilityService).

use crate::config::SnoopyConfig;
use crate::study::{FeasibilityStudy, StudyReport};
use snoopy_data::{Dataset, TaskDataset};
use snoopy_embeddings::Transformation;
use snoopy_estimators::cover_hart_lower_bound;
use snoopy_knn::IncrementalTopK;
use std::time::Instant;

/// Shape of the sliding window and the alarm threshold.
#[derive(Debug, Clone, Copy)]
pub struct SlidingWindowConfig {
    /// Rows kept live per transformation (the window size).
    pub window: usize,
    /// Rows appended per slide.
    pub slide: usize,
    /// Absolute departure of the windowed BER estimate from the study-time
    /// estimate that raises a [`DriftAlarm`].
    pub drift_margin: f64,
    /// Admission-buffer slack handed to [`IncrementalTopK::with_eviction`]:
    /// larger slacks absorb more evictions per query before a re-scan.
    pub slack: usize,
}

impl Default for SlidingWindowConfig {
    fn default() -> Self {
        Self { window: 64, slide: 16, drift_margin: 0.1, slack: 4 }
    }
}

impl SlidingWindowConfig {
    /// Validates the window shape.
    pub fn validate(&self) {
        assert!(self.window >= 1, "the window must keep at least one row");
        assert!(self.slide >= 1, "a slide must append at least one row");
        assert!(self.drift_margin >= 0.0, "the drift margin must be non-negative");
    }
}

/// One per-window-position progress event.
#[derive(Debug, Clone)]
pub struct WindowProgress {
    /// Window position (1-based slide number).
    pub position: usize,
    /// Global index of the oldest live row.
    pub window_start: usize,
    /// Live rows in the window.
    pub window_len: usize,
    /// Name of the transformation achieving the windowed minimum.
    pub leading_transformation: String,
    /// Aggregated windowed BER estimate `min_f R̂_f(window)`.
    pub windowed_ber: f64,
    /// Signed departure from the study-time estimate.
    pub drift: f64,
    /// Whether this position's departure exceeds the margin.
    pub alarm: bool,
    /// Queries whose admission buffers drained and were re-scanned during
    /// this slide's evictions, summed over the zoo.
    pub affected_queries: usize,
    /// Total incremental evaluation work so far (query–row pairs,
    /// post-pruning), summed over the zoo — only ever grows.
    pub eval_pairs: u64,
}

/// A raised drift alarm: the windowed estimate left the study-time margin.
#[derive(Debug, Clone)]
pub struct DriftAlarm {
    /// Window position (1-based) at which the departure was observed.
    pub position: usize,
    /// Transformation achieving the windowed minimum at that position.
    pub leading_transformation: String,
    /// The study-time aggregated estimate.
    pub baseline_ber: f64,
    /// The windowed aggregated estimate.
    pub windowed_ber: f64,
    /// Signed departure `windowed − baseline` (`|drift| > margin`).
    pub drift: f64,
}

/// The full report of a monitored stream.
#[derive(Debug, Clone)]
pub struct SlidingWindowReport {
    /// The study-time report the monitor compared against.
    pub baseline: StudyReport,
    /// Number of window positions streamed.
    pub positions: usize,
    /// The final aggregated windowed BER estimate.
    pub final_windowed_ber: f64,
    /// Final windowed BER estimate per transformation (zoo order).
    pub windowed_per_transformation: Vec<(String, f64)>,
    /// Every position whose windowed estimate left the margin.
    pub alarms: Vec<DriftAlarm>,
    /// Total queries re-scanned across all slides and transformations.
    pub affected_queries: usize,
    /// Total incremental evaluation work across the monitored stream.
    pub eval_pairs: u64,
    /// Wall-clock seconds spent monitoring (baseline study excluded).
    pub monitor_seconds: f64,
}

impl SlidingWindowReport {
    /// Whether any position raised a drift alarm.
    pub fn drifted(&self) -> bool {
        !self.alarms.is_empty()
    }
}

/// The sliding-window monitoring engine.
pub struct SlidingWindowStudy {
    config: SnoopyConfig,
    window: SlidingWindowConfig,
}

impl SlidingWindowStudy {
    /// Creates a monitor with the given study and window configurations.
    ///
    /// # Panics
    /// Panics with the [`crate::ConfigError`] message if `config` is
    /// invalid, or if the window shape is.
    pub fn new(config: SnoopyConfig, window: SlidingWindowConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        window.validate();
        Self { config, window }
    }

    /// The study configuration in use.
    pub fn config(&self) -> &SnoopyConfig {
        &self.config
    }

    /// Runs the study-time baseline, then monitors `stream` and returns the
    /// report.
    pub fn run(
        &self,
        task: &TaskDataset,
        zoo: &[Box<dyn Transformation>],
        stream: &Dataset,
    ) -> SlidingWindowReport {
        self.run_with_progress(task, zoo, stream, |_| {})
    }

    /// Like [`SlidingWindowStudy::run`], but streams a [`WindowProgress`]
    /// event per window position.
    pub fn run_with_progress(
        &self,
        task: &TaskDataset,
        zoo: &[Box<dyn Transformation>],
        stream: &Dataset,
        mut on_progress: impl FnMut(WindowProgress),
    ) -> SlidingWindowReport {
        assert!(!zoo.is_empty(), "the transformation zoo must not be empty");
        assert!(!stream.is_empty(), "the monitored stream must not be empty");
        assert_eq!(
            stream.features.cols(),
            task.train.features.cols(),
            "streamed rows must share the task's raw dimensionality"
        );

        let baseline = FeasibilityStudy::new(self.config).run(task, zoo);
        let started = Instant::now();

        // One eviction-enabled incremental state per transformation.
        let mut monitors: Vec<IncrementalTopK> = zoo
            .iter()
            .map(|t| {
                IncrementalTopK::new(
                    t.transform(task.test.features_view()),
                    task.test.labels.clone(),
                    self.config.metric,
                    self.config.table_k,
                )
                .with_eviction(self.window.slack)
            })
            .collect();

        let mut positions = 0usize;
        let mut alarms = Vec::new();
        let mut affected_total = 0usize;
        let mut windowed: Vec<f64> = vec![1.0; zoo.len()];
        let mut start = 0usize;
        while start < stream.len() {
            let end = (start + self.window.slide).min(stream.len());
            let raw = stream.features_view().slice_rows(start, end);
            let labels = &stream.labels[start..end];
            let mut affected = 0usize;
            for (t, state) in zoo.iter().zip(monitors.iter_mut()) {
                let embedded = t.transform(raw);
                state.append(embedded.view(), labels);
                let over = state.window_len().saturating_sub(self.window.window);
                if over > 0 {
                    affected += state.evict_oldest(over).affected_queries;
                }
            }
            for (state, ber) in monitors.iter().zip(windowed.iter_mut()) {
                *ber = cover_hart_lower_bound(state.error(), task.num_classes);
            }
            start = end;
            positions += 1;
            affected_total += affected;

            let (lead, ber) = windowed
                .iter()
                .enumerate()
                .map(|(i, &b)| (i, b))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("the zoo is non-empty");
            let drift = ber - baseline.ber_estimate;
            let alarm = drift.abs() > self.window.drift_margin;
            if alarm {
                alarms.push(DriftAlarm {
                    position: positions,
                    leading_transformation: zoo[lead].name().to_string(),
                    baseline_ber: baseline.ber_estimate,
                    windowed_ber: ber,
                    drift,
                });
            }
            on_progress(WindowProgress {
                position: positions,
                window_start: monitors[lead].window_start(),
                window_len: monitors[lead].window_len(),
                leading_transformation: zoo[lead].name().to_string(),
                windowed_ber: ber,
                drift,
                alarm,
                affected_queries: affected,
                eval_pairs: monitors.iter().map(IncrementalTopK::folded_pairs).sum(),
            });
        }

        let final_ber = windowed.iter().copied().min_by(|a, b| a.total_cmp(b)).expect("the zoo is non-empty");
        SlidingWindowReport {
            baseline,
            positions,
            final_windowed_ber: final_ber,
            windowed_per_transformation: zoo
                .iter()
                .zip(&windowed)
                .map(|(t, &b)| (t.name().to_string(), b))
                .collect(),
            alarms,
            affected_queries: affected_total,
            eval_pairs: monitors.iter().map(IncrementalTopK::folded_pairs).sum(),
            monitor_seconds: started.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_data::registry::{load_clean, SizeScale};
    use snoopy_embeddings::zoo_for_task;
    use snoopy_linalg::Matrix;

    fn config() -> SnoopyConfig {
        SnoopyConfig::with_target(0.85).batch_fraction(0.25)
    }

    fn window_config(window: usize, slide: usize, margin: f64) -> SlidingWindowConfig {
        SlidingWindowConfig { window, slide, drift_margin: margin, slack: 3 }
    }

    /// Re-streaming the task's own training rows keeps the windowed estimate
    /// near the study-time one: no alarm on a drift-free stream.
    #[test]
    fn drift_free_stream_stays_quiet() {
        let task = load_clean("mnist", SizeScale::Tiny, 1);
        let zoo = zoo_for_task(&task, 7);
        let study = SlidingWindowStudy::new(config(), window_config(48, 12, 0.5));
        let mut events = Vec::new();
        let report = study.run_with_progress(&task, &zoo, &task.train, |e| events.push(e));
        assert!(!report.drifted(), "alarms: {:?}", report.alarms);
        assert_eq!(report.positions, task.train.len().div_ceil(12));
        assert_eq!(events.len(), report.positions);
        assert!(events.iter().skip(1).any(|e| e.window_start > 0), "the window must actually slide");
        assert!(events.windows(2).all(|w| w[0].position + 1 == w[1].position), "positions stream in order");
        assert!(events.windows(2).all(|w| w[0].eval_pairs <= w[1].eval_pairs), "work only grows");
        assert_eq!(report.windowed_per_transformation.len(), zoo.len());
        assert!(report.final_windowed_ber <= 1.0);
    }

    /// Shuffled labels destroy the class structure inside the window: the
    /// windowed estimate must leave the study-time margin and alarm.
    #[test]
    fn label_shift_raises_a_drift_alarm() {
        let task = load_clean("mnist", SizeScale::Tiny, 1);
        let zoo = zoo_for_task(&task, 7);
        // Stream the training rows again, but with every label cycled to the
        // next class — a hard concept shift with untouched features.
        let shifted = Dataset::new_clean(
            task.train.features.clone(),
            task.train.labels.iter().map(|&y| (y + 1) % task.num_classes as u32).collect(),
        );
        let study = SlidingWindowStudy::new(config(), window_config(48, 12, 0.1));
        let mut alarm_positions = Vec::new();
        let report = study.run_with_progress(&task, &zoo, &shifted, |e| {
            if e.alarm {
                alarm_positions.push(e.position);
            }
        });
        assert!(report.drifted(), "cycled labels must trip the alarm");
        assert_eq!(
            report.alarms.iter().map(|a| a.position).collect::<Vec<_>>(),
            alarm_positions,
            "alarms in the report mirror the streamed events"
        );
        let last = report.alarms.last().unwrap();
        assert!(last.drift > 0.0, "a label shift makes the task harder");
        assert!(last.windowed_ber > report.baseline.ber_estimate);
    }

    #[test]
    #[should_panic(expected = "stream must not be empty")]
    fn empty_stream_panics() {
        let task = load_clean("sst2", SizeScale::Tiny, 3);
        let zoo = zoo_for_task(&task, 7);
        let empty = Dataset::new_clean(Matrix::zeros(0, task.train.features.cols()), vec![]);
        let _ = SlidingWindowStudy::new(config(), SlidingWindowConfig::default()).run(&task, &zoo, &empty);
    }
}
