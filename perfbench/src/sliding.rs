//! `sliding`: a `SlidingWindowStudy` on a vision replica.
//!
//! An input is a seeded `mnist` replica: set-up generates it, fits its zoo
//! and builds its stream in the shape of `run_sliding_scenario`, the
//! training rows, then the same rows with every label cycled to the next
//! class. Step `i` monitors the whole stream of input `i mod 4` once. Its
//! check: positions whose full window lies wholly before the label shift
//! stay quiet, and the shifted phase raises an alarm.

use crate::stats::quantile;
use crate::trace::{wrap_zoo, Profile, Tracer};
use crate::{cli_config, Metric, Outcome, Record, Workload, NOISE_RATE, SCALE};
use snoopy_core::{SlidingWindowConfig, SlidingWindowStudy};
use snoopy_data::registry::load_with_noise;
use snoopy_data::{Dataset, NoiseModel, TaskDataset};
use snoopy_embeddings::{zoo_for_task, Transformation};
use std::sync::Arc;

/// The vision replica with the cheapest zoo fit, so that four inputs fit in
/// set-up.
const REPLICA: &str = "mnist";
const WINDOW: SlidingWindowConfig =
    SlidingWindowConfig { window: 500, slide: 25, drift_margin: 0.15, slack: 4 };

/// One monitored replica.
pub struct Input {
    task: TaskDataset,
    zoo: Vec<Box<dyn Transformation>>,
    stream: Dataset,
}

pub struct Sliding {
    inputs: Vec<Input>,
    /// Largest |drift| seen at a full pre-shift window, against the margin.
    quiet_drift: f64,
}

/// Window positions of a stream: every replica has the same length.
fn positions(stream: &Dataset) -> usize {
    stream.len().div_ceil(WINDOW.slide)
}

/// Per position: windowed BER bits, alarm, re-scanned queries.
type Output = Vec<(u64, bool, usize)>;

impl Workload for Sliding {
    type Input = Input;
    type Output = Output;

    const INPUTS: usize = 4;

    fn setup(seed: u64, tracer: &Arc<Tracer>) -> Input {
        let (task, stream) = tracer.span("data.generate", || {
            let task = load_with_noise(REPLICA, SCALE, &NoiseModel::Uniform(NOISE_RATE), seed);
            let features = task.train.features.vstack(&task.train.features);
            let mut labels = task.train.labels.clone();
            labels.extend(task.train.labels.iter().map(|&y| (y + 1) % task.num_classes as u32));
            let stream = Dataset::new_clean(features, labels);
            (task, stream)
        });
        let zoo = tracer.span("embeddings.zoo_fit", || zoo_for_task(&task, seed));
        let zoo = if tracer.recording() { wrap_zoo(zoo, tracer) } else { zoo };
        Input { task, zoo, stream }
    }

    fn new(inputs: Vec<Input>) -> Self {
        Sliding { inputs, quiet_drift: 0.0 }
    }

    fn ops_per_step(&self) -> (u64, u64) {
        let positions = positions(&self.inputs[0].stream) as u64;
        (positions, positions)
    }

    /// The step's figures are the median and the 90th percentile of its
    /// slides' latencies.
    fn step(
        &mut self,
        index: usize,
        rec: &mut Record,
        tracer: &Arc<Tracer>,
    ) -> Result<Outcome<Output>, String> {
        let Input { task, zoo, stream } = &self.inputs[index % Self::INPUTS];
        let monitor = SlidingWindowStudy::new(cli_config(), WINDOW);
        let mut events = Vec::new();
        let (mut begin, mut end) = (0.0, 0.0);
        let (report, root) = tracer.span_id("op.sliding", || {
            begin = tracer.now();
            let report = monitor.run_with_progress(task, zoo, stream, |e| events.push((tracer.now(), e)));
            end = tracer.now();
            report
        });
        // The first event also waits for the study-time baseline, so slide
        // latencies start at the second.
        let slides: Vec<f64> = events.windows(2).map(|pair| pair[1].0 - pair[0].0).collect();
        for &slide in &slides {
            rec.primary.push("slide", slide);
        }

        let expected = positions(stream);
        if report.positions != expected || events.len() != expected {
            return Err(format!("{} positions streamed, {expected} expected", report.positions));
        }
        // A window lies wholly before the shift when its last row does. The
        // first windows hold only a few rows and may alarm on noise alone,
        // so only full windows must stay quiet.
        let clean_rows = task.train.len();
        let pre_shift = |position: usize| position * WINDOW.slide <= clean_rows;
        let quiet = events.iter().filter(|(_, e)| pre_shift(e.position) && e.window_len == WINDOW.window);
        if let Some((_, e)) = quiet.clone().find(|(_, e)| e.alarm) {
            return Err(format!(
                "position {} alarmed before the label shift (drift {})",
                e.position, e.drift
            ));
        }
        if quiet.clone().next().is_none() {
            return Err("no full window before the label shift".to_string());
        }
        self.quiet_drift = quiet.fold(self.quiet_drift, |m, (_, e)| m.max(e.drift.abs()));
        if !report.alarms.iter().any(|a| !pre_shift(a.position)) {
            return Err("the label shift raised no alarm".to_string());
        }

        if tracer.recording() {
            let mut pieces = vec![("core.sliding_start", begin, events[0].0)];
            pieces.extend(events.windows(2).map(|pair| ("knn.slide_update", pair[0].0, pair[1].0)));
            pieces.push(("core.sliding_report", events[events.len() - 1].0, end));
            tracer.split(root, &pieces);
            let slid = &events[1..];
            tracer.add("knn.slides", slid.len() as f64);
            tracer.add("knn.rescanned_queries", slid.iter().map(|(_, e)| e.affected_queries as f64).sum());
            tracer.add(
                "knn.eval_pairs",
                (events[events.len() - 1].1.eval_pairs - events[0].1.eval_pairs) as f64,
            );
        }
        Ok(Outcome {
            output: events
                .iter()
                .map(|(_, e)| (e.windowed_ber.to_bits(), e.alarm, e.affected_queries))
                .collect(),
            primary: quantile(&slides, 0.5).expect("a stream slides"),
            secondary: quantile(&slides, 0.9).expect("a stream slides"),
        })
    }

    fn summary(&self, rec: &Record) -> Vec<String> {
        let mut lines = vec![format!(
            "primary_s = slide_p50_s, secondary_s = slide_p90_s: seconds between consecutive WindowProgress \
             events ({} {REPLICA} replicas, window {}, slide {}, stream {} rows)",
            Self::INPUTS,
            WINDOW.window,
            WINDOW.slide,
            self.inputs[0].stream.len()
        )];
        lines.extend(rec.primary.describe_classes().into_iter().map(|(_, d)| format!("slide_s: {d}")));
        lines.push(format!(
            "largest |drift| at a full pre-shift window: {:.4} (alarm margin {})",
            self.quiet_drift, WINDOW.drift_margin
        ));
        lines
    }

    fn layers(&self, p: &Profile, passes: f64) -> Vec<Metric> {
        let slides = p.counter("knn.slides");
        let update = p.op("knn.slide_update");
        let pairs = p.counter("knn.eval_pairs");
        let slide_transforms =
            p.op_self_under.get("knn.slide_update/embeddings.transform").copied().unwrap_or(0.0);
        let queries = (self.inputs[0].task.test.len() * self.inputs[0].zoo.len()) as f64;
        vec![
            Metric::new("knn.slide_update_s", update / slides, "s"),
            Metric::new("embeddings.transform_s", slide_transforms / slides, "s"),
            Metric::new(
                "embeddings.transform_rows",
                p.counter("embeddings.transform_rows") / passes,
                "count",
            ),
            Metric::new("core.sliding_start_s", p.op("core.sliding_start") / passes, "s"),
            Metric::new("core.self_s", p.op_prefix("core.") / slides, "s"),
            Metric::new("knn.eval_pairs", pairs / slides, "count"),
            Metric::new("knn.pairs_per_s", pairs / update, "1/s"),
            Metric::new("knn.rescanned_queries", p.counter("knn.rescanned_queries") / slides, "count"),
            Metric::new("knn.rescan_frac", p.counter("knn.rescanned_queries") / (slides * queries), "frac"),
        ]
    }
}
