//! Order statistics for the report: medians, fixed quantiles, and the
//! highest percentile that still has ten samples beyond it.

use std::collections::BTreeMap;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples;
/// `None` when there are none.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of unsorted samples; `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The percentiles a tail may be reported at, in per mille, highest first.
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, as `(percentile, value)`; `None` below 40 samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let per_mille = TAIL_LADDER.into_iter().find(|p| samples.len() * (1000 - p) >= 10 * 1000)?;
    Some((per_mille as f64 / 10.0, quantile(samples, per_mille as f64 / 1000.0)?))
}

/// Formats a timing as its median, its tail when the sample count allows
/// one, and the sample count.
pub fn describe(samples: &[f64]) -> String {
    let Some(p50) = median(samples) else { return "no samples".to_string() };
    let tail = match tail(samples) {
        Some((pct, v)) => format!(", p{pct} {v:.6e} s"),
        None => ", too few samples for a tail".to_string(),
    };
    format!("p50 {p50:.6e} s{tail} (n={})", samples.len())
}

/// Latency samples tagged by class (a replica, a dataset), for the report
/// lines.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    by_class: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    /// Records one sample of `class`.
    pub fn push(&mut self, class: &str, value: f64) {
        self.by_class.entry(class.to_string()).or_default().push(value);
    }

    /// One [`describe`] line per class.
    pub fn describe_classes(&self) -> Vec<(String, String)> {
        self.by_class.iter().map(|(class, v)| (class.clone(), describe(v))).collect()
    }
}

/// One figure per step (a step's median latency, its CPU per operation),
/// grouped by the input the step used.
#[derive(Debug, Default, Clone)]
pub struct StepFigures {
    by_input: BTreeMap<usize, Vec<f64>>,
}

impl StepFigures {
    /// Records the figure of one step on `input`.
    pub fn push(&mut self, input: usize, value: f64) {
        self.by_input.entry(input).or_default().push(value);
    }

    /// The run's figure: per input, the lower quartile of its steps'
    /// figures, averaged over inputs; `None` without steps.
    ///
    /// Other tenants of a shared host steal CPU in bursts of a few seconds,
    /// and stolen time only ever adds to a step. The quieter quarter of an
    /// input's repeats therefore estimates what the program itself costs,
    /// and averaging over inputs keeps one input's cost from deciding it.
    pub fn quiet_mean(&self) -> Option<f64> {
        let per_input: Vec<f64> = self.by_input.values().filter_map(|v| quantile(v, 0.25)).collect();
        (!per_input.is_empty()).then(|| per_input.iter().sum::<f64>() / per_input.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..39).map(f64::from).collect();
        assert_eq!(tail(&few), None);
        let forty: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(tail(&forty).map(|t| t.0), Some(75.0));
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&hundred).map(|t| t.0), Some(90.0));
        let many: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&many).map(|t| t.0), Some(99.9));
    }

    #[test]
    fn describe_always_states_the_count() {
        assert!(describe(&[1.0, 2.0]).ends_with("(n=2)"));
        assert!(describe(&[1.0, 2.0]).contains("too few samples"));
        assert_eq!(describe(&[]), "no samples");
    }

    #[test]
    fn quiet_mean_takes_each_inputs_lower_quartile_then_averages() {
        let mut f = StepFigures::default();
        assert_eq!(f.quiet_mean(), None);
        // Input 0: five repeats, two of them slowed by a noisy neighbour.
        for v in [1.0, 1.1, 3.0, 1.0, 2.5] {
            f.push(0, v);
        }
        // Input 1: one repeat.
        f.push(1, 2.0);
        assert_eq!(f.quiet_mean(), Some(1.5));
    }
}
