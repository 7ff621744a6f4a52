//! Figures 9, 10 and 21–27: the end-to-end label-cleaning use case under the
//! paper's cost scenarios (free / cheap / expensive labels).
//!
//! For each dataset × noise level × target accuracy, every user strategy
//! (FineTune with step 1/5/10/50 %, LR-proxy feasibility, Snoopy feasibility)
//! is simulated once; the resulting trace (labels inspected + machine
//! seconds) is then priced under all three cost scenarios, exactly as the
//! paper prices the same interaction under different label-cost regimes.

use snoopy_bench::{datasets_arg, f4, parse_args, ResultsTable};
use snoopy_data::noise::NoiseModel;
use snoopy_data::registry::load_with_noise;
use snoopy_e2e::{simulate, SimulationConfig, UserStrategy};
use snoopy_models::{CostScenario, LabelCost, MachineCost};

fn main() {
    let (scale, [datasets]) = parse_args([("datasets", "cifar10,sst2,cifar100")]);
    let datasets = datasets_arg(&datasets, false);
    let mut table = ResultsTable::new(
        "fig9_10_e2e_use_case",
        &[
            "dataset",
            "noise",
            "target_accuracy",
            "label_cost",
            "strategy",
            "total_dollars",
            "labels_inspected",
            "fraction_cleaned",
            "machine_hours",
            "expensive_runs",
            "final_accuracy",
            "reached_target",
        ],
    );

    let scenarios =
        [(LabelCost::Free, "free"), (LabelCost::Cheap, "cheap"), (LabelCost::Expensive, "expensive")];

    for name in datasets.iter().map(|spec| spec.name) {
        // Noise / target pairs mirroring Figure 9: 40% noise with a modest
        // target and 20% noise with an ambitious one.
        for &(rho, target) in &[(0.4f64, 0.60f64), (0.2, 0.80)] {
            let task = load_with_noise(name, scale, &NoiseModel::Uniform(rho), 9);
            let base_cost = CostScenario { label: LabelCost::Free, machine: MachineCost::default() };
            let config = SimulationConfig::new(target, base_cost, 9);
            for strategy in UserStrategy::paper_lineup() {
                let trace = simulate(&task, strategy, &config);
                for (label_cost, cost_name) in scenarios {
                    let scenario = CostScenario { label: label_cost, machine: MachineCost::default() };
                    let dollars = scenario.total_dollars(trace.labels_inspected, trace.machine_seconds);
                    table.push(vec![
                        name.into(),
                        f4(rho),
                        f4(target),
                        (*cost_name).into(),
                        trace.strategy.clone(),
                        format!("{dollars:.3}"),
                        trace.labels_inspected.to_string(),
                        f4(trace.labels_inspected as f64 / task.total_len() as f64),
                        format!("{:.2}", trace.machine_seconds / 3600.0),
                        trace.expensive_runs.to_string(),
                        f4(trace.final_accuracy),
                        trace.reached_target.to_string(),
                    ]);
                }
            }
        }
    }
    table.finish();
}
