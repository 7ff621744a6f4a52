//! Tables III and IV: the vision and NLP transformation registries with
//! nominal widths, simulated widths, and the inference cost model.

use snoopy_bench::{parse_args, ResultsTable};
use snoopy_embeddings::registry::{nlp_entries, simulated_dim, vision_entries};

fn main() {
    // Registry listings: `--scale` is accepted and has no effect.
    let (_, []) = parse_args([]);
    for (name, entries) in [("table3_vision_zoo", vision_entries()), ("table4_nlp_zoo", nlp_entries())] {
        let mut table = ResultsTable::new(
            name,
            &["embedding", "source", "nominal_dim", "simulated_dim", "cost_ms_per_sample", "base_fidelity"],
        );
        for e in entries {
            table.push(vec![
                e.name.to_string(),
                e.source.to_string(),
                e.nominal_dim.to_string(),
                simulated_dim(e.nominal_dim).to_string(),
                format!("{:.2}", e.cost_per_sample * 1e3),
                format!("{:.2}", e.fidelity),
            ]);
        }
        table.finish();
    }
}
