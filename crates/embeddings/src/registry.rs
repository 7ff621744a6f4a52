//! The embedding registries (Tables III and IV analogues) and their cost
//! model.
//!
//! Every entry keeps the original embedding's name, nominal output width and
//! a per-sample inference cost whose *ordering and rough magnitude* match the
//! public models (large NLP transformers are 1–2 orders of magnitude slower
//! than small vision CNNs, PCA and the identity are essentially free). Actual
//! simulated embeddings use a proportionally reduced width so that exact 1NN
//! stays fast on a laptop; the nominal width is retained for reporting
//! (`exp_table3_4`).
//!
//! Fidelities model how much task-relevant structure each embedding captures.
//! They broadly increase with model capacity — as observed in the paper,
//! bigger/better-pre-trained models usually yield lower 1NN error — but each
//! task adds a small deterministic, task-specific perturbation so that *which*
//! embedding is optimal varies by dataset (the reason Fig. 6 argues the
//! minimum aggregation is necessary).

use crate::basic::{
    Identity, PcaTransform, RandomProjectionTransform, StandardizeTransform, SupervisedProjection,
};
use crate::pretrained::SimulatedPretrained;
use crate::transform::Transformation;
use snoopy_data::{Modality, TaskDataset};
use snoopy_linalg::Pca;

/// Static description of one registry entry.
#[derive(Debug, Clone)]
pub struct ZooEntry {
    /// Embedding name as reported in Tables III/IV.
    pub name: &'static str,
    /// Nominal output dimensionality of the original model.
    pub nominal_dim: usize,
    /// Source hub in the paper (for documentation/reporting only).
    pub source: &'static str,
    /// Base fidelity of the simulated replica.
    pub fidelity: f64,
    /// Simulated inference cost in seconds per sample.
    pub cost_per_sample: f64,
}

/// Table III: vision embeddings.
pub fn vision_entries() -> Vec<ZooEntry> {
    vec![
        ZooEntry {
            name: "alexnet",
            nominal_dim: 4096,
            source: "pytorch-hub",
            fidelity: 0.58,
            cost_per_sample: 0.8e-3,
        },
        ZooEntry {
            name: "googlenet",
            nominal_dim: 1024,
            source: "pytorch-hub",
            fidelity: 0.62,
            cost_per_sample: 1.0e-3,
        },
        ZooEntry {
            name: "vgg16",
            nominal_dim: 4096,
            source: "pytorch-hub",
            fidelity: 0.66,
            cost_per_sample: 3.0e-3,
        },
        ZooEntry {
            name: "vgg19",
            nominal_dim: 4096,
            source: "pytorch-hub",
            fidelity: 0.67,
            cost_per_sample: 3.2e-3,
        },
        ZooEntry {
            name: "inception-v3",
            nominal_dim: 2048,
            source: "tf-hub",
            fidelity: 0.70,
            cost_per_sample: 2.0e-3,
        },
        ZooEntry {
            name: "resnet50-v2",
            nominal_dim: 2048,
            source: "tf-hub",
            fidelity: 0.73,
            cost_per_sample: 2.2e-3,
        },
        ZooEntry {
            name: "resnet101-v2",
            nominal_dim: 2048,
            source: "tf-hub",
            fidelity: 0.75,
            cost_per_sample: 3.5e-3,
        },
        ZooEntry {
            name: "resnet152-v2",
            nominal_dim: 2048,
            source: "tf-hub",
            fidelity: 0.76,
            cost_per_sample: 4.5e-3,
        },
        ZooEntry {
            name: "efficientnet-b0",
            nominal_dim: 1280,
            source: "tf-hub",
            fidelity: 0.74,
            cost_per_sample: 1.5e-3,
        },
        ZooEntry {
            name: "efficientnet-b1",
            nominal_dim: 1280,
            source: "tf-hub",
            fidelity: 0.76,
            cost_per_sample: 2.0e-3,
        },
        ZooEntry {
            name: "efficientnet-b2",
            nominal_dim: 1408,
            source: "tf-hub",
            fidelity: 0.78,
            cost_per_sample: 2.5e-3,
        },
        ZooEntry {
            name: "efficientnet-b3",
            nominal_dim: 1536,
            source: "tf-hub",
            fidelity: 0.80,
            cost_per_sample: 3.5e-3,
        },
        ZooEntry {
            name: "efficientnet-b4",
            nominal_dim: 1792,
            source: "tf-hub",
            fidelity: 0.83,
            cost_per_sample: 5.0e-3,
        },
        ZooEntry {
            name: "efficientnet-b5",
            nominal_dim: 2048,
            source: "tf-hub",
            fidelity: 0.86,
            cost_per_sample: 7.0e-3,
        },
        ZooEntry {
            name: "efficientnet-b6",
            nominal_dim: 2304,
            source: "tf-hub",
            fidelity: 0.88,
            cost_per_sample: 9.0e-3,
        },
        ZooEntry {
            name: "efficientnet-b7",
            nominal_dim: 2560,
            source: "tf-hub",
            fidelity: 0.90,
            cost_per_sample: 12.0e-3,
        },
    ]
}

/// Table IV: NLP embeddings.
pub fn nlp_entries() -> Vec<ZooEntry> {
    vec![
        ZooEntry {
            name: "nnlm-en-50",
            nominal_dim: 50,
            source: "tf-hub",
            fidelity: 0.45,
            cost_per_sample: 0.3e-3,
        },
        ZooEntry {
            name: "nnlm-en-50-norm",
            nominal_dim: 50,
            source: "tf-hub",
            fidelity: 0.47,
            cost_per_sample: 0.3e-3,
        },
        ZooEntry {
            name: "nnlm-en-128",
            nominal_dim: 128,
            source: "tf-hub",
            fidelity: 0.52,
            cost_per_sample: 0.5e-3,
        },
        ZooEntry {
            name: "nnlm-en-128-norm",
            nominal_dim: 128,
            source: "tf-hub",
            fidelity: 0.54,
            cost_per_sample: 0.5e-3,
        },
        ZooEntry {
            name: "elmo",
            nominal_dim: 1024,
            source: "tf-hub",
            fidelity: 0.68,
            cost_per_sample: 50.0e-3,
        },
        ZooEntry { name: "use", nominal_dim: 512, source: "tf-hub", fidelity: 0.72, cost_per_sample: 2.0e-3 },
        ZooEntry {
            name: "use-large",
            nominal_dim: 512,
            source: "tf-hub",
            fidelity: 0.78,
            cost_per_sample: 20.0e-3,
        },
        ZooEntry {
            name: "bert-base-cased-pooled",
            nominal_dim: 768,
            source: "huggingface",
            fidelity: 0.66,
            cost_per_sample: 10.0e-3,
        },
        ZooEntry {
            name: "bert-base-uncased-pooled",
            nominal_dim: 768,
            source: "huggingface",
            fidelity: 0.67,
            cost_per_sample: 10.0e-3,
        },
        ZooEntry {
            name: "bert-base-cased",
            nominal_dim: 768,
            source: "huggingface",
            fidelity: 0.74,
            cost_per_sample: 10.0e-3,
        },
        ZooEntry {
            name: "bert-base-uncased",
            nominal_dim: 768,
            source: "huggingface",
            fidelity: 0.75,
            cost_per_sample: 10.0e-3,
        },
        ZooEntry {
            name: "bert-large-cased-pooled",
            nominal_dim: 1024,
            source: "huggingface",
            fidelity: 0.70,
            cost_per_sample: 30.0e-3,
        },
        ZooEntry {
            name: "bert-large-uncased-pooled",
            nominal_dim: 1024,
            source: "huggingface",
            fidelity: 0.71,
            cost_per_sample: 30.0e-3,
        },
        ZooEntry {
            name: "bert-large-cased",
            nominal_dim: 1024,
            source: "huggingface",
            fidelity: 0.79,
            cost_per_sample: 30.0e-3,
        },
        ZooEntry {
            name: "bert-large-uncased",
            nominal_dim: 1024,
            source: "huggingface",
            fidelity: 0.80,
            cost_per_sample: 30.0e-3,
        },
        ZooEntry {
            name: "xlnet",
            nominal_dim: 768,
            source: "huggingface",
            fidelity: 0.84,
            cost_per_sample: 40.0e-3,
        },
        ZooEntry {
            name: "xlnet-large",
            nominal_dim: 1024,
            source: "huggingface",
            fidelity: 0.87,
            cost_per_sample: 80.0e-3,
        },
    ]
}

/// Deterministic task-specific fidelity perturbation in `[-0.06, 0.06]`.
///
/// Real embeddings transfer unevenly across tasks (XLNet beats USE-Large on
/// IMDB but loses on SST2 in the paper's Fig. 6); hashing the task name with
/// the embedding name reproduces that behaviour deterministically.
pub fn task_fidelity_jitter(task_name: &str, embedding_name: &str) -> f64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in task_name.bytes().chain("::".bytes()).chain(embedding_name.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (((h >> 16) % 10_000) as f64 / 10_000.0 - 0.5) * 0.12
}

/// Reduced width actually used by the simulated embedding (keeps exact 1NN
/// fast while preserving the ordering of nominal widths).
pub fn simulated_dim(nominal_dim: usize) -> usize {
    (nominal_dim / 32).clamp(16, 96)
}

/// Builds the full vision zoo for a task: raw, PCA32/64/128, NCA, a random
/// projection, and the 16 simulated pre-trained encoders of Table III.
pub fn vision_zoo(task: &TaskDataset, seed: u64) -> Vec<Box<dyn Transformation>> {
    let mut zoo: Vec<Box<dyn Transformation>> = Vec::new();
    let raw_dim = task.raw_dim();
    zoo.push(Box::new(Identity::new(raw_dim)));
    // One covariance eigenbasis serves every PCA width.
    let widths: Vec<usize> = [32usize, 64, 128].into_iter().filter(|&k| k < raw_dim).collect();
    if let Some(&widest) = widths.last() {
        let pca = Pca::fit(&task.train.features, widest);
        for k in widths {
            zoo.push(Box::new(PcaTransform::from_pca(pca.truncated(k))));
        }
    }
    zoo.push(Box::new(SupervisedProjection::fit(
        &task.train.features,
        &task.train.labels,
        task.num_classes,
        16,
    )));
    zoo.push(Box::new(RandomProjectionTransform::new(raw_dim, 32.min(raw_dim), seed ^ 0x52)));
    if let Some(map) = &task.meta.latent_map {
        for (i, entry) in vision_entries().into_iter().enumerate() {
            let fidelity = (entry.fidelity + task_fidelity_jitter(&task.name, entry.name)).clamp(0.05, 0.98);
            zoo.push(Box::new(SimulatedPretrained::new(
                entry.name,
                map,
                raw_dim,
                simulated_dim(entry.nominal_dim),
                fidelity,
                entry.cost_per_sample,
                seed.wrapping_add(i as u64 * 131),
            )));
        }
    }
    zoo
}

/// Builds the full NLP zoo for a task: raw term frequencies, standardised
/// frequencies, PCA64, and the 17 simulated pre-trained encoders of Table IV.
pub fn nlp_zoo(task: &TaskDataset, seed: u64) -> Vec<Box<dyn Transformation>> {
    let mut zoo: Vec<Box<dyn Transformation>> = Vec::new();
    let raw_dim = task.raw_dim();
    zoo.push(Box::new(Identity::new(raw_dim)));
    zoo.push(Box::new(StandardizeTransform::fit(&task.train.features)));
    if raw_dim > 64 {
        zoo.push(Box::new(PcaTransform::fit(&task.train.features, 64)));
    }
    if let Some(map) = &task.meta.latent_map {
        for (i, entry) in nlp_entries().into_iter().enumerate() {
            let fidelity = (entry.fidelity + task_fidelity_jitter(&task.name, entry.name)).clamp(0.05, 0.98);
            zoo.push(Box::new(SimulatedPretrained::new(
                entry.name,
                map,
                raw_dim,
                simulated_dim(entry.nominal_dim),
                fidelity,
                entry.cost_per_sample,
                seed.wrapping_add(i as u64 * 173),
            )));
        }
    }
    zoo
}

/// Builds the zoo appropriate for the task's modality.
pub fn zoo_for_task(task: &TaskDataset, seed: u64) -> Vec<Box<dyn Transformation>> {
    match task.meta.modality {
        Modality::Vision => vision_zoo(task, seed),
        Modality::Text => nlp_zoo(task, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_data::registry::{load_clean, SizeScale};

    #[test]
    fn registries_match_table_sizes() {
        assert_eq!(vision_entries().len(), 16);
        assert_eq!(nlp_entries().len(), 17);
        // Cost ordering: EfficientNet-B7 is the most expensive vision model,
        // XLNet-Large the most expensive NLP model.
        let vis = vision_entries();
        let max_vis = vis.iter().max_by(|a, b| a.cost_per_sample.total_cmp(&b.cost_per_sample)).unwrap();
        assert_eq!(max_vis.name, "efficientnet-b7");
        let nlp = nlp_entries();
        let max_nlp = nlp.iter().max_by(|a, b| a.cost_per_sample.total_cmp(&b.cost_per_sample)).unwrap();
        assert_eq!(max_nlp.name, "xlnet-large");
    }

    #[test]
    fn simulated_dims_are_bounded() {
        for entry in vision_entries().iter().chain(nlp_entries().iter()) {
            let d = simulated_dim(entry.nominal_dim);
            assert!((16..=96).contains(&d), "{}: {d}", entry.name);
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let a = task_fidelity_jitter("cifar10", "xlnet");
        let b = task_fidelity_jitter("cifar10", "xlnet");
        assert_eq!(a, b);
        assert!(a.abs() <= 0.06 + 1e-9);
        let c = task_fidelity_jitter("imdb", "xlnet");
        assert_ne!(a, c, "different tasks should perturb fidelity differently");
    }

    #[test]
    fn vision_zoo_contains_expected_members() {
        let task = load_clean("cifar10", SizeScale::Tiny, 1);
        let zoo = vision_zoo(&task, 3);
        let names: Vec<&str> = zoo.iter().map(|t| t.name()).collect();
        assert!(names.contains(&"raw"));
        assert!(names.contains(&"nca"));
        assert!(names.iter().any(|n| n.starts_with("pca")));
        assert!(names.contains(&"efficientnet-b7"));
        assert!(zoo.len() >= 20, "zoo has {} members", zoo.len());
        // All zoo members can transform the test split.
        for t in &zoo {
            let out = t.transform_matrix(&task.test.features);
            assert_eq!(out.rows(), task.test.len());
            assert_eq!(out.cols(), t.output_dim(), "{}", t.name());
        }
    }

    #[test]
    fn nlp_zoo_contains_expected_members() {
        let task = load_clean("sst2", SizeScale::Tiny, 2);
        let zoo = nlp_zoo(&task, 4);
        let names: Vec<&str> = zoo.iter().map(|t| t.name()).collect();
        assert!(names.contains(&"raw"));
        assert!(names.contains(&"xlnet"));
        assert!(names.contains(&"use-large"));
        assert!(zoo.len() >= 18);
    }

    #[test]
    fn zoo_for_task_dispatches_on_modality() {
        let vision = load_clean("mnist", SizeScale::Tiny, 5);
        let text = load_clean("imdb", SizeScale::Tiny, 6);
        let vision_names: Vec<String> =
            zoo_for_task(&vision, 1).iter().map(|t| t.name().to_string()).collect();
        let text_names: Vec<String> = zoo_for_task(&text, 1).iter().map(|t| t.name().to_string()).collect();
        assert!(vision_names.iter().any(|n| n.starts_with("efficientnet")));
        assert!(text_names.iter().any(|n| n.starts_with("bert")));
    }
}
