//! `oocore`: the out-of-core study, shard-paged and fully resident, on one
//! disk dataset.
//!
//! An input is a dataset: set-up samples a seeded 4-class Gaussian mixture
//! at d = 16 and writes it in the on-disk format. Step `i` studies dataset
//! `i mod 4`: `run_oocore_study` under a shard budget of an eighth of the
//! training payload at the default prefetch depth, then
//! `run_resident_reference`. Its check: the paged table and estimates match
//! the resident ones bit for bit, at least two shards were evicted, and peak
//! residency stays within `budget + max_shard × (1 + depth)`.
//!
//! The traced step calls the public steps of both studies itself (open,
//! checksum verification on a pool worker, shard build, top-k scan, each
//! estimator), in the order the two functions call them.

use crate::trace::{Profile, Tracer};
use crate::{Metric, Outcome, Record, Workload, OUT_DIR};
use snoopy_core::oocore::{
    run_oocore_study, run_resident_reference, OutOfCoreConfig, OutOfCoreReport, PagedResidentBytes,
    PagingStats, ShardedIndex,
};
use snoopy_data::gaussian::{GaussianMixture, GaussianMixtureSpec};
use snoopy_data::{DiskLabeledDataset, DiskPairError};
use snoopy_estimators::{
    default_estimators, shared_neighbor_table, shared_table_k, BerEstimator, NeighborTable,
};
use snoopy_knn::Metric as Distance;
use snoopy_linalg::{rng, LabeledView};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 32_768;
const DIM: usize = 16;
const CLASSES: usize = 4;
const EVAL_ROWS: usize = 512;
const NLIST: usize = 32;
/// The shard budget is the training payload divided by this.
const BUDGET_DIVISOR: usize = 8;

/// A directory removed when dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One dataset on disk.
pub struct Dataset {
    dir: ScratchDir,
    bytes: u64,
}

pub struct Oocore {
    inputs: Vec<Dataset>,
    cfg: OutOfCoreConfig,
    peak_resident: usize,
}

type Output = (NeighborTable, Vec<u64>, Vec<u64>);

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every estimator against one shared table, as `estimate_all_with_table`
/// does, one span each.
fn estimate_each(
    estimators: &[Box<dyn BerEstimator>],
    table: &NeighborTable,
    train: &LabeledView<'_>,
    eval: &LabeledView<'_>,
    tracer: &Tracer,
) -> Vec<f64> {
    let classes = train.num_classes();
    estimators
        .iter()
        .map(|e| {
            tracer.span(&format!("estimators.{}", e.name()), || {
                if e.table_k() > 0 {
                    e.estimate_with_table(table, train, eval, classes)
                } else {
                    e.estimate(train, eval, classes)
                }
            })
        })
        .collect()
}

/// `run_oocore_study`, step by step.
fn paged_steps(
    dir: &Path,
    cfg: &OutOfCoreConfig,
    tracer: &Arc<Tracer>,
) -> Result<OutOfCoreReport, DiskPairError> {
    tracer.span("core.oocore_study", || {
        let dataset = Arc::new(tracer.span("data.open", || DiskLabeledDataset::open(dir))?);
        let verify = {
            let (dataset, tracer) = (Arc::clone(&dataset), Arc::clone(tracer));
            snoopy_pool::spawn(move || {
                let start = tracer.now();
                let verdict = dataset.verify_checksums();
                tracer.leaf("data.verify", start, tracer.now(), true);
                verdict
            })
        };
        let full = dataset.view();
        let n = full.features().rows();
        let eval_rows = cfg.eval_rows.clamp(1, n - 1);
        let train_rows = n - eval_rows;
        let train_x = full.features().slice_rows(0, train_rows);
        let eval_x = full.features().slice_rows(train_rows, n);
        let train = LabeledView::from_parts(train_x, &full.labels()[..train_rows], full.num_classes());
        let eval = LabeledView::from_parts(eval_x, &full.labels()[train_rows..], full.num_classes());

        let estimators = default_estimators();
        let k = shared_table_k(&estimators).max(1);
        let mut index = tracer.span("knn.shard_build", || {
            let index =
                ShardedIndex::build(train_x, Distance::SquaredEuclidean, cfg.nlist, cfg.shard_budget_bytes)
                    .with_prefetch_depth(cfg.prefetch_depth);
            if cfg.quantize {
                index.quantize()
            } else {
                index
            }
        });
        let (table, prune) = tracer.span("knn.shard_scan", || index.topk_with_stats(eval_x, k));
        tracer.add("knn.eval_pairs", prune.rows_scanned as f64);
        let estimates = estimate_each(&estimators, &table, &train, &eval, tracer);
        let min_estimate = estimates.iter().copied().fold(f64::INFINITY, f64::min);
        tracer.span("data.verify_wait", || verify.join())?;
        Ok(OutOfCoreReport {
            table,
            estimates,
            min_estimate,
            paging: index.paging_stats(),
            residency: index.resident_bytes(),
            train_rows,
            eval_rows,
            dim: full.features().cols(),
            num_classes: full.num_classes(),
        })
    })
}

/// `run_resident_reference`, step by step.
fn resident_steps(
    dir: &Path,
    cfg: &OutOfCoreConfig,
    tracer: &Arc<Tracer>,
) -> Result<OutOfCoreReport, DiskPairError> {
    tracer.span("core.oocore_resident", || {
        let dataset = tracer.span("data.open", || DiskLabeledDataset::open(dir))?;
        let full = dataset.view();
        let n = full.features().rows();
        let eval_rows = cfg.eval_rows.clamp(1, n - 1);
        let train_rows = n - eval_rows;
        let (train_m, eval_m) = tracer.span("data.materialize", || {
            (
                full.features().slice_rows(0, train_rows).to_matrix(),
                full.features().slice_rows(train_rows, n).to_matrix(),
            )
        });
        let train = LabeledView::from_parts(train_m.view(), &full.labels()[..train_rows], full.num_classes());
        let eval = LabeledView::from_parts(eval_m.view(), &full.labels()[train_rows..], full.num_classes());

        let estimators = default_estimators();
        let k = shared_table_k(&estimators).max(1);
        let table =
            tracer.span("knn.resident_table", || shared_neighbor_table(train_m.view(), eval_m.view(), k));
        let estimates = estimate_each(&estimators, &table, &train, &eval, tracer);
        let min_estimate = estimates.iter().copied().fold(f64::INFINITY, f64::min);
        Ok(OutOfCoreReport {
            table,
            estimates,
            min_estimate,
            paging: PagingStats::default(),
            residency: PagedResidentBytes::default(),
            train_rows,
            eval_rows,
            dim: full.features().cols(),
            num_classes: full.num_classes(),
        })
    })
}

impl Workload for Oocore {
    type Input = Dataset;
    type Output = Output;

    const INPUTS: usize = 4;

    fn setup(seed: u64, tracer: &Arc<Tracer>) -> Dataset {
        let mixture = GaussianMixture::from_spec(&GaussianMixtureSpec {
            num_classes: CLASSES,
            latent_dim: DIM,
            class_sep: 2.5,
            within_std: 1.0,
            seed,
        });
        let mut sampler = rng::seeded(seed ^ 0x00c0_4e5e);
        let (x, y) = tracer.span("data.generate", || mixture.sample(ROWS, &mut sampler));
        let dir = ScratchDir(PathBuf::from(format!("{OUT_DIR}/oocore-{}-{seed}", std::process::id())));
        tracer
            .span("data.disk_write", || {
                DiskLabeledDataset::write(&dir.0, &LabeledView::from_parts(x.view(), &y, CLASSES))
            })
            .expect("write the disk dataset");
        let bytes = std::fs::read_dir(&dir.0)
            .expect("list the disk dataset")
            .map(|entry| entry.and_then(|e| e.metadata()).map_or(0, |m| m.len()))
            .sum();
        Dataset { dir, bytes }
    }

    fn new(inputs: Vec<Dataset>) -> Self {
        let train_payload = (ROWS - EVAL_ROWS) * DIM * std::mem::size_of::<f32>();
        let cfg = OutOfCoreConfig {
            shard_budget_bytes: train_payload / BUDGET_DIVISOR,
            nlist: NLIST,
            eval_rows: EVAL_ROWS,
            quantize: false,
            ..OutOfCoreConfig::default()
        };
        Oocore { inputs, cfg, peak_resident: 0 }
    }

    fn ops_per_step(&self) -> (u64, u64) {
        (2, 2)
    }

    /// The step's figures are the seconds of its paged and of its
    /// resident study.
    fn step(
        &mut self,
        index: usize,
        rec: &mut Record,
        tracer: &Arc<Tracer>,
    ) -> Result<Outcome<Output>, String> {
        let input = (index % Self::INPUTS).to_string();
        let (dir, cfg) = (self.inputs[index % Self::INPUTS].dir.0.as_path(), &self.cfg);
        let traced = tracer.recording();
        let started = Instant::now();
        let paged = tracer
            .span("op.oocore_paged", || {
                if traced {
                    paged_steps(dir, cfg, tracer)
                } else {
                    run_oocore_study(dir, cfg)
                }
            })
            .map_err(|e| format!("paged study: {e}"))?;
        let paged_s = started.elapsed().as_secs_f64();
        rec.primary.push(&input, paged_s);
        let started = Instant::now();
        let resident = tracer
            .span("op.oocore_resident", || {
                if traced {
                    resident_steps(dir, cfg, tracer)
                } else {
                    run_resident_reference(dir, cfg)
                }
            })
            .map_err(|e| format!("resident study: {e}"))?;
        let resident_s = started.elapsed().as_secs_f64();
        rec.secondary.push(&input, resident_s);

        if paged.table != resident.table {
            return Err("the paged neighbour table differs from the resident one".to_string());
        }
        if bits(&paged.estimates) != bits(&resident.estimates) || paged.min_estimate != resident.min_estimate
        {
            return Err(format!(
                "paged estimates {:?} != resident {:?}",
                paged.estimates, resident.estimates
            ));
        }
        let (paging, rb) = (paged.paging, paged.residency);
        if paging.shards_evicted < 2 {
            return Err(format!("the budget forced only {} evictions", paging.shards_evicted));
        }
        if rb.peak > rb.budget + rb.max_shard * (1 + cfg.prefetch_depth) {
            return Err(format!("peak residency {} breaks the budget contract: {rb:?}", rb.peak));
        }

        if traced {
            tracer.add("knn.shards_faulted", paging.shards_faulted as f64);
            tracer.add("knn.shards_evicted", paging.shards_evicted as f64);
            tracer.add("knn.bytes_faulted", paging.bytes_faulted as f64);
            tracer.add("knn.shards_prefetched", paging.shards_prefetched as f64);
            tracer.add("knn.prefetch_committed", paging.prefetch_committed as f64);
            self.peak_resident = self.peak_resident.max(rb.peak);
        }
        Ok(Outcome {
            output: (paged.table, bits(&paged.estimates), bits(&resident.estimates)),
            primary: paged_s,
            secondary: resident_s,
        })
    }

    fn summary(&self, rec: &Record) -> Vec<String> {
        let mut lines = vec!["primary_s = paged_study_s: seconds per run_oocore_study; \
             secondary_s = resident_study_s: seconds per run_resident_reference"
            .to_string()];
        for (kind, samples) in [("paged", &rec.primary), ("resident", &rec.secondary)] {
            lines.extend(
                samples.describe_classes().into_iter().map(|(c, d)| format!("{kind}_study_s[{c}]: {d}")),
            );
        }
        lines.push(format!(
            "datasets: {} x {ROWS} rows x {DIM} dims, {CLASSES} classes, {EVAL_ROWS} eval rows, {} bytes on disk, \
             shard budget {} bytes, nlist {NLIST}, prefetch depth {}",
            Self::INPUTS,
            self.inputs.iter().map(|d| d.bytes).sum::<u64>(),
            self.cfg.shard_budget_bytes,
            self.cfg.prefetch_depth
        ));
        lines
    }

    fn layers(&self, p: &Profile, studies: f64) -> Vec<Metric> {
        let scan = p.op("knn.shard_scan");
        let pairs = p.counter("knn.eval_pairs");
        let mut layers = vec![
            Metric::new("data.disk_bytes", self.inputs[0].bytes as f64, "B"),
            Metric::new("data.open_s", p.op("data.open") / (2.0 * studies), "s"),
            Metric::new("data.verify_s", p.op("data.verify") / studies, "s"),
            Metric::new("data.verify_wait_s", p.op("data.verify_wait") / studies, "s"),
            Metric::new("data.materialize_s", p.op("data.materialize") / studies, "s"),
            Metric::new("core.self_s", p.op_prefix("core.") / (2.0 * studies), "s"),
            Metric::new("knn.shard_build_s", p.op("knn.shard_build") / studies, "s"),
            Metric::new("knn.shard_scan_s", scan / studies, "s"),
            Metric::new("knn.eval_pairs", pairs / studies, "count"),
            Metric::new("knn.pairs_per_s", pairs / scan, "1/s"),
            Metric::new("knn.shards_faulted", p.counter("knn.shards_faulted") / studies, "count"),
            Metric::new("knn.shards_evicted", p.counter("knn.shards_evicted") / studies, "count"),
            Metric::new("knn.bytes_faulted", p.counter("knn.bytes_faulted") / studies, "B"),
            Metric::new("knn.shards_prefetched", p.counter("knn.shards_prefetched") / studies, "count"),
            Metric::new("knn.prefetch_committed", p.counter("knn.prefetch_committed") / studies, "count"),
            Metric::new(
                "knn.prefetch_useful_frac",
                p.counter("knn.prefetch_committed") / p.counter("knn.shards_prefetched"),
                "frac",
            ),
            Metric::new("knn.peak_resident_bytes", self.peak_resident as f64, "B"),
            Metric::new("knn.budget_bytes", self.cfg.shard_budget_bytes as f64, "B"),
            Metric::new("knn.resident_table_s", p.op("knn.resident_table") / studies, "s"),
        ];
        for e in default_estimators() {
            let name = format!("estimators.{}", e.name());
            layers.push(Metric::new(format!("{name}_s"), p.op(&name) / (2.0 * studies), "s"));
        }
        layers
    }
}
