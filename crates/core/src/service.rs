//! Multi-tenant feasibility serving on the shared worker pool.
//!
//! A feasibility study as a *server workload*: many users ("tenants") ask
//! "is `α_target` realistic on my task?" concurrently, and each answer is a
//! full bandit run over a transformation zoo. [`FeasibilityService`] steps
//! one [`StrategyDriver`] per tenant through fair round-robin rounds — every
//! live tenant advances exactly one scheduling phase per global round, and
//! all tenants' phases of a round execute as tasks on the persistent
//! [`snoopy_pool`] pool (the engine's query-chunk tasks nest inside them;
//! the pool's caller-helps scopes make that safe at every worker count).
//!
//! Two properties make this a serving layer rather than a batch loop:
//!
//! * **Interleaving changes nothing.** Each tenant's driver decisions
//!   depend only on its own arms, so the winners, BER estimates, and
//!   convergence curves are bit-identical to running the same studies
//!   sequentially through [`FeasibilityStudy::run`].
//! * **Repeated tenants are warm.** The service keeps one
//!   [`EmbeddingCache`] per task; a repeated request slices the cached
//!   embedded train rows per pull and clones the cached test embedding
//!   instead of re-running inference (transformations are deterministic and
//!   row-wise, so this is bit-identical to the cold path). Inference cost
//!   is charged once, at first fill — a warm request's
//!   [`StudyReport::simulated_cost_seconds`] is zero, and its wall-clock is
//!   dominated by arm pulls instead of embedding.
//!
//! Progress streams per round through a callback ([`StudyProgress`]): the
//! currently leading transformation, its BER estimate, and the evaluation
//! work spent so far — the paper's real-time feedback loop, per tenant.
//!
//! [`StrategyDriver`]: snoopy_bandit::StrategyDriver
//! [`FeasibilityStudy::run`]: crate::study::FeasibilityStudy::run
//! [`StudyReport::simulated_cost_seconds`]: crate::study::StudyReport::simulated_cost_seconds

use crate::config::SnoopyConfig;
use crate::session::StudySession;
use crate::study::StudyReport;
use snoopy_data::TaskDataset;
use snoopy_embeddings::{EmbeddingCache, Transformation};
use std::collections::HashMap;
use std::sync::Arc;

/// One tenant's study request.
pub struct StudyRequest<'a> {
    /// The tenant's task (also the cache key: requests with the same task
    /// name share cached embeddings across calls).
    pub task: &'a TaskDataset,
    /// The transformation zoo to evaluate.
    pub zoo: &'a [Box<dyn Transformation>],
    /// Study configuration (strategy, batch fraction, metric, target).
    pub config: SnoopyConfig,
}

/// A per-round progress event for one tenant.
#[derive(Debug, Clone)]
pub struct StudyProgress {
    /// Index of the tenant in the request slice.
    pub tenant: usize,
    /// Global round number (1-based; a tenant only appears in rounds where
    /// its driver still had a phase to run).
    pub round: usize,
    /// Name of the transformation currently achieving the minimum estimate.
    pub leading_transformation: String,
    /// The tenant's current aggregated BER estimate.
    pub ber_estimate: f64,
    /// Total incremental evaluation work spent so far by this tenant's arms
    /// (query–row pairs, post-pruning).
    pub eval_pairs: u64,
}

/// A persistent multi-study server: embedding caches live across calls, so
/// a tenant's second request is served allocation- and inference-free from
/// its cached embeddings.
#[derive(Default)]
pub struct FeasibilityService {
    caches: HashMap<String, Arc<EmbeddingCache>>,
}

impl FeasibilityService {
    /// Creates a service with no warm tenants.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether embeddings for `task_name` are already cached (i.e. a
    /// request for that task will be served warm).
    pub fn is_warm(&self, task_name: &str) -> bool {
        self.caches.get(task_name).is_some_and(|c| !c.is_empty())
    }

    /// Number of tasks with live embedding caches.
    pub fn cached_tasks(&self) -> usize {
        self.caches.len()
    }

    /// Serves a batch of concurrent study requests and returns one report
    /// per request, in request order.
    pub fn serve(&mut self, requests: &[StudyRequest<'_>]) -> Vec<StudyReport> {
        self.serve_with_progress(requests, |_| {})
    }

    /// Like [`FeasibilityService::serve`], but streams a [`StudyProgress`]
    /// event per tenant per round.
    pub fn serve_with_progress(
        &mut self,
        requests: &[StudyRequest<'_>],
        mut on_progress: impl FnMut(StudyProgress),
    ) -> Vec<StudyReport> {
        let mut sessions: Vec<StudySession<'_>> = requests
            .iter()
            .map(|r| {
                let cache = Arc::clone(self.caches.entry(r.task.name.clone()).or_default());
                StudySession::admit(r.config, r.task, r.zoo, Some(cache))
            })
            .collect();

        // `live[i]`: tenant `i`'s last step ran a phase (all start live).
        let mut live = vec![true; sessions.len()];
        let mut round = 0usize;
        loop {
            // Fair interleaving: every live tenant steps exactly one phase
            // per global round, as one pool task per tenant with each arm
            // of its phase a nested pool task inside it.
            snoopy_pool::scope(|scope| {
                for (session, live) in sessions.iter_mut().zip(live.iter_mut()) {
                    if *live {
                        scope.spawn(move || *live = session.step());
                    }
                }
            });
            if !live.contains(&true) {
                break;
            }
            round += 1;
            for (tenant, session) in sessions.iter().enumerate() {
                if live[tenant] {
                    on_progress(session.progress(tenant, round));
                }
            }
        }

        sessions.into_iter().map(StudySession::into_report).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::FeasibilityStudy;
    use snoopy_bandit::SelectionStrategy;
    use snoopy_data::registry::{load_clean, SizeScale};
    use snoopy_embeddings::zoo_for_task;

    fn config(strategy: SelectionStrategy) -> SnoopyConfig {
        SnoopyConfig::with_target(0.9).strategy(strategy).batch_fraction(0.25)
    }

    #[test]
    fn interleaved_studies_match_sequential_runs_exactly() {
        let task_a = load_clean("mnist", SizeScale::Tiny, 1);
        let task_b = load_clean("sst2", SizeScale::Tiny, 3);
        let zoo_a = zoo_for_task(&task_a, 7);
        let zoo_b = zoo_for_task(&task_b, 7);
        for strategy in [SelectionStrategy::SuccessiveHalvingTangent, SelectionStrategy::Uniform] {
            let mut service = FeasibilityService::new();
            let reports = service.serve(&[
                StudyRequest { task: &task_a, zoo: &zoo_a, config: config(strategy) },
                StudyRequest { task: &task_b, zoo: &zoo_b, config: config(strategy) },
            ]);
            let solo_a = FeasibilityStudy::new(config(strategy)).run(&task_a, &zoo_a);
            let solo_b = FeasibilityStudy::new(config(strategy)).run(&task_b, &zoo_b);
            for (served, solo) in reports.iter().zip([&solo_a, &solo_b]) {
                assert_eq!(served.best_transformation, solo.best_transformation);
                assert_eq!(served.ber_estimate, solo.ber_estimate, "BER must be bit-identical");
                assert_eq!(served.decision, solo.decision);
                assert_eq!(served.per_transformation.len(), solo.per_transformation.len());
                for (s, r) in served.per_transformation.iter().zip(&solo.per_transformation) {
                    assert_eq!(s.curve, r.curve, "curves must be bit-identical ({})", s.name);
                    assert_eq!(s.consumed_samples, r.consumed_samples);
                    assert_eq!(s.eval_pairs, r.eval_pairs);
                }
            }
        }
    }

    #[test]
    fn repeated_requests_are_served_warm_and_free() {
        let task = load_clean("cifar10", SizeScale::Tiny, 5);
        let zoo = zoo_for_task(&task, 9);
        let mut service = FeasibilityService::new();
        let request = || StudyRequest {
            task: &task,
            zoo: &zoo,
            config: config(SelectionStrategy::SuccessiveHalvingTangent),
        };
        assert!(!service.is_warm(&task.name));
        let cold = service.serve(&[request()]).remove(0);
        assert!(service.is_warm(&task.name));
        assert!(cold.simulated_cost_seconds > 0.0, "first request pays the zoo inference");
        let warm = service.serve(&[request()]).remove(0);
        assert_eq!(warm.simulated_cost_seconds, 0.0, "warm request re-runs no inference");
        assert_eq!(warm.best_transformation, cold.best_transformation);
        assert_eq!(warm.ber_estimate, cold.ber_estimate);
        for (w, c) in warm.per_transformation.iter().zip(&cold.per_transformation) {
            assert_eq!(w.curve, c.curve, "warm pulls replay the exact same errors ({})", w.name);
        }
        assert_eq!(service.cached_tasks(), 1);
    }

    #[test]
    fn warm_requests_match_cold_studies_bit_for_bit() {
        // The cold study embeds each raw batch separately; the warm service
        // slices one big cached embedding. Row-wise determinism makes those
        // identical, which this pin guards.
        let task = load_clean("mnist", SizeScale::Tiny, 11);
        let zoo = zoo_for_task(&task, 2);
        let mut service = FeasibilityService::new();
        let cfg = config(SelectionStrategy::Exhaustive);
        service.serve(&[StudyRequest { task: &task, zoo: &zoo, config: cfg }]);
        let warm = service.serve(&[StudyRequest { task: &task, zoo: &zoo, config: cfg }]).remove(0);
        let solo = FeasibilityStudy::new(cfg).run(&task, &zoo);
        assert_eq!(warm.ber_estimate, solo.ber_estimate);
        for (w, s) in warm.per_transformation.iter().zip(&solo.per_transformation) {
            assert_eq!(w.curve, s.curve, "{}", w.name);
        }
    }

    #[test]
    fn progress_streams_rounds_and_ends_at_the_reported_winner() {
        let task = load_clean("mnist", SizeScale::Tiny, 7);
        let zoo = zoo_for_task(&task, 4);
        let mut service = FeasibilityService::new();
        let mut events: Vec<StudyProgress> = Vec::new();
        let reports = service.serve_with_progress(
            &[StudyRequest {
                task: &task,
                zoo: &zoo,
                config: config(SelectionStrategy::SuccessiveHalvingTangent),
            }],
            |e| events.push(e),
        );
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.tenant == 0));
        assert!(events.windows(2).all(|w| w[0].round < w[1].round), "rounds strictly increase");
        assert!(events.windows(2).all(|w| w[0].eval_pairs <= w[1].eval_pairs), "work only grows");
        let last = events.last().unwrap();
        assert_eq!(last.leading_transformation, reports[0].best_transformation);
        assert_eq!(last.ber_estimate, reports[0].ber_estimate);
    }
}
