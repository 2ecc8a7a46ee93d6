//! Adaptive mid-flight re-optimization: plan splicing at explicit
//! suspension points.
//!
//! The optimizer commits to a plan using *estimated* service statistics;
//! the gateway observes the real ones
//! ([`ServiceGateway::ledger`](crate::gateway::ServiceGateway::ledger)).
//! A driver handed a re-planner through
//! [`ExecContext::adaptive`](crate::ExecContext::adaptive) closes that
//! loop **during** execution:
//!
//! 1. execution proceeds to a *suspension point* — an explicit operator
//!    boundary where no service call is in flight (a forced invoke
//!    stage in stage mode, an answer boundary in pull mode);
//! 2. the observed per-service statistics are compared against the
//!    schema estimates
//!    ([`diverging_services`]
//!    under the session's [`AdaptiveConfig`]);
//! 3. when the drift crosses the configured ratio, a [`Replanner`] is
//!    asked to re-optimize the *unexecuted suffix* of the DAG against
//!    refreshed profiles, and the returned plan is **spliced in**: the
//!    execution restarts under the new plan over the *same* gateway, so
//!    every page fetched before the splice is served from the shared
//!    [`PageCache`](crate::cache::PageCache) — a re-plan never repeats a
//!    service call for data it already has (run the gateway state with
//!    [`CacheSetting::Optimal`](crate::cache::CacheSetting) to make that
//!    guarantee unconditional).
//!
//! This is an option of the one driver, not a driver of its own; one
//! splice routine serves both kinds of suspension point, both
//! deterministic:
//!
//! * stage mode ([`pipeline::run`](crate::pipeline::run)) suspends
//!   after every forced invoke stage but the last, re-optimizing only
//!   the unexecuted suffix, and returns the re-plan trail in its
//!   [`ExecReport`](crate::pipeline::ExecReport);
//! * pull mode ([`TopKExecution`](crate::topk::TopKExecution))
//!   suspends between answers; re-plans cover the whole plan, since a
//!   pull execution never provably completes an atom.
//!
//! Re-planning is rate-limited per query ([`AdaptiveConfig`]): a
//! bounded number of re-plans, a check cadence in forwarded calls, and
//! a *settled* set so a divergence the re-planner has already examined
//! (and declined to act on) does not re-trigger the optimizer at every
//! subsequent suspension point.

use crate::gateway::LocalGateway;
use mdq_cost::divergence::{diverging_services, ObservedService, ServiceDivergence};
use mdq_model::schema::{Schema, ServiceId};
use mdq_plan::dag::Plan;
use std::collections::{BTreeSet, HashMap};

pub use mdq_cost::divergence::AdaptiveConfig;

/// Everything a [`Replanner`] gets to see at a suspension point.
pub struct ReplanRequest<'a> {
    /// The currently running plan.
    pub plan: &'a Plan,
    /// Query-atom indices whose invoke stages have fully executed, in
    /// execution order. Empty in pull mode (its continuation semantics
    /// never complete an atom provably), in which case the whole plan
    /// is up for re-optimization.
    pub executed: &'a [usize],
    /// Per-service observations of this execution's forwarded calls.
    pub observed: &'a HashMap<ServiceId, ObservedService>,
    /// The services that tripped the divergence threshold (sorted by
    /// service id).
    pub diverged: &'a [ServiceDivergence],
    /// Re-plans already performed for this query.
    pub replans_so_far: u32,
}

/// Re-optimizes the unexecuted suffix of a plan against observed
/// statistics. Return `Some(plan)` to splice a better plan in, `None`
/// to confirm the running plan (the divergence is then marked settled
/// and does not re-trigger until a *new* service starts diverging).
///
/// The optimizer-backed implementation lives in `mdq-core`
/// (`OptimizerReplanner`); closures implement the trait directly, which
/// the tests use for scripted re-plans.
pub trait Replanner {
    /// Decides whether to splice a new plan in at this suspension point.
    fn replan(&mut self, req: &ReplanRequest<'_>) -> Option<Plan>;
}

impl<F: FnMut(&ReplanRequest<'_>) -> Option<Plan>> Replanner for F {
    fn replan(&mut self, req: &ReplanRequest<'_>) -> Option<Plan> {
        self(req)
    }
}

/// One performed re-plan (splice), for explain/debug output.
#[derive(Clone, Debug)]
pub struct ReplanEvent {
    /// How many invoke stages had executed when the splice happened
    /// (0 in pull mode).
    pub after_stages: usize,
    /// Names of the services that tripped the threshold.
    pub services: Vec<String>,
    /// The worst observed divergence ratio among them.
    pub worst_ratio: f64,
}

/// The re-plan decision logic of both suspension points: cadence,
/// rate limiting and the settled set, around the session's
/// [`Replanner`]. Deterministic — its decisions depend only on the
/// gateway's observed statistics at the suspension point.
pub(crate) struct Controller<'a> {
    cfg: AdaptiveConfig,
    replanner: &'a mut dyn Replanner,
    pub(crate) replans: u32,
    pub(crate) events: Vec<ReplanEvent>,
    last_check_calls: u64,
    /// Services whose divergence the re-planner has already examined;
    /// cleared when a splice happens.
    settled: BTreeSet<ServiceId>,
}

impl<'a> Controller<'a> {
    pub(crate) fn new((cfg, replanner): (AdaptiveConfig, &'a mut dyn Replanner)) -> Self {
        Controller {
            cfg,
            replanner,
            replans: 0,
            events: Vec::new(),
            last_check_calls: 0,
            settled: BTreeSet::new(),
        }
    }

    /// Runs the divergence check at a suspension point; returns the
    /// spliced plan when the re-planner produced one.
    pub(crate) fn consider(
        &mut self,
        plan: &Plan,
        schema: &Schema,
        executed: &[usize],
        gateway: &LocalGateway,
    ) -> Option<Plan> {
        if self.replans >= self.cfg.max_replans {
            return None;
        }
        let total = gateway.with(|g| g.total_calls());
        if total.saturating_sub(self.last_check_calls) < self.cfg.check_every_calls.max(1) {
            return None;
        }
        self.last_check_calls = total;
        let ledger = gateway.with(|g| g.ledger());
        let observed = ledger.observed();
        let diverged = diverging_services(schema, observed, &self.cfg);
        if diverged.is_empty() || diverged.iter().all(|d| self.settled.contains(&d.service)) {
            return None;
        }
        let req = ReplanRequest {
            plan,
            executed,
            observed,
            diverged: &diverged,
            replans_so_far: self.replans,
        };
        let outcome = self.replanner.replan(&req);
        // either way the re-planner has now seen these services; only a
        // *new* diverging service re-triggers it (a splice re-arms all)
        if outcome.is_some() {
            self.settled.clear();
            self.replans += 1;
            let services: Vec<String> = diverged
                .iter()
                .map(|d| schema.service(d.service).name.to_string())
                .collect();
            let worst_ratio = diverged.iter().fold(1.0, |m, d| d.ratio.max(m));
            gateway.with(|g| {
                g.trace_span(
                    mdq_obs::span::SpanKind::Replan {
                        services: services.join(","),
                        worst_ratio,
                    },
                    0.0,
                )
            });
            self.events.push(ReplanEvent {
                after_stages: executed.len(),
                services,
                worst_ratio,
            });
        }
        self.settled.extend(diverged.iter().map(|d| d.service));
        outcome
    }
}
