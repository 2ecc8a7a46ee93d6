//! The pull-based top-k executor.
//!
//! §2.2: "we retrieve only the fraction of tuples of proliferative
//! services that are sufficient to obtain the first k query answers …
//! we also assume that a plan execution can be continued, by producing
//! more answers". This executor `compile_with`s
//! the plan into one lazy
//! operator tree over a shared
//! [`ServiceGateway`](crate::gateway::ServiceGateway) and *pulls* answers
//! one at a time: services are fetched page by page exactly as demanded
//! downstream, so asking for `k` answers halts all proliferative
//! retrieval as early as the join strategies allow — and asking again
//! resumes where it stopped.
//!
//! In *elastic* mode the phase-3 fetch factors are treated as a starting
//! hint rather than a hard page budget: a node keeps paging (within the
//! service's actual data) while downstream demand is unmet.
//!
//! Sharing, tenant attribution, frontier recording (standing queries)
//! and mid-flight re-planning are all options of this one driver, set
//! on the [`ExecContext`] it is started with.

use crate::adaptive::Controller;
use crate::binding::Binding;
use crate::context::ExecContext;
use crate::gateway::{
    InvocationFrontier, LocalGateway, PrefixResolution, SharedServiceState, SubResultEntry,
    TenantId,
};
use crate::operator::{compile_with, drain_all, ExecError, Invoke, Operator, Source};
use crate::plan_info::{analyze, PlanInfo};
use mdq_model::fingerprint::SubplanSignature;
use mdq_model::schema::{Schema, ServiceId};
use mdq_model::value::Tuple;
use mdq_obs::span::SpanKind;
use mdq_plan::dag::Plan;
use mdq_plan::signature::invoke_prefixes;
use mdq_services::registry::ServiceRegistry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A running pull execution: ask for answers one at a time, or in
/// batches; execution state (fetched pages, cache, upstream cursors)
/// persists between calls — the §2.2 "ask for more" continuation.
pub struct TopKExecution<'a> {
    iter: Box<dyn Operator>,
    gateway: LocalGateway,
    query: Arc<mdq_model::query::ConjunctiveQuery>,
    /// Demand chunk of [`TopKExecution::answers`] and of the eager
    /// prefix drain.
    batch: usize,
    /// Materialized prefixes this execution replayed (0 or 1).
    sub_result_hits: u64,
    /// Forwarded calls the replay saved.
    sub_calls_saved: u64,
    /// Present when the context carried a re-planner.
    splicer: Option<Box<Splicer<'a>>>,
}

/// The adaptive half of a pull execution. Answer boundaries are the
/// pull driver's suspension points: between answers the divergence
/// check runs, and a splice recompiles the new plan over the *same*
/// gateway — fetched pages replay from cache, and the bindings already
/// handed out are tracked as a multiset so the spliced stream skips
/// exactly one instance of each before emitting further answers (a
/// splice never re-emits, while legitimate duplicate answers —
/// projection queries, duplicate source tuples — still flow exactly as
/// in a frozen execution; with zero re-plans no skipping happens at
/// all).
struct Splicer<'a> {
    ctl: Controller<'a>,
    schema: &'a Schema,
    /// The currently running plan (the splice result after a re-plan).
    plan: Plan,
    elastic: bool,
    /// Every binding emitted so far, in emission order (all splices).
    emitted: Vec<Binding>,
    /// Instances of already-emitted bindings the current (spliced)
    /// stream must still skip — rebuilt from `emitted` at each splice,
    /// empty before the first one.
    skip: BTreeMap<Binding, usize>,
}

/// What sub-result resolution produced for one pull execution.
#[derive(Default)]
struct PrefixOutcome {
    /// Stream standing in for a plan node's whole subtree, if any.
    override_op: Option<(usize, Box<dyn Operator>)>,
    sub_result_hits: u64,
    calls_saved: u64,
}

/// The multi-query-optimization hook of the pull executor: probes the
/// shared state's sub-result store for this plan's invoke-prefix chain.
/// The longest materialized prefix *replays* (its bindings stand in for
/// the chain's subtree — zero service calls); the levels beyond it are
/// claimed, *eagerly materialized* and published. With the store off —
/// the default — this is a no-op. A materialization that turns
/// unhealthy (poisoned gateway, degraded page) publishes nothing: a
/// partial prefix must never replay to others.
fn prepare_shared_prefix(
    plan: &Plan,
    schema: &Schema,
    info: &PlanInfo,
    gateway: &LocalGateway,
    elastic: bool,
    materialize: bool,
    batch: usize,
) -> PrefixOutcome {
    // elastic paging is demand-driven: its streams are not a
    // deterministic function of the plan, so they never share. And the
    // store's capacity is fixed at build: with it off (the default)
    // nothing below — prefix signing, the store lock — is worth paying
    if elastic || !gateway.with(|g| g.shared_state().sub_results().enabled()) {
        return PrefixOutcome::default();
    }
    let shared = gateway.with(|g| Arc::clone(g.shared_state()));
    let store = shared.sub_results();
    let prefixes = invoke_prefixes(plan);
    if prefixes.is_empty() {
        return PrefixOutcome::default();
    }
    let sigs: Vec<SubplanSignature> = prefixes.iter().map(|p| p.signature).collect();
    // a frontier-recording (standing) execution may only replay entries
    // whose own frontier was recorded, and merges it into its own — a
    // provenance-less replay would leave the subscription blind to
    // refreshes of the prefix's invocations
    let frontier_mode = gateway.with(|g| g.frontier_enabled());
    let PrefixResolution { replay, claimed } = store.resolve(&sigs, materialize, frontier_mode);

    let nvars = plan.query.var_count();
    let mut outcome = PrefixOutcome::default();
    let mut level = 0;
    let mut base: Box<dyn Operator> = match replay {
        Some(entry) => {
            level = entry.level;
            outcome.sub_result_hits = 1;
            outcome.calls_saved = entry.cost_calls;
            let rows = Arc::clone(&entry.rows);
            gateway.with(|g| {
                if let Some(entry_frontier) = &entry.frontier {
                    g.extend_frontier(entry_frontier);
                }
                g.record_node_replay(prefixes[level - 1].node, rows.len() as u64);
                let replay = SpanKind::SubResultReplay {
                    level: level as u64,
                    rows: rows.len() as u64,
                    calls_saved: entry.cost_calls,
                };
                g.trace_span(replay, 0.0);
            });
            let sub_vars = prefixes[level - 1].vars.clone();
            if entry.nvars == nvars && entry.vars.as_ref() == sub_vars.as_slice() {
                // same variable space: the stored bindings ARE the
                // replay — every pull is an `Arc` bump, never a deep
                // copy of the materialized set
                Box::new(Source((0..rows.len()).map(move |i| rows[i].clone())))
            } else {
                // different numbering: remap through the canonical row
                // lazily, per pull
                let pub_vars = Arc::clone(&entry.vars);
                Box::new(Source((0..rows.len()).map(move |i| {
                    Binding::from_row(nvars, &sub_vars, &rows[i].to_row(&pub_vars))
                })))
            }
        }
        None => Box::new(Source(std::iter::once(Binding::empty(nvars)))),
    };

    let owner = gateway.with(|g| g.sub_result_owner());
    let start_calls = gateway.with(|g| g.total_calls());
    // a claim not published below is released when it drops — on an
    // unhealthy level, on the levels after it, and on unwind
    for (lvl, claim) in claimed {
        let node = prefixes[lvl - 1].node;
        let invoke = Invoke::for_node(plan, schema, info, node, base, gateway.clone(), false);
        // the eager drain runs batched: whole pages flow through the
        // chain per gateway-lock acquisition instead of tuple-at-a-time
        let drained: Vec<Binding> = drain_all(invoke, batch);
        let healthy = gateway.with(|g| g.error().is_none() && !g.is_degraded());
        if healthy {
            let cost = outcome.calls_saved + gateway.with(|g| g.total_calls()) - start_calls;
            // publishing shares the drained bindings (`Arc` bumps) —
            // the store never holds a deep copy of the rows. A standing
            // publisher attaches its frontier so far: after this level's
            // drain it is exactly the prefix's invocation set.
            let entry = SubResultEntry {
                rows: Arc::new(drained.clone()),
                vars: prefixes[lvl - 1].vars.clone().into(),
                nvars,
                cost_calls: cost,
                tenant: owner.map(|(t, _)| t),
                frontier: gateway.with(|g| g.frontier_snapshot()),
            };
            store.publish(claim, sigs[lvl - 1], entry, owner.map(|(_, q)| q));
            let rows = drained.len() as u64;
            let materialize = SpanKind::SubResultMaterialize {
                level: lvl as u64,
                rows,
            };
            gateway.with(|g| g.trace_span(materialize, 0.0));
        }
        base = Box::new(Source(drained.into_iter()));
        level = lvl;
        if !healthy {
            break;
        }
    }

    if level > 0 {
        outcome.override_op = Some((prefixes[level - 1].node, base));
    }
    outcome
}

impl<'a> TopKExecution<'a> {
    /// Prepares a pull execution of `plan` under `ctx` — the one
    /// constructor of the pull driver.
    ///
    /// Every forwarded call (the eager prefix drain included — it runs
    /// here) counts against `ctx.budget` and is charged to `ctx.tenant`.
    /// With the state's sub-result store on, an already-materialized invoke
    /// prefix replays, and with `ctx.materialize` the unmaterialized levels
    /// are claimed, drained and published here. A frontier-recording
    /// (standing) execution replays only entries carrying a recorded
    /// `InvocationFrontier` (merged into its own) and publishes entries
    /// carrying one, so a refresh pass can retain exactly the entries whose
    /// invocations came through an epoch unchanged. With a re-planner in
    /// `ctx.adaptive` the execution runs its own chain and checks for
    /// divergence between answers.
    pub fn start(
        plan: &Plan,
        schema: &'a Schema,
        registry: &ServiceRegistry,
        ctx: ExecContext<'a>,
    ) -> Result<Self, ExecError> {
        let gateway = LocalGateway::new(ctx.gateway(plan, schema, registry)?);
        let info = analyze(plan, schema);
        let batch = ctx.batch.max(1);
        let prep = match ctx.adaptive {
            Some(_) => PrefixOutcome::default(),
            None => prepare_shared_prefix(
                plan,
                schema,
                &info,
                &gateway,
                ctx.elastic,
                ctx.materialize,
                batch,
            ),
        };
        let iter = compile_with(plan, schema, &info, &gateway, ctx.elastic, prep.override_op);
        let splicer = ctx.adaptive.map(|adaptive| {
            Box::new(Splicer {
                ctl: Controller::new(adaptive),
                schema,
                plan: plan.clone(),
                elastic: ctx.elastic,
                emitted: Vec::new(),
                skip: BTreeMap::new(),
            })
        });
        Ok(TopKExecution {
            iter,
            gateway,
            query: Arc::clone(&plan.query),
            batch,
            sub_result_hits: prep.sub_result_hits,
            sub_calls_saved: prep.calls_saved,
            splicer,
        })
    }

    /// [`TopKExecution::start`] over a shared state under the positional
    /// signature the frozen end-to-end benchmark package (`benchmark/`)
    /// compiles against. Everything else goes through `start`.
    #[allow(clippy::too_many_arguments)] // frozen: benchmark/ calls exactly this
    pub fn with_shared_tenant(
        plan: &Plan,
        schema: &'a Schema,
        registry: &ServiceRegistry,
        shared: Arc<SharedServiceState>,
        budget: Option<u64>,
        elastic: bool,
        materialize: bool,
        tenant: Option<TenantId>,
    ) -> Result<Self, ExecError> {
        Self::start(
            plan,
            schema,
            registry,
            ExecContext {
                budget,
                elastic,
                materialize,
                tenant,
                ..ExecContext::shared(shared)
            },
        )
    }

    /// The invocation frontier recorded so far: every invocation this
    /// execution demanded. Empty unless the context asked for frontier
    /// recording.
    pub fn frontier(&self) -> InvocationFrontier {
        self.gateway
            .with(|g| g.frontier().cloned().unwrap_or_default())
    }

    /// Pulls the next answer (projected on the query head). A stream
    /// can also end because execution failed mid-pull (an inadmissible
    /// plan reaching an unbound input) — check [`TopKExecution::error`]
    /// to distinguish that from genuine exhaustion. Under a re-planner
    /// this is also the suspension point: the divergence check runs
    /// first, and the answer comes from the (possibly just spliced)
    /// plan, never one already emitted.
    pub fn next_answer(&mut self) -> Option<Tuple> {
        let Some(splicer) = self.splicer.as_deref_mut() else {
            return self
                .iter
                .next_binding()
                .map(|b| b.project_head(&self.query));
        };
        loop {
            // the pull driver re-plans the whole plan: its continuation
            // semantics never fully execute an atom, so nothing is pinned
            if let Some(new_plan) =
                splicer
                    .ctl
                    .consider(&splicer.plan, splicer.schema, &[], &self.gateway)
            {
                splicer.plan = new_plan;
                let plan = &splicer.plan;
                let info = analyze(plan, splicer.schema);
                self.iter = compile_with(
                    plan,
                    splicer.schema,
                    &info,
                    &self.gateway,
                    splicer.elastic,
                    None,
                );
                // node indices changed: per-node stats restart under the
                // spliced plan (the dropped tree's probes flushed into the
                // old numbering just above, so this wipes them cleanly)
                self.gateway.with(|g| g.reset_node_stats(plan.nodes.len()));
                // the spliced stream replays from the start: skip exactly
                // one instance of every binding already handed out
                splicer.skip.clear();
                for b in &splicer.emitted {
                    *splicer.skip.entry(b.clone()).or_insert(0) += 1;
                }
            }
            let binding = self.iter.next_binding()?;
            if let Some(n) = splicer.skip.get_mut(&binding) {
                // an instance already emitted before the last splice
                *n -= 1;
                if *n == 0 {
                    splicer.skip.remove(&binding);
                }
                continue;
            }
            let answer = binding.project_head(&splicer.plan.query);
            splicer.emitted.push(binding);
            return Some(answer);
        }
    }

    /// Re-plans performed so far (0 without a re-planner).
    pub fn replans(&self) -> u32 {
        self.splicer.as_ref().map_or(0, |s| s.ctl.replans)
    }

    /// The plan the last re-plan spliced in — the one now producing
    /// answers, and the one per-node statistics describe. `None` while
    /// the execution still runs the plan it was started with.
    pub fn spliced_plan(&self) -> Option<&Plan> {
        self.splicer
            .as_deref()
            .filter(|s| s.ctl.replans > 0)
            .map(|s| &s.plan)
    }

    /// The execution error that poisoned the stream, if any. Mirrors
    /// the `Err` the materialised driver returns for the same plan.
    pub fn error(&self) -> Option<ExecError> {
        self.gateway.with(|g| g.error().cloned())
    }

    /// Pulls up to `k` further answers, in batches of at most the
    /// context's batch size. Batched demand is exact: `next_batch(n)`
    /// does precisely the work of `n` single pulls, so early halting
    /// and call counts are identical to answer-at-a-time pulling —
    /// which is what a re-planning execution does, every answer
    /// boundary being a suspension point.
    pub fn answers(&mut self, k: usize) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(k.min(1024));
        if self.splicer.is_some() {
            out.extend(std::iter::from_fn(|| self.next_answer()).take(k));
            return out;
        }
        let mut batch = crate::operator::Batch::new();
        while out.len() < k {
            let want = (k - out.len()).min(self.batch);
            batch.clear();
            let got = self.iter.next_batch(want, &mut batch);
            out.extend(batch.drain(..).map(|b| b.project_head(&self.query)));
            if got < want {
                break;
            }
        }
        out
    }

    /// Request-responses forwarded to `id` so far.
    pub fn calls_to(&self, id: ServiceId) -> u64 {
        self.gateway.with(|g| g.calls_to(id))
    }

    /// Total request-responses so far.
    pub fn total_calls(&self) -> u64 {
        self.gateway.with(|g| g.total_calls())
    }

    /// Summed simulated latency of all forwarded calls.
    pub fn total_latency(&self) -> f64 {
        self.gateway.with(|g| g.total_latency())
    }

    /// A snapshot of this execution's call ledger so far: calls,
    /// latency, faults and retries per service, observations, cache
    /// statistics — all from one instant.
    pub fn ledger(&self) -> crate::gateway::Counters {
        self.gateway.with(|g| g.ledger())
    }

    /// Reads this execution's ledger in place — [`TopKExecution::ledger`]
    /// without the copy, for a reader after a few figures.
    pub fn read_ledger<R>(&self, f: impl FnOnce(&crate::gateway::Counters) -> R) -> R {
        self.gateway.with(|g| g.read_ledger(f))
    }

    /// The partial-results report so far: `Some` once any service has
    /// served this execution a degraded page.
    pub fn partial_results(&self) -> Option<crate::gateway::PartialResults> {
        self.gateway.with(|g| g.partial_results())
    }

    /// Materialized invoke prefixes this execution replayed from the
    /// shared sub-result store (0 with the store disabled, at most 1 —
    /// the longest materialized prefix of the plan's chain).
    pub fn sub_result_hits(&self) -> u64 {
        self.sub_result_hits
    }

    /// Forwarded service calls the replay saved this execution — the
    /// materializing cost of the replayed entry. Reconciles with the
    /// shared state's cumulative
    /// [`SubResultStats::calls_saved`](crate::gateway::SubResultStats).
    pub fn sub_result_calls_saved(&self) -> u64 {
        self.sub_calls_saved
    }

    /// This execution's span track, when the shared state carries a
    /// trace recorder. The serving layer records `query_start` /
    /// `query_done` correlation events here.
    pub fn trace(&self) -> Option<mdq_obs::recorder::QueryTrace> {
        self.gateway.with(|g| g.trace())
    }

    /// **Finalizes** the execution and returns its per-node runtime
    /// statistics (EXPLAIN ANALYZE's observed side) for `plan` — which
    /// must be the plan this execution was started with, or
    /// [`TopKExecution::spliced_plan`] after a re-plan. The operator
    /// tree is dropped so every probe flushes its counts (this is what
    /// makes the numbers exact under top-k early halting); subsequent
    /// pulls return no further answers.
    pub fn operator_stats(&mut self, plan: &Plan) -> Vec<mdq_obs::span::OperatorStats> {
        self.iter = Box::new(Source(std::iter::empty()));
        let mut stats = self.gateway.with(|g| g.node_stats().to_vec());
        crate::operator::derive_rows_in(plan, &mut stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheSetting;
    use crate::pipeline::{run, ExecConfig};
    use mdq_model::binding::ApChoice;
    use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
    use mdq_plan::builder::{build_plan, StrategyRule};
    use mdq_plan::poset::Poset;
    use mdq_services::domains::travel::travel_world;

    fn plan_o(world: &mdq_services::domains::travel::TravelWorld) -> Plan {
        let poset = Poset::from_pairs(
            4,
            &[
                (ATOM_CONF, ATOM_WEATHER),
                (ATOM_WEATHER, ATOM_FLIGHT),
                (ATOM_WEATHER, ATOM_HOTEL),
            ],
        )
        .expect("valid");
        build_plan(
            Arc::new(world.query.clone()),
            &world.schema,
            ApChoice(vec![0, 0, 0, 0]),
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds")
    }

    #[test]
    fn pull_answers_match_materialised_run() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let full = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("executes");
        let mut pull = TopKExecution::start(
            &plan,
            &w.schema,
            &w.registry,
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("builds");
        let pulled = pull.answers(usize::MAX >> 1);
        let mut a = full.answers.clone();
        let mut b = pulled.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "same answer set as the materialised executor");
    }

    #[test]
    fn early_halt_saves_calls() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        // pull just one answer: far fewer calls than the full run
        let mut pull = TopKExecution::start(
            &plan,
            &w.schema,
            &w.registry,
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("builds");
        let first = pull.next_answer();
        assert!(first.is_some());
        let calls_after_one = pull.total_calls();
        let full = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("executes");
        let full_calls: u64 = full.calls.values().sum();
        assert!(
            calls_after_one < full_calls,
            "pull {calls_after_one} < full {full_calls}"
        );
    }

    #[test]
    fn continuation_produces_more_answers() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let mut pull = TopKExecution::start(
            &plan,
            &w.schema,
            &w.registry,
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("builds");
        let first_batch = pull.answers(5);
        assert_eq!(first_batch.len(), 5);
        let second_batch = pull.answers(5);
        assert_eq!(second_batch.len(), 5);
        assert_ne!(first_batch, second_batch, "progresses through results");
    }

    #[test]
    fn sub_result_store_replays_shared_prefixes() {
        // two pull executions of the same plan over one shared state
        // with the sub-result store on: the first materializes the
        // conf → weather prefix, the second replays it without touching
        // either service — and still produces identical answers
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let shared = Arc::new(
            crate::gateway::SharedServiceState::new(CacheSetting::NoCache, 0).with_sub_results(8),
        );
        let mut first = TopKExecution::start(
            &plan,
            &w.schema,
            &w.registry,
            ExecContext::shared(Arc::clone(&shared)),
        )
        .expect("builds");
        let a = first.answers(usize::MAX >> 1);
        assert_eq!(first.sub_result_hits(), 0, "nothing to replay yet");
        let stats = shared.sub_result_stats();
        assert!(stats.entries >= 2, "conf and conf→weather materialized");
        let before = shared.ledger();

        let mut second = TopKExecution::start(
            &plan,
            &w.schema,
            &w.registry,
            ExecContext::shared(Arc::clone(&shared)),
        )
        .expect("builds");
        let b = second.answers(usize::MAX >> 1);
        assert_eq!(a, b, "replayed prefix yields identical answers");
        assert_eq!(second.sub_result_hits(), 1);
        assert!(second.sub_result_calls_saved() > 0);
        // no-cache shared state: only the replay can explain the flat
        // call counts on the prefix services
        let after = shared.ledger();
        assert_eq!(
            after.calls_to(w.ids.conf),
            before.calls_to(w.ids.conf),
            "conf not re-invoked"
        );
        assert_eq!(
            after.calls_to(w.ids.weather),
            before.calls_to(w.ids.weather),
            "weather not re-invoked"
        );
        assert_eq!(shared.sub_result_stats().hits, 1);
        assert_eq!(
            shared.sub_result_stats().calls_saved,
            second.sub_result_calls_saved(),
            "per-execution attribution reconciles with the store"
        );
    }

    #[test]
    fn replay_shares_stored_rows_without_copying() {
        // materialize a prefix, then assert the replay path is zero-copy
        // end to end: the store hands out the same `Arc` of rows on
        // every resolution, and a same-variable-space subscriber's
        // replayed bindings share value storage with the stored ones
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let shared = Arc::new(
            crate::gateway::SharedServiceState::new(CacheSetting::NoCache, 0).with_sub_results(8),
        );
        let mut first = TopKExecution::start(
            &plan,
            &w.schema,
            &w.registry,
            ExecContext::shared(Arc::clone(&shared)),
        )
        .expect("builds");
        first.answers(usize::MAX >> 1);
        let sigs: Vec<SubplanSignature> =
            invoke_prefixes(&plan).iter().map(|p| p.signature).collect();
        let resolve = |shared: &SharedServiceState| {
            shared
                .resolve_prefixes(&sigs, false, false)
                .replay
                .expect("a prefix was materialized above")
        };
        let r1 = resolve(&shared);
        let r2 = resolve(&shared);
        assert!(!r1.rows.is_empty(), "the prefix produced rows");
        assert!(
            Arc::ptr_eq(&r1.rows, &r2.rows),
            "the store hands out one shared Arc, never a copied row set"
        );
        for (a, b) in r1.rows.iter().zip(r2.rows.iter()) {
            assert!(a.shares_storage(b), "per-row storage is shared too");
        }
        // the subscriber-facing fast path: same plan, same variable
        // space — replayed bindings ARE the stored bindings
        let info = analyze(&plan, &w.schema);
        let gateway = LocalGateway::new(
            ExecContext::shared(Arc::clone(&shared))
                .gateway(&plan, &w.schema, &w.registry)
                .expect("builds"),
        );
        let prep = prepare_shared_prefix(
            &plan,
            &w.schema,
            &info,
            &gateway,
            false,
            false,
            crate::operator::DEFAULT_BATCH,
        );
        let (_, mut op) = prep.override_op.expect("the materialized prefix replays");
        let replayed = op.next_binding().expect("has rows");
        assert!(
            replayed.shares_storage(&r1.rows[0]),
            "same-space replay emits Arc clones of the stored rows, not deep copies"
        );
    }

    #[test]
    fn disabled_store_changes_nothing() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        // default shared state: store capacity 0
        let shared = Arc::new(crate::gateway::SharedServiceState::new(
            CacheSetting::NoCache,
            0,
        ));
        let mut a = TopKExecution::start(
            &plan,
            &w.schema,
            &w.registry,
            ExecContext::shared(Arc::clone(&shared)),
        )
        .expect("builds");
        let one = a.next_answer();
        assert!(one.is_some());
        assert_eq!(a.sub_result_hits(), 0);
        let stats = shared.sub_result_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        // lazy as ever: one answer must not have drained the plan
        let mut full = TopKExecution::start(
            &plan,
            &w.schema,
            &w.registry,
            ExecContext::shared(Arc::new(crate::gateway::SharedServiceState::new(
                CacheSetting::NoCache,
                0,
            ))),
        )
        .expect("builds");
        full.answers(usize::MAX >> 1);
        assert!(
            a.total_calls() < full.total_calls(),
            "no eager materialization with the store off"
        );
    }

    #[test]
    fn standing_records_complete_frontier_and_shares_with_provenance() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let shared = Arc::new(
            crate::gateway::SharedServiceState::new(CacheSetting::Optimal, 0).with_sub_results(8),
        );
        // an ad-hoc run materializes prefixes into the store
        let mut adhoc = TopKExecution::start(
            &plan,
            &w.schema,
            &w.registry,
            ExecContext::shared(Arc::clone(&shared)),
        )
        .expect("builds");
        let expected = adhoc.answers(usize::MAX >> 1);
        assert!(shared.sub_result_stats().entries > 0);

        // the standing execution must not replay them — ad-hoc entries
        // carry no frontier, and its own frontier has to cover the
        // whole plan, prefix services included. It re-materializes the
        // levels itself (with provenance) instead.
        let mut standing = TopKExecution::start(
            &plan,
            &w.schema,
            &w.registry,
            ExecContext {
                frontier: true,
                ..ExecContext::shared(Arc::clone(&shared))
            },
        )
        .expect("builds");
        let got = standing.answers(usize::MAX >> 1);
        assert_eq!(
            got, expected,
            "same answers, provenance-less entries skipped"
        );
        assert_eq!(standing.sub_result_hits(), 0, "no frontier-less replay");
        let frontier = standing.frontier();
        assert!(!frontier.is_empty());
        let services: std::collections::HashSet<ServiceId> =
            frontier.iter().map(|inv| inv.service).collect();
        for id in [w.ids.conf, w.ids.weather, w.ids.flight, w.ids.hotel] {
            assert!(services.contains(&id), "frontier covers every service");
        }
        // a second standing run replays the frontier-carrying entry the
        // first one published, forwards nothing, and still records the
        // same complete frontier — the replayed entry's recorded
        // dependencies merge into it
        let mut warm = TopKExecution::start(
            &plan,
            &w.schema,
            &w.registry,
            ExecContext {
                frontier: true,
                ..ExecContext::shared(Arc::clone(&shared))
            },
        )
        .expect("builds");
        warm.answers(usize::MAX >> 1);
        assert_eq!(warm.total_calls(), 0, "fully replay/cache-served");
        assert_eq!(
            warm.sub_result_hits(),
            1,
            "frontier-carrying entries replay"
        );
        assert_eq!(
            frontier,
            warm.frontier(),
            "frontier is demand-identical, not forward-identical"
        );
    }

    #[test]
    fn elastic_mode_pages_beyond_fetch_factor() {
        let w = travel_world(2008);
        let mut plan = plan_o(&w);
        // F = 1 page per service; elastic mode may still fetch deeper
        plan.set_fetch(ATOM_FLIGHT, 1);
        plan.set_fetch(ATOM_HOTEL, 1);
        let mut strict = TopKExecution::start(
            &plan,
            &w.schema,
            &w.registry,
            ExecContext::private(CacheSetting::Optimal),
        )
        .expect("builds");
        let strict_all = strict.answers(100_000).len();
        let mut elastic = TopKExecution::start(
            &plan,
            &w.schema,
            &w.registry,
            ExecContext {
                elastic: true,
                ..ExecContext::private(CacheSetting::Optimal)
            },
        )
        .expect("builds");
        let elastic_all = elastic.answers(100_000).len();
        assert!(
            elastic_all >= strict_all,
            "elastic ({elastic_all}) ⊇ strict ({strict_all})"
        );
    }
}
