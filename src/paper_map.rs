//! # Paper → API map
//!
//! A reading companion: every concept, definition, equation, table and
//! figure of *Braga, Ceri, Daniel, Martinenghi: "Optimization of
//! Multi-Domain Queries on the Web" (VLDB 2008)* and the item that
//! implements it.
//!
//! ## §2 — Overview
//!
//! | Paper | Implementation |
//! |---|---|
//! | exact vs. search services (§2.1) | [`ServiceKind`](mdq_model::schema::ServiceKind) |
//! | access patterns (§2.1) | [`AccessPattern`](mdq_model::schema::AccessPattern) |
//! | erspi ξ, proliferative/selective (§2.1) | [`ServiceProfile`](mdq_model::schema::ServiceProfile) |
//! | bulk vs. chunked, chunk size (§2.1) | [`Chunking`](mdq_model::schema::Chunking) |
//! | query plans as DAGs (§2.2) | [`Plan`](mdq_plan::dag::Plan), executed via `mdq_exec::operator::compile_with` (crate-internal; shared subplans run once) |
//! | "plan execution can be continued" (§2.2) | [`TopKExecution`](mdq_exec::topk::TopKExecution) |
//! | query templates (§2.2) | [`QueryTemplate`](mdq_model::template::QueryTemplate), [`Mdq::prepare`](mdq_core::Mdq::prepare); on the serving side the plan resolver in [`mdq_runtime::plan_cache`] (one template → plan decision: LRU, single-flight optimize, failed memo) |
//! | sum cost metric (§2.3) | [`SumCost`](mdq_cost::metrics::SumCost) |
//! | request-response metric (§2.3) | [`RequestResponse`](mdq_cost::metrics::RequestResponse) |
//! | execution time metric (§2.3) | [`ExecutionTime`](mdq_cost::metrics::ExecutionTime) |
//! | bottleneck metric (§2.3, after \[16\]) | [`Bottleneck`](mdq_cost::metrics::Bottleneck) |
//! | time-to-screen metric (§2.3) | `mdq_cost::metrics::TimeToScreen` (crate-internal), one of [`all_metrics`](mdq_cost::metrics::all_metrics) |
//! | three-phase optimization (§2.4, Fig. 1) | [`optimize`](mdq_optimizer::bnb::optimize) |
//! | the running example (§2.5) | [`mdq_model::examples`], [`travel_world`](mdq_services::domains::travel::travel_world) |
//!
//! ## §3 — Formal model
//!
//! | Paper | Implementation |
//! |---|---|
//! | signatures `s^α(A1…An)` (§3.1) | [`ServiceSignature`](mdq_model::schema::ServiceSignature) |
//! | abstract domains (§3.1) | [`DomainInfo`](mdq_model::value::DomainInfo) |
//! | conjunctive queries, safety (§3.1) | [`ConjunctiveQuery`](mdq_model::query::ConjunctiveQuery) |
//! | datalog notation (Fig. 3) | [`parse_query`](mdq_model::parser::parse_query) |
//! | decay `d` (§3.1) | [`ServiceProfile::decay`](mdq_model::schema::ServiceProfile) |
//! | callable / executable / permissible (Def. 3.1) | [`mdq_model::binding`] |
//! | linear existence check (\[21\], §3.2) | [`find_permissible`](mdq_model::binding::find_permissible) |
//! | precedences `A ≺ B` (§3.3) | [`SupplierMap`](mdq_model::binding::SupplierMap) |
//! | `callable_Q(N)` (§3.3) | [`callable_after`](mdq_model::binding::callable_after) |
//! | visual plan syntax (Fig. 4) | [`mdq_plan::render`] |
//! | NL / merge-scan joins (Fig. 5, \[4\]) | [`NlJoin`](mdq_exec::joins::NlJoin), [`MsJoin`](mdq_exec::joins::MsJoin) |
//! | plan for the running example (Fig. 6) | `mdq-bench::experiments::fig8` |
//! | `t_in`/`t_out` annotation (§3.4, Fig. 8) | [`Estimator::annotate`](mdq_cost::estimate::Estimator::annotate), [`explain`](mdq_cost::explain::explain) |
//!
//! ## §4 — Branch and bound
//!
//! | Paper | Implementation |
//! |---|---|
//! | "bound is better", `⪰IO` (§4.1.1) | [`mdq_model::cogency`] |
//! | pattern-space exploration (§4.1.2) | `mdq_optimizer::phase1` (crate-internal) |
//! | "selective and parallel are better" (§4.2.1) | `mdq_optimizer::phase2::selective_serial` (crate-internal: the greedy chain phase 2 can seed its bound with), [`max_parallel_topology`](mdq_optimizer::phase2::max_parallel_topology) |
//! | incremental DAG construction (§4.2.2) | [`enumerate_topologies`](mdq_plan::poset::enumerate_topologies); each partial lowered by [`lower`](mdq_plan::builder::lower) into the search's [`CostContext`](mdq_optimizer::context::CostContext) workspace and priced there |
//! | the 19-plan space (Example 5.1) | [`all_topologies`](mdq_plan::poset::all_topologies), `tests/running_example.rs` |
//! | "greedy" / "square is better" (§4.3.1) | [`FetchHeuristic`](mdq_optimizer::phase3::FetchHeuristic) |
//! | dominance-pruned fetch space (§4.3.2) | [`optimize_fetches`](mdq_optimizer::phase3::optimize_fetches), each topology prepared once and priced per vector in the workspace |
//! | decay caps `⌈d/cs⌉` (§4.3.2) | [`ServiceSignature::max_fetches_from_decay`](mdq_model::schema::ServiceSignature::max_fetches_from_decay) |
//!
//! ## §5 — Execution settings and costs
//!
//! | Paper | Implementation |
//! |---|---|
//! | service registration / profiling (§5) | [`mdq_services::profiler`] |
//! | execution environment (§5) | the [operator kernel](mdq_exec::operator): [`Invoke`](mdq_exec::operator::Invoke) / [`Join`](mdq_exec::operator::Join) / `Filter` / `Select` (crate-internal) over one [`ServiceGateway`](mdq_exec::gateway::ServiceGateway), built from the driver's [`ExecContext`](mdq_exec::ExecContext) (private cache setting or cross-query shared state, budget, tenant, frontier, re-planner) |
//! | "units of work" between operators (§5), batched | [`Operator::next_batch`](mdq_exec::operator::Operator::next_batch) over [`Batch`](mdq_exec::operator::Batch)es of `Arc`-shared [`Binding`](mdq_exec::binding::Binding)s; demand-exact, so §5's per-call pricing is unchanged at any batch size (`tests/executor_equivalence.rs`) |
//! | multi-threading (§5) | [`StageModel::ParallelDispatch`](mdq_exec::pipeline::StageModel), in virtual time |
//! | threads share §5.1 state without serializing on it | the sharded page cache + per-gateway [`accounting cells`](mdq_exec::gateway::SharedServiceState) — `crates/bench/benches/contention.rs` → `BENCH_contention.json` |
//! | page-fetch runs (chunked services, §5.1) | [`ServiceGateway::fetch_page_run`](mdq_exec::gateway::ServiceGateway::fetch_page_run): consecutive cached pages under one shard lock, at most one forwarded call |
//! | no / one-call / optimal cache (§5.1) | [`PageCache`](mdq_exec::cache::PageCache) (inside the gateway), [`CacheSetting`](mdq_cost::estimate::CacheSetting) |
//! | Eq. 1 (no-cache tout) / Eq. 2 (`N(n)` minimal contributors) (§5.2) | [`Estimator::facts`](mdq_cost::estimate::Estimator::facts) (once per query) + [`Estimator::prepare_from`](mdq_cost::estimate::Estimator::prepare_from) (carrier sets, σ products, once per plan) + [`PreparedPlan::evaluate`](mdq_cost::estimate::PreparedPlan::evaluate) (per fetch vector); [`Estimator::annotate`](mdq_cost::estimate::Estimator::annotate) is the one-shot form |
//! | Eq. 3 (SCM) | [`SumCost`](mdq_cost::metrics::SumCost) |
//! | Eq. 4 (ETM; see the monotonicity erratum) | [`ExecutionTime`](mdq_cost::metrics::ExecutionTime) |
//! | Eq. 6 closed form (§5.3.1) | [`closed_form_pair`](mdq_optimizer::phase3::closed_form_pair) |
//!
//! ## §6 — Experiments
//!
//! | Paper | Implementation |
//! |---|---|
//! | wrapped services, profiles (Table 1) | [`travel_world`](mdq_services::domains::travel::travel_world), `mdq-bench::experiments::table1` |
//! | plans S / P / O, cache matrix (Fig. 11) | `mdq-bench::experiments::fig11` |
//! | answer screenshot (Fig. 10) | [`result_table`](mdq_exec::results::result_table) |
//! | multithreading test | [`StageModel::ParallelDispatch`](mdq_exec::pipeline::StageModel): [`pipeline::run`](mdq_exec::pipeline::run)'s stage mode with each invoke's input shuffled, timed by the parallel stage-time model |
//! | protein/bibliographic domains | [`mdq_services::domains::protein`], [`mdq_services::domains::bibliography`] |
//!
//! ## §7 — Related work turned feature
//!
//! | Paper | Implementation |
//! |---|---|
//! | WSMS baseline (\[16\]) | [`wsms_baseline`](mdq_optimizer::baseline_wsms::wsms_baseline) |
//! | off-query expansion (`oldTown(City)`) | [`expand_for_executability`](mdq_optimizer::expansion::expand_for_executability) |
//!
//! ## Beyond the paper — the serving layer
//!
//! The paper runs one query at a time; the ROADMAP's production goal
//! adds a concurrent serving layer following Roy et al.'s multi-query
//! optimization line (see PAPERS.md):
//!
//! | Concept | Implementation |
//! |---|---|
//! | "optimization is performed for each query template" (§2.2), across users | [`fingerprint`](mdq_model::fingerprint::fingerprint) + the [`PlanCache`](mdq_runtime::plan_cache::PlanCache) |
//! | concurrent multi-query server | [`QueryServer`](mdq_runtime::server::QueryServer) (worker pool, streaming [`QuerySession`](mdq_runtime::session::QuerySession)s) |
//! | §5.1 cache, amortized across a workload | [`SharedServiceState`](mdq_exec::gateway::SharedServiceState) (single-flight, per-service concurrency limits, bounded via [`RuntimeConfig::page_cache_entries`](mdq_runtime::server::RuntimeConfig)) |
//! | admission control | [`RuntimeConfig::call_budget`](mdq_runtime::server::RuntimeConfig), [`ExecError::CallBudgetExhausted`](mdq_exec::operator::ExecError) |
//! | observability | [`MetricsSnapshot`](mdq_runtime::metrics::MetricsSnapshot) (QPS, hit rates, per-service calls *and* latency, latency histogram) |
//! | §5's per-call pricing, shared across queries (Roy et al.'s common-subexpression materialization) | [`subplan_signature`](mdq_model::fingerprint::subplan_signature) / [`invoke_prefixes`](mdq_plan::signature::invoke_prefixes) keying the sub-result store in [`SharedServiceState`](mdq_exec::gateway::SharedServiceState) ([`SubResultStats`](mdq_exec::gateway::SubResultStats)) |
//! | costing that knows what is already paid for | [`SharedWorkOracle`](mdq_cost::shared::SharedWorkOracle) + [`discount_materialized`](mdq_cost::shared::discount_materialized), consulted by [`optimize_shared`](mdq_optimizer::bnb::optimize_shared) and the adaptive [`OptimizerReplanner`](mdq_core::OptimizerReplanner); standalone [`optimize`](mdq_optimizer::bnb::optimize) carries no oracle and signs no prefix |
//! | batch admission: plan a burst as one unit | [`RuntimeConfig::batch_window`](mdq_runtime::server::RuntimeConfig), [`QueryStats::shared_prefix_hit`](mdq_runtime::session::QueryStats), [`MetricsSnapshot::shared_prefix_hits`](mdq_runtime::metrics::MetricsSnapshot) / [`sub_result_hits`](mdq_runtime::metrics::MetricsSnapshot::sub_result_hits) / [`sub_result_calls_saved`](mdq_runtime::metrics::MetricsSnapshot::sub_result_calls_saved) |
//!
//! ## Beyond the paper — the fault model
//!
//! §6 wraps live 2008 web sites whose real-world behaviour includes
//! error pages, timeouts, throttling and latency spikes; the engine the
//! paper describes simply assumes they answer. The fault model makes
//! that unreliability a first-class, deterministically testable
//! scenario:
//!
//! | Concept | Implementation |
//! |---|---|
//! | wrapped services misbehave (errors/timeouts/throttling/spikes) | [`ServiceFault`](mdq_services::service::ServiceFault), [`Service::try_fetch`](mdq_services::service::Service::try_fetch), [`FaultProfile`](mdq_services::fault::FaultProfile) (seeded [`FaultConfig`](mdq_services::fault::FaultConfig) / scripted [`FaultPlan`](mdq_services::fault::FaultPlan)) |
//! | bounded retries with deterministic backoff accounting | [`RetryPolicy`](mdq_exec::gateway::RetryPolicy) in the gateway (call-budget aware; `retry_after` respected) |
//! | degraded services surface, queries survive | [`PartialResults`](mdq_exec::gateway::PartialResults) / [`DegradedService`](mdq_exec::gateway::DegradedService) on every driver's report, [`QueryStats::degraded_services`](mdq_runtime::session::QueryStats) per session |
//! | failed pages never poison caches or waiters | the failed-page memo in [`SharedServiceState`](mdq_exec::gateway::SharedServiceState) (single-flight waiters wake with the error) |
//! | chaos accounting | [`FaultStats`](mdq_exec::gateway::FaultStats), the retry/timeout/rate-limit/partial counters of [`MetricsSnapshot`](mdq_runtime::metrics::MetricsSnapshot) |
//! | §5 registration samples real behaviour | [`ProfileReport::failure_rate`](mdq_services::profiler::ProfileReport) via `try_fetch`, installed into [`ServiceProfile::failure_rate`](mdq_model::schema::ServiceProfile) |
//! | re-planning penalizes flaky services | [`ServiceProfile::effective_response_time`](mdq_model::schema::ServiceProfile::effective_response_time) (`τ / (1−φ)`) consumed by every time-based [cost metric](mdq_cost::metrics) |
//!
//! ## Beyond the paper — adaptive mid-flight re-optimization
//!
//! The paper's cost model (§2.3, §5.2–5.3) consumes statistics sampled
//! at registration time and §5 prescribes periodic re-estimation; the
//! adaptive layer closes that loop *during* execution, re-running the
//! optimizer over the unexecuted plan suffix when observations drift
//! (the multi-query reuse of already-materialized sub-results follows
//! Roy et al., see PAPERS.md):
//!
//! | Concept | Implementation |
//! |---|---|
//! | estimated profiles ξ/τ/φ (§5, Table 1) vs. live observations | [`ObservedService`](mdq_cost::divergence::ObservedService), exported by [`ServiceGateway::ledger`](mdq_exec::gateway::ServiceGateway::ledger) / [`SharedServiceState::observed_snapshot`](mdq_exec::gateway::SharedServiceState::observed_snapshot) |
//! | when is the drift worth acting on | [`diverging_services`](mdq_cost::divergence::diverging_services) under an [`AdaptiveConfig`](mdq_cost::divergence::AdaptiveConfig) |
//! | §5 "periodic re-estimation", without a sampling pass | [`refresh_profiles`](mdq_cost::divergence::refresh_profiles), [`Mdq::seed_profiles_from_observed`](mdq_core::Mdq::seed_profiles_from_observed) |
//! | re-optimizing the unexecuted suffix (patterns/order/fetches of executed stages frozen) | [`reoptimize_suffix_in`](mdq_optimizer::replan::reoptimize_suffix_in), pinning executed positions in `mdq_optimizer::phase3::optimize_fetches_pinned` (crate-internal) |
//! | suspension points + plan splice in the driver | a re-planner in [`ExecContext::adaptive`](mdq_exec::ExecContext::adaptive): one splice routine, reached after every forced invoke stage in [`pipeline::run`](mdq_exec::pipeline::run)'s stage mode and between answers in [`TopKExecution`](mdq_exec::topk::TopKExecution)'s pull mode |
//! | a re-plan never repeats a paid-for call | the §5.1 [`PageCache`](mdq_exec::cache::PageCache) replay across splices (`tests/adaptive_replan.rs`) |
//! | the optimizer-backed re-planner | [`OptimizerReplanner`](mdq_core::OptimizerReplanner), [`Mdq::run_adaptive`](mdq_core::Mdq::run_adaptive) |
//! | serving policy, per-query accounting, plan publication | [`RuntimeConfig::adaptive`](mdq_runtime::server::RuntimeConfig), [`QueryStats::replans`](mdq_runtime::session::QueryStats), [`MetricsSnapshot::replans`](mdq_runtime::metrics::MetricsSnapshot) |
//! | the mis-estimated evaluation workload | [`catalog_world`](mdq_services::domains::catalog::catalog_world), `crates/bench/benches/adaptive.rs` → `BENCH_adaptive.json` |
//!
//! ## Beyond the paper — standing queries
//!
//! §6 evaluates against live 2008 web services whose data moves
//! (flight prices, weather); the paper's engine sees each query's
//! world exactly once. The standing-query layer keeps registered
//! queries current by polling — the paper's services offer no
//! changefeed — and turns page-set changes into incremental deltas:
//!
//! | Concept | Implementation |
//! |---|---|
//! | refresh epochs | [`EpochClock`](mdq_services::refresh::EpochClock); each tracked invocation records the epoch its pages were read at |
//! | freshness TTL | [`RefreshPolicy`](mdq_services::refresh::RefreshPolicy) (staleness in epochs) |
//! | one shared polling pass re-fetches due invocations | [`QueryServer::refresh`](mdq_runtime::server::QueryServer::refresh) over the subscriptions' one tracked-invocation table ([`RefreshSummary`](mdq_runtime::subscribe::RefreshSummary) says what changed) |
//! | the pages a standing query depends on | a [`TopKExecution`](mdq_exec::topk::TopKExecution) started with [`ExecContext::frontier`](mdq_exec::ExecContext::frontier) records the frontier; [`SharedServiceState::pin_invocation`](mdq_exec::gateway::SharedServiceState::pin_invocation) shields it from LRU eviction |
//! | subscriptions + delta computation | [`mdq_runtime::subscribe`] on [`QueryServer::subscribe`](mdq_runtime::server::QueryServer::subscribe) / [`refresh`](mdq_runtime::server::QueryServer::refresh) / [`poll_deltas`](mdq_runtime::server::QueryServer::poll_deltas), emitting [`Delta`](mdq_runtime::subscribe::Delta)s |
//! | deltas over the wire | `SUBSCRIBE` / `DELTA` / `SYNCED` / `REFRESHED` frames in [`mdq_runtime::net`] |
//! | a drifting-but-deterministic world to test against | [`RefreshingSource`](mdq_services::refresh::RefreshingSource), [`refreshing_registry`](mdq_services::refresh::refreshing_registry) |
//! | refresh as a parallel pipeline (snapshot / fetch & evaluate / commit) | [`QueryServer::refresh`](mdq_runtime::server::QueryServer::refresh) fans the pass across [`RuntimeConfig::refresh_workers`](mdq_runtime::server::RuntimeConfig::refresh_workers) threads — delta streams byte-identical at every worker count |
//! | standing re-evaluations share work through the sub-result store | a frontier-recording [`TopKExecution`](mdq_exec::topk::TopKExecution) replays/publishes frontier-carrying entries; [`SharedServiceState::retain_sub_results`](mdq_exec::gateway::SharedServiceState::retain_sub_results) keeps epoch-unchanged entries instead of wiping |
//! | the delta-vs-rerun oracle | `tests/standing_queries.rs` (byte-identical folds, ≥ 3× fewer calls), `tests/subscription_chaos.rs`, `crates/bench/benches/standing.rs` → `BENCH_standing.json`, `crates/bench/benches/standing_scale.rs` → `BENCH_standing_scale.json` |
//!
//! Deviations and errata discovered during implementation are catalogued
//! in `EXPERIMENTS.md` at the workspace root.
