//! Standing queries: register a conjunctive query once, receive
//! incremental deltas as the world refreshes.
//!
//! A subscription is an ad-hoc query that never finishes: the
//! crate-internal `SubscriptionManager` (driven through
//! [`QueryServer::subscribe`](crate::server::QueryServer::subscribe))
//! materializes its answers once through a
//! frontier-recording execution ([`ExecContext::frontier`]) and tracks
//! every invocation the execution touched in one table: a refcount of
//! the frontiers covering it, and the pages the subscription read (the
//! shared page cache's own snapshot). The first ref pins the page-cache
//! entry and the last ref unpins it, so *tracked ⟺ cache-pinned* is the
//! only invariant to keep. A refresh pass then advances the epoch,
//! re-fetches due invocations *once* for all subscriptions, installs
//! the changed page sets into the shared cache, and re-evaluates only
//! the subscriptions whose frontier intersects the changed set —
//! emitting each one a [`Delta`] (added/retracted answer rows) instead
//! of a full answer stream.
//!
//! The refresh pass's fetch loop and the gateway are the only places a
//! standing query calls a service, and neither runs under the state
//! lock. An invocation the cache holds no snapshot of (a degraded first
//! page, an evicted entry, a cache that keeps nothing) starts tracked
//! with no pages and is due at the next pass, which reads it whole.
//!
//! A refresh pass runs as a three-phase pipeline:
//!
//! ```text
//!   snapshot ── state lock ── due re-fetches + subscription snapshots
//!      │
//!   fetch ──── lock-free ─── due re-fetches fanned across
//!      │                     `refresh_workers` threads; outcomes
//!      │                     merged in pass order (brief lock),
//!      │                     changed pages installed, sub-results
//!      │                     retained/dropped per epoch scope
//!      │
//!   evaluate ─ lock-free ─── affected subscriptions (dirty or
//!      │                     frontier ∩ changed ≠ ∅) re-run
//!      │                     concurrently; overlapping invoke
//!      │                     prefixes shared through the
//!      │                     sub-result store (batch MQO decision)
//!      │
//!   commit ─── state lock ── in subscription-id order: swap
//!                            answers/frontiers, adjust tracking,
//!                            queue Delta { added, retracted }
//! ```
//!
//! The determinism contract: every phase is a barrier, re-fetches touch
//! distinct invocations, drift/fault schedules are identity-hashed
//! (order-independent), page-shard and sub-result single-flight make
//! the total forwarded calls worker-count-invariant, and the commit
//! applies outcomes in subscription-id order under the lock — so delta
//! streams and refresh summaries are byte-identical at any
//! `refresh_workers` setting, healthy or faulted. Registration
//! (subscribe/unsubscribe) serializes against whole passes on the pass
//! gate, while polls and answer reads take only the state lock — which
//! the pipeline holds just for its snapshot and commit phases — so the
//! wire stays responsive during a slow pass.
//!
//! The soundness invariant behind "unaffected subscriptions do zero
//! work": every frontier invocation is re-fetched when due, so an
//! unchanged frontier means a re-evaluation would read byte-identical
//! pages and produce byte-identical answers — skipping it loses
//! nothing. The delta-vs-rerun oracle suite pins exactly this. The one
//! exception is a subscription whose *last* evaluation failed (budget,
//! hard fault) or was served a degraded page: its answers lag pages
//! already installed in the cache, or were read around a page that
//! never arrived, so it is marked dirty and re-evaluated on every pass
//! — frontier intersection or not — until an evaluation succeeds whole
//! and the fold-to-current-answers invariant holds again.
//!
//! Access control: subscriptions belong to the tenant that registered
//! them. Polling (destructive — it drains the queue), current-answer
//! reads and unsubscription all require the owning tenant, or a tenant
//! whose policy carries the operator flag.

use crate::metrics::Metrics;
use mdq_cost::shared::SharedWorkOracle;
use mdq_exec::gateway::{SharedServiceState, TenantId};
use mdq_exec::store::recover;
use mdq_exec::topk::TopKExecution;
use mdq_exec::ExecContext;
use mdq_model::fingerprint::SubplanSignature;
use mdq_model::schema::Schema;
use mdq_model::value::Tuple;
use mdq_obs::span::SpanKind;
use mdq_plan::dag::Plan;
use mdq_plan::signature::invoke_prefixes;
use mdq_services::refresh::{Epoch, EpochClock, InvocationKey, RefreshPolicy};
use mdq_services::registry::ServiceRegistry;
use mdq_services::service::Service;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a new subscription hands back: the id to poll with, the epoch
/// the initial answers were materialized at, and the answers
/// themselves (rank order).
#[derive(Clone, Debug)]
pub struct SubscriptionTicket {
    /// The subscription id (server-unique, monotonically assigned).
    pub id: u64,
    /// The epoch the initial answers reflect.
    pub epoch: Epoch,
    /// The initial answers, in rank order.
    pub answers: Vec<Tuple>,
}

/// One incremental update to a subscription's answer set, produced by
/// a refresh pass. Folding every delta (in order) into the initial
/// answers reproduces the subscription's current answers exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    /// The epoch this delta brings the subscriber to.
    pub epoch: Epoch,
    /// Answer rows that appeared, sorted.
    pub added: Vec<Tuple>,
    /// Answer rows that disappeared, sorted.
    pub retracted: Vec<Tuple>,
}

/// What one [`QueryServer::refresh`] pass did, across the tracked
/// invocations and every subscription.
///
/// [`QueryServer::refresh`]: crate::server::QueryServer::refresh
#[derive(Clone, Debug, Default)]
pub struct RefreshSummary {
    /// The epoch the pass advanced the clock to.
    pub epoch: Epoch,
    /// Tracked invocations re-fetched (due per the policy).
    pub refreshed: u64,
    /// Tracked invocations still within TTL, skipped.
    pub skipped: u64,
    /// Request-response attempts the pass's re-fetches issued (retries
    /// included).
    pub calls: u64,
    /// Invocations whose page sets changed.
    pub invocations_changed: u64,
    /// Pages that differ from their stale predecessors, summed.
    pub pages_changed: u64,
    /// Invocations whose refresh exhausted its retries (stale pages
    /// kept) plus subscription re-evaluations that errored.
    pub failed: u64,
    /// Subscriptions whose frontier intersected the changed set and
    /// were re-evaluated.
    pub subscriptions_evaluated: u64,
    /// Deltas queued to subscribers (re-evaluations whose answers
    /// actually differed).
    pub deltas_emitted: u64,
    /// Answer rows added across all deltas.
    pub rows_added: u64,
    /// Answer rows retracted across all deltas.
    pub rows_retracted: u64,
    /// Materialized sub-result entries the pass kept alive because
    /// every invocation they depend on came through the epoch
    /// unchanged (instead of the pre-pipeline wholesale wipe).
    pub sub_results_retained: u64,
}

/// Fences a subscription's answers and frontier off from the rest of
/// this file: outside this module they can be read and
/// [`commit`](Current::commit)ted, never assigned.
mod current {
    use super::{HashSet, InvocationKey, Tuple};

    /// What a subscription's last successful evaluation produced.
    /// `commit` is the only way to change it, so the refresh pass's
    /// commit phase — under the state lock, in subscription-id order —
    /// is the single place answers and frontiers move. That is what
    /// makes delta streams byte-identical at every `refresh_workers`
    /// setting.
    pub(super) struct Current {
        answers: Vec<Tuple>,
        frontier: HashSet<InvocationKey>,
    }

    impl Current {
        pub(super) fn new(answers: Vec<Tuple>, frontier: HashSet<InvocationKey>) -> Self {
            Current { answers, frontier }
        }

        /// Current answers, in rank order (the fold target of the
        /// queued deltas).
        pub(super) fn answers(&self) -> &[Tuple] {
            &self.answers
        }

        /// The invocations the last evaluation touched.
        pub(super) fn frontier(&self) -> &HashSet<InvocationKey> {
            &self.frontier
        }

        /// The commit-phase swap: a re-evaluation's answers and
        /// frontier replace the current ones together.
        pub(super) fn commit(&mut self, answers: Vec<Tuple>, frontier: HashSet<InvocationKey>) {
            self.answers = answers;
            self.frontier = frontier;
        }
    }
}
use current::Current;

/// One registered standing query.
struct Subscription {
    tenant: TenantId,
    plan: Arc<Plan>,
    /// The plan's invoke-prefix signatures (level 1 first), computed
    /// once at registration — what the per-pass batch MQO decision and
    /// the live-overlap check at subscribe time key on.
    prefix_sigs: Arc<Vec<SubplanSignature>>,
    k: u64,
    /// Current answers and the frontier they were read through.
    current: Current,
    /// Deltas queued since the last poll, in epoch order.
    queued: Vec<Delta>,
    /// The last evaluation failed or was served a degraded page: the
    /// answers lag pages already installed in the cache, or are
    /// partial. Re-evaluate on every pass (frontier intersection or
    /// not) until one succeeds whole.
    dirty: bool,
}

/// Why [`SubscriptionManager::subscribe`] refused a registration.
pub(crate) enum SubscribeError {
    /// The tenant is at its standing-query cap.
    CapReached {
        /// The tenant's live subscriptions at refusal time.
        active: usize,
    },
    /// The materializing evaluation failed.
    Eval(String),
}

/// Fetch attempts a refresh re-fetch makes per page before it gives up
/// and keeps the invocation's stale pages whole.
const REFRESH_ATTEMPTS: u32 = 4;

/// One invocation some live subscription read.
struct Tracked {
    /// Live subscription frontiers covering the invocation.
    refs: u32,
    service: Arc<dyn Service>,
    /// The pages as last read — the cache's snapshot when tracking
    /// began, then each changed re-fetch, and the cache's again when an
    /// evaluation reads deeper: the baseline the next re-fetch is
    /// diffed against, and the depth it re-demands. Empty until a read
    /// succeeds.
    pages: Vec<Vec<Tuple>>,
    /// Whether the service reported no page after the last.
    exhausted: bool,
    /// The epoch `pages` were last confirmed at.
    read_at: Epoch,
}

/// The mutable core: subscriptions and the invocations they read.
struct SubState {
    policy: RefreshPolicy,
    next_id: u64,
    /// `BTreeMap` so refresh passes visit subscriptions in id order —
    /// deterministic delta streams for seeded replay assertions.
    subs: BTreeMap<u64, Subscription>,
    /// Every invocation a live subscription's frontier covers. An entry
    /// exists iff its page-cache entry is pinned.
    tracked: HashMap<InvocationKey, Tracked>,
    /// How many live subscriptions' plans carry each invoke-prefix
    /// signature — the "someone else wants this prefix" evidence the
    /// subscribe-time materialization decision consults.
    sig_refs: HashMap<SubplanSignature, u32>,
}

/// Everything a subscription operation needs from the server.
pub(crate) struct EngineCtx<'a> {
    pub(crate) schema: &'a Schema,
    pub(crate) registry: &'a ServiceRegistry,
    pub(crate) shared: &'a Arc<SharedServiceState>,
    pub(crate) metrics: &'a Metrics,
}

/// The server's standing-query registry: subscriptions, the
/// invocations their frontiers pin, and the refresh pass over them.
/// One per [`QueryServer`].
///
/// [`QueryServer`]: crate::server::QueryServer
pub(crate) struct SubscriptionManager {
    /// The epoch clock, behind its own lock so per-query epoch stamps
    /// never wait on a refresh pass holding the state lock.
    clock: Mutex<Arc<EpochClock>>,
    /// The pass gate, held for the whole duration of a refresh pass.
    /// Registration (subscribe/unsubscribe/attach) serializes on it, so
    /// the subscription set and TTL policy are stable across a pass;
    /// polls and answer reads deliberately do *not* take it — they wait
    /// only on the state lock, which the pipeline holds just for its
    /// snapshot and commit phases. Lock order is always pass → state.
    pass: Mutex<()>,
    state: Mutex<SubState>,
}

impl SubscriptionManager {
    pub(crate) fn new() -> Self {
        SubscriptionManager {
            clock: Mutex::new(EpochClock::new()),
            pass: Mutex::new(()),
            state: Mutex::new(SubState {
                policy: RefreshPolicy::every(1),
                next_id: 1,
                subs: BTreeMap::new(),
                tracked: HashMap::new(),
                sig_refs: HashMap::new(),
            }),
        }
    }

    /// Installs the clock the refreshing services drift on and the TTL
    /// policy refresh passes consult. Without this call the manager
    /// runs its own private clock with a TTL of 1 epoch.
    pub(crate) fn attach(&self, clock: Arc<EpochClock>, policy: RefreshPolicy) {
        let _pass = recover(self.pass.lock());
        *recover(self.clock.lock()) = clock;
        recover(self.state.lock()).policy = policy;
    }

    /// The current epoch.
    pub(crate) fn epoch(&self) -> Epoch {
        recover(self.clock.lock()).now()
    }

    /// Live subscriptions.
    pub(crate) fn active(&self) -> u64 {
        recover(self.state.lock()).subs.len() as u64
    }

    /// The current answers of subscription `id` (rank order), if
    /// `caller` owns it (or is an operator). A foreign id answers
    /// `None` — indistinguishable from an unknown one, so ids cannot
    /// be probed across tenants.
    pub(crate) fn answers(&self, id: u64, caller: TenantId, operator: bool) -> Option<Vec<Tuple>> {
        recover(self.state.lock())
            .subs
            .get(&id)
            .filter(|s| operator || s.tenant == caller)
            .map(|s| s.current.answers().to_vec())
    }

    /// Drains the queued deltas of subscription `id` (`None` = unknown
    /// id *or* an id `caller` neither owns nor may operate on; an
    /// empty vec = known but nothing new). The drain is destructive,
    /// so the ownership check is what keeps one tenant from stealing
    /// another's delta stream — ids are sequential and guessable.
    pub(crate) fn poll(&self, id: u64, caller: TenantId, operator: bool) -> Option<Vec<Delta>> {
        recover(self.state.lock())
            .subs
            .get_mut(&id)
            .filter(|s| operator || s.tenant == caller)
            .map(|s| std::mem::take(&mut s.queued))
    }

    /// Registers a standing query: materializes its answers through a
    /// frontier-recording execution and tracks every touched
    /// invocation (pinning it in the shared page cache).
    ///
    /// Holds the pass gate across the materializing execution so a
    /// concurrent refresh pass cannot invalidate the pages between the
    /// drain and the pin — subscribes serialize against refreshes, not
    /// against ad-hoc queries. The state lock is not held while the
    /// execution fetches, so polls stay responsive.
    ///
    /// `cap` bounds the tenant's live subscriptions (`0` = unlimited);
    /// the check runs under the pass gate, which every registration
    /// takes, so concurrent subscribes cannot race past it. `budget`
    /// caps the forwarded calls of the
    /// materializing evaluation — the same admission lever ad-hoc
    /// queries get, so `SUBSCRIBE` is not a budget-less execution.
    pub(crate) fn subscribe(
        &self,
        ctx: &EngineCtx<'_>,
        plan: &Arc<Plan>,
        k: u64,
        tenant: TenantId,
        cap: usize,
        budget: Option<u64>,
    ) -> Result<SubscriptionTicket, SubscribeError> {
        let _pass = recover(self.pass.lock());
        // materialize the plan's invoke prefixes into the sub-result
        // store only on sharing evidence: another live subscription
        // carries the signature (its re-evaluations will replay it) or
        // the store already holds it — the same batch-MQO rule the
        // admission batcher applies to one-shot bursts
        let prefix_sigs: Arc<Vec<SubplanSignature>> =
            Arc::new(invoke_prefixes(plan).iter().map(|p| p.signature).collect());
        let materialize = {
            let st = recover(self.state.lock());
            if cap > 0 {
                let active = st.subs.values().filter(|s| s.tenant == tenant).count();
                if active >= cap {
                    return Err(SubscribeError::CapReached { active });
                }
            }
            prefix_sigs
                .iter()
                .any(|sig| st.sig_refs.contains_key(sig) || ctx.shared.is_materialized(*sig))
        };
        let epoch = self.epoch();
        let (answers, frontier, degraded) =
            evaluate(ctx, plan, k, tenant, budget, materialize).map_err(SubscribeError::Eval)?;
        let mut st = recover(self.state.lock());
        for key in &frontier {
            st.track(ctx, key, epoch);
        }
        for sig in prefix_sigs.iter() {
            *st.sig_refs.entry(*sig).or_insert(0) += 1;
        }
        let id = st.next_id;
        st.next_id += 1;
        st.subs.insert(
            id,
            Subscription {
                tenant,
                plan: Arc::clone(plan),
                prefix_sigs,
                k,
                current: Current::new(answers.clone(), frontier),
                queued: Vec::new(),
                dirty: degraded,
            },
        );
        ctx.metrics
            .subscriptions_active
            .store(st.subs.len() as u64, Ordering::Relaxed);
        Ok(SubscriptionTicket { id, epoch, answers })
    }

    /// Deregisters subscription `id`, untracking (and unpinning) every
    /// frontier invocation no other subscription still covers. Queued
    /// deltas are dropped. Returns whether the id was known *and* owned
    /// by `caller` (operators may deregister any subscription).
    pub(crate) fn unsubscribe(
        &self,
        ctx: &EngineCtx<'_>,
        id: u64,
        caller: TenantId,
        operator: bool,
    ) -> bool {
        let _pass = recover(self.pass.lock());
        let mut st = recover(self.state.lock());
        match st.subs.get(&id) {
            Some(sub) if operator || sub.tenant == caller => {}
            _ => return false,
        }
        let sub = st.subs.remove(&id).expect("checked above");
        for key in sub.current.frontier() {
            st.untrack(ctx, key);
        }
        for sig in sub.prefix_sigs.iter() {
            if let Some(n) = st.sig_refs.get_mut(sig) {
                *n -= 1;
                if *n == 0 {
                    st.sig_refs.remove(sig);
                }
            }
        }
        ctx.metrics
            .subscriptions_active
            .store(st.subs.len() as u64, Ordering::Relaxed);
        true
    }

    /// One refresh pass, run as the three-phase pipeline described in
    /// the module docs: **snapshot** (state lock: advance the epoch,
    /// list the due re-fetches, snapshot the subscriptions), **fetch &
    /// evaluate** (lock-free: fan re-fetches and affected
    /// re-evaluations across `workers` threads, merge deterministically,
    /// install changed pages, retain epoch-valid sub-results), and
    /// **commit** (state lock, subscription-id order: swap
    /// answers/frontiers, adjust tracking, queue deltas). Holds the pass
    /// gate throughout, so registrations serialize against the pass
    /// while polls stay responsive.
    pub(crate) fn refresh(&self, ctx: &EngineCtx<'_>, workers: usize) -> RefreshSummary {
        let started = Instant::now();
        let workers = workers.max(1);
        let _pass = recover(self.pass.lock());

        // ---- phase 1: snapshot (state lock) ----
        let snapshot_started = Instant::now();
        let (epoch, due, skipped, snaps) = {
            let st = recover(self.state.lock());
            let epoch = recover(self.clock.lock()).advance();
            let (due, skipped) = st.due(epoch);
            // BTreeMap iteration: snapshots ascend by id, so every
            // later per-sub stage inherits deterministic order
            let snaps: Vec<SubSnapshot> = st
                .subs
                .iter()
                .map(|(&id, s)| SubSnapshot {
                    id,
                    plan: Arc::clone(&s.plan),
                    prefix_sigs: Arc::clone(&s.prefix_sigs),
                    k: s.k,
                    tenant: s.tenant,
                    dirty: s.dirty,
                    frontier: s.current.frontier().clone(),
                    answers: s.current.answers().to_vec(),
                })
                .collect();
            (epoch, due, skipped, snaps)
        };
        let refetches = due.len() as u64;
        // stale-state hygiene before anything re-reads the cache: an
        // unpinned page or a condemned page embeds the previous epoch
        // and would leak it into answers (the page shards have their
        // own locks — no state lock needed)
        ctx.shared.invalidate_unpinned_pages();
        ctx.shared.clear_failed_pages();
        phase_span(ctx, epoch, "snapshot", refetches, snapshot_started);

        // ---- phase 2a: fetch (lock-free fan-out) ----
        let fetch_started = Instant::now();
        let outcomes = fan_out(&due, workers, Refetch::run);
        // outcomes arrive back in pass order, so the merged summary is
        // byte-identical to a single-threaded pass
        let mut summary = RefreshSummary {
            epoch,
            skipped,
            ..RefreshSummary::default()
        };
        let fresh = recover(self.state.lock()).apply(epoch, due, outcomes, &mut summary);
        let mut changed: HashSet<InvocationKey> = HashSet::with_capacity(fresh.len());
        for (key, pages, exhausted) in fresh {
            ctx.shared
                .install_invocation(key.service, &key.inputs, pages, exhausted);
            changed.insert(key);
        }
        // epoch-scoped sub-result invalidation: an entry survives iff
        // every invocation it was computed from is still pinned (its
        // pages were shielded from the hygiene wipe above) and came
        // through this pass unchanged (skipped-within-TTL and
        // failed-stale-kept invocations leave the cached bytes as they
        // were) — such an entry replays byte-identically at the new
        // epoch. Everything else would resurrect a previous epoch and
        // is dropped, as the pre-pipeline wholesale wipe dropped all.
        // The tracked table is read in place under a brief state lock:
        // the pass gate keeps it unchanged until this pass's own commit.
        let (_, sub_results_retained) = {
            let st = recover(self.state.lock());
            ctx.shared.retain_sub_results(|frontier| {
                frontier
                    .iter()
                    .all(|inv| st.tracked.contains_key(inv) && !changed.contains(inv))
            })
        };
        ctx.metrics
            .refresh_fetch_buckets
            .observe(fetch_started.elapsed().as_secs_f64());
        phase_span(ctx, epoch, "fetch", refetches, fetch_started);

        // ---- phase 2b: evaluate (lock-free fan-out) ----
        let evaluate_started = Instant::now();
        let affected: Vec<&SubSnapshot> = snaps
            .iter()
            .filter(|s| s.dirty || !s.frontier.is_disjoint(&changed))
            .collect();
        // the batch MQO decision, as the admission batcher makes it for
        // one-shot bursts: a subscription's prefixes are worth eagerly
        // materializing when another affected subscription shares one
        // (single-flight makes exactly one of them pay) or the store
        // already holds it. Computed from the snapshot, so the flags —
        // and through single-flight the total forwarded calls — are
        // identical at every worker count.
        let mut sig_counts: HashMap<SubplanSignature, u32> = HashMap::new();
        for snap in &affected {
            for sig in snap.prefix_sigs.iter() {
                *sig_counts.entry(*sig).or_insert(0) += 1;
            }
        }
        let evals = fan_out(&affected, workers, |snap| {
            let materialize = snap
                .prefix_sigs
                .iter()
                .any(|sig| sig_counts[sig] > 1 || ctx.shared.is_materialized(*sig));
            let result = evaluate(ctx, &snap.plan, snap.k, snap.tenant, None, materialize).map(
                |(answers, frontier, degraded)| {
                    let (added, retracted) = multiset_diff(&snap.answers, &answers);
                    Evaluated {
                        answers,
                        frontier,
                        degraded,
                        added,
                        retracted,
                    }
                },
            );
            (snap.id, result)
        });
        ctx.metrics
            .refresh_evaluate_buckets
            .observe(evaluate_started.elapsed().as_secs_f64());
        phase_span(
            ctx,
            epoch,
            "evaluate",
            affected.len() as u64,
            evaluate_started,
        );

        // ---- phase 3: commit (state lock, subscription-id order) ----
        let commit_started = Instant::now();
        summary.subscriptions_evaluated = evals.len() as u64;
        summary.sub_results_retained = sub_results_retained;
        {
            let mut st = recover(self.state.lock());
            // the commit phase: `evals` ascends by subscription id, so
            // the delta streams replay byte-identically at any worker
            // count
            for (id, result) in evals {
                let done = match result {
                    Ok(done) => done,
                    Err(_) => {
                        // the re-evaluation failed (budget, hard
                        // fault): keep the stale answers and frontier,
                        // and mark the subscription dirty so the next
                        // pass retries even if its frontier sees no
                        // further change — without the flag a
                        // once-changed-then-stable world would leave
                        // it permanently stale
                        summary.failed += 1;
                        st.subs.get_mut(&id).expect("pass-gated").dirty = true;
                        continue;
                    }
                };
                let old_frontier = st.subs[&id].current.frontier().clone();
                for key in done.frontier.difference(&old_frontier) {
                    st.track(ctx, key, epoch);
                }
                for key in done.frontier.intersection(&old_frontier) {
                    st.deepen(ctx, key);
                }
                for key in old_frontier.difference(&done.frontier) {
                    st.untrack(ctx, key);
                }
                let sub = st.subs.get_mut(&id).expect("pass-gated");
                sub.current.commit(done.answers, done.frontier);
                // a degraded evaluation commits what it read, and is
                // retried like a failed one until it reads whole
                sub.dirty = done.degraded;
                if done.added.is_empty() && done.retracted.is_empty() {
                    continue;
                }
                summary.deltas_emitted += 1;
                summary.rows_added += done.added.len() as u64;
                summary.rows_retracted += done.retracted.len() as u64;
                if let Some(recorder) = ctx.shared.trace_recorder() {
                    recorder.control().instant(SpanKind::DeltaEmit {
                        subscription: id,
                        added: done.added.len() as u64,
                        retracted: done.retracted.len() as u64,
                    });
                }
                sub.queued.push(Delta {
                    epoch,
                    added: done.added,
                    retracted: done.retracted,
                });
            }
        }
        ctx.metrics
            .refresh_commit_buckets
            .observe(commit_started.elapsed().as_secs_f64());
        phase_span(
            ctx,
            epoch,
            "commit",
            summary.subscriptions_evaluated,
            commit_started,
        );
        let m = ctx.metrics;
        m.refresh_passes.fetch_add(1, Ordering::Relaxed);
        m.refresh_calls.fetch_add(summary.calls, Ordering::Relaxed);
        m.refresh_failures
            .fetch_add(summary.failed, Ordering::Relaxed);
        m.invocations_refreshed
            .fetch_add(summary.refreshed, Ordering::Relaxed);
        m.invocations_changed
            .fetch_add(summary.invocations_changed, Ordering::Relaxed);
        m.deltas_emitted
            .fetch_add(summary.deltas_emitted, Ordering::Relaxed);
        m.delta_rows_added
            .fetch_add(summary.rows_added, Ordering::Relaxed);
        m.delta_rows_retracted
            .fetch_add(summary.rows_retracted, Ordering::Relaxed);
        m.sub_results_retained
            .fetch_add(summary.sub_results_retained, Ordering::Relaxed);
        if let Some(recorder) = ctx.shared.trace_recorder() {
            recorder.control().record(
                SpanKind::Refresh {
                    epoch,
                    refreshed: summary.refreshed,
                    changed: summary.invocations_changed,
                    calls: summary.calls,
                },
                started.elapsed().as_secs_f64(),
            );
        }
        summary
    }
}

/// Everything a refresh pass's lock-free phases need to know about one
/// subscription, cloned under the snapshot lock. The pass gate keeps
/// the live set stable for the whole pass, so a snapshot can never go
/// stale mid-pipeline.
struct SubSnapshot {
    id: u64,
    plan: Arc<Plan>,
    prefix_sigs: Arc<Vec<SubplanSignature>>,
    k: u64,
    tenant: TenantId,
    dirty: bool,
    frontier: HashSet<InvocationKey>,
    answers: Vec<Tuple>,
}

/// One successful re-evaluation, diffed against the snapshot answers
/// off-lock; the commit phase only swaps and queues.
struct Evaluated {
    answers: Vec<Tuple>,
    frontier: HashSet<InvocationKey>,
    degraded: bool,
    added: Vec<Tuple>,
    retracted: Vec<Tuple>,
}

/// Records one pipeline-phase span on the control track, if a trace
/// recorder is attached.
fn phase_span(
    ctx: &EngineCtx<'_>,
    epoch: Epoch,
    phase: &'static str,
    items: u64,
    started: Instant,
) {
    if let Some(recorder) = ctx.shared.trace_recorder() {
        recorder.control().record(
            SpanKind::RefreshPhase {
                epoch,
                phase,
                items,
            },
            started.elapsed().as_secs_f64(),
        );
    }
}

/// Runs `f` over `items` on up to `workers` threads (inline when one
/// suffices), returning the outcomes in item order regardless of how
/// the threads interleaved. Workers steal the next index from a shared
/// counter, so one expensive item never serializes the rest behind it.
fn fan_out<T: Sync, R: Send>(items: &[T], workers: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers.min(items.len()) {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    local.push((i, f(item)));
                }
                recover(done.lock()).extend(local);
            });
        }
    });
    let mut out = recover(done.into_inner());
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Runs one frontier-recording evaluation of `plan` and drains up to
/// `k` answers, the frontier they were read through, and whether any
/// page was served degraded (the answers are partial). `budget` bounds the evaluation's forwarded calls: the
/// client-triggered subscribe path passes the tenant's per-query
/// budget (so `SUBSCRIBE` gets the same admission lever as `QUERY`),
/// while server-driven refresh re-evaluations pass `None` —
/// maintenance work the tenant's *cumulative* budget still bounds.
/// `materialize` is the batch MQO decision: whether this evaluation
/// should eagerly drain and publish its unshared invoke-prefix levels.
fn evaluate(
    ctx: &EngineCtx<'_>,
    plan: &Arc<Plan>,
    k: u64,
    tenant: TenantId,
    budget: Option<u64>,
    materialize: bool,
) -> Result<(Vec<Tuple>, HashSet<InvocationKey>, bool), String> {
    let mut exec = TopKExecution::start(
        plan,
        ctx.schema,
        ctx.registry,
        ExecContext {
            budget,
            tenant: Some(tenant),
            materialize,
            frontier: true,
            ..ExecContext::shared(Arc::clone(ctx.shared))
        },
    )
    .map_err(|e| e.to_string())?;
    let mut answers = Vec::new();
    while (answers.len() as u64) < k {
        match exec.next_answer() {
            Some(t) => answers.push(t),
            None => break,
        }
    }
    if let Some(err) = exec.error() {
        return Err(err.to_string());
    }
    Ok((answers, exec.frontier(), exec.partial_results().is_some()))
}

impl SubState {
    /// Adds one frontier ref to `key`. The first ref pins the
    /// page-cache entry and tracks the invocation from the cache's own
    /// snapshot — the pages the subscription just read. Without one
    /// the entry starts with no pages, due at the next pass; nothing is
    /// fetched here. A later ref deepens the tracked pages to what the
    /// subscription read ([`SubState::deepen`]).
    ///
    /// The registry lookup comes first: an unresolvable service is
    /// skipped whole — not pinned, not tracked — so no page stays
    /// pinned that no pass refreshes.
    fn track(&mut self, ctx: &EngineCtx<'_>, key: &InvocationKey, epoch: Epoch) {
        if let Some(t) = self.tracked.get_mut(key) {
            t.refs += 1;
            self.deepen(ctx, key);
            return;
        }
        let Some(service) = ctx.registry.get(key.service) else {
            return;
        };
        ctx.shared.pin_invocation(key.service, &key.inputs);
        let (pages, exhausted) = ctx
            .shared
            .export_invocation(key.service, &key.inputs)
            .unwrap_or_default();
        self.tracked.insert(
            key.clone(),
            Tracked {
                refs: 1,
                service: Arc::clone(service),
                pages,
                exhausted,
                read_at: epoch,
            },
        );
    }

    /// Brings `key`'s tracked pages up to the cache's when an
    /// evaluation read deeper than the table tracks. The deeper pages
    /// landed in the pinned entry at this pass's epoch; a pass
    /// re-fetches only the tracked depth, so without this a pass whose
    /// shallow pages come back unchanged would never re-read them, and
    /// drift confined to them would never reach the subscription.
    fn deepen(&mut self, ctx: &EngineCtx<'_>, key: &InvocationKey) {
        let Some(t) = self.tracked.get_mut(key) else {
            return;
        };
        if let Some((pages, exhausted)) = ctx.shared.export_invocation(key.service, &key.inputs) {
            if pages.len() > t.pages.len() {
                t.pages = pages;
                t.exhausted = exhausted;
            }
        }
    }

    /// Drops one frontier ref from `key`; the last one untracks the
    /// invocation and unpins its page-cache entry.
    fn untrack(&mut self, ctx: &EngineCtx<'_>, key: &InvocationKey) {
        let Some(t) = self.tracked.get_mut(key) else {
            return;
        };
        t.refs -= 1;
        if t.refs == 0 {
            self.tracked.remove(key);
            ctx.shared.unpin_invocation(key.service, &key.inputs);
        }
    }

    /// The re-fetches due at `epoch`, in pass order, and how many
    /// tracked invocations were skipped as still within TTL. An
    /// invocation with no pages yet is always due.
    fn due(&self, epoch: Epoch) -> (Vec<Refetch>, u64) {
        // a fixed pass order whatever the map's iteration order: fault
        // schedules are identity-keyed, but summaries must replay
        // byte-identically
        let mut keys: Vec<&InvocationKey> = self.tracked.keys().collect();
        keys.sort_by_key(|k| invocation_order(k));
        let mut due = Vec::new();
        let mut skipped = 0;
        for key in keys {
            let t = &self.tracked[key];
            if !t.pages.is_empty() && !self.policy.due(t.read_at, epoch) {
                skipped += 1;
                continue;
            }
            due.push(Refetch {
                key: key.clone(),
                service: Arc::clone(&t.service),
                depth: t.pages.len(),
            });
        }
        (due, skipped)
    }

    /// Merges the fetch phase's outcomes (one per `due` re-fetch, in
    /// the same order) into the table and `summary`. Returns the
    /// invocations whose pages changed, with the fresh pages to
    /// install. A failed re-fetch keeps the stale pages whole and
    /// counts as failed; an unchanged one only moves `read_at`.
    fn apply(
        &mut self,
        epoch: Epoch,
        due: Vec<Refetch>,
        outcomes: Vec<Refetched>,
        summary: &mut RefreshSummary,
    ) -> Vec<(InvocationKey, Vec<Vec<Tuple>>, bool)> {
        let mut fresh = Vec::new();
        for (refetch, (calls, read)) in due.into_iter().zip(outcomes) {
            summary.refreshed += 1;
            summary.calls += calls;
            let Some((pages, exhausted)) = read else {
                summary.failed += 1;
                continue;
            };
            let t = self.tracked.get_mut(&refetch.key).expect("pass-gated");
            t.read_at = epoch;
            let pages_changed = diff_pages(&t.pages, &pages);
            if pages_changed == 0 && t.exhausted == exhausted {
                continue;
            }
            summary.pages_changed += pages_changed;
            t.pages = pages.clone();
            t.exhausted = exhausted;
            fresh.push((refetch.key, pages, exhausted));
        }
        summary.invocations_changed = fresh.len() as u64;
        fresh
    }
}

/// One due invocation's re-fetch, cloned out under the snapshot lock
/// so the fetch phase runs lock-free on any worker.
struct Refetch {
    key: InvocationKey,
    service: Arc<dyn Service>,
    /// The tracked page count to re-demand: the deepest page range a
    /// subscription has read (an evaluation that reads further deepens
    /// it at commit). `0` (never read) re-demands every page.
    depth: usize,
}

/// What one [`Refetch`] spent and read: its attempts, and the fresh
/// pages with their exhaustion flag (`None` once a page's retries ran
/// out).
type Refetched = (u64, Option<(Vec<Vec<Tuple>>, bool)>);

impl Refetch {
    /// The fetch/retry loop: each page gets [`REFRESH_ATTEMPTS`]; a page
    /// whose attempts all fail aborts the whole invocation, so the
    /// caller keeps the stale set whole — never a fresh/stale mix.
    fn run(&self) -> Refetched {
        let mut calls = 0;
        let mut pages = Vec::with_capacity(self.depth);
        let exhausted = loop {
            let page = pages.len() as u32;
            let read = (0..REFRESH_ATTEMPTS).find_map(|_| {
                calls += 1;
                let (pattern, inputs) = (self.key.pattern, &self.key.inputs);
                self.service.try_fetch(pattern, inputs, page).ok()
            });
            let Some(r) = read else {
                return (calls, None);
            };
            pages.push(r.tuples);
            if !r.has_more {
                break true;
            }
            if pages.len() == self.depth {
                break false;
            }
        };
        (calls, Some((pages, exhausted)))
    }
}

/// The stable pass-order key of an invocation.
fn invocation_order(key: &InvocationKey) -> (u32, usize, String) {
    (key.service.0, key.pattern, format!("{:?}", key.inputs))
}

/// Pages that differ between the stale and fresh sets (length
/// differences count one per uncovered page).
fn diff_pages(old: &[Vec<Tuple>], new: &[Vec<Tuple>]) -> u64 {
    let common = old.len().min(new.len());
    let changed = (old.len().max(new.len()) - common) as u64;
    changed + (0..common).filter(|&i| old[i] != new[i]).count() as u64
}

/// Sorted multiset difference: `(new ∖ old, old ∖ new)` with
/// multiplicity. Both outputs come back sorted — delta streams are
/// order-canonical so seeded runs replay byte-identically.
fn multiset_diff(old: &[Tuple], new: &[Tuple]) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut old_sorted = old.to_vec();
    let mut new_sorted = new.to_vec();
    old_sorted.sort();
    new_sorted.sort();
    let (mut added, mut retracted) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < old_sorted.len() && j < new_sorted.len() {
        match old_sorted[i].cmp(&new_sorted[j]) {
            CmpOrdering::Less => {
                retracted.push(old_sorted[i].clone());
                i += 1;
            }
            CmpOrdering::Greater => {
                added.push(new_sorted[j].clone());
                j += 1;
            }
            CmpOrdering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    retracted.extend_from_slice(&old_sorted[i..]);
    added.extend_from_slice(&new_sorted[j..]);
    (added, retracted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_model::schema::{AccessPattern, ServiceId};
    use mdq_model::value::Value;
    use mdq_services::fault::{FaultPlan, FaultProfile, PlannedFault};
    use mdq_services::refresh::{RefreshConfig, RefreshingSource};
    use mdq_services::service::LatencyModel;
    use mdq_services::synthetic::SyntheticSource;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>())
    }

    /// 12 rows behind one input key, 4 to a page: three pages.
    fn source(clock: &Arc<EpochClock>) -> Arc<dyn Service> {
        let rows = (0..12)
            .map(|i| Tuple::new(vec![Value::str("k"), Value::Int(i), Value::float(i as f64)]))
            .collect();
        let pristine = SyntheticSource::new(
            "s",
            vec![AccessPattern::parse("ioo").expect("parses")],
            rows,
            Some(4),
            LatencyModel::fixed(1.0),
        );
        Arc::new(RefreshingSource::new(
            Arc::new(pristine),
            Arc::clone(clock),
            RefreshConfig::seeded(5).with_change_rate(0.5),
        ))
    }

    fn key() -> InvocationKey {
        InvocationKey {
            service: ServiceId(0),
            pattern: 0,
            inputs: vec![Value::str("k")],
        }
    }

    /// A table tracking `key()` on `service`, read at epoch 0.
    fn table(ttl: u64, service: Arc<dyn Service>, pages: Vec<Vec<Tuple>>) -> SubState {
        let mut st = SubState {
            policy: RefreshPolicy::every(ttl),
            next_id: 1,
            subs: BTreeMap::new(),
            tracked: HashMap::new(),
            sig_refs: HashMap::new(),
        };
        st.tracked.insert(
            key(),
            Tracked {
                refs: 1,
                service,
                pages,
                exhausted: false,
                read_at: 0,
            },
        );
        st
    }

    /// The table's part of one refresh pass: due, fetch, merge.
    fn pass(st: &mut SubState, epoch: Epoch) -> (RefreshSummary, Vec<InvocationKey>) {
        let (due, skipped) = st.due(epoch);
        let outcomes = due.iter().map(Refetch::run).collect();
        let mut summary = RefreshSummary {
            epoch,
            skipped,
            ..RefreshSummary::default()
        };
        let fresh = st.apply(epoch, due, outcomes, &mut summary);
        (summary, fresh.into_iter().map(|(k, ..)| k).collect())
    }

    fn first_pages(svc: &Arc<dyn Service>, n: u32) -> Vec<Vec<Tuple>> {
        (0..n)
            .map(|p| svc.fetch(0, &[Value::str("k")], p).tuples)
            .collect()
    }

    #[test]
    fn ttl_skips_fresh_invocations_and_refetches_due_ones() {
        let clock = EpochClock::new();
        let svc = source(&clock);
        let mut st = table(2, Arc::clone(&svc), first_pages(&svc, 2));

        let e1 = clock.advance();
        let (s1, changed) = pass(&mut st, e1);
        assert_eq!(
            (s1.refreshed, s1.skipped, s1.calls),
            (0, 1, 0),
            "within TTL"
        );
        assert!(changed.is_empty());

        let e2 = clock.advance();
        let (s2, changed) = pass(&mut st, e2);
        assert_eq!(
            (s2.refreshed, s2.skipped, s2.calls),
            (1, 0, 2),
            "2 pages deep"
        );
        assert_eq!(changed, vec![key()], "50% change rate must surface");
        assert_eq!(s2.invocations_changed, 1);
        let t = &st.tracked[&key()];
        assert_eq!(
            t.pages,
            first_pages(&svc, 2),
            "baseline moved to the fresh read"
        );
        assert_eq!(t.read_at, e2);

        let (s3, _) = pass(&mut st, e2);
        assert_eq!(
            (s3.refreshed, s3.skipped),
            (0, 1),
            "nothing due twice an epoch"
        );
    }

    #[test]
    fn an_invocation_never_read_is_due_at_once_and_read_whole() {
        let clock = EpochClock::new();
        let svc = source(&clock);
        let mut st = table(100, Arc::clone(&svc), Vec::new());
        let (summary, changed) = pass(&mut st, clock.advance());
        assert_eq!(
            (summary.refreshed, summary.calls),
            (1, 3),
            "every page, once"
        );
        assert_eq!(changed, vec![key()]);
        assert_eq!(summary.pages_changed, 3);
        let t = &st.tracked[&key()];
        assert_eq!((t.pages.len(), t.exhausted), (3, true));
        let (summary, _) = pass(&mut st, clock.advance());
        assert_eq!(summary.skipped, 1, "read once, the TTL governs again");
    }

    #[test]
    fn failed_refresh_keeps_the_stale_set_whole() {
        let clock = EpochClock::new();
        let drifting = source(&clock);
        let faulty: Arc<dyn Service> = Arc::new(FaultProfile::scripted(
            Arc::clone(&drifting),
            FaultPlan::new().fail_page(1, u32::MAX, PlannedFault::Timeout),
        ));
        let baseline = first_pages(&drifting, 2);
        let mut st = table(1, faulty, baseline.clone());
        let (summary, changed) = pass(&mut st, clock.advance());
        // page 0 succeeds, page 1 exhausts its attempts: the invocation
        // aborts and the stale set survives untouched
        assert_eq!(summary.failed, 1);
        assert!(changed.is_empty());
        assert_eq!(
            summary.calls,
            1 + REFRESH_ATTEMPTS as u64,
            "one ok page, then every attempt at the failing one"
        );
        let t = &st.tracked[&key()];
        assert_eq!(t.pages, baseline);
        assert_eq!(t.read_at, 0, "still stale — retried next pass");
    }

    #[test]
    fn multiset_diff_respects_multiplicity() {
        let old = [t(&[1]), t(&[2]), t(&[2]), t(&[3])];
        let new = [t(&[2]), t(&[3]), t(&[3]), t(&[4])];
        let (added, retracted) = multiset_diff(&old, &new);
        assert_eq!(added, vec![t(&[3]), t(&[4])]);
        assert_eq!(retracted, vec![t(&[1]), t(&[2])]);
    }

    #[test]
    fn multiset_diff_of_equal_sets_is_empty() {
        let rows = [t(&[5]), t(&[1]), t(&[3])];
        let mut shuffled = rows.to_vec();
        shuffled.reverse();
        let (added, retracted) = multiset_diff(&rows, &shuffled);
        assert!(added.is_empty() && retracted.is_empty());
    }
}
