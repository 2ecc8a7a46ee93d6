//! The fingerprint-keyed plan cache and the `PlanResolver` in front of
//! it — the serving side of §2.2's "for each query template".
//!
//! Following Roy et al.'s multi-query optimization line: queries with
//! the same [`QueryFingerprint`]
//! (alpha-renaming- and predicate-order-invariant, constants included)
//! and the same `k` are the same template, so the three-phase
//! branch-and-bound plan chosen for the first submission is valid for
//! every repeat. A small LRU bound ([`PlanCache`]) keeps the cache from
//! growing with workload cardinality.
//!
//! The crate-internal `PlanResolver` owns every template → plan decision
//! the server makes — workers, the admission batcher and `subscribe` all
//! resolve through `PlanResolver::resolve`. It is a thin user of
//! [`mdq_exec::store`]: the LRU, single-flight claims (concurrent
//! submissions of one template wait for the first optimization), the
//! memo of templates that failed to optimize, plus the revalidation of
//! entries priced under a transient shared-work discount. The claim
//! owner publishes the plan or the reason *before* it releases, so a
//! waiter never wakes into an empty cache and re-runs a doomed
//! optimization; a panicking optimizer still releases its template.

use mdq_exec::store::{FailureMemo, Guarded, LruMap, FAILURE_MEMO_CAP};
use mdq_model::fingerprint::QueryFingerprint;
use mdq_plan::dag::Plan;
use std::sync::Arc;

/// Cache key: the normalized query shape plus the answer target (phase-3
/// fetch factors are chosen for a specific `k`).
pub(crate) type PlanKey = (QueryFingerprint, u64);

/// One cached plan plus how it was priced.
struct Entry {
    plan: Arc<Plan>,
    /// `true` when the plan was chosen under an admission batch's
    /// shared-work discount: it assumed a materialized prefix, which a
    /// later hit must find still live (see [`PlanResolver::resolve`]).
    discounted: bool,
}

/// An LRU map from `PlanKey` to the optimized plan.
pub struct PlanCache {
    capacity: usize,
    entries: LruMap<PlanKey, Entry>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (`0` disables caching —
    /// every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            entries: LruMap::default(),
        }
    }

    /// Looks up a plan, refreshing its recency. The flag is `true` for
    /// plans priced under a shared-work discount.
    pub fn get(&mut self, key: &PlanKey) -> Option<(Arc<Plan>, bool)> {
        self.entries
            .get(key)
            .map(|e| (Arc::clone(&e.plan), e.discounted))
    }

    /// Inserts a standalone-priced plan, evicting the
    /// least-recently-used entry when full.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<Plan>) {
        self.insert_entry(key, plan, false);
    }

    fn insert_entry(&mut self, key: PlanKey, plan: Arc<Plan>, discounted: bool) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && self.entries.peek(&key).is_none() {
            self.entries.evict(|_, _| false);
        }
        self.entries.insert(key, Entry { plan, discounted });
    }

    /// Cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// How one [`PlanResolver::resolve`] call was answered.
pub(crate) enum Resolution {
    /// From the cache, possibly after waiting on another caller's claim.
    Hit(Arc<Plan>),
    /// This call ran the optimize closure; its plan is now cached.
    Optimized(Arc<Plan>),
    /// This call ran the optimize closure and it failed; the reason is
    /// now memoized for the template.
    Failed(String),
    /// The template was already memoized as unoptimizable.
    FailedBefore(String),
}

/// The state behind the resolver's one lock.
struct ResolverState {
    cache: PlanCache,
    /// Templates that failed to optimize, with the reason.
    failed: FailureMemo<PlanKey, String>,
}

/// The single owner of template → plan resolution, behind one
/// [`Guarded`] lock (see the module docs).
pub(crate) struct PlanResolver {
    /// `0` disables plan caching: every resolve runs its closure — no
    /// claims, no waiting, no memo.
    capacity: usize,
    state: Guarded<ResolverState, PlanKey>,
}

impl PlanResolver {
    /// A resolver over an LRU of `capacity` plans (`0` disables plan
    /// caching).
    pub(crate) fn new(capacity: usize) -> Self {
        PlanResolver {
            capacity,
            state: Guarded::new(ResolverState {
                cache: PlanCache::new(capacity),
                failed: FailureMemo::with_cap(FAILURE_MEMO_CAP),
            }),
        }
    }

    /// Resolves `key` to a plan: from the cache (a warm hit is one lock
    /// acquisition and an `Arc` bump), from the failed memo, or by running
    /// `optimize` under a single-flight claim that concurrent resolves of
    /// the key wait on.
    ///
    /// `optimize` returns the plan and whether it was priced under a
    /// transient shared-work discount. Such an entry assumed a materialized
    /// prefix, so a later probe reuses it only while `live` says the prefix
    /// still is; otherwise the prober re-optimizes and overwrites it —
    /// which keeps the cold path from paying the optimizer twice.
    pub(crate) fn resolve(
        &self,
        key: PlanKey,
        live: impl Fn(&Plan) -> bool,
        optimize: impl FnOnce() -> Result<(Arc<Plan>, bool), String>,
    ) -> Resolution {
        if self.capacity == 0 {
            return match optimize() {
                Ok((plan, _)) => Resolution::Optimized(plan),
                Err(reason) => Resolution::Failed(reason),
            };
        }
        let mut state = self.state.lock();
        let claim = loop {
            if let Some(reason) = state.failed.get(&key) {
                return Resolution::FailedBefore(reason.clone());
            }
            if let Some((plan, discounted)) = state.cache.get(&key) {
                if !discounted || live(&plan) {
                    return Resolution::Hit(plan);
                }
            }
            if !state.is_claimed(&key) {
                break self.state.claim(&mut state, key);
            }
            state = self.state.wait(state);
        };
        drop(state);
        // the claim publishes the outcome before it releases, so the
        // waiters it wakes find the plan or the reason
        match optimize() {
            Ok((plan, discounted)) => {
                claim.publish(|s| s.cache.insert_entry(key, Arc::clone(&plan), discounted));
                Resolution::Optimized(plan)
            }
            Err(reason) => {
                claim.publish(|s| s.failed.insert(key, reason.clone()));
                Resolution::Failed(reason)
            }
        }
    }

    /// Replaces `key`'s entry with a standalone-priced plan — how a
    /// query that re-planned mid-flight publishes its better plan for
    /// the template's next submission.
    pub(crate) fn republish(&self, key: PlanKey, plan: Arc<Plan>) {
        self.state.lock().cache.insert(key, plan);
    }
}

#[cfg(test)]
impl PlanResolver {
    /// Plans currently cached.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_model::binding::ApChoice;
    use mdq_model::examples::{
        running_example_query, running_example_schema, ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL,
        ATOM_WEATHER,
    };
    use mdq_model::fingerprint::fingerprint;
    use mdq_plan::builder::{build_plan, StrategyRule};
    use mdq_plan::poset::Poset;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};

    fn some_plan() -> Arc<Plan> {
        let schema = running_example_schema();
        let query = running_example_query(&schema);
        let poset = Poset::from_pairs(
            4,
            &[
                (ATOM_CONF, ATOM_WEATHER),
                (ATOM_WEATHER, ATOM_FLIGHT),
                (ATOM_WEATHER, ATOM_HOTEL),
            ],
        )
        .expect("valid");
        Arc::new(
            build_plan(
                Arc::new(query),
                &schema,
                ApChoice(vec![0, 0, 0, 0]),
                poset,
                (0..4).collect(),
                &StrategyRule::default(),
            )
            .expect("builds"),
        )
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let plan = some_plan();
        let fp = fingerprint(&plan.query);
        let mut cache = PlanCache::new(2);
        cache.insert((fp, 1), Arc::clone(&plan));
        cache.insert((fp, 2), Arc::clone(&plan));
        assert!(cache.get(&(fp, 1)).is_some(), "refreshes 1");
        cache.insert((fp, 3), Arc::clone(&plan)); // evicts 2, the coldest
        assert!(cache.get(&(fp, 2)).is_none());
        assert!(cache.get(&(fp, 1)).is_some());
        assert!(cache.get(&(fp, 3)).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let plan = some_plan();
        let fp = fingerprint(&plan.query);
        let mut cache = PlanCache::new(0);
        cache.insert((fp, 1), plan);
        assert!(cache.get(&(fp, 1)).is_none());
        assert!(cache.is_empty());
    }

    fn key(k: u64) -> PlanKey {
        (fingerprint(&some_plan().query), k)
    }

    fn plan_of(resolution: Resolution) -> Arc<Plan> {
        match resolution {
            Resolution::Hit(plan) | Resolution::Optimized(plan) => plan,
            Resolution::Failed(r) | Resolution::FailedBefore(r) => panic!("failed: {r}"),
        }
    }

    #[test]
    fn concurrent_cold_resolves_optimize_once_and_share_the_plan() {
        let resolver = PlanResolver::new(8);
        let runs = AtomicUsize::new(0);
        // the owner holds its claim at the barrier until the second
        // resolver is about to probe, so the probe meets the claim (or,
        // at the latest, the published plan) — never a cold cache
        let meet = Barrier::new(2);
        let optimize = |hold: bool| {
            let (runs, meet) = (&runs, &meet);
            move || {
                runs.fetch_add(1, Ordering::SeqCst);
                if hold {
                    meet.wait();
                }
                Ok((some_plan(), false))
            }
        };
        let (first, second) = std::thread::scope(|scope| {
            let owner = scope.spawn(|| plan_of(resolver.resolve(key(1), |_| true, optimize(true))));
            let waiter = scope.spawn(|| {
                meet.wait();
                plan_of(resolver.resolve(key(1), |_| true, optimize(false)))
            });
            (owner.join().expect("owner"), waiter.join().expect("waiter"))
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "one optimization for both");
        assert!(Arc::ptr_eq(&first, &second), "both hold the cached plan");
        assert_eq!(resolver.len(), 1);
    }

    #[test]
    fn failure_is_memoized_before_the_claim_is_released() {
        let resolver = PlanResolver::new(8);
        let runs = AtomicUsize::new(0);
        let meet = Barrier::new(2);
        let failing = |hold: bool| {
            let (runs, meet) = (&runs, &meet);
            move || {
                runs.fetch_add(1, Ordering::SeqCst);
                if hold {
                    meet.wait();
                }
                Err("not executable".to_string())
            }
        };
        let (owner, waiter) = std::thread::scope(|scope| {
            let owner = scope.spawn(|| resolver.resolve(key(1), |_| true, failing(true)));
            let waiter = scope.spawn(|| {
                meet.wait();
                resolver.resolve(key(1), |_| true, failing(false))
            });
            (owner.join().expect("owner"), waiter.join().expect("waiter"))
        });
        assert!(matches!(owner, Resolution::Failed(r) if r == "not executable"));
        // whether it parked on the claim or arrived after the release,
        // the waiter wakes into the memo — never into an empty cache it
        // would re-claim
        assert!(matches!(waiter, Resolution::FailedBefore(r) if r == "not executable"));
        assert_eq!(runs.load(Ordering::SeqCst), 1, "the waiter never optimized");
    }

    #[test]
    fn panicking_optimizer_releases_its_claim() {
        let resolver = Arc::new(PlanResolver::new(8));
        let panicked = {
            let resolver = Arc::clone(&resolver);
            std::thread::spawn(move || {
                resolver.resolve(key(1), |_| true, || panic!("injected optimizer panic"))
            })
            .join()
        };
        assert!(panicked.is_err(), "the panic propagates to the caller");
        // a leaked claim would park this resolve forever: run it on a
        // thread and bound the wait
        let (done_tx, done_rx) = mpsc::channel();
        let second = {
            let resolver = Arc::clone(&resolver);
            std::thread::spawn(move || {
                let r = resolver.resolve(key(1), |_| true, || Ok((some_plan(), false)));
                done_tx.send(matches!(r, Resolution::Optimized(_))).ok();
            })
        };
        assert_eq!(
            done_rx.recv_timeout(std::time::Duration::from_secs(10)),
            Ok(true),
            "the key is claimable again after the unwind"
        );
        second.join().expect("second resolver");
    }

    #[test]
    fn dead_discounted_entry_is_reoptimized_standalone() {
        let resolver = PlanResolver::new(8);
        let discounted = plan_of(resolver.resolve(key(1), |_| false, || Ok((some_plan(), true))));
        // while the assumed prefix is live the discounted entry serves
        let hit = resolver.resolve(key(1), |_| true, || panic!("live entries are hits"));
        assert!(matches!(hit, Resolution::Hit(p) if Arc::ptr_eq(&p, &discounted)));
        // once it is gone the entry is stale: re-optimize, overwrite
        let fresh = resolver.resolve(key(1), |_| false, || Ok((some_plan(), false)));
        let fresh = match fresh {
            Resolution::Optimized(plan) => plan,
            _ => panic!("a dead discounted entry must re-optimize"),
        };
        assert!(!Arc::ptr_eq(&fresh, &discounted));
        // the overwrite is standalone: liveness is no longer consulted
        let hit = resolver.resolve(key(1), |_| false, || panic!("standalone entries are hits"));
        assert!(matches!(hit, Resolution::Hit(p) if Arc::ptr_eq(&p, &fresh)));
        assert_eq!(resolver.len(), 1);
    }
}
