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
//! The crate-internal `PlanResolver` owns every template → plan decision the server
//! makes: the LRU, the set of templates being optimized right now
//! (single-flight: concurrent submissions of one template wait for the
//! first optimization instead of duplicating it), the memo of templates
//! that failed to optimize, and the revalidation of entries priced under
//! a transient shared-work discount. Workers, the admission batcher and
//! `subscribe` all resolve through `PlanResolver::resolve`; nothing
//! else touches the state behind it.
//!
//! **Publish, then release.** The claim owner stores its outcome — the
//! plan in the LRU, or the reason in the failed memo — *before* its
//! claim is released and the waiters are woken, so a waiter always wakes
//! into the plan or the error, never into an empty cache it would
//! re-claim to re-run a doomed optimization. The release itself happens
//! on return *and* on unwind: a panicking optimizer frees its template
//! instead of parking every later submission forever.

use mdq_model::fingerprint::QueryFingerprint;
use mdq_plan::dag::Plan;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Cache key: the normalized query shape plus the answer target (phase-3
/// fetch factors are chosen for a specific `k`).
pub type PlanKey = (QueryFingerprint, u64);

/// One cached plan plus how it was priced.
struct Entry {
    plan: Arc<Plan>,
    /// `true` when the plan was chosen under an admission batch's
    /// shared-work discount: it assumed a materialized prefix, so a
    /// later hit must revalidate that the prefix is still live before
    /// reusing it (and re-optimize standalone only if it is not —
    /// never paying the optimizer twice up front on the cold path).
    discounted: bool,
    used: u64,
}

/// An LRU map from [`PlanKey`] to the optimized plan.
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<PlanKey, Entry>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (`0` disables caching —
    /// every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Looks up a plan, refreshing its recency. The flag is `true` for
    /// plans priced under a shared-work discount (see
    /// [`PlanCache::insert_discounted`]).
    pub fn get(&mut self, key: &PlanKey) -> Option<(Arc<Plan>, bool)> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|e| {
            e.used = tick;
            (Arc::clone(&e.plan), e.discounted)
        })
    }

    /// Inserts a standalone-priced plan, evicting the
    /// least-recently-used entry when full.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<Plan>) {
        self.insert_entry(key, plan, false);
    }

    /// Inserts a plan priced under a transient shared-work discount;
    /// lookups report the flag so callers can revalidate.
    pub fn insert_discounted(&mut self, key: PlanKey, plan: Arc<Plan>) {
        self.insert_entry(key, plan, true);
    }

    fn insert_entry(&mut self, key: PlanKey, plan: Arc<Plan>, discounted: bool) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(
            key,
            Entry {
                plan,
                discounted,
                used: self.tick,
            },
        );
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

/// Bound on the failed-plan memo; reaching it clears the memo (the
/// next submission of a broken template re-runs the optimizer once and
/// re-memoizes — coarse, but the memo only suppresses repeat work).
const FAILED_PLAN_CAP: usize = 1_024;

/// How one [`PlanResolver::resolve`] call was answered.
pub(crate) enum Resolution {
    /// From the cache — possibly after waiting on another caller's
    /// claim. The optimize closure did not run.
    Hit(Arc<Plan>),
    /// This call ran the optimize closure; its plan is now cached.
    Optimized(Arc<Plan>),
    /// This call ran the optimize closure and it failed; the reason is
    /// now memoized for the template.
    Failed(String),
    /// The template is memoized as unoptimizable (by an earlier call,
    /// or by the claim owner this call waited on). The closure did not
    /// run.
    FailedBefore(String),
}

/// The state behind the resolver's one lock.
struct ResolverState {
    cache: PlanCache,
    /// Templates being optimized right now, by their claim owners.
    optimizing: HashSet<PlanKey>,
    /// Templates that failed to optimize, with the reason — the
    /// plan-cache analogue of the gateway's failed-page memo.
    failed: HashMap<PlanKey, String>,
}

/// The single owner of template → plan resolution: LRU, single-flight
/// claims, failed-plan memo and discounted-entry revalidation behind
/// one lock and one condition variable (see the module docs).
pub(crate) struct PlanResolver {
    /// `0` disables plan caching: every resolve runs its closure — no
    /// claims, no waiting, no memo.
    capacity: usize,
    state: Mutex<ResolverState>,
    /// Signalled when a claim is released, so waiters re-probe.
    ready: Condvar,
}

/// Releases a single-flight claim and wakes the waiters — on return AND
/// on unwind, so a panicking optimizer cannot leave every future
/// submission of the template blocked on the condition variable.
struct Claim<'a> {
    resolver: &'a PlanResolver,
    key: PlanKey,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.resolver.lock().optimizing.remove(&self.key);
        self.resolver.ready.notify_all();
    }
}

impl PlanResolver {
    /// A resolver over an LRU of `capacity` plans (`0` disables plan
    /// caching).
    pub(crate) fn new(capacity: usize) -> Self {
        PlanResolver {
            capacity,
            state: Mutex::new(ResolverState {
                cache: PlanCache::new(capacity),
                optimizing: HashSet::new(),
                failed: HashMap::new(),
            }),
            ready: Condvar::new(),
        }
    }

    /// Tolerates a poisoned lock: every update leaves the state valid
    /// (worst case a stale entry), [`Claim`]'s drop runs during unwind
    /// where a second panic would abort the process, and propagating
    /// the poison would let one panicking job take every worker down.
    fn lock(&self) -> MutexGuard<'_, ResolverState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolves `key` to a plan: from the cache when it holds one (a
    /// warm hit is one lock acquisition and an `Arc` bump), from the
    /// failed memo when the template is known to be unoptimizable, and
    /// otherwise by running `optimize` under a single-flight claim —
    /// concurrent resolves of the same key park until the claim is
    /// released and then re-probe.
    ///
    /// `optimize` returns the plan and whether it was priced under a
    /// transient shared-work discount. A discounted entry assumed a
    /// materialized prefix, so a later probe reuses it only while
    /// `live` says that prefix still is; once it is gone the entry is
    /// stale and the prober claims the key and re-optimizes, overwriting
    /// it. Recording the discount instead of refusing to cache such a
    /// plan is what keeps the cold path from paying the optimizer twice
    /// for one admission.
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
        let mut state = self.lock();
        loop {
            if let Some(reason) = state.failed.get(&key) {
                return Resolution::FailedBefore(reason.clone());
            }
            if let Some((plan, discounted)) = state.cache.get(&key) {
                if !discounted || live(&plan) {
                    return Resolution::Hit(plan);
                }
            }
            if state.optimizing.insert(key) {
                break;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        let claim = Claim {
            resolver: self,
            key,
        };
        let outcome = optimize();
        // publish while the claim is still held; `claim` drops after
        // this guard, so the waiters it wakes find the outcome
        let mut state = self.lock();
        let resolution = match outcome {
            Ok((plan, discounted)) => {
                state.cache.insert_entry(key, Arc::clone(&plan), discounted);
                Resolution::Optimized(plan)
            }
            Err(reason) => {
                // coarse reset over per-entry eviction: failures are
                // rare, and a full memo means something systemic that a
                // restart-style flush handles better than LRU churn
                if state.failed.len() >= FAILED_PLAN_CAP {
                    state.failed.clear();
                }
                state.failed.insert(key, reason.clone());
                Resolution::Failed(reason)
            }
        };
        drop(state);
        drop(claim);
        resolution
    }

    /// Replaces `key`'s entry with a standalone-priced plan — how a
    /// query that re-planned mid-flight publishes its better plan for
    /// the template's next submission.
    pub(crate) fn republish(&self, key: PlanKey, plan: Arc<Plan>) {
        self.lock().cache.insert(key, plan);
    }

    /// Forgets every memoized plan failure, returning how many were
    /// dropped; the next resolve of such a template optimizes again.
    pub(crate) fn forget_failed(&self) -> usize {
        std::mem::take(&mut self.lock().failed).len()
    }

    /// Plans currently cached.
    pub(crate) fn len(&self) -> usize {
        self.lock().cache.len()
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
    fn discounted_flag_round_trips_and_is_overwritable() {
        let plan = some_plan();
        let fp = fingerprint(&plan.query);
        let mut cache = PlanCache::new(2);
        cache.insert_discounted((fp, 1), Arc::clone(&plan));
        cache.insert((fp, 2), Arc::clone(&plan));
        assert_eq!(cache.get(&(fp, 1)).map(|(_, d)| d), Some(true));
        assert_eq!(cache.get(&(fp, 2)).map(|(_, d)| d), Some(false));
        // a standalone re-optimization replaces the discounted entry
        cache.insert((fp, 1), Arc::clone(&plan));
        assert_eq!(cache.get(&(fp, 1)).map(|(_, d)| d), Some(false));
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
        assert_eq!(resolver.forget_failed(), 1);
        assert!(matches!(
            resolver.resolve(key(1), |_| true, failing(false)),
            Resolution::Failed(_)
        ));
        assert_eq!(
            runs.load(Ordering::SeqCst),
            2,
            "forgotten ⇒ optimized again"
        );
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
