//! The one bounded single-flight cache primitive. The plan resolver
//! (`mdq-runtime`), the page shards and the sub-result store
//! ([`crate::gateway`]) are thin users of it:
//!
//! * [`Lru`] — an exact recency order over an index-linked slab, O(1)
//!   per push, touch and remove; eviction walks from the cold end past
//!   pinned entries and returns the victim. [`LruMap`] keys it.
//! * [`Guarded`] and [`Claim`] — a lock and a condition variable over a
//!   caller's state, with single-flight claims that publish under the
//!   lock *before* they release, release on unwind too, and wake waiters
//!   only when some are parked.
//! * [`FailureMemo`] — failed keys, bounded by [`FAILURE_MEMO_CAP`].
//! * [`recover`] — the one poison policy of every lock in the engine
//!   (`mdq-services` and `mdq-obs`, below this crate, keep a copy each).
//!   It is sound because no operation here can panic between two writes
//!   to its structure: every slab index followed is one handed out, the
//!   steps that allocate come before the first link is written, and a
//!   caller's closure (a pin test, a publish step) runs before the
//!   module's own writes begin.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard};

/// Recovers the guard of a poisoned lock: propagating the poison would
/// let one panicking query take down every worker after it.
pub fn recover<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

const NIL: usize = usize::MAX;

/// An exact least-recently-used order over an index-linked slab.
#[derive(Debug)]
pub struct Lru<T> {
    slots: Vec<Slot<T>>,
    /// Most and least recently used slots; vacant slots chain via `colder`.
    hot: usize,
    cold: usize,
    vacant: usize,
    len: usize,
}

#[derive(Debug)]
struct Slot<T> {
    value: Option<T>,
    hotter: usize,
    colder: usize,
}

impl<T> Default for Lru<T> {
    fn default() -> Self {
        Lru {
            slots: Vec::new(),
            hot: NIL,
            cold: NIL,
            vacant: NIL,
            len: 0,
        }
    }
}

impl<T> Lru<T> {
    /// Entries held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Files `value` as the most recently used entry; returns its slot.
    pub fn push(&mut self, value: T) -> usize {
        if self.vacant == NIL {
            let slot = Slot {
                value: None,
                hotter: NIL,
                colder: NIL,
            };
            self.slots.push(slot);
            self.vacant = self.slots.len() - 1;
        }
        let at = self.vacant;
        self.vacant = self.slots[at].colder;
        self.slots[at].value = Some(value);
        self.link_hot(at);
        self.len += 1;
        at
    }

    /// The entry in slot `at`.
    pub fn get(&self, at: usize) -> Option<&T> {
        self.slots.get(at)?.value.as_ref()
    }

    /// The entry in slot `at`, mutably; recency is unchanged.
    pub fn get_mut(&mut self, at: usize) -> Option<&mut T> {
        self.slots.get_mut(at)?.value.as_mut()
    }

    /// Makes the entry in slot `at` the most recently used.
    pub fn touch(&mut self, at: usize) {
        if at != self.hot && self.get(at).is_some() {
            self.unlink(at);
            self.link_hot(at);
        }
    }

    /// Removes the entry in slot `at`.
    pub fn remove(&mut self, at: usize) -> Option<T> {
        let value = self.slots.get_mut(at)?.value.take()?;
        self.unlink(at);
        self.slots[at].colder = std::mem::replace(&mut self.vacant, at);
        self.len -= 1;
        Some(value)
    }

    /// Removes and returns the least recently used entry that is not
    /// `pinned`, visiting only pinned entries before it.
    pub fn evict(&mut self, mut pinned: impl FnMut(&T) -> bool) -> Option<T> {
        let mut at = self.cold;
        while at != NIL {
            let slot = &self.slots[at];
            match &slot.value {
                Some(value) if !pinned(value) => return self.remove(at),
                _ => at = slot.hotter,
            }
        }
        None
    }

    fn unlink(&mut self, at: usize) {
        let (hotter, colder) = (self.slots[at].hotter, self.slots[at].colder);
        match hotter {
            NIL => self.hot = colder,
            h => self.slots[h].colder = colder,
        }
        match colder {
            NIL => self.cold = hotter,
            c => self.slots[c].hotter = hotter,
        }
    }

    fn link_hot(&mut self, at: usize) {
        self.slots[at].hotter = NIL;
        self.slots[at].colder = self.hot;
        match self.hot {
            NIL => self.cold = at,
            h => self.slots[h].hotter = at,
        }
        self.hot = at;
    }
}

/// An [`Lru`] keyed by a `Copy` key, each value indexed with its slot;
/// it never evicts on its own — the caller decides when, past what.
pub struct LruMap<K, V> {
    index: HashMap<K, (V, usize)>,
    order: Lru<K>,
}

impl<K, V> Default for LruMap<K, V> {
    fn default() -> Self {
        LruMap {
            index: HashMap::new(),
            order: Lru::default(),
        }
    }
}

impl<K: Copy + Eq + Hash, V> LruMap<K, V> {
    /// Entries held.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no entry is held.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The value of `key`, made the most recently used.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let (value, at) = self.index.get_mut(key)?;
        self.order.touch(*at);
        Some(value)
    }

    /// The value of `key`; recency is unchanged.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|(value, _)| value)
    }

    /// Files `value` under `key` as the most recently used entry;
    /// returns the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some((old, at)) = self.index.get_mut(&key) {
            self.order.touch(*at);
            return Some(std::mem::replace(old, value));
        }
        self.index.reserve(1);
        let at = self.order.push(key);
        self.index.insert(key, (value, at));
        None
    }

    /// Removes and returns the least recently used entry that is not
    /// `pinned`.
    pub fn evict(&mut self, mut pinned: impl FnMut(&K, &V) -> bool) -> Option<(K, V)> {
        let index = &self.index;
        let key = self
            .order
            .evict(|k| index.get(k).is_some_and(|e| pinned(k, &e.0)))?;
        let (value, _) = self.index.remove(&key)?;
        Some((key, value))
    }

    /// Keeps the entries `keep` accepts; returns how many were dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let order = &mut self.order;
        let before = order.len();
        self.index.retain(|key, (value, at)| {
            let kept = keep(key, value);
            if !kept {
                order.remove(*at);
            }
            kept
        });
        before - order.len()
    }

    /// Drops every entry; returns how many there were.
    pub fn clear(&mut self) -> usize {
        self.index.clear();
        std::mem::take(&mut self.order).len()
    }
}

/// The bound of a failure memo; an insert into a full memo clears it
/// first. A memo split across shards splits the bound.
pub const FAILURE_MEMO_CAP: usize = 1_024;

/// Failed keys with their failure, read as a map: a waiter woken by a
/// failing owner, and every later asker, gets the failure instead of
/// repeating the work. Full, it is cleared wholesale — it only
/// suppresses repeat work, and a full memo means something systemic.
pub struct FailureMemo<K, V> {
    cap: usize,
    failed: HashMap<K, V>,
}

impl<K, V> Deref for FailureMemo<K, V> {
    type Target = HashMap<K, V>;
    fn deref(&self) -> &HashMap<K, V> {
        &self.failed
    }
}

impl<K: Eq + Hash, V> FailureMemo<K, V> {
    /// A memo of at most `cap` failures.
    pub fn with_cap(cap: usize) -> Self {
        FailureMemo {
            cap,
            failed: HashMap::new(),
        }
    }

    /// Memoizes a failure, clearing a full memo first.
    pub fn insert(&mut self, key: K, failure: V) {
        if self.failed.len() >= self.cap {
            self.failed.clear();
        }
        self.failed.insert(key, failure);
    }

    /// Forgets every failure; returns how many there were.
    pub fn clear(&mut self) -> usize {
        std::mem::take(&mut self.failed).len()
    }

    /// Keeps the failures whose key `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.failed.retain(|k, _| keep(k));
    }
}

/// A caller's state behind one lock and one condition variable, with
/// the single-flight claims on it and a count of the parked threads.
pub struct Guarded<S, K = ()> {
    state: Mutex<Locked<S, K>>,
    changed: Condvar,
}

/// The inside of a [`Guarded`]: the caller's state, reached through
/// `Deref`, plus the claims and the parked-thread count.
pub struct Locked<S, K> {
    data: S,
    claims: Vec<(u64, K)>,
    next_claim: u64,
    waiters: usize,
}

impl<S, K> Deref for Locked<S, K> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.data
    }
}

impl<S, K> DerefMut for Locked<S, K> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.data
    }
}

impl<S, K> Locked<S, K> {
    /// Whether `key` is claimed, probed by a borrowed form of it.
    pub fn is_claimed<Q: PartialEq + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.claims.iter().any(|(_, k)| k.borrow() == key)
    }
}

impl<S, K> Guarded<S, K> {
    /// Guards `data`.
    pub fn new(data: S) -> Self {
        let locked = Locked {
            data,
            claims: Vec::new(),
            next_claim: 0,
            waiters: 0,
        };
        Guarded {
            state: Mutex::new(locked),
            changed: Condvar::new(),
        }
    }

    /// Locks the state.
    pub fn lock(&self) -> MutexGuard<'_, Locked<S, K>> {
        recover(self.state.lock())
    }

    /// Parks until a claim is released or an [`update`](Guarded::update)
    /// runs, then locks again.
    pub fn wait<'a>(
        &self,
        mut locked: MutexGuard<'a, Locked<S, K>>,
    ) -> MutexGuard<'a, Locked<S, K>> {
        locked.waiters += 1;
        let mut locked = recover(self.changed.wait(locked));
        locked.waiters -= 1;
        locked
    }

    /// Runs `f` under the lock, then wakes the parked threads, if any.
    pub fn update<R>(&self, f: impl FnOnce(&mut Locked<S, K>) -> R) -> R {
        let mut locked = self.lock();
        let out = f(&mut locked);
        let wake = locked.waiters > 0;
        drop(locked);
        if wake {
            self.changed.notify_all();
        }
        out
    }

    /// Claims `key` under `locked`, this state's guard, on which the
    /// caller found `key` unclaimed.
    pub fn claim<'a>(&'a self, locked: &mut Locked<S, K>, key: K) -> Claim<'a, S, K> {
        let token = locked.next_claim;
        locked.claims.push((token, key));
        locked.next_claim += 1;
        Claim {
            owner: self,
            token: Some(token),
        }
    }
}

/// A held single-flight claim: [`Claim::publish`] it, or drop it —
/// on return or on unwind — to abandon it. Either way it is released.
pub struct Claim<'a, S, K> {
    owner: &'a Guarded<S, K>,
    token: Option<u64>,
}

impl<S, K> Claim<'_, S, K> {
    /// Runs `publish` on the state, then releases the claim and wakes
    /// the parked threads — under one acquisition of the lock.
    pub fn publish(mut self, publish: impl FnOnce(&mut S)) {
        self.release(publish);
    }

    fn release(&mut self, publish: impl FnOnce(&mut S)) {
        let Some(token) = self.token else {
            return;
        };
        let released = &mut self.token;
        self.owner.update(|locked| {
            publish(locked);
            *released = None;
            if let Some(at) = locked.claims.iter().position(|(t, _)| *t == token) {
                locked.claims.swap_remove(at);
            }
        });
    }
}

impl<S, K> Drop for Claim<'_, S, K> {
    fn drop(&mut self) {
        self.release(|_| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// `lru`'s entries from the least to the most recently used.
    fn order<T: Clone>(lru: &Lru<T>) -> Vec<T> {
        let (mut at, mut out) = (lru.cold, Vec::new());
        while let Some(slot) = lru.slots.get(at) {
            out.extend(slot.value.clone());
            at = slot.hotter;
        }
        out
    }

    /// Unwinds without running the panic hook, so a thousand injected
    /// panics print nothing.
    fn injected_panic() -> ! {
        resume_unwind(Box::new("injected"))
    }

    #[test]
    fn lru_orders_touches_and_reuses_slots() {
        let mut lru = Lru::default();
        let a = lru.push('a');
        let b = lru.push('b');
        lru.push('c');
        lru.touch(a);
        assert_eq!(order(&lru), ['b', 'c', 'a']);
        assert_eq!(lru.remove(b), Some('b'));
        assert_eq!(lru.remove(b), None, "a freed slot holds nothing");
        assert_eq!(lru.push('d'), b, "the freed slot is reused");
        assert_eq!(lru.evict(|&c| c == 'c'), Some('a'), "pinned c is skipped");
        assert_eq!(order(&lru), ['c', 'd']);
        assert_eq!(lru.evict(|_| true), None, "everything pinned");
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn failure_memo_clears_when_full() {
        let mut memo = FailureMemo::with_cap(2);
        memo.insert(1, "a");
        memo.insert(2, "b");
        assert_eq!(memo.get(&1), Some(&"a"));
        memo.insert(3, "c");
        assert_eq!(memo.len(), 1, "the full memo was flushed first");
        assert_eq!(memo.get(&3), Some(&"c"));
        assert_eq!(memo.clear(), 1);
    }

    #[test]
    fn a_parked_waiter_wakes_into_the_published_outcome() {
        let cache: Guarded<Option<u32>, u8> = Guarded::new(None);
        let claim = {
            let mut locked = cache.lock();
            cache.claim(&mut locked, 7)
        };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let mut locked = cache.lock();
                while locked.is_claimed(&7) {
                    locked = cache.wait(locked);
                }
                **locked
            });
            while cache.lock().waiters == 0 {
                std::thread::yield_now();
            }
            claim.publish(|v| *v = Some(42));
            assert_eq!(waiter.join().expect("waiter"), Some(42));
        });
        assert_eq!(cache.lock().waiters, 0);
    }

    #[test]
    fn a_panic_under_the_lock_leaves_the_structure_usable() {
        let cache: Arc<Guarded<LruMap<u8, u8>, u8>> = Arc::new(Guarded::new(LruMap::default()));
        for k in 0..4 {
            cache.update(|m| m.insert(k, k));
        }
        let held = {
            let mut locked = cache.lock();
            cache.claim(&mut locked, 9)
        };
        let panicked = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let mut locked = cache.lock();
                locked.get(&0);
                injected_panic();
            })
            .join()
        };
        assert!(panicked.is_err());
        assert!(cache.state.is_poisoned(), "the lock is poisoned");
        // lookups, evictions and claims all still work
        assert_eq!(cache.lock().get(&2).copied(), Some(2));
        assert_eq!(cache.update(|m| m.evict(|_, _| false)), Some((1, 1)));
        assert!(cache.lock().is_claimed(&9));
        held.publish(|m| {
            m.insert(9, 9);
        });
        let claim = {
            let mut locked = cache.lock();
            assert!(!locked.is_claimed(&9));
            cache.claim(&mut locked, 5)
        };
        // a panic inside the publish step still releases the claim
        let publish = catch_unwind(AssertUnwindSafe(|| claim.publish(|_| injected_panic())));
        assert!(publish.is_err());
        let locked = cache.lock();
        assert!(!locked.is_claimed(&5));
        let order = order(&locked.order);
        assert_eq!(order, vec![3, 0, 2, 9], "the order is intact");
        assert_eq!((locked.len(), locked.waiters), (4, 0));
    }

    /// A deterministic xorshift stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    const KEYS: u64 = 12;
    const CAPACITY: usize = 6;
    const MEMO_CAP: usize = 4;

    /// Per-owner quotas: owner 0 unlimited, owner 3 never stores.
    fn quota(owner: u8) -> Option<u64> {
        [None, Some(2), Some(3), Some(0)][owner as usize]
    }

    #[derive(Clone, Debug, Default, PartialEq)]
    struct Counters {
        hits: u64,
        misses: u64,
        evictions: u64,
        quota_evictions: u64,
        invalidated: u64,
        victims: Vec<u8>,
    }

    /// The system under test: the primitives composed the way the
    /// engine's caches compose them — quota and capacity eviction past
    /// pins, per-owner counts kept from the evicted entries, claims,
    /// a failure memo.
    struct Model {
        entries: LruMap<u8, u8>,
        held: HashMap<u8, u64>,
        pins: HashSet<u8>,
        failed: FailureMemo<u8, u64>,
        counters: Counters,
    }

    impl Model {
        fn evict(&mut self, owner: Option<u8>) -> bool {
            let pins = &self.pins;
            let victim = self
                .entries
                .evict(|k, o| pins.contains(k) || owner.is_some_and(|w| w != *o));
            let Some((key, o)) = victim else {
                return false;
            };
            *self.held.get_mut(&o).expect("counted") -= 1;
            self.counters.victims.push(key);
            true
        }

        fn insert(&mut self, key: u8, owner: u8) {
            if quota(owner) == Some(0) {
                return;
            }
            let resident = self.entries.peek(&key).is_some();
            if let (Some(q), false) = (quota(owner), resident) {
                if self.held.get(&owner).copied().unwrap_or(0) >= q && self.evict(Some(owner)) {
                    self.counters.quota_evictions += 1;
                }
            }
            if !resident && self.entries.len() >= CAPACITY && self.evict(None) {
                self.counters.evictions += 1;
            }
            *self.held.entry(owner).or_insert(0) += 1;
            if let Some(old) = self.entries.insert(key, owner) {
                *self.held.get_mut(&old).expect("counted") -= 1;
            }
        }
    }

    /// The naive reference: a `Vec` in recency order (coldest first) that
    /// evicts the first unpinned entry a linear scan finds.
    #[derive(Default)]
    struct Reference {
        order: Vec<(u8, u8)>,
        pins: HashSet<u8>,
        claimed: Vec<u8>,
        failed: HashMap<u8, u64>,
        counters: Counters,
    }

    impl Reference {
        fn position(&self, key: u8) -> Option<usize> {
            self.order.iter().position(|(k, _)| *k == key)
        }

        fn evict(&mut self, owner: Option<u8>) -> bool {
            let pins = &self.pins;
            let at = self
                .order
                .iter()
                .position(|(k, o)| !pins.contains(k) && owner.is_none_or(|w| w == *o));
            let Some(at) = at else {
                return false;
            };
            let (key, _) = self.order.remove(at);
            self.counters.victims.push(key);
            true
        }

        fn insert(&mut self, key: u8, owner: u8) {
            if quota(owner) == Some(0) {
                return;
            }
            let resident = self.position(key).is_some();
            if let (Some(q), false) = (quota(owner), resident) {
                let held = self.order.iter().filter(|(_, o)| *o == owner).count() as u64;
                if held >= q && self.evict(Some(owner)) {
                    self.counters.quota_evictions += 1;
                }
            }
            if !resident && self.order.len() >= CAPACITY && self.evict(None) {
                self.counters.evictions += 1;
            }
            if let Some(at) = self.position(key) {
                self.order.remove(at);
            }
            self.order.push((key, owner));
        }
    }

    fn run_seed(seed: u64) {
        let subject = Guarded::new(Model {
            entries: LruMap::default(),
            held: HashMap::new(),
            pins: HashSet::new(),
            failed: FailureMemo::with_cap(MEMO_CAP),
            counters: Counters::default(),
        });
        let mut reference = Reference::default();
        let mut claims: Vec<(u8, u8, Claim<'_, Model, u8>)> = Vec::new();
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        for step in 0..400 {
            let key = rng.below(KEYS) as u8;
            let owner = rng.below(4) as u8;
            match rng.below(12) {
                0 | 1 => {
                    subject.update(|m| match m.entries.get(&key) {
                        Some(_) => m.counters.hits += 1,
                        None => m.counters.misses += 1,
                    });
                    match reference.position(key) {
                        Some(at) => {
                            let entry = reference.order.remove(at);
                            reference.order.push(entry);
                            reference.counters.hits += 1;
                        }
                        None => reference.counters.misses += 1,
                    }
                }
                2 | 3 => {
                    subject.update(|m| m.insert(key, owner));
                    reference.insert(key, owner);
                }
                4 => {
                    subject.update(|m| {
                        let Model { entries, held, .. } = &mut **m;
                        entries.retain(|k, o| {
                            if *k == key {
                                *held.get_mut(o).expect("counted") -= 1;
                            }
                            *k != key
                        });
                    });
                    if let Some(at) = reference.position(key) {
                        reference.order.remove(at);
                    }
                }
                5 => {
                    let pin = rng.below(2) == 0;
                    subject.update(|m| {
                        if pin {
                            m.pins.insert(key)
                        } else {
                            m.pins.remove(&key)
                        }
                    });
                    if pin {
                        reference.pins.insert(key);
                    } else {
                        reference.pins.remove(&key);
                    }
                }
                6 => {
                    subject.update(|m| {
                        let Model {
                            entries,
                            held,
                            pins,
                            counters,
                            ..
                        } = &mut **m;
                        counters.invalidated += entries.retain(|k, o| {
                            let keep = pins.contains(k);
                            if !keep {
                                *held.get_mut(o).expect("counted") -= 1;
                            }
                            keep
                        }) as u64;
                    });
                    let before = reference.order.len();
                    let pins = &reference.pins;
                    reference.order.retain(|(k, _)| pins.contains(k));
                    reference.counters.invalidated += (before - reference.order.len()) as u64;
                }
                7 => {
                    let mut locked = subject.lock();
                    if !locked.is_claimed(&key) {
                        claims.push((key, owner, subject.claim(&mut locked, key)));
                        reference.claimed.push(key);
                    }
                }
                8 if !claims.is_empty() => {
                    let (key, owner, claim) =
                        claims.remove(rng.below(claims.len() as u64) as usize);
                    match rng.below(3) {
                        0 => {
                            claim.publish(|m| m.insert(key, owner));
                            reference.insert(key, owner);
                        }
                        1 => {
                            // the publish step panics after it stored
                            let run = catch_unwind(AssertUnwindSafe(|| {
                                claim.publish(|m| {
                                    m.insert(key, owner);
                                    injected_panic()
                                })
                            }));
                            assert!(run.is_err());
                            reference.insert(key, owner);
                        }
                        _ => {
                            // the claim's owner panics before publishing
                            let run = catch_unwind(AssertUnwindSafe(move || {
                                let _claim = claim;
                                injected_panic()
                            }));
                            assert!(run.is_err());
                        }
                    }
                    let at = reference.claimed.iter().position(|k| *k == key);
                    reference.claimed.remove(at.expect("claimed"));
                }
                9 => {
                    let code = rng.below(1_000);
                    subject.update(|m| m.failed.insert(key, code));
                    if reference.failed.len() >= MEMO_CAP {
                        reference.failed.clear();
                    }
                    reference.failed.insert(key, code);
                }
                _ => {}
            }
            check(&subject, &reference, &claims, seed, step);
        }
    }

    /// Holds the subject to the reference after one step: the order,
    /// the victims, every counter, the per-owner counts, the claims and
    /// the memo.
    fn check(
        subject: &Guarded<Model, u8>,
        reference: &Reference,
        claims: &[(u8, u8, Claim<'_, Model, u8>)],
        seed: u64,
        step: usize,
    ) {
        let m = subject.lock();
        let order: Vec<(u8, u8)> = order(&m.entries.order)
            .into_iter()
            .map(|k| (k, *m.entries.peek(&k).expect("indexed")))
            .collect();
        assert_eq!(order, reference.order, "seed {seed} step {step}: order");
        assert_eq!(m.counters, reference.counters, "seed {seed} step {step}");
        for owner in 0..4u8 {
            let counted = reference.order.iter().filter(|(_, o)| *o == owner).count() as u64;
            let held = m.held.get(&owner).copied().unwrap_or(0);
            assert_eq!(held, counted, "seed {seed} step {step}: owner {owner}");
        }
        for key in 0..KEYS as u8 {
            assert_eq!(
                m.is_claimed(&key),
                reference.claimed.contains(&key),
                "seed {seed} step {step}: claim on {key}"
            );
            assert_eq!(m.failed.get(&key), reference.failed.get(&key));
        }
        assert_eq!(claims.len(), reference.claimed.len());
        assert_eq!(m.waiters, 0);
    }

    #[test]
    fn model_based_oracle_against_a_naive_reference() {
        for seed in 0..200 {
            run_seed(seed);
        }
    }
}
