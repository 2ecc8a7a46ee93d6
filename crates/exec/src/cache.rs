//! Logical caching (§5.1): the three client-side cache settings.
//!
//! The cache maps `(service, input key)` to the *pages* previously
//! fetched for that invocation, in fetch order. *One-call* keeps only the
//! most recent key per service — enough to absorb the "immediate
//! second-call" redundancy that blocks of uniform tuples from
//! proliferative services produce; *optimal* memoizes everything;
//! *no cache* forwards every request.
//!
//! This is the storage half of the execution engine's single
//! service-invocation path: the [`ServiceGateway`](crate::gateway)
//! consults a [`PageCache`] before forwarding any page request, and every
//! executor drives its service calls through that gateway.
//!
//! A probe costs one keyed hash of the borrowed key and a
//! reference-count bump: *optimal* invocations are filed under a hash
//! the cache computes once per `Probe` with keys of its own (so a
//! client choosing constants cannot aim collisions at it), the maps
//! pass that hash through, and a cached [`Page`] is handed out shared.
//! The map indexes into one `Lru`, so a bounded *optimal* cache evicts
//! exactly and globally, skipping pinned invocations without a scan,
//! and removes its victim by the victim's stored hash.

use crate::joins::mix;
use crate::store::Lru;
use mdq_model::schema::ServiceId;
use mdq_model::value::{Tuple, Value};
use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// An unkeyed hasher that folds its input a word at a time, for keys no
/// client chooses — service ids — and for spreading invocation keys
/// over page shards, where a crafted key costs lock contention at
/// worst: the per-shard maps of invocation keys keep their keyed hash.
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix(self.0, u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.0 = mix(self.0, n.into());
    }
    fn write_u32(&mut self, n: u32) {
        self.0 = mix(self.0, n.into());
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0, n);
    }
    fn write_usize(&mut self, n: usize) {
        self.0 = mix(self.0, n as u64);
    }
    fn finish(&self) -> u64 {
        // the multiply mixes upwards only: fold the high half down
        self.0 ^ (self.0 >> 32)
    }
}

/// Passes a hash computed beforehand through: the *optimal* map's keys
/// hash as the one `u64` their cache computed for them.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, bytes: &[u8]) {
        // only a `u64` is ever written; fold anything else, not drop it
        self.0 = bytes.iter().fold(self.0, |h, &b| mix(h, b.into()));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// An invocation `(service, key)` hashed once under one cache's keys, by
/// [`PageCache::probe`]: every lookup and store of it in that cache
/// reuses the hash. Meaningless to any other cache.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Probe<'k> {
    hash: u64,
    service: ServiceId,
    key: &'k [Value],
}

/// An *optimal* invocation as filed: its hash, its service, and its key,
/// shared with the recency order (and with the claim that fetched it).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Filed {
    hash: u64,
    service: ServiceId,
    key: Arc<[Value]>,
}

/// An invocation's identity, filed ([`Filed`]) or borrowed by a
/// [`Probe`], so a lookup builds no owned key.
trait Invocation {
    fn parts(&self) -> (u64, ServiceId, &[Value]);
}

impl Invocation for Filed {
    fn parts(&self) -> (u64, ServiceId, &[Value]) {
        (self.hash, self.service, &self.key)
    }
}

impl Invocation for Probe<'_> {
    fn parts(&self) -> (u64, ServiceId, &[Value]) {
        (self.hash, self.service, self.key)
    }
}

impl<'a> Borrow<dyn Invocation + 'a> for Filed {
    fn borrow(&self) -> &(dyn Invocation + 'a) {
        self
    }
}

// both forms hash as their stored hash, so the map rehashes nothing
impl Hash for dyn Invocation + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.parts().0);
    }
}

impl PartialEq for dyn Invocation + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn Invocation + '_ {}

impl Hash for Filed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn Invocation).hash(state);
    }
}

/// What a store displaced — an evicted or replaced invocation's key and
/// pages — handed back so the caller can drop it outside its lock.
pub(crate) type Evicted = (Arc<[Value]>, PageStore);

pub use mdq_cost::estimate::CacheSetting;

/// One fetched page: its tuples in rank order, behind a shared pointer
/// — storing a page, serving it from the cache and handing it to an
/// operator all share one allocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Page(Arc<[Tuple]>);

impl std::ops::Deref for Page {
    type Target = [Tuple];
    fn deref(&self) -> &[Tuple] {
        &self.0
    }
}

impl From<Vec<Tuple>> for Page {
    fn from(tuples: Vec<Tuple>) -> Self {
        Page(tuples.into())
    }
}

impl PartialEq<Vec<Tuple>> for Page {
    fn eq(&self, other: &Vec<Tuple>) -> bool {
        *self.0 == **other
    }
}

/// Owned page lists — the page-set type standing queries track —
/// collect from shared pages: the one place pages are copied
/// out, at that boundary.
impl FromIterator<Page> for Vec<Vec<Tuple>> {
    fn from_iter<I: IntoIterator<Item = Page>>(pages: I) -> Self {
        pages.into_iter().map(|p| p.to_vec()).collect()
    }
}

/// The pages previously fetched for one invocation key.
#[derive(Clone, Debug, Default)]
pub(crate) struct PageStore {
    /// Fetched pages, in page order.
    pub pages: Vec<Page>,
    /// Whether the service reported no further pages after the last one.
    pub exhausted: bool,
}

/// Per-service hit/miss counters (one event per *invocation*, i.e. per
/// input binding reaching an invoke operator — not per page). Recorded
/// in the execution's call ledger, not in the cache: a [`PageCache`]
/// stores pages and counts only its own evictions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Invocations answered entirely from the cache.
    pub hits: u64,
    /// Invocations that forwarded at least one request.
    pub misses: u64,
}

/// Outcome of a cache probe for one page.
#[derive(Clone, Debug)]
pub enum PageLookup {
    /// The page is cached: its tuples, and whether more pages follow.
    Hit(Page, bool),
    /// The invocation is known to be exhausted before this page — the
    /// service has no such page, no request needed.
    PastEnd,
    /// The cache cannot answer; the request must be forwarded.
    Unknown,
}

/// A client-side logical page cache in one of the three §5.1 settings,
/// optionally bounded to a number of distinct invocation keys
/// ([`PageCache::with_capacity`]) — a production cache cannot memoize
/// an unbounded workload, so the *optimal* setting becomes an LRU over
/// invocations and replacements are counted as evictions.
#[derive(Debug)]
pub struct PageCache {
    setting: CacheSetting,
    /// Max distinct invocation keys held (`usize::MAX` = unbounded, the
    /// paper's idealised optimal cache; `0` disables caching entirely).
    capacity: usize,
    one_call: HashMap<ServiceId, (Arc<[Value]>, PageStore)>,
    /// The *optimal* invocations under their hash, with the entry's slot
    /// in `order`.
    optimal: HashMap<Filed, Resident, BuildHasherDefault<Prehashed>>,
    /// The keys every [`Probe`] of this cache is hashed with.
    keys: RandomState,
    /// Recency of the *optimal* invocations; a lookup touches it only
    /// while the cache is bounded (an unbounded one never evicts).
    order: Lru<Filed>,
    evictions: u64,
    /// Refcounted pins held by live subscription frontiers: a pinned
    /// invocation is never evicted (bounded LRU) nor invalidated — the
    /// standing-query delta computation re-reads exactly these pages.
    pins: Pins,
}

/// An *optimal* invocation's pages and its slot in the recency order.
type Resident = (PageStore, usize);

/// Pin counts per service and invocation key.
type Pins = HashMap<ServiceId, HashMap<Vec<Value>, u32>>;

/// Whether `pins` holds a pin on `(service, key)` — free-standing so it
/// can be asked while another field of the cache is being edited.
fn pinned(pins: &Pins, service: ServiceId, key: &[Value]) -> bool {
    pins.get(&service).is_some_and(|p| p.contains_key(key))
}

impl PageCache {
    /// A fresh unbounded cache with the given setting.
    pub fn new(setting: CacheSetting) -> Self {
        Self::with_capacity(setting, usize::MAX)
    }

    /// A fresh cache bounded to `capacity` distinct invocation keys
    /// (`0` disables caching — every lookup misses, every store is
    /// dropped — mirroring `PlanCache::new(0)`).
    pub fn with_capacity(setting: CacheSetting, capacity: usize) -> Self {
        PageCache {
            setting,
            capacity,
            one_call: HashMap::new(),
            optimal: HashMap::default(),
            keys: RandomState::new(),
            order: Lru::default(),
            evictions: 0,
            pins: HashMap::new(),
        }
    }

    /// Invocation entries dropped to respect the capacity bound (LRU
    /// evictions under *optimal*, key replacements under *one-call*).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Distinct invocation keys currently memoized — the cache's
    /// occupancy (0 under *no-cache*).
    pub fn entries(&self) -> usize {
        match self.setting {
            CacheSetting::NoCache => 0,
            CacheSetting::OneCall => self.one_call.len(),
            CacheSetting::Optimal => self.order.len(),
        }
    }

    /// Hashes `(service, key)` once for every lookup and store of it in
    /// this cache (only the *optimal* setting files by hash).
    pub(crate) fn probe<'k>(&self, service: ServiceId, key: &'k [Value]) -> Probe<'k> {
        let hash = match self.setting {
            CacheSetting::Optimal if self.capacity != 0 => self.keys.hash_one((service, key)),
            _ => 0,
        };
        Probe { hash, service, key }
    }

    fn store_of(&mut self, at: Probe<'_>) -> Option<&PageStore> {
        if self.capacity == 0 {
            return None;
        }
        match self.setting {
            CacheSetting::NoCache => None,
            CacheSetting::OneCall => self
                .one_call
                .get(&at.service)
                .filter(|(k, _)| **k == *at.key)
                .map(|(_, s)| s),
            CacheSetting::Optimal => {
                let (store, slot) = self.optimal.get(&at as &dyn Invocation)?;
                if self.capacity != usize::MAX {
                    self.order.touch(*slot);
                }
                Some(store)
            }
        }
    }

    /// Probes the cache for page `page` of an invocation (refreshing
    /// the invocation's LRU recency under a bounded *optimal* setting).
    pub fn lookup(&mut self, service: ServiceId, key: &[Value], page: u32) -> PageLookup {
        self.lookup_at(self.probe(service, key), page)
    }

    /// [`PageCache::lookup`] of an invocation this cache has hashed.
    pub(crate) fn lookup_at(&mut self, at: Probe<'_>, page: u32) -> PageLookup {
        let Some(store) = self.store_of(at) else {
            return PageLookup::Unknown;
        };
        let p = page as usize;
        if p < store.pages.len() {
            let has_more = p + 1 < store.pages.len() || !store.exhausted;
            return PageLookup::Hit(store.pages[p].clone(), has_more);
        }
        if store.exhausted {
            PageLookup::PastEnd
        } else {
            PageLookup::Unknown
        }
    }

    /// Stores a freshly fetched page. Pages are demanded in order per
    /// invocation, so `page` is normally at most one past the stored
    /// prefix; a non-contiguous store (an invocation whose earlier pages
    /// were fetched before the one-call cache evicted its key) is
    /// dropped — caching a stream with a hole would fabricate empty
    /// pages on later lookups.
    pub fn store(
        &mut self,
        service: ServiceId,
        key: &[Value],
        page: u32,
        tuples: impl Into<Page>,
        has_more: bool,
    ) {
        let at = self.probe(service, key);
        self.store_at(at, || Arc::from(key), page, tuples, has_more);
    }

    /// [`PageCache::store`] of an invocation this cache has hashed;
    /// `owned` gives the key a new entry is filed under. Returns what
    /// the store displaced, for the caller to drop once it has unlocked.
    pub(crate) fn store_at(
        &mut self,
        at: Probe<'_>,
        owned: impl FnOnce() -> Arc<[Value]>,
        page: u32,
        tuples: impl Into<Page>,
        has_more: bool,
    ) -> Option<Evicted> {
        if self.capacity == 0 {
            return None;
        }
        let mut evicted = None;
        let store = match self.setting {
            CacheSetting::NoCache => return None,
            CacheSetting::OneCall => {
                let resident = self.one_call.get(&at.service);
                if let Some((resident, _)) = resident.filter(|(k, _)| **k != *at.key) {
                    if self.is_pinned(at.service, resident) || page != 0 {
                        // a live subscription frontier pins the resident
                        // key, or the new key is mid-stream (caching it
                        // would leave a hole): keep the old entry
                        return None;
                    }
                    // the one-call cache replaces its per-service entry
                    self.evictions += 1;
                    evicted = self.one_call.remove(&at.service);
                }
                let entry = self.one_call.entry(at.service);
                &mut entry.or_insert_with(|| (owned(), PageStore::default())).1
            }
            CacheSetting::Optimal => {
                evicted = self.make_resident(at, owned);
                match self.optimal.get_mut(&at as &dyn Invocation) {
                    Some((store, _)) => store,
                    None => return evicted,
                }
            }
        };
        if (page as usize) > store.pages.len() {
            return evicted; // non-contiguous: drop instead of padding with holes
        }
        if store.pages.len() == page as usize {
            store.pages.push(tuples.into());
        }
        if !has_more {
            store.exhausted = true;
        }
        evicted
    }

    /// Makes the *optimal* invocation `at` the most recently used, filing
    /// it under `owned` (after pin-aware LRU eviction at the capacity
    /// bound) when it is not resident; returns what was evicted.
    fn make_resident(
        &mut self,
        at: Probe<'_>,
        owned: impl FnOnce() -> Arc<[Value]>,
    ) -> Option<Evicted> {
        if let Some(&(_, slot)) = self.optimal.get(&at as &dyn Invocation) {
            self.order.touch(slot);
            return None;
        }
        let evicted = if self.order.len() >= self.capacity {
            self.evict_unpinned()
        } else {
            None
        };
        let filed = Filed {
            hash: at.hash,
            service: at.service,
            key: owned(),
        };
        let slot = self.order.push(filed.clone());
        self.optimal.insert(filed, (PageStore::default(), slot));
        evicted
    }

    /// Evicts the least-recently-used *unpinned* invocation (bounded
    /// *optimal* only). When every resident invocation is pinned by a
    /// live subscription frontier, nothing is evicted — the cache
    /// temporarily exceeds its capacity rather than tearing pages out
    /// from under a standing query's delta computation.
    fn evict_unpinned(&mut self) -> Option<Evicted> {
        let pins = &self.pins;
        let victim = self.order.evict(|f| pinned(pins, f.service, &f.key))?;
        self.evictions += 1;
        let (pages, _) = self.optimal.remove(&victim)?;
        Some((victim.key, pages))
    }

    /// Takes one pin on an invocation (refcounted). Pinned invocations
    /// survive bounded-LRU eviction, one-call replacement and
    /// `PageCache::invalidate_unpinned`. Pins are independent of
    /// residency: pinning a key that is not (yet) cached is allowed.
    pub fn pin(&mut self, service: ServiceId, key: &[Value]) {
        let pins = self.pins.entry(service).or_default();
        match pins.get_mut(key) {
            Some(n) => *n += 1,
            None => {
                pins.insert(key.to_vec(), 1);
            }
        }
    }

    /// Releases one pin. Returns whether a pin was held.
    pub(crate) fn unpin(&mut self, service: ServiceId, key: &[Value]) -> bool {
        let Some(pins) = self.pins.get_mut(&service) else {
            return false;
        };
        match pins.get_mut(key) {
            Some(n) if *n > 1 => {
                *n -= 1;
                true
            }
            Some(_) => {
                pins.remove(key);
                true
            }
            None => false,
        }
    }

    /// Whether the invocation currently holds at least one pin.
    fn is_pinned(&self, service: ServiceId, key: &[Value]) -> bool {
        pinned(&self.pins, service, key)
    }

    /// Distinct invocations currently pinned.
    pub fn pinned_invocations(&self) -> usize {
        self.pins.values().map(HashMap::len).sum()
    }

    /// A copy of an invocation's cached pages and exhaustion flag,
    /// without touching LRU recency — the baseline a standing query
    /// tracks and diffs against. `None` when not resident (or the
    /// setting keeps no per-key store for it).
    pub fn export(&self, service: ServiceId, key: &[Value]) -> Option<(Vec<Vec<Tuple>>, bool)> {
        let store = match self.setting {
            CacheSetting::NoCache => None,
            CacheSetting::OneCall => self
                .one_call
                .get(&service)
                .filter(|(k, _)| **k == *key)
                .map(|(_, s)| s),
            CacheSetting::Optimal => {
                let at = self.probe(service, key);
                self.optimal.get(&at as &dyn Invocation).map(|(s, _)| s)
            }
        }?;
        Some((store.pages.iter().cloned().collect(), store.exhausted))
    }

    /// Installs a whole refreshed page set for an invocation, replacing
    /// any stale store (the page-at-a-time contiguity rules of
    /// [`PageCache::store`] do not apply — the set arrives complete
    /// from a refresh pass). Only the *optimal* setting installs; the
    /// capacity bound is honoured with pin-aware eviction.
    pub fn replace(
        &mut self,
        service: ServiceId,
        key: &[Value],
        pages: Vec<Vec<Tuple>>,
        exhausted: bool,
    ) {
        if self.capacity == 0 || self.setting != CacheSetting::Optimal {
            return;
        }
        let at = self.probe(service, key);
        self.make_resident(at, || Arc::from(key));
        if let Some((store, _)) = self.optimal.get_mut(&at as &dyn Invocation) {
            *store = PageStore {
                pages: pages.into_iter().map(Page::from).collect(),
                exhausted,
            };
        }
    }

    /// Drops every *unpinned* invocation (all settings), returning how
    /// many were dropped. A refresh pass runs this first so re-demanded
    /// pages outside any subscription frontier are re-fetched at the
    /// new epoch instead of served from a stale ad-hoc store; pinned
    /// invocations are exempt because the pass itself refreshes them.
    /// Not counted as evictions (capacity pressure) in
    /// [`PageCache::evictions`].
    pub(crate) fn invalidate_unpinned(&mut self) -> usize {
        let before = self.entries();
        let pins = &self.pins;
        match self.setting {
            CacheSetting::NoCache => {}
            CacheSetting::OneCall => self
                .one_call
                .retain(|service, (key, _)| pinned(pins, *service, key)),
            CacheSetting::Optimal => {
                let order = &mut self.order;
                self.optimal.retain(|filed, (_, slot)| {
                    let keep = pinned(pins, filed.service, &filed.key);
                    if !keep {
                        order.remove(*slot);
                    }
                    keep
                });
            }
        }
        before - self.entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Vec<Value> {
        vec![Value::str(s)]
    }

    fn page(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::new(vec![Value::Int(i as i64)]))
            .collect()
    }

    #[test]
    fn no_cache_never_hits() {
        let mut c = PageCache::new(CacheSetting::NoCache);
        let s = ServiceId(0);
        c.store(s, &key("a"), 0, page(2), false);
        assert!(matches!(c.lookup(s, &key("a"), 0), PageLookup::Unknown));
    }

    #[test]
    fn one_call_remembers_only_last_key() {
        let mut c = PageCache::new(CacheSetting::OneCall);
        let s = ServiceId(0);
        c.store(s, &key("a"), 0, page(2), false);
        assert!(matches!(c.lookup(s, &key("a"), 0), PageLookup::Hit(t, false) if t.len() == 2));
        c.store(s, &key("b"), 0, page(1), true);
        assert!(
            matches!(c.lookup(s, &key("a"), 0), PageLookup::Unknown),
            "a was evicted by b"
        );
        assert!(matches!(c.lookup(s, &key("b"), 0), PageLookup::Hit(t, true) if t.len() == 1));
    }

    #[test]
    fn one_call_is_per_service() {
        let mut c = PageCache::new(CacheSetting::OneCall);
        c.store(ServiceId(0), &key("a"), 0, page(1), false);
        c.store(ServiceId(1), &key("b"), 0, page(1), false);
        assert!(matches!(
            c.lookup(ServiceId(0), &key("a"), 0),
            PageLookup::Hit(..)
        ));
        assert!(matches!(
            c.lookup(ServiceId(1), &key("b"), 0),
            PageLookup::Hit(..)
        ));
    }

    #[test]
    fn optimal_remembers_everything() {
        let mut c = PageCache::new(CacheSetting::Optimal);
        let s = ServiceId(0);
        for k in ["a", "b", "c"] {
            assert!(matches!(c.lookup(s, &key(k), 0), PageLookup::Unknown));
            c.store(s, &key(k), 0, page(1), false);
        }
        for k in ["a", "b", "c"] {
            assert!(matches!(c.lookup(s, &key(k), 0), PageLookup::Hit(..)));
        }
    }

    #[test]
    fn exhaustion_marks_later_pages_past_end() {
        let mut c = PageCache::new(CacheSetting::Optimal);
        let s = ServiceId(0);
        c.store(s, &key("a"), 0, page(2), true);
        c.store(s, &key("a"), 1, page(1), false);
        assert!(
            matches!(c.lookup(s, &key("a"), 0), PageLookup::Hit(_, true)),
            "page 0 has a successor"
        );
        assert!(
            matches!(c.lookup(s, &key("a"), 1), PageLookup::Hit(_, false)),
            "page 1 is the last"
        );
        assert!(
            matches!(c.lookup(s, &key("a"), 2), PageLookup::PastEnd),
            "deeper requests need no forwarding"
        );
        // an open (non-exhausted) prefix cannot answer deeper requests
        c.store(s, &key("b"), 0, page(2), true);
        assert!(matches!(c.lookup(s, &key("b"), 1), PageLookup::Unknown));
    }

    #[test]
    fn non_contiguous_store_is_dropped() {
        // one-call: a key whose earlier pages predate an eviction must
        // not evict the current entry or cache a stream with a hole
        let mut c = PageCache::new(CacheSetting::OneCall);
        let s = ServiceId(0);
        c.store(s, &key("a"), 0, page(2), true);
        c.store(s, &key("b"), 1, page(1), false);
        assert!(
            matches!(c.lookup(s, &key("a"), 0), PageLookup::Hit(..)),
            "a survives the mid-stream store of b"
        );
        assert!(matches!(c.lookup(s, &key("b"), 0), PageLookup::Unknown));
        // and no setting ever fabricates an empty page below a hole
        let mut o = PageCache::new(CacheSetting::Optimal);
        o.store(s, &key("a"), 2, page(1), false);
        assert!(matches!(o.lookup(s, &key("a"), 0), PageLookup::Unknown));
        assert!(matches!(o.lookup(s, &key("a"), 2), PageLookup::Unknown));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PageCache::with_capacity(CacheSetting::Optimal, 0);
        let s = ServiceId(0);
        c.store(s, &key("a"), 0, page(2), false);
        assert!(matches!(c.lookup(s, &key("a"), 0), PageLookup::Unknown));
        assert_eq!(c.evictions(), 0, "nothing stored, nothing evicted");
    }

    #[test]
    fn bounded_optimal_evicts_lru_invocations() {
        let mut c = PageCache::with_capacity(CacheSetting::Optimal, 2);
        let s = ServiceId(0);
        c.store(s, &key("a"), 0, page(1), false);
        c.store(s, &key("b"), 0, page(1), false);
        // touch a so b is the coldest
        assert!(matches!(c.lookup(s, &key("a"), 0), PageLookup::Hit(..)));
        c.store(s, &key("c"), 0, page(1), false);
        assert_eq!(c.evictions(), 1);
        assert!(matches!(c.lookup(s, &key("b"), 0), PageLookup::Unknown));
        assert!(matches!(c.lookup(s, &key("a"), 0), PageLookup::Hit(..)));
        assert!(matches!(c.lookup(s, &key("c"), 0), PageLookup::Hit(..)));
    }

    #[test]
    fn one_call_replacements_count_as_evictions() {
        let mut c = PageCache::new(CacheSetting::OneCall);
        let s = ServiceId(0);
        c.store(s, &key("a"), 0, page(1), false);
        assert_eq!(c.evictions(), 0, "first entry replaces nothing");
        c.store(s, &key("b"), 0, page(1), false);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn bounded_eviction_skips_pinned_invocations() {
        // regression: a live subscription frontier pins `a`; bounded
        // LRU pressure must evict around it even though `a` is coldest
        let mut c = PageCache::with_capacity(CacheSetting::Optimal, 2);
        let s = ServiceId(0);
        c.store(s, &key("a"), 0, page(1), false);
        c.pin(s, &key("a"));
        c.store(s, &key("b"), 0, page(1), false);
        // touch b so a is strictly least-recently-used
        assert!(matches!(c.lookup(s, &key("b"), 0), PageLookup::Hit(..)));
        c.store(s, &key("c"), 0, page(1), false);
        assert_eq!(c.evictions(), 1);
        assert!(
            matches!(c.lookup(s, &key("a"), 0), PageLookup::Hit(..)),
            "pinned a survives"
        );
        assert!(
            matches!(c.lookup(s, &key("b"), 0), PageLookup::Unknown),
            "unpinned b was the victim"
        );
        // unpin: a becomes evictable again once it is the coldest
        assert!(c.unpin(s, &key("a")));
        assert!(matches!(c.lookup(s, &key("c"), 0), PageLookup::Hit(..)));
        c.store(s, &key("d"), 0, page(1), false);
        assert!(matches!(c.lookup(s, &key("a"), 0), PageLookup::Unknown));
    }

    #[test]
    fn all_pinned_cache_overflows_rather_than_evicting() {
        let mut c = PageCache::with_capacity(CacheSetting::Optimal, 1);
        let s = ServiceId(0);
        c.store(s, &key("a"), 0, page(1), false);
        c.pin(s, &key("a"));
        c.store(s, &key("b"), 0, page(1), false);
        assert_eq!(c.evictions(), 0, "no unpinned victim existed");
        assert_eq!(c.entries(), 2, "temporarily over capacity");
        assert!(matches!(c.lookup(s, &key("a"), 0), PageLookup::Hit(..)));
        assert!(matches!(c.lookup(s, &key("b"), 0), PageLookup::Hit(..)));
    }

    #[test]
    fn pins_are_refcounted() {
        let mut c = PageCache::new(CacheSetting::Optimal);
        let s = ServiceId(0);
        c.pin(s, &key("a"));
        c.pin(s, &key("a"));
        assert!(c.is_pinned(s, &key("a")));
        assert_eq!(c.pinned_invocations(), 1);
        assert!(c.unpin(s, &key("a")));
        assert!(c.is_pinned(s, &key("a")), "one pin still held");
        assert!(c.unpin(s, &key("a")));
        assert!(!c.is_pinned(s, &key("a")));
        assert!(!c.unpin(s, &key("a")), "no pin left to release");
    }

    #[test]
    fn one_call_does_not_replace_a_pinned_resident() {
        let mut c = PageCache::new(CacheSetting::OneCall);
        let s = ServiceId(0);
        c.store(s, &key("a"), 0, page(2), false);
        c.pin(s, &key("a"));
        c.store(s, &key("b"), 0, page(1), true);
        assert!(
            matches!(c.lookup(s, &key("a"), 0), PageLookup::Hit(..)),
            "pinned resident survives"
        );
        assert!(matches!(c.lookup(s, &key("b"), 0), PageLookup::Unknown));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn export_replace_round_trip() {
        let mut c = PageCache::new(CacheSetting::Optimal);
        let s = ServiceId(0);
        c.store(s, &key("a"), 0, page(2), true);
        c.store(s, &key("a"), 1, page(1), false);
        let (pages, exhausted) = c.export(s, &key("a")).expect("resident");
        assert_eq!((pages.len(), exhausted), (2, true));
        assert!(c.export(s, &key("zzz")).is_none());
        // a refresh shrinks the invocation to one open page
        c.replace(s, &key("a"), vec![page(3)], false);
        assert!(matches!(c.lookup(s, &key("a"), 0), PageLookup::Hit(t, true) if t.len() == 3));
        assert!(
            matches!(c.lookup(s, &key("a"), 1), PageLookup::Unknown),
            "stale page 1 gone"
        );
    }

    #[test]
    fn invalidate_unpinned_spares_pinned_entries() {
        let mut c = PageCache::new(CacheSetting::Optimal);
        let s = ServiceId(0);
        c.store(s, &key("a"), 0, page(1), false);
        c.store(s, &key("b"), 0, page(1), false);
        c.store(s, &key("c"), 0, page(1), false);
        c.pin(s, &key("b"));
        assert_eq!(c.invalidate_unpinned(), 2);
        assert!(matches!(c.lookup(s, &key("a"), 0), PageLookup::Unknown));
        assert!(matches!(c.lookup(s, &key("b"), 0), PageLookup::Hit(..)));
        assert!(matches!(c.lookup(s, &key("c"), 0), PageLookup::Unknown));
        assert_eq!(c.evictions(), 0, "invalidations are not evictions");
    }
}
