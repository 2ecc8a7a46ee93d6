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
//! A probe costs a hash of the borrowed key and a reference-count bump:
//! invocations are filed per service under their owned key, and a
//! cached [`Page`] is handed out shared. Those per-service maps index
//! into one [`Lru`], so a bounded *optimal* cache evicts exactly and
//! globally, skipping pinned invocations without a scan.

use crate::joins::mix;
use crate::store::Lru;
use mdq_model::schema::ServiceId;
use mdq_model::value::{Tuple, Value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
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

/// A map keyed by service id.
type ByService<V> = HashMap<ServiceId, V, BuildHasherDefault<WordHasher>>;

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
pub struct PageStore {
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
    one_call: HashMap<ServiceId, (Vec<Value>, PageStore)>,
    /// Per service, so a probe looks the borrowed key up as it is, with
    /// the entry's slot in `order`.
    optimal: ByService<HashMap<Arc<[Value]>, Resident>>,
    /// Recency of the *optimal* invocations; a lookup touches it only
    /// while the cache is bounded (an unbounded one never evicts).
    order: Lru<(ServiceId, Arc<[Value]>)>,
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
            optimal: ByService::default(),
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

    fn store_of(&mut self, service: ServiceId, key: &[Value]) -> Option<&PageStore> {
        if self.capacity == 0 {
            return None;
        }
        match self.setting {
            CacheSetting::NoCache => None,
            CacheSetting::OneCall => self
                .one_call
                .get(&service)
                .filter(|(k, _)| k.as_slice() == key)
                .map(|(_, s)| s),
            CacheSetting::Optimal => {
                let (store, at) = self.optimal.get(&service)?.get(key)?;
                if self.capacity != usize::MAX {
                    self.order.touch(*at);
                }
                Some(store)
            }
        }
    }

    /// Probes the cache for page `page` of an invocation (refreshing
    /// the invocation's LRU recency under a bounded *optimal* setting).
    pub fn lookup(&mut self, service: ServiceId, key: &[Value], page: u32) -> PageLookup {
        let Some(store) = self.store_of(service, key) else {
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
        if self.capacity == 0 {
            return;
        }
        let store = match self.setting {
            CacheSetting::NoCache => return,
            CacheSetting::OneCall => {
                if let Some((resident, _)) = self.one_call.get(&service) {
                    if resident.as_slice() != key && self.is_pinned(service, resident) {
                        // a live subscription frontier pins the resident
                        // key: drop the new store instead of replacing
                        return;
                    }
                }
                let entry = self
                    .one_call
                    .entry(service)
                    .or_insert_with(|| (key.to_vec(), PageStore::default()));
                if entry.0.as_slice() != key {
                    if page != 0 {
                        // mid-stream for a new key: keep the old entry
                        // rather than caching a stream with a hole
                        return;
                    }
                    // the one-call cache replaces its per-service entry
                    *entry = (key.to_vec(), PageStore::default());
                    self.evictions += 1;
                }
                &mut entry.1
            }
            CacheSetting::Optimal => match self.resident(service, key) {
                Some(store) => store,
                None => return,
            },
        };
        if (page as usize) > store.pages.len() {
            return; // non-contiguous: drop instead of padding with holes
        }
        if store.pages.len() == page as usize {
            store.pages.push(tuples.into());
        }
        if !has_more {
            store.exhausted = true;
        }
    }

    /// The *optimal* entry of `(service, key)`, just used — made room
    /// for (pin-aware LRU eviction at the capacity bound) and created
    /// when the invocation is not resident.
    fn resident(&mut self, service: ServiceId, key: &[Value]) -> Option<&mut PageStore> {
        match self.optimal.get(&service).and_then(|keys| keys.get(key)) {
            Some(&(_, at)) => self.order.touch(at),
            None => {
                if self.order.len() >= self.capacity {
                    self.evict_unpinned();
                }
                let key = Arc::<[Value]>::from(key);
                let at = self.order.push((service, Arc::clone(&key)));
                let keys = self.optimal.entry(service).or_default();
                keys.insert(key, (PageStore::default(), at));
            }
        }
        Some(&mut self.optimal.get_mut(&service)?.get_mut(key)?.0)
    }

    /// Evicts the least-recently-used *unpinned* invocation (bounded
    /// *optimal* only). When every resident invocation is pinned by a
    /// live subscription frontier, nothing is evicted — the cache
    /// temporarily exceeds its capacity rather than tearing pages out
    /// from under a standing query's delta computation.
    fn evict_unpinned(&mut self) {
        let pins = &self.pins;
        if let Some((service, key)) = self.order.evict(|(s, k)| pinned(pins, *s, k)) {
            if let Some(keys) = self.optimal.get_mut(&service) {
                keys.remove(&key);
            }
            self.evictions += 1;
        }
    }

    /// Takes one pin on an invocation (refcounted). Pinned invocations
    /// survive bounded-LRU eviction, one-call replacement and
    /// [`PageCache::invalidate_unpinned`]. Pins are independent of
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
    pub fn unpin(&mut self, service: ServiceId, key: &[Value]) -> bool {
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
    pub fn is_pinned(&self, service: ServiceId, key: &[Value]) -> bool {
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
                .filter(|(k, _)| k.as_slice() == key)
                .map(|(_, s)| s),
            CacheSetting::Optimal => self.optimal.get(&service)?.get(key).map(|(s, _)| s),
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
        if let Some(store) = self.resident(service, key) {
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
    pub fn invalidate_unpinned(&mut self) -> usize {
        let before = self.entries();
        let pins = &self.pins;
        match self.setting {
            CacheSetting::NoCache => {}
            CacheSetting::OneCall => self
                .one_call
                .retain(|service, (key, _)| pinned(pins, *service, key)),
            CacheSetting::Optimal => {
                let order = &mut self.order;
                for (service, keys) in &mut self.optimal {
                    keys.retain(|key, (_, at)| {
                        let keep = pinned(pins, *service, key);
                        if !keep {
                            order.remove(*at);
                        }
                        keep
                    });
                }
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
