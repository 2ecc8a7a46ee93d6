//! A standing query whose re-evaluation reads deeper than its tracking
//! began, then sees drift only in those deeper pages.
//!
//! A subscription tracks each invocation it read at the depth the page
//! cache held when tracking began, and a refresh pass re-fetches that
//! many pages. When a later re-evaluation reads *further* into an
//! already-tracked invocation (drift pushed rows below the query's
//! threshold, so top-k pulls more), the deeper pages land in the pinned
//! cache entry; the tracked depth has to follow them there, or a pass
//! whose shallow pages come back unchanged never re-reads the deep ones
//! and the subscription keeps answering from a past epoch.
//!
//! The oracle: one source, `items('k', Id, Score)`, six pages of four
//! rows. Page 0 passes the threshold at epoch 0 and fails it from epoch
//! 1 on; every later change is confined to pages 1 to 5, at seeded
//! epochs. After every pass the subscriber's folded deltas must equal a
//! from-scratch run over an identical source pinned to the same epoch.

use mdq::model::rng::splitmix64;
use mdq::model::schema::{Schema, ServiceBuilder, ServiceProfile};
use mdq::model::value::{DomainKind, Tuple, Value};
use mdq::runtime::DEFAULT_TENANT;
use mdq::services::refresh::{EpochClock, RefreshPolicy};
use mdq::services::service::{Service, ServiceResponse};
use mdq::{Mdq, QueryServer, RuntimeConfig};
use std::sync::Arc;

const ROWS_PER_PAGE: u32 = 4;
const PAGES: u32 = 6;
const K: u64 = 2;
const QUERY: &str = "q(Id, Score) :- items('k', Id, Score), Score >= 50.";

/// The drifting source: page 0's rows all pass the query's threshold at
/// epoch 0 and all fail it after; a deeper page redraws its scores at
/// the epochs its seeded schedule picks (from epoch 2 on, so the first
/// pass that makes the query read deep sees no deep drift yet).
struct Items {
    clock: Arc<EpochClock>,
    seed: u64,
}

impl Items {
    /// How many times `page` has drifted by `epoch`.
    fn generation(&self, page: u32, epoch: u64) -> u64 {
        (2..=epoch)
            .filter(|&e| splitmix64(self.seed ^ u64::from(page) << 32 ^ e).is_multiple_of(3))
            .count() as u64
    }

    fn score(&self, page: u32, slot: u32, epoch: u64) -> i64 {
        if page == 0 {
            return if epoch == 0 { 90 } else { 10 };
        }
        let draw = splitmix64(self.seed ^ u64::from(page * ROWS_PER_PAGE + slot) << 40)
            ^ self.generation(page, epoch);
        (splitmix64(draw) % 100) as i64
    }
}

impl Service for Items {
    fn name(&self) -> &str {
        "items"
    }

    fn fetch(&self, _pattern: usize, _inputs: &[Value], page: u32) -> ServiceResponse {
        let epoch = self.clock.now();
        let tuples = (0..ROWS_PER_PAGE)
            .map(|slot| {
                let id = i64::from(page * ROWS_PER_PAGE + slot);
                Tuple::new(vec![
                    Value::str("k"),
                    Value::Int(id),
                    Value::Int(self.score(page, slot, epoch)),
                ])
            })
            .collect();
        ServiceResponse {
            tuples,
            has_more: page + 1 < PAGES,
            latency: 0.1,
        }
    }
}

/// A server over the one-source world, on its own clock.
fn server(seed: u64, clock: &Arc<EpochClock>) -> QueryServer {
    let mut schema = Schema::new();
    let items = ServiceBuilder::new(&mut schema, "items")
        .attr_kinded("K", "DK", DomainKind::Str)
        .attr_kinded("Id", "DId", DomainKind::Int)
        .attr_kinded("Score", "DScore", DomainKind::Int)
        .pattern("ioo")
        .search()
        .chunked(ROWS_PER_PAGE)
        .profile(ServiceProfile::new(1.0, 0.1))
        .register()
        .expect("registers");
    let mut engine = Mdq::new();
    *engine.schema_mut() = schema;
    engine.registry_mut().register(
        items,
        Items {
            clock: Arc::clone(clock),
            seed,
        },
    );
    QueryServer::new(engine, RuntimeConfig::default())
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// Folds one delta into `rows` as a multiset.
fn fold(rows: &mut Vec<Tuple>, added: &[Tuple], retracted: &[Tuple]) {
    for r in retracted {
        let at = rows
            .iter()
            .position(|t| t == r)
            .unwrap_or_else(|| panic!("retraction of a row not in the folded set: {r:?}"));
        rows.swap_remove(at);
    }
    rows.extend(added.iter().cloned());
}

/// Runs `epochs` refresh passes for one seed, holding the folded
/// deltas to a from-scratch run after each. Returns how many passes
/// after the first changed the from-scratch answers — drift the deep
/// pages alone carried.
fn deep_drift_oracle(seed: u64, epochs: u64) -> u64 {
    let clock = EpochClock::new();
    let subscribed = server(seed, &clock);
    subscribed.attach_refresh(Arc::clone(&clock), RefreshPolicy::every(1));
    let oracle_clock = EpochClock::new();
    let oracle = server(seed, &oracle_clock);
    let rerun = |epoch| {
        oracle_clock.set(epoch);
        let shared = oracle.shared_state();
        shared.invalidate_unpinned_pages();
        shared.invalidate_sub_results();
        let result = oracle.submit(QUERY, Some(K)).collect().expect("reruns");
        sorted(result.answers)
    };

    let ticket = subscribed
        .subscribe(DEFAULT_TENANT, QUERY, Some(K))
        .expect("subscribes");
    let mut folded = ticket.answers;
    assert_eq!(sorted(folded.clone()), rerun(0), "seed {seed}: epoch 0");
    let mut previous = rerun(1);
    let mut deep_changes = 0;
    for epoch in 1..=epochs {
        let summary = subscribed.refresh();
        assert_eq!((summary.epoch, summary.failed), (epoch, 0));
        for delta in subscribed
            .poll_deltas(DEFAULT_TENANT, ticket.id)
            .expect("live subscription")
        {
            fold(&mut folded, &delta.added, &delta.retracted);
        }
        let expect = rerun(epoch);
        assert_eq!(
            sorted(folded.clone()),
            expect,
            "seed {seed} epoch {epoch}: folded deltas diverge from a from-scratch run"
        );
        if epoch > 1 && expect != previous {
            deep_changes += 1;
        }
        previous = expect;
    }
    deep_changes
}

#[test]
fn drift_past_the_tracked_depth_reaches_the_subscriber() {
    let deep_changes: u64 = (1..=8).map(|seed| deep_drift_oracle(seed, 6)).sum();
    assert!(
        deep_changes > 0,
        "no pass after the first changed the answers: the oracle would hold vacuously"
    );
}
