//! Scaling the parallel refresh pipeline: N subscriptions × W refresh
//! workers over a *latency-dominated* refreshing world.
//!
//! The simulated latency the rest of the workspace runs on is
//! accounted, not slept, so single-threaded wall time would hide the
//! pipeline's point entirely. Here every service is wrapped with a
//! real per-fetch sleep (the paper's regime: calls dominate, latency
//! is the cost unit), and the sweep times one refresh pass at
//! 16/64/256 subscriptions × 1/8 workers. The headline gauge is the
//! 8-vs-1 speedup at 256 subscriptions — the determinism suite pins
//! that the delta streams are byte-identical at any worker count, so
//! the speedup is pure latency overlap (a ratio of medians). Sharing
//! gauges pin that the sub-result store keeps saving calls while the
//! pipeline runs; they count a fixed number of passes, so they read
//! the same at 1 and 8 workers.
//!
//! Emits `BENCH_standing_scale.json` at the workspace root.

use mdq_bench::harness::Bench;
use mdq_core::Mdq;
use mdq_model::value::Value;
use mdq_runtime::{QueryServer, RuntimeConfig, DEFAULT_TENANT};
use mdq_services::domains::travel::travel_world;
use mdq_services::domains::World;
use mdq_services::refresh::{refreshing_registry, EpochClock, RefreshConfig, RefreshPolicy};
use mdq_services::registry::ServiceRegistry;
use mdq_services::service::{Service, ServiceFault, ServiceResponse};
use std::sync::Arc;
use std::time::Duration;

const K: u64 = 5;
const SEED: u64 = 7;
/// Real sleep per forwarded fetch, the latency the pipeline overlaps.
const SLEEP_MS: u64 = 1;
/// Refresh passes (after the warm one) behind the sharing gauges.
const GAUGE_PASSES: usize = 5;

fn travel_query(topic: &str, budget: u32) -> String {
    format!(
        "q(Conf, City, HPrice, FPrice, Hotel) :- \
         flight('Milano', City, Start, End, ST, ET, FPrice), \
         hotel(Hotel, City, 'luxury', Start, End, HPrice), \
         conf('{topic}', Conf, Start, End, City), \
         weather(City, Temp, Start), \
         Start >= '2007/3/14', End <= '2007/3/14' + 180, \
         Temp >= 28, FPrice + HPrice < {budget}.0."
    )
}

/// `n` standing plans: nearby budget thresholds over two topics — the
/// overlapping-frontier regime where one refresh pass serves them all.
fn queries(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let topic = if i % 2 == 0 { "DB" } else { "AI" };
            travel_query(topic, 700 + (i as u32 / 2) * 5)
        })
        .collect()
}

/// Wraps a service with a real per-fetch sleep, turning the accounted
/// latency model into wall time the pipeline can actually overlap.
struct RealLatency {
    inner: Arc<dyn Service>,
}

impl Service for RealLatency {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fetch(&self, pattern: usize, inputs: &[Value], page: u32) -> ServiceResponse {
        std::thread::sleep(Duration::from_millis(SLEEP_MS));
        self.inner.fetch(pattern, inputs, page)
    }

    fn try_fetch(
        &self,
        pattern: usize,
        inputs: &[Value],
        page: u32,
    ) -> Result<ServiceResponse, ServiceFault> {
        std::thread::sleep(Duration::from_millis(SLEEP_MS));
        self.inner.try_fetch(pattern, inputs, page)
    }
}

/// A refreshing travel engine whose every service really sleeps.
fn sleepy_engine(config: RefreshConfig, clock: &Arc<EpochClock>) -> Mdq {
    let w = travel_world(2008);
    let refreshing = refreshing_registry(&w.registry, clock, config);
    let mut registry = ServiceRegistry::new();
    for id in refreshing.ids().collect::<Vec<_>>() {
        registry.register(
            id,
            RealLatency {
                inner: Arc::clone(refreshing.get(id).expect("registered")),
            },
        );
    }
    Mdq::from_world(World {
        schema: w.schema,
        query: w.query,
        registry,
    })
}

/// A server with `n` plans subscribed, refreshing on `workers` threads
/// and sharing re-evaluations through the sub-result store.
fn subscribed_server(config: RefreshConfig, n: usize, workers: usize) -> QueryServer {
    let clock = EpochClock::new();
    let server = QueryServer::new(
        sleepy_engine(config, &clock),
        RuntimeConfig {
            refresh_workers: workers,
            sub_results: 512,
            max_subscriptions: 0,
            ..RuntimeConfig::default()
        },
    );
    server.attach_refresh(clock, RefreshPolicy::every(1));
    for text in queries(n) {
        server
            .subscribe(DEFAULT_TENANT, &text, Some(K))
            .expect("subscribe");
    }
    server
}

fn main() {
    let bench = Bench::from_args();
    let config = RefreshConfig::seeded(SEED)
        .with_change_rate(0.05)
        .with_drop_rate(0.01);

    for &n in &[16usize, 64, 256] {
        for &workers in &[1usize, 8] {
            let server = subscribed_server(config, n, workers);
            server.refresh(); // warm: first pass pays one-off setup
            bench.measure(
                &format!("standing-scale/{n}-subs/{workers}-workers/refresh-pass"),
                || {
                    let summary = server.refresh();
                    (summary.refreshed, summary.deltas_emitted)
                },
            );
            // the sharing gauges come from a fresh server driven a
            // fixed number of passes: the timed loop's pass count
            // follows its speed (10 at 1 worker, 50 at 8), and these
            // counters are cumulative
            let server = subscribed_server(config, n, workers);
            for _ in 0..=GAUGE_PASSES {
                server.refresh();
            }
            let stats = server.shared_state().sub_result_stats();
            bench.gauge(
                &format!("standing-scale/{n}-subs/{workers}-workers/calls-saved"),
                stats.calls_saved,
                "calls",
            );
            bench.gauge(
                &format!("standing-scale/{n}-subs/{workers}-workers/sub-results-retained"),
                server.metrics().sub_results_retained,
                "entries",
            );
        }
    }

    // the headline: how much of the 256-sub pass the 8 workers overlap
    // (the determinism suite pins that the answers are identical, so
    // this ratio is pure latency overlap), as a ratio of medians
    let median = |name: &str| {
        bench
            .results()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
            .unwrap_or(0)
    };
    let serial = median("standing-scale/256-subs/1-workers/refresh-pass");
    let parallel = median("standing-scale/256-subs/8-workers/refresh-pass");
    if serial > 0 && parallel > 0 {
        bench.gauge(
            "standing-scale/256-subs/8-vs-1-speedup-x100",
            (serial * 100 / parallel) as u64,
            "ratio",
        );
    }

    bench.write_json("standing_scale");
}
