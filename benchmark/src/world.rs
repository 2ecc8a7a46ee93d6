//! Seeded inputs and the systems under test: everything a run feeds
//! the server is derived from `--seed` here — the world, the template
//! constants, the op order — and the server sees only query text.

use crate::spans;
use mdq_core::Mdq;
use mdq_model::rng::Rng;
use mdq_model::value::Value;
use mdq_runtime::{NetClient, NetServer, QueryOutcome, QueryServer, RuntimeConfig, TenantPolicy};
use mdq_services::domains::travel::travel_world;
use mdq_services::domains::World;
use mdq_services::refresh::{refreshing_registry, EpochClock, RefreshConfig, RefreshPolicy};
use mdq_services::registry::ServiceRegistry;
use mdq_services::service::{Service, ServiceFault, ServiceResponse};
use std::io;
use std::sync::Arc;

/// Warm templates: 2 temperature thresholds × 8 budgets.
pub const TEMPLATES: usize = 16;
/// Length of the generated op order; clients cycle through it.
pub const OP_ORDER: usize = 4096;
/// Load connections: `nproc` on the 2-core box the bounds were measured
/// on. `mdq/1` allows one query in flight per connection, so this is
/// also the closed loop's concurrency.
pub const CONNECTIONS: usize = 2;
/// The tenant allowed to send `REFRESH` in `standing_mix`.
pub const OPERATOR: &str = "bench-operator";

/// The five workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Planned, paged templates repeat.
    WarmRepeat,
    /// Every query a never-seen template.
    ColdTemplates,
    /// Working set larger than the page cache.
    CachePressure,
    /// One connection per query.
    ConnChurn,
    /// Subscriptions refreshed beside ad-hoc reads.
    StandingMix,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::WarmRepeat,
        Workload::ColdTemplates,
        Workload::CachePressure,
        Workload::ConnChurn,
        Workload::StandingMix,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmRepeat => "warm_repeat",
            Workload::ColdTemplates => "cold_templates",
            Workload::CachePressure => "cache_pressure",
            Workload::ConnChurn => "conn_churn",
            Workload::StandingMix => "standing_mix",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Answers asked per query.
    pub fn k(self) -> u64 {
        match self {
            Workload::CachePressure => 20,
            _ => 5,
        }
    }

    /// `RuntimeConfig::default()` — what ships — except where the
    /// workload is defined by the difference.
    pub fn config(self) -> RuntimeConfig {
        match self {
            Workload::CachePressure => RuntimeConfig {
                page_cache_entries: CACHE_PRESSURE_ENTRIES,
                ..RuntimeConfig::default()
            },
            _ => RuntimeConfig::default(),
        }
    }

    /// How closely the workload's timings follow the machine probe
    /// (`load::machine_factor`): the exponents α in `time ∝ factor^α`
    /// for wall-clock timings (throughput, latency) and for CPU per op.
    /// Calibrated, not derived: the log-log slope of each timing on the
    /// factor over runs of this commit across the box's slow phases
    /// (`BENCHMARK.md` has the fits). The probe is cache- and
    /// allocator-bound work; an op made of thread hand-offs or of the
    /// optimizer's search slows as it does, `cache_pressure`'s one
    /// long pull through the gateway's miss path about half as much,
    /// and `conn_churn` waits out the accept loop's 25 ms
    /// `POLL_INTERVAL` tick, which no processor speeds up — though the
    /// CPU it burns meanwhile follows the probe.
    pub fn machine_sensitivity(self) -> (f64, f64) {
        match self {
            Workload::WarmRepeat => (0.75, 0.75),
            Workload::ColdTemplates | Workload::StandingMix => (1.0, 1.0),
            Workload::CachePressure => (0.5, 0.5),
            Workload::ConnChurn => (0.0, 1.0),
        }
    }

    /// Ops (cycles, for the two workloads whose op is one) the traced
    /// replay walks through the layers.
    pub fn replay_ops(self) -> usize {
        match self {
            Workload::WarmRepeat => 2000,
            Workload::CachePressure => 500,
            Workload::ColdTemplates => 200,
            Workload::ConnChurn | Workload::StandingMix => 100,
        }
    }
}

/// `cache_pressure`'s page-cache bound, in invocation keys; the warm
/// templates' working set is measured and printed beside it.
pub const CACHE_PRESSURE_ENTRIES: usize = 32;

/// The running example of the paper with the two constants templates
/// vary: the temperature threshold and the price budget.
fn travel_query(temp: u32, budget: f64) -> String {
    format!(
        "q(Conf, City, HPrice, FPrice, Hotel) :- \
         flight('Milano', City, Start, End, ST, ET, FPrice), \
         hotel(Hotel, City, 'luxury', Start, End, HPrice), \
         conf('DB', Conf, Start, End, City), \
         weather(City, Temp, Start), \
         Start >= '2007/3/14', End <= '2007/3/14' + 180, \
         Temp >= {temp}, FPrice + HPrice < {budget:?}."
    )
}

/// Everything generated from the seed.
pub struct Generated {
    /// The `--seed`.
    pub seed: u64,
    /// The warm templates' query texts.
    pub templates: Vec<String>,
    /// Template indices in op order.
    pub order: Vec<usize>,
    cold_base: f64,
}

impl Generated {
    /// Derives `workload`'s templates and op order from `seed`.
    pub fn new(seed: u64, workload: Workload) -> Generated {
        let mut rng = Rng::new(seed ^ 0x6d64_715f_6265_6e63);
        // Warm budgets sit where every template fills its k answers
        // from the first few pages, so ops cost alike and the latency
        // distribution has one mode. `cache_pressure` budgets sit below
        // the k-th cheapest trip instead: every op pulls the whole
        // frontier — conf, each city's weather, each hot city's flights
        // and hotels — through a cache too small to hold it. The `.5`
        // keeps both apart from the cold constants.
        let (base, step) = match workload {
            Workload::CachePressure => (500.0 + rng.range_u64(0, 10) as f64, 10.0),
            _ => (900.0 + rng.range_u64(0, 200) as f64, 25.0),
        };
        let templates = (0..TEMPLATES)
            .map(|i| travel_query(28 + (i % 2) as u32, base + 0.5 + step * (i / 2) as f64))
            .collect();
        let order = (0..OP_ORDER)
            .map(|_| rng.range_usize(0, TEMPLATES))
            .collect();
        Generated {
            seed,
            templates,
            order,
            cold_base: 900.0 + rng.range_u64(0, 100) as f64,
        }
    }

    /// The `i`-th never-seen template: a budget no other query of the
    /// run carries (odd multiples of 1/64 never meet a warm `.5`), so
    /// its fingerprint misses the plan cache, over the service inputs
    /// the warm templates already paged in.
    pub fn cold_query(&self, i: u64) -> String {
        let budget = self.cold_base + (2 * i + 1) as f64 / 64.0;
        travel_query(28 + (i % 2) as u32, budget)
    }
}

/// A [`Service`] wrapper recording one `services.fetch` span per call
/// on the calling thread's open recording (the traced replay's pull
/// span is its parent).
struct Timed(Arc<dyn Service>);

impl Service for Timed {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn fetch(&self, pattern: usize, inputs: &[Value], page: u32) -> ServiceResponse {
        spans::span("services.fetch", || self.0.fetch(pattern, inputs, page))
    }

    fn try_fetch(
        &self,
        pattern: usize,
        inputs: &[Value],
        page: u32,
    ) -> Result<ServiceResponse, ServiceFault> {
        spans::span("services.fetch", || self.0.try_fetch(pattern, inputs, page))
    }
}

/// Which engine to build over `travel_world(seed)`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The plain calibrated world.
    Plain,
    /// Every service wrapped by the span-recording [`Timed`].
    Timed,
}

/// Builds an engine over `travel_world(seed)`; with a `clock` the
/// services drift per epoch (`refreshing_registry`, change 0.05, drop
/// 0.01), as `standing_mix` needs.
pub fn engine(seed: u64, kind: EngineKind, clock: Option<&Arc<EpochClock>>) -> Mdq {
    let w = travel_world(seed);
    let mut registry = w.registry;
    if let Some(clock) = clock {
        let drift = RefreshConfig::seeded(seed)
            .with_change_rate(0.05)
            .with_drop_rate(0.01);
        registry = refreshing_registry(&registry, clock, drift);
    }
    if kind == EngineKind::Timed {
        let mut timed = ServiceRegistry::new();
        for id in registry.ids() {
            let inner = Arc::clone(registry.get(id).expect("listed id resolves"));
            timed.register(id, Timed(inner));
        }
        registry = timed;
    }
    Mdq::from_world(World {
        schema: w.schema,
        query: w.query,
        registry,
    })
}

/// Request-responses the engine's services have answered, and the
/// simulated seconds they charged.
pub fn service_totals(engine: &Mdq) -> (u64, f64) {
    let reg = engine.registry();
    reg.ids()
        .filter_map(|id| reg.counter(id))
        .fold((0, 0.0), |(c, s), n| (c + n.calls(), s + n.total_latency()))
}

/// A started system: query server, TCP edge, and for `standing_mix`
/// the operator connection with its subscriptions.
pub struct System {
    /// The query server.
    pub server: Arc<QueryServer>,
    /// The TCP serving edge over it.
    pub net: NetServer,
    /// `standing_mix` only: connection A and what it subscribed.
    pub standing: Option<Standing>,
}

/// Connection A of `standing_mix`.
pub struct Standing {
    /// The operator connection.
    pub client: NetClient,
    /// Per subscription: its id and the answers folded so far.
    pub subs: Vec<(u64, Vec<String>)>,
}

/// Runs one query and returns its rendered answers and forwarded calls;
/// anything but a complete `DONE` is an error.
pub fn query_done(client: &mut NetClient, text: &str, k: u64) -> io::Result<(Vec<String>, u64)> {
    match client.query(text, Some(k))? {
        QueryOutcome::Done {
            answers,
            calls,
            partial: false,
            ..
        } => Ok((answers, calls)),
        other => Err(io::Error::other(format!("query not served: {other:?}"))),
    }
}

impl System {
    /// World build → server start → connect → warm-up: everything
    /// before the first timed op (`setup_s`). The warm-up runs each
    /// warm template once, so plans are cached and pages are in.
    pub fn start(workload: Workload, gen: &Generated) -> io::Result<System> {
        let clock = (workload == Workload::StandingMix).then(EpochClock::new);
        let server = Arc::new(QueryServer::new(
            engine(gen.seed, EngineKind::Plain, clock.as_ref()),
            workload.config(),
        ));
        if let Some(clock) = clock {
            server.attach_refresh(clock, RefreshPolicy::every(1));
            server.register_tenant(
                OPERATOR,
                TenantPolicy {
                    operator: true,
                    ..TenantPolicy::default()
                },
            );
        }
        let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0")?;
        let mut warm = NetClient::connect(net.addr())?;
        for text in &gen.templates {
            query_done(&mut warm, text, workload.k())?;
        }
        warm.quit()?;
        let standing = if workload == Workload::StandingMix {
            let mut client = NetClient::connect(net.addr())?;
            client.tenant(OPERATOR)?;
            let mut subs = Vec::with_capacity(TEMPLATES);
            for text in &gen.templates {
                let (id, _epoch, answers) = client.subscribe(text, Some(workload.k()))?;
                subs.push((id, answers));
            }
            Some(Standing { client, subs })
        } else {
            None
        };
        Ok(System {
            server,
            net,
            standing,
        })
    }

    /// Closes the operator connection and drains the server.
    pub fn stop(self) {
        if let Some(standing) = self.standing {
            let _ = standing.client.quit();
        }
        self.net.shutdown();
    }
}

/// The oracle: each warm template's expected top-k, by in-process
/// `Mdq::run` on an engine of its own.
pub fn expected_answers(gen: &Generated, k: u64) -> Vec<Vec<String>> {
    let oracle = engine(gen.seed, EngineKind::Plain, None);
    gen.templates
        .iter()
        .map(|text| oracle_answers(&oracle, text, k))
        .collect()
}

/// One query's rendered top-k on the oracle engine.
pub fn oracle_answers(oracle: &Mdq, text: &str, k: u64) -> Vec<String> {
    oracle
        .run(text, k)
        .expect("generated queries run")
        .answers()
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_model::fingerprint::fingerprint;
    use std::collections::HashSet;

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let (a, b, c) = (
            Generated::new(7, Workload::WarmRepeat),
            Generated::new(7, Workload::WarmRepeat),
            Generated::new(8, Workload::WarmRepeat),
        );
        assert_eq!(a.templates, b.templates);
        assert_eq!(a.order, b.order);
        assert_eq!(a.cold_query(99), b.cold_query(99));
        assert!(a.templates != c.templates || a.order != c.order);
        assert_eq!(a.templates.len(), TEMPLATES);
        assert!(a.order.iter().all(|&t| t < TEMPLATES));
    }

    #[test]
    fn every_template_has_a_fingerprint_of_its_own() {
        let gen = Generated::new(2008, Workload::WarmRepeat);
        let engine = engine(gen.seed, EngineKind::Plain, None);
        let mut seen = HashSet::new();
        let texts = gen
            .templates
            .iter()
            .cloned()
            .chain((0..40_000).step_by(7).map(|i| gen.cold_query(i)))
            .chain((1..=4).map(|pass| gen.cold_query(pass << 16)));
        for text in texts {
            let query = engine.parse(&text).expect("generated queries parse");
            assert!(
                seen.insert(fingerprint(&query)),
                "repeated template: {text}"
            );
        }
    }
}
