//! The calibrated travel world of the paper's experiments (§6).
//!
//! Stands in for the four wrapped 2008 web sources (conference-service
//! .com, AccuWeather, Expedia, Bookings). Every constant below comes
//! straight from §6's narrative, so that executing the S / P / O plans
//! of Fig. 7 reproduces the call counts of Fig. 11 *exactly*:
//!
//! * `conf('DB')` returns **71** tuples over **54** distinct cities
//!   (17 cities host two events); tuples are ordered so that no two
//!   consecutive tuples share a city (the paper's one-call cache shows
//!   no savings on `weather`/`flight` for plans O and P);
//! * **16** of the 71 tuples (over **11** cities: 5 two-event + 6
//!   one-event cities) have average temperature ≥ 28 °C;
//! * one hot one-event city has **no flight** from Milano, so 15 tuples
//!   flow on; the hot cities' flights total **284** tuples
//!   (two-event cities: 20 flights each; served one-event cities:
//!   17+17+17+17+16);
//! * overall **59** of the 71 tuples belong to flight-served cities
//!   (drives plan P's flight-branch time of ≈ 596 s);
//! * same-city conference tuples share their Start/End dates (the
//!   optimal cache counts 54 distinct weather/flight/hotel inputs);
//! * latencies follow Table 1 (conf 1.2 s, weather 1.5 s, flight 9.7 s,
//!   hotel 4.9 s), with Bookings answering repeat calls from its own
//!   server cache in ≈ 0.25 s and Expedia returning "no flights" error
//!   pages in ≈ 2 s (both behaviours reported in §6).

use crate::registry::ServiceRegistry;
use crate::service::LatencyModel;
use crate::synthetic::SyntheticSource;
use mdq_model::query::ConjunctiveQuery;
use mdq_model::rng::Rng;
use mdq_model::schema::{AccessPattern, Schema, ServiceId};
use mdq_model::value::{Date, Tuple, Value};

/// Number of conference tuples for topic 'DB'.
pub(crate) const CONF_TUPLES: usize = 71;
/// Distinct cities hosting those conferences.
const DISTINCT_CITIES: usize = 54;
/// Cities hosting two events.
const DOUBLE_CITIES: usize = 17;
/// Distinct hot cities.
const HOT_CITIES: usize = 11;
/// Hot cities hosting two events.
const HOT_DOUBLES: usize = 5;
/// Total flight tuples returned for the hot, flight-served cities.
const HOT_FLIGHT_TUPLES: usize = 284;

/// Flight counts for the five hot two-event cities.
const HOT_DOUBLE_FLIGHTS: [usize; HOT_DOUBLES] = [20, 20, 20, 20, 20];
/// Flight counts for the five served hot one-event cities (the sixth hot
/// single has no flight).
const HOT_SINGLE_FLIGHTS: [usize; 5] = [17, 17, 17, 17, 16];

/// Service ids of the travel world, in registration order.
#[derive(Clone, Copy, Debug)]
pub struct TravelIds {
    /// conference search (exact, bulk).
    pub conf: ServiceId,
    /// weather lookup (exact, bulk).
    pub weather: ServiceId,
    /// flight search (ranked, chunk 25).
    pub flight: ServiceId,
    /// hotel search (ranked, chunk 5).
    pub hotel: ServiceId,
}

/// The assembled travel world: schema + query + runtime services.
pub struct TravelWorld {
    /// Fig. 2 schema with Table 1 profiles.
    pub schema: Schema,
    /// Fig. 3 query.
    pub query: ConjunctiveQuery,
    /// Callable services with call counters.
    pub registry: ServiceRegistry,
    /// Service ids.
    pub ids: TravelIds,
    /// The 54 city names, hot ones first.
    pub cities: Vec<String>,
}

/// City naming: deterministic, readable.
fn city_name(i: usize) -> String {
    format!("city{:02}", i + 1)
}

/// Builds the calibrated world. `seed` controls only incidental values
/// (prices, shuffle order); all §6 cardinalities are exact for any seed.
#[allow(clippy::needless_range_loop)] // city ids drive several parallel structures
pub fn travel_world(seed: u64) -> TravelWorld {
    let schema = mdq_model::examples::running_example_schema();
    let query = mdq_model::examples::running_example_query(&schema);
    let ids = TravelIds {
        conf: schema.service_by_name("conf").expect("conf"),
        weather: schema.service_by_name("weather").expect("weather"),
        flight: schema.service_by_name("flight").expect("flight"),
        hotel: schema.service_by_name("hotel").expect("hotel"),
    };

    let mut rng = Rng::new(seed);
    let cities: Vec<String> = (0..DISTINCT_CITIES).map(city_name).collect();

    // City layout (indices into `cities`):
    //   0..5    hot doubles (2 events, ≥28°C, flights)
    //   5..10   hot singles, served
    //   10      hot single, NO flight ("for one city no flight is found")
    //   11..23  cold doubles (12 cities, flights)
    //   23..43  cold singles, served (20 cities)
    //   43..54  cold singles, unserved (11 cities)
    let is_double = |c: usize| c < HOT_DOUBLES || (11..23).contains(&c);
    let is_hot = |c: usize| c < HOT_CITIES;
    let has_flight = |c: usize| c < 10 || (11..43).contains(&c);

    // Per-city conference dates inside the next six months from
    // 2007/03/14 (the query's window); same-city events share dates.
    let base = Date::from_ymd(2007, 3, 14);
    let start_of = |c: usize| base.plus_days(10 + (c as i64 * 3) % 170);
    let end_of = |c: usize| start_of(c).plus_days(3);

    // conf rows: all first occurrences (shuffled), then all second
    // occurrences. The second-occurrence order is derived, not shuffled,
    // because THREE sub-streams must stay free of adjacent duplicate
    // cities for the one-call cache counts to be seed-independent:
    //   (A) the full 71-tuple stream (weather: 71 one-call calls),
    //   (B) its ≥28 °C subsequence (flight: 16 one-call calls),
    //   (C) the flight-served hot subsequence (hotel: 15 one-call calls).
    // Within each part cities are distinct, so only the part boundary
    // can collide; we pick second-occurrence leaders that avoid all
    // three boundaries.
    let mut first: Vec<usize> = (0..DISTINCT_CITIES).collect();
    rng.shuffle(&mut first);
    let position_in_first = |c: usize| {
        first
            .iter()
            .position(|&x| x == c)
            .expect("every city occurs once")
    };
    let mut hot_doubles: Vec<usize> = (0..DISTINCT_CITIES)
        .filter(|&c| is_double(c) && is_hot(c))
        .collect();
    hot_doubles.sort_by_key(|&c| position_in_first(c));
    let mut cold_doubles: Vec<usize> = (0..DISTINCT_CITIES)
        .filter(|&c| is_double(c) && !is_hot(c))
        .collect();
    cold_doubles.sort_by_key(|&c| position_in_first(c));
    // boundary cities the second part must not lead with
    let last_hot_first = *first
        .iter()
        .rfind(|&&c| is_hot(c))
        .expect("hot cities exist");
    let last_served_hot_first = *first
        .iter()
        .rfind(|&&c| is_hot(c) && has_flight(c))
        .expect("served hot cities exist");
    let rot = hot_doubles
        .iter()
        .position(|&c| c != last_hot_first && c != last_served_hot_first)
        .expect("at most two of five hot doubles are banned");
    hot_doubles.rotate_left(rot);
    let last_first = *first.last().expect("non-empty");
    let lead_cold_idx = cold_doubles
        .iter()
        .position(|&c| c != last_first)
        .expect("twelve cold doubles, at most one banned");
    let lead_cold = cold_doubles.remove(lead_cold_idx);
    let mut second: Vec<usize> = Vec::with_capacity(DOUBLE_CITIES);
    second.push(lead_cold); // satisfies boundary (A)
    second.extend(hot_doubles); // its head satisfies (B) and (C)
    second.extend(cold_doubles);
    debug_assert_eq!(second.len(), DOUBLE_CITIES);
    let mut conf_rows: Vec<Tuple> = Vec::with_capacity(CONF_TUPLES);
    for (occurrence, order) in [(1usize, &first), (2usize, &second)] {
        for &c in order {
            conf_rows.push(Tuple::new(vec![
                Value::str("DB"),
                Value::str(format!("conf-{}-{occurrence}", cities[c])),
                Value::Date(start_of(c)),
                Value::Date(end_of(c)),
                Value::str(&cities[c]),
            ]));
        }
    }
    debug_assert_eq!(conf_rows.len(), CONF_TUPLES);
    // a second topic, for profiler sampling realism
    for c in 0..8 {
        conf_rows.push(Tuple::new(vec![
            Value::str("AI"),
            Value::str(format!("ai-conf-{}", cities[c])),
            Value::Date(start_of(c).plus_days(30)),
            Value::Date(end_of(c).plus_days(30)),
            Value::str(&cities[c]),
        ]));
    }

    // weather rows: one per (city, conference start date).
    let mut weather_rows = Vec::with_capacity(DISTINCT_CITIES);
    for c in 0..DISTINCT_CITIES {
        let temp = if is_hot(c) {
            28.0 + (c % 5) as f64
        } else {
            10.0 + (c % 17) as f64
        };
        weather_rows.push(Tuple::new(vec![
            Value::str(&cities[c]),
            Value::float(temp),
            Value::Date(start_of(c)),
        ]));
    }

    // flight rows: Milano → city, ranked by price.
    let mut flight_rows: Vec<(f64, Tuple)> = Vec::new();
    for c in 0..DISTINCT_CITIES {
        if !has_flight(c) {
            continue;
        }
        let n = if c < HOT_DOUBLES {
            HOT_DOUBLE_FLIGHTS[c]
        } else if (5..10).contains(&c) {
            HOT_SINGLE_FLIGHTS[c - 5]
        } else {
            12 + (c % 7) // cold served cities: incidental counts
        };
        for r in 0..n {
            let price = 180.0 + r as f64 * 35.0 + rng.range_f64(0.0, 20.0);
            flight_rows.push((
                price,
                Tuple::new(vec![
                    Value::str("Milano"),
                    Value::str(&cities[c]),
                    Value::Date(start_of(c)),
                    Value::Date(end_of(c)),
                    Value::str(format!("{:02}:{:02}", 6 + r % 14, (r * 7) % 60)),
                    Value::str(format!("{:02}:{:02}", 8 + r % 12, (r * 11) % 60)),
                    Value::float((price * 100.0).round() / 100.0),
                ]),
            ));
        }
    }
    flight_rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let flight_rows: Vec<Tuple> = flight_rows.into_iter().map(|(_, t)| t).collect();
    let hot_total: usize =
        HOT_DOUBLE_FLIGHTS.iter().sum::<usize>() * 2 + HOT_SINGLE_FLIGHTS.iter().sum::<usize>();
    debug_assert_eq!(hot_total, HOT_FLIGHT_TUPLES);

    // hotel rows: ≥ 5 luxury hotels per city (first chunk suffices for
    // the experiments), ranked by price; a few non-luxury rows too.
    let mut hotel_rows: Vec<(f64, Tuple)> = Vec::new();
    for c in 0..DISTINCT_CITIES {
        for h in 0..7 {
            let price = 350.0 + h as f64 * 120.0 + rng.range_f64(0.0, 40.0);
            let category = if h < 5 { "luxury" } else { "standard" };
            hotel_rows.push((
                price,
                Tuple::new(vec![
                    Value::str(format!("hotel-{}-{h}", cities[c])),
                    Value::str(&cities[c]),
                    Value::str(category),
                    Value::Date(start_of(c)),
                    Value::Date(end_of(c)),
                    Value::float((price * 100.0).round() / 100.0),
                ]),
            ));
        }
    }
    hotel_rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let hotel_rows: Vec<Tuple> = hotel_rows.into_iter().map(|(_, t)| t).collect();

    // Assemble services with Table 1 latencies and §6 provider quirks.
    let mut registry = ServiceRegistry::new();
    registry.register(
        ids.conf,
        SyntheticSource::new(
            "conf",
            vec![
                AccessPattern::parse("ioooo").expect("parses"),
                AccessPattern::parse("ooooi").expect("parses"),
            ],
            conf_rows,
            None,
            LatencyModel::fixed(1.2),
        ),
    );
    registry.register(
        ids.weather,
        SyntheticSource::new(
            "weather",
            vec![AccessPattern::parse("ioi").expect("parses")],
            weather_rows,
            None,
            LatencyModel::fixed(1.5),
        ),
    );
    registry.register(
        ids.flight,
        SyntheticSource::new(
            "flight",
            vec![AccessPattern::parse("iiiiooo").expect("parses")],
            flight_rows,
            Some(25),
            LatencyModel::fixed(9.7).with_empty_latency(2.0),
        ),
    );
    registry.register(
        ids.hotel,
        SyntheticSource::new(
            "hotel",
            vec![
                AccessPattern::parse("oiiiio").expect("parses"),
                AccessPattern::parse("oooooo").expect("parses"),
            ],
            hotel_rows,
            Some(5),
            LatencyModel::fixed(4.9).with_server_cache(0.25),
        ),
    );

    TravelWorld {
        schema,
        query,
        registry,
        ids,
        cities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Conference tuples in cities with average temperature ≥ 28 °C.
    const HOT_TUPLES: usize = 16;
    /// Conference tuples (of all 71) whose city is served by a flight.
    const SERVED_TUPLES: usize = 59;

    fn world() -> TravelWorld {
        travel_world(2008)
    }

    #[test]
    fn conf_calibration_71_tuples_54_cities() {
        let w = world();
        let conf = w.registry.get(w.ids.conf).expect("conf").clone();
        let r = conf.fetch(0, &[Value::str("DB")], 0);
        assert_eq!(r.tuples.len(), CONF_TUPLES);
        assert!(!r.has_more);
        let cities: HashSet<&Value> = r.tuples.iter().map(|t| t.get(4)).collect();
        assert_eq!(cities.len(), DISTINCT_CITIES);
        // no two consecutive tuples share a city
        for pair in r.tuples.windows(2) {
            assert_ne!(pair[0].get(4), pair[1].get(4), "adjacent duplicate city");
        }
        // same-city tuples share their dates
        use std::collections::HashMap;
        let mut dates: HashMap<&Value, (&Value, &Value)> = HashMap::new();
        for t in &r.tuples {
            let entry = dates.entry(t.get(4)).or_insert((t.get(2), t.get(3)));
            assert_eq!(entry.0, t.get(2));
            assert_eq!(entry.1, t.get(3));
        }
    }

    #[test]
    fn weather_calibration_16_hot_tuples_11_cities() {
        let w = world();
        let conf = w.registry.get(w.ids.conf).expect("conf").clone();
        let weather = w.registry.get(w.ids.weather).expect("weather").clone();
        let confs = conf.fetch(0, &[Value::str("DB")], 0).tuples;
        let mut hot_tuples = 0;
        let mut hot_cities: HashSet<Value> = HashSet::new();
        for t in &confs {
            let r = weather.fetch(0, &[t.get(4).clone(), t.get(2).clone()], 0);
            assert_eq!(r.tuples.len(), 1, "one weather row per (city, start)");
            let temp = r.tuples[0].get(1).as_f64().expect("temperature");
            if temp >= 28.0 {
                hot_tuples += 1;
                hot_cities.insert(t.get(4).clone());
            }
        }
        assert_eq!(hot_tuples, HOT_TUPLES);
        assert_eq!(hot_cities.len(), HOT_CITIES);
        // the hot sub-stream has no adjacent duplicate cities either
        let hot_stream: Vec<&Value> = confs
            .iter()
            .filter(|t| {
                let r = weather.fetch(0, &[t.get(4).clone(), t.get(2).clone()], 0);
                r.tuples[0].get(1).as_f64().expect("temp") >= 28.0
            })
            .map(|t| t.get(4))
            .collect();
        for pair in hot_stream.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn flight_calibration_284_tuples_one_unserved_hot_city() {
        let w = world();
        let conf = w.registry.get(w.ids.conf).expect("conf").clone();
        let weather = w.registry.get(w.ids.weather).expect("weather").clone();
        let flight = w.registry.get(w.ids.flight).expect("flight").clone();
        let confs = conf.fetch(0, &[Value::str("DB")], 0).tuples;
        let mut total_flights = 0usize;
        let mut unserved_hot = 0usize;
        let mut served_tuples = 0usize;
        for t in &confs {
            let key = [
                Value::str("Milano"),
                t.get(4).clone(),
                t.get(2).clone(),
                t.get(3).clone(),
            ];
            let r = flight.fetch(0, &key, 0);
            if !r.tuples.is_empty() {
                served_tuples += 1;
            }
            let hot = {
                let wr = weather.fetch(0, &[t.get(4).clone(), t.get(2).clone()], 0);
                wr.tuples[0].get(1).as_f64().expect("temp") >= 28.0
            };
            if hot {
                if r.tuples.is_empty() {
                    unserved_hot += 1;
                } else {
                    // count the full result, not just the first chunk
                    let mut n = r.tuples.len();
                    let mut page = 1;
                    let mut more = r.has_more;
                    while more {
                        let rr = flight.fetch(0, &key, page);
                        n += rr.tuples.len();
                        more = rr.has_more;
                        page += 1;
                    }
                    total_flights += n;
                }
            }
        }
        assert_eq!(total_flights, HOT_FLIGHT_TUPLES);
        assert_eq!(unserved_hot, 1, "exactly one hot tuple without flights");
        assert_eq!(served_tuples, SERVED_TUPLES);
    }

    #[test]
    fn hotels_have_five_luxury_per_city_ranked_by_price() {
        let w = world();
        let hotel = w.registry.get(w.ids.hotel).expect("hotel").clone();
        let conf = w.registry.get(w.ids.conf).expect("conf").clone();
        let confs = conf.fetch(0, &[Value::str("DB")], 0).tuples;
        let t = &confs[0];
        let r = hotel.fetch(
            0,
            &[
                t.get(4).clone(),
                Value::str("luxury"),
                t.get(2).clone(),
                t.get(3).clone(),
            ],
            0,
        );
        assert_eq!(r.tuples.len(), 5, "one full chunk of luxury hotels");
        let prices: Vec<f64> = r
            .tuples
            .iter()
            .map(|h| h.get(5).as_f64().expect("price"))
            .collect();
        for pair in prices.windows(2) {
            assert!(pair[0] <= pair[1], "ranked by price: {prices:?}");
        }
    }

    #[test]
    fn cheap_solutions_exist_for_hot_cities() {
        // the final predicate FPrice + HPrice < 2000 must keep answers
        let w = world();
        let conf = w.registry.get(w.ids.conf).expect("conf").clone();
        let weather = w.registry.get(w.ids.weather).expect("weather").clone();
        let flight = w.registry.get(w.ids.flight).expect("flight").clone();
        let hotel = w.registry.get(w.ids.hotel).expect("hotel").clone();
        let confs = conf.fetch(0, &[Value::str("DB")], 0).tuples;
        let mut answers = 0usize;
        for t in &confs {
            let wr = weather.fetch(0, &[t.get(4).clone(), t.get(2).clone()], 0);
            if wr.tuples[0].get(1).as_f64().expect("temp") < 28.0 {
                continue;
            }
            let fr = flight.fetch(
                0,
                &[
                    Value::str("Milano"),
                    t.get(4).clone(),
                    t.get(2).clone(),
                    t.get(3).clone(),
                ],
                0,
            );
            let hr = hotel.fetch(
                0,
                &[
                    t.get(4).clone(),
                    Value::str("luxury"),
                    t.get(2).clone(),
                    t.get(3).clone(),
                ],
                0,
            );
            for f in &fr.tuples {
                for h in &hr.tuples {
                    let fp = f.get(6).as_f64().expect("fprice");
                    let hp = h.get(5).as_f64().expect("hprice");
                    if fp + hp < 2000.0 {
                        answers += 1;
                    }
                }
            }
        }
        assert!(
            answers >= 10,
            "at least k = 10 answers exist, got {answers}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = travel_world(7);
        let b = travel_world(7);
        let ca = a.registry.get(a.ids.conf).expect("conf").clone();
        let cb = b.registry.get(b.ids.conf).expect("conf").clone();
        assert_eq!(
            ca.fetch(0, &[Value::str("DB")], 0).tuples,
            cb.fetch(0, &[Value::str("DB")], 0).tuples
        );
    }
}
