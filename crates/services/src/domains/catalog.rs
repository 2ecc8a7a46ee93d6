//! A product-catalog domain built for *adaptive re-optimization*
//! scenarios: a world whose registered estimates can deliberately
//! contradict how the services actually behave.
//!
//! The chain is `seed → parts → offers`: a topic seeds a handful of
//! items (truthfully profiled), each item explodes into many parts, and
//! a chunked ranked search returns priced offers per part. In the
//! mis-estimated variant the `parts` service is registered as *highly
//! selective and fast* (erspi 0.25, τ 0.5 s) while it actually returns
//! `PARTS_PER_ITEM` tuples per call at `PARTS_TRUE_TAU` seconds —
//! exactly the kind of stale registration §5's periodic re-estimation
//! is meant to catch. An optimizer trusting the estimates assigns the
//! downstream `offers` service a large fetch factor (it believes few
//! parts will arrive); execution observes the explosion, and an
//! adaptive engine can re-plan the suffix down to one page per part.
//!
//! Access patterns force the single chain topology, so frozen and
//! adaptive runs differ *only* in the suffix's fetch factors — the
//! cleanest possible measurement of the adaptive win.

use super::World;
use crate::registry::ServiceRegistry;
use crate::service::LatencyModel;
use crate::synthetic::SyntheticSource;
use mdq_model::parser::parse_query;
use mdq_model::schema::{AccessPattern, Schema, ServiceBuilder, ServiceProfile};
use mdq_model::value::{DomainKind, Tuple, Value};

/// Items returned by `seed` for the canonical topic.
pub const SEED_ITEMS: usize = 4;
/// Parts each item actually explodes into.
const PARTS_PER_ITEM: usize = 40;
/// Offers each part actually has (8 pages of 5).
const OFFERS_PER_PART: usize = 40;
/// Page size of the `offers` search service.
const OFFERS_CHUNK: u32 = 5;
/// The `parts` service's true per-call latency, seconds.
const PARTS_TRUE_TAU: f64 = 3.0;
/// The `parts` service's true erspi.
const PARTS_TRUE_ERSPI: f64 = PARTS_PER_ITEM as f64;

/// Service ids of the catalog world, in chain order.
#[derive(Clone, Copy, Debug)]
pub struct CatalogIds {
    /// `seed(Topic, Item)`.
    pub seed: mdq_model::schema::ServiceId,
    /// `parts(Item, Part)` — the (possibly) mis-estimated service.
    pub parts: mdq_model::schema::ServiceId,
    /// `offers(Part, Vendor, Price)` — chunked ranked search.
    pub offers: mdq_model::schema::ServiceId,
}

/// The catalog world plus its service ids.
pub struct CatalogWorld {
    /// Signatures (estimates), canonical query, runtime services.
    pub world: World,
    /// Service ids in chain order.
    pub ids: CatalogIds,
}

/// Builds the catalog world. With `mis_estimated = true` the `parts`
/// service registers the stale profile (erspi 0.25, τ 0.5 s); with
/// `false` the registration tells the truth and an adaptive execution
/// observes no divergence at all.
pub fn catalog_world(mis_estimated: bool) -> CatalogWorld {
    let mut schema = Schema::new();
    let seed = ServiceBuilder::new(&mut schema, "seed")
        .attr_kinded("Topic", "Topic", DomainKind::Str)
        .attr_kinded("Item", "Item", DomainKind::Str)
        .pattern("io")
        .profile(ServiceProfile::new(SEED_ITEMS as f64, 0.5))
        .register()
        .expect("seed registers");
    let parts_profile = if mis_estimated {
        // the stale registration: "selective and fast"
        ServiceProfile::new(0.25, 0.5)
    } else {
        ServiceProfile::new(PARTS_TRUE_ERSPI, PARTS_TRUE_TAU)
    };
    let parts = ServiceBuilder::new(&mut schema, "parts")
        .attr_kinded("Item", "Item", DomainKind::Str)
        .attr_kinded("Part", "Part", DomainKind::Str)
        .pattern("io")
        .profile(parts_profile)
        .register()
        .expect("parts registers");
    let offers = ServiceBuilder::new(&mut schema, "offers")
        .attr_kinded("Part", "Part", DomainKind::Str)
        .attr_kinded("Vendor", "Vendor", DomainKind::Str)
        .attr_kinded("Price", "Price", DomainKind::Float)
        .pattern("ioo")
        .search()
        .chunked(OFFERS_CHUNK)
        .profile(ServiceProfile::new(OFFERS_PER_PART as f64, 2.0))
        .register()
        .expect("offers registers");

    let mut seed_rows = Vec::new();
    let mut parts_rows = Vec::new();
    let mut offers_rows = Vec::new();
    for i in 0..SEED_ITEMS {
        let item = format!("item-{i}");
        seed_rows.push(Tuple::new(vec![
            Value::str("widgets"),
            Value::str(item.clone()),
        ]));
        for p in 0..PARTS_PER_ITEM {
            let part = format!("{item}-part-{p}");
            parts_rows.push(Tuple::new(vec![
                Value::str(item.clone()),
                Value::str(part.clone()),
            ]));
            for o in 0..OFFERS_PER_PART {
                // prices cycle deterministically; about half fall under
                // the canonical query's 100.0 threshold
                let price = 50.0 + ((i + p * 3 + o * 7) % 20) as f64 * 5.0;
                offers_rows.push(Tuple::new(vec![
                    Value::str(part.clone()),
                    Value::str(format!("vendor-{o}")),
                    Value::float(price),
                ]));
            }
        }
    }

    let mut registry = ServiceRegistry::new();
    registry.register(
        seed,
        SyntheticSource::new(
            "seed",
            vec![AccessPattern::parse("io").expect("parses")],
            seed_rows,
            None,
            LatencyModel::fixed(0.5),
        ),
    );
    registry.register(
        parts,
        SyntheticSource::new(
            "parts",
            vec![AccessPattern::parse("io").expect("parses")],
            parts_rows,
            None,
            LatencyModel::fixed(PARTS_TRUE_TAU),
        ),
    );
    registry.register(
        offers,
        SyntheticSource::new(
            "offers",
            vec![AccessPattern::parse("ioo").expect("parses")],
            offers_rows,
            Some(OFFERS_CHUNK),
            LatencyModel::fixed(2.0),
        ),
    );

    let query = parse_query(
        "q(Item, Part, Vendor, Price) :- \
         seed('widgets', Item), \
         parts(Item, Part), \
         offers(Part, Vendor, Price), \
         Price <= 100.0.",
        &schema,
    )
    .expect("catalog query parses");
    query.validate(&schema).expect("catalog query is valid");

    CatalogWorld {
        world: World {
            schema,
            query,
            registry,
        },
        ids: CatalogIds {
            seed,
            parts,
            offers,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_model::binding::find_permissible;

    #[test]
    fn world_is_executable_and_forced_serial() {
        let c = catalog_world(true);
        assert!(find_permissible(&c.world.query, &c.world.schema).is_some());
        // exactly one permissible pattern sequence: the chain is forced
        let seqs = mdq_model::binding::permissible_sequences(&c.world.query, &c.world.schema);
        assert_eq!(seqs.len(), 1);
    }

    #[test]
    fn parts_actually_explodes() {
        let c = catalog_world(true);
        let parts = c.world.registry.get(c.ids.parts).expect("registered");
        let got = parts.fetch(0, &[Value::str("item-0")], 0);
        assert_eq!(got.tuples.len(), PARTS_PER_ITEM);
        assert!((got.latency - PARTS_TRUE_TAU).abs() < 1e-9);
        // while the stale registration says selective and fast
        let profile = &c.world.schema.service(c.ids.parts).profile;
        assert!(profile.erspi < 1.0);
        assert!(profile.response_time < 1.0);
    }

    #[test]
    fn truthful_variant_matches_reality() {
        let c = catalog_world(false);
        let profile = &c.world.schema.service(c.ids.parts).profile;
        assert!((profile.erspi - PARTS_TRUE_ERSPI).abs() < 1e-9);
        assert!((profile.response_time - PARTS_TRUE_TAU).abs() < 1e-9);
    }

    #[test]
    fn offers_page_deterministically() {
        let c = catalog_world(true);
        let offers = c.world.registry.get(c.ids.offers).expect("registered");
        let key = [Value::str("item-0-part-0")];
        let first = offers.fetch(0, &key, 0);
        assert_eq!(first.tuples.len(), OFFERS_CHUNK as usize);
        assert!(first.has_more);
        let pages = OFFERS_PER_PART as u32 / OFFERS_CHUNK;
        let last = offers.fetch(0, &key, pages - 1);
        assert!(!last.has_more);
    }
}
