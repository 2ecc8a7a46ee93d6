//! The expert-finding domain from the paper's abstract: *"Who are the
//! strongest experts on service computing based upon their recent
//! publication record and accepted European projects?"*
//!
//! `pubsearch` is a ranked search service (relevance-ordered publication
//! hits, chunked); `projects` is an exact lookup of funded projects per
//! author.

use super::World;
use crate::registry::ServiceRegistry;
use crate::service::LatencyModel;
use crate::synthetic::SyntheticSource;
use mdq_model::parser::parse_query;
use mdq_model::rng::Rng;
use mdq_model::schema::{AccessPattern, Schema, ServiceBuilder, ServiceProfile};
use mdq_model::value::{DomainKind, Tuple, Value};

/// Number of authors in the synthetic community.
const AUTHORS: usize = 40;

/// Builds the bibliography world.
pub fn bibliography_world(seed: u64) -> World {
    let mut schema = Schema::new();
    schema.domain_with("Author", DomainKind::Str, Some(AUTHORS as f64));
    ServiceBuilder::new(&mut schema, "pubsearch")
        .attr_kinded("Topic", "Topic", DomainKind::Str)
        .attr_kinded("Author", "Author", DomainKind::Str)
        .attr_kinded("Title", "Title", DomainKind::Str)
        .attr_kinded("Year", "Year", DomainKind::Int)
        .attr_kinded("Citations", "Count", DomainKind::Int)
        .pattern("ioooo")
        .search()
        .chunked(10)
        .profile(ServiceProfile::new(10.0, 2.1))
        .register()
        .expect("pubsearch registers");
    ServiceBuilder::new(&mut schema, "projects")
        .attr_kinded("Author", "Author", DomainKind::Str)
        .attr_kinded("Project", "Project", DomainKind::Str)
        .attr_kinded("Programme", "Programme", DomainKind::Str)
        .attr_kinded("Funding", "Money", DomainKind::Float)
        .pattern("iooo")
        .profile(ServiceProfile::new(0.8, 1.1))
        .register()
        .expect("projects registers");

    let mut rng = Rng::new(seed);
    let author = |i: usize| format!("author{:02}", i + 1);

    // Publications: relevance-ranked per topic; prolific authors appear
    // early and often.
    let mut pub_rows: Vec<Tuple> = Vec::new();
    for topic in ["service computing", "data integration"] {
        let mut scored: Vec<(f64, Tuple)> = Vec::new();
        for a in 0..AUTHORS {
            let papers = 1 + (AUTHORS - a) / 6; // earlier authors: more papers
            for p in 0..papers {
                let relevance = (AUTHORS - a) as f64 * 3.0 + rng.range_f64(0.0, 10.0);
                let year = 2003 + ((a * 5 + p * 3) % 6) as i64;
                scored.push((
                    relevance,
                    Tuple::new(vec![
                        Value::str(topic),
                        Value::str(author(a)),
                        Value::str(format!("{topic}-paper-{a}-{p}")),
                        Value::Int(year),
                        Value::Int(rng.range_i64(0, 400)),
                    ]),
                ));
            }
        }
        scored.sort_by(|x, y| y.0.total_cmp(&x.0));
        pub_rows.extend(scored.into_iter().map(|(_, t)| t));
    }

    // Projects: roughly half the authors coordinate an EU project.
    let mut project_rows: Vec<Tuple> = Vec::new();
    for a in 0..AUTHORS {
        if a % 2 == 0 {
            let programme = if a % 4 == 0 { "FP7" } else { "FP6" };
            project_rows.push(Tuple::new(vec![
                Value::str(author(a)),
                Value::str(format!("project-{a}")),
                Value::str(programme),
                Value::float((rng.range_f64(0.4, 3.0) * 100.0).round() * 10_000.0),
            ]));
        }
    }

    let mut registry = ServiceRegistry::new();
    registry.register(
        schema.service_by_name("pubsearch").expect("pubsearch"),
        SyntheticSource::new(
            "pubsearch",
            vec![AccessPattern::parse("ioooo").expect("parses")],
            pub_rows,
            Some(10),
            LatencyModel::fixed(2.1).with_jitter(0.05, seed),
        ),
    );
    registry.register(
        schema.service_by_name("projects").expect("projects"),
        SyntheticSource::new(
            "projects",
            vec![AccessPattern::parse("iooo").expect("parses")],
            project_rows,
            None,
            LatencyModel::fixed(1.1),
        ),
    );

    let query = parse_query(
        "q(Author, Title, Project, Funding) :- \
         pubsearch('service computing', Author, Title, Year, Cits), \
         projects(Author, Project, 'FP7', Funding), \
         Year >= 2005.",
        &schema,
    )
    .expect("bibliography query parses");
    query
        .validate(&schema)
        .expect("bibliography query is valid");

    World {
        schema,
        query,
        registry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_model::binding::find_permissible;

    #[test]
    fn world_is_executable_and_ranked() {
        let w = bibliography_world(5);
        assert!(find_permissible(&w.query, &w.schema).is_some());
        let pubs = w
            .registry
            .get(w.schema.service_by_name("pubsearch").expect("pubsearch"))
            .expect("registered")
            .clone();
        let page0 = pubs.fetch(0, &[Value::str("service computing")], 0);
        assert_eq!(page0.tuples.len(), 10);
        assert!(page0.has_more);
        // prolific early authors surface in the first chunk
        assert_eq!(page0.tuples[0].get(1), &Value::str("author01"));
    }

    #[test]
    fn projects_filter_by_programme_via_constants() {
        let w = bibliography_world(5);
        let projects = w
            .registry
            .get(w.schema.service_by_name("projects").expect("projects"))
            .expect("registered")
            .clone();
        let r = projects.fetch(0, &[Value::str("author01")], 0);
        assert_eq!(r.tuples.len(), 1, "author01 (index 0) coordinates one");
        assert_eq!(r.tuples[0].get(2), &Value::str("FP7"));
        let none = projects.fetch(0, &[Value::str("author02")], 0);
        assert!(none.tuples.is_empty(), "odd authors have no project");
    }
}
