//! The bioinformatics domain of §6: "we were able to query protein
//! repositories to find evolutionary relationships between human and
//! mouse proteins including repeated protein domains and involved in the
//! glycolysis metabolic pathway, using the InterPro, UniProt, BLAST, and
//! KEGG data sources."
//!
//! BLAST is the search service here (hits in decreasing similarity
//! order, chunked); KEGG, UniProt and InterPro behave as exact services.

use super::World;
use crate::registry::ServiceRegistry;
use crate::service::LatencyModel;
use crate::synthetic::SyntheticSource;
use mdq_model::parser::parse_query;
use mdq_model::rng::Rng;
use mdq_model::schema::{AccessPattern, Schema, ServiceBuilder, ServiceProfile};
use mdq_model::value::{DomainKind, Tuple, Value};

/// Number of human glycolysis proteins planted in KEGG.
const GLYCOLYSIS_PROTEINS: usize = 24;

/// Builds the protein world.
pub fn protein_world(seed: u64) -> World {
    let mut schema = Schema::new();
    schema.domain_with("Accession", DomainKind::Str, Some(400.0));
    ServiceBuilder::new(&mut schema, "kegg")
        .attr_kinded("Pathway", "Pathway", DomainKind::Str)
        .attr_kinded("Accession", "Accession", DomainKind::Str)
        .pattern("io")
        .profile(ServiceProfile::new(GLYCOLYSIS_PROTEINS as f64, 0.8))
        .register()
        .expect("kegg registers");
    ServiceBuilder::new(&mut schema, "interpro")
        .attr_kinded("Accession", "Accession", DomainKind::Str)
        .attr_kinded("DomainId", "ProtDomain", DomainKind::Str)
        .attr_kinded("Repeated", "Flag", DomainKind::Str)
        .pattern("ioo")
        .profile(ServiceProfile::new(2.5, 0.6))
        .register()
        .expect("interpro registers");
    ServiceBuilder::new(&mut schema, "blast")
        .attr_kinded("Query", "Accession", DomainKind::Str)
        .attr_kinded("Hit", "Accession", DomainKind::Str)
        .attr_kinded("HitOrganism", "Organism", DomainKind::Str)
        .attr_kinded("Score", "Score", DomainKind::Float)
        .pattern("iooo")
        .search()
        .chunked(10)
        .profile(ServiceProfile::new(10.0, 3.4).with_decay(40))
        .register()
        .expect("blast registers");
    ServiceBuilder::new(&mut schema, "uniprot")
        .attr_kinded("Accession", "Accession", DomainKind::Str)
        .attr_kinded("Organism", "Organism", DomainKind::Str)
        .attr_kinded("Gene", "Gene", DomainKind::Str)
        .pattern("ioo")
        .profile(ServiceProfile::new(1.0, 0.9))
        .register()
        .expect("uniprot registers");

    let mut rng = Rng::new(seed);
    let human_acc = |i: usize| format!("P{:05}", 10000 + i);
    let mouse_acc = |i: usize| format!("Q{:05}", 20000 + i);

    // KEGG: glycolysis pathway (human accessions) + another pathway.
    let mut kegg_rows = Vec::new();
    for i in 0..GLYCOLYSIS_PROTEINS {
        kegg_rows.push(Tuple::new(vec![
            Value::str("glycolysis"),
            Value::str(human_acc(i)),
        ]));
    }
    for i in 40..52 {
        kegg_rows.push(Tuple::new(vec![
            Value::str("citrate_cycle"),
            Value::str(human_acc(i)),
        ]));
    }

    // InterPro: 1–4 domains per protein; ~40% carry a repeated domain.
    let mut interpro_rows = Vec::new();
    for i in 0..60 {
        let n = 1 + (i % 4);
        for d in 0..n {
            let repeated = if (i + d) % 5 < 2 { "yes" } else { "no" };
            interpro_rows.push(Tuple::new(vec![
                Value::str(human_acc(i)),
                Value::str(format!("IPR{:04}", 100 + (i * 3 + d) % 37)),
                Value::str(repeated),
            ]));
        }
    }

    // BLAST: per human protein, ranked mouse/rat hits by score.
    let mut blast_rows: Vec<(usize, f64, Tuple)> = Vec::new();
    for i in 0..60 {
        let hits = 8 + (i % 25);
        for h in 0..hits {
            let score = 990.0 - h as f64 * 17.0 - rng.range_f64(0.0, 5.0);
            let organism = if h % 3 == 0 { "rat" } else { "mouse" };
            blast_rows.push((
                i,
                score,
                Tuple::new(vec![
                    Value::str(human_acc(i)),
                    Value::str(mouse_acc(i * 31 + h)),
                    Value::str(organism),
                    Value::float((score * 10.0).round() / 10.0),
                ]),
            ));
        }
    }
    // global rank order: per-query descending score
    blast_rows.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)));
    let blast_rows: Vec<Tuple> = blast_rows.into_iter().map(|(_, _, t)| t).collect();

    // UniProt: organism/gene per accession (humans + all mouse hits).
    let mut uniprot_rows = Vec::new();
    for i in 0..60 {
        uniprot_rows.push(Tuple::new(vec![
            Value::str(human_acc(i)),
            Value::str("human"),
            Value::str(format!("GENE{i}")),
        ]));
    }
    for row in &blast_rows {
        uniprot_rows.push(Tuple::new(vec![
            row.get(1).clone(),
            row.get(2).clone(),
            Value::str(format!("g-{}", row.get(1))),
        ]));
    }

    let mut registry = ServiceRegistry::new();
    registry.register(
        schema.service_by_name("kegg").expect("kegg"),
        SyntheticSource::new(
            "kegg",
            vec![AccessPattern::parse("io").expect("parses")],
            kegg_rows,
            None,
            LatencyModel::fixed(0.8),
        ),
    );
    registry.register(
        schema.service_by_name("interpro").expect("interpro"),
        SyntheticSource::new(
            "interpro",
            vec![AccessPattern::parse("ioo").expect("parses")],
            interpro_rows,
            None,
            LatencyModel::fixed(0.6),
        ),
    );
    registry.register(
        schema.service_by_name("blast").expect("blast"),
        SyntheticSource::new(
            "blast",
            vec![AccessPattern::parse("iooo").expect("parses")],
            blast_rows,
            Some(10),
            LatencyModel::fixed(3.4).with_jitter(0.1, seed),
        ),
    );
    registry.register(
        schema.service_by_name("uniprot").expect("uniprot"),
        SyntheticSource::new(
            "uniprot",
            vec![AccessPattern::parse("ioo").expect("parses")],
            uniprot_rows,
            None,
            LatencyModel::fixed(0.9),
        ),
    );

    let query = parse_query(
        "q(HumanAcc, MouseAcc, Dom, Score) :- \
         kegg('glycolysis', HumanAcc), \
         interpro(HumanAcc, Dom, 'yes'), \
         blast(HumanAcc, MouseAcc, 'mouse', Score), \
         uniprot(MouseAcc, 'mouse', Gene), \
         Score >= 500.",
        &schema,
    )
    .expect("protein query parses");
    query.validate(&schema).expect("protein query is valid");

    World {
        schema,
        query,
        registry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_model::binding::permissible_sequences;

    #[test]
    fn world_is_executable() {
        let w = protein_world(3);
        let seqs = permissible_sequences(&w.query, &w.schema);
        assert_eq!(seqs.len(), 1, "single pattern each → one sequence");
    }

    #[test]
    fn blast_is_ranked_and_chunked() {
        let w = protein_world(3);
        let blast = w
            .registry
            .get(w.schema.service_by_name("blast").expect("blast"))
            .expect("registered")
            .clone();
        let r = blast.fetch(0, &[Value::str("P10003")], 0);
        assert!(r.tuples.len() <= 10);
        assert!(!r.tuples.is_empty());
        let scores: Vec<f64> = r
            .tuples
            .iter()
            .map(|t| t.get(3).as_f64().expect("score"))
            .collect();
        for pair in scores.windows(2) {
            assert!(pair[0] >= pair[1], "descending scores: {scores:?}");
        }
    }

    #[test]
    fn kegg_pathway_sizes() {
        let w = protein_world(3);
        let kegg = w
            .registry
            .get(w.schema.service_by_name("kegg").expect("kegg"))
            .expect("registered")
            .clone();
        let r = kegg.fetch(0, &[Value::str("glycolysis")], 0);
        assert_eq!(r.tuples.len(), GLYCOLYSIS_PROTEINS);
    }
}
