//! The bioinformatics scenario of §6: evolutionary relationships between
//! human and mouse proteins with repeated domains in the glycolysis
//! pathway, across simulated KEGG / InterPro / BLAST / UniProt sources.
//!
//! Demonstrates that the framework is domain-agnostic: the same
//! optimizer handles a ranked BLAST service with decay, and the pull
//! executor halts BLAST paging as soon as enough answers are composed.
//!
//! ```sh
//! cargo run --example protein_search
//! ```

use mdq::prelude::*;
use mdq::Mdq;

fn main() {
    let world = protein_world_shim();
    let engine = Mdq::from_world(world);

    let query_text = "q(HumanAcc, MouseAcc, Dom, Score) :- \
        kegg('glycolysis', HumanAcc), \
        interpro(HumanAcc, Dom, 'yes'), \
        blast(HumanAcc, MouseAcc, 'mouse', Score), \
        uniprot(MouseAcc, 'mouse', Gene), \
        Score >= 500.";
    let query = engine.parse(query_text).expect("parses");
    println!("query: {}\n", query.display(engine.schema()));

    // compare the optimizer's pick under two metrics
    for (name, metric) in [
        ("execution time", &ExecutionTime as &dyn CostMetric),
        ("request-response", &RequestResponse),
    ] {
        let optimized = engine
            .optimize(
                query.clone(),
                metric,
                OptimizerConfig {
                    k: 20,
                    ..OptimizerConfig::default()
                },
            )
            .expect("optimizes");
        println!(
            "under {name:<17}: {}  (cost {:.1})",
            optimized.candidate.plan.summary(engine.schema()),
            optimized.candidate.cost
        );
    }

    let optimized = engine
        .optimize(
            query,
            &ExecutionTime,
            OptimizerConfig {
                k: 20,
                ..OptimizerConfig::default()
            },
        )
        .expect("optimizes");
    let plan = &optimized.candidate.plan;

    // pull exactly 20 answers; BLAST fetching halts as soon as possible
    let mut pull = engine
        .pull(
            plan,
            ExecContext {
                elastic: true,
                ..ExecContext::private(CacheSetting::Optimal)
            },
        )
        .expect("pull starts");
    let answers = pull.answers(20);
    println!(
        "\npulled {} answers with {} service calls ({:.1}s simulated latency)",
        answers.len(),
        pull.total_calls(),
        pull.total_latency()
    );
    println!("{}", result_table(&plan.query, &answers, 20));
}

/// Rebuilds the protein world as a generic [`World`].
fn protein_world_shim() -> World {
    mdq::services::domains::protein::protein_world(42)
}
