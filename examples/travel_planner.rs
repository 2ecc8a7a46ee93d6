//! The paper's running example, end to end (§2.5, Fig. 3, Fig. 10).
//!
//! *"Find all database conferences in the next six months in locations
//! where the average temperature is 28 °C degrees and for which a cheap
//! travel solution including a luxury accommodation exists."*
//!
//! Optimizes the Fig. 3 query over the calibrated travel world, prints
//! the chosen plan in the Fig. 4 visual syntax (ASCII + DOT), executes
//! it under all three cache settings, and renders the Fig. 10-style
//! answer table.
//!
//! ```sh
//! cargo run --example travel_planner
//! ```

use mdq::prelude::*;
use mdq::Mdq;

fn main() {
    let world = travel_world(2008);
    let ids = world.ids;
    // Default selectivities for the selections (claiming σ = 1 for the
    // temperature predicate steers the optimizer into a hotel-scan plan
    // that finds no hot-city answers — only ~16 of 71 conference tuples
    // are hot); the price predicate carries Fig. 8's σ = 0.01.
    let query_text = "q(Conf, City, HPrice, FPrice, Start, End, Hotel) :- \
        flight('Milano', City, Start, End, StartTime, EndTime, FPrice), \
        hotel(Hotel, City, 'luxury', Start, End, HPrice), \
        conf('DB', Conf, Start, End, City), \
        weather(City, Temperature, Start), \
        Start >= '2007/3/14', End <= '2007/3/14' + 180, \
        Temperature >= 28, FPrice + HPrice < 2000 @0.01.";

    let mut engine = Mdq::from_world(mdq::services::domains::World {
        schema: world.schema,
        query: world.query,
        registry: world.registry,
    });
    // fold the profile-included selections (§3.4): dates/temperature are
    // inside conf's and weather's erspi; the price predicate is the
    // Fig. 8 join selectivity
    engine.set_selectivity(SelectivityModel::default());

    let query = engine.parse(query_text).expect("Fig. 3 parses");
    println!("query: {}\n", query.display(engine.schema()));

    let optimized = engine
        .optimize(
            query,
            &ExecutionTime,
            OptimizerConfig {
                k: 10,
                cache: CacheSetting::OneCall,
                ..OptimizerConfig::default()
            },
        )
        .expect("optimizes");
    let plan = &optimized.candidate.plan;

    println!(
        "=== chosen plan (ETM = {:.1}) ===",
        optimized.candidate.cost
    );
    println!("{}", to_ascii(plan, engine.schema()));
    println!("--- Graphviz DOT (render with `dot -Tsvg`) ---");
    println!("{}", to_dot(plan, engine.schema()));
    println!(
        "optimizer stats: {} sequences, {} topologies costed, {} partials pruned",
        optimized.stats.sequences_permissible,
        optimized.stats.phase2.topologies_complete,
        optimized.stats.phase2.partials_pruned,
    );

    println!("\n=== execution under the three cache settings (§5.1) ===");
    for cache in CacheSetting::ALL {
        let report = engine
            .execute(plan, &ExecConfig::default(), ExecContext::private(cache))
            .expect("executes");
        println!(
            "{:<15} calls: conf={} weather={:>2} flight={:>2} hotel={:>3}   time={:>6.1}s  answers={}",
            cache.label(),
            report.calls_to(ids.conf),
            report.calls_to(ids.weather),
            report.calls_to(ids.flight),
            report.calls_to(ids.hotel),
            report.virtual_time,
            report.answers.len(),
        );
    }

    println!("\n=== first answers (Fig. 10) ===");
    let report = engine
        .execute(
            plan,
            &ExecConfig {
                k: Some(10),
                ..ExecConfig::default()
            },
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("executes");
    println!("{}", result_table(&plan.query, &report.answers, 10));

    println!("=== pull-based continuation (§2.2: 'ask for more') ===");
    let mut pull = engine
        .pull(plan, ExecContext::private(CacheSetting::OneCall))
        .expect("pull starts");
    let first = pull.answers(3);
    println!(
        "first 3 answers cost {} calls ({:.1}s of service latency)",
        pull.total_calls(),
        pull.total_latency()
    );
    for a in &first {
        println!("  {a}");
    }
    let more = pull.answers(3);
    println!("3 more answers — cumulative {} calls", pull.total_calls());
    for a in &more {
        println!("  {a}");
    }
}
