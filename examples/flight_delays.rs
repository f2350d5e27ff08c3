//! Flight-delay analysis: compare NEXUS against every baseline on the
//! paper's Flights Q5 ("average delay per airline") and show why the
//! alternatives fall short.
//!
//! Run with: `cargo run --release --example flight_delays`

use nexus::baselines::{
    BruteForce, CajadeBaseline, ExplainMethod, HypDbBaseline, LinearRegressionBaseline, TopK,
};
use nexus::datagen::{load, queries_for, DatasetKind, Scale};
use nexus::{ExplainRequest, Nexus, NexusOptions, RunControl};

fn main() {
    let dataset = load(DatasetKind::Flights, Scale::Default);
    let bench = queries_for(DatasetKind::Flights)[4]; // FL-Q5
    let query = bench.parsed();
    println!("Query: {query}");
    println!("Planted confounders: {:?}\n", bench.ground_truth);

    // Exclude the alternative delay measurement from the candidates.
    let options = NexusOptions {
        excluded_columns: vec!["Arrival_delay".to_string()],
        ..NexusOptions::default()
    };

    let nexus = Nexus::new(options.clone());
    let t0 = std::time::Instant::now();
    let request = ExplainRequest::new()
        .table(&dataset.table)
        .knowledge_graph(&dataset.kg)
        .extraction_columns(dataset.extraction_columns.iter().cloned())
        .query(&query);
    let (e, artifacts) = nexus
        .run_controlled(&request, RunControl::none())
        .expect("pipeline runs");
    println!("{:<14} {:>8.2?}  {:?}", "MESA", t0.elapsed(), e.names());

    let methods: Vec<Box<dyn ExplainMethod>> = vec![
        Box::new(BruteForce::default()),
        Box::new(TopK::default()),
        Box::new(LinearRegressionBaseline::default()),
        Box::new(HypDbBaseline::default()),
        Box::new(CajadeBaseline::default()),
    ];
    for method in methods {
        let t0 = std::time::Instant::now();
        let picks = method.select(&artifacts.set, &artifacts.engine, &options);
        let names: Vec<&str> = picks
            .iter()
            .map(|&i| artifacts.set.candidates[i].name.as_str())
            .collect();
        println!("{:<14} {:>8.2?}  {:?}", method.name(), t0.elapsed(), names);
    }

    println!(
        "\nBaseline correlation I(Delay; Airline) = {:.4} bits; MESA leaves {:.4} bits \
         unexplained.",
        e.initial_cmi, e.explained_cmi
    );
    println!(
        "Candidates: {} extracted + base attributes, {} after pruning.",
        e.stats.n_candidates_initial, e.stats.n_after_online
    );
}
