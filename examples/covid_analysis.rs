//! The paper's running Covid-19 example (Section 1, Figure 1): why does
//! the choice of country have such a substantial effect on the death rate?
//!
//! Run with: `cargo run --release --example covid_analysis`

use nexus::datagen::{load, queries_for, DatasetKind, Scale};
use nexus::query::{execute, Catalog};
use nexus::{ExplainRequest, Nexus, NexusOptions, RunControl};

fn main() {
    let dataset = load(DatasetKind::Covid, Scale::Default);
    let bench = queries_for(DatasetKind::Covid)[0];
    let query = bench.parsed();
    println!("Ann's query (Example 1.1): {query}\n");

    // Figure 1: the query result that puzzled Ann — deaths per 100 cases by
    // country (showing the extremes).
    let mut catalog = Catalog::new();
    catalog.register("Covid", dataset.table.clone());
    let result = execute(&query, &catalog)
        .expect("query runs")
        .sort_by_column("avg(Deaths_per_100_cases)", true)
        .expect("sortable");
    println!(
        "Figure 1 (worst 12 of {} countries by death rate):",
        result.n_rows()
    );
    println!("{}", result.head(12));

    // NEXUS explains the correlation.
    let options = NexusOptions::default();
    let nexus = Nexus::new(options);
    let request = ExplainRequest::new()
        .table(&dataset.table)
        .knowledge_graph(&dataset.kg)
        .extraction_columns(dataset.extraction_columns.iter().cloned())
        .query(&query);
    let (e, _) = nexus
        .run_controlled(&request, RunControl::none())
        .expect("pipeline runs");

    println!(
        "I(Deaths; Country) = {:.3} bits → {:.3} bits after conditioning ({:.0}% explained)\n",
        e.initial_cmi,
        e.explained_cmi,
        100.0 * e.explained_fraction()
    );
    println!("Explanation (Example 1.2 found HDI, GDP, Confirmed cases):");
    for attr in &e.attributes {
        println!(
            "  {:<32} responsibility {:.2}{}",
            attr.name,
            attr.responsibility,
            if attr.weighted {
                "  [IPW-weighted]"
            } else {
                ""
            }
        );
    }
    println!(
        "\nPlanted ground truth for this query: {:?}",
        bench.ground_truth
    );
    println!(
        "Query time: {:.2?} over {} candidate attributes",
        e.stats.total(),
        e.stats.n_candidates_initial
    );
}
