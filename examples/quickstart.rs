//! Quickstart: explain a confounded correlation with a hand-built table
//! and knowledge graph.
//!
//! Run with: `cargo run --release --example quickstart`

use nexus::kg::KnowledgeGraph;
use nexus::table::{Column, Table};
use nexus::{parse, ExplainRequest, Nexus, RunControl};

fn main() {
    // A tiny developer-survey table: salary looks like it depends on the
    // country…
    let mut kg = KnowledgeGraph::new();
    let mut countries = Vec::new();
    let mut genders = Vec::new();
    let mut salaries = Vec::new();
    for c in 0..12 {
        let name = format!("Country_{c:02}");
        let development = (c % 4) as f64; // the hidden confounder
        let inequality = (c / 4) as f64;

        // …because the KG knows each country's development level and
        // inequality, which actually drive the salaries.
        let id = kg.add_entity(name.clone(), "Country");
        kg.set_literal(id, "hdi", 0.5 + 0.1 * development);
        kg.set_literal(id, "gini", 30.0 + 5.0 * inequality);
        kg.set_literal(id, "calling code", format!("+{}", 100 + c)); // an identifier
        kg.set_literal(id, "type", "country"); // a constant

        for i in 0..40 {
            countries.push(name.clone());
            genders.push(if i % 4 == 0 { "f" } else { "m" });
            salaries.push(
                30_000.0 + 15_000.0 * development - 2_000.0 * inequality + (i % 5) as f64 * 100.0,
            );
        }
    }
    let table = Table::new(vec![
        ("Country", Column::from_strs(&countries)),
        ("Gender", Column::from_strs(&genders)),
        ("Salary", Column::from_f64(salaries)),
    ])
    .expect("columns share one length");

    // The analyst's query: average salary per country.
    let query =
        parse("SELECT Country, avg(Salary) FROM survey GROUP BY Country").expect("valid SQL");
    println!("Query: {query}\n");

    // Show the puzzling result first.
    let mut catalog = nexus::query::Catalog::new();
    catalog.register("survey", table.clone());
    let result = nexus::query::execute(&query, &catalog).expect("query runs");
    println!("{result}");

    // Ask NEXUS why.
    let request = ExplainRequest::new()
        .table(&table)
        .knowledge_graph(&kg)
        .extraction_column("Country")
        .query(&query);
    let (explanation, _) = Nexus::default()
        .run_controlled(&request, RunControl::none())
        .expect("pipeline runs");

    println!(
        "Unexpected correlation I(O;T|C) = {:.3} bits; after conditioning on the \
         explanation: {:.3} bits ({:.0}% explained).\n",
        explanation.initial_cmi,
        explanation.explained_cmi,
        100.0 * explanation.explained_fraction()
    );
    println!("Explanation (with degrees of responsibility):");
    for attr in &explanation.attributes {
        println!(
            "  {:<24} responsibility {:.2}{}",
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
        "\nCandidates considered: {} → {} after offline pruning → {} after online pruning",
        explanation.stats.n_candidates_initial,
        explanation.stats.n_after_offline,
        explanation.stats.n_after_online
    );
}
