//! The Stack Overflow salary analysis that runs through the whole paper
//! (Examples 2.1–4.5): explain the per-country salary differences, then
//! find the data subgroups the explanation does *not* cover (Table 4) and
//! re-explain the largest one.
//!
//! Run with: `cargo run --release --example salary_gap`

use nexus::core::{unexplained_subgroups, SubgroupOptions};
use nexus::datagen::{load, queries_for, DatasetKind, Scale};
use nexus::{ExplainRequest, Nexus, NexusOptions, RunControl};

fn main() {
    let dataset = load(DatasetKind::So, Scale::Default);
    let nexus = Nexus::new(NexusOptions::default());

    // SO-Q1: average salary per country.
    let q1 = queries_for(DatasetKind::So)[0];
    let query = q1.parsed();
    println!("Q1: {query}");
    let request = ExplainRequest::new()
        .table(&dataset.table)
        .knowledge_graph(&dataset.kg)
        .extraction_columns(dataset.extraction_columns.iter().cloned())
        .query(&query);
    let (e, artifacts) = nexus
        .run_controlled(&request, RunControl::none())
        .expect("pipeline runs");
    println!(
        "  explanation: {:?}  ({:.0}% of the correlation explained)\n",
        e.names(),
        100.0 * e.explained_fraction()
    );

    // Which large subgroups does that explanation fail on? (Table 4: in the
    // paper, Continent == Europe tops the list because HDI is nearly
    // constant inside Europe.)
    let subgroups = unexplained_subgroups(
        &dataset.table,
        &artifacts.set,
        &artifacts.mcimr.selected,
        &["Country", "Salary"],
        &nexus.options,
        &SubgroupOptions {
            k: 5,
            // Unexplained = markedly worse than the global residual.
            tau: e.explained_cmi + 0.15 * e.initial_cmi.max(1.0),
            min_size: dataset.table.n_rows() / 20,
            ..SubgroupOptions::default()
        },
    )
    .expect("subgroup search runs");
    println!("Top unexplained data groups (Table 4):");
    for (i, s) in subgroups.iter().enumerate() {
        println!(
            "  {}. size {:>6}  score {:.3}  {}",
            i + 1,
            s.size,
            s.score,
            s.describe()
        );
    }

    // SO-Q3: refine the query to the largest unexplained group and
    // re-explain — a different explanation emerges (Example 4.5).
    let q3 = queries_for(DatasetKind::So)[2];
    let query3 = q3.parsed();
    println!("\nQ3 (refined): {query3}");
    let request = ExplainRequest::new()
        .table(&dataset.table)
        .knowledge_graph(&dataset.kg)
        .extraction_columns(dataset.extraction_columns.iter().cloned())
        .query(&query3);
    let (e3, _) = nexus
        .run_controlled(&request, RunControl::none())
        .expect("pipeline runs");
    println!(
        "  explanation: {:?}  ({:.0}% explained)",
        e3.names(),
        100.0 * e3.explained_fraction()
    );
    println!(
        "  (within Europe the development level is nearly constant, so the \
         explanation shifts to {:?})",
        q3.ground_truth
    );
}
