//! Cross-crate integration tests: SQL text in, explanation out, exercising
//! every workspace crate through the public facade.

use nexus::core::{unexplained_subgroups, CandidateSource, RunArtifacts, SubgroupOptions};
use nexus::kg::{KnowledgeGraph, PropertyValue};
use nexus::query::AggregateQuery;
use nexus::query::{execute, Catalog};
use nexus::table::{Column, Table};
use nexus::{parse, ExplainRequest, Explanation, Nexus, NexusOptions, RunControl};

/// Explains `query` over `table`, extracting KG candidates via `Country`.
fn explain(
    nexus: &Nexus,
    table: &Table,
    kg: &KnowledgeGraph,
    query: &AggregateQuery,
) -> (Explanation, RunArtifacts) {
    let request = ExplainRequest::new()
        .table(table)
        .knowledge_graph(kg)
        .extraction_column("Country")
        .query(query);
    nexus.run_controlled(&request, RunControl::none()).unwrap()
}

/// A compact world: 18 countries, two latent factors (development drives
/// salary strongly, inequality weakly), one KG distractor per flavor.
fn world() -> (Table, KnowledgeGraph) {
    let mut kg = KnowledgeGraph::new();
    let mut countries = Vec::new();
    let mut continents = Vec::new();
    let mut genders = Vec::new();
    let mut salaries = Vec::new();
    for c in 0..18 {
        let name = format!("Country_{c:02}");
        let dev = (c % 3) as f64;
        let ineq = ((c / 3) % 2) as f64;
        let continent = if c < 9 { "Europe" } else { "Asia" };
        let id = kg.add_entity(name.clone(), "Country");
        kg.add_alias(id, format!("Republic of Country_{c:02}"));
        kg.set_literal(id, "hdi", 0.4 + 0.2 * dev);
        kg.set_literal(id, "gini", 30.0 + 8.0 * ineq);
        kg.set_literal(id, "wiki id", format!("Q{c:05}"));
        kg.set_literal(id, "type", "country");
        // A one-to-many link exercising the extraction aggregator.
        let g1 = kg.add_entity(format!("Group_{c}_a"), "Ethnic");
        let g2 = kg.add_entity(format!("Group_{c}_b"), "Ethnic");
        kg.set_literal(g1, "population", 100.0 + c as f64);
        kg.set_literal(g2, "population", 300.0 + c as f64);
        kg.set_property(id, "ethnic group", PropertyValue::EntityList(vec![g1, g2]));

        for i in 0..30 {
            countries.push(if i == 0 {
                format!("Republic of Country_{c:02}") // exercise the alias path
            } else {
                name.clone()
            });
            continents.push(continent);
            genders.push(if i % 5 == 0 { "f" } else { "m" });
            salaries.push(30.0 + 20.0 * dev - 4.0 * ineq + (i % 3) as f64 * 0.2);
        }
    }
    let table = Table::new(vec![
        ("Country", Column::from_strs(&countries)),
        ("Continent", Column::from_strs(&continents)),
        ("Gender", Column::from_strs(&genders)),
        ("Salary", Column::from_f64(salaries)),
    ])
    .unwrap();
    (table, kg)
}

#[test]
fn sql_to_explanation() {
    let (table, kg) = world();
    let query = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();

    // The query itself runs through the SQL engine.
    let mut catalog = Catalog::new();
    catalog.register("t", table.clone());
    let result = execute(&query, &catalog).unwrap();
    // SQL groups by surface form: 18 canonical names + 18 alias spellings.
    // (The KG linker reconciles both spellings to 18 entities below.)
    assert_eq!(result.n_rows(), 36);

    // And the pipeline explains it.
    let e = explain(&Nexus::default(), &table, &kg, &query).0;
    assert!(e.initial_cmi > 0.5, "baseline {}", e.initial_cmi);
    assert!(
        e.names().contains(&"Country::hdi"),
        "expected hdi in {:?}",
        e.names()
    );
    assert!(e.explained_fraction() > 0.5, "{e:?}");
    // Identifier and constant distractors never survive.
    assert!(!e.names().iter().any(|n| n.contains("wiki id")));
    assert!(!e.names().iter().any(|n| n.contains("type")));
}

#[test]
fn context_refinement_changes_explanation() {
    let (table, kg) = world();
    let q_all = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
    let q_eu =
        parse("SELECT Country, avg(Salary) FROM t WHERE Continent = 'Europe' GROUP BY Country")
            .unwrap();
    let nexus = Nexus::default();
    let e_all = explain(&nexus, &table, &kg, &q_all).0;
    let e_eu = explain(&nexus, &table, &kg, &q_eu).0;
    // Both find an explanation; the European one runs on the refined mask.
    assert!(!e_all.names().is_empty());
    assert!(!e_eu.names().is_empty());
}

#[test]
fn subgroups_after_explanation() {
    let (table, kg) = world();
    let query = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
    let nexus = Nexus::default();
    let (e, artifacts) = explain(&nexus, &table, &kg, &query);
    let subgroups = unexplained_subgroups(
        &table,
        &artifacts.set,
        &artifacts.mcimr.selected,
        &["Country", "Salary"],
        &nexus.options,
        &SubgroupOptions::default(),
    )
    .unwrap();
    // The planted world is fully explainable: no large unexplained group
    // should survive a reasonable threshold.
    assert!(
        subgroups.iter().all(|s| s.score > 0.2),
        "all reported groups exceed τ: {subgroups:?}"
    );
    let _ = e;
}

#[test]
fn multi_hop_extraction_reaches_linked_entities() {
    let (table, kg) = world();
    let query = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
    let options = NexusOptions {
        hops: 2,
        ..NexusOptions::default()
    };
    let e = explain(&Nexus::new(options), &table, &kg, &query).0;
    // Multi-hop extraction adds candidates (ethnic-group aggregates).
    let single_hop = explain(&Nexus::default(), &table, &kg, &query).0;
    assert!(
        e.stats.n_candidates_initial > single_hop.stats.n_candidates_initial,
        "2-hop {} vs 1-hop {}",
        e.stats.n_candidates_initial,
        single_hop.stats.n_candidates_initial
    );
}

#[test]
fn explanation_sources_are_tracked() {
    let (table, kg) = world();
    let query = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
    let e = explain(&Nexus::default(), &table, &kg, &query).0;
    for attr in &e.attributes {
        match &attr.source {
            CandidateSource::Extracted { column } => assert_eq!(column, "Country"),
            CandidateSource::BaseTable => {
                assert!(["Continent", "Gender"].contains(&attr.name.as_str()))
            }
        }
    }
}

#[test]
fn csv_roundtrip_feeds_pipeline() {
    // Write the base table to CSV, read it back, and explain — exercising
    // the I/O path end to end.
    let (table, kg) = world();
    let mut buf = Vec::new();
    nexus::table::write_csv(&table, &mut buf).unwrap();
    let table2 =
        nexus::table::read_csv(buf.as_slice(), &nexus::table::CsvOptions::default()).unwrap();
    assert_eq!(table2.n_rows(), table.n_rows());
    let query = parse("SELECT Country, avg(Salary) FROM t GROUP BY Country").unwrap();
    let e = explain(&Nexus::default(), &table2, &kg, &query).0;
    assert!(e.names().contains(&"Country::hdi"), "{:?}", e.names());
}
