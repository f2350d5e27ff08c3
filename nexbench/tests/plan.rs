//! The request plans are fixed by `--seconds`, not by the clock, and
//! every request they can ask has a stored reference digest.

use nexbench::explain::{cycles, scan, select, MIN_SAMPLES};
use nexbench::references::{parse, requests, FILE};
use nexbench::serve::{
    explorer, explorer_rounds, repeater, variants, Variant, MAX_ROUNDS, QUERIES, ROUND,
};
use nexbench::stats::{tail, TAIL_BEYOND};

#[test]
fn explain_cycles_give_a_tail_above_the_median() {
    for w in [scan(), select()] {
        for seconds in [1, 10, 30, 60] {
            let n = cycles(&w, seconds) * w.items.len();
            assert!(n >= MIN_SAMPLES, "{} at {seconds} s: {n}", w.name);
            // The tail is the (TAIL_BEYOND + 1)-th largest sample, and
            // its rank lies above the median's.
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&values).unwrap();
            assert_eq!(t.beyond, TAIL_BEYOND);
            assert!(t.percentile > 50.0, "{} at {seconds} s", w.name);
        }
    }
    // At the benchmark's 30 s: 8 cycles of 3 and 4 cycles of 7.
    assert_eq!(cycles(&scan(), 30), 8);
    assert_eq!(cycles(&select(), 30), 4);
}

#[test]
fn repeater_asks_one_hit_per_round() {
    let misses = explorer_rounds(30) * ROUND.len();
    assert_eq!(misses, 20);
    let hits = repeater(7, misses);
    assert_eq!(hits.len(), 4);
    assert!(hits
        .iter()
        .all(|v| v.top_k.is_none() && v.exclude.is_none()));
    assert_eq!(repeater(7, misses), hits, "seeded");
    assert_eq!(repeater(8, 3).len(), 1);
}

#[test]
fn serve_statistics_fall_inside_the_fl_q5_misses() {
    // Sort one run's requests by query type, cheapest first (hits, FL-Q3,
    // FL-Q5, FL-Q2), and check that the median, the tail and the cold
    // median each have at least three FL-Q5 misses on either side.
    let rounds = explorer_rounds(30);
    let plan = &explorer(3)[..rounds * ROUND.len()];
    let count = |q: &str| plan.iter().filter(|v| QUERIES[v.query] == q).count();
    let hits = repeater(3, plan.len()).len();
    let below = hits + count("FL-Q3");
    let q5 = count("FL-Q5");
    let n = plan.len() + hits;
    assert_eq!((n, q5), (24, 12));
    let (first, last) = ((below + 1) as f64, (below + q5) as f64);
    let inside = |rank: f64| rank - first >= 3.0 && last - rank >= 3.0;
    // 1-based ranks: the median of 24 is the mean of ranks 12 and 13,
    // the tail the 11th largest, the cold median over the misses only.
    let median = (n + 1) as f64 / 2.0;
    let tail = (n - TAIL_BEYOND) as f64;
    let cold = hits as f64 + (plan.len() + 1) as f64 / 2.0;
    for (name, rank) in [("median", median), ("tail", tail), ("cold", cold)] {
        assert!(inside(rank), "{name} at rank {rank}");
    }
    assert_eq!(explorer_rounds(600), MAX_ROUNDS);
}

#[test]
fn explorer_variants_do_not_depend_on_the_seed() {
    let sorted = |mut v: Vec<Variant>| {
        v.sort();
        v
    };
    assert_eq!(sorted(explorer(1)), sorted(explorer(2)));
    let all = variants();
    assert_eq!(all.len(), QUERIES.len() + explorer(1).len());
    for (i, v) in all.iter().enumerate() {
        assert!(!all[..i].contains(v), "{} repeats", v.label());
    }
}

#[test]
fn every_request_has_one_stored_reference() {
    let stored: Vec<(String, String)> = parse(FILE)
        .into_iter()
        .map(|(w, r, _)| (w.to_string(), r.to_string()))
        .collect();
    let wanted: Vec<(String, String)> = requests()
        .into_iter()
        .map(|(w, r)| (w.to_string(), r))
        .collect();
    assert_eq!(stored, wanted);
}
