//! Selection-time comparison: MCIMR vs every baseline on the same pruned
//! candidate set (the Section 5.1/5.3 scalability story — HypDB/Brute-Force
//! blow up with the pool size; MCIMR stays linear).

use criterion::{criterion_group, criterion_main, Criterion};

use nexus_baselines::{
    BruteForce, CajadeBaseline, ExplainMethod, HypDbBaseline, LinearRegressionBaseline, TopK,
};
use nexus_bench::Scenario;
use nexus_core::{mcimr, prune_offline, prune_online, Engine, Parallelism};
use nexus_datagen::{DatasetKind, Scale};

fn bench(c: &mut Criterion) {
    let scenario = Scenario::new(DatasetKind::Covid, Scale::Small);
    let mut set = scenario.candidates();
    prune_offline(&mut set, &scenario.options);
    let engine = Engine::with_parallelism_memo(&set, Parallelism::Serial, None);
    prune_online(&mut set, &engine, &scenario.options);

    let mut group = c.benchmark_group("selection_Covid");
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    // Candidate scoring at 1 vs 4 pool threads — selections must be
    // identical (index-ordered reduction), only the wall clock moves. The
    // engine is rebuilt every iteration: its per-candidate caches would
    // otherwise absorb the scoring work after the first pass and the bench
    // would time cache hits instead of the parallel region.
    for (label, parallelism) in [
        ("MCIMR/t1", Parallelism::Serial),
        ("MCIMR/t4", Parallelism::Fixed(4)),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let engine = Engine::with_parallelism_memo(&set, parallelism, None);
                mcimr(&set, &engine, &scenario.options)
            })
        });
    }
    let methods: Vec<Box<dyn ExplainMethod>> = vec![
        Box::new(BruteForce {
            threads: 4,
            ..BruteForce::default()
        }),
        Box::new(TopK::default()),
        Box::new(LinearRegressionBaseline::default()),
        Box::new(HypDbBaseline::default()),
        Box::new(CajadeBaseline::default()),
    ];
    for method in methods {
        group.bench_function(method.name(), |b| {
            b.iter(|| method.select(&set, &engine, &scenario.options))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
