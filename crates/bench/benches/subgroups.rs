//! Algorithm 2 (top-k unexplained subgroups): the paper reports a 4.4 s
//! average; the lattice traversal should explore only a handful of
//! refinements on explainable data.

use criterion::{criterion_group, criterion_main, Criterion};

use nexus_bench::Scenario;
use nexus_core::{
    mcimr, prune_offline, prune_online, unexplained_subgroups, Engine, Parallelism, SubgroupOptions,
};
use nexus_datagen::{DatasetKind, Scale};

fn bench(c: &mut Criterion) {
    let scenario = Scenario::new(DatasetKind::So, Scale::Small);
    let mut set = scenario.candidates();
    prune_offline(&mut set, &scenario.options);
    let engine = Engine::with_parallelism_memo(&set, Parallelism::Serial, None);
    prune_online(&mut set, &engine, &scenario.options);
    let result = mcimr(&set, &engine, &scenario.options);
    let exclude: Vec<&str> = vec!["Country", "Salary"];

    let mut group = c.benchmark_group("subgroups_SO");
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.sample_size(10);
    for tau in [0.1f64, 0.3] {
        group.bench_function(format!("tau_{tau}"), |b| {
            b.iter(|| {
                unexplained_subgroups(
                    &scenario.dataset.table,
                    &set,
                    &result.selected,
                    &exclude,
                    &scenario.options,
                    &SubgroupOptions {
                        tau,
                        ..SubgroupOptions::default()
                    },
                )
                .expect("search runs")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
