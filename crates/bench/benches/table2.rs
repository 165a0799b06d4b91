//! Regenerates **Table 2** (OPEC vs the three ACES strategies) and
//! measures full ACES workload executions on the comparison apps.

use criterion::{criterion_group, criterion_main, Criterion};
use opec_aces::AcesStrategy;
use opec_core::Armv7mBackend;
use opec_oracle::Firmware;
use opec_vm::Vm;

fn run_aces_once(app: &opec_apps::App, strategy: AcesStrategy) -> u64 {
    let fw = Firmware::from(app);
    let build = fw.aces(strategy).expect("aces build");
    let runtime = build.runtime();
    let mut vm = Vm::builder(fw.machine(&Armv7mBackend), build.out.image)
        .supervisor(runtime)
        .build()
        .expect("vm");
    vm.run(opec_bench::FUEL).expect("aces run").cycles()
}

fn bench(c: &mut Criterion) {
    let evals = opec_eval::report::run_comparison_apps();
    println!("\n{}", opec_eval::report::table2(&evals));

    let mut g = c.benchmark_group("table2/aces-run");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_secs(1));
    g.measurement_time(std::time::Duration::from_secs(2));
    for app in opec_apps::programs::aces_comparison_apps() {
        for strategy in
            [AcesStrategy::Filename, AcesStrategy::FilenameNoOpt, AcesStrategy::Peripheral]
        {
            g.bench_function(format!("{}/{}", app.name, strategy.label()), |b| {
                b.iter(|| std::hint::black_box(run_aces_once(&app, strategy)));
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
