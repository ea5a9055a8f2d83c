//! Micro-benchmark of the parallel fleet runner: sequential vs. worker-pool
//! execution of an 8-member fleet (the configuration whose speedup the
//! scenario matrix relies on). Also prints the measured speedup directly,
//! since that single number — not the per-iteration times — is the headline.

use std::time::Instant;

use apc_server::config::ServerConfig;
use apc_server::fleet::Fleet;
use apc_sim::SimDuration;
use apc_workloads::spec::WorkloadSpec;
use criterion::{criterion_group, criterion_main, Criterion};

const MEMBERS: usize = 8;

fn fleet() -> Fleet {
    let config = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(10));
    Fleet::homogeneous(&config, WorkloadSpec::memcached_etc, 50_000.0, MEMBERS)
}

fn measure<R>(runs: u32, f: impl Fn() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..runs {
        criterion::black_box(f());
    }
    start.elapsed().as_secs_f64() / f64::from(runs)
}

fn bench_fleet_execution(c: &mut Criterion) {
    // Direct speedup measurement first: the acceptance bar is >= 2x at
    // 8 members on a multi-core host. One worker per member is forced so
    // the pool is exercised even where available_parallelism() is low.
    let sequential = measure(3, || fleet().with_parallelism(1).run());
    let parallel = measure(3, || fleet().with_parallelism(MEMBERS).run());
    println!(
        "fleet x{MEMBERS} memcached: sequential {:.1} ms, parallel {:.1} ms -> speedup {:.2}x \
         ({} workers available)",
        sequential * 1e3,
        parallel * 1e3,
        sequential / parallel,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );

    let mut group = c.benchmark_group("fleet_x8");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| fleet().with_parallelism(1).run());
    });
    group.bench_function("parallel", |b| {
        b.iter(|| fleet().with_parallelism(MEMBERS).run());
    });
    group.finish();
}

criterion_group!(benches, bench_fleet_execution);
criterion_main!(benches);
