//! Fork-engine benchmark: `Snapshot::run_many` over 1, 8 and 64 lanes of
//! a memory-bound workload forked from one warmed snapshot.
//!
//! Each lane forks the snapshot copy-on-write and runs to completion; the
//! lanes share one decoded program and one scheduling context. Throughput
//! is committed instructions across all lanes, so the rungs compare per
//! lane cost as the lane count grows.
//!
//! Run untimed as a CI smoke test with `cargo bench --bench batch -- --test`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use racer_cpu::workloads::memory_stream;
use racer_cpu::{Backend, Cpu, CpuConfig};
use racer_mem::HierarchyConfig;
use std::hint::black_box;

const LANE_COUNTS: [usize; 3] = [1, 8, 64];

fn bench_run_many(c: &mut Criterion) {
    let prog = memory_stream(500);
    let mut cpu = Cpu::new(CpuConfig::coffee_lake(), HierarchyConfig::coffee_lake());
    cpu.run_one(&prog, Backend::EventDriven);
    let snap = cpu.snapshot();
    let dyn_instrs = snap.fork().run_one(&prog, Backend::EventDriven).committed;
    let mut group = c.benchmark_group("run_many");
    group.sample_size(8);
    for lanes in LANE_COUNTS {
        let progs = vec![prog.clone(); lanes];
        group.throughput(Throughput::Elements(dyn_instrs * lanes as u64));
        group.bench_function(format!("mem_{lanes}_lanes"), |b| {
            b.iter(|| black_box(snap.run_many(&progs).len()))
        });
    }
    group.finish();
}

criterion_group!(batch, bench_run_many);
criterion_main!(batch);
