//! One Criterion benchmark per paper table/figure: measures the wall-clock
//! cost of regenerating each artefact at smoke scale. Paper-scale sweeps
//! run through `racer-lab run <scenario>`.

use criterion::{criterion_group, criterion_main, Criterion};
use hacky_racers::experiments::{
    countermeasures, distribution, ev_eval, granularity, magnifier_sweeps, par_seq,
    repetition_figure, spectre_eval,
};
use std::hint::black_box;

fn bench_fig07(c: &mut Criterion) {
    c.bench_function("fig07_repetition_stacks", |b| {
        b.iter(|| black_box(repetition_figure::figure7(true, 10)))
    });
}

fn bench_fig08(c: &mut Criterion) {
    c.bench_function("fig08_granularity_add_ref", |b| {
        b.iter(|| black_box(granularity::figure8(12, 4, 70)))
    });
}

fn bench_fig09(c: &mut Criterion) {
    c.bench_function("fig09_granularity_mul_ref", |b| {
        b.iter(|| black_box(granularity::figure9(24, 8, 60)))
    });
}

fn bench_fig10(c: &mut Criterion) {
    c.bench_function("fig10_reorder_distribution", |b| {
        b.iter(|| black_box(distribution::figure10(3, 300)))
    });
}

fn bench_fig11(c: &mut Criterion) {
    c.bench_function("fig11_arbitrary_replacement_sweep", |b| {
        b.iter(|| black_box(magnifier_sweeps::figure11(&[2, 6], 30)))
    });
}

fn bench_fig12(c: &mut Criterion) {
    c.bench_function("fig12_arithmetic_sweep", |b| {
        b.iter(|| black_box(magnifier_sweeps::figure12(&[25, 75], 20, Some(20_000))))
    });
}

fn bench_table_granularity(c: &mut Criterion) {
    c.bench_function("table_s7_2_granularity_summary", |b| {
        b.iter(|| {
            let series = granularity::figure8(12, 4, 70);
            black_box(granularity::granularity_table(&series))
        })
    });
}

fn bench_table_par_seq(c: &mut Criterion) {
    c.bench_function("table_s6_3_3_par_seq_probability", |b| {
        b.iter(|| black_box(par_seq::par_seq_table(8, 500)))
    });
}

fn bench_spectre_back(c: &mut Criterion) {
    let mut group = c.benchmark_group("s7_3_spectre_back");
    group.sample_size(10);
    group.bench_function("leak_two_bytes_5us_timer", |b| {
        b.iter(|| black_box(spectre_eval::evaluate(b"OK", 5_000.0, 1)))
    });
    group.finish();
}

fn bench_eviction_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("s7_4_eviction_set");
    group.sample_size(10);
    group.bench_function("profile_one_target", |b| {
        b.iter(|| black_box(ev_eval::evaluate(1, 48)))
    });
    group.finish();
}

fn bench_countermeasures(c: &mut Criterion) {
    let mut group = c.benchmark_group("s8_countermeasures");
    group.sample_size(10);
    group.bench_function("gadget_vs_defence_matrix", |b| {
        b.iter(|| black_box(countermeasures::countermeasure_matrix()))
    });
    group.finish();
}

criterion_group!(
    figures,
    bench_fig07,
    bench_fig08,
    bench_fig09,
    bench_fig10,
    bench_fig11,
    bench_fig12,
    bench_table_granularity,
    bench_table_par_seq,
    bench_spectre_back,
    bench_eviction_set,
    bench_countermeasures,
);
criterion_main!(figures);
