//! Phase-level benchmarks of the placement pipeline: lookup-table build,
//! per-query prescore against the table, and one thorough re-score —
//! the three cost centers whose balance the paper's memory modes shift.

use bench::fixture;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use epa_place::lookup::LookupTable;
use epa_place::score::{attachment_partials, score_thorough, BranchScoreTable, ScoreScratch};
use epa_place::EpaConfig;
use phylo_datasets::{neotrop, serratus, Scale};
use phylo_engine::ManagedStore;
use phylo_tree::{DirEdgeId, EdgeId};

fn bench_lookup_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup_build");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for spec in [neotrop(Scale::Ci), serratus(Scale::Ci)] {
        let f = fixture(spec);
        group.bench_function(f.spec.name, |b| {
            b.iter(|| {
                let mut store = ManagedStore::full(&f.ctx);
                criterion::black_box(
                    LookupTable::build(&f.ctx, &mut store, &EpaConfig::default()).unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_prescore(c: &mut Criterion) {
    let mut group = c.benchmark_group("prescore_per_query");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for spec in [neotrop(Scale::Ci), serratus(Scale::Ci)] {
        let f = fixture(spec);
        let mut store = ManagedStore::full(&f.ctx);
        let table = LookupTable::build(&f.ctx, &mut store, &EpaConfig::default()).unwrap();
        let q = &f.batch.queries()[0];
        let branches = f.ctx.tree().n_edges();
        group.throughput(Throughput::Elements(branches as u64));
        group.bench_function(BenchmarkId::new("all_branches", f.spec.name), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for e in f.ctx.tree().all_edges() {
                    acc += table.prescore(&f.ctx, e, &f.s2p, &q.codes);
                }
                criterion::black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_thorough(c: &mut Criterion) {
    let mut group = c.benchmark_group("thorough_score");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let f = fixture(neotrop(Scale::Ci));
    let store = ManagedStore::full(&f.ctx);
    let e = EdgeId(0);
    let block = store.prepare(&f.ctx, &[DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).unwrap();
    let q = &f.batch.queries()[0];
    let mut scratch = ScoreScratch::new(&f.ctx);
    group.bench_function("one_pair_2blo", |b| {
        b.iter(|| {
            criterion::black_box(
                score_thorough(&f.ctx, &store, e, &f.s2p, &q.codes, 2, &mut scratch).unwrap(),
            )
        })
    });
    // Table build alone, for comparison (the transient no-lookup path).
    group.bench_function("branch_table_build", |b| {
        b.iter(|| {
            let partials = attachment_partials(&f.ctx, &store, e, 0.5, &mut scratch);
            criterion::black_box(BranchScoreTable::build(&f.ctx, &partials, 0.1, &mut scratch))
        })
    });
    store.release(block);
    group.finish();
}

criterion_group!(benches, bench_lookup_build, bench_prescore, bench_thorough);
criterion_main!(benches);
