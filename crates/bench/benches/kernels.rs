//! Microbenchmarks of the likelihood kernels: the per-CLV cost model
//! (`patterns × rates × states²`) that every memory/runtime trade-off in
//! the paper is built on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use phylo_kernel::kernels::{update_partials, Side};
use phylo_kernel::likelihood::edge_log_likelihood;
use phylo_kernel::sitepar::SiteParPool;
use phylo_kernel::{reference, KernelScratch, Layout, TierChoice, TipTable};
use phylo_models::gamma::GammaMode;
use phylo_models::{aa, dna, DiscreteGamma, SubstModel};

struct KernelSetup {
    layout: Layout,
    pmatrix: Vec<f64>,
    table: TipTable,
    codes: Vec<u8>,
    clv: Vec<f64>,
    freqs: Vec<f64>,
    rate_weights: Vec<f64>,
    pattern_weights: Vec<u32>,
}

fn setup(patterns: usize, rates: usize, protein: bool) -> KernelSetup {
    let (model, masks) = if protein {
        let gamma = if rates > 1 {
            DiscreteGamma::new(0.7, rates, GammaMode::Mean).unwrap()
        } else {
            DiscreteGamma::none()
        };
        let m = SubstModel::new(&aa::synthetic_aa(1).unwrap(), gamma).unwrap();
        let a = phylo_seq::alphabet::protein();
        let masks: Vec<u32> = (0..a.n_codes()).map(|c| a.state_mask(c as u8)).collect();
        (m, masks)
    } else {
        let gamma = if rates > 1 {
            DiscreteGamma::new(0.7, rates, GammaMode::Mean).unwrap()
        } else {
            DiscreteGamma::none()
        };
        let m = SubstModel::new(&dna::jc69(), gamma).unwrap();
        let a = phylo_seq::alphabet::dna();
        let masks: Vec<u32> = (0..a.n_codes()).map(|c| a.state_mask(c as u8)).collect();
        (m, masks)
    };
    let states = model.n_states();
    let layout = Layout::new(patterns, rates, states);
    let mut pmatrix = vec![0.0; layout.pmatrix_len()];
    model.transition_matrices(0.13, &mut pmatrix);
    let table = TipTable::build(&layout, &pmatrix, &masks);
    let codes: Vec<u8> = (0..patterns).map(|i| (i % states) as u8).collect();
    let clv: Vec<f64> = (0..layout.clv_len()).map(|i| 0.1 + (i % 7) as f64 * 0.1).collect();
    KernelSetup {
        layout,
        pmatrix,
        table,
        codes,
        clv,
        freqs: model.freqs().to_vec(),
        rate_weights: model.gamma().weights().to_vec(),
        pattern_weights: vec![1; patterns],
    }
}

fn bench_update_partials(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_partials");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (label, patterns, rates, protein) in [
        ("dna-1rate", 1000usize, 1usize, false),
        ("dna-gamma4", 1000, 4, false),
        ("aa-gamma4", 250, 4, true),
    ] {
        let s = setup(patterns, rates, protein);
        group.throughput(Throughput::Elements((patterns * rates) as u64));
        let mut out = vec![0.0; s.layout.clv_len()];
        let mut scale = vec![0u32; patterns];
        group.bench_function(BenchmarkId::new("tip_inner", label), |b| {
            b.iter(|| {
                update_partials(
                    &s.layout,
                    Side::Tip { table: &s.table, codes: &s.codes },
                    Side::Clv { clv: &s.clv, scale: None, pmatrix: &s.pmatrix },
                    &mut out,
                    &mut scale,
                    0..s.layout.patterns,
                )
            })
        });
        group.bench_function(BenchmarkId::new("inner_inner", label), |b| {
            b.iter(|| {
                update_partials(
                    &s.layout,
                    Side::Clv { clv: &s.clv, scale: None, pmatrix: &s.pmatrix },
                    Side::Clv { clv: &s.clv, scale: None, pmatrix: &s.pmatrix },
                    &mut out,
                    &mut scale,
                    0..s.layout.patterns,
                )
            })
        });
    }
    group.finish();
}

fn bench_sitepar(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_partials_sitepar");
    // Many short samples: the round-robin period stays well under the
    // host's contention-burst timescale, so the medians see the same
    // noise distribution row-to-row.
    group.sample_size(100);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    // Wide alignment (serratus-like) is where across-site parallelism
    // pays; this bench quantifies the crossover. The rows are a scaling
    // curve compared against each other, so they are sampled interleaved
    // (round-robin) rather than sequentially — host drift over the
    // group's wall-time would otherwise read as fake negative scaling.
    let s = setup(4000, 4, false);
    group.throughput(Throughput::Elements((s.layout.patterns * s.layout.rates) as u64));
    let s = &s;
    let benches = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            let mut out = vec![0.0; s.layout.clv_len()];
            let mut scale = vec![0u32; s.layout.patterns];
            // Each row owns a pool sized for its thread count.
            let pool = SiteParPool::new(threads);
            let f: Box<dyn FnMut()> = Box::new(move || {
                pool.update_partials(
                    &s.layout,
                    Side::Clv { clv: &s.clv, scale: None, pmatrix: &s.pmatrix },
                    Side::Clv { clv: &s.clv, scale: None, pmatrix: &s.pmatrix },
                    &mut out,
                    &mut scale,
                    threads,
                )
            });
            (threads.to_string(), f)
        })
        .collect();
    group.bench_comparison(benches);
    group.finish();
}

fn bench_edge_loglik(c: &mut Criterion) {
    let mut group = c.benchmark_group("edge_log_likelihood");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (label, patterns, rates, protein) in
        [("dna-gamma4", 1000usize, 4usize, false), ("aa-gamma4", 250, 4, true)]
    {
        let s = setup(patterns, rates, protein);
        group.throughput(Throughput::Elements(patterns as u64));
        group.bench_function(label, |b| {
            b.iter(|| {
                edge_log_likelihood(
                    &s.layout,
                    &s.clv,
                    None,
                    Side::Clv { clv: &s.clv, scale: None, pmatrix: &s.pmatrix },
                    &s.freqs,
                    &s.rate_weights,
                    &s.pattern_weights,
                    0..s.layout.patterns,
                )
            })
        });
    }
    group.finish();
}

fn bench_kernel_dispatch(c: &mut Criterion) {
    // The ISSUE acceptance comparison: the generic reference kernel
    // against the dispatch-selected specialized kernel on identical
    // inputs. `generic` and `specialized` share a group so criterion
    // reports them side by side; the DNA pair is the ≥2× target.
    let mut group = c.benchmark_group("kernel_dispatch");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (label, patterns, rates, protein) in
        [("dna-gamma4", 1000usize, 4usize, false), ("aa-gamma4", 250, 4, true)]
    {
        let s = setup(patterns, rates, protein);
        group.throughput(Throughput::Elements((patterns * rates) as u64));
        let mut out = vec![0.0; s.layout.clv_len()];
        let mut scale = vec![0u32; patterns];
        let mut scratch = KernelScratch::for_layout(&s.layout);
        group.bench_function(BenchmarkId::new("generic", label), |b| {
            b.iter(|| {
                reference::update_partials(
                    &s.layout,
                    Side::Clv { clv: &s.clv, scale: None, pmatrix: &s.pmatrix },
                    Side::Clv { clv: &s.clv, scale: None, pmatrix: &s.pmatrix },
                    &mut out,
                    &mut scale,
                    0..s.layout.patterns,
                    &mut scratch,
                )
            })
        });
        group.bench_function(BenchmarkId::new("specialized", label), |b| {
            b.iter(|| {
                update_partials(
                    &s.layout,
                    Side::Clv { clv: &s.clv, scale: None, pmatrix: &s.pmatrix },
                    Side::Clv { clv: &s.clv, scale: None, pmatrix: &s.pmatrix },
                    &mut out,
                    &mut scale,
                    0..s.layout.patterns,
                )
            })
        });
        group.bench_function(BenchmarkId::new("generic-tip", label), |b| {
            b.iter(|| {
                reference::update_partials(
                    &s.layout,
                    Side::Tip { table: &s.table, codes: &s.codes },
                    Side::Clv { clv: &s.clv, scale: None, pmatrix: &s.pmatrix },
                    &mut out,
                    &mut scale,
                    0..s.layout.patterns,
                    &mut scratch,
                )
            })
        });
        group.bench_function(BenchmarkId::new("specialized-tip", label), |b| {
            b.iter(|| {
                update_partials(
                    &s.layout,
                    Side::Tip { table: &s.table, codes: &s.codes },
                    Side::Clv { clv: &s.clv, scale: None, pmatrix: &s.pmatrix },
                    &mut out,
                    &mut scale,
                    0..s.layout.patterns,
                )
            })
        });
    }
    group.finish();
}

fn bench_kernel_tier(c: &mut Criterion) {
    // Tier-by-tier comparison on identical inputs and layouts: the
    // reference oracle, the fixed scalar kernels, and the SIMD tier
    // (AVX2 where the host supports it, portable fallback otherwise).
    // Rows share a group so `bench_smoke.sh` can print a per-tier
    // throughput line straight from the JSON export.
    let mut group = c.benchmark_group("kernel_tier");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (label, patterns, rates, protein) in
        [("dna-gamma4", 1000usize, 4usize, false), ("aa-gamma4", 250, 4, true)]
    {
        let s = setup(patterns, rates, protein);
        group.throughput(Throughput::Elements((patterns * rates) as u64));
        let mut out = vec![0.0; s.layout.clv_len()];
        let mut scale = vec![0u32; patterns];
        for choice in [TierChoice::Reference, TierChoice::Fixed, TierChoice::Simd] {
            let layout = s.layout.with_tier(choice);
            group.bench_function(BenchmarkId::new(layout.tier().name(), label), |b| {
                b.iter(|| {
                    update_partials(
                        &layout,
                        Side::Clv { clv: &s.clv, scale: None, pmatrix: &s.pmatrix },
                        Side::Clv { clv: &s.clv, scale: None, pmatrix: &s.pmatrix },
                        &mut out,
                        &mut scale,
                        0..layout.patterns,
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_update_partials,
    bench_sitepar,
    bench_edge_loglik,
    bench_kernel_dispatch,
    bench_kernel_tier
);
criterion_main!(benches);
