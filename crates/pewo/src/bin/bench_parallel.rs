//! Thread scaling of a floor-budget placement: places `pro_ref` at CI
//! scale under the **floor** AMC budget with every thread count from 1 to
//! the host's core count (more threads than cores would measure
//! oversubscription, not scaling), verifies the emitted jplace is
//! byte-identical across thread counts, and records per-phase timings and
//! prescore / thorough / total speed-ups over one thread — together with
//! the host's core count — in `BENCH_parallel.json`.
//!
//! Samples are interleaved (one run per thread count per round) so host
//! drift hits every row alike; each phase reports its fastest round.
//!
//! Usage: `cargo run --release -p pewo-bench --bin bench_parallel -- [out.json]`
//! (`BENCH_REPEATS` sets the rounds, default 5).

use epa_place::result::to_jplace;
use epa_place::{memplan, EpaConfig, Placer, RunReport};
use pewo_bench::{build_batch, build_reference};
use phylo_datasets as datasets;
use phylo_datasets::Scale;
use std::time::Duration;

/// The fastest round of one thread count, phase by phase.
struct Row {
    threads: usize,
    prescore: Duration,
    thorough: Duration,
    total: Duration,
    /// The report of the fastest round by total time (slot counters).
    fastest: RunReport,
}

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_parallel.json".to_string());
    let repeats: usize =
        std::env::var("BENCH_REPEATS").ok().and_then(|v| v.parse().ok()).unwrap_or(5).max(1);
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let spec = datasets::pro_ref(Scale::Ci);
    let ds = datasets::generate(&spec);
    let batch = build_batch(&ds);
    let base = EpaConfig::default();
    let (probe, _) = build_reference(&ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    drop(probe);

    let mut rows: Vec<Option<Row>> = (1..=host_cores).map(|_| None).collect();
    let mut jplace: Option<String> = None;
    let mut byte_identical = true;
    for _ in 0..repeats {
        for (slot, threads) in rows.iter_mut().zip(1..=host_cores) {
            let cfg = EpaConfig {
                max_memory: Some(floor),
                threads,
                async_prefetch: true,
                ..base.clone()
            };
            let (ctx, s2p) = build_reference(&ds);
            let placer = Placer::new(ctx, s2p, cfg).expect("valid cfg");
            let (results, report) = placer.place(&batch).expect("floor-budget run");
            let j = to_jplace(&ds.tree, &results);
            match &jplace {
                None => jplace = Some(j),
                Some(reference) => byte_identical &= *reference == j,
            }
            match slot {
                None => {
                    *slot = Some(Row {
                        threads,
                        prescore: report.prescore_time,
                        thorough: report.thorough_time,
                        total: report.total_time,
                        fastest: report,
                    })
                }
                Some(row) => {
                    row.prescore = row.prescore.min(report.prescore_time);
                    row.thorough = row.thorough.min(report.thorough_time);
                    row.total = row.total.min(report.total_time);
                    if report.total_time < row.fastest.total_time {
                        row.fastest = report;
                    }
                }
            }
        }
    }
    let rows: Vec<Row> = rows.into_iter().map(|r| r.expect("every row sampled")).collect();
    for r in &rows {
        eprintln!(
            "threads={}: prescore {:.3}s, thorough {:.3}s, total {:.3}s",
            r.threads,
            r.prescore.as_secs_f64(),
            r.thorough.as_secs_f64(),
            r.total.as_secs_f64()
        );
    }

    let per_thread = rows
        .iter()
        .map(|r| {
            let s = &r.fastest.slot_stats;
            format!(
                "    \"{}\": {{ \"prescore_s\": {:.6}, \"thorough_s\": {:.6}, \"total_s\": {:.6}, \
                 \"slots\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
                 \"acquires\": {}, \"flush_retries\": {} }}",
                r.threads,
                r.prescore.as_secs_f64(),
                r.thorough.as_secs_f64(),
                r.total.as_secs_f64(),
                r.fastest.slots,
                s.hits,
                s.misses,
                s.evictions,
                s.acquires,
                r.fastest.degradation.flush_retries
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let one = &rows[0];
    let ratio = |a: Duration, b: Duration| a.as_secs_f64() / b.as_secs_f64().max(1e-12);
    let speedups = rows[1..]
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{ \"prescore\": {:.3}, \"thorough\": {:.3}, \"total\": {:.3} }}",
                r.threads,
                ratio(one.prescore, r.prescore),
                ratio(one.thorough, r.thorough),
                ratio(one.total, r.total)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"dataset\": \"pro_ref\",\n  \"scale\": \"ci\",\n  \"mode\": \"amc-floor\",\n  \
         \"host_cores\": {host_cores},\n  \"repeats\": {repeats},\n  \
         \"sampling\": \"interleaved rounds; each phase is its fastest round\",\n  \
         \"threads\": {{\n{per_thread}\n  }},\n  \
         \"speedup_vs_1\": {{\n{speedups}\n  }},\n  \
         \"jplace_byte_identical\": {byte_identical}\n}}\n"
    );
    std::fs::write(&out, &json).expect("write BENCH_parallel.json");
    println!("{json}");
    eprintln!("wrote {out}");
    assert!(byte_identical, "jplace output must not depend on the worker count");
}
