//! Reproduces **Fig. 6**: parallel efficiency versus thread count under
//! three memory settings per dataset —
//!
//! * **off** — no AMC (no memory limit);
//! * **full** — minimum memory (tightest feasible `--maxmem`);
//! * **maxmem** — AMC on, but with enough budget for the full slot
//!   complement (≈ the unconstrained footprint).
//!
//! `PE(r) = T(serial) / (T(r) · P(r))`, fastest of N repeats, where
//! `P(r) = r`: the asynchronous prefetch runs as a task on the placer's
//! `r`-thread pool, not on a thread of its own (the paper's §V-C setup
//! adds one). Expected shape: PE degrades when AMC is on, because the
//! branch-block CLV recomputation is only parallelized as one async
//! task.

use epa_place::{memplan, EpaConfig, Placer};
use pewo_bench::setup::thread_sweep;
use pewo_bench::{
    build_batch, build_reference, equivalent_chunk, parse_args, repeat_fastest, write_csv, Table,
    Timed,
};
use phylo_datasets as datasets;

fn main() {
    let args = parse_args();
    let mut table = Table::new(
        format!(
            "Fig. 6 — parallel efficiency (scale: {}, fastest of {} runs)",
            args.scale, args.repeats
        ),
        &["dataset", "mode", "threads", "P(r)", "time (s)", "speedup", "PE"],
    );
    for spec in datasets::spec::all(args.scale) {
        let ds = datasets::generate(&spec);
        let batch = build_batch(&ds);
        let chunk = equivalent_chunk(paper_queries(spec.name), 5000, batch.len());
        let base = EpaConfig { chunk_size: chunk, ..Default::default() };
        let (probe, _) = build_reference(&ds);
        let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
        // "maxmem": budget generous enough for all slots + lookup.
        let plenty = memplan::lookup_floor_budget(&probe, &base, batch.len(), batch.n_sites())
            + probe.max_slots()
                * phylo_amc::SlotArena::bytes_per_slot(
                    probe.layout().clv_len(),
                    probe.layout().patterns,
                );
        drop(probe);

        for (mode, maxmem) in [("off", None), ("full", Some(floor)), ("maxmem", Some(plenty))] {
            // Serial baseline for this mode (async prefetch disabled to
            // mirror the paper's dedicated serial build).
            let serial_cfg =
                EpaConfig { max_memory: maxmem, threads: 1, async_prefetch: false, ..base.clone() };
            let serial = repeat_fastest(args.repeats, || {
                let (ctx, s2p) = build_reference(&ds);
                let placer = Placer::new(ctx, s2p, serial_cfg.clone()).expect("valid cfg");
                let (_, report) = placer.place(&batch).expect("serial run");
                Timed { time: report.total_time, payload: () }
            });
            let t_serial = serial.time.as_secs_f64();

            for threads in thread_sweep(args.max_threads) {
                let amc_on = maxmem.is_some();
                let cfg = EpaConfig {
                    max_memory: maxmem,
                    threads,
                    async_prefetch: amc_on,
                    ..base.clone()
                };
                let run = repeat_fastest(args.repeats, || {
                    let (ctx, s2p) = build_reference(&ds);
                    let placer = Placer::new(ctx, s2p, cfg.clone()).expect("valid cfg");
                    let (_, report) = placer.place(&batch).expect("parallel run");
                    Timed { time: report.total_time, payload: () }
                });
                // The prefetch shares the `threads`-thread pool.
                let p = threads;
                let speedup = t_serial / run.time.as_secs_f64();
                table.row(&[
                    spec.name.to_string(),
                    mode.to_string(),
                    threads.to_string(),
                    p.to_string(),
                    format!("{:.2}", run.time.as_secs_f64()),
                    format!("{speedup:.2}"),
                    format!("{:.3}", speedup / p as f64),
                ]);
            }
        }
    }
    print!("{}", table.render());
    let path = write_csv(&format!("fig6_{}", args.scale), &table);
    eprintln!("csv: {}", path.display());
}

fn paper_queries(name: &str) -> usize {
    match name {
        "neotrop" => 95_417,
        "serratus" => 136,
        "pro_ref" => 3_333,
        _ => unreachable!("unknown dataset {name}"),
    }
}
