//! Integration tests for tiered CLV storage: under a slot budget below
//! the working set, demoting evicted CLVs to compressed-RAM or disk
//! tiers must change performance characteristics only — the jplace
//! output stays byte-identical to the RAM-only run, the tier traffic
//! shows up in the run report, and a tier byte budget turns demotions
//! into drops instead of overflowing.

use phyloplace::place::result::to_jplace;
use phyloplace::place::{memplan, EpaConfig, Placer, PreplacementMode, QueryBatch, RunReport};
use phyloplace::prelude::*;

fn setup() -> (phyloplace::datasets::Dataset, Vec<u32>, QueryBatch) {
    let spec = phyloplace::datasets::neotrop(Scale::Ci);
    let ds = phyloplace::datasets::generate(&spec);
    let patterns = phyloplace::seq::compress(&ds.reference).unwrap();
    let s2p = patterns.site_to_pattern().to_vec();
    let batch = QueryBatch::new(&ds.queries, ds.reference.n_sites()).unwrap();
    (ds, s2p, batch)
}

fn ctx_of(ds: &phyloplace::datasets::Dataset) -> ReferenceContext {
    let patterns = phyloplace::seq::compress(&ds.reference).unwrap();
    ReferenceContext::new(ds.tree.clone(), ds.model.clone(), ds.spec.alphabet.alphabet(), &patterns)
        .unwrap()
}

/// Floor slot budget, no lookup shortcut: every thorough score walks the
/// AMC machinery, so evictions — and with tiers attached, demotions —
/// are guaranteed traffic, not a lucky accident.
fn tight_config(ds: &phyloplace::datasets::Dataset, batch: &QueryBatch) -> EpaConfig {
    let base = EpaConfig {
        preplacement: PreplacementMode::Off,
        chunk_size: 7,
        block_size: 4,
        async_prefetch: true,
        ..Default::default()
    };
    let probe = ctx_of(ds);
    let floor = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    EpaConfig { max_memory: Some(floor), ..base }
}

fn run(
    ds: &phyloplace::datasets::Dataset,
    s2p: &[u32],
    batch: &QueryBatch,
    cfg: &EpaConfig,
) -> (String, RunReport) {
    let placer = Placer::new(ctx_of(ds), s2p.to_vec(), cfg.clone()).unwrap();
    let (results, report) = placer.place(batch).unwrap();
    (to_jplace(&ds.tree, &results), report)
}

#[test]
fn tiered_runs_match_ram_only_byte_for_byte() {
    let (ds, s2p, batch) = setup();
    let cfg = tight_config(&ds, &batch);
    let (baseline, base_report) = run(&ds, &s2p, &batch, &cfg);
    assert!(base_report.tier_stats.is_none(), "untired run must not report tier traffic");
    assert!(base_report.slot_stats.evictions > 0, "floor budget must force evictions");

    for spec in ["ram", "compressed", "disk", "compressed,disk"] {
        let tiers = phylo_amc::TierConfig::parse(spec).unwrap();
        let tiered = EpaConfig { tiers: Some(tiers), ..cfg.clone() };
        let (out, report) = run(&ds, &s2p, &batch, &tiered);
        assert_eq!(baseline, out, "{spec}: tiered jplace differs from RAM-only");
        let stats = report.tier_stats.expect("tiered run must report tier stats");
        assert!(stats.demotions > 0, "{spec}: floor budget produced no demotions");
        // Everything demoted either landed in a tier, was deliberately
        // dropped, or died with the store — never silently vanished.
        assert!(
            stats.writebacks + stats.drops_cost + stats.drops_budget + stats.writeback_lost > 0,
            "{spec}: demotions without any writeback/drop accounting"
        );
        // The counters the report carries are the ones `--metrics-json`
        // exports; spot-check the injection.
        let json = report.metrics.to_json();
        assert!(json.contains("tier.demotions"), "{spec}: metrics missing tier counters");
    }
}

#[test]
fn tier_byte_budget_drops_instead_of_overflowing() {
    let (ds, s2p, batch) = setup();
    let cfg = tight_config(&ds, &batch);
    let (baseline, _) = run(&ds, &s2p, &batch, &cfg);
    // One byte of tier budget: every offer must be refused (a slot
    // payload never fits), and the run degrades to plain recomputation
    // with identical output.
    let tiers = phylo_amc::TierConfig::parse("compressed,disk").unwrap().with_budget(1);
    let tiered = EpaConfig { tiers: Some(tiers), ..cfg.clone() };
    let (out, report) = run(&ds, &s2p, &batch, &tiered);
    assert_eq!(baseline, out, "budget-starved tiered run changed the output");
    let stats = report.tier_stats.unwrap();
    assert!(stats.drops_budget > 0, "budget of 1 byte must drop demotions");
    assert_eq!(stats.writebacks, 0, "nothing can land under a 1-byte budget");
    assert_eq!(stats.reloads, 0, "nothing landed, so nothing can reload");
}

#[test]
fn disk_tier_honors_an_explicit_directory() {
    let (ds, s2p, batch) = setup();
    let cfg = tight_config(&ds, &batch);
    let (baseline, _) = run(&ds, &s2p, &batch, &cfg);
    let dir = std::env::temp_dir().join(format!("phyloplace-tiertest-{}", std::process::id()));
    // Pre-existing directory: the store must use it without claiming
    // ownership, so it survives the run (only the arena file goes).
    std::fs::create_dir_all(&dir).unwrap();
    let tiers = phylo_amc::TierConfig::parse("disk").unwrap().with_dir(dir.clone());
    let tiered = EpaConfig { tiers: Some(tiers), ..cfg.clone() };
    let (out, report) = run(&ds, &s2p, &batch, &tiered);
    assert_eq!(baseline, out, "disk-tier run changed the output");
    let stats = report.tier_stats.unwrap();
    assert!(stats.demotions > 0);
    // The store removes its arena file on drop but leaves the caller's
    // directory in place.
    assert!(dir.is_dir(), "explicit tier dir must survive the run");
    let leftovers = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(leftovers, 0, "tier arena file must be cleaned up on drop");
    std::fs::remove_dir_all(&dir).ok();
}

/// Reads `"name": value` out of a `--metrics-json` document.
fn json_number(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let at = json.find(&key).unwrap_or_else(|| panic!("{name} missing from {json}")) + key.len();
    json[at..].split(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
}

/// The run summary counts a slot miss answered by a tier reload as a
/// reload, not as a CLV computation: computations + reloads == misses.
#[test]
fn summary_counts_tier_reloads_apart_from_computations() {
    let (ds, _, _) = setup();
    let dir = std::env::temp_dir().join(format!("phyloplace-summary-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json");
    let opts = phyloplace::cli::CliOptions {
        tree_text: phyloplace::tree::newick::write(&ds.tree),
        ref_fasta: phyloplace::seq::fasta::to_string(ds.reference.rows(), 70),
        query_fasta: phyloplace::seq::fasta::to_string(&ds.queries, 70),
        alphabet: ds.spec.alphabet,
        maxmem_mib: Some(0.3),
        no_lookup: true,
        chunk_size: 7,
        metrics_json: Some(metrics.to_str().unwrap().to_string()),
        tiers: Some(phylo_amc::TierConfig::parse("compressed").unwrap()),
        ..Default::default()
    };
    let out = phyloplace::cli::run_placement(&opts).unwrap();
    let json = std::fs::read_to_string(&metrics).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    // "... lookup off, C CLV computations, R tier reloads)"
    let number_before = |label: &str| -> u64 {
        let head = &out.summary[..out
            .summary
            .find(label)
            .unwrap_or_else(|| panic!("summary lacks {label:?}: {}", out.summary))];
        head.trim_end().rsplit(' ').next().unwrap().parse().unwrap()
    };
    let computed = number_before(" CLV computations");
    let reloads = number_before(" tier reloads");
    let misses = json_number(&json, "slot.misses");
    assert_eq!(reloads, json_number(&json, "tier.reloads"), "{}", out.summary);
    assert!(reloads > 0, "the tight budget must reload demoted CLVs: {}", out.summary);
    assert_eq!(computed + reloads, misses, "{}", out.summary);
}

/// `tier.<name>.entries` and `tier.<name>.bytes` report what
/// `TieredStore::occupancy` holds, each under its own name.
#[test]
fn tier_occupancy_gauges_are_not_swapped() {
    let (ds, s2p, batch) = setup();
    let cfg = tight_config(&ds, &batch);
    let tiers = phylo_amc::TierConfig::parse("compressed").unwrap();
    let (_, report) = run(&ds, &s2p, &batch, &EpaConfig { tiers: Some(tiers), ..cfg });
    let stats = report.tier_stats.unwrap();
    let entries = report.metrics.gauges["tier.compressed.entries"];
    let bytes = report.metrics.gauges["tier.compressed.bytes"];
    assert!(entries > 0, "the floor run must leave demoted CLVs in the tier");
    assert!(
        entries as u64 <= stats.writebacks,
        "{entries} entries from {} writebacks",
        stats.writebacks
    );
    // A stored CLV is at least one f64 of compressed payload.
    assert!(bytes >= 8 * entries, "{bytes} bytes for {entries} entries");
}
