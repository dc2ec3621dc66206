//! Scoring and branch prefetch run as tasks on the placer's persistent
//! pool: a floor-budget run over hundreds of one-branch blocks starts at
//! most `threads - 1` OS threads (the pool's workers), all of them on the
//! first scoring call, while the pool serves at least one job per block.
//!
//! Thread creation is read off the PID namespace's last allocated id
//! (`/proc/sys/kernel/ns_last_pid`), which every new thread of every
//! process in the namespace advances. This binary holds exactly one test
//! so no concurrent test thread moves it; an unrelated process spawning
//! during a measurement is absorbed by retrying with a fresh placer.

use epa_place::{memplan, EpaConfig, Placer, QueryBatch, RunControl};
use phylo_engine::ReferenceContext;
use phylo_models::{dna, DiscreteGamma, SubstModel};
use phylo_seq::alphabet::AlphabetKind;
use phylo_seq::{compress, Msa, Sequence};
use phylo_tree::{generate, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LEAVES: usize = 80;
const SITES: usize = 40;
const QUERIES: usize = 8;
const THREADS: usize = 2;

fn setup() -> (ReferenceContext, Vec<u32>, QueryBatch) {
    let mut rng = StdRng::seed_from_u64(21);
    let tree = generate::yule(LEAVES, 0.1, &mut rng).unwrap();
    let rows: Vec<Sequence> = (0..LEAVES)
        .map(|i| {
            let text: String =
                (0..SITES).map(|_| "ACGT".as_bytes()[rng.gen_range(0..4usize)] as char).collect();
            Sequence::from_text(tree.taxon(NodeId(i as u32)), AlphabetKind::Dna, &text).unwrap()
        })
        .collect();
    let msa = Msa::new(rows).unwrap();
    let queries: Vec<Sequence> = (0..QUERIES)
        .map(|i| {
            let src = msa.row(rng.gen_range(0..LEAVES)).codes().to_vec();
            let codes: Vec<u8> = src
                .iter()
                .map(|&c| if rng.gen_bool(0.1) { rng.gen_range(0..4) } else { c })
                .collect();
            Sequence::from_codes(format!("q{i}"), AlphabetKind::Dna, codes).unwrap()
        })
        .collect();
    let patterns = compress(&msa).unwrap();
    let model = SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap();
    let ctx = ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap();
    (ctx, patterns.site_to_pattern().to_vec(), QueryBatch::new(&queries, SITES).unwrap())
}

/// The last process/thread id allocated in this PID namespace, when the
/// kernel exposes it.
fn last_pid() -> Option<u64> {
    std::fs::read_to_string("/proc/sys/kernel/ns_last_pid").ok()?.trim().parse().ok()
}

/// OS threads (and processes) created in the namespace while `f` ran.
fn threads_created<R>(f: impl FnOnce() -> R) -> (Option<u64>, R) {
    let before = last_pid();
    let r = f();
    (last_pid().zip(before).map(|(after, before)| after.wrapping_sub(before)), r)
}

#[test]
fn floor_run_scores_on_the_pool_without_spawning_per_block() {
    let (probe, _, batch) = setup();
    let base = EpaConfig { chunk_size: 4, threads: THREADS, ..Default::default() };
    let budget = memplan::floor_budget(&probe, &base, batch.len(), batch.n_sites());
    let cfg = EpaConfig { max_memory: Some(budget), ..base };
    drop(probe);

    let mut observed = Vec::new();
    for _attempt in 0..3 {
        let (ctx, s2p, _) = setup();
        let (setup_spawns, placer) = threads_created(|| {
            let placer = Placer::new(ctx, s2p, cfg.clone()).unwrap();
            drop(placer.warm_up().unwrap());
            placer
        });
        let plan = placer.memory_plan(&batch).unwrap();
        assert!(!plan.use_lookup, "the floor budget leaves no room for the lookup table");
        let blocks = memplan::effective_block_size(placer.ctx(), &cfg, plan.slots).unwrap();
        assert!(blocks.async_prefetch, "the floor keeps room for one prefetched block");
        let n_chunks = batch.len().div_ceil(plan.chunk_size);
        let n_blocks = n_chunks * placer.ctx().tree().n_edges().div_ceil(blocks.block_size);
        assert!(n_blocks >= 100, "only {n_blocks} branch blocks");

        let (run_spawns, outcome) =
            threads_created(|| placer.place_run(&batch, RunControl::default()).unwrap());
        assert!(outcome.completed);
        let m = &outcome.report.metrics;
        let workers = m.gauges["place.pool.workers"];
        assert!(workers < THREADS as i64, "{workers} pool workers");
        assert!(
            m.counter("place.pool.jobs") >= n_blocks as u64,
            "{} pool jobs for {n_blocks} branch blocks",
            m.counter("place.pool.jobs")
        );
        assert_eq!(placer.pool_stats().workers as i64, workers);

        match (setup_spawns, run_spawns) {
            (Some(0), Some(n)) if n <= workers as u64 => return,
            (None, _) | (_, None) => {
                eprintln!("ns_last_pid unreadable: checked the pool counters only");
                return;
            }
            (Some(s), Some(n)) => observed.push((s, n)),
        }
    }
    panic!(
        "threads created (set-up, run) per attempt: {observed:?}; \
         set-up must start none and a run at most {} (the pool's workers)",
        THREADS - 1
    );
}
