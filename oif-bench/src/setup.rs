//! Set-up from input text to a warm placer, one public call per step and
//! one span per step: the same pipeline `phyloplace place` and
//! `WarmEngine::build` run (+F empirical DNA frequencies with unit GTR
//! rates, the synthetic AA matrix for protein, Γ4 with α = 1). Any drift
//! from it shows up as output that differs from the cold reference.

use crate::ledger::Tracer;
use crate::workload::{Inputs, Point, Workload};
use phyloplace::engine::ReferenceContext;
use phyloplace::models::gamma::GammaMode;
use phyloplace::models::{aa, dna, DiscreteGamma, SubstModel};
use phyloplace::place::{memplan, EpaConfig, Placer, WarmStore};
use phyloplace::seq::alphabet::AlphabetKind;
use phyloplace::seq::{compress, fasta, Msa, Sequence};
use phyloplace::tree::Tree;
use std::time::Instant;

/// Set-up step names, in order; each is a span and a `setup.*` metric.
pub const STEPS: [&str; 5] = ["parse", "compress", "model", "context", "warm"];

/// A placer ready to score, plus what set-up measured.
pub struct Built {
    pub placer: Placer,
    pub warm: WarmStore,
    pub tree: Tree,
    pub queries: Vec<Sequence>,
    pub n_sites: usize,
    /// Seconds per step of [`STEPS`].
    pub step_s: [f64; 5],
    /// Wall seconds of the whole set-up.
    pub total_s: f64,
    /// CPU seconds of the whole set-up (it runs on the calling thread).
    pub cpu_s: f64,
}

/// Runs set-up once. `threads` overrides the workload's thread count
/// (the traced run builds a 1-thread placer too).
pub fn build(
    w: &Workload,
    inputs: &Inputs,
    threads: usize,
    tracer: &mut Tracer,
    req: u64,
) -> Result<Built, String> {
    let t_setup = Instant::now();
    let cpu0 = crate::ledger::thread_cpu_s();
    let root = tracer.open("setup", req, None);
    let mut step_s = [0.0; 5];
    let open = |tracer: &mut Tracer, i: usize| (tracer.open(STEPS[i], req, root), Instant::now());
    let mut step = |tracer: &mut Tracer, i: usize, (span, t): (Option<usize>, Instant)| {
        step_s[i] = t.elapsed().as_secs_f64();
        tracer.end(span);
    };

    let t = open(tracer, 0);
    let tree = phyloplace::tree::newick::parse(&inputs.tree).map_err(|e| format!("tree: {e}"))?;
    let rows = fasta::parse(&inputs.reference, inputs.alphabet).map_err(|e| format!("ref: {e}"))?;
    let msa = Msa::new(rows).map_err(|e| format!("ref: {e}"))?;
    let queries = fasta::parse(&inputs.all_queries(), inputs.alphabet)
        .map_err(|e| format!("queries: {e}"))?;
    step(tracer, 0, t);

    let t = open(tracer, 1);
    let patterns = compress(&msa).map_err(|e| format!("compress: {e}"))?;
    step(tracer, 1, t);

    let t = open(tracer, 2);
    let gamma = DiscreteGamma::new(1.0, 4, GammaMode::Mean).map_err(|e| format!("gamma: {e}"))?;
    let alphabet = inputs.alphabet.alphabet();
    let model = match inputs.alphabet {
        AlphabetKind::Dna => {
            let f = dna::empirical_freqs(alphabet, msa.rows().iter().map(|r| r.codes()));
            let gtr = dna::gtr(&[1.0; 6], &[f[0], f[1], f[2], f[3]]).map_err(|e| e.to_string())?;
            SubstModel::new(&gtr, gamma).map_err(|e| format!("model: {e}"))?
        }
        AlphabetKind::Protein => {
            let m = aa::synthetic_aa(0).map_err(|e| e.to_string())?;
            SubstModel::new(&m, gamma).map_err(|e| format!("model: {e}"))?
        }
    };
    step(tracer, 2, t);

    let t = open(tracer, 3);
    let ctx = ReferenceContext::new(tree.clone(), model, alphabet, &patterns)
        .map_err(|e| format!("context: {e}"))?;
    let mut cfg = EpaConfig { chunk_size: w.chunk, threads, ..Default::default() };
    let (n, sites) = (queries.len(), msa.n_sites());
    cfg.max_memory = match w.point {
        Point::Floor => Some(memplan::floor_budget(&ctx, &cfg, n, sites)),
        Point::LookupFloor => Some(memplan::lookup_floor_budget(&ctx, &cfg, n, sites)),
        Point::Unbounded => None,
    };
    let placer = Placer::new(ctx, patterns.site_to_pattern().to_vec(), cfg)
        .map_err(|e| format!("placer: {e}"))?;
    step(tracer, 3, t);

    let t = open(tracer, 4);
    let warm = placer.warm_up().map_err(|e| format!("warm-up: {e}"))?;
    step(tracer, 4, t);

    let total_s = t_setup.elapsed().as_secs_f64();
    let cpu_s = crate::ledger::thread_cpu_s() - cpu0;
    tracer.end(root);
    Ok(Built { placer, warm, tree, queries, n_sites: msa.n_sites(), step_s, total_s, cpu_s })
}
