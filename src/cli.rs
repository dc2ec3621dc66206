//! The `phyloplace` command-line pipeline: files in, `jplace` out.
//!
//! This is the shape in which EPA-NG is actually consumed: a reference
//! tree (Newick), a reference alignment (FASTA), and aligned query
//! sequences (FASTA), producing placements in the `jplace` interchange
//! format — here with the paper's `--maxmem` memory management surface.

use crate::place::result::to_jplace_with;
use crate::place::run::{HeartbeatEvent, HeartbeatFn, RunControl};
use crate::place::{memplan, EpaConfig, Placer, PreplacementMode, QueryBatch};
use phylo_amc::CancelToken;
use phylo_engine::ReferenceContext;
use phylo_journal::{fnv1a64, JournalError, Manifest, RunJournal, MANIFEST_FORMAT};
use phylo_models::gamma::GammaMode;
use phylo_models::{aa, dna, DiscreteGamma, SubstModel};
use phylo_seq::alphabet::AlphabetKind;
use phylo_seq::{compress, fasta, Msa};

/// A pipeline failure, typed by who is at fault so the binary can keep
/// its exit-code contract: bad input (malformed files, a checkpoint
/// manifest that no longer matches the run) exits 2, runtime failures
/// (I/O, placement internals) exit 1.
#[derive(Debug)]
pub enum CliError {
    /// The inputs or flags are wrong; retrying without changing them
    /// cannot succeed. Exit 2.
    BadInput(String),
    /// The environment failed the run (I/O, internal error). Exit 1.
    Runtime(String),
}

impl CliError {
    /// The process exit status this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::BadInput(_) => 2,
            CliError::Runtime(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::BadInput(msg) | CliError::Runtime(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Classifies a journal-session error: I/O is the environment's fault,
/// everything else (missing/mismatched/unparseable manifest, bad frame)
/// means the user pointed the run at the wrong checkpoint.
fn journal_error(context: &str, e: JournalError) -> CliError {
    match e {
        JournalError::Io { .. } => CliError::Runtime(format!("{context}: {e}")),
        _ => CliError::BadInput(format!("{context}: {e}")),
    }
}

/// Parsed command-line options for `phyloplace place`.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Newick reference tree text.
    pub tree_text: String,
    /// FASTA reference alignment text.
    pub ref_fasta: String,
    /// FASTA aligned query text.
    pub query_fasta: String,
    /// Alphabet (DNA default; `--aa` switches).
    pub alphabet: AlphabetKind,
    /// Memory budget in MiB (`None` = unlimited; `Some(0)` = autodetect).
    pub maxmem_mib: Option<f64>,
    /// Γ shape (4 categories); `None` = rate-homogeneous.
    pub gamma_alpha: Option<f64>,
    /// Queries per chunk.
    pub chunk_size: usize,
    /// Worker threads.
    pub threads: usize,
    /// Kernel tier request (`--kernel-tier auto|reference|fixed|simd`).
    pub kernel_tier: phylo_kernel::TierChoice,
    /// Replacement strategy for the CLV slot cache
    /// (`--strategy cost|lru|mru|fifo|random|cost-lru`; the paper's
    /// cost-based heuristic is the default).
    pub strategy: phylo_amc::StrategyKind,
    /// Never build the preplacement lookup table (`--no-lookup`) —
    /// exposes the slow recompute path for eviction-policy ablation and
    /// trace capture under real slot pressure.
    pub no_lookup: bool,
    /// Write the run's slot-access trace (for `phyloplace replay`) to
    /// this path.
    pub slot_trace: Option<String>,
    /// Write the run's metrics snapshot as JSON to this path.
    pub metrics_json: Option<String>,
    /// Record phase spans and write a Chrome-trace JSON to this path.
    pub trace_path: Option<String>,
    /// Start a fresh checkpoint journal in this directory.
    pub checkpoint_dir: Option<String>,
    /// Resume from the checkpoint journal in this directory (and keep
    /// journaling into it).
    pub resume_dir: Option<String>,
    /// Cancel the run after this many wall-clock seconds and emit the
    /// completed prefix as a partial result.
    pub deadline_secs: Option<f64>,
    /// Emit `HB` progress lines on stdout (one at run start, one per
    /// durable chunk) for a supervising `phyloplace shard` coordinator.
    /// Requires `--out` (the jplace must not share the channel).
    pub heartbeat: bool,
    /// Demotion storage tiers for evicted CLVs, assembled from
    /// `--storage-tiers` / `--tier-dir` / `--tier-budget`. `None` keeps
    /// the paper's pure recompute-on-miss AMC.
    pub tiers: Option<phylo_amc::tier::TierConfig>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            tree_text: String::new(),
            ref_fasta: String::new(),
            query_fasta: String::new(),
            alphabet: AlphabetKind::Dna,
            maxmem_mib: None,
            gamma_alpha: Some(1.0),
            chunk_size: 5000,
            threads: 1,
            kernel_tier: phylo_kernel::TierChoice::Auto,
            strategy: phylo_amc::StrategyKind::CostBased,
            no_lookup: false,
            slot_trace: None,
            metrics_json: None,
            trace_path: None,
            checkpoint_dir: None,
            resume_dir: None,
            deadline_secs: None,
            heartbeat: false,
            tiers: None,
        }
    }
}

/// What one pipeline invocation produced.
#[derive(Debug)]
pub struct RunOutput {
    /// The `jplace` document (the durable prefix when interrupted).
    pub jplace: String,
    /// Human-readable one-line run summary.
    pub summary: String,
    /// False when the run was cancelled (signal or `--deadline`) before
    /// placing every query; the caller should exit with status 3.
    pub completed: bool,
}

/// Parses a `--maxmem` value into MiB. Accepts a bare number (MiB, the
/// historical unit), a binary-unit suffix (`512M`, `2G`, `0.5G`,
/// `1024K`, `1T`, optionally with a trailing `B`/`iB` as in `2GiB`),
/// or `auto` (returned as `0.0`, the autodetect sentinel). Rejects
/// non-positive, NaN, and infinite budgets — a budget of zero bytes is
/// never what the user meant, and NaN would poison every comparison in
/// the memory planner.
pub fn parse_maxmem(s: &str) -> Result<f64, String> {
    parse_size("--maxmem", s)
}

/// The shared size-spec parser behind `--maxmem` and `--tier-budget`.
fn parse_size(flag: &str, s: &str) -> Result<f64, String> {
    let t = s.trim();
    if t.eq_ignore_ascii_case("auto") {
        return Ok(0.0);
    }
    let bad = |why: &str| format!("bad {flag} value {s:?}: {why}");
    let lower = t.to_ascii_lowercase();
    let core = lower.strip_suffix("ib").or_else(|| lower.strip_suffix('b')).unwrap_or(&lower);
    let (num, mult_mib) = if let Some(n) = core.strip_suffix('k') {
        (n, 1.0 / 1024.0)
    } else if let Some(n) = core.strip_suffix('m') {
        (n, 1.0)
    } else if let Some(n) = core.strip_suffix('g') {
        (n, 1024.0)
    } else if let Some(n) = core.strip_suffix('t') {
        (n, 1024.0 * 1024.0)
    } else {
        (core, 1.0)
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| bad("expected a number with optional K/M/G/T suffix, or `auto`"))?;
    if v.is_nan() {
        return Err(bad("NaN is not a budget"));
    }
    if !v.is_finite() {
        return Err(bad("must be finite"));
    }
    let mib = v * mult_mib;
    if mib <= 0.0 {
        return Err(bad("must be positive"));
    }
    Ok(mib)
}

/// Runs the full pipeline with an inert cancel token (never interrupted
/// unless `--deadline` fires).
pub fn run_placement(opts: &CliOptions) -> Result<RunOutput, CliError> {
    run_placement_with(opts, CancelToken::new())
}

/// Runs the full pipeline under an externally armed cancel token (the
/// binary wires SIGINT/SIGTERM to it) and returns the `jplace` document
/// plus a short human-readable run summary. A cancelled run is *not* an
/// error: the durable prefix comes back with `completed == false`.
pub fn run_placement_with(opts: &CliOptions, cancel: CancelToken) -> Result<RunOutput, CliError> {
    let bad = |msg: String| CliError::BadInput(msg);
    let tree = phylo_tree::newick::parse(&opts.tree_text)
        .map_err(|e| bad(format!("reference tree: {e}")))?;
    let ref_rows = fasta::parse(&opts.ref_fasta, opts.alphabet)
        .map_err(|e| bad(format!("reference alignment: {e}")))?;
    let msa = Msa::new(ref_rows).map_err(|e| bad(format!("reference alignment: {e}")))?;
    let queries =
        fasta::parse(&opts.query_fasta, opts.alphabet).map_err(|e| bad(format!("queries: {e}")))?;
    let patterns = compress(&msa).map_err(|e| bad(format!("compression: {e}")))?;

    // Model: +F empirical frequencies over the reference, Γ4 if requested.
    let gamma = match opts.gamma_alpha {
        Some(alpha) => {
            DiscreteGamma::new(alpha, 4, GammaMode::Mean).map_err(|e| bad(format!("gamma: {e}")))?
        }
        None => DiscreteGamma::none(),
    };
    let alphabet = opts.alphabet.alphabet();
    let model = match opts.alphabet {
        AlphabetKind::Dna => {
            let f = dna::empirical_freqs(alphabet, msa.rows().iter().map(|r| r.codes()));
            let freqs: [f64; 4] = [f[0], f[1], f[2], f[3]];
            SubstModel::new(
                &dna::gtr(&[1.0; 6], &freqs).map_err(|e| bad(format!("model: {e}")))?,
                gamma,
            )
            .map_err(|e| bad(format!("model: {e}")))?
        }
        AlphabetKind::Protein => {
            SubstModel::new(&aa::synthetic_aa(0).map_err(|e| bad(format!("model: {e}")))?, gamma)
                .map_err(|e| bad(format!("model: {e}")))?
        }
    };

    let ctx = ReferenceContext::new(tree.clone(), model, alphabet, &patterns)
        .map_err(|e| CliError::Runtime(format!("engine: {e}")))?;
    let max_memory = match opts.maxmem_mib {
        None => None,
        Some(mib) if mib <= 0.0 => memplan::detect_available_memory(),
        // Checked conversion: an unrepresentable budget (NaN leaking in
        // programmatically, or a size past the address space) is the
        // user's input problem, not a runtime failure.
        Some(mib) => {
            Some(phylo_amc::budget::mib_to_bytes(mib).map_err(|e| bad(format!("--maxmem: {e}")))?)
        }
    };
    let cfg = EpaConfig {
        max_memory,
        chunk_size: opts.chunk_size,
        threads: opts.threads,
        kernel_tier: opts.kernel_tier,
        strategy: opts.strategy,
        preplacement: if opts.no_lookup { PreplacementMode::Off } else { PreplacementMode::Auto },
        tiers: opts.tiers.clone(),
        ..Default::default()
    };
    let placer = Placer::new(ctx, patterns.site_to_pattern().to_vec(), cfg)
        .map_err(|e| bad(format!("config: {e}")))?;
    let batch =
        QueryBatch::new(&queries, msa.n_sites()).map_err(|e| bad(format!("queries: {e}")))?;

    // Checkpoint journal: the manifest fingerprints the input texts and
    // the *effective* chunk geometry (post-memory-plan), so `--resume`
    // refuses any run whose chunk boundaries or scoring would differ.
    let journal = match (&opts.checkpoint_dir, &opts.resume_dir) {
        (Some(_), Some(_)) => {
            return Err(bad("--checkpoint and --resume are mutually exclusive; \
                        --resume keeps journaling into its directory"
                .to_string()))
        }
        (None, None) => None,
        (ckpt, res) => {
            let plan = placer
                .memory_plan(&batch)
                .map_err(|e| CliError::Runtime(format!("memory planning: {e}")))?;
            let epa = placer.config();
            let manifest = Manifest {
                format: MANIFEST_FORMAT,
                tree_hash: fnv1a64(opts.tree_text.as_bytes()),
                ref_msa_hash: fnv1a64(opts.ref_fasta.as_bytes()),
                query_hash: fnv1a64(opts.query_fasta.as_bytes()),
                alphabet: match opts.alphabet {
                    AlphabetKind::Dna => "dna".to_string(),
                    AlphabetKind::Protein => "protein".to_string(),
                },
                gamma_alpha_bits: opts.gamma_alpha.map(f64::to_bits),
                chunk_size: plan.chunk_size,
                n_queries: batch.len(),
                thorough_fraction_bits: epa.thorough_fraction.to_bits(),
                thorough_min: epa.thorough_min,
                blo_iterations: epa.blo_iterations,
            };
            Some(match (ckpt, res) {
                (Some(dir), _) => RunJournal::create(std::path::Path::new(dir), &manifest)
                    .map_err(|e| journal_error("checkpoint", e))?,
                (_, Some(dir)) => RunJournal::resume(std::path::Path::new(dir), &manifest)
                    .map_err(|e| journal_error("resume", e))?,
                (None, None) => unreachable!(),
            })
        }
    };

    // Deadline watchdog: a detached poller arms the shared token once
    // the wall-clock budget is spent; the run then unwinds at its next
    // cancellation point. The thread dies with the process.
    if let Some(secs) = opts.deadline_secs {
        let cancel = cancel.clone();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(secs);
        std::thread::spawn(move || {
            while std::time::Instant::now() < deadline {
                if cancel.is_cancelled() {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            cancel.cancel();
        });
    }
    if (opts.metrics_json.is_some() || opts.trace_path.is_some()) && !phylo_obs::enabled() {
        // Slot-traffic and degradation counters are always collected, so
        // the metrics file is still useful — but kernel timings, wait
        // histograms, and trace spans need the compiled-in probes.
        eprintln!(
            "phyloplace: warning: built without the `obs` feature; \
             metrics are limited to slot counters and the trace will be empty"
        );
    }
    if opts.trace_path.is_some() {
        phylo_obs::trace::start();
    }
    let slot_trace = opts
        .slot_trace
        .as_ref()
        .map(|_| std::sync::Arc::new(phylo_obs::slottrace::SlotTrace::new()));
    // Heartbeats for a supervising coordinator: one line per durable
    // chunk on stdout (freed by --out). The three shard::* fault sites
    // let the chaos tests force, at an exact chunk boundary, a worker
    // that hangs, goes silent, or dies right after its durable append.
    let heartbeat: Option<HeartbeatFn> = opts.heartbeat.then(|| {
        Box::new(|ev: HeartbeatEvent| {
            if phylo_faults::fire("shard::worker_hang") {
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(60));
                }
            }
            if !phylo_faults::fire("shard::heartbeat_lost") {
                use std::io::Write;
                let mut out = std::io::stdout().lock();
                let hb = phylo_shard::Heartbeat {
                    chunks_done: ev.chunks_done,
                    n_chunks: ev.n_chunks,
                    queries_done: ev.queries_done,
                    n_queries: ev.n_queries,
                };
                // stdout is block-buffered on a pipe; an unflushed beat
                // is a beat the supervisor never sees.
                let _ = writeln!(out, "{}", phylo_shard::format_heartbeat(&hb));
                let _ = out.flush();
            }
            if phylo_faults::fire("shard::worker_crash") {
                // The chunk is durable and the beat is out: the most
                // adversarial instant to die.
                std::process::abort();
            }
        }) as HeartbeatFn
    });
    let outcome = placer
        .place_run(
            &batch,
            RunControl { cancel, journal, slot_trace: slot_trace.clone(), heartbeat },
        )
        .map_err(|e| CliError::Runtime(format!("placement: {e}")))?;
    if let (Some(path), Some(trace)) = (&opts.slot_trace, &slot_trace) {
        // Crash-atomic like every other run artifact: a trace consumer
        // (phyloplace replay) must never see a torn file.
        phylo_journal::write_text_atomic(std::path::Path::new(path), &trace.snapshot().to_text())
            .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
    }
    if let Some(path) = &opts.trace_path {
        phylo_obs::trace::stop();
        let json = phylo_obs::trace::chrome_json(&phylo_obs::trace::drain());
        // Same crash-atomic helper as every other run artifact: a
        // consumer polling for the file must never see a torn JSON.
        phylo_journal::write_text_atomic(std::path::Path::new(path), &json)
            .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
    }
    let report = &outcome.report;
    if let Some(path) = &opts.metrics_json {
        phylo_journal::write_text_atomic(std::path::Path::new(path), &report.metrics.to_json())
            .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
    }
    let resumed = if report.resumed_chunks > 0 {
        format!(", {} chunks restored from checkpoint", report.resumed_chunks)
    } else {
        String::new()
    };
    let summary = if outcome.completed {
        // A slot miss is answered either by a tier reload or by a
        // Felsenstein computation; only the latter counts as computed.
        let reloads = report.tier_stats.map_or(0, |t| t.reloads);
        let reloaded =
            report.tier_stats.map(|t| format!(", {} tier reloads", t.reloads)).unwrap_or_default();
        format!(
            "placed {} queries on {} branches in {:.2}s (peak {:.1} MiB, {} CLV slots, lookup {}, {} CLV computations{reloaded}{})",
            report.n_queries,
            tree.n_edges(),
            report.total_time.as_secs_f64(),
            report.peak_memory as f64 / (1024.0 * 1024.0),
            report.slots,
            if report.used_lookup { "on" } else { "off" },
            report.slot_stats.misses.saturating_sub(reloads),
            resumed,
        )
    } else {
        format!(
            "interrupted: placed {} of {} queries in {:.2}s{}; every finished chunk is durable — \
             rerun with --resume to complete",
            outcome.queries_done,
            report.n_queries,
            report.total_time.as_secs_f64(),
            resumed,
        )
    };
    Ok(RunOutput {
        jplace: to_jplace_with(&tree, &outcome.results, outcome.completed),
        summary,
        completed: outcome.completed,
    })
}

/// Parses `phyloplace place` arguments. Returns `Err(usage)` on any
/// problem.
pub fn parse_cli(args: &[String]) -> Result<(CliOptions, Option<String>), String> {
    const USAGE: &str =
        "usage: phyloplace place --tree REF.nwk --ref-msa REF.fasta --queries Q.fasta \
  [--aa] [--maxmem SIZE[K|M|G|T] | --maxmem auto] [--gamma ALPHA | --no-gamma] \
  [--chunk N] [--threads N] [--kernel-tier auto|reference|fixed|simd] [--out OUT.jplace] \
  [--strategy cost|lru|mru|fifo|random|cost-lru] [--no-lookup] [--slot-trace TRACE.txt] \
  [--checkpoint DIR | --resume DIR] [--deadline SECS] [--heartbeat] \
  [--storage-tiers ram,compressed,disk] [--tier-dir DIR] [--tier-budget SIZE[K|M|G|T]] \
  [--metrics-json METRICS.json] [--trace TRACE.json]";
    let mut opts = CliOptions::default();
    let mut out: Option<String> = None;
    let mut tree_path = None;
    let mut ref_path = None;
    let mut query_path = None;
    let mut tier_spec: Option<String> = None;
    let mut tier_dir: Option<String> = None;
    let mut tier_budget: Option<String> = None;
    let mut it = args.iter();
    match it.next().map(|s| s.as_str()) {
        Some("place") => {}
        _ => return Err(USAGE.to_string()),
    }
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().cloned().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--tree" => tree_path = Some(value()?),
            "--ref-msa" => ref_path = Some(value()?),
            "--queries" => query_path = Some(value()?),
            "--out" => out = Some(value()?),
            "--aa" => opts.alphabet = AlphabetKind::Protein,
            "--maxmem" => {
                let v = value()?;
                opts.maxmem_mib = Some(parse_maxmem(&v).map_err(|e| format!("{e}\n{USAGE}"))?);
            }
            "--gamma" => {
                let v = value()?;
                opts.gamma_alpha =
                    Some(v.parse::<f64>().map_err(|_| format!("bad --gamma {v:?}\n{USAGE}"))?);
            }
            "--no-gamma" => opts.gamma_alpha = None,
            "--chunk" => {
                let v = value()?;
                opts.chunk_size = v.parse().map_err(|_| format!("bad --chunk {v:?}\n{USAGE}"))?;
            }
            "--threads" => {
                let v = value()?;
                opts.threads = v.parse().map_err(|_| format!("bad --threads {v:?}\n{USAGE}"))?;
            }
            "--kernel-tier" => {
                let v = value()?;
                opts.kernel_tier = phylo_kernel::TierChoice::parse(&v)
                    .ok_or_else(|| format!("bad --kernel-tier {v:?}\n{USAGE}"))?;
            }
            "--strategy" => {
                let v = value()?;
                opts.strategy = phylo_amc::StrategyKind::parse(&v).ok_or_else(|| {
                    format!(
                        "bad --strategy {v:?} (expected one of cost, lru, mru, fifo, \
                         random, cost-lru)\n{USAGE}"
                    )
                })?;
            }
            "--no-lookup" => opts.no_lookup = true,
            "--storage-tiers" => tier_spec = Some(value()?),
            "--tier-dir" => tier_dir = Some(value()?),
            "--tier-budget" => tier_budget = Some(value()?),
            "--slot-trace" => opts.slot_trace = Some(value()?),
            "--metrics-json" => opts.metrics_json = Some(value()?),
            "--trace" => opts.trace_path = Some(value()?),
            "--checkpoint" => opts.checkpoint_dir = Some(value()?),
            "--resume" => opts.resume_dir = Some(value()?),
            "--heartbeat" => opts.heartbeat = true,
            "--deadline" => {
                let v = value()?;
                let secs: f64 = v.parse().map_err(|_| format!("bad --deadline {v:?}\n{USAGE}"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(format!("bad --deadline {v:?}: must be >= 0\n{USAGE}"));
                }
                opts.deadline_secs = Some(secs);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if opts.heartbeat && out.is_none() {
        return Err(format!(
            "--heartbeat needs --out: heartbeat lines own stdout, the jplace needs a file\n{USAGE}"
        ));
    }
    match tier_spec {
        None => {
            if tier_dir.is_some() || tier_budget.is_some() {
                return Err(format!("--tier-dir/--tier-budget need --storage-tiers\n{USAGE}"));
            }
        }
        Some(spec) => {
            let mut cfg =
                phylo_amc::tier::TierConfig::parse(&spec).map_err(|e| format!("{e}\n{USAGE}"))?;
            if let Some(dir) = tier_dir {
                cfg = cfg.with_dir(std::path::PathBuf::from(dir));
            }
            if let Some(b) = tier_budget {
                if b.trim().eq_ignore_ascii_case("auto") {
                    return Err(format!("--tier-budget has no auto mode\n{USAGE}"));
                }
                let mib = parse_size("--tier-budget", &b).map_err(|e| format!("{e}\n{USAGE}"))?;
                let bytes = phylo_amc::budget::mib_to_bytes(mib)
                    .map_err(|e| format!("--tier-budget: {e}\n{USAGE}"))?;
                cfg = cfg.with_budget(bytes);
            }
            cfg.validate().map_err(|e| format!("{e}\n{USAGE}"))?;
            opts.tiers = Some(cfg);
        }
    }
    let tree_path = tree_path.ok_or_else(|| format!("--tree is required\n{USAGE}"))?;
    let ref_path = ref_path.ok_or_else(|| format!("--ref-msa is required\n{USAGE}"))?;
    let query_path = query_path.ok_or_else(|| format!("--queries is required\n{USAGE}"))?;
    opts.tree_text =
        std::fs::read_to_string(&tree_path).map_err(|e| format!("{tree_path}: {e}"))?;
    opts.ref_fasta = std::fs::read_to_string(&ref_path).map_err(|e| format!("{ref_path}: {e}"))?;
    opts.query_fasta =
        std::fs::read_to_string(&query_path).map_err(|e| format!("{query_path}: {e}"))?;
    Ok((opts, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_opts() -> CliOptions {
        CliOptions {
            tree_text: "((A:0.1,B:0.2):0.05,(C:0.15,D:0.1):0.05,E:0.3);".into(),
            ref_fasta:
                ">A\nACGTACGTAC\n>B\nACGTACGTCC\n>C\nACTTACGAAC\n>D\nACTTACGTAC\n>E\nGCTTACGTAA\n"
                    .into(),
            query_fasta: ">q1\nACGTACGTAC\n>q2\nACTTACG-AC\n".into(),
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_pipeline_from_text() {
        let out = run_placement(&demo_opts()).unwrap();
        assert!(out.jplace.contains("\"version\": 3"));
        assert!(out.jplace.contains("q1"));
        assert!(out.jplace.contains("q2"));
        assert!(out.jplace.contains("\"completed\": true"));
        assert!(out.completed);
        assert!(out.summary.contains("placed 2 queries"));
    }

    #[test]
    fn identical_query_places_on_own_pendant() {
        let jplace = run_placement(&demo_opts()).unwrap().jplace;
        // q1 == A's sequence; its best placement must be A's pendant edge.
        // Find A's edge number from the tree string: "A:0.1{N}".
        let tree_line = jplace.lines().find(|l| l.contains("\"tree\"")).unwrap();
        let a_pos = tree_line.find("A:").unwrap();
        let edge_num: u32 = tree_line[a_pos..]
            .split('{')
            .nth(1)
            .unwrap()
            .split('}')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        // q1's first (best) placement entry starts with that edge number.
        let q1_line = jplace.lines().find(|l| l.contains("q1")).unwrap();
        let first_field: u32 =
            q1_line.split("[[").nth(1).unwrap().split(',').next().unwrap().trim().parse().unwrap();
        assert_eq!(first_field, edge_num, "q1 should sit on A's pendant branch");
    }

    #[test]
    fn budgeted_run_matches_unlimited() {
        let unlimited = run_placement(&demo_opts()).unwrap().jplace;
        let mut opts = demo_opts();
        opts.maxmem_mib = Some(1.0);
        opts.chunk_size = 1;
        let budgeted = run_placement(&opts).unwrap().jplace;
        // Same best edges for both runs (compare the placement arrays).
        let pick = |s: &str| -> Vec<String> {
            s.lines().filter(|l| l.contains("\"p\"")).map(|l| l.to_string()).collect()
        };
        assert_eq!(pick(&unlimited).len(), pick(&budgeted).len());
    }

    #[test]
    fn aa_pipeline_works() {
        let opts = CliOptions {
            tree_text: "(P1:0.1,P2:0.2,(P3:0.1,P4:0.2):0.1);".into(),
            ref_fasta: ">P1\nMKVLAARNDC\n>P2\nMKVLAARNDW\n>P3\nMRVLAGRNDC\n>P4\nMRVLAGRNEC\n"
                .into(),
            query_fasta: ">qa\nMKVLAARNDC\n".into(),
            alphabet: AlphabetKind::Protein,
            ..Default::default()
        };
        let jplace = run_placement(&opts).unwrap().jplace;
        assert!(jplace.contains("qa"));
    }

    #[test]
    fn parse_maxmem_accepts_units_and_bare_mib() {
        assert_eq!(parse_maxmem("512"), Ok(512.0));
        assert_eq!(parse_maxmem("512M"), Ok(512.0));
        assert_eq!(parse_maxmem("512m"), Ok(512.0));
        assert_eq!(parse_maxmem("512MB"), Ok(512.0));
        assert_eq!(parse_maxmem("512MiB"), Ok(512.0));
        assert_eq!(parse_maxmem("2G"), Ok(2048.0));
        assert_eq!(parse_maxmem("0.5G"), Ok(512.0));
        assert_eq!(parse_maxmem("2GiB"), Ok(2048.0));
        assert_eq!(parse_maxmem("1024K"), Ok(1.0));
        assert_eq!(parse_maxmem("1T"), Ok(1024.0 * 1024.0));
        assert_eq!(parse_maxmem(" 64 "), Ok(64.0));
        assert_eq!(parse_maxmem("auto"), Ok(0.0));
        assert_eq!(parse_maxmem("AUTO"), Ok(0.0));
    }

    #[test]
    fn parse_maxmem_rejects_nonsense() {
        for bad in
            ["0", "-1", "-0.5G", "0K", "nan", "NaN", "inf", "-inf", "infG", "", "G", "B", "12Q"]
        {
            assert!(parse_maxmem(bad).is_err(), "{bad:?} should be rejected");
        }
        // The message names the offending value and stays actionable.
        let msg = parse_maxmem("-2G").unwrap_err();
        assert!(msg.contains("-2G") && msg.contains("positive"), "{msg}");
        let msg = parse_maxmem("nan").unwrap_err();
        assert!(msg.contains("NaN"), "{msg}");
    }

    #[test]
    fn parse_cli_accepts_lifecycle_flags() {
        let dir = std::env::temp_dir().join(format!("phyloplace-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tree = dir.join("t.nwk");
        let msa = dir.join("r.fasta");
        let q = dir.join("q.fasta");
        std::fs::write(&tree, "(A:0.1,B:0.2,C:0.3);").unwrap();
        std::fs::write(&msa, ">A\nACGT\n>B\nACGA\n>C\nACTA\n").unwrap();
        std::fs::write(&q, ">x\nACGT\n").unwrap();
        let base = |extra: &[&str]| -> Vec<String> {
            let mut v: Vec<String> = vec![
                "place".into(),
                "--tree".into(),
                tree.to_str().unwrap().into(),
                "--ref-msa".into(),
                msa.to_str().unwrap().into(),
                "--queries".into(),
                q.to_str().unwrap().into(),
            ];
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        let (opts, _) =
            parse_cli(&base(&["--checkpoint", "ck", "--deadline", "1.5", "--maxmem", "2G"]))
                .unwrap();
        assert_eq!(opts.checkpoint_dir.as_deref(), Some("ck"));
        assert_eq!(opts.deadline_secs, Some(1.5));
        assert_eq!(opts.maxmem_mib, Some(2048.0));
        let (opts, _) = parse_cli(&base(&["--resume", "ck"])).unwrap();
        assert_eq!(opts.resume_dir.as_deref(), Some("ck"));
        assert!(parse_cli(&base(&["--deadline", "-1"])).is_err());
        assert!(parse_cli(&base(&["--maxmem", "0"])).is_err());
        for (flag, want) in [
            ("auto", phylo_kernel::TierChoice::Auto),
            ("reference", phylo_kernel::TierChoice::Reference),
            ("fixed", phylo_kernel::TierChoice::Fixed),
            ("simd", phylo_kernel::TierChoice::Simd),
        ] {
            let (opts, _) = parse_cli(&base(&["--kernel-tier", flag])).unwrap();
            assert_eq!(opts.kernel_tier, want);
        }
        assert!(parse_cli(&base(&["--kernel-tier", "avx9000"])).is_err());
        // Every strategy name round-trips through the flag.
        for kind in phylo_amc::StrategyKind::all() {
            let name = kind.to_string();
            let (opts, _) = parse_cli(&base(&["--strategy", &name])).unwrap();
            assert_eq!(opts.strategy, kind, "--strategy {name}");
        }
        assert!(parse_cli(&base(&["--strategy", "belady"])).is_err(), "oracle is replay-only");
        let (opts, _) = parse_cli(&base(&["--no-lookup"])).unwrap();
        assert!(opts.no_lookup);
        let (opts, _) = parse_cli(&base(&["--slot-trace", "trace.txt"])).unwrap();
        assert_eq!(opts.slot_trace.as_deref(), Some("trace.txt"));
        // Tiered CLV storage surface.
        let (opts, _) = parse_cli(&base(&[
            "--storage-tiers",
            "compressed,disk",
            "--tier-dir",
            "tdir",
            "--tier-budget",
            "64M",
        ]))
        .unwrap();
        let tiers = opts.tiers.expect("--storage-tiers must configure tiers");
        assert_eq!(tiers.kinds, vec![phylo_amc::TierKind::Compressed, phylo_amc::TierKind::Disk]);
        assert_eq!(tiers.dir.as_deref(), Some(std::path::Path::new("tdir")));
        assert_eq!(tiers.budget_bytes, Some(64 * 1024 * 1024));
        let (opts, _) = parse_cli(&base(&["--storage-tiers", "ram"])).unwrap();
        assert_eq!(opts.tiers.unwrap().kinds, vec![phylo_amc::TierKind::Ram]);
        // Rejects: unknown tier, dependent flags without the enabler,
        // a dir without a disk tier, and the autodetect sentinel.
        assert!(parse_cli(&base(&["--storage-tiers", "tape"])).is_err());
        assert!(parse_cli(&base(&["--tier-dir", "tdir"])).is_err());
        assert!(parse_cli(&base(&["--tier-budget", "64M"])).is_err());
        assert!(parse_cli(&base(&["--storage-tiers", "ram", "--tier-dir", "tdir"])).is_err());
        assert!(parse_cli(&base(&["--storage-tiers", "disk", "--tier-budget", "auto"])).is_err());
        assert!(parse_cli(&base(&["--storage-tiers", "disk", "--tier-budget", "0"])).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_cli_rejects_garbage() {
        let args: Vec<String> = vec!["place".into(), "--bogus".into()];
        assert!(parse_cli(&args).is_err());
        let args: Vec<String> = vec!["place".into()];
        assert!(parse_cli(&args).unwrap_err().contains("--tree is required"));
        let args: Vec<String> = vec!["somethingelse".into()];
        assert!(parse_cli(&args).is_err());
    }

    #[test]
    fn bad_inputs_are_reported() {
        let mut opts = demo_opts();
        opts.tree_text = "not a tree".into();
        let err = run_placement(&opts).unwrap_err();
        assert!(err.to_string().contains("reference tree"));
        assert_eq!(err.exit_code(), 2, "malformed input is the user's fault");
        let mut opts = demo_opts();
        opts.query_fasta = ">q\nACGT\n".into(); // wrong length
        assert!(run_placement(&opts).unwrap_err().to_string().contains("queries"));
        let mut opts = demo_opts();
        opts.ref_fasta = ">A\nACGT\n".into(); // missing taxa
        assert!(run_placement(&opts).is_err());
    }

    #[test]
    fn checkpoint_mismatch_is_bad_input() {
        let dir = std::env::temp_dir().join(format!("phyloplace-mismatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = demo_opts();
        opts.checkpoint_dir = Some(dir.to_str().unwrap().to_string());
        run_placement(&opts).unwrap();
        // Resuming with different queries must refuse with exit code 2.
        let mut opts = demo_opts();
        opts.resume_dir = Some(dir.to_str().unwrap().to_string());
        opts.query_fasta = ">other\nACGTACGTAC\n".into();
        let err = run_placement(&opts).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("resume"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_flag_requires_out() {
        let dir = std::env::temp_dir().join(format!("phyloplace-hb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tree = dir.join("t.nwk");
        std::fs::write(&tree, "(A:0.1,B:0.2,C:0.3);").unwrap();
        let msa = dir.join("r.fasta");
        std::fs::write(&msa, ">A\nACGT\n>B\nACGA\n>C\nACTA\n").unwrap();
        let q = dir.join("q.fasta");
        std::fs::write(&q, ">x\nACGT\n").unwrap();
        let mk = |extra: &[&str]| -> Vec<String> {
            let mut v: Vec<String> = vec![
                "place".into(),
                "--tree".into(),
                tree.to_str().unwrap().into(),
                "--ref-msa".into(),
                msa.to_str().unwrap().into(),
                "--queries".into(),
                q.to_str().unwrap().into(),
            ];
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        assert!(parse_cli(&mk(&["--heartbeat"])).unwrap_err().contains("--out"));
        let (opts, out) = parse_cli(&mk(&["--heartbeat", "--out", "o.jplace"])).unwrap();
        assert!(opts.heartbeat);
        assert_eq!(out.as_deref(), Some("o.jplace"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
