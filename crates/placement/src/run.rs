//! The placement orchestrator: chunks × branch blocks × pool tasks.

use crate::candidates::{group_by_branch_ranked, select_candidates};
use crate::config::EpaConfig;
use crate::error::PlaceError;
use crate::lookup::LookupTable;
use crate::memplan::{self, BlockPlan, MemoryPlan};
use crate::queries::{EncodedQuery, QueryBatch};
use crate::result::{DegradationStats, PlacementEntry, PlacementResult, RunReport};
use crate::score::{attachment_partials, score_thorough, BranchScoreTable, ScoreScratch};
use phylo_amc::CancelToken;
use phylo_engine::{ManagedStore, PreparedBlock, ReferenceContext};
use phylo_journal::{ChunkFrame, ChunkStats, PlacementRecord, QueryRecord, RunJournal};
use phylo_kernel::sitepar::{PoolStats, SiteParPool};
use phylo_tree::{DirEdgeId, EdgeId};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Atomic tallies for the degradation ladder; scoring and prefetch tasks
/// bump them concurrently, [`Placer::place`] snapshots them into
/// the run report.
#[derive(Default)]
struct DegradationCounters {
    prefetch_disabled: AtomicU64,
    block_clamped: AtomicU64,
    flush_retries: AtomicU64,
}

impl DegradationCounters {
    fn snapshot(&self) -> DegradationStats {
        DegradationStats {
            prefetch_disabled: self.prefetch_disabled.load(Ordering::Relaxed),
            block_clamped: self.block_clamped.load(Ordering::Relaxed),
            flush_retries: self.flush_retries.load(Ordering::Relaxed),
        }
    }
}

/// One progress beat of a run, handed to [`RunControl::heartbeat`] at
/// run start (once the chunk geometry is known) and after every chunk
/// boundary — freshly computed *or* restored from a resumed journal.
/// Chunk boundaries are the run's natural liveness granularity: every
/// beat corresponds to durable progress, so a supervisor that stops
/// seeing beats knows the worker is dead, hung, or starved — never
/// merely "between reporting intervals".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatEvent {
    /// Chunks finished so far (restored chunks count).
    pub chunks_done: usize,
    /// Total chunks this run will process.
    pub n_chunks: usize,
    /// Queries with final results so far.
    pub queries_done: usize,
    /// Total queries in the batch.
    pub n_queries: usize,
}

/// Chunk-boundary progress callback (see [`HeartbeatEvent`]).
pub type HeartbeatFn = Box<dyn Fn(HeartbeatEvent) + Send + Sync>;

/// Run-lifecycle hooks for [`Placer::place_run`]: cooperative
/// cancellation plus optional chunk-journal checkpointing. The default
/// is inert (never cancelled, no journal), which is exactly what
/// [`Placer::place`] runs under.
#[derive(Default)]
pub struct RunControl {
    /// Cooperative shutdown flag, polled at chunk boundaries and per
    /// Felsenstein op inside the engine. Arm it from a signal handler
    /// watchdog or a deadline timer; the run breaks with bounded
    /// latency, flushes nothing mid-chunk, and reports a partial
    /// outcome instead of an error.
    pub cancel: CancelToken,
    /// Durable chunk journal. Frames replayed by
    /// [`phylo_journal::RunJournal::resume`] are restored instead of
    /// recomputed; every freshly completed chunk is appended (durably)
    /// before the orchestrator advances to the next one.
    pub journal: Option<RunJournal>,
    /// Slot-access trace recorder (`--slot-trace`): armed on the slot
    /// manager before any CLV traffic, with the run's metadata (slot
    /// count, strategy, slot size, cost table) filled in. The caller
    /// snapshots it after the run for the offline replay lab
    /// (`phylo-replay`).
    pub slot_trace: Option<std::sync::Arc<phylo_obs::slottrace::SlotTrace>>,
    /// Progress heartbeat, invoked at run start and per chunk boundary
    /// (see [`HeartbeatEvent`]). The shard coordinator's workers pipe
    /// these beats to their supervisor for liveness and straggler
    /// detection; `None` costs nothing.
    pub heartbeat: Option<HeartbeatFn>,
}

/// What a crash-safe run produced: the placements for every finished
/// query, the run report, and how far the run got.
#[derive(Debug)]
pub struct PlaceOutcome {
    /// Per-query results in batch order, truncated to the completed
    /// chunk prefix when the run was cancelled.
    pub results: Vec<PlacementResult>,
    /// The run report ([`RunReport::resumed_chunks`] counts replayed
    /// frames; timings cover only the work this process did).
    pub report: RunReport,
    /// False when the run was cancelled before placing every query.
    pub completed: bool,
    /// Queries with final, durable results (`== n_queries` iff
    /// `completed`).
    pub queries_done: usize,
}

/// Reference-side engine state that outlives a single run: the CLV slot
/// arena (internally synchronized — `&self` end to end) and the
/// preplacement lookup table, built once by [`Placer::warm_up`] and
/// shared across every subsequent [`Placer::place_warm`] call. This is
/// the paper's "expensive to build, cheap to reuse" state made explicit:
/// a long-lived service pays the arena allocation and the lookup build
/// exactly once instead of per request.
pub struct WarmStore {
    store: ManagedStore,
    lookup: Option<LookupTable>,
    dfs_rank: Vec<u32>,
    chunk_size: usize,
    slots: usize,
    use_lookup: bool,
    peak_memory: usize,
}

impl WarmStore {
    /// Slots the warm arena holds.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Whether the preplacement lookup table was built.
    pub fn use_lookup(&self) -> bool {
        self.use_lookup
    }

    /// Cumulative slot traffic over every run served so far.
    pub fn slot_stats(&self) -> phylo_amc::SlotStats {
        self.store.stats()
    }
}

/// A configured placement engine over one reference.
pub struct Placer {
    ctx: ReferenceContext,
    site_to_pattern: Vec<u32>,
    cfg: EpaConfig,
    /// Workers for query scoring and branch-block prefetch, started on
    /// the first scoring call (so building a placer or a warm store
    /// starts no thread) and reused by every later run.
    pool: OnceLock<SiteParPool>,
}

impl Placer {
    /// Builds a placer. `site_to_pattern` is the site→pattern map of the
    /// compressed reference alignment
    /// ([`phylo_seq::PatternMsa::site_to_pattern`]).
    pub fn new(
        mut ctx: ReferenceContext,
        site_to_pattern: Vec<u32>,
        cfg: EpaConfig,
    ) -> Result<Self, PlaceError> {
        cfg.validate()?;
        // Pin the kernel tier before any store is built from the context
        // so every CLV and likelihood of the run uses one implementation
        // (`Auto` re-resolves env + CPU detection, a no-op override).
        ctx.set_kernel_tier(cfg.kernel_tier);
        Ok(Placer { ctx, site_to_pattern, cfg, pool: OnceLock::new() })
    }

    /// The scoring pool, sized from `cfg.threads` (clamped to the host's
    /// cores): `threads - 1` workers plus the calling thread.
    fn pool(&self) -> &SiteParPool {
        self.pool.get_or_init(|| SiteParPool::new(self.cfg.threads))
    }

    /// Scoring-pool counters; all zero before the first scoring call.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.get().map(SiteParPool::stats).unwrap_or_default()
    }

    /// The reference context.
    pub fn ctx(&self) -> &ReferenceContext {
        &self.ctx
    }

    /// The active configuration.
    pub fn config(&self) -> &EpaConfig {
        &self.cfg
    }

    /// The memory plan this placer would run under for a given batch.
    pub fn memory_plan(&self, batch: &QueryBatch) -> Result<MemoryPlan, PlaceError> {
        memplan::plan(&self.ctx, &self.cfg, batch.len(), batch.n_sites())
    }

    /// The degradation ladder ([`memplan::effective_block_size`]) with
    /// each rung that fired tallied into `deg` and marked on the trace.
    fn plan_block(&self, slots: usize, deg: &DegradationCounters) -> Result<BlockPlan, PlaceError> {
        let plan = memplan::effective_block_size(&self.ctx, &self.cfg, slots)?;
        if plan.prefetch_disabled {
            deg.prefetch_disabled.fetch_add(1, Ordering::Relaxed);
            phylo_obs::trace::mark("degrade.prefetch_disabled", "degrade");
        }
        if plan.block_clamped {
            deg.block_clamped.fetch_add(1, Ordering::Relaxed);
            phylo_obs::trace::mark("degrade.block_clamped", "degrade");
        }
        Ok(plan)
    }

    /// Places every query of the batch; returns per-query results (in
    /// batch order) and the run report. Equivalent to [`Placer::place_run`]
    /// under inert [`RunControl`] (never cancelled, no journal).
    pub fn place(
        &self,
        batch: &QueryBatch,
    ) -> Result<(Vec<PlacementResult>, RunReport), PlaceError> {
        let outcome = self.place_run(batch, RunControl::default())?;
        debug_assert!(outcome.completed, "an inert token can never cancel the run");
        Ok((outcome.results, outcome.report))
    }

    /// Places the batch under run-lifecycle control: chunks replayed from
    /// a resumed journal are restored instead of recomputed, every fresh
    /// chunk is journaled durably before the run advances, and a cancelled
    /// token turns into a clean partial [`PlaceOutcome`] (never an error)
    /// at the next chunk boundary — mid-chunk work is abandoned, so the
    /// journal only ever holds complete chunks.
    ///
    /// Determinism contract: finalization (candidate sorting + LWR) is a
    /// pure function of the per-chunk scores, the journal round-trips
    /// floats as exact bit patterns, and chunk boundaries are pinned by
    /// the manifest — so crash → resume produces output byte-identical to
    /// the uninterrupted run.
    pub fn place_run(
        &self,
        batch: &QueryBatch,
        mut control: RunControl,
    ) -> Result<PlaceOutcome, PlaceError> {
        let t_total = Instant::now();
        let ctx = &self.ctx;
        let cfg = &self.cfg;
        let plan = self.memory_plan(batch)?;
        let n_chunks = batch.len().div_ceil(plan.chunk_size.max(1));
        // Frames recovered by `RunJournal::resume`: a contiguous,
        // CRC-validated prefix `0..replayed_chunks`.
        let replayed = control.journal.as_mut().map(|j| j.take_replayed()).unwrap_or_default();
        let replayed_chunks = replayed.len().min(n_chunks);
        let cancel = control.cancel.clone();
        let heartbeat = control.heartbeat.take();
        let beat = |chunks_done: usize| {
            if let Some(hb) = &heartbeat {
                hb(HeartbeatEvent {
                    chunks_done,
                    n_chunks,
                    queries_done: (chunks_done * plan.chunk_size).min(batch.len()),
                    n_queries: batch.len(),
                });
            }
        };
        let mut report = RunReport {
            n_queries: batch.len(),
            used_lookup: plan.use_lookup,
            slots: plan.slots,
            peak_memory: plan.tracker.peak(),
            resumed_chunks: replayed_chunks,
            ..Default::default()
        };
        // Live probes are process-global and monotonic; the per-run view
        // in `report.metrics` is the delta against this baseline. The
        // slot and degradation counters are re-injected from their
        // authoritative per-run sources below, so those stay exact even
        // when concurrent runs share the registry.
        let obs_base = phylo_obs::snapshot();
        let pool_base = self.pool_stats();
        let mut store = ManagedStore::with_slots(ctx, plan.slots, cfg.strategy)?;
        store.set_compute_threads(cfg.sitepar_threads.max(1));
        if let Some(timeout) = cfg.slot_wait_timeout {
            store.set_wait_timeout(timeout);
        }
        // Cancellation reaches every layer from here on: the engine
        // polls per Felsenstein op, slot waits poll while blocked, and
        // the chunk loop below polls at chunk boundaries.
        store.set_cancel_token(&cancel);
        // Tiered CLV storage: evicted slot payloads demote to the
        // configured colder tiers instead of being dropped, and slot
        // misses probe the tiers before falling back to recomputation.
        // The shared tracker starts from the plan's accounting so the
        // compressed-tier / disk-tier rows sit next to the static rows
        // and `peak_memory` stays truthful under tier growth.
        let tier_tracker = cfg
            .tiers
            .as_ref()
            .map(|_| std::sync::Arc::new(std::sync::Mutex::new(plan.tracker.clone())));
        let tier_store = match &cfg.tiers {
            None => None,
            Some(tcfg) => {
                let tiers = phylo_amc::TieredStore::new(
                    tcfg,
                    ctx.tree().n_dir_edges(),
                    ctx.layout().clv_len(),
                    ctx.layout().patterns,
                    ctx.cost_table(),
                    tier_tracker.clone(),
                )
                .map_err(phylo_engine::EngineError::Amc)?;
                store.arena().set_tiers(std::sync::Arc::clone(&tiers));
                Some(tiers)
            }
        };
        // Arm the slot-access trace before the lookup build below — the
        // build already drives slot traffic that the run report counts,
        // and the replay contract is "trace == everything the counters
        // saw".
        if let Some(trace) = &control.slot_trace {
            trace.set_meta(phylo_obs::slottrace::TraceMeta {
                n_clvs: ctx.tree().n_dir_edges() as u32,
                n_slots: store.n_slots() as u32,
                strategy: cfg.strategy.to_string(),
                bytes_per_slot: phylo_amc::SlotArena::bytes_per_slot(
                    ctx.layout().clv_len(),
                    ctx.layout().patterns,
                ) as u64,
                // Always embedded (not only for cost-aware runs) so a
                // trace captured under any policy can replay the
                // cost-aware ones too.
                costs: ctx.cost_table(),
            });
            store.set_slot_trace(std::sync::Arc::clone(trace));
        }

        let store = store; // sharing starts here; the store is internally synchronized
                           // A fully-replayed run has nothing left to compute — skip the
                           // expensive lookup build so resuming after a crash between the
                           // final chunk and the output write is near-instant.
                           // Cancellation during the build (a pre-armed token, a signal
                           // landing this early) is a graceful empty run, not a failure:
                           // fall through with no table — the chunk loop below sees the
                           // cancelled token immediately and emits the partial outcome.
        let lookup = if plan.use_lookup && replayed_chunks < n_chunks && !cancel.is_cancelled() {
            let t = Instant::now();
            let span = phylo_obs::trace::span("preplacement.build", "phase");
            match LookupTable::build(ctx, &store, cfg) {
                Ok(table) => {
                    drop(span);
                    report.lookup_time = t.elapsed();
                    Some(table)
                }
                Err(e) if e.is_cancellation() => {
                    drop(span);
                    None
                }
                Err(e) => return Err(e),
            }
        } else {
            None
        };

        let branches = ctx.tree().n_edges();
        // Rank branches by DFS order once; thorough blocks follow it.
        let mut dfs_rank = vec![0u32; branches];
        for (i, e) in phylo_tree::traversal::edge_dfs_order(ctx.tree()).into_iter().enumerate() {
            dfs_rank[e.idx()] = i as u32;
        }
        let mut results: Vec<PlacementResult> = batch
            .queries()
            .iter()
            .map(|q| PlacementResult { name: q.name.clone(), placements: Vec::new() })
            .collect();
        let mut prescores = vec![0.0f64; plan.chunk_size * branches];
        let mut completed = true;
        let mut chunks_done = 0usize;

        // The run-start beat: tells a supervisor the chunk geometry and
        // that the (possibly expensive) setup phase is behind us.
        beat(0);
        for (chunk_idx, chunk) in batch.chunks(plan.chunk_size).enumerate() {
            let qoff = chunk_idx * plan.chunk_size;
            if chunk_idx < replayed_chunks {
                restore_chunk(&replayed[chunk_idx], chunk, qoff, &mut results, &mut report)?;
                chunks_done = chunk_idx + 1;
                beat(chunks_done);
                continue;
            }
            if cancel.is_cancelled() {
                completed = false;
                break;
            }
            let mat = &mut prescores[..chunk.len() * branches];
            match self.compute_chunk(
                &store,
                &lookup,
                &dfs_rank,
                chunk,
                chunk_idx,
                qoff,
                mat,
                branches,
                &mut results,
                &mut report,
            ) {
                Ok(stats) => {
                    if let Some(journal) = control.journal.as_mut() {
                        // Durable before advancing: once append returns,
                        // this chunk survives process death.
                        let span = phylo_obs::trace::span("checkpoint", "phase");
                        let frame = frame_of(chunk_idx, stats, &results[qoff..qoff + chunk.len()]);
                        journal.append(&frame)?;
                        drop(span);
                    }
                    chunks_done = chunk_idx + 1;
                    // Beat only after the chunk is durable: a supervisor
                    // may treat every reported chunk as safe to skip on
                    // resume.
                    beat(chunks_done);
                }
                // Cancellation surfacing through a worker/prefetch/slot
                // wait is a graceful break, not a failure: the chunk is
                // abandoned (not journaled, not counted) and the partial
                // prefix below is still valid.
                Err(e) if e.is_cancellation() => {
                    completed = false;
                    break;
                }
                Err(e) => return Err(e),
            }
            // Deterministic mid-run shutdown for the crash/resume test
            // matrix: cancels the token after chunk `chunk_idx` is
            // durable, exactly like a deadline firing at this boundary.
            if phylo_faults::fire("place::cancel_after_chunk") {
                cancel.cancel();
            }
        }

        let queries_done =
            if completed { batch.len() } else { (chunks_done * plan.chunk_size).min(batch.len()) };
        if !completed {
            // Queries past the last completed chunk may hold partial
            // placements from the abandoned chunk; drop them so the
            // outcome is exactly the durable prefix.
            results.truncate(queries_done);
            phylo_obs::counter("place.cancelled_runs").inc();
        }
        for r in &mut results {
            r.finalize();
        }
        report.slot_stats = store.stats();
        if let Some(tiers) = &tier_store {
            // Settle in-flight writebacks so the stats and the tracker
            // rows describe the run's final tier state, not a snapshot
            // racing the writeback worker.
            tiers.drain();
            report.tier_stats = Some(tiers.stats());
        }
        if let Some(tracker) = &tier_tracker {
            let peak = tracker.lock().unwrap_or_else(|e| e.into_inner()).peak();
            report.peak_memory = report.peak_memory.max(peak);
        }
        report.total_time = t_total.elapsed();
        report.metrics = run_metrics(
            &report,
            &obs_base,
            ctx.layout().tier(),
            store.sitepar_stats(),
            self.pool_stats().delta(&pool_base),
            tier_store.as_deref(),
        );
        Ok(PlaceOutcome { results, report, completed, queries_done })
    }

    /// Builds the reusable warm state for service mode: the slot arena
    /// sized by the memory plan (at the configured chunk size) and the
    /// preplacement lookup table. One call amortizes over arbitrarily
    /// many [`Placer::place_warm`] runs.
    ///
    /// Tiered CLV storage is a batch-mode feature (its writeback worker
    /// and disk arena are scoped to one run); a config that asks for
    /// both is refused rather than silently ignored.
    pub fn warm_up(&self) -> Result<WarmStore, PlaceError> {
        if self.cfg.tiers.is_some() {
            return Err(PlaceError::BadConfig(
                "tiered CLV storage is not supported for warm (service-mode) stores".into(),
            ));
        }
        let ctx = &self.ctx;
        let cfg = &self.cfg;
        let n_sites = self.site_to_pattern.len();
        // Plan for a full chunk of queries: the per-request batches the
        // service runs are at most one chunk's worth each anyway.
        let plan = memplan::plan(ctx, cfg, cfg.chunk_size, n_sites)?;
        let mut store = ManagedStore::with_slots(ctx, plan.slots, cfg.strategy)?;
        store.set_compute_threads(cfg.sitepar_threads.max(1));
        if let Some(timeout) = cfg.slot_wait_timeout {
            store.set_wait_timeout(timeout);
        }
        let lookup =
            if plan.use_lookup { Some(LookupTable::build(ctx, &store, cfg)?) } else { None };
        let branches = ctx.tree().n_edges();
        let mut dfs_rank = vec![0u32; branches];
        for (i, e) in phylo_tree::traversal::edge_dfs_order(ctx.tree()).into_iter().enumerate() {
            dfs_rank[e.idx()] = i as u32;
        }
        Ok(WarmStore {
            store,
            lookup,
            dfs_rank,
            chunk_size: plan.chunk_size,
            slots: plan.slots,
            use_lookup: plan.use_lookup,
            peak_memory: plan.tracker.peak(),
        })
    }

    /// Places one request's batch against a shared [`WarmStore`]: the
    /// chunk loop of [`Placer::place_run`] minus the per-run setup —
    /// no arena allocation, no lookup build, no journal. Per-query
    /// results are bit-identical to a cold [`Placer::place_run`] of the
    /// same queries (results are independent of chunking and of what
    /// other requests the arena served before; the existing
    /// chunking/threading equivalence tests pin that contract).
    ///
    /// `cancel` is request-scoped: a deadline or client cancellation
    /// unwinds at the next cancellation point and yields a clean
    /// partial outcome (`completed == false`), exactly like batch mode.
    /// Runs against one store must be issued sequentially — the store
    /// is internally synchronized, but the cancel token is store-wide.
    pub fn place_warm(
        &self,
        warm: &WarmStore,
        batch: &QueryBatch,
        cancel: &CancelToken,
    ) -> Result<PlaceOutcome, PlaceError> {
        let t_total = Instant::now();
        let ctx = &self.ctx;
        warm.store.set_cancel_token(cancel);
        let slot_base = warm.store.stats();
        let obs_base = phylo_obs::snapshot();
        let pool_base = self.pool_stats();
        let branches = ctx.tree().n_edges();
        let chunk_size = warm.chunk_size.min(batch.len().max(1));
        let mut report = RunReport {
            n_queries: batch.len(),
            used_lookup: warm.use_lookup,
            slots: warm.slots,
            peak_memory: warm.peak_memory,
            ..Default::default()
        };
        let mut results: Vec<PlacementResult> = batch
            .queries()
            .iter()
            .map(|q| PlacementResult { name: q.name.clone(), placements: Vec::new() })
            .collect();
        let mut prescores = vec![0.0f64; chunk_size * branches];
        let mut completed = true;
        let mut chunks_done = 0usize;
        for (chunk_idx, chunk) in batch.chunks(chunk_size).enumerate() {
            if cancel.is_cancelled() {
                completed = false;
                break;
            }
            let qoff = chunk_idx * chunk_size;
            let mat = &mut prescores[..chunk.len() * branches];
            match self.compute_chunk(
                &warm.store,
                &warm.lookup,
                &warm.dfs_rank,
                chunk,
                chunk_idx,
                qoff,
                mat,
                branches,
                &mut results,
                &mut report,
            ) {
                Ok(_) => chunks_done = chunk_idx + 1,
                Err(e) if e.is_cancellation() => {
                    completed = false;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        let queries_done =
            if completed { batch.len() } else { (chunks_done * chunk_size).min(batch.len()) };
        if !completed {
            results.truncate(queries_done);
            phylo_obs::counter("place.cancelled_runs").inc();
        }
        for r in &mut results {
            r.finalize();
        }
        // Slot traffic attributed to *this* run, not the store's whole
        // life — the arena is shared, the report is per-request.
        report.slot_stats = warm.store.stats().delta(&slot_base);
        report.total_time = t_total.elapsed();
        report.metrics = run_metrics(
            &report,
            &obs_base,
            ctx.layout().tier(),
            warm.store.sitepar_stats(),
            self.pool_stats().delta(&pool_base),
            None,
        );
        Ok(PlaceOutcome { results, report, completed, queries_done })
    }

    /// One chunk of the run: prescore, candidate selection, thorough
    /// scoring. Returns the chunk's journal-frame stats.
    #[allow(clippy::too_many_arguments)]
    fn compute_chunk(
        &self,
        store: &ManagedStore,
        lookup: &Option<LookupTable>,
        dfs_rank: &[u32],
        chunk: &[EncodedQuery],
        chunk_idx: usize,
        qoff: usize,
        mat: &mut [f64],
        branches: usize,
        results: &mut [PlacementResult],
        report: &mut RunReport,
    ) -> Result<ChunkStats, PlaceError> {
        let ctx = &self.ctx;
        let cfg = &self.cfg;
        let pool = self.pool();
        // Ladder counters are per chunk and merged into the report at
        // the end of each chunk, so a run that degrades on every chunk
        // reports every step — not just the final chunk's. They also
        // ride in the chunk's journal frame, which is how a resumed
        // run's report still covers the pre-crash chunks.
        let deg = DegradationCounters::default();
        let chunk_span = phylo_obs::trace::span(&format!("chunk {chunk_idx}"), "chunk");
        phylo_obs::counter("place.chunks").inc();
        phylo_obs::gauge("place.chunk.current").set(chunk_idx as i64);
        phylo_obs::trace::mark("chunk.heartbeat", "chunk");

        // ---- Phase 1: prescore every (query, branch) pair. ----
        let t = Instant::now();
        let phase_span = phylo_obs::trace::span("prescore", "phase");
        match lookup {
            Some(table) => {
                prescore_with_lookup(
                    ctx,
                    pool,
                    table,
                    &self.site_to_pattern,
                    chunk,
                    mat,
                    branches,
                    cfg.threads,
                );
            }
            None => {
                self.prescore_blocked(ctx, store, pool, chunk, mat, branches, &deg)?;
            }
        }
        drop(phase_span);
        let n_prescored = (chunk.len() * branches) as u64;
        report.n_prescored += n_prescored;
        report.prescore_time += t.elapsed();
        // NaN never ranks correctly in candidate selection (every
        // comparison is false), so a kernel numeric failure here would
        // otherwise silently drop branches from consideration.
        if let Some(bad) = mat.iter().position(|v| v.is_nan()) {
            return Err(PlaceError::NonFiniteLikelihood {
                query: chunk[bad / branches].name.clone(),
                edge: (bad % branches) as u32,
            });
        }

        // ---- Candidate selection. ----
        let cand: Vec<Vec<EdgeId>> = mat
            .chunks(branches)
            .map(|row| select_candidates(row, cfg.thorough_fraction, cfg.thorough_min))
            .collect();

        // ---- Phase 2: thorough scoring, grouped by branch. ----
        let t = Instant::now();
        let phase_span = phylo_obs::trace::span("thorough", "phase");
        let grouped = group_by_branch_ranked(&cand, dfs_rank);
        let n_thorough = grouped.iter().map(|(_, qs)| qs.len() as u64).sum::<u64>();
        report.n_thorough += n_thorough;
        self.thorough_blocked(ctx, store, pool, chunk, &grouped, qoff, results, &deg)?;
        drop(phase_span);
        report.thorough_time += t.elapsed();
        let snap = deg.snapshot();
        report.degradation.merge(snap);
        drop(chunk_span);
        Ok(ChunkStats {
            prefetch_disabled: snap.prefetch_disabled,
            block_clamped: snap.block_clamped,
            flush_retries: snap.flush_retries,
            n_prescored,
            n_thorough,
        })
    }

    /// Prescoring without the lookup table: branch blocks are prepared
    /// under the slot budget (optionally prefetched asynchronously) and a
    /// transient score table is built per branch — the paper's expensive
    /// path.
    #[allow(clippy::too_many_arguments)]
    fn prescore_blocked(
        &self,
        ctx: &ReferenceContext,
        store: &ManagedStore,
        pool: &SiteParPool,
        chunk: &[EncodedQuery],
        mat: &mut [f64],
        branches: usize,
        deg: &DegradationCounters,
    ) -> Result<(), PlaceError> {
        let cfg = &self.cfg;
        let plan = self.plan_block(store.n_slots(), deg)?;
        // DFS order keeps consecutive blocks topologically adjacent, so
        // AMC reuses most subtree CLVs between blocks.
        let all_edges: Vec<EdgeId> = phylo_tree::traversal::edge_dfs_order(ctx.tree());
        let blocks: Vec<Vec<EdgeId>> =
            all_edges.chunks(plan.block_size).map(|b| b.to_vec()).collect();
        let s2p = &self.site_to_pattern;
        let pendant = (ctx.tree().total_length() / branches as f64).max(1e-6);
        run_blocks(ctx, store, pool, &blocks, plan.async_prefetch, deg, |block| {
            // Build the block's transient tables; the block's CLVs are
            // pinned and published, so reads need no lock.
            let tables: Vec<BranchScoreTable> = {
                let mut scratch = ScoreScratch::new(ctx);
                block
                    .iter()
                    .map(|&e| {
                        let partials = attachment_partials(ctx, store, e, 0.5, &mut scratch);
                        BranchScoreTable::build(ctx, &partials, pendant, &mut scratch)
                    })
                    .collect()
            };
            // Score the chunk against the block, parallel over queries.
            score_rows(pool, mat, branches, cfg.threads, |q_range, rows| {
                for (local, row) in q_range.clone().zip(rows.chunks_mut(branches)) {
                    let codes = &chunk[local].codes;
                    for (bi, &e) in block.iter().enumerate() {
                        row[e.idx()] = tables[bi].prescore(ctx, s2p, codes);
                    }
                }
            });
            Ok(())
        })
    }

    /// Thorough scoring of the candidate (query, branch) pairs, processed
    /// in branch blocks.
    #[allow(clippy::too_many_arguments)]
    fn thorough_blocked(
        &self,
        ctx: &ReferenceContext,
        store: &ManagedStore,
        pool: &SiteParPool,
        chunk: &[EncodedQuery],
        grouped: &[(EdgeId, Vec<usize>)],
        qoff: usize,
        results: &mut [PlacementResult],
        deg: &DegradationCounters,
    ) -> Result<(), PlaceError> {
        let cfg = &self.cfg;
        let s2p = &self.site_to_pattern;
        let plan = self.plan_block(store.n_slots(), deg)?;
        let blocks: Vec<Vec<EdgeId>> =
            grouped.chunks(plan.block_size).map(|g| g.iter().map(|&(e, _)| e).collect()).collect();
        // Blocks may be re-split under slot pressure, so group membership
        // is looked up per edge rather than tracked by a cursor.
        let group_of: std::collections::HashMap<u32, &Vec<usize>> =
            grouped.iter().map(|(e, qs)| (e.0, qs)).collect();
        run_blocks(ctx, store, pool, &blocks, plan.async_prefetch, deg, |block| {
            // Flatten to (edge, query) work items and stripe them over
            // pool tasks.
            let items: Vec<(EdgeId, usize)> =
                block.iter().flat_map(|e| group_of[&e.0].iter().map(move |&q| (*e, q))).collect();
            let n_stripes = cfg.threads.min(items.len().max(1));
            type Stripe = Result<Vec<(usize, PlacementEntry)>, PlaceError>;
            let stripes: Vec<Mutex<Stripe>> =
                (0..n_stripes).map(|_| Mutex::new(Ok(Vec::new()))).collect();
            let score_stripe = |t: usize| -> Stripe {
                if phylo_faults::fire("place::worker_panic") {
                    panic!("injected thorough-worker panic");
                }
                let mut out = Vec::new();
                let mut scratch = ScoreScratch::new(ctx);
                for &(e, q) in items.iter().skip(t).step_by(n_stripes) {
                    let sp = score_thorough(
                        ctx,
                        store,
                        e,
                        s2p,
                        &chunk[q].codes,
                        cfg.blo_iterations,
                        &mut scratch,
                    )?;
                    if !sp.log_likelihood.is_finite() {
                        return Err(PlaceError::NonFiniteLikelihood {
                            query: chunk[q].name.clone(),
                            edge: e.0,
                        });
                    }
                    let t_len = ctx.tree().edge_length(e);
                    out.push((
                        q,
                        PlacementEntry {
                            edge: e,
                            log_likelihood: sp.log_likelihood,
                            like_weight_ratio: 0.0,
                            pendant_length: sp.pendant,
                            distal_length: sp.proximal_fraction * t_len,
                        },
                    ));
                }
                Ok(out)
            };
            // The pool finishes every stripe before it re-raises a
            // stripe's panic, so the surviving stripes' leases are
            // released before the error surfaces; a panic outranks the
            // other stripes' errors.
            contain("thorough scoring task", || {
                pool.run(n_stripes, &|t| {
                    let out = score_stripe(t);
                    *stripes[t].lock().expect("only stripe t's own task locks its slot") = out;
                });
                Ok(())
            })?;
            let mut outputs = Vec::with_capacity(n_stripes);
            for stripe in stripes {
                outputs.push(stripe.into_inner().expect("no task panics holding a stripe slot")?);
            }
            for out in outputs {
                for (q, entry) in out {
                    results[qoff + q].placements.push(entry);
                }
            }
            Ok(())
        })
    }
}

/// Restores one replayed journal frame into the results vector and the
/// report. The manifest already pinned the inputs and chunk geometry,
/// so a mismatch here means a corrupted-but-CRC-valid journal or a bug
/// — surfaced as a typed error, never merged silently.
fn restore_chunk(
    frame: &ChunkFrame,
    chunk: &[EncodedQuery],
    qoff: usize,
    results: &mut [PlacementResult],
    report: &mut RunReport,
) -> Result<(), PlaceError> {
    if frame.queries.len() != chunk.len() {
        return Err(phylo_journal::JournalError::FrameMismatch {
            chunk: frame.chunk_index,
            detail: format!(
                "frame holds {} queries, this run's chunk holds {}",
                frame.queries.len(),
                chunk.len()
            ),
        }
        .into());
    }
    for (local, q) in frame.queries.iter().enumerate() {
        if q.name != chunk[local].name {
            return Err(phylo_journal::JournalError::FrameMismatch {
                chunk: frame.chunk_index,
                detail: format!(
                    "query {} is {:?} in the frame but {:?} in this run",
                    qoff + local,
                    q.name,
                    chunk[local].name
                ),
            }
            .into());
        }
        // LWR is left 0.0: finalization recomputes it from the exact
        // log-likelihood bits, identically to the uninterrupted run.
        results[qoff + local].placements = q
            .placements
            .iter()
            .map(|p| PlacementEntry {
                edge: EdgeId(p.edge),
                log_likelihood: p.log_likelihood,
                like_weight_ratio: 0.0,
                pendant_length: p.pendant_length,
                distal_length: p.distal_length,
            })
            .collect();
    }
    report.n_prescored += frame.stats.n_prescored;
    report.n_thorough += frame.stats.n_thorough;
    report.degradation.merge(DegradationStats {
        prefetch_disabled: frame.stats.prefetch_disabled,
        block_clamped: frame.stats.block_clamped,
        flush_retries: frame.stats.flush_retries,
    });
    phylo_obs::counter("journal.chunks_restored").inc();
    Ok(())
}

/// Serializes one completed chunk's results into a journal frame.
fn frame_of(chunk_idx: usize, stats: ChunkStats, slice: &[PlacementResult]) -> ChunkFrame {
    ChunkFrame {
        chunk_index: chunk_idx as u32,
        stats,
        queries: slice
            .iter()
            .map(|r| QueryRecord {
                name: r.name.clone(),
                placements: r
                    .placements
                    .iter()
                    .map(|p| PlacementRecord {
                        edge: p.edge.0,
                        log_likelihood: p.log_likelihood,
                        pendant_length: p.pendant_length,
                        distal_length: p.distal_length,
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Builds the per-run metrics snapshot: the delta of the live registry
/// against the run's baseline, with the slot-traffic and degradation
/// counters injected from their authoritative per-run sources
/// ([`RunReport::slot_stats`] and [`RunReport::degradation`]). The
/// injected counters are exact regardless of the `obs` feature or of
/// concurrent runs sharing the global registry. The selected kernel
/// tier is exported as exactly one `kernel.tier.<name>` gauge (the
/// invariant the observability suite checks), alongside the
/// site-parallel pool counters.
fn run_metrics(
    report: &RunReport,
    base: &phylo_obs::Snapshot,
    tier: phylo_kernel::KernelTier,
    pool: PoolStats,
    scoring: PoolStats,
    tiers: Option<&phylo_amc::TieredStore>,
) -> phylo_obs::Snapshot {
    let mut m = phylo_obs::snapshot().delta(base);
    m.set_gauge(&format!("kernel.tier.{}", tier.name()), 1);
    m.set_gauge("sitepar.pool.workers", pool.workers as i64);
    m.set_gauge("sitepar.pool.parked", pool.parked as i64);
    m.set_gauge("sitepar.pool.queue_depth", pool.queue_depth as i64);
    m.set_counter("sitepar.pool.jobs", pool.jobs);
    m.set_counter("sitepar.pool.tasks", pool.tasks);
    m.set_gauge("place.pool.workers", scoring.workers as i64);
    m.set_counter("place.pool.jobs", scoring.jobs);
    m.set_counter("place.pool.tasks", scoring.tasks);
    let s = &report.slot_stats;
    m.set_counter("slot.hits", s.hits);
    m.set_counter("slot.misses", s.misses);
    m.set_counter("slot.evictions", s.evictions);
    m.set_counter("slot.installs", s.installs);
    m.set_counter("slot.acquires", s.acquires);
    m.set_counter("slot.poisoned", s.poisoned);
    m.set_counter("slot.reclaimed", s.reclaimed);
    let d = &report.degradation;
    m.set_counter("place.degrade.prefetch_disabled", d.prefetch_disabled);
    m.set_counter("place.degrade.block_clamped", d.block_clamped);
    m.set_counter("place.degrade.flush_retries", d.flush_retries);
    if let Some(t) = &report.tier_stats {
        m.set_counter("tier.demotions", t.demotions);
        m.set_counter("tier.writebacks", t.writebacks);
        m.set_counter("tier.writeback_lost", t.writeback_lost);
        m.set_counter("tier.drops_cost", t.drops_cost);
        m.set_counter("tier.drops_budget", t.drops_budget);
        m.set_counter("tier.reloads", t.reloads);
        m.set_counter("tier.reload_misses", t.reload_misses);
        m.set_counter("tier.corrupt", t.corrupt);
        m.set_counter("tier.prefetches", t.prefetches);
    }
    if let Some(tiers) = tiers {
        for (name, entries, bytes) in tiers.occupancy() {
            m.set_gauge(&format!("tier.{name}.bytes"), bytes as i64);
            m.set_gauge(&format!("tier.{name}.entries"), entries as i64);
        }
    }
    m
}

/// Runs `work` over disjoint row ranges of a flat `width`-column matrix
/// as pool tasks: the rows split into at most `n_parts` contiguous,
/// near-equal ranges, each handed to `work` with its own rows.
fn score_rows(
    pool: &SiteParPool,
    data: &mut [f64],
    width: usize,
    n_parts: usize,
    work: impl Fn(std::ops::Range<usize>, &mut [f64]) + Sync,
) {
    let n_rows = data.len() / width.max(1);
    if n_rows == 0 {
        return;
    }
    let rows_per = n_rows.div_ceil(n_parts.max(1).min(n_rows));
    let parts: Vec<Mutex<(usize, &mut [f64])>> = data
        .chunks_mut(rows_per * width)
        .enumerate()
        .map(|(i, rows)| Mutex::new((i * rows_per, rows)))
        .collect();
    pool.run(parts.len(), &|i| {
        let mut part = parts[i].lock().expect("only task i locks row range i");
        let (start, rows) = &mut *part;
        work(*start..*start + rows.len() / width, rows);
    });
}

/// Phase-1 prescoring against the lookup table, parallel over queries.
#[allow(clippy::too_many_arguments)]
fn prescore_with_lookup(
    ctx: &ReferenceContext,
    pool: &SiteParPool,
    table: &LookupTable,
    s2p: &[u32],
    chunk: &[EncodedQuery],
    mat: &mut [f64],
    branches: usize,
    n_threads: usize,
) {
    score_rows(pool, mat, branches, n_threads, |q_range, rows| {
        for (local, row) in q_range.clone().zip(rows.chunks_mut(branches)) {
            let codes = &chunk[local].codes;
            for e in ctx.tree().all_edges() {
                row[e.idx()] = table.prescore(ctx, e, s2p, codes);
            }
        }
    });
}

/// Runs `scorer` over branch blocks whose CLVs are prepared under the slot
/// budget. With `async_prefetch`, the next block's CLVs are computed as a
/// pool task while the current block is scored on the calling thread —
/// the paper's adapted parallelization. The scorer stays on the caller so
/// its own pool calls (the query split) can use every idle worker; with
/// no idle worker the caller prefetches after scoring. There is no
/// store-wide lock: the prefetch plans under the store's internal plan
/// lock (held only during planning) and then executes lock-free under
/// its execution pins, so scoring readers of the current block's pinned,
/// published slots never block on it (see DESIGN.md §6).
///
/// Degrades gracefully under slot pressure: if a block's targets cannot
/// all be pinned at once ([`phylo_amc::AmcError::AllSlotsPinned`]), the
/// block is recursively split and prepared synchronously, and prefetching
/// resumes at the next block.
fn run_blocks(
    ctx: &ReferenceContext,
    store: &ManagedStore,
    pool: &SiteParPool,
    blocks: &[Vec<EdgeId>],
    async_prefetch: bool,
    deg: &DegradationCounters,
    mut scorer: impl FnMut(&[EdgeId]) -> Result<(), PlaceError>,
) -> Result<(), PlaceError> {
    if blocks.is_empty() {
        return Ok(());
    }
    if !async_prefetch {
        for block in blocks {
            prepare_split(ctx, store, block, deg, &mut scorer)?;
        }
        return Ok(());
    }
    let mut next: Option<PreparedBlock> = try_prepare(ctx, store, &blocks[0])?;
    for k in 0..blocks.len() {
        match next.take() {
            Some(prepared) => {
                let (scorer_result, prefetch_result) = match blocks.get(k + 1) {
                    Some(following) => {
                        let next_dirs = dirs_of(following);
                        // The traversal schedule names next block's CLVs
                        // in advance — stage any demoted copies (disk
                        // reads off the critical path) before the slot
                        // planner asks.
                        if let Some(tiers) = store.arena().tiers() {
                            let keys: Vec<phylo_amc::ClvKey> =
                                next_dirs.iter().map(|d| phylo_amc::ClvKey(d.0)).collect();
                            tiers.prefetch(&keys);
                        }
                        pool.join(
                            || scorer(&blocks[k]),
                            || contain("prefetch task", || prefetch(ctx, store, &next_dirs)),
                        )
                    }
                    None => (scorer(&blocks[k]), Ok(None)),
                };
                store.release(prepared);
                scorer_result?;
                next = prefetch_result?;
            }
            None => {
                // This block could not be prefetched whole: prepare it
                // synchronously, splitting as needed, then resume
                // prefetching from the next block.
                prepare_split(ctx, store, &blocks[k], deg, &mut scorer)?;
                if k + 1 < blocks.len() {
                    next = try_prepare(ctx, store, &blocks[k + 1])?;
                }
            }
        }
    }
    Ok(())
}

/// The asynchronous half of [`run_blocks`]: plans and computes the next
/// block's CLVs. Pin exhaustion is "not now" (`Ok(None)`), not an error.
fn prefetch(
    ctx: &ReferenceContext,
    store: &ManagedStore,
    dirs: &[DirEdgeId],
) -> Result<Option<PreparedBlock>, PlaceError> {
    let _span = phylo_obs::trace::span("prefetch", "prefetch");
    if phylo_faults::fire("place::prefetch_panic") {
        // Fires before any pins are taken, so the contained panic
        // leaves nothing to drain.
        panic!("injected prefetch panic");
    }
    let mut pending = match store.plan_prepare(ctx, dirs) {
        Ok(p) => p,
        Err(e) if is_pin_exhaustion(&e) => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    loop {
        match store.execute_one(ctx, &mut pending) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                // The failed step left unpublished targets; drop them so
                // the store stays usable for whoever handles the error.
                store.abandon(pending);
                return Err(e.into());
            }
        }
    }
    Ok(Some(pending.into_prepared()))
}

/// Runs a pool-task body, turning a panic into
/// [`PlaceError::WorkerPanicked`] tagged with `what`.
fn contain<R>(what: &str, body: impl FnOnce() -> Result<R, PlaceError>) -> Result<R, PlaceError> {
    std::panic::catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        Err(PlaceError::WorkerPanicked {
            context: format!("{what}: {}", panic_message(payload.as_ref())),
        })
    })
}

/// Renders a caught panic payload for [`PlaceError::WorkerPanicked`].
/// `panic!` payloads are `&str` or `String` in practice; anything else is
/// reported opaquely rather than re-thrown.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn dirs_of(block: &[EdgeId]) -> Vec<DirEdgeId> {
    block.iter().flat_map(|&e| [DirEdgeId::new(e, 0), DirEdgeId::new(e, 1)]).collect()
}

fn is_pin_exhaustion(e: &phylo_engine::EngineError) -> bool {
    matches!(e, phylo_engine::EngineError::Amc(phylo_amc::AmcError::AllSlotsPinned { .. }))
}

/// Prepares a block, scoring and releasing it; on pin exhaustion the block
/// is split in half recursively (a single branch always fits: two target
/// pins plus the `⌈log₂ n⌉ + 2` traversal floor).
fn prepare_split(
    ctx: &ReferenceContext,
    store: &ManagedStore,
    block: &[EdgeId],
    deg: &DegradationCounters,
    scorer: &mut impl FnMut(&[EdgeId]) -> Result<(), PlaceError>,
) -> Result<(), PlaceError> {
    match store.prepare(ctx, &dirs_of(block)) {
        Ok(prepared) => {
            let r = scorer(block);
            store.release(prepared);
            r
        }
        Err(e) if is_pin_exhaustion(&e) && block.len() > 1 => {
            let mid = block.len() / 2;
            prepare_split(ctx, store, &block[..mid], deg, scorer)?;
            prepare_split(ctx, store, &block[mid..], deg, scorer)
        }
        Err(e) if is_pin_exhaustion(&e) => {
            // Even a single branch can exhaust the pins when the plan
            // references many *cached* dependencies (each gets pinned for
            // the pass). Flush the cache and retry over a clean slate,
            // where the pin demand is bounded by the traversal floor.
            // Concurrent planners can race us to the freed slots, so back
            // off exponentially (capped, jittered so racing threads
            // desynchronize) between a few attempts before giving up —
            // the ladder's last rung.
            let mut backoff =
                phylo_amc::Backoff::new(Duration::from_millis(1), Duration::from_millis(8));
            let mut last = e;
            for attempt in 0..4 {
                if attempt > 0 {
                    std::thread::sleep(backoff.next_delay());
                }
                deg.flush_retries.fetch_add(1, Ordering::Relaxed);
                store.flush_cache();
                match store.prepare(ctx, &dirs_of(block)) {
                    Ok(prepared) => {
                        let r = scorer(block);
                        store.release(prepared);
                        return r;
                    }
                    Err(e) if is_pin_exhaustion(&e) => last = e,
                    Err(e) => return Err(e.into()),
                }
            }
            Err(last.into())
        }
        Err(e) => Err(e.into()),
    }
}

/// Prefetch-style preparation that treats pin exhaustion as "not now"
/// rather than an error.
fn try_prepare(
    ctx: &ReferenceContext,
    store: &ManagedStore,
    block: &[EdgeId],
) -> Result<Option<PreparedBlock>, PlaceError> {
    match store.prepare(ctx, &dirs_of(block)) {
        Ok(p) => Ok(Some(p)),
        Err(e) if is_pin_exhaustion(&e) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PreplacementMode;
    use phylo_models::{dna, DiscreteGamma, SubstModel};
    use phylo_seq::alphabet::AlphabetKind;
    use phylo_seq::{compress, Msa, Sequence};
    use phylo_tree::{generate, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(
        n: usize,
        sites: usize,
        n_queries: usize,
        seed: u64,
    ) -> (ReferenceContext, Vec<u32>, QueryBatch) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generate::yule(n, 0.1, &mut rng).unwrap();
        let rows: Vec<Sequence> = (0..n)
            .map(|i| {
                let text: String = (0..sites)
                    .map(|_| "ACGT".as_bytes()[rng.gen_range(0..4usize)] as char)
                    .collect();
                Sequence::from_text(tree.taxon(NodeId(i as u32)), AlphabetKind::Dna, &text).unwrap()
            })
            .collect();
        let msa = Msa::new(rows).unwrap();
        let patterns = compress(&msa).unwrap();
        let s2p = patterns.site_to_pattern().to_vec();
        // Queries: mutated copies of random reference rows.
        let queries: Vec<Sequence> = (0..n_queries)
            .map(|i| {
                let src = msa.row(rng.gen_range(0..n)).codes().to_vec();
                let mutated: Vec<u8> = src
                    .iter()
                    .map(|&c| if rng.gen_bool(0.05) { rng.gen_range(0..4) } else { c })
                    .collect();
                Sequence::from_codes(format!("q{i}"), AlphabetKind::Dna, mutated).unwrap()
            })
            .collect();
        let batch = QueryBatch::new(&queries, sites).unwrap();
        let model = SubstModel::new(&dna::jc69(), DiscreteGamma::none()).unwrap();
        let ctx =
            ReferenceContext::new(tree, model, AlphabetKind::Dna.alphabet(), &patterns).unwrap();
        (ctx, s2p, batch)
    }

    fn best_edges(results: &[PlacementResult]) -> Vec<u32> {
        results.iter().map(|r| r.best().unwrap().edge.0).collect()
    }

    #[test]
    fn default_run_places_everything() {
        let (ctx, s2p, batch) = setup(12, 60, 8, 1);
        let placer = Placer::new(ctx, s2p, EpaConfig::default()).unwrap();
        let (results, report) = placer.place(&batch).unwrap();
        assert_eq!(results.len(), 8);
        for r in &results {
            assert!(!r.placements.is_empty());
            let lwr: f64 = r.placements.iter().map(|p| p.like_weight_ratio).sum();
            assert!((lwr - 1.0).abs() < 1e-9);
        }
        assert!(report.used_lookup);
        assert!(report.n_prescored >= (8 * 21) as u64);
        assert!(report.total_time.as_nanos() > 0);
    }

    #[test]
    fn amc_and_full_agree_on_best_placements() {
        let (ctx, s2p, batch) = setup(16, 80, 10, 2);
        let full = Placer::new(ctx, s2p.clone(), EpaConfig::default()).unwrap();
        let (r_full, rep_full) = full.place(&batch).unwrap();

        let (ctx2, _, _) = setup(16, 80, 10, 2);
        let tight_cfg = EpaConfig {
            max_memory: Some(rep_full.peak_memory), // plenty: same layout
            ..Default::default()
        };
        let tight = Placer::new(ctx2, s2p, tight_cfg).unwrap();
        let (r_tight, _) = tight.place(&batch).unwrap();
        assert_eq!(best_edges(&r_full), best_edges(&r_tight));
        for (a, b) in r_full.iter().zip(&r_tight) {
            assert!(
                (a.best().unwrap().log_likelihood - b.best().unwrap().log_likelihood).abs() < 1e-9
            );
        }
    }

    #[test]
    fn no_lookup_path_matches_lookup_path() {
        let (ctx, s2p, batch) = setup(12, 50, 6, 3);
        let with = Placer::new(ctx, s2p.clone(), EpaConfig::default()).unwrap();
        let (r_with, rep_with) = with.place(&batch).unwrap();
        assert!(rep_with.used_lookup);

        let (ctx2, _, _) = setup(12, 50, 6, 3);
        let cfg = EpaConfig { preplacement: PreplacementMode::Off, ..Default::default() };
        let without = Placer::new(ctx2, s2p, cfg).unwrap();
        let (r_without, rep_without) = without.place(&batch).unwrap();
        assert!(!rep_without.used_lookup);
        assert_eq!(best_edges(&r_with), best_edges(&r_without));
    }

    #[test]
    fn parallel_matches_serial() {
        let (ctx, s2p, batch) = setup(14, 60, 9, 4);
        let serial =
            Placer::new(ctx, s2p.clone(), EpaConfig { threads: 1, ..Default::default() }).unwrap();
        let (r1, _) = serial.place(&batch).unwrap();
        let (ctx2, _, _) = setup(14, 60, 9, 4);
        let par = Placer::new(ctx2, s2p, EpaConfig { threads: 4, ..Default::default() }).unwrap();
        let (r2, _) = par.place(&batch).unwrap();
        assert_eq!(best_edges(&r1), best_edges(&r2));
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a.placements.len(), b.placements.len());
            for (x, y) in a.placements.iter().zip(&b.placements) {
                assert_eq!(x.edge, y.edge);
                assert_eq!(x.log_likelihood.to_bits(), y.log_likelihood.to_bits());
            }
        }
    }

    #[test]
    fn async_prefetch_matches_sync() {
        let (ctx, s2p, batch) = setup(14, 50, 6, 5);
        let cfg_sync = EpaConfig {
            preplacement: PreplacementMode::Off,
            async_prefetch: false,
            block_size: 4,
            ..Default::default()
        };
        let sync = Placer::new(ctx, s2p.clone(), cfg_sync).unwrap();
        let (r1, _) = sync.place(&batch).unwrap();
        let (ctx2, _, _) = setup(14, 50, 6, 5);
        let cfg_async = EpaConfig {
            preplacement: PreplacementMode::Off,
            async_prefetch: true,
            block_size: 4,
            threads: 2,
            ..Default::default()
        };
        let asy = Placer::new(ctx2, s2p, cfg_async).unwrap();
        let (r2, _) = asy.place(&batch).unwrap();
        assert_eq!(best_edges(&r1), best_edges(&r2));
    }

    #[test]
    fn small_chunks_match_large_chunks() {
        let (ctx, s2p, batch) = setup(12, 40, 10, 6);
        let big = Placer::new(ctx, s2p.clone(), EpaConfig::default()).unwrap();
        let (r1, _) = big.place(&batch).unwrap();
        let (ctx2, _, _) = setup(12, 40, 10, 6);
        let small =
            Placer::new(ctx2, s2p, EpaConfig { chunk_size: 3, ..Default::default() }).unwrap();
        let (r2, _) = small.place(&batch).unwrap();
        assert_eq!(best_edges(&r1), best_edges(&r2));
    }

    #[test]
    fn tight_memory_recomputes_more() {
        let (ctx, s2p, batch) = setup(24, 60, 6, 7);
        // Baseline: unlimited.
        let off = Placer::new(ctx, s2p.clone(), EpaConfig::default()).unwrap();
        let (_, rep_off) = off.place(&batch).unwrap();
        // Tight: minimum feasible slots (floor budget), no lookup.
        let (ctx2, _, _) = setup(24, 60, 6, 7);
        let slot_bytes =
            phylo_amc::SlotArena::bytes_per_slot(ctx2.layout().clv_len(), ctx2.layout().patterns);
        let floor = ctx2.approx_bytes()
            + memplan::chunk_bytes(&ctx2, 2, batch.n_sites())
            + (ctx2.min_slots() + 4) * slot_bytes;
        let cfg = EpaConfig {
            preplacement: PreplacementMode::Off,
            max_memory: Some(floor),
            chunk_size: 2,
            block_size: 8,
            async_prefetch: false,
            ..Default::default()
        };
        let tight = Placer::new(ctx2, s2p, cfg).unwrap();
        let (_, rep_tight) = tight.place(&batch).unwrap();
        assert!(
            rep_tight.slot_stats.misses > rep_off.slot_stats.misses,
            "no-lookup chunked runs must recompute more CLVs: {:?} vs {:?}",
            rep_tight.slot_stats,
            rep_off.slot_stats
        );
    }

    #[test]
    fn block_plan_walks_the_degradation_ladder() {
        let (ctx, s2p, _) = setup(12, 40, 1, 9);
        let floor = ctx.min_slots();
        let sync_cfg = EpaConfig { async_prefetch: false, ..Default::default() };
        let placer = Placer::new(ctx, s2p.clone(), sync_cfg).unwrap();
        let deg = DegradationCounters::default();
        // Bottom rung: a sync block pins 2 slots; one spare slot cannot
        // carry even a one-branch block and must be rejected, not silently
        // deadlocked at prepare time.
        assert!(matches!(
            placer.plan_block(floor + 1, &deg),
            Err(PlaceError::SlotHeadroomTooSmall { needed: 2, .. })
        ));
        let plan = placer.plan_block(floor + 2, &deg).unwrap();
        assert_eq!(plan.block_size, 1);
        assert!(!plan.async_prefetch);
        assert!(plan.block_clamped && !plan.prefetch_disabled);
        assert_eq!(deg.snapshot().block_clamped, 1);

        // Async prefetch keeps two blocks pinned (4 slots per branch);
        // with less spare than that the ladder falls back to synchronous
        // preparation instead of erroring out.
        let (ctx2, _, _) = setup(12, 40, 1, 9);
        let async_cfg = EpaConfig { async_prefetch: true, ..Default::default() };
        let async_placer = Placer::new(ctx2, s2p, async_cfg).unwrap();
        let deg = DegradationCounters::default();
        let plan = async_placer.plan_block(floor + 3, &deg).unwrap();
        assert_eq!(plan.block_size, 1);
        assert!(!plan.async_prefetch && plan.prefetch_disabled);
        assert_eq!(deg.snapshot().prefetch_disabled, 1);
        let plan = async_placer.plan_block(floor + 4, &deg).unwrap();
        assert_eq!(plan.block_size, 1);
        assert!(plan.async_prefetch && !plan.prefetch_disabled);
        // Only one spare slot is fatal even after dropping prefetch.
        assert!(matches!(
            async_placer.plan_block(floor + 1, &deg),
            Err(PlaceError::SlotHeadroomTooSmall { needed: 2, .. })
        ));
    }

    #[test]
    fn identical_queries_place_at_their_taxon() {
        let (ctx, s2p, _) = setup(10, 100, 1, 8);
        // Build queries identical to the first three taxa.
        let queries: Vec<Sequence> = (0..3)
            .map(|i| {
                let per_pattern = ctx.tip_codes(NodeId(i as u32)).to_vec();
                let codes: Vec<u8> = s2p.iter().map(|&p| per_pattern[p as usize]).collect();
                Sequence::from_codes(format!("taxon-copy-{i}"), AlphabetKind::Dna, codes).unwrap()
            })
            .collect();
        let batch = QueryBatch::new(&queries, 100).unwrap();
        let pendant_edges: Vec<u32> =
            (0..3).map(|i| ctx.tree().neighbors(NodeId(i as u32))[0].1 .0).collect();
        let placer = Placer::new(ctx, s2p, EpaConfig::default()).unwrap();
        let (results, _) = placer.place(&batch).unwrap();
        for (r, expect) in results.iter().zip(pendant_edges) {
            assert_eq!(r.best().unwrap().edge.0, expect, "query {}", r.name);
        }
    }

    /// Bit-exact equality of full placement lists — the service-mode
    /// byte-identity contract at the results layer.
    fn assert_bit_identical(a: &[PlacementResult], b: &[PlacementResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.placements.len(), y.placements.len());
            for (p, q) in x.placements.iter().zip(&y.placements) {
                assert_eq!(p.edge, q.edge);
                assert_eq!(p.log_likelihood.to_bits(), q.log_likelihood.to_bits());
                assert_eq!(p.like_weight_ratio.to_bits(), q.like_weight_ratio.to_bits());
                assert_eq!(p.pendant_length.to_bits(), q.pendant_length.to_bits());
                assert_eq!(p.distal_length.to_bits(), q.distal_length.to_bits());
            }
        }
    }

    #[test]
    fn warm_runs_match_cold_runs_bit_exactly_and_reuse_the_arena() {
        let (ctx, s2p, batch) = setup(14, 60, 9, 11);
        let placer = Placer::new(ctx, s2p, EpaConfig::default()).unwrap();
        let (cold, _) = placer.place(&batch).unwrap();
        let warm = placer.warm_up().unwrap();
        assert!(warm.use_lookup());
        let token = CancelToken::new();
        // Two consecutive runs over the same store: both must match the
        // cold run bit-exactly — the second proves that residue from
        // the first (resident CLVs, strategy state) cannot change
        // results, only hit rates.
        let one = placer.place_warm(&warm, &batch, &token).unwrap();
        assert!(one.completed);
        assert_bit_identical(&cold, &one.results);
        let base = warm.slot_stats();
        let two = placer.place_warm(&warm, &batch, &token).unwrap();
        assert_bit_identical(&cold, &two.results);
        let delta = warm.slot_stats().delta(&base);
        assert_eq!(two.report.slot_stats, delta, "report must cover only its own run");
        assert!(
            delta.misses < base.misses,
            "a warm rerun must recompute fewer CLVs than the first run ({} vs {})",
            delta.misses,
            base.misses,
        );
    }

    #[test]
    fn warm_run_subsets_match_their_own_cold_runs() {
        // The daemon serves per-request subsets against one shared
        // store; each subset's results must equal a dedicated cold run
        // of just that subset.
        let (ctx, s2p, batch) = setup(14, 60, 8, 12);
        let placer = Placer::new(ctx, s2p, EpaConfig::default()).unwrap();
        let warm = placer.warm_up().unwrap();
        let token = CancelToken::new();
        let queries = batch.queries();
        for range in [0..3usize, 3..8usize] {
            let subset: Vec<Sequence> = queries[range.clone()]
                .iter()
                .map(|q| {
                    Sequence::from_codes(q.name.clone(), AlphabetKind::Dna, q.codes.clone())
                        .unwrap()
                })
                .collect();
            let sub_batch = QueryBatch::new(&subset, 60).unwrap();
            let cold = self::setup(14, 60, 8, 12);
            let cold_placer = Placer::new(cold.0, cold.1, EpaConfig::default()).unwrap();
            let (cold_results, _) = cold_placer.place(&sub_batch).unwrap();
            let out = placer.place_warm(&warm, &sub_batch, &token).unwrap();
            assert_bit_identical(&cold_results, &out.results);
        }
    }

    #[test]
    fn cancelled_warm_run_is_clean_and_store_stays_usable() {
        let (ctx, s2p, batch) = setup(12, 50, 6, 13);
        let placer =
            Placer::new(ctx, s2p, EpaConfig { chunk_size: 2, ..Default::default() }).unwrap();
        let warm = placer.warm_up().unwrap();
        let armed = CancelToken::new();
        armed.cancel();
        let out = placer.place_warm(&warm, &batch, &armed).unwrap();
        assert!(!out.completed);
        assert_eq!(out.queries_done, 0);
        assert!(out.results.is_empty());
        // The pre-armed token must not poison the store for the next
        // request: a fresh token serves normally.
        let fresh = CancelToken::new();
        let ok = placer.place_warm(&warm, &batch, &fresh).unwrap();
        assert!(ok.completed);
        assert_eq!(ok.results.len(), 6);
    }

    #[test]
    fn tier_gauges_report_occupancy_under_their_own_names() {
        let cfg = phylo_amc::TierConfig::parse("compressed").unwrap();
        let tiers = phylo_amc::TieredStore::new(&cfg, 16, 8, 4, vec![2.0; 16], None).unwrap();
        let clv: Vec<f64> = (0..8).map(|i| f64::from(i) * 0.37 - 1.0).collect();
        for key in 0..5 {
            assert!(tiers.offer(phylo_amc::ClvKey(key), &clv, &[0, 1, 2, 3]));
        }
        tiers.drain();
        let m = run_metrics(
            &RunReport::default(),
            &phylo_obs::snapshot(),
            phylo_kernel::KernelTier::Reference,
            PoolStats::default(),
            PoolStats::default(),
            Some(&tiers),
        );
        let occupancy = tiers.occupancy();
        assert_eq!(occupancy, vec![("compressed", 5, occupancy[0].2)]);
        assert_ne!(occupancy[0].1, occupancy[0].2, "entries and bytes must be distinguishable");
        for (name, entries, bytes) in occupancy {
            assert_eq!(m.gauges[&format!("tier.{name}.entries")], entries as i64);
            assert_eq!(m.gauges[&format!("tier.{name}.bytes")], bytes as i64);
        }
    }

    #[test]
    fn warm_up_refuses_tiered_storage() {
        let (ctx, s2p, _) = setup(10, 40, 2, 14);
        let cfg = EpaConfig {
            tiers: Some(phylo_amc::TierConfig::parse("compressed").unwrap()),
            ..Default::default()
        };
        let placer = Placer::new(ctx, s2p, cfg).unwrap();
        assert!(matches!(placer.warm_up(), Err(PlaceError::BadConfig(_))));
    }
}
