//! Across-site parallel kernel wrappers over a persistent worker pool.
//!
//! The paper's Fig. 7 "experimental" mode parallelizes CLV recomputation
//! over alignment sites instead of (only) overlapping it with placement
//! work. Because the CLV layout keeps patterns outermost, splitting the
//! pattern range splits every buffer into disjoint contiguous slices.
//!
//! The wrappers run on a [`SiteParPool`]: workers are spawned once, park
//! on a condvar between calls, and a call is just "publish a job, wake
//! the pool, help drain it". The caller thread always participates in
//! the drain, so a pool sized `n` uses `n - 1` parked workers plus the
//! caller, and on a single-core host (zero workers) every call runs
//! inline with no synchronization beyond two atomic bumps. The placer
//! runs its query scoring ([`SiteParPool::run`]) and branch-block
//! prefetch ([`SiteParPool::join`]) on a pool of the same type.
//!
//! Each chunk calls the dispatching serial kernels on its sub-range, so
//! the range split composes with kernel specialization *and* the tier
//! layer: DNA/protein chunks run the fused fixed-state or SIMD kernels
//! allocation-free, and only the generic fallback touches a transient
//! scratch.
//!
//! As the paper observes (§V-C), site parallelism still only pays off
//! for wide alignments — each chunk must amortize its share of the
//! wake/park handshake over `patterns / chunks` sites — but the
//! handshake is hundreds of nanoseconds, not a thread spawn.

use crate::kernels::{update_partials, Side};
use crate::layout::Layout;
use crate::likelihood::edge_log_likelihood;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Splits `patterns` into at most `n_chunks` near-equal contiguous ranges.
pub fn split_ranges(patterns: usize, n_chunks: usize) -> Vec<std::ops::Range<usize>> {
    let n_chunks = n_chunks.max(1).min(patterns.max(1));
    let base = patterns / n_chunks;
    let extra = patterns % n_chunks;
    let mut out = Vec::with_capacity(n_chunks);
    let mut start = 0;
    for i in 0..n_chunks {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Restricts a [`Side`] to a pattern range, producing a side whose pattern
/// indices are range-local.
fn slice_side<'a>(side: &Side<'a>, layout: &Layout, range: &std::ops::Range<usize>) -> Side<'a> {
    match *side {
        Side::Clv { clv, scale, pmatrix } => Side::Clv {
            clv: &clv[layout.clv_range(range)],
            scale: scale.map(|s| &s[range.clone()]),
            pmatrix,
        },
        Side::Tip { table, codes } => Side::Tip { table, codes: &codes[range.clone()] },
    }
}

/// A raw pointer that may cross threads. Used to hand each pool task its
/// own disjoint chunk of an output buffer; every dereference site states
/// the disjointness argument.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    #[inline]
    fn get(self) -> *mut T {
        self.0
    }
}

/// One published batch of index-addressed tasks (`0..n_tasks`).
struct Job {
    /// Type-erased `&(dyn Fn(usize) + Sync)` borrowed from the caller's
    /// stack. Valid until `pending` reaches zero, which the publishing
    /// [`SiteParPool`] call waits for before returning — also when a task
    /// panicked; the pointer is only ever dereferenced for a claimed
    /// index, strictly before that index's `pending` decrement, so no
    /// dereference can happen after the call returns.
    task: *const (dyn Fn(usize) + Sync),
    /// Next unclaimed task index.
    cursor: AtomicUsize,
    n_tasks: usize,
    /// Tasks not yet *finished* (claimed-and-executed).
    pending: AtomicUsize,
    /// The first panic a task raised, re-raised on the publishing caller
    /// once every task has finished.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done_m: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: the raw `task` pointer is the only non-auto-Send/Sync field;
// its validity window is enforced by the `pending` protocol above.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    fn has_unclaimed(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.n_tasks
    }

    /// Claims and executes tasks until the cursor is exhausted. A
    /// panicking task is caught and recorded, so the draining thread (a
    /// pool worker or the caller) survives and `pending` always reaches
    /// zero.
    fn drain(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_tasks {
                return;
            }
            // SAFETY: see the `task` field contract.
            let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*self.task)(i) }));
            if let Err(payload) = outcome {
                lock(&self.panic).get_or_insert(payload);
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Lock-then-notify so a caller between its `pending`
                // check and `wait` cannot miss the wakeup.
                let _g = lock(&self.done_m);
                self.done_cv.notify_all();
            }
        }
    }

    /// Blocks until every task has finished.
    fn wait(&self) {
        let mut g = lock(&self.done_m);
        while self.pending.load(Ordering::Acquire) > 0 {
            g = self.done_cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Locks a pool mutex. Tasks never run under these locks, so a poisoned
/// one still guards consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct PoolState {
    /// Published jobs with possibly unclaimed tasks, oldest first. Idle
    /// workers help the oldest job that still has work; every job is
    /// also drained by its own publishing caller, which removes it once
    /// all of its tasks finished.
    queue: Vec<Arc<Job>>,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    /// Workers currently parked on `work_cv`.
    parked: AtomicUsize,
    /// Batches (`run` and `join` calls) since creation.
    jobs: AtomicU64,
    /// Tasks executed (by workers and callers) since creation.
    tasks: AtomicU64,
}

/// Point-in-time pool counters, exported through the observability
/// registry by `placement::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads owned by the pool (excludes participating callers).
    pub workers: usize,
    /// Workers currently parked waiting for work.
    pub parked: usize,
    /// Unclaimed tasks across the published jobs.
    pub queue_depth: usize,
    /// Batches routed through the pool.
    pub jobs: u64,
    /// Tasks executed across all batches.
    pub tasks: u64,
}

impl PoolStats {
    /// The traffic since `baseline` (an earlier snapshot of the same
    /// pool): counters are subtracted, gauges keep their current value.
    pub fn delta(&self, baseline: &PoolStats) -> PoolStats {
        PoolStats { jobs: self.jobs - baseline.jobs, tasks: self.tasks - baseline.tasks, ..*self }
    }
}

/// A persistent worker pool: `requested - 1` worker threads (clamped to
/// the host's available parallelism) that park between calls.
///
/// Created once and reused for every call (the engine's store owns one
/// for site-parallel kernels; a `Placer` owns one for scoring and branch
/// prefetch), so thread startup is amortized across the whole run.
pub struct SiteParPool {
    inner: Arc<PoolInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for SiteParPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiteParPool").field("workers", &self.handles.len()).finish()
    }
}

impl SiteParPool {
    /// A pool sized for `requested` concurrent chunk executors: the
    /// caller plus `min(requested, available_parallelism) - 1` parked
    /// workers. `requested <= 1` (or a single-core host) yields a pool
    /// with zero threads whose `run` executes inline.
    pub fn new(requested: usize) -> SiteParPool {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        SiteParPool::spawn(requested.clamp(1, cores) - 1)
    }

    /// A pool with exactly `n_workers` threads, bypassing the host-core
    /// clamp — lets tests exercise the chunked paths on any host.
    #[cfg(test)]
    fn with_workers(n_workers: usize) -> SiteParPool {
        SiteParPool::spawn(n_workers)
    }

    fn spawn(n_workers: usize) -> SiteParPool {
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState { queue: Vec::new(), shutdown: false }),
            work_cv: Condvar::new(),
            parked: AtomicUsize::new(0),
            jobs: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
        });
        let handles = (0..n_workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sitepar-{}", i + 1))
                    .spawn(move || worker_loop(inner))
                    .expect("spawn sitepar worker")
            })
            .collect();
        SiteParPool { inner, handles }
    }

    /// Current pool counters.
    pub fn stats(&self) -> PoolStats {
        let queue_depth = lock(&self.inner.state)
            .queue
            .iter()
            .map(|j| j.n_tasks.saturating_sub(j.cursor.load(Ordering::Relaxed)))
            .sum();
        PoolStats {
            workers: self.handles.len(),
            parked: self.inner.parked.load(Ordering::Relaxed),
            queue_depth,
            jobs: self.inner.jobs.load(Ordering::Relaxed),
            tasks: self.inner.tasks.load(Ordering::Relaxed),
        }
    }

    /// Executes `task(0..n_tasks)` across the pool; the calling thread
    /// participates and the call returns only when every task finished.
    /// Tasks must be independent (they run concurrently in any order).
    ///
    /// A panicking task does not stop the others: `run` waits for every
    /// task, then re-raises the first panic on the caller. The pool
    /// stays usable.
    pub fn run(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if n_tasks == 0 {
            return;
        }
        // A single task gains nothing from a hand-off.
        self.execute(n_tasks, task, n_tasks > 1, || ());
    }

    /// Runs `a` on the calling thread while `b` is offered to the pool,
    /// and returns both results once both finished. With no idle worker
    /// (or none at all) the caller runs `b` itself after `a`.
    ///
    /// A panic in either closure is re-raised on the caller only after
    /// the other one finished; `a`'s panic wins when both panic.
    pub fn join<RA, RB: Send>(
        &self,
        a: impl FnOnce() -> RA,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB) {
        let b = Mutex::new(Some(b));
        let rb = Mutex::new(None);
        let ra = self.execute(
            1,
            &|_| {
                let f = lock(&b).take().expect("the join task runs once");
                let r = f();
                *lock(&rb) = Some(r);
            },
            true,
            a,
        );
        let rb = rb.into_inner().unwrap_or_else(|e| e.into_inner());
        (ra, rb.expect("a finished join task left its result"))
    }

    /// Publishes `task(0..n_tasks)` (when `hand_off` and the pool has
    /// workers), runs `caller` on this thread, helps drain the job, and
    /// waits for every task before re-raising the first caught panic.
    fn execute<R>(
        &self,
        n_tasks: usize,
        task: &(dyn Fn(usize) + Sync),
        hand_off: bool,
        caller: impl FnOnce() -> R,
    ) -> R {
        self.inner.jobs.fetch_add(1, Ordering::Relaxed);
        self.inner.tasks.fetch_add(n_tasks as u64, Ordering::Relaxed);
        // SAFETY: erase the borrow lifetime of `task`. The pointer is
        // dereferenced only for claimed indices, all of which complete
        // before `job.wait()` returns below, i.e. within the borrow —
        // panics included, since `drain` catches them.
        let task_ptr: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync)) };
        let job = Arc::new(Job {
            task: task_ptr,
            cursor: AtomicUsize::new(0),
            n_tasks,
            pending: AtomicUsize::new(n_tasks),
            panic: Mutex::new(None),
            done_m: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let published = hand_off && !self.handles.is_empty();
        if published {
            lock(&self.inner.state).queue.push(Arc::clone(&job));
            self.inner.work_cv.notify_all();
        }
        let caller_result = catch_unwind(AssertUnwindSafe(caller));
        job.drain();
        job.wait();
        if published {
            // Unpublish so `task`'s borrow cannot outlive this call
            // through the pool state (workers holding stale Arcs see an
            // exhausted cursor and never touch the pointer again).
            lock(&self.inner.state).queue.retain(|j| !Arc::ptr_eq(j, &job));
        }
        let r = caller_result.unwrap_or_else(|payload| resume_unwind(payload));
        if let Some(payload) = lock(&job.panic).take() {
            resume_unwind(payload);
        }
        r
    }

    /// Parallel [`update_partials`] over `n_chunks` contiguous pattern
    /// ranges. Falls back to one serial kernel call for a single chunk or
    /// tiny pattern counts.
    pub fn update_partials(
        &self,
        layout: &Layout,
        left: Side<'_>,
        right: Side<'_>,
        out: &mut [f64],
        out_scale: &mut [u32],
        n_chunks: usize,
    ) {
        // Chunking with no workers is pure overhead (the caller would
        // execute every chunk itself, paying the per-chunk slicing and
        // SIMD block-remainder cost with zero concurrency), so a
        // worker-less pool always runs the one-call serial kernel.
        if n_chunks <= 1 || layout.patterns < 2 * n_chunks || self.handles.is_empty() {
            update_partials(layout, left, right, out, out_scale, 0..layout.patterns);
            return;
        }
        let ranges = split_ranges(layout.patterns, n_chunks);
        let stride = layout.pattern_stride();
        debug_assert!(out.len() >= layout.clv_len() && out_scale.len() >= layout.patterns);
        let out_ptr = SendPtr(out.as_mut_ptr());
        let scale_ptr = SendPtr(out_scale.as_mut_ptr());
        self.run(ranges.len(), &|i| {
            let range = ranges[i].clone();
            let sub = layout.slice(range.clone());
            // SAFETY: the ranges are disjoint and contiguous, so each
            // task writes a private slice of `out` / `out_scale`, all
            // within the caller's exclusive borrows.
            let (out_chunk, scale_chunk) = unsafe {
                (
                    std::slice::from_raw_parts_mut(
                        out_ptr.get().add(range.start * stride),
                        range.len() * stride,
                    ),
                    std::slice::from_raw_parts_mut(scale_ptr.get().add(range.start), range.len()),
                )
            };
            let l = slice_side(&left, layout, &range);
            let r = slice_side(&right, layout, &range);
            update_partials(&sub, l, r, out_chunk, scale_chunk, 0..sub.patterns);
        });
    }

    /// Parallel [`edge_log_likelihood`] over `n_chunks` pattern ranges;
    /// partial sums are added in range order, so the result is
    /// deterministic for a fixed chunk count.
    #[allow(clippy::too_many_arguments)]
    pub fn edge_log_likelihood(
        &self,
        layout: &Layout,
        u_clv: &[f64],
        u_scale: Option<&[u32]>,
        v: Side<'_>,
        freqs: &[f64],
        rate_weights: &[f64],
        pattern_weights: &[u32],
        n_chunks: usize,
    ) -> f64 {
        if n_chunks <= 1 || layout.patterns < 2 * n_chunks || self.handles.is_empty() {
            return edge_log_likelihood(
                layout,
                u_clv,
                u_scale,
                v,
                freqs,
                rate_weights,
                pattern_weights,
                0..layout.patterns,
            );
        }
        let ranges = split_ranges(layout.patterns, n_chunks);
        let mut partials = vec![0.0f64; ranges.len()];
        let p_ptr = SendPtr(partials.as_mut_ptr());
        self.run(ranges.len(), &|i| {
            let range = ranges[i].clone();
            let sub = layout.slice(range.clone());
            let u = &u_clv[layout.clv_range(&range)];
            let us = u_scale.map(|x| &x[range.clone()]);
            let vv = slice_side(&v, layout, &range);
            let pw = &pattern_weights[range.clone()];
            let val =
                edge_log_likelihood(&sub, u, us, vv, freqs, rate_weights, pw, 0..sub.patterns);
            // SAFETY: task `i` exclusively owns `partials[i]`.
            unsafe { *p_ptr.get().add(i) = val };
        });
        partials.iter().sum()
    }
}

impl Drop for SiteParPool {
    fn drop(&mut self) {
        lock(&self.inner.state).shutdown = true;
        self.inner.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: Arc<PoolInner>) {
    loop {
        let job = {
            let mut st = lock(&inner.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.queue.iter().find(|j| j.has_unclaimed()) {
                    break Arc::clone(job);
                }
                inner.parked.fetch_add(1, Ordering::Relaxed);
                st = inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                inner.parked.fetch_sub(1, Ordering::Relaxed);
            }
        };
        job.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tips::TipTable;

    const DNA_MASKS: [u32; 5] = [0b0001, 0b0010, 0b0100, 0b1000, 0b1111];

    fn jc_pmatrix(t: f64) -> Vec<f64> {
        let e = (-4.0 * t / 3.0f64).exp();
        let same = 0.25 + 0.75 * e;
        let diff = 0.25 - 0.25 * e;
        let mut p = vec![diff; 16];
        for i in 0..4 {
            p[i * 4 + i] = same;
        }
        p
    }

    #[test]
    fn split_ranges_cover() {
        for patterns in [1usize, 7, 100, 101] {
            for chunks in [1usize, 2, 3, 8, 200] {
                let rs = split_ranges(patterns, chunks);
                assert_eq!(rs[0].start, 0);
                assert_eq!(rs.last().unwrap().end, patterns);
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial_update() {
        let patterns = 101;
        let layout = Layout::new(patterns, 2, 4);
        let mut pm = jc_pmatrix(0.2);
        pm.extend(jc_pmatrix(0.6));
        let table = TipTable::build(&layout, &pm, &DNA_MASKS);
        let codes1: Vec<u8> = (0..patterns).map(|i| (i % 5) as u8).collect();
        let codes2: Vec<u8> = (0..patterns).map(|i| ((i * 3 + 1) % 5) as u8).collect();
        let left = Side::Tip { table: &table, codes: &codes1 };
        let right = Side::Tip { table: &table, codes: &codes2 };
        let mut serial = vec![0.0; layout.clv_len()];
        let mut serial_scale = vec![0u32; patterns];
        update_partials(&layout, left, right, &mut serial, &mut serial_scale, 0..patterns);
        // Unclamped pool: the chunked path runs even on a one-core host.
        let pool = SiteParPool::with_workers(2);
        for threads in [2usize, 3, 7] {
            let mut par = vec![0.0; layout.clv_len()];
            let mut par_scale = vec![0u32; patterns];
            pool.update_partials(&layout, left, right, &mut par, &mut par_scale, threads);
            assert_eq!(serial, par, "threads={threads}");
            assert_eq!(serial_scale, par_scale);
        }
    }

    #[test]
    fn parallel_matches_serial_loglik() {
        let patterns = 64;
        let layout = Layout::new(patterns, 1, 4);
        let pm = jc_pmatrix(0.4);
        let table = TipTable::build(&layout, &pm, &DNA_MASKS);
        let codes: Vec<u8> = (0..patterns).map(|i| (i % 4) as u8).collect();
        let mut u_clv = vec![0.0; layout.clv_len()];
        for p in 0..patterns {
            u_clv[p * 4 + (p + 1) % 4] = 1.0;
        }
        let pw: Vec<u32> = (0..patterns).map(|i| 1 + (i % 3) as u32).collect();
        let freqs = [0.25; 4];
        let serial = edge_log_likelihood(
            &layout,
            &u_clv,
            None,
            Side::Tip { table: &table, codes: &codes },
            &freqs,
            &[1.0],
            &pw,
            0..patterns,
        );
        // Unclamped pool: the chunked path runs even on a one-core host.
        let pool = SiteParPool::with_workers(2);
        for threads in [2usize, 4, 5] {
            let par = pool.edge_log_likelihood(
                &layout,
                &u_clv,
                None,
                Side::Tip { table: &table, codes: &codes },
                &freqs,
                &[1.0],
                &pw,
                threads,
            );
            assert!((serial - par).abs() < 1e-9, "threads={threads}: {serial} vs {par}");
        }
    }

    #[test]
    fn tiny_inputs_fall_back_to_serial() {
        let layout = Layout::new(3, 1, 4);
        let pm = jc_pmatrix(0.2);
        let table = TipTable::build(&layout, &pm, &DNA_MASKS);
        let codes = [0u8, 1, 2];
        let mut out = vec![0.0; layout.clv_len()];
        let mut scale = vec![0u32; 3];
        SiteParPool::with_workers(2).update_partials(
            &layout,
            Side::Tip { table: &table, codes: &codes },
            Side::Tip { table: &table, codes: &codes },
            &mut out,
            &mut scale,
            8,
        );
        assert!(out.iter().any(|&v| v > 0.0));
    }

    /// The pool is the whole point: repeated calls must reuse it (no
    /// spawn per call) and its counters must reflect the traffic.
    #[test]
    fn pool_reuses_workers_and_counts_jobs() {
        let pool = SiteParPool::new(4);
        let stats0 = pool.stats();
        assert_eq!(stats0.jobs, 0);
        let hits = AtomicUsize::new(0);
        for _ in 0..10 {
            pool.run(8, &|_i| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 80);
        let stats = pool.stats();
        assert_eq!(stats.jobs, 10);
        assert_eq!(stats.tasks, 80);
        assert_eq!(stats.queue_depth, 0, "all jobs drained");
        // Worker count is host-dependent but bounded by the request.
        assert!(stats.workers < 4);
    }

    /// Every task index is executed exactly once even when tasks outnumber
    /// pool threads many times over.
    #[test]
    fn pool_executes_each_task_exactly_once() {
        let pool = SiteParPool::new(3);
        let marks: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        pool.run(marks.len(), &|i| {
            marks[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, m) in marks.iter().enumerate() {
            assert_eq!(m.load(Ordering::Relaxed), 1, "task {i}");
        }
    }

    /// Dropping a pool must join its workers promptly (no deadlock).
    #[test]
    fn pool_shutdown_joins_workers() {
        let pool = SiteParPool::new(4);
        pool.run(4, &|_| {});
        drop(pool);
    }

    /// Concurrent `run` calls from independent threads may overlap; each
    /// caller must still see all of its own tasks complete.
    #[test]
    fn pool_survives_concurrent_callers() {
        let pool = SiteParPool::new(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        pool.run(7, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 25 * 7);
    }

    /// Runs `body` on its own thread and fails the test if it neither
    /// returns nor panics within `secs` — a hung pool must fail, not
    /// stall the suite.
    fn within(secs: u64, body: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = catch_unwind(AssertUnwindSafe(body));
            let _ = tx.send(r);
        });
        match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
            Ok(Ok(())) => {}
            Ok(Err(payload)) => resume_unwind(payload),
            Err(_) => panic!("pool call hung for {secs}s"),
        }
    }

    /// A task that panics on a worker neither kills the worker nor
    /// strands the caller: `run` re-raises on the caller only after every
    /// other task finished, and the same worker serves the next job.
    #[test]
    fn worker_panic_is_reraised_on_the_caller_after_all_tasks() {
        within(30, || {
            let pool = SiteParPool::with_workers(1);
            let caller = std::thread::current().id();
            // Tasks 0 and 1 meet at the barrier, so they run on two
            // different threads: the caller and the worker.
            let meet = std::sync::Barrier::new(2);
            let done = AtomicUsize::new(0);
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.run(16, &|i| {
                    if i < 2 {
                        meet.wait();
                        if std::thread::current().id() != caller {
                            panic!("injected worker-task panic");
                        }
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }));
            assert!(r.is_err(), "the worker's panic must reach the caller");
            assert_eq!(done.load(Ordering::SeqCst), 15, "every other task finished first");
            // The worker survived: another two-thread rendezvous succeeds.
            let meet = std::sync::Barrier::new(2);
            pool.run(2, &|_| {
                meet.wait();
            });
            let stats = pool.stats();
            assert_eq!((stats.workers, stats.jobs, stats.queue_depth), (1, 2, 0));
        });
    }

    /// A panic on the calling thread waits for the tasks that workers
    /// already claimed (they still borrow the caller's closure) before
    /// unwinding out of the pool.
    #[test]
    fn caller_panic_waits_for_claimed_tasks() {
        within(30, || {
            let pool = SiteParPool::with_workers(1);
            let finished = std::sync::atomic::AtomicBool::new(false);
            let started = std::sync::Barrier::new(2);
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.join(
                    || {
                        started.wait();
                        panic!("injected caller panic");
                    },
                    || {
                        started.wait();
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        finished.store(true, Ordering::SeqCst);
                    },
                )
            }));
            assert!(r.is_err());
            assert!(finished.load(Ordering::SeqCst), "join unwound before its pool task ended");
            assert_eq!(pool.join(|| 1, || 2), (1, 2), "the pool keeps serving");
        });
    }

    /// `join` overlaps its two halves when the pool has a worker, and
    /// runs them in order on the caller when it has none.
    #[test]
    fn join_overlaps_with_a_worker_and_runs_inline_without() {
        within(30, || {
            let pool = SiteParPool::with_workers(1);
            let meet = std::sync::Barrier::new(2);
            let (a, b) = pool.join(
                || {
                    meet.wait();
                    "a"
                },
                || {
                    meet.wait();
                    "b"
                },
            );
            assert_eq!((a, b), ("a", "b"));

            let inline = SiteParPool::with_workers(0);
            let order = Mutex::new(Vec::new());
            let caller = std::thread::current().id();
            inline.join(
                || order.lock().unwrap().push(("a", std::thread::current().id())),
                || order.lock().unwrap().push(("b", std::thread::current().id())),
            );
            assert_eq!(*order.lock().unwrap(), vec![("a", caller), ("b", caller)]);
        });
    }
}
