//! Per-layer probes that need the program's public types: a calibration
//! timing of the CLV kernel and the memory plan's accounting by category.

use crate::ledger::median;
use crate::metrics::{mib, Layers};
use phyloplace::amc::budget::{MemCategory, MemoryTracker};
use phyloplace::engine::ReferenceContext;
use phyloplace::kernel::kernels::{update_partials, Side};
use phyloplace::tree::EdgeId;
use std::hint::black_box;
use std::time::Instant;

/// Times `phylo_kernel::update_partials` on the context's own layout (so
/// at the kernel tier the run resolved) and fills `clv_update_us` and
/// `bytes_per_update`. Two inner CLVs combine through the transition
/// matrices of edge 0, as in every inner-node recomputation.
pub fn calibrate_kernel(ctx: &ReferenceContext, layers: &mut Layers) {
    let layout = *ctx.layout();
    let n = layout.clv_len();
    let clv: Vec<f64> = (0..n).map(|i| 0.05 + (i % 17) as f64 / 20.0).collect();
    let pmatrix = ctx.pmatrix(EdgeId(0));
    let side = Side::Clv { clv: &clv, scale: None, pmatrix };
    let mut out = vec![0.0; n];
    let mut out_scale = vec![0u32; layout.patterns];
    let mut samples = Vec::new();
    let reps = 16;
    let t_all = Instant::now();
    while samples.len() < 15 || (t_all.elapsed().as_secs_f64() < 0.3 && samples.len() < 400) {
        let t = Instant::now();
        for _ in 0..reps {
            update_partials(
                &layout,
                black_box(side),
                black_box(side),
                black_box(&mut out),
                &mut out_scale,
                0..layout.patterns,
            );
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / reps as f64);
    }
    black_box(&out);
    layers.clv_update_us = median(&samples);
    let clv_bytes = (n * 8 + layout.patterns * 4) as f64;
    layers.bytes_per_update = 3.0 * clv_bytes + 2.0 * (pmatrix.len() * 8) as f64;
}

/// Copies the plan's accounting by category into `layers`.
pub fn plan_memory(tracker: &MemoryTracker, layers: &mut Layers) {
    layers.mem_clv_slots_mib = mib(tracker.current(MemCategory::ClvSlots));
    layers.mem_lookup_mib = mib(tracker.current(MemCategory::LookupTable));
    layers.mem_static_mib = mib(tracker.current(MemCategory::StaticData));
    layers.mem_chunk_buffers_mib = mib(tracker.current(MemCategory::ChunkBuffers));
}
