//! The metric set, by name and unit, in the order it is printed. Every
//! workload fills every field, so a run prints the same names whatever
//! it measured; the tests hold these names to `BENCHMARK.json`.

use crate::ledger::Outcome;
use phyloplace::amc::SlotStats;
use phyloplace::place::result::DegradationStats;

/// What a user of the program sees (printed with `--trace 0`). Times
/// here are CPU times: on a shared host the hypervisor steals from 0 to
/// 60% of a vCPU for minutes at a time, which moves wall-clock figures
/// by up to 3x between runs of the same code, while CPU time excludes
/// stolen time. Wall-clock throughput and latency are per-layer figures.
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    /// CPU milliseconds the placing process spent per query placed.
    pub cpu_ms_per_query: f64,
    /// CPU seconds from input text to a placer ready to score, over many
    /// builds (see `batch::Setups` and `serve::setup_in_processes`).
    pub setup_s: f64,
    /// `VmHWM` of the process that placed the queries.
    pub peak_rss_mib: f64,
    /// The program's accounted peak, the quantity `--maxmem` bounds.
    pub peak_accounted_mib: f64,
    /// CLV slot misses over set-up plus placement.
    pub clv_recomputes: f64,
    /// Queries with correct output over queries attempted.
    pub ok_frac: f64,
}

impl EndToEnd {
    pub fn push_into(&self, out: &mut Outcome) {
        out.push("cpu_ms_per_query", self.cpu_ms_per_query, "ms");
        out.push("setup_s", self.setup_s, "s");
        out.push("peak_rss_mib", self.peak_rss_mib, "MiB");
        out.push("peak_accounted_mib", self.peak_accounted_mib, "MiB");
        out.push("clv_recomputes", self.clv_recomputes, "count");
        out.push("ok_frac", self.ok_frac, "ratio");
    }
}

/// One figure per layer boundary the benchmark calls across (printed
/// with `--trace 1`).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Median seconds of each set-up step (`setup::STEPS`).
    pub setup_step_s: [f64; 5],
    pub lookup_build_s: f64,
    /// Size of the lookup table for this reference, whether or not the
    /// budget lets it be built.
    pub lookup_mib: f64,
    pub prescore_s: f64,
    pub n_prescored: f64,
    pub prescore_speedup_2v1: f64,
    pub thorough_s: f64,
    pub n_thorough: f64,
    pub thorough_speedup_2v1: f64,
    /// Placement wall time outside lookup build, prescore and thorough.
    pub other_s: f64,
    pub slots: f64,
    pub slot_stats: SlotStats,
    pub degradation: DegradationStats,
    /// Median microseconds of one `update_partials` call on the run's
    /// own layout and kernel tier.
    pub clv_update_us: f64,
    /// Wall seconds of the placement the slot misses were counted in.
    pub miss_wall_s: f64,
    /// Bytes one CLV update reads and writes (two child CLVs, their
    /// transition matrices, the parent CLV and scalers).
    pub bytes_per_update: f64,
    /// Accounted MiB per category of the memory plan.
    pub mem_clv_slots_mib: f64,
    pub mem_lookup_mib: f64,
    pub mem_static_mib: f64,
    pub mem_chunk_buffers_mib: f64,
    /// Time the engine reports per request, and the rest of the
    /// caller-side latency (queueing, transport, rendering).
    pub engine_ms: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub shed: f64,
    pub internal_errors: f64,
    /// Traced over untraced median request latency, minus one.
    pub trace_overhead_frac: f64,
    /// Wall-clock view: queries per second of placement, request
    /// latencies in ms (a request is one `place_run` call in the batch
    /// workloads), and the median set-up.
    pub wall_queries_per_s: f64,
    pub wall_req_ms: Vec<f64>,
    pub wall_setup_s: f64,
}

impl Layers {
    pub fn push_into(&self, e2e: &EndToEnd, out: &mut Outcome) {
        use crate::ledger::{median, percentile_rank};
        let s = &self.setup_step_s;
        out.push("setup.parse_s", s[0], "s");
        out.push("setup.compress_s", s[1], "s");
        out.push("setup.model_s", s[2], "s");
        out.push("setup.context_s", s[3], "s");
        out.push("setup.warm_s", s[4], "s");
        out.push("lookup.build_s", self.lookup_build_s, "s");
        out.push("lookup.mib", self.lookup_mib, "MiB");
        out.push("place.prescore_s", self.prescore_s, "s");
        out.push("place.n_prescored", self.n_prescored, "count");
        out.push("place.prescore_ns_per_pair", per(self.prescore_s * 1e9, self.n_prescored), "ns");
        out.push("place.prescore_speedup_2v1", self.prescore_speedup_2v1, "x");
        out.push("place.thorough_s", self.thorough_s, "s");
        out.push("place.n_thorough", self.n_thorough, "count");
        out.push("place.thorough_us_per_pair", per(self.thorough_s * 1e6, self.n_thorough), "us");
        out.push("place.thorough_speedup_2v1", self.thorough_speedup_2v1, "x");
        out.push("place.other_s", self.other_s, "s");
        let st = &self.slot_stats;
        out.push("slot.count", self.slots, "count");
        out.push("slot.acquires", st.acquires as f64, "count");
        out.push("slot.hits", st.hits as f64, "count");
        out.push("slot.misses", st.misses as f64, "count");
        out.push("slot.evictions", st.evictions as f64, "count");
        out.push("slot.hit_ratio", per(st.hits as f64, st.acquires as f64), "ratio");
        let d = &self.degradation;
        out.push("degrade.prefetch_disabled", d.prefetch_disabled as f64, "count");
        out.push("degrade.block_clamped", d.block_clamped as f64, "count");
        out.push("degrade.flush_retries", d.flush_retries as f64, "count");
        let update_s = st.misses as f64 * self.clv_update_us * 1e-6;
        out.push("kernel.clv_update_us", self.clv_update_us, "us");
        out.push("kernel.clv_update_share", per(update_s, self.miss_wall_s), "ratio");
        let gib = st.misses as f64 * self.bytes_per_update / (1u64 << 30) as f64;
        out.push("kernel.clv_gib_moved_computed", gib, "GiB");
        out.push("mem.clv_slots_mib", self.mem_clv_slots_mib, "MiB");
        out.push("mem.lookup_mib", self.mem_lookup_mib, "MiB");
        out.push("mem.static_mib", self.mem_static_mib, "MiB");
        out.push("mem.chunk_buffers_mib", self.mem_chunk_buffers_mib, "MiB");
        out.push("mem.rss_over_accounted_mib", e2e.peak_rss_mib - e2e.peak_accounted_mib, "MiB");
        out.push("serve.engine_ms_p50", median(&self.engine_ms), "ms");
        out.push("serve.engine_ms_p99", percentile_rank(&self.engine_ms, 99.0), "ms");
        out.push("serve.queue_ms_p50", median(&self.queue_ms), "ms");
        out.push("serve.queue_ms_p99", percentile_rank(&self.queue_ms, 99.0), "ms");
        out.push("serve.shed", self.shed, "count");
        out.push("serve.internal_errors", self.internal_errors, "count");
        out.push("wall.queries_per_s", self.wall_queries_per_s, "1/s");
        out.push("wall.req_p50_ms", median(&self.wall_req_ms), "ms");
        out.push("wall.req_p99_ms", percentile_rank(&self.wall_req_ms, 99.0), "ms");
        out.push("wall.req_samples", self.wall_req_ms.len() as f64, "count");
        out.push("wall.setup_s", self.wall_setup_s, "s");
        out.push("host.steal_frac", out.steal_frac, "ratio");
        out.push("trace.overhead_frac", self.trace_overhead_frac, "ratio");
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Bytes in MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`, read with
    /// a scan for `"name"`/`"unit"` pairs between two section keys.
    fn section(text: &str, key: &str, next: Option<&str>) -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let end = next.map_or(text.len(), |n| text.find(&format!("\"{n}\"")).expect("next"));
        let body = &text[start..end];
        let field = |chunk: &str, k: &str| -> Option<String> {
            let at = chunk.find(&format!("\"{k}\""))?;
            let rest = &chunk[at + k.len() + 2..];
            let open = rest.find('"')? + 1;
            let close = rest[open..].find('"')? + open;
            Some(rest[open..close].to_string())
        };
        body.split('{')
            .skip(1)
            .filter_map(|c| Some((field(c, "name")?, field(c, "unit").unwrap_or_default())))
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    fn printed(out: &Outcome) -> Vec<(String, String)> {
        out.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let text = benchmark_json();
        let e2e = EndToEnd::default();
        let mut out = Outcome::default();
        e2e.push_into(&mut out);
        assert_eq!(printed(&out), section(&text, "end_to_end", Some("per_layer")));
        let mut out = Outcome::default();
        Layers::default().push_into(&e2e, &mut out);
        assert_eq!(printed(&out), section(&text, "per_layer", None));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let text = benchmark_json();
        let names: Vec<String> = text
            [text.find("\"workloads\"").unwrap()..text.find("\"end_to_end\"").unwrap()]
            .split("\"name\"")
            .skip(1)
            .map(|c| c.split('"').nth(1).unwrap().to_string())
            .collect();
        assert_eq!(names, crate::workload::NAMES);
    }
}
