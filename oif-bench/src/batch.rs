//! The batch workloads (`place-floor`, `place-cliff-aa`): repeated
//! `Placer::place_run` calls over the workload's queries, each checked
//! byte for byte against a cold, unbudgeted, single-thread placement of
//! the same queries through `phyloplace::cli::run_placement`.

use crate::ledger::{median, self_cpu_s, steal_s, vm_hwm_mib, Outcome, Tracer};
use crate::metrics::{mib, EndToEnd, Layers};
use crate::setup::{self, Built};
use crate::workload::{Inputs, SplitMix64, Workload};
use phyloplace::cli::{run_placement, CliOptions};
use phyloplace::place::memplan;
use phyloplace::place::result::to_jplace_with;
use phyloplace::place::{Placer, QueryBatch, RunControl, RunReport};
use phyloplace::tree::Tree;
use std::time::Instant;

/// Set-up is sampled at least this often per run, and otherwise for
/// this share of the measuring window. The samples are spread over the
/// window, between placements, because the host's speed drifts over
/// seconds: a 2 s burst of builds at the start of a run read 2.6 ms in
/// one run and 4.3 ms in the next for the same set-up.
const SETUP_MIN_REPS: usize = 5;
const SETUP_SHARE: f64 = 0.2;
/// The timed loop runs at least this many placements even when one
/// placement outlasts the measuring window.
const MIN_PLACEMENTS: usize = 3;

/// Set-up samples: per build, the step wall seconds and the total wall
/// and CPU seconds.
#[derive(Default)]
pub struct Setups {
    pub steps: Vec<[f64; 5]>,
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
}

impl Setups {
    /// Builds once and records the sample.
    pub fn sample(
        &mut self,
        w: &Workload,
        inputs: &Inputs,
        tracer: &mut Tracer,
    ) -> Result<Built, String> {
        let built = setup::build(w, inputs, w.threads, tracer, self.wall_s.len() as u64)?;
        self.steps.push(built.step_s);
        self.wall_s.push(built.total_s);
        self.cpu_s.push(built.cpu_s);
        Ok(built)
    }

    /// Builds until the set-up samples have taken [`SETUP_SHARE`] of
    /// `elapsed_s` in total.
    fn keep_share(
        &mut self,
        w: &Workload,
        inputs: &Inputs,
        tracer: &mut Tracer,
        elapsed_s: f64,
    ) -> Result<(), String> {
        while self.wall_s.iter().sum::<f64>() < SETUP_SHARE * elapsed_s {
            self.sample(w, inputs, tracer)?;
        }
        Ok(())
    }

    /// Builds until there are at least `n` samples.
    pub fn at_least(
        &mut self,
        w: &Workload,
        inputs: &Inputs,
        tracer: &mut Tracer,
        n: usize,
    ) -> Result<(), String> {
        while self.wall_s.len() < n {
            self.sample(w, inputs, tracer)?;
        }
        Ok(())
    }

    /// Median of each set-up step over the builds.
    pub fn step_medians(&self) -> [f64; 5] {
        std::array::from_fn(|i| median(&self.steps.iter().map(|s| s[i]).collect::<Vec<_>>()))
    }
}

/// Distinct outputs seen, with how many placements produced each.
#[derive(Default)]
pub struct Outputs(Vec<(String, u64)>);

impl Outputs {
    pub fn record(&mut self, jplace: String) {
        match self.0.iter_mut().find(|(s, _)| *s == jplace) {
            Some((_, n)) => *n += 1,
            None => self.0.push((jplace, 1)),
        }
    }

    /// Placements whose output is not `reference`.
    pub fn mismatches(&self, reference: &str) -> u64 {
        self.0.iter().filter(|(s, _)| s != reference).map(|(_, n)| n).sum()
    }

    pub fn total(&self) -> u64 {
        self.0.iter().map(|(_, n)| n).sum()
    }
}

/// The cold reference output: the `place` pipeline with no budget, one
/// thread and the default chunk size.
pub fn cold_reference(inputs: &Inputs, query_fasta: String) -> Result<String, String> {
    let opts = CliOptions {
        tree_text: inputs.tree.clone(),
        ref_fasta: inputs.reference.clone(),
        query_fasta,
        alphabet: inputs.alphabet,
        threads: 1,
        ..Default::default()
    };
    let out = run_placement(&opts).map_err(|e| format!("reference placement: {e}"))?;
    if !out.completed {
        return Err("reference placement did not complete".to_string());
    }
    Ok(out.jplace)
}

/// One measured placement.
struct Placement {
    wall_s: f64,
    report: RunReport,
    traced: bool,
}

fn place_once(
    placer: &Placer,
    tree: &Tree,
    batch: &QueryBatch,
    tracer: &mut Tracer,
    req: u64,
    outputs: &mut Outputs,
) -> Result<Placement, String> {
    let traced = tracer.enabled();
    let span = tracer.open("place_run", req, None);
    let start_ns = tracer.now_ns();
    let t = Instant::now();
    let outcome =
        placer.place_run(batch, RunControl::default()).map_err(|e| format!("place_run: {e}"))?;
    let jplace = to_jplace_with(tree, &outcome.results, outcome.completed);
    let wall_s = t.elapsed().as_secs_f64();
    tracer.end(span);
    let r = &outcome.report;
    let mut at = start_ns;
    for (name, secs) in [
        ("lookup", r.lookup_time.as_secs_f64()),
        ("prescore", r.prescore_time.as_secs_f64()),
        ("thorough", r.thorough_time.as_secs_f64()),
        ("other", other_s(wall_s, r)),
    ] {
        at = tracer.reported(name, req, span, at, secs);
    }
    outputs.record(jplace);
    Ok(Placement { wall_s, report: outcome.report, traced })
}

/// Placement wall time outside the phases the program times itself.
fn other_s(wall_s: f64, r: &RunReport) -> f64 {
    wall_s - (r.lookup_time + r.prescore_time + r.thorough_time).as_secs_f64()
}

pub fn run(w: &Workload, inputs: &Inputs, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(trace);
    let mut setups = Setups::default();
    // `place_run` builds its own slot arena and lookup table; the warm
    // store would only inflate the peak RSS.
    let Built { placer, tree, queries, n_sites, warm, .. } =
        setups.sample(w, inputs, &mut tracer)?;
    drop(warm);
    let batch = QueryBatch::new(&queries, n_sites).map_err(|e| e.to_string())?;
    let mut outputs = Outputs::default();

    // One untimed placement first, so first-touch page faults and lazy
    // pool start-up are not billed to the first sample.
    place_once(&placer, &tree, &batch, &mut Tracer::new(false), 0, &mut outputs)?;
    let mut runs: Vec<Placement> = Vec::new();
    let mut coin = SplitMix64::new(0x7472_6163);
    let (mut cpu_s, mut peak_rss_mib) = (0.0, 0.0);
    let (steal0, t) = (steal_s(), Instant::now());
    while runs.len() < MIN_PLACEMENTS || t.elapsed().as_secs_f64() < seconds {
        // A traced run records spans on a random half of the placements;
        // the other half measures the tracing overhead.
        let req = runs.len() as u64;
        let mut off = Tracer::new(false);
        let tr = if trace && coin.below(2) == 0 { &mut tracer } else { &mut off };
        let cpu0 = self_cpu_s();
        runs.push(place_once(&placer, &tree, &batch, tr, req, &mut outputs)?);
        cpu_s += self_cpu_s() - cpu0;
        if runs.len() == 1 {
            // Before any set-up sample runs beside the placer: later
            // samples hold a second reference context and warm store.
            peak_rss_mib = vm_hwm_mib("self")?;
        }
        setups.keep_share(w, inputs, &mut tracer, t.elapsed().as_secs_f64())?;
    }
    let window_s = t.elapsed().as_secs_f64();
    setups.at_least(w, inputs, &mut tracer, SETUP_MIN_REPS)?;
    let steal_frac = (steal_s() - steal0) / (window_s * host_cpus());

    let mut layers = Layers::default();
    if trace {
        one_thread_pass(w, inputs, &mut layers, &runs, &mut outputs)?;
        crate::probe::calibrate_kernel(placer.ctx(), &mut layers);
    }

    // Outside every timed region: the cold reference, then the check.
    let reference = cold_reference(inputs, inputs.all_queries())?;
    let n = batch.len() as u64;
    let failed = outputs.mismatches(&reference) * n;
    let attempted = outputs.total() * n;

    let first = &runs[0].report;
    let e2e = EndToEnd {
        cpu_ms_per_query: cpu_s * 1e3 / (n as f64 * runs.len() as f64),
        setup_s: median(&setups.cpu_s),
        peak_rss_mib,
        peak_accounted_mib: mib(first.peak_memory),
        clv_recomputes: first.slot_stats.misses as f64,
        ok_frac: (attempted - failed) as f64 / attempted as f64,
    };

    let mut out = Outcome { attempted, failed, steal_frac, ..Default::default() };
    if !trace {
        e2e.push_into(&mut out);
        return Ok(out);
    }
    let med = |f: &dyn Fn(&Placement) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    layers.setup_step_s = setups.step_medians();
    layers.lookup_build_s = med(&|p| p.report.lookup_time.as_secs_f64());
    layers.lookup_mib = mib(memplan::lookup_bytes(placer.ctx()));
    layers.prescore_s = med(&|p| p.report.prescore_time.as_secs_f64());
    layers.n_prescored = first.n_prescored as f64;
    layers.thorough_s = med(&|p| p.report.thorough_time.as_secs_f64());
    layers.n_thorough = first.n_thorough as f64;
    layers.other_s = med(&|p| other_s(p.wall_s, &p.report));
    layers.slots = first.slots as f64;
    layers.slot_stats = first.slot_stats;
    layers.degradation = first.degradation;
    layers.miss_wall_s = med(&|p| p.wall_s);
    let plan = placer.memory_plan(&batch).map_err(|e| e.to_string())?;
    crate::probe::plan_memory(&plan.tracker, &mut layers);
    layers.engine_ms = runs.iter().map(|p| p.report.total_time.as_secs_f64() * 1e3).collect();
    layers.queue_ms =
        runs.iter().map(|p| (p.wall_s - p.report.total_time.as_secs_f64()) * 1e3).collect();
    let split = |traced: bool| -> Vec<f64> {
        runs.iter().filter(|p| p.traced == traced).map(|p| p.wall_s).collect()
    };
    layers.trace_overhead_frac = median(&split(true)) / median(&split(false)) - 1.0;
    layers.wall_queries_per_s =
        med(&|p| n as f64 / (p.wall_s - p.report.lookup_time.as_secs_f64()));
    layers.wall_req_ms = runs.iter().map(|p| p.wall_s * 1e3).collect();
    layers.wall_setup_s = median(&setups.wall_s);
    layers.push_into(&e2e, &mut out);
    crate::write_trace(w, &tracer)?;
    Ok(out)
}

/// vCPUs the host gives this process.
pub fn host_cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// The traced run's 1-thread placement, for the 2-vs-1-thread speed-ups
/// of prescore and thorough scoring. Its output is checked too.
fn one_thread_pass(
    w: &Workload,
    inputs: &Inputs,
    layers: &mut Layers,
    runs: &[Placement],
    outputs: &mut Outputs,
) -> Result<(), String> {
    let mut off = Tracer::new(false);
    let one = setup::build(w, inputs, 1, &mut off, 0)?;
    let batch = QueryBatch::new(&one.queries, one.n_sites).map_err(|e| e.to_string())?;
    let p = place_once(&one.placer, &one.tree, &batch, &mut off, 0, outputs)?;
    let med = |f: &dyn Fn(&RunReport) -> f64| {
        median(&runs.iter().map(|p| f(&p.report)).collect::<Vec<_>>())
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    layers.prescore_speedup_2v1 =
        ratio(p.report.prescore_time.as_secs_f64(), med(&|r| r.prescore_time.as_secs_f64()));
    layers.thorough_speedup_2v1 =
        ratio(p.report.thorough_time.as_secs_f64(), med(&|r| r.thorough_time.as_secs_f64()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, Point};
    use phyloplace::datasets::{pro_ref, serratus, Scale};

    /// A small instance of each batch operating point.
    fn small(point: Point) -> Workload {
        let (name, mut spec) = match point {
            Point::Floor => ("place-floor", pro_ref(Scale::Ci)),
            _ => ("place-cliff-aa", serratus(Scale::Ci)),
        };
        spec.leaves = 24;
        spec.n_queries = 4;
        let mut w = workload::by_name(name).expect("known workload");
        w.spec = spec;
        w.chunk = 2;
        w
    }

    #[test]
    fn ledger_spans_sum_to_the_wall_clock() {
        for point in [Point::Floor, Point::LookupFloor] {
            let w = small(point);
            let inputs = workload::inputs(&w, 1);
            let mut tracer = Tracer::new(true);
            let b = setup::build(&w, &inputs, 2, &mut tracer, 0).unwrap();
            let batch = QueryBatch::new(&b.queries, b.n_sites).unwrap();
            let mut outputs = Outputs::default();
            place_once(&b.placer, &b.tree, &batch, &mut tracer, 0, &mut outputs).unwrap();

            let total = |names: &[&str]| -> f64 {
                names.iter().map(|n| tracer.durations(n).iter().sum::<f64>()).sum()
            };
            let wall = total(&["setup", "place_run"]);
            let mut parts: Vec<&str> = setup::STEPS.to_vec();
            parts.extend(["lookup", "prescore", "thorough", "other"]);
            let sum = total(&parts);
            assert!((sum - wall).abs() <= 0.05 * wall, "{point:?}: parts {sum} vs wall {wall}");

            let reference = cold_reference(&inputs, inputs.all_queries()).unwrap();
            assert_eq!(outputs.mismatches(&reference), 0, "{point:?}: output differs from O");
        }
    }

    #[test]
    fn floor_point_has_no_lookup_and_lookup_floor_has_one() {
        for (point, lookup) in [(Point::Floor, false), (Point::LookupFloor, true)] {
            let w = small(point);
            let b =
                setup::build(&w, &workload::inputs(&w, 2), 1, &mut Tracer::new(false), 0).unwrap();
            assert_eq!(b.warm.use_lookup(), lookup, "{point:?}");
        }
    }
}
