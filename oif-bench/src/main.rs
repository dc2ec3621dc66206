//! End-to-end and per-layer benchmark of phyloplace at the paper's three
//! operating points (Table II): F (`place-floor`), I (`place-cliff-aa`)
//! and O (`serve-reads`). See `README.md` next to this crate.
//!
//! ```text
//! oif-bench --daemon PATH/phyloplaced --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`). The line before it
//! records the host. Any failure exits non-zero without a result line.

mod batch;
mod ledger;
mod metrics;
mod probe;
mod serve;
mod setup;
mod workload;

use std::path::{Path, PathBuf};

/// Scratch files of a run (daemon inputs and socket) live here, under
/// the working directory; traces are kept, the rest is removed.
const WORK_DIR: &str = ".bench_work";

struct Args {
    daemon: PathBuf,
    workload: workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set by `serve-reads` for its own child processes: only time
    /// `WarmEngine::build` and print the medians.
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut daemon, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    let mut setup_probe = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--daemon" => daemon = Some(PathBuf::from(&value)),
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {:?}", workload::NAMES)
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--setup-probe" => setup_probe = value == "1",
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let need = |name: &str| format!("--{name} is required");
    Ok(Args {
        daemon: daemon.ok_or_else(|| need("daemon"))?,
        workload: workload.ok_or_else(|| need("workload"))?,
        seed: seed.ok_or_else(|| need("seed"))?,
        seconds: seconds.ok_or_else(|| need("seconds"))?,
        trace: trace.ok_or_else(|| need("trace"))?,
        setup_probe,
    })
}

/// Writes a traced run's spans to `.bench_work/trace-<workload>.jsonl`.
pub fn write_trace(w: &workload::Workload, tracer: &ledger::Tracer) -> Result<(), String> {
    let path = Path::new(WORK_DIR).join(format!("trace-{}.jsonl", w.name));
    tracer.write(&path).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<String, String> {
    let w = &args.workload;
    let inputs = workload::inputs(w, args.seed);
    if args.setup_probe {
        return serve::setup_probe(w, &inputs, args.seconds);
    }
    let dir = Path::new(WORK_DIR).join(format!("{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = if w.is_serve() {
        serve::run(w, &inputs, args.seed, args.seconds, args.trace, &args.daemon, &dir)
    } else {
        batch::run(w, &inputs, args.seconds, args.trace)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = result?;
    let tier = phyloplace::kernel::TierChoice::Auto.resolve().name();
    Ok(format!("{}\n{}", ledger::host_facts(tier, outcome.steal_frac), outcome.to_json()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("oif-bench: {msg}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(lines) => println!("{lines}"),
        Err(msg) => {
            eprintln!("oif-bench: {}: {msg}", args.workload.name);
            std::process::exit(1);
        }
    }
}
