//! The `serve-reads` workload: the real `phyloplaced` binary as a child
//! process on a Unix socket, driven by a closed loop of client
//! connections (placement clients are pipeline steps that wait for their
//! jplace before sending the next read). Every response is checked byte
//! for byte against a cold placement of that request's queries.

use crate::batch::{cold_reference, host_cpus, Setups};
use crate::ledger::{median, process_cpu_s, steal_s, thread_cpu_s, vm_hwm_mib, Outcome, Tracer};
use crate::metrics::{mib, EndToEnd, Layers};
use crate::workload::{Inputs, SplitMix64, Workload};
use phyloplace::amc::CancelToken;
use phyloplace::place::{memplan, QueryBatch, RunReport};
use phyloplace::seq::fasta;
use phyloplace::serve::proto::{self, Field, Value};
use phyloplace::serve::{EngineSettings, WarmEngine};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Client connections, each with one request in flight.
const CONNECTIONS: usize = 2;
/// Distinct requests; each is placed cold once for the output check.
const POOL: usize = 48;
/// Requests each connection sends before the window opens.
const WARMUP_REQUESTS: usize = 4;
/// `WarmEngine::build` is sampled in this many child processes, half
/// before the window and half after it, for this long in each.
const SETUP_PROCESSES: usize = 6;
const SETUP_PROBE_SECONDS: f64 = 0.5;

/// The request pool: seven single reads to every small batch, the
/// batches cycling through 2–4 queries. The mix is the same for every
/// seed; the seed picks the queries (`Inputs::queries` is already a
/// seeded draw) and, per client, the order requests are sent in.
fn request_pool(inputs: &Inputs) -> Vec<String> {
    let mut next = 0usize;
    (0..POOL)
        .map(|i| {
            let size = if i % 8 == 7 { 2 + (i / 8) % 3 } else { 1 };
            (0..size)
                .map(|_| {
                    next += 1;
                    inputs.queries[(next - 1) % inputs.queries.len()].as_str()
                })
                .collect()
        })
        .collect()
}

/// One request's view from the client side.
struct Sample {
    /// Sent before the measuring window opened; checked, not timed.
    warm: bool,
    start: Instant,
    latency_s: f64,
    engine_ms: f64,
    queries: u64,
    ok: bool,
    traced: bool,
}

/// Sends a request and reads its response line.
fn round_trip(
    conn: &mut BufReader<UnixStream>,
    id: &str,
    query_fasta: &str,
) -> Result<(f64, String), String> {
    let line = proto::render(&[
        Field::Str("id", id),
        Field::Str("op", "place"),
        Field::Str("queries", query_fasta),
    ]);
    let t = Instant::now();
    let stream = conn.get_mut();
    stream.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
    stream.write_all(b"\n").map_err(|e| e.to_string())?;
    let mut resp = String::new();
    conn.read_line(&mut resp).map_err(|e| e.to_string())?;
    if resp.is_empty() {
        return Err("daemon closed the connection".to_string());
    }
    Ok((t.elapsed().as_secs_f64(), resp))
}

/// Parses a place response; `(ok, engine_ms, jplace)`.
fn parse_response(resp: &str) -> (bool, f64, String) {
    let Ok(map) = proto::parse_object(resp.trim_end()) else {
        return (false, 0.0, String::new());
    };
    let ok = map.get("code") == Some(&Value::Str("Ok".to_string()));
    let engine_ms = map.get("latency_us").and_then(Value::as_num).unwrap_or(0.0) / 1e3;
    let jplace = map.get("jplace").and_then(Value::as_str).unwrap_or_default().to_string();
    (ok, engine_ms, jplace)
}

/// One client connection's closed loop. Warm-up requests are checked
/// but not timed; the loop stops sending once `deadline` has passed.
fn client(
    sock: &Path,
    pool: &[String],
    refs: &[String],
    seed: u64,
    deadline: Instant,
    trace: bool,
) -> Result<Vec<Sample>, String> {
    let stream = UnixStream::connect(sock).map_err(|e| format!("connect: {e}"))?;
    let mut conn = BufReader::new(stream);
    let mut rng = SplitMix64::new(seed);
    let mut coin = SplitMix64::new(!seed);
    let mut samples = Vec::new();
    for i in 0.. {
        let warm = i < WARMUP_REQUESTS;
        if !warm && Instant::now() >= deadline {
            break;
        }
        let k = rng.below(pool.len());
        let start = Instant::now();
        let (latency_s, resp) = round_trip(&mut conn, &format!("r{seed:x}-{i}"), &pool[k])?;
        let (ok, engine_ms, jplace) = parse_response(&resp);
        samples.push(Sample {
            warm,
            start,
            latency_s,
            engine_ms,
            queries: pool[k].matches('>').count() as u64,
            ok: ok && jplace == refs[k],
            // A random half of the requests is traced; the other half
            // measures the tracing overhead.
            traced: trace && coin.below(2) == 0,
        });
    }
    Ok(samples)
}

/// Sends a status request on a fresh connection; returns the reply.
fn status(sock: &Path) -> Result<std::collections::BTreeMap<String, Value>, String> {
    let stream = UnixStream::connect(sock).map_err(|e| format!("connect: {e}"))?;
    let mut conn = BufReader::new(stream);
    conn.get_mut().write_all(b"{\"id\":\"st\",\"op\":\"status\"}\n").map_err(|e| e.to_string())?;
    let mut resp = String::new();
    conn.read_line(&mut resp).map_err(|e| e.to_string())?;
    proto::parse_object(resp.trim_end()).map_err(|e| format!("status reply: {e}"))
}

/// The daemon child; killed on drop if it has not been reaped.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const SIGTERM: i32 = 15;

impl Daemon {
    fn spawn(bin: &Path, dir: &Path, sock: &Path) -> Result<Daemon, String> {
        let log = std::fs::File::create(dir.join("daemon.log")).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(bin);
        // SAFETY: the hook runs in the forked child before exec and only
        // calls `prctl`, which is async-signal-safe. PR_SET_PDEATHSIG (1)
        // makes the kernel send SIGTERM to the daemon if the benchmark
        // dies without draining it.
        unsafe {
            cmd.pre_exec(|| {
                prctl(1, SIGTERM as u64, 0, 0, 0);
                Ok(())
            });
        }
        let child = cmd
            .args(["--threads", "2", "--unix"])
            .arg(sock)
            .arg("--tree")
            .arg(dir.join("ref.nwk"))
            .arg("--ref-msa")
            .arg(dir.join("ref.fasta"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut d = Daemon(child);
        let t = Instant::now();
        while UnixStream::connect(sock).is_err() {
            if let Ok(Some(st)) = d.0.try_wait() {
                let log = std::fs::read_to_string(dir.join("daemon.log")).unwrap_or_default();
                return Err(format!("daemon exited at start-up ({st}): {log}"));
            }
            if t.elapsed() > Duration::from_secs(60) {
                return Err("daemon did not listen within 60 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(d)
    }

    /// SIGTERM, then wait for the drain; the daemon must exit 0.
    fn drain(mut self) -> Result<(), String> {
        let pid = i32::try_from(self.0.id()).map_err(|e| e.to_string())?;
        // SAFETY: `kill` only sends a signal; `pid` is our own child,
        // not yet reaped, so the id cannot have been reused.
        if unsafe { kill(pid, SIGTERM) } != 0 {
            return Err("could not signal the daemon".to_string());
        }
        let t = Instant::now();
        loop {
            match self.0.try_wait().map_err(|e| e.to_string())? {
                Some(st) if st.success() => return Ok(()),
                Some(st) => return Err(format!("daemon drained with {st}")),
                None if t.elapsed() > Duration::from_secs(30) => {
                    return Err("daemon did not drain within 30 s".to_string())
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }
}

pub fn run(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon_bin: &Path,
    dir: &Path,
) -> Result<Outcome, String> {
    let pool = request_pool(inputs);
    let mut tracer = Tracer::new(trace);

    let (mut build_cpu_s, mut build_wall_s) = (Vec::new(), Vec::new());
    setup_in_processes(w, seed, &mut tracer, &mut build_cpu_s, &mut build_wall_s)?;

    // The same engine replayed in-process over the pool: slot traffic,
    // memory plan and phase times the daemon does not report.
    let mut layers = Layers::default();
    let mut setups = Setups::default();
    let replica = &setups.sample(w, inputs, &mut tracer)?;
    if trace {
        setups.at_least(w, inputs, &mut tracer, 5)?;
    }
    let mut replica_stats = replica.warm.slot_stats();
    let replay = replay_pool(replica, inputs, &pool)?;
    for r in &replay {
        replica_stats.acquires += r.slot_stats.acquires;
        replica_stats.hits += r.slot_stats.hits;
        replica_stats.misses += r.slot_stats.misses;
        replica_stats.evictions += r.slot_stats.evictions;
    }
    let plan = memplan::plan(
        replica.placer.ctx(),
        replica.placer.config(),
        replica.placer.config().chunk_size,
        replica.n_sites,
    )
    .map_err(|e| e.to_string())?;

    let refs: Vec<String> =
        pool.iter().map(|q| cold_reference(inputs, q.clone())).collect::<Result<_, _>>()?;

    std::fs::write(dir.join("ref.nwk"), &inputs.tree).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("ref.fasta"), &inputs.reference).map_err(|e| e.to_string())?;
    let sock = dir.join("d.sock");
    let daemon = Daemon::spawn(daemon_bin, dir, &sock)?;
    let pid = daemon.0.id().to_string();
    let (cpu0, steal0) = (process_cpu_s(&pid)?, steal_s());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let t_window = Instant::now();
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS as u64)
            .map(|c| {
                let (sock, pool, refs) = (&sock, &pool, &refs);
                s.spawn(move || {
                    client(sock, pool, refs, seed ^ (c << 32) ^ 0xc11e, deadline, trace)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect::<Vec<_>>()
    });
    let window_s = t_window.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s(&pid)? - cpu0;
    let steal_frac = (steal_s() - steal0) / (window_s * host_cpus());
    let st = status(&sock)?;
    let peak_rss_mib = vm_hwm_mib(&pid)?;
    daemon.drain()?;
    setup_in_processes(w, seed, &mut tracer, &mut build_cpu_s, &mut build_wall_s)?;

    let mut all = Vec::new();
    for r in per_client {
        all.extend(r?);
    }
    // Warm-up requests count toward correctness, not toward timing.
    let attempted: u64 = all.iter().map(|s| s.queries).sum();
    let failed: u64 = all.iter().filter(|s| !s.ok).map(|s| s.queries).sum();
    let samples: Vec<Sample> = all.into_iter().filter(|s| !s.warm).collect();
    if samples.is_empty() {
        return Err("no request completed inside the window".to_string());
    }
    for (i, s) in samples.iter().enumerate().filter(|(_, s)| s.traced) {
        let end = s.start + Duration::from_secs_f64(s.latency_s);
        tracer.record("request", i as u64, s.start, end);
    }
    let ok_queries: u64 = samples.iter().filter(|s| s.ok).map(|s| s.queries).sum();
    let e2e = EndToEnd {
        cpu_ms_per_query: cpu_s * 1e3 / ok_queries.max(1) as f64,
        setup_s: mean(&build_cpu_s),
        peak_rss_mib,
        peak_accounted_mib: mib(plan.tracker.peak()),
        clv_recomputes: replica_stats.misses as f64,
        ok_frac: (attempted - failed) as f64 / attempted as f64,
    };
    let mut out = Outcome { attempted, failed, steal_frac, ..Default::default() };
    if !trace {
        e2e.push_into(&mut out);
        return Ok(out);
    }

    let sum = |f: &dyn Fn(&RunReport) -> f64| replay.iter().map(f).sum::<f64>();
    layers.setup_step_s = setups.step_medians();
    layers.lookup_build_s = lookup_build_s(replica, inputs, &pool)?;
    layers.lookup_mib = mib(memplan::lookup_bytes(replica.placer.ctx()));
    layers.prescore_s = sum(&|r| r.prescore_time.as_secs_f64());
    layers.n_prescored = sum(&|r| r.n_prescored as f64);
    layers.thorough_s = sum(&|r| r.thorough_time.as_secs_f64());
    layers.n_thorough = sum(&|r| r.n_thorough as f64);
    layers.other_s =
        sum(&|r| (r.total_time - r.lookup_time - r.prescore_time - r.thorough_time).as_secs_f64());
    layers.slots = replica.warm.slots() as f64;
    layers.slot_stats = replica_stats;
    layers.miss_wall_s = replica.step_s[4] + sum(&|r| r.total_time.as_secs_f64());
    crate::probe::plan_memory(&plan.tracker, &mut layers);
    crate::probe::calibrate_kernel(replica.placer.ctx(), &mut layers);
    let one = one_thread_replay(w, inputs, &pool)?;
    let sum1 = |f: &dyn Fn(&RunReport) -> f64| one.iter().map(f).sum::<f64>();
    layers.prescore_speedup_2v1 =
        sum1(&|r| r.prescore_time.as_secs_f64()) / layers.prescore_s.max(1e-12);
    layers.thorough_speedup_2v1 =
        sum1(&|r| r.thorough_time.as_secs_f64()) / layers.thorough_s.max(1e-12);
    layers.engine_ms = samples.iter().map(|s| s.engine_ms).collect();
    layers.queue_ms = samples.iter().map(|s| s.latency_s * 1e3 - s.engine_ms).collect();
    let num = |k: &str| st.get(k).and_then(Value::as_num).unwrap_or(0.0);
    layers.shed = num("shed");
    layers.internal_errors = num("internal_errors");
    let split = |traced: bool| -> Vec<f64> {
        samples.iter().filter(|s| s.traced == traced).map(|s| s.latency_s).collect()
    };
    layers.trace_overhead_frac = median(&split(true)) / median(&split(false)) - 1.0;
    layers.wall_queries_per_s = ok_queries as f64 / window_s;
    layers.wall_req_ms = samples.iter().map(|s| s.latency_s * 1e3).collect();
    layers.wall_setup_s = mean(&build_wall_s);
    layers.push_into(&e2e, &mut out);
    crate::write_trace(w, &tracer)?;
    Ok(out)
}

/// Set-up as the daemon does it. The same `WarmEngine::build` took
/// 15 ms of CPU in some processes and 22 ms in others, whole runs apart,
/// also with the process pinned to one vCPU, with address randomisation
/// off, and with the allocator keeping freed memory. So it is sampled in
/// [`SETUP_PROCESSES`] / 2 short-lived processes per call, each
/// reporting its median build, and `setup_s` is the mean of those
/// medians.
fn setup_in_processes(
    w: &Workload,
    seed: u64,
    tracer: &mut Tracer,
    cpu_s: &mut Vec<f64>,
    wall_s: &mut Vec<f64>,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    for _ in 0..SETUP_PROCESSES / 2 {
        let span = tracer.open("warm_engine_build", cpu_s.len() as u64, None);
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &seed.to_string(), "--trace", "0"])
            .args(["--seconds", &SETUP_PROBE_SECONDS.to_string(), "--daemon", "-"])
            .args(["--setup-probe", "1"])
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        tracer.end(span);
        let text = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<f64> =
            text.split_whitespace().filter_map(|v| v.parse::<f64>().ok()).collect();
        match (out.status.success(), fields.as_slice()) {
            (true, [cpu, wall]) => {
                cpu_s.push(*cpu);
                wall_s.push(*wall);
            }
            _ => {
                let err = String::from_utf8_lossy(&out.stderr);
                return Err(format!("set-up probe failed ({}): {err}", out.status));
            }
        }
    }
    Ok(())
}

/// The body of a set-up probe process: builds the daemon's engine for
/// `seconds` (at least 3 times) and returns the median CPU and wall
/// seconds of one build.
pub fn setup_probe(w: &Workload, inputs: &Inputs, seconds: f64) -> Result<String, String> {
    let settings = EngineSettings { threads: w.threads, ..Default::default() };
    let (mut cpu_s, mut wall_s) = (Vec::new(), Vec::new());
    let t = Instant::now();
    while cpu_s.len() < 3 || t.elapsed().as_secs_f64() < seconds {
        let (t, cpu0) = (Instant::now(), thread_cpu_s());
        WarmEngine::build(&inputs.tree, &inputs.reference, &settings)?;
        cpu_s.push(thread_cpu_s() - cpu0);
        wall_s.push(t.elapsed().as_secs_f64());
    }
    Ok(format!("{:?} {:?}", median(&cpu_s), median(&wall_s)))
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Places every pool request against the replica's warm store, as the
/// daemon does; returns each run's report.
fn replay_pool(
    replica: &crate::setup::Built,
    inputs: &Inputs,
    pool: &[String],
) -> Result<Vec<RunReport>, String> {
    let token = CancelToken::new();
    pool.iter()
        .map(|q| {
            let rows = fasta::parse(q, inputs.alphabet).map_err(|e| e.to_string())?;
            let batch = QueryBatch::new(&rows, replica.n_sites).map_err(|e| e.to_string())?;
            let o = replica
                .placer
                .place_warm(&replica.warm, &batch, &token)
                .map_err(|e| format!("place_warm: {e}"))?;
            Ok(o.report)
        })
        .collect()
}

fn one_thread_replay(
    w: &Workload,
    inputs: &Inputs,
    pool: &[String],
) -> Result<Vec<RunReport>, String> {
    let one = crate::setup::build(w, inputs, 1, &mut Tracer::new(false), 0)?;
    replay_pool(&one, inputs, pool)
}

/// The lookup build as the program times it: one cold `place_run` of the
/// first pool request on the replica's placer.
fn lookup_build_s(
    replica: &crate::setup::Built,
    inputs: &Inputs,
    pool: &[String],
) -> Result<f64, String> {
    let rows = fasta::parse(&pool[0], inputs.alphabet).map_err(|e| e.to_string())?;
    let batch = QueryBatch::new(&rows, replica.n_sites).map_err(|e| e.to_string())?;
    let o = replica
        .placer
        .place_run(&batch, phyloplace::place::RunControl::default())
        .map_err(|e| format!("place_run: {e}"))?;
    Ok(o.report.lookup_time.as_secs_f64())
}
