//! The repository benchmark: one named workload per run, generated from a
//! seed, with checked outputs and one JSON result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics, records spans around every layer call and writes a
//! Chrome trace and a self-time table to `--out-dir` (default
//! `.bench_out`). The last line of standard output is the result object;
//! the exit code is non-zero when any output check failed. See
//! `perfbench/README.md` for the workloads and the metric map.

mod apply;
mod check;
mod host;
mod report;
mod service;
mod stats;
mod trace;
mod workloads;

use apply::Opts;
use nufft_parallel::exec::Executor;
use report::{unit_of, Report, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;
use trace::Tracer;

pub const WORKLOADS: &[&str] =
    &["mri2d_coils", "vol3d_shuffled", "service_small2d", "type3_1d_wideband"];

static STREAM: OnceLock<host::Stream> = OnceLock::new();

/// The host's triad bandwidth in GB/s, measured once per process.
pub fn stream_ceiling() -> f64 {
    STREAM.get_or_init(|| host::stream_triad(Executor::host_threads())).gb_s
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = ".bench_out".to_string();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--out-dir" => out_dir = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn print_host(a: &Args, threads: usize) {
    let caches: Vec<String> =
        host::caches().iter().map(|&(l, b)| format!("L{l}={}KiB", b >> 10)).collect();
    println!(
        "host: isa={} nproc={threads} caches=[{}] workload={} seed={} seconds={} trace={}",
        nufft_simd::detect_isa().name(),
        caches.join(" "),
        a.workload,
        a.seed,
        a.seconds,
        a.trace as u8
    );
}

fn run(a: &Args, threads: usize, epoch: Instant, tr: &mut Tracer) -> (Report, Vec<Tracer>) {
    let o = Opts { seed: a.seed, seconds: a.seconds, trace: a.trace, threads };
    match a.workload.as_str() {
        "mri2d_coils" => {
            (apply::run(&mut workloads::mri2d_coils(a.seed, threads), &o, tr), Vec::new())
        }
        "vol3d_shuffled" => {
            (apply::run(&mut workloads::vol3d_shuffled(a.seed, threads), &o, tr), Vec::new())
        }
        "type3_1d_wideband" => {
            (apply::run(&mut workloads::type3_1d_wideband(a.seed, threads), &o, tr), Vec::new())
        }
        "service_small2d" => service::run(&o, epoch, tr),
        other => unreachable!("workload {other} passed validation"),
    }
}

fn write_trace(a: &Args, tracers: &[&Tracer]) -> std::io::Result<String> {
    std::fs::create_dir_all(&a.out_dir)?;
    let base = format!("{}/{}-seed{}", a.out_dir, a.workload, a.seed);
    std::fs::write(format!("{base}.trace.json"), trace::chrome_json(tracers, &a.workload, a.seed))?;
    let table = trace::format_self_times(&trace::self_times(tracers));
    std::fs::write(format!("{base}.selftime.txt"), &table)?;
    Ok(format!(
        "{table}trace written to {base}.trace.json ({} spans dropped)",
        trace::dropped(tracers)
    ))
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = Executor::host_threads();
    print_host(&a, threads);
    let epoch = Instant::now();
    let mut tr = Tracer::new(a.trace, epoch, 0, 1 << 18);
    let outcome = catch_unwind(AssertUnwindSafe(|| run(&a, threads, epoch, &mut tr)));
    let Ok((mut rep, client_tracers)) = outcome else {
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        return ExitCode::from(1);
    };
    if a.trace {
        let s = STREAM.get().expect("the traced run measured the ceiling");
        rep.put(
            "host.stream_gb_s",
            s.gb_s,
            format!(
                "triad over {} MiB (4 x LLC {} MiB), computed bytes",
                s.buffer_bytes >> 20,
                s.llc_bytes >> 20
            ),
        );
    }
    for l in &rep.lines {
        println!("{l}");
    }
    if a.trace {
        let mut all: Vec<&Tracer> = vec![&tr];
        all.extend(client_tracers.iter());
        match write_trace(&a, &all) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                eprintln!("perfbench: writing the trace failed: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let wanted = if a.trace { PER_LAYER } else { END_TO_END };
    let mut json = String::new();
    println!("{:<28} {:>16} {:<8} note", "metric", "value", "unit");
    for m in &rep.metrics {
        println!("{:<28} {:>16.6} {:<8} {}", m.name, m.value, unit_of(m.name), m.note);
    }
    for (name, unit) in wanted {
        let value = rep.get(name).unwrap_or_else(|| panic!("workload did not report {name}"));
        assert!(value.is_finite(), "{name} is not finite: {value}");
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    let failed_frac = rep.failed as f64 / rep.attempted.max(1) as f64;
    println!("failed_frac {failed_frac} ({} of {} checked operations)", rep.failed, rep.attempted);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        rep.failed == 0,
        rep.attempted.max(1),
        rep.failed
    );
    if rep.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
