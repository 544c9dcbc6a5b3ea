//! Fused single-DAG vs phased (join-per-phase) operator-apply latency.
//!
//! The fused execution mode dispatches an entire operator apply as one
//! heterogeneous task graph — scale/zero tiles, per-axis FFT chunks,
//! convolution cells with their privatization reductions, and
//! gather/extract chunks — through a single `run_dag_reuse` call, so the
//! executor never joins between phases. The phased mode is the historical
//! pipeline: one `parallel_for`/spread-DAG dispatch per phase with a full
//! join after each. Both produce bit-identical output (see
//! `tests/scheduler_consistency.rs`), so this benchmark isolates pure
//! join-elimination benefit.
//!
//! Arms: {forward, adjoint} × {64², 192², 64³} × {1, 2, 4 threads} ×
//! {fused, phased}. On the small grid the per-phase work is a few
//! microseconds and join overhead is proportionally largest — that is
//! where fusion must win at 2+ threads; on the large grids the FFT and
//! convolution dominate and fusion must simply not regress.
//!
//! Medians are summarized into `BENCH_fused.json` at the repository root
//! (see `scripts/bench.sh`), including the headline fused-vs-phased
//! speedup per arm.

use nufft_core::{ExecMode, NufftConfig, NufftPlan};
use nufft_math::Complex32;
use nufft_testkit::bench::BenchGroup;
use nufft_testkit::Rng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Repository root: nearest ancestor holding `ROADMAP.md` (mirrors the
/// testkit's results-dir lookup), else the current directory.
fn repo_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("ROADMAP.md").exists() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn mode_name(m: ExecMode) -> &'static str {
    match m {
        ExecMode::Fused => "fused",
        ExecMode::Phased => "phased",
    }
}

/// Records `arm`'s median as the **minimum of `reps` repetitions**. The
/// fused and phased plans run interleaved (phased, fused, phased, fused,
/// …) and each arm keeps its best median, so a host-wide slowdown lasting
/// tens of seconds cannot skew one mode of a pair — noise only ever adds
/// time.
fn record_min(medians: &mut BTreeMap<String, f64>, arm: String, median_ns: f64) {
    let slot = medians.entry(arm).or_insert(f64::INFINITY);
    *slot = slot.min(median_ns);
}

fn bench_case<const D: usize>(
    id: &str,
    n: [usize; D],
    sample_count: usize,
    medians: &mut BTreeMap<String, f64>,
) {
    let mut rng = Rng::seed_from_u64(0xF0_5ED + sample_count as u64);
    let traj = rng.gen_points::<D>(sample_count, -0.5..0.4999);
    let samples = rng.gen_c32_vec(sample_count, 1.0);
    let image_len: usize = n.iter().product();
    let image = rng.gen_c32_vec(image_len, 1.0);

    let reps = if std::env::var("NUFFT_BENCH_FAST").is_ok() { 1 } else { 3 };
    let mut g = BenchGroup::new(format!("fused_{id}"));
    g.sample_size(10)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200));
    for threads in [1usize, 2, 4] {
        let mut plans: Vec<(ExecMode, NufftPlan<D>)> = [ExecMode::Phased, ExecMode::Fused]
            .into_iter()
            .map(|exec_mode| {
                let cfg = NufftConfig {
                    threads,
                    exec_mode,
                    // Pin the decomposition so both modes schedule the same
                    // node set and only the dispatch structure differs.
                    partitions_per_dim: Some(4),
                    ..NufftConfig::default()
                };
                (exec_mode, NufftPlan::new(n, &traj, cfg))
            })
            .collect();
        let mut out_samples = vec![Complex32::ZERO; sample_count];
        let mut out_image = vec![Complex32::ZERO; image_len];

        for _rep in 0..reps {
            for (mode, plan) in plans.iter_mut() {
                let arm = format!("forward/{id}/t{threads}/{}", mode_name(*mode));
                let stats =
                    g.bench_function(&arm, |b| b.iter(|| plan.forward(&image, &mut out_samples)));
                record_min(medians, arm, stats.median_ns);

                let arm = format!("adjoint/{id}/t{threads}/{}", mode_name(*mode));
                let stats =
                    g.bench_function(&arm, |b| b.iter(|| plan.adjoint(&samples, &mut out_image)));
                record_min(medians, arm, stats.median_ns);
            }
        }
    }
    g.finish();
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

const CASE_IDS: [&str; 3] = ["small_64", "large_192", "cube_64"];

/// Writes `BENCH_fused.json` at the repo root: per-arm medians plus the
/// fused-vs-phased speedup (phased_ns / fused_ns; > 1 means fused is
/// faster) for every {op}/{grid}/{threads} combination.
fn write_summary(medians: &BTreeMap<String, f64>) {
    let mut out = String::from("{\n  \"bench\": \"fused\",\n");
    out.push_str("  \"unit\": \"median_ns_per_apply\",\n");
    out.push_str("  \"median_ns\": {\n");
    let last = medians.len().saturating_sub(1);
    for (i, (arm, ns)) in medians.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!("    \"{}\": {ns:.1}{comma}\n", json_escape(arm)));
    }
    out.push_str("  },\n");
    out.push_str("  \"speedup_fused_vs_phased\": {\n");
    let mut lines = Vec::new();
    for op in ["forward", "adjoint"] {
        for id in CASE_IDS {
            for threads in [1usize, 2, 4] {
                let fused = medians.get(&format!("{op}/{id}/t{threads}/fused"));
                let phased = medians.get(&format!("{op}/{id}/t{threads}/phased"));
                if let (Some(fused), Some(phased)) = (fused, phased) {
                    lines.push(format!(
                        "    \"{op}/{}/t{threads}\": {:.3}",
                        json_escape(id),
                        phased / fused
                    ));
                }
            }
        }
    }
    let last = lines.len().saturating_sub(1);
    for (i, line) in lines.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!("{line}{comma}\n"));
    }
    out.push_str("  }\n}\n");

    let path = repo_root().join("BENCH_fused.json");
    match std::fs::write(&path, &out) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

fn main() {
    let mut medians = BTreeMap::new();
    // Small: per-phase work is microseconds, so the D+2 executor joins of
    // the phased pipeline are the dominant scheduler cost.
    bench_case("small_64", [64usize, 64], 4_000, &mut medians);
    // Large 2D: convolution + FFT dominate; fusion must not regress.
    bench_case("large_192", [192usize, 192], 60_000, &mut medians);
    // 3D: one more FFT phase (five joins phased), deeper graph.
    bench_case("cube_64", [64usize, 64, 64], 40_000, &mut medians);
    write_summary(&medians);
}
