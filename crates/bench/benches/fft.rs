//! FFT substrate benchmarks.
//!
//! Two families, both on the `nufft-testkit` harness:
//!
//! 1. **1D lengths the NUFFT actually uses** — power-of-two, mixed-radix
//!    and Bluestein oversampled grids.
//! 2. **Strided-axis execution paths** — the Figure-11-style grid: for each
//!    ISA level the host supports (scalar / SSE / AVX2+FMA) the per-line
//!    reference arm vs the batched tile arm (`crates/fft/src/batch.rs`) on
//!    a 2D 256² plane and a 3D 64³ volume, covering every non-contiguous
//!    axis. Both arms are bit-identical at a fixed level, so the comparison
//!    is pure execution-strategy cost.
//!
//! After the strided sweep the medians are summarized into
//! `BENCH_fft.json` at the repository root (see `scripts/bench.sh`),
//! including the headline batched-AVX2 vs per-line-scalar speedups.

use nufft_fft::{Direction, Fft, FftNd};
use nufft_math::Complex32;
use nufft_simd::{detect_isa, set_isa_override, IsaLevel};
use nufft_testkit::bench::BenchGroup;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

fn signal(n: usize) -> Vec<Complex32> {
    (0..n).map(|i| Complex32::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos())).collect()
}

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

fn bench_1d() {
    let mut g = BenchGroup::new("fft_1d");
    g.sample_size(15)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    // 256/512: radix-4/2 paths; 300 = 2²·3·5²: mixed radix (the α=1.25
    // Table IV grid); 688 = 16·43: Bluestein (the Table V grid); 2401 = 7⁴,
    // 1430 = 2·5·11·13 and 11760 = 2⁴·3·5·7²: the odd radices type-3
    // planning picks (`next_fast_len`).
    for n in [256usize, 512, 300, 688, 2401, 1430, 11760] {
        let plan = Fft::new(n);
        let mut data = signal(n);
        let mut scratch = vec![Complex32::ZERO; plan.scratch_len()];
        g.throughput(n as u64);
        g.bench_function(format!("c2c_{n}"), |b| {
            b.iter(|| plan.process_with_scratch(&mut data, &mut scratch, Direction::Forward))
        });
    }
    g.finish();
}

/// Benches every {ISA level} × {per-line, batched} arm on the strided axes
/// of `shape`, recording median ns/iteration per arm into `medians` under
/// keys `"{id}/{isa}/{path}"`.
fn bench_strided(id: &str, shape: &[usize], medians: &mut BTreeMap<String, f64>) {
    let plan = FftNd::new(shape);
    let input = signal(plan.len());
    let mut data = input.clone();
    let strided: Vec<usize> = (0..shape.len()).filter(|&a| plan.axis_stride(a) > 1).collect();

    let detected = detect_isa();
    let levels: Vec<IsaLevel> = [IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma]
        .into_iter()
        .filter(|&l| l <= detected)
        .collect();

    let mut g = BenchGroup::new("fft_strided");
    g.sample_size(12)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    g.throughput((plan.len() * strided.len()) as u64);
    for &level in &levels {
        set_isa_override(level).expect("detected level must be accepted");
        for batched in [false, true] {
            let path = if batched { "batched" } else { "per_line" };
            let arm = format!("{id}/{}/{path}", level.name());
            let stats = g.bench_function(&arm, |b| {
                b.iter(|| {
                    // Fresh input every iteration: repeated in-place
                    // transforms would otherwise grow without bound.
                    data.copy_from_slice(&input);
                    for &axis in &strided {
                        if batched {
                            plan.transform_axis(&mut data, axis, Direction::Forward);
                        } else {
                            plan.transform_axis_per_line(&mut data, axis, Direction::Forward);
                        }
                    }
                })
            });
            medians.insert(arm, stats.median_ns);
        }
    }
    set_isa_override(detected).expect("restoring detected level must succeed");
    g.finish();
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes `BENCH_fft.json` at the repo root: per-arm medians plus headline
/// batched-AVX2 vs per-line-scalar speedups for each strided case.
fn write_summary(medians: &BTreeMap<String, f64>, cases: &[&str]) {
    let mut out = String::from("{\n  \"bench\": \"fft_strided\",\n");
    out.push_str("  \"unit\": \"median_ns_per_iteration\",\n");
    out.push_str(&format!("  \"isa_detected\": \"{}\",\n", json_escape(detect_isa().name())));
    out.push_str("  \"median_ns\": {\n");
    let last = medians.len().saturating_sub(1);
    for (i, (arm, ns)) in medians.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!("    \"{}\": {ns:.1}{comma}\n", json_escape(arm)));
    }
    out.push_str("  },\n");
    out.push_str("  \"speedup_batched_avx2_vs_per_line_scalar\": {\n");
    let avx = IsaLevel::Avx2Fma.name();
    let speedups: Vec<String> = cases
        .iter()
        .filter_map(|id| {
            let fast = medians.get(&format!("{id}/{avx}/batched"))?;
            let base = medians.get(&format!("{id}/scalar/per_line"))?;
            Some(format!("    \"{}\": {:.3}", json_escape(id), base / fast))
        })
        .collect();
    let last = speedups.len().saturating_sub(1);
    for (i, line) in speedups.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!("{line}{comma}\n"));
    }
    out.push_str("  }\n}\n");

    let path = repo_root().join("BENCH_fft.json");
    match std::fs::write(&path, &out) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

fn main() {
    bench_1d();

    let mut medians = BTreeMap::new();
    let cases: [(&str, &[usize]); 2] = [("2d_256", &[256, 256]), ("3d_64", &[64, 64, 64])];
    for (id, shape) in cases {
        bench_strided(id, shape, &mut medians);
    }
    write_summary(&medians, &["2d_256", "3d_64"]);
}
