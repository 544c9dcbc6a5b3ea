//! Metric names, units and the result a workload run hands back.

/// End-to-end metrics, reported by every workload with `--trace 0`
/// (`BENCHMARK.json` lists the same names, units and directions).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("forward_ms", "ms"),
    ("adjoint_ms", "ms"),
    ("forward_tail_ms", "ms"),
    ("adjoint_tail_ms", "ms"),
    ("rel_l2_err", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("req_per_s", "req/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.construct_ms", "ms"),
    ("plan.first_apply_extra_ms", "ms"),
    ("spread.plan_ms", "ms"),
    ("fft.plan_ms", "ms"),
    ("deconv.plan_ms", "ms"),
    ("fft.forward_ms", "ms"),
    ("fft.backward_ms", "ms"),
    ("fft.gflops_computed", "GFLOP/s"),
    ("fft.fourstep_axes", "count"),
    ("deconv.embed_ms", "ms"),
    ("deconv.extract_ms", "ms"),
    ("deconv.frac_stream", "ratio"),
    ("interp.apply_ms", "ms"),
    ("interp.ns_per_sample", "ns"),
    ("interp.frac_stream", "ratio"),
    ("interp.tile_revisits", "count"),
    ("spread.apply_ms", "ms"),
    ("spread.ns_per_sample", "ns"),
    ("spread.tile_revisits", "count"),
    ("plan.sort_tile_major", "bool"),
    ("forward.overlap_ms", "ms"),
    ("adjoint.overlap_ms", "ms"),
    ("parallel.dispatch_us", "us"),
    ("forward.speedup", "ratio"),
    ("adjoint.speedup", "ratio"),
    ("registry.hit_ratio", "ratio"),
    ("registry.misses", "count"),
    ("registry.cached_plans", "count"),
    ("registry.checkout_hit_us", "us"),
    ("registry.checkout_miss_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.solo_apply_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("type3.fft_share", "ratio"),
    ("kernel.eval_bytes", "count"),
    ("windows.table_bytes", "count"),
    ("host.stream_gb_s", "GB/s"),
    ("trace.overhead_frac", "ratio"),
];

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// How the value was obtained on this workload (sample count, chosen
    /// percentile, what was timed), printed beside it.
    pub note: String,
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metric table.
    pub lines: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.metrics.push(Metric { name, value, note: note.into() });
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Counts one checked operation; a miss is a failure and is logged.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            // One line per kind of miss is enough to diagnose.
            if !self.lines.iter().any(|l| l.ends_with(&msg)) {
                self.lines.push(format!("CHECK FAILED: {msg}"));
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}
