//! The run loop shared by the three plan-apply workloads: set-up, checked
//! steady-state forward/adjoint applies, and (traced) the per-layer
//! probes of type-1/2 plans.

use crate::check::{all_bitwise_eq, all_close, bitwise_eq, dot_mismatch, par_reference, subset};
use crate::report::Report;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use nufft_core::registry::{ApplyOp, ApplyRequest, NufftService, PlanRegistry, RegistryStats};
use nufft_core::tasks::SortMode;
use nufft_core::{DeconvOp, FftOp, InterpKernel, InterpOp, NufftPlan, SpreadOp};
use nufft_fft::{Direction, FftNd};
use nufft_math::error::rel_l2_mixed;
use nufft_math::{Complex32, Complex64};
use nufft_parallel::exec::{Executor, JobPriority};
use nufft_traj::Trajectory;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
}

/// What the per-layer probes get from the end-to-end part of the run.
pub struct LayerCtx {
    pub threads: usize,
    pub seconds: f64,
    pub stream_gb_s: f64,
    /// Steady-state medians of the workload's own apply, in seconds.
    pub forward_s: f64,
    pub adjoint_s: f64,
}

/// One plan-apply workload: its generated inputs, its output buffers and
/// how to build and apply its plan.
pub trait ApplyWorkload: Sync {
    type Plan;
    /// Set-ups per run; `setup_s` is their median.
    fn setup_reps(&self) -> usize;
    /// Forward outputs per channel checked against the direct oracle.
    fn check_points(&self) -> usize;

    fn build(&self, threads: usize) -> Self::Plan;
    fn forward(&mut self, plan: &mut Self::Plan);
    fn adjoint(&mut self, plan: &mut Self::Plan);
    fn fwd_in(&self) -> &[Vec<Complex32>];
    fn adj_in(&self) -> &[Vec<Complex32>];
    fn fwd_out(&self) -> &[Vec<Complex32>];
    fn adj_out(&self) -> &[Vec<Complex32>];
    /// Exact forward values of channel `ch` at output indices `idx`.
    fn reference(&self, ch: usize, idx: &[usize]) -> Vec<Complex64>;
    /// The relative L2 error the plan's configuration promises.
    fn budget(&self) -> f64;
    /// Resolved kernel family, W, σ and policies of a built plan.
    fn describe(&self, plan: &Self::Plan) -> String;
    fn layers(&mut self, plan: &mut Self::Plan, ctx: &LayerCtx, tr: &mut Tracer, rep: &mut Report);
}

/// Dot-test mismatch allowed between a checked forward and the adjoint;
/// f32 rounding leaves about 1e-7 to 4e-7 on these workloads.
pub const DOT_TOL: f64 = 1e-4;

pub fn run<W: ApplyWorkload>(w: &mut W, o: &Opts, tr: &mut Tracer) -> Report {
    let mut rep = Report::default();

    // Set-up: constructor until the first forward and first adjoint have
    // returned, repeated; every repetition's outputs must replay bitwise.
    let (mut setups, mut constructs, mut firsts) = (Vec::new(), Vec::new(), Vec::new());
    let mut plan: Option<W::Plan> = None;
    let (mut ref_fwd, mut ref_adj) = (Vec::new(), Vec::new());
    let (mut fwd_ok, mut adj_ok) = (true, true);
    for r in 0..w.setup_reps() {
        drop(plan.take());
        let ((p, tc, tfirst), total) = tr.time(true, "setup", r as u64, |tr| {
            let (mut p, tc) = tr.time(true, "plan.construct", r as u64, |_| w.build(o.threads));
            let (_, tf) = tr.time(true, "first.forward", r as u64, |_| w.forward(&mut p));
            let (_, ta) = tr.time(true, "first.adjoint", r as u64, |_| w.adjoint(&mut p));
            (p, tc, tf + ta)
        });
        setups.push(total);
        constructs.push(tc);
        firsts.push(tfirst);
        if r == 0 {
            rep.line(format!("resolved: {}", w.describe(&p)));
            ref_fwd = w.fwd_out().to_vec();
            ref_adj = w.adj_out().to_vec();
            let (err, mismatch) = tr.span("check.oracle", 0, |_| verify_reference(w, o, &mut rep));
            fwd_ok = err <= w.budget();
            adj_ok = fwd_ok && mismatch <= DOT_TOL;
            rep.put("rel_l2_err", err, format!("budget {:.2e}", w.budget()));
            rep.line(format!("adjoint dot-test mismatch {mismatch:.2e} (tolerance {DOT_TOL:.0e})"));
        }
        let same_fwd = all_bitwise_eq(w.fwd_out(), &ref_fwd);
        let same_adj = all_bitwise_eq(w.adj_out(), &ref_adj);
        rep.check(fwd_ok && same_fwd, || "forward output (set-up)".into());
        rep.check(adj_ok && same_adj, || "adjoint output (set-up)".into());
        plan = Some(p);
    }
    let mut plan = plan.expect("at least one set-up");

    // Steady state. With tracing on, every other pair is recorded so
    // traced and untraced applies interleave under the same conditions.
    let (mut fwd, mut adj, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fwd_traced, mut adj_traced) = (Vec::new(), Vec::new());
    w.forward(&mut plan);
    w.adjoint(&mut plan);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(o.seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let traced = o.trace && i % 2 == 1;
        let (_, tf) = tr.time(traced, "apply.forward", i, |_| w.forward(&mut plan));
        rep.check(fwd_ok && all_bitwise_eq(w.fwd_out(), &ref_fwd), || "forward output".into());
        let (_, ta) = tr.time(traced, "apply.adjoint", i, |_| w.adjoint(&mut plan));
        rep.check(adj_ok && all_bitwise_eq(w.adj_out(), &ref_adj), || "adjoint output".into());
        if traced {
            fwd_traced.push(tf);
            adj_traced.push(ta);
        } else {
            fwd.push(tf);
            adj.push(ta);
            pairs.push(tf + ta);
        }
        i += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();

    rep.put("setup_s", median(&setups), format!("median of {} set-ups", setups.len()));
    put_timing(&mut rep, "forward_ms", "forward_tail_ms", &fwd, "median", tail);
    put_timing(&mut rep, "adjoint_ms", "adjoint_tail_ms", &adj, "median", tail);
    rep.put("peak_rss_mib", crate::host::peak_rss_mib(), "VmHWM");
    // A request here is one forward plus one adjoint apply, the unit of
    // work of an iterative solver step.
    let n = pairs.len();
    rep.put("req_per_s", i as f64 / elapsed, format!("forward+adjoint pairs, n={}", i));
    rep.put("req_p50_ms", median(&pairs) * 1e3, format!("n={n}"));
    // A run holds about a hundred pairs, too few for a measured p99: the
    // tail rule (at least ten beyond, capped at p99) picks the percentile.
    let (t, pct, _) = tail(&pairs);
    rep.put("req_p99_ms", t * 1e3, format!("p{pct:.1}, n={n}"));

    if o.trace {
        let ctx = LayerCtx {
            threads: o.threads,
            seconds: o.seconds,
            stream_gb_s: crate::stream_ceiling(),
            forward_s: median(&fwd),
            adjoint_s: median(&adj),
        };
        let overhead =
            (median(&fwd_traced) / ctx.forward_s + median(&adj_traced) / ctx.adjoint_s) / 2.0 - 1.0;
        rep.put(
            "trace.overhead_frac",
            overhead,
            format!(
                "traced/untraced forward_ms and adjoint_ms, n={}+{}",
                fwd_traced.len(),
                fwd.len()
            ),
        );
        let extra = median(&firsts) - ctx.forward_s - ctx.adjoint_s;
        rep.put("plan.construct_ms", median(&constructs) * 1e3, "constructor alone");
        rep.put("plan.first_apply_extra_ms", extra * 1e3, "first forward+adjoint − steady medians");
        speedup(w, &ref_fwd, &ref_adj, &ctx, tr, &mut rep);
        w.layers(&mut plan, &ctx, tr, &mut rep);
    }
    rep
}

/// `(rel_l2_err, dot-test mismatch)` of the current outputs.
fn verify_reference<W: ApplyWorkload>(w: &W, o: &Opts, rep: &mut Report) -> (f64, f64) {
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for ch in 0..w.fwd_out().len() {
        let out = &w.fwd_out()[ch];
        let idx = subset(o.seed.wrapping_add(ch as u64), out.len(), w.check_points());
        want.extend(par_reference(&idx, o.threads, |part| w.reference(ch, part)));
        got.extend(idx.iter().map(|&i| out[i]));
    }
    rep.line(format!("oracle: {} forward outputs checked against the direct DTFT", got.len()));
    let err = rel_l2_mixed(&got, &want);
    let mismatch = (0..w.fwd_out().len())
        .map(|c| dot_mismatch(&w.fwd_in()[c], &w.fwd_out()[c], &w.adj_in()[c], &w.adj_out()[c]))
        .fold(0.0, f64::max);
    (err, mismatch)
}

/// A timing's median and its tail (by `tail_of`, see [`tail`]) under two
/// metric names.
pub fn put_timing(
    rep: &mut Report,
    med: &'static str,
    tail_name: &'static str,
    v: &[f64],
    what: &str,
    tail_of: fn(&[f64]) -> (f64, f64, usize),
) {
    let (t, pct, n) = tail_of(v);
    rep.put(med, median(v) * 1e3, format!("{what}, n={n}"));
    rep.put(tail_name, t * 1e3, format!("p{pct:.1}, n={n}"));
}

/// 1-thread ÷ `nproc`-thread median of the same apply. The default
/// partition count follows the thread count, and bitwise determinism
/// holds only for a pinned partition layout, so the 1-thread outputs must
/// match the reference to f32 reordering noise.
fn speedup<W: ApplyWorkload>(
    w: &mut W,
    ref_fwd: &[Vec<Complex32>],
    ref_adj: &[Vec<Complex32>],
    ctx: &LayerCtx,
    tr: &mut Tracer,
    rep: &mut Report,
) {
    let mut p1 = tr.span("plan.construct.1thread", 0, |_| w.build(1));
    let (mut f1, mut a1) = (Vec::new(), Vec::new());
    // Enough repetitions for a median, bounded to about a quarter run.
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.25);
    for r in 0..12u64 {
        let (_, tf) = tr.time(true, "apply.forward.1thread", r, |_| w.forward(&mut p1));
        let (_, ta) = tr.time(true, "apply.adjoint.1thread", r, |_| w.adjoint(&mut p1));
        rep.check(all_close(w.fwd_out(), ref_fwd), || "1-thread forward output".into());
        rep.check(all_close(w.adj_out(), ref_adj), || "1-thread adjoint output".into());
        if r > 0 {
            f1.push(tf);
            a1.push(ta);
        }
        if r >= 3 && Instant::now() > deadline {
            break;
        }
    }
    let note = format!("at {} threads, n={}", ctx.threads, f1.len());
    rep.put("forward.speedup", median(&f1) / ctx.forward_s, note.clone());
    rep.put("adjoint.speedup", median(&a1) / ctx.adjoint_s, note);
}

/// Median round trip of an empty `parallel_for` on `exec`, in µs.
pub fn dispatch_us(exec: &Executor, tr: &mut Tracer) -> f64 {
    let n = exec.threads();
    let t: Vec<f64> = (0..2000)
        .map(|r| {
            tr.time(r % 100 == 0, "parallel.dispatch", r, |_| exec.parallel_for(n, 1, |_, _| {})).1
        })
        .collect();
    median(&t) * 1e6
}

/// Runs `f` at least `min` times and until `secs` have passed (at most
/// 200 times); returns the median of each of the timings it reports.
pub fn repeat<const K: usize>(
    min: usize,
    secs: f64,
    mut f: impl FnMut(u64) -> [f64; K],
) -> [f64; K] {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut t: [Vec<f64>; K] = core::array::from_fn(|_| Vec::new());
    for r in 0..200 {
        for (v, x) in t.iter_mut().zip(f(r)) {
            v.push(x);
        }
        if r + 1 >= min as u64 && Instant::now() > deadline {
            break;
        }
    }
    core::array::from_fn(|k| median(&t[k]))
}

/// Builds three times from a fresh `input()` (prepared outside the timed
/// span), timing each `build` as span `name`; returns the last build and
/// the median build time.
pub fn timed_build<I, T>(
    tr: &mut Tracer,
    name: &'static str,
    input: impl Fn() -> I,
    build: impl Fn(I) -> T,
) -> (T, f64) {
    let mut last = None;
    let [t] = repeat(3, 0.0, |r| {
        let i = input();
        let (x, t) = tr.time(true, name, r, |_| build(i));
        last = Some(x);
        [t]
    });
    (last.expect("built three times"), t)
}

/// Medians (seconds) of each standalone stage and of the monolithic
/// single-channel applies they compose to.
pub struct StageTimes {
    pub embed: f64,
    pub fft_f: f64,
    pub interp: f64,
    pub spread: f64,
    pub fft_b: f64,
    pub extract: f64,
    pub mono_f: f64,
    pub mono_a: f64,
}

/// Per-layer probes of a type-1/2 plan on its own geometry: stage
/// operators planned standalone from public constructors and composed
/// embed→FFT→interp and spread→FFT→extract (each composition must equal
/// the monolithic apply bitwise), plus kernel, window and sort records.
/// `channels` scales the single-channel FFT time for `type3.fft_share`.
#[allow(clippy::too_many_arguments)]
pub fn t12_layers<const D: usize>(
    plan: &mut NufftPlan<D>,
    traj: &Trajectory<D>,
    image: &[Complex32],
    samples: &[Complex32],
    channels: usize,
    ctx: &LayerCtx,
    tr: &mut Tracer,
    rep: &mut Report,
) -> StageTimes {
    let cfg = *plan.config();
    let exec = plan.executor().clone();
    let geo = *plan.deconv_op().geometry();
    assert!(geo.m.iter().all(|&m| m == geo.m[0]), "stage probes assume a cubic grid");
    let coords = traj.grid_coords(geo.m[0]);
    let kernel = InterpKernel::of(cfg.kernel, cfg.w, cfg.alpha, cfg.lut_density);

    let (mut spread, spread_plan) = timed_build(
        tr,
        "spread.plan",
        || coords.clone(),
        |c| SpreadOp::plan(geo.m, c, &cfg, &exec),
    );
    let interp = InterpOp::from_spread(&spread, cfg.grain);
    let (mut fft, fft_plan) = timed_build(
        tr,
        "fft.plan",
        || (),
        |()| FftOp::plan(&geo.m, cfg.fft_strategy, cfg.fft_llc_budget, cfg.threads),
    );
    let (deconv, deconv_plan) =
        timed_build(tr, "deconv.plan", || (), |()| DeconvOp::plan(geo.n, cfg.alpha, &kernel));

    let mut grid = vec![Complex32::ZERO; geo.grid_len()];
    let (mut out, mut mono_out) =
        (vec![Complex32::ZERO; samples.len()], vec![Complex32::ZERO; samples.len()]);
    let (mut img, mut mono_img) =
        (vec![Complex32::ZERO; geo.image_len()], vec![Complex32::ZERO; geo.image_len()]);
    let [mono_f, embed, fft_f, interp_t, mono_a, spread_t, fft_b, extract] =
        repeat(5, ctx.seconds * 0.25, |r| {
            let (_, mono_f) =
                tr.time(true, "mono.forward", r, |_| plan.forward(image, &mut mono_out));
            let (embed, fft_f, interp_t) = tr.span("stages.forward", r, |tr| {
                let e = tr.time(true, "stage.embed", r, |_| deconv.embed(image, &mut grid)).1;
                let f = tr
                    .time(true, "stage.fft", r, |_| fft.apply(&exec, &mut grid, Direction::Forward))
                    .1;
                let i =
                    tr.time(true, "stage.interp", r, |_| interp.apply(&exec, &grid, &mut out)).1;
                (e, f, i)
            });
            rep.check(bitwise_eq(&out, &mono_out), || {
                "embed→FFT→interp differs from forward".into()
            });
            let (_, mono_a) =
                tr.time(true, "mono.adjoint", r, |_| plan.adjoint(samples, &mut mono_img));
            let (spread_t, fft_b, extract) = tr.span("stages.adjoint", r, |tr| {
                let s = tr
                    .time(true, "stage.spread", r, |_| {
                        spread.apply(&exec, JobPriority::Normal, samples, &mut grid)
                    })
                    .1;
                let f = tr
                    .time(true, "stage.fft", r, |_| {
                        fft.apply(&exec, &mut grid, Direction::Backward)
                    })
                    .1;
                let x = tr.time(true, "stage.extract", r, |_| deconv.extract(&grid, &mut img)).1;
                (s, f, x)
            });
            rep.check(bitwise_eq(&img, &mono_img), || {
                "spread→FFT→extract differs from adjoint".into()
            });
            [mono_f, embed, fft_f, interp_t, mono_a, spread_t, fft_b, extract]
        });
    let st = StageTimes {
        embed,
        fft_f,
        interp: interp_t,
        spread: spread_t,
        fft_b,
        extract,
        mono_f,
        mono_a,
    };

    rep.put("spread.plan_ms", spread_plan * 1e3, "SpreadOp::plan (also serves InterpOp)");
    rep.put("fft.plan_ms", fft_plan * 1e3, "FftOp::plan");
    rep.put("deconv.plan_ms", deconv_plan * 1e3, "DeconvOp::plan");
    let fourstep = FftNd::with_strategy(&geo.m, cfg.fft_strategy, cfg.fft_llc_budget);
    put_fft(
        rep,
        geo.grid_len(),
        &geo.m,
        (0..D).filter(|&a| fourstep.axis_fourstep(a)).count(),
        &st,
    );
    put_deconv(rep, geo.image_len(), geo.grid_len(), &st, ctx.stream_gb_s);
    let k = samples.len();
    let taps = (2.0 * cfg.w).ceil().powi(D as i32);
    put_conv(rep, k, k, taps, D, &st, ctx.stream_gb_s);
    rep.put("interp.tile_revisits", plan.gather_tile_revisits() as f64, "plan-time, storage order");
    rep.put(
        "spread.tile_revisits",
        plan.scatter_tile_revisits() as f64,
        "plan-time, canonical order",
    );
    let tile_major = plan.sort_mode() == SortMode::TileMajor;
    rep.put(
        "plan.sort_tile_major",
        tile_major as u8 as f64,
        format!("resolved {:?}", plan.sort_mode()),
    );
    rep.put(
        "forward.overlap_ms",
        (st.embed + st.fft_f + st.interp - st.mono_f) * 1e3,
        "Σ stage medians − monolithic forward",
    );
    rep.put(
        "adjoint.overlap_ms",
        (st.spread + st.fft_b + st.extract - st.mono_a) * 1e3,
        "Σ stage medians − monolithic adjoint",
    );
    rep.put("kernel.eval_bytes", plan.kernel_eval_bytes() as f64, "Horner table or LUT");
    rep.put(
        "windows.table_bytes",
        plan.window_table_bytes().unwrap_or(0) as f64,
        format!("{:?}", plan.window_mode()),
    );
    rep.put(
        "type3.fft_share",
        st.fft_f * channels as f64 / ctx.forward_s,
        format!("oversampled-grid FftOp × {channels} channel(s) ÷ forward_ms"),
    );
    rep.put(
        "parallel.dispatch_us",
        dispatch_us(&exec, tr),
        format!("empty parallel_for, {} workers", exec.threads()),
    );
    st
}

/// FFT metrics of an `len`-point transform of shape `m`.
pub fn put_fft(rep: &mut Report, len: usize, m: &[usize], fourstep_axes: usize, st: &StageTimes) {
    let flops = 5.0 * len as f64 * (len as f64).log2();
    let shape = format!("{m:?}");
    rep.put("fft.forward_ms", st.fft_f * 1e3, format!("FftOp {shape}"));
    rep.put("fft.backward_ms", st.fft_b * 1e3, format!("FftOp {shape}"));
    rep.put("fft.gflops_computed", flops / st.fft_f / 1e9, "computed 5N·log2(N) ÷ forward time");
    rep.put("fft.fourstep_axes", fourstep_axes as f64, "FftNd::axis_fourstep");
}

/// Deconvolution metrics: embed zero-fills the grid and writes the scaled
/// image block; extract reads the block and writes the image.
pub fn put_deconv(rep: &mut Report, n: usize, m: usize, st: &StageTimes, stream_gb_s: f64) {
    let bytes = (m * 8 + n * 12 + n * 20) as f64;
    rep.put("deconv.embed_ms", st.embed * 1e3, "DeconvOp::embed");
    rep.put("deconv.extract_ms", st.extract * 1e3, "DeconvOp::extract");
    rep.put(
        "deconv.frac_stream",
        bytes / (st.embed + st.extract) / (stream_gb_s * 1e9),
        format!("computed {:.1} MB ÷ time ÷ host.stream_gb_s", bytes / 1e6),
    );
}

/// Convolution metrics: each of the `k_interp` gathered samples reads
/// `taps` grid points, its coordinates and writes one value;
/// `k_spread` samples are scattered.
pub fn put_conv(
    rep: &mut Report,
    k_interp: usize,
    k_spread: usize,
    taps: f64,
    dims: usize,
    st: &StageTimes,
    stream_gb_s: f64,
) {
    let bytes = k_interp as f64 * (taps * 8.0 + dims as f64 * 4.0 + 8.0);
    rep.put("interp.apply_ms", st.interp * 1e3, format!("{k_interp} samples"));
    rep.put("interp.ns_per_sample", st.interp / k_interp as f64 * 1e9, "");
    rep.put(
        "interp.frac_stream",
        bytes / st.interp / (stream_gb_s * 1e9),
        format!("computed {:.1} MB ÷ time ÷ host.stream_gb_s", bytes / 1e6),
    );
    rep.put("spread.apply_ms", st.spread * 1e3, format!("{k_spread} samples"));
    rep.put("spread.ns_per_sample", st.spread / k_spread as f64 * 1e9, "");
}

/// Registry probe on a geometry the workload does not itself serve
/// through a registry: `checkout` on a fresh registry (a miss), then
/// repeated hits; `stats` reads the registry's counters afterwards.
pub fn probe_registry<L>(
    tr: &mut Tracer,
    rep: &mut Report,
    how: &str,
    checkout: impl Fn() -> L,
    stats: impl FnOnce() -> RegistryStats,
) {
    let (lease, miss) = tr.time(true, "registry.checkout", 0, |_| checkout());
    drop(lease);
    let [hit] = repeat(20, 0.0, |r| {
        let (lease, t) = tr.time(true, "registry.checkout", r + 1, |_| checkout());
        drop(lease);
        [t]
    });
    put_registry(rep, &stats(), hit, miss, how);
}

/// Forward requests through a `NufftService` over `registry`; each
/// response must equal `expected` (the private plan's output) bitwise.
/// `solo_s` is that private apply's median.
#[allow(clippy::too_many_arguments)]
pub fn probe_service<const D: usize>(
    registry: Arc<PlanRegistry<D>>,
    n: [usize; D],
    traj: &Arc<Vec<[f64; D]>>,
    image: &[Complex32],
    expected: &[Complex32],
    solo_s: f64,
    tr: &mut Tracer,
    rep: &mut Report,
) {
    let service = NufftService::with_registry(registry);
    let (mut submit, mut latency) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(1.5);
    for r in 0..20u64 {
        let req = ApplyRequest {
            n,
            traj: Arc::clone(traj),
            op: ApplyOp::Forward,
            input: image.to_vec(),
            priority: JobPriority::Normal,
        };
        let ((out, ts), tl) = tr.time(true, "service.request", r, |tr| {
            let (h, ts) = tr.time(true, "service.submit", r, |_| service.submit(req));
            (tr.span("service.wait", r, |_| h.wait()), ts)
        });
        rep.check(bitwise_eq(&out, expected), || "service response differs from solo apply".into());
        // The first request may build the plan and its lazy first-apply
        // structures.
        if r > 0 {
            submit.push(ts);
            latency.push(tl);
        }
        if r >= 3 && Instant::now() > deadline {
            break;
        }
    }
    put_service(rep, median(&submit), solo_s, median(&latency) - solo_s, latency.len());
}

pub fn put_registry(rep: &mut Report, s: &RegistryStats, hit_s: f64, miss_s: f64, how: &str) {
    let ratio = s.hits as f64 / (s.hits + s.misses).max(1) as f64;
    rep.put(
        "registry.hit_ratio",
        ratio,
        format!("{} hits / {} checkouts, {how}", s.hits, s.hits + s.misses),
    );
    rep.put("registry.misses", s.misses as f64, how.to_string());
    rep.put("registry.cached_plans", s.cached_plans as f64, format!("{} keys", s.keys));
    rep.put("registry.checkout_hit_us", hit_s * 1e6, "median");
    rep.put("registry.checkout_miss_ms", miss_s * 1e3, "includes the plan build");
}

pub fn put_service(rep: &mut Report, submit_s: f64, solo_s: f64, wait_s: f64, n: usize) {
    rep.put("service.submit_us", submit_s * 1e6, format!("median submit() call, n={n}"));
    rep.put("service.solo_apply_ms", solo_s * 1e3, "same apply on a private plan");
    rep.put("service.queue_wait_ms", wait_s * 1e3, "median latency − solo apply");
}
