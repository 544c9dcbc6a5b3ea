//! The three plan-apply workloads. Each is generated from the run's seed;
//! the library sees only the generated trajectories and data.

use crate::apply::{
    probe_registry, probe_service, put_conv, put_deconv, put_fft, repeat, t12_layers, timed_build,
    ApplyWorkload, LayerCtx, StageTimes,
};
use crate::check::bitwise_eq;
use crate::report::Report;
use crate::trace::Tracer;
use nufft_baselines::direct;
use nufft_core::registry::PlanRegistry;
use nufft_core::tasks::SortMode;
use nufft_core::type3::Type3Plan;
use nufft_core::{DeconvOp, FftOp, InterpKernel, InterpOp, NufftConfig, NufftPlan, SpreadOp};
use nufft_fft::{Direction, FftNd};
use nufft_math::{Complex32, Complex64};
use nufft_parallel::exec::{Executor, JobPriority};
use nufft_testkit::Rng;
use nufft_traj::generators::{cloud, radial_2d, shuffled};
use nufft_traj::Trajectory;
use std::sync::Arc;

fn describe<const D: usize>(plan: &NufftPlan<D>) -> String {
    let c = plan.config();
    format!(
        "kernel={:?} W={} sigma={} lut={} sort={:?} windows={:?} exec={:?} threads={}",
        c.kernel,
        c.w,
        c.alpha,
        c.lut_density,
        plan.sort_mode(),
        plan.window_mode(),
        c.exec_mode,
        c.threads
    )
}

/// Phase evaluations the direct oracle may spend per run.
const ORACLE_EVALS: usize = 1 << 27;

/// Half the f32 machine epsilon: the relative rounding of a grid
/// coordinate stored as `f32`.
const F32_EPS_HALF: f64 = 1.0 / (1u64 << 24) as f64;

/// The accuracy contract of tolerance-planned transforms checked by
/// tests/tolerance.rs: `2·√D·eps`.
pub fn tolerance_budget(dims: usize, eps: f64) -> f64 {
    2.0 * (dims as f64).sqrt() * eps
}

/// Worst-case phase error of one output from rounding its grid
/// coordinates (magnitude up to `m`) to f32, with image indices up to
/// `m/4` (α = 2): `π/2 · m · 2⁻²⁴` per dimension, added in quadrature.
pub fn f32_floor(dims: usize, m: f64) -> f64 {
    (dims as f64).sqrt() * std::f64::consts::FRAC_PI_2 * m * F32_EPS_HALF
}

fn zeros(channels: usize, len: usize) -> Vec<Vec<Complex32>> {
    vec![vec![Complex32::ZERO; len]; channels]
}

/// Type-1/2 workloads share everything but their geometry and channel
/// count: `channels == 1` applies single transforms, more applies the
/// batch entry points.
pub struct Cartesian<const D: usize> {
    n: [usize; D],
    traj: Trajectory<D>,
    cfg: NufftConfig,
    budget: f64,
    setup_reps: usize,
    images: Vec<Vec<Complex32>>,
    samples: Vec<Vec<Complex32>>,
    fwd: Vec<Vec<Complex32>>,
    adj: Vec<Vec<Complex32>>,
}

impl<const D: usize> Cartesian<D> {
    fn new(
        n: [usize; D],
        traj: Trajectory<D>,
        cfg: NufftConfig,
        channels: usize,
        seed: u64,
    ) -> Self {
        let mut rng = Rng::seed_from_u64(seed ^ 0xda7a);
        let len: usize = n.iter().product();
        let k = traj.len();
        Cartesian {
            n,
            cfg,
            budget: 0.0,
            setup_reps: 0,
            images: (0..channels).map(|_| rng.gen_c32_vec(len, 1.0)).collect(),
            samples: (0..channels).map(|_| rng.gen_c32_vec(k, 1.0)).collect(),
            fwd: zeros(channels, k),
            adj: zeros(channels, len),
            traj,
        }
    }
}

/// `mri2d_coils`: 512² image, 48 ordered radial spokes × 1024 readout,
/// four coils through the batch entry points, tolerance 1e-2.
pub fn mri2d_coils(seed: u64, threads: usize) -> Cartesian<2> {
    let cfg = NufftConfig { threads, ..NufftConfig::default() }.with_tolerance(1e-2);
    let mut w = Cartesian::new([512, 512], radial_2d(1024, 48, seed), cfg, 4, seed);
    w.budget = tolerance_budget(2, 1e-2) + f32_floor(2, 1024.0);
    w.setup_reps = 5;
    w
}

/// `vol3d_shuffled`: 64³ image, the paper's variable-density random
/// trajectory (σ = 0.15), 64 × 4096 samples in shuffled order, the
/// paper's default configuration (KB, W = 4, α = 2), one channel.
pub fn vol3d_shuffled(seed: u64, threads: usize) -> Cartesian<3> {
    let cfg = NufftConfig { threads, ..NufftConfig::default() };
    let mut w = Cartesian::new([64, 64, 64], shuffled(4096, 64, 0.15, seed), cfg, 1, seed);
    // KB at W = 4, α = 2 aliases far below f32 precision; the default
    // 512-entry LUT's interpolation error (~5e-5 per dimension) dominates.
    w.budget = tolerance_budget(3, 5e-5) + f32_floor(3, 128.0);
    w.setup_reps = 5;
    w
}

impl<const D: usize> ApplyWorkload for Cartesian<D> {
    type Plan = NufftPlan<D>;

    fn setup_reps(&self) -> usize {
        self.setup_reps
    }

    fn check_points(&self) -> usize {
        // The oracle costs Π n per point. 2²⁷ phase evaluations (about
        // 1.5 s on two cores) bound it; fewer points make the error
        // estimate itself vary from seed to seed.
        ORACLE_EVALS / (self.images[0].len() * self.images.len())
    }

    fn build(&self, threads: usize) -> NufftPlan<D> {
        NufftPlan::new(self.n, &self.traj.points, NufftConfig { threads, ..self.cfg })
    }

    fn forward(&mut self, plan: &mut NufftPlan<D>) {
        if self.images.len() == 1 {
            plan.forward(&self.images[0], &mut self.fwd[0]);
        } else {
            let ins: Vec<&[Complex32]> = self.images.iter().map(Vec::as_slice).collect();
            let mut outs: Vec<&mut [Complex32]> =
                self.fwd.iter_mut().map(Vec::as_mut_slice).collect();
            plan.forward_batch(&ins, &mut outs);
        }
    }

    fn adjoint(&mut self, plan: &mut NufftPlan<D>) {
        if self.samples.len() == 1 {
            plan.adjoint(&self.samples[0], &mut self.adj[0]);
        } else {
            let ins: Vec<&[Complex32]> = self.samples.iter().map(Vec::as_slice).collect();
            let mut outs: Vec<&mut [Complex32]> =
                self.adj.iter_mut().map(Vec::as_mut_slice).collect();
            plan.adjoint_batch(&ins, &mut outs);
        }
    }

    fn fwd_in(&self) -> &[Vec<Complex32>] {
        &self.images
    }
    fn adj_in(&self) -> &[Vec<Complex32>] {
        &self.samples
    }
    fn fwd_out(&self) -> &[Vec<Complex32>] {
        &self.fwd
    }
    fn adj_out(&self) -> &[Vec<Complex32>] {
        &self.adj
    }

    fn reference(&self, ch: usize, idx: &[usize]) -> Vec<Complex64> {
        let pts: Vec<[f64; D]> = idx.iter().map(|&i| self.traj.points[i]).collect();
        direct::forward(&self.images[ch], self.n, &pts)
    }

    fn budget(&self) -> f64 {
        self.budget
    }

    fn describe(&self, plan: &NufftPlan<D>) -> String {
        describe(plan)
    }

    fn layers(
        &mut self,
        plan: &mut NufftPlan<D>,
        ctx: &LayerCtx,
        tr: &mut Tracer,
        rep: &mut Report,
    ) {
        let st = t12_layers(
            plan,
            &self.traj,
            &self.images[0],
            &self.samples[0],
            self.images.len(),
            ctx,
            tr,
            rep,
        );
        let mut expected = vec![Complex32::ZERO; self.traj.len()];
        plan.forward(&self.images[0], &mut expected);
        let registry =
            Arc::new(PlanRegistry::with_executor(*plan.config(), plan.executor().clone()));
        probe_registry(
            tr,
            rep,
            "probe: 1 miss then hits on this geometry",
            || registry.checkout(self.n, &self.traj.points),
            || registry.stats(),
        );
        let traj = Arc::new(self.traj.points.clone());
        probe_service(registry, self.n, &traj, &self.images[0], &expected, st.mono_f, tr, rep);
    }
}

/// `type3_1d_wideband`: 200k uniform sources in [−60, 60), 200k targets
/// in [−600, 600), tolerance 1e-4.
pub struct Wideband {
    sources: Vec<[f64; 1]>,
    targets: Vec<[f64; 1]>,
    cfg: NufftConfig,
    strengths: Vec<Vec<Complex32>>,
    values: Vec<Vec<Complex32>>,
    fwd: Vec<Vec<Complex32>>,
    adj: Vec<Vec<Complex32>>,
}

pub fn type3_1d_wideband(seed: u64, threads: usize) -> Wideband {
    let count = 200_000;
    let mut rng = Rng::seed_from_u64(seed ^ 0xda7a);
    Wideband {
        sources: cloud::<1>(count, 60.0, seed),
        targets: cloud::<1>(count, 600.0, seed.wrapping_add(1)),
        cfg: NufftConfig { threads, ..NufftConfig::default() }.with_tolerance(1e-4),
        strengths: vec![rng.gen_c32_vec(count, 1.0)],
        values: vec![rng.gen_c32_vec(count, 1.0)],
        fwd: zeros(1, count),
        adj: zeros(1, count),
    }
}

impl ApplyWorkload for Wideband {
    /// The plan and the pool it dispatches on.
    type Plan = (Type3Plan<1>, Executor);

    fn setup_reps(&self) -> usize {
        5
    }

    fn check_points(&self) -> usize {
        ORACLE_EVALS / self.sources.len()
    }

    fn build(&self, threads: usize) -> Self::Plan {
        let cfg = NufftConfig { threads, ..self.cfg };
        let exec = Executor::with_backend(threads, cfg.backend);
        (Type3Plan::new_shared(&self.sources, &self.targets, cfg, exec.clone()), exec)
    }

    fn forward(&mut self, plan: &mut Self::Plan) {
        plan.0.forward(&self.strengths[0], &mut self.fwd[0]);
    }

    fn adjoint(&mut self, plan: &mut Self::Plan) {
        plan.0.adjoint(&self.values[0], &mut self.adj[0]);
    }

    fn fwd_in(&self) -> &[Vec<Complex32>] {
        &self.strengths
    }
    fn adj_in(&self) -> &[Vec<Complex32>] {
        &self.values
    }
    fn fwd_out(&self) -> &[Vec<Complex32>] {
        &self.fwd
    }
    fn adj_out(&self) -> &[Vec<Complex32>] {
        &self.adj
    }

    fn reference(&self, _ch: usize, idx: &[usize]) -> Vec<Complex64> {
        let pts: Vec<[f64; 1]> = idx.iter().map(|&i| self.targets[i]).collect();
        direct::type3(&self.strengths[0], &self.sources, &pts)
    }

    fn budget(&self) -> f64 {
        // Two kernels are traversed (outer spread and the inner type-2).
        // Sources sit on the fine grid (extent nf, frequencies up to
        // 1/(2α) = 1/4 cycle per cell) and targets on the inner grid
        // (extent 2·nf, image indices up to nf/2): their f32 coordinates
        // add up to π/2 and π times nf·2⁻²⁴ of phase. At nf ≈ 2.9e5 that
        // worst case (~0.08) dwarfs the requested 1e-4; the measured RMS
        // error (~8e-3) grows with nf as this floor does. It is a known
        // accuracy limit that `rel_l2_err` reports, not a benchmark
        // failure.
        let nf =
            (self.targets.iter().map(|s| s[0].abs()).fold(0.0, f64::max) * 2.0 * self.cfg.alpha)
                * self.sources.iter().map(|x| x[0].abs()).fold(0.0, f64::max)
                * 2.0;
        2.0 * tolerance_budget(1, 1e-4) + 1.5 * std::f64::consts::PI * nf * F32_EPS_HALF
    }

    fn describe(&self, plan: &Self::Plan) -> String {
        let c = self.cfg;
        format!(
            "kernel={:?} W={} sigma={} lut={} fine_extents={:?} threads={}",
            c.kernel,
            c.w,
            c.alpha,
            c.lut_density,
            plan.0.fine_extents(),
            plan.1.threads()
        )
    }

    fn layers(&mut self, plan: &mut Self::Plan, ctx: &LayerCtx, tr: &mut Tracer, rep: &mut Report) {
        type3_layers(self, plan, ctx, tr, rep);
    }
}

/// Type-3 per-layer probes. `Type3Plan` exposes its fine grid
/// (`fine_extents`, `fine_spacing`) but not its stages, so the stages
/// are re-planned standalone from the documented reduction — sources at
/// `x/h + ⌊nf/2⌋` on the fine grid, an inner type-2 plan at `s·h`, and
/// the outer kernel's real postscale — and the composition must equal
/// `Type3Plan::forward`/`adjoint` bitwise. If the library's reduction
/// changes, the check fails and these probes must follow it.
fn type3_layers(
    w: &mut Wideband,
    plan: &mut (Type3Plan<1>, Executor),
    ctx: &LayerCtx,
    tr: &mut Tracer,
    rep: &mut Report,
) {
    let (t3, exec) = plan;
    let cfg = NufftConfig { threads: exec.threads(), ..w.cfg };
    let nf = t3.fine_extents();
    let h = t3.fine_spacing()[0];
    let src: Vec<[f32; 1]> =
        w.sources.iter().map(|x| [(x[0] / h + (nf[0] / 2) as f64) as f32]).collect();
    let inner_traj: Vec<[f64; 1]> = w.targets.iter().map(|s| [s[0] * h]).collect();
    let kernel = InterpKernel::of(cfg.kernel, cfg.w, cfg.alpha, cfg.lut_density);
    let post: Vec<f32> =
        w.targets.iter().map(|s| (1.0 / kernel.fourier(s[0] * h)) as f32).collect();

    let (mut outer, outer_plan) =
        timed_build(tr, "spread.plan", || src.clone(), |c| SpreadOp::plan(nf, c, &cfg, exec));
    let outer_interp = InterpOp::from_spread(&outer, cfg.grain);
    let mut inner = tr.span("plan.construct.inner", 0, |_| {
        NufftPlan::new_shared(nf, &inner_traj, cfg, exec.clone(), None)
    });
    let geo = *inner.deconv_op().geometry();
    let tgt = Trajectory::new(inner_traj.clone(), 1, inner_traj.len()).grid_coords(geo.m[0]);
    let (mut inner_spread, inner_plan) =
        timed_build(tr, "spread.plan", || tgt.clone(), |c| SpreadOp::plan(geo.m, c, &cfg, exec));
    let inner_interp = InterpOp::from_spread(&inner_spread, cfg.grain);
    let (mut fft, fft_plan) = timed_build(
        tr,
        "fft.plan",
        || (),
        |()| FftOp::plan(&geo.m, cfg.fft_strategy, cfg.fft_llc_budget, cfg.threads),
    );
    let (deconv, deconv_plan) =
        timed_build(tr, "deconv.plan", || (), |()| DeconvOp::plan(geo.n, cfg.alpha, &kernel));

    let (j, k) = (w.sources.len(), w.targets.len());
    let mut fine = vec![Complex32::ZERO; nf[0]];
    let mut grid = vec![Complex32::ZERO; geo.grid_len()];
    let (mut out_k, mut mono_k) = (vec![Complex32::ZERO; k], vec![Complex32::ZERO; k]);
    let (mut out_j, mut mono_j) = (vec![Complex32::ZERO; j], vec![Complex32::ZERO; j]);
    let mut staged = vec![Complex32::ZERO; k];
    let (strengths, values) = (&w.strengths[0], &w.values[0]);
    let times: [f64; 10] = repeat(5, ctx.seconds * 0.25, |r| {
        let mono_f = tr.time(true, "mono.forward", r, |_| t3.forward(strengths, &mut mono_k)).1;
        let f = tr.span("stages.forward", r, |tr| {
            let s = tr
                .time(true, "stage.spread", r, |_| {
                    outer.apply(exec, JobPriority::Normal, strengths, &mut fine)
                })
                .1;
            let e = tr.time(true, "stage.embed", r, |_| deconv.embed(&fine, &mut grid)).1;
            let f =
                tr.time(true, "stage.fft", r, |_| fft.apply(exec, &mut grid, Direction::Forward)).1;
            let i =
                tr.time(true, "stage.interp", r, |_| inner_interp.apply(exec, &grid, &mut out_k)).1;
            for (o, &p) in out_k.iter_mut().zip(&post) {
                o.re *= p;
                o.im *= p;
            }
            [s, e, f, i]
        });
        rep.check(bitwise_eq(&out_k, &mono_k), || {
            "type-3 stage composition differs from forward".into()
        });
        let mono_a = tr.time(true, "mono.adjoint", r, |_| t3.adjoint(values, &mut mono_j)).1;
        let a = tr.span("stages.adjoint", r, |tr| {
            for ((t, &v), &p) in staged.iter_mut().zip(values).zip(&post) {
                *t = Complex32::new(v.re * p, v.im * p);
            }
            let s = tr
                .time(true, "stage.spread", r, |_| {
                    inner_spread.apply(exec, JobPriority::Normal, &staged, &mut grid)
                })
                .1;
            let f = tr
                .time(true, "stage.fft", r, |_| fft.apply(exec, &mut grid, Direction::Backward))
                .1;
            let x = tr.time(true, "stage.extract", r, |_| deconv.extract(&grid, &mut fine)).1;
            let i =
                tr.time(true, "stage.interp", r, |_| outer_interp.apply(exec, &fine, &mut out_j)).1;
            [s, f, x, i]
        });
        rep.check(bitwise_eq(&out_j, &mono_j), || {
            "type-3 stage composition differs from adjoint".into()
        });
        [mono_f, f[0], f[1], f[2], f[3], mono_a, a[0], a[1], a[2], a[3]]
    });
    let [mono_f, spread_src, embed, fft_f, interp_tgt, mono_a, spread_tgt, fft_b, extract, interp_src] =
        times;
    // Spreading and interpolation each run once per direction on a
    // type-3 pair (sources on the fine grid, targets on the inner grid):
    // the layer figures sum both.
    let st = StageTimes {
        embed,
        fft_f,
        interp: interp_tgt + interp_src,
        spread: spread_src + spread_tgt,
        fft_b,
        extract,
        mono_f,
        mono_a,
    };
    rep.put(
        "spread.plan_ms",
        (outer_plan + inner_plan) * 1e3,
        "SpreadOp::plan at sources + at targets",
    );
    rep.put("fft.plan_ms", fft_plan * 1e3, "FftOp::plan, inner grid");
    rep.put("deconv.plan_ms", deconv_plan * 1e3, "DeconvOp::plan, inner grid");
    let fs = FftNd::with_strategy(&geo.m, cfg.fft_strategy, cfg.fft_llc_budget);
    put_fft(rep, geo.grid_len(), &geo.m, fs.axis_fourstep(0) as usize, &st);
    put_deconv(rep, geo.image_len(), geo.grid_len(), &st, ctx.stream_gb_s);
    put_conv(rep, j + k, j + k, (2.0 * cfg.w).ceil(), 1, &st, ctx.stream_gb_s);
    rep.put(
        "interp.tile_revisits",
        inner.gather_tile_revisits() as f64,
        "inner plan (targets); sources not exposed",
    );
    rep.put(
        "spread.tile_revisits",
        inner.scatter_tile_revisits() as f64,
        "inner plan (targets); sources not exposed",
    );
    let tile_major = inner.sort_mode() == SortMode::TileMajor;
    rep.put(
        "plan.sort_tile_major",
        tile_major as u8 as f64,
        format!("inner plan resolved {:?}", inner.sort_mode()),
    );
    rep.put(
        "forward.overlap_ms",
        (spread_src + embed + fft_f + interp_tgt - mono_f) * 1e3,
        "Σ stage medians − monolithic forward",
    );
    rep.put(
        "adjoint.overlap_ms",
        (spread_tgt + fft_b + extract + interp_src - mono_a) * 1e3,
        "Σ stage medians − monolithic adjoint",
    );
    rep.put(
        "kernel.eval_bytes",
        inner.kernel_eval_bytes() as f64,
        "inner plan; same kernel as the outer spread",
    );
    rep.put(
        "windows.table_bytes",
        inner.window_table_bytes().unwrap_or(0) as f64,
        format!("inner plan {:?}", inner.window_mode()),
    );
    rep.put("type3.fft_share", fft_f / ctx.forward_s, "fine-grid FftOp ÷ forward_ms");
    rep.put(
        "parallel.dispatch_us",
        crate::apply::dispatch_us(exec, tr),
        format!("empty parallel_for, {} workers", exec.threads()),
    );

    // Registry: the type-3 pool, one miss then hits.
    let registry = PlanRegistry::<1>::with_executor(cfg, exec.clone());
    probe_registry(
        tr,
        rep,
        "probe: 1 type-3 miss then hits",
        || registry.checkout_type3(&w.sources, &w.targets),
        || registry.stats(),
    );

    // The service has no type-3 entry point; it serves this workload's
    // inner type-2 (the fine grid at the scaled targets).
    outer.apply(exec, JobPriority::Normal, strengths, &mut fine);
    let mut expected = vec![Complex32::ZERO; k];
    let [solo] = repeat(3, 0.0, |r| {
        [tr.time(true, "mono.inner_forward", r, |_| inner.forward(&fine, &mut expected)).1]
    });
    let registry = Arc::new(PlanRegistry::with_executor(cfg, exec.clone()));
    probe_service(registry, nf, &Arc::new(inner_traj), &fine, &expected, solo, tr, rep);
}
