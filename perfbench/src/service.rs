//! `service_small2d`: a closed loop of `nproc` client threads on one
//! `NufftService`. Each client submits its next request only after the
//! previous one returned. Requests alternate forward and adjoint on a
//! 64² image over one of eight resident random 2D trajectories of 4,096
//! samples (eps 1e-4); one request in 50 brings a never-seen trajectory,
//! so plan builds (registry writes) sit beside hits (reads).

use crate::apply::{
    put_registry, put_service, put_timing, repeat, t12_layers, LayerCtx, Opts, DOT_TOL,
};
use crate::check::{bitwise_eq, dot_mismatch, par_reference, subset};
use crate::report::Report;
use crate::stats::{block_tail, median, TAIL_BLOCK};
use crate::trace::Tracer;
use crate::workloads::{f32_floor, tolerance_budget};
use nufft_baselines::direct;
use nufft_core::registry::{ApplyOp, ApplyRequest, NufftService};
use nufft_core::{NufftConfig, NufftPlan};
use nufft_math::error::rel_l2_mixed;
use nufft_math::Complex32;
use nufft_parallel::exec::JobPriority;
use nufft_testkit::Rng;
use nufft_traj::generators::random_2d;
use nufft_traj::Trajectory;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: [usize; 2] = [64, 64];
const SAMPLES: usize = 4096;
const RESIDENT: usize = 8;
const INPUTS: usize = 4;
const EPS: f64 = 1e-4;
const NOVEL_EVERY: u64 = 50;
/// Never-seen trajectories per run. Each one leaves a cached plan in the
/// registry, so the cap keeps `peak_rss_mib` from scaling with request
/// throughput: at about 1k req/s the loop reaches it about 15 s into a
/// 20 s run, and later requests are all resident.
const NOVEL_CAP: u64 = 300;
const SETUP_REPS: usize = 25;

fn traj(seed: u64, kind: u64, j: u64) -> Trajectory<2> {
    let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (kind << 40) ^ j;
    random_2d(SAMPLES, 1, 0.15, s)
}

#[derive(Clone, Copy)]
struct Rec {
    /// Global request index: the order requests were issued in.
    i: u64,
    forward: bool,
    /// Resident trajectory index, or `None` for a never-seen one.
    resident: Option<usize>,
    latency: f64,
    submit: f64,
    traced: bool,
}

/// A never-seen trajectory's response, verified after the loop.
struct Novel {
    j: u64,
    forward: bool,
    input: usize,
    out: Option<Vec<Complex32>>,
}

pub fn run(o: &Opts, epoch: Instant, tr: &mut Tracer) -> (Report, Vec<Tracer>) {
    let mut rep = Report::default();
    let cfg = NufftConfig { threads: o.threads, ..NufftConfig::default() }.with_tolerance(EPS);
    let mut rng = Rng::seed_from_u64(o.seed ^ 0xda7a);
    let images: Vec<Vec<Complex32>> =
        (0..INPUTS).map(|_| rng.gen_c32_vec(N[0] * N[1], 1.0)).collect();
    let samples: Vec<Vec<Complex32>> = (0..INPUTS).map(|_| rng.gen_c32_vec(SAMPLES, 1.0)).collect();
    let resident: Vec<Trajectory<2>> = (0..RESIDENT as u64).map(|r| traj(o.seed, 1, r)).collect();
    let shared: Vec<Arc<Vec<[f64; 2]>>> =
        resident.iter().map(|t| Arc::new(t.points.clone())).collect();

    // Expected responses: solo applies on private plans, whose outputs the
    // registry's contract says every service response must equal bitwise.
    let mut expected = vec![[Vec::new(), Vec::new()]; RESIDENT * INPUTS];
    let (mut solo_f, mut solo_a) = (vec![0.0; RESIDENT], vec![0.0; RESIDENT]);
    let (mut constructs, mut extras) = (Vec::new(), Vec::new());
    for (r, t) in resident.iter().enumerate() {
        let (mut plan, tc) =
            tr.time(true, "plan.construct", r as u64, |_| NufftPlan::new(N, &t.points, cfg));
        let (mut tf, mut ta) = (Vec::new(), Vec::new());
        for (i, (img, smp)) in images.iter().zip(&samples).enumerate() {
            let e = &mut expected[r * INPUTS + i];
            e[0] = vec![Complex32::ZERO; SAMPLES];
            e[1] = vec![Complex32::ZERO; N[0] * N[1]];
            tf.push(tr.time(true, "solo.forward", r as u64, |_| plan.forward(img, &mut e[0])).1);
            ta.push(tr.time(true, "solo.adjoint", r as u64, |_| plan.adjoint(smp, &mut e[1])).1);
        }
        constructs.push(tc);
        // The first pair pays the lazy builds; the rest are steady.
        extras.push(tf[0] + ta[0] - median(&tf[1..]) - median(&ta[1..]));
        solo_f[r] = median(&tf[1..]);
        solo_a[r] = median(&ta[1..]);
    }

    // Oracle and dot test on every resident trajectory's first input.
    let (mut got, mut want, mut mismatch) = (Vec::new(), Vec::new(), 0.0f64);
    for (r, t) in resident.iter().enumerate() {
        let e = &expected[r * INPUTS];
        let idx = subset(o.seed.wrapping_add(r as u64), SAMPLES, 256);
        want.extend(par_reference(&idx, o.threads, |part| {
            let pts: Vec<[f64; 2]> = part.iter().map(|&i| t.points[i]).collect();
            direct::forward(&images[0], N, &pts)
        }));
        got.extend(idx.iter().map(|&i| e[0][i]));
        mismatch = mismatch.max(dot_mismatch(&images[0], &e[0], &samples[0], &e[1]));
    }
    let err = rel_l2_mixed(&got, &want);
    let budget = tolerance_budget(2, EPS) + f32_floor(2, 2.0 * N[0] as f64);
    let fwd_ok = err <= budget;
    let adj_ok = fwd_ok && mismatch <= DOT_TOL;
    rep.line(format!("oracle: {} forward outputs checked against the direct DTFT", got.len()));
    rep.line(format!("adjoint dot-test mismatch {mismatch:.2e} (tolerance {DOT_TOL:.0e})"));
    rep.put("rel_l2_err", err, format!("budget {budget:.2e}"));
    let good = |r: usize, forward: bool, input: usize, out: &[Complex32]| {
        let e = &expected[r * INPUTS + input];
        if forward {
            fwd_ok && bitwise_eq(out, &e[0])
        } else {
            adj_ok && bitwise_eq(out, &e[1])
        }
    };
    let request = |forward: bool, input: usize, t: &Arc<Vec<[f64; 2]>>| ApplyRequest {
        n: N,
        traj: Arc::clone(t),
        op: if forward { ApplyOp::Forward } else { ApplyOp::Adjoint },
        input: if forward { images[input].clone() } else { samples[input].clone() },
        priority: JobPriority::Normal,
    };

    // Set-up: the service's constructor until its first forward and first
    // adjoint have returned.
    let mut setups = Vec::new();
    let mut service = None;
    for r in 0..SETUP_REPS {
        drop(service.take());
        let ((svc, f, a), t) = tr.time(true, "setup", r as u64, |tr| {
            let svc = tr.span("service.new", r as u64, |_| NufftService::new(cfg));
            let f =
                catch_unwind(AssertUnwindSafe(|| svc.submit(request(true, 0, &shared[0])).wait()));
            let a =
                catch_unwind(AssertUnwindSafe(|| svc.submit(request(false, 0, &shared[0])).wait()));
            (svc, f, a)
        });
        setups.push(t);
        rep.check(f.is_ok_and(|f| good(0, true, 0, &f)), || "service forward (set-up)".into());
        rep.check(a.is_ok_and(|a| good(0, false, 0, &a)), || "service adjoint (set-up)".into());
        service = Some(svc);
    }
    let service = service.expect("at least one set-up");
    rep.line(format!(
        "resolved: kernel={:?} W={} sigma={} lut={} threads={} clients={}",
        cfg.kernel, cfg.w, cfg.alpha, cfg.lut_density, cfg.threads, o.threads
    ));

    // The closed loop; a short warm-up pass over the residents first.
    let counter = AtomicU64::new(0);
    let novel_used = AtomicU64::new(0);
    let loop_for = |secs: f64, warm: bool, tid: u32| {
        let mut ctr = Tracer::new(o.trace && !warm, epoch, tid, 1 << 16);
        let (mut recs, mut novel, mut checks) =
            (Vec::with_capacity(1 << 15), Vec::new(), Vec::new());
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        while Instant::now() < deadline {
            let i = counter.fetch_add(1, Ordering::Relaxed);
            let traced = !warm && o.trace && (i / 16) % 2 == 1;
            let fresh = !warm && i % NOVEL_EVERY == NOVEL_EVERY - 1;
            let j = if fresh { novel_used.fetch_add(1, Ordering::Relaxed) } else { NOVEL_CAP };
            let (r, forward, input, t) = if j < NOVEL_CAP {
                let t = Arc::new(traj(o.seed, 2, j).points);
                (None, (i / NOVEL_EVERY).is_multiple_of(2), j as usize % INPUTS, t)
            } else {
                let r = (i / 2) as usize % RESIDENT;
                (Some(r), i.is_multiple_of(2), (i / 16) as usize % INPUTS, Arc::clone(&shared[r]))
            };
            let req = request(forward, input, &t);
            let ((out, submit), latency) = ctr.time(traced, "service.request", i, |ctr| {
                let (h, ts) = ctr.time(traced, "service.submit", i, |_| service.submit(req));
                let out = ctr
                    .time(traced, "service.wait", i, |_| {
                        catch_unwind(AssertUnwindSafe(|| h.wait())).ok()
                    })
                    .0;
                (out, ts)
            });
            match r {
                Some(r) => {
                    checks.push(out.as_deref().is_some_and(|out| good(r, forward, input, out)))
                }
                None => novel.push(Novel { j, forward, input, out }),
            }
            recs.push(Rec { i, forward, resident: r, latency, submit, traced });
        }
        (recs, novel, checks, ctr)
    };
    let run_clients = |secs: f64, warm: bool| {
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..o.threads)
                .map(|c| s.spawn(move || loop_for(secs, warm, c as u32 + 1)))
                .collect();
            hs.into_iter().map(|h| h.join().expect("client thread panicked")).collect::<Vec<_>>()
        })
    };
    for (_, _, checks, _) in run_clients(0.3, true) {
        for ok in checks {
            rep.check(ok, || "service response (warm-up)".into());
        }
    }
    let before = service.registry().stats();
    let start = Instant::now();
    let results = run_clients(o.seconds, false);
    let elapsed = start.elapsed().as_secs_f64();
    let after = service.registry().stats();
    let (mut recs, mut tracers) = (Vec::new(), Vec::new());
    let mut novel = Vec::new();
    for (r, n, checks, ctr) in results {
        recs.extend(r);
        novel.extend(n);
        for ok in checks {
            rep.check(ok, || "service response differs from solo apply".into());
        }
        tracers.push(ctr);
    }
    // Never-seen trajectories: a private plan built after the loop must
    // reproduce each response.
    for nv in &novel {
        let t = traj(o.seed, 2, nv.j);
        let mut plan = NufftPlan::new(N, &t.points, cfg);
        let ok = nv.out.as_ref().is_some_and(|out| {
            let mut want = vec![Complex32::ZERO; out.len()];
            if nv.forward {
                plan.forward(&images[nv.input], &mut want);
            } else {
                plan.adjoint(&samples[nv.input], &mut want);
            }
            bitwise_eq(out, &want)
        });
        rep.check(ok, || "service response on a new trajectory differs from solo apply".into());
    }

    // Time order across clients, for the block tails.
    recs.sort_unstable_by_key(|r| r.i);
    let plain: Vec<&Rec> = recs.iter().filter(|r| !r.traced).collect();
    let lat = |f: &dyn Fn(&Rec) -> bool| -> Vec<f64> {
        plain.iter().filter(|r| f(r)).map(|r| r.latency).collect()
    };
    let all = lat(&|_| true);
    rep.put("setup_s", median(&setups), format!("median of {SETUP_REPS} set-ups"));
    let what = "request latency median; tail = median of p99 per 1100-request block";
    put_timing(&mut rep, "forward_ms", "forward_tail_ms", &lat(&|r| r.forward), what, block_tail);
    put_timing(&mut rep, "adjoint_ms", "adjoint_tail_ms", &lat(&|r| !r.forward), what, block_tail);
    rep.put("peak_rss_mib", crate::host::peak_rss_mib(), "VmHWM");
    rep.put(
        "req_per_s",
        recs.len() as f64 / elapsed,
        format!("{} clients, closed loop", o.threads),
    );
    rep.put("req_p50_ms", median(&all) * 1e3, format!("n={}", all.len()));
    let (t, pct, n) = block_tail(&all);
    rep.put("req_p99_ms", t * 1e3, format!("p{pct:.1} per {TAIL_BLOCK} requests, median, n={n}"));
    rep.line(format!(
        "requests: {} ({} on never-seen trajectories, cap {NOVEL_CAP})",
        recs.len(),
        novel.len()
    ));

    if o.trace {
        let traced: Vec<f64> = recs.iter().filter(|r| r.traced).map(|r| r.latency).collect();
        rep.put(
            "trace.overhead_frac",
            median(&traced) / median(&all) - 1.0,
            format!("traced/untraced req_p50_ms, n={}+{}", traced.len(), all.len()),
        );
        rep.put(
            "plan.construct_ms",
            median(&constructs) * 1e3,
            "NufftPlan::new, resident trajectories",
        );
        rep.put(
            "plan.first_apply_extra_ms",
            median(&extras) * 1e3,
            "first forward+adjoint − steady medians",
        );

        let delta = nufft_core::registry::RegistryStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            ..after
        };
        let registry = service.registry();
        let [hit] = repeat(200, 0.0, |r| {
            let (lease, t) =
                tr.time(true, "registry.checkout", r, |_| registry.checkout(N, &shared[0]));
            drop(lease);
            [t]
        });
        let mut j = NOVEL_CAP;
        let [miss] = repeat(5, 0.0, |r| {
            j += 1;
            let t = traj(o.seed, 2, j).points;
            [tr.time(true, "registry.checkout", r, |_| drop(registry.checkout(N, &t))).1]
        });
        put_registry(&mut rep, &delta, hit, miss, "during the timed loop");
        let submits: Vec<f64> = recs.iter().map(|r| r.submit).collect();
        let (solo, wait): (Vec<f64>, Vec<f64>) = plain
            .iter()
            .filter_map(|r| {
                let s = if r.forward { solo_f[r.resident?] } else { solo_a[r.resident?] };
                Some((s, r.latency - s))
            })
            .unzip();
        put_service(&mut rep, median(&submits), median(&solo), median(&wait), plain.len());

        // Thread scaling of the same request on private plans.
        let mut p1 = NufftPlan::new(N, &resident[0].points, NufftConfig { threads: 1, ..cfg });
        let mut pn = NufftPlan::new(N, &resident[0].points, cfg);
        let (mut fo, mut ao) = (vec![Complex32::ZERO; SAMPLES], vec![Complex32::ZERO; N[0] * N[1]]);
        p1.forward(&images[0], &mut fo);
        p1.adjoint(&samples[0], &mut ao);
        pn.forward(&images[0], &mut fo);
        pn.adjoint(&samples[0], &mut ao);
        let [f1, a1, fnp, anp] = repeat(20, 0.5, |r| {
            [
                tr.time(true, "apply.forward.1thread", r, |_| p1.forward(&images[0], &mut fo)).1,
                tr.time(true, "apply.adjoint.1thread", r, |_| p1.adjoint(&samples[0], &mut ao)).1,
                tr.time(true, "solo.forward", r, |_| pn.forward(&images[0], &mut fo)).1,
                tr.time(true, "solo.adjoint", r, |_| pn.adjoint(&samples[0], &mut ao)).1,
            ]
        });
        rep.put("forward.speedup", f1 / fnp, format!("private plan at {} threads", o.threads));
        rep.put("adjoint.speedup", a1 / anp, format!("private plan at {} threads", o.threads));

        // Stage probes on a resident geometry, on the service's own pool.
        let exec = service.registry().executor().clone();
        let mut plan = NufftPlan::new_shared(N, &resident[0].points, cfg, exec, None);
        let mut warm = vec![Complex32::ZERO; SAMPLES];
        plan.forward(&images[0], &mut warm);
        let ctx = LayerCtx {
            threads: o.threads,
            seconds: o.seconds,
            stream_gb_s: crate::stream_ceiling(),
            forward_s: median(&lat(&|r| r.forward)),
            adjoint_s: median(&lat(&|r| !r.forward)),
        };
        t12_layers(&mut plan, &resident[0], &images[0], &samples[0], 1, &ctx, tr, &mut rep);
    }
    (rep, tracers)
}
