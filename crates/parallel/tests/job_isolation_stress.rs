//! Randomized-schedule stress for **multi-tenant** execution: jobs from
//! several submitter threads interleave on the same pool shards, and each
//! must still run exactly-once with zero cross-job leakage.
//!
//! Same methodology as `steal_stress.rs`: per-node delays drawn from
//! `nufft-testkit`'s deterministic PRNG (a failing seed replays), worker
//! counts that oversubscribe the host (`NUFFT_THREADS` override; the CI
//! stress step runs 16) so the parking, stride-pick and pin/retire paths
//! run under real preemption. Job identity is baked into every node tag,
//! so a task leaking into the wrong job's callback is caught at the first
//! occurrence, not inferred from counts.

// Verification loops below index the graph and its parallel count arrays
// by the same task id; the iterator form would obscure that.
#![allow(clippy::needless_range_loop)]

use nufft_parallel::exec::{DagScratch, Executor, JobPriority};
use nufft_parallel::graph::{Dag, DagBuilder, NodeId, QueuePolicy, TaskGraph};
use nufft_testkit::Rng;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Barrier;

fn stress_threads() -> usize {
    std::env::var("NUFFT_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(8)
}

fn spin(iters: u64) {
    for i in 0..iters {
        std::hint::black_box(i);
    }
}

/// Lowers `graph` with node tags `task << 2 | phase`, where the phase index
/// 0/1/2 is Normal/PrivateConvolve/Reduce (`TaskPhase as u64`).
fn lower(graph: &TaskGraph) -> Dag {
    let mut b = DagBuilder::new();
    b.add_task_graph(graph, |t, p| ((t as u64) << 2) | p as u64, |t, _| graph.weight(t));
    b.build()
}

/// Job `job`'s tag namespace: layered pipeline of `layers × width` nodes,
/// node (k, i) depending on (k−1, i−1..=i+1). Tags encode (job, node) so
/// a cross-job delivery is detectable inside the callback.
fn job_dag(job: u64, layers: usize, width: usize, rng: &mut Rng) -> Dag {
    let mut b = DagBuilder::new();
    for k in 0..layers {
        for i in 0..width {
            let node = (k * width + i) as u64;
            b.add_node(job * 1_000_000 + node, rng.gen_usize(1..200) as u64);
        }
    }
    for k in 1..layers {
        for i in 0..width {
            for j in i.saturating_sub(1)..(i + 2).min(width) {
                b.add_edge(((k - 1) * width + j) as NodeId, (k * width + i) as NodeId);
            }
        }
    }
    b.build()
}

#[test]
fn interleaved_jobs_run_exactly_once_with_no_cross_job_leakage() {
    let threads = stress_threads();
    let exec = Executor::new(threads);
    const JOBS: usize = 3;

    for seed in 0..4u64 {
        let mut rng = Rng::seed_from_u64(0x1501_A7E0 + seed);
        let dags: Vec<Dag> = (0..JOBS as u64)
            .map(|j| job_dag(j, 4 + rng.gen_usize(0..3), 4 + rng.gen_usize(0..4), &mut rng))
            .collect();
        // Pre-drawn per-(job, node) delays: deterministic given the seed,
        // randomizing which job's nodes are in flight when another's
        // submitter parks, steps or retires.
        let delays: Vec<Vec<u64>> = dags
            .iter()
            .map(|d| (0..d.len()).map(|_| rng.gen_usize(0..3000) as u64).collect())
            .collect();
        let counts: Vec<Vec<AtomicU32>> =
            dags.iter().map(|d| (0..d.len()).map(|_| AtomicU32::new(0)).collect()).collect();

        let barrier = Barrier::new(JOBS);
        std::thread::scope(|scope| {
            for (j, dag) in dags.iter().enumerate() {
                let exec = &exec;
                let barrier = &barrier;
                let counts = &counts;
                let delays = &delays;
                scope.spawn(move || {
                    let mut scratch = DagScratch::new();
                    barrier.wait(); // maximize overlap between jobs
                    exec.run_dag_reuse(dag, QueuePolicy::Priority, &mut scratch, |node, tag, w| {
                        // Leakage check: this callback must only ever see
                        // its own job's tag namespace.
                        assert_eq!(
                            tag / 1_000_000,
                            j as u64,
                            "seed {seed}: job {j} callback got foreign tag {tag:#x}"
                        );
                        assert_eq!(tag % 1_000_000, node as u64, "seed {seed}: tag/node mismatch");
                        assert!(w < threads, "seed {seed}: worker index {w} out of range");
                        spin(delays[j][node as usize]);
                        counts[j][node as usize].fetch_add(1, Ordering::SeqCst);
                    });

                    // Per-job stats are harvested at *per-job* quiescence:
                    // exactly this job's nodes, nothing more, even though
                    // other jobs were mid-flight on the same workers.
                    let stats = scratch.stats();
                    assert_eq!(
                        stats.log.len(),
                        dag.len(),
                        "seed {seed}: job {j} stats log has a wrong node count"
                    );
                    let mut seen = vec![0u32; dag.len()];
                    for r in &stats.log {
                        assert_eq!(
                            r.tag / 1_000_000,
                            j as u64,
                            "seed {seed}: job {j} stats hold a foreign record"
                        );
                        assert!(r.worker < threads);
                        assert!(r.end >= r.start);
                        seen[r.node as usize] += 1;
                    }
                    assert!(
                        seen.iter().all(|&c| c == 1),
                        "seed {seed}: job {j} stats log is not a permutation of its nodes"
                    );
                });
            }
        });

        for (j, dag) in dags.iter().enumerate() {
            for node in 0..dag.len() {
                assert_eq!(
                    counts[j][node].load(Ordering::SeqCst),
                    1,
                    "seed {seed}: job {j} node {node} ran a wrong number of times"
                );
            }
        }
    }
}

#[test]
fn interleaved_task_graphs_keep_the_privatization_protocol() {
    // Two scatter-style TaskGraphs (the adjoint-convolution shape, with
    // privatized tasks and Gray-code exclusion edges) interleave; each
    // job's (task, phase) multiset must come out exact.
    let threads = stress_threads();
    let exec = Executor::new(threads);

    for seed in 0..3u64 {
        let mut rng = Rng::seed_from_u64(0x1501_B000 + seed);
        let mut graphs = Vec::new();
        for _ in 0..2 {
            let side = 4 + rng.gen_usize(0..2);
            let mut g = TaskGraph::new(&[side, side]);
            for t in 0..g.len() {
                g.set_weight(t, rng.gen_usize(0..150) as u64);
                g.set_privatized(t, rng.gen_usize(0..4) == 0);
            }
            graphs.push(g);
        }
        let delays: Vec<Vec<[u64; 3]>> = graphs
            .iter()
            .map(|g| {
                (0..g.len())
                    .map(|_| {
                        [
                            rng.gen_usize(0..3000) as u64,
                            rng.gen_usize(0..3000) as u64,
                            rng.gen_usize(0..800) as u64,
                        ]
                    })
                    .collect()
            })
            .collect();
        let counts: Vec<Vec<[AtomicU32; 3]>> =
            graphs.iter().map(|g| (0..g.len()).map(|_| Default::default()).collect()).collect();

        let barrier = Barrier::new(graphs.len());
        std::thread::scope(|scope| {
            for (j, graph) in graphs.iter().enumerate() {
                let exec = &exec;
                let barrier = &barrier;
                let counts = &counts;
                let delays = &delays;
                scope.spawn(move || {
                    barrier.wait();
                    exec.run_dag(&lower(graph), QueuePolicy::Priority, |_v, tag, _w| {
                        let (t, pi) = ((tag >> 2) as usize, (tag & 3) as usize);
                        spin(delays[j][t][pi]);
                        counts[j][t][pi].fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
        });

        for (j, graph) in graphs.iter().enumerate() {
            for t in 0..graph.len() {
                let want: [u32; 3] = if graph.privatized(t) { [0, 1, 1] } else { [1, 0, 0] };
                for pi in 0..3 {
                    assert_eq!(
                        counts[j][t][pi].load(Ordering::SeqCst),
                        want[pi],
                        "seed {seed}: job {j} task {t} phase {pi}"
                    );
                }
            }
        }
    }
}

#[test]
fn mixed_priorities_and_parallel_for_interleave_safely() {
    // Three tenant kinds at once: a Low-priority DAG flood, a High DAG,
    // and a parallel_for loop job — everything must complete exactly-once.
    let threads = stress_threads();
    let exec = Executor::new(threads);
    let mut rng = Rng::seed_from_u64(0x1501_C000);

    let big = job_dag(0, 8, 8, &mut rng);
    let small = job_dag(1, 2, 4, &mut rng);
    let big_counts: Vec<AtomicU32> = (0..big.len()).map(|_| AtomicU32::new(0)).collect();
    let small_counts: Vec<AtomicU32> = (0..small.len()).map(|_| AtomicU32::new(0)).collect();
    const LOOP_N: usize = 5000;
    let loop_hits: Vec<AtomicU32> = (0..LOOP_N).map(|_| AtomicU32::new(0)).collect();

    let barrier = Barrier::new(3);
    std::thread::scope(|scope| {
        let exec_ref = &exec;
        let barrier = &barrier;
        scope.spawn(|| {
            let mut scratch = DagScratch::new();
            barrier.wait();
            exec_ref.run_dag_reuse_prio(
                &big,
                QueuePolicy::Priority,
                JobPriority::Low,
                &mut scratch,
                |node, _tag, _w| {
                    spin(800);
                    big_counts[node as usize].fetch_add(1, Ordering::SeqCst);
                },
            );
        });
        scope.spawn(|| {
            let mut scratch = DagScratch::new();
            barrier.wait();
            exec_ref.run_dag_reuse_prio(
                &small,
                QueuePolicy::Priority,
                JobPriority::High,
                &mut scratch,
                |node, _tag, _w| {
                    spin(200);
                    small_counts[node as usize].fetch_add(1, Ordering::SeqCst);
                },
            );
        });
        scope.spawn(|| {
            barrier.wait();
            exec_ref.parallel_for(LOOP_N, 32, |range, _w| {
                spin(100);
                for i in range {
                    loop_hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
    });

    for (i, c) in big_counts.iter().enumerate() {
        assert_eq!(c.load(Ordering::SeqCst), 1, "big job node {i}");
    }
    for (i, c) in small_counts.iter().enumerate() {
        assert_eq!(c.load(Ordering::SeqCst), 1, "small job node {i}");
    }
    for (i, h) in loop_hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::Relaxed), 1, "loop index {i}");
    }
}
