//! Randomized-schedule stress tests for the persistent work-stealing
//! runtime.
//!
//! The executor's exactly-once and exclusion guarantees must hold under
//! *any* interleaving. These tests widen the schedule space two ways:
//! per-task delays drawn from `nufft-testkit`'s deterministic PRNG (so a
//! failing seed replays), and a worker count chosen to oversubscribe the
//! host — override it with `NUFFT_THREADS` (the CI stress step runs 16).

use nufft_parallel::exec::Executor;
use nufft_parallel::graph::{Dag, DagBuilder, QueuePolicy, TaskGraph};
use nufft_testkit::Rng;
use std::sync::atomic::{AtomicU32, Ordering};

/// Worker count for the stress runs: `NUFFT_THREADS` env override, else 8
/// (oversubscribed on small hosts on purpose — more preemption, more
/// schedules).
fn stress_threads() -> usize {
    std::env::var("NUFFT_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(8)
}

/// Busy-spin for roughly `iters` units; sleeps are too coarse to shake out
/// interesting interleavings and yield under-load behaves like a no-op.
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

#[test]
fn every_unit_runs_exactly_once_under_stealing_with_random_delays() {
    let threads = stress_threads();
    let exec = Executor::new(threads);
    for seed in 0..6u64 {
        let mut rng = Rng::seed_from_u64(0x57EA_1000 + seed);
        let mut graph = TaskGraph::new(&[5, 5]);
        let n = graph.len();
        for t in 0..n {
            graph.set_weight(t, rng.gen_usize(0..200) as u64);
            graph.set_privatized(t, rng.gen_usize(0..4) == 0);
        }
        // Pre-drawn per-(task, phase) delays: deterministic given the seed,
        // but they skew which worker finishes when — exactly the lever that
        // changes who steals from whom.
        let delays: Vec<[u64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.gen_usize(0..4000) as u64,
                    rng.gen_usize(0..4000) as u64,
                    rng.gen_usize(0..1000) as u64,
                ]
            })
            .collect();
        let counts: Vec<[AtomicU32; 3]> = (0..n).map(|_| Default::default()).collect();
        for policy in [QueuePolicy::Fifo, QueuePolicy::Priority] {
            for c in &counts {
                for p in c {
                    p.store(0, Ordering::SeqCst);
                }
            }
            exec.run_dag(&lower(&graph), policy, |_v, tag, _w| {
                let (t, pi) = ((tag >> 2) as usize, (tag & 3) as usize);
                spin(delays[t][pi]);
                counts[t][pi].fetch_add(1, Ordering::SeqCst);
            });
            for (t, count) in counts.iter().enumerate() {
                let want: [u32; 3] = if graph.privatized(t) { [0, 1, 1] } else { [1, 0, 0] };
                for pi in 0..3 {
                    assert_eq!(
                        count[pi].load(Ordering::SeqCst),
                        want[pi],
                        "seed {seed} policy {policy:?}: task {t} phase {pi} ran a wrong number \
                         of times"
                    );
                }
            }
        }
    }
}

#[test]
fn adjacent_exclusion_holds_under_random_delays() {
    let threads = stress_threads();
    let exec = Executor::new(threads);
    let mut rng = Rng::seed_from_u64(0x57EA_2000);
    let graph = TaskGraph::new(&[6, 6]);
    let n = graph.len();
    let delays: Vec<u64> = (0..n).map(|_| rng.gen_usize(0..3000) as u64).collect();
    let running: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    exec.run_dag(&lower(&graph), QueuePolicy::Priority, |_v, tag, _w| {
        let t = (tag >> 2) as usize;
        running[t].store(1, Ordering::SeqCst);
        for (other, flag) in running.iter().enumerate() {
            if graph.adjacent(t, other) {
                assert_eq!(
                    flag.load(Ordering::SeqCst),
                    0,
                    "adjacent tasks {t} and {other} overlapped"
                );
            }
        }
        spin(delays[t]);
        for (other, flag) in running.iter().enumerate() {
            if graph.adjacent(t, other) {
                assert_eq!(flag.load(Ordering::SeqCst), 0);
            }
        }
        running[t].store(0, Ordering::SeqCst);
    });
}

#[test]
fn parallel_for_covers_exactly_once_under_stealing_with_random_delays() {
    let threads = stress_threads();
    let exec = Executor::new(threads);
    for seed in 0..4u64 {
        let mut rng = Rng::seed_from_u64(0x57EA_3000 + seed);
        let n = 10_000;
        let grain = rng.gen_usize(1..64);
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        exec.parallel_for(n, grain, |range, _w| {
            // Random per-chunk stall, reseeded from the chunk start so the
            // delay pattern is schedule-independent.
            let stall = Rng::seed_from_u64(seed ^ range.start as u64).gen_usize(0..2000);
            spin(stall as u64);
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "seed {seed}: index {i}");
        }
    }
}

#[test]
fn both_backends_survive_the_same_stress() {
    // A fresh executor at the stress width runs a weighted graph exactly
    // once per task.
    let mut rng = Rng::seed_from_u64(0x57EA_4000);
    let mut graph = TaskGraph::new(&[4, 4]);
    for t in 0..graph.len() {
        graph.set_weight(t, rng.gen_usize(0..100) as u64);
    }
    let exec = Executor::new(stress_threads());
    let count = AtomicU32::new(0);
    exec.run_dag(&lower(&graph), QueuePolicy::Priority, |_v, _tag, _w| {
        count.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(count.load(Ordering::SeqCst), 16);
}

#[test]
fn parallel_for_never_returns_before_stolen_ranges_run() {
    // Regression: while a thief held a range taken from its victim but
    // not yet published in its own slot, every slot could look empty.
    // The dispatcher then retired the loop, and the thief ran one grain
    // of the loot and abandoned the rest. Many short loops on an
    // oversubscribed pool hit that window within a few hundred rounds.
    let threads = stress_threads().max(4);
    let exec = Executor::new(threads);
    let hits: Vec<AtomicU32> = (0..200).map(|_| AtomicU32::new(0)).collect();
    for round in 0..30_000 {
        let n = 9 + round % 191;
        exec.parallel_for_aligned(n, 1, 4, |range, _w| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate().take(n) {
            assert_eq!(h.swap(0, Ordering::Relaxed), 1, "round {round}: index {i}");
        }
    }
}
