//! Scheduler benchmarks: ready-queue disciplines, task-graph construction,
//! executor overhead and the discrete-event simulator itself. Runs on the
//! `nufft-testkit` harness.

use nufft_parallel::exec::Executor;
use nufft_parallel::graph::{DagBuilder, QueuePolicy, TaskGraph};
use nufft_parallel::queue::{Entry, ReadyQueue};
use nufft_sim::{simulate, LinearCost};
use nufft_testkit::bench::{black_box, BenchGroup};
use std::time::Duration;

fn skewed_graph(n: usize) -> TaskGraph {
    let mut g = TaskGraph::new(&[n, n]);
    let c = n / 2;
    for t in 0..g.len() {
        let idx = g.unflatten(t);
        let d = idx[0].abs_diff(c) + idx[1].abs_diff(c);
        g.set_weight(t, if d == 0 { 4000 } else { 40 / (d as u64) + 1 });
    }
    g
}

fn main() {
    let mut g = BenchGroup::new("ready_queue");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));
    for policy in [QueuePolicy::Fifo, QueuePolicy::Priority] {
        g.throughput(1024);
        g.bench_function(format!("push_pop_1k_{policy:?}"), |b| {
            b.iter(|| {
                let mut q = ReadyQueue::new(policy);
                for i in 0..1024u64 {
                    q.push(Entry { weight: (i * 2654435761) % 1000, payload: i });
                }
                let mut acc = 0u64;
                while let Some(e) = q.pop() {
                    acc = acc.wrapping_add(e.payload);
                }
                acc
            })
        });
    }
    g.finish();

    let mut g = BenchGroup::new("task_graph");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));
    g.bench_function("build_16x16x16_cyclic", |b| {
        b.iter(|| TaskGraph::new_cyclic(black_box(&[16, 16, 16]), &[true; 3]))
    });
    g.finish();

    let mut g = BenchGroup::new("executor");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));
    let graph = skewed_graph(12);
    let mut builder = DagBuilder::new();
    builder.add_task_graph(&graph, |t, _p| t as u64, |t, _p| graph.weight(t));
    let dag = builder.build();
    let exec = Executor::new(2);
    g.bench_function("run_dag_144_tasks_noop", |b| {
        b.iter(|| exec.run_dag(&dag, QueuePolicy::Priority, |_v, _tag, _w| {}))
    });
    g.bench_function("parallel_for_100k_noop", |b| {
        b.iter(|| {
            exec.parallel_for(100_000, 512, |r, _w| {
                black_box(r.len());
            })
        })
    });
    g.finish();

    let mut g = BenchGroup::new("simulator");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));
    let graph = skewed_graph(24);
    let model = LinearCost::per_sample(1.0);
    g.bench_function("simulate_576_tasks_40_workers", |b| {
        b.iter(|| simulate(&graph, QueuePolicy::Priority, 40, &model).makespan)
    });
    g.finish();
}
