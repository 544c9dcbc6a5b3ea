//! Span recording around the benchmark's own calls into each layer.
//!
//! Each thread owns a [`Tracer`] whose span buffer is allocated once, up
//! front; recording a span is two stack pushes and no allocation, and a
//! full buffer drops further spans (counted) rather than growing. At exit
//! the buffers are written as a Chrome trace (loadable in Perfetto or
//! `chrome://tracing`) and summarised as a self-time table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One closed span. `parent` indexes the same tracer's buffer.
#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

impl Tracer {
    /// A tracer for thread `tid`; spans are timed from `epoch`, which all
    /// tracers of one run share. A disabled tracer only times.
    pub fn new(enabled: bool, epoch: Instant, tid: u32, capacity: usize) -> Self {
        let cap = if enabled { capacity } else { 0 };
        Tracer {
            enabled,
            epoch,
            tid,
            spans: Vec::with_capacity(cap),
            stack: Vec::with_capacity(64),
            dropped: 0,
        }
    }

    /// Runs `f`, returning its result and its wall time in seconds. When
    /// tracing is on and `record` is set, the interval is stored as span
    /// `name` under the innermost open span, tagged with request `req`.
    pub fn time<R>(
        &mut self,
        record: bool,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let slot = if self.enabled && record {
            if self.spans.len() < self.spans.capacity() {
                let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
                self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, req });
                let i = (self.spans.len() - 1) as u32;
                self.stack.push(i);
                Some(i)
            } else {
                self.dropped += 1;
                None
            }
        } else {
            None
        };
        let t0 = Instant::now();
        let r = f(self);
        let t1 = Instant::now();
        if let Some(i) = slot {
            self.stack.pop();
            let s = &mut self.spans[i as usize];
            s.start_ns = (t0 - self.epoch).as_nanos() as u64;
            s.end_ns = (t1 - self.epoch).as_nanos() as u64;
        }
        (r, (t1 - t0).as_secs_f64())
    }

    /// [`Tracer::time`] with recording on.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.time(true, name, req, f).0
    }
}

/// Per-name totals: `(count, total_s, self_s)`.
pub type SelfTimes = BTreeMap<&'static str, (u64, f64, f64)>;

/// Self time of a span is its duration minus the part its direct
/// children cover (children never overlap: they nest on one thread).
pub fn self_times(tracers: &[&Tracer]) -> SelfTimes {
    let mut table = SelfTimes::new();
    for tr in tracers {
        let mut child = vec![0u64; tr.spans.len()];
        for s in &tr.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, c) in tr.spans.iter().zip(&child) {
            let dur = s.end_ns - s.start_ns;
            let e = table.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(*c) as f64 * 1e-9;
        }
    }
    table
}

pub fn format_self_times(table: &SelfTimes) -> String {
    let mut out = format!("{:<28} {:>8} {:>12} {:>12}\n", "span", "count", "total_ms", "self_ms");
    let mut rows: Vec<_> = table.iter().collect();
    rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
    for (name, (count, total, own)) in rows {
        let _ = writeln!(out, "{name:<28} {count:>8} {:>12.3} {:>12.3}", total * 1e3, own * 1e3);
    }
    out
}

pub fn dropped(tracers: &[&Tracer]) -> u64 {
    tracers.iter().map(|t| t.dropped).sum()
}

/// The Chrome trace-event JSON for all tracers (complete `X` events,
/// microsecond timestamps; span ids are `tid:index`).
pub fn chrome_json(tracers: &[&Tracer], workload: &str, seed: u64) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for tr in tracers {
        for (i, s) in tr.spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                format!("\"{}:{}\"", tr.tid, s.parent)
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":\"{}:{}\",\"parent\":{},\"req\":{}}}}}",
                s.name,
                tr.tid,
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3,
                tr.tid,
                i,
                parent,
                s.req
            );
        }
    }
    let _ = write!(out, "\n],\"otherData\":{{\"workload\":\"{workload}\",\"seed\":{seed}}}}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true, Instant::now(), 0, 16);
        tr.span("outer", 7, |tr| {
            tr.span("inner", 7, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let table = self_times(&[&tr]);
        let (n_outer, total_outer, self_outer) = table["outer"];
        let (_, total_inner, _) = table["inner"];
        assert_eq!(n_outer, 1);
        assert!((total_outer - total_inner - self_outer).abs() < 1e-9);
        let json = chrome_json(&[&tr], "w", 1);
        assert!(json.contains("\"parent\":\"0:0\""));
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut tr = Tracer::new(true, Instant::now(), 0, 1);
        tr.span("a", 0, |_| ());
        tr.span("b", 0, |_| ());
        assert_eq!(dropped(&[&tr]), 1);
        assert_eq!(tr.spans.capacity(), 1);
    }
}
