//! The host record (ISA, threads, caches, memory high-water mark) and the
//! memory-bandwidth ceiling.

use std::time::Instant;

/// `(level, size in bytes)` of each unified or data cache the host reports
/// for CPU 0, deduplicated by level.
pub fn caches() -> Vec<(u32, usize)> {
    let mut out: Vec<(u32, usize)> = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if !out.iter().any(|&(l, _)| l == level) {
            out.push((level, bytes));
        }
    }
    out.sort_unstable();
    out
}

fn parse_size(s: &str) -> Option<usize> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|d| d * mult)
}

/// Size of the last-level cache, if the host reports one.
pub fn llc_bytes() -> Option<usize> {
    caches().last().map(|&(_, b)| b)
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Result of the triad bandwidth ceiling.
pub struct Stream {
    pub gb_s: f64,
    /// Bytes the three arrays occupy together.
    pub buffer_bytes: usize,
    pub llc_bytes: usize,
}

/// STREAM-style triad `a = b + s·c` over three `f32` arrays whose joint
/// size is at least four times the last-level cache, on `threads` threads.
/// Bandwidth counts the computed traffic (two reads and one write per
/// element); it is the median of five passes.
pub fn stream_triad(threads: usize) -> Stream {
    // 32 MiB when the host reports no cache sizes.
    let llc = llc_bytes().unwrap_or(32 << 20);
    let len = (4 * llc).div_ceil(3 * 4);
    let threads = threads.max(1);
    let chunk = len.div_ceil(threads);
    let mut a = vec![0f32; len];
    let mut b = vec![0f32; len];
    let mut c = vec![0f32; len];
    // First touch from the worker threads that later stream each chunk.
    std::thread::scope(|s| {
        for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks_mut(chunk)).zip(c.chunks_mut(chunk)) {
            s.spawn(move || {
                a.fill(0.0);
                b.fill(1.0);
                c.fill(2.0);
            });
        }
    });
    let mut passes = Vec::new();
    for pass in 0..5 {
        let scalar = 0.5 + pass as f32;
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                s.spawn(move || {
                    for ((x, &y), &z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + scalar * z;
                    }
                });
            }
        });
        passes.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(&a);
    }
    let bytes = 3 * len * 4;
    Stream {
        gb_s: bytes as f64 / crate::stats::median(&passes) / 1e9,
        buffer_bytes: bytes,
        llc_bytes: llc,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn sizes_parse() {
        assert_eq!(super::parse_size("48K"), Some(48 << 10));
        assert_eq!(super::parse_size("307200K"), Some(300 << 20));
        assert_eq!(super::parse_size("2M"), Some(2 << 20));
        assert_eq!(super::parse_size("x"), None);
    }
}
