//! Host roofline: streaming-read and memcpy bandwidth measured in the same
//! run, on arrays at least four times the last-level cache, with the same
//! thread count the pipeline's pool uses. Also the memcpy probe that every
//! end-to-end host rate is divided by.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Measured host memory bandwidth and the sizes it was measured at.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// Streaming read, bytes read per second / 1e9.
    pub read_gbps: f64,
    /// memcpy, bytes copied per second / 1e9 (each byte is read once and
    /// written once).
    pub memcpy_gbps: f64,
    /// Size of each array, MiB.
    pub array_mb: f64,
    /// Last-level cache the size was derived from, MiB.
    pub llc_mb: f64,
}

/// Size of each of the memcpy probe's two buffers, MiB.
pub const PROBE_MIB: usize = 32;

/// A memcpy of a fixed buffer, timed between timed calls. On a shared
/// host the memory traffic of other tenants slows the program and this
/// copy alike, so a call's rate over the probe's rate holds steady where
/// either rate alone swings by a third.
pub struct Probe {
    src: Vec<u64>,
    dst: Vec<u64>,
    /// Rate of the latest copy, GB/s.
    last: f64,
}

impl Probe {
    /// Two buffers of `mib` MiB each, touched and copied once.
    pub fn new(mib: usize) -> Self {
        let words = mib << 17;
        let src: Vec<u64> = (0..words as u64).collect();
        let mut p = Self { dst: src.clone(), src, last: 0.0 };
        p.last = p.copy_gbps();
        p
    }

    /// One timed copy: bytes copied per second / 1e9.
    fn copy_gbps(&mut self) -> f64 {
        let t = Instant::now();
        self.dst.copy_from_slice(black_box(&self.src));
        black_box(&self.dst);
        (self.src.len() * 8) as f64 / t.elapsed().as_secs_f64() / 1e9
    }

    /// `bytes` moved in `seconds` by the call that just ended, over the
    /// mean rate of the copy before it and one made now.
    pub fn frac(&mut self, bytes: f64, seconds: f64) -> f64 {
        let now = self.copy_gbps();
        let base = 0.5 * (self.last + now);
        self.last = now;
        bytes / seconds / 1e9 / base
    }
}

/// Split `len` into `threads` contiguous ranges.
fn ranges(len: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let per = len.div_ceil(threads);
    (0..threads).map(|t| (t * per).min(len)..((t + 1) * per).min(len)).collect()
}

/// Measure with arrays of `max(4 × llc, 64 MiB)` (`min_mb` when smaller is
/// asked for, as the smoke mode does), `reps` timed passes after one
/// warm-up, median reported.
pub fn roofline(llc_mb: f64, threads: usize, min_mb: Option<f64>, reps: usize) -> Roofline {
    let array_mb = min_mb.unwrap_or((4.0 * llc_mb).max(64.0));
    let words = (array_mb * (1u64 << 20) as f64 / 8.0) as usize;
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst = vec![0u64; words];
    let threads = threads.max(1);
    let bytes = (words * 8) as f64;

    let mut read_s = Vec::with_capacity(reps);
    let mut copy_s = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let t = Instant::now();
        let sum: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = ranges(words, threads)
                .into_iter()
                .map(|r| {
                    let part = &src[r];
                    s.spawn(move || part.iter().fold(0u64, |a, &x| a.wrapping_add(x)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("read worker panicked")).sum()
        });
        black_box(sum);
        let dt_read = t.elapsed().as_secs_f64();

        let t = Instant::now();
        std::thread::scope(|s| {
            let mut rest: &mut [u64] = &mut dst;
            for r in ranges(words, threads) {
                let (head, tail) = rest.split_at_mut(r.len());
                rest = tail;
                let part = &src[r];
                s.spawn(move || head.copy_from_slice(part));
            }
        });
        black_box(&dst);
        let dt_copy = t.elapsed().as_secs_f64();
        if rep > 0 {
            read_s.push(dt_read);
            copy_s.push(dt_copy);
        }
    }
    assert_eq!(dst[words - 1], src[words - 1], "memcpy pass did not copy");
    Roofline {
        read_gbps: bytes / median(&read_s) / 1e9,
        memcpy_gbps: bytes / median(&copy_s) / 1e9,
        array_mb,
        llc_mb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_exactly() {
        let r = ranges(10, 3);
        assert_eq!(r, vec![0..4, 4..8, 8..10]);
        assert_eq!(ranges(1, 2), vec![0..1, 1..1]);
    }

    #[test]
    fn small_roofline_is_positive() {
        let r = roofline(1.0, 2, Some(4.0), 1);
        assert!(r.read_gbps > 0.0 && r.memcpy_gbps > 0.0);
        assert_eq!(r.array_mb, 4.0);
    }
}
