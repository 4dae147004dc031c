//! A fixed reference computation that measures the host's speed.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent over minutes, and that drift moves every timing alike. The
//! reference work is a fixed piece of arithmetic and memory traffic
//! that shares no code with the pipeline, so no change to the program
//! can change its cost. Timed between scenarios all through a run, it
//! gives the run's host speed, and the run's timings are scaled to the
//! speed of the reference host.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Median duration of [`reference_work`] on the reference host (2 vCPUs,
/// Xeon, 2.1 GHz, rustc 1.95.0, release build), seconds.
pub const REFERENCE_S: f64 = 0.0048;

/// Least time between two samples, so that sampling costs about 2% of a
/// run.
const GAP_S: f64 = 0.25;

/// Elements sorted by the memory half of the reference work.
const SORT_LEN: usize = 1 << 16;

/// The reference work: a chaotic floating-point recurrence with `ln` and
/// `exp`; then `buf` filled with pseudo-random integers, sorted, and
/// every 16th element put in an ordered map. Returns a value that depends
/// on all of it, so none of it can be optimised away.
fn reference_work(buf: &mut [u64]) -> f64 {
    let mut x = 0.5f64;
    let mut acc = 0.0;
    for i in 0..200_000 {
        x = (x * 3.7 * (1.0 - x)).abs();
        acc += (x + 1.0).ln() * (-(i as f64) * 1e-6).exp();
    }
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    for e in buf.iter_mut() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *e = s;
    }
    buf.sort_unstable();
    let index: BTreeMap<u64, usize> = buf.iter().step_by(16).copied().zip(0..).collect();
    acc + (index.len() as u64 ^ buf[buf.len() / 2]) as f64
}

/// Samples of the reference work's duration, taken through a run.
#[derive(Debug)]
pub struct Calibrator {
    buf: Vec<u64>,
    last: Option<Instant>,
    times: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// A calibrator with no samples yet.
    #[must_use]
    pub fn new() -> Calibrator {
        Calibrator {
            buf: vec![0; SORT_LEN],
            last: None,
            times: Vec::new(),
        }
    }

    /// Times the reference work once, unless the last sample ended less
    /// than a quarter of a second ago.
    pub fn sample(&mut self) {
        if self.last.is_some_and(|t| t.elapsed().as_secs_f64() < GAP_S) {
            return;
        }
        let t0 = Instant::now();
        black_box(reference_work(black_box(&mut self.buf)));
        let now = Instant::now();
        self.times.push((now - t0).as_secs_f64());
        self.last = Some(now);
    }

    /// The durations sampled so far, seconds.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_at_most_once_per_gap() {
        let mut c = Calibrator::new();
        c.sample();
        c.sample();
        assert_eq!(c.times().len(), 1);
        assert!(c.times()[0] > 0.0);
    }

    #[test]
    fn reference_work_is_fixed() {
        let mut a = vec![0; SORT_LEN];
        let mut b = vec![1; SORT_LEN];
        assert_eq!(
            reference_work(&mut a).to_bits(),
            reference_work(&mut b).to_bits()
        );
    }
}
