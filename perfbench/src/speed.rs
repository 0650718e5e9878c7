//! Host speed. The CPU throughput of a shared host drifts by up to about
//! 2x, from one 100 ms to the next and in phases of minutes, alike for
//! all cache-resident code (memory-bound code drifts by somewhat
//! different factors), and process CPU time drifts with it. The
//! computing workloads therefore sample a fixed reference kernel next to
//! their operations and report their times scaled to a host on which a
//! kernel sample takes [`NOMINAL_MS`]: passes by the median of samples
//! taken between them for a fixed share of the run, set-up builds each by
//! a sample taken right after it. A change to the program moves the
//! scaled time; a slower host does not.

use crate::ms_since;
use std::time::{Duration, Instant};

/// A kernel sample on the nominal host, in ms.
pub const NOMINAL_MS: f64 = 10.0;
/// Share of a run's wall time spent sampling the kernel.
const DUTY: f64 = 0.04;
/// Fewest samples a run normalises with.
const MIN_SAMPLES: usize = 9;
/// Words the kernel sorts: 128 KiB, allocated once so the kernel adds a
/// constant to the peak resident set.
const WORDS: usize = 1 << 15;
/// Fill-and-sort rounds in one sample.
const ROUNDS: u32 = 24;

/// Fill `buf` with xorshift words and sort it, `ROUNDS` times.
fn kernel(buf: &mut [u32]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut sum = 0u64;
    for _ in 0..ROUNDS {
        for w in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x as u32;
        }
        buf.sort_unstable();
        sum = sum.wrapping_add(u64::from(buf[buf.len() / 2]));
    }
    sum
}

/// The kernel samples of one run.
pub struct Speed {
    /// One buffer per kernel thread.
    bufs: Vec<Vec<u32>>,
    samples: Vec<f64>,
    sampling: Duration,
    start: Instant,
}

/// The kernel on the calling thread alone.
impl Default for Speed {
    fn default() -> Self {
        Speed::with_threads(1)
    }
}

impl Speed {
    /// The kernel on `threads` threads at once, a sample lasting until
    /// the slowest is done: for passes made of many short parallel calls,
    /// which run at the pace of the slower core.
    pub fn with_threads(threads: usize) -> Self {
        Speed {
            bufs: vec![vec![0; WORDS]; threads.max(1)],
            samples: Vec::new(),
            sampling: Duration::ZERO,
            start: Instant::now(),
        }
    }

    /// Times one kernel run and returns its ms.
    fn sample(&mut self) -> f64 {
        let t = Instant::now();
        match self.bufs.as_mut_slice() {
            [buf] => {
                std::hint::black_box(kernel(buf));
            }
            bufs => std::thread::scope(|s| {
                for buf in bufs {
                    s.spawn(move || std::hint::black_box(kernel(buf)));
                }
            }),
        }
        let ms = ms_since(t);
        self.samples.push(ms);
        self.sampling += t.elapsed();
        ms
    }

    /// Call between operations: samples the kernel until sampling has
    /// taken [`DUTY`] of the run so far.
    pub fn tick(&mut self) {
        while self.sampling.as_secs_f64() <= DUTY * self.start.elapsed().as_secs_f64() {
            self.sample();
        }
    }

    /// Call after the last operation: tops the samples up to
    /// [`MIN_SAMPLES`].
    pub fn finish(&mut self) {
        self.tick();
        while self.samples.len() < MIN_SAMPLES {
            self.sample();
        }
    }

    /// A time just measured, scaled to the nominal host by a kernel
    /// sample taken right after it. For operations much shorter than a
    /// sample, whose host speed the run's median would miss.
    pub fn normalise_now(&mut self, t: f64) -> f64 {
        t * NOMINAL_MS / self.sample()
    }

    /// A time measured during the run, scaled to the nominal host by the
    /// run's median sample.
    pub fn normalise(&self, t: f64) -> f64 {
        crate::stats::median(&self.samples).map_or(t, |m| t * NOMINAL_MS / m)
    }

    /// Every kernel sample so far, in ms.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalise_scales_by_the_median_kernel_sample() {
        let mut speed = Speed {
            samples: vec![30.0, 20.0, 40.0],
            ..Speed::default()
        };
        // A median sample of 30 ms: the host runs at a third of nominal.
        assert_eq!(speed.normalise(90.0), 30.0);
        let fresh = speed.normalise_now(1.0);
        assert_eq!(fresh, NOMINAL_MS / speed.samples()[3]);
        speed.finish();
        assert!(speed.samples().len() >= MIN_SAMPLES);
    }

    #[test]
    fn a_threaded_kernel_takes_positive_samples() {
        let mut speed = Speed::with_threads(2);
        speed.finish();
        assert!(speed.samples().len() >= MIN_SAMPLES);
        assert!(speed.samples().iter().all(|&ms| ms > 0.0));
    }
}
