//! Host-speed calibration for the end-to-end timings.
//!
//! On a shared virtual machine the speed of a virtual CPU drifts with the
//! neighbours' load over minutes, by a fifth and more, and CPU time does
//! not leave that out: every batch of a run is slow together, so longer
//! runs do not help. The end-to-end pass therefore runs a fixed kernel
//! after each job, for a set share of the measured time, and scales its
//! timings by how fast the kernel ran in the same process. The kernel is
//! the benchmark's own code and calls nothing of the simulator, so a change
//! to the simulator moves the scaled timings as much as the raw ones.
//!
//! `README.md` gives the spreads it removes on each workload.

use std::hint::black_box;

use crate::clock::process_cpu_seconds;
use crate::stats::trimmed_mean;

/// Words in the kernel's table: 256 KiB, which the L2 cache holds. Over
/// six minutes of the four workloads on a 2-vCPU virtual machine, their
/// time over this kernel's drifted as little as or less than over the same
/// kernel on a 4 MiB table, which feels the neighbours' use of the shared
/// L3 cache more than the simulator does.
const TABLE_WORDS: usize = 1 << 15;
/// Table updates in one chunk of the kernel, about 5 ms.
const CHUNK_STEPS: u32 = 1_400_000;
/// CPU seconds of one chunk on the host the benchmark was tuned on, a
/// 2-vCPU virtual machine on an Intel Xeon. Scaled timings read as that
/// host's seconds.
pub const NOMINAL_CHUNK_S: f64 = 0.005;
/// Share of the measured CPU time spent in the kernel.
const SHARE: f64 = 0.08;
/// Kernel time owed before a burst of chunks starts, so that the warm-up
/// each burst needs stays a small part of it.
const BURST_S: f64 = 0.02;
/// Chunks every run takes, however short.
const MIN_CHUNKS: usize = 40;

/// Runs the kernel alongside the measurements and keeps its chunk times.
pub struct Calibrator {
    table: Vec<u64>,
    chunks: Vec<f64>,
    spent: f64,
}

impl Calibrator {
    /// A calibrator with its table written, so no chunk pays for first
    /// touches of its pages.
    pub fn new() -> Calibrator {
        Calibrator { table: vec![1; TABLE_WORDS], chunks: Vec::new(), spent: 0.0 }
    }

    /// Random read-modify-writes over the table, with a branch that
    /// depends on the data; returns the chunk's CPU seconds.
    fn chunk(&mut self) -> f64 {
        let start = process_cpu_seconds();
        let table = black_box(&mut self.table);
        let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0_u64);
        for _ in 0..CHUNK_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & (TABLE_WORDS - 1);
            acc = acc.wrapping_add(table[i]).rotate_left(5);
            table[i] = acc ^ x;
            if acc & 3 == 0 {
                acc = acc.wrapping_mul(31);
            }
        }
        black_box(acc);
        let s = process_cpu_seconds() - start;
        self.chunks.push(s);
        self.spent += s;
        s
    }

    /// Runs one chunk and forgets its time. The first chunk after the
    /// workload is slower than the rest, as it brings the table back into
    /// the caches; kept, it would tie the calibration to how often the
    /// workload hands over.
    fn warm(&mut self) {
        self.chunk();
        let s = self.chunks.pop().expect("the chunk just run");
        self.spent -= s;
    }

    /// Runs a burst of chunks once the kernel owes [`BURST_S`] of its share
    /// of `measured`, the CPU seconds measured so far.
    pub fn keep_up(&mut self, measured: f64) {
        if SHARE * measured - self.spent < BURST_S {
            return;
        }
        self.warm();
        while self.spent < SHARE * measured {
            self.chunk();
        }
    }

    /// Runs chunks until there are at least [`MIN_CHUNKS`] of them.
    pub fn fill(&mut self) {
        self.warm();
        while self.chunks.len() < MIN_CHUNKS {
            self.chunk();
        }
    }

    /// CPU seconds of a chunk in this run: the trimmed mean, as for the
    /// timings it scales.
    pub fn chunk_s(&self) -> f64 {
        trimmed_mean(&self.chunks)
    }

    /// Chunks taken so far.
    pub fn chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The factor that turns this process's CPU seconds into seconds of the
    /// host the benchmark was tuned on.
    pub fn scale(&self) -> f64 {
        NOMINAL_CHUNK_S / self.chunk_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_its_share_and_scales_by_the_mean_chunk() {
        let mut calib = Calibrator::new();
        calib.keep_up(BURST_S / SHARE / 2.0);
        assert_eq!(calib.chunks(), 0);
        calib.keep_up(1.0);
        assert!(calib.spent >= SHARE);
        calib.fill();
        assert!(calib.chunks() >= MIN_CHUNKS);
        let scale = calib.scale();
        assert!(scale.is_finite() && scale > 0.0);
        assert_eq!(scale, NOMINAL_CHUNK_S / trimmed_mean(&calib.chunks));
    }
}
