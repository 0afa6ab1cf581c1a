//! Host-speed normalisation.
//!
//! The sandbox this benchmark runs in shares its cores: the speed of pure
//! CPU work drifts by ±15–20 % over windows of about ten seconds (the A/A
//! table in `README.md` shows it).  No median over a 15 s run removes a
//! drift that slow, so every timed loop interleaves a fixed *calibration
//! loop* — plain integer Rust owned by the benchmark, touching nothing of
//! `finch` — about every 50 ms, and each measured time is scaled by
//! `CAL_REFERENCE_NS / calibration time` of the segment it fell in.  Reported
//! times are therefore "at reference host speed": the speed at which the
//! calibration loop takes `CAL_REFERENCE_NS`, its median on the host the
//! benchmark was defined on.  `host.speed` reports the factor itself
//! (1 = reference, below 1 = the host was slower), so as-measured times are
//! `reported / host.speed`.
//!
//! Over ten minutes of recorded drift, 15 s windows of raw medians spread
//! by 7.6 % (interquartile range over median); the same windows normalised
//! this way spread by 0.6 %.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations of one calibration (about 1.7 ms).
const CAL_ITERS: u64 = 200_000;

/// The calibration's median duration on the defining host.
pub const CAL_REFERENCE_NS: f64 = 1_740_000.0;

/// How much measured time passes between two calibrations.
const CAL_INTERVAL: Duration = Duration::from_millis(50);

/// The calibration loop: a xorshift stream drives an eight-way unpredictable
/// branch over a 2 KiB table — the mix of dependent integer work, L1 loads
/// and branch misses an interpreter's dispatch loop has.
fn calibration_loop(iters: u64) -> u64 {
    let mut table = [0u64; 256];
    for (i, t) in table.iter_mut().enumerate() {
        *t = (i as u64).wrapping_mul(0x0100_0000_01b3);
    }
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = match x & 7 {
            0 => acc.wrapping_add(table[(x >> 8) as usize & 255]),
            1 => acc ^ table[(x >> 16) as usize & 255],
            2 => acc.wrapping_mul(3),
            3 => acc.rotate_left(5),
            4 => acc.wrapping_sub(x),
            5 => {
                table[(x >> 24) as usize & 255] = acc;
                acc
            }
            6 => acc | 1,
            _ => acc.wrapping_add(1),
        };
    }
    acc
}

/// Run the calibration once; the host's speed relative to the reference.
pub fn speed_now() -> f64 {
    let t0 = Instant::now();
    black_box(calibration_loop(black_box(CAL_ITERS)));
    CAL_REFERENCE_NS / (t0.elapsed().as_nanos() as f64).max(1.0)
}

/// One thread's normalised clock over one timed loop.
pub struct Pace {
    speed: f64,
    segment_start: Instant,
    normalised_ns: f64,
    speeds: Vec<f64>,
}

impl Pace {
    /// Calibrate and start the clock.
    pub fn start() -> Pace {
        let speed = speed_now();
        Pace { speed, segment_start: Instant::now(), normalised_ns: 0.0, speeds: vec![speed] }
    }

    /// A duration measured in the current segment, at reference host speed.
    #[inline]
    pub fn normalised(&self, ns: u64) -> u64 {
        (ns as f64 * self.speed) as u64
    }

    /// Re-calibrate if the current segment has run for `CAL_INTERVAL`.  Call
    /// between operations with a timestamp already taken; the calibration
    /// itself is not part of the normalised clock.
    #[inline]
    pub fn tick(&mut self, now: Instant) {
        if now.duration_since(self.segment_start) >= CAL_INTERVAL {
            self.close_segment(now);
            self.speed = speed_now();
            self.speeds.push(self.speed);
            self.segment_start = Instant::now();
        }
    }

    fn close_segment(&mut self, now: Instant) {
        self.normalised_ns += now.duration_since(self.segment_start).as_nanos() as f64 * self.speed;
    }

    /// Stop the clock: normalised ns since `start`, and the mean host speed.
    pub fn finish(mut self) -> (u64, f64) {
        self.close_segment(Instant::now());
        (self.normalised_ns as u64, self.speeds.iter().sum::<f64>() / self.speeds.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_calibration_loop_is_a_fixed_computation() {
        assert_eq!(calibration_loop(1000), calibration_loop(1000));
        assert_ne!(calibration_loop(1000), calibration_loop(1001));
    }

    #[test]
    fn a_pace_scales_by_the_speed_of_its_segment() {
        let mut pace = Pace::start();
        pace.speed = 0.5;
        assert_eq!(pace.normalised(1000), 500);
        let (ns, speed) = pace.finish();
        assert!(ns < 1_000_000_000 && speed > 0.0);
    }
}
