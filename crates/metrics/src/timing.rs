//! Throughput measurement helpers.

use std::time::{Duration, Instant};

/// Converts a byte count and duration into GiB/s.
pub fn throughput_gibps(bytes: usize, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs == 0.0 {
        return f64::INFINITY;
    }
    bytes as f64 / (1024.0 * 1024.0 * 1024.0) / secs
}

/// A small stopwatch for timing compression passes.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed time since the stopwatch was started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gibps_conversion() {
        let one_gib = 1usize << 30;
        assert!((throughput_gibps(one_gib, Duration::from_secs(1)) - 1.0).abs() < 1e-12);
        assert!((throughput_gibps(one_gib / 2, Duration::from_secs(1)) - 0.5).abs() < 1e-12);
        assert!((throughput_gibps(one_gib, Duration::from_millis(500)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_reports_infinity() {
        assert!(throughput_gibps(100, Duration::ZERO).is_infinite());
    }

    #[test]
    fn stopwatch_measures_something() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(5));
        let elapsed = sw.elapsed();
        assert!(elapsed >= Duration::from_millis(4));
        assert!(throughput_gibps(1 << 20, elapsed).is_finite());
    }
}
