//! Host-speed normalization. The shared hosts this benchmark runs on
//! change speed by up to 1.6× from one second to the next, and
//! everything on them slows and speeds up together: a bare process
//! spawn as much as a whole flow. Each run therefore times a reference
//! operation next to its measured operations, a spawn of this
//! benchmark's own binary that exits at once, and reports each timing as
//! it would read on a host where that spawn takes [`NOMINAL_SPAWN_MS`],
//! at the speed the host had around that timing. The reference runs no
//! code of the program under test, so a change to the program moves the
//! normalized figures exactly as it moves the wall times.

use crate::oneshot::run_cli;
use crate::report::Report;
use crate::stats::{percentile, sorted};
use std::ops::Range;

/// The argument that makes this binary exit at once: the reference.
pub const REFERENCE_ARG: &str = "reference";

/// The reference spawn time the normalized figures assume, ms: about
/// its median on the 2-vCPU host the bounds were set on.
pub const NOMINAL_SPAWN_MS: f64 = 0.5;

/// Reference spawns taken at each checkpoint of a workload that cannot
/// interleave them with its operations.
pub const BLOCK: usize = 40;

/// Reference spawns on each side of a timing that give the host's speed
/// at that timing. The host's speed holds for about a second; 21 spawns
/// interleaved with one-shot runs span 0.3–1.5 s.
const LOCAL: usize = 10;

/// Wall times of reference spawns taken during one run, in order.
#[derive(Debug, Default)]
pub struct Reference {
    spawns_ms: Vec<f64>,
}

impl Reference {
    /// Times `n` reference spawns; returns their indices.
    pub fn probe(&mut self, n: usize) -> Result<Range<usize>, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
        let first = self.spawns_ms.len();
        for _ in 0..n {
            let ran = run_cli(&exe, &[REFERENCE_ARG.to_owned()])?;
            if !ran.out.status.success() {
                return Err(format!("reference spawn exited with {}", ran.out.status));
            }
            self.spawns_ms.push(ran.took.as_secs_f64() * 1e3);
        }
        Ok(first..self.spawns_ms.len())
    }

    /// The median reference spawn over the whole run, ms.
    ///
    /// # Panics
    ///
    /// When nothing was probed.
    pub fn spawn_ms(&self) -> f64 {
        percentile(&sorted(&self.spawns_ms), 50.0)
    }

    /// The factor that turns wall times taken during this run into
    /// normalized ones, from the run's median spawn; rates divide by it.
    pub fn scale(&self) -> f64 {
        NOMINAL_SPAWN_MS / self.spawn_ms()
    }

    /// The factor for a wall time taken next to spawn `at`: from the
    /// median of the [`LOCAL`] spawns on each side of it.
    pub fn scale_at(&self, at: usize) -> f64 {
        self.scale_over(at.saturating_sub(LOCAL)..(at + LOCAL + 1).min(self.spawns_ms.len()))
    }

    /// The factor for a wall time taken between the spawns `spawns`.
    ///
    /// # Panics
    ///
    /// When `spawns` is empty.
    pub fn scale_over(&self, spawns: Range<usize>) -> f64 {
        NOMINAL_SPAWN_MS / percentile(&sorted(&self.spawns_ms[spawns]), 50.0)
    }
}

/// The timings one run reports, either as measured or normalized.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Median set-up, s.
    pub setup_s: f64,
    /// Median operation latency, ms.
    pub p50_ms: f64,
    /// 90th-percentile operation latency, ms.
    pub p90_ms: f64,
    /// Operations completed per second.
    pub per_s: f64,
}

/// Records the end-to-end timings, normalized to the nominal host
/// speed, and, outside the result line, the 90th percentile and the
/// wall-clock figures behind them.
pub fn report_timings(report: &mut Report, reference: &Reference, normalized: Timed, wall: Timed) {
    report.metric("setup_s", normalized.setup_s, "s");
    report.metric("latency_ms_p50", normalized.p50_ms, "ms");
    report.metric("throughput_per_s", normalized.per_s, "1/s");
    report.extra("latency_ms_p90", normalized.p90_ms, "ms");
    report.extra("wall.setup_s", wall.setup_s, "s");
    report.extra("wall.latency_ms_p50", wall.p50_ms, "ms");
    report.extra("wall.latency_ms_p90", wall.p90_ms, "ms");
    report.extra("wall.throughput_per_s", wall.per_s, "1/s");
    report.extra("reference.spawn_ms", reference.spawn_ms(), "ms");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_scale_follows_the_nearby_spawns() {
        let mut spawns_ms = vec![0.5; 30];
        spawns_ms.extend(vec![1.0; 30]);
        let r = Reference { spawns_ms };
        assert_eq!(r.scale_at(0), 1.0);
        assert_eq!(r.scale_at(59), 0.5);
        assert_eq!(r.scale_over(0..3), 1.0);
        assert_eq!(r.scale_over(40..45), 0.5);
    }
}
