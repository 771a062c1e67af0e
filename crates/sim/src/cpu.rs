//! Finite-core CPU model.
//!
//! Work items are scheduled onto the earliest-free core (FCFS). The pool
//! tracks busy time per reporting window for utilization, and supports
//! withdrawing/restoring cores mid-run to emulate external load on the
//! database server.

/// A pool of identical cores executing virtual instructions.
#[derive(Debug, Clone)]
pub struct CpuPool {
    /// Completion time of the work currently assigned to each core (ns).
    free_at: Vec<u64>,
    /// Instructions per second.
    ips: u64,
    /// Busy nanoseconds scheduled since the last checkpoint.
    window_busy_ns: u64,
    /// Execution speed in per-mille (1000 = unloaded full speed).
    /// External tenants time-sharing the server slow our work down
    /// proportionally. Stored as an integer so every duration is computed
    /// with exact integer arithmetic — virtual timestamps stay
    /// bit-deterministic across platforms.
    speed_permille: u64,
}

impl CpuPool {
    pub fn new(cores: usize, ips: u64) -> Self {
        assert!(cores > 0 && ips > 0);
        CpuPool {
            free_at: vec![0; cores],
            ips,
            window_busy_ns: 0,
            speed_permille: 1000,
        }
    }

    /// Set the execution speed factor (external-load emulation). Clamped
    /// to [0.01, 1.0]; `f64` only at this API edge — internally the pool
    /// works in integer per-mille.
    pub fn set_speed(&mut self, speed: f64) {
        self.speed_permille = (speed.clamp(0.01, 1.0) * 1000.0).round() as u64;
    }

    pub fn cores(&self) -> usize {
        self.free_at.len()
    }

    /// Change the number of usable cores (external load emulation). When
    /// shrinking, in-flight work finishes; only future scheduling sees
    /// fewer cores.
    pub fn set_cores(&mut self, cores: usize, now: u64) {
        assert!(cores > 0);
        if cores < self.free_at.len() {
            // Keep the busiest cores? Keep the first `cores`; clamp their
            // availability to now so shrink can't time-travel.
            self.free_at.truncate(cores);
        } else {
            while self.free_at.len() < cores {
                self.free_at.push(now);
            }
        }
    }

    /// Convert an instruction count to a duration (at the current speed).
    /// Pure integer arithmetic: no float rounding enters the event clock.
    pub fn duration_ns(&self, instructions: u64) -> u64 {
        let base = instructions.saturating_mul(1_000_000_000) / self.ips;
        base.saturating_mul(1000) / self.speed_permille
    }

    /// Schedule `instructions` of work arriving at `now`; returns the
    /// completion time.
    pub fn schedule(&mut self, now: u64, instructions: u64) -> u64 {
        let dur = self.duration_ns(instructions);
        let (idx, &free) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &f)| f)
            .expect("at least one core");
        let start = now.max(free);
        let end = start + dur;
        self.free_at[idx] = end;
        self.window_busy_ns += dur;
        end
    }

    /// Fraction of cores busy at instant `now` (0–100).
    pub fn instant_load_pct(&self, now: u64) -> f64 {
        let busy = self.free_at.iter().filter(|&&f| f > now).count();
        100.0 * busy as f64 / self.free_at.len() as f64
    }

    /// Average utilization over a window: busy time scheduled in the
    /// window / (cores × window). Call `reset_window` at the window start.
    pub fn window_utilization_pct(&self, window_ns: u64) -> f64 {
        if window_ns == 0 {
            return 0.0;
        }
        100.0 * self.window_busy_ns as f64 / (self.free_at.len() as f64 * window_ns as f64)
    }

    pub fn reset_window(&mut self) {
        self.window_busy_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_serializes() {
        let mut p = CpuPool::new(1, 1_000_000_000); // 1 instr = 1 ns
        let a = p.schedule(0, 100);
        let b = p.schedule(0, 100);
        assert_eq!(a, 100);
        assert_eq!(b, 200, "second job queues behind the first");
    }

    #[test]
    fn multiple_cores_run_in_parallel() {
        let mut p = CpuPool::new(2, 1_000_000_000);
        let a = p.schedule(0, 100);
        let b = p.schedule(0, 100);
        assert_eq!(a, 100);
        assert_eq!(b, 100);
        let c = p.schedule(0, 50);
        assert_eq!(c, 150, "third job waits for a core");
    }

    #[test]
    fn arrival_after_free_time_starts_immediately() {
        let mut p = CpuPool::new(1, 1_000_000_000);
        p.schedule(0, 100);
        let b = p.schedule(500, 100);
        assert_eq!(b, 600);
    }

    #[test]
    fn utilization_accounting() {
        let mut p = CpuPool::new(2, 1_000_000_000);
        p.reset_window();
        p.schedule(0, 1000);
        assert!((p.window_utilization_pct(1000) - 50.0).abs() < 1e-9);
        assert!(p.instant_load_pct(500) > 0.0);
        assert_eq!(p.instant_load_pct(5000), 0.0);
    }

    #[test]
    fn speed_factor_slows_execution() {
        let mut p = CpuPool::new(1, 1_000_000_000);
        assert_eq!(p.duration_ns(1000), 1000);
        p.set_speed(0.5);
        assert_eq!(p.duration_ns(1000), 2000);
        p.set_speed(0.0); // clamped
        assert_eq!(p.duration_ns(100), 10_000);
    }

    #[test]
    fn shrinking_cores_increases_queueing() {
        let mut p = CpuPool::new(4, 1_000_000_000);
        p.set_cores(1, 0);
        assert_eq!(p.cores(), 1);
        let a = p.schedule(0, 100);
        let b = p.schedule(0, 100);
        assert!(b > a);
        p.set_cores(3, 200);
        assert_eq!(p.cores(), 3);
    }
}
