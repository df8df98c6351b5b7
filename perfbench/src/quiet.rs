//! Host interference. The benchmark runs on a shared virtual machine
//! whose hypervisor steals CPU time in bursts: in probes, the TPC-H pass
//! rate fell from 27 to 8 queries/s as steal rose from 0 to 48% of the
//! VM's CPU time. A monitor thread samples the steal counter of
//! `/proc/stat`, and every end-to-end figure is taken over the less
//! disturbed half of the window: the half of its seconds (or of its
//! analytic passes) during which the least CPU was stolen. The rule
//! never looks at the measured values, only at the host's counter.

use crate::Layers;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const EVERY: Duration = Duration::from_millis(100);

/// Cumulative steal ticks of all CPUs (`/proc/stat`, 8th field of `cpu`).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Samples of the steal counter taken every 100 ms.
#[derive(Default)]
pub struct StealLog(Vec<(Instant, u64)>);

/// Sample the steal counter until `stop`.
pub fn monitor(stop: &AtomicBool) -> StealLog {
    let mut log = StealLog::default();
    loop {
        log.0.push((Instant::now(), steal_ticks()));
        if stop.load(Ordering::Relaxed) {
            return log;
        }
        std::thread::sleep(EVERY);
    }
}

impl StealLog {
    /// Steal ticks between the last sample at or before `t0` and the
    /// first sample at or after `t1`.
    pub fn between(&self, t0: Instant, t1: Instant) -> f64 {
        let from = self
            .0
            .iter()
            .rev()
            .find(|(t, _)| *t <= t0)
            .or(self.0.first());
        let to = self.0.iter().find(|(t, _)| *t >= t1).or(self.0.last());
        match (from, to) {
            (Some(a), Some(b)) => b.1.saturating_sub(a.1) as f64,
            _ => 0.0,
        }
    }

    /// Share of the VM's CPU time stolen between `t0` and `t1`, in %.
    pub fn pct(&self, t0: Instant, t1: Instant) -> f64 {
        let secs = t1.duration_since(t0).as_secs_f64().max(1e-9);
        self.between(t0, t1) / (secs * cpus() * 100.0) * 100.0
    }
}

/// Which intervals to keep: the half (rounded up) with the least steal;
/// ties keep the earlier interval.
pub fn quietest_half(steal: &[f64]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    let mut keep = vec![false; steal.len()];
    for &i in order.iter().take(steal.len().div_ceil(2)) {
        keep[i] = true;
    }
    keep
}

/// The quieter half of the whole seconds of a window.
pub struct QuietSeconds {
    start: Instant,
    /// Steal ticks in each second.
    steal: Vec<f64>,
    keep: Vec<bool>,
}

fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

impl QuietSeconds {
    pub fn new(log: &StealLog, start: Instant, end: Instant) -> QuietSeconds {
        let n = end.duration_since(start).as_secs() as u32;
        let steal: Vec<f64> = (0..n)
            .map(|k| {
                let t0 = start + Duration::from_secs(k.into());
                log.between(t0, t0 + Duration::from_secs(1))
            })
            .collect();
        QuietSeconds {
            start,
            keep: quietest_half(&steal),
            steal,
        }
    }

    /// End of the last whole second.
    pub fn end(&self) -> Instant {
        self.start + Duration::from_secs(self.steal.len() as u64)
    }

    /// Share of CPU time stolen during the kept seconds, in %.
    pub fn kept_steal_pct(&self) -> f64 {
        let kept: Vec<f64> = self
            .steal
            .iter()
            .zip(&self.keep)
            .filter(|(_, k)| **k)
            .map(|(s, _)| *s)
            .collect();
        kept.iter().sum::<f64>() / (kept.len().max(1) as f64 * cpus() * 100.0) * 100.0
    }

    /// Index among the kept seconds of the second `at` falls in, if kept.
    pub fn kept_index(&self, at: Instant) -> Option<usize> {
        let k = at.saturating_duration_since(self.start).as_secs() as usize;
        if !self.keep.get(k).copied().unwrap_or(false) {
            return None;
        }
        Some(self.keep[..k].iter().filter(|x| **x).count())
    }

    /// Number of kept seconds.
    pub fn kept(&self) -> usize {
        self.keep.iter().filter(|k| **k).count()
    }

    /// Values of the samples taken in kept seconds.
    pub fn filter(&self, samples: &[(Instant, f64)]) -> Vec<f64> {
        samples
            .iter()
            .filter(|(t, _)| self.kept_index(*t).is_some())
            .map(|s| s.1)
            .collect()
    }
}

/// How much CPU the host stole during the window, and from the kept
/// seconds.
pub fn steal_metrics(steal: &StealLog, start: Instant, seconds: &QuietSeconds, l: &mut Layers) {
    let (all, kept) = (steal.pct(start, seconds.end()), seconds.kept_steal_pct());
    println!("# host stole {all:.2}% of the CPU in the window, {kept:.2}% in the kept seconds");
    l.set("gen.steal_pct", all);
    l.set("gen.kept_steal_pct", kept);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_least_stolen_half() {
        assert_eq!(
            quietest_half(&[5.0, 0.0, 9.0, 1.0]),
            [false, true, false, true]
        );
        assert_eq!(quietest_half(&[2.0, 2.0, 2.0]), [true, true, false]);
        assert!(quietest_half(&[]).is_empty());
    }

    #[test]
    fn steal_between_uses_bracketing_samples() {
        let t = Instant::now();
        let s = |ms: u64| t + Duration::from_millis(ms);
        let log = StealLog(vec![(s(0), 10), (s(100), 14), (s(200), 30)]);
        assert_eq!(log.between(s(50), s(150)), 20.0);
        assert_eq!(log.between(s(100), s(100)), 0.0);
        let q = QuietSeconds {
            start: t,
            steal: vec![0.0, 50.0],
            keep: vec![true, false],
        };
        assert_eq!(q.kept_index(s(1500)), None);
        assert_eq!(q.kept(), 1);
        assert_eq!(
            q.filter(&[(s(10), 1.0), (s(1500), 2.0), (s(2500), 3.0)]),
            [1.0]
        );
    }
}
