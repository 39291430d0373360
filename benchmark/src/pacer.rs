//! The open-loop schedule: frame `k` is due at `k × period` after the
//! phase starts, whatever happened to the frames before it. A closed
//! loop would send the next frame when the previous one returns, so a
//! slow server would be offered less load and look better than it is.

use std::time::{Duration, Instant};

/// Due times of a fixed-rate stream, as offsets from the phase start.
#[derive(Debug, Clone)]
pub struct Pacer {
    period: Duration,
    next: u32,
}

impl Pacer {
    pub fn new(fps: f64) -> Self {
        Pacer {
            period: Duration::from_secs_f64(1.0 / fps),
            next: 0,
        }
    }

    pub fn period(&self) -> Duration {
        self.period
    }

    /// Due offset of the next frame. Never looks at the clock: a stall
    /// does not move the schedule.
    pub fn next_due(&mut self) -> Duration {
        let due = self.period * self.next;
        self.next += 1;
        due
    }
}

/// Sleeps until `start + due`; returns immediately when that is past.
pub fn sleep_until(start: Instant, due: Duration) {
    if let Some(wait) = (start + due).checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// What the paced phase of one stream observed, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct PacedLog {
    /// How long after its due time each frame was actually sent: the
    /// generator's own lateness.
    pub late_ms: Vec<f64>,
    /// Due time → response, per answered frame. Measured from the due
    /// time, so the wait a stall imposes on later frames is counted.
    pub latency_ms: Vec<f64>,
}

impl PacedLog {
    /// Records one answered frame; all three are offsets from the phase
    /// start.
    pub fn record(&mut self, due: Duration, sent: Duration, done: Duration) {
        self.late_ms.push(ms(sent.saturating_sub(due)));
        self.latency_ms.push(ms(done.saturating_sub(due)));
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_ignores_the_clock() {
        let mut pacer = Pacer::new(40.0);
        assert_eq!(pacer.period(), Duration::from_millis(25));
        let due: Vec<Duration> = (0..4).map(|_| pacer.next_due()).collect();
        assert_eq!(
            due,
            [0, 25, 50, 75].map(Duration::from_millis),
            "due times are k x period"
        );
    }

    #[test]
    fn a_stalled_send_yields_late_samples_and_latency_from_due_time() {
        // 100 fps schedule, 4 ms service time, blocking client. Frame 2
        // stalls for 35 ms, so frames 3..=5 cannot be sent when due.
        let mut pacer = Pacer::new(100.0);
        let mut log = PacedLog::default();
        let service = Duration::from_millis(4);
        let mut free_at = Duration::ZERO;
        for k in 0..8 {
            let due = pacer.next_due();
            let sent = due.max(free_at);
            let stall = if k == 2 { 35 } else { 0 };
            let done = sent + service + Duration::from_millis(stall);
            log.record(due, sent, done);
            free_at = done;
        }
        let near = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // On-time frames: sent when due, latency is the service time.
        assert!(log.late_ms[..3].iter().all(|&l| l == 0.0));
        assert!(near(log.latency_ms[0], 4.0));
        assert!(near(log.latency_ms[2], 39.0));
        // Frame 3 was due at 30 ms but the client was busy until 59 ms.
        assert!(near(log.late_ms[3], 29.0));
        assert!(near(log.latency_ms[3], 33.0), "29 ms queued + 4 ms served");
        // A closed-loop timer (sent → done) would have said 4 ms.
        // The backlog then drains at 6 ms per frame.
        assert!(near(log.late_ms[4], 23.0));
        assert!(near(log.late_ms[5], 17.0));
        assert!(log.late_ms[7] < log.late_ms[6]);
        assert_eq!(log.late_ms.len(), log.latency_ms.len());
    }
}
