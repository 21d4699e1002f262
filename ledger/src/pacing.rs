//! The open-loop schedule: requests are due on a fixed grid that never
//! moves. A request that cannot leave on time leaves as soon as the
//! connection is free and is still timed from the instant it was *due*,
//! so a stall shows up in the latency of every request it delayed
//! instead of silently thinning the load. Nothing is ever sent before
//! its due time, so a stalled generator does not make up its average
//! rate with a burst of early requests.
//!
//! Two things can hold a request back, and they are kept apart. While
//! the previous reply is still outstanding the connection is *blocked*:
//! that wait is the system's doing and is part of the request's latency.
//! Once the request is due and the connection free, any further delay
//! is the *generator* running late, and a run with too much of it
//! measured the generator, not the system.

use std::time::{Duration, Instant};

/// The generator ran late on a request it sent this long after it could
/// have.
pub const LATE_NS: u64 = 200_000;

/// How close to the due time the generator stops sleeping and spins:
/// `thread::sleep` overshoots by roughly the kernel's timer slack. (A
/// longer spin does not help on a busy host: the scheduler then treats
/// the generator as one more CPU-bound thread and preempts it.)
const SPIN_NS: u64 = 80_000;

/// A fixed grid of due times, in nanoseconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    gap_ns: u64,
    offset_ns: u64,
}

impl Schedule {
    /// `rate_per_s` requests per second, the first due `offset_ns` after
    /// the phase start (connections interleave by offsetting half a gap).
    pub fn new(rate_per_s: u64, offset_ns: u64) -> Self {
        assert!(rate_per_s > 0, "an open loop needs a positive rate");
        Schedule {
            gap_ns: 1_000_000_000 / rate_per_s,
            offset_ns,
        }
    }

    /// Nanoseconds between consecutive due times.
    pub fn gap_ns(&self) -> u64 {
        self.gap_ns
    }

    /// When request `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.offset_ns + i * self.gap_ns
    }
}

/// What one request saw, all in nanoseconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When it was due.
    pub due_ns: u64,
    /// When it could first have been sent: its due time, or the previous
    /// reply's arrival if that came later.
    pub ready_ns: u64,
    /// When it was actually sent (never before `ready_ns`).
    pub sent_ns: u64,
    /// When its reply arrived.
    pub done_ns: u64,
}

impl Timing {
    /// Due time → reply: what the user waited.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// Send → reply: what the system took once it had the request.
    pub fn rtt_ns(&self) -> u64 {
        self.done_ns - self.sent_ns
    }

    /// Due → ready: how long the previous request blocked the connection.
    pub fn blocked_ns(&self) -> u64 {
        self.ready_ns - self.due_ns
    }

    /// Ready → sent: how late the generator ran.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns - self.ready_ns
    }

    /// Whether the generator, not the system, delayed this request.
    pub fn is_late(&self) -> bool {
        self.late_ns() > LATE_NS
    }
}

/// When a request due at `due_ns` can first be sent down a connection
/// whose previous reply arrived at `free_ns`.
pub fn ready_ns(due_ns: u64, free_ns: u64) -> u64 {
    due_ns.max(free_ns)
}

/// Share of requests the generator sent late.
pub fn late_share(timings: &[Timing]) -> f64 {
    if timings.is_empty() {
        return 0.0;
    }
    timings.iter().filter(|t| t.is_late()).count() as f64 / timings.len() as f64
}

/// Nanoseconds since `epoch`.
pub fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Blocks until `due_ns` after `epoch`: sleeps most of the way, spins
/// the last stretch. Returns at once when the due time has passed.
pub fn wait_until(epoch: Instant, due_ns: u64) {
    let wait = due_ns.saturating_sub(since(epoch));
    if wait > SPIN_NS {
        std::thread::sleep(Duration::from_nanos(wait - SPIN_NS));
    }
    while since(epoch) < due_ns {
        std::hint::spin_loop();
    }
}

/// Drives up to `n` blocking requests down one connection on
/// `schedule`, calling `send(i)` for each (it returns once the reply is
/// in), until `stop` says the phase is over.
pub fn run_paced(
    epoch: Instant,
    schedule: Schedule,
    n: u64,
    mut stop: impl FnMut() -> bool,
    mut send: impl FnMut(u64),
) -> Vec<Timing> {
    let mut out = Vec::new();
    let mut free_ns = 0;
    for i in 0..n {
        let due_ns = schedule.due_ns(i);
        wait_until(epoch, due_ns);
        if stop() {
            break;
        }
        let sent_ns = since(epoch);
        send(i);
        let done_ns = since(epoch);
        out.push(Timing {
            due_ns,
            ready_ns: ready_ns(due_ns, free_ns),
            sent_ns,
            done_ns,
        });
        free_ns = done_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn due_times_sit_on_a_fixed_grid_with_offset() {
        let a = Schedule::new(200, 0);
        let b = Schedule::new(200, a.gap_ns() / 2);
        assert_eq!(a.gap_ns(), 5 * MS);
        assert_eq!(a.due_ns(3), 15 * MS);
        assert_eq!(b.due_ns(0), 5 * MS / 2);
        assert_eq!(b.due_ns(3) - a.due_ns(3), 5 * MS / 2);
    }

    /// Replays the generator loop against a fake clock: request `i`
    /// blocks the connection for `service[i]`, and the generator wakes
    /// `overshoot[i]` after it could have sent it.
    fn simulate(schedule: Schedule, service: &[u64], overshoot: &[u64]) -> Vec<Timing> {
        let mut free_ns = 0u64;
        let mut out = Vec::new();
        for (i, (&svc, &over)) in service.iter().zip(overshoot).enumerate() {
            let due_ns = schedule.due_ns(i as u64);
            let ready = ready_ns(due_ns, free_ns);
            let sent_ns = ready + over;
            free_ns = sent_ns + svc;
            out.push(Timing {
                due_ns,
                ready_ns: ready,
                sent_ns,
                done_ns: free_ns,
            });
        }
        out
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        let s = Schedule::new(1000, 0); // 1 ms gap
                                        // Request 1 stalls for 3.5 ms; the rest take 0.1 ms.
        let service = [MS / 10, 35 * MS / 10, MS / 10, MS / 10, MS / 10, MS / 10];
        let t = simulate(s, &service, &[0; 6]);
        // The grid never moves and nothing leaves early.
        for (i, x) in t.iter().enumerate() {
            assert_eq!(x.due_ns, i as u64 * MS);
            assert!(x.sent_ns >= x.due_ns, "request {i} left early");
        }
        assert_eq!((t[0].latency_ns(), t[0].blocked_ns()), (MS / 10, 0));
        // Requests 2..4 were due during the stall (which ended at 4.5 ms):
        // their latency counts the wait from the due time, as time the
        // connection was blocked, not as generator lateness.
        assert_eq!(t[2].sent_ns, 45 * MS / 10);
        assert_eq!(t[2].blocked_ns(), 25 * MS / 10);
        assert_eq!(t[2].latency_ns(), 26 * MS / 10);
        assert_eq!(t[2].rtt_ns(), MS / 10);
        assert!(t[3].blocked_ns() > 0 && t[4].blocked_ns() > 0);
        // Request 5 (due at 5 ms) finds the connection free again.
        assert_eq!((t[5].sent_ns, t[5].blocked_ns()), (5 * MS, 0));
        assert_eq!(late_share(&t), 0.0);
    }

    #[test]
    fn lateness_counts_only_the_generators_own_delay() {
        let s = Schedule::new(1000, 0);
        // The generator oversleeps by 0.3 ms on request 1 and by 0.1 ms on
        // request 3; request 2 is due while 1 is still outstanding.
        let service = [MS / 10, 12 * MS / 10, MS / 10, MS / 10];
        let t = simulate(s, &service, &[0, 3 * MS / 10, 0, MS / 10]);
        assert_eq!((t[1].late_ns(), t[1].is_late()), (3 * MS / 10, true));
        assert_eq!(t[1].latency_ns(), 15 * MS / 10); // lateness is still in the latency
        assert_eq!((t[2].blocked_ns(), t[2].late_ns()), (5 * MS / 10, 0));
        assert!(!t[2].is_late());
        assert_eq!((t[3].late_ns(), t[3].is_late()), (MS / 10, false));
        assert!((late_share(&t) - 0.25).abs() < 1e-12);
        assert_eq!(late_share(&[]), 0.0);
    }

    #[test]
    fn nothing_is_sent_early_to_make_up_the_rate() {
        // After a stall the backlog drains at service speed, but once it
        // is drained the generator falls back onto the grid: it does not
        // run ahead to restore the average rate.
        let s = Schedule::new(1000, 0);
        let mut service = vec![MS / 10; 12];
        service[0] = 5 * MS;
        let t = simulate(s, &service, &[0; 12]);
        let drained = t
            .iter()
            .position(|x| x.blocked_ns() == 0 && x.due_ns > 0)
            .unwrap();
        assert!(drained > 1 && drained < t.len() - 1);
        for x in &t[drained..] {
            assert_eq!(x.sent_ns, x.due_ns);
        }
        assert_eq!((ready_ns(7, 10), ready_ns(10, 7)), (10, 10));
    }

    #[test]
    fn run_paced_honours_the_stop_signal_and_the_clock() {
        let epoch = Instant::now();
        let s = Schedule::new(2000, 0);
        let mut sent = 0;
        let t = run_paced(epoch, s, 10, || false, |_| sent += 1);
        assert_eq!((t.len(), sent), (10, 10));
        assert!(t
            .iter()
            .all(|x| x.sent_ns >= x.ready_ns && x.ready_ns >= x.due_ns));
        assert!(since(epoch) >= s.due_ns(9));
        let t = run_paced(Instant::now(), s, 10, || true, |_| unreachable!());
        assert!(t.is_empty());
    }
}
