//! Load generators: a closed loop and a fixed-rate open loop.
//!
//! Both run on the one driver thread and never block on anything but the
//! target's own replies. The open loop times every request from the moment
//! it was *due* to be sent, so a stall — in the generator or in the target —
//! shows up as latency on every request it delayed instead of hiding behind
//! the one request that was in flight.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use verifai::{DataObject, Verdict};
use verifai_service::{RequestOutcome, SubmitError, Ticket, VerificationService};

use crate::spans::Tracer;
use crate::stats::Tally;

/// How a request ended, reduced to what the benchmark scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// A report came back with this final decision.
    Completed(Verdict),
    /// Admitted, then shed.
    Shed,
    /// Answered with a pipeline error.
    Failed,
    /// Refused at submit: queue full.
    Rejected,
    /// Refused at submit: rate quota (or unknown tenant).
    Throttled,
    /// Admitted and never answered before the drain timeout.
    Lost,
}

/// Something requests can be sent to without blocking.
pub trait Target {
    /// Handle to one admitted request.
    type Pending;
    /// Send request number `index`; `Err` is an immediate refusal.
    fn submit(&self, index: usize) -> Result<Self::Pending, Reply>;
    /// The reply, if it has arrived.
    fn poll(&self, pending: &Self::Pending) -> Option<Reply>;
    /// Block until the reply arrives.
    fn wait(&self, pending: Self::Pending) -> Reply;
}

/// One request's life, in seconds since the run started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Position in the request stream, in submission order.
    pub seq: usize,
    /// What request `seq` targeted (`index_of(seq)`).
    pub index: usize,
    /// When the request was due. Closed loops send as soon as a slot frees,
    /// so this equals `sent`.
    pub intended: f64,
    /// When `submit` was called.
    pub sent: f64,
    /// When the reply was observed.
    pub done: f64,
    /// How it ended.
    pub reply: Reply,
}

impl Record {
    /// Latency from the intended send time, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.intended) * 1e3
    }

    /// How late the generator sent it, milliseconds.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.intended) * 1e3
    }
}

/// Count replies by disposition.
pub fn tally(records: &[Record]) -> Tally {
    let mut t = Tally {
        sent: records.len() as u64,
        ..Tally::default()
    };
    for r in records {
        match r.reply {
            Reply::Completed(_) => t.completed += 1,
            Reply::Shed => t.shed += 1,
            Reply::Failed => t.failed += 1,
            Reply::Rejected => t.rejected += 1,
            Reply::Throttled => t.throttled += 1,
            Reply::Lost => t.lost += 1,
        }
    }
    t
}

/// A request's position in the stream and the index it targets.
type Ids = (usize, usize);

/// When a generator stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much wall time.
    After(Duration),
    /// After this many requests.
    Count(usize),
    /// After this much wall time or this many requests, whichever is first.
    Either(Duration, usize),
}

impl Stop {
    /// Whether a generator `elapsed` into its run with `sent` requests out
    /// should send another.
    pub fn keeps_going(self, elapsed: Duration, sent: usize) -> bool {
        match self {
            Stop::After(limit) => elapsed < limit,
            Stop::Count(count) => sent < count,
            Stop::Either(limit, count) => elapsed < limit && sent < count,
        }
    }
}

/// Closed loop: keep `outstanding` requests in flight; each completion frees
/// a slot for the next send. Request `n` of the stream targets
/// `index_of(n)`. Stops sending at `stop`, then drains what is in flight.
pub fn closed_loop<T: Target>(
    target: &T,
    outstanding: usize,
    stop: Stop,
    mut index_of: impl FnMut(usize) -> usize,
    tracer: &mut Tracer,
) -> Vec<Record> {
    let t0 = Instant::now();
    let secs = |at: Instant| at.duration_since(t0).as_secs_f64();
    let mut records = Vec::new();
    let mut flight: VecDeque<(Ids, Instant, T::Pending)> = VecDeque::new();
    let mut n = 0usize;
    let finish = |records: &mut Vec<Record>,
                  tracer: &mut Tracer,
                  (seq, index): Ids,
                  sent: Instant,
                  reply: Reply| {
        let done = Instant::now();
        tracer.record_root("request", seq as u64, sent, done);
        records.push(Record {
            seq,
            index,
            intended: secs(sent),
            sent: secs(sent),
            done: secs(done),
            reply,
        });
    };
    loop {
        if stop.keeps_going(t0.elapsed(), n) && flight.len() < outstanding {
            let id = (n, index_of(n));
            n += 1;
            let sent = Instant::now();
            match target.submit(id.1) {
                Ok(pending) => flight.push_back((id, sent, pending)),
                Err(refusal) => finish(&mut records, tracer, id, sent, refusal),
            }
            continue;
        }
        // Block on the oldest request, then collect whatever else is ready
        // behind it without blocking.
        let Some((id, sent, pending)) = flight.pop_front() else {
            break;
        };
        let reply = target.wait(pending);
        finish(&mut records, tracer, id, sent, reply);
        while let Some(reply) = flight.front().and_then(|(_, _, p)| target.poll(p)) {
            let (id, sent, _) = flight.pop_front().expect("front was just polled");
            finish(&mut records, tracer, id, sent, reply);
        }
    }
    records
}

/// How long the open loop sleeps between looks at the clock and the
/// in-flight replies — the resolution of its latency stamps.
const OPEN_LOOP_POLL: Duration = Duration::from_micros(100);

/// Open loop: send request `n` at `n / rate` seconds on a uniform schedule,
/// whatever the target is doing. Requests due while the generator was
/// stalled are sent as soon as it wakes, each timed from its own due time.
/// After the last send, waits up to `drain` for stragglers; the rest are
/// `Lost`.
pub fn open_loop<T: Target>(
    target: &T,
    requests: usize,
    rate: f64,
    drain: Duration,
    mut index_of: impl FnMut(usize) -> usize,
    tracer: &mut Tracer,
) -> Vec<Record> {
    let t0 = Instant::now();
    let secs = |at: Instant| at.duration_since(t0).as_secs_f64();
    let due = |n: usize| t0 + Duration::from_secs_f64(n as f64 / rate);
    let mut records = Vec::with_capacity(requests);
    // In flight: (seq, index), intended, sent, handle.
    let mut flight: Vec<(Ids, Instant, Instant, T::Pending)> = Vec::new();
    let mut n = 0usize;
    let mut give_up: Option<Instant> = None;
    loop {
        let now = Instant::now();
        while n < requests && due(n) <= Instant::now() {
            let ((seq, index), intended) = ((n, index_of(n)), due(n));
            n += 1;
            let sent = Instant::now();
            match target.submit(index) {
                Ok(pending) => flight.push(((seq, index), intended, sent, pending)),
                Err(refusal) => records.push(Record {
                    seq,
                    index,
                    intended: secs(intended),
                    sent: secs(sent),
                    done: secs(Instant::now()),
                    reply: refusal,
                }),
            }
        }
        let mut i = 0;
        while i < flight.len() {
            match target.poll(&flight[i].3) {
                Some(reply) => {
                    let done = Instant::now();
                    let ((seq, index), intended, sent, _) = flight.swap_remove(i);
                    tracer.record_root("request", seq as u64, intended, done);
                    records.push(Record {
                        seq,
                        index,
                        intended: secs(intended),
                        sent: secs(sent),
                        done: secs(done),
                        reply,
                    });
                }
                None => i += 1,
            }
        }
        if n == requests {
            if flight.is_empty() {
                break;
            }
            if now >= *give_up.get_or_insert(now + drain) {
                for ((seq, index), intended, sent, _) in flight.drain(..) {
                    records.push(Record {
                        seq,
                        index,
                        intended: secs(intended),
                        sent: secs(sent),
                        done: secs(now),
                        reply: Reply::Lost,
                    });
                }
                break;
            }
        }
        let next_due = if n < requests {
            due(n)
        } else {
            now + OPEN_LOOP_POLL
        };
        let nap = next_due
            .saturating_duration_since(Instant::now())
            .min(OPEN_LOOP_POLL);
        if !nap.is_zero() {
            std::thread::sleep(nap);
        }
    }
    records.sort_by(|a, b| a.done.partial_cmp(&b.done).expect("finite times"));
    records
}

/// A [`VerificationService`] as a [`Target`]: request `index` verifies
/// `objects[index]`.
pub struct ServiceTarget<'a> {
    /// The service under load.
    pub service: &'a VerificationService,
    /// The request stream's objects.
    pub objects: &'a [DataObject],
}

fn outcome_reply(outcome: RequestOutcome) -> Reply {
    match outcome {
        RequestOutcome::Completed(report) => Reply::Completed(report.decision),
        RequestOutcome::Shed => Reply::Shed,
        RequestOutcome::Failed(_) => Reply::Failed,
    }
}

impl Target for ServiceTarget<'_> {
    type Pending = Ticket;

    fn submit(&self, index: usize) -> Result<Ticket, Reply> {
        self.service
            .submit(self.objects[index].clone())
            .map_err(|refusal| match refusal {
                SubmitError::QueueFull => Reply::Rejected,
                SubmitError::Throttled | SubmitError::UnknownTenant => Reply::Throttled,
            })
    }

    fn poll(&self, pending: &Ticket) -> Option<Reply> {
        pending.try_wait().map(outcome_reply)
    }

    fn wait(&self, pending: Ticket) -> Reply {
        outcome_reply(pending.wait())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Mutex;

    /// A single-server queue on its own thread: each job takes `service`;
    /// `submit(stall_submit_at)` itself blocks the *generator* for `stall`.
    struct FakeServer {
        jobs: Mutex<Sender<(Duration, Sender<()>)>>,
        service: Duration,
        stall_submit_at: Option<usize>,
        stall_job_at: Option<usize>,
        stall: Duration,
    }

    impl FakeServer {
        fn start(
            service: Duration,
            stall_submit_at: Option<usize>,
            stall_job_at: Option<usize>,
            stall: Duration,
        ) -> (FakeServer, std::thread::JoinHandle<()>) {
            let (tx, rx) = channel::<(Duration, Sender<()>)>();
            let worker = std::thread::spawn(move || {
                for (work, reply) in rx {
                    std::thread::sleep(work);
                    let _ = reply.send(());
                }
            });
            (
                FakeServer {
                    jobs: Mutex::new(tx),
                    service,
                    stall_submit_at,
                    stall_job_at,
                    stall,
                },
                worker,
            )
        }
    }

    impl Target for FakeServer {
        type Pending = Receiver<()>;

        fn submit(&self, index: usize) -> Result<Receiver<()>, Reply> {
            if self.stall_submit_at == Some(index) {
                std::thread::sleep(self.stall);
            }
            let work = if self.stall_job_at == Some(index) {
                self.service + self.stall
            } else {
                self.service
            };
            let (tx, rx) = channel();
            self.jobs
                .lock()
                .expect("test server lock")
                .send((work, tx))
                .expect("server thread is alive");
            Ok(rx)
        }

        fn poll(&self, pending: &Receiver<()>) -> Option<Reply> {
            pending
                .try_recv()
                .ok()
                .map(|()| Reply::Completed(Verdict::Verified))
        }

        fn wait(&self, pending: Receiver<()>) -> Reply {
            pending.recv().expect("server replies");
            Reply::Completed(Verdict::Verified)
        }
    }

    fn by_index(mut records: Vec<Record>) -> Vec<Record> {
        records.sort_by_key(|r| r.seq);
        records
    }

    #[test]
    fn a_generator_stall_delays_later_requests_latencies() {
        // 100 req/s, 1 ms of service; sending request 5 blocks the
        // generator for 60 ms, so requests 6..=10 fall due while it sleeps.
        let stall = Duration::from_millis(60);
        let (server, worker) = FakeServer::start(Duration::from_millis(1), Some(5), None, stall);
        let records = by_index(open_loop(
            &server,
            20,
            100.0,
            Duration::from_secs(2),
            |n| n,
            &mut Tracer::off(),
        ));
        drop(server);
        worker.join().expect("server thread exits");
        assert_eq!(records.len(), 20);
        // Request 6 was due 10 ms into the stall: it is sent ~50 ms late, and
        // that lateness is *in* its latency because the clock started when
        // it was due.
        assert!(records[6].lag_ms() >= 40.0, "lag {}", records[6].lag_ms());
        assert!(
            records[6].latency_ms() >= records[6].lag_ms(),
            "latency counts from the intended send time"
        );
        // Measured from the actual send it would have looked instant.
        assert!((records[6].done - records[6].sent) * 1e3 < 30.0);
        // Each later victim was due 10 ms later, so it waited 10 ms less.
        assert!(records[7].lag_ms() < records[6].lag_ms());
        assert!(records[8].lag_ms() >= 20.0);
        // Requests due before the stall, and after it drained, are on time.
        assert!(records[2].lag_ms() < 30.0);
        assert!(records[19].lag_ms() < 30.0);
    }

    #[test]
    fn a_target_stall_queues_the_requests_behind_it() {
        // The server takes 60 ms over request 5; the generator keeps to its
        // schedule, so requests 6.. queue behind it and inherit the wait.
        let stall = Duration::from_millis(60);
        let (server, worker) = FakeServer::start(Duration::from_millis(1), None, Some(5), stall);
        let records = by_index(open_loop(
            &server,
            20,
            100.0,
            Duration::from_secs(2),
            |n| n,
            &mut Tracer::off(),
        ));
        drop(server);
        worker.join().expect("server thread exits");
        // The generator did not wait for the stalled request...
        assert!(records[6].lag_ms() < 30.0, "lag {}", records[6].lag_ms());
        // ...so the request behind it shows the queueing delay.
        assert!(records[5].latency_ms() >= 55.0);
        assert!(
            records[6].latency_ms() >= 40.0,
            "{}",
            records[6].latency_ms()
        );
        assert!(records[7].latency_ms() >= 30.0);
        assert!(records[2].latency_ms() < 30.0);
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_counts_everything() {
        let (server, worker) =
            FakeServer::start(Duration::from_millis(1), None, None, Duration::ZERO);
        let mut tracer = Tracer::on();
        let records = closed_loop(&server, 4, Stop::Count(25), |n| n % 3, &mut tracer);
        drop(server);
        worker.join().expect("server thread exits");
        assert_eq!(records.len(), 25);
        assert_eq!(tracer.spans().len(), 25);
        let t = tally(&records);
        assert!(t.balanced());
        assert_eq!(t.completed, 25);
        assert!(records.iter().all(|r| r.index < 3 && r.done >= r.sent));
        // With 4 in flight over a 1 ms server, a request waits for the three
        // ahead of it: latency well above one service time.
        let mid = records[12].latency_ms();
        assert!(mid >= 2.0, "closed-loop latency includes queueing: {mid}");
    }

    #[test]
    fn lost_requests_are_counted_after_the_drain_timeout() {
        // Service far longer than the drain: both requests are lost.
        let (server, worker) =
            FakeServer::start(Duration::from_millis(300), None, None, Duration::ZERO);
        let records = open_loop(
            &server,
            2,
            1000.0,
            Duration::from_millis(20),
            |n| n,
            &mut Tracer::off(),
        );
        let t = tally(&records);
        assert_eq!((t.sent, t.lost, t.completed), (2, 2, 0));
        assert!(t.balanced());
        drop(server);
        worker.join().expect("server thread exits");
    }
}
