//! The daemon's job lifecycle: a long-lived worker pool with admission
//! control, fairness, timeouts, and graceful drain.
//!
//! A one-shot batch needs none of the pool's machinery:
//! [`CompileService::compile_batch`] runs its jobs on the calling thread
//! and scoped workers. The daemon is the other shape — one pool, many
//! concurrent submitters — and [`JobPool`] serves it alone:
//!
//! - **Admission control** — a bounded queue ([`PoolConfig::queue_cap`]).
//!   A full queue rejects the submission with [`SubmitError::Full`]
//!   carrying a `retry_after_ms` hint instead of blocking the caller or
//!   dropping the job silently.
//! - **Fairness** — jobs queue per client id and workers dequeue
//!   round-robin across clients, so one client's thousand-job batch
//!   cannot starve another client's single compile.
//! - **Graceful drain** — [`JobPool::drain`] rejects new submissions and
//!   blocks until queued and in-flight jobs complete;
//!   [`JobPool::shutdown`] drains and joins the workers.
//!
//! Pool and batch run each job through the same guard (`run_job`):
//!
//! - **Panic isolation** — each job runs under
//!   [`std::panic::catch_unwind`]; a poisoned job becomes
//!   [`JobError::Panicked`] in its own result, nothing else is affected.
//! - **Timeouts** — a job with [`ExecOptions::timeout_ms`] set runs on
//!   a detached runner thread; if it overruns, the caller abandons it and
//!   fails the job with [`JobError::Timeout`], so a hung job cannot
//!   occupy a worker or hold a batch forever. A batch counts its
//!   timeouts from its results, the pool in [`PoolSnapshot::timeouts`].
//!
//! The pool takes no trace: each job records into a trace of its own and
//! hands it to the sink its [`JobSpec`] names. The pool keeps its own
//! service metrics — a queue-wait [`Histogram`] and cumulative busy time
//! — and reports them in [`PoolSnapshot`].
//!
//! [`ExecOptions::timeout_ms`]: crate::ExecOptions::timeout_ms

use crate::{CompileService, JobError, JobOutput, JobSpec};
use frodo_obs::Histogram;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Pool admission policy. The pool runs one worker per
/// [`CompileService::workers`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolConfig {
    /// Queued (not yet running) jobs admitted before submissions are
    /// rejected with [`SubmitError::Full`]; `0` means unbounded.
    pub queue_cap: usize,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The pool is draining or shut down; it will never accept this job.
    Draining,
    /// The admission queue is at capacity. Back off and retry.
    Full {
        /// Jobs queued at rejection time.
        queued: usize,
        /// Suggested backoff before retrying, scaled to the backlog.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Draining => write!(f, "pool is draining"),
            SubmitError::Full {
                queued,
                retry_after_ms,
            } => write!(
                f,
                "queue full ({queued} queued); retry after {retry_after_ms}ms"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A claim on one admitted job's eventual result.
#[derive(Debug)]
pub struct JobTicket {
    rx: mpsc::Receiver<Result<JobOutput, JobError>>,
    job: String,
}

impl JobTicket {
    /// Blocks until the job completes and returns its result.
    pub fn wait(self) -> Result<JobOutput, JobError> {
        let JobTicket { rx, job } = self;
        rx.recv().unwrap_or_else(|_| {
            Err(JobError::Panicked {
                job,
                message: "worker disappeared before delivering a result".to_string(),
            })
        })
    }
}

/// A point-in-time view of the pool, for status endpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Worker threads serving the pool.
    pub workers: usize,
    /// Jobs admitted but not yet picked up.
    pub queue_depth: usize,
    /// Jobs currently executing on workers.
    pub in_flight: usize,
    /// Jobs admitted since the pool started.
    pub submitted: u64,
    /// Jobs completed (successfully or not) since the pool started.
    pub completed: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Jobs failed with [`JobError::Timeout`].
    pub timeouts: u64,
    /// Cumulative worker busy nanoseconds.
    pub busy_ns: u64,
    /// Median nanoseconds a job waited in the queue before a worker
    /// picked it up (estimated from a log2 histogram; 0 before any job).
    pub queue_wait_p50_ns: u64,
    /// Longest queue wait in nanoseconds.
    pub queue_wait_max_ns: u64,
    /// Whether the pool is draining (rejecting new submissions).
    pub draining: bool,
}

struct QueuedJob {
    spec: JobSpec,
    enqueued: Instant,
    tx: mpsc::Sender<Result<JobOutput, JobError>>,
}

#[derive(Default)]
struct PoolState {
    /// Per-client FIFO queues in round-robin order: workers pop one job
    /// from the front client, then rotate it to the back.
    ring: VecDeque<(u64, VecDeque<QueuedJob>)>,
    /// How long each dequeued job waited, in nanoseconds.
    queue_wait: Histogram,
    queued: usize,
    in_flight: usize,
    draining: bool,
    stopping: bool,
}

struct PoolInner {
    service: CompileService,
    queue_cap: usize,
    state: Mutex<PoolState>,
    /// Signaled when a job is queued or the pool is stopping.
    ready: Condvar,
    /// Signaled when the pool goes idle (nothing queued or in flight).
    idle: Condvar,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    busy_ns: AtomicU64,
}

/// A long-lived worker pool over one [`CompileService`]. See the module
/// docs for the lifecycle it implements.
pub struct JobPool {
    inner: Arc<PoolInner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for JobPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPool")
            .field("workers", &self.inner.service.workers())
            .field("queue_cap", &self.inner.queue_cap)
            .finish()
    }
}

impl JobPool {
    /// Starts [`CompileService::workers`] workers over a clone of
    /// `service` (the artifact cache is shared). Each job's trace goes to
    /// the sink its [`JobSpec`] names, as in [`CompileService::compile`].
    pub fn start(service: &CompileService, config: PoolConfig) -> Self {
        let inner = Arc::new(PoolInner {
            service: service.clone(),
            queue_cap: config.queue_cap,
            state: Mutex::new(PoolState::default()),
            ready: Condvar::new(),
            idle: Condvar::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        });
        let threads = (0..service.workers())
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        JobPool {
            inner,
            threads: Mutex::new(threads),
        }
    }

    /// Submits one job on behalf of `client`. Admission is immediate:
    /// the call never blocks on queue space — a full queue returns
    /// [`SubmitError::Full`] with a backoff hint instead.
    pub fn submit(&self, client: u64, spec: JobSpec) -> Result<JobTicket, SubmitError> {
        let inner = &self.inner;
        let mut state = inner.state.lock().unwrap();
        if state.draining || state.stopping {
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Draining);
        }
        if inner.queue_cap > 0 && state.queued >= inner.queue_cap {
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Full {
                queued: state.queued,
                retry_after_ms: retry_hint(state.queued, inner.service.workers()),
            });
        }
        let job = spec.name.clone();
        let (tx, rx) = mpsc::channel();
        let queued_job = QueuedJob {
            spec,
            enqueued: Instant::now(),
            tx,
        };
        match state.ring.iter_mut().find(|(id, _)| *id == client) {
            Some((_, jobs)) => jobs.push_back(queued_job),
            None => {
                let mut jobs = VecDeque::new();
                jobs.push_back(queued_job);
                state.ring.push_back((client, jobs));
            }
        }
        state.queued += 1;
        inner.submitted.fetch_add(1, Ordering::Relaxed);
        drop(state);
        inner.ready.notify_one();
        Ok(JobTicket { rx, job })
    }

    /// Stops admitting jobs and blocks until everything queued or in
    /// flight has completed. Workers stay alive (for [`Self::shutdown`]
    /// to join); further submissions fail with [`SubmitError::Draining`].
    pub fn drain(&self) {
        let inner = &self.inner;
        let mut state = inner.state.lock().unwrap();
        state.draining = true;
        while state.queued > 0 || state.in_flight > 0 {
            state = inner.idle.wait(state).unwrap();
        }
    }

    /// Drains, then stops and joins the workers. Idempotent.
    pub fn shutdown(&self) {
        self.drain();
        {
            let mut state = self.inner.state.lock().unwrap();
            state.stopping = true;
        }
        self.inner.ready.notify_all();
        let threads = std::mem::take(&mut *self.threads.lock().unwrap());
        for t in threads {
            let _ = t.join();
        }
    }

    /// A point-in-time view for status endpoints.
    pub fn snapshot(&self) -> PoolSnapshot {
        let inner = &self.inner;
        let state = inner.state.lock().unwrap();
        PoolSnapshot {
            workers: inner.service.workers(),
            queue_depth: state.queued,
            in_flight: state.in_flight,
            submitted: inner.submitted.load(Ordering::Relaxed),
            completed: inner.completed.load(Ordering::Relaxed),
            rejected: inner.rejected.load(Ordering::Relaxed),
            timeouts: inner.timeouts.load(Ordering::Relaxed),
            busy_ns: inner.busy_ns.load(Ordering::Relaxed),
            queue_wait_p50_ns: state.queue_wait.percentile(50.0) as u64,
            queue_wait_max_ns: state.queue_wait.max() as u64,
            draining: state.draining,
        }
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Backoff hint scaled to the backlog per worker, capped at a second.
fn retry_hint(queued: usize, workers: usize) -> u64 {
    let per_worker = (queued / workers.max(1)) as u64;
    ((per_worker + 1) * 25).min(1000)
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if let Some(job) = pop_round_robin(&mut state) {
                    break job;
                }
                if state.stopping {
                    return;
                }
                state = inner.ready.wait(state).unwrap();
            }
        };
        let started = Instant::now();
        let result = run_job(&inner.service, job.spec);
        if matches!(result, Err(JobError::Timeout { .. })) {
            inner.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        let elapsed = started.elapsed().as_nanos() as u64;
        inner.busy_ns.fetch_add(elapsed, Ordering::Relaxed);
        inner.completed.fetch_add(1, Ordering::Relaxed);
        // the submitter may have dropped its ticket; that's its business
        let _ = job.tx.send(result);
        let mut state = inner.state.lock().unwrap();
        state.in_flight -= 1;
        if state.queued == 0 && state.in_flight == 0 {
            inner.idle.notify_all();
        }
    }
}

/// Pops one job from the front client, rotates that client to the back
/// of the ring, and records the job's queue wait. Must run under the state
/// lock.
fn pop_round_robin(state: &mut PoolState) -> Option<QueuedJob> {
    let (client, mut jobs) = state.ring.pop_front()?;
    let job = jobs.pop_front().expect("ring never holds empty queues");
    if !jobs.is_empty() {
        state.ring.push_back((client, jobs));
    }
    state
        .queue_wait
        .record(job.enqueued.elapsed().as_nanos() as f64);
    state.queued -= 1;
    state.in_flight += 1;
    Some(job)
}

/// Runs one job with panic isolation, and — when the job carries a
/// timeout budget — on a detached runner thread that the caller abandons
/// on overrun. Without a budget the job runs on the calling thread.
pub(crate) fn run_job(service: &CompileService, spec: JobSpec) -> Result<JobOutput, JobError> {
    let timeout_ms = spec.options.exec.timeout_ms;
    let job = spec.name.clone();
    if timeout_ms == 0 {
        return run_isolated(service, spec, &job);
    }
    let (tx, rx) = mpsc::channel();
    let service = service.clone();
    let runner_job = job.clone();
    std::thread::spawn(move || {
        let _ = tx.send(run_isolated(&service, spec, &runner_job));
    });
    match rx.recv_timeout(Duration::from_millis(timeout_ms)) {
        Ok(result) => result,
        Err(_) => Err(JobError::Timeout { job, timeout_ms }),
    }
}

fn run_isolated(service: &CompileService, spec: JobSpec, job: &str) -> Result<JobOutput, JobError> {
    match catch_unwind(AssertUnwindSafe(|| service.compile(spec))) {
        Ok(result) => result,
        Err(payload) => Err(JobError::Panicked {
            job: job.to_string(),
            // deref past the Box: `&payload` would unsize the Box itself
            // into `&dyn Any` and never downcast
            message: panic_message(&*payload),
        }),
    }
}

/// Extracts the conventional string payload from a caught panic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, ServiceConfig};
    use frodo_codegen::GeneratorStyle;
    use frodo_model::{Block, BlockKind, Model};
    use frodo_ranges::Shape;
    use std::sync::mpsc::Receiver;

    fn tiny_model(name: &str) -> Model {
        let mut m = Model::new(name);
        let i = m.add(Block::new(
            "in",
            BlockKind::Inport {
                index: 0,
                shape: Shape::Vector(4),
            },
        ));
        let g = m.add(Block::new("g", BlockKind::Gain { gain: 2.0 }));
        let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, o, 0).unwrap();
        m
    }

    fn one_worker() -> CompileService {
        CompileService::new(ServiceConfig {
            workers: 1,
            no_cache: true,
            ..ServiceConfig::default()
        })
    }

    /// A job that blocks in its builder until `gate` yields a value, so
    /// tests can hold a worker busy deterministically.
    fn gated_job(name: &str, gate: Receiver<()>) -> JobSpec {
        let model = tiny_model(name);
        JobSpec::from_builder(name, GeneratorStyle::Frodo, move || {
            gate.recv().map_err(|e| e.to_string())?;
            Ok(model)
        })
    }

    fn wait_until(pool: &JobPool, pred: impl Fn(PoolSnapshot) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !pred(pool.snapshot()) {
            assert!(Instant::now() < deadline, "pool never reached the state");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn full_queue_rejects_with_backoff_instead_of_blocking() {
        let service = one_worker();
        let pool = JobPool::start(&service, PoolConfig { queue_cap: 1 });
        let (open, gate) = mpsc::channel();
        let blocked = pool.submit(1, gated_job("blocked", gate)).unwrap();
        // wait until the worker holds it, so the queue slot is free
        wait_until(&pool, |s| s.in_flight == 1);
        let queued = pool.submit(
            1,
            JobSpec::from_model("q", tiny_model("q"), GeneratorStyle::Frodo),
        );
        let queued = queued.expect("one slot in the queue");
        let rejected = pool
            .submit(
                1,
                JobSpec::from_model("r", tiny_model("r"), GeneratorStyle::Frodo),
            )
            .unwrap_err();
        match rejected {
            SubmitError::Full {
                queued,
                retry_after_ms,
            } => {
                assert_eq!(queued, 1);
                assert!(retry_after_ms > 0);
            }
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(pool.snapshot().rejected, 1);
        open.send(()).unwrap();
        assert!(blocked.wait().is_ok());
        assert!(queued.wait().is_ok());
    }

    #[test]
    fn round_robin_interleaves_clients_under_one_worker() {
        let service = one_worker();
        let pool = JobPool::start(&service, PoolConfig::default());
        let order = Arc::new(Mutex::new(Vec::<String>::new()));
        let tracked = |name: &str| {
            let order = Arc::clone(&order);
            let model = tiny_model(name);
            let name = name.to_string();
            JobSpec::from_builder(name.clone(), GeneratorStyle::Frodo, move || {
                order.lock().unwrap().push(name);
                Ok(model)
            })
        };
        // hold the worker while both clients queue up
        let (open, gate) = mpsc::channel();
        let held = pool.submit(1, gated_job("held", gate)).unwrap();
        wait_until(&pool, |s| s.in_flight == 1);
        let mut tickets = vec![
            pool.submit(1, tracked("a1")).unwrap(),
            pool.submit(1, tracked("a2")).unwrap(),
            pool.submit(1, tracked("a3")).unwrap(),
            pool.submit(2, tracked("b1")).unwrap(),
        ];
        open.send(()).unwrap();
        assert!(held.wait().is_ok());
        for t in tickets.drain(..) {
            assert!(t.wait().is_ok());
        }
        // client 2's lone job ran second, not after all of client 1's
        let order = order.lock().unwrap().clone();
        assert_eq!(order, ["a1", "b1", "a2", "a3"]);
    }

    #[test]
    fn overrunning_job_times_out_without_occupying_the_worker() {
        let service = one_worker();
        let pool = JobPool::start(&service, PoolConfig::default());
        // never opened: the job would hang forever without the timeout
        let (_open, gate) = mpsc::channel::<()>();
        let hung = pool
            .submit(
                1,
                gated_job("hung", gate)
                    .with_options(CompileOptions::builder().timeout_ms(50).build()),
            )
            .unwrap();
        match hung.wait() {
            Err(JobError::Timeout { job, timeout_ms }) => {
                assert_eq!(job, "hung");
                assert_eq!(timeout_ms, 50);
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
        // the worker is free again: a normal job completes
        let ok = pool
            .submit(
                1,
                JobSpec::from_model("ok", tiny_model("ok"), GeneratorStyle::Frodo),
            )
            .unwrap();
        assert!(ok.wait().is_ok());
        assert_eq!(pool.snapshot().timeouts, 1);
    }

    #[test]
    fn drain_completes_the_backlog_then_rejects() {
        let service = one_worker();
        let pool = JobPool::start(&service, PoolConfig::default());
        let tickets: Vec<JobTicket> = (0..4)
            .map(|i| {
                pool.submit(
                    1,
                    JobSpec::from_model(format!("m{i}"), tiny_model("m"), GeneratorStyle::Frodo),
                )
                .unwrap()
            })
            .collect();
        pool.drain();
        let snap = pool.snapshot();
        assert_eq!(snap.completed, 4);
        assert_eq!((snap.queue_depth, snap.in_flight), (0, 0));
        // every dequeue recorded its wait
        assert!(snap.queue_wait_max_ns > 0);
        assert!(snap.queue_wait_p50_ns <= snap.queue_wait_max_ns);
        assert!(snap.draining);
        let err = pool
            .submit(
                1,
                JobSpec::from_model("late", tiny_model("m"), GeneratorStyle::Frodo),
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::Draining);
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        pool.shutdown();
    }

    #[test]
    fn panic_payload_extraction() {
        let payload = catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(panic_message(&*payload), "boom 7");
        let payload = catch_unwind(|| std::panic::panic_any(42i32)).unwrap_err();
        assert_eq!(panic_message(&*payload), "non-string panic payload");
    }
}
