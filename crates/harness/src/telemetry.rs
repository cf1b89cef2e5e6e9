//! Run telemetry: per-job events, a subscriber bus, a live progress
//! line, and the end-of-run throughput summary.
//!
//! Workers emit [`Event`]s over an `mpsc` channel; the submitting thread
//! drains it while jobs run and republishes every event on the harness's
//! [`EventBus`], where any number of subscribers — the sweep service's
//! per-client forwarders, a dashboard, a log — receive their own copy.
//! Everything renders to **stderr** so stdout stays byte-identical
//! regardless of `--jobs` — the figure tables are diffable artifacts.
//!
//! Rendering goes through a process-wide **single writer** ([`LineSink`]):
//! the self-overwriting progress line carries cursor state (how long the
//! last transient line was), and two harness runs in one process — e.g.
//! two sweeps served concurrently by the daemon — would tear each
//! other's lines if each kept its own state. One shared sink serializes
//! every write and keeps the clear-and-redraw math globally right.

use std::io::Write;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::lock;

/// Where a job's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultSource {
    /// Simulated in this process, this call.
    Executed,
    /// Re-used from the in-process memo (duplicate submission).
    Memory,
    /// Loaded from the on-disk result store.
    Disk,
}

impl ResultSource {
    /// Short tag for logs.
    pub const fn tag(self) -> &'static str {
        match self {
            ResultSource::Executed => "run",
            ResultSource::Memory => "memo",
            ResultSource::Disk => "disk",
        }
    }
}

/// One telemetry event.
#[derive(Debug, Clone)]
pub enum Event {
    /// A worker picked up a job.
    JobStarted {
        /// Job label (`workload x prefetcher`).
        label: String,
    },
    /// A job completed.
    JobFinished {
        /// Job label.
        label: String,
        /// Wall-clock time of the simulation.
        wall_ms: u64,
        /// Trace records consumed per wall-clock second.
        insts_per_sec: f64,
    },
    /// A job's first attempt panicked; the worker is retrying it once.
    JobRetried {
        /// Job label.
        label: String,
        /// The captured panic message.
        reason: String,
    },
    /// A job failed on its retry too; its cell is recorded as `Failed`
    /// and the sweep continues.
    JobFailed {
        /// Job label.
        label: String,
        /// The captured panic message.
        reason: String,
    },
    /// A corrupt cache entry was quarantined (renamed to `*.corrupt`)
    /// and its job transparently re-runs.
    CacheQuarantined {
        /// The quarantined file's new path.
        path: String,
        /// Why the entry was rejected.
        reason: String,
    },
}

/// Fan-out subscriber bus for telemetry events.
///
/// Subscribers receive a clone of every event published after they
/// subscribed, over their own `mpsc` channel. A [`Subscription`]
/// deregisters itself when dropped, so transient subscribers (one per
/// submit to a long-lived daemon, or a client connection that hung up
/// mid-sweep) cost nothing after they go away — even when nothing is
/// ever published, as on a warm daemon answering from its memo.
///
/// This is the seam the sweep service forwards live telemetry through:
/// each client connection subscribes, filters for the labels of its own
/// sweep, and streams the events down its socket.
#[derive(Debug, Default)]
pub struct EventBus {
    subs: Mutex<Vec<(u64, mpsc::Sender<Event>)>>,
    next_key: AtomicU64,
}

impl EventBus {
    /// An empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a subscriber; every event published from now on is
    /// delivered to the returned subscription until it is dropped.
    pub fn subscribe(&self) -> Subscription<'_> {
        let (tx, rx) = mpsc::channel();
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        lock(&self.subs).push((key, tx));
        Subscription { bus: self, key, rx }
    }

    /// Publishes one event to every live subscriber.
    pub fn publish(&self, ev: &Event) {
        for (_, tx) in lock(&self.subs).iter() {
            // Subscriptions deregister before their receiver drops, so
            // a send cannot fail.
            let _ = tx.send(ev.clone());
        }
    }

    /// Live subscriber count.
    pub fn subscriber_count(&self) -> usize {
        lock(&self.subs).len()
    }
}

/// One subscriber's end of an [`EventBus`]: derefs to the receiver of
/// its events, and removes itself from the bus when dropped.
#[derive(Debug)]
pub struct Subscription<'a> {
    bus: &'a EventBus,
    key: u64,
    rx: mpsc::Receiver<Event>,
}

impl Deref for Subscription<'_> {
    type Target = mpsc::Receiver<Event>;

    fn deref(&self) -> &mpsc::Receiver<Event> {
        &self.rx
    }
}

impl Drop for Subscription<'_> {
    fn drop(&mut self) {
        lock(&self.bus.subs).retain(|(key, _)| *key != self.key);
    }
}

/// The single writer behind every progress line in the process.
///
/// Owns the terminal cursor state: the length of the last *transient*
/// (self-overwriting) line, which the next write must clear. Writes are
/// composed into one buffer and flushed with a single `write_all` under
/// the sink's lock, so concurrent harness runs interleave by whole
/// lines, never by fragments — and the clear-padding math stays correct
/// because the state is shared rather than per-run.
pub struct LineSink {
    out: Box<dyn Write + Send>,
    last_len: usize,
}

impl std::fmt::Debug for LineSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineSink")
            .field("last_len", &self.last_len)
            .finish_non_exhaustive()
    }
}

impl LineSink {
    /// A sink writing to `out` with no live line yet.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        LineSink { out, last_len: 0 }
    }

    /// Draws a transient line that the next write will overwrite.
    fn transient(&mut self, line: &str) {
        let pad = self.last_len.saturating_sub(line.len());
        let _ = self
            .out
            .write_all(format!("\r{line}{}", " ".repeat(pad)).as_bytes());
        self.last_len = line.len();
        let _ = self.out.flush();
    }

    /// Prints a persistent line (newline-terminated), clearing any live
    /// transient line first.
    fn persistent(&mut self, line: &str) {
        let pad = self.last_len.saturating_sub(line.len());
        let _ = self
            .out
            .write_all(format!("\r{line}{}\n", " ".repeat(pad)).as_bytes());
        self.last_len = 0;
        let _ = self.out.flush();
    }

    /// Clears the live transient line, if any.
    fn clear(&mut self) {
        if self.last_len > 0 {
            let _ = self
                .out
                .write_all(format!("\r{}\r", " ".repeat(self.last_len)).as_bytes());
            self.last_len = 0;
            let _ = self.out.flush();
        }
    }
}

/// The process-wide stderr sink every default [`Progress`] shares.
pub fn stderr_sink() -> Arc<Mutex<LineSink>> {
    static SINK: OnceLock<Arc<Mutex<LineSink>>> = OnceLock::new();
    Arc::clone(
        SINK.get_or_init(|| Arc::new(Mutex::new(LineSink::new(Box::new(std::io::stderr()))))),
    )
}

/// Renders events as a single self-overwriting progress line.
#[derive(Debug)]
pub struct Progress {
    enabled: bool,
    done: usize,
    total: usize,
    sink: Arc<Mutex<LineSink>>,
}

impl Progress {
    /// A renderer for `total` pending jobs; silent when `enabled` is
    /// false (tests, `--quiet`). Writes through the process-wide stderr
    /// sink, so concurrent renderers serialize behind one writer.
    pub fn new(enabled: bool, total: usize) -> Self {
        Self::with_sink(enabled, total, stderr_sink())
    }

    /// A renderer writing through an explicit sink (tests, capture).
    pub fn with_sink(enabled: bool, total: usize, sink: Arc<Mutex<LineSink>>) -> Self {
        Progress {
            enabled,
            done: 0,
            total,
            sink,
        }
    }

    /// Handles one event.
    pub fn handle(&mut self, ev: &Event) {
        match ev {
            Event::JobStarted { label } => self.draw(&format!("... {label}")),
            Event::JobFinished {
                label,
                wall_ms,
                insts_per_sec,
            } => {
                self.done += 1;
                self.draw(&format!(
                    "{label} ({:.1}s, {:.1} Minst/s)",
                    *wall_ms as f64 / 1000.0,
                    insts_per_sec / 1e6,
                ));
            }
            Event::JobRetried { label, reason } => {
                self.warn(&format!(
                    "warning: {label} panicked ({reason}); retrying once"
                ));
            }
            Event::JobFailed { label, reason } => {
                self.done += 1;
                self.warn(&format!("warning: {label} FAILED ({reason})"));
            }
            Event::CacheQuarantined { path, reason } => {
                self.warn(&format!(
                    "warning: quarantined corrupt cache entry {path} ({reason}); re-running"
                ));
            }
        }
    }

    /// Prints a persistent warning line without disturbing the live
    /// progress line (which is cleared first and redrawn by the next
    /// event). Silent when the renderer is disabled.
    fn warn(&mut self, msg: &str) {
        if !self.enabled {
            return;
        }
        lock(&self.sink).persistent(msg);
    }

    fn draw(&mut self, tail: &str) {
        if !self.enabled {
            return;
        }
        let line = format!("[{}/{}] {tail}", self.done, self.total);
        lock(&self.sink).transient(&line);
    }

    /// Clears the progress line (call before printing the summary).
    pub fn finish(&mut self) {
        if self.enabled {
            lock(&self.sink).clear();
        }
    }
}

/// Aggregate statistics for everything a [`crate::Harness`] resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunSummary {
    /// Jobs submitted (including duplicates).
    pub submitted: usize,
    /// Distinct jobs after content-hash deduplication.
    pub unique: usize,
    /// Simulations actually executed.
    pub executed: usize,
    /// Results served from the in-process memo.
    pub memo_hits: usize,
    /// Results served from the on-disk store.
    pub disk_hits: usize,
    /// Jobs whose simulation panicked on both attempts.
    pub failed: usize,
    /// Jobs that succeeded only on their second attempt.
    pub retried: usize,
    /// Corrupt cache entries quarantined (renamed to `*.corrupt`).
    pub quarantined: usize,
    /// Trace records consumed by executed simulations.
    pub records_simulated: u64,
    /// Wall-clock time spent inside `Harness::run`.
    pub wall: Duration,
}

impl RunSummary {
    /// Aggregate simulation throughput in trace records per second.
    pub fn insts_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.records_simulated as f64 / s
        } else {
            0.0
        }
    }

    /// One-line human rendering. Failure, retry and quarantine counts
    /// appear only when nonzero, so a healthy run reads as before.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{} jobs ({} unique): {} executed, {} memo hits, {} disk hits",
            self.submitted, self.unique, self.executed, self.memo_hits, self.disk_hits,
        );
        if self.failed > 0 {
            s.push_str(&format!(", {} FAILED", self.failed));
        }
        if self.retried > 0 {
            s.push_str(&format!(", {} retried", self.retried));
        }
        if self.quarantined > 0 {
            s.push_str(&format!(", {} quarantined", self.quarantined));
        }
        s.push_str(&format!(
            "; {:.1}s wall, {:.1} Minst/s",
            self.wall.as_secs_f64(),
            self.insts_per_sec() / 1e6,
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_renders_counts_and_rate() {
        let s = RunSummary {
            submitted: 10,
            unique: 7,
            executed: 4,
            memo_hits: 3,
            disk_hits: 3,
            records_simulated: 2_000_000,
            wall: Duration::from_secs(2),
            ..RunSummary::default()
        };
        let line = s.render();
        assert!(line.contains("10 jobs (7 unique)"));
        assert!(line.contains("4 executed"));
        assert!((s.insts_per_sec() - 1e6).abs() < 1.0);
        // A healthy run never mentions failures.
        assert!(!line.contains("FAILED"));
        assert!(!line.contains("retried"));
        assert!(!line.contains("quarantined"));
        let sick = RunSummary {
            failed: 2,
            retried: 1,
            quarantined: 3,
            ..s
        };
        let line = sick.render();
        assert!(line.contains("2 FAILED"));
        assert!(line.contains("1 retried"));
        assert!(line.contains("3 quarantined"));
    }

    #[test]
    fn disabled_progress_is_silent_noop() {
        let mut p = Progress::new(false, 3);
        p.handle(&Event::JobStarted { label: "x".into() });
        p.handle(&Event::JobFinished {
            label: "x".into(),
            wall_ms: 5,
            insts_per_sec: 1.0,
        });
        p.finish();
        assert_eq!(p.done, 1);
    }

    #[test]
    fn zero_wall_rate_is_zero() {
        assert_eq!(RunSummary::default().insts_per_sec(), 0.0);
    }

    #[test]
    fn bus_fans_out_to_every_subscriber_and_prunes_the_dead() {
        let bus = EventBus::new();
        let a = bus.subscribe();
        let b = bus.subscribe();
        bus.publish(&Event::JobStarted { label: "x".into() });
        for rx in [&a, &b] {
            match rx.try_recv() {
                Ok(Event::JobStarted { label }) => assert_eq!(label, "x"),
                other => panic!("expected JobStarted, got {other:?}"),
            }
        }
        drop(a);
        bus.publish(&Event::JobFinished {
            label: "x".into(),
            wall_ms: 1,
            insts_per_sec: 1.0,
        });
        assert_eq!(bus.subscriber_count(), 1, "dead subscriber must be pruned");
        assert!(matches!(b.try_recv(), Ok(Event::JobFinished { .. })));
    }

    #[test]
    fn dropped_subscriptions_deregister_without_a_publish() {
        // A warm daemon subscribes once per submit and may never
        // publish: the count must track live subscriptions anyway.
        let bus = EventBus::new();
        let kept = [bus.subscribe(), bus.subscribe()];
        for _ in 0..1000 {
            let sub = bus.subscribe();
            assert_eq!(bus.subscriber_count(), kept.len() + 1);
            drop(sub);
        }
        assert_eq!(bus.subscriber_count(), kept.len());
        bus.publish(&Event::JobStarted { label: "y".into() });
        for rx in &kept {
            assert!(matches!(rx.try_recv(), Ok(Event::JobStarted { .. })));
        }
    }

    /// A `Write` capturing into a shared buffer, so tests can inspect
    /// what a sink emitted.
    #[derive(Clone, Default)]
    struct Capture(std::sync::Arc<Mutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Two renderers hammering one shared sink from separate threads:
    /// every persistent line must come out intact — the single writer
    /// composes each line into one `write_all`, so fragments of two
    /// lines can never interleave.
    #[test]
    fn concurrent_renderers_never_tear_lines() {
        let cap = Capture::default();
        let sink = Arc::new(Mutex::new(LineSink::new(Box::new(cap.clone()))));
        std::thread::scope(|s| {
            for t in 0..2 {
                let sink = Arc::clone(&sink);
                s.spawn(move || {
                    let mut p = Progress::with_sink(true, 50, sink);
                    for i in 0..50 {
                        p.handle(&Event::JobStarted {
                            label: format!("t{t}-job{i}"),
                        });
                        p.handle(&Event::JobFailed {
                            label: format!("t{t}-job{i}"),
                            reason: "r".into(),
                        });
                    }
                    p.finish();
                });
            }
        });
        let bytes = lock(&cap.0).clone();
        let text = String::from_utf8(bytes).expect("sink output is UTF-8");
        // Every persistent warning line survives whole: for each of the
        // 100 emitted warnings, the exact rendering appears bounded by
        // line-discipline characters, never split by another write.
        for t in 0..2 {
            for i in 0..50 {
                let want = format!("warning: t{t}-job{i} FAILED (r)");
                assert!(text.contains(&want), "torn line: {want} missing");
            }
        }
        // And the cursor state ends cleared (no dangling transient line).
        assert!(text.ends_with('\r') || text.ends_with('\n'));
    }
}
