//! The flight recorder: bounded per-thread span rings with crash dumps.
//!
//! Tracing a serving hot path must never contend: each recording thread
//! owns a private ring, registered once in a global list, and writes to it
//! through a `try_lock` that only ever fails while a dump is reading that
//! ring — in which case the span is counted as dropped rather than making
//! the writer wait. Recording is therefore wait-free from the writer's
//! perspective: one uncontended atomic lock acquisition plus a ring push,
//! no allocation beyond the span's own strings.
//!
//! # Dumps
//!
//! [`FlightRecorder::dump_json`] renders the last
//! [`FlightConfig::retention`] of every ring plus a full metric snapshot
//! (when a [`Telemetry`] registry is attached). [`FlightRecorder::dump_to_file`]
//! writes it to `flight-<timestamp-micros>.json` in the configured dump
//! directory, and [`FlightRecorder::install_panic_hook`] chains a global
//! panic hook that does so automatically on *any* panic — including ones
//! later contained by `catch_unwind`, which is exactly when you want the
//! evidence preserved (the serving gateway catches replica panics and keeps
//! running; the dump is how you find out what the dying batch was doing).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use prionn_telemetry::{json_str, Telemetry};

use crate::trace::SpanRecord;

/// Flight recorder sizing and retention.
#[derive(Clone, Debug)]
pub struct FlightConfig {
    /// Spans kept per recording thread (oldest evicted first).
    pub per_thread_capacity: usize,
    /// How far back a dump reaches; spans older than this are filtered out
    /// of dumps (they may still sit in a quiet thread's ring).
    pub retention: Duration,
    /// Where `flight-*.json` dumps land; `None` = current directory.
    pub dump_dir: Option<PathBuf>,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            per_thread_capacity: 512,
            retention: Duration::from_secs(30),
            dump_dir: None,
        }
    }
}

struct ThreadRing {
    label: String,
    ring: Mutex<VecDeque<SpanRecord>>,
}

struct RecorderInner {
    /// Distinguishes recorders in the thread-local ring cache.
    id: u64,
    epoch: Instant,
    per_thread_capacity: usize,
    retention: Duration,
    dump_dir: Mutex<Option<PathBuf>>,
    threads: Mutex<Vec<Arc<ThreadRing>>>,
    /// Spans lost to try_lock contention (a dump was reading the ring).
    contended_drops: AtomicU64,
    telemetry: Mutex<Option<Telemetry>>,
    dumps_written: AtomicU64,
    in_panic_dump: AtomicBool,
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    // (recorder id, this thread's ring in that recorder). A linear scan:
    // real processes run one recorder; tests run a handful.
    static THREAD_RINGS: RefCell<Vec<(u64, Arc<ThreadRing>)>> = const { RefCell::new(Vec::new()) };
}

/// The shared flight recorder handle. Cloning shares all rings.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field(
                "threads",
                &self.inner.threads.lock().map(|t| t.len()).unwrap_or(0),
            )
            .field("contended_drops", &self.dropped())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with the given sizing.
    pub fn new(cfg: FlightConfig) -> Self {
        FlightRecorder {
            inner: Arc::new(RecorderInner {
                id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                per_thread_capacity: cfg.per_thread_capacity.max(1),
                retention: cfg.retention,
                dump_dir: Mutex::new(cfg.dump_dir),
                threads: Mutex::new(Vec::new()),
                contended_drops: AtomicU64::new(0),
                telemetry: Mutex::new(None),
                dumps_written: AtomicU64::new(0),
                in_panic_dump: AtomicBool::new(false),
            }),
        }
    }

    /// Include a metric snapshot from `t` in every dump.
    pub fn attach_telemetry(&self, t: &Telemetry) {
        *lock(&self.inner.telemetry) = Some(t.clone());
    }

    /// Redirect future dumps to `dir` (created on first dump if missing).
    pub fn set_dump_dir(&self, dir: impl Into<PathBuf>) {
        *lock(&self.inner.dump_dir) = Some(dir.into());
    }

    /// Microseconds since this recorder was created (the span clock).
    pub fn now_micros(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Spans lost because a dump held the writing thread's ring.
    pub fn dropped(&self) -> u64 {
        self.inner.contended_drops.load(Ordering::Relaxed)
    }

    fn thread_ring(&self) -> Arc<ThreadRing> {
        let id = self.inner.id;
        THREAD_RINGS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, ring)) = cache.iter().find(|(rid, _)| *rid == id) {
                return ring.clone();
            }
            let label = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
            let ring = Arc::new(ThreadRing {
                label,
                ring: Mutex::new(VecDeque::with_capacity(self.inner.per_thread_capacity)),
            });
            lock(&self.inner.threads).push(ring.clone());
            cache.push((id, ring.clone()));
            ring
        })
    }

    /// Record a completed span into this thread's ring. Never blocks: if a
    /// dump is concurrently reading the ring, the span is dropped and
    /// counted instead.
    pub fn record(&self, rec: SpanRecord) {
        let ring = self.thread_ring();
        match ring.ring.try_lock() {
            Ok(mut r) => {
                if r.len() >= self.inner.per_thread_capacity {
                    r.pop_front();
                }
                r.push_back(rec);
            }
            Err(_) => {
                self.inner.contended_drops.fetch_add(1, Ordering::Relaxed);
            }
        };
    }

    /// Copy every ring's contents, sorted by start time. Blocks writers
    /// only for the clone of each ring in turn (writers fall back to the
    /// drop counter meanwhile).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let threads: Vec<Arc<ThreadRing>> = lock(&self.inner.threads).clone();
        let mut out = Vec::new();
        for t in &threads {
            out.extend(lock(&t.ring).iter().cloned());
        }
        out.sort_by_key(|s| (s.start_micros, s.span_id));
        out
    }

    /// Render a dump: per-thread spans within the retention window plus a
    /// metric snapshot (if telemetry is attached), as one JSON object.
    pub fn dump_json(&self, reason: &str) -> String {
        let now = self.now_micros();
        let retention_micros = self.inner.retention.as_micros() as u64;
        let cutoff = now.saturating_sub(retention_micros);
        let threads: Vec<Arc<ThreadRing>> = lock(&self.inner.threads).clone();
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"reason\":{},\"at_micros\":{now},\"retention_micros\":{retention_micros},\"spans_dropped\":{},\"threads\":[",
            json_str(reason),
            self.dropped(),
        ));
        let mut first_thread = true;
        for t in &threads {
            let spans: Vec<SpanRecord> = {
                let ring = lock(&t.ring);
                ring.iter()
                    .filter(|s| s.start_micros + s.duration_micros >= cutoff)
                    .cloned()
                    .collect()
            };
            if !first_thread {
                out.push(',');
            }
            first_thread = false;
            out.push_str(&format!("{{\"thread\":{},\"spans\":[", json_str(&t.label)));
            for (i, s) in spans.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&span_json(s));
            }
            out.push_str("]}");
        }
        out.push_str("],\"metrics\":");
        match lock(&self.inner.telemetry).as_ref() {
            Some(t) => out.push_str(&t.json()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// Write [`FlightRecorder::dump_json`] to `flight-<micros>-<n>.json` in
    /// the dump directory (current directory if unset), returning the path.
    pub fn dump_to_file(&self, reason: &str) -> io::Result<PathBuf> {
        let dir = lock(&self.inner.dump_dir)
            .clone()
            .unwrap_or_else(|| PathBuf::from("."));
        std::fs::create_dir_all(&dir)?;
        let ts = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let n = self.inner.dumps_written.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("flight-{ts}-{n}.json"));
        std::fs::write(&path, self.dump_json(reason))?;
        Ok(path)
    }

    /// Number of dump files written so far.
    pub fn dumps_written(&self) -> u64 {
        self.inner.dumps_written.load(Ordering::Relaxed)
    }

    /// Chain a global panic hook that writes a flight dump on every panic
    /// (even ones later contained by `catch_unwind`), then defers to the
    /// previously installed hook. Re-entrant panics inside the dump are
    /// swallowed by a guard flag. Call once per recorder.
    pub fn install_panic_hook(&self) {
        let recorder = self.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !recorder.inner.in_panic_dump.swap(true, Ordering::SeqCst) {
                let msg = panic_message(info);
                let reason = match info.location() {
                    Some(loc) => format!("panic at {}:{}: {msg}", loc.file(), loc.line()),
                    None => format!("panic: {msg}"),
                };
                let _ = recorder.dump_to_file(&reason);
                recorder.inner.in_panic_dump.store(false, Ordering::SeqCst);
            }
            prev(info);
        }));
    }
}

fn panic_message(info: &std::panic::PanicHookInfo<'_>) -> String {
    if let Some(s) = info.payload().downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = info.payload().downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Render one span as a JSON object (shared by dumps and the `/traces`
/// ops route).
pub(crate) fn span_json(s: &SpanRecord) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"trace_id\":{},\"span_id\":{},\"parent_id\":{},\"name\":{},\"detail\":{},\"start_micros\":{},\"duration_micros\":{},\"links\":[",
        s.trace_id,
        s.span_id,
        s.parent_id,
        json_str(&s.name),
        json_str(&s.detail),
        s.start_micros,
        s.duration_micros,
    ));
    for (i, l) in s.links.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"trace_id\":{},\"span_id\":{}}}",
            l.trace_id, l.span_id
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanCtx;

    fn rec(cap: usize) -> FlightRecorder {
        FlightRecorder::new(FlightConfig {
            per_thread_capacity: cap,
            ..FlightConfig::default()
        })
    }

    fn span(id: u64, start: u64) -> SpanRecord {
        SpanRecord {
            trace_id: id,
            span_id: id,
            parent_id: 0,
            name: format!("s{id}"),
            detail: String::new(),
            links: vec![SpanCtx {
                trace_id: 1,
                span_id: 1,
            }],
            start_micros: start,
            duration_micros: 1,
        }
    }

    #[test]
    fn rings_are_per_thread_and_bounded() {
        let r = rec(4);
        for i in 0..10 {
            r.record(span(i, i));
        }
        let main_spans = r.snapshot();
        assert_eq!(main_spans.len(), 4, "oldest evicted");
        assert_eq!(main_spans[0].trace_id, 6);
        std::thread::scope(|s| {
            let r2 = r.clone();
            s.spawn(move || {
                for i in 100..103 {
                    r2.record(span(i, i));
                }
            });
        });
        assert_eq!(r.snapshot().len(), 7, "second thread has its own ring");
    }

    #[test]
    fn snapshot_is_sorted_across_threads() {
        let r = rec(64);
        std::thread::scope(|s| {
            for t in 0..4 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..16 {
                        r.record(span(t * 100 + i, i * 4 + t));
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.len(), 64);
        assert!(snap
            .windows(2)
            .all(|w| w[0].start_micros <= w[1].start_micros));
    }

    #[test]
    fn dump_filters_by_retention_and_is_json() {
        let r = FlightRecorder::new(FlightConfig {
            per_thread_capacity: 16,
            retention: Duration::from_micros(0),
            dump_dir: None,
        });
        r.record(span(1, 0));
        // retention 0 => only spans ending "now" survive; a span that
        // started at recorder epoch 0 is long past by dump time.
        let json = r.dump_json("test");
        assert!(json.contains("\"reason\":\"test\""), "{json}");
        assert!(json.contains("\"spans\":[]"), "{json}");
        let t = Telemetry::new();
        t.counter("x_total", "").inc();
        r.attach_telemetry(&t);
        let json = r.dump_json("test2");
        assert!(json.contains("\"metrics\":{"), "{json}");
        assert!(json.contains("x_total"), "{json}");
    }

    #[test]
    fn dump_to_file_writes_flight_prefix() {
        let dir = std::env::temp_dir().join(format!("prionn-flight-test-{}", std::process::id()));
        let r = rec(8);
        r.set_dump_dir(&dir);
        r.record(span(1, r.now_micros()));
        let path = r.dump_to_file("unit").unwrap();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        assert!(
            name.starts_with("flight-") && name.ends_with(".json"),
            "{name}"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"name\":\"s1\""), "{body}");
        assert_eq!(r.dumps_written(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn span_json_escapes_strings() {
        let mut s = span(1, 2);
        s.detail = "a\"b\nc".into();
        let j = span_json(&s);
        assert!(j.contains("\"detail\":\"a\\\"b\\nc\""), "{j}");
        assert!(
            j.contains("\"links\":[{\"trace_id\":1,\"span_id\":1}]"),
            "{j}"
        );
    }
}
