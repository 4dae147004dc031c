//! In-memory spans recorded around each layer call, and the process CPU
//! clock they carry.
//!
//! A span records its name, start and end (seconds since the tracer was
//! created), the span that encloses it, the scenario it belongs to, and
//! the process CPU time spent while it was open. Spans stay in memory
//! until [`Tracer::write_jsonl`] writes them out once, at exit.

use std::ffi::{c_int, c_long};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`: user plus system time of every
/// thread of the process, including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// User plus system CPU seconds consumed by this process so far.
///
/// # Panics
///
/// Panics if the kernel rejects the clock, which Linux never does.
#[must_use]
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and the clock id is a constant Linux
    // defines; `clock_gettime` writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `core.compact.build`.
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// The scenario this span worked on; `None` for batch-level spans.
    pub scenario: Option<usize>,
    /// Seconds since the tracer's origin.
    pub start_s: f64,
    /// Seconds since the tracer's origin.
    pub end_s: f64,
    /// Process CPU seconds spent while the span was open.
    pub cpu_s: f64,
}

impl Span {
    /// Wall-clock duration.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An open span, returned by [`Tracer::enter`] and closed by
/// [`Tracer::exit`].
#[derive(Debug)]
pub struct Open {
    index: usize,
    start: Instant,
    cpu: f64,
}

/// Records spans when enabled; costs nothing but a branch when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records every span.
    #[must_use]
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// Every span opened so far, in the order they were opened. A span
    /// still open has NaN end and CPU times.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span nested in the innermost open one. Returns `None` when
    /// the tracer is disabled.
    #[must_use = "an entered span must be closed with Tracer::exit"]
    pub fn enter(&mut self, name: &'static str, scenario: Option<usize>) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            scenario,
            start_s: start.duration_since(self.origin).as_secs_f64(),
            end_s: f64::NAN,
            cpu_s: f64::NAN,
        });
        self.stack.push(index);
        Some(Open {
            index,
            start,
            cpu: process_cpu_s(),
        })
    }

    /// Closes a span opened by [`Tracer::enter`]. Spans close innermost
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `open` is not the innermost open span.
    pub fn exit(&mut self, open: Option<Open>) {
        let Some(open) = open else { return };
        let cpu = process_cpu_s() - open.cpu;
        let end = open.start.elapsed().as_secs_f64();
        assert_eq!(
            self.stack.pop(),
            Some(open.index),
            "spans must close innermost first"
        );
        let span = &mut self.spans[open.index];
        span.end_s = span.start_s + end;
        span.cpu_s = cpu;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        scenario: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.enter(name, scenario);
        let out = f();
        self.exit(open);
        out
    }

    /// Each span's self time: its duration minus the durations of the
    /// spans directly inside it. Children run one after another on the
    /// caller's thread, so their durations never overlap.
    #[must_use]
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::wall_s).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.wall_s();
            }
        }
        own
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"scenario\":{},\"start_s\":{},\"end_s\":{},\"wall_s\":{},\"cpu_s\":{}}}",
                s.name,
                opt(s.parent),
                opt(s.scenario),
                s.start_s,
                s.end_s,
                s.wall_s(),
                s.cpu_s
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::enabled();
        let outer = t.enter("outer", None);
        t.span("inner", Some(0), || {
            std::hint::black_box((0..10_000).sum::<u64>())
        });
        t.exit(outer);
        let own = t.self_times();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!((own[0] + t.spans()[1].wall_s() - t.spans()[0].wall_s()).abs() < 1e-12);
        assert!(own.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("x", None, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn cpu_clock_advances() {
        let a = process_cpu_s();
        std::hint::black_box((0..2_000_000u64).map(|x| x ^ (x >> 3)).sum::<u64>());
        assert!(process_cpu_s() > a);
    }
}
