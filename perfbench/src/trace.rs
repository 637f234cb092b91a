//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end and the time its children covered.
//! The only children are the membership calls the timing decorator
//! ([`crate::sim::Timed`]) reports into the shared [`CoreTimes`]; a span's
//! self time is its duration minus that. Spans stay in memory until the run
//! ends and are then written out as one tab-separated file.

use crate::report::CORE_ENTRIES;
use std::cell::RefCell;
use std::io::Write as _;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

/// Per-entry call counts and nanoseconds of the membership layer.
#[derive(Debug, Default, Clone)]
pub struct CoreTimes {
    /// Calls per [`CORE_ENTRIES`] entry.
    pub calls: [u64; CORE_ENTRIES.len()],
    /// Nanoseconds per [`CORE_ENTRIES`] entry.
    pub ns: [u64; CORE_ENTRIES.len()],
    /// Messages the calls put into their outboxes.
    pub msgs_out: u64,
}

impl CoreTimes {
    /// Nanoseconds over every entry.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Calls over every entry.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// Handle shared between the decorator instances and the span recorder.
pub type SharedCore = Rc<RefCell<CoreTimes>>;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the benchmark called (`sim.join`, `net.broadcast`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Nanoseconds covered by child spans (membership calls).
    pub child_ns: u64,
    /// Work the call covered: alive nodes for a cycle, pairs for a
    /// broadcast, deliveries for a collector sweep.
    pub work: u64,
}

impl Span {
    /// Wall nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Wall nanoseconds not covered by children.
    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    core: Option<SharedCore>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose spans subtract `core` time as child time.
    pub fn new(core: Option<SharedCore>) -> Tracer {
        Tracer { epoch: Instant::now(), core, spans: Vec::new() }
    }

    fn core_ns(&self) -> u64 {
        self.core.as_ref().map_or(0, |core| core.borrow().total_ns())
    }

    /// Runs `f` inside a span named `name`; `work` is filled in from the
    /// result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> R,
        work: impl FnOnce(&R) -> u64,
    ) -> R {
        let core_before = self.core_ns();
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        let child_ns = self.core_ns() - core_before;
        self.spans.push(Span {
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            child_ns,
            work: work(&result),
        });
        result
    }

    /// Runs `f` inside a span when `tracer` is set, and plainly otherwise.
    pub fn maybe<R>(
        tracer: &mut Option<Tracer>,
        name: &'static str,
        f: impl FnOnce() -> R,
        work: impl FnOnce(&R) -> u64,
    ) -> R {
        match tracer {
            Some(tracer) => tracer.span(name, f, work),
            None => f(),
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Writes every span as one tab-separated line into
    /// `<target dir>/perfbench-traces/<file>`; returns the path.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_out(&self, file: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(
            std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into()),
        )
        .join("perfbench-traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(file);
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tchild_ns\tself_ns\twork")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.child_ns,
                s.self_ns(),
                s.work
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}
