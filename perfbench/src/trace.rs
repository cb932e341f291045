//! In-memory spans around the benchmark's own calls into each layer,
//! written out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// Spans kept per recorder; later calls are counted, not stored, so a
/// long run's trace stays a bounded size.
const SPAN_CAP: usize = 20_000;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer for one stage. A disabled recorder takes
/// no timestamps of its own: that is the untraced configuration.
pub struct Recorder {
    pub on: bool,
    epoch: Instant,
    parent: u64,
    next_id: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            epoch: Instant::now(),
            parent: 0,
            next_id: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn span(&mut self, name: &'static str, job: usize, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        self.next_id += 1;
        self.spans.push(Span {
            name,
            id: self.next_id,
            parent: self.parent,
            job: job as u64,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        });
    }
}

/// The whole run's trace: one parent span per stage, and the call
/// spans each stage's threads recorded under it.
pub struct Trace {
    epoch: Instant,
    next_stage: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            next_stage: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Opens a stage: returns its span id and a factory for per-thread
    /// recorders whose spans name it as parent. Call-span ids carry the
    /// stage id and the thread in their high bits so ids stay unique.
    pub fn stage(&mut self) -> StageRecorders {
        self.next_stage += 1;
        StageRecorders {
            epoch: self.epoch,
            stage: self.next_stage,
        }
    }

    /// Closes a stage span and absorbs its threads' call spans.
    pub fn close(
        &mut self,
        stage: &StageRecorders,
        name: &'static str,
        start: Instant,
        end: Instant,
        recorders: Vec<Recorder>,
    ) {
        self.spans.push(Span {
            name,
            id: stage.stage << 48,
            parent: 0,
            job: 0,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        });
        for r in recorders {
            self.dropped += r.dropped;
            self.spans.extend(r.spans);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"job\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.job, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

pub struct StageRecorders {
    epoch: Instant,
    stage: u64,
}

impl StageRecorders {
    pub fn recorder(&self, thread: usize) -> Recorder {
        let parent = self.stage << 48;
        Recorder {
            on: true,
            epoch: self.epoch,
            parent,
            next_id: parent | ((thread as u64) << 32),
            spans: Vec::with_capacity(1024),
            dropped: 0,
        }
    }
}
