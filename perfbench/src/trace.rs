//! In-memory wall-time spans around the calls the benchmark makes into
//! each layer, written out as JSON when the run ends.

use std::time::Instant;

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    /// The pass or session the span belongs to.
    pub op: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        ms_between(self.start, self.end)
    }
}

pub fn ms_between(start: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(start).as_secs_f64() * 1e3
}

/// An open span; close it with [`Trace::close`].
pub struct Open {
    id: usize,
    parent: Option<usize>,
    name: String,
    op: u64,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> usize {
        self.id
    }
}

pub struct Trace {
    epoch: Instant,
    next_id: usize,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>, op: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            name: name.into(),
            op,
            start: Instant::now(),
        }
    }

    /// Closes `open` now and returns its duration in ms.
    pub fn close(&mut self, open: Open) -> f64 {
        self.close_at(open, Instant::now())
    }

    fn close_at(&mut self, open: Open, end: Instant) -> f64 {
        let ms = ms_between(open.start, end);
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            op: open.op,
            start: open.start,
            end,
        });
        ms
    }

    /// Records a span timed elsewhere (on another thread).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let mut open = self.open(name, parent, op);
        open.start = start;
        let id = open.id;
        self.close_at(open, end);
        id
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn to_json(&self) -> String {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": {}, \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.id,
                crate::output::json_string(&s.name),
                s.op,
                ns(s.start),
                ns(s.end),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}
