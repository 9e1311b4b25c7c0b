//! In-memory spans around the benchmark's calls into each layer, written
//! out once the traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records nested spans; a span's parent is the innermost span open when
/// it started.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (value, (end_ns - start_ns) as f64 / 1e9)
    }

    /// The spans as a JSON document: one object per span with its id,
    /// parent id (or null), name, start and end.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"format\": \"perfbench-spans-v1\", \"spans\": [\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}}}{sep}",
                span.name.replace(['"', '\\'], "_"),
                span.start_ns,
                span.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise() {
        let mut rec = Recorder::new();
        let ((), _) = rec.span("outer", |rec| {
            let (v, secs) = rec.span("inner", |_| 7);
            assert_eq!(v, 7);
            assert!(secs >= 0.0);
        });
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        let json = rec.to_json();
        assert!(json.contains("\"name\": \"inner\""));
        assert!(json.contains("\"parent\": null"));
    }
}
