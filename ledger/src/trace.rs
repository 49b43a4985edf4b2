//! The traced run's span log: one span per boundary the benchmark can see
//! from outside — each request `due → sent → replied`, each offline stage
//! call, each admin verb, each process spawn — kept in memory and written
//! to `trace.json` when the run ends. Spans inside the program are a later
//! issue; this log is what its spans will have to add up to.

use crate::json::Json;
use crate::loadgen::Sample;
use crate::oracle::Served;
use std::time::Instant;

/// One span. `id` is shared by every span of one request or stage;
/// `parent` is the index (from 1) of the span that caused this one, 0 for
/// a root.
pub struct Span {
    pub id: u64,
    pub parent: usize,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, Json)>,
}

/// The in-memory log of one workload's traced run.
pub struct Trace {
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a root span for a stage, admin verb or spawn; close it with
    /// [`Trace::close`].
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: 0,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, handle: usize, attrs: Vec<(&'static str, Json)>) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[handle];
        span.end_ns = end_ns;
        span.attrs = attrs;
    }

    /// Log a root span whose instants were taken elsewhere.
    pub fn record(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        let handle = self.open(name);
        let span = &mut self.spans[handle];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
    }

    /// Time `work` as one root span.
    pub fn stage<T>(&mut self, name: &str, work: impl FnOnce() -> T) -> T {
        let handle = self.open(name);
        let out = work();
        self.close(handle, Vec::new());
        out
    }

    /// Log a finished exchange: the request span `due → replied`; under it
    /// the generator's lateness `due → sent` and the wire round trip
    /// `sent → replied`; and under the round trip the server's own account
    /// of the request (`micros`, `fresh|cached`), placed at its end since
    /// only its length is known from outside. The round trip's self time
    /// is then what the front-end and the wire cost.
    pub fn request(&mut self, phase: &str, sample: &Sample, served: Option<Served>) {
        let id = self.next_id;
        self.next_id += 1;
        let root = self.spans.len() + 1;
        let mut push = |parent, name: String, start_ns, end_ns, attrs| {
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                attrs,
            });
        };
        push(
            0,
            format!("{phase}.request"),
            sample.due_ns,
            sample.recv_ns,
            vec![
                ("user", Json::Num(f64::from(sample.key.user))),
                ("keyword", Json::Num(f64::from(sample.key.keyword))),
                ("sender", Json::Num(f64::from(sample.sender))),
            ],
        );
        push(
            root,
            "loadgen.wait".into(),
            sample.due_ns,
            sample.sent_ns,
            vec![],
        );
        push(
            root,
            "wire.rtt".into(),
            sample.sent_ns,
            sample.recv_ns,
            vec![],
        );
        if let Some(served) = served {
            let service_ns = served.micros.saturating_mul(1_000);
            push(
                root + 2,
                "server.service".into(),
                sample
                    .recv_ns
                    .saturating_sub(service_ns)
                    .max(sample.sent_ns),
                sample.recv_ns,
                vec![
                    ("micros", Json::Num(served.micros as f64)),
                    ("cached", Json::Bool(served.cached)),
                ],
            );
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut pairs = vec![
                        ("id".to_string(), Json::Num(s.id as f64)),
                        ("parent".to_string(), Json::Num(s.parent as f64)),
                        ("name".to_string(), Json::str(s.name.clone())),
                        ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                        ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                    ];
                    pairs.extend(s.attrs.iter().map(|(k, v)| (k.to_string(), v.clone())));
                    Json::Obj(pairs)
                })
                .collect(),
        )
    }
}
