//! Per-layer wall-clock attribution from outside the program.
//!
//! [`Timed`] wraps a node, delegates every handler and records one
//! [`Span`] per call into a shared, preallocated [`SpanLog`]. Handlers
//! never call each other (the engine dispatches one at a time), so spans
//! do not nest and a layer's self time is the sum of its span durations;
//! whatever part of the window no span covers is the engine's own time.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use yoda_netsim::{Ctx, Node, Packet, TimerToken};

/// The traced layers: one per node type of the testbed, named after the
/// crate that implements it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Router,
    Mux,
    Instance,
    Controller,
    StoreServer,
    HttpServer,
    HttpClient,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Router,
        Kind::Mux,
        Kind::Instance,
        Kind::Controller,
        Kind::StoreServer,
        Kind::HttpServer,
        Kind::HttpClient,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Router => "l4lb.router",
            Kind::Mux => "l4lb.mux",
            Kind::Instance => "core.instance",
            Kind::Controller => "core.controller",
            Kind::StoreServer => "tcpstore.server",
            Kind::HttpServer => "http.server",
            Kind::HttpClient => "http.client",
        }
    }
}

/// What caused the handler call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    Start,
    Packet,
    Timer,
}

/// One handler call: which layer and node ran, why, when and for how long.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub cause: Cause,
    pub node: u32,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    pub dur_ns: u32,
}

/// In-memory span buffer shared by every [`Timed`] node of one run.
/// Recording is off until [`SpanLog::set_recording`] turns it on at the
/// start of the measured window, so set-up does not fill the buffer.
pub struct SpanLog {
    epoch: Instant,
    recording: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn with_capacity(spans: usize) -> Arc<SpanLog> {
        Arc::new(SpanLog {
            epoch: Instant::now(),
            recording: AtomicBool::new(false),
            spans: Mutex::new(Vec::with_capacity(spans)),
        })
    }

    pub fn set_recording(&self, on: bool) {
        // Relaxed: the flag publishes no other data, and the engine is
        // single-threaded while a traced run measures.
        self.recording.store(on, Ordering::Relaxed);
    }

    fn record(&self, kind: Kind, cause: Cause, node: u32, start: Instant) {
        let dur_ns = start.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("a handler panicked while recording a span")
            .push(Span {
                kind,
                cause,
                node,
                start_ns,
                dur_ns,
            });
    }

    /// Moves the recorded spans out.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a handler panicked while recording a span"),
        )
    }
}

/// A node that times its inner node's handlers. Transparent to the
/// simulation: it sends nothing, arms nothing and draws no randomness,
/// so a wrapped testbed's event digest equals the plain one's.
pub struct Timed<N> {
    pub inner: N,
    kind: Kind,
    log: Arc<SpanLog>,
}

impl<N: Node> Timed<N> {
    pub fn new(inner: N, kind: Kind, log: Arc<SpanLog>) -> Self {
        Timed { inner, kind, log }
    }

    fn timed(&mut self, ctx: &mut Ctx<'_>, cause: Cause, f: impl FnOnce(&mut N, &mut Ctx<'_>)) {
        if !self.log.recording.load(Ordering::Relaxed) {
            return f(&mut self.inner, ctx);
        }
        let start = Instant::now();
        f(&mut self.inner, ctx);
        self.log
            .record(self.kind, cause, ctx.node_id().0 as u32, start);
    }
}

impl<N: Node> Node for Timed<N> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(ctx, Cause::Start, |n, ctx| n.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.timed(ctx, Cause::Packet, |n, ctx| n.on_packet(ctx, pkt));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.timed(ctx, Cause::Timer, |n, ctx| n.on_timer(ctx, token));
    }
}

/// Calls and busy time of one layer inside the window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub busy_ns: u64,
}

/// The window's wall time split between the layers and the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Indexed like [`Kind::ALL`].
    pub layers: [LayerTime; Kind::ALL.len()],
    /// Window wall time no handler span covers: event queue, timer wheel,
    /// link model, digest — and the wrapper's own clock reads.
    pub engine_self_ns: u64,
    pub window_ns: u64,
}

impl Attribution {
    pub fn of(spans: &[Span], window_ns: u64) -> Attribution {
        let mut layers = [LayerTime::default(); Kind::ALL.len()];
        for s in spans {
            let l = &mut layers[s.kind as usize];
            l.calls += 1;
            l.busy_ns += s.dur_ns as u64;
        }
        let busy: u64 = layers.iter().map(|l| l.busy_ns).sum();
        Attribution {
            layers,
            engine_self_ns: window_ns.saturating_sub(busy),
            window_ns,
        }
    }

    pub fn layer(&self, kind: Kind) -> LayerTime {
        self.layers[kind as usize]
    }

    pub fn layer_share(&self, kind: Kind) -> f64 {
        self.layer(kind).busy_ns as f64 / self.window_ns.max(1) as f64
    }

    pub fn engine_share(&self) -> f64 {
        self.engine_self_ns as f64 / self.window_ns.max(1) as f64
    }
}

/// Writes the spans as CSV (`kind,node,cause,start_ns,dur_ns`).
pub fn dump_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "kind,node,cause,start_ns,dur_ns")?;
    for s in spans {
        let cause = match s.cause {
            Cause::Start => "start",
            Cause::Packet => "packet",
            Cause::Timer => "timer",
        };
        writeln!(
            out,
            "{},{},{},{},{}",
            s.kind.name(),
            s.node,
            cause,
            s.start_ns,
            s.dur_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, dur_ns: u32) -> Span {
        Span {
            kind,
            cause: Cause::Packet,
            node: 0,
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn shares_sum_to_one() {
        let spans = [
            span(Kind::Mux, 300),
            span(Kind::Mux, 200),
            span(Kind::Instance, 1_000),
            span(Kind::HttpClient, 2_500),
        ];
        let a = Attribution::of(&spans, 10_000);
        assert_eq!(
            a.layer(Kind::Mux),
            LayerTime {
                calls: 2,
                busy_ns: 500
            }
        );
        assert_eq!(a.layer(Kind::Router), LayerTime::default());
        assert_eq!(a.engine_self_ns, 6_000);
        let total: f64 =
            a.engine_share() + Kind::ALL.iter().map(|&k| a.layer_share(k)).sum::<f64>();
        assert!((total - 1.0).abs() < 1e-12, "shares sum to {total}");
    }
}
