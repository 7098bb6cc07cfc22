//! HTTP layer for the Yoda reproduction.
//!
//! Provides the pieces of the paper's testbed workload that sit above TCP:
//!
//! * `message` ([`HttpRequest`], [`HttpResponse`]) — HTTP/1.0 and 1.1 request/response codec with an
//!   incremental parser (Yoda instances parse the request header straight
//!   out of TCP payload bytes, possibly split across segments),
//! * [`site`] — the emulated university-website object catalog (10K+
//!   objects, 1 KB–442 KB, median 46 KB; paper §7 *Setup*),
//! * `server` ([`OriginServer`]) — an Apache-style origin server node,
//! * `probe` ([`ProbeRequest`], [`ProbeReply`]) — the load-probe wire
//!   format the origin server answers (RIF and latency, for the
//!   instance's Prequal-style selection),
//! * `client` ([`BrowserClient`], [`RateClient`]) — workload generators: a browser emulator with page +
//!   embedded-object fetches, HTTP timeouts and retry policy (Fig. 12,
//!   Table 1), and an open-loop rate client (Apache-bench style; Fig. 13).

#![forbid(unsafe_code)]

mod client;
mod message;
mod probe;
mod server;
pub mod site;

pub use client::{
    BrowserClient, BrowserConfig, RateClient, RateClientConfig, TIMEOUT_KIND, TLS_RETRY_KIND,
};
pub use message::{parse_request, parse_response, parse_response_head, HttpRequest, HttpResponse};
pub use probe::{ProbeReply, ProbeRequest, PROBE_PORT};
pub use server::{OriginServer, ServerConfig};
pub use site::{SiteCatalog, SiteConfig};
