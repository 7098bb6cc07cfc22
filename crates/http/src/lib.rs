//! HTTP layer for the Yoda reproduction.
//!
//! Provides the pieces of the paper's testbed workload that sit above TCP:
//!
//! * [`message`] — HTTP/1.0 and 1.1 request/response codec with an
//!   incremental parser (Yoda instances parse the request header straight
//!   out of TCP payload bytes, possibly split across segments),
//! * [`site`] — the emulated university-website object catalog (10K+
//!   objects, 1 KB–442 KB, median 46 KB; paper §7 *Setup*),
//! * [`server`] — an Apache-style origin server node,
//! * [`client`] — workload generators: a browser emulator with page +
//!   embedded-object fetches, HTTP timeouts and retry policy (Fig. 12,
//!   Table 1), and an open-loop rate client (Apache-bench style; Fig. 13).

#![deny(warnings)]

#![forbid(unsafe_code)]

pub mod client;
pub mod message;
pub mod server;
pub mod site;

pub use client::{
    BrowserClient, BrowserConfig, RateClient, RateClientConfig, RequestOutcome, TIMEOUT_KIND,
};
pub use message::{
    parse_request, parse_response, parse_response_head, HttpRequest, HttpResponse,
};
pub use server::{OriginServer, ServerConfig};
pub use site::{ObjectId, Page, Site, SiteCatalog, SiteConfig};
