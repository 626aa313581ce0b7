//! # frodo-serve — the persistent compile daemon
//!
//! The rest of the workspace compiles in one-shot CLI invocations; this
//! crate keeps the [`CompileService`](frodo_driver::CompileService) alive
//! behind a socket, which is what the ROADMAP's production service needs:
//! a warm artifact cache, a shared worker pool, and live metrics that
//! outlive any single request.
//!
//! - [`server`] — the daemon: a unix-socket (or TCP) listener whose
//!   connections share one [`JobPool`](frodo_driver::JobPool): a bounded
//!   admission queue with per-client round-robin fairness and explicit
//!   backpressure (`busy` + `retry_after_ms`) instead of blocking,
//!   plus graceful drain on `shutdown` with a final perf-ledger entry.
//! - [`proto`] — the NDJSON wire protocol (`compile`, `lint`, `batch`,
//!   `recompile`, `status`, `metrics`, `shutdown`), written and parsed
//!   with [`frodo_obs::ndjson`] so the daemon speaks the same dialect as
//!   the trace/ledger tooling. Every response carries a `request_id`
//!   stamp, and `metrics` reports rolling-window per-verb latency
//!   histograms.
//! - [`client`] — a line-oriented client with backpressure-aware retry,
//!   used by `frodo client` and the integration tests.
//! - [`resolve`] — model references (paths, bundled benchmark names,
//!   `random:` specs), resolved one way for the CLI and the daemon.
//! - [`cli`] — the `frodo serve` / `frodo client` verb implementations
//!   and the argument parsing every `frodo` verb shares.
//!
//! # Example
//!
//! ```no_run
//! use frodo_serve::client::{Client, Endpoint};
//!
//! # fn main() -> Result<(), String> {
//! let mut client = Client::connect(&Endpoint::Unix(".frodo/serve.sock".into()))?;
//! let response = client.request_one(r#"{"type":"status"}"#)?;
//! assert!(response.contains("\"queue_depth\""));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod proto;
pub mod resolve;
pub mod server;

pub use client::{Client, Endpoint};
pub use proto::{Request, RequestOptions, PROTO_VERSION};
pub use resolve::{job_spec_for, resolve_model};
pub use server::{Server, ServerConfig};
