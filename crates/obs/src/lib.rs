//! # frodo-obs — the unified observability layer
//!
//! The paper's argument rests on attributing cost per pipeline stage
//! (model analysis → redundancy elimination → concise codegen) and per
//! block family. This crate is the one place that attribution lives:
//!
//! - **[`Trace`]** — a thread-safe recorder of hierarchical [`Span`]s on
//!   the monotonic clock, named counters (blocks flattened, elements
//!   eliminated, cache hits, bytes emitted, …), and log2-bucket
//!   [`Histogram`]s. [`Trace::noop`] is the disabled recorder: no
//!   allocation, no clock reads, no locks — instrumented code stays
//!   paper-faithful when nobody is listening. A job records into a trace
//!   of its own; [`Trace::graft`] hands that trace whole to a sink that
//!   many jobs share.
//! - **[`StageTimings`]** — the single per-stage timing view of the
//!   workspace, *derived* from a trace by summing span durations per
//!   canonical stage name ([`STAGE_NAMES`]). Every crate that used to
//!   keep its own clocks (core's analysis timings, the driver's report
//!   counters, the bench harness) reads this type instead.
//! - **Exports** — [`Trace::render_tree`] for humans, [`Trace::to_ndjson`]
//!   for machines, [`Trace::to_chrome_trace`] (chrome://tracing / Perfetto
//!   `trace_event` JSON) and [`Trace::to_collapsed`] (flamegraph
//!   collapsed stacks) for profile viewers, and [`ndjson`] with a
//!   dependency-free validator/parser for the export format (used by the
//!   golden schema test and the CI gate).
//! - **Longitudinal view** — [`agg::AggFold`] folds any number of
//!   traces (one batch, or every job a daemon runs) into per-stage
//!   [`agg::StageSummary`]s (count/sum/mean/p50/p95/max via
//!   [`Histogram::percentile`]) and totalled counters, in bounded space;
//!   [`agg::aggregate`] is that fold over one trace;
//!   [`ledger`] persists those as append-only NDJSON
//!   [`ledger::LedgerEntry`] lines; [`diff::diff_entries`] compares two
//!   runs — exact equality for deterministic counters, a tolerance band
//!   for wall times — and backs the `frodo obs diff` CI regression gate.
//!
//! This crate depends on **nothing** (ci.sh enforces it with `cargo
//! tree`), so every other crate in the workspace may depend on it.
//!
//! # Example
//!
//! ```
//! use frodo_obs::{StageTimings, Trace};
//!
//! let trace = Trace::new();
//! {
//!     let job = trace.span("job:demo");
//!     let parse = job.child("parse");
//!     parse.count("bytes", 1024);
//!     drop(parse);
//!     let _emit = job.child("emit");
//! }
//! let timings = StageTimings::from_trace(&trace);
//! assert!(timings.parse >= std::time::Duration::ZERO);
//! assert_eq!(trace.counter_total("bytes"), 1024);
//! assert!(trace.render_tree().contains("└─ job:demo"));
//!
//! // the disabled recorder records nothing
//! let off = Trace::noop();
//! let _span = off.span("parse");
//! assert_eq!(off.span_count(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod diff;
mod export;
mod hist;
pub mod ledger;
pub mod ndjson;
pub mod rolling;
mod stage;
mod trace;

pub use agg::{aggregate, AggFold, StageSummary, TraceAgg};
pub use diff::{diff_entries, Diff};
pub use export::{chrome_trace, collapsed, json_escape, ndjson_export, render_tree};
pub use hist::Histogram;
pub use ledger::{append_entry, git_rev, read_ledger, LedgerEntry, ServiceMetrics, LEDGER_SCHEMA};
pub use rolling::RollingWindow;
pub use stage::{fmt_duration, StageTimings, STAGE_NAMES};
pub use trace::{CounterRecord, Span, SpanId, SpanRecord, Trace, TraceSnapshot, NO_PARENT};
