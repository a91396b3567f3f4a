//! `pscd` — the fault-tolerant compile daemon over `parsched`.
//!
//! The daemon turns the resilient compilation [`Driver`] ladder into a
//! long-running service: newline-delimited JSON requests arrive on stdin
//! or a Unix socket, pass a **bounded admission** stage (fast-fail
//! `overloaded` when the queue is full or a client deadline is already
//! unmeetable, load-shed into a lower degradation rung under partial
//! load), are compiled by **supervised workers** (each module through the
//! [`BatchDriver`], whose per-function panic net contains what the
//! driver's rungs do not; one retry at a lower rung after a jittered
//! backoff), and are answered **exactly once** each. A function-level
//! content-addressed [`ResultCache`] replays byte-identical response
//! bodies for repeated inputs, and a graceful drain finishes in-flight
//! work, flushes the flight recorder, and reports dropped requests
//! honestly.
//!
//! See `docs/SERVICE.md` for the protocol, the admission/shedding
//! policy, retry semantics, cache keying, and the drain contract. The
//! `parsched-loadgen` client (in `parsched-bench`) replays seeded
//! workloads against a live daemon with chaos injection and is wired
//! into CI.
//!
//! [`Driver`]: parsched::Driver
//! [`BatchDriver`]: parsched::BatchDriver

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod proto;
pub mod service;

pub use cache::ResultCache;
pub use proto::{Op, Request, CODE_OK, CODE_OVERLOADED, CODE_PROTO, MAX_LINE_BYTES};
pub use service::{DrainReport, Service, ServiceConfig, ServiceStats};
