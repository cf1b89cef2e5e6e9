//! Sweep-as-a-service: a long-lived daemon over the EBCP harness.
//!
//! `repro all` pays its fixed costs — front-end trace resolution, disk
//! cache reads, memo warm-up — once per *process*. A research loop that
//! submits dozens of small sweeps a day pays them dozens of times. This
//! crate moves the harness behind a daemon (`repro serve`) that holds
//! everything warm across requests:
//!
//! - the **result memo** and **pre-resolved event streams** live in one
//!   shared [`Harness`](ebcp_harness::Harness) for the daemon's
//!   lifetime, so a repeat sweep performs *zero* simulations and even a
//!   novel prefetcher sweep pays zero front-end cost on a warm
//!   workload;
//! - jobs flow through a bounded, per-client-fair
//!   [`JobService`](ebcp_harness::JobService) queue — a flooding client
//!   is pushed back with a retry hint, not buffered unboundedly, and
//!   one client's panicking cell never disturbs another's sweep;
//! - results and live telemetry **stream** back per cell as they land,
//!   over a std-only line-delimited JSON protocol ([`proto`]) carried
//!   by TCP or a Unix socket — no HTTP stack, no serialization crates.
//!   A submit's lines are coalesced into one buffer, written once it
//!   holds 16 KiB, before the daemon waits for the next cell, and with
//!   the final line: a landed cell never waits in the buffer, and a warm
//!   submit's ~220 KB go out in about fifteen writes instead of one per
//!   line.
//!
//! The client side ([`client`]) assembles the streamed cells back into
//! a `results.json` through the *same* deterministic renderer local
//! runs use ([`ebcp_harness::results_doc`]), which is what makes
//! `repro submit` byte-identical to `repro sweep` run locally.
//!
//! Sweeps travel as **grids**, not serialized jobs: workload names ×
//! prefetcher names × a scale ([`sweep::SweepSpec`]). Client and daemon
//! are built from the same workspace, so resolving the grid on both
//! sides yields identical content-addressed jobs; the names are the
//! wire format and version skew is caught by the job-id echo.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod proto;
pub mod server;
pub mod sweep;

pub use client::{Client, SweepOutcome};
pub use proto::{Conn, Message};
pub use server::{Server, ServerConfig};
pub use sweep::SweepSpec;
