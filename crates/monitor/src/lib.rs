//! # adminref-monitor
//!
//! The RBAC reference monitor of §2–§3 of the paper: sessions with role
//! activation (least privilege), administrative command execution under
//! Definition 5 — optionally with the §4.1 privilege-ordering implicit
//! authorization — an audit trail of every decision, and an optional
//! durable backend (`adminref-store`).
//!
//! Reads are served lock-free from immutable epoch-published
//! [`PolicySnapshot`](adminref_core::snapshot::PolicySnapshot)s while a
//! batched single writer applies admin commands (see [`monitor`]). In
//! memory the published epoch is the monitor's only copy of the policy;
//! its differential tests check batched execution against Definition 5
//! itself (`transition::step`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Serving-path hygiene: no unwrap/expect/panic! outside tests (the
// test exemption lives in the workspace clippy.toml).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod audit;
pub mod monitor;

pub use audit::{trace_of, AuditEvent, AuditLog, Decision, SessionRevocation};
pub use monitor::{
    MonitorConfig, MonitorError, PublishEvent, PublishHook, ReferenceMonitor, ReplicaApplyError,
    SessionId,
};
