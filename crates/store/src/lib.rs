//! # adminref-store
//!
//! Durable storage for administrative policies: the paper's reference
//! monitor needs its policy to survive restarts, and this crate provides
//! the database-style substrate — a CRC-framed append-only log of
//! command batches, one record per batch ([`log::CommandLog`]), atomic
//! snapshots ([`snapshot`]), deterministic
//! replay recovery ([`store::PolicyStore`]), and the binary codec
//! ([`codec`]) underneath them. All of it is built from scratch on
//! `std::fs` + `bytes`; corruption handling is tested with injected torn
//! tails and bit flips.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Serving-path hygiene: no unwrap/expect/panic! outside tests (the
// test exemption lives in the workspace clippy.toml).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod codec;
pub mod crc;
pub mod log;
pub mod record;
pub mod snapshot;
pub mod store;
pub mod tempdir;

pub use codec::CodecError;
pub use log::{CommandLog, LogEntry, RecoveredLog, StoreError};
pub use snapshot::{decode_state, encode_state, load_snapshot, write_snapshot, Snapshot};
pub use store::{PolicyStore, RecoveryReport};
pub use tempdir::TempDir;
