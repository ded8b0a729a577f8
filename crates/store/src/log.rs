//! The append-only command log.
//!
//! Each record is a sequence number and a `LogRecord`: a whole batch of
//! administrative commands, each with whether it was authorized when
//! first executed, or an admission [`ConstraintSet`] declaration (the
//! whole set, last-writer-wins, so recovery needs no merging). A batch
//! takes one sequence number per command, the record carrying the
//! first. Records are CRC-framed ([`crate::record`]); recovery replays
//! the longest valid prefix and truncates a torn tail, so a batch is
//! recovered whole or not at all.
//!
//! A record reaches the file in one `write_all`, unbuffered: a
//! `BufWriter` keeps the bytes of a failed flush and writes them ahead
//! of the next record. An append that fails, in the write or in the
//! sync after it, truncates the file back to where the record began; if
//! that truncation fails too, the log refuses appends until it is
//! reopened.
//!
//! Logs from before batch records held one record per command (tag 0).
//! Opening one is [`StoreError::Codec`] and leaves the file untouched:
//! run `adminref compact` on the store with the build that wrote it
//! first.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Seek, SeekFrom, Write};
use std::path::Path;

use adminref_core::admission::ConstraintSet;
use adminref_core::command::Command;

use crate::codec::{decode, encode, CodecError, Wire};
use crate::record::{read_record, write_record, RecordRead};

/// One durable log entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LogEntry {
    /// Monotonic sequence number (starting at the snapshot's base).
    pub seq: u64,
    /// The command.
    pub command: Command,
    /// Whether the reference monitor authorized it when it first ran.
    pub executed: bool,
}

/// Store-level errors.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Undecodable payload inside a checksum-valid record.
    Codec(CodecError),
    /// Snapshot/log header mismatch.
    BadHeader(&'static str),
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::BadHeader(what) => write!(f, "bad header: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A failure the next append injects, for fault tests.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fault {
    /// Half the record reaches the file, then the write fails.
    Append,
    /// The whole record reaches the file, then the sync fails.
    Sync,
}

/// Append-only command log backed by one file.
#[derive(Debug)]
pub struct CommandLog {
    file: File,
    /// Where the next record starts: the length of the valid records.
    end: u64,
    next_seq: u64,
    entries_written: u64,
    /// `fsync`s issued since open.
    syncs: u64,
    /// A failed append could not be truncated away.
    wedged: bool,
    fault: Option<Fault>,
}

/// Result of opening a log: the log handle plus the recovered entries.
#[derive(Debug)]
pub struct RecoveredLog {
    /// The log, positioned for appends.
    pub log: CommandLog,
    /// The valid prefix of command entries found on disk.
    pub entries: Vec<LogEntry>,
    /// The last constraint-set declaration in the valid prefix, if any.
    pub constraints: Option<ConstraintSet>,
    /// `true` iff a torn/corrupt tail was truncated during recovery.
    pub truncated_tail: bool,
}

/// What a log record holds after its sequence number.
enum LogRecord {
    Constraints { set: ConstraintSet },
    Batch { entries: Vec<(bool, Command)> },
}

crate::wire_enum!(LogRecord: u8 as "log record" {
    1 => Constraints { set },
    2 => Batch { entries },
});

impl CommandLog {
    /// Opens (or creates) the log at `path`, replaying the valid prefix
    /// and truncating any torn tail.
    pub fn open(path: &Path) -> Result<RecoveredLog, StoreError> {
        Self::open_from(path, 0)
    }

    /// [`open`](Self::open) for a log whose snapshot holds every record
    /// numbered below `base_seq`: those are skipped (a compaction that
    /// crashed before its truncation leaves them), and appends continue
    /// at `base_seq` or after the last record, whichever is later.
    pub fn open_from(path: &Path, base_seq: u64) -> Result<RecoveredLog, StoreError> {
        let mut entries = Vec::new();
        let mut constraints = None;
        let mut next_seq = base_seq;
        let mut written = 0;
        let mut end: u64 = 0;
        let mut truncated_tail = false;
        if path.exists() {
            let mut reader = BufReader::new(File::open(path)?);
            loop {
                match read_record(&mut reader)? {
                    RecordRead::Record(payload) => {
                        end += 8 + payload.len() as u64;
                        let (seq, record): (u64, LogRecord) = decode(&payload, Wire::take)?;
                        if seq < base_seq {
                            continue;
                        }
                        let seqs = match record {
                            LogRecord::Batch { entries: batch } => {
                                let seqs = batch.len() as u64;
                                let entry = |(seq, (executed, command))| LogEntry {
                                    seq,
                                    command,
                                    executed,
                                };
                                entries.extend((seq..).zip(batch).map(entry));
                                seqs
                            }
                            LogRecord::Constraints { set } => {
                                constraints = Some(set);
                                1
                            }
                        };
                        next_seq = seq.saturating_add(seqs);
                        written += seqs;
                    }
                    RecordRead::Eof => break,
                    RecordRead::Corrupt { .. } => {
                        truncated_tail = true;
                        break;
                    }
                }
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        file.set_len(end)?;
        file.seek(SeekFrom::Start(end))?;
        Ok(RecoveredLog {
            log: CommandLog {
                file,
                end,
                next_seq,
                entries_written: written,
                syncs: 0,
                wedged: false,
                fault: None,
            },
            entries,
            constraints,
            truncated_tail,
        })
    }

    /// Appends a batch of one command, written to the OS but not synced.
    ///
    /// Returns the entry's sequence number.
    pub fn append(&mut self, command: &Command, executed: bool) -> Result<u64, StoreError> {
        let entries = vec![(executed, *command)];
        self.write(LogRecord::Batch { entries }, 1, false)
    }

    /// Appends a batch of `(executed, command)` entries as one record
    /// and syncs it: when this returns `Ok` the batch is durable, and on
    /// an error the log is as it was. Returns the sequence number of its
    /// first entry.
    pub fn commit_batch(&mut self, entries: Vec<(bool, Command)>) -> Result<u64, StoreError> {
        let seqs = entries.len() as u64;
        self.write(LogRecord::Batch { entries }, seqs, true)
    }

    /// Appends a constraint-set declaration and syncs it.
    ///
    /// Returns the record's sequence number.
    pub fn append_constraints(&mut self, constraints: &ConstraintSet) -> Result<u64, StoreError> {
        let set = constraints.clone();
        self.write(LogRecord::Constraints { set }, 1, true)
    }

    /// Writes one record taking `seqs` sequence numbers, and syncs it if
    /// asked; a failure truncates the file back to where it began.
    fn write(&mut self, record: LogRecord, seqs: u64, sync: bool) -> Result<u64, StoreError> {
        if self.wedged {
            return Err(StoreError::Io(std::io::Error::other(
                "a failed append could not be truncated away: reopen the store",
            )));
        }
        let seq = self.next_seq;
        let mut frame = Vec::new();
        write_record(&mut frame, &encode(|buf| (seq, record).put(buf)))?;
        if let Err(e) = self.write_frame(&frame, sync) {
            let end = self.end;
            self.wedged = self
                .file
                .set_len(end)
                .and_then(|()| self.file.seek(SeekFrom::Start(end)))
                .is_err();
            return Err(e);
        }
        self.end += frame.len() as u64;
        self.next_seq += seqs;
        self.entries_written += seqs;
        Ok(seq)
    }

    fn write_frame(&mut self, frame: &[u8], sync: bool) -> Result<(), StoreError> {
        let injected = |what| Err(StoreError::Io(std::io::Error::other(what)));
        match self.fault.take() {
            Some(Fault::Append) => {
                self.file.write_all(&frame[..frame.len() / 2])?;
                injected("injected append failure")
            }
            Some(Fault::Sync) => {
                self.file.write_all(frame)?;
                injected("injected sync failure")
            }
            None => {
                self.file.write_all(frame)?;
                if sync {
                    self.sync()?;
                }
                Ok(())
            }
        }
    }

    /// Forces the file contents to stable storage (`fsync`).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.syncs += 1;
        Ok(self.file.sync_data()?)
    }

    /// Makes the next append fail once with `fault`.
    pub(crate) fn inject(&mut self, fault: Fault) {
        self.fault = Some(fault);
    }

    /// `fsync`s issued since the log was opened.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The next sequence number an append would get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Commands and declarations appended since the snapshot (including
    /// recovered ones).
    pub fn len(&self) -> u64 {
        self.entries_written
    }

    /// `true` iff the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries_written == 0
    }

    /// Truncates the log to zero entries, durably, restarting sequence
    /// numbers at `base_seq` (used after writing a snapshot).
    pub fn reset(&mut self, base_seq: u64) -> Result<(), StoreError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()?;
        self.end = 0;
        self.next_seq = base_seq;
        self.entries_written = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use adminref_core::ids::{RoleId, UserId};
    use adminref_core::universe::Edge;

    fn cmd(u: u32, r: u32) -> Command {
        Command::grant(UserId(u), Edge::UserRole(UserId(u), RoleId(r)))
    }

    #[test]
    fn append_and_recover() {
        let dir = TempDir::new("log").unwrap();
        let path = dir.path().join("commands.log");
        {
            let mut rec = CommandLog::open(&path).unwrap();
            assert!(rec.entries.is_empty());
            rec.log.append(&cmd(1, 2), true).unwrap();
            rec.log.append(&cmd(3, 4), false).unwrap();
            rec.log.sync().unwrap();
        }
        let rec = CommandLog::open(&path).unwrap();
        assert_eq!(rec.entries.len(), 2);
        assert!(!rec.truncated_tail);
        assert_eq!(rec.entries[0].seq, 0);
        assert!(rec.entries[0].executed);
        assert_eq!(rec.entries[1].seq, 1);
        assert!(!rec.entries[1].executed);
        assert_eq!(rec.log.next_seq(), 2);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = TempDir::new("torn").unwrap();
        let path = dir.path().join("commands.log");
        {
            let mut rec = CommandLog::open(&path).unwrap();
            rec.log.append(&cmd(1, 2), true).unwrap();
            rec.log.append(&cmd(3, 4), true).unwrap();
            rec.log.sync().unwrap();
        }
        // Chop the last 3 bytes, simulating a crash mid-write.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let rec = CommandLog::open(&path).unwrap();
        assert_eq!(rec.entries.len(), 1, "only the intact prefix survives");
        assert!(rec.truncated_tail);
        // Appending after recovery continues the sequence.
        let mut log = rec.log;
        let seq = log.append(&cmd(5, 6), true).unwrap();
        assert_eq!(seq, 1);
        drop(log);
        let rec2 = CommandLog::open(&path).unwrap();
        assert_eq!(rec2.entries.len(), 2);
        assert!(!rec2.truncated_tail);
    }

    #[test]
    fn corrupted_middle_stops_recovery_at_prefix() {
        let dir = TempDir::new("flip").unwrap();
        let path = dir.path().join("commands.log");
        {
            let mut rec = CommandLog::open(&path).unwrap();
            for i in 0..5 {
                rec.log.append(&cmd(i, i + 1), true).unwrap();
            }
            rec.log.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let rec = CommandLog::open(&path).unwrap();
        assert!(rec.truncated_tail);
        assert!(rec.entries.len() < 5);
        // The surviving prefix is intact and correctly ordered.
        for (i, e) in rec.entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn constraint_records_interleave_and_last_wins() {
        let dir = TempDir::new("cons").unwrap();
        let path = dir.path().join("commands.log");
        let first = ConstraintSet {
            sod_pairs: vec![(RoleId(0), RoleId(1))],
            ..ConstraintSet::default()
        };
        let second = ConstraintSet {
            sod_pairs: vec![(RoleId(2), RoleId(3))],
            ..ConstraintSet::default()
        };
        {
            let mut rec = CommandLog::open(&path).unwrap();
            rec.log.append(&cmd(1, 2), true).unwrap();
            rec.log.append_constraints(&first).unwrap();
            rec.log.append(&cmd(3, 4), true).unwrap();
            rec.log.append_constraints(&second).unwrap();
            rec.log.sync().unwrap();
        }
        let rec = CommandLog::open(&path).unwrap();
        assert_eq!(rec.entries.len(), 2, "constraint records are not commands");
        assert_eq!(rec.entries[0].seq, 0);
        assert_eq!(rec.entries[1].seq, 2);
        assert_eq!(rec.constraints, Some(second), "last declaration wins");
        assert_eq!(rec.log.next_seq(), 4);
    }

    #[test]
    fn reset_restarts_sequences() {
        let dir = TempDir::new("reset").unwrap();
        let path = dir.path().join("commands.log");
        let mut rec = CommandLog::open(&path).unwrap();
        rec.log.append(&cmd(1, 2), true).unwrap();
        rec.log.reset(10).unwrap();
        assert!(rec.log.is_empty());
        let seq = rec.log.append(&cmd(3, 4), true).unwrap();
        assert_eq!(seq, 10);
        drop(rec);
        let rec2 = CommandLog::open(&path).unwrap();
        assert_eq!(rec2.entries.len(), 1);
        assert_eq!(rec2.entries[0].seq, 10);
    }
}
