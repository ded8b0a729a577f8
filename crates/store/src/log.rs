//! The append-only command log.
//!
//! Each record is a sequence number and a `LogRecord`: an
//! administrative command together with whether it was authorized when
//! first executed, or an admission [`ConstraintSet`] declaration (the
//! whole set, last-writer-wins, so recovery needs no merging). Records
//! are CRC-framed ([`crate::record`]); recovery replays the longest
//! valid prefix and truncates a torn tail.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

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

/// Append-only command log backed by one file.
#[derive(Debug)]
pub struct CommandLog {
    path: PathBuf,
    writer: BufWriter<File>,
    next_seq: u64,
    entries_written: u64,
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
    Command { executed: bool, command: Command },
    Constraints { set: ConstraintSet },
}

crate::wire_enum!(LogRecord: u8 as "log record" {
    0 => Command { executed, command },
    1 => Constraints { set },
});

impl CommandLog {
    /// Opens (or creates) the log at `path`, replaying the valid prefix
    /// and truncating any torn tail.
    pub fn open(path: &Path) -> Result<RecoveredLog, StoreError> {
        let mut entries = Vec::new();
        let mut constraints = None;
        let mut next_seq = 0;
        let mut records: u64 = 0;
        let mut valid_bytes: u64 = 0;
        let mut truncated_tail = false;
        if path.exists() {
            let file = File::open(path)?;
            let mut reader = BufReader::new(file);
            loop {
                match read_record(&mut reader)? {
                    RecordRead::Record(payload) => {
                        let (seq, record) = decode(&payload, Wire::take)?;
                        match record {
                            LogRecord::Command { executed, command } => entries.push(LogEntry {
                                seq,
                                command,
                                executed,
                            }),
                            LogRecord::Constraints { set } => constraints = Some(set),
                        }
                        next_seq = seq.saturating_add(1);
                        records += 1;
                        valid_bytes += 8 + payload.len() as u64;
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
        file.set_len(valid_bytes)?;
        file.seek(SeekFrom::Start(valid_bytes))?;
        Ok(RecoveredLog {
            log: CommandLog {
                path: path.to_path_buf(),
                writer: BufWriter::new(file),
                next_seq,
                entries_written: records,
            },
            entries,
            constraints,
            truncated_tail,
        })
    }

    /// Appends a command entry and flushes it to the OS.
    ///
    /// Returns the entry's sequence number.
    pub fn append(&mut self, command: &Command, executed: bool) -> Result<u64, StoreError> {
        self.append_record(LogRecord::Command {
            executed,
            command: *command,
        })
    }

    /// Appends a constraint-set declaration and flushes it to the OS.
    ///
    /// Returns the record's sequence number.
    pub fn append_constraints(&mut self, constraints: &ConstraintSet) -> Result<u64, StoreError> {
        self.append_record(LogRecord::Constraints {
            set: constraints.clone(),
        })
    }

    fn append_record(&mut self, record: LogRecord) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        write_record(&mut self.writer, &encode(|buf| (seq, record).put(buf)))?;
        self.writer.flush()?;
        self.next_seq += 1;
        self.entries_written += 1;
        Ok(seq)
    }

    /// Forces the file contents to stable storage (`fsync`).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    /// The next sequence number an append would get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of entries appended (including recovered ones).
    pub fn len(&self) -> u64 {
        self.entries_written
    }

    /// `true` iff the log holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries_written == 0
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Truncates the log to zero entries, restarting sequence numbers at
    /// `base_seq` (used after writing a snapshot).
    pub fn reset(&mut self, base_seq: u64) -> Result<(), StoreError> {
        self.writer.flush()?;
        let file = self.writer.get_mut();
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
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
