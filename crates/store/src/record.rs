//! CRC-framed record I/O.
//!
//! Every record on disk is `[len: u32 LE][crc32: u32 LE][payload]`. Readers
//! stop at the first frame that is truncated or fails its checksum — the
//! classic write-ahead-log discipline: a torn tail loses at most the
//! records that were never acknowledged.

use std::io::{self, Read, Write};

use crate::crc::crc32;

/// Maximum accepted payload size (guards against reading garbage lengths
/// from a corrupted header).
pub const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// How far a payload buffer grows ahead of the bytes that have arrived:
/// a header announcing a large payload costs memory only as its bytes
/// come in, and a payload this size or smaller is one allocation.
const PAYLOAD_CHUNK: usize = 64 * 1024;

/// Writes one framed record.
pub fn write_record(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Result of reading one record.
#[derive(Debug, PartialEq, Eq)]
pub enum RecordRead {
    /// A complete, checksum-valid record.
    Record(Vec<u8>),
    /// Clean end of stream (no more bytes).
    Eof,
    /// A truncated or corrupted frame — recovery must stop here.
    Corrupt {
        /// Human-readable reason.
        reason: &'static str,
    },
}

/// Reads one framed record.
pub fn read_record(r: &mut impl Read) -> io::Result<RecordRead> {
    let mut header = [0u8; 8];
    match read_exact_or_eof(r, &mut header)? {
        Fill::Eof => return Ok(RecordRead::Eof),
        Fill::Partial => {
            return Ok(RecordRead::Corrupt {
                reason: "truncated header",
            })
        }
        Fill::Full => {}
    }
    let mut word = [0u8; 4];
    word.copy_from_slice(&header[0..4]);
    let len = u32::from_le_bytes(word);
    word.copy_from_slice(&header[4..8]);
    let crc = u32::from_le_bytes(word);
    if len > MAX_RECORD_LEN {
        return Ok(RecordRead::Corrupt {
            reason: "length exceeds maximum",
        });
    }
    // The fill's error is the early answer: a truncation or an I/O error.
    let payload = read_payload(len as usize, |chunk| match read_exact_or_eof(r, chunk) {
        Ok(Fill::Full) => Ok(()),
        Ok(_) => Err(Ok(RecordRead::Corrupt {
            reason: "truncated payload",
        })),
        Err(e) => Err(Err(e)),
    });
    let payload = match payload {
        Ok(payload) => payload,
        Err(early) => return early,
    };
    if crc32(&payload) != crc {
        return Ok(RecordRead::Corrupt {
            reason: "checksum mismatch",
        });
    }
    Ok(RecordRead::Record(payload))
}

/// How far [`read_exact_or_eof`] filled a buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fill {
    /// Filled completely.
    Full,
    /// End of stream after some bytes.
    Partial,
    /// End of stream before any byte.
    Eof,
}

/// Fills `buf` from `r`, retrying [`io::ErrorKind::Interrupted`] as std
/// documents it. Unlike `Read::read_exact`, tells a clean end of stream
/// (no bytes) from a truncated one (some bytes), which framing needs.
pub fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<Fill> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(Fill::Eof),
            Ok(0) => return Ok(Fill::Partial),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Full)
}

/// Reads a `len`-byte payload, handing `fill` one chunk of at most 64 KiB
/// at a time to fill completely; the first error `fill` returns ends the
/// read. A header announcing a large payload so costs memory only as its
/// bytes arrive.
pub fn read_payload<E>(
    len: usize,
    mut fill: impl FnMut(&mut [u8]) -> Result<(), E>,
) -> Result<Vec<u8>, E> {
    let mut payload = Vec::new();
    while payload.len() < len {
        let start = payload.len();
        payload.resize(start + (len - start).min(PAYLOAD_CHUNK), 0);
        fill(&mut payload[start..])?;
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip_multiple_records() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"alpha").unwrap();
        write_record(&mut buf, b"").unwrap();
        write_record(&mut buf, b"gamma-gamma").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_record(&mut r).unwrap(),
            RecordRead::Record(b"alpha".to_vec())
        );
        assert_eq!(read_record(&mut r).unwrap(), RecordRead::Record(Vec::new()));
        assert_eq!(
            read_record(&mut r).unwrap(),
            RecordRead::Record(b"gamma-gamma".to_vec())
        );
        assert_eq!(read_record(&mut r).unwrap(), RecordRead::Eof);
    }

    #[test]
    fn torn_header_detected() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"data").unwrap();
        buf.extend_from_slice(&[1, 2, 3]); // partial next header
        let mut r = Cursor::new(buf);
        assert!(matches!(
            read_record(&mut r).unwrap(),
            RecordRead::Record(_)
        ));
        assert!(matches!(
            read_record(&mut r).unwrap(),
            RecordRead::Corrupt {
                reason: "truncated header"
            }
        ));
    }

    #[test]
    fn torn_payload_detected() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"0123456789").unwrap();
        buf.truncate(buf.len() - 4);
        let mut r = Cursor::new(buf);
        assert!(matches!(
            read_record(&mut r).unwrap(),
            RecordRead::Corrupt {
                reason: "truncated payload"
            }
        ));
    }

    #[test]
    fn bit_flip_detected() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"sensitive").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let mut r = Cursor::new(buf);
        assert!(matches!(
            read_record(&mut r).unwrap(),
            RecordRead::Corrupt {
                reason: "checksum mismatch"
            }
        ));
    }

    /// Panics if any single `read` is handed a buffer over 1 MiB.
    struct SmallReads<R>(R);

    impl<R: Read> Read for SmallReads<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(
                buf.len() <= 1 << 20,
                "read into a {}-byte buffer",
                buf.len()
            );
            self.0.read(buf)
        }
    }

    #[test]
    fn announced_length_is_not_allocated_before_it_arrives() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAX_RECORD_LEN.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        let mut r = SmallReads(Cursor::new(buf));
        assert_eq!(
            read_record(&mut r).unwrap(),
            RecordRead::Corrupt {
                reason: "truncated payload"
            }
        );
    }

    /// Returns `Interrupted` before every read it serves.
    struct Interrupting<R> {
        inner: R,
        interrupt: bool,
    }

    impl<R: Read> Read for Interrupting<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.inner.read(buf)
        }
    }

    #[test]
    fn interrupted_reads_are_retried() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"alpha").unwrap();
        let mut r = Interrupting {
            inner: Cursor::new(buf),
            interrupt: false,
        };
        assert_eq!(
            read_record(&mut r).unwrap(),
            RecordRead::Record(b"alpha".to_vec())
        );
        assert_eq!(read_record(&mut r).unwrap(), RecordRead::Eof);
    }

    #[test]
    fn insane_length_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut r = Cursor::new(buf);
        assert!(matches!(
            read_record(&mut r).unwrap(),
            RecordRead::Corrupt {
                reason: "length exceeds maximum"
            }
        ));
    }
}
