//! Snapshot files: a universe + policy + base sequence number +
//! constraint set in one CRC-framed record, written atomically (write to
//! a temp file, rename). The same record, minus the file, is the state
//! blob a replication bootstrap carries.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use adminref_core::admission::ConstraintSet;
use adminref_core::policy::Policy;
use adminref_core::universe::Universe;

use crate::codec::{decode, encode, EdgeSets, Wire};
use crate::log::StoreError;
use crate::record::{read_record, write_record, RecordRead};

/// Magic bytes identifying a snapshot file. `ADMREFS2` appended the
/// admission constraint section; `ADMREFS1` files are refused cleanly.
const MAGIC: &[u8; 8] = b"ADMREFS2";

/// A loaded snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// The universe at snapshot time.
    pub universe: Universe,
    /// The policy at snapshot time.
    pub policy: Policy,
    /// Sequence number the log restarts at after this snapshot.
    pub base_seq: u64,
    /// The admission constraint set declared at snapshot time.
    pub constraints: ConstraintSet,
}

/// The one place the snapshot record is written: a CRC frame around the
/// magic, then `base_seq, universe, policy, constraints`.
fn write_state(
    writer: &mut impl Write,
    universe: &Universe,
    policy: &Policy,
    base_seq: u64,
    constraints: &ConstraintSet,
) -> std::io::Result<()> {
    let payload = encode(|buf| {
        buf.extend_from_slice(MAGIC);
        base_seq.put(buf);
        universe.put(buf);
        EdgeSets::of(policy).put(buf);
        constraints.put(buf);
    });
    write_record(writer, &payload)
}

/// The one place the snapshot record is read: the CRC frame, the magic,
/// then the fields in [`write_state`]'s order, and nothing after them.
/// A truncated or bit-flipped record is a typed refusal, never a
/// partial state.
fn read_state(reader: &mut impl Read) -> Result<Snapshot, StoreError> {
    let payload = match read_record(reader)? {
        RecordRead::Record(p) => p,
        RecordRead::Eof => return Err(StoreError::BadHeader("empty snapshot")),
        RecordRead::Corrupt { reason } => return Err(StoreError::BadHeader(reason)),
    };
    let Some(fields) = payload.strip_prefix(MAGIC) else {
        return Err(StoreError::BadHeader("bad magic"));
    };
    Ok(decode(fields, |buf| {
        let base_seq = Wire::take(buf)?;
        let universe = Universe::take(buf)?;
        let policy = EdgeSets::take(buf)?.bind(&universe)?;
        Ok(Snapshot {
            constraints: Wire::take(buf)?,
            universe,
            policy,
            base_seq,
        })
    })?)
}

/// Writes a snapshot atomically and durably: temp file, rename, then an
/// `fsync` of the directory, so the rename survives a crash before
/// anything that relies on it (a compaction's log truncation) runs.
pub fn write_snapshot(
    path: &Path,
    universe: &Universe,
    policy: &Policy,
    base_seq: u64,
    constraints: &ConstraintSet,
) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    {
        let mut writer = BufWriter::new(File::create(&tmp)?);
        write_state(&mut writer, universe, policy, base_seq, constraints)?;
        writer.flush()?;
        writer.get_ref().sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(())
}

/// Encodes a `(universe, policy, constraints)` state as one
/// self-contained, CRC-framed byte blob — the same record
/// [`write_snapshot`] puts on disk, minus the file. Replication uses
/// this as the bootstrap payload a primary ships to a fresh or lagging
/// replica; carrying the constraint set means a promoted replica keeps
/// enforcing the same admission gate.
pub fn encode_state(universe: &Universe, policy: &Policy, constraints: &ConstraintSet) -> Vec<u8> {
    let mut framed = Vec::new();
    // Writing a record to an in-memory Vec cannot fail.
    let _ = write_state(&mut framed, universe, policy, 0, constraints);
    framed
}

/// Decodes a blob produced by [`encode_state`], verifying the CRC frame
/// and magic.
pub fn decode_state(mut bytes: &[u8]) -> Result<(Universe, Policy, ConstraintSet), StoreError> {
    let state = read_state(&mut bytes)?;
    Ok((state.universe, state.policy, state.constraints))
}

/// Loads a snapshot written by [`write_snapshot`].
pub fn load_snapshot(path: &Path) -> Result<Snapshot, StoreError> {
    read_state(&mut BufReader::new(File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use adminref_core::policy::PolicyBuilder;

    fn sample() -> (Universe, Policy) {
        let mut b = PolicyBuilder::new()
            .assign("diana", "nurse")
            .inherit("staff", "nurse")
            .permit("nurse", "read", "t1");
        let (diana, staff) = {
            let u = b.universe_mut();
            (u.find_user("diana").unwrap(), u.find_role("staff").unwrap())
        };
        let g = b.universe_mut().grant_user_role(diana, staff);
        b = b.assign_priv("staff", g);
        b.finish()
    }

    #[test]
    fn snapshot_round_trip() {
        let dir = TempDir::new("snap").unwrap();
        let path = dir.path().join("policy.snap");
        let (uni, policy) = sample();
        let constraints = ConstraintSet {
            sod_pairs: vec![(adminref_core::ids::RoleId(0), adminref_core::ids::RoleId(1))],
            ..ConstraintSet::default()
        };
        write_snapshot(&path, &uni, &policy, 42, &constraints).unwrap();
        let snap = load_snapshot(&path).unwrap();
        assert_eq!(snap.base_seq, 42);
        assert_eq!(snap.constraints, constraints);
        assert_eq!(snap.universe.user_count(), uni.user_count());
        assert_eq!(snap.policy.edge_count(), policy.edge_count());
        let edges1: Vec<_> = policy.edges().collect();
        let edges2: Vec<_> = snap.policy.edges().collect();
        assert_eq!(edges1, edges2);
    }

    #[test]
    fn state_blob_round_trip() {
        let (uni, policy) = sample();
        let blob = encode_state(&uni, &policy, &ConstraintSet::default());
        let (uni2, policy2, constraints) = decode_state(&blob).unwrap();
        assert!(constraints.is_empty());
        assert_eq!(uni2.user_count(), uni.user_count());
        let edges1: Vec<_> = policy.edges().collect();
        let edges2: Vec<_> = policy2.edges().collect();
        assert_eq!(edges1, edges2);
    }

    #[test]
    fn corrupted_state_blob_rejected() {
        let (uni, policy) = sample();
        let mut blob = encode_state(&uni, &policy, &ConstraintSet::default());
        let mid = blob.len() - 2;
        blob[mid] ^= 0x10;
        assert!(decode_state(&blob).is_err());
        assert!(decode_state(&blob[..blob.len() / 2]).is_err());
        assert!(decode_state(&[]).is_err());
    }

    #[test]
    fn corrupted_snapshot_rejected() {
        let dir = TempDir::new("snapbad").unwrap();
        let path = dir.path().join("policy.snap");
        let (uni, policy) = sample();
        write_snapshot(&path, &uni, &policy, 0, &ConstraintSet::default()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(StoreError::BadHeader("checksum mismatch"))
        ));
    }

    #[test]
    fn wrong_magic_rejected() {
        let dir = TempDir::new("snapmagic").unwrap();
        let path = dir.path().join("policy.snap");
        let mut payload = Vec::new();
        payload.extend_from_slice(b"NOTMAGIC");
        let mut file = std::io::BufWriter::new(File::create(&path).unwrap());
        write_record(&mut file, &payload).unwrap();
        use std::io::Write as _;
        file.flush().unwrap();
        drop(file);
        assert!(matches!(
            load_snapshot(&path),
            Err(StoreError::BadHeader("bad magic"))
        ));
    }

    #[test]
    fn missing_file_is_io_error() {
        let dir = TempDir::new("snapnone").unwrap();
        assert!(matches!(
            load_snapshot(&dir.path().join("nope.snap")),
            Err(StoreError::Io(_))
        ));
    }

    #[test]
    fn no_tmp_file_left_behind() {
        let dir = TempDir::new("snaptmp").unwrap();
        let path = dir.path().join("policy.snap");
        let (uni, policy) = sample();
        write_snapshot(&path, &uni, &policy, 0, &ConstraintSet::default()).unwrap();
        assert!(!path.with_extension("tmp").exists());
    }
}
