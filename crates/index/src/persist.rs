//! Binary persistence of indexes.
//!
//! Rebuilding the content and semantic indexes dominates system start-up at
//! lake scale (minutes at the paper's corpus size), so each index —
//! [`crate::SegmentedInvertedIndex`], [`crate::FlatIndex`] and
//! [`crate::HnswIndex`] — has one `to_bytes` and one `from_bytes`: build
//! once, reload in milliseconds. The format is a little-endian encoding with
//! no external schema, at one version, [`VERSION`]. A reader accepts exactly
//! that version and exactly the flags byte its own writer writes, so an
//! older snapshot is [`PersistError::BadVersion`], never migrated. Readers
//! bound every count by the bytes left before sizing anything from it, check
//! every ordinal against what it indexes, and reject bytes left over after
//! the body: a corrupt snapshot is a typed error, never a panic — at load or
//! at the first search.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use verifai_lake::InstanceId;

/// Magic prefix of every snapshot.
pub const MAGIC: &[u8; 4] = b"VFAI";
/// The snapshot format version, and the only one a reader accepts.
pub const VERSION: u8 = 4;
/// Header flag: every stored vector is unit-normalized, so similarity is a
/// single fused dot. The vector readers check every row against it.
pub const FLAG_UNIT_NORM: u8 = 1;

/// Snapshot kind tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// One segment of a [`crate::SegmentedInvertedIndex`], nested in that
    /// index's snapshot.
    Inverted = 1,
    /// A [`crate::FlatIndex`].
    Flat = 2,
    /// An [`crate::HnswIndex`].
    Hnsw = 3,
    /// A [`crate::SegmentedInvertedIndex`].
    Segmented = 4,
}

/// Errors decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer is shorter than the encoding requires.
    Truncated,
    /// The magic prefix is missing.
    BadMagic,
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// The kind tag does not match the requested index type.
    BadKind {
        /// Kind expected by the decoder.
        expected: u8,
        /// Kind found in the snapshot.
        got: u8,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// An enum tag is out of range.
    BadTag(u8),
    /// The header's flags byte is not the one this kind's writer writes.
    BadFlags(u8),
    /// The body breaks an invariant its writer guarantees.
    Corrupt(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "snapshot truncated"),
            PersistError::BadMagic => write!(f, "not a VerifAI index snapshot"),
            PersistError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            PersistError::BadKind { expected, got } => {
                write!(f, "snapshot kind {got} does not match expected {expected}")
            }
            PersistError::BadUtf8 => write!(f, "snapshot contains invalid UTF-8"),
            PersistError::BadTag(t) => write!(f, "snapshot contains invalid tag {t}"),
            PersistError::BadFlags(bits) => {
                write!(f, "snapshot carries unexpected header flags {bits:#04x}")
            }
            PersistError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Write the snapshot header: magic, version, kind, flags.
pub(crate) fn put_header(buf: &mut BytesMut, kind: SnapshotKind, flags: u8) {
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(kind as u8);
    buf.put_u8(flags);
}

/// Check and consume the snapshot header: the magic, exactly [`VERSION`],
/// `kind`, and exactly `flags` — the byte the kind's writer writes, so a
/// flag missing or a flag added is [`PersistError::BadFlags`].
pub(crate) fn check_header(
    buf: &mut Bytes,
    kind: SnapshotKind,
    flags: u8,
) -> Result<(), PersistError> {
    if buf.remaining() < 6 {
        return Err(PersistError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let got = buf.get_u8();
    if got != kind as u8 {
        return Err(PersistError::BadKind {
            expected: kind as u8,
            got,
        });
    }
    match get_u8(buf)? {
        found if found == flags => Ok(()),
        found => Err(PersistError::BadFlags(found)),
    }
}

/// Check that a body ended where its writer stopped. Bytes left over mean
/// a count or a length was corrupted into one that still decodes.
pub(crate) fn finish(buf: &Bytes) -> Result<(), PersistError> {
    if buf.remaining() > 0 {
        return Err(PersistError::Corrupt("bytes after the end of the body"));
    }
    Ok(())
}

/// The kind tag of a snapshot without consuming it, so composite decoders
/// (the live-lake loader) can dispatch on what a blob holds before handing
/// it to the matching typed decoder.
pub fn peek_kind(buf: &[u8]) -> Result<u8, PersistError> {
    if buf.len() < 6 {
        return Err(PersistError::Truncated);
    }
    if &buf[..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    Ok(buf[5])
}

/// Write `bytes` to `path` crash-safely: the payload goes to a sibling
/// temporary file which is fsynced and atomically renamed over the target,
/// so a crash mid-write leaves either the old snapshot or the new one,
/// never a torn file.
pub fn save_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Encode a string as `u32 length + UTF-8 bytes`.
pub(crate) fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Decode a string.
pub(crate) fn get_str(buf: &mut Bytes) -> Result<String, PersistError> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(PersistError::Truncated);
    }
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| PersistError::BadUtf8)
}

/// Decode an entry count, bounded by what the rest of the buffer could
/// hold at `min_entry_bytes` per entry, so a corrupt count cannot size an
/// allocation.
pub(crate) fn get_count(buf: &mut Bytes, min_entry_bytes: usize) -> Result<usize, PersistError> {
    let n = get_u32(buf)? as usize;
    if n > buf.remaining() / min_entry_bytes {
        return Err(PersistError::Truncated);
    }
    Ok(n)
}

/// Decode a little-endian u32 with bounds checking.
pub(crate) fn get_u32(buf: &mut Bytes) -> Result<u32, PersistError> {
    if buf.remaining() < 4 {
        return Err(PersistError::Truncated);
    }
    Ok(buf.get_u32_le())
}

/// Decode a little-endian u64 with bounds checking.
pub(crate) fn get_u64(buf: &mut Bytes) -> Result<u64, PersistError> {
    if buf.remaining() < 8 {
        return Err(PersistError::Truncated);
    }
    Ok(buf.get_u64_le())
}

/// Decode a little-endian f64 with bounds checking.
pub(crate) fn get_f64(buf: &mut Bytes) -> Result<f64, PersistError> {
    if buf.remaining() < 8 {
        return Err(PersistError::Truncated);
    }
    Ok(buf.get_f64_le())
}

/// Decode a single byte with bounds checking.
pub(crate) fn get_u8(buf: &mut Bytes) -> Result<u8, PersistError> {
    if buf.remaining() < 1 {
        return Err(PersistError::Truncated);
    }
    Ok(buf.get_u8())
}

/// Encode an [`InstanceId`] as kind tag + raw id.
pub(crate) fn put_instance_id(buf: &mut BytesMut, id: InstanceId) {
    let tag = match id {
        InstanceId::Tuple(_) => 0u8,
        InstanceId::Table(_) => 1,
        InstanceId::Text(_) => 2,
        InstanceId::Kg(_) => 3,
    };
    buf.put_u8(tag);
    buf.put_u64_le(id.raw());
}

/// Decode an [`InstanceId`].
pub(crate) fn get_instance_id(buf: &mut Bytes) -> Result<InstanceId, PersistError> {
    let tag = get_u8(buf)?;
    let raw = get_u64(buf)?;
    Ok(match tag {
        0 => InstanceId::Tuple(raw),
        1 => InstanceId::Table(raw),
        2 => InstanceId::Text(raw),
        3 => InstanceId::Kg(raw),
        other => return Err(PersistError::BadTag(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAT_FLAGS: u8 = FLAG_UNIT_NORM;

    fn header(version: u8, kind: u8, flags: u8) -> Bytes {
        Bytes::from(vec![b'V', b'F', b'A', b'I', version, kind, flags])
    }

    #[test]
    fn header_roundtrip_and_mismatch() {
        let mut buf = BytesMut::new();
        put_header(&mut buf, SnapshotKind::Inverted, FLAG_UNIT_NORM);
        let mut b = buf.clone().freeze();
        assert_eq!(
            check_header(&mut b, SnapshotKind::Inverted, FLAG_UNIT_NORM),
            Ok(())
        );
        assert_eq!(b.remaining(), 0, "a header is seven bytes");
        let mut b = buf.freeze();
        assert_eq!(
            check_header(&mut b, SnapshotKind::Hnsw, FLAG_UNIT_NORM),
            Err(PersistError::BadKind {
                expected: 3,
                got: 1
            })
        );
    }

    #[test]
    fn version_one_headers_decode_with_zero_flags() {
        // A version-1 header: magic, version 1, kind — no flags byte. It is
        // an older version, rejected before a flags byte is looked for.
        let mut b = Bytes::from_static(b"VFAI\x01\x02");
        assert_eq!(
            check_header(&mut b, SnapshotKind::Flat, FLAT_FLAGS),
            Err(PersistError::BadVersion(1))
        );
        // Zero flags under the current version are not read as a v1 header
        // either: the flat writer's byte is not zero.
        assert_eq!(
            check_header(&mut header(VERSION, 2, 0), SnapshotKind::Flat, FLAT_FLAGS),
            Err(PersistError::BadFlags(0))
        );
    }

    #[test]
    fn unknown_flags_and_versions_rejected() {
        // The flat writer sets the unit flag alone: none, a foreign bit, or
        // the unit flag with a foreign bit added is not its snapshot.
        for flags in [0, 2, FLAT_FLAGS | 2, FLAT_FLAGS | 0x80] {
            assert_eq!(
                check_header(
                    &mut header(VERSION, 2, flags),
                    SnapshotKind::Flat,
                    FLAT_FLAGS
                ),
                Err(PersistError::BadFlags(flags))
            );
        }
        // Every version but the current one, the older ones included.
        for version in [0, 1, 2, 3, 5, u8::MAX] {
            assert_eq!(
                check_header(
                    &mut header(version, 2, FLAT_FLAGS),
                    SnapshotKind::Flat,
                    FLAT_FLAGS
                ),
                Err(PersistError::BadVersion(version))
            );
        }
        // A header truncated before its flags byte.
        let mut b = Bytes::from_static(b"VFAI\x04\x02");
        assert_eq!(
            check_header(&mut b, SnapshotKind::Flat, FLAT_FLAGS),
            Err(PersistError::Truncated)
        );
    }

    #[test]
    fn bad_magic_and_truncation() {
        let mut b = Bytes::from_static(b"NOPE\x01\x01");
        assert_eq!(
            check_header(&mut b, SnapshotKind::Flat, FLAT_FLAGS),
            Err(PersistError::BadMagic)
        );
        let mut b = Bytes::from_static(b"VF");
        assert_eq!(
            check_header(&mut b, SnapshotKind::Flat, FLAT_FLAGS),
            Err(PersistError::Truncated)
        );
    }

    #[test]
    fn counts_are_bounded_and_bodies_must_end() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        buf.put_u64_le(0);
        let mut b = buf.clone().freeze();
        assert_eq!(get_count(&mut b, 4), Ok(2));
        let mut b = buf.freeze();
        assert_eq!(get_count(&mut b, 5), Err(PersistError::Truncated));
        assert!(matches!(finish(&b), Err(PersistError::Corrupt(_))));
        assert_eq!(get_u64(&mut b), Ok(0));
        assert_eq!(finish(&b), Ok(()));
    }

    #[test]
    fn string_and_id_roundtrip() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "incumbent");
        put_instance_id(&mut buf, InstanceId::Kg(42));
        let mut b = buf.freeze();
        assert_eq!(get_str(&mut b).unwrap(), "incumbent");
        assert_eq!(get_instance_id(&mut b).unwrap(), InstanceId::Kg(42));
        assert_eq!(get_u8(&mut b), Err(PersistError::Truncated));
    }

    #[test]
    fn invalid_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(9);
        buf.put_u64_le(1);
        let mut b = buf.freeze();
        assert_eq!(get_instance_id(&mut b), Err(PersistError::BadTag(9)));
    }
}
