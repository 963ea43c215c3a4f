//! Binary persistence of indexes.
//!
//! Rebuilding the content and semantic indexes dominates system start-up at
//! lake scale (minutes at the paper's corpus size), so both support a compact
//! binary snapshot: build once, [`crate::InvertedIndex::to_bytes`] /
//! [`crate::HnswIndex::to_bytes`], and reload in milliseconds. The format is a
//! versioned little-endian encoding with no external schema.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use verifai_lake::InstanceId;

/// Magic prefix of every snapshot.
pub const MAGIC: &[u8; 4] = b"VFAI";
/// Current format version.
///
/// * Version 1 — no flags byte; vector payloads eagerly decoded.
/// * Version 2 — appends a flags byte to the header.
/// * Version 3 — the live-lake format: every snapshot carries a `u64`
///   generation immediately after the header; vector indexes carry
///   per-entry tombstone bytes and store their vector payload as one
///   contiguous `f32` slab (decoded in bulk straight into the index's row
///   chunks); HNSW additionally persists its edge distances.
///
/// * Version 4 — flat vector snapshots append the int8 quantization
///   sidecar (per-vector scales + the contiguous code array) behind
///   [`FLAG_QUANT_CODES`], so a reload serves the quantized two-phase
///   scan without a re-encode pass.
///
/// Version 1 through 3 snapshots are still decoded (migrated on load);
/// pre-3 generations are 0 and carry no tombstones, and pre-4 flat
/// snapshots re-quantize their vectors on load (quantization is a pure
/// function of the floats, so the rebuilt codes are bit-identical to
/// what an eager v4 writer would have produced).
pub const VERSION: u8 = 4;
/// Header flag: every stored vector is unit-normalized, so similarity is a
/// single fused dot. Vector snapshots without this flag are migrated by
/// normalizing on load — never silently mis-scored.
pub const FLAG_UNIT_NORM: u8 = 1;
/// Header flag: the flat snapshot body carries the int8 quantization
/// sidecar (scales + codes) after the f32 slab. Snapshots without it are
/// migrated by re-quantizing on load.
pub const FLAG_QUANT_CODES: u8 = 2;
/// All flag bits any decoder understands; unknown bits are a typed error.
const KNOWN_FLAGS: u8 = FLAG_UNIT_NORM | FLAG_QUANT_CODES;

/// Snapshot kind tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// An [`crate::InvertedIndex`].
    Inverted = 1,
    /// A [`crate::FlatIndex`].
    Flat = 2,
    /// An [`crate::HnswIndex`].
    Hnsw = 3,
    /// A [`crate::SegmentedInvertedIndex`] (v3+ only).
    Segmented = 4,
}

/// Errors decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer is shorter than the encoding requires.
    Truncated,
    /// The magic prefix is missing.
    BadMagic,
    /// The version byte is unknown.
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
    /// The header carries flag bits this decoder does not understand.
    BadFlags(u8),
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
                write!(f, "snapshot carries unknown header flags {bits:#04x}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Write the current-version snapshot header: magic, version, kind, flags.
pub(crate) fn put_header(buf: &mut BytesMut, kind: SnapshotKind, flags: u8) {
    put_header_versioned(buf, kind, flags, VERSION);
}

/// Write a snapshot header at an explicit `version` — the legacy encoders
/// (`to_bytes_v2`) use this to produce migration-test and cold-load-bench
/// fixtures in the older wire formats.
pub(crate) fn put_header_versioned(buf: &mut BytesMut, kind: SnapshotKind, flags: u8, version: u8) {
    buf.put_slice(MAGIC);
    buf.put_u8(version);
    buf.put_u8(kind as u8);
    if version >= 2 {
        buf.put_u8(flags);
    }
}

/// Check and consume the snapshot header, returning `(version, flags)`.
///
/// Accepts versions 1 through [`VERSION`]. Version-1 (pre-flags) headers
/// decode with flags `0`, so vector decoders see the unit-norm invariant as
/// *not* guaranteed and migrate by normalizing. Unknown flag bits are
/// rejected outright; decoders branch on the returned version to pick the
/// body format.
pub(crate) fn check_header(buf: &mut Bytes, kind: SnapshotKind) -> Result<(u8, u8), PersistError> {
    if buf.remaining() < 6 {
        return Err(PersistError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = buf.get_u8();
    if version == 0 || version > VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let got = buf.get_u8();
    if got != kind as u8 {
        return Err(PersistError::BadKind {
            expected: kind as u8,
            got,
        });
    }
    let flags = if version >= 2 { get_u8(buf)? } else { 0 };
    if flags & !KNOWN_FLAGS != 0 {
        return Err(PersistError::BadFlags(flags));
    }
    Ok((version, flags))
}

/// The kind tag of a snapshot without consuming it, so composite decoders
/// (the segmented index, the live-lake loader) can dispatch on what a blob
/// holds before handing it to the matching typed decoder.
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

    #[test]
    fn header_roundtrip_and_mismatch() {
        let mut buf = BytesMut::new();
        put_header(&mut buf, SnapshotKind::Inverted, FLAG_UNIT_NORM);
        let mut b = buf.clone().freeze();
        assert_eq!(
            check_header(&mut b, SnapshotKind::Inverted),
            Ok((VERSION, FLAG_UNIT_NORM))
        );
        let mut b = buf.freeze();
        assert_eq!(
            check_header(&mut b, SnapshotKind::Hnsw),
            Err(PersistError::BadKind {
                expected: 3,
                got: 1
            })
        );
    }

    #[test]
    fn version_one_headers_decode_with_zero_flags() {
        // A pre-invariant header: magic, version 1, kind — no flags byte.
        let mut b = Bytes::from_static(b"VFAI\x01\x02");
        assert_eq!(check_header(&mut b, SnapshotKind::Flat), Ok((1, 0)));
        assert_eq!(b.remaining(), 0, "v1 header consumes exactly six bytes");
    }

    #[test]
    fn unknown_flags_and_versions_rejected() {
        let mut b = Bytes::from_static(b"VFAI\x02\x02\x80");
        assert_eq!(
            check_header(&mut b, SnapshotKind::Flat),
            Err(PersistError::BadFlags(0x80))
        );
        let mut b = Bytes::from_static(b"VFAI\x05\x02\x00");
        assert_eq!(
            check_header(&mut b, SnapshotKind::Flat),
            Err(PersistError::BadVersion(5))
        );
        let mut b = Bytes::from_static(b"VFAI\x00\x02\x00");
        assert_eq!(
            check_header(&mut b, SnapshotKind::Flat),
            Err(PersistError::BadVersion(0))
        );
        // A v2 header truncated before its flags byte.
        let mut b = Bytes::from_static(b"VFAI\x02\x02");
        assert_eq!(
            check_header(&mut b, SnapshotKind::Flat),
            Err(PersistError::Truncated)
        );
    }

    #[test]
    fn bad_magic_and_truncation() {
        let mut b = Bytes::from_static(b"NOPE\x01\x01");
        assert_eq!(
            check_header(&mut b, SnapshotKind::Flat),
            Err(PersistError::BadMagic)
        );
        let mut b = Bytes::from_static(b"VF");
        assert_eq!(
            check_header(&mut b, SnapshotKind::Flat),
            Err(PersistError::Truncated)
        );
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
