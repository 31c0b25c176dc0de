//! Binary framing for WAL segments (DESIGN.md §14).
//!
//! A segment file is an 8-byte header followed by zero or more frames:
//!
//! ```text
//! header:  b"BAOW"  u16-LE version (=1)  u16-LE reserved (=0)
//! frame:   u32-LE payload_len  payload bytes  u32-LE crc32(payload)
//! ```
//!
//! The checksum trails the payload so a torn write (power cut mid-frame)
//! is indistinguishable from a short file only until the CRC check — a
//! complete-looking frame with a bad checksum is classified [`Corrupt`],
//! while a frame whose bytes simply run out is [`Incomplete`]. Recovery
//! treats both as the end of the valid prefix and truncates there;
//! neither is ever replayed.
//!
//! [`Corrupt`]: FrameDecode::Corrupt
//! [`Incomplete`]: FrameDecode::Incomplete

use bao_common::{BaoError, Result};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"BAOW";
/// Current segment format version.
pub const SEGMENT_VERSION: u16 = 1;
/// Total segment header length in bytes (magic + version + reserved).
pub const SEGMENT_HEADER_LEN: usize = 8;
/// Hard upper bound on a single frame's payload (256 MiB): anything
/// larger is treated as corruption of the length prefix, not a real
/// record, so a flipped high bit cannot make the scanner allocate wild.
pub const MAX_FRAME: usize = 1 << 28;
/// Fixed per-frame overhead: 4-byte length prefix + 4-byte CRC trailer.
pub const FRAME_OVERHEAD: usize = 8;

/// CRC32 (IEEE, polynomial 0xEDB88320) lookup table, built at compile
/// time so the checksum stays dependency-free.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32-IEEE of `bytes` (the zlib/gzip polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// FNV-1a 64-bit hash — used for config fingerprints in `RunHeader`
/// records (cheap, stable, in-tree).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Serialize the 8-byte segment header.
pub fn encode_segment_header() -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[..4].copy_from_slice(&SEGMENT_MAGIC);
    h[4..6].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h
}

/// Validate a segment header; `Err` on bad magic, unknown version, or a
/// file too short to hold a header at all.
pub fn decode_segment_header(bytes: &[u8]) -> Result<()> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(BaoError::Parse(format!(
            "wal segment too short for header: {} bytes",
            bytes.len()
        )));
    }
    if bytes[..4] != SEGMENT_MAGIC {
        return Err(BaoError::Parse("wal segment has bad magic".into()));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != SEGMENT_VERSION {
        return Err(BaoError::Parse(format!("unsupported wal segment version {version}")));
    }
    Ok(())
}

/// Append one frame (`[len][payload][crc]`) for `payload` onto `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Outcome of decoding one frame from the head of a byte slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameDecode {
    /// A whole, checksum-valid frame: its payload and the total bytes it
    /// occupied (length prefix + payload + CRC trailer).
    Complete { payload: Vec<u8>, consumed: usize },
    /// The bytes run out before the frame does — a torn tail write (or a
    /// clean end-of-log when zero bytes remain).
    Incomplete,
    /// A structurally complete frame whose checksum does not match, or a
    /// length prefix beyond [`MAX_FRAME`] — bit rot or a misframed tail.
    Corrupt { reason: String },
}

/// Decode the frame starting at `bytes[0]`. Never panics: every byte
/// pattern maps onto one of the three [`FrameDecode`] outcomes.
pub fn decode_frame(bytes: &[u8]) -> FrameDecode {
    if bytes.len() < 4 {
        return FrameDecode::Incomplete;
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if len > MAX_FRAME {
        return FrameDecode::Corrupt { reason: format!("frame length {len} exceeds MAX_FRAME") };
    }
    let total = FRAME_OVERHEAD + len;
    if bytes.len() < total {
        return FrameDecode::Incomplete;
    }
    let payload = &bytes[4..4 + len];
    let stored =
        u32::from_le_bytes([bytes[4 + len], bytes[5 + len], bytes[6 + len], bytes[7 + len]]);
    let actual = crc32(payload);
    if stored != actual {
        return FrameDecode::Corrupt {
            reason: format!(
                "frame checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            ),
        };
    }
    FrameDecode::Complete { payload: payload.to_vec(), consumed: total }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        encode_frame(b"hello wal", &mut buf);
        encode_frame(b"", &mut buf);
        match decode_frame(&buf) {
            FrameDecode::Complete { payload, consumed } => {
                assert_eq!(payload, b"hello wal");
                match decode_frame(&buf[consumed..]) {
                    FrameDecode::Complete { payload, consumed } => {
                        assert_eq!(payload, b"");
                        assert_eq!(consumed, FRAME_OVERHEAD);
                    }
                    other => panic!("second frame: {other:?}"),
                }
            }
            other => panic!("first frame: {other:?}"),
        }
    }

    #[test]
    fn truncated_length_prefix_is_incomplete() {
        let mut buf = Vec::new();
        encode_frame(b"payload", &mut buf);
        for cut in 0..4 {
            assert_eq!(decode_frame(&buf[..cut]), FrameDecode::Incomplete, "cut at {cut}");
        }
    }

    #[test]
    fn torn_payload_is_incomplete() {
        let mut buf = Vec::new();
        encode_frame(b"a longer payload body", &mut buf);
        for cut in 4..buf.len() {
            assert_eq!(decode_frame(&buf[..cut]), FrameDecode::Incomplete, "cut at {cut}");
        }
    }

    #[test]
    fn flipped_bit_is_corrupt() {
        let mut buf = Vec::new();
        encode_frame(b"checksummed", &mut buf);
        // Flip a bit in every payload byte position in turn.
        for pos in 4..buf.len() - 4 {
            let mut bad = buf.clone();
            bad[pos] ^= 0x40;
            match decode_frame(&bad) {
                FrameDecode::Corrupt { .. } => {}
                other => panic!("flip at {pos}: {other:?}"),
            }
        }
    }

    #[test]
    fn absurd_length_prefix_is_corrupt() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        match decode_frame(&buf) {
            FrameDecode::Corrupt { reason } => assert!(reason.contains("MAX_FRAME")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn segment_header_round_trip() {
        let h = encode_segment_header();
        decode_segment_header(&h).unwrap();
        assert!(decode_segment_header(&h[..6]).is_err());
        let mut bad = h;
        bad[0] = b'X';
        assert!(decode_segment_header(&bad).is_err());
        let mut v2 = h;
        v2[4] = 2;
        assert!(decode_segment_header(&v2).is_err());
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }
}
