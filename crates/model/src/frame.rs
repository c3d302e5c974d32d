//! The workspace's one record framing: the torn-tail discipline behind
//! the write-ahead journal (tag `J1`) and the trace file (tag `T1`).
//!
//! Each record is a [`HEADER_LEN`]-byte header followed by the payload
//! and a trailing `\n`:
//!
//! ```text
//! <2-byte tag> <16-hex fnv64(payload)> <8-hex payload length>\n
//! <payload>\n
//! ```
//!
//! A reader that meets a frame whose tag, header, length, trailer or
//! checksum does not hold stops there: the rest is the torn tail a
//! crash mid-append leaves behind. [`read_frame`] never panics,
//! whatever bytes it is given.
//!
//! ```
//! use govdns_model::frame::{read_frame, write_frame};
//!
//! let mut file = Vec::new();
//! write_frame(&mut file, b"J1", "{\"kind\":\"header\"}");
//! let (payload, next) = read_frame(&file, 0, b"J1").unwrap();
//! assert_eq!((payload, next), ("{\"kind\":\"header\"}", file.len()));
//! // A frame is only ever read back under its own tag.
//! assert!(read_frame(&file, 0, b"T1").is_none());
//! ```

use std::io::Write as _;

use crate::fnv64;

/// Bytes in a frame header: tag, space, 16 hex digits, space, 8 hex
/// digits, newline.
pub const HEADER_LEN: usize = 29;

/// Appends one framed payload to `out`.
pub fn write_frame(out: &mut Vec<u8>, tag: &[u8; 2], payload: &str) {
    let bytes = payload.as_bytes();
    out.extend_from_slice(tag);
    // Writing into a `Vec` cannot fail.
    let _ = writeln!(out, " {:016x} {:08x}", fnv64(bytes), bytes.len());
    out.extend_from_slice(bytes);
    out.push(b'\n');
}

/// Reads the `tag` frame starting at `offset`; returns the payload and
/// the offset of the next frame, or `None` on a torn, corrupt or
/// differently tagged frame.
pub fn read_frame<'a>(bytes: &'a [u8], offset: usize, tag: &[u8; 2]) -> Option<(&'a str, usize)> {
    let start = offset.checked_add(HEADER_LEN)?;
    let head = bytes.get(offset..start)?;
    if head[..2] != tag[..] || head[2] != b' ' || head[19] != b' ' || head[28] != b'\n' {
        return None;
    }
    let sum = hex(&head[3..19])?;
    let len = usize::try_from(hex(&head[20..28])?).ok()?;
    let end = start.checked_add(len)?;
    let payload = bytes.get(start..end)?;
    if bytes.get(end) != Some(&b'\n') || fnv64(payload) != sum {
        return None;
    }
    Some((std::str::from_utf8(payload).ok()?, end + 1))
}

fn hex(digits: &[u8]) -> Option<u64> {
    u64::from_str_radix(std::str::from_utf8(digits).ok()?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TAGS: [&[u8; 2]; 2] = [b"J1", b"T1"];

    proptest! {
        #[test]
        fn frames_roundtrip_under_either_tag(
            which in 0usize..2,
            payloads in prop::collection::vec("[ -~\t\n]{0,40}", 0..6),
        ) {
            let tag = TAGS[which];
            let mut buf = Vec::new();
            for p in &payloads {
                write_frame(&mut buf, tag, p);
            }
            let mut offset = 0;
            for p in &payloads {
                let (got, next) = read_frame(&buf, offset, tag).unwrap();
                prop_assert_eq!(got, p.as_str());
                prop_assert_eq!(next - offset, HEADER_LEN + p.len() + 1);
                offset = next;
            }
            prop_assert_eq!(offset, buf.len());
            prop_assert!(read_frame(&buf, offset, tag).is_none());
        }
    }

    #[test]
    fn a_torn_tail_is_rejected() {
        for tag in TAGS {
            let mut intact = Vec::new();
            write_frame(&mut intact, tag, "complete record");
            let mut torn = Vec::new();
            write_frame(&mut torn, tag, "{\"kind\":\"domain\",\"index\":7}");
            // A crash cut the second record inside its header, inside
            // its payload, or just before its trailer.
            for cut in [10, HEADER_LEN + 3, torn.len() - 1] {
                let mut buf = intact.clone();
                buf.extend_from_slice(&torn[..cut]);
                assert_eq!(read_frame(&buf, 0, tag), Some(("complete record", intact.len())));
                assert!(read_frame(&buf, intact.len(), tag).is_none(), "{tag:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn a_flipped_checksum_is_rejected() {
        for tag in TAGS {
            let mut buf = Vec::new();
            write_frame(&mut buf, tag, "payload");
            buf[3] ^= 0x01;
            assert!(read_frame(&buf, 0, tag).is_none(), "{tag:?}");
        }
    }

    #[test]
    fn each_tag_refuses_the_other_tags_frames() {
        for (writer, reader) in [(b"J1", b"T1"), (b"T1", b"J1")] {
            let mut buf = Vec::new();
            write_frame(&mut buf, writer, "{\"kind\":\"header\"}");
            assert!(read_frame(&buf, 0, writer).is_some());
            assert!(read_frame(&buf, 0, reader).is_none(), "{reader:?} read a {writer:?} frame");
        }
    }

    #[test]
    fn hostile_offsets_and_lengths_never_panic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"J1", "x");
        assert!(read_frame(&buf, usize::MAX, b"J1").is_none());
        assert!(read_frame(&buf, buf.len() + 1, b"J1").is_none());
        // A header claiming the largest length the format can spell.
        let huge = b"J1 0000000000000000 ffffffff\nx\n";
        assert!(read_frame(huge, 0, b"J1").is_none());
    }
}
