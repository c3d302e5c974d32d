//! `T1` framing — the trace file's torn-tail discipline.
//!
//! Identical in shape to the journal's `J1` framing: each record is a
//! 29-byte header (`"T1 "`, 16 hex digits of the payload's FNV-1a 64
//! checksum, a space, 8 hex digits of payload length, `\n`) followed by
//! the payload and a trailing `\n`. A reader that hits a frame whose
//! header, length, trailer, or checksum does not hold stops there and
//! reports the remainder as dropped bytes — exactly what a crash
//! mid-append leaves behind.

/// Bytes in a frame header.
pub const FRAME_HEADER_LEN: usize = 29;

/// FNV-1a 64 over raw bytes — the frame checksum.
pub use govdns_model::fnv64;

/// Appends one framed payload to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &str) {
    let bytes = payload.as_bytes();
    out.extend_from_slice(format!("T1 {:016x} {:08x}\n", fnv64(bytes), bytes.len()).as_bytes());
    out.extend_from_slice(bytes);
    out.push(b'\n');
}

/// Reads the frame starting at `offset`; returns the payload and the
/// offset of the next frame, or `None` on a torn or corrupt frame.
pub fn read_frame(bytes: &[u8], offset: usize) -> Option<(&str, usize)> {
    let head = bytes.get(offset..offset + FRAME_HEADER_LEN)?;
    if &head[..3] != b"T1 " || head[19] != b' ' || head[28] != b'\n' {
        return None;
    }
    let sum = u64::from_str_radix(std::str::from_utf8(&head[3..19]).ok()?, 16).ok()?;
    let len = usize::from_str_radix(std::str::from_utf8(&head[20..28]).ok()?, 16).ok()?;
    let start = offset + FRAME_HEADER_LEN;
    let payload = bytes.get(start..start.checked_add(len)?)?;
    if bytes.get(start + len) != Some(&b'\n') {
        return None;
    }
    if fnv64(payload) != sum {
        return None;
    }
    Some((std::str::from_utf8(payload).ok()?, start + len + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"kind\":\"stage\"}");
        write_frame(&mut buf, "second");
        let (p1, next) = read_frame(&buf, 0).unwrap();
        assert_eq!(p1, "{\"kind\":\"stage\"}");
        let (p2, end) = read_frame(&buf, next).unwrap();
        assert_eq!(p2, "second");
        assert_eq!(end, buf.len());
    }

    #[test]
    fn torn_tail_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "complete record");
        let (_, next) = read_frame(&buf, 0).unwrap();
        // A record the crash cut off mid-write.
        buf.extend_from_slice(b"T1 0123456789abcdef 000000ff\n{\"kind\":\"dom");
        assert!(read_frame(&buf, next).is_none());
    }

    #[test]
    fn corrupt_checksum_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "payload");
        let flip = FRAME_HEADER_LEN + 2;
        buf[flip] ^= 0x01;
        assert!(read_frame(&buf, 0).is_none());
    }
}
