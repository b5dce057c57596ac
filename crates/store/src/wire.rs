//! Little-endian primitives for section payloads, plus the length-prefixed
//! frame codec the serving fleet speaks over TCP.
//!
//! Sections hold structured data (configs, bin edges, tensor blobs); this
//! module gives both sides a shared, bounds-checked encoding so a flipped
//! byte inside a payload surfaces as a [`StoreError`] during decode, never
//! as a panic or an out-of-bounds slice.
//!
//! [`Frame`] extends the same integrity story to a byte *stream*: every
//! frame is magic-tagged, length-prefixed, capped, and CRC-checked, so a
//! truncated, corrupt, or oversized frame read off a socket surfaces as a
//! typed [`StoreError`] — never a panic, never a pathological allocation,
//! and never silently-wrong bytes handed to the layer above.

use crate::{Crc32, Result, StoreError};
use std::io::{Read, Write};

/// Append one raw byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a `u32`, little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u128`, little-endian.
pub fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern, little-endian.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a bool as one byte (0 or 1).
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

/// Length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Length-prefixed raw bytes.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Length-prefixed f32 buffer, element-wise little-endian.
///
/// On little-endian targets this is a straight memcpy of the buffer's byte
/// view; on big-endian targets elements are swapped individually, so the
/// on-disk format is identical everywhere.
pub fn put_f32_slice(buf: &mut Vec<u8>, values: &[f32]) {
    put_u64(buf, values.len() as u64);
    #[cfg(target_endian = "little")]
    {
        let bytes: &[u8] = unsafe {
            // f32 has no padding or invalid bit patterns when viewed as bytes.
            std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), values.len() * 4)
        };
        buf.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decode little-endian f32s from `bytes` into `dst`, element by element
/// while both last (a decoder checks the lengths first). On little-endian
/// targets the loop compiles to a plain copy.
pub fn f32s_from_le(bytes: &[u8], dst: &mut [f32]) {
    for (d, chunk) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
        *d = f32::from_le_bytes(chunk.try_into().expect("chunked by 4"));
    }
}

/// Bounds-checked reader over a payload slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.remaining() == 0
    }

    /// Error unless the payload was consumed exactly.
    pub fn expect_end(&self, context: &str) -> Result<()> {
        if self.is_at_end() {
            Ok(())
        } else {
            Err(StoreError::Corrupt(format!(
                "{context}: {} unexpected trailing bytes",
                self.remaining()
            )))
        }
    }

    /// Read exactly `len` raw bytes, or [`StoreError::Truncated`].
    pub fn get_bytes(&mut self, len: usize, what: &'static str) -> Result<&'a [u8]> {
        if len > self.remaining() {
            return Err(StoreError::Truncated(what));
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Read exactly `N` bytes into an array.
    pub fn get_array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N]> {
        Ok(self.get_bytes(N, what)?.try_into().expect("length checked"))
    }

    /// Read one raw byte.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8> {
        Ok(self.get_array::<1>(what)?[0])
    }

    /// Read a bool byte; anything other than 0/1 is [`StoreError::Corrupt`].
    pub fn get_bool(&mut self, what: &'static str) -> Result<bool> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(StoreError::Corrupt(format!(
                "{what}: invalid bool byte {v}"
            ))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.get_array::<4>(what)?))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.get_array::<8>(what)?))
    }

    /// Read a little-endian `u128`.
    pub fn get_u128(&mut self, what: &'static str) -> Result<u128> {
        Ok(u128::from_le_bytes(self.get_array::<16>(what)?))
    }

    /// Read a little-endian IEEE-754 `f64`.
    pub fn get_f64(&mut self, what: &'static str) -> Result<f64> {
        Ok(f64::from_le_bytes(self.get_array::<8>(what)?))
    }

    /// Read a `u64` and convert to `usize`, erroring on overflow.
    pub fn get_usize(&mut self, what: &'static str) -> Result<usize> {
        let v = self.get_u64(what)?;
        usize::try_from(v)
            .map_err(|_| StoreError::Corrupt(format!("{what}: value {v} overflows usize")))
    }

    /// Length-prefixed UTF-8 string (see [`put_str`]).
    pub fn get_str(&mut self, what: &'static str) -> Result<&'a str> {
        let len = self.get_u32(what)? as usize;
        let bytes = self.get_bytes(len, what)?;
        std::str::from_utf8(bytes)
            .map_err(|_| StoreError::Corrupt(format!("{what}: invalid UTF-8")))
    }

    /// Length-prefixed f32 buffer (see [`put_f32_slice`]).
    pub fn get_f32_vec(&mut self, what: &'static str) -> Result<Vec<f32>> {
        let bytes = self.get_f32_bytes(what)?;
        let mut out = vec![0.0; bytes.len() / 4];
        f32s_from_le(bytes, &mut out);
        Ok(out)
    }

    /// The little-endian bytes of a length-prefixed f32 buffer (see
    /// [`put_f32_slice`]), borrowed: a decoder that already owns the
    /// destination copies them once with [`f32s_from_le`].
    pub fn get_f32_bytes(&mut self, what: &'static str) -> Result<&'a [u8]> {
        let len = self.get_usize(what)?;
        let byte_len = len
            .checked_mul(4)
            .ok_or_else(|| StoreError::Corrupt(format!("{what}: length {len} overflows")))?;
        self.get_bytes(byte_len, what)
    }

    /// Length-prefixed raw bytes (see [`put_bytes`]).
    pub fn get_byte_vec(&mut self, what: &'static str) -> Result<&'a [u8]> {
        let len = self.get_usize(what)?;
        self.get_bytes(len, what)
    }
}

/// Frame magic: identifies one fleet wire frame. Distinct from the
/// checkpoint magic so a stray checkpoint byte-stream (or HTTP request)
/// aimed at a fleet port fails fast with a clear error.
pub const FRAME_MAGIC: [u8; 4] = *b"PFR1";

/// Bytes of frame header preceding the payload:
/// magic (4) + kind (1) + id (8) + payload length (4) + CRC32 (4).
pub const FRAME_HEADER_LEN: usize = 21;

/// Default cap on a single frame's payload. Large enough for a full
/// weight-checkpoint hot-swap frame, small enough that a corrupt length
/// field cannot drive a pathological allocation.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// One length-prefixed, CRC-checked wire frame.
///
/// The layout on the wire (all integers little-endian):
///
/// ```text
/// offset  size  field
/// ------  ----  --------------------------------------
///      0     4  magic "PFR1"
///      4     1  kind (application-defined message type)
///      5     8  id (request correlation tag)
///     13     4  payload length (u32)
///     17     4  CRC32 of kind + id + payload
///     21     n  payload bytes
/// ```
///
/// The id travels with every frame so responses can be matched to
/// requests on a pipelined connection (many frames in flight at once,
/// answered out of order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Application-defined message type.
    pub kind: u8,
    /// Request correlation id (echoed by responses).
    pub id: u64,
    /// Message payload, encoded with this module's primitives.
    pub payload: Vec<u8>,
}

fn frame_crc(kind: u8, id: u64, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(&id.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

/// Encode one frame into a fresh buffer (header + payload).
pub fn encode_frame(kind: u8, id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(kind);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_crc(kind, id, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Write one frame to `w`. Does not flush; callers batching several
/// frames onto a `BufWriter` flush once at the end.
pub fn write_frame(w: &mut impl Write, kind: u8, id: u64, payload: &[u8]) -> Result<()> {
    w.write_all(&encode_frame(kind, id, payload))?;
    Ok(())
}

/// Read exactly `buf.len()` bytes, mapping a mid-read EOF to
/// [`StoreError::Truncated`]. Returns `Ok(false)` when the stream is at a
/// clean EOF *before the first byte* and `eof_ok` allows it.
fn read_exact_or_eof(
    r: &mut impl Read,
    buf: &mut [u8],
    eof_ok: bool,
    what: &'static str,
) -> Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && eof_ok {
                    return Ok(false);
                }
                return Err(StoreError::Truncated(what));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(StoreError::Io(e)),
        }
    }
    Ok(true)
}

/// Read one frame from `r`, enforcing `max_payload` and the CRC.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer closed
/// an idle connection). Every malformed shape is a typed error:
///
/// * stream ends mid-header or mid-payload → [`StoreError::Truncated`];
/// * wrong magic → [`StoreError::Corrupt`];
/// * declared payload length over `max_payload` →
///   [`StoreError::FrameTooLarge`] (raised *before* any allocation);
/// * CRC mismatch → [`StoreError::ChecksumMismatch`].
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<Option<Frame>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    if !read_exact_or_eof(r, &mut header, true, "frame header")? {
        return Ok(None);
    }
    if header[..4] != FRAME_MAGIC {
        return Err(StoreError::Corrupt(format!(
            "bad frame magic {:02x}{:02x}{:02x}{:02x}",
            header[0], header[1], header[2], header[3]
        )));
    }
    let kind = header[4];
    let id = u64::from_le_bytes(header[5..13].try_into().expect("sliced to 8"));
    let len = u32::from_le_bytes(header[13..17].try_into().expect("sliced to 4")) as usize;
    let crc = u32::from_le_bytes(header[17..21].try_into().expect("sliced to 4"));
    if len > max_payload {
        return Err(StoreError::FrameTooLarge {
            declared: len as u64,
            cap: max_payload as u64,
        });
    }
    let mut payload = vec![0u8; len];
    read_exact_or_eof(r, &mut payload, false, "frame payload")?;
    if frame_crc(kind, id, &payload) != crc {
        return Err(StoreError::ChecksumMismatch {
            section: format!("frame kind {kind} id {id}"),
        });
    }
    Ok(Some(Frame { kind, id, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_bool(&mut buf, true);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_u128(&mut buf, u128::MAX / 7);
        put_f64(&mut buf, -1.25e300);
        put_str(&mut buf, "layer/0.w");
        put_f32_slice(&mut buf, &[1.5, -2.5, f32::MIN_POSITIVE]);

        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert!(r.get_bool("b").unwrap());
        assert_eq!(r.get_u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("d").unwrap(), u64::MAX - 3);
        assert_eq!(r.get_u128("e").unwrap(), u128::MAX / 7);
        assert_eq!(r.get_f64("f").unwrap(), -1.25e300);
        assert_eq!(r.get_str("g").unwrap(), "layer/0.w");
        assert_eq!(
            r.get_f32_vec("h").unwrap(),
            vec![1.5, -2.5, f32::MIN_POSITIVE]
        );
        r.expect_end("test payload").unwrap();
    }

    #[test]
    fn f32_bytes_copy_into_a_destination_bit_for_bit() {
        let values = [-0.0, f32::from_bits(0x7fc0_1234), 1e-42, f32::INFINITY];
        let mut buf = Vec::new();
        put_f32_slice(&mut buf, &values);
        let bytes = Reader::new(&buf).get_f32_bytes("x").unwrap();
        let mut dst = [7.0f32; 4];
        f32s_from_le(bytes, &mut dst);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dst), bits(&values));
    }

    #[test]
    fn truncated_reads_error() {
        let mut buf = Vec::new();
        put_f32_slice(&mut buf, &[1.0, 2.0, 3.0]);
        for len in 0..buf.len() {
            let mut r = Reader::new(&buf[..len]);
            assert!(r.get_f32_vec("x").is_err(), "prefix {len} should fail");
        }
    }

    #[test]
    fn invalid_bool_is_corrupt_not_panic() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.get_bool("flag"), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn frame_roundtrip_and_clean_eof() {
        let mut stream = Vec::new();
        write_frame(&mut stream, 3, 42, b"hello fleet").unwrap();
        write_frame(&mut stream, 7, u64::MAX, &[]).unwrap();
        let mut cursor = &stream[..];
        let a = read_frame(&mut cursor, MAX_FRAME_PAYLOAD).unwrap().unwrap();
        assert_eq!(
            (a.kind, a.id, a.payload.as_slice()),
            (3, 42, &b"hello fleet"[..])
        );
        let b = read_frame(&mut cursor, MAX_FRAME_PAYLOAD).unwrap().unwrap();
        assert_eq!((b.kind, b.id, b.payload.len()), (7, u64::MAX, 0));
        // Clean EOF at a frame boundary is Ok(None), not an error.
        assert!(read_frame(&mut cursor, MAX_FRAME_PAYLOAD)
            .unwrap()
            .is_none());
    }

    #[test]
    fn truncated_frame_is_typed_truncation() {
        let frame = encode_frame(1, 9, b"payload bytes");
        for len in 1..frame.len() {
            let mut cursor = &frame[..len];
            assert!(
                matches!(
                    read_frame(&mut cursor, MAX_FRAME_PAYLOAD),
                    Err(StoreError::Truncated(_))
                ),
                "prefix {len} must be a typed truncation"
            );
        }
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        // A frame declaring a 4 GiB-ish payload against a small cap must
        // fail typed without ever allocating the declared length.
        let mut header = Vec::new();
        header.extend_from_slice(&FRAME_MAGIC);
        header.push(1);
        header.extend_from_slice(&5u64.to_le_bytes());
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        let mut cursor = &header[..];
        match read_frame(&mut cursor, 1024) {
            Err(StoreError::FrameTooLarge { declared, cap }) => {
                assert_eq!(declared, u32::MAX as u64);
                assert_eq!(cap, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_flipped_payload_are_typed() {
        let mut frame = encode_frame(2, 11, b"abcdef");
        frame[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &frame[..], MAX_FRAME_PAYLOAD),
            Err(StoreError::Corrupt(_))
        ));

        let mut frame = encode_frame(2, 11, b"abcdef");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(matches!(
            read_frame(&mut &frame[..], MAX_FRAME_PAYLOAD),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }
}
