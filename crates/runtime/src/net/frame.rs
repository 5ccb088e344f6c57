//! Length-prefixed, checksummed framing over any byte stream.
//!
//! Every message on the wire travels as one frame:
//!
//! ```text
//! +--------+-----------+-----------+---------------------+
//! | magic  | len (u32) | crc (u32) | payload (len bytes) |
//! | "LPQF" |    LE     |    LE     |                     |
//! +--------+-----------+-----------+---------------------+
//! ```
//!
//! The magic word lets a receiver reject a stream that is not speaking
//! the protocol at all (or that lost frame sync); the length prefix is
//! bounded by [`MAX_FRAME_BYTES`] so a corrupt prefix cannot drive an
//! allocation of arbitrary size; the CRC-32 covers the payload so
//! corruption *inside* a frame is detected deterministically rather than
//! surfacing as a garbled activation. All failure modes are typed
//! ([`FrameError`]) — a framing error poisons the connection (TCP
//! guarantees ordering, so there is no way to resynchronize after a bad
//! header) and the caller maps it onto the runtime's disconnect path.
//!
//! Reads use `read_exact`, so partial reads (a frame split across
//! arbitrarily many TCP segments) are reassembled transparently; the
//! property tests drive this with a 1-byte-at-a-time reader.

use std::io::{self, Read, Write};

/// Frame sync word: `"LPQF"` little-endian.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"LPQF");

/// Upper bound on a frame payload. Generously above any activation
/// micro-batch the runtime ships (a 4096-wide hidden state for a
/// 2048-token prefill of 64 sequences is ~2 GiB *per item* only on real
/// models; the stand-in checkpoints are orders of magnitude smaller),
/// while still rejecting a corrupt length prefix immediately.
pub const MAX_FRAME_BYTES: usize = 256 * 1024 * 1024;

/// Bytes of the fixed frame header (magic + len + crc).
pub const FRAME_HEADER_BYTES: usize = 12;

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed or closed.
    Io(io::Error),
    /// The stream did not start with the frame magic — not our protocol,
    /// or frame sync was lost. Unrecoverable on an ordered stream.
    BadMagic(u32),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`] — corrupt or
    /// hostile; rejected before any allocation.
    OversizedFrame(usize),
    /// The payload arrived but its CRC-32 does not match: corruption in
    /// transit (or an injected `CorruptFrame` fault).
    ChecksumMismatch {
        /// CRC the header promised.
        want: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x} (stream out of sync)"),
            FrameError::OversizedFrame(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_BYTES}-byte bound")
            }
            FrameError::ChecksumMismatch { want, got } => {
                write!(f, "frame checksum mismatch: header says {want:#010x}, payload is {got:#010x}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320 polynomial) — the ubiquitous
/// Ethernet/zip checksum, computed bytewise without a table so the
/// runtime stays dependency-free. Frame payloads are small enough that
/// the bitwise loop is nowhere near the wire in cost.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Serialize one payload as a frame into a byte vector (header + body).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Write one frame to `w`. Returns the total bytes put on the wire.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<usize, FrameError> {
    let frame = encode_frame(payload);
    w.write_all(&frame)?;
    Ok(frame.len())
}

/// Read one frame's payload from `r`, reassembling partial reads and
/// validating magic, length bound, and checksum.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    r.read_exact(&mut header)?;
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::OversizedFrame(len));
    }
    let want = u32::from_le_bytes(header[8..12].try_into().unwrap());
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let got = crc32(&payload);
    if got != want {
        return Err(FrameError::ChecksumMismatch { want, got });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips() {
        let payload = b"hello, pipeline".to_vec();
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, &payload).unwrap();
        assert_eq!(n, FRAME_HEADER_BYTES + payload.len());
        let got = read_frame(&mut Cursor::new(buf)).unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[]).unwrap();
        assert_eq!(read_frame(&mut Cursor::new(buf)).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = encode_frame(b"x");
        buf[0] ^= 0xFF;
        assert!(matches!(read_frame(&mut Cursor::new(buf)), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = encode_frame(b"x");
        buf[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(FrameError::OversizedFrame(_))
        ));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut buf = encode_frame(b"activations");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let buf = encode_frame(b"truncate me");
        let cut = &buf[..buf.len() - 3];
        assert!(matches!(
            read_frame(&mut Cursor::new(cut.to_vec())),
            Err(FrameError::Io(_))
        ));
    }

    /// A reader that yields one byte per `read` call: every frame read
    /// must reassemble across maximally fragmented reads.
    struct TrickleReader {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for TrickleReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn partial_reads_reassemble() {
        let payload: Vec<u8> = (0..=255u8).collect();
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).unwrap();
        write_frame(&mut stream, b"second").unwrap();
        let mut r = TrickleReader { data: stream, pos: 0 };
        assert_eq!(read_frame(&mut r).unwrap(), payload);
        assert_eq!(read_frame(&mut r).unwrap(), b"second".to_vec());
    }
}
