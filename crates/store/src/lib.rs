//! # prionn-store
//!
//! A self-describing binary checkpoint container for PRIONN model state.
//!
//! The online-learning protocol's whole value is the *warm start*: weights
//! accumulated over hundreds of retraining events. This crate makes that
//! state durable with a format designed for hot tensor payloads — no
//! per-element framing, just named byte sections with integrity checks:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------
//!      0     8  magic  "PRIONNCK"
//!      8     4  format version (u32 LE)
//!     12     4  section count  (u32 LE)
//! then, per section:
//!      +0    4  name length   (u32 LE)
//!      +4    n  name bytes    (UTF-8)
//!    +4+n    8  payload length (u64 LE)
//!   +12+n    4  CRC32 of name + payload (IEEE, u32 LE)
//!   +16+n    m  payload bytes
//! ```
//!
//! Every multi-byte integer is little-endian. Loads are fully
//! bounds-checked and CRC-verified: a corrupted file of any shape returns
//! a [`StoreError`], never a panic and never silently-wrong tensors.
//!
//! Writes are atomic: the file is assembled in `<path>.tmp`, fsynced,
//! then renamed over the destination, so a crash mid-snapshot leaves the
//! previous checkpoint intact.
//!
//! The same section format also travels *in memory*: [`broadcast::WeightBus`]
//! publishes epoch-tagged weight checkpoints to serving replicas with an
//! atomic swap, so a retrained model reaches every replica without any
//! reader ever observing a torn payload.

#![warn(missing_docs)]

pub mod broadcast;
pub mod wire;

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// File magic: identifies a PRIONN checkpoint.
pub const MAGIC: [u8; 8] = *b"PRIONNCK";

/// Current format version. Bump on any layout change; loaders reject
/// versions they do not understand rather than guessing.
pub const FORMAT_VERSION: u32 = 1;

/// Hard cap on section count and name length so a corrupted header cannot
/// drive pathological allocations.
const MAX_SECTIONS: u32 = 1 << 16;
const MAX_NAME_LEN: u32 = 1 << 12;

/// Everything that can go wrong writing or reading a checkpoint.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error while reading or writing.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not one this build can read.
    UnsupportedVersion(u32),
    /// The file ended (or a declared length overran the buffer) while
    /// reading the named piece of the layout.
    Truncated(&'static str),
    /// A section's CRC32 did not match its contents.
    ChecksumMismatch {
        /// Name of the section whose CRC failed.
        section: String,
    },
    /// Structurally invalid contents (bad UTF-8 name, absurd lengths,
    /// malformed section payload, ...).
    Corrupt(String),
    /// A wire frame declared a payload longer than the receiver's cap.
    /// Distinct from [`StoreError::Corrupt`] so servers can answer it with
    /// a typed protocol error instead of dropping the connection.
    FrameTooLarge {
        /// Payload length the frame header declared.
        declared: u64,
        /// The receiver's configured cap, in bytes.
        cap: u64,
    },
    /// `insert` was called twice with the same section name.
    DuplicateSection(String),
    /// A required section is absent.
    MissingSection(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "checkpoint io error: {e}"),
            StoreError::BadMagic => write!(f, "not a PRIONN checkpoint (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            StoreError::Truncated(what) => write!(f, "checkpoint truncated while reading {what}"),
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section '{section}'")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            StoreError::FrameTooLarge { declared, cap } => {
                write!(f, "frame payload of {declared} bytes exceeds cap {cap}")
            }
            StoreError::DuplicateSection(name) => write!(f, "duplicate section '{name}'"),
            StoreError::MissingSection(name) => write!(f, "missing section '{name}'"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Crate-wide result alias over [`StoreError`].
pub type Result<T> = std::result::Result<T, StoreError>;

/// An in-memory checkpoint: an ordered set of named byte sections.
///
/// Section order is preserved exactly, so `save -> load -> save` is
/// byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    sections: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// An empty checkpoint with no sections.
    pub fn new() -> Self {
        Checkpoint::default()
    }

    /// Add a named section. Names must be unique within a checkpoint.
    pub fn insert(&mut self, name: impl Into<String>, payload: Vec<u8>) -> Result<()> {
        let name = name.into();
        if self.sections.iter().any(|(n, _)| *n == name) {
            return Err(StoreError::DuplicateSection(name));
        }
        if name.len() as u64 > MAX_NAME_LEN as u64 {
            return Err(StoreError::Corrupt(format!(
                "section name too long: {} bytes",
                name.len()
            )));
        }
        self.sections.push((name, payload));
        Ok(())
    }

    /// Look up a section's payload.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }

    /// Look up a section's payload, erroring if absent.
    pub fn require(&self, name: &str) -> Result<&[u8]> {
        self.get(name)
            .ok_or_else(|| StoreError::MissingSection(name.to_string()))
    }

    /// True if a section with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True if the checkpoint holds no sections.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Section names in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Serialize to the on-disk byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body: usize = self
            .sections
            .iter()
            .map(|(n, p)| 4 + n.len() + 8 + 4 + p.len())
            .sum();
        let mut out = Vec::with_capacity(16 + body);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&section_crc(name, payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parse the on-disk byte layout, verifying structure and checksums.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = wire::Reader::new(bytes);
        let magic = r.get_array::<8>("magic")?;
        if magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = r.get_u32("format version")?;
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let count = r.get_u32("section count")?;
        if count > MAX_SECTIONS {
            return Err(StoreError::Corrupt(format!(
                "section count {count} exceeds limit"
            )));
        }
        let mut checkpoint = Checkpoint::new();
        for _ in 0..count {
            let name_len = r.get_u32("section name length")?;
            if name_len > MAX_NAME_LEN {
                return Err(StoreError::Corrupt(format!(
                    "section name length {name_len} exceeds limit"
                )));
            }
            let name_bytes = r.get_bytes(name_len as usize, "section name")?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| StoreError::Corrupt("section name is not UTF-8".into()))?
                .to_string();
            let payload_len = r.get_u64("section payload length")?;
            let crc = r.get_u32("section checksum")?;
            let payload_len = usize::try_from(payload_len)
                .map_err(|_| StoreError::Corrupt("section payload length overflow".into()))?;
            let payload = r.get_bytes(payload_len, "section payload")?;
            if section_crc(&name, payload) != crc {
                return Err(StoreError::ChecksumMismatch { section: name });
            }
            let payload = payload.to_vec();
            checkpoint.insert(name, payload)?;
        }
        if !r.is_at_end() {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after final section",
                r.remaining()
            )));
        }
        Ok(checkpoint)
    }

    /// Write atomically: assemble in `<path>.tmp`, fsync, rename over
    /// `path`. A crash at any point leaves either the old file or the new
    /// one, never a torn mix.
    pub fn write_atomic(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let tmp = tmp_path(path);
        let bytes = self.to_bytes();
        let result = (|| -> Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp, path)?;
            // Make the rename itself durable where the platform allows.
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    if let Ok(d) = fs::File::open(dir) {
                        let _ = d.sync_all();
                    }
                }
            }
            Ok(())
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Read and verify a checkpoint file.
    pub fn read(path: impl AsRef<Path>) -> Result<Self> {
        let bytes = fs::read(path)?;
        Checkpoint::from_bytes(&bytes)
    }
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

fn section_crc(name: &str, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(name.as_bytes());
    crc.update(payload);
    crc.finish()
}

/// CRC32 (IEEE 802.3 polynomial, reflected), table-driven, eight bytes a
/// step ("slicing by 8").
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh accumulator (state `!0`, per the IEEE convention).
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Fold more bytes into the running checksum: eight at a time through
    /// the eight tables, the rest one at a time through the first. The
    /// value is that of the one-byte-a-step loop.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut s = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = s ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            s = t[7][(lo & 0xFF) as usize]
                ^ t[6][(lo >> 8 & 0xFF) as usize]
                ^ t[5][(lo >> 16 & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][(hi >> 8 & 0xFF) as usize]
                ^ t[1][(hi >> 16 & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            s = (s >> 8) ^ t[0][((s ^ b as u32) & 0xFF) as usize];
        }
        self.state = s;
    }

    /// The final checksum value (does not consume the accumulator).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Table `0` steps the state over one byte; table `k` over one byte
/// followed by `k` zero bytes, so eight lookups step it over eight bytes.
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_crc_matches_one_shot() {
        let data = b"split across multiple updates";
        let mut c = Crc32::new();
        c.update(&data[..7]);
        c.update(&data[7..20]);
        c.update(&data[20..]);
        assert_eq!(c.finish(), crc32(data));
    }

    /// The one-byte-a-step loop the sliced update must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut s = !0u32;
        for &b in bytes {
            s = (s >> 8) ^ CRC32_TABLES[0][((s ^ b as u32) & 0xFF) as usize];
        }
        !s
    }

    #[test]
    fn sliced_crc_is_the_bytewise_crc_at_every_length_and_alignment() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(32);
        let mut buf = vec![0u8; 1024 + 8];
        rng.fill_bytes(&mut buf);
        for start in 0..8 {
            for len in 0..1024 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
        // Split anywhere, the running state carries across updates.
        for split in 0..64 {
            let mut c = Crc32::new();
            c.update(&buf[..split]);
            c.update(&buf[split..]);
            assert_eq!(c.finish(), crc32_bytewise(&buf), "split {split}");
        }
    }

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new();
        c.insert("meta", b"hello".to_vec()).unwrap();
        c.insert("weights/0", vec![0u8; 1024]).unwrap();
        c.insert("empty", Vec::new()).unwrap();
        c
    }

    #[test]
    fn roundtrip_preserves_sections_and_order() {
        let c = sample();
        let bytes = c.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(
            back.section_names().collect::<Vec<_>>(),
            vec!["meta", "weights/0", "empty"]
        );
        // Determinism: encode(decode(x)) == x.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn duplicate_sections_rejected() {
        let mut c = Checkpoint::new();
        c.insert("a", vec![1]).unwrap();
        assert!(matches!(
            c.insert("a", vec![2]),
            Err(StoreError::DuplicateSection(_))
        ));
    }

    #[test]
    fn missing_section_is_error() {
        let c = sample();
        assert!(c.get("nope").is_none());
        assert!(matches!(
            c.require("nope"),
            Err(StoreError::MissingSection(_))
        ));
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let c = sample();
        let mut bytes = c.to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(StoreError::BadMagic)
        ));

        let mut bytes = c.to_bytes();
        bytes[8] = 99;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(StoreError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_anywhere_is_an_error() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                Checkpoint::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes should not parse"
            );
        }
    }

    #[test]
    fn atomic_write_roundtrip_and_no_tmp_left() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("prionn-store-test-{}.ckpt", std::process::id()));
        let c = sample();
        c.write_atomic(&path).unwrap();
        assert!(!tmp_path(&path).exists(), "tmp file should be renamed away");
        let back = Checkpoint::read(&path).unwrap();
        assert_eq!(back, c);
        let _ = std::fs::remove_file(&path);
    }
}
