//! Versioned + checksummed snapshot envelopes for checkpoint files.
//!
//! The format is deliberately tiny (no external serialisation
//! dependency: the workspace builds offline):
//!
//! ```text
//! magic   4 bytes   b"FSAS"
//! version u32 LE    payload schema version (caller-defined)
//! length  u64 LE    payload length in bytes
//! payload length bytes
//! check   u64 LE    FNV-1a over magic ‖ version ‖ length ‖ payload
//! ```
//!
//! Readers validate magic, version, length and checksum *before*
//! handing out a single payload byte, so truncated, bit-flipped and
//! version-skewed files fail with a clean [`SnapshotError`] — never a
//! panic, never a silent partial load. Writers persist atomically
//! (tmp file + rename), so a `SIGKILL` mid-write leaves the previous
//! snapshot intact.

use std::fmt;
use std::path::Path;

const MAGIC: [u8; 4] = *b"FSAS";
const HEADER: usize = 4 + 4 + 8;

/// Why a snapshot could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem-level failure (open/read/write/rename).
    Io(String),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's schema version is not the expected one.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version the reader expected.
        expected: u32,
    },
    /// The file is shorter than its header + declared payload + check.
    Truncated,
    /// The FNV-1a checksum does not match the content.
    ChecksumMismatch,
    /// The payload decodes to something structurally impossible.
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot version {found} does not match expected version {expected}"
            ),
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch (corrupt or tampered file)")
            }
            SnapshotError::Malformed(why) => write!(f, "snapshot payload malformed: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A snapshot under construction: append primitives, then
/// [`Snapshot::write_atomic`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    version: u32,
    payload: Vec<u8>,
}

impl Snapshot {
    /// An empty snapshot with the given schema version.
    #[must_use]
    pub fn new(version: u32) -> Self {
        Snapshot {
            version,
            payload: Vec::new(),
        }
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.payload.push(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.payload.extend_from_slice(s.as_bytes());
    }

    /// The encoded file image (header ‖ payload ‖ checksum).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER + self.payload.len() + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let check = fnv1a(&out);
        out.extend_from_slice(&check.to_le_bytes());
        out
    }

    /// Writes the snapshot atomically *and durably*: a sibling tmp
    /// file is written, `sync_all`ed, `rename`d over `path`, and the
    /// parent directory is fsynced, so readers (and resumed runs
    /// after a `SIGKILL`) only ever observe a complete snapshot — and
    /// the rename itself survives power loss, not just process death.
    ///
    /// Callers that acknowledge receipt over a network (the
    /// coordinator's `shard-done` ack, after which the worker deletes
    /// its own checkpoint) rely on this ordering: the ack must never
    /// be observable while the state that justifies it is still only
    /// in the page cache.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure. A failed write,
    /// sync or rename removes the tmp file, and leaves `path` as it was.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        let io = |e: std::io::Error| SnapshotError::Io(format!("{path:?}: {e}"));
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut file = std::fs::File::create(&tmp).map_err(io)?;
        let staged = std::io::Write::write_all(&mut file, &self.to_bytes())
            // Data durable before the rename makes it visible.
            .and_then(|()| file.sync_all())
            .and_then(|()| {
                drop(file);
                std::fs::rename(&tmp, path)
            });
        if let Err(e) = staged {
            let _ = std::fs::remove_file(&tmp);
            return Err(io(e));
        }
        // Make the rename itself durable. Directory fsync is
        // best-effort: some platforms cannot open a directory as a
        // file, and a failure here never un-does the atomic rename.
        if let Some(parent) = path.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            if let Ok(handle) = std::fs::File::open(dir) {
                let _ = handle.sync_all();
            }
        }
        Ok(())
    }
}

/// A validated snapshot: sequential typed reads over the payload.
#[derive(Debug)]
pub struct SnapshotReader {
    payload: Vec<u8>,
    pos: usize,
}

impl SnapshotReader {
    /// Validates `bytes` (magic, version, length, checksum) and returns
    /// a payload cursor.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`].
    pub fn from_bytes(bytes: &[u8], expected_version: u32) -> Result<Self, SnapshotError> {
        if bytes.len() < 4 || bytes[..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < HEADER + 8 {
            return Err(SnapshotError::Truncated);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        let length = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
        let Some(total) = HEADER.checked_add(length).and_then(|n| n.checked_add(8)) else {
            return Err(SnapshotError::Truncated);
        };
        if bytes.len() < total {
            return Err(SnapshotError::Truncated);
        }
        let declared =
            u64::from_le_bytes(bytes[HEADER + length..total].try_into().expect("8 bytes"));
        if fnv1a(&bytes[..HEADER + length]) != declared {
            return Err(SnapshotError::ChecksumMismatch);
        }
        // Version skew is only reported on files that pass the
        // integrity check — a clean, actionable error.
        if version != expected_version {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: expected_version,
            });
        }
        Ok(SnapshotReader {
            payload: bytes[HEADER..HEADER + length].to_vec(),
            pos: 0,
        })
    }

    /// Reads and validates the snapshot at `path`.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`].
    pub fn read(path: &Path, expected_version: u32) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        SnapshotReader::from_bytes(&bytes, expected_version)
    }

    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.payload.len())
            .ok_or(SnapshotError::Truncated)?;
        let slice = &self.payload[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the payload end.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] past the end;
    /// [`SnapshotError::Malformed`] if the value overflows `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?)
            .map_err(|_| SnapshotError::Malformed("usize overflow".to_owned()))
    }

    /// Reads a boolean.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Malformed`].
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed(format!(
                "boolean byte {other} out of range"
            ))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Malformed`].
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed("string is not UTF-8".to_owned()))
    }

    /// Asserts the payload is fully consumed (schema completeness).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] if bytes remain.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.payload.len() {
            Ok(())
        } else {
            Err(SnapshotError::Malformed(format!(
                "{} trailing payload byte(s)",
                self.payload.len() - self.pos
            )))
        }
    }
}

/// FNV-1a over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new(7);
        s.put_u64(0xDEAD_BEEF);
        s.put_usize(42);
        s.put_bool(true);
        s.put_str("frontier");
        s
    }

    #[test]
    fn roundtrip() {
        let bytes = sample().to_bytes();
        let mut r = SnapshotReader::from_bytes(&bytes, 7).unwrap();
        assert_eq!(r.u64().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.usize().unwrap(), 42);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "frontier");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_at_every_length_is_clean() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = SnapshotReader::from_bytes(&bytes[..cut], 7).unwrap_err();
            assert!(
                matches!(err, SnapshotError::BadMagic | SnapshotError::Truncated),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert!(
                    SnapshotReader::from_bytes(&flipped, 7).is_err(),
                    "flip byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn version_skew_is_reported_with_both_versions() {
        let bytes = sample().to_bytes();
        let err = SnapshotReader::from_bytes(&bytes, 8).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::VersionMismatch {
                found: 7,
                expected: 8
            }
        );
        assert!(err.to_string().contains('7') && err.to_string().contains('8'));
    }

    #[test]
    fn trailing_bytes_are_rejected_by_finish() {
        let bytes = sample().to_bytes();
        let mut r = SnapshotReader::from_bytes(&bytes, 7).unwrap();
        let _ = r.u64().unwrap();
        assert!(matches!(r.finish(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn reads_past_end_are_truncated_errors() {
        let mut s = Snapshot::new(1);
        s.put_u64(1);
        let mut r = SnapshotReader::from_bytes(&s.to_bytes(), 1).unwrap();
        let _ = r.u64().unwrap();
        assert_eq!(r.u64().unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fsa_exec_snap_{}.bin", std::process::id()));
        sample().write_atomic(&path).unwrap();
        let mut r = SnapshotReader::read(&path, 7).unwrap();
        assert_eq!(r.u64().unwrap(), 0xDEAD_BEEF);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            SnapshotReader::read(&path, 7),
            Err(SnapshotError::Io(_))
        ));
    }

    #[test]
    fn a_failed_rename_removes_the_tmp_file() {
        let dir = std::env::temp_dir().join(format!("fsa_exec_snap_dir_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = sample().write_atomic(&dir).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err:?}");
        let mut tmp = dir.clone().into_os_string();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists(), "the tmp file was left behind");
        assert!(dir.is_dir());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_is_bad_magic() {
        assert_eq!(
            SnapshotReader::from_bytes(b"not a snapshot at all", 1).unwrap_err(),
            SnapshotError::BadMagic
        );
    }
}
