//! Versioned binary snapshot encoding for deterministic checkpoint/restore.
//!
//! Long BEACON campaigns (billion-cycle genome-scale runs, multi-seed
//! fault sweeps) should not have to start from cycle zero after every
//! interruption. This module provides the wire format those checkpoints
//! are written in, and the [`Snapshot`]/[`Restore`] trait pair every
//! stateful component of the stack implements.
//!
//! # Design
//!
//! * **Restore-into, not deserialize-from-scratch.** A snapshot carries
//!   only *dynamic* state (queues, bank timers, in-flight bundles, RNG
//!   words, partially-drained fault streams). Static structure — link
//!   parameters, DRAM geometry, trace ids, topology — is rebuilt from
//!   the configuration by the normal constructors, and `restore`
//!   overwrites the dynamic fields in place. This keeps the format
//!   small and makes version skew detectable per component.
//! * **Versioned sections.** Every component prefixes its payload with
//!   a length-prefixed tag string and a `u16` version
//!   ([`SnapWriter::component`]). A reader that meets an unknown tag or
//!   version fails with a typed [`SnapError`], never a panic and never
//!   a silent misparse.
//! * **Deterministic bytes.** All integers are little-endian, `f64`
//!   travels as its exact IEEE bit pattern, and map-backed collections
//!   serialize in their `BTreeMap` key order — the same state always
//!   encodes to the same bytes, so snapshot files can be golden-tested.
//!
//! What is deliberately *not* captured: observability state. Trace
//! rings, journey stamps, queue-depth gauges and metric series are
//! observers of the simulation, excluded from the [`RunResult` digest],
//! and deterministically reset on restore. The same rule covers the
//! two caching structures on the hot path: a [`HorizonCache`] restores
//! to *dirty* (forcing one recompute — bit-identical by its own
//! contract) and a [`Backoff`] — the engine's probe throttle and every
//! component's tick-gate backoff alike — restores to [`Backoff::new`]
//! (deterministic because every resumed run resets it the same way).
//!
//! [`RunResult` digest]: https://docs.rs/beacon-accel
//! [`HorizonCache`]: crate::horizon::HorizonCache
//! [`Backoff`]: crate::horizon::Backoff
//! [`Backoff::new`]: crate::horizon::Backoff::new

use std::fmt;

use crate::cycle::{Cycle, Duration};

/// Errors surfaced while decoding a snapshot. Every malformed input —
/// truncation, tag mismatch, version skew, implausible lengths — maps
/// to a typed variant; decoding never panics on untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before a read completed.
    Truncated {
        /// Bytes the read needed.
        wanted: usize,
        /// Bytes actually left in the stream.
        available: usize,
    },
    /// The container does not start with the snapshot magic string.
    BadMagic(String),
    /// The container format version is newer than this build supports.
    FormatVersion {
        /// Version found in the header.
        found: u32,
        /// Highest version this build can read.
        supported: u32,
    },
    /// The JSON header is missing or malformed.
    Header(String),
    /// A section tag did not match the component being restored.
    Section {
        /// Tag the restore path expected next.
        expected: String,
        /// Tag actually present in the stream.
        found: String,
    },
    /// A component's payload version is not supported by this build.
    ComponentVersion {
        /// Section tag of the component.
        tag: String,
        /// Version found in the stream.
        found: u16,
        /// Version this build reads and writes.
        supported: u16,
    },
    /// The snapshot was taken on a machine with a different shape than
    /// the one being restored (switch count, slot mix, variant, …).
    Topology(String),
    /// A value failed validation (bad enum tag, non-UTF-8 string,
    /// implausible collection length).
    Corrupt(String),
    /// Decoding finished but bytes remain — the payload and the header
    /// disagree about the body length.
    TrailingBytes(usize),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { wanted, available } => {
                write!(f, "truncated snapshot: needed {wanted} bytes, {available} left")
            }
            SnapError::BadMagic(found) => write!(f, "not a BEACON snapshot (magic {found:?})"),
            SnapError::FormatVersion { found, supported } => write!(
                f,
                "snapshot format v{found} is not supported (this build reads v{supported})"
            ),
            SnapError::Header(msg) => write!(f, "malformed snapshot header: {msg}"),
            SnapError::Section { expected, found } => {
                write!(f, "expected section {expected:?}, found {found:?}")
            }
            SnapError::ComponentVersion {
                tag,
                found,
                supported,
            } => write!(
                f,
                "component {tag:?} payload v{found} is not supported (this build reads v{supported})"
            ),
            SnapError::Topology(msg) => write!(f, "topology mismatch: {msg}"),
            SnapError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapError::TrailingBytes(n) => write!(f, "{n} trailing bytes after snapshot body"),
        }
    }
}

impl std::error::Error for SnapError {}

/// A component that can serialize its dynamic state into a snapshot.
///
/// Implementations write **only** state that changes as the simulation
/// advances; configuration-derived structure is rebuilt by constructors
/// on the restore path. The payload is framed by
/// [`SnapWriter::component`], which prefixes [`Snapshot::TAG`] and
/// [`Snapshot::VERSION`] so mismatches surface as typed errors.
pub trait Snapshot {
    /// Stable section tag identifying this component in the stream.
    const TAG: &'static str;
    /// Payload format version, bumped whenever the field layout changes.
    const VERSION: u16;
    /// Serializes the component's dynamic state (payload only; the
    /// tag/version frame is written by [`SnapWriter::component`]).
    fn snap(&self, w: &mut SnapWriter);
}

/// The restore half of the pair: overwrites a freshly constructed
/// component's dynamic state from a snapshot payload.
pub trait Restore: Snapshot {
    /// Restores dynamic state from `r` (payload only; the tag/version
    /// frame is consumed by [`SnapReader::component`]).
    ///
    /// # Errors
    /// Any [`SnapError`] from the underlying reads; implementations
    /// add [`SnapError::Corrupt`] for domain validation failures.
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Little-endian binary snapshot encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a [`Cycle`] (a `u64`; [`Cycle::NEVER`] round-trips).
    pub fn cycle(&mut self, v: Cycle) {
        self.u64(v.as_u64());
    }

    /// Writes a [`Duration`] (a `u64`).
    pub fn duration(&mut self, v: Duration) {
        self.u64(v.as_u64());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes a length-prefixed raw byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a section frame: tag string plus payload version.
    pub fn section(&mut self, tag: &str, version: u16) {
        self.str(tag);
        self.u16(version);
    }

    /// Writes a component: its section frame, then its payload.
    pub fn component<T: Snapshot>(&mut self, t: &T) {
        self.section(T::TAG, T::VERSION);
        t.snap(self);
    }
}

/// Little-endian binary snapshot decoder over a borrowed byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`SnapError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SnapError::TrailingBytes(n)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                wanted: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bool byte {b:#04x}"))),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `usize` written by [`SnapWriter::usize`].
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Reads a collection length, rejecting values that could not
    /// possibly fit in the remaining bytes (corruption guard: a bad
    /// length must not drive a huge allocation).
    pub fn seq_len(&mut self) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError::Corrupt(format!(
                "implausible length {n} with {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a [`Cycle`].
    pub fn cycle(&mut self) -> Result<Cycle, SnapError> {
        Ok(Cycle::new(self.u64()?))
    }

    /// Reads a [`Duration`].
    pub fn duration(&mut self) -> Result<Duration, SnapError> {
        Ok(Duration::new(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.seq_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads a length-prefixed raw byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.seq_len()?;
        self.take(n)
    }

    /// Consumes a section frame, failing on tag or version mismatch.
    pub fn section(&mut self, tag: &str, version: u16) -> Result<(), SnapError> {
        // Compare against the raw slice: a snapshot holds one frame per
        // component (thousands of banks), so the happy path must not
        // allocate.
        let n = self.seq_len()?;
        let found = self.take(n)?;
        if found != tag.as_bytes() {
            return Err(SnapError::Section {
                expected: tag.to_owned(),
                found: String::from_utf8_lossy(found).into_owned(),
            });
        }
        let v = self.u16()?;
        if v != version {
            return Err(SnapError::ComponentVersion {
                tag: tag.to_owned(),
                found: v,
                supported: version,
            });
        }
        Ok(())
    }

    /// Restores a component: consumes its section frame, then its
    /// payload via [`Restore::restore`].
    ///
    /// # Errors
    /// [`SnapError::Section`] / [`SnapError::ComponentVersion`] on
    /// frame mismatch, or whatever the payload restore reports.
    pub fn component<T: Restore>(&mut self, t: &mut T) -> Result<(), SnapError> {
        self.section(T::TAG, T::VERSION)?;
        t.restore(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.usize(12345);
        w.f64(-0.0);
        w.cycle(Cycle::NEVER);
        w.duration(Duration::new(9));
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.cycle().unwrap(), Cycle::NEVER);
        assert_eq!(r.duration().unwrap(), Duration::new(9));
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.finish().expect("fully consumed");
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = SnapWriter::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(
            r.u64(),
            Err(SnapError::Truncated {
                wanted: 8,
                available: 5
            })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes(1)));
    }

    #[test]
    fn implausible_length_is_rejected_before_allocation() {
        let mut w = SnapWriter::new();
        w.usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.seq_len(), Err(SnapError::Corrupt(_))));
        let mut r2 = SnapReader::new(&bytes);
        assert!(matches!(r2.str(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_corrupt() {
        let mut r = SnapReader::new(&[2]);
        assert!(matches!(r.bool(), Err(SnapError::Corrupt(_))));
        let mut w = SnapWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.str(), Err(SnapError::Corrupt(_))));
    }

    struct Counter {
        n: u64,
    }
    impl Snapshot for Counter {
        const TAG: &'static str = "test.counter";
        const VERSION: u16 = 3;
        fn snap(&self, w: &mut SnapWriter) {
            w.u64(self.n);
        }
    }
    impl Restore for Counter {
        fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.n = r.u64()?;
            Ok(())
        }
    }

    #[test]
    fn component_frame_round_trips() {
        let mut w = SnapWriter::new();
        w.component(&Counter { n: 99 });
        let bytes = w.into_bytes();
        let mut c = Counter { n: 0 };
        let mut r = SnapReader::new(&bytes);
        r.component(&mut c).expect("matching frame");
        assert_eq!(c.n, 99);
        r.finish().expect("fully consumed");
    }

    #[test]
    fn wrong_section_tag_is_typed() {
        let mut w = SnapWriter::new();
        w.section("other.tag", 3);
        let bytes = w.into_bytes();
        let mut c = Counter { n: 0 };
        let err = SnapReader::new(&bytes).component(&mut c).unwrap_err();
        assert_eq!(
            err,
            SnapError::Section {
                expected: "test.counter".into(),
                found: "other.tag".into()
            }
        );
    }

    #[test]
    fn wrong_component_version_is_typed() {
        let mut w = SnapWriter::new();
        w.section("test.counter", 4);
        w.u64(1);
        let bytes = w.into_bytes();
        let mut c = Counter { n: 0 };
        let err = SnapReader::new(&bytes).component(&mut c).unwrap_err();
        assert_eq!(
            err,
            SnapError::ComponentVersion {
                tag: "test.counter".into(),
                found: 4,
                supported: 3
            }
        );
    }

    #[test]
    fn errors_render_readably() {
        for (err, needle) in [
            (
                SnapError::Truncated {
                    wanted: 8,
                    available: 2,
                },
                "truncated",
            ),
            (SnapError::BadMagic("XYZ".into()), "magic"),
            (
                SnapError::FormatVersion {
                    found: 9,
                    supported: 1,
                },
                "format v9",
            ),
            (SnapError::Topology("4 != 2 switches".into()), "topology"),
            (SnapError::TrailingBytes(3), "trailing"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
