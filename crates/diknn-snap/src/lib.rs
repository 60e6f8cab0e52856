//! Deterministic snapshot serialization for the resident service mode.
//!
//! The simulator's restore-equivalence law (`run(2h) ≡ run(1h) + snapshot +
//! restore + run(1h)`, checked by flight-recorder bit-identity) needs a
//! byte format with no room for platform or library drift, so this crate
//! implements one by hand instead of pulling in serde:
//!
//! * every integer is fixed-width little-endian,
//! * every `f64` round-trips through [`f64::to_bits`] (NaN payloads and
//!   signed zeros survive exactly),
//! * every collection is length-prefixed,
//! * enums carry explicit one-byte tags chosen at the impl site (never
//!   derived from declaration order, so reordering variants cannot silently
//!   change the format).
//!
//! Two traits split the work: [`Snap`] for values the reader can build from
//! scratch, and [`SnapState`] for stateful objects (the simulator, the
//! protocol) whose static inputs — configs, mobility plans, closures — are
//! re-supplied by the caller at restore time and only the *mutable* state
//! travels through the snapshot.
//!
//! ## Format versioning rule
//!
//! A snapshot stream starts with [`MAGIC`] plus a `u32` format version
//! written by [`write_header`]. [`read_header`] rejects any mismatch:
//! snapshots are *not* forward- or backward-compatible, on purpose. Any
//! change to any `Snap`/`SnapState` impl that alters the byte stream must
//! bump the owning crate's snapshot version constant (the simulator's is
//! `diknn_sim::SNAP_VERSION`), invalidating old snapshots loudly rather
//! than misreading them quietly.

#![forbid(unsafe_code)]

use std::fmt;

/// Leading magic bytes of every snapshot stream.
pub const MAGIC: [u8; 4] = *b"DSNP";

/// Why a snapshot stream could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The reader ran off the end of the buffer.
    Eof,
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's format version does not match the reader's.
    BadVersion { found: u32, expected: u32 },
    /// An enum tag byte matched no variant of the named type.
    BadTag { ty: &'static str, tag: u8 },
    /// A decoded value violated a structural constraint.
    Corrupt(&'static str),
    /// Decoding finished with unread bytes left in the stream.
    TrailingBytes(usize),
    /// A fingerprint of a restore-time input (config, mobility plan)
    /// disagrees with the one recorded at snapshot time.
    FingerprintMismatch(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof => write!(f, "snapshot truncated: unexpected end of stream"),
            SnapError::BadMagic => write!(f, "not a snapshot stream (bad magic)"),
            SnapError::BadVersion { found, expected } => write!(
                f,
                "snapshot format version {found} does not match expected {expected}"
            ),
            SnapError::BadTag { ty, tag } => {
                write!(f, "unknown tag {tag} for enum {ty}")
            }
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapError::TrailingBytes(n) => {
                write!(f, "snapshot decoded with {n} trailing bytes unread")
            }
            SnapError::FingerprintMismatch(what) => write!(
                f,
                "restore input mismatch: {what} differs from the snapshotted run"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only byte sink for snapshot encoding.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> Self {
        SnapWriter::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

/// Cursor over a snapshot byte stream.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the stream was consumed exactly.
    pub fn finish(self) -> Result<(), SnapError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SnapError::TrailingBytes(n)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn take_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub fn take_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn take_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn take_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    fn take_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.take_u64()?;
        let n = usize::try_from(n).map_err(|_| SnapError::Corrupt("length exceeds usize"))?;
        self.take(n)
    }

    /// Decode a length prefix, bounded by the bytes actually remaining so a
    /// corrupt length cannot trigger a huge allocation.
    pub fn take_len(&mut self) -> Result<usize, SnapError> {
        let n = self.take_u64()?;
        let n = usize::try_from(n).map_err(|_| SnapError::Corrupt("length exceeds usize"))?;
        if n > self.remaining() {
            return Err(SnapError::Corrupt("length prefix exceeds remaining bytes"));
        }
        Ok(n)
    }
}

/// Write the stream header: [`MAGIC`] then the format version.
pub fn write_header(w: &mut SnapWriter, version: u32) {
    w.buf.extend_from_slice(&MAGIC);
    w.put_u32(version);
}

/// Check the stream header, rejecting any magic or version mismatch (the
/// snapshot versioning rule: no cross-version reads, ever).
pub fn read_header(r: &mut SnapReader<'_>, expected: u32) -> Result<(), SnapError> {
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let found = r.take_u32()?;
    if found != expected {
        return Err(SnapError::BadVersion { found, expected });
    }
    Ok(())
}

/// A value that can be encoded into and rebuilt from a snapshot stream.
pub trait Snap: Sized {
    fn snap(&self, w: &mut SnapWriter);
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// A stateful object whose mutable state travels through the snapshot while
/// its static inputs are re-supplied by the caller: `restore_state`
/// overwrites state in place on a freshly constructed instance.
pub trait SnapState {
    fn snap_state(&self, w: &mut SnapWriter);
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

impl Snap for u8 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.take_u8()
    }
}

impl Snap for u32 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.take_u32()
    }
}

impl Snap for u64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.take_u64()
    }
}

impl Snap for usize {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        usize::try_from(r.take_u64()?).map_err(|_| SnapError::Corrupt("usize overflow"))
    }
}

impl Snap for i64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.take_u64()? as i64)
    }
}

impl Snap for bool {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(u8::from(*self));
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(SnapError::BadTag { ty: "bool", tag }),
        }
    }
}

impl Snap for f64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.take_f64()
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_bytes(self.as_bytes());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let bytes = r.take_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("invalid utf-8"))
    }
}

impl Snap for [u64; 4] {
    fn snap(&self, w: &mut SnapWriter) {
        for v in self {
            w.put_u64(*v);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok([r.take_u64()?, r.take_u64()?, r.take_u64()?, r.take_u64()?])
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unsnap(r)?)),
            tag => Err(SnapError::BadTag { ty: "Option", tag }),
        }
    }
}

impl<T: Snap> Snap for Box<T> {
    fn snap(&self, w: &mut SnapWriter) {
        T::snap(self, w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Box::new(T::unsnap(r)?))
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        // An element costs at least one byte on the wire, so take_len's
        // remaining-bytes bound caps the pre-allocation safely.
        let n = r.take_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for std::collections::BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.take_len()?;
        let mut out = std::collections::BTreeMap::new();
        for _ in 0..n {
            let k = K::unsnap(r)?;
            let v = V::unsnap(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord> Snap for std::collections::BTreeSet<K> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for k in self {
            k.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.take_len()?;
        let mut out = std::collections::BTreeSet::new();
        for _ in 0..n {
            out.insert(K::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for std::collections::VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.take_len()?;
        let mut out = std::collections::VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?, C::unsnap(r)?))
    }
}

/// Implement [`Snap`] for a struct by encoding the listed fields in order.
/// The field list is part of the wire format: adding, removing or reordering
/// entries requires a snapshot version bump.
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn snap(&self, w: &mut $crate::SnapWriter) {
                $( $crate::Snap::snap(&self.$field, w); )+
            }
            fn unsnap(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                Ok($ty { $( $field: $crate::Snap::unsnap(r)? ),+ })
            }
        }
    };
}

/// Internal helper for [`snap_enum!`] tuple variants: decodes one field per
/// binding ident.
#[doc(hidden)]
#[macro_export]
macro_rules! __snap_tuple_field {
    ($r:ident, $binding:ident) => {
        $crate::Snap::unsnap($r)?
    };
}

/// Implement [`Snap`] for an enum with explicit per-variant tags. Supports
/// unit variants (`3 => Done`), struct variants (`1 => Hop { from, to }`)
/// and tuple variants (`2 => Wrap(inner)`). Tags are part of the wire
/// format and must never be reused or renumbered without a version bump.
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident { $($tag:literal => $var:ident $({ $($f:ident),* $(,)? })? $(( $($t:ident),+ $(,)? ))? ),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn snap(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $(
                        $ty::$var $({ $($f),* })? $(( $($t),+ ))? => {
                            w.put_u8($tag);
                            $( $( $crate::Snap::snap($f, w); )* )?
                            $( $( $crate::Snap::snap($t, w); )+ )?
                        }
                    )+
                }
            }
            fn unsnap(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                match r.take_u8()? {
                    $(
                        $tag => Ok($ty::$var
                            $({ $($f: $crate::Snap::unsnap(r)?),* })?
                            $(( $($crate::__snap_tuple_field!(r, $t)),+ ))?
                        ),
                    )+
                    tag => Err($crate::SnapError::BadTag { ty: stringify!($ty), tag }),
                }
            }
        }
    };
}

/// A deterministic 64-bit FNV-1a hash of a byte string, used to fingerprint
/// restore-time inputs (configs, mobility plans) that are deliberately not
/// serialized. Stable across platforms and releases.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::unsnap(&mut r).expect("unsnap");
        assert_eq!(&back, v);
        r.finish().expect("fully consumed");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&255u8);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&u64::MAX);
        roundtrip(&usize::MAX);
        roundtrip(&(-42i64));
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&String::from("snapshot"));
        roundtrip(&[1u64, 2, 3, 4]);
    }

    #[test]
    fn f64_roundtrips_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            let mut w = SnapWriter::new();
            v.snap(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            let back = f64::unsnap(&mut r).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "bit drift for {v}");
        }
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Vec::<u64>::new());
        roundtrip(&Some(7u32));
        roundtrip(&Option::<u32>::None);
        roundtrip(&Box::new(9u64));
        roundtrip(&(1u8, 2u32));
        roundtrip(&(1u8, 2u32, 3.5f64));
        roundtrip(&vec![(1u8, 2u32), (3, 4)]);
        let map: std::collections::BTreeMap<u32, f64> =
            [(1, 0.5), (9, -3.25)].into_iter().collect();
        roundtrip(&map);
        let set: std::collections::BTreeSet<u64> = [4, 1, 9].into_iter().collect();
        roundtrip(&set);
        let dq: std::collections::VecDeque<u32> = [5, 6, 7].into_iter().collect();
        roundtrip(&dq);
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u32,
        b: f64,
        c: Vec<u8>,
    }
    snap_struct!(Demo { a, b, c });

    #[derive(Debug, PartialEq)]
    enum DemoEnum {
        Unit,
        Struct { x: u32, y: bool },
        Tuple(u64, f64),
    }
    snap_enum!(DemoEnum {
        0 => Unit,
        1 => Struct { x, y },
        2 => Tuple(a, b),
    });

    #[test]
    fn macros_roundtrip() {
        roundtrip(&Demo {
            a: 3,
            b: -0.5,
            c: vec![1, 2],
        });
        roundtrip(&DemoEnum::Unit);
        roundtrip(&DemoEnum::Struct { x: 9, y: true });
        roundtrip(&DemoEnum::Tuple(11, 2.25));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut r = SnapReader::new(&[99]);
        assert_eq!(
            DemoEnum::unsnap(&mut r),
            Err(SnapError::BadTag {
                ty: "DemoEnum",
                tag: 99
            })
        );
    }

    #[test]
    fn truncation_is_rejected() {
        let mut w = SnapWriter::new();
        0xAABB_CCDDu32.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..3]);
        assert_eq!(u32::unsnap(&mut r), Err(SnapError::Eof));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            Vec::<u8>::unsnap(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let r = SnapReader::new(&[0, 1, 2]);
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes(3)));
    }

    #[test]
    fn header_enforces_magic_and_version() {
        let mut w = SnapWriter::new();
        write_header(&mut w, 3);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(read_header(&mut r, 3), Ok(()));
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            read_header(&mut r, 4),
            Err(SnapError::BadVersion {
                found: 3,
                expected: 4
            })
        );
        let mut garbage = bytes.clone();
        garbage[0] = b'X';
        let mut r = SnapReader::new(&garbage);
        assert_eq!(read_header(&mut r, 3), Err(SnapError::BadMagic));
    }

    #[test]
    fn fingerprint_is_stable() {
        assert_eq!(fingerprint(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint(b"diknn"), fingerprint(b"diknn"));
        assert_ne!(fingerprint(b"diknn"), fingerprint(b"dikNN"));
    }
}
