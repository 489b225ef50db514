//! Binary snapshot codec for deterministic checkpoint/restore.
//!
//! Every piece of mutable engine state — timer-wheel entries, component
//! fields, RNG streams — serializes through [`SnapWriter`] and
//! deserializes through [`SnapReader`]. The encoding is deliberately
//! boring: fixed-width little-endian integers, IEEE-754 bit patterns for
//! floats, and length-prefixed byte strings. Boring is the point — a
//! restore must reproduce the *exact* bytes of pre-snapshot state, so the
//! codec must never normalize, canonicalize, or round.
//!
//! Each type's encoding is written once. A value type implements [`Snap`]
//! (`put` and `take`); a component whose state is overlaid on one rebuilt
//! from the scenario lists its fields in one [`snap!`](crate::snap!)
//! block, which writes both its `save_state` and its `load_state`.
//!
//! Reads are total: a truncated or corrupt buffer yields a typed
//! [`SnapError`], never a panic. Higher layers (the `ccsim-resume` crate)
//! wrap these primitives in a versioned, digest-stamped container; this
//! module knows nothing about files or versions.

use crate::engine::ComponentId;
use crate::rate::Bandwidth;
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use std::collections::VecDeque;
use std::fmt;

/// A typed decode failure. Snapshot loading is driven by untrusted bytes
/// (a file that may be torn mid-write), so every failure mode is a value,
/// not a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the requested field.
    Truncated {
        /// Bytes requested by the read.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A tag, discriminant, or count field held an impossible value.
    Corrupt(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { needed, remaining } => write!(
                f,
                "snapshot truncated: needed {needed} bytes, {remaining} remaining"
            ),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Appends fixed-width fields to a growable byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// The encoded bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, yielding the encoded buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an `f64` as its exact IEEE-754 bit pattern — restore must be
    /// bit-identical, so floats are never formatted or rounded.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append a [`SimTime`] (nanoseconds since t=0).
    pub fn time(&mut self, t: SimTime) {
        self.u64(t.as_nanos());
    }

    /// Append a [`SimDuration`] (nanoseconds).
    pub fn duration(&mut self, d: SimDuration) {
        self.u64(d.as_nanos());
    }

    /// Append `Some`/`None` as a tag byte followed by the value.
    pub fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut SnapWriter, T)) {
        match v {
            Some(v) => {
                self.u8(1);
                f(self, v);
            }
            None => self.u8(0),
        }
    }

    /// Append a length-prefixed sequence.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut SnapWriter, &T)) {
        self.u64(items.len() as u64);
        for item in items {
            f(self, item);
        }
    }

    /// Append an attachment the scenario builds (a fault injector, a
    /// recorder): a presence tag, then its state. Restore rebuilds the
    /// attachment from the scenario and [`SnapReader::attached`] overlays
    /// the state in place.
    pub fn attached<T>(&mut self, att: Option<&T>, save: impl FnOnce(&T, &mut SnapWriter)) {
        self.opt(att, |w, a| save(a, w));
    }
}

/// Reads fields back out of a snapshot buffer, in write order.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True iff every byte has been consumed — loaders check this to
    /// reject trailing garbage.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn split(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.split(1)?[0])
    }

    /// Read a bool; any byte other than 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.split(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.split(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.split(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.split(8)?.try_into().unwrap()))
    }

    /// Read a `usize` written by [`SnapWriter::usize`]; rejects values
    /// that do not fit the platform's pointer width.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.usize()?;
        self.split(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| SnapError::Corrupt(format!("invalid utf-8: {e}")))
    }

    /// Read a [`SimTime`].
    pub fn time(&mut self) -> Result<SimTime, SnapError> {
        Ok(SimTime::from_nanos(self.u64()?))
    }

    /// Read a [`SimDuration`].
    pub fn duration(&mut self) -> Result<SimDuration, SnapError> {
        Ok(SimDuration::from_nanos(self.u64()?))
    }

    /// Read an option written by [`SnapWriter::opt`].
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            b => Err(SnapError::Corrupt(format!("option tag {b}"))),
        }
    }

    /// Read a sequence written by [`SnapWriter::seq`]. The element size
    /// floor (1 byte) bounds the allocation a corrupt length can demand.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut SnapReader<'a>) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(SnapError::Truncated {
                needed: len,
                remaining: self.remaining(),
            });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Read a one-byte tag naming one of `values` (the tag is the index).
    pub fn tag<T: Copy>(&mut self, what: &str, values: &[T]) -> Result<T, SnapError> {
        let b = self.u8()?;
        values
            .get(usize::from(b))
            .copied()
            .ok_or_else(|| SnapError::Corrupt(format!("{what} tag {b}")))
    }

    /// Overlay an attachment written by [`SnapWriter::attached`] onto the
    /// one the scenario built. A snapshot that has the attachment where
    /// the build has none, or the other way round, is corrupt: it belongs
    /// to another scenario.
    pub fn attached<T>(
        &mut self,
        what: &str,
        built: Option<&mut T>,
        load: impl FnOnce(&mut T, &mut SnapReader<'a>) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        match (built, self.opt(|_| Ok(()))?) {
            (Some(att), Some(())) => load(att, self),
            (None, None) => Ok(()),
            (built, saved) => Err(SnapError::Corrupt(format!(
                "{what} presence mismatch: built {}, snapshot {}",
                built.is_some(),
                saved.is_some()
            ))),
        }
    }
}

/// A type's one wire encoding. `take` reads exactly what `put` wrote, and
/// refuses (with a typed error) what no `put` can write.
pub trait Snap: Sized {
    /// Append this value.
    fn put(&self, w: &mut SnapWriter);
    /// Read a value written by [`Snap::put`].
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! snap_primitive {
    ($($ty:ty => $method:ident),* $(,)?) => {$(
        impl Snap for $ty {
            #[inline]
            fn put(&self, w: &mut SnapWriter) {
                w.$method(*self);
            }
            #[inline]
            fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$method()
            }
        }
    )*};
}

snap_primitive! {
    u8 => u8, bool => bool, u16 => u16, u32 => u32, u64 => u64, i64 => i64,
    usize => usize, f64 => f64, SimTime => time, SimDuration => duration,
}

/// Nothing on the wire (the stamp of a queue whose entries carry none).
impl Snap for () {
    fn put(&self, _w: &mut SnapWriter) {}
    fn take(_r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(())
    }
}

impl Snap for Bandwidth {
    fn put(&self, w: &mut SnapWriter) {
        w.u64(self.as_bps());
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Bandwidth::from_bps(r.u64()?))
    }
}

/// Eight bytes on the wire (the `SNAP_VERSION` 3 format); an id beyond
/// `u32` names no component and is corrupt.
impl Snap for ComponentId {
    fn put(&self, w: &mut SnapWriter) {
        w.usize(self.as_usize());
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let i = r.u64()?;
        match u32::try_from(i) {
            Ok(i) => Ok(ComponentId::from_raw(i as usize)),
            Err(_) => Err(SnapError::Corrupt(format!("component id {i}"))),
        }
    }
}

/// The generator's four state words.
impl Snap for SmallRng {
    fn put(&self, w: &mut SnapWriter) {
        self.state().put(w);
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SmallRng::from_state(Snap::take(r)?))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.opt(self.as_ref(), |w, v| v.put(w));
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.opt(T::take)
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.seq(self, |w, v| v.put(w));
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.seq(T::take)
    }
}

/// The same bytes as a `Vec` of the elements, front to back.
impl<T: Snap> Snap for VecDeque<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.put(w);
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.seq(T::take)?.into())
    }
}

/// The elements back to back, no length: `N` is part of the type.
impl<T: Snap + Copy + Default, const N: usize> Snap for [T; N] {
    fn put(&self, w: &mut SnapWriter) {
        for v in self {
            v.put(w);
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::take(r)?;
        }
        Ok(out)
    }
}

/// The fields back to back, in order.
macro_rules! snap_tuple {
    ($($ty:ident $idx:tt),+) => {
        impl<$($ty: Snap),+> Snap for ($($ty,)+) {
            fn put(&self, w: &mut SnapWriter) {
                $(self.$idx.put(w);)+
            }
            fn take(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($ty::take(r)?,)+))
            }
        }
    };
}

snap_tuple!(A 0, B 1);
snap_tuple!(A 0, B 1, C 2);
snap_tuple!(A 0, B 1, C 2, D 3, E 4);

/// Write a type's snapshot code from one list of its fields.
///
/// **A checkpointed component** (state overlaid in place on one the
/// scenario rebuilt) lists the fields it saves, and the macro writes both
/// the `save_state` and the `load_state` method from that one list, in
/// list order:
///
/// ```ignore
/// impl Link {
///     snap! {
///         /// Serialize ...
///         pub fn save_state;
///         /// Overlay ...
///         pub fn load_state then check;
///         rate, stats.arrived_pkts, burst_tail,
///         in aqm,
///         attached "fault injector" injector,
///     }
/// }
/// ```
///
/// Each entry is one of:
/// * `a.b` — a value field, through its [`Snap`] encoding;
/// * `in a.b` — a nested component, through its own `save_state` /
///   `load_state` pair (trait objects included);
/// * `attached "what" a.b` — an `Option` of a component the scenario
///   builds, through [`SnapWriter::attached`] / [`SnapReader::attached`];
///   `attached "what" via get / get_mut` reaches it through two accessor
///   methods instead.
///
/// `then check` calls `self.check()?` after the last field: the place to
/// rebuild derived state and refuse what no `save_state` writes.
///
/// **A value type** gets its [`Snap`] impl the same way:
/// `snap!(SackBlock { start, end })` lists every field of the struct (a
/// missing one fails to compile: `take` builds the struct literal), and
/// `snap!(CaState as "sender CA-state" [Open, Recovery, Loss])` writes a
/// fieldless enum as a one-byte tag, listing its variants in declaration
/// order (checked at compile time).
#[macro_export]
macro_rules! snap {
    ($ty:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn put(&self, w: &mut $crate::SnapWriter) {
                $($crate::Snap::put(&self.$f, w);)+
            }
            fn take(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                Ok($ty { $($f: $crate::Snap::take(r)?),+ })
            }
        }
    };
    ($ty:ident as $what:literal [$($v:ident),+ $(,)?]) => {
        impl $crate::Snap for $ty {
            fn put(&self, w: &mut $crate::SnapWriter) {
                w.u8(*self as u8);
            }
            fn take(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapError> {
                r.tag($what, &[$($ty::$v),+])
            }
        }
        const _: () = {
            let all = [$($ty::$v),+];
            let mut i = 0;
            while i < all.len() {
                assert!(all[i] as usize == i, "tags must list the variants in declaration order");
                i += 1;
            }
        };
    };
    (
        $(#[$save_meta:meta])*
        $save_vis:vis fn $save:ident;
        $(#[$load_meta:meta])*
        $load_vis:vis fn $load:ident $(then $check:ident)?;
        $($fields:tt)+
    ) => {
        $(#[$save_meta])*
        $save_vis fn $save(&self, w: &mut $crate::SnapWriter) {
            $crate::snap!(@put self w [$($fields)+]);
        }
        $(#[$load_meta])*
        $load_vis fn $load(
            &mut self,
            r: &mut $crate::SnapReader<'_>,
        ) -> Result<(), $crate::SnapError> {
            $crate::snap!(@take self r [$($fields)+]);
            $(self.$check()?;)?
            Ok(())
        }
    };
    (@put $s:ident $w:ident []) => {};
    (@take $s:ident $r:ident []) => {};
    (@put $s:ident $w:ident [in $f:ident $(.$p:ident)* $(, $($rest:tt)*)?]) => {
        $s.$f$(.$p)*.save_state($w);
        $crate::snap!(@put $s $w [$($($rest)*)?]);
    };
    (@take $s:ident $r:ident [in $f:ident $(.$p:ident)* $(, $($rest:tt)*)?]) => {
        $s.$f$(.$p)*.load_state($r)?;
        $crate::snap!(@take $s $r [$($($rest)*)?]);
    };
    (@put $s:ident $w:ident
        [attached $what:literal via $get:ident / $get_mut:ident $(, $($rest:tt)*)?]) => {
        $w.attached($s.$get(), |a, w| a.save_state(w));
        $crate::snap!(@put $s $w [$($($rest)*)?]);
    };
    (@take $s:ident $r:ident
        [attached $what:literal via $get:ident / $get_mut:ident $(, $($rest:tt)*)?]) => {
        $r.attached($what, $s.$get_mut(), |a, r| a.load_state(r))?;
        $crate::snap!(@take $s $r [$($($rest)*)?]);
    };
    (@put $s:ident $w:ident
        [attached $what:literal $f:ident $(.$p:ident)* $(, $($rest:tt)*)?]) => {
        $w.attached($s.$f$(.$p)*.as_ref(), |a, w| a.save_state(w));
        $crate::snap!(@put $s $w [$($($rest)*)?]);
    };
    (@take $s:ident $r:ident
        [attached $what:literal $f:ident $(.$p:ident)* $(, $($rest:tt)*)?]) => {
        $r.attached($what, $s.$f$(.$p)*.as_mut(), |a, r| a.load_state(r))?;
        $crate::snap!(@take $s $r [$($($rest)*)?]);
    };
    (@put $s:ident $w:ident [$f:ident $(.$p:ident)* $(, $($rest:tt)*)?]) => {
        $crate::Snap::put(&$s.$f$(.$p)*, $w);
        $crate::snap!(@put $s $w [$($($rest)*)?]);
    };
    (@take $s:ident $r:ident [$f:ident $(.$p:ident)* $(, $($rest:tt)*)?]) => {
        $s.$f$(.$p)* = $crate::Snap::take($r)?;
        $crate::snap!(@take $s $r [$($($rest)*)?]);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.usize(123_456);
        w.f64(-0.1);
        w.bytes(b"abc");
        w.str("héllo");
        w.time(SimTime::from_nanos(99));
        w.duration(SimDuration::from_nanos(100));
        w.opt(Some(5u64), |w, v| w.u64(v));
        w.opt::<u64>(None, |w, v| w.u64(v));
        w.seq(&[1u32, 2, 3], |w, &v| w.u32(v));

        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.time().unwrap(), SimTime::from_nanos(99));
        assert_eq!(r.duration().unwrap(), SimDuration::from_nanos(100));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(5));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        assert_eq!(r.seq(|r| r.u32()).unwrap(), vec![1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = SnapWriter::new();
        w.u64(5);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..4]);
        assert_eq!(
            r.u64(),
            Err(SnapError::Truncated {
                needed: 8,
                remaining: 4
            })
        );
    }

    #[test]
    fn corrupt_tags_are_typed_errors() {
        let mut r = SnapReader::new(&[9]);
        assert!(matches!(r.bool(), Err(SnapError::Corrupt(_))));
        let mut r = SnapReader::new(&[9, 0]);
        assert!(matches!(r.opt(|r| r.u8()), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn corrupt_sequence_length_does_not_overallocate() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // absurd element count
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            r.seq(|r| r.u8()),
            Err(SnapError::Truncated { .. }) | Err(SnapError::Corrupt(_))
        ));
    }

    type Mixed = (
        Option<u32>,
        Vec<u8>,
        VecDeque<SimTime>,
        [(u64, bool); 2],
        Bandwidth,
    );

    #[test]
    fn snap_values_write_what_the_primitives_write() {
        let v: Mixed = (
            Some(7),
            vec![1, 2],
            VecDeque::from([SimTime::from_nanos(3)]),
            [(4, true), (5, false)],
            Bandwidth::from_bps(6),
        );
        let mut w = SnapWriter::new();
        v.put(&mut w);
        let mut by_hand = SnapWriter::new();
        by_hand.opt(Some(7u32), |w, x| w.u32(x));
        by_hand.seq(&[1u8, 2], |w, &x| w.u8(x));
        by_hand.seq(&[SimTime::from_nanos(3)], |w, &t| w.time(t));
        for (a, b) in [(4, true), (5, false)] {
            by_hand.u64(a);
            by_hand.bool(b);
        }
        by_hand.u64(6);
        assert_eq!(w.as_bytes(), by_hand.as_bytes());
        let mut r = SnapReader::new(w.as_bytes());
        assert!(Snap::take(&mut r) == Ok(v));
        assert!(r.is_exhausted());
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Light {
        Red,
        Green,
    }
    snap!(Light as "light" [Red, Green]);

    #[derive(Default)]
    struct Inner {
        n: u64,
    }
    impl Inner {
        snap! {
            fn save_state;
            fn load_state;
            n,
        }
    }

    #[derive(Default)]
    struct Counts {
        seen: u32,
    }

    #[derive(Default)]
    struct Outer {
        light: Option<Light>,
        counts: Counts,
        inner: Inner,
        att: Option<Inner>,
        config: u64,
    }
    impl Outer {
        snap! {
            fn save_state;
            fn load_state then check;
            light, counts.seen, in inner, attached "inner copy" att,
        }
        fn check(&self) -> Result<(), SnapError> {
            match self.counts.seen {
                99 => Err(SnapError::Corrupt("99 seen".into())),
                _ => Ok(()),
            }
        }
    }

    #[test]
    fn one_field_list_writes_both_directions() {
        let a = Outer {
            light: Some(Light::Green),
            counts: Counts { seen: 3 },
            inner: Inner { n: 4 },
            att: Some(Inner { n: 5 }),
            config: 6,
        };
        let mut w = SnapWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2 + 4 + 8 + 1 + 8);
        let mut b = Outer {
            att: Some(Inner::default()),
            ..Outer::default()
        };
        b.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(
            (b.light, b.counts.seen, b.inner.n),
            (Some(Light::Green), 3, 4)
        );
        assert_eq!((b.att.map(|i| i.n), b.config), (Some(5), 0));

        // A build without the attachment refuses a snapshot that has it.
        let err = Outer::default().load_state(&mut SnapReader::new(&bytes));
        assert_eq!(
            err,
            Err(SnapError::Corrupt(
                "inner copy presence mismatch: built false, snapshot true".into()
            ))
        );
        // The check runs after the last field; a bad tag is typed.
        let mut seen_99 = bytes.clone();
        seen_99[2..6].copy_from_slice(&99u32.to_le_bytes());
        let mut c = Outer {
            att: Some(Inner::default()),
            ..Outer::default()
        };
        assert!(c.load_state(&mut SnapReader::new(&seen_99)).is_err());
        let mut bad_tag = bytes.clone();
        bad_tag[1] = 2;
        assert_eq!(
            c.load_state(&mut SnapReader::new(&bad_tag)),
            Err(SnapError::Corrupt("light tag 2".into()))
        );
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_0001);
        let mut w = SnapWriter::new();
        w.f64(weird);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.f64().unwrap().to_bits(), weird.to_bits());
    }
}
