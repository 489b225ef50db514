//! The workspace-wide event message type.
//!
//! Every component in a ccsim network simulation exchanges [`Msg`] values:
//! packets in flight, or timer tokens a component scheduled for itself.
//! Timer *meaning* is private to each component; the engine only transports
//! the token. Cancellation is primarily real: the engine's cancellation
//! tokens (`Ctx::schedule_cancellable` / `Ctx::cancel`) unlink a pending
//! timer from the queue in O(1). The generation counter embedded here is
//! the second line of defense, guarding the one window tokens cannot —
//! an event already extracted into the current same-timestamp dispatch
//! batch when its owner re-arms — by letting the owner ignore the stale
//! generation on delivery.

use crate::packet::Packet;
use ccsim_sim::{Snap, SnapError, SnapReader, SnapWriter};

/// A timer token. The low bits conventionally encode the timer kind and the
/// high bits a generation counter, but the engine treats it as opaque.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TimerToken(pub u64);

impl TimerToken {
    /// Pack a timer kind and generation counter into one token.
    #[inline]
    pub const fn pack(kind: u16, generation: u64) -> TimerToken {
        TimerToken((generation << 16) | kind as u64)
    }

    /// The timer kind (low 16 bits).
    #[inline]
    pub const fn kind(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }

    /// The generation counter (high 48 bits).
    #[inline]
    pub const fn generation(self) -> u64 {
        self.0 >> 16
    }
}

/// The single message type flowing through the simulator.
///
/// `repr(C, u64)` gives the tag a whole word of its own, ahead of the
/// payload: 88 bytes, tag and payload on 8-byte boundaries, and
/// `Option<Msg>` the same size (`None` is a tag value no variant uses).
/// Without it the compiler keeps the tag in a niche of the packet's kind
/// byte at offset 12, and every move copies around that byte in
/// misaligned pieces whose loads straddle the stores just made: stalls on
/// store-forwarding in the dispatch loop (DESIGN.md §7 item 13).
#[derive(Copy, Clone, Debug)]
#[repr(C, u64)]
pub enum Msg {
    /// A packet arriving at a component (link, switch port, or endpoint).
    Packet(Packet),
    /// A timer the receiving component scheduled for itself.
    Timer(TimerToken),
}

/// Timer-wheel entries carry `Msg` payloads, so the queue snapshot routes
/// through this: a tag byte, then the packet or the timer token.
impl Snap for Msg {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            Msg::Packet(p) => {
                w.u8(0);
                p.put(w);
            }
            Msg::Timer(t) => {
                w.u8(1);
                w.u64(t.0);
            }
        }
    }

    fn take(r: &mut SnapReader<'_>) -> Result<Msg, SnapError> {
        match r.u8()? {
            0 => Ok(Msg::Packet(Packet::take(r)?)),
            1 => Ok(Msg::Timer(TimerToken(r.u64()?))),
            b => Err(SnapError::Corrupt(format!("msg tag {b}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trips() {
        let t = TimerToken::pack(7, 123_456);
        assert_eq!(t.kind(), 7);
        assert_eq!(t.generation(), 123_456);
    }

    #[test]
    fn token_kind_isolated_from_generation() {
        let t = TimerToken::pack(u16::MAX, 1);
        assert_eq!(t.kind(), u16::MAX);
        assert_eq!(t.generation(), 1);
        let t = TimerToken::pack(0, u64::MAX >> 16);
        assert_eq!(t.kind(), 0);
        assert_eq!(t.generation(), u64::MAX >> 16);
    }
}
