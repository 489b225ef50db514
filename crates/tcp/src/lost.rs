//! The scoreboard's lost set: a bitmap over segment ordinals.
//!
//! The scoreboard numbers its segments in send order (the *ordinal*; a
//! segment keeps its ordinal for life, so a retransmission re-lost below
//! every other lost segment goes back to its old bit). Membership is one
//! bit per ordinal in a deque of 64-bit words whose first and last words
//! are never zero, so inserting, removing and reading the lowest member
//! are O(1) — no member is ever shifted, whatever order losses arrive in.

use std::collections::VecDeque;

/// Bits per bitmap word.
const WORD: u64 = 64;

/// A set of segment ordinals (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LostSet {
    /// Bit `b` of `words[i]` stands for ordinal `base + 64 i + b`.
    /// Trimmed: empty, or both ends non-zero.
    words: VecDeque<u64>,
    /// Ordinal of bit 0 of `words[0]`, a multiple of 64.
    base: u64,
}

impl LostSet {
    /// The empty set.
    pub fn new() -> LostSet {
        LostSet::default()
    }

    /// True iff no ordinal is a member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The lowest member.
    #[inline]
    pub fn first(&self) -> Option<u64> {
        let word = *self.words.front()?;
        Some(self.base + u64::from(word.trailing_zeros()))
    }

    /// Whether `ord` is a member.
    #[inline]
    pub fn contains(&self, ord: u64) -> bool {
        ord >= self.base
            && self
                .words
                .get(((ord - self.base) / WORD) as usize)
                .is_some_and(|w| w & (1 << (ord % WORD)) != 0)
    }

    /// Add `ord`, growing the bitmap at whichever end it lies beyond.
    #[inline]
    pub fn insert(&mut self, ord: u64) {
        let word_base = ord - ord % WORD;
        if self.words.is_empty() {
            self.base = word_base;
            self.words.push_back(0);
        } else if word_base < self.base {
            for _ in 0..(self.base - word_base) / WORD {
                self.words.push_front(0);
            }
            self.base = word_base;
        }
        let at = ((word_base - self.base) / WORD) as usize;
        if at >= self.words.len() {
            self.words.resize(at + 1, 0);
        }
        self.words[at] |= 1 << (ord % WORD);
    }

    /// Remove `ord` if it is a member, then trim zero words off both ends.
    #[inline]
    pub fn remove(&mut self, ord: u64) {
        if ord < self.base {
            return;
        }
        let Some(word) = self.words.get_mut(((ord - self.base) / WORD) as usize) else {
            return;
        };
        *word &= !(1 << (ord % WORD));
        while self.words.front() == Some(&0) {
            self.words.pop_front();
            self.base += WORD;
        }
        while self.words.back() == Some(&0) {
            self.words.pop_back();
        }
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let base = self.base;
        self.words.iter().enumerate().flat_map(move |(i, &word)| {
            let word_base = base + i as u64 * WORD;
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    word_base + u64::from(bit)
                })
            })
        })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Heap bytes the bitmap's allocation holds.
    pub fn memory_bytes(&self) -> u64 {
        (self.words.capacity() * std::mem::size_of::<u64>()) as u64
    }

    /// Release capacity beyond twice the words in use.
    pub fn shrink(&mut self) {
        self.words.shrink_to(self.words.len() * 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_come_back_in_order_across_words_and_ends() {
        let mut s = LostSet::new();
        for ord in [130, 5, 64, 63, 200, 129] {
            s.insert(ord);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), [5, 63, 64, 129, 130, 200]);
        assert_eq!((s.first(), s.len()), (Some(5), 6));
        assert!(s.contains(64) && !s.contains(65) && !s.contains(4));
        // Emptying the low words trims them: the first member is one read.
        for ord in [5, 63, 64] {
            s.remove(ord);
        }
        assert_eq!((s.first(), s.base, s.words.len()), (Some(129), 128, 2));
        s.remove(200);
        s.remove(200);
        assert_eq!(s.words.len(), 1, "trailing zero word trimmed");
        s.remove(129);
        s.remove(130);
        assert!(s.is_empty() && s.first().is_none());
        s.shrink();
        assert_eq!(s.memory_bytes(), 0);
    }
}
