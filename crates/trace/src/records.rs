//! The records of a [`RunTrace`](crate::RunTrace): sorted runs, merged on
//! read.
//!
//! Each recorder ring hands its delta-varint log over as one run, without
//! a copy (a log already in canonical order is read once and not sorted),
//! so a drained trace lives in memory once, at about 6 bytes a record. Readers see one time-sorted sequence of records by
//! value: [`Records::iter`] merges the runs with a loser tree over their
//! decoded heads, which costs one comparison per tree level for each
//! record it yields. Each run notes which kinds and which flow range it
//! holds, so a query for one kind or one flow merges only the runs that
//! can answer it.

use crate::event::{TraceKind, TraceRecord};
use crate::log::{LogIter, RecordLog};
use std::fmt;

/// One run and what it can hold.
#[derive(Clone)]
struct Run {
    log: RecordLog,
    /// Bit `k` is set iff some record has the kind with discriminant `k`.
    kinds: u16,
    /// Smallest and largest `flow` of any record.
    flows: (u32, u32),
}

impl Run {
    /// A run of `log`'s records, put in canonical order first if `sort`
    /// and they are out of it.
    fn new(mut log: RecordLog, sort: bool) -> Run {
        let mut kinds = 0u16;
        let mut flows = (u32::MAX, 0);
        let mut prev = None;
        let mut sorted = true;
        for r in log.iter() {
            kinds |= 1 << r.kind as u8;
            flows = (flows.0.min(r.flow), flows.1.max(r.flow));
            sorted &= prev.is_none_or(|p: TraceRecord| p.sort_key() <= r.sort_key());
            prev = Some(r);
        }
        if sort && !sorted {
            // The key is the whole record, so an unstable sort gives the
            // stable order.
            let mut recs: Vec<TraceRecord> = log.iter().collect();
            recs.sort_unstable_by_key(TraceRecord::sort_key);
            log = recs.iter().collect();
        }
        log.shrink_to_fit();
        Run { log, kinds, flows }
    }

    fn may_hold(&self, kind: Option<TraceKind>, flow: Option<u32>) -> bool {
        kind.is_none_or(|k| self.kinds & (1 << k as u8) != 0)
            && flow.is_none_or(|f| (self.flows.0..=self.flows.1).contains(&f))
    }
}

/// Every record of a trace, held as sorted runs and read in canonical
/// [`TraceRecord::sort_key`] order.
///
/// Equality, `Debug` and every reader see only the merged sequence, so two
/// traces with the same records split into different runs are equal.
#[derive(Clone, Default)]
pub struct Records {
    runs: Vec<Run>,
    len: usize,
}

impl Records {
    /// One run per log, each sorted if it is out of order; empty logs are
    /// dropped.
    pub(crate) fn from_runs(logs: impl IntoIterator<Item = RecordLog>) -> Records {
        let runs: Vec<Run> = logs
            .into_iter()
            .filter(|log| log.len() > 0)
            .map(|log| Run::new(log, true))
            .collect();
        let len = runs.iter().map(|r| r.log.len()).sum();
        Records { runs, len }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff there are no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Memory the records take: each run's log (the delta-varint bytes)
    /// and what it notes, plus the run list.
    pub fn memory_bytes(&self) -> u64 {
        let logs: u64 = self.runs.iter().map(|run| run.log.heap_bytes()).sum();
        logs + (self.runs.capacity() * std::mem::size_of::<Run>()) as u64
    }

    /// All records in canonical order.
    pub fn iter(&self) -> Iter<'_> {
        self.select(None, None)
    }

    /// The merge of only the runs that may hold records of `kind` (if
    /// given) for `flow` (if given). It can still yield other records: the
    /// caller filters.
    pub(crate) fn select(&self, kind: Option<TraceKind>, flow: Option<u32>) -> Iter<'_> {
        Iter::new(
            self.runs
                .iter()
                .filter(|run| run.may_hold(kind, flow))
                .map(|run| run.log.iter())
                .collect(),
        )
    }
}

/// A single run, in the order given: this is how a trace read back from
/// a file holds its records, so it iterates in the file's order.
impl From<Vec<TraceRecord>> for Records {
    fn from(recs: Vec<TraceRecord>) -> Records {
        let len = recs.len();
        let runs = if recs.is_empty() {
            Vec::new()
        } else {
            vec![Run::new(recs.iter().collect(), false)]
        };
        Records { runs, len }
    }
}

impl<'a> IntoIterator for &'a Records {
    type Item = TraceRecord;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl PartialEq for Records {
    fn eq(&self, other: &Records) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Records {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The k-way merge behind [`Records::iter`]: a loser tree over the runs'
/// decoded heads.
///
/// Run `i` is leaf `k + i` of an implicit binary tree whose internal
/// nodes are `1..k` (children of `n` are `2n` and `2n + 1`). Each internal
/// node keeps the loser of the match played there; `tree[0]` keeps the
/// overall winner, the run with the smallest head. After the winner's head
/// is taken, its run decodes the next one and only the matches on its path
/// to the root are replayed. Each match first compares the heads' times,
/// kept beside the tree so a match touches no record unless the times tie.
pub struct Iter<'a> {
    runs: Vec<LogIter<'a>>,
    /// Each run's next record; `None` once its run is spent.
    heads: Vec<Option<TraceRecord>>,
    /// Each head's time in nanoseconds; `u64::MAX` once its run is spent.
    times: Vec<u64>,
    tree: Vec<usize>,
    /// Records not yet yielded.
    left: usize,
}

/// The sort position of a run's head: its time, or last once spent.
#[inline]
fn head_time(head: &Option<TraceRecord>) -> u64 {
    head.map_or(u64::MAX, |r| r.time.as_nanos())
}

impl<'a> Iter<'a> {
    fn new(mut runs: Vec<LogIter<'a>>) -> Iter<'a> {
        let k = runs.len();
        let left = runs.iter().map(ExactSizeIterator::len).sum();
        // A single run needs no merge, so its head stays in the run.
        let heads: Vec<Option<TraceRecord>> = if k == 1 {
            Vec::new()
        } else {
            runs.iter_mut().map(Iterator::next).collect()
        };
        let mut it = Iter {
            times: heads.iter().map(head_time).collect(),
            heads,
            runs,
            tree: vec![0; k],
            left,
        };
        // Play the tournament bottom-up: `winner[n]` is node n's winner.
        let mut winner = vec![0; 2 * k];
        for (i, leaf) in winner[k..].iter_mut().enumerate() {
            *leaf = i;
        }
        for n in (1..k).rev() {
            let (l, r) = (winner[2 * n], winner[2 * n + 1]);
            let (win, lose) = if it.beats(r, l) { (r, l) } else { (l, r) };
            winner[n] = win;
            it.tree[n] = lose;
        }
        if k > 0 {
            it.tree[0] = winner[1];
        }
        it
    }

    /// True iff run `i`'s head comes before run `j`'s: a spent run loses
    /// to every other, and equal heads go to the lower run.
    #[inline]
    fn beats(&self, i: usize, j: usize) -> bool {
        let (ti, tj) = (self.times[i], self.times[j]);
        if ti != tj {
            return ti < tj;
        }
        match (&self.heads[i], &self.heads[j]) {
            (Some(a), Some(b)) => (a.sort_key(), i) < (b.sort_key(), j),
            (a, _) => a.is_some(),
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        if let [only] = &mut self.runs[..] {
            let rec = only.next()?;
            self.left -= 1;
            return Some(rec);
        }
        let mut win = *self.tree.first()?;
        // The winner is spent only once every run is.
        let rec = self.heads[win].take()?;
        let head = self.runs[win].next();
        self.times[win] = head_time(&head);
        self.heads[win] = head;
        self.left -= 1;
        let mut node = (win + self.runs.len()) / 2;
        while node > 0 {
            let other = self.tree[node];
            if self.beats(other, win) {
                self.tree[node] = win;
                win = other;
            }
            node /= 2;
        }
        self.tree[0] = win;
        Some(rec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}
