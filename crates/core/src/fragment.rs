//! A store of received byte-stream fragments, keyed by stream offset.
//!
//! uCOBS reassembles uTCP's out-of-order deliveries into contiguous stream
//! fragments before scanning them for records (paper §5.2): an arriving
//! chunk can create a new fragment, extend an existing fragment at either
//! end, or fill a hole and merge two fragments into one. Runs grow in place;
//! the store reports where the run holding the chunk starts, and `gaps`
//! tells the caller beforehand which of a chunk's bytes are new, so it can
//! scan only those.

use std::collections::BTreeMap;
use std::ops::Range;

/// A contiguous run of stream bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fragment {
    /// Stream offset of the first byte.
    pub offset: u64,
    /// The bytes.
    pub data: Vec<u8>,
}

impl Fragment {
    /// Offset one past the fragment's last byte.
    pub fn end(&self) -> u64 {
        self.offset + self.data.len() as u64
    }
}

/// Reassembly store for stream fragments.
#[derive(Clone, Debug, Default)]
pub struct FragmentStore {
    runs: BTreeMap<u64, Vec<u8>>,
    /// Total bytes stored.
    bytes: usize,
    /// Offset below which data has been pruned (delivered and discarded).
    pruned_below: u64,
}

impl FragmentStore {
    /// An empty store.
    pub fn new() -> Self {
        FragmentStore::default()
    }

    /// Total bytes currently stored.
    pub fn buffered_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of discontiguous fragments held.
    pub fn fragment_count(&self) -> usize {
        self.runs.len()
    }

    /// Insert a chunk at `offset`, merging it with the runs it overlaps or
    /// touches, and return the start offset of the run that now holds it
    /// (`None` if nothing at or above the pruned point was inserted). Borrow
    /// the run's bytes with [`FragmentStore::run_at`].
    ///
    /// No run is copied: the predecessor run is extended in place and the
    /// successor runs the chunk reaches are appended to it. Where the chunk
    /// overlaps stored bytes, the chunk's bytes replace them (the last
    /// arrival wins).
    pub fn insert(&mut self, offset: u64, data: &[u8]) -> Option<u64> {
        // Ignore data below the pruned point.
        let skip = self.pruned_below.saturating_sub(offset);
        if skip >= data.len() as u64 {
            return None;
        }
        let (offset, data) = (offset + skip, &data[skip as usize..]);

        let start = match self.runs.range_mut(..=offset).next_back() {
            Some((&pstart, run)) if pstart + run.len() as u64 >= offset => {
                let keep = (offset - pstart) as usize;
                let overlap = (run.len() - keep).min(data.len());
                run[keep..keep + overlap].copy_from_slice(&data[..overlap]);
                run.extend_from_slice(&data[overlap..]);
                self.bytes += data.len() - overlap;
                pstart
            }
            _ => {
                self.runs.insert(offset, data.to_vec());
                self.bytes += data.len();
                offset
            }
        };
        let mut end = start + self.runs[&start].len() as u64;
        // Not a `while let`: the range borrow must end before `remove()`.
        #[allow(clippy::while_let_loop)]
        loop {
            let Some((&sstart, _)) = self.runs.range(start + 1..=end).next() else {
                break;
            };
            let succ = self.runs.remove(&sstart).expect("key exists");
            // Successor bytes under the chunk are dropped; the rest follow.
            let covered = ((end - sstart) as usize).min(succ.len());
            self.bytes -= covered;
            let run = self.runs.get_mut(&start).expect("run inserted above");
            run.extend_from_slice(&succ[covered..]);
            end = start + run.len() as u64;
        }
        Some(start)
    }

    /// The parts of `[start, end)` at or above the pruned point that no
    /// stored run covers, in offset order: the bytes an insert of that range
    /// would add.
    pub(crate) fn gaps(&self, start: u64, end: u64) -> impl Iterator<Item = Range<u64>> + '_ {
        let mut at = start.max(self.pruned_below);
        let end = end.max(at);
        // The run reaching `at` from below, then the runs starting inside
        // (one starting at `at` comes twice; the second time yields no gap).
        let pred = self.runs.range(..=at).next_back();
        pred.into_iter()
            .chain(self.runs.range(at..end))
            .map(|(&s, run)| s..s + run.len() as u64)
            .chain(std::iter::once(end..end))
            .filter_map(move |run| {
                let gap = at..run.start;
                at = at.max(run.end);
                (gap.start < gap.end).then_some(gap)
            })
    }

    /// The fragment containing `offset`, if any.
    pub fn fragment_at(&self, offset: u64) -> Option<Fragment> {
        self.run_at(offset).map(|(start, data)| Fragment {
            offset: start,
            data: data.to_vec(),
        })
    }

    /// The start offset and bytes of the run containing `offset`, if any,
    /// borrowed rather than copied.
    pub fn run_at(&self, offset: u64) -> Option<(u64, &[u8])> {
        let (&start, data) = self.runs.range(..=offset).next_back()?;
        (offset < start + data.len() as u64).then_some((start, data.as_slice()))
    }

    /// Discard stored data below `offset` (it has been fully processed).
    pub fn prune_below(&mut self, offset: u64) {
        if offset <= self.pruned_below {
            return;
        }
        self.pruned_below = offset;
        while let Some(entry) = self.runs.first_entry() {
            let start = *entry.key();
            if start >= offset {
                break;
            }
            let mut run = entry.remove();
            let cut = ((offset - start) as usize).min(run.len());
            self.bytes -= cut;
            if cut < run.len() {
                run.drain(..cut);
                self.runs.insert(offset, run);
                break;
            }
        }
    }

    /// All fragments, in offset order.
    pub fn fragments(&self) -> Vec<Fragment> {
        self.runs
            .iter()
            .map(|(&offset, data)| Fragment {
                offset,
                data: data.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(start, end)` of the run holding `offset`.
    fn span(s: &FragmentStore, offset: u64) -> (u64, u64) {
        let (start, run) = s.run_at(offset).expect("run present");
        (start, start + run.len() as u64)
    }

    #[test]
    fn inserts_create_extend_and_merge_fragments() {
        let mut s = FragmentStore::new();
        // Create.
        assert_eq!(s.insert(100, &[1u8; 50]), Some(100));
        assert_eq!(span(&s, 100), (100, 150));
        assert_eq!(s.fragment_count(), 1);
        // Extend at the end.
        assert_eq!(s.insert(150, &[2u8; 50]), Some(100));
        assert_eq!(span(&s, 100), (100, 200));
        assert_eq!(s.fragment_count(), 1);
        // New disjoint fragment.
        assert_eq!(s.insert(300, &[3u8; 10]), Some(300));
        assert_eq!(span(&s, 300), (300, 310));
        assert_eq!(s.fragment_count(), 2);
        // Fill the hole: everything merges.
        assert_eq!(s.insert(200, &[4u8; 100]), Some(100));
        assert_eq!(span(&s, 100), (100, 310));
        assert_eq!(s.fragment_count(), 1);
        assert_eq!(s.buffered_bytes(), 210);
    }

    #[test]
    fn overlapping_inserts_do_not_duplicate_bytes() {
        let mut s = FragmentStore::new();
        s.insert(0, &[1u8; 100]);
        s.insert(50, &[2u8; 100]);
        assert_eq!(s.buffered_bytes(), 150);
        let (start, run) = s.run_at(0).unwrap();
        assert_eq!((start, run.len()), (0, 150));
        // The overlap (bytes 50..100) keeps the later arrival's bytes.
        assert!(run[..50].iter().all(|&b| b == 1));
        assert!(run[50..100].iter().all(|&b| b == 2));
        assert!(run[100..].iter().all(|&b| b == 2));
        // An insert reaching into a successor also wins the overlap, and
        // the successor's tail survives.
        s.insert(200, &[3u8; 50]);
        s.insert(140, &[4u8; 70]);
        assert_eq!(s.buffered_bytes(), 250);
        let (_, run) = s.run_at(0).unwrap();
        assert!(run[140..210].iter().all(|&b| b == 4));
        assert!(run[210..].iter().all(|&b| b == 3));
        assert_eq!(run.len(), 250);
    }

    #[test]
    fn fragment_at_misses_holes() {
        let mut s = FragmentStore::new();
        s.insert(0, &[0u8; 10]);
        s.insert(20, &[0u8; 10]);
        assert!(s.fragment_at(5).is_some());
        assert!(s.fragment_at(15).is_none());
        assert!(s.fragment_at(25).is_some());
        assert!(s.fragment_at(30).is_none());
        assert_eq!(s.run_at(5), Some((0, &[0u8; 10][..])));
        assert_eq!(s.run_at(15), None);
    }

    #[test]
    fn prune_discards_processed_data() {
        let mut s = FragmentStore::new();
        s.insert(0, &[7u8; 100]);
        s.insert(200, &[8u8; 50]);
        s.prune_below(60);
        assert_eq!(s.buffered_bytes(), 40 + 50);
        assert!(s.fragment_at(10).is_none());
        assert_eq!(s.fragment_at(60).unwrap().offset, 60);
        // Data below the prune point is ignored on later insertion.
        assert!(s.insert(0, &[9u8; 30]).is_none());
        // Data straddling the prune point is trimmed, and an insert wholly
        // inside an existing run must not lose the run's tail.
        assert_eq!(s.insert(50, &[9u8; 20]), Some(60));
        let head = s.fragment_at(60).unwrap();
        assert_eq!(head.data.len(), 40, "existing run length preserved");
        assert_eq!(head.data[39], 7, "existing tail bytes preserved");
        assert_eq!(s.buffered_bytes(), 40 + 50);
    }

    #[test]
    fn gaps_list_the_bytes_an_insert_would_add() {
        let mut s = FragmentStore::new();
        s.insert(10, &[1u8; 10]);
        s.insert(30, &[1u8; 10]);
        let gaps = |s: &FragmentStore, a, b| s.gaps(a, b).collect::<Vec<_>>();
        assert_eq!(gaps(&s, 0, 50), vec![0..10, 20..30, 40..50]);
        assert_eq!(gaps(&s, 15, 35), vec![20..30]);
        assert_eq!(gaps(&s, 12, 18), vec![]);
        assert_eq!(gaps(&s, 20, 30), vec![20..30]);
        assert_eq!(gaps(&s, 45, 45), vec![]);
        s.prune_below(25);
        assert_eq!(gaps(&s, 0, 32), vec![25..30]);
        assert_eq!(gaps(&s, 0, 20), vec![]);
    }

    #[test]
    fn fragments_listing_is_ordered() {
        let mut s = FragmentStore::new();
        s.insert(500, &[1u8; 5]);
        s.insert(100, &[2u8; 5]);
        s.insert(300, &[3u8; 5]);
        let offs: Vec<u64> = s.fragments().iter().map(|f| f.offset).collect();
        assert_eq!(offs, vec![100, 300, 500]);
    }

    #[test]
    fn empty_insert_is_ignored() {
        let mut s = FragmentStore::new();
        assert!(s.insert(10, &[]).is_none());
        assert_eq!(s.buffered_bytes(), 0);
    }
}
