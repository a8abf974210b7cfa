//! A store of received byte-stream fragments, keyed by stream offset.
//!
//! uCOBS reassembles uTCP's out-of-order deliveries into contiguous stream
//! fragments before scanning them for records (paper §5.2): an arriving
//! chunk can create a new fragment, extend an existing fragment at either
//! end, or fill a hole and merge two fragments into one. The store reports
//! which fragment changed so the caller can rescan only the affected bytes.

use std::collections::BTreeMap;

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

    /// Insert a chunk at `offset`, merging with adjacent/overlapping data.
    /// Returns a copy of the (possibly merged and extended) fragment that now
    /// contains the chunk, for the caller to scan.
    pub fn insert(&mut self, offset: u64, data: &[u8]) -> Option<Fragment> {
        if data.is_empty() {
            return None;
        }
        // Ignore data entirely below the pruned point.
        let (offset, data) = if offset < self.pruned_below {
            let end = offset + data.len() as u64;
            if end <= self.pruned_below {
                return None;
            }
            let skip = (self.pruned_below - offset) as usize;
            (self.pruned_below, &data[skip..])
        } else {
            (offset, data)
        };

        let mut start = offset;
        let mut buf = data.to_vec();

        if let Some((&pstart, pdata)) = self.runs.range(..=start).next_back() {
            let pend = pstart + pdata.len() as u64;
            if pend >= start {
                let keep = (start - pstart) as usize;
                let mut merged = pdata[..keep].to_vec();
                merged.extend_from_slice(&buf);
                // If the existing run extends beyond the new data, keep its
                // tail too (otherwise a wholly-contained insert would lose
                // already-received bytes).
                let new_end = start + buf.len() as u64;
                if pend > new_end {
                    merged.extend_from_slice(&pdata[(new_end - pstart) as usize..]);
                }
                self.bytes -= pdata.len();
                start = pstart;
                buf = merged;
                self.runs.remove(&pstart);
            }
        }
        let mut end = start + buf.len() as u64;
        // Not a `while let`: the range borrow must end before `remove()`.
        #[allow(clippy::while_let_loop)]
        loop {
            let Some((&sstart, sdata)) = self.runs.range(start..).next() else {
                break;
            };
            if sstart > end {
                break;
            }
            let send = sstart + sdata.len() as u64;
            if send > end {
                let skip = (end - sstart) as usize;
                buf.extend_from_slice(&sdata[skip..]);
                end = send;
            }
            self.bytes -= sdata.len();
            self.runs.remove(&sstart);
        }
        self.bytes += buf.len();
        let frag = Fragment {
            offset: start,
            data: buf.clone(),
        };
        self.runs.insert(start, buf);
        Some(frag)
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
        let keys: Vec<u64> = self.runs.range(..offset).map(|(&k, _)| k).collect();
        for k in keys {
            let run = self.runs.remove(&k).expect("key exists");
            let end = k + run.len() as u64;
            self.bytes -= run.len();
            if end > offset {
                let keep = run[(offset - k) as usize..].to_vec();
                self.bytes += keep.len();
                self.runs.insert(offset, keep);
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

    #[test]
    fn inserts_create_extend_and_merge_fragments() {
        let mut s = FragmentStore::new();
        // Create.
        let f = s.insert(100, &[1u8; 50]).unwrap();
        assert_eq!((f.offset, f.end()), (100, 150));
        assert_eq!(s.fragment_count(), 1);
        // Extend at the end.
        let f = s.insert(150, &[2u8; 50]).unwrap();
        assert_eq!((f.offset, f.end()), (100, 200));
        assert_eq!(s.fragment_count(), 1);
        // New disjoint fragment.
        let f = s.insert(300, &[3u8; 10]).unwrap();
        assert_eq!((f.offset, f.end()), (300, 310));
        assert_eq!(s.fragment_count(), 2);
        // Fill the hole: everything merges.
        let f = s.insert(200, &[4u8; 100]).unwrap();
        assert_eq!((f.offset, f.end()), (100, 310));
        assert_eq!(s.fragment_count(), 1);
        assert_eq!(s.buffered_bytes(), 210);
    }

    #[test]
    fn overlapping_inserts_do_not_duplicate_bytes() {
        let mut s = FragmentStore::new();
        s.insert(0, &[1u8; 100]);
        s.insert(50, &[2u8; 100]);
        assert_eq!(s.buffered_bytes(), 150);
        let f = s.fragment_at(0).unwrap();
        assert_eq!(f.data.len(), 150);
        // Overlap keeps the earlier bytes for the overlapping region.
        assert_eq!(f.data[49], 1);
        assert_eq!(f.data[100], 2);
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
        let f = s.insert(50, &[9u8; 20]).unwrap();
        assert_eq!(f.offset, 60);
        let head = s.fragment_at(60).unwrap();
        assert_eq!(head.data.len(), 40, "existing run length preserved");
        assert_eq!(head.data[39], 7, "existing tail bytes preserved");
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
