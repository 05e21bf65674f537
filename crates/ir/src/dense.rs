//! Dense tables for the compile passes.
//!
//! Every pass that groups items by a small integer key (a task's chunk, a
//! slot's endpoint, a writer's rank) builds its groups the same way: gather
//! `(row, item)` pairs, count the items of each row, turn the counts into
//! offsets, and place each item at its row's cursor. That counting sort
//! keeps arrival order inside a row, costs two passes over the pairs, and
//! uses one offset table and one item arena instead of one `Vec` per row or
//! one hash map per group. A pass that groups many small subsets (each
//! chunk's writers by rank, each rank's slots by endpoint) refills one
//! table over the whole key space.

/// Compressed sparse rows: one flat item arena plus row offsets, so a row
/// read is a bounds check and a slice, with no per-row allocation.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// A table with no rows, to be [refilled](Self::refill).
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            items: Vec::new(),
        }
    }

    /// Group `(row, item)` pairs into `n_rows` rows by a counting sort. Items
    /// of one row keep the order in which `pairs` yields them. `pairs` is
    /// walked twice (once to count, once to place).
    pub fn from_pairs<I>(n_rows: usize, pairs: I) -> Self
    where
        I: Iterator<Item = (u32, T)> + Clone,
    {
        let mut csr = Self::new();
        csr.refill(n_rows, pairs);
        csr
    }

    /// [`Self::from_pairs`] into this table, reusing its allocations: one
    /// table serves every chunk, rank or sub-pipeline a pass groups.
    pub fn refill<I>(&mut self, n_rows: usize, pairs: I)
    where
        I: Iterator<Item = (u32, T)> + Clone,
    {
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(n_rows + 1, 0);
        for (row, _) in pairs.clone() {
            offsets[row as usize + 1] += 1;
        }
        for i in 0..n_rows {
            offsets[i + 1] += offsets[i];
        }
        self.items.clear();
        if let Some((_, first)) = pairs.clone().next() {
            // Every slot is overwritten below; `first` only initializes.
            self.items.resize(offsets[n_rows] as usize, first);
            // `offsets[row]` is the row's cursor: it ends at the row's end,
            // which is where the next row starts.
            for (row, item) in pairs {
                let at = &mut offsets[row as usize];
                self.items[*at as usize] = item;
                *at += 1;
            }
            offsets.copy_within(..n_rows, 1);
            offsets[0] = 0;
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Every item, row after row.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Keep only the items for which `keep(row, item)` holds, compacting
    /// in place. Rows keep their order and their items' order; a row that
    /// loses every item stays, empty.
    pub fn retain(&mut self, mut keep: impl FnMut(usize, T) -> bool) {
        let (mut write, mut start) = (0, 0);
        for row in 0..self.n_rows() {
            let end = self.offsets[row + 1] as usize;
            for read in start..end {
                let item = self.items[read];
                if keep(row, item) {
                    self.items[write] = item;
                    write += 1;
                }
            }
            start = end;
            self.offsets[row + 1] = write as u32;
        }
        self.items.truncate(write);
    }
}

impl<T: Copy> Default for Csr<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_counting_sort_keeps_arrival_order() {
        let pairs = [(2u32, 'a'), (0, 'b'), (2, 'c'), (0, 'd'), (3, 'e')];
        let csr = Csr::from_pairs(4, pairs.iter().copied());
        assert_eq!(csr.n_rows(), 4);
        assert_eq!(csr.row(0), &['b', 'd']);
        assert!(csr.row(1).is_empty());
        assert_eq!(csr.row(2), &['a', 'c']);
        assert_eq!(csr.row(3), &['e']);
        assert_eq!(csr.items(), &['b', 'd', 'a', 'c', 'e']);
        let empty = Csr::<u32>::from_pairs(3, std::iter::empty());
        assert!((0..3).all(|i| empty.row(i).is_empty()));
    }

    #[test]
    fn retain_keeps_row_order_and_first_occurrences() {
        let pairs = [(0u32, 5u32), (0, 7), (0, 5), (1, 4), (2, 9), (2, 9), (2, 1)];
        let mut csr = Csr::from_pairs(4, pairs.iter().copied());
        // Drop repeated items within a row, keeping first occurrences, and
        // every item of row 1.
        let mut seen = Vec::new();
        csr.retain(|row, v| {
            if row == 1 || seen.contains(&(row, v)) {
                return false;
            }
            seen.push((row, v));
            true
        });
        assert_eq!(csr.n_rows(), 4);
        assert_eq!(csr.row(0), &[5, 7]);
        assert!(csr.row(1).is_empty() && csr.row(3).is_empty());
        assert_eq!(csr.row(2), &[9, 1]);
        assert_eq!(csr.items(), &[5, 7, 9, 1]);
    }

    #[test]
    fn refill_reuses_the_table() {
        let mut csr = Csr::from_pairs(3, [(2u32, 1u32), (0, 2), (2, 3)].iter().copied());
        csr.refill(4, [(3u32, 9u32), (1, 8)].iter().copied());
        assert_eq!(csr.n_rows(), 4);
        assert!(csr.row(0).is_empty() && csr.row(2).is_empty());
        assert_eq!((csr.row(1), csr.row(3)), (&[8][..], &[9][..]));
        csr.refill(2, std::iter::empty());
        assert_eq!(csr.n_rows(), 2);
        assert!(csr.row(0).is_empty() && csr.row(1).is_empty());
    }
}
