//! Many short lists in two flat vectors.
//!
//! The router's candidate paths and the estimator's per-path resource
//! and cluster lists are all many short lists built once, one after
//! another, then read by index. [`FlatLists`] stores them back to back,
//! so adding a list allocates nothing once the vectors have grown.

/// Lists stored back to back: list `i` is `items[ends[i - 1]..ends[i]]`,
/// the first starting at 0. Items pushed since the last
/// [`FlatLists::close`] form the open list, which is not yet counted.
#[derive(Debug, Clone)]
pub(crate) struct FlatLists<T> {
    items: Vec<T>,
    ends: Vec<usize>,
}

impl<T> Default for FlatLists<T> {
    fn default() -> Self {
        FlatLists {
            items: Vec::new(),
            ends: Vec::new(),
        }
    }
}

impl<T> FlatLists<T> {
    /// Number of closed lists.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Closed list `i`.
    pub(crate) fn get(&self, i: usize) -> &[T] {
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.items[start..self.ends[i]]
    }

    /// The open list.
    pub(crate) fn open(&self) -> &[T] {
        &self.items[self.ends.last().copied().unwrap_or(0)..]
    }

    /// Appends `item` to the open list.
    pub(crate) fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Closes the open list as list [`FlatLists::len`].
    pub(crate) fn close(&mut self) {
        self.ends.push(self.items.len());
    }

    /// Drops every list, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.ends.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_read_back_in_order_including_empty_ones() {
        let mut lists = FlatLists::default();
        lists.close();
        for x in [3, 1, 4] {
            lists.push(x);
        }
        assert_eq!(lists.open(), [3, 1, 4]);
        lists.close();
        lists.push(5);
        assert_eq!(lists.len(), 2);
        assert_eq!(lists.get(0), [] as [i32; 0]);
        assert_eq!(lists.get(1), [3, 1, 4]);
        assert_eq!(lists.open(), [5]);
        lists.clear();
        assert_eq!((lists.len(), lists.open()), (0, &[] as &[i32]));
    }
}
