//! Page-granular translation maps stored as extents.
//!
//! Both OS-controlled translation tables of the platform — a process
//! page table and the IOMMU — map page numbers to target page numbers.
//! Most of what they hold is a few large runs (a 64 MiB shared window is
//! 16,384 consecutive pages onto 16,384 consecutive frames), so the map
//! keeps one entry per run: start page, page count, first target page
//! and attributes. Lookups, inserts and removals keep their per-page
//! meaning; a single-page insert or removal inside a run splits it.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent<A> {
    pages: u64,
    target: u64,
    attr: A,
}

/// A map from page numbers to `(target page, attributes)`, one entry per
/// run of consecutive pages with consecutive targets.
#[derive(Debug, Clone)]
pub struct ExtentMap<A> {
    /// Start page → extent.
    runs: BTreeMap<u64, Extent<A>>,
    /// Pages mapped, summed over all extents.
    pages: u64,
}

impl<A> Default for ExtentMap<A> {
    fn default() -> Self {
        ExtentMap {
            runs: BTreeMap::new(),
            pages: 0,
        }
    }
}

impl<A: Copy> ExtentMap<A> {
    /// The target page and attributes `page` maps to.
    pub fn get(&self, page: u64) -> Option<(u64, A)> {
        let (&start, e) = self.runs.range(..=page).next_back()?;
        (page - start < e.pages).then(|| (e.target + (page - start), e.attr))
    }

    /// Maps `pages` pages from `start` onto consecutive targets from
    /// `target`, replacing whatever mapped any of them.
    pub fn insert(&mut self, start: u64, pages: u64, target: u64, attr: A) {
        if pages == 0 {
            return;
        }
        self.remove(start, pages);
        self.runs.insert(start, Extent { pages, target, attr });
        self.pages += pages;
    }

    /// Unmaps `pages` pages from `start`; unmapped pages are skipped.
    pub fn remove(&mut self, start: u64, pages: u64) {
        if pages == 0 {
            return;
        }
        let end = start + pages;
        self.split_at(start);
        self.split_at(end);
        let inside: Vec<u64> = self.runs.range(start..end).map(|(&s, _)| s).collect();
        for s in inside {
            let e = self.runs.remove(&s).expect("listed above");
            self.pages -= e.pages;
        }
    }

    /// Splits the extent that covers `page` (if any starts before it) so
    /// that one starts exactly at `page`.
    fn split_at(&mut self, page: u64) {
        let Some((&start, e)) = self.runs.range_mut(..page).next_back() else {
            return;
        };
        let head = page - start;
        if head >= e.pages {
            return;
        }
        let tail = Extent {
            pages: e.pages - head,
            target: e.target + head,
            attr: e.attr,
        };
        e.pages = head;
        self.runs.insert(page, tail);
    }

    /// Number of mapped pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Number of extents (the map's storage cost).
    #[cfg(test)]
    fn extents(&self) -> usize {
        self.runs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_page_remap_splits_a_run() {
        let mut m = ExtentMap::default();
        m.insert(100, 10, 500, true);
        m.insert(104, 1, 9, false);
        assert_eq!(m.extents(), 3);
        assert_eq!(m.pages(), 10);
        assert_eq!(m.get(103), Some((503, true)));
        assert_eq!(m.get(104), Some((9, false)));
        assert_eq!(m.get(105), Some((505, true)));
        assert_eq!(m.get(110), None);
        assert_eq!(m.get(99), None);
    }

    #[test]
    fn partial_removes_keep_the_rest() {
        let mut m = ExtentMap::default();
        m.insert(0, 8, 100, ());
        m.remove(2, 3);
        assert_eq!(m.pages(), 5);
        assert_eq!(m.get(1), Some((101, ())));
        assert_eq!(m.get(2), None);
        assert_eq!(m.get(4), None);
        assert_eq!(m.get(5), Some((105, ())));
        // Removing across a hole and past the end is fine.
        m.remove(0, 100);
        assert_eq!(m.pages(), 0);
        assert_eq!(m.extents(), 0);
    }
}
