//! Fenwick (binary indexed) tree over page flags.
//!
//! Access batches cover arbitrary virtual sub-ranges; to split a batch's
//! traffic between tiers the machine needs "how many pages of `[lo, hi)`
//! are DRAM-resident" in O(log n), with O(log n) updates as pages migrate.
//!
//! The inverse query, *select* ("which page holds the `r`-th set flag"),
//! is one O(log n) descent from the top power of two ([`select_by`]). It
//! works on any node function shaped like a Fenwick tree, so the region
//! residency indices descend on combinations of equal-length trees (NVM
//! is `mapped - dram - ssd`, unmapped is `lowbit(i) - mapped`) without
//! materialising a tree per tier.

/// A Fenwick tree of 0/1 page flags with prefix-sum range queries.
#[derive(Debug, Clone)]
pub struct FlagTree {
    tree: Vec<u32>,
    flags: Vec<bool>,
}

impl FlagTree {
    /// Creates a tree over `n` pages, all flags clear.
    pub fn new(n: usize) -> FlagTree {
        FlagTree {
            tree: vec![0; n + 1],
            flags: vec![false; n],
        }
    }

    /// Number of pages tracked.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the tree tracks zero pages.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Current flag of page `i`.
    pub fn get(&self, i: usize) -> bool {
        self.flags[i]
    }

    /// Sets page `i`'s flag, updating sums; idempotent.
    pub fn set(&mut self, i: usize, value: bool) {
        if self.flags[i] == value {
            return;
        }
        self.flags[i] = value;
        let delta: i64 = if value { 1 } else { -1 };
        let mut idx = i + 1;
        while idx < self.tree.len() {
            self.tree[idx] = (self.tree[idx] as i64 + delta) as u32;
            idx += idx & idx.wrapping_neg();
        }
    }

    /// Fenwick node `idx` (1-based): the set flags among pages
    /// `[idx - lowbit(idx), idx)`.
    pub(crate) fn node(&self, idx: usize) -> u64 {
        self.tree[idx] as u64
    }

    /// Set flags among pages `[0, idx)`.
    fn prefix(&self, idx: usize) -> u64 {
        prefix_by(idx, |i| self.node(i))
    }

    /// Number of set flags among pages `[lo, hi)`.
    pub fn count_range(&self, lo: usize, hi: usize) -> u64 {
        if hi <= lo {
            return 0;
        }
        let hi = hi.min(self.flags.len());
        self.prefix(hi) - self.prefix(lo)
    }

    /// Total set flags.
    pub fn count(&self) -> u64 {
        self.prefix(self.flags.len())
    }

    /// Index of the first set flag in `[lo, len)`, or `None`. O(log n):
    /// one select descent for the rank just past `prefix(lo)` — the
    /// region tracker walks its candidate index with this instead of
    /// scanning pages.
    pub fn first_set_in(&self, lo: usize) -> Option<usize> {
        let n = self.flags.len();
        if lo >= n {
            return None;
        }
        select_by(n, self.prefix(lo) + 1, |i| self.node(i))
    }
}

/// Prefix sum `[0, idx)` over a Fenwick-shaped node function.
pub(crate) fn prefix_by(mut idx: usize, node: impl Fn(usize) -> u64) -> u64 {
    let mut s = 0u64;
    while idx > 0 {
        s += node(idx);
        idx -= idx & idx.wrapping_neg();
    }
    s
}

/// Index of the page holding the `rank`-th (1-based) unit of a
/// Fenwick-shaped node function over `n` pages, or `None` when the total
/// is below `rank`. Binary lifting: from the top power of two, step
/// right over every node whose sum still falls short of the rank, so
/// the walk ends on the last index whose prefix is below it.
pub(crate) fn select_by(n: usize, rank: u64, node: impl Fn(usize) -> u64) -> Option<usize> {
    if n == 0 || rank == 0 {
        return None;
    }
    let (mut pos, mut rem) = (0usize, rank);
    let mut step = 1usize << n.ilog2();
    while step > 0 {
        let next = pos + step;
        if next <= n {
            let v = node(next);
            if v < rem {
                pos = next;
                rem -= v;
            }
        }
        step >>= 1;
    }
    (pos < n).then_some(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_count() {
        let mut t = FlagTree::new(10);
        t.set(2, true);
        t.set(5, true);
        t.set(9, true);
        assert_eq!(t.count(), 3);
        assert_eq!(t.count_range(0, 10), 3);
        assert_eq!(t.count_range(3, 9), 1);
        assert_eq!(t.count_range(2, 3), 1);
        assert!(t.get(2));
        assert!(!t.get(3));
    }

    #[test]
    fn set_is_idempotent_and_reversible() {
        let mut t = FlagTree::new(4);
        t.set(1, true);
        t.set(1, true);
        assert_eq!(t.count(), 1);
        t.set(1, false);
        t.set(1, false);
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn empty_ranges() {
        let mut t = FlagTree::new(4);
        t.set(0, true);
        assert_eq!(t.count_range(2, 2), 0);
        assert_eq!(t.count_range(3, 1), 0);
        assert_eq!(t.count_range(0, 100), 1, "hi clamps to len");
    }

    #[test]
    fn first_set_walks_the_flags() {
        let mut t = FlagTree::new(10);
        assert_eq!(t.first_set_in(0), None);
        t.set(3, true);
        t.set(7, true);
        assert_eq!(t.first_set_in(0), Some(3));
        assert_eq!(t.first_set_in(3), Some(3));
        assert_eq!(t.first_set_in(4), Some(7));
        assert_eq!(t.first_set_in(8), None);
        assert_eq!(t.first_set_in(99), None);
    }

    #[test]
    fn select_finds_each_rank() {
        let mut t = FlagTree::new(13);
        for i in [0, 4, 5, 12] {
            t.set(i, true);
        }
        let sel = |r| select_by(t.len(), r, |i| t.node(i));
        assert_eq!(sel(0), None);
        assert_eq!(sel(1), Some(0));
        assert_eq!(sel(2), Some(4));
        assert_eq!(sel(3), Some(5));
        assert_eq!(sel(4), Some(12));
        assert_eq!(sel(5), None, "rank past the total");
        assert_eq!(select_by(0, 1, |_| 0), None);
    }

    #[test]
    fn matches_naive_on_random_ops() {
        use hemem_sim::Rng;
        let mut rng = Rng::new(99);
        let n = 257;
        let mut t = FlagTree::new(n);
        let mut naive = vec![false; n];
        for _ in 0..2_000 {
            let i = rng.gen_range(n as u64) as usize;
            let v = rng.bernoulli(0.5);
            t.set(i, v);
            naive[i] = v;
            let lo = rng.gen_range(n as u64) as usize;
            let hi = lo + rng.gen_range((n - lo) as u64 + 1) as usize;
            let expect = naive[lo..hi].iter().filter(|&&b| b).count() as u64;
            assert_eq!(t.count_range(lo, hi), expect);
        }
    }
}
