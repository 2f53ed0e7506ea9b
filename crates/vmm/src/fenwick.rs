//! Fenwick (binary indexed) tree over word-packed page flags.
//!
//! Access batches cover arbitrary virtual sub-ranges; to split a batch's
//! traffic between tiers the machine needs "how many pages of `[lo, hi)`
//! are DRAM-resident" in O(log n), with O(log n) updates as pages migrate.
//!
//! Flags are packed 64 per `u64` word, and the Fenwick tree sums per-word
//! popcounts, so a prefix is a word-level walk plus one masked popcount.
//! The inverse query, *select* ("which page holds the `r`-th set flag"),
//! is one word-level descent from the top power of two ([`select_by`])
//! followed by a select inside the landing word ([`select_in_word`]). It
//! works on any (node, word) pair shaped like this tree, so the region
//! residency indices descend on combinations of equal-length trees (NVM
//! is `mapped - dram - ssd` per node and `mapped & !dram & !ssd` per
//! word) without materialising a tree per tier.

/// Pages per packed word.
pub(crate) const WORD_BITS: usize = 64;

/// A Fenwick tree of 0/1 page flags with prefix-sum range queries.
#[derive(Debug, Clone)]
pub struct FlagTree {
    /// Node `i` (1-based) counts the set flags in words
    /// `[i - lowbit(i), i)`. Both arrays are fixed at construction;
    /// boxed slices keep the header at the per-page tree's 48 bytes.
    tree: Box<[u32]>,
    words: Box<[u64]>,
    len: usize,
    /// Set flags overall, so [`FlagTree::count`] is O(1).
    total: u64,
}

impl FlagTree {
    /// Creates a tree over `n` pages, all flags clear.
    pub fn new(n: usize) -> FlagTree {
        let words = n.div_ceil(WORD_BITS);
        FlagTree {
            tree: vec![0; words + 1].into(),
            words: vec![0; words].into(),
            len: n,
            total: 0,
        }
    }

    /// Builds a tree over `n` pages from packed flag words (page `i` is
    /// bit `i % 64` of word `i / 64`) in one O(words) pass.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not `n.div_ceil(64)` long or sets a bit at or
    /// past `n`.
    pub(crate) fn from_words(n: usize, words: Vec<u64>) -> FlagTree {
        assert_eq!(
            words.len(),
            n.div_ceil(WORD_BITS),
            "word count for {n} pages"
        );
        assert_eq!(
            words
                .last()
                .map_or(0, |&w| w & !valid_bits(n, words.len() - 1)),
            0,
            "flag set past page {n}"
        );
        let mut tree = vec![0u32; words.len() + 1];
        for (w, &x) in words.iter().enumerate() {
            tree[w + 1] = x.count_ones();
        }
        for i in 1..tree.len() {
            let parent = i + (i & i.wrapping_neg());
            if parent < tree.len() {
                tree[parent] += tree[i];
            }
        }
        let total = words.iter().map(|w| w.count_ones() as u64).sum();
        FlagTree {
            tree: tree.into(),
            words: words.into(),
            len: n,
            total,
        }
    }

    /// Number of pages tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree tracks zero pages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current flag of page `i`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "page {i} past {}", self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Sets page `i`'s flag, updating sums; idempotent.
    pub fn set(&mut self, i: usize, value: bool) {
        if self.get(i) == value {
            return;
        }
        self.words[i / WORD_BITS] ^= 1 << (i % WORD_BITS);
        let delta = if value { 1 } else { -1 };
        self.total = self.total.wrapping_add_signed(delta);
        let mut idx = i / WORD_BITS + 1;
        while idx < self.tree.len() {
            self.tree[idx] = self.tree[idx].wrapping_add_signed(delta as i32);
            idx += idx & idx.wrapping_neg();
        }
    }

    /// Fenwick node `idx` (1-based): the set flags among words
    /// `[idx - lowbit(idx), idx)`.
    pub(crate) fn node(&self, idx: usize) -> u64 {
        self.tree[idx] as u64
    }

    /// Packed flags of pages `[64 w, 64 w + 64)`; bits past `len` are
    /// clear.
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Number of packed words, `len.div_ceil(64)`.
    pub(crate) fn word_len(&self) -> usize {
        self.words.len()
    }

    /// Number of set flags among pages `[lo, hi)`.
    pub fn count_range(&self, lo: usize, hi: usize) -> u64 {
        let hi = hi.min(self.len);
        if hi <= lo {
            return 0;
        }
        let (first, last) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
        if first == last {
            // One word (every range of a <= 64-page tree): no walk.
            let span = low_bits((hi - 1) % WORD_BITS + 1) & !low_bits(lo % WORD_BITS);
            return (self.words[first] & span).count_ones() as u64;
        }
        self.prefix(hi) - self.prefix(lo)
    }

    /// Set flags among pages `[0, idx)`.
    fn prefix(&self, idx: usize) -> u64 {
        rank_by(idx, |i| self.node(i), |w| self.word(w))
    }

    /// Total set flags.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Index of the first set flag in `[lo, len)`, or `None`. The word
    /// holding `lo` answers most calls; otherwise one word-level select
    /// descent finds the first set word past it — the region tracker
    /// walks its candidate index with this instead of scanning pages.
    pub fn first_set_in(&self, lo: usize) -> Option<usize> {
        if lo >= self.len {
            return None;
        }
        let w = lo / WORD_BITS;
        let here = self.words[w] & !low_bits(lo % WORD_BITS);
        if here != 0 {
            return Some(w * WORD_BITS + here.trailing_zeros() as usize);
        }
        let rank = prefix_by(w + 1, |i| self.node(i)) + 1;
        select_bits(self.words.len(), rank, |i| self.node(i), |w| self.word(w))
    }
}

/// Mask of the low `b` bits, `b <= 64`.
pub(crate) fn low_bits(b: usize) -> u64 {
    if b >= WORD_BITS {
        u64::MAX
    } else {
        (1 << b) - 1
    }
}

/// Mask of word `w`'s bits that fall below page `n`.
pub(crate) fn valid_bits(n: usize, w: usize) -> u64 {
    low_bits(n.saturating_sub(w * WORD_BITS))
}

/// Prefix sum over words `[0, idx)` of a Fenwick-shaped node function.
pub(crate) fn prefix_by(mut idx: usize, node: impl Fn(usize) -> u64) -> u64 {
    let mut s = 0u64;
    while idx > 0 {
        s += node(idx);
        idx -= idx & idx.wrapping_neg();
    }
    s
}

/// Set bits among pages `[0, idx)` of a word-packed (node, word) pair:
/// the word-level prefix plus the partial word's popcount.
pub(crate) fn rank_by(idx: usize, node: impl Fn(usize) -> u64, word: impl Fn(usize) -> u64) -> u64 {
    let (w, b) = (idx / WORD_BITS, idx % WORD_BITS);
    let partial = if b == 0 {
        0
    } else {
        (word(w) & low_bits(b)).count_ones() as u64
    };
    prefix_by(w, node) + partial
}

/// The word holding the `rank`-th (1-based) unit of a Fenwick-shaped
/// node function over `n` words, with the rank left inside that word
/// (1-based), or `None` when the total is below `rank`. Binary lifting:
/// from the top power of two, step right over every node whose sum still
/// falls short of the rank, so the walk ends on the last word whose
/// prefix is below it.
pub(crate) fn select_by(n: usize, rank: u64, node: impl Fn(usize) -> u64) -> Option<(usize, u64)> {
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
    (pos < n).then_some((pos, rem))
}

/// Page holding the `rank`-th (1-based) set bit of a word-packed
/// (node, word) pair over `n` words: the word-level descent, then a
/// select inside the landing word for the rank it leaves.
pub(crate) fn select_bits(
    n: usize,
    rank: u64,
    node: impl Fn(usize) -> u64,
    word: impl Fn(usize) -> u64,
) -> Option<usize> {
    let (w, rem) = select_by(n, rank, node)?;
    Some(w * WORD_BITS + select_in_word(word(w), rem as u32 - 1) as usize)
}

/// Position of the `r`-th (0-based) set bit of `x`; `r` must be below
/// `x.count_ones()`. Broadword: one multiply turns byte popcounts into
/// running sums, the bytes whose running sum is still `<= r` are the
/// bytes wholly before the bit, and a table finds it inside its byte.
pub(crate) fn select_in_word(x: u64, r: u32) -> u32 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    debug_assert!(r < x.count_ones(), "rank {r} past popcount of {x:#x}");
    let mut s = x - ((x >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    // Byte i: set bits in bytes 0..=i (at most 64, so no carries).
    let sums = s.wrapping_mul(ONES);
    // Byte i's high bit survives iff r >= its running sum.
    let before = (((r as u64 * ONES) | HIGHS) - sums) & HIGHS;
    let shift = before.count_ones() * 8;
    let seen = ((sums << 8) >> shift) as u8;
    let byte = (x >> shift) as u8;
    shift + SELECT_IN_BYTE[byte as usize][(r - seen as u32) as usize] as u32
}

/// `SELECT_IN_BYTE[b][r]`: position of the `r`-th set bit of byte `b`.
const SELECT_IN_BYTE: [[u8; 8]; 256] = {
    let mut t = [[0u8; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let (mut i, mut r) = (0, 0);
        while i < 8 {
            if (b >> i) & 1 == 1 {
                t[b][r] = i as u8;
                r += 1;
            }
            i += 1;
        }
        b += 1;
    }
    t
};

/// One residency class's ranks over a page range `[lo, hi)`, resolved
/// once per 64-page word: the class pages of the range before each word,
/// and each word's class bits masked to the range. A draw of the `k`-th
/// page is then a binary search over a few in-cache ranks plus one
/// select in a word, instead of a descent over the whole region's tree.
/// The buffers are reused by every [`RankTable::fill`].
#[derive(Debug, Clone, Default)]
pub struct RankTable {
    first_word: usize,
    before: Vec<u64>,
    bits: Vec<u64>,
    total: u64,
}

impl RankTable {
    /// Resolves the class whose packed word `w` is `word(w)` over pages
    /// `[lo, hi)`, replacing whatever the table held.
    pub fn fill(&mut self, lo: u64, hi: u64, word: impl Fn(usize) -> u64) {
        self.before.clear();
        self.bits.clear();
        self.total = 0;
        if hi <= lo {
            return;
        }
        let (lo, hi) = (lo as usize, hi as usize);
        let (first, last) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
        self.first_word = first;
        for w in first..=last {
            let mut bits = word(w);
            if w == first {
                bits &= !low_bits(lo % WORD_BITS);
            }
            if w == last {
                bits &= low_bits((hi - 1) % WORD_BITS + 1);
            }
            self.before.push(self.total);
            self.bits.push(bits);
            self.total += bits.count_ones() as u64;
        }
    }

    /// Class pages in the range.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Index of the `k`-th (0-based) class page of the range, or `None`
    /// if fewer than `k + 1` exist.
    pub fn select(&self, k: u64) -> Option<u64> {
        if k >= self.total {
            return None;
        }
        // The last word whose rank base is still <= k holds the page
        // (empty words before it share its base; those after exceed k).
        let j = self.before.partition_point(|&b| b <= k) - 1;
        let bit = select_in_word(self.bits[j], (k - self.before[j]) as u32);
        Some(((self.first_word + j) * WORD_BITS) as u64 + bit as u64)
    }
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
        let mut t = FlagTree::new(200);
        assert_eq!(t.first_set_in(0), None);
        t.set(3, true);
        t.set(7, true);
        t.set(150, true);
        assert_eq!(t.first_set_in(0), Some(3));
        assert_eq!(t.first_set_in(3), Some(3));
        assert_eq!(t.first_set_in(4), Some(7));
        assert_eq!(t.first_set_in(8), Some(150), "across empty words");
        assert_eq!(t.first_set_in(151), None);
        assert_eq!(t.first_set_in(999), None);
    }

    #[test]
    fn select_finds_each_rank() {
        let mut t = FlagTree::new(200);
        for i in [0, 4, 5, 63, 64, 199] {
            t.set(i, true);
        }
        let sel = |r| select_bits(t.word_len(), r, |i| t.node(i), |w| t.word(w));
        assert_eq!(sel(0), None);
        assert_eq!(sel(1), Some(0));
        assert_eq!(sel(2), Some(4));
        assert_eq!(sel(3), Some(5));
        assert_eq!(sel(4), Some(63));
        assert_eq!(sel(5), Some(64));
        assert_eq!(sel(6), Some(199));
        assert_eq!(sel(7), None, "rank past the total");
        assert_eq!(select_by(0, 1, |_| 0), None);
    }

    #[test]
    fn select_in_word_matches_a_bit_loop() {
        let mut rng = hemem_sim::Rng::new(5);
        for _ in 0..2_000 {
            let x = rng.next_u64() & rng.next_u64();
            let mut y = x;
            for r in 0..x.count_ones() {
                assert_eq!(select_in_word(x, r), y.trailing_zeros(), "{x:#x} rank {r}");
                y &= y - 1;
            }
        }
        assert_eq!(select_in_word(u64::MAX, 63), 63);
        assert_eq!(select_in_word(1 << 63, 0), 63);
    }

    #[test]
    fn from_words_matches_sets() {
        let mut rng = hemem_sim::Rng::new(3);
        for n in [0, 1, 63, 64, 65, 300] {
            let mut t = FlagTree::new(n);
            for _ in 0..n {
                t.set(rng.gen_range(n as u64) as usize, true);
            }
            let words = (0..t.word_len()).map(|w| t.word(w)).collect();
            let u = FlagTree::from_words(n, words);
            assert_eq!(u.count(), t.count());
            assert_eq!(u.tree, t.tree, "{n} pages");
        }
    }

    #[test]
    fn rank_table_selects_within_its_range() {
        let mut t = FlagTree::new(200);
        for i in [2, 10, 64, 70, 130, 199] {
            t.set(i, true);
        }
        let mut table = RankTable::default();
        table.fill(10, 131, |w| t.word(w));
        assert_eq!(table.total(), 4);
        let picks: Vec<_> = (0..5).map(|k| table.select(k)).collect();
        assert_eq!(picks, [Some(10), Some(64), Some(70), Some(130), None]);
        table.fill(5, 5, |w| t.word(w));
        assert_eq!(table.select(0), None, "empty range");
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
