//! The residency index as it was before flags were packed 64 per word:
//! a `Vec<bool>` beside a Fenwick tree with one `u32` node per page, and
//! the region's order-statistics queries as per-page Fenwick
//! combinations. The equivalence proptests run it side by side with the
//! packed [`hemem_vmm::FlagTree`] and `Region`; each uses part of it.
#![allow(dead_code)]

use proptest::prelude::*;

use hemem_vmm::{PageState, Region, Tier};

/// The per-page `FlagTree`, copied from before the packing.
#[derive(Debug, Clone)]
pub struct OldFlagTree {
    tree: Vec<u32>,
    flags: Vec<bool>,
}

impl OldFlagTree {
    pub fn new(n: usize) -> OldFlagTree {
        OldFlagTree {
            tree: vec![0; n + 1],
            flags: vec![false; n],
        }
    }

    pub fn len(&self) -> usize {
        self.flags.len()
    }

    pub fn get(&self, i: usize) -> bool {
        self.flags[i]
    }

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

    pub fn node(&self, idx: usize) -> u64 {
        self.tree[idx] as u64
    }

    fn prefix(&self, idx: usize) -> u64 {
        prefix_by(idx, |i| self.node(i))
    }

    pub fn count_range(&self, lo: usize, hi: usize) -> u64 {
        if hi <= lo {
            return 0;
        }
        let hi = hi.min(self.flags.len());
        self.prefix(hi) - self.prefix(lo)
    }

    pub fn count(&self) -> u64 {
        self.prefix(self.flags.len())
    }

    pub fn first_set_in(&self, lo: usize) -> Option<usize> {
        let n = self.flags.len();
        if lo >= n {
            return None;
        }
        select_by(n, self.prefix(lo) + 1, |i| self.node(i))
    }
}

fn prefix_by(mut idx: usize, node: impl Fn(usize) -> u64) -> u64 {
    let mut s = 0u64;
    while idx > 0 {
        s += node(idx);
        idx -= idx & idx.wrapping_neg();
    }
    s
}

fn select_by(n: usize, rank: u64, node: impl Fn(usize) -> u64) -> Option<usize> {
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

/// A region's DRAM, SSD and mapped indices as per-page trees, rebuilt
/// from its page states.
pub struct OldIndex {
    dram: OldFlagTree,
    ssd: OldFlagTree,
    mapped: OldFlagTree,
}

/// Residency class of an order-statistics query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Unmapped,
    Dram,
    Nvm,
    Ssd,
}

pub const KINDS: [Kind; 4] = [Kind::Unmapped, Kind::Dram, Kind::Nvm, Kind::Ssd];

/// Tree and region lengths on both sides of the 64-page word edges, plus
/// one long one.
pub fn edge_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(127usize),
        Just(128usize),
        Just(4097usize),
    ]
}

impl OldIndex {
    pub fn of(r: &Region) -> OldIndex {
        let n = r.page_count() as usize;
        let mut idx = OldIndex {
            dram: OldFlagTree::new(n),
            ssd: OldFlagTree::new(n),
            mapped: OldFlagTree::new(n),
        };
        for i in 0..n {
            if let PageState::Mapped { tier, .. } = r.state(i as u64) {
                idx.mapped.set(i, true);
                idx.dram.set(i, tier == Tier::Dram);
                idx.ssd.set(i, tier == Tier::Ssd);
            }
        }
        idx
    }

    /// `Region::kth_*_page_in` as the per-page combination computed it.
    pub fn kth(&self, kind: Kind, lo: u64, hi: u64, k: u64) -> Option<u64> {
        match kind {
            Kind::Dram => self.kth_by(lo, hi, k, |i| self.dram.node(i)),
            Kind::Ssd => self.kth_by(lo, hi, k, |i| self.ssd.node(i)),
            Kind::Nvm => self.kth_by(lo, hi, k, |i| {
                self.mapped.node(i) - self.dram.node(i) - self.ssd.node(i)
            }),
            Kind::Unmapped => self.kth_by(lo, hi, k, |i| {
                (i & i.wrapping_neg()) as u64 - self.mapped.node(i)
            }),
        }
    }

    fn kth_by(&self, lo: u64, hi: u64, k: u64, node: impl Fn(usize) -> u64) -> Option<u64> {
        let n = self.mapped.len() as u64;
        let hi = hi.min(n);
        if hi <= lo {
            return None;
        }
        let rank = prefix_by(lo as usize, &node)
            .saturating_add(k)
            .saturating_add(1);
        let p = select_by(n as usize, rank, &node)? as u64;
        (p < hi).then_some(p)
    }
}
