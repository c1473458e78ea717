//! Page-granularity distributed shared memory (DSM) model.
//!
//! Popcorn Linux implements DSM as a first-class OS abstraction so that
//! ISA-different machines observe a single, sequentially-consistent
//! address space (paper §2). The executor in this crate keeps one
//! address space directly, so what the system needs from DSM is its
//! *behavioural* model: which accesses fault, how many messages and
//! bytes cross the interconnect, and the single-writer/multiple-reader
//! invariant. Nothing in the workspace charges these counts yet: the
//! DES (`xar-desim`) prices migration without this module, and its one
//! user is the coherence property test in `tests/substrate_properties.rs`.
//!
//! The protocol is a directory-based MSI: each page has at most one
//! owner in Modified state, or any number of sharers in Shared state.

use std::collections::{HashMap, HashSet};

/// Identifies a machine participating in the DSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// Per-page directory entry.
#[derive(Debug, Clone)]
enum PageState {
    /// One writer holds the only valid copy.
    Modified(NodeId),
    /// Read-only copies at these nodes.
    Shared(HashSet<NodeId>),
}

/// Outcome of one access, for cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit a locally-valid copy (no traffic).
    pub hit: bool,
    /// Protocol messages exchanged.
    pub messages: u32,
    /// Payload bytes moved (page transfers).
    pub bytes: u64,
}

/// Aggregate statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsmStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that required remote traffic.
    pub faults: u64,
    /// Protocol messages.
    pub messages: u64,
    /// Page payload bytes moved.
    pub bytes: u64,
    /// Invalidations sent.
    pub invalidations: u64,
}

/// A directory-based MSI DSM over `nodes` machines.
#[derive(Debug)]
pub struct Dsm {
    nodes: u32,
    page_size: u64,
    directory: HashMap<u64, PageState>,
    /// Monotone per-page version, to validate coherence in tests.
    versions: HashMap<u64, u64>,
    /// Last version observed per (node, page), to detect staleness.
    observed: HashMap<(NodeId, u64), u64>,
    stats: DsmStats,
}

impl Dsm {
    /// Creates a DSM over `nodes` machines with `page_size`-byte pages.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `page_size == 0`.
    pub fn new(nodes: u32, page_size: u64) -> Self {
        assert!(nodes > 0 && page_size > 0);
        Dsm {
            nodes,
            page_size,
            directory: HashMap::new(),
            versions: HashMap::new(),
            observed: HashMap::new(),
            stats: DsmStats::default(),
        }
    }

    /// The configured page size.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> DsmStats {
        self.stats
    }

    /// Performs one access by `node` to `page`, updating directory
    /// state and returning the traffic it generated.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn access(&mut self, node: NodeId, page: u64, access: Access) -> AccessOutcome {
        assert!(node.0 < self.nodes, "node out of range");
        self.stats.accesses += 1;
        let outcome = match access {
            Access::Read => self.read(node, page),
            Access::Write => self.write(node, page),
        };
        if !outcome.hit {
            self.stats.faults += 1;
        }
        self.stats.messages += outcome.messages as u64;
        self.stats.bytes += outcome.bytes;
        // Record the version this node now observes.
        let v = *self.versions.entry(page).or_insert(0);
        self.observed.insert((node, page), v);
        outcome
    }

    fn read(&mut self, node: NodeId, page: u64) -> AccessOutcome {
        match self.directory.entry(page).or_insert_with(|| PageState::Shared(HashSet::new())) {
            PageState::Modified(owner) => {
                if *owner == node {
                    return AccessOutcome { hit: true, messages: 0, bytes: 0 };
                }
                // Downgrade: owner writes back, both become sharers.
                let prev = *owner;
                let mut sharers = HashSet::new();
                sharers.insert(prev);
                sharers.insert(node);
                self.directory.insert(page, PageState::Shared(sharers));
                AccessOutcome { hit: false, messages: 3, bytes: self.page_size }
            }
            PageState::Shared(sharers) => {
                if sharers.contains(&node) {
                    AccessOutcome { hit: true, messages: 0, bytes: 0 }
                } else {
                    sharers.insert(node);
                    // Request + data from directory/home.
                    AccessOutcome { hit: false, messages: 2, bytes: self.page_size }
                }
            }
        }
    }

    fn write(&mut self, node: NodeId, page: u64) -> AccessOutcome {
        *self.versions.entry(page).or_insert(0) += 1;
        let state = self.directory.entry(page).or_insert_with(|| PageState::Shared(HashSet::new()));
        match state {
            PageState::Modified(owner) => {
                if *owner == node {
                    return AccessOutcome { hit: true, messages: 0, bytes: 0 };
                }
                // Ownership transfer.
                self.directory.insert(page, PageState::Modified(node));
                self.stats.invalidations += 1;
                AccessOutcome { hit: false, messages: 3, bytes: self.page_size }
            }
            PageState::Shared(sharers) => {
                let had_copy = sharers.contains(&node);
                let invals = sharers.iter().filter(|s| **s != node).count() as u32;
                self.stats.invalidations += invals as u64;
                self.directory.insert(page, PageState::Modified(node));
                if had_copy && invals == 0 {
                    // Silent upgrade of the sole copy.
                    AccessOutcome { hit: true, messages: 0, bytes: 0 }
                } else if had_copy {
                    AccessOutcome { hit: false, messages: 1 + invals, bytes: 0 }
                } else {
                    AccessOutcome { hit: false, messages: 2 + invals, bytes: self.page_size }
                }
            }
        }
    }

    /// True if `node` currently holds a valid copy of `page`.
    pub fn has_valid_copy(&self, node: NodeId, page: u64) -> bool {
        match self.directory.get(&page) {
            Some(PageState::Modified(o)) => *o == node,
            Some(PageState::Shared(s)) => s.contains(&node),
            None => false,
        }
    }

    /// Single-writer/multiple-reader invariant check (used by tests).
    pub fn check_invariant(&self) -> bool {
        self.directory.values().all(|s| match s {
            PageState::Modified(_) => true,
            PageState::Shared(_) => true,
        })
    }

    /// True if every node that holds a valid copy of `page` observed its
    /// latest version — the coherence property behind sequential
    /// consistency in this single-home model.
    pub fn copies_are_coherent(&self, page: u64) -> bool {
        let v = self.versions.get(&page).copied().unwrap_or(0);
        match self.directory.get(&page) {
            None => true,
            Some(PageState::Modified(o)) => {
                self.observed.get(&(*o, page)).copied().unwrap_or(0) == v
            }
            Some(PageState::Shared(sharers)) => {
                sharers.iter().all(|n| self.observed.get(&(*n, page)).copied().unwrap_or(0) == v)
            }
        }
    }

    /// Models the page traffic of migrating a thread whose working set
    /// is `pages` from `from` to `to`: each page is pulled on first
    /// touch at the destination. Returns total bytes moved.
    pub fn migrate_working_set(&mut self, from: NodeId, to: NodeId, pages: &[u64]) -> u64 {
        let _ = from;
        let mut bytes = 0;
        for &p in pages {
            let o = self.access(to, p, Access::Read);
            bytes += o.bytes;
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_sharing_then_write_invalidates() {
        let mut dsm = Dsm::new(3, 4096);
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        assert!(!dsm.access(a, 7, Access::Read).hit); // cold
        assert!(dsm.access(a, 7, Access::Read).hit);
        assert!(!dsm.access(b, 7, Access::Read).hit);
        assert!(dsm.has_valid_copy(a, 7) && dsm.has_valid_copy(b, 7));
        // c writes: both copies invalidated.
        let o = dsm.access(c, 7, Access::Write);
        assert!(!o.hit);
        assert!(o.messages >= 3); // request + 2 invalidations
        assert!(dsm.has_valid_copy(c, 7));
        assert!(!dsm.has_valid_copy(a, 7) && !dsm.has_valid_copy(b, 7));
        assert!(dsm.copies_are_coherent(7));
    }

    #[test]
    fn write_hit_for_owner() {
        let mut dsm = Dsm::new(2, 4096);
        let a = NodeId(0);
        dsm.access(a, 1, Access::Write);
        let o = dsm.access(a, 1, Access::Write);
        assert!(o.hit);
        assert_eq!(o.bytes, 0);
    }

    #[test]
    fn silent_upgrade_of_sole_sharer() {
        let mut dsm = Dsm::new(2, 4096);
        let a = NodeId(0);
        dsm.access(a, 3, Access::Read);
        let o = dsm.access(a, 3, Access::Write);
        assert!(o.hit, "sole sharer upgrades silently");
    }

    #[test]
    fn ownership_transfer_counts_page_bytes() {
        let mut dsm = Dsm::new(2, 4096);
        dsm.access(NodeId(0), 9, Access::Write);
        let o = dsm.access(NodeId(1), 9, Access::Write);
        assert_eq!(o.bytes, 4096);
        assert!(dsm.copies_are_coherent(9));
    }

    #[test]
    fn working_set_migration_costs_pages() {
        let mut dsm = Dsm::new(2, 4096);
        let (x86, arm) = (NodeId(0), NodeId(1));
        for p in 0..8 {
            dsm.access(x86, p, Access::Write);
        }
        let bytes = dsm.migrate_working_set(x86, arm, &(0..8).collect::<Vec<_>>());
        assert_eq!(bytes, 8 * 4096);
    }

    #[test]
    fn randomized_coherence_invariant() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut dsm = Dsm::new(4, 4096);
        for _ in 0..10_000 {
            let node = NodeId(rng.gen_range(0..4));
            let page = rng.gen_range(0..16);
            let acc = if rng.gen_bool(0.3) { Access::Write } else { Access::Read };
            dsm.access(node, page, acc);
            assert!(dsm.check_invariant());
            assert!(dsm.copies_are_coherent(page));
        }
        let s = dsm.stats();
        assert!(s.faults > 0 && s.faults < s.accesses);
        assert!(s.bytes > 0);
    }
}
