//! Position maps across a spill rewrite.
//!
//! The allocator's session (`parsched_regalloc::AllocSession`) keeps a
//! block's dependence graph and closure across spill rounds; a
//! [`BlockRemap`] tells it where each old body position went, so
//! `parsched_graph::Reachability::rebuild` can reuse every closure row the
//! inserted loads and stores did not dirty.

/// Maps old body positions to new body positions across a spill rewrite.
///
/// Spill rewriting preserves every original instruction (reloads are
/// inserted before uses, stores after definitions), so the map is total
/// and strictly increasing.
#[derive(Debug, Clone)]
pub struct BlockRemap {
    old_to_new: Vec<usize>,
    new_len: usize,
}

impl BlockRemap {
    /// Builds a remap from the explicit old-position → new-position table.
    ///
    /// # Panics
    /// Panics if any mapped position is out of range of `new_len`.
    pub fn new(old_to_new: Vec<usize>, new_len: usize) -> BlockRemap {
        assert!(
            old_to_new.iter().all(|&p| p < new_len),
            "remapped position out of range"
        );
        BlockRemap {
            old_to_new,
            new_len,
        }
    }

    /// The identity remap over `n` positions.
    pub fn identity(n: usize) -> BlockRemap {
        BlockRemap {
            old_to_new: (0..n).collect(),
            new_len: n,
        }
    }

    /// Number of old body positions.
    pub fn old_len(&self) -> usize {
        self.old_to_new.len()
    }

    /// Number of new body positions.
    pub fn new_len(&self) -> usize {
        self.new_len
    }

    /// The new position of old body position `old`.
    pub fn new_pos(&self, old: usize) -> usize {
        self.old_to_new[old]
    }

    /// The old → new table.
    pub fn table(&self) -> &[usize] {
        &self.old_to_new
    }
}
