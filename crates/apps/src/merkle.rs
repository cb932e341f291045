//! SHA-256 Merkle trees with membership proofs.
//!
//! The remaining §1 application primitive: Bitcoin (the paper's
//! motivating user of secp256k1) authenticates transactions against a
//! block header through a Merkle root, and ZKP systems commit to
//! witness vectors the same way. Built on the workspace's own
//! [`mod@crate::sha256`].
//!
//! Leaves and interior nodes are domain-separated (`0x00` / `0x01`
//! prefixes), which blocks the classic second-preimage trick of
//! re-interpreting an interior node as a leaf. An odd node at any
//! level is promoted unpaired (no Bitcoin-style duplication, which is
//! what enabled CVE-2012-2459); the proof records each sibling's side
//! explicitly.

use crate::sha256::sha256;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

fn leaf_hash(data: &[u8]) -> Digest {
    let mut buf = Vec::with_capacity(1 + data.len());
    buf.push(0x00);
    buf.extend_from_slice(data);
    sha256(&buf)
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut buf = [0u8; 65];
    buf[0] = 0x01;
    buf[1..33].copy_from_slice(left);
    buf[33..].copy_from_slice(right);
    sha256(&buf)
}

/// One step of a membership proof: the sibling digest and which side
/// it sits on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofStep {
    /// The sibling's digest.
    pub sibling: Digest,
    /// `true` if the sibling is the *right* child at this level.
    pub sibling_is_right: bool,
}

/// A Merkle membership proof for one leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// Bottom-up sibling path (may skip levels where the node was
    /// promoted unpaired).
    pub steps: Vec<ProofStep>,
}

impl MerkleProof {
    /// Verifies that `leaf_data` at this proof's index hashes up to
    /// `root`.
    pub fn verify(&self, root: &Digest, leaf_data: &[u8]) -> bool {
        let mut acc = leaf_hash(leaf_data);
        for step in &self.steps {
            acc = if step.sibling_is_right {
                node_hash(&acc, &step.sibling)
            } else {
                node_hash(&step.sibling, &acc)
            };
        }
        acc == *root
    }
}

/// A SHA-256 Merkle tree over byte-string leaves.
///
/// # Examples
///
/// ```
/// use modsram_apps::merkle::MerkleTree;
///
/// let leaves: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 8]).collect();
/// let tree = MerkleTree::from_leaves(&leaves);
/// let proof = tree.prove(3).expect("index in range");
/// assert!(proof.verify(tree.root(), &leaves[3]));
/// assert!(!proof.verify(tree.root(), b"someone else's data"));
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// levels[0] = leaf digests, last level = [root].
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds the tree. An empty leaf set gets the conventional
    /// all-zero root (distinguishable from any real root because leaf
    /// hashing is domain-separated).
    pub fn from_leaves<L: AsRef<[u8]>>(leaves: &[L]) -> Self {
        if leaves.is_empty() {
            return MerkleTree {
                levels: vec![vec![[0u8; 32]]],
            };
        }
        let mut levels = vec![leaves
            .iter()
            .map(|l| leaf_hash(l.as_ref()))
            .collect::<Vec<_>>()];
        while levels.last().expect("non-empty").len() > 1 {
            let below = levels.last().expect("non-empty");
            let mut level = Vec::with_capacity(below.len().div_ceil(2));
            for pair in below.chunks(2) {
                match pair {
                    [l, r] => level.push(node_hash(l, r)),
                    [odd] => level.push(*odd), // promoted unpaired
                    _ => unreachable!("chunks(2)"),
                }
            }
            levels.push(level);
        }
        MerkleTree { levels }
    }

    /// The Merkle root.
    pub fn root(&self) -> &Digest {
        &self.levels.last().expect("non-empty")[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        if self.levels.len() == 1 && self.levels[0][0] == [0u8; 32] {
            0
        } else {
            self.levels[0].len()
        }
    }

    /// Produces a membership proof for leaf `index`, or `None` when
    /// out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut steps = Vec::new();
        let mut pos = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_pos = pos ^ 1;
            if sibling_pos < level.len() {
                steps.push(ProofStep {
                    sibling: level[sibling_pos],
                    sibling_is_right: sibling_pos > pos,
                });
            } // else: promoted unpaired — no step at this level
            pos /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("tx-{i}").into_bytes()).collect()
    }

    #[test]
    fn every_leaf_proves_at_every_size() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
            let data = leaves(n);
            let tree = MerkleTree::from_leaves(&data);
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.prove(i).expect("in range");
                assert!(proof.verify(tree.root(), leaf), "n={n} i={i}");
                // Proof depth is bounded by ⌈log₂ n⌉.
                assert!(proof.steps.len() <= n.next_power_of_two().trailing_zeros() as usize);
            }
        }
    }

    #[test]
    fn wrong_leaf_fails() {
        let data = leaves(8);
        let tree = MerkleTree::from_leaves(&data);
        let proof = tree.prove(2).unwrap();
        assert!(!proof.verify(tree.root(), &data[3]));
        assert!(!proof.verify(tree.root(), b"forged"));
    }

    #[test]
    fn tampered_sibling_fails() {
        let data = leaves(8);
        let tree = MerkleTree::from_leaves(&data);
        let mut proof = tree.prove(5).unwrap();
        proof.steps[1].sibling[0] ^= 1;
        assert!(!proof.verify(tree.root(), &data[5]));
    }

    #[test]
    fn flipped_side_fails() {
        let data = leaves(4);
        let tree = MerkleTree::from_leaves(&data);
        let mut proof = tree.prove(0).unwrap();
        proof.steps[0].sibling_is_right = false;
        assert!(!proof.verify(tree.root(), &data[0]));
    }

    #[test]
    fn any_leaf_change_changes_root() {
        let data = leaves(9);
        let base = *MerkleTree::from_leaves(&data).root();
        for i in 0..data.len() {
            let mut changed = data.clone();
            changed[i].push(b'!');
            assert_ne!(*MerkleTree::from_leaves(&changed).root(), base, "leaf {i}");
        }
    }

    #[test]
    fn interior_node_cannot_pose_as_leaf() {
        // Domain separation: hashing the concatenation of two leaf
        // digests as *data* must not reproduce their parent.
        let data = leaves(2);
        let tree = MerkleTree::from_leaves(&data);
        let l0 = leaf_hash(&data[0]);
        let l1 = leaf_hash(&data[1]);
        let mut concat = Vec::new();
        concat.extend_from_slice(&l0);
        concat.extend_from_slice(&l1);
        assert_ne!(leaf_hash(&concat), *tree.root());
    }

    #[test]
    fn single_leaf_and_empty() {
        let one = MerkleTree::from_leaves(&[b"solo".to_vec()]);
        assert_eq!(one.leaf_count(), 1);
        let proof = one.prove(0).unwrap();
        assert!(proof.steps.is_empty());
        assert!(proof.verify(one.root(), b"solo"));

        let empty = MerkleTree::from_leaves::<Vec<u8>>(&[]);
        assert_eq!(empty.leaf_count(), 0);
        assert_eq!(*empty.root(), [0u8; 32]);
        assert!(empty.prove(0).is_none());
    }

    #[test]
    fn out_of_range_proof_rejected() {
        let tree = MerkleTree::from_leaves(&leaves(4));
        assert!(tree.prove(4).is_none());
    }

    #[test]
    fn odd_promotion_is_consistent() {
        // With 3 leaves, leaf 2 is promoted at level 0: its proof has
        // one fewer step than leaves 0/1 but still verifies.
        let data = leaves(3);
        let tree = MerkleTree::from_leaves(&data);
        let p0 = tree.prove(0).unwrap();
        let p2 = tree.prove(2).unwrap();
        assert_eq!(p0.steps.len(), 2);
        assert_eq!(p2.steps.len(), 1);
        assert!(p2.verify(tree.root(), &data[2]));
    }
}
