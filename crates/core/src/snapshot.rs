//! The workspace's one persisted-image container, and the L-Tree shape
//! snapshot (`LTRS`) that is its first user.
//!
//! ## The container
//!
//! Every image the workspace persists — this module's `LTRS` snapshot,
//! the durable layer's `LTDS` checkpoint and the `LXDC` persisted
//! document — has one shape (little-endian):
//!
//! ```text
//! magic[4] | version u16 | body | checksum u64 (FNV-1a of everything before it)
//! ```
//!
//! [`begin`] writes the header and [`seal`] the trailer. [`open`]
//! verifies the trailer, then the magic, then the version, and returns a
//! bounds-checked [`Reader`] over the body. Write-ahead-log records carry
//! the same trailer over their body through [`seal`] and [`unseal`]. No
//! other module computes the checksum or parses a header.
//!
//! ## The `LTRS` snapshot
//!
//! The format exploits the paper's own observation (Section 4.2):
//! **labels are implicit in the structure**, so a snapshot stores only
//! the tree shape (pre-order, one tag byte per node plus fanout) and the
//! parameters — every `num` is recomputed on load by one relabel pass,
//! and the loaded tree is bit-for-bit the one that was saved. Body:
//!
//! ```text
//! f u32 | s u32 | height u8 | n_leaves u64 | pre-order nodes
//! node := 0x01 fanout:u16   (interior; 1 <= fanout <= f)
//!       | 0x02 flags:u8     (leaf; bit 0 = tombstone)
//! ```

use crate::tree::{LTree, LeafId};
use crate::Params;

const MAGIC: &[u8; 4] = b"LTRS";
const VERSION: u16 = 1;
const TAG_INTERIOR: u8 = 0x01;
const TAG_LEAF: u8 = 0x02;

/// Errors while opening or decoding a sealed image. The texts name no
/// format: callers prefix the image they were reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Not an image of the expected format.
    BadMagic,
    /// Produced by an incompatible version of this library.
    BadVersion(u16),
    /// The byte stream ended early.
    Truncated,
    /// Structurally inconsistent content.
    Corrupt(String),
    /// The checksum did not match (bit rot / torn write).
    ChecksumMismatch,
    /// Parameters stored in the image fail validation.
    InvalidParams(crate::LTreeError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "bad magic (not this image format)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported version {v}"),
            SnapshotError::Truncated => write!(f, "ends unexpectedly"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt: {msg}"),
            SnapshotError::ChecksumMismatch => write!(f, "checksum mismatch"),
            SnapshotError::InvalidParams(e) => write!(f, "invalid parameters: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a (64-bit): the dependency-free checksum behind [`seal`].
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Start an image: its `magic | version` header. Append the body, then
/// [`seal`] it.
pub fn begin(magic: &[u8; 4], version: u16) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out
}

/// Append the checksum trailer over every byte of `out`.
pub fn seal(out: &mut Vec<u8>) {
    let sum = fnv1a(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Verify a [`seal`]ed byte string and return what precedes its trailer.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    let len = bytes.len().checked_sub(8).ok_or(SnapshotError::Truncated)?;
    let (body, trailer) = bytes.split_at(len);
    if fnv1a(body).to_le_bytes() != trailer {
        return Err(SnapshotError::ChecksumMismatch);
    }
    Ok(body)
}

/// Open an image written by [`begin`] and [`seal`]: verify the trailer,
/// then the magic, then the version, and return a reader over the body.
pub fn open<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    version: u16,
) -> Result<Reader<'a>, SnapshotError> {
    let mut r = Reader::new(unseal(bytes)?);
    if r.take(4)? != magic {
        return Err(SnapshotError::BadMagic);
    }
    let v = r.u16()?;
    if v != version {
        return Err(SnapshotError::BadVersion(v));
    }
    Ok(r)
}

/// A bounds-checked little-endian cursor over an image body: reading
/// past the end is [`SnapshotError::Truncated`], never a panic.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Every byte not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.bytes)
    }

    /// Whether every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// End of the body: anything left over is [`SnapshotError::Corrupt`].
    pub fn finish(self) -> Result<(), SnapshotError> {
        match self.bytes.len() {
            0 => Ok(()),
            n => Err(SnapshotError::Corrupt(format!("{n} trailing bytes"))),
        }
    }
}

/// One node of a tree's shape, in pre-order: what [`save`] encodes and
/// [`load`] hands the tree rebuilder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StructureEvent {
    /// Interior node with this many children (children follow pre-order).
    Interior(u16),
    /// Leaf; `true` = tombstoned.
    Leaf(bool),
}

/// Serialize a tree. The paired loader is [`load`].
pub fn save(tree: &LTree) -> Vec<u8> {
    let mut out = begin(MAGIC, VERSION);
    out.extend_from_slice(&tree.params().f().to_le_bytes());
    out.extend_from_slice(&tree.params().s().to_le_bytes());
    out.push(tree.height());
    out.extend_from_slice(&(tree.len() as u64).to_le_bytes());
    for event in tree.structure() {
        match event {
            StructureEvent::Interior(fanout) => {
                out.push(TAG_INTERIOR);
                out.extend_from_slice(&fanout.to_le_bytes());
            }
            StructureEvent::Leaf(deleted) => out.extend_from_slice(&[TAG_LEAF, u8::from(deleted)]),
        }
    }
    seal(&mut out);
    out
}

/// Deserialize a snapshot produced by [`save`]. Returns the tree plus its
/// leaves in document order (handles are *not* stable across
/// save/load — the caller re-binds its references via this vector).
pub fn load(bytes: &[u8]) -> Result<(LTree, Vec<LeafId>), SnapshotError> {
    let mut r = open(bytes, MAGIC, VERSION)?;
    let f = r.u32()?;
    let s = r.u32()?;
    let params = Params::new(f, s).map_err(SnapshotError::InvalidParams)?;
    let height = r.u8()?;
    let n_leaves = r.u64()?;

    let mut events = Vec::new();
    while !r.is_empty() {
        events.push(match r.u8()? {
            TAG_INTERIOR => StructureEvent::Interior(r.u16()?),
            TAG_LEAF => StructureEvent::Leaf(r.u8()? & 1 == 1),
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown node tag {other:#x}"
                )))
            }
        });
    }
    let (tree, leaves) = LTree::from_structure(params, height, &events)
        .map_err(|e: crate::LTreeError| SnapshotError::Corrupt(e.to_string()))?;
    if tree.len() as u64 != n_leaves {
        return Err(SnapshotError::Corrupt(format!(
            "header says {n_leaves} leaves, structure has {}",
            tree.len()
        )));
    }
    tree.check_invariants()
        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
    Ok((tree, leaves))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> LTree {
        let (mut tree, leaves) = LTree::bulk_load(Params::new(4, 2).unwrap(), 50).unwrap();
        let mut anchor = leaves[20];
        for i in 0..200 {
            anchor = tree.insert_after(anchor).unwrap();
            if i % 9 == 0 {
                tree.delete(leaves[i % 50]).ok();
            }
        }
        tree
    }

    fn labels(tree: &LTree) -> Vec<(u128, bool)> {
        tree.leaves()
            .map(|l| (tree.label(l).unwrap().get(), tree.is_deleted(l).unwrap()))
            .collect()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let tree = sample_tree();
        let bytes = save(&tree);
        let (loaded, leaves) = load(&bytes).unwrap();
        assert_eq!(loaded.params(), tree.params());
        assert_eq!(loaded.height(), tree.height());
        assert_eq!(loaded.len(), tree.len());
        assert_eq!(loaded.live_len(), tree.live_len());
        assert_eq!(
            labels(&loaded),
            labels(&tree),
            "labels recomputed identically"
        );
        assert_eq!(leaves.len(), tree.len());
        loaded.check_invariants().unwrap();
    }

    #[test]
    fn loaded_tree_keeps_working() {
        let tree = sample_tree();
        let (mut loaded, leaves) = load(&save(&tree)).unwrap();
        let mid = leaves[leaves.len() / 2];
        let mut anchor = mid;
        for _ in 0..100 {
            anchor = loaded.insert_after(anchor).unwrap();
        }
        loaded.check_invariants().unwrap();
    }

    #[test]
    fn empty_tree_roundtrips() {
        let tree = LTree::new(Params::new(8, 2).unwrap());
        let (loaded, leaves) = load(&save(&tree)).unwrap();
        assert!(loaded.is_empty());
        assert!(leaves.is_empty());
        loaded.check_invariants().unwrap();
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let tree = sample_tree();
        let good = save(&tree);

        assert_eq!(load(&[]).unwrap_err(), SnapshotError::Truncated);
        assert_eq!(
            load(&good[..10]).unwrap_err(),
            SnapshotError::ChecksumMismatch
        );

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        // Checksum catches it first unless we re-seal; re-seal to test
        // the magic path.
        let body_len = bad_magic.len() - 8;
        let sum = super::fnv1a(&bad_magic[..body_len]).to_le_bytes();
        bad_magic[body_len..].copy_from_slice(&sum);
        assert_eq!(load(&bad_magic).unwrap_err(), SnapshotError::BadMagic);

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xff;
        assert!(load(&flipped).is_err(), "bit flip must not load");

        let mut bad_version = good.clone();
        bad_version[4] = 0xff;
        let sum = super::fnv1a(&bad_version[..body_len]).to_le_bytes();
        bad_version[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            load(&bad_version).unwrap_err(),
            SnapshotError::BadVersion(_)
        ));
    }

    /// A crafted image with a valid trailer: `f = 4` at the maximum
    /// height, a root of fanout 8, each child a chain of single-child
    /// interiors ending in one leaf. Relabeling it would overflow the
    /// `u128` label space; the fanout check makes it `Corrupt` instead.
    #[test]
    fn fanout_above_f_is_corrupt_not_an_overflow() {
        let height = Params::new(4, 2).unwrap().max_height();
        let mut image = begin(MAGIC, VERSION);
        image.extend_from_slice(&4u32.to_le_bytes());
        image.extend_from_slice(&2u32.to_le_bytes());
        image.push(height);
        image.extend_from_slice(&8u64.to_le_bytes());
        image.extend_from_slice(&[TAG_INTERIOR, 8, 0]);
        for _ in 0..8 {
            for _ in 1..height {
                image.extend_from_slice(&[TAG_INTERIOR, 1, 0]);
            }
            image.extend_from_slice(&[TAG_LEAF, 0]);
        }
        seal(&mut image);
        assert_eq!(image.len(), 1346);
        assert!(matches!(load(&image), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn snapshot_is_compact() {
        // Structure-only encoding: ~2 bytes per leaf + interior overhead,
        // far below the 20-B leaf records it relabels.
        let (tree, _) = LTree::bulk_load(Params::new(4, 2).unwrap(), 10_000).unwrap();
        let bytes = save(&tree);
        assert!(
            bytes.len() < 10_000 * 6,
            "snapshot too large: {} bytes",
            bytes.len()
        );
    }
}
