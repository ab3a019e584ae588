//! Snapshot persistence for the materialized L-Tree.
//!
//! A production XML store checkpoints its labeling structure. The format
//! exploits the paper's own observation (Section 4.2): **labels are
//! implicit in the structure**, so a snapshot stores only the tree shape
//! (pre-order, one tag byte per node plus fanout) and the parameters —
//! every `num` is recomputed on load by one relabel pass, and the loaded
//! tree is bit-for-bit the one that was saved.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "LTRS" | version u16 | f u32 | s u32 | height u8 | n_leaves u64
//! | pre-order nodes | checksum u64 (FNV-1a of everything before it)
//! node := 0x01 fanout:u16   (interior)
//!       | 0x02 flags:u8     (leaf; bit 0 = tombstone)
//! ```

use crate::tree::{LTree, LeafId};
use crate::Params;

const MAGIC: &[u8; 4] = b"LTRS";
const VERSION: u16 = 1;
const TAG_INTERIOR: u8 = 0x01;
const TAG_LEAF: u8 = 0x02;

/// Errors while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Not an L-Tree snapshot.
    BadMagic,
    /// Produced by an incompatible version of this library.
    BadVersion(u16),
    /// The byte stream ended early.
    Truncated,
    /// Structurally inconsistent content.
    Corrupt(String),
    /// The checksum did not match (bit rot / torn write).
    ChecksumMismatch,
    /// Parameters stored in the snapshot fail validation.
    InvalidParams(crate::LTreeError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an L-Tree snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot ends unexpectedly"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::InvalidParams(e) => {
                write!(f, "snapshot carries invalid parameters: {e}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a (64-bit) over `bytes`: the dependency-free checksum that
/// trails every persisted image in the workspace — these snapshots and
/// the durable layer's write-ahead-log records and `LTDS` images.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serialize a tree. The paired loader is [`load`].
pub fn save(tree: &LTree) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + tree.len() * 2);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&tree.params().f().to_le_bytes());
    out.extend_from_slice(&tree.params().s().to_le_bytes());
    out.push(tree.height());
    out.extend_from_slice(&(tree.len() as u64).to_le_bytes());
    tree.serialize_structure(&mut out);
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Decoded structural events handed to the tree rebuilder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StructureEvent {
    /// Interior node with this many children (children follow pre-order).
    Interior(u16),
    /// Leaf; `true` = tombstoned.
    Leaf(bool),
}

/// Deserialize a snapshot produced by [`save`]. Returns the tree plus its
/// leaves in document order (handles are *not* stable across
/// save/load — the caller re-binds its references via this vector).
pub fn load(bytes: &[u8]) -> Result<(LTree, Vec<LeafId>), SnapshotError> {
    if bytes.len() < 8 {
        return Err(SnapshotError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a(body) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut r = Reader {
        bytes: body,
        pos: 0,
    };
    if r.take(4)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let f = r.u32()?;
    let s = r.u32()?;
    let params = Params::new(f, s).map_err(SnapshotError::InvalidParams)?;
    let height = r.u8()?;
    let n_leaves = r.u64()?;

    let mut events = Vec::new();
    while r.pos < body.len() {
        match r.u8()? {
            TAG_INTERIOR => events.push(StructureEvent::Interior(r.u16()?)),
            TAG_LEAF => events.push(StructureEvent::Leaf(r.u8()? & 1 == 1)),
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown node tag {other:#x}"
                )))
            }
        }
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

/// Convenience: write a snapshot to a file.
pub fn save_to_file(tree: &LTree, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, save(tree))
}

/// Convenience: load a snapshot from a file. The outer error is I/O, the
/// inner one decoding.
#[allow(clippy::type_complexity)]
pub fn load_from_file(
    path: &std::path::Path,
) -> std::io::Result<Result<(LTree, Vec<LeafId>), SnapshotError>> {
    let bytes = std::fs::read(path)?;
    Ok(load(&bytes))
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

    #[test]
    fn file_helpers_roundtrip() {
        let tree = sample_tree();
        let dir = std::env::temp_dir().join("ltree-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.snap");
        save_to_file(&tree, &path).unwrap();
        let loaded = load_from_file(&path).unwrap().unwrap();
        assert_eq!(loaded.0.len(), tree.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_is_compact() {
        // Structure-only encoding: ~2 bytes per leaf + interior overhead,
        // far below the 16-byte labels it regenerates.
        let (tree, _) = LTree::bulk_load(Params::new(4, 2).unwrap(), 10_000).unwrap();
        let bytes = save(&tree);
        assert!(
            bytes.len() < 10_000 * 6,
            "snapshot too large: {} bytes",
            bytes.len()
        );
    }
}
