//! Whole-document persistence: XML text plus the L-Tree's structural
//! snapshot.
//!
//! [`ltree_core::snapshot`] stores only the tree *shape* (labels are
//! implicit — the §4.2 observation); this module pairs that with the
//! serialized document so a [`Document<LTree>`] round-trips exactly:
//! same elements, same labels, same slack distribution. A freshly
//! re-parsed document would get *bulk-load* labels instead and lose the
//! update history's hotspot adaptation — the snapshot keeps it.
//!
//! The image is an `LXDC` container ([`snapshot::begin`],
//! [`snapshot::seal`], [`snapshot::open`]) whose body is
//! `xml_len u64 | xml bytes | snapshot`, the nested `LTRS` snapshot
//! keeping its own trailer.

use ltree_core::snapshot::{self, SnapshotError};
use ltree_core::{LTree, LeafHandle};

use crate::document::Document;
use crate::error::{Result, XmlError};

const MAGIC: &[u8; 4] = b"LXDC";
const VERSION: u16 = 2;

/// Serialize a document (XML text + labeling-structure snapshot).
pub fn save_document(doc: &Document<LTree>) -> Result<Vec<u8>> {
    let xml = crate::serializer::to_string(doc.tree())?;
    let mut out = snapshot::begin(MAGIC, VERSION);
    out.extend_from_slice(&(xml.len() as u64).to_le_bytes());
    out.extend_from_slice(xml.as_bytes());
    out.extend_from_slice(&snapshot::save(doc.scheme()));
    snapshot::seal(&mut out);
    Ok(out)
}

fn corrupt(msg: impl std::fmt::Display) -> XmlError {
    XmlError::Parse {
        line: 0,
        col: 0,
        msg: format!("persisted document: {msg}"),
    }
}

/// Restore a document saved with [`save_document`]. Every element gets
/// back the exact `(begin, end)` labels it had, tombstone slack included.
pub fn load_document(bytes: &[u8]) -> Result<Document<LTree>> {
    let (xml, snap) = split_image(bytes).map_err(corrupt)?;
    let xml = std::str::from_utf8(xml).map_err(|_| corrupt("text is not UTF-8"))?;
    let tree = crate::parser::parse(xml)?;
    let (scheme, leaves) =
        snapshot::load(snap).map_err(|e| corrupt(format!("snapshot image: {e}")))?;
    // Live leaves in document order pair 1:1 with the document's tags;
    // tombstones are departed elements' slots and stay unbound.
    let live: Vec<LeafHandle> = leaves
        .into_iter()
        .filter(|&l| !scheme.is_deleted(l).unwrap_or(true))
        .map(|l| LeafHandle(l.to_u64()))
        .collect();
    Document::bind_existing(tree, scheme, &live)
}

/// The XML text and the nested snapshot of a sealed image.
fn split_image(bytes: &[u8]) -> std::result::Result<(&[u8], &[u8]), SnapshotError> {
    let mut r = snapshot::open(bytes, MAGIC, VERSION)?;
    let xml_len = usize::try_from(r.u64()?).map_err(|_| SnapshotError::Truncated)?;
    Ok((r.take(xml_len)?, r.rest()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::XmlTree;
    use ltree_core::Params;

    /// Magic, version and XML length.
    const HEADER_LEN: usize = 4 + 2 + 8;

    fn edited_document() -> Document<LTree> {
        let mut doc = Document::parse_str(
            "<catalog><book><title>t1</title></book><book><title>t2</title></book></catalog>",
            LTree::new(Params::new(4, 2).unwrap()),
        )
        .unwrap();
        let root = doc.tree().root().unwrap();
        // Hotspot edits: the label distribution becomes update-shaped.
        let (mut frag, fr) = XmlTree::with_root("chapter");
        frag.add_child(fr, "para").unwrap();
        for i in 0..40 {
            let book = doc.tree().child_elements(root).unwrap()[i % 2];
            doc.insert_fragment(book, 0, &frag).unwrap();
        }
        // And a deletion: tombstones must survive persistence.
        let victim = doc.tree().child_elements(root).unwrap()[1];
        let victim_child = doc.tree().child_elements(victim).unwrap()[0];
        doc.delete_subtree(victim_child).unwrap();
        doc
    }

    fn spans_by_path(doc: &Document<LTree>) -> Vec<(String, u128, u128)> {
        doc.tree()
            .all_elements()
            .into_iter()
            .map(|id| {
                let (b, e) = doc.span(id).unwrap();
                (doc.tree().tag_name(id).unwrap().to_owned(), b, e)
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_labels_exactly() {
        let doc = edited_document();
        let bytes = save_document(&doc).unwrap();
        let loaded = load_document(&bytes).unwrap();
        assert_eq!(
            spans_by_path(&loaded),
            spans_by_path(&doc),
            "exact labels, slack included"
        );
        assert_eq!(
            loaded.scheme().len(),
            doc.scheme().len(),
            "tombstones preserved"
        );
        assert_eq!(loaded.scheme().live_len(), doc.scheme().live_len());
        loaded.validate().unwrap();
    }

    #[test]
    fn loaded_document_keeps_editing() {
        let doc = edited_document();
        let mut loaded = load_document(&save_document(&doc).unwrap()).unwrap();
        let root = loaded.tree().root().unwrap();
        for i in 0..20 {
            loaded.insert_element(root, i, "addendum").unwrap();
        }
        loaded.validate().unwrap();
        loaded.scheme().check_invariants().unwrap();
    }

    #[test]
    fn reparse_would_lose_slack_but_snapshot_does_not() {
        // The point of persisting the structure: a fresh bulk load gives
        // different labels than the update-shaped tree.
        let doc = edited_document();
        let fresh = Document::parse_str(
            &crate::serializer::to_string(doc.tree()).unwrap(),
            LTree::new(Params::new(4, 2).unwrap()),
        )
        .unwrap();
        assert_ne!(
            spans_by_path(&fresh),
            spans_by_path(&doc),
            "bulk-load labels differ from update-shaped labels"
        );
    }

    #[test]
    fn corrupt_payloads_error_cleanly() {
        let doc = edited_document();
        let good = save_document(&doc).unwrap();
        assert!(load_document(&[]).is_err());
        assert!(load_document(&good[..20]).is_err());
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(load_document(&bad).is_err());
        let mut flipped = good.clone();
        let at = flipped.len() - 11; // inside the snapshot -> checksum
        flipped[at] ^= 0x55;
        assert!(load_document(&flipped).is_err());
        // `t1` -> `t9` in the XML text still parses: only the image
        // checksum catches it.
        let mut retitled = good.clone();
        let at = HEADER_LEN
            + good[HEADER_LEN..]
                .windows(2)
                .position(|w| w == b"t1")
                .unwrap();
        retitled[at + 1] = b'9';
        assert!(load_document(&retitled).is_err());
        // Version 1 images carry no trailer and are rejected.
        let mut v1 = good.clone();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(load_document(&v1).is_err());
    }
}
