//! Pinned bytes for every persisted image the workspace writes.
//!
//! Three images share one sealed container (`magic[4] | version u16 |
//! body | fnv1a u64`, built by `ltree::snapshot::{begin, seal, open}`):
//! the core `LTRS` shape snapshot, the durable layer's `LTDS`
//! checkpoint and the `LXDC` persisted document. Write-ahead-log
//! records carry the same trailer over their body. This suite pins
//! their bytes for fixed states, so a refactor of the encoders either
//! keeps every file that was ever written loadable or fails here:
//!
//! * **golden digests** — each image's length and trailer value (the
//!   little-endian `u64` in its last 8 bytes), and one WAL record
//!   byte for byte;
//! * **corruption sweep** — every strict prefix and every single-byte
//!   flip of each image is an `Err`, never a panic and never an `Ok`;
//! * **cross-format** — each loader rejects the other two formats'
//!   images as a bad magic.

use ltree::prelude::*;
use ltree::remote::wal::{encode_record, SNAP_FILE, WAL_FILE};
use ltree::remote::wire::{Request, WireSplice};
use ltree::remote::{DurableDir, DurableScheme, SimDir};
use ltree::snapshot::{self, SnapshotError};
use ltree::xml::{load_document, save_document, Document, XmlTree};
use ltree::LTreeError;

/// The `LTRS` state: a bulk load followed by a hot-spot insert run with
/// scattered deletes.
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

/// The `LXDC` state: a small catalog with update-shaped labels and a
/// deleted subtree.
fn edited_document() -> Document<LTree> {
    let mut doc = Document::parse_str(
        "<catalog><book><title>t1</title></book><book><title>t2</title></book></catalog>",
        LTree::new(Params::new(4, 2).unwrap()),
    )
    .unwrap();
    let root = doc.tree().root().unwrap();
    let (mut frag, fr) = XmlTree::with_root("chapter");
    frag.add_child(fr, "para").unwrap();
    for i in 0..40 {
        let book = doc.tree().child_elements(root).unwrap()[i % 2];
        doc.insert_fragment(book, 0, &frag).unwrap();
    }
    let victim = doc.tree().child_elements(root).unwrap()[1];
    let victim_child = doc.tree().child_elements(victim).unwrap()[0];
    doc.delete_subtree(victim_child).unwrap();
    doc
}

fn ltree_inner() -> Box<dyn DynScheme> {
    Box::new(LTree::new(Params::new(4, 2).unwrap()))
}

fn no_checkpoints() -> DurableOptions {
    DurableOptions {
        checkpoint_every: 0,
        ..DurableOptions::default()
    }
}

/// The `LTDS` state: a checkpointed store after bulk build, a delete, a
/// splice insert and a run delete. Returns the directory and the
/// handles the bulk build minted.
fn checkpointed_store() -> (SimDir, DurableScheme, Vec<LeafHandle>) {
    let dir = SimDir::new(9);
    let mut s =
        DurableScheme::open(ltree_inner(), Box::new(dir.clone()), no_checkpoints()).unwrap();
    let hs = s.bulk_build(20).unwrap();
    s.delete(hs[4]).unwrap();
    s.insert_many_after(hs[7], 5).unwrap();
    s.delete_run(hs[10], 3).unwrap();
    s.checkpoint().unwrap();
    (dir, s, hs)
}

fn ltrs_image() -> Vec<u8> {
    snapshot::save(&sample_tree())
}

fn lxdc_image() -> Vec<u8> {
    save_document(&edited_document()).unwrap()
}

fn ltds_image() -> Vec<u8> {
    let (dir, _store, _) = checkpointed_store();
    dir.read(SNAP_FILE).unwrap().unwrap()
}

/// `(length, trailer)` of an image, the trailer as 16 hex digits.
fn digest(image: &[u8]) -> (usize, String) {
    let tail: [u8; 8] = image[image.len() - 8..].try_into().unwrap();
    (image.len(), format!("{:016x}", u64::from_le_bytes(tail)))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Recover a durable store from `image` as its only file.
fn open_ltds(image: &[u8]) -> ltree::Result<DurableScheme> {
    let mut dir = SimDir::new(1);
    dir.replace(SNAP_FILE, image).unwrap();
    DurableScheme::open(ltree_inner(), Box::new(dir), no_checkpoints())
}

#[test]
fn ltrs_snapshot_bytes_are_pinned() {
    assert_eq!(digest(&ltrs_image()), (1263, "cea52fe5a37659a0".to_owned()));
}

#[test]
fn lxdc_document_bytes_are_pinned() {
    assert_eq!(digest(&lxdc_image()), (2002, "2b778e6d8797ec89".to_owned()));
}

#[test]
fn ltds_checkpoint_and_wal_bytes_are_pinned() {
    let (dir, mut store, hs) = checkpointed_store();
    let image = dir.read(SNAP_FILE).unwrap().unwrap();
    assert_eq!(digest(&image), (246, "66ca020106e6429f".to_owned()));
    store.insert_after(hs[1]).unwrap();
    let log = dir.read(WAL_FILE).unwrap().unwrap();
    assert_eq!(digest(&log), (29, "eab7879abee0a486".to_owned()));
}

#[test]
fn wal_record_bytes_are_pinned() {
    let record = encode_record(
        7,
        &Request::Splice(WireSplice::InsertAfter {
            anchor: 3,
            count: 9,
        }),
    );
    assert_eq!(
        hex(&record),
        "1a00000007000000000000000f00030000000000000009000000000000001fd4e34c92bc060b"
    );
}

/// Every strict prefix and every single-byte flip of `image` makes
/// `load` fail.
fn sweep<T>(name: &str, image: &[u8], load: impl Fn(&[u8]) -> Result<T, String>) {
    assert!(load(image).is_ok(), "{name}: the intact image must load");
    for cut in 0..image.len() {
        assert!(
            load(&image[..cut]).is_err(),
            "{name}: the {cut}-byte prefix loaded"
        );
    }
    for at in 0..image.len() {
        let mut bad = image.to_vec();
        bad[at] ^= 0xff;
        assert!(load(&bad).is_err(), "{name}: a flip at byte {at} loaded");
    }
}

#[test]
fn every_prefix_and_byte_flip_is_rejected() {
    sweep("LTRS", &ltrs_image(), |b| {
        snapshot::load(b).map_err(|e| e.to_string())
    });
    sweep("LXDC", &lxdc_image(), |b| {
        load_document(b).map_err(|e| e.to_string())
    });
    sweep("LTDS", &ltds_image(), |b| {
        open_ltds(b).map_err(|e| e.to_string())
    });
}

#[test]
fn each_loader_rejects_the_other_formats_as_bad_magic() {
    let (ltrs, lxdc, ltds) = (ltrs_image(), lxdc_image(), ltds_image());
    for other in [&lxdc, &ltds] {
        assert_eq!(snapshot::load(other).unwrap_err(), SnapshotError::BadMagic);
    }
    for other in [&ltrs, &ltds] {
        match load_document(other) {
            Err(e) => assert!(e.to_string().contains("magic"), "{e}"),
            Ok(_) => panic!("a foreign image loaded as a document"),
        }
    }
    for other in [&ltrs, &lxdc] {
        match open_ltds(other) {
            Err(LTreeError::Durability { context }) => {
                assert!(context.contains("magic"), "{context}")
            }
            Err(e) => panic!("expected a Durability error, got {e:?}"),
            Ok(_) => panic!("a foreign image recovered as a durable store"),
        }
    }
}
