//! `doc-query`: the same core, read-heavily, through the paper's
//! structural-join query path.
//!
//! Setup parses a generated book catalog of 5·10⁴ elements (10⁵ labeled
//! tags) with `Document::parse_str`. Mix: 70 % `Path::eval_labeled` over
//! the five fixed paths, 10 % `is_ancestor` / `document_cmp`, 15 %
//! `insert_fragment` (1–6 elements, hot shelves), 5 % `delete_subtree`
//! (one book, ≤ 14 elements), in exact proportions. A change that speeds writes but slows
//! `label_of` shows up here.

use std::sync::Arc;
use std::time::Instant;

use ltree::xml::{Document, Path, XmlNodeId, XmlTree};
use ltree::DynScheme;

use crate::bench::{record_stats, Acct, Cfg, Clock, Make, Round, Workload};
use crate::catalog::{self, Book, Catalog, PATHS};
use crate::rng::Rng;
use crate::span::{Kind, Tracer};

/// Script length per round at full scale.
const OPS: usize = 2_500;

/// The mix in exact proportions — per 20 ops: 14 queries, one
/// `is_ancestor`, one `document_cmp`, three inserts, one delete —
/// shuffled per deck by the seed. Queries cycle through the five paths
/// and fragment sizes through 1–6. The read and write medians fall
/// between the cost classes of paths and of fragment sizes, so a mix
/// drawn op by op would move them with every seed's draw.
const DECK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 3, 3, 4];

#[derive(Debug, Clone, Copy)]
enum Op {
    Query(usize),
    Ancestor(usize, usize),
    Cmp(usize, usize),
    Insert {
        shelf: usize,
        index: usize,
        frag: usize,
    },
    Delete(u64),
}

pub struct DocQuery {
    catalog: Catalog,
    paths: Vec<Path>,
    frags: Vec<(XmlTree, Book)>,
    script: Vec<Op>,
    make: Make,
}

impl DocQuery {
    pub fn new(cfg: &Cfg, make: Make) -> Self {
        let catalog = catalog::generate(cfg.seed, cfg.n0() / 2);
        let shelves = catalog.shelves();
        let mut rng = Rng::new(cfg.seed, 2);
        let mut frags = Vec::new();
        let mut books = catalog.books.len();
        let (mut deck, mut dealt, mut queries) = (DECK, DECK.len(), 0);
        let script = (0..cfg.ops(OPS))
            .map(|_| {
                if dealt == deck.len() {
                    for i in (1..deck.len()).rev() {
                        deck.swap(i, rng.below(i + 1));
                    }
                    dealt = 0;
                }
                dealt += 1;
                match deck[dealt - 1] {
                    0 => {
                        queries += 1;
                        Op::Query(queries % PATHS.len())
                    }
                    1 => Op::Ancestor(rng.below(catalog.sections), rng.below(shelves)),
                    2 => Op::Cmp(rng.below(shelves), rng.below(shelves)),
                    4 if books > 1 => {
                        books -= 1;
                        Op::Delete(rng.next_u64())
                    }
                    _ => {
                        books += 1;
                        frags.push(catalog::fragment(&mut rng, 1 + frags.len() % 6));
                        Op::Insert {
                            shelf: rng.hot(shelves),
                            index: rng.below(32),
                            frag: frags.len() - 1,
                        }
                    }
                }
            })
            .collect();
        let paths = PATHS
            .iter()
            .map(|p| Path::parse(p).expect("the fixed paths parse"))
            .collect();
        DocQuery {
            catalog,
            paths,
            frags,
            script,
            make,
        }
    }
}

/// Element ids the script addresses, read off the freshly parsed DOM
/// (outside the timed setup).
struct Ids {
    sections: Vec<XmlNodeId>,
    shelves: Vec<XmlNodeId>,
    books: Vec<(XmlNodeId, Book)>,
}

fn ids(doc: &Document<Box<dyn DynScheme>>, cat: &Catalog) -> Option<Ids> {
    let tree = doc.tree();
    let sections = tree.child_elements(tree.root()?).ok()?;
    let mut shelves = Vec::new();
    for s in &sections {
        shelves.extend(tree.child_elements(*s).ok()?);
    }
    let mut book_ids = Vec::new();
    for s in &shelves {
        book_ids.extend(tree.child_elements(*s).ok()?);
    }
    if book_ids.len() != cat.books.len() || shelves.len() != cat.shelves() {
        return None;
    }
    let books = book_ids
        .into_iter()
        .zip(cat.books.iter().copied())
        .collect();
    Some(Ids {
        sections,
        shelves,
        books,
    })
}

impl Workload for DocQuery {
    fn round(&mut self, tracer: Option<&Arc<Tracer>>, acct: &mut Acct) -> Round {
        let mut r = Round::default();
        let t = Instant::now();
        let scheme = (self.make)(tracer);
        let built = if tracer.is_some() {
            // Traced: the same two steps `parse_str` takes, timed apart.
            let tree = ltree::xml::parse(&self.catalog.xml);
            r.vals.insert("xml.parse_s", t.elapsed().as_secs_f64());
            let t = Instant::now();
            let doc = tree.and_then(|tree| Document::from_tree(tree, scheme));
            r.vals.insert("xml.load_s", t.elapsed().as_secs_f64());
            doc
        } else {
            Document::parse_str(&self.catalog.xml, scheme)
        };
        r.setup_s = t.elapsed().as_secs_f64();
        let mut doc = match built {
            Ok(d) => d,
            Err(e) => {
                acct.fail(format!("setup: parse: {e}"));
                return r;
            }
        };
        let Some(mut ids) = ids(&doc, &self.catalog) else {
            acct.fail("setup: the parsed catalog does not have the generated shape".into());
            return r;
        };
        doc.reset_scheme_stats();
        let mut hits = self.catalog.hits();
        let per_section = self.catalog.shelves_per_section;
        let clock = Clock::new(tracer, Some("xml"));
        let mut busy = 0u64;
        let spans = tracer.map(|t| t.aggs());
        let start = Instant::now();
        for &op in &self.script {
            let (kind, ns) = match op {
                Op::Query(p) => {
                    let tick = clock.start(Kind::Read);
                    let got = self.paths[p].eval_labeled(&doc);
                    let ns = clock.stop(tick, "query", Kind::Read);
                    match got {
                        Ok(v) => acct.check(v.len() == hits[p], || {
                            format!("{}: {} results, want {}", PATHS[p], v.len(), hits[p])
                        }),
                        Err(e) => acct.fail(format!("{}: {e}", PATHS[p])),
                    }
                    (Kind::Read, ns)
                }
                Op::Ancestor(sec, shelf) => {
                    let (a, d) = (ids.sections[sec], ids.shelves[shelf]);
                    let tick = clock.start(Kind::Read);
                    let got = doc.is_ancestor(a, d);
                    let ns = clock.stop(tick, "is_ancestor", Kind::Read);
                    let want = shelf / per_section == sec;
                    match got {
                        Ok(g) => acct.check(g == want, || {
                            format!("is_ancestor(section {sec}, shelf {shelf}) = {g}")
                        }),
                        Err(e) => acct.fail(format!("is_ancestor: {e}")),
                    }
                    (Kind::Read, ns)
                }
                Op::Cmp(a, b) => {
                    let tick = clock.start(Kind::Read);
                    let got = doc.document_cmp(ids.shelves[a], ids.shelves[b]);
                    let ns = clock.stop(tick, "document_cmp", Kind::Read);
                    match got {
                        Ok(g) => acct.check(g == a.cmp(&b), || {
                            format!("document_cmp(shelf {a}, shelf {b}) = {g:?}")
                        }),
                        Err(e) => acct.fail(format!("document_cmp: {e}")),
                    }
                    (Kind::Read, ns)
                }
                Op::Insert { shelf, index, frag } => {
                    let (tree, book) = &self.frags[frag];
                    let tick = clock.start(Kind::Write);
                    let got = doc.insert_fragment(ids.shelves[shelf], index, tree);
                    let ns = clock.stop(tick, "insert_fragment", Kind::Write);
                    match got {
                        Ok(new) if new.len() == book.elements => {
                            acct.check(true, String::new);
                            ids.books.push((new[0], *book));
                            hits.iter_mut().zip(book.hits).for_each(|(h, d)| *h += d);
                        }
                        Ok(new) => acct.fail(format!(
                            "insert_fragment: {} ids for {} elements",
                            new.len(),
                            book.elements
                        )),
                        Err(e) => acct.fail(format!("insert_fragment: {e}")),
                    }
                    (Kind::Write, ns)
                }
                Op::Delete(pick) => {
                    let at = (pick % ids.books.len().max(1) as u64) as usize;
                    let Some((id, book)) =
                        (at < ids.books.len()).then(|| ids.books.swap_remove(at))
                    else {
                        acct.fail("script deletes a book while none is left".into());
                        continue;
                    };
                    let tick = clock.start(Kind::Write);
                    let got = doc.delete_subtree(id);
                    let ns = clock.stop(tick, "delete_subtree", Kind::Write);
                    match got {
                        Ok(n) => acct.check(n == book.elements, || {
                            format!("delete_subtree removed {n} of {} elements", book.elements)
                        }),
                        Err(e) => acct.fail(format!("delete_subtree: {e}")),
                    }
                    hits.iter_mut().zip(book.hits).for_each(|(h, d)| *h -= d);
                    (Kind::Write, ns)
                }
            };
            busy += ns;
            match kind {
                Kind::Read => r.read.record(ns),
                _ => r.write.record(ns),
            }
        }
        r.replay_s = start.elapsed().as_secs_f64();
        r.busy_s = busy as f64 / 1e9;
        r.ops = self.script.len() as u64;
        if let (Some(t), Some(before)) = (tracer, &spans) {
            r.spans = t.aggs_since(before);
        }
        check_doc(&doc, &self.paths, &hits, acct);
        let s = doc.scheme();
        record_stats(&**s, &mut r);
        let per_item = s.memory_bytes() as f64 / s.live_len().max(1) as f64;
        r.vals.insert("bytes_per_item", per_item);
        r.vals.insert("core.bytes_per_item", per_item);
        r.vals
            .insert("core.label_bits", f64::from(s.label_space_bits()));
        r
    }
}

/// Round-end oracle: every path answers the same through labels as
/// through DOM navigation, with the size the benchmark expects, and the
/// document validates (labels, depths, tag index, scheme order).
fn check_doc(
    doc: &Document<Box<dyn DynScheme>>,
    paths: &[Path],
    hits: &[usize; 5],
    acct: &mut Acct,
) {
    for (i, p) in paths.iter().enumerate() {
        match (p.eval_labeled(doc), p.eval_navigational(doc)) {
            (Ok(l), Ok(n)) => acct.check(l == n && l.len() == hits[i], || {
                format!(
                    "{}: labeled {} results, navigational {}, expected {}",
                    PATHS[i],
                    l.len(),
                    n.len(),
                    hits[i]
                )
            }),
            (Err(e), _) | (_, Err(e)) => acct.fail(format!("{}: {e}", PATHS[i])),
        }
    }
    acct.check(doc.validate().is_ok(), || {
        format!(
            "validate: {}",
            doc.validate()
                .err()
                .map(|e| e.to_string())
                .unwrap_or_default()
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{Liar, Lie};

    #[test]
    fn round_end_oracle_fires_on_reversed_labels() {
        let cat = catalog::generate(1, 400);
        let paths: Vec<Path> = PATHS.iter().map(|p| Path::parse(p).unwrap()).collect();
        let honest = Document::parse_str(&cat.xml, crate::bench::ltree_core()(None)).unwrap();
        let mut acct = Acct::default();
        check_doc(&honest, &paths, &cat.hits(), &mut acct);
        assert_eq!(acct.failed, 0, "{:?}", acct.notes);

        let scheme: Box<dyn DynScheme> = Box::new(Liar::new(Lie::ReverseLabels));
        let lying = Document::parse_str(&cat.xml, scheme).unwrap();
        let mut acct = Acct::default();
        check_doc(&lying, &paths, &cat.hits(), &mut acct);
        let notes = acct.notes.join("\n");
        assert!(notes.contains("navigational"), "{notes}");
        assert!(notes.contains("validate"), "{notes}");
    }
}
