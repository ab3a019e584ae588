//! Region-labeled documents: a DOM bound to a labeling scheme.
//!
//! Every element holds the handles of the two scheme leaves that carry
//! its begin/end tags (Section 2.1 of the paper: "the label of an XML
//! element node is composed by a pair: the numbers of two leaves in the
//! L-Tree which correspond to that XML node's begin tag and end tag").
//! Ancestor–descendant tests become interval containment (Figure 1);
//! subtree insertion maps to one batch leaf insertion (Section 4.1);
//! subtree deletion tombstones leaves without relabeling (Section 2.3).

use std::collections::HashMap;

use crate::dom::{XmlNodeId, XmlTree};
use crate::error::{Result, XmlError};
use crate::join::SpanRec;
use crate::tags::TagId;
use ltree_core::registry::{SchemeConfig, SchemeRegistry};
use ltree_core::{DynScheme, LabelingScheme, LeafHandle, Splice, SpliceBuilder};

#[derive(Debug, Clone, Copy)]
struct NodeMeta {
    begin: LeafHandle,
    end: LeafHandle,
    depth: u32,
}

/// An XML document whose element order is maintained by a labeling
/// scheme `S`. See the [module docs](self).
pub struct Document<S: LabelingScheme> {
    tree: XmlTree,
    scheme: S,
    meta: HashMap<XmlNodeId, NodeMeta>,
    tag_index: HashMap<TagId, Vec<XmlNodeId>>,
}

impl<S: LabelingScheme> Document<S> {
    /// Bind a parsed tree to a (fresh, empty) labeling scheme — the
    /// **bulk path**: the begin/end tags of all elements are loaded with
    /// a single scheme call (`bulk_build`), never one insert per tag.
    /// Subsequent subtree insertions go through one
    /// [`Splice`] per sibling run (see
    /// [`insert_fragments`](Self::insert_fragments)), so the per-item
    /// relabeling cost the
    /// paper's amortized analysis beats never reappears at load time.
    /// [`from_tree_incremental`](Self::from_tree_incremental) keeps the
    /// per-node path for comparison.
    pub fn from_tree(tree: XmlTree, mut scheme: S) -> Result<Self> {
        let count = tree.element_count();
        let handles = scheme.bulk_build(2 * count)?;
        let mut doc = Document {
            tree,
            scheme,
            meta: HashMap::new(),
            tag_index: HashMap::new(),
        };
        if let Some(root) = doc.tree.root() {
            doc.assign_handles(root, 0, &handles)?;
        }
        let ids = doc.tree.all_elements();
        for id in ids {
            let tag = doc.tree.tag(id)?;
            doc.tag_index.entry(tag).or_default().push(id);
        }
        Ok(doc)
    }

    /// Parse text and bind it in one step (the bulk path).
    pub fn parse_str(xml: &str, scheme: S) -> Result<Self> {
        Self::from_tree(crate::parser::parse(xml)?, scheme)
    }

    /// Bind a parsed tree by labeling **one tag at a time** — the
    /// historical per-node path: `insert_first` for the root's begin tag,
    /// then one `insert_after` per remaining tag in document order
    /// (`2n − 1` single inserts for `n` elements). Kept as the reference
    /// the splice-driven bulk path is measured against; the conformance
    /// suite asserts both paths produce identical documents.
    pub fn from_tree_incremental(tree: XmlTree, scheme: S) -> Result<Self> {
        let mut doc = Document {
            tree,
            scheme,
            meta: HashMap::new(),
            tag_index: HashMap::new(),
        };
        if let Some(root) = doc.tree.root() {
            enum Ev {
                Enter(XmlNodeId, u32),
                Exit(XmlNodeId),
            }
            let mut stack = vec![Ev::Enter(root, 0)];
            let mut prev: Option<LeafHandle> = None;
            let mut pending: HashMap<XmlNodeId, (LeafHandle, u32)> = HashMap::new();
            while let Some(ev) = stack.pop() {
                match ev {
                    Ev::Enter(id, depth) => {
                        let h = match prev {
                            None => doc.scheme.insert_first()?,
                            Some(p) => doc.scheme.insert_after(p)?,
                        };
                        prev = Some(h);
                        pending.insert(id, (h, depth));
                        stack.push(Ev::Exit(id));
                        let children = doc.tree.child_elements(id)?;
                        for c in children.into_iter().rev() {
                            stack.push(Ev::Enter(c, depth + 1));
                        }
                    }
                    Ev::Exit(id) => {
                        let h = doc
                            .scheme
                            .insert_after(prev.expect("enter precedes exit"))?;
                        prev = Some(h);
                        let (begin, depth) = pending.remove(&id).expect("enter precedes exit");
                        doc.meta.insert(
                            id,
                            NodeMeta {
                                begin,
                                end: h,
                                depth,
                            },
                        );
                    }
                }
            }
        }
        for id in doc.tree.all_elements() {
            let tag = doc.tree.tag(id)?;
            doc.tag_index.entry(tag).or_default().push(id);
        }
        Ok(doc)
    }

    /// Parse text and bind it through the per-node path.
    pub fn parse_str_incremental(xml: &str, scheme: S) -> Result<Self> {
        Self::from_tree_incremental(crate::parser::parse(xml)?, scheme)
    }

    /// The labeling scheme, by value (for rebinding or inspection).
    pub fn into_scheme(self) -> S {
        self.scheme
    }

    /// Bind a tree to a scheme that **already** holds the right leaves —
    /// `live_handles` must be the scheme's live leaves in document order,
    /// exactly two per element. Used when restoring a persisted document
    /// (see [`crate::persist`]) where the scheme state (and thus the
    /// exact labels, slack included) is recovered rather than rebuilt.
    pub fn bind_existing(tree: XmlTree, scheme: S, live_handles: &[LeafHandle]) -> Result<Self> {
        if live_handles.len() != 2 * tree.element_count() {
            return Err(XmlError::Parse {
                line: 0,
                col: 0,
                msg: format!(
                    "{} live leaves cannot label {} elements",
                    live_handles.len(),
                    tree.element_count()
                ),
            });
        }
        let mut doc = Document {
            tree,
            scheme,
            meta: HashMap::new(),
            tag_index: HashMap::new(),
        };
        if let Some(root) = doc.tree.root() {
            doc.assign_handles(root, 0, live_handles)?;
        }
        for id in doc.tree.all_elements() {
            let tag = doc.tree.tag(id)?;
            doc.tag_index.entry(tag).or_default().push(id);
        }
        doc.validate()?;
        Ok(doc)
    }

    /// Verify that the scheme's own cursor order agrees with strictly
    /// increasing labels — a streaming walk, no allocation. Tombstones
    /// (departed elements) are part of the order and are included.
    fn check_scheme_order(&self) -> Result<()> {
        let mut prev: Option<u128> = None;
        for h in self.scheme.cursor() {
            let l = self.scheme.label_of(h)?;
            if let Some(p) = prev {
                if p >= l {
                    return Err(XmlError::Parse {
                        line: 0,
                        col: 0,
                        msg: format!("scheme cursor out of label order ({p} >= {l})"),
                    });
                }
            }
            prev = Some(l);
        }
        Ok(())
    }

    /// Assign begin/end handles (a slice covering exactly the subtree's
    /// `2 × size` tags, in document order) to the subtree at `root`.
    fn assign_handles(
        &mut self,
        root: XmlNodeId,
        root_depth: u32,
        handles: &[LeafHandle],
    ) -> Result<()> {
        enum Ev {
            Enter(XmlNodeId, u32),
            Exit(XmlNodeId),
        }
        let mut stack = vec![Ev::Enter(root, root_depth)];
        let mut cursor = 0usize;
        let mut pending: HashMap<XmlNodeId, (LeafHandle, u32)> = HashMap::new();
        while let Some(ev) = stack.pop() {
            match ev {
                Ev::Enter(id, depth) => {
                    let begin = handles[cursor];
                    cursor += 1;
                    pending.insert(id, (begin, depth));
                    stack.push(Ev::Exit(id));
                    let children = self.tree.child_elements(id)?;
                    for c in children.into_iter().rev() {
                        stack.push(Ev::Enter(c, depth + 1));
                    }
                }
                Ev::Exit(id) => {
                    let end = handles[cursor];
                    cursor += 1;
                    let (begin, depth) = pending.remove(&id).expect("enter precedes exit");
                    self.meta.insert(id, NodeMeta { begin, end, depth });
                }
            }
        }
        debug_assert_eq!(cursor, handles.len(), "exactly 2 tags per element");
        Ok(())
    }

    // ------------------------------------------------------------------
    // Read access
    // ------------------------------------------------------------------

    /// The underlying DOM (read-only; mutate through `Document` methods
    /// so labels stay in sync).
    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    /// The labeling scheme (for stats and label-space inspection).
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Reset the scheme's cost counters — typically right after a bulk
    /// load, so subsequent [`scheme`](Self::scheme) stats cover edits
    /// only (bulk loading is not an update in the paper's model).
    pub fn reset_scheme_stats(&mut self) {
        self.scheme.reset_scheme_stats();
    }

    /// Number of live elements.
    pub fn element_count(&self) -> usize {
        self.tree.element_count()
    }

    /// The `(begin, end)` region labels of an element.
    pub fn span(&self, id: XmlNodeId) -> Result<(u128, u128)> {
        let meta = self.meta.get(&id).ok_or(XmlError::UnknownNode)?;
        Ok((
            self.scheme.label_of(meta.begin)?,
            self.scheme.label_of(meta.end)?,
        ))
    }

    /// Depth of an element (root = 0) — maintained incrementally.
    pub fn depth(&self, id: XmlNodeId) -> Result<u32> {
        Ok(self.meta.get(&id).ok_or(XmlError::UnknownNode)?.depth)
    }

    /// Full span record for joins.
    pub fn span_rec(&self, id: XmlNodeId) -> Result<SpanRec> {
        let meta = self.meta.get(&id).ok_or(XmlError::UnknownNode)?;
        Ok(SpanRec {
            begin: self.scheme.label_of(meta.begin)?,
            end: self.scheme.label_of(meta.end)?,
            depth: meta.depth,
            node: id,
        })
    }

    /// All elements with the given tag, as span records sorted by begin
    /// label (the "tag index" of the paper's RDBMS story).
    pub fn spans_with_tag(&self, tag: &str) -> Result<Vec<SpanRec>> {
        let Some(tag) = self.tree.tags.get(tag) else {
            return Ok(Vec::new());
        };
        let mut out: Vec<SpanRec> = self
            .tag_index
            .get(&tag)
            .map(|ids| {
                ids.iter()
                    .map(|&id| self.span_rec(id))
                    .collect::<Result<_>>()
            })
            .transpose()?
            .unwrap_or_default();
        out.sort_unstable_by_key(|s| s.begin);
        Ok(out)
    }

    /// Every element as a span record, sorted by begin label.
    pub fn all_spans(&self) -> Result<Vec<SpanRec>> {
        let mut out: Vec<SpanRec> = self
            .meta
            .keys()
            .map(|&id| self.span_rec(id))
            .collect::<Result<_>>()?;
        out.sort_unstable_by_key(|s| s.begin);
        Ok(out)
    }

    /// Interval-containment ancestor test (Figure 1 of the paper): `a` is
    /// an ancestor of `d` iff `begin(a) < begin(d)` and `end(d) < end(a)`.
    pub fn is_ancestor(&self, a: XmlNodeId, d: XmlNodeId) -> Result<bool> {
        let (ab, ae) = self.span(a)?;
        let (db, de) = self.span(d)?;
        Ok(ab < db && de < ae)
    }

    /// All ancestors of `id`, nearest first — answered purely from
    /// labels: ancestors are exactly the elements whose region contains
    /// `id`'s (Section 4.2's "the labels encode all the ancestors").
    pub fn ancestors(&self, id: XmlNodeId) -> Result<Vec<XmlNodeId>> {
        let (b, e) = self.span(id)?;
        let mut out: Vec<SpanRec> = Vec::new();
        for rec in self.all_spans()? {
            if rec.begin < b && e < rec.end {
                out.push(rec);
            }
        }
        // Nearest (deepest) first.
        out.sort_unstable_by_key(|r| std::cmp::Reverse(r.begin));
        Ok(out.into_iter().map(|r| r.node).collect())
    }

    /// Elements entirely *after* `id`'s subtree in document order (the
    /// XPath `following` axis): `begin > end(id)`.
    pub fn following(&self, id: XmlNodeId) -> Result<Vec<XmlNodeId>> {
        let (_, e) = self.span(id)?;
        Ok(self
            .all_spans()?
            .into_iter()
            .filter(|r| r.begin > e)
            .map(|r| r.node)
            .collect())
    }

    /// Elements entirely *before* `id`'s subtree in document order (the
    /// XPath `preceding` axis): `end < begin(id)`.
    pub fn preceding(&self, id: XmlNodeId) -> Result<Vec<XmlNodeId>> {
        let (b, _) = self.span(id)?;
        Ok(self
            .all_spans()?
            .into_iter()
            .filter(|r| r.end < b)
            .map(|r| r.node)
            .collect())
    }

    /// Following siblings of `id` via labels: same parent region, begin
    /// after `id`'s end, depth equal.
    pub fn following_siblings(&self, id: XmlNodeId) -> Result<Vec<XmlNodeId>> {
        let (_, e) = self.span(id)?;
        let depth = self.depth(id)?;
        let parent = self.tree.parent(id)?;
        let bound = match parent {
            Some(p) => self.span(p)?.1,
            None => return Ok(Vec::new()),
        };
        Ok(self
            .all_spans()?
            .into_iter()
            .filter(|r| r.depth == depth && r.begin > e && r.end < bound)
            .map(|r| r.node)
            .collect())
    }

    /// Compare two elements in document order via their begin labels.
    pub fn document_cmp(&self, a: XmlNodeId, b: XmlNodeId) -> Result<std::cmp::Ordering> {
        Ok(self.span(a)?.0.cmp(&self.span(b)?.0))
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Insert `fragment` (a complete tree) as the `index`-th element
    /// child of `parent`. One batch leaf insertion covers the whole
    /// fragment (paper, Section 4.1: "usually, insertions to XML
    /// documents are subtrees"). Returns the new element ids in document
    /// order.
    pub fn insert_fragment(
        &mut self,
        parent: XmlNodeId,
        index: usize,
        fragment: &XmlTree,
    ) -> Result<Vec<XmlNodeId>> {
        Ok(self
            .insert_fragments(parent, index, std::slice::from_ref(fragment))?
            .pop()
            .expect("one fragment in, one id list out"))
    }

    /// Insert several complete trees as consecutive element children of
    /// `parent`, starting at child position `index`. The fragments form
    /// **one sibling run** — their tag sequences concatenate contiguously
    /// after the anchor — so the whole batch is labeled by a *single*
    /// [`Splice::InsertAfter`], assembled with [`SpliceBuilder`], no
    /// matter how many fragments or elements it carries. Returns one id
    /// list per fragment, each in document order.
    pub fn insert_fragments(
        &mut self,
        parent: XmlNodeId,
        index: usize,
        fragments: &[XmlTree],
    ) -> Result<Vec<Vec<XmlNodeId>>> {
        if fragments.is_empty() {
            return Ok(Vec::new());
        }
        // Reject rootless fragments *before* the first graft: grafting is
        // the only per-fragment failure mode, and failing mid-loop would
        // leave earlier fragments in the DOM with no labels.
        for fragment in fragments {
            fragment.root().ok_or(XmlError::UnknownNode)?;
        }
        let parent_meta = *self.meta.get(&parent).ok_or(XmlError::UnknownNode)?;
        let children = self.tree.child_elements(parent)?;
        let idx = index.min(children.len());
        let anchor = if idx == 0 {
            parent_meta.begin
        } else {
            self.meta
                .get(&children[idx - 1])
                .ok_or(XmlError::UnknownNode)?
                .end
        };
        // Graft every fragment into the DOM first, then label the whole
        // sibling run with one splice.
        let mut grafted: Vec<Vec<XmlNodeId>> = Vec::with_capacity(fragments.len());
        let mut builder = SpliceBuilder::new();
        for (i, fragment) in fragments.iter().enumerate() {
            let ids = self.tree.graft(parent, idx + i, fragment)?;
            if i == 0 {
                builder.push_run(anchor, 2 * ids.len());
            } else {
                builder.extend_last(2 * ids.len());
            }
            grafted.push(ids);
        }
        let runs = builder.apply(&mut self.scheme)?;
        let handles = &runs[0];
        let mut offset = 0usize;
        for ids in &grafted {
            let take = 2 * ids.len();
            self.assign_handles(
                ids[0],
                parent_meta.depth + 1,
                &handles[offset..offset + take],
            )?;
            offset += take;
            for &id in ids {
                let tag = self.tree.tag(id)?;
                self.tag_index.entry(tag).or_default().push(id);
            }
        }
        Ok(grafted)
    }

    /// Insert a single fresh element (no children) — the paper's single
    /// node insertion: two leaf insertions.
    pub fn insert_element(
        &mut self,
        parent: XmlNodeId,
        index: usize,
        tag: &str,
    ) -> Result<XmlNodeId> {
        let (frag, _) = XmlTree::with_root(tag);
        Ok(self.insert_fragment(parent, index, &frag)?[0])
    }

    /// Append a text run to an element (text carries no labels).
    pub fn add_text(&mut self, id: XmlNodeId, text: &str) -> Result<()> {
        self.meta.get(&id).ok_or(XmlError::UnknownNode)?;
        self.tree.add_text(id, text)
    }

    /// Move the subtree rooted at `id` to become the `index`-th element
    /// child of `new_parent`. Element ids are preserved; on the labeling
    /// side this is one tombstoning pass (free, §2.3) plus one batch
    /// insertion at the destination (§4.1).
    pub fn move_subtree(
        &mut self,
        id: XmlNodeId,
        new_parent: XmlNodeId,
        index: usize,
    ) -> Result<()> {
        if id == new_parent || self.is_ancestor(id, new_parent)? {
            return Err(XmlError::InvalidMove);
        }
        let order = self.tree.dfs(id)?;
        // Release the old leaves (tombstones only): the subtree's tags
        // are exactly the live leaves between its root's begin and end,
        // so one delete-run splice covers all of them.
        let root_meta = *self.meta.get(&id).ok_or(XmlError::UnknownNode)?;
        let released = self
            .scheme
            .splice(Splice::DeleteRun {
                first: root_meta.begin,
                count: 2 * order.len(),
            })?
            .deleted();
        debug_assert_eq!(released, 2 * order.len(), "run covers the whole subtree");
        for &e in &order {
            self.meta.remove(&e).ok_or(XmlError::UnknownNode)?;
        }
        self.tree.detach_subtree(id)?;
        // Splice at the destination and relabel the moved subtree with
        // one batch of fresh leaves.
        let parent_meta = *self.meta.get(&new_parent).ok_or(XmlError::UnknownNode)?;
        let children = self.tree.child_elements(new_parent)?;
        let idx = index.min(children.len());
        let anchor = if idx == 0 {
            parent_meta.begin
        } else {
            self.meta
                .get(&children[idx - 1])
                .ok_or(XmlError::UnknownNode)?
                .end
        };
        self.tree.attach_subtree(new_parent, idx, id)?;
        let handles = self
            .scheme
            .splice(Splice::InsertAfter {
                anchor,
                count: 2 * order.len(),
            })?
            .into_inserted();
        self.assign_handles(id, parent_meta.depth + 1, &handles)?;
        Ok(())
    }

    /// Delete the subtree rooted at `id` (not the root). The scheme
    /// leaves are tombstoned — no relabeling happens (paper, §2.3) — via
    /// a single delete-run splice over the subtree's contiguous tag run.
    /// Returns the number of elements removed.
    pub fn delete_subtree(&mut self, id: XmlNodeId) -> Result<usize> {
        let root_meta = *self.meta.get(&id).ok_or(XmlError::UnknownNode)?;
        let removed = self.tree.remove_subtree(id)?;
        let released = self
            .scheme
            .splice(Splice::DeleteRun {
                first: root_meta.begin,
                count: 2 * removed.len(),
            })?
            .deleted();
        debug_assert_eq!(released, 2 * removed.len(), "run covers the whole subtree");
        for &e in &removed {
            self.meta.remove(&e).ok_or(XmlError::UnknownNode)?;
        }
        let gone: std::collections::HashSet<XmlNodeId> = removed.iter().copied().collect();
        for ids in self.tag_index.values_mut() {
            ids.retain(|i| !gone.contains(i));
        }
        Ok(removed.len())
    }

    // ------------------------------------------------------------------
    // Consistency checking (tests and experiments)
    // ------------------------------------------------------------------

    /// Verify that labels, depths and the tag index agree with the DOM:
    /// document order by labels equals DFS order; every parent's region
    /// strictly contains its children's; depths match.
    pub fn validate(&self) -> Result<()> {
        let Some(root) = self.tree.root() else {
            return Ok(());
        };
        let order = self.tree.dfs(root)?;
        let mut prev_begin: Option<u128> = None;
        for &id in &order {
            let (b, e) = self.span(id)?;
            if b >= e {
                return Err(XmlError::Parse {
                    line: 0,
                    col: 0,
                    msg: format!("span of {id:?} inverted"),
                });
            }
            if let Some(p) = prev_begin {
                if p >= b {
                    return Err(XmlError::Parse {
                        line: 0,
                        col: 0,
                        msg: "begin labels do not follow document order".into(),
                    });
                }
            }
            prev_begin = Some(b);
            if self.depth(id)? != self.tree.depth(id)? {
                return Err(XmlError::Parse {
                    line: 0,
                    col: 0,
                    msg: format!("depth of {id:?} stale"),
                });
            }
            if let Some(p) = self.tree.parent(id)? {
                let (pb, pe) = self.span(p)?;
                if !(pb < b && e < pe) {
                    return Err(XmlError::Parse {
                        line: 0,
                        col: 0,
                        msg: format!("region of {id:?} not inside its parent"),
                    });
                }
            }
        }
        // Tag index completeness.
        let indexed: usize = self.tag_index.values().map(Vec::len).sum();
        if indexed != order.len() {
            return Err(XmlError::Parse {
                line: 0,
                col: 0,
                msg: format!("tag index covers {indexed} of {} elements", order.len()),
            });
        }
        self.check_scheme_order()
    }
}

/// Registry-based constructors: build the labeling scheme from a spec
/// string (`"ltree(4,2)"`, `"virtual"`, `"gap(64)"`, …) instead of a
/// concrete type, yielding a `Document<Box<dyn DynScheme>>`. The boxed
/// scheme implements the whole trait family, so every `Document` method
/// works unchanged.
impl Document<Box<dyn DynScheme>> {
    /// Bind `tree` to a scheme built by `registry` from `spec`.
    pub fn from_tree_with(
        tree: XmlTree,
        registry: &SchemeRegistry,
        spec: &str,
        config: &SchemeConfig,
    ) -> Result<Self> {
        Self::from_tree(tree, registry.build_with(spec, config)?)
    }

    /// Parse `xml` and bind it to a scheme built by `registry` from
    /// `spec`, in one step.
    pub fn parse_str_with(
        xml: &str,
        registry: &SchemeRegistry,
        spec: &str,
        config: &SchemeConfig,
    ) -> Result<Self> {
        Self::parse_str(xml, registry.build_with(spec, config)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltree_core::{Instrumented, LTree, Params};

    fn doc(xml: &str) -> Document<LTree> {
        Document::parse_str(xml, LTree::new(Params::new(4, 2).unwrap())).unwrap()
    }

    const FIG1: &str = "<book><chapter><title>t</title></chapter><title>top</title></book>";

    #[test]
    fn figure1_regions() {
        // Figure 1 of the paper: book(0,7) chapter(1,4) title(2,3) title(5,6)
        // — our labels differ (L-Tree slack) but containment must match.
        let d = doc(FIG1);
        let root = d.tree().root().unwrap();
        let kids = d.tree().child_elements(root).unwrap();
        let chapter = kids[0];
        let top_title = kids[1];
        let inner_title = d.tree().child_elements(chapter).unwrap()[0];
        assert!(d.is_ancestor(root, chapter).unwrap());
        assert!(d.is_ancestor(root, inner_title).unwrap());
        assert!(d.is_ancestor(chapter, inner_title).unwrap());
        assert!(!d.is_ancestor(chapter, top_title).unwrap());
        assert!(!d.is_ancestor(inner_title, chapter).unwrap());
        d.validate().unwrap();
    }

    #[test]
    fn spans_follow_document_order() {
        let d = doc(FIG1);
        let all = d.all_spans().unwrap();
        assert_eq!(all.len(), 4);
        for w in all.windows(2) {
            assert!(w[0].begin < w[1].begin);
        }
    }

    #[test]
    fn tag_index_lookup() {
        let d = doc(FIG1);
        let titles = d.spans_with_tag("title").unwrap();
        assert_eq!(titles.len(), 2);
        assert!(titles[0].begin < titles[1].begin);
        assert!(d.spans_with_tag("missing").unwrap().is_empty());
    }

    #[test]
    fn insert_element_preserves_order() {
        let mut d = doc(FIG1);
        let root = d.tree().root().unwrap();
        let chapter = d.tree().child_elements(root).unwrap()[0];
        let sect = d.insert_element(chapter, 1, "section").unwrap();
        d.validate().unwrap();
        assert!(d.is_ancestor(chapter, sect).unwrap());
        assert_eq!(d.depth(sect).unwrap(), 2);
        // It landed after the existing title.
        let title = d.tree().child_elements(chapter).unwrap()[0];
        assert_eq!(
            d.document_cmp(title, sect).unwrap(),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn insert_fragment_batches_leaves() {
        let mut d = doc(FIG1);
        let root = d.tree().root().unwrap();
        let (mut frag, fr) = XmlTree::with_root("appendix");
        let s1 = frag.add_child(fr, "section").unwrap();
        frag.add_child(s1, "para").unwrap();
        frag.add_child(fr, "section").unwrap();
        let before = d.scheme().scheme_stats().inserts;
        let ids = d.insert_fragment(root, 2, &frag).unwrap();
        assert_eq!(ids.len(), 4);
        assert_eq!(
            d.scheme().scheme_stats().inserts - before,
            8,
            "2 leaves per element"
        );
        d.validate().unwrap();
        assert!(d.is_ancestor(root, ids[0]).unwrap());
        assert!(d.is_ancestor(ids[0], ids[3]).unwrap());
        assert_eq!(d.depth(ids[2]).unwrap(), 3);
    }

    #[test]
    fn incremental_path_matches_bulk_path() {
        let bulk = doc(FIG1);
        let incr = Document::from_tree_incremental(
            crate::parser::parse(FIG1).unwrap(),
            LTree::new(Params::new(4, 2).unwrap()),
        )
        .unwrap();
        incr.validate().unwrap();
        // Same elements in the same document order on both paths.
        let order = |d: &Document<LTree>| {
            d.all_spans()
                .unwrap()
                .into_iter()
                .map(|s| s.node)
                .collect::<Vec<_>>()
        };
        assert_eq!(order(&bulk), order(&incr));
        assert_eq!(bulk.element_count(), incr.element_count());
    }

    #[test]
    fn insert_fragments_labels_the_run_with_one_splice() {
        use ltree_obs::{mutation_calls, TracedScheme};
        let mut d = Document::parse_str(
            FIG1,
            TracedScheme::new(LTree::new(Params::new(4, 2).unwrap())),
        )
        .unwrap();
        let root = d.tree().root().unwrap();
        let (mut f1, r1) = XmlTree::with_root("appendix");
        f1.add_child(r1, "section").unwrap();
        let (f2, _) = XmlTree::with_root("index");
        let calls_before = mutation_calls(&d.scheme().metrics());
        let ids = d.insert_fragments(root, 2, &[f1, f2]).unwrap();
        assert_eq!(
            mutation_calls(&d.scheme().metrics()) - calls_before,
            1,
            "the whole sibling run is one splice"
        );
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0].len(), 2);
        assert_eq!(ids[1].len(), 1);
        d.validate().unwrap();
        // Fragments landed adjacent, in order, at child position 2 and 3.
        let kids = d.tree().child_elements(root).unwrap();
        assert_eq!(kids[2], ids[0][0]);
        assert_eq!(kids[3], ids[1][0]);
        assert!(d.is_ancestor(ids[0][0], ids[0][1]).unwrap());
    }

    #[test]
    fn rootless_fragment_is_rejected_before_any_graft() {
        let mut d = doc(FIG1);
        let root = d.tree().root().unwrap();
        let (valid, _) = XmlTree::with_root("ok");
        let count = d.element_count();
        assert!(matches!(
            d.insert_fragments(root, 0, &[valid, XmlTree::new()]),
            Err(XmlError::UnknownNode)
        ));
        // Nothing was grafted: the document is unchanged and consistent.
        assert_eq!(d.element_count(), count);
        d.validate().unwrap();
    }

    #[test]
    fn subtree_removal_is_one_delete_run() {
        use ltree_obs::{mutation_calls, TracedScheme};
        let mut d = Document::parse_str(
            "<r><a><b/><c><d/></c></a><e/></r>",
            TracedScheme::new(LTree::new(Params::new(4, 2).unwrap())),
        )
        .unwrap();
        let root = d.tree().root().unwrap();
        let a = d.tree().child_elements(root).unwrap()[0];
        let calls_before = mutation_calls(&d.scheme().metrics());
        let removed = d.delete_subtree(a).unwrap();
        assert_eq!(removed, 4);
        assert_eq!(
            mutation_calls(&d.scheme().metrics()) - calls_before,
            1,
            "subtree removal is one delete-run splice"
        );
        d.validate().unwrap();
    }

    #[test]
    fn insert_at_front_of_parent() {
        let mut d = doc(FIG1);
        let root = d.tree().root().unwrap();
        let pre = d.insert_element(root, 0, "preface").unwrap();
        d.validate().unwrap();
        let kids = d.tree().child_elements(root).unwrap();
        assert_eq!(kids[0], pre);
        let (rb, _) = d.span(root).unwrap();
        let (pb, _) = d.span(pre).unwrap();
        assert!(rb < pb);
    }

    #[test]
    fn delete_subtree_tombstones() {
        let mut d = doc(FIG1);
        let root = d.tree().root().unwrap();
        let chapter = d.tree().child_elements(root).unwrap()[0];
        let writes_before = d.scheme().scheme_stats().label_writes;
        let removed = d.delete_subtree(chapter).unwrap();
        assert_eq!(removed, 2, "chapter and its title");
        assert_eq!(
            d.scheme().scheme_stats().label_writes,
            writes_before,
            "deletion never writes labels"
        );
        assert_eq!(d.element_count(), 2);
        assert!(d.span(chapter).is_err());
        assert_eq!(d.spans_with_tag("title").unwrap().len(), 1);
        d.validate().unwrap();
    }

    #[test]
    fn deleting_root_is_refused() {
        let mut d = doc(FIG1);
        let root = d.tree().root().unwrap();
        assert!(matches!(
            d.delete_subtree(root),
            Err(XmlError::CannotRemoveRoot)
        ));
    }

    #[test]
    fn heavy_update_storm_stays_consistent() {
        let mut d = doc("<r><a/><b/></r>");
        let root = d.tree().root().unwrap();
        let mut targets = d.tree().child_elements(root).unwrap();
        for i in 0..200 {
            let parent = targets[i % targets.len()];
            let id = d.insert_element(parent, i % 3, "x").unwrap();
            targets.push(id);
            if i % 17 == 0 {
                d.validate().unwrap();
            }
        }
        d.validate().unwrap();
        assert_eq!(d.element_count(), 203);
    }

    #[test]
    fn label_axes_match_dom_truth() {
        let d = doc("<r><a><b/><c/></a><d><e><f/></e></d><g/></r>");
        let all = d.tree().all_elements();
        for &id in &all {
            // ancestors: label answer == parent-chain answer.
            let mut chain = Vec::new();
            let mut cur = d.tree().parent(id).unwrap();
            while let Some(p) = cur {
                chain.push(p);
                cur = d.tree().parent(p).unwrap();
            }
            assert_eq!(d.ancestors(id).unwrap(), chain, "ancestors of {id:?}");
            // following/preceding partition the non-related elements.
            let (b, e) = d.span(id).unwrap();
            for &other in &all {
                let (ob, oe) = d.span(other).unwrap();
                let in_following = d.following(id).unwrap().contains(&other);
                let in_preceding = d.preceding(id).unwrap().contains(&other);
                assert_eq!(in_following, ob > e, "following {other:?} of {id:?}");
                assert_eq!(in_preceding, oe < b, "preceding {other:?} of {id:?}");
            }
        }
        // following_siblings of <a> is [<d>, <g>].
        let root = d.tree().root().unwrap();
        let kids = d.tree().child_elements(root).unwrap();
        assert_eq!(
            d.following_siblings(kids[0]).unwrap(),
            vec![kids[1], kids[2]]
        );
        assert!(d.following_siblings(kids[2]).unwrap().is_empty());
        assert!(d.following_siblings(root).unwrap().is_empty());
    }

    #[test]
    fn move_subtree_preserves_ids_and_order() {
        let mut d = doc(FIG1);
        let root = d.tree().root().unwrap();
        let kids = d.tree().child_elements(root).unwrap();
        let (chapter, top_title) = (kids[0], kids[1]);
        let inner_title = d.tree().child_elements(chapter).unwrap()[0];
        // Move the chapter after the top title (to the end of the book).
        d.move_subtree(chapter, root, 2).unwrap();
        d.validate().unwrap();
        let kids = d.tree().child_elements(root).unwrap();
        assert_eq!(
            kids,
            vec![top_title, chapter],
            "ids preserved, order changed"
        );
        assert!(
            d.is_ancestor(chapter, inner_title).unwrap(),
            "subtree intact"
        );
        assert_eq!(
            d.document_cmp(top_title, inner_title).unwrap(),
            std::cmp::Ordering::Less
        );
        // Move it inside what used to be its sibling.
        d.move_subtree(chapter, top_title, 0).unwrap();
        d.validate().unwrap();
        assert!(d.is_ancestor(top_title, inner_title).unwrap());
        assert_eq!(d.depth(inner_title).unwrap(), 3);
    }

    #[test]
    fn move_into_self_is_rejected() {
        let mut d = doc(FIG1);
        let root = d.tree().root().unwrap();
        let chapter = d.tree().child_elements(root).unwrap()[0];
        let inner = d.tree().child_elements(chapter).unwrap()[0];
        assert!(matches!(
            d.move_subtree(chapter, inner, 0),
            Err(XmlError::InvalidMove)
        ));
        assert!(matches!(
            d.move_subtree(chapter, chapter, 0),
            Err(XmlError::InvalidMove)
        ));
        d.validate().unwrap();
    }

    #[test]
    fn registry_constructed_documents_work() {
        // Any registered scheme can label a document, picked by name.
        let mut reg = SchemeRegistry::with_builtin();
        ltree_virtual::register(&mut reg);
        labeling_baselines::register(&mut reg);
        let cfg = SchemeConfig::default();
        for spec in [
            "ltree(4,2)",
            "virtual(4,2)",
            "naive",
            "gap(16)",
            "list-label",
        ] {
            let mut d = Document::parse_str_with(FIG1, &reg, spec, &cfg)
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            let root = d.tree().root().unwrap();
            d.insert_element(root, 1, "isbn").unwrap();
            d.validate().unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(d.element_count(), 5, "{spec}");
        }
        assert!(Document::parse_str_with(FIG1, &reg, "no-such-scheme", &cfg).is_err());
    }

    #[test]
    fn works_with_any_scheme() {
        // The document layer is generic; exercise it over the virtual
        // L-Tree and a baseline to pin the contract.
        let v = ltree_virtual::VirtualLTree::new(Params::new(4, 2).unwrap());
        let mut d = Document::parse_str(FIG1, v).unwrap();
        let root = d.tree().root().unwrap();
        d.insert_element(root, 1, "isbn").unwrap();
        d.validate().unwrap();

        let n = labeling_baselines::NaiveLabeling::new();
        let mut d = Document::parse_str(FIG1, n).unwrap();
        let root = d.tree().root().unwrap();
        d.insert_element(root, 0, "isbn").unwrap();
        d.validate().unwrap();
    }
}
