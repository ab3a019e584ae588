//! Region-labeled documents: a DOM bound to a labeling scheme.
//!
//! Every element holds the handles of the two scheme leaves that carry
//! its begin/end tags (Section 2.1 of the paper: "the label of an XML
//! element node is composed by a pair: the numbers of two leaves in the
//! L-Tree which correspond to that XML node's begin tag and end tag").
//! Ancestor–descendant tests become interval containment (Figure 1);
//! subtree insertion maps to one batch leaf insertion (Section 4.1);
//! subtree deletion tombstones leaves without relabeling (Section 2.3).
//!
//! The labels live in a dense table indexed by the element's DOM slot
//! ([`XmlNodeId::raw`]), so a label lookup is an array access, and
//! binding a tree of `n` elements is one walk of `n` steps.

use std::collections::HashMap;

use crate::dom::{Content, XmlNodeId, XmlTree};
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
///
/// Every edit either completes or leaves the document as it was: a
/// failed scheme call undoes its DOM side (except in
/// [`move_subtree`](Self::move_subtree), whose released leaves cannot be
/// restored).
pub struct Document<S: LabelingScheme> {
    tree: XmlTree,
    scheme: S,
    /// Labels per element, indexed by DOM slot; `None` for a free slot.
    meta: Vec<Option<NodeMeta>>,
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
        let handles = scheme.bulk_build(2 * tree.element_count())?;
        let mut doc = Self::unlabeled(tree, scheme);
        if let Some(root) = doc.tree.root() {
            doc.assign_handles(root, 0, &handles)?;
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
        let mut doc = Self::unlabeled(tree, scheme);
        if let Some(root) = doc.tree.root() {
            let mut prev: Option<LeafHandle> = None;
            doc.label_subtree(root, 0, |scheme| {
                let h = match prev {
                    None => scheme.insert_first()?,
                    Some(p) => scheme.insert_after(p)?,
                };
                prev = Some(h);
                Ok(h)
            })?;
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
        let mut doc = Self::unlabeled(tree, scheme);
        if let Some(root) = doc.tree.root() {
            doc.assign_handles(root, 0, live_handles)?;
        }
        doc.validate()?;
        Ok(doc)
    }

    /// `tree` and `scheme` with the tag index built and no labels yet.
    fn unlabeled(tree: XmlTree, scheme: S) -> Self {
        let mut doc = Document {
            tree,
            scheme,
            meta: Vec::new(),
            tag_index: HashMap::new(),
        };
        for id in doc.tree.all_elements() {
            doc.index_tag(id);
        }
        doc
    }

    fn index_tag(&mut self, id: XmlNodeId) {
        let tag = self.tree.tag(id).expect("indexed elements are live");
        self.tag_index.entry(tag).or_default().push(id);
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
        let mut tags = handles.iter().copied();
        self.label_subtree(root, root_depth, |_| {
            Ok(tags.next().expect("2 tags per element"))
        })?;
        debug_assert!(tags.next().is_none(), "exactly 2 tags per element");
        Ok(())
    }

    /// Label the subtree at `root` in one document-order walk, taking
    /// each begin and end tag's handle from `next_tag` in turn.
    fn label_subtree(
        &mut self,
        root: XmlNodeId,
        root_depth: u32,
        mut next_tag: impl FnMut(&mut S) -> Result<LeafHandle>,
    ) -> Result<()> {
        // Cover every slot, including those a graft just added.
        self.meta.resize(self.tree.slot_count(), None);
        // (element, depth, begin handle, next content position to visit)
        let mut stack = vec![(root, root_depth, next_tag(&mut self.scheme)?, 0usize)];
        while let Some(top) = stack.last_mut() {
            let (id, depth, begin, pos) = *top;
            let content = &self.tree.element(id)?.content;
            let child = content[pos..]
                .iter()
                .enumerate()
                .find_map(|(i, c)| match c {
                    Content::Element(e) => Some((pos + i + 1, *e)),
                    Content::Text(_) => None,
                });
            match child {
                Some((resume, child)) => {
                    top.3 = resume;
                    stack.push((child, depth + 1, next_tag(&mut self.scheme)?, 0));
                }
                None => {
                    stack.pop();
                    let end = next_tag(&mut self.scheme)?;
                    self.meta[id.raw() as usize] = Some(NodeMeta { begin, end, depth });
                }
            }
        }
        Ok(())
    }

    /// The labels of a live element.
    fn meta(&self, id: XmlNodeId) -> Result<NodeMeta> {
        self.meta
            .get(id.raw() as usize)
            .copied()
            .flatten()
            .ok_or(XmlError::UnknownNode)
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
        let meta = self.meta(id)?;
        Ok((
            self.scheme.label_of(meta.begin)?,
            self.scheme.label_of(meta.end)?,
        ))
    }

    /// Depth of an element (root = 0) — maintained incrementally.
    pub fn depth(&self, id: XmlNodeId) -> Result<u32> {
        Ok(self.meta(id)?.depth)
    }

    /// Full span record for joins.
    pub fn span_rec(&self, id: XmlNodeId) -> Result<SpanRec> {
        self.rec(id, self.meta(id)?)
    }

    fn rec(&self, node: XmlNodeId, meta: NodeMeta) -> Result<SpanRec> {
        Ok(SpanRec {
            begin: self.scheme.label_of(meta.begin)?,
            end: self.scheme.label_of(meta.end)?,
            depth: meta.depth,
            node,
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
            .iter()
            .enumerate()
            .filter_map(|(slot, meta)| Some(self.rec(XmlNodeId(slot as u32), (*meta)?)))
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
        let (parent_meta, idx, anchor) = self.insertion_point(parent, index)?;
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
        let runs = match builder.apply(&mut self.scheme) {
            Ok(runs) => runs,
            Err(e) => {
                // Nothing was labeled: take the grafts back out.
                for ids in &grafted {
                    self.tree.remove_subtree(ids[0])?;
                }
                return Err(e.into());
            }
        };
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
                self.index_tag(id);
            }
        }
        Ok(grafted)
    }

    /// Where a new `index`-th element child of `parent` goes: the
    /// parent's labels, the clamped child index, and the leaf its begin
    /// tag follows (the parent's begin tag, or the previous sibling's
    /// end tag).
    fn insertion_point(
        &self,
        parent: XmlNodeId,
        index: usize,
    ) -> Result<(NodeMeta, usize, LeafHandle)> {
        let parent_meta = self.meta(parent)?;
        let children = self.tree.child_elements(parent)?;
        let idx = index.min(children.len());
        let anchor = match idx {
            0 => parent_meta.begin,
            _ => self.meta(children[idx - 1])?.end,
        };
        Ok((parent_meta, idx, anchor))
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
        self.meta(id)?;
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
        let root_meta = self.meta(id)?;
        let released = self
            .scheme
            .splice(Splice::DeleteRun {
                first: root_meta.begin,
                count: 2 * order.len(),
            })?
            .deleted();
        debug_assert_eq!(released, 2 * order.len(), "run covers the whole subtree");
        for &e in &order {
            self.meta[e.raw() as usize] = None;
        }
        self.tree.detach_subtree(id)?;
        // Splice at the destination and relabel the moved subtree with
        // one batch of fresh leaves.
        let (parent_meta, idx, anchor) = self.insertion_point(new_parent, index)?;
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
    /// The splice runs before the DOM frees anything, so a failed splice
    /// leaves the document untouched. Returns the number of elements
    /// removed.
    pub fn delete_subtree(&mut self, id: XmlNodeId) -> Result<usize> {
        let root_meta = self.meta(id)?;
        if self.tree.parent(id)?.is_none() {
            return Err(XmlError::CannotRemoveRoot);
        }
        let count = 2 * self.tree.dfs(id)?.len();
        let released = self
            .scheme
            .splice(Splice::DeleteRun {
                first: root_meta.begin,
                count,
            })?
            .deleted();
        debug_assert_eq!(released, count, "run covers the whole subtree");
        let removed = self.tree.remove_subtree(id)?;
        for &e in &removed {
            self.meta[e.raw() as usize] = None;
        }
        let meta = &self.meta;
        for ids in self.tag_index.values_mut() {
            ids.retain(|i| meta[i.raw() as usize].is_some());
        }
        Ok(removed.len())
    }

    // ------------------------------------------------------------------
    // Consistency checking (tests and experiments)
    // ------------------------------------------------------------------

    /// Verify that labels, depths and the tag index agree with the DOM:
    /// document order by labels equals DFS order; every parent's region
    /// strictly contains its children's; depths match; the label table
    /// holds exactly one entry per live element.
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
        // No labels left behind for removed elements.
        let labeled = self.meta.iter().filter(|m| m.is_some()).count();
        if labeled != self.element_count() {
            return Err(XmlError::Parse {
                line: 0,
                col: 0,
                msg: format!(
                    "label table holds {labeled} entries for {} elements",
                    self.element_count()
                ),
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
    use ltree_core::{
        BatchLabeling, Instrumented, LTree, LTreeError, OrderedLabeling, OrderedLabelingMut,
        Params, SchemeStats, SpliceResult,
    };

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
        use ltree_obs::{mutation_histogram, TracedScheme};
        let mut d = Document::parse_str(
            FIG1,
            TracedScheme::new(LTree::new(Params::new(4, 2).unwrap())),
        )
        .unwrap();
        let root = d.tree().root().unwrap();
        let (mut f1, r1) = XmlTree::with_root("appendix");
        f1.add_child(r1, "section").unwrap();
        let (f2, _) = XmlTree::with_root("index");
        let calls_before = mutation_histogram(&d.scheme().metrics()).count;
        let ids = d.insert_fragments(root, 2, &[f1, f2]).unwrap();
        assert_eq!(
            mutation_histogram(&d.scheme().metrics()).count - calls_before,
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
        use ltree_obs::{mutation_histogram, TracedScheme};
        let mut d = Document::parse_str(
            "<r><a><b/><c><d/></c></a><e/></r>",
            TracedScheme::new(LTree::new(Params::new(4, 2).unwrap())),
        )
        .unwrap();
        let root = d.tree().root().unwrap();
        let a = d.tree().child_elements(root).unwrap()[0];
        let calls_before = mutation_histogram(&d.scheme().metrics()).count;
        let removed = d.delete_subtree(a).unwrap();
        assert_eq!(removed, 4);
        assert_eq!(
            mutation_histogram(&d.scheme().metrics()).count - calls_before,
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

    /// Forwards to an L-Tree, except that `splice` fails while `armed`.
    struct Flaky {
        inner: LTree,
        armed: bool,
    }

    impl OrderedLabeling for Flaky {
        fn name(&self) -> &'static str {
            "flaky"
        }
        fn label_of(&self, h: LeafHandle) -> ltree_core::Result<u128> {
            self.inner.label_of(h)
        }
        fn len(&self) -> usize {
            OrderedLabeling::len(&self.inner)
        }
        fn live_len(&self) -> usize {
            OrderedLabeling::live_len(&self.inner)
        }
        fn first_in_order(&self) -> Option<LeafHandle> {
            self.inner.first_in_order()
        }
        fn next_in_order(&self, h: LeafHandle) -> Option<LeafHandle> {
            self.inner.next_in_order(h)
        }
        fn label_space_bits(&self) -> u32 {
            OrderedLabeling::label_space_bits(&self.inner)
        }
        fn memory_bytes(&self) -> usize {
            OrderedLabeling::memory_bytes(&self.inner)
        }
    }

    impl OrderedLabelingMut for Flaky {
        fn bulk_build(&mut self, n: usize) -> ltree_core::Result<Vec<LeafHandle>> {
            self.inner.bulk_build(n)
        }
        fn insert_first(&mut self) -> ltree_core::Result<LeafHandle> {
            OrderedLabelingMut::insert_first(&mut self.inner)
        }
        fn insert_after(&mut self, anchor: LeafHandle) -> ltree_core::Result<LeafHandle> {
            OrderedLabelingMut::insert_after(&mut self.inner, anchor)
        }
        fn insert_before(&mut self, anchor: LeafHandle) -> ltree_core::Result<LeafHandle> {
            OrderedLabelingMut::insert_before(&mut self.inner, anchor)
        }
        fn delete(&mut self, h: LeafHandle) -> ltree_core::Result<()> {
            OrderedLabelingMut::delete(&mut self.inner, h)
        }
    }

    impl BatchLabeling for Flaky {
        fn splice(&mut self, op: Splice) -> ltree_core::Result<SpliceResult> {
            if self.armed {
                return Err(LTreeError::Remote {
                    context: "seeded splice failure".into(),
                });
            }
            self.inner.splice(op)
        }
    }

    impl Instrumented for Flaky {
        fn scheme_stats(&self) -> SchemeStats {
            self.inner.scheme_stats()
        }
        fn reset_scheme_stats(&mut self) {
            self.inner.reset_scheme_stats()
        }
    }

    #[test]
    fn a_failed_splice_leaves_the_document_untouched() {
        let flaky = Flaky {
            inner: LTree::new(Params::new(4, 2).unwrap()),
            armed: false,
        };
        let mut d = Document::parse_str(FIG1, flaky).unwrap();
        let root = d.tree().root().unwrap();
        let chapter = d.tree().child_elements(root).unwrap()[0];
        let (mut appendix, ar) = XmlTree::with_root("appendix");
        appendix.add_child(ar, "note").unwrap();
        let (index, _) = XmlTree::with_root("index");
        let fragments = [appendix, index];
        let before = |d: &Document<Flaky>| {
            d.validate().unwrap();
            (
                d.element_count(),
                d.tree().child_elements(root).unwrap(),
                d.all_spans().unwrap(),
            )
        };
        let untouched = before(&d);

        d.scheme.armed = true;
        assert!(matches!(
            d.insert_fragments(root, 1, &fragments),
            Err(XmlError::Label(LTreeError::Remote { .. }))
        ));
        assert_eq!(before(&d), untouched, "a failed insert grafts nothing");
        assert!(matches!(
            d.delete_subtree(chapter),
            Err(XmlError::Label(LTreeError::Remote { .. }))
        ));
        assert_eq!(before(&d), untouched, "a failed delete frees nothing");

        // Disarmed, the same edits go through.
        d.scheme.armed = false;
        let ids = d.insert_fragments(root, 1, &fragments).unwrap();
        assert_eq!(d.element_count(), 7);
        assert_eq!(d.tree().child_elements(root).unwrap()[1], ids[0][0]);
        assert_eq!(d.delete_subtree(chapter).unwrap(), 2);
        assert_eq!(d.element_count(), 5);
        d.validate().unwrap();
    }

    #[test]
    fn validate_flags_a_label_left_behind_by_a_removed_element() {
        let mut d = doc(FIG1);
        let root = d.tree().root().unwrap();
        let chapter = d.tree().child_elements(root).unwrap()[0];
        let stale = d.meta[chapter.raw() as usize];
        d.delete_subtree(chapter).unwrap();
        d.validate().unwrap();
        // Seeded defect: the removed chapter keeps its labels.
        d.meta[chapter.raw() as usize] = stale;
        let err = d.validate().unwrap_err().to_string();
        assert!(
            err.contains("label table holds 3 entries for 2 elements"),
            "{err}"
        );
    }

    #[test]
    fn a_deleted_id_is_unknown_until_its_slot_is_reused() {
        let mut d = doc(FIG1);
        let root = d.tree().root().unwrap();
        let kids = d.tree().child_elements(root).unwrap();
        let (chapter, top_title) = (kids[0], kids[1]);
        let inner = d.tree().child_elements(chapter).unwrap()[0];
        d.delete_subtree(chapter).unwrap();
        for id in [chapter, inner] {
            assert!(matches!(d.span(id), Err(XmlError::UnknownNode)));
            assert!(matches!(d.depth(id), Err(XmlError::UnknownNode)));
        }
        // A two-element fragment after the top title takes both freed
        // slots, and the old ids now answer with the new elements' labels.
        let (mut frag, fr) = XmlTree::with_root("appendix");
        frag.add_child(fr, "note").unwrap();
        let ids = d.insert_fragment(root, 1, &frag).unwrap();
        let mut reused: Vec<u32> = ids.iter().map(|id| id.raw()).collect();
        reused.sort_unstable();
        let mut freed = vec![chapter.raw(), inner.raw()];
        freed.sort_unstable();
        assert_eq!(reused, freed);
        let (_, title_end) = d.span(top_title).unwrap();
        let (root_begin, root_end) = d.span(root).unwrap();
        for (id, depth) in [(ids[0], 1), (ids[1], 2)] {
            let (b, e) = d.span(id).unwrap();
            assert!(title_end < b && e < root_end && root_begin < b);
            assert_eq!(d.depth(id).unwrap(), depth);
        }
        assert!(d.is_ancestor(ids[0], ids[1]).unwrap());
        assert_eq!(d.tree().tag_name(ids[0]).unwrap(), "appendix");
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
