//! Arena DOM for ordered XML trees.
//!
//! [`XmlTree`] stores elements in a slab (`Vec<Option<Element>>`) with
//! ordered mixed content (child elements and text runs). Freed slots go
//! on a stack and are handed out again first, so allocating or freeing
//! an element is O(1) and parsing a document, grafting a fragment or
//! removing a subtree costs time linear in its size. The tree doubles as
//! a *fragment* builder: the subtree-insertion API of
//! [`crate::Document`] grafts one tree into another.

use crate::error::{Result, XmlError};
use crate::tags::{TagId, TagInterner};

/// Identifier of one element within its [`XmlTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XmlNodeId(pub(crate) u32);

impl XmlNodeId {
    /// Raw slot index (stable while the element is live) — used by
    /// downstream systems that need a plain integer key, e.g. relational
    /// shredding.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuild an id from [`raw`](Self::raw). The caller is responsible
    /// for it referring to a live element; all accessors re-validate.
    pub fn from_raw(raw: u32) -> Self {
        XmlNodeId(raw)
    }
}

/// Ordered content of an element.
#[derive(Debug, Clone)]
pub enum Content {
    /// A child element.
    Element(XmlNodeId),
    /// A text run.
    Text(String),
}

#[derive(Debug, Clone)]
pub(crate) struct Element {
    pub tag: TagId,
    pub parent: Option<XmlNodeId>,
    pub content: Vec<Content>,
    pub attrs: Vec<(String, String)>,
}

/// An ordered XML tree (or fragment). See the [module docs](self).
///
/// Element ids are slot indices. A removed element's slot is reused by a
/// later allocation, so an id stays meaningful only while its element
/// is live.
#[derive(Debug, Default, Clone)]
pub struct XmlTree {
    slots: Vec<Option<Element>>,
    /// Indices of the empty slots; the last one is reused first.
    free: Vec<u32>,
    root: Option<XmlNodeId>,
    pub(crate) tags: TagInterner,
}

impl XmlTree {
    /// An empty tree (no root yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// A tree with a fresh root element.
    pub fn with_root(tag: &str) -> (Self, XmlNodeId) {
        let mut t = Self::new();
        let root = t.create_root(tag).expect("fresh tree has no root");
        (t, root)
    }

    /// Create the root element. Fails if a root already exists.
    pub fn create_root(&mut self, tag: &str) -> Result<XmlNodeId> {
        if self.root.is_some() {
            return Err(XmlError::Parse {
                line: 0,
                col: 0,
                msg: "document already has a root".into(),
            });
        }
        let tag = self.tags.intern(tag);
        let id = self.alloc(Element {
            tag,
            parent: None,
            content: Vec::new(),
            attrs: Vec::new(),
        });
        self.root = Some(id);
        Ok(id)
    }

    /// The root element, if any.
    pub fn root(&self) -> Option<XmlNodeId> {
        self.root
    }

    /// Number of live elements.
    pub fn element_count(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when the tree has no elements.
    pub fn is_empty(&self) -> bool {
        self.element_count() == 0
    }

    /// One past the highest slot index ever allocated: every id this
    /// tree has handed out has a [`raw`](XmlNodeId::raw) value below it.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Place `e` in the most recently freed slot, or grow the slab: O(1)
    /// either way. The parser builds whole documents through here.
    fn alloc(&mut self, e: Element) -> XmlNodeId {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(e);
                XmlNodeId(slot)
            }
            None => {
                self.slots.push(Some(e));
                XmlNodeId(self.slots.len() as u32 - 1)
            }
        }
    }

    pub(crate) fn element(&self, id: XmlNodeId) -> Result<&Element> {
        self.slots
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(XmlError::UnknownNode)
    }

    pub(crate) fn element_mut(&mut self, id: XmlNodeId) -> Result<&mut Element> {
        self.slots
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(XmlError::UnknownNode)
    }

    /// True if `id` refers to a live element.
    pub fn contains(&self, id: XmlNodeId) -> bool {
        self.element(id).is_ok()
    }

    /// Append a child element under `parent`.
    pub fn add_child(&mut self, parent: XmlNodeId, tag: &str) -> Result<XmlNodeId> {
        self.element(parent)?;
        let tag = self.tags.intern(tag);
        let id = self.alloc(Element {
            tag,
            parent: Some(parent),
            content: Vec::new(),
            attrs: Vec::new(),
        });
        self.element_mut(parent)?.content.push(Content::Element(id));
        Ok(id)
    }

    /// Append a text run under `parent`.
    pub fn add_text(&mut self, parent: XmlNodeId, text: &str) -> Result<()> {
        self.element_mut(parent)?
            .content
            .push(Content::Text(text.to_owned()));
        Ok(())
    }

    /// Set (or add) an attribute.
    pub fn set_attr(&mut self, id: XmlNodeId, name: &str, value: &str) -> Result<()> {
        let e = self.element_mut(id)?;
        if let Some(pair) = e.attrs.iter_mut().find(|(n, _)| n == name) {
            pair.1 = value.to_owned();
        } else {
            e.attrs.push((name.to_owned(), value.to_owned()));
        }
        Ok(())
    }

    /// Attribute value by name.
    pub fn attr(&self, id: XmlNodeId, name: &str) -> Result<Option<&str>> {
        Ok(self
            .element(id)?
            .attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str()))
    }

    /// All attributes, in document order.
    pub fn attrs(&self, id: XmlNodeId) -> Result<&[(String, String)]> {
        Ok(&self.element(id)?.attrs)
    }

    /// Tag name of an element.
    pub fn tag_name(&self, id: XmlNodeId) -> Result<&str> {
        Ok(self.tags.resolve(self.element(id)?.tag))
    }

    /// Interned tag of an element.
    pub fn tag(&self, id: XmlNodeId) -> Result<TagId> {
        Ok(self.element(id)?.tag)
    }

    /// Parent element.
    pub fn parent(&self, id: XmlNodeId) -> Result<Option<XmlNodeId>> {
        Ok(self.element(id)?.parent)
    }

    /// Ordered mixed content.
    pub fn content(&self, id: XmlNodeId) -> Result<&[Content]> {
        Ok(&self.element(id)?.content)
    }

    /// Child *elements* only, in order.
    pub fn child_elements(&self, id: XmlNodeId) -> Result<Vec<XmlNodeId>> {
        Ok(element_ids(&self.element(id)?.content).collect())
    }

    /// Concatenated text content directly under `id` (not recursive).
    pub fn text_of(&self, id: XmlNodeId) -> Result<String> {
        let mut out = String::new();
        for c in &self.element(id)?.content {
            if let Content::Text(t) = c {
                out.push_str(t);
            }
        }
        Ok(out)
    }

    /// All live elements of the subtree rooted at `id`, in document
    /// (pre-)order.
    pub fn dfs(&self, id: XmlNodeId) -> Result<Vec<XmlNodeId>> {
        self.element(id)?;
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            out.push(cur);
            stack.extend(element_ids(&self.element(cur)?.content).rev());
        }
        Ok(out)
    }

    /// All live elements in document order (empty if no root).
    pub fn all_elements(&self) -> Vec<XmlNodeId> {
        match self.root {
            Some(r) => self.dfs(r).expect("root is live"),
            None => Vec::new(),
        }
    }

    /// Depth of an element (root = 0).
    pub fn depth(&self, id: XmlNodeId) -> Result<u32> {
        let mut d = 0;
        let mut cur = self.element(id)?.parent;
        while let Some(p) = cur {
            d += 1;
            cur = self.element(p)?.parent;
        }
        Ok(d)
    }

    /// Copy the whole `fragment` (which must have a root) under
    /// `parent` as its `index`-th *element* child. Returns the new ids of
    /// the grafted elements in document (pre-)order.
    pub fn graft(
        &mut self,
        parent: XmlNodeId,
        index: usize,
        fragment: &XmlTree,
    ) -> Result<Vec<XmlNodeId>> {
        self.element(parent)?;
        let frag_root = fragment.root().ok_or(XmlError::UnknownNode)?;
        let order = fragment.dfs(frag_root)?;
        // First pass: allocate ids in document order. `map` is indexed
        // by the fragment's slots.
        let mut map = vec![XmlNodeId(u32::MAX); fragment.slots.len()];
        let mut ids = Vec::with_capacity(order.len());
        for &old in &order {
            let e = fragment.element(old)?;
            let tag = self.tags.intern(fragment.tags.resolve(e.tag));
            let id = self.alloc(Element {
                tag,
                parent: None,
                content: Vec::new(),
                attrs: e.attrs.clone(),
            });
            map[old.0 as usize] = id;
            ids.push(id);
        }
        // Second pass: wire parents and content.
        for (&old, &new_id) in order.iter().zip(&ids) {
            let old_e = fragment.element(old)?;
            let new_content: Vec<Content> = old_e
                .content
                .iter()
                .map(|c| match c {
                    Content::Element(e) => Content::Element(map[e.0 as usize]),
                    Content::Text(t) => Content::Text(t.clone()),
                })
                .collect();
            let e = self.element_mut(new_id)?;
            e.content = new_content;
            e.parent = Some(old_e.parent.map_or(parent, |p| map[p.0 as usize]));
        }
        // Splice the fragment root into the parent's content at the
        // position of its index-th element child.
        let content_pos = self.element_position(parent, index)?;
        self.element_mut(parent)?
            .content
            .insert(content_pos, Content::Element(ids[0]));
        Ok(ids)
    }

    /// Content position of the `index`-th element child (or end).
    fn element_position(&self, parent: XmlNodeId, index: usize) -> Result<usize> {
        let content = &self.element(parent)?.content;
        let mut seen = 0usize;
        for (pos, c) in content.iter().enumerate() {
            if matches!(c, Content::Element(_)) {
                if seen == index {
                    return Ok(pos);
                }
                seen += 1;
            }
        }
        Ok(content.len())
    }

    /// Detach the subtree rooted at `id` from its parent **without
    /// freeing** any element — the pair of
    /// [`attach_subtree`](Self::attach_subtree) used by subtree moves.
    /// The detached nodes
    /// stay live (ids valid) but unreachable from the root.
    pub fn detach_subtree(&mut self, id: XmlNodeId) -> Result<()> {
        let parent = self.element(id)?.parent.ok_or(XmlError::CannotRemoveRoot)?;
        let content = &mut self.element_mut(parent)?.content;
        let pos = content
            .iter()
            .position(|c| matches!(c, Content::Element(e) if *e == id))
            .expect("child listed under its parent");
        content.remove(pos);
        self.element_mut(id)?.parent = None;
        Ok(())
    }

    /// Re-attach a subtree previously removed with
    /// [`detach_subtree`](Self::detach_subtree) as the `index`-th element
    /// child of `parent`.
    pub fn attach_subtree(&mut self, parent: XmlNodeId, index: usize, id: XmlNodeId) -> Result<()> {
        if self.element(id)?.parent.is_some() {
            return Err(XmlError::UnknownNode); // still attached elsewhere
        }
        self.element(parent)?;
        let pos = self.element_position(parent, index)?;
        self.element_mut(parent)?
            .content
            .insert(pos, Content::Element(id));
        self.element_mut(id)?.parent = Some(parent);
        Ok(())
    }

    /// Detach and free the subtree rooted at `id` (not the tree root).
    /// Returns the removed elements in document order.
    pub fn remove_subtree(&mut self, id: XmlNodeId) -> Result<Vec<XmlNodeId>> {
        let parent = self.element(id)?.parent.ok_or(XmlError::CannotRemoveRoot)?;
        let order = self.dfs(id)?;
        // Detach from the parent's content.
        let content = &mut self.element_mut(parent)?.content;
        let pos = content
            .iter()
            .position(|c| matches!(c, Content::Element(e) if *e == id))
            .expect("child listed under its parent");
        content.remove(pos);
        // Free the slots.
        for &e in &order {
            self.slots[e.0 as usize] = None;
            self.free.push(e.0);
        }
        Ok(order)
    }
}

/// The child-element ids in `content`, in order.
fn element_ids(content: &[Content]) -> impl DoubleEndedIterator<Item = XmlNodeId> + '_ {
    content.iter().filter_map(|c| match c {
        Content::Element(e) => Some(*e),
        Content::Text(_) => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (XmlTree, XmlNodeId, XmlNodeId, XmlNodeId) {
        let (mut t, root) = XmlTree::with_root("book");
        let ch = t.add_child(root, "chapter").unwrap();
        t.add_text(ch, "intro ").unwrap();
        let title = t.add_child(ch, "title").unwrap();
        t.add_text(title, "L-Trees").unwrap();
        t.set_attr(root, "year", "2004").unwrap();
        (t, root, ch, title)
    }

    #[test]
    fn build_and_navigate() {
        let (t, root, ch, title) = sample();
        assert_eq!(t.element_count(), 3);
        assert_eq!(t.tag_name(root).unwrap(), "book");
        assert_eq!(t.parent(title).unwrap(), Some(ch));
        assert_eq!(t.parent(root).unwrap(), None);
        assert_eq!(t.child_elements(ch).unwrap(), vec![title]);
        assert_eq!(t.text_of(title).unwrap(), "L-Trees");
        assert_eq!(t.attr(root, "year").unwrap(), Some("2004"));
        assert_eq!(t.attr(root, "missing").unwrap(), None);
        assert_eq!(t.depth(title).unwrap(), 2);
        assert_eq!(t.dfs(root).unwrap(), vec![root, ch, title]);
    }

    #[test]
    fn single_root_enforced() {
        let (mut t, _root, ..) = sample();
        assert!(t.create_root("again").is_err());
    }

    #[test]
    fn graft_fragment() {
        let (mut t, root, ch, _title) = sample();
        let (mut frag, fr) = XmlTree::with_root("appendix");
        frag.add_child(fr, "note").unwrap();
        let new_ids = t.graft(root, 1, &frag).unwrap();
        assert_eq!(new_ids.len(), 2);
        assert_eq!(t.tag_name(new_ids[0]).unwrap(), "appendix");
        let children = t.child_elements(root).unwrap();
        assert_eq!(children, vec![ch, new_ids[0]]);
        assert_eq!(t.parent(new_ids[1]).unwrap(), Some(new_ids[0]));
        assert_eq!(t.element_count(), 5);
    }

    #[test]
    fn graft_at_front() {
        let (mut t, root, ch, _) = sample();
        let (frag, _) = XmlTree::with_root("preface");
        let ids = t.graft(root, 0, &frag).unwrap();
        assert_eq!(t.child_elements(root).unwrap(), vec![ids[0], ch]);
    }

    #[test]
    fn remove_subtree_frees_slots() {
        let (mut t, root, ch, title) = sample();
        let keep = t.add_child(root, "appendix").unwrap();
        let high_water = t.slot_count();
        let removed = t.remove_subtree(ch).unwrap();
        assert_eq!(removed, vec![ch, title]);
        assert_eq!(t.element_count(), 2);
        assert!(!t.contains(ch));
        assert!(!t.contains(title));
        assert_eq!(t.child_elements(root).unwrap(), vec![keep]);
        assert!(matches!(
            t.remove_subtree(root),
            Err(XmlError::CannotRemoveRoot)
        ));
        // The next two allocations, one per path, take exactly the two
        // freed slots: nothing grows past the pre-removal high-water mark.
        let again = t.add_child(root, "chapter").unwrap();
        let (frag, _) = XmlTree::with_root("index");
        let grafted = t.graft(keep, 0, &frag).unwrap();
        let mut reused = vec![again.raw(), grafted[0].raw()];
        reused.sort_unstable();
        let mut freed: Vec<u32> = removed.iter().map(|id| id.raw()).collect();
        freed.sort_unstable();
        assert_eq!(reused, freed);
        assert!(reused.iter().all(|&r| (r as usize) < high_water));
        assert_eq!(t.slot_count(), high_water);
        assert_eq!(t.element_count(), 4);
        // Survivors still resolve to their own tags; the reused slots to
        // their new ones.
        assert_eq!(t.tag_name(root).unwrap(), "book");
        assert_eq!(t.tag_name(keep).unwrap(), "appendix");
        assert_eq!(t.tag_name(again).unwrap(), "chapter");
        assert_eq!(t.tag_name(grafted[0]).unwrap(), "index");
        assert_eq!(t.parent(grafted[0]).unwrap(), Some(keep));
        // Only now does the slab grow.
        let fresh = t.add_child(root, "colophon").unwrap();
        assert_eq!(fresh.raw() as usize, high_water);
    }

    #[test]
    fn stale_ids_rejected() {
        let (mut t, _root, ch, title) = sample();
        t.remove_subtree(ch).unwrap();
        assert!(matches!(t.tag_name(title), Err(XmlError::UnknownNode)));
    }
}
