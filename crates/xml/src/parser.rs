//! A from-scratch, dependency-free XML parser.
//!
//! Supports the subset needed for realistic document workloads: elements,
//! attributes (single/double quoted), text with the five predefined
//! entities plus numeric character references, comments, CDATA sections,
//! processing instructions, and a skipped DOCTYPE. Namespaces are treated
//! lexically (`ns:name` is just a name). Errors carry line/column.

use crate::dom::XmlTree;
use crate::error::{Result, XmlError};

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Self {
        Cursor {
            bytes: s.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(XmlError::Parse {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        match self.peek() {
            Some(got) if got == b => {
                self.bump();
                Ok(())
            }
            Some(got) => self.err(format!("expected '{}', found '{}'", b as char, got as char)),
            None => self.err(format!("expected '{}', found end of input", b as char)),
        }
    }

    /// Consume everything until (and including) `pat`.
    fn skip_until(&mut self, pat: &str) -> Result<()> {
        while self.pos < self.bytes.len() {
            if self.starts_with(pat) {
                self.bump_n(pat.len());
                return Ok(());
            }
            self.bump();
        }
        self.err(format!("unterminated construct, expected '{pat}'"))
    }

    /// A name, borrowed from the input: open and close tags copy nothing.
    fn name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        match self.peek() {
            Some(b) if b.is_ascii_alphabetic() || b == b'_' || b == b':' => {
                self.bump();
            }
            _ => return self.err("expected a name"),
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b':') {
                self.bump();
            } else {
                break;
            }
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos]).expect("name bytes are ASCII"))
    }

    /// Decode an entity reference at the current position (after '&').
    fn entity(&mut self) -> Result<char> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                let body = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| XmlError::Parse {
                        line: self.line,
                        col: self.col,
                        msg: "bad entity".into(),
                    })?
                    .to_owned();
                self.bump();
                return match body.as_str() {
                    "lt" => Ok('<'),
                    "gt" => Ok('>'),
                    "amp" => Ok('&'),
                    "quot" => Ok('"'),
                    "apos" => Ok('\''),
                    _ if body.starts_with("#x") || body.starts_with("#X") => {
                        let v = u32::from_str_radix(&body[2..], 16)
                            .ok()
                            .and_then(char::from_u32);
                        v.ok_or(())
                            .or_else(|_| self.err(format!("bad character reference &{body};")))
                    }
                    _ if body.starts_with('#') => {
                        let v = body[1..].parse::<u32>().ok().and_then(char::from_u32);
                        v.ok_or(())
                            .or_else(|_| self.err(format!("bad character reference &{body};")))
                    }
                    _ => self.err(format!("unknown entity &{body};")),
                };
            }
            if self.pos - start > 12 {
                break;
            }
            self.bump();
        }
        self.err("unterminated entity reference")
    }

    fn attr_value(&mut self) -> Result<String> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.bump();
                q
            }
            _ => return self.err("expected a quoted attribute value"),
        };
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b) if b == quote => {
                    self.bump();
                    return Ok(out);
                }
                Some(b'&') => {
                    self.bump();
                    out.push(self.entity()?);
                }
                Some(b'<') => return self.err("'<' is not allowed in attribute values"),
                Some(_) => {
                    // Preserve UTF-8: copy the full code point.
                    let start = self.pos;
                    self.bump();
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.bump();
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input is valid UTF-8"),
                    );
                }
                None => return self.err("unterminated attribute value"),
            }
        }
    }
}

/// Parse a complete XML document into an [`XmlTree`].
///
/// ```
/// let tree = xmldb::parse("<book year='2004'><title>L-Trees &amp; order</title></book>").unwrap();
/// let root = tree.root().unwrap();
/// assert_eq!(tree.tag_name(root).unwrap(), "book");
/// assert_eq!(tree.attr(root, "year").unwrap(), Some("2004"));
/// ```
pub fn parse(input: &str) -> Result<XmlTree> {
    let mut cur = Cursor::new(input);
    let mut tree = XmlTree::new();
    let mut stack: Vec<crate::dom::XmlNodeId> = Vec::new();
    let mut text = String::new();
    let mut seen_root = false;

    loop {
        match cur.peek() {
            None => break,
            Some(b'<') => {
                // Flush pending text.
                if let Some(&top) = stack.last() {
                    if !text.is_empty() {
                        if !text.chars().all(char::is_whitespace) {
                            tree.add_text(top, &text)?;
                        }
                        text.clear();
                    }
                } else if !text.trim().is_empty() {
                    return cur.err("text content outside the root element");
                } else {
                    text.clear();
                }

                if cur.starts_with("<!--") {
                    cur.bump_n(4);
                    cur.skip_until("-->")?;
                } else if cur.starts_with("<![CDATA[") {
                    cur.bump_n(9);
                    let start = cur.pos;
                    // CDATA content is literal.
                    while cur.pos < cur.bytes.len() && !cur.starts_with("]]>") {
                        cur.bump();
                    }
                    if cur.pos >= cur.bytes.len() {
                        return cur.err("unterminated CDATA section");
                    }
                    let content =
                        std::str::from_utf8(&cur.bytes[start..cur.pos]).expect("valid UTF-8");
                    match stack.last() {
                        Some(&top) => tree.add_text(top, content)?,
                        None => return cur.err("CDATA outside the root element"),
                    }
                    cur.bump_n(3);
                } else if cur.starts_with("<?") {
                    cur.bump_n(2);
                    cur.skip_until("?>")?;
                } else if cur.starts_with("<!DOCTYPE") || cur.starts_with("<!doctype") {
                    cur.bump_n(9);
                    // Skip to '>' honouring an optional internal subset.
                    let mut depth = 0i32;
                    loop {
                        match cur.bump() {
                            Some(b'[') => depth += 1,
                            Some(b']') => depth -= 1,
                            Some(b'>') if depth <= 0 => break,
                            Some(_) => {}
                            None => return cur.err("unterminated DOCTYPE"),
                        }
                    }
                } else if cur.starts_with("</") {
                    cur.bump_n(2);
                    let name = cur.name()?;
                    cur.skip_ws();
                    cur.expect(b'>')?;
                    match stack.pop() {
                        Some(top) => {
                            // Compare borrowed: close tags are the hottest
                            // token in element-dense documents, and the
                            // open-tag name only needs copying on error.
                            if tree.tag_name(top)? != name {
                                let open = tree.tag_name(top)?.to_owned();
                                return cur.err(format!(
                                    "mismatched close tag </{name}>, open element is <{open}>"
                                ));
                            }
                        }
                        None => {
                            return cur.err(format!("close tag </{name}> with no open element"))
                        }
                    }
                } else {
                    // Open tag.
                    cur.bump(); // '<'
                    let name = cur.name()?;
                    let id = match stack.last() {
                        Some(&top) => tree.add_child(top, name)?,
                        None => {
                            if seen_root {
                                return cur.err("multiple root elements");
                            }
                            seen_root = true;
                            tree.create_root(name)?
                        }
                    };
                    // Attributes.
                    loop {
                        cur.skip_ws();
                        match cur.peek() {
                            Some(b'>') => {
                                cur.bump();
                                stack.push(id);
                                break;
                            }
                            Some(b'/') => {
                                cur.bump();
                                cur.expect(b'>')?;
                                break; // self-closing: do not push
                            }
                            Some(_) => {
                                let attr = cur.name()?;
                                cur.skip_ws();
                                cur.expect(b'=')?;
                                cur.skip_ws();
                                let value = cur.attr_value()?;
                                tree.set_attr(id, attr, &value)?;
                            }
                            None => return cur.err("unterminated open tag"),
                        }
                    }
                }
            }
            Some(b'&') => {
                cur.bump();
                text.push(cur.entity()?);
            }
            Some(_) => {
                let start = cur.pos;
                cur.bump();
                while cur.pos < cur.bytes.len()
                    && cur.bytes[cur.pos] != b'<'
                    && cur.bytes[cur.pos] != b'&'
                {
                    cur.bump();
                }
                text.push_str(
                    std::str::from_utf8(&cur.bytes[start..cur.pos]).expect("valid UTF-8"),
                );
            }
        }
    }

    if let Some(&top) = stack.last() {
        let name = tree.tag_name(top)?.to_owned();
        return cur.err(format!("unclosed element <{name}>"));
    }
    if !text.trim().is_empty() {
        return cur.err("text content after the root element");
    }
    if tree.root().is_none() {
        return cur.err("document has no root element");
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_document() {
        let t = parse("<a/>").unwrap();
        assert_eq!(t.element_count(), 1);
        assert_eq!(t.tag_name(t.root().unwrap()).unwrap(), "a");
    }

    #[test]
    fn nested_structure_and_text() {
        let t =
            parse("<book><chapter>one<title>T</title></chapter><title>top</title></book>").unwrap();
        let root = t.root().unwrap();
        let kids = t.child_elements(root).unwrap();
        assert_eq!(kids.len(), 2);
        assert_eq!(t.tag_name(kids[0]).unwrap(), "chapter");
        assert_eq!(t.text_of(kids[0]).unwrap(), "one");
        assert_eq!(t.text_of(kids[1]).unwrap(), "top");
    }

    #[test]
    fn attributes_both_quotes_and_entities() {
        let t = parse(r#"<a x="1 &lt; 2" y='say &quot;hi&quot;'/>"#).unwrap();
        let r = t.root().unwrap();
        assert_eq!(t.attr(r, "x").unwrap(), Some("1 < 2"));
        assert_eq!(t.attr(r, "y").unwrap(), Some(r#"say "hi""#));
    }

    #[test]
    fn entities_in_text() {
        let t = parse("<a>&lt;tag&gt; &amp; &#65;&#x42;</a>").unwrap();
        assert_eq!(t.text_of(t.root().unwrap()).unwrap(), "<tag> & AB");
    }

    #[test]
    fn comments_pi_doctype_cdata() {
        let t = parse(
            "<?xml version=\"1.0\"?><!DOCTYPE book [<!ENTITY x \"y\">]>\n<book><!-- note --><![CDATA[1 < 2 & 3]]></book>",
        )
        .unwrap();
        assert_eq!(t.text_of(t.root().unwrap()).unwrap(), "1 < 2 & 3");
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let t = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        let root = t.root().unwrap();
        assert_eq!(
            t.content(root).unwrap().len(),
            2,
            "only the two elements remain"
        );
    }

    #[test]
    fn error_mismatched_tags() {
        let e = parse("<a><b></a></b>").unwrap_err();
        match e {
            XmlError::Parse { msg, .. } => assert!(msg.contains("mismatched"), "{msg}"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn error_unclosed() {
        assert!(matches!(parse("<a><b>"), Err(XmlError::Parse { .. })));
    }

    #[test]
    fn error_multiple_roots() {
        let e = parse("<a/><b/>").unwrap_err();
        match e {
            XmlError::Parse { msg, .. } => assert!(msg.contains("multiple root")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn error_text_outside_root() {
        assert!(parse("hello<a/>").is_err());
        assert!(parse("<a/>world").is_err());
    }

    #[test]
    fn error_positions_are_tracked() {
        let e = parse("<a>\n<a hm></a></a>").unwrap_err();
        match e {
            XmlError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unicode_text_roundtrips() {
        let t = parse("<a attr='héllo'>mötörhead 😀</a>").unwrap();
        let r = t.root().unwrap();
        assert_eq!(t.text_of(r).unwrap(), "mötörhead 😀");
        assert_eq!(t.attr(r, "attr").unwrap(), Some("héllo"));
    }

    #[test]
    fn unknown_entity_is_an_error() {
        assert!(parse("<a>&nope;</a>").is_err());
    }
}
