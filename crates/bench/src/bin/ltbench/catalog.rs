//! The bench's own book-catalog XML generator for `doc-query`.
//!
//! `<catalog>` → sections → shelves → books; a book holds a title, one to
//! three authors (each with a name), a price, a year and zero to two
//! reviews (each with a rating). Every book's contribution to the five
//! query paths is known when it is generated, so the benchmark can check
//! each query's result size as it runs.

use ltree::xml::XmlTree;

use crate::rng::Rng;

/// The fixed query paths. Path 0 counts shelves (never edited); paths
/// 1–4 count one book part each.
pub const PATHS: [&str; 5] = [
    "/catalog/section/shelf",
    "//book/title",
    "//shelf/book/author",
    "//review/rating",
    "/catalog//price",
];

const WORDS: [&str; 12] = [
    "order", "label", "tree", "leaf", "query", "join", "region", "span", "index", "node", "path",
    "batch",
];

/// What one book adds: its element count and its hits on [`PATHS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Book {
    pub elements: usize,
    pub hits: [usize; 5],
}

pub struct Catalog {
    pub xml: String,
    pub sections: usize,
    pub shelves_per_section: usize,
    /// Books in document order.
    pub books: Vec<Book>,
}

impl Catalog {
    pub fn shelves(&self) -> usize {
        self.sections * self.shelves_per_section
    }

    /// Result sizes of [`PATHS`] on the generated document.
    pub fn hits(&self) -> [usize; 5] {
        let mut h = [self.shelves(), 0, 0, 0, 0];
        for b in &self.books {
            for (t, v) in h.iter_mut().zip(b.hits) {
                *t += v;
            }
        }
        h
    }
}

fn words(rng: &mut Rng, out: &mut String, n: usize) {
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[rng.below(WORDS.len())]);
    }
}

/// A catalog of about `target` elements.
pub fn generate(seed: u64, target: usize) -> Catalog {
    let mut rng = Rng::new(seed, 0xCA7A);
    let shelves = (target / 250).max(4);
    let shelves_per_section = 10.min(shelves);
    let sections = shelves / shelves_per_section;
    let structural = 1 + sections + sections * shelves_per_section;
    // Book shapes first, so they can be spread evenly over the shelves.
    let mut shapes = Vec::new();
    let mut elements = structural;
    while elements < target {
        let (authors, reviews) = (rng.between(1, 3), rng.below(3));
        elements += 4 + 2 * authors + 2 * reviews;
        shapes.push((authors, reviews));
    }
    let mut xml = String::with_capacity(target * 48);
    let mut books = Vec::with_capacity(shapes.len());
    let mut next = shapes.iter();
    let total_shelves = sections * shelves_per_section;
    xml.push_str("<catalog>");
    for s in 0..sections {
        xml.push_str(&format!("<section name=\"s{s}\">"));
        for j in 0..shelves_per_section {
            let shelf = s * shelves_per_section + j;
            xml.push_str(&format!("<shelf code=\"{s}-{j}\">"));
            let count =
                shapes.len() / total_shelves + usize::from(shelf < shapes.len() % total_shelves);
            for &(authors, reviews) in next.by_ref().take(count) {
                xml.push_str(&format!(
                    "<book id=\"b{}\" lang=\"en\"><title>",
                    books.len()
                ));
                words(&mut rng, &mut xml, 3);
                xml.push_str("</title>");
                for _ in 0..authors {
                    xml.push_str("<author><name>");
                    words(&mut rng, &mut xml, 2);
                    xml.push_str("</name></author>");
                }
                xml.push_str(&format!(
                    "<price>{}.{:02}</price><year>{}</year>",
                    rng.between(5, 90),
                    rng.below(100),
                    rng.between(1950, 2024)
                ));
                for _ in 0..reviews {
                    xml.push_str(&format!("<review><rating>{}</rating>", rng.between(1, 5)));
                    words(&mut rng, &mut xml, 6);
                    xml.push_str("</review>");
                }
                xml.push_str("</book>");
                books.push(Book {
                    elements: 4 + 2 * authors + 2 * reviews,
                    hits: [0, 1, authors, reviews, 1],
                });
            }
            xml.push_str("</shelf>");
        }
        xml.push_str("</section>");
    }
    xml.push_str("</catalog>");
    Catalog {
        xml,
        sections,
        shelves_per_section,
        books,
    }
}

/// A fresh book fragment of `size` (1 to 6) elements: the `<book>` root
/// and `size - 1` flat children.
pub fn fragment(rng: &mut Rng, size: usize) -> (XmlTree, Book) {
    const PARTS: [&str; 5] = ["title", "author", "price", "year", "review"];
    let (mut tree, root) = XmlTree::with_root("book");
    let first = rng.below(PARTS.len());
    let mut hits = [0usize; 5];
    for i in 0..size - 1 {
        let part = PARTS[(first + i) % PARTS.len()];
        tree.add_child(root, part)
            .expect("the root was just created");
        match part {
            "title" => hits[1] += 1,
            "author" => hits[2] += 1,
            "price" => hits[4] += 1,
            _ => {}
        }
    }
    (
        tree,
        Book {
            elements: size,
            hits,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltree::xml::{Document, Path};
    use ltree::{LTree, Params};

    #[test]
    fn generated_hits_match_the_query_engine() {
        let cat = generate(42, 3000);
        let doc = Document::parse_str(&cat.xml, LTree::new(Params::new(4, 2).unwrap())).unwrap();
        let elements: usize =
            cat.books.iter().map(|b| b.elements).sum::<usize>() + 1 + cat.sections + cat.shelves();
        assert_eq!(doc.element_count(), elements);
        assert!((3000..3020).contains(&elements), "{elements}");
        let hits = cat.hits();
        for (p, want) in PATHS.iter().zip(hits) {
            let got = Path::parse(p).unwrap().eval_labeled(&doc).unwrap();
            assert_eq!(got.len(), want, "{p}");
        }
        assert_eq!(generate(42, 3000).xml, cat.xml, "deterministic per seed");
    }

    #[test]
    fn fragments_report_their_own_hits() {
        let mut rng = Rng::new(1, 2);
        for size in (1..=6).cycle().take(50) {
            let (tree, book) = fragment(&mut rng, size);
            assert_eq!(tree.element_count(), book.elements);
            assert_eq!(book.elements, size);
        }
    }
}
