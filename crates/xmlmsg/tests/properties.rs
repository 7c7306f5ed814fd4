//! Seeded property tests: the writer and parser are exact inverses on
//! the subset, and the parser never panics. Documents and inputs are
//! drawn from `SimRng` over fixed seed ranges, so each run checks the same
//! cases.

use vmplants_simkit::SimRng;
use vmplants_xmlmsg::{parse, Element, Node};

/// Cases per round-trip property: one `SimRng` seed each.
const SEEDS: std::ops::Range<u64> = 0..256;
/// Cases per panic-freedom property: the inputs are cheap to parse.
const FUZZ_SEEDS: std::ops::Range<u64> = 0..4_000;

/// A string of `len` characters drawn from `alphabet`.
fn chars(rng: &mut SimRng, alphabet: &[char], len: usize) -> String {
    (0..len)
        .map(|_| alphabet[rng.index(alphabet.len())])
        .collect()
}

fn name(rng: &mut SimRng) -> String {
    let first: Vec<char> = ('a'..='z').chain('A'..='Z').chain(['_']).collect();
    let rest: Vec<char> = first
        .iter()
        .copied()
        .chain('0'..='9')
        .chain(['.', '-'])
        .collect();
    let len = rng.index(13);
    chars(rng, &first, 1) + &chars(rng, &rest, len)
}

/// Text with the characters that need escaping, plus non-ASCII. Leading
/// and trailing whitespace is trimmed structurally, so the text starts
/// and ends with a visible character.
fn text(rng: &mut SimRng) -> String {
    let alphabet: Vec<char> = ('a'..='z')
        .chain('A'..='Z')
        .chain('0'..='9')
        .chain(['&', '<', '>', '"', '\'', ' ', 'é', '✓'])
        .collect();
    let len = rng.index(31);
    let t = chars(rng, &alphabet, len).trim().to_owned();
    if t.is_empty() {
        "x".to_owned()
    } else {
        t
    }
}

/// An element with up to two attributes (a repeated name replaces, so
/// the document stays valid) and either text or up to three child
/// elements, nested up to `depth` levels.
fn element(rng: &mut SimRng, depth: u32) -> Element {
    let mut e = Element::new(name(rng));
    for _ in 0..rng.index(3) {
        let (n, v) = (name(rng), text(rng));
        e.set_attr(n, v);
    }
    if depth == 0 || rng.chance(0.4) {
        if rng.chance(0.5) {
            e.children.push(Node::Text(text(rng)));
        }
    } else {
        for _ in 0..rng.index(4) {
            e.push_child(element(rng, depth - 1));
        }
    }
    e
}

/// Compact serialization round-trips exactly.
#[test]
fn compact_round_trip() {
    for seed in SEEDS {
        let e = element(&mut SimRng::seed_from_u64(seed), 4);
        let xml = e.to_xml();
        let reparsed = parse(&xml).unwrap_or_else(|err| panic!("seed {seed}: {xml}: {err}"));
        assert_eq!(e, reparsed, "seed {seed}: {xml}");
    }
}

/// Pretty serialization preserves structure, attributes and trimmed text
/// content (indentation whitespace is insignificant).
#[test]
fn pretty_round_trip_preserves_structure() {
    for seed in SEEDS {
        let e = element(&mut SimRng::seed_from_u64(seed), 4);
        let pretty = e.to_pretty_xml();
        let reparsed = parse(&pretty).unwrap_or_else(|err| panic!("seed {seed}: {pretty}: {err}"));
        assert_structurally_equal(&e, &reparsed);
    }
}

fn assert_structurally_equal(a: &Element, b: &Element) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.attrs, b.attrs);
    assert_eq!(a.text().map(str::trim), b.text().map(str::trim));
    let a_children: Vec<&Element> = a.elements().collect();
    let b_children: Vec<&Element> = b.elements().collect();
    assert_eq!(a_children.len(), b_children.len());
    for (x, y) in a_children.iter().zip(b_children) {
        assert_structurally_equal(x, y);
    }
}

fn assert_parse_does_not_panic(seed: u64, input: &str) {
    if std::panic::catch_unwind(|| parse(input)).is_err() {
        panic!("seed {seed}: parser panicked on {input:?}");
    }
}

/// The parser never panics on arbitrary input: printable ASCII, controls
/// and multi-byte characters.
#[test]
fn parser_is_panic_free() {
    let alphabet: Vec<char> = (' '..='~')
        .chain([
            '\0',
            '\t',
            '\n',
            '\r',
            '\u{7f}',
            'é',
            '✓',
            '\u{1F600}',
            '\u{FFFD}',
        ])
        .collect();
    for seed in FUZZ_SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let len = rng.index(201);
        assert_parse_does_not_panic(seed, &chars(&mut rng, &alphabet, len));
    }
}

/// The parser never panics on inputs that look like XML: random strings
/// over markup characters, and valid documents with a few characters
/// replaced, inserted or deleted.
#[test]
fn parser_is_panic_free_on_xmlish() {
    let alphabet: Vec<char> = ('a'..='z')
        .chain('0'..='9')
        .chain([
            '<', '>', '/', '"', '=', '&', ' ', ';', '#', 'x', '-', '!', '?', '\'',
        ])
        .collect();
    for seed in FUZZ_SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let input = if rng.chance(0.5) {
            let len = rng.index(121);
            chars(&mut rng, &alphabet, len)
        } else {
            let mut doc: Vec<char> = element(&mut rng, 3).to_xml().chars().collect();
            for _ in 0..1 + rng.index(3) {
                let at = rng.index(doc.len() + 1);
                let c = alphabet[rng.index(alphabet.len())];
                match rng.index(3) {
                    0 if at < doc.len() => doc[at] = c,
                    1 => doc.insert(at, c),
                    _ if at < doc.len() => {
                        doc.remove(at);
                    }
                    _ => {}
                }
            }
            doc.into_iter().collect()
        };
        assert_parse_does_not_panic(seed, &input);
    }
}
