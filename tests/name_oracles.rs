//! `Name` holds a node's short strings in place and `Attrs` holds its
//! attributes in one sorted vector; the oracles here are the `String`
//! and `BTreeMap<String, String>` they replaced. A seeded loop draws
//! strings of 0–40 bytes with one- to four-byte characters, so that
//! some straddle the 22 bytes a `Name` holds in place, and random
//! insert / remove / get sequences over a small key pool, so that keys
//! repeat. Each must read exactly like its oracle, and every branch is
//! asserted to be reached.

use genie::srg::json::{self, Value};
use genie::srg::{Attrs, Name, Node, NodeId, OpKind};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// Cases in each loop.
const CASES: u64 = 4_000;

/// Bytes a `Name` holds in place.
const INLINE: usize = 22;

/// SplitMix64: a case is a function of its index alone.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Characters of one to four bytes, with some `Debug` escapes.
const CHARS: [char; 12] = [
    'a', 'z', '.', '_', '7', '"', '\\', '\n', 'é', '€', '😀', '\u{7f}',
];

/// A random string of at most 40 bytes, built of random pieces.
fn random_string(rng: &mut SplitMix) -> String {
    let target = rng.below(41) as usize;
    let mut s = String::new();
    loop {
        let c = CHARS[rng.below(CHARS.len() as u64) as usize];
        if s.len() + c.len_utf8() > target {
            return s;
        }
        s.push(c);
    }
}

/// `s` itself, a prefix of it, `s` and one more character, or a fresh
/// string: pairs are often equal and often share a prefix.
fn relative(rng: &mut SplitMix, s: &str) -> String {
    match rng.below(4) {
        0 => s.to_string(),
        1 => {
            let cut = s.char_indices().map(|(i, _)| i).nth(rng.below(4) as usize);
            s[..cut.unwrap_or(s.len())].to_string()
        }
        2 => format!("{s}{}", CHARS[rng.below(CHARS.len() as u64) as usize]),
        _ => random_string(rng),
    }
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// `s` written into a `Name` piece by piece, so the move from in place
/// to boxed happens mid-append.
fn written(rng: &mut SplitMix, s: &str) -> Name {
    let mut name = Name::EMPTY;
    let mut rest = s;
    while !rest.is_empty() {
        let mut at = (1 + rng.below(8) as usize).min(rest.len());
        while !rest.is_char_boundary(at) {
            at += 1;
        }
        write!(name, "{}", &rest[..at]).unwrap();
        rest = &rest[at..];
    }
    name
}

#[test]
fn name_reads_like_the_string_it_replaced() {
    let mut seen: BTreeMap<&str, u64> = BTreeMap::new();
    for index in 0..CASES {
        let mut rng = SplitMix(index);
        let a = random_string(&mut rng);
        let b = relative(&mut rng, &a);
        let (na, nb) = (Name::from(a.as_str()), Name::from(b.clone()));
        assert_eq!(written(&mut rng, &a), na, "failing case: {index}");
        assert_eq!(na.as_str(), a, "failing case: {index}");
        assert_eq!(na.as_bytes(), a.as_bytes(), "failing case: {index}");
        assert_eq!(na == nb, a == b, "failing case: {index}");
        let mixed = [
            na == *b,
            na == b.as_str(),
            na == b,
            b == na,
            *b == na,
            b.as_str() == na,
        ];
        assert_eq!(mixed, [a == b; 6], "failing case: {index}");
        assert_eq!(na.cmp(&nb), a.cmp(&b), "failing case: {index}");
        assert_eq!(hash_of(&na), hash_of(&a), "failing case: {index}");
        assert_eq!(
            hash_of(&na) == hash_of(&nb),
            a == b,
            "failing case: {index}"
        );
        assert_eq!(format!("{na:?}"), format!("{a:?}"), "failing case: {index}");
        assert_eq!(
            format!("[{na}|{na:>30}|{na:<5}|{na:.3}]"),
            format!("[{a}|{a:>30}|{a:<5}|{a:.3}]"),
            "failing case: {index}"
        );
        // Through the JSON codec as a node's name, path and attribute.
        let node = Node::new(NodeId::new(1), OpKind::Add, na.clone())
            .with_module_path(b.as_str())
            .with_attr(na.clone(), nb.clone());
        let text = node.to_json().to_string();
        assert!(text.contains(&Value::from(a.as_str()).to_string()));
        let back = Node::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, node, "failing case: {index}");
        assert_eq!(back.attrs[a.as_str()], b, "failing case: {index}");

        let straddles = a
            .char_indices()
            .any(|(i, c)| i < INLINE && i + c.len_utf8() > INLINE);
        for (hit, branch) in [
            (a.is_empty(), "empty"),
            (a.len() == INLINE, "exactly in place"),
            (a.len() <= INLINE, "in place"),
            (a.len() > INLINE, "boxed"),
            (
                a.len() <= INLINE && b.len() > INLINE,
                "in place against boxed",
            ),
            (straddles, "a character straddles the in-place bytes"),
            (a.len() != a.chars().count(), "multi-byte"),
            (format!("{a:?}").contains('\\'), "escaped in Debug"),
            (a == b, "equal"),
            (a < b, "less"),
            (a > b, "greater"),
        ] {
            *seen.entry(branch).or_default() += u64::from(hit);
        }
    }
    for (branch, n) in &seen {
        assert!(*n >= 20, "{branch}: {seen:?}");
    }
}

/// Keys repeat: eight of them, one longer than a `Name` holds in place.
const KEYS: [&str; 8] = [
    "heads",
    "causal",
    "dim",
    "eps",
    "block",
    "tolerance_rel",
    "",
    "a_key_longer_than_22_bytes",
];

#[test]
fn attrs_read_like_the_ordered_map_they_replaced() {
    let mut seen: BTreeMap<&str, u64> = BTreeMap::new();
    for index in 0..CASES {
        let mut rng = SplitMix(index);
        let mut got = Attrs::default();
        let mut want: BTreeMap<String, String> = BTreeMap::new();
        for _ in 0..rng.below(24) {
            let key = KEYS[rng.below(KEYS.len() as u64) as usize];
            let branch = match rng.below(5) {
                0 | 1 => {
                    let value = random_string(&mut rng);
                    let old = got.insert(key.into(), value.as_str().into());
                    let was = want.insert(key.to_string(), value);
                    assert_eq!(old.as_deref(), was.as_deref(), "failing case: {index}");
                    if was.is_some() {
                        "insert replaces"
                    } else {
                        "insert adds"
                    }
                }
                2 => {
                    let (old, was) = (got.remove(key), want.remove(key));
                    assert_eq!(old.as_deref(), was.as_deref(), "failing case: {index}");
                    if was.is_some() {
                        "remove hits"
                    } else {
                        "remove misses"
                    }
                }
                _ => {
                    let (has, had) = (got.get(key), want.get(key));
                    assert_eq!(
                        has.map(|v| &**v),
                        had.map(|v| &**v),
                        "failing case: {index}"
                    );
                    assert_eq!(got.contains_key(key), want.contains_key(key));
                    if let Some(v) = want.get(key) {
                        assert_eq!(got[key], *v, "failing case: {index}");
                        "get hits"
                    } else {
                        "get misses"
                    }
                }
            };
            *seen.entry(branch).or_default() += 1;
            assert_eq!(got.len(), want.len(), "failing case: {index}");
            assert_eq!(got.is_empty(), want.is_empty(), "failing case: {index}");
        }
        let pairs: Vec<(String, String)> = (got.iter())
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert!(
            pairs.iter().map(|(k, v)| (k, v)).eq(&want),
            "failing case: {index}"
        );
        assert!(got.keys().eq(want.keys()), "failing case: {index}");
        assert!(got.values().eq(want.values()), "failing case: {index}");
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "failing case: {index}"
        );
        assert_eq!(
            format!("{got:#?}"),
            format!("{want:#?}"),
            "failing case: {index}"
        );
        let rebuilt: Attrs = pairs.iter().rev().chain(&pairs).cloned().collect();
        assert_eq!(rebuilt, got, "failing case: {index}");
        *seen
            .entry(if want.is_empty() {
                "ends empty"
            } else {
                "ends with attrs"
            })
            .or_default() += 1;
        if want.len() >= 4 {
            *seen.entry("four or more keys").or_default() += 1;
        }
    }
    for (branch, n) in &seen {
        assert!(*n >= 20, "{branch}: {seen:?}");
    }
    assert_eq!(seen.len(), 9, "{seen:?}");
}
