//! [`Name`], a node's name, module path or attribute key or value held in
//! place, and [`Attrs`], a node's attributes in one sorted vector.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Index};

/// Bytes a [`Name`] holds without allocating.
const INLINE: usize = 22;

/// A string of up to 22 bytes held in place, in a value the size of a
/// `String`; a longer one is boxed. It compares, orders and hashes as its
/// bytes (`str`'s order and hash) without re-reading the UTF-8, and
/// reads, prints and debugs as the `str` it holds.
#[derive(Clone)]
pub struct Name(Repr);

/// `Inline` holds `len` bytes at the front of `bytes`; only a string over
/// [`INLINE`] bytes is `Boxed`.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Boxed(Box<str>),
}

impl Name {
    /// The empty string.
    pub const EMPTY: Name = Name(Repr::Inline {
        len: 0,
        bytes: [0; INLINE],
    });

    /// `value` as `Display` renders it, written straight into a name.
    pub fn render(value: &dyn fmt::Display) -> Name {
        let mut name = Name::EMPTY;
        fmt::Write::write_fmt(&mut name, format_args!("{value}")).expect("a Name takes any str");
        name
    }

    /// Append `s`; the bytes move to the heap once they outgrow the value.
    #[inline]
    fn push_str(&mut self, s: &str) {
        match &mut self.0 {
            Repr::Inline { len, bytes } if usize::from(*len) + s.len() <= INLINE => {
                bytes[usize::from(*len)..][..s.len()].copy_from_slice(s.as_bytes());
                *len += s.len() as u8;
            }
            _ => self.0 = Repr::Boxed([self.as_str(), s].concat().into_boxed_str()),
        }
    }

    /// The bytes, read without a UTF-8 check.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Boxed(s) => s.as_bytes(),
        }
    }

    /// The string (only whole `str`s are ever appended to the bytes).
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => std::str::from_utf8(self.as_bytes()).expect("UTF-8"),
            Repr::Boxed(s) => s,
        }
    }
}

impl From<&str> for Name {
    #[inline]
    fn from(s: &str) -> Self {
        let mut name = Name::EMPTY;
        name.push_str(s);
        name
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        if s.len() <= INLINE {
            Name::from(s.as_str())
        } else {
            Name(Repr::Boxed(s.into_boxed_str()))
        }
    }
}

impl fmt::Write for Name {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push_str(s);
        Ok(())
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl std::borrow::Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Name {
    /// What `str`'s `Hash` writes, as `Borrow<str>` requires.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

/// `Name == s` and `s == Name`, byte for byte, for `s` a `str`, `&str` or `String`.
macro_rules! eq_bytes {
    ($($ty:ty),*) => {$(
        impl PartialEq<$ty> for Name {
            #[inline]
            fn eq(&self, other: &$ty) -> bool {
                self.as_bytes() == other.as_bytes()
            }
        }

        impl PartialEq<Name> for $ty {
            #[inline]
            fn eq(&self, other: &Name) -> bool {
                self.as_bytes() == other.as_bytes()
            }
        }
    )*};
}

eq_bytes!(str, &str, String);

impl PartialEq for Name {
    #[inline]
    fn eq(&self, other: &Name) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

/// A node's attributes: `(key, value)` pairs in key order, read like the
/// `BTreeMap<String, String>` they replace (a later insert of a key wins;
/// iteration and `Debug` go in key order).
#[derive(Clone, Default, PartialEq)]
pub struct Attrs(Vec<(Name, Name)>);

impl Attrs {
    /// Where `key` is: with a handful of keys a scan that compares
    /// lengths first beats a binary search.
    #[inline]
    fn position(&self, key: &str) -> Option<usize> {
        self.0.iter().position(|(k, _)| k == key)
    }

    /// The value of `key`.
    #[inline]
    pub fn get(&self, key: &str) -> Option<&Name> {
        self.position(key).map(|i| &self.0[i].1)
    }

    /// Whether `key` has a value.
    #[inline]
    pub fn contains_key(&self, key: &str) -> bool {
        self.position(key).is_some()
    }

    /// Set `key` to `value`, returning the value it replaces.
    pub fn insert(&mut self, key: Name, value: Name) -> Option<Name> {
        match (self.0).binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (key, value));
                None
            }
        }
    }

    /// Drop `key`, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Name> {
        self.position(key).map(|i| self.0.remove(i).1)
    }

    /// The pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &Name)> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    /// The keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &Name> {
        self.0.iter().map(|(k, _)| k)
    }

    /// The values in key order.
    pub fn values(&self) -> impl Iterator<Item = &Name> {
        self.0.iter().map(|(_, v)| v)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<K: Into<Name>, V: Into<Name>> FromIterator<(K, V)> for Attrs {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Self {
        let pairs = pairs.into_iter();
        let mut attrs = Attrs(Vec::with_capacity(pairs.size_hint().0));
        for (k, v) in pairs {
            attrs.insert(k.into(), v.into());
        }
        attrs
    }
}

impl Index<&str> for Attrs {
    type Output = Name;
    fn index(&self, key: &str) -> &Name {
        self.get(key).expect("no attribute with this key")
    }
}

impl fmt::Debug for Attrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_name_is_the_size_of_a_string_and_boxes_past_22_bytes() {
        assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<String>());
        let short = Name::from("transformer.h.17.attn");
        assert!(matches!(short.0, Repr::Inline { len: 21, .. }));
        let mut grown = short.clone();
        grown.push_str(".q");
        assert!(matches!(grown.0, Repr::Boxed(_)));
        assert_eq!(grown, "transformer.h.17.attn.q");
        assert_eq!(Name::render(&1234567u64), "1234567");
    }
}
