//! Layer names: the module paths of a `print(model)` dump.
//!
//! The flow reads only layer type and shape, so a name is kept for the
//! parser, printouts and per-layer reports alone. A [`ModelBuilder`]
//! therefore writes every path into one buffer per model and each
//! layer keeps a [`LayerName`] — the shared buffer plus a range —
//! instead of a `String` of its own.
//!
//! [`ModelBuilder`]: crate::ModelBuilder

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// The `end` of a name that spans its whole text.
const WHOLE: u32 = u32::MAX;

/// A layer's module path, e.g. `features.0` or `layer2.0.conv1`.
///
/// Three words: shared text and the name's range within it. Names a
/// [`ModelBuilder`](crate::ModelBuilder) builds share their model's
/// one buffer; a name made from owned text ([`LayerName::from`], which
/// [`Layer::new`](crate::Layer::new) and deserialization use) holds
/// that text alone. Either way a name derefs to its `&str`, and it
/// displays, compares, hashes, `Debug`-prints and (de)serializes
/// exactly as that string does.
#[derive(Clone)]
pub struct LayerName {
    text: Arc<str>,
    start: u32,
    /// [`WHOLE`] when the name is all of `text`.
    end: u32,
}

impl LayerName {
    /// The name `text[range]`, sharing `text`. A range past `u32`
    /// offsets falls back to a copy.
    pub(crate) fn in_buffer(text: &Arc<str>, range: Range<usize>) -> LayerName {
        match (u32::try_from(range.start), u32::try_from(range.end)) {
            (Ok(start), Ok(end)) if end != WHOLE => LayerName {
                text: Arc::clone(text),
                start,
                end,
            },
            _ => LayerName::from(&text[range]),
        }
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match self.end {
            WHOLE => &self.text,
            end => &self.text[self.start as usize..end as usize],
        }
    }
}

impl From<String> for LayerName {
    fn from(text: String) -> Self {
        LayerName {
            text: text.into(),
            start: 0,
            end: WHOLE,
        }
    }
}

impl From<&str> for LayerName {
    fn from(text: &str) -> Self {
        LayerName {
            text: text.into(),
            start: 0,
            end: WHOLE,
        }
    }
}

impl Deref for LayerName {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for LayerName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for LayerName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for LayerName {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for LayerName {}

impl PartialEq<str> for LayerName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for LayerName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for LayerName {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl PartialOrd for LayerName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LayerName {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for LayerName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl Serialize for LayerName {
    fn to_value(&self) -> serde::Value {
        self.as_str().to_value()
    }
}

impl Deserialize for LayerName {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        String::from_value(v).map(LayerName::from)
    }
}

/// A layer path [`ModelBuilder::push`](crate::ModelBuilder::push)
/// can append to its model's name buffer: `&str`, `String`, `&String`
/// or `format_args!(…)`.
pub trait LayerPath: sealed::Append {}

impl<T: sealed::Append> LayerPath for T {}

mod sealed {
    /// Appends a path to a name buffer.
    pub trait Append {
        /// Appends `self` to the path text at the end of `names`, and
        /// returns where that path starts: the path is
        /// `names[start..]` afterwards.
        fn append(self, names: &mut String) -> usize;
    }
}

impl sealed::Append for &str {
    fn append(self, names: &mut String) -> usize {
        let start = names.len();
        names.push_str(self);
        start
    }
}

impl sealed::Append for &String {
    fn append(self, names: &mut String) -> usize {
        self.as_str().append(names)
    }
}

impl sealed::Append for String {
    fn append(self, names: &mut String) -> usize {
        self.as_str().append(names)
    }
}

impl sealed::Append for fmt::Arguments<'_> {
    fn append(self, names: &mut String) -> usize {
        let start = names.len();
        // Writing to a `String` cannot fail.
        let _ = names.write_fmt(self);
        start
    }
}

/// A path already in a builder's name buffer, by range: a block
/// prefix from [`ModelBuilder::prefix`] or a pushed layer's name
/// ([`ModelBuilder::last_path`]).
///
/// A path whose text ends the buffer is extended in place, so a prefix
/// and its first child — or a layer and the activation named after
/// it — share their bytes; any other path is copied from within the
/// buffer. Neither runs a formatter.
///
/// [`ModelBuilder::prefix`]: crate::ModelBuilder::prefix
/// [`ModelBuilder::last_path`]: crate::ModelBuilder::last_path
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathRef {
    start: usize,
    end: usize,
}

impl PathRef {
    pub(crate) fn new(range: Range<usize>) -> PathRef {
        PathRef {
            start: range.start,
            end: range.end,
        }
    }

    /// The path `{self}.{leaf}`.
    pub(crate) fn child(self, leaf: &str) -> Child<'_> {
        Child { parent: self, leaf }
    }
}

impl sealed::Append for PathRef {
    fn append(self, names: &mut String) -> usize {
        if self.end == names.len() {
            return self.start;
        }
        let start = names.len();
        names.extend_from_within(self.start..self.end);
        start
    }
}

/// `{parent}.{leaf}` (see [`PathRef::child`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Child<'a> {
    parent: PathRef,
    leaf: &'a str,
}

impl sealed::Append for Child<'_> {
    fn append(self, names: &mut String) -> usize {
        let start = self.parent.append(names);
        names.push('.');
        names.push_str(self.leaf);
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    /// `layer1.0.conv1` twice: sharing a buffer, and owned.
    fn pair() -> (LayerName, LayerName) {
        let text: Arc<str> = Arc::from("stem|layer1.0.conv1|fc");
        (
            LayerName::in_buffer(&text, 5..19),
            LayerName::from("layer1.0.conv1".to_owned()),
        )
    }

    #[test]
    fn buffer_and_owned_names_are_equal_and_hash_equal() {
        let (shared, owned) = pair();
        assert_eq!(shared, owned);
        assert_eq!(shared.cmp(&owned), Ordering::Equal);
        assert_eq!(hash_of(&shared), hash_of(&owned));
        assert_eq!(hash_of(&shared), hash_of("layer1.0.conv1"));
        assert_eq!(hash_of(&shared), hash_of(&"layer1.0.conv1".to_owned()));
        assert_eq!(shared, "layer1.0.conv1");
        assert_eq!(owned, *"layer1.0.conv1");
        assert_ne!(shared, LayerName::from("layer1.0.conv2"));
    }

    #[test]
    fn names_print_like_strings() {
        let text = "layer1.0.conv1".to_owned();
        for name in <[LayerName; 2]>::from(pair()) {
            assert_eq!(format!("{name}"), format!("{text}"));
            assert_eq!(
                format!("{name:>20}|{name:.5}"),
                format!("{text:>20}|{text:.5}")
            );
            assert_eq!(format!("{name:?}"), format!("{text:?}"));
            assert_eq!(name.to_string(), text);
            assert_eq!(&*name, text.as_str());
        }
        let odd = LayerName::from("quote\"tab\t");
        assert_eq!(
            format!("{odd:?}"),
            format!("{:?}", "quote\"tab\t".to_owned())
        );
    }

    #[test]
    fn names_serialize_like_strings_and_deserialize_owned() {
        let text = "layer1.0.conv1".to_owned();
        let want = serde_json::to_string(&text).unwrap();
        for name in <[LayerName; 2]>::from(pair()) {
            let json = serde_json::to_string(&name).unwrap();
            assert_eq!(json, want);
            let back: LayerName = serde_json::from_str(&json).unwrap();
            assert_eq!(back, name);
            assert_eq!(back.end, WHOLE, "deserialized names own their text");
            assert_eq!(back.text.len(), text.len());
        }
        let err = serde_json::from_str::<LayerName>("7")
            .err()
            .map(|e| e.to_string());
        let want = serde_json::from_str::<String>("7")
            .err()
            .map(|e| e.to_string());
        assert!(err.is_some());
        assert_eq!(err, want);
    }

    #[test]
    fn buffer_names_share_their_text() {
        let text: Arc<str> = Arc::from("ab");
        let name = LayerName::in_buffer(&text, 0..1);
        assert_eq!((name.start, name.end, name.as_str()), (0, 1, "a"));
        assert!(Arc::ptr_eq(&name.text, &text));
        assert_eq!(LayerName::in_buffer(&text, 2..2), "");
        assert_eq!(LayerName::from(""), "");
    }

    #[test]
    fn child_paths_extend_the_tail_in_place_and_copy_otherwise() {
        let mut names = String::new();
        let start = sealed::Append::append(format_args!("layer{}.{}", 1, 0), &mut names);
        let block = PathRef::new(start..names.len());
        let conv = sealed::Append::append(block.child("conv1"), &mut names);
        assert_eq!((conv, names.as_str()), (0, "layer1.0.conv1"));
        let next = sealed::Append::append(block.child("conv2"), &mut names);
        assert_eq!(&names[next..], "layer1.0.conv2");
        assert_eq!(names, "layer1.0.conv1layer1.0.conv2");
        let act = PathRef::new(next..names.len()).child("act");
        assert_eq!(sealed::Append::append(act, &mut names), next);
        assert_eq!(&names[next..], "layer1.0.conv2.act");
    }
}
