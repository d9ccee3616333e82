//! The value model passed between Dandelion functions.
//!
//! A function consumes a list of named *input sets* and produces a list of
//! named *output sets*. Each set contains zero or more [`DataItem`]s. Items
//! carry an optional string key that is only used by the `key` distribution
//! keyword of the composition DSL to group items onto function instances.

use std::collections::BTreeMap;
use std::fmt;

use crate::bytes::SharedBytes;

/// A single immutable data item inside a [`DataSet`].
///
/// Item payloads are [`SharedBytes`] views, so fan-out edges (`each`), `key`
/// grouping and composition edges hand the same underlying buffer to many
/// function instances without copying; cloning an item never copies payload
/// bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct DataItem {
    /// Optional grouping key, set by the producing function.
    pub key: Option<String>,
    /// Item name (the "file name" inside the set "folder").
    pub name: String,
    /// The payload bytes (a zero-copy view).
    pub data: SharedBytes,
}

impl DataItem {
    /// Creates an item with a name and payload and no key.
    pub fn new(name: impl Into<String>, data: impl Into<SharedBytes>) -> Self {
        Self {
            key: None,
            name: name.into(),
            data: data.into(),
        }
    }

    /// Creates an item carrying a grouping key.
    pub fn with_key(
        name: impl Into<String>,
        key: impl Into<String>,
        data: impl Into<SharedBytes>,
    ) -> Self {
        Self {
            key: Some(key.into()),
            name: name.into(),
            data: data.into(),
        }
    }

    /// Returns the payload as a UTF-8 string if it is valid UTF-8.
    pub fn as_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.data).ok()
    }

    /// Returns the payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl fmt::Debug for DataItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataItem")
            .field("name", &self.name)
            .field("key", &self.key)
            .field("len", &self.data.len())
            .finish()
    }
}

/// A named collection of [`DataItem`]s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DataSet {
    /// The set name as declared by the function signature.
    pub name: String,
    /// The items in the set, in production order.
    pub items: Vec<DataItem>,
}

impl DataSet {
    /// Creates an empty set with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            items: Vec::new(),
        }
    }

    /// Creates a set from existing items.
    pub fn with_items(name: impl Into<String>, items: Vec<DataItem>) -> Self {
        Self {
            name: name.into(),
            items,
        }
    }

    /// Creates a set holding a single unnamed item containing `data`.
    pub fn single(name: impl Into<String>, data: impl Into<SharedBytes>) -> Self {
        let name = name.into();
        let item = DataItem::new(format!("{name}.0"), data);
        Self {
            name,
            items: vec![item],
        }
    }

    /// Adds an item to the set.
    pub fn push(&mut self, item: DataItem) {
        self.items.push(item);
    }

    /// Returns the number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the set contains no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total payload bytes across all items.
    pub fn total_bytes(&self) -> usize {
        self.items.iter().map(DataItem::len).sum()
    }

    /// Returns the first item, if any. Convenient for single-item sets.
    pub fn first(&self) -> Option<&DataItem> {
        self.items.first()
    }

    /// Groups the items by their key.
    ///
    /// Items without a key are grouped under the empty string. The result is
    /// ordered by key so that scheduling is deterministic.
    pub fn group_by_key(&self) -> BTreeMap<String, Vec<DataItem>> {
        let mut groups: BTreeMap<String, Vec<DataItem>> = BTreeMap::new();
        for item in &self.items {
            let key = item.key.clone().unwrap_or_default();
            groups.entry(key).or_default().push(item.clone());
        }
        groups
    }
}

/// Total number of payload bytes across a list of sets, the unit of function
/// input and output.
pub fn total_bytes(sets: &[DataSet]) -> usize {
    sets.iter().map(DataSet::total_bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_constructors() {
        let item = DataItem::new("logs.txt", b"hello".to_vec());
        assert_eq!(item.name, "logs.txt");
        assert_eq!(item.as_str(), Some("hello"));
        assert_eq!(item.len(), 5);
        assert!(!item.is_empty());

        let keyed = DataItem::with_key("part", "eu-west", vec![0xFF, 0xFE, 0xFD]);
        assert_eq!(keyed.key.as_deref(), Some("eu-west"));
        assert_eq!(keyed.as_str(), None);
    }

    #[test]
    fn set_accumulates_items() {
        let mut set = DataSet::new("responses");
        assert!(set.is_empty());
        set.push(DataItem::new("a", b"xx".to_vec()));
        set.push(DataItem::new("b", b"yyy".to_vec()));
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_bytes(), 5);
        assert_eq!(set.first().unwrap().name, "a");
    }

    #[test]
    fn single_creates_one_item() {
        let set = DataSet::single("request", b"GET /".to_vec());
        assert_eq!(set.len(), 1);
        assert_eq!(set.items[0].name, "request.0");
    }

    #[test]
    fn group_by_key_orders_groups() {
        let set = DataSet::with_items(
            "parts",
            vec![
                DataItem::with_key("a", "k2", vec![1]),
                DataItem::with_key("b", "k1", vec![2]),
                DataItem::with_key("c", "k1", vec![3]),
                DataItem::new("d", vec![4]),
            ],
        );
        let groups = set.group_by_key();
        let keys: Vec<&String> = groups.keys().collect();
        assert_eq!(keys, ["", "k1", "k2"]);
        assert_eq!(groups["k1"].len(), 2);
    }

    #[test]
    fn set_list_helpers() {
        let sets = vec![
            DataSet::single("a", vec![0u8; 10]),
            DataSet::single("b", vec![0u8; 20]),
        ];
        assert_eq!(total_bytes(&sets), 30);
    }
}
