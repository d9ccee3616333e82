//! The in-memory filesystem tree.

use std::collections::BTreeMap;
use std::fmt;

use dandelion_common::{utf8_lossy, DataItem, DataSet, SharedBytes};

use crate::path::VfsPath;

/// Errors returned by virtual filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    /// The path does not exist.
    NotFound(String),
    /// A file operation was attempted on a directory or vice versa.
    WrongNodeKind {
        /// The offending path.
        path: String,
        /// What the caller expected the node to be.
        expected: NodeKind,
    },
    /// A node already exists at the target path.
    AlreadyExists(String),
    /// The parent directory of the target path does not exist.
    MissingParent(String),
    /// Writing would exceed the filesystem's capacity budget.
    CapacityExceeded {
        /// The configured limit in bytes.
        limit: usize,
        /// The size the operation would have produced.
        requested: usize,
    },
    /// The operation is not valid on the root directory.
    RootOperation,
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NotFound(path) => write!(f, "no such file or directory: {path}"),
            VfsError::WrongNodeKind { path, expected } => {
                write!(f, "{path} is not a {expected}")
            }
            VfsError::AlreadyExists(path) => write!(f, "already exists: {path}"),
            VfsError::MissingParent(path) => write!(f, "missing parent directory for {path}"),
            VfsError::CapacityExceeded { limit, requested } => {
                write!(
                    f,
                    "capacity exceeded: {requested} bytes requested, limit {limit}"
                )
            }
            VfsError::RootOperation => write!(f, "operation not permitted on the root directory"),
        }
    }
}

impl std::error::Error for VfsError {}

/// Whether a node is a file or a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Regular file holding bytes.
    File,
    /// Directory holding child nodes.
    Directory,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::File => f.write_str("file"),
            NodeKind::Directory => f.write_str("directory"),
        }
    }
}

/// Metadata describing one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metadata {
    /// File or directory.
    pub kind: NodeKind,
    /// File size in bytes (0 for directories).
    pub size: usize,
    /// Grouping key attached to the file (carried into the output item).
    pub key: Option<String>,
}

#[derive(Debug, Clone)]
enum Node {
    File {
        /// File contents as a zero-copy view: input materialization and
        /// output harvest share buffers with the data plane instead of
        /// copying payloads in and out of the filesystem.
        data: SharedBytes,
        key: Option<String>,
    },
    Directory {
        children: BTreeMap<String, Node>,
    },
}

impl Node {
    fn new_dir() -> Node {
        Node::Directory {
            children: BTreeMap::new(),
        }
    }
}

/// An in-memory filesystem with a byte-capacity budget.
///
/// The capacity models the bounded memory context a function runs in: a
/// function cannot write more output than its context can hold.
#[derive(Debug, Clone)]
pub struct VirtualFs {
    root: Node,
    capacity: usize,
    used: usize,
}

impl Default for VirtualFs {
    fn default() -> Self {
        Self::new(usize::MAX)
    }
}

impl VirtualFs {
    /// Creates an empty filesystem with the given total byte capacity.
    pub fn new(capacity: usize) -> Self {
        Self {
            root: Node::new_dir(),
            capacity,
            used: 0,
        }
    }

    /// Creates a filesystem whose input-set directories are pre-populated.
    ///
    /// Every set becomes a directory named after the set; every item becomes
    /// a file named after the item, carrying the item's key.
    pub fn from_input_sets(sets: &[DataSet], capacity: usize) -> Result<Self, VfsError> {
        let mut fs = Self::new(capacity);
        for set in sets {
            let dir = VfsPath::new(&set.name);
            fs.create_dir_all(&dir)?;
            for item in &set.items {
                let path = dir.join(&item.name);
                // Zero-copy: the file references the input item's buffer.
                fs.write_file_shared(&path, item.data.clone())?;
                if let Some(key) = &item.key {
                    fs.set_key(&path, Some(key.clone()))?;
                }
            }
        }
        Ok(fs)
    }

    /// Total bytes currently stored in files.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// The configured capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn find(&self, path: &VfsPath) -> Option<&Node> {
        let mut node = &self.root;
        for component in path.components() {
            match node {
                Node::Directory { children } => node = children.get(component)?,
                Node::File { .. } => return None,
            }
        }
        Some(node)
    }

    fn find_mut(&mut self, path: &VfsPath) -> Option<&mut Node> {
        let mut node = &mut self.root;
        for component in path.components() {
            match node {
                Node::Directory { children } => node = children.get_mut(component)?,
                Node::File { .. } => return None,
            }
        }
        Some(node)
    }

    /// Returns `true` if a node exists at `path`.
    pub fn exists(&self, path: &VfsPath) -> bool {
        self.find(path).is_some()
    }

    /// Returns metadata for the node at `path`.
    pub fn metadata(&self, path: &VfsPath) -> Result<Metadata, VfsError> {
        match self.find(path) {
            None => Err(VfsError::NotFound(path.to_string())),
            Some(Node::File { data, key }) => Ok(Metadata {
                kind: NodeKind::File,
                size: data.len(),
                key: key.clone(),
            }),
            Some(Node::Directory { .. }) => Ok(Metadata {
                kind: NodeKind::Directory,
                size: 0,
                key: None,
            }),
        }
    }

    /// Creates a directory; the parent must already exist.
    pub fn create_dir(&mut self, path: &VfsPath) -> Result<(), VfsError> {
        if path.is_root() {
            return Err(VfsError::AlreadyExists("/".to_string()));
        }
        let parent = path.parent();
        let name = path.file_name().ok_or(VfsError::RootOperation)?.to_string();
        match self.find_mut(&parent) {
            Some(Node::Directory { children }) => {
                if children.contains_key(&name) {
                    return Err(VfsError::AlreadyExists(path.to_string()));
                }
                children.insert(name, Node::new_dir());
                Ok(())
            }
            Some(Node::File { .. }) => Err(VfsError::WrongNodeKind {
                path: parent.to_string(),
                expected: NodeKind::Directory,
            }),
            None => Err(VfsError::MissingParent(path.to_string())),
        }
    }

    /// Creates a directory and any missing ancestors.
    pub fn create_dir_all(&mut self, path: &VfsPath) -> Result<(), VfsError> {
        let mut current = VfsPath::root();
        for component in path.components() {
            current = current.join(component);
            match self.find(&current) {
                Some(Node::Directory { .. }) => {}
                Some(Node::File { .. }) => {
                    return Err(VfsError::WrongNodeKind {
                        path: current.to_string(),
                        expected: NodeKind::Directory,
                    })
                }
                None => self.create_dir(&current)?,
            }
        }
        Ok(())
    }

    /// Writes (creates or truncates) a file with the given contents,
    /// copying them into a fresh buffer. Use [`VirtualFs::write_file_shared`]
    /// to attach an existing buffer without copying.
    pub fn write_file(&mut self, path: &VfsPath, data: &[u8]) -> Result<(), VfsError> {
        self.write_file_shared(path, SharedBytes::copy_from_slice(data))
    }

    /// Writes (creates or truncates) a file backed by an existing
    /// [`SharedBytes`] view — the zero-copy path used when materializing
    /// input sets and when functions stage large outputs.
    pub fn write_file_shared(&mut self, path: &VfsPath, data: SharedBytes) -> Result<(), VfsError> {
        if path.is_root() {
            return Err(VfsError::RootOperation);
        }
        let existing = match self.find(path) {
            Some(Node::Directory { .. }) => {
                return Err(VfsError::WrongNodeKind {
                    path: path.to_string(),
                    expected: NodeKind::File,
                })
            }
            Some(Node::File { data, .. }) => data.len(),
            None => 0,
        };
        let new_used = self.used - existing + data.len();
        if new_used > self.capacity {
            return Err(VfsError::CapacityExceeded {
                limit: self.capacity,
                requested: new_used,
            });
        }
        let parent = path.parent();
        let name = path.file_name().ok_or(VfsError::RootOperation)?.to_string();
        match self.find_mut(&parent) {
            Some(Node::Directory { children }) => {
                match children.get_mut(&name) {
                    Some(Node::File { data: existing, .. }) => {
                        *existing = data;
                    }
                    Some(Node::Directory { .. }) => {
                        return Err(VfsError::WrongNodeKind {
                            path: path.to_string(),
                            expected: NodeKind::File,
                        })
                    }
                    None => {
                        children.insert(name, Node::File { data, key: None });
                    }
                }
                self.used = new_used;
                Ok(())
            }
            Some(Node::File { .. }) => Err(VfsError::WrongNodeKind {
                path: parent.to_string(),
                expected: NodeKind::Directory,
            }),
            None => Err(VfsError::MissingParent(path.to_string())),
        }
    }

    /// Appends bytes to a file, creating it if necessary.
    pub fn append_file(&mut self, path: &VfsPath, data: &[u8]) -> Result<(), VfsError> {
        let mut existing = match self.find(path) {
            Some(Node::File { data, .. }) => data.as_slice().to_vec(),
            Some(Node::Directory { .. }) => {
                return Err(VfsError::WrongNodeKind {
                    path: path.to_string(),
                    expected: NodeKind::File,
                })
            }
            None => Vec::new(),
        };
        existing.extend_from_slice(data);
        self.write_file_shared(path, SharedBytes::from_vec(existing))
    }

    /// Reads a file's contents into an owned vector (copies).
    pub fn read_file(&self, path: &VfsPath) -> Result<Vec<u8>, VfsError> {
        self.read_file_shared(path)
            .map(|data| data.as_slice().to_vec())
    }

    /// Reads a file's contents as a zero-copy view.
    pub fn read_file_shared(&self, path: &VfsPath) -> Result<SharedBytes, VfsError> {
        match self.find(path) {
            Some(Node::File { data, .. }) => Ok(data.clone()),
            Some(Node::Directory { .. }) => Err(VfsError::WrongNodeKind {
                path: path.to_string(),
                expected: NodeKind::File,
            }),
            None => Err(VfsError::NotFound(path.to_string())),
        }
    }

    /// Reads a file as UTF-8 text, replacing invalid sequences.
    pub fn read_to_string(&self, path: &VfsPath) -> Result<String, VfsError> {
        self.read_file(path)
            .map(|bytes| utf8_lossy(&bytes).into_owned())
    }

    /// Attaches or clears the grouping key of a file.
    pub fn set_key(&mut self, path: &VfsPath, key: Option<String>) -> Result<(), VfsError> {
        match self.find_mut(path) {
            Some(Node::File { key: slot, .. }) => {
                *slot = key;
                Ok(())
            }
            Some(Node::Directory { .. }) => Err(VfsError::WrongNodeKind {
                path: path.to_string(),
                expected: NodeKind::File,
            }),
            None => Err(VfsError::NotFound(path.to_string())),
        }
    }

    /// Lists the names of a directory's children in sorted order.
    pub fn list_dir(&self, path: &VfsPath) -> Result<Vec<String>, VfsError> {
        match self.find(path) {
            Some(Node::Directory { children }) => Ok(children.keys().cloned().collect()),
            Some(Node::File { .. }) => Err(VfsError::WrongNodeKind {
                path: path.to_string(),
                expected: NodeKind::Directory,
            }),
            None => Err(VfsError::NotFound(path.to_string())),
        }
    }

    /// Removes a file or an empty directory.
    pub fn remove(&mut self, path: &VfsPath) -> Result<(), VfsError> {
        if path.is_root() {
            return Err(VfsError::RootOperation);
        }
        let parent = path.parent();
        let name = path.file_name().ok_or(VfsError::RootOperation)?.to_string();
        // Determine the freed size first to keep the accounting correct.
        let freed = match self.find(path) {
            Some(Node::File { data, .. }) => data.len(),
            Some(Node::Directory { children }) if children.is_empty() => 0,
            Some(Node::Directory { .. }) => {
                return Err(VfsError::WrongNodeKind {
                    path: path.to_string(),
                    expected: NodeKind::File,
                })
            }
            None => return Err(VfsError::NotFound(path.to_string())),
        };
        if let Some(Node::Directory { children }) = self.find_mut(&parent) {
            children.remove(&name);
            self.used -= freed;
            Ok(())
        } else {
            Err(VfsError::NotFound(path.to_string()))
        }
    }

    /// Collects the named output sets from their directories.
    ///
    /// Each existing directory contributes one [`DataSet`] with one item per
    /// file (sorted by file name). Missing directories produce empty sets so
    /// that downstream dependency tracking sees every declared set.
    pub fn harvest_output_sets(&self, set_names: &[String]) -> Vec<DataSet> {
        let mut sets = Vec::with_capacity(set_names.len());
        for name in set_names {
            let dir = VfsPath::new(name);
            let mut set = DataSet::new(name.clone());
            if let Some(Node::Directory { children }) = self.find(&dir) {
                for (file_name, node) in children {
                    if let Node::File { data, key } = node {
                        let mut item = DataItem::new(file_name.clone(), data.clone());
                        item.key = key.clone();
                        set.push(item);
                    }
                }
            }
            sets.push(set);
        }
        sets
    }

    /// Writes one output item in the two-level `/<set>/<item>` layout,
    /// creating the set directory if needed.
    pub fn write_output_item(
        &mut self,
        set: &str,
        item: &str,
        key: Option<&str>,
        data: &[u8],
    ) -> Result<(), VfsError> {
        let dir = VfsPath::new(set);
        self.create_dir_all(&dir)?;
        let path = dir.join(item);
        self.write_file(&path, data)?;
        self.set_key(&path, key.map(str::to_string))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sets() -> Vec<DataSet> {
        vec![
            DataSet::with_items(
                "requests",
                vec![
                    DataItem::new("a.txt", b"alpha".to_vec()),
                    DataItem::with_key("b.txt", "west", b"beta".to_vec()),
                ],
            ),
            DataSet::new("empty"),
        ]
    }

    #[test]
    fn input_sets_become_directories() {
        let fs = VirtualFs::from_input_sets(&sample_sets(), 1024).unwrap();
        assert_eq!(
            fs.list_dir(&VfsPath::new("/requests")).unwrap(),
            vec!["a.txt", "b.txt"]
        );
        assert_eq!(
            fs.read_file(&VfsPath::new("/requests/a.txt")).unwrap(),
            b"alpha"
        );
        assert_eq!(
            fs.metadata(&VfsPath::new("/requests/b.txt")).unwrap().key,
            Some("west".to_string())
        );
        assert!(fs.list_dir(&VfsPath::new("/empty")).unwrap().is_empty());
        assert_eq!(fs.used_bytes(), 9);
    }

    #[test]
    fn write_read_append_remove_roundtrip() {
        let mut fs = VirtualFs::new(1024);
        fs.create_dir_all(&VfsPath::new("/out/nested")).unwrap();
        fs.write_file(&VfsPath::new("/out/nested/file"), b"12345")
            .unwrap();
        fs.append_file(&VfsPath::new("/out/nested/file"), b"678")
            .unwrap();
        assert_eq!(
            fs.read_to_string(&VfsPath::new("/out/nested/file"))
                .unwrap(),
            "12345678"
        );
        assert_eq!(fs.used_bytes(), 8);
        fs.remove(&VfsPath::new("/out/nested/file")).unwrap();
        assert_eq!(fs.used_bytes(), 0);
        assert!(!fs.exists(&VfsPath::new("/out/nested/file")));
        fs.remove(&VfsPath::new("/out/nested")).unwrap();
        assert!(!fs.exists(&VfsPath::new("/out/nested")));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut fs = VirtualFs::new(10);
        fs.create_dir(&VfsPath::new("/out")).unwrap();
        fs.write_file(&VfsPath::new("/out/a"), &[0u8; 8]).unwrap();
        let err = fs
            .write_file(&VfsPath::new("/out/b"), &[0u8; 4])
            .unwrap_err();
        assert!(matches!(err, VfsError::CapacityExceeded { limit: 10, .. }));
        // Overwriting with smaller content frees space.
        fs.write_file(&VfsPath::new("/out/a"), &[0u8; 2]).unwrap();
        fs.write_file(&VfsPath::new("/out/b"), &[0u8; 4]).unwrap();
        assert_eq!(fs.used_bytes(), 6);
    }

    #[test]
    fn wrong_node_kind_errors() {
        let mut fs = VirtualFs::new(1024);
        fs.create_dir(&VfsPath::new("/dir")).unwrap();
        fs.write_file(&VfsPath::new("/dir/file"), b"x").unwrap();
        assert!(matches!(
            fs.read_file(&VfsPath::new("/dir")),
            Err(VfsError::WrongNodeKind { .. })
        ));
        assert!(matches!(
            fs.list_dir(&VfsPath::new("/dir/file")),
            Err(VfsError::WrongNodeKind { .. })
        ));
        assert!(matches!(
            fs.create_dir(&VfsPath::new("/dir/file/sub")),
            Err(VfsError::WrongNodeKind { .. })
        ));
        assert!(matches!(
            fs.write_file(&VfsPath::new("/missing/file"), b"x"),
            Err(VfsError::MissingParent(_))
        ));
        assert!(matches!(
            fs.read_file(&VfsPath::new("/nope")),
            Err(VfsError::NotFound(_))
        ));
    }

    #[test]
    fn harvest_output_sets_collects_files_and_keys() {
        let mut fs = VirtualFs::new(1024);
        fs.write_output_item("results", "1.json", Some("eu"), b"{}")
            .unwrap();
        fs.write_output_item("results", "0.json", None, b"[]")
            .unwrap();
        let sets = fs.harvest_output_sets(&["results".to_string(), "missing".to_string()]);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].name, "results");
        assert_eq!(sets[0].len(), 2);
        // Items are sorted by file name.
        assert_eq!(sets[0].items[0].name, "0.json");
        assert_eq!(sets[0].items[1].key.as_deref(), Some("eu"));
        assert!(sets[1].is_empty());
    }

    #[test]
    fn removing_root_or_nonempty_dir_fails() {
        let mut fs = VirtualFs::new(1024);
        fs.create_dir(&VfsPath::new("/d")).unwrap();
        fs.write_file(&VfsPath::new("/d/f"), b"1").unwrap();
        assert!(matches!(
            fs.remove(&VfsPath::root()),
            Err(VfsError::RootOperation)
        ));
        assert!(matches!(
            fs.remove(&VfsPath::new("/d")),
            Err(VfsError::WrongNodeKind { .. })
        ));
    }

    #[test]
    fn create_dir_all_is_idempotent() {
        let mut fs = VirtualFs::new(1024);
        fs.create_dir_all(&VfsPath::new("/a/b/c")).unwrap();
        fs.create_dir_all(&VfsPath::new("/a/b/c")).unwrap();
        assert!(fs.exists(&VfsPath::new("/a/b/c")));
        assert_eq!(
            fs.metadata(&VfsPath::new("/a/b")).unwrap().kind,
            NodeKind::Directory
        );
    }
}
