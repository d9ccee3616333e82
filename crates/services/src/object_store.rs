//! An S3-like object store.
//!
//! The elastic query processing experiment (§7.7, Figure 9) ingests ~700 MB
//! of Star Schema Benchmark data from S3. This service provides the same
//! GET/PUT/DELETE-over-HTTP surface backed by an in-memory bucket map, with
//! an object-storage latency model (first-byte latency plus per-KiB
//! bandwidth cost).
//!
//! In the paper's deployment the objects sit on another machine; here they
//! would sit in the worker's heap from boot. A bucket can therefore be given
//! a *source* ([`ObjectStore::set_source`]): an object is materialised on
//! first use, then stored and served like any object that was put.

use std::collections::BTreeMap;
use std::sync::Arc;

use dandelion_common::SharedBytes;
use dandelion_http::{HttpRequest, HttpResponse, Method, StatusCode};
use parking_lot::RwLock;

use crate::latency::LatencyModel;
use crate::registry::{RemoteService, ServiceResponse};

/// Makes the object a bucket holds under a key, or declines the key.
type ObjectSource = dyn Fn(&str) -> Option<SharedBytes> + Send + Sync;

/// One bucket: the objects stored so far and, optionally, where the ones not
/// stored yet come from.
#[derive(Default)]
struct Bucket {
    objects: BTreeMap<String, SharedBytes>,
    source: Option<Arc<ObjectSource>>,
}

/// In-memory S3-like object store.
pub struct ObjectStore {
    buckets: RwLock<BTreeMap<String, Bucket>>,
    latency: LatencyModel,
}

impl ObjectStore {
    /// Creates an empty object store with the default S3-like latency model.
    pub fn new() -> Self {
        Self::with_latency(LatencyModel::OBJECT_STORE)
    }

    /// Creates a store with a custom latency model.
    pub fn with_latency(latency: LatencyModel) -> Self {
        Self {
            buckets: RwLock::new(BTreeMap::new()),
            latency,
        }
    }

    /// Stores an object directly (bypassing HTTP), useful for test setup and
    /// for the benchmark data generator. Objects are held as [`SharedBytes`]
    /// so GETs serve zero-copy views of the stored buffer.
    pub fn put_object(&self, bucket: &str, key: &str, data: impl Into<SharedBytes>) {
        self.buckets
            .write()
            .entry(bucket.to_string())
            .or_default()
            .objects
            .insert(key.to_string(), data.into());
    }

    /// Gives `bucket` a source (replacing any previous one): a read of a key
    /// the bucket does not hold asks `source` for the object and stores what
    /// it returns exactly as [`ObjectStore::put_object`] would, so every
    /// later read is a view of that one buffer. A key the source declines
    /// (`None`) is a miss. A put overrides the source for its key; a DELETE
    /// removes the stored copy only, so a later read yields the source's
    /// object again. [`ObjectStore::list_bucket`] and
    /// [`ObjectStore::total_bytes`] see what has been stored, not what the
    /// source could make.
    ///
    /// `source` runs outside the store's lock and may run more than once for
    /// a key that several threads read for the first time at once; one of
    /// the results is stored and all of them receive it. It must return the
    /// same bytes for the same key every time.
    pub fn set_source(
        &self,
        bucket: &str,
        source: impl Fn(&str) -> Option<SharedBytes> + Send + Sync + 'static,
    ) {
        self.buckets
            .write()
            .entry(bucket.to_string())
            .or_default()
            .source = Some(Arc::new(source));
    }

    /// Reads an object directly, as a zero-copy view of the stored buffer
    /// (materialising it first if the bucket's source has to make it).
    pub fn get_object(&self, bucket: &str, key: &str) -> Option<SharedBytes> {
        let source = {
            let buckets = self.buckets.read();
            let entry = buckets.get(bucket)?;
            if let Some(data) = entry.objects.get(key) {
                return Some(data.clone());
            }
            Arc::clone(entry.source.as_ref()?)
        };
        let made = source(key)?;
        // Whoever stores first wins; a racing reader drops what it made and
        // takes the stored buffer, like any later reader.
        let mut buckets = self.buckets.write();
        let objects = &mut buckets.get_mut(bucket)?.objects;
        Some(objects.entry(key.to_string()).or_insert(made).clone())
    }

    /// Lists the keys of a bucket in sorted order.
    pub fn list_bucket(&self, bucket: &str) -> Vec<String> {
        self.buckets
            .read()
            .get(bucket)
            .map(|bucket| bucket.objects.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Total bytes stored across all buckets.
    pub fn total_bytes(&self) -> usize {
        self.buckets
            .read()
            .values()
            .flat_map(|bucket| bucket.objects.values())
            .map(SharedBytes::len)
            .sum()
    }

    /// Parses `/bucket/key...` from a request path.
    fn parse_path(target: &str) -> Option<(String, String)> {
        let path = target
            .split_once("://")
            .map(|(_, rest)| rest.split_once('/').map(|(_, p)| p).unwrap_or(""))
            .unwrap_or_else(|| target.trim_start_matches('/'));
        let path = path.split('?').next().unwrap_or(path);
        let (bucket, key) = path.split_once('/')?;
        if bucket.is_empty() || key.is_empty() {
            return None;
        }
        Some((bucket.to_string(), key.to_string()))
    }
}

impl Default for ObjectStore {
    fn default() -> Self {
        Self::new()
    }
}

impl RemoteService for ObjectStore {
    fn name(&self) -> &str {
        "object-store"
    }

    fn resident_bytes(&self) -> usize {
        self.total_bytes()
    }

    fn handle(&self, request: &HttpRequest) -> ServiceResponse {
        let Some((bucket, key)) = Self::parse_path(&request.target) else {
            return ServiceResponse {
                response: HttpResponse::error(
                    StatusCode::BAD_REQUEST,
                    "expected /<bucket>/<key> path",
                ),
                latency: self.latency.latency_for(0),
            };
        };
        let (response, payload) = match request.method {
            Method::Get => match self.get_object(&bucket, &key) {
                Some(data) => {
                    let len = data.len();
                    (
                        HttpResponse::ok(data)
                            .with_header("Content-Type", "application/octet-stream"),
                        len,
                    )
                }
                None => (
                    HttpResponse::error(StatusCode::NOT_FOUND, "no such object"),
                    0,
                ),
            },
            Method::Put | Method::Post => {
                let len = request.body.len();
                // Compact before storing: the body may be a small view of a
                // large producer buffer, and the store outlives the request.
                self.put_object(&bucket, &key, request.body.compact());
                (HttpResponse::new(StatusCode::CREATED, Vec::new()), len)
            }
            Method::Delete => {
                let removed = self
                    .buckets
                    .write()
                    .get_mut(&bucket)
                    .and_then(|bucket| bucket.objects.remove(&key))
                    .is_some();
                if removed {
                    (HttpResponse::new(StatusCode::NO_CONTENT, Vec::new()), 0)
                } else {
                    (
                        HttpResponse::error(StatusCode::NOT_FOUND, "no such object"),
                        0,
                    )
                }
            }
            Method::Head => match self.get_object(&bucket, &key) {
                Some(data) => (
                    HttpResponse::ok(Vec::new())
                        .with_header("Content-Length", &data.len().to_string()),
                    0,
                ),
                None => (
                    HttpResponse::error(StatusCode::NOT_FOUND, "no such object"),
                    0,
                ),
            },
        };
        ServiceResponse {
            latency: self.latency.latency_for(payload),
            response,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;

    #[test]
    fn put_get_delete_roundtrip() {
        let store = ObjectStore::new();
        let put = HttpRequest::put("http://s3.internal/ssb/lineorder.csv", b"a,b,c".to_vec());
        assert_eq!(store.handle(&put).response.status, StatusCode::CREATED);

        let get = HttpRequest::get("http://s3.internal/ssb/lineorder.csv");
        let reply = store.handle(&get);
        assert_eq!(reply.response.status, StatusCode::OK);
        assert_eq!(reply.response.body, b"a,b,c");

        let delete = HttpRequest::new(Method::Delete, "http://s3.internal/ssb/lineorder.csv");
        assert_eq!(
            store.handle(&delete).response.status,
            StatusCode::NO_CONTENT
        );
        assert_eq!(store.handle(&get).response.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn direct_api_and_listing() {
        let store = ObjectStore::new();
        store.put_object("bucket", "z", vec![1, 2, 3]);
        store.put_object("bucket", "a", vec![4]);
        assert_eq!(store.list_bucket("bucket"), vec!["a", "z"]);
        assert_eq!(store.total_bytes(), 4);
        assert_eq!(
            store.get_object("bucket", "z"),
            Some(SharedBytes::from(vec![1u8, 2, 3]))
        );
        assert!(store.list_bucket("missing").is_empty());
    }

    #[test]
    fn get_latency_scales_with_object_size() {
        use std::time::Duration;

        let store = ObjectStore::new();
        store.put_object("b", "small", vec![0u8; 1024]);
        store.put_object("b", "large", vec![0u8; 10 * 1024 * 1024]);
        let small = store.handle(&HttpRequest::get("http://s3/b/small")).latency;
        let large = store.handle(&HttpRequest::get("http://s3/b/large")).latency;
        assert!(large > small + Duration::from_millis(50));
    }

    #[test]
    fn malformed_paths_are_rejected() {
        let store = ObjectStore::new();
        let request = HttpRequest::get("http://s3.internal/justbucket");
        assert_eq!(
            store.handle(&request).response.status,
            StatusCode::BAD_REQUEST
        );
    }

    #[test]
    fn head_reports_existence_without_body() {
        let store = ObjectStore::new();
        store.put_object("b", "k", vec![0u8; 100]);
        let request = HttpRequest::new(Method::Head, "http://s3/b/k");
        let reply = store.handle(&request);
        assert_eq!(reply.response.status, StatusCode::OK);
        assert!(reply.response.body.is_empty());
        assert_eq!(reply.response.headers.get("content-length"), Some("100"));
    }

    /// A store whose `lazy` bucket makes `"<n>"` → `n` bytes of `n as u8` for
    /// n < 100, counting how often the source ran.
    fn sourced_store() -> (ObjectStore, Arc<AtomicUsize>) {
        let store = ObjectStore::with_latency(LatencyModel::zero());
        let runs = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&runs);
        store.set_source("lazy", move |key| {
            counter.fetch_add(1, Ordering::SeqCst);
            let n: usize = key.parse().ok().filter(|n| *n < 100)?;
            Some(vec![n as u8; n].into())
        });
        (store, runs)
    }

    #[test]
    fn a_sourced_object_is_made_once_and_then_served_from_the_store() {
        let (store, runs) = sourced_store();
        assert_eq!(store.total_bytes(), 0, "nothing is made ahead of a read");
        assert!(store.list_bucket("lazy").is_empty());

        let get = HttpRequest::get("http://s3.internal/lazy/7");
        let first = store.handle(&get).response;
        let second = store.handle(&get).response;
        assert_eq!(first.status, StatusCode::OK);
        assert_eq!(first.body, [7u8; 7]);
        assert!(SharedBytes::same_buffer(&first.body, &second.body));
        assert!(SharedBytes::same_buffer(
            &first.body,
            &store.get_object("lazy", "7").unwrap()
        ));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        // Stored like a put: listed and counted.
        assert_eq!(store.list_bucket("lazy"), vec!["7"]);
        assert_eq!(store.total_bytes(), 7);
    }

    #[test]
    fn a_put_overrides_the_source_and_a_delete_gives_the_key_back_to_it() {
        let (store, runs) = sourced_store();
        let url = "http://s3.internal/lazy/5";
        // Put before any read: the source is never asked.
        let put = HttpRequest::put(url, b"put".to_vec());
        assert_eq!(store.handle(&put).response.status, StatusCode::CREATED);
        assert_eq!(store.handle(&HttpRequest::get(url)).response.body, b"put");
        assert_eq!(runs.load(Ordering::SeqCst), 0);
        // Put over a materialised object replaces it too.
        assert_eq!(store.get_object("lazy", "9").unwrap(), [9u8; 9]);
        store.put_object("lazy", "9", b"over".to_vec());
        assert_eq!(store.get_object("lazy", "9").unwrap(), b"over");

        // DELETE removes the stored copy; the next GET is a first read again.
        let delete = HttpRequest::new(Method::Delete, url);
        assert_eq!(
            store.handle(&delete).response.status,
            StatusCode::NO_CONTENT
        );
        assert_eq!(store.handle(&HttpRequest::get(url)).response.body, [5u8; 5]);
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn declined_keys_and_unsourced_buckets_are_still_misses() {
        let (store, runs) = sourced_store();
        store.put_object("plain", "k", vec![1]);
        for url in [
            "http://s3.internal/lazy/100",
            "http://s3.internal/lazy/not-a-number",
            "http://s3.internal/plain/7",
            "http://s3.internal/nowhere/7",
        ] {
            for method in [Method::Get, Method::Head, Method::Delete] {
                let reply = store.handle(&HttpRequest::new(method, url));
                assert_eq!(reply.response.status, StatusCode::NOT_FOUND, "{url}");
            }
        }
        // Only the sourced bucket's two keys were offered to the source (by
        // GET and HEAD), and a declined key stores nothing.
        assert_eq!(runs.load(Ordering::SeqCst), 4);
        assert_eq!(store.total_bytes(), 1);
    }

    #[test]
    fn head_reports_the_sourced_length() {
        let (store, _) = sourced_store();
        let reply = store.handle(&HttpRequest::new(Method::Head, "http://s3/lazy/42"));
        assert_eq!(reply.response.status, StatusCode::OK);
        assert!(reply.response.body.is_empty());
        assert_eq!(reply.response.headers.get("content-length"), Some("42"));
    }

    #[test]
    fn racing_first_reads_of_one_key_store_one_buffer() {
        const READERS: usize = 8;
        let (store, runs) = sourced_store();
        // The barrier puts all eight at the cold key together.
        let barrier = std::sync::Barrier::new(READERS);
        let views: Vec<SharedBytes> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        store.get_object("lazy", "64").expect("sourced key")
                    })
                })
                .collect();
            readers
                .into_iter()
                .map(|reader| reader.join().expect("reader finishes"))
                .collect()
        });
        let stored = store.get_object("lazy", "64").unwrap();
        for view in &views {
            assert!(SharedBytes::same_buffer(view, &stored));
            assert_eq!(*view, [64u8; 64]);
        }
        let ran = runs.load(Ordering::SeqCst);
        assert!((1..=READERS).contains(&ran), "source ran {ran} times");
        assert_eq!(store.total_bytes(), 64, "stored once");
    }
}
