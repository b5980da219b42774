//! The session manager: the server-side key cache of the paper's ARK
//! deployment motif (§V — "the ARK stores the keys of queries in the
//! waiting queue"). A client uploads its `log D0` expansion keys once;
//! every later query carries only a `u64` session id, and the online
//! payload shrinks from hundreds of KB of key material to the query
//! ciphertexts alone.
//!
//! The cache is bounded and **LRU**: each key set pins real memory, so at
//! `max_sessions` the least-recently-used session is evicted to admit the
//! new one instead of rejecting the Hello — under millions of clients the
//! cache self-manages and an evicted client simply re-Hellos (its next
//! query fails with `unknown session`, the client re-registers, and
//! service resumes). Evictions are counted and surfaced through
//! [`crate::ServerStats`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use ive_pir::ClientKeys;

use crate::ServeError;

/// One cached key set, the bytes it pins, and its recency stamp. The
/// stamp is atomic so [`SessionManager::lookup`] can touch it under the
/// shared read lock — queries never serialize on the cache write lock
/// just to stay "recent".
#[derive(Debug)]
struct Session<K> {
    keys: Arc<K>,
    bytes: usize,
    last_used: AtomicU64,
}

/// Registered client key material of one engine's key type, keyed by
/// session id, LRU-bounded. Whether a key set fits the geometry is the
/// engine's call ([`crate::Engine::check_keys`]); the cache only bounds
/// how many it holds.
#[derive(Debug)]
pub struct SessionManager<K = ClientKeys> {
    max_sessions: usize,
    next_id: AtomicU64,
    /// Monotonic recency clock; ticked on every register and lookup.
    clock: AtomicU64,
    /// Sessions evicted to make room (shared with the metrics plane).
    evictions: Arc<AtomicU64>,
    keys: RwLock<HashMap<u64, Session<K>>>,
}

impl<K> SessionManager<K> {
    /// An empty manager, LRU-evicting once `max_sessions` key sets are
    /// cached and counting the evictions into `evictions` (the serving
    /// runtime passes the metrics plane's counter so they surface in
    /// [`crate::ServerStats`]).
    pub(crate) fn new(max_sessions: usize, evictions: Arc<AtomicU64>) -> Self {
        SessionManager {
            max_sessions,
            next_id: AtomicU64::new(1),
            clock: AtomicU64::new(0),
            evictions,
            keys: RwLock::new(HashMap::new()),
        }
    }

    /// Caches one client's (already validated) key set, which pins
    /// `bytes` of memory, and returns the session id the client must
    /// present with every query. At capacity the least-recently-used
    /// session is evicted to make room.
    ///
    /// # Errors
    /// Fails when the cache is disabled (`max_sessions == 0`).
    pub(crate) fn register(&self, keys: Arc<K>, bytes: usize) -> Result<u64, ServeError> {
        if self.max_sessions == 0 {
            return Err(ServeError::Protocol("session cache disabled (max_sessions = 0)".into()));
        }
        let mut cache = self.keys.write().expect("session lock poisoned");
        while cache.len() >= self.max_sessions {
            // O(cache) scan under the write lock: caps are thousands,
            // not millions, and registration is the cold path.
            let lru = cache
                .iter()
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                .map(|(&id, _)| id)
                .expect("cache non-empty at capacity");
            cache.remove(&lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        cache.insert(id, Session { keys, bytes, last_used: AtomicU64::new(stamp) });
        Ok(id)
    }

    /// The cached keys for a session, if registered; touches the
    /// session's LRU stamp.
    pub(crate) fn lookup(&self, session_id: u64) -> Option<Arc<K>> {
        let cache = self.keys.read().expect("session lock poisoned");
        cache.get(&session_id).map(|s| {
            s.last_used.store(self.clock.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
            Arc::clone(&s.keys)
        })
    }

    /// Number of LRU evictions performed to admit new sessions.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.keys.read().expect("session lock poisoned").len()
    }

    /// Whether no session is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of cached key material (the scratchpad pressure the
    /// paper's §III-B bandwidth analysis is about).
    pub fn cached_key_bytes(&self) -> usize {
        self.keys.read().expect("session lock poisoned").values().map(|s| s.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key material stands in as a plain tag: the cache never looks
    /// inside what it holds.
    fn manager(cap: usize) -> SessionManager<&'static str> {
        SessionManager::new(cap, Arc::default())
    }

    #[test]
    fn register_lookup_evict_lifecycle() {
        let mgr = manager(16);
        assert!(mgr.is_empty());
        let id = mgr.register(Arc::new("keys"), 100).unwrap();
        let id2 = mgr.register(Arc::new("keys"), 50).unwrap();
        assert_ne!(id, id2, "session ids must be unique");
        assert_eq!(mgr.len(), 2);
        assert_eq!(mgr.cached_key_bytes(), 150);
        assert!(mgr.lookup(id).is_some());
        assert!(mgr.lookup(9999).is_none());
        assert_eq!(mgr.evictions(), 0, "under the cap nothing is evicted");
        assert!(
            manager(0).register(Arc::new("keys"), 1).is_err(),
            "a disabled cache admits nobody"
        );
    }

    #[test]
    fn cache_cap_evicts_least_recently_used() {
        let mgr = manager(2);
        let a = mgr.register(Arc::new("a"), 1).unwrap();
        let b = mgr.register(Arc::new("b"), 1).unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        assert!(mgr.lookup(a).is_some());
        let c = mgr.register(Arc::new("c"), 1).unwrap();
        assert_eq!(mgr.len(), 2, "cap holds");
        assert_eq!(mgr.evictions(), 1);
        assert!(mgr.lookup(a).is_some(), "recently used survives");
        assert!(mgr.lookup(b).is_none(), "LRU session evicted");
        assert!(mgr.lookup(c).is_some(), "new session admitted");
    }

    #[test]
    fn hundred_thousand_registrations_against_a_small_cap() {
        // The ~1M-client regime, shrunk to test time: 100k Hellos churn
        // through a 64-slot cache. Key material is shared behind one Arc
        // so each registration costs a map insert, which is exactly what
        // this test is about — the cache must self-manage (bounded size,
        // exact eviction accounting, survivors are the most recent).
        let cap = 64usize;
        let mgr = manager(cap);
        let keys = Arc::new("shared");
        let total = 100_000usize;
        let mut last_ids = std::collections::VecDeque::with_capacity(cap);
        for _ in 0..total {
            let id = mgr.register(Arc::clone(&keys), 1).unwrap();
            if last_ids.len() == cap {
                last_ids.pop_front();
            }
            last_ids.push_back(id);
        }
        assert_eq!(mgr.len(), cap, "cache never exceeds its cap");
        assert_eq!(mgr.evictions(), (total - cap) as u64, "every overflow evicted exactly one");
        for id in last_ids {
            assert!(mgr.lookup(id).is_some(), "most recent {cap} sessions survive");
        }
    }
}
