//! The content-addressed artifact cache.
//!
//! Synthesis and the implication/dominator/SCOAP bundle are pure
//! functions of the circuit, so the server computes them once per
//! [`ContentKey`] and shares them across jobs and tenants. The cache is a
//! bounded LRU under one mutex — artifact *construction* happens outside
//! the lock, so a slow synthesis cannot stall unrelated lookups — and every
//! hit, miss and eviction is counted in `scanft-obs` (`server.cache.*`).
//!
//! What is cached eagerly vs lazily follows what jobs actually pay for:
//! the synthesized circuit, whose netlist both kernels read directly, is
//! built on first use of a key (every job needs it), while the
//! [`Analysis`] bundle is built behind a `OnceLock` only when the first
//! ATPG job on that circuit asks for it — a simulate-only tenant never pays
//! the implication-closure cost. ATPG jobs borrow the shared bundle; none
//! copies it.

use scanft_race::sync::{Arc, Mutex, OnceLock};
use std::collections::HashMap;

use scanft_analyze::Analysis;
use scanft_fsm::StateTable;
use scanft_synth::{synthesize, SynthConfig, SynthesizedCircuit};

use crate::hash::ContentKey;

/// The shared per-circuit artifact bundle.
#[derive(Debug)]
pub struct Artifacts {
    /// The parsed state table (canonical source of the artifacts).
    pub table: StateTable,
    /// Synthesized gate-level implementation.
    pub circuit: SynthesizedCircuit,
    analysis: OnceLock<Arc<Analysis>>,
}

impl Artifacts {
    /// Builds the eager artifact (synthesis) for a table.
    #[must_use]
    pub fn build(table: StateTable) -> Self {
        let circuit = synthesize(&table, &SynthConfig::default());
        Artifacts {
            table,
            circuit,
            analysis: OnceLock::new(),
        }
    }

    /// The implication/dominator/SCOAP bundle, built on first request and
    /// shared afterwards.
    #[must_use]
    pub fn analysis(&self) -> Arc<Analysis> {
        Arc::clone(
            self.analysis
                .get_or_init(|| Arc::new(Analysis::new(self.circuit.netlist()))),
        )
    }

    /// Whether the analysis bundle has been built yet.
    #[must_use]
    pub fn has_analysis(&self) -> bool {
        self.analysis.get().is_some()
    }
}

/// A bounded LRU cache of [`Artifacts`] keyed by [`ContentKey`].
#[derive(Debug)]
pub struct ArtifactCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<ContentKey, Arc<Artifacts>>,
    /// Keys from least- to most-recently used.
    order: Vec<ContentKey>,
}

impl ArtifactCache {
    /// Creates a cache holding at most `capacity` circuits (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Looks up `key`, building (and inserting) the artifacts from `table`
    /// on a miss. Returns the shared bundle and whether it was a hit.
    ///
    /// Construction runs outside the cache lock; two racing misses on the
    /// same key both build, and the first insert wins (the loser's build is
    /// discarded — wasteful but correct, and only possible in the first
    /// instant of a key's life).
    pub fn get_or_build(&self, key: ContentKey, table: &StateTable) -> (Arc<Artifacts>, bool) {
        let obs = scanft_obs::global();
        if let Some(found) = self.touch(key) {
            obs.counter("server.cache.hits").inc();
            return (found, true);
        }
        obs.counter("server.cache.misses").inc();
        let _span = obs.timer("server.cache.build").start();
        let built = Arc::new(Artifacts::build(table.clone()));
        let mut inner = self.inner.lock();
        let entry = inner
            .entries
            .entry(key)
            .or_insert_with(|| Arc::clone(&built))
            .clone();
        inner.order.retain(|&k| k != key);
        inner.order.push(key);
        while inner.entries.len() > self.capacity {
            let victim = inner.order.remove(0);
            inner.entries.remove(&victim);
            obs.counter("server.cache.evictions").inc();
        }
        drop(inner);
        (entry, false)
    }

    /// Looks up `key` and refreshes its recency; `None` on a miss (no
    /// counters touched — this is the internal probe).
    fn touch(&self, key: ContentKey) -> Option<Arc<Artifacts>> {
        let mut inner = self.inner.lock();
        let found = inner.entries.get(&key).cloned()?;
        inner.order.retain(|&k| k != key);
        inner.order.push(key);
        Some(found)
    }

    /// Number of circuits currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(name: &str) -> StateTable {
        scanft_fsm::benchmarks::build(name).unwrap()
    }

    #[test]
    fn second_lookup_hits_and_shares_the_bundle() {
        let cache = ArtifactCache::new(4);
        let lion = table("lion");
        let key = ContentKey::of_table(&lion);
        let (first, hit1) = cache.get_or_build(key, &lion);
        let (second, hit2) = cache.get_or_build(key, &lion);
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second), "hit returns the same bundle");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn analysis_is_lazy_and_then_shared() {
        let cache = ArtifactCache::new(4);
        let lion = table("lion");
        let (bundle, _) = cache.get_or_build(ContentKey::of_table(&lion), &lion);
        assert!(!bundle.has_analysis(), "simulate jobs never pay for this");
        let a = bundle.analysis();
        let b = bundle.analysis();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(bundle.has_analysis());
    }

    #[test]
    fn lru_evicts_the_coldest_key() {
        let cache = ArtifactCache::new(2);
        let (lion, bbtas, dk27) = (table("lion"), table("bbtas"), table("dk27"));
        let (k1, k2, k3) = (
            ContentKey::of_table(&lion),
            ContentKey::of_table(&bbtas),
            ContentKey::of_table(&dk27),
        );
        cache.get_or_build(k1, &lion);
        cache.get_or_build(k2, &bbtas);
        // Touch k1 so k2 is now the coldest, then overflow.
        cache.get_or_build(k1, &lion);
        cache.get_or_build(k3, &dk27);
        assert_eq!(cache.len(), 2);
        let (_, hit1) = cache.get_or_build(k1, &lion);
        assert!(hit1, "recently-touched key survives");
        let (_, hit2) = cache.get_or_build(k2, &bbtas);
        assert!(!hit2, "coldest key was evicted");
    }
}
