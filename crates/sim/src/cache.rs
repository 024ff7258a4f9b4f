//! A shared cache of good-machine (fault-free) chunk evaluations.
//!
//! Every fault-simulation pass begins the same way: evaluate the fault-free
//! circuit over each packed pattern chunk.  Passes over the same patterns
//! at the same width recompute identical good-machine images: a repeated
//! BIST sweep, or a sweep over the patterns of an earlier suite build.
//! A suite build simulates each pattern once, so it never replays its own
//! chunks; it only deposits them.
//!
//! [`GoodMachineCache`] memoizes those images.  A lookup is keyed by
//!
//! * a structural fingerprint of the circuit (gate kinds, fanins, primary
//!   inputs and outputs),
//! * the lane width `L` of the chunk, and
//! * the packed input chunk itself (its words and valid-pattern count),
//!
//! so any pass over the same circuit and the same pattern window — whichever
//! subsystem issues it — shares one evaluation.  Keys are content hashes,
//! verified against the stored inputs on every hit, so a hash collision
//! degrades to a miss instead of a wrong answer.  The cache is internally
//! synchronized; engines running on several worker threads may consult it
//! concurrently.

use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::levelized::CompiledCircuit;
use crate::packed::PackedBlock;
use lsiq_netlist::circuit::Circuit;
use lsiq_obs::Counter;

/// Registry mirrors of the per-cache accessor counters below: lookups
/// answered from a resident image, and lookups that evaluated the circuit.
/// Both are invariant across worker counts and lane schedules (the lookup
/// sequence is a property of the workload), which the determinism suite
/// relies on.
static CACHE_HITS: Counter = Counter::new("cache.good_machine.hits");
static CACHE_MISSES: Counter = Counter::new("cache.good_machine.misses");

/// A structural fingerprint of a circuit: gate kinds and fanins in id order,
/// plus the primary input/output lists.  Two circuits with the same
/// fingerprint simulate identically (up to the 64-bit hash), which is all
/// the cache needs — stored inputs are verified on every hit anyway.
pub fn circuit_fingerprint(circuit: &Circuit) -> u64 {
    let mut hasher = DefaultHasher::new();
    circuit.gate_count().hash(&mut hasher);
    for gate in circuit.gates() {
        gate.kind().hash(&mut hasher);
        for &fanin in gate.fanin() {
            fanin.index().hash(&mut hasher);
        }
        usize::MAX.hash(&mut hasher); // fanin-list terminator
    }
    for &input in circuit.primary_inputs() {
        input.index().hash(&mut hasher);
    }
    for &output in circuit.primary_outputs() {
        output.index().hash(&mut hasher);
    }
    hasher.finish()
}

/// One cached good-machine image: the evaluated per-gate chunks together
/// with the exact inputs they were computed from (for hit verification).
/// The image is shared, never copied: every lookup hands out another
/// reference to it.
struct CachedChunk<const L: usize> {
    inputs: Vec<PackedBlock<L>>,
    count: usize,
    words: Arc<Vec<PackedBlock<L>>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    circuit: u64,
    lanes: u32,
    inputs: u64,
}

/// A bounded, thread-safe memo of good-machine chunk evaluations, shared
/// across the suite builder and the BIST sweep (see the module docs).
///
/// ```
/// use lsiq_netlist::library;
/// use lsiq_sim::cache::GoodMachineCache;
/// use lsiq_sim::levelized::CompiledCircuit;
/// use lsiq_sim::pattern::{Pattern, PatternSet};
///
/// let circuit = library::c17();
/// let compiled = CompiledCircuit::new(&circuit);
/// let patterns: PatternSet = (0..40).map(|i| Pattern::from_integer(i, 5)).collect();
/// let (inputs, count) = patterns.pack_chunk::<1>(5, 0);
///
/// let cache = GoodMachineCache::new();
/// let first = cache.node_chunks(&compiled, &inputs, count);
/// let again = cache.node_chunks(&compiled, &inputs, count);
/// assert_eq!(first, again);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
pub struct GoodMachineCache {
    entries: Mutex<HashMap<CacheKey, Arc<dyn Any + Send + Sync>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Default bound on resident entries; at the reproduction's scale one entry
/// is `gate_count × L` words, so even 50k-gate chunks stay in the tens of
/// megabytes.
const DEFAULT_CAPACITY: usize = 256;

impl GoodMachineCache {
    /// Creates a cache with the default entry capacity.
    pub fn new() -> GoodMachineCache {
        GoodMachineCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a cache bounded to `capacity` resident chunk images.  When
    /// full, the next insertion evicts the whole generation (the access
    /// patterns here are whole-pass sweeps, for which LRU bookkeeping buys
    /// nothing over wholesale turnover).
    pub fn with_capacity(capacity: usize) -> GoodMachineCache {
        GoodMachineCache {
            entries: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to evaluate the circuit.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of resident chunk images.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Returns `true` if no chunk image is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident image (the counters survive).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// The good-machine image of one input chunk: one evaluated
    /// [`PackedBlock`] per gate, indexed by gate id — exactly
    /// [`CompiledCircuit::node_chunks`], memoized.
    ///
    /// `count` is the number of valid patterns in the chunk; it participates
    /// in the key so a full chunk and a partial prefix of it (whose packed
    /// words may coincide) stay distinct entries.
    pub fn node_chunks<const L: usize>(
        &self,
        compiled: &CompiledCircuit<'_>,
        inputs: &[PackedBlock<L>],
        count: usize,
    ) -> Arc<Vec<PackedBlock<L>>> {
        self.node_chunks_keyed(
            circuit_fingerprint(compiled.circuit()),
            compiled,
            inputs,
            count,
        )
    }

    /// Like [`node_chunks`](GoodMachineCache::node_chunks) with the circuit
    /// fingerprint precomputed — callers that sweep many chunks of one
    /// circuit hash its structure once instead of per chunk.
    pub fn node_chunks_keyed<const L: usize>(
        &self,
        fingerprint: u64,
        compiled: &CompiledCircuit<'_>,
        inputs: &[PackedBlock<L>],
        count: usize,
    ) -> Arc<Vec<PackedBlock<L>>> {
        let key = CacheKey {
            circuit: fingerprint,
            lanes: L as u32,
            inputs: hash_inputs(inputs, count),
        };
        if let Some(entry) = self.lock().get(&key) {
            if let Some(cached) = entry
                .clone()
                .downcast::<CachedChunk<L>>()
                .ok()
                .filter(|cached| cached.count == count && cached.inputs == inputs)
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                CACHE_HITS.incr();
                return Arc::clone(&cached.words);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        CACHE_MISSES.incr();
        let words = Arc::new(compiled.node_chunks(inputs));
        let entry = Arc::new(CachedChunk {
            inputs: inputs.to_vec(),
            count,
            words: Arc::clone(&words),
        });
        let mut entries = self.lock();
        if entries.len() >= self.capacity && !entries.contains_key(&key) {
            entries.clear();
        }
        entries.insert(key, entry);
        words
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<CacheKey, Arc<dyn Any + Send + Sync>>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Default for GoodMachineCache {
    fn default() -> GoodMachineCache {
        GoodMachineCache::new()
    }
}

impl std::fmt::Debug for GoodMachineCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoodMachineCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

fn hash_inputs<const L: usize>(inputs: &[PackedBlock<L>], count: usize) -> u64 {
    let mut hasher = DefaultHasher::new();
    count.hash(&mut hasher);
    inputs.len().hash(&mut hasher);
    for chunk in inputs {
        chunk.0.hash(&mut hasher);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Pattern, PatternSet};
    use lsiq_netlist::library;

    fn patterns(count: u64, width: usize) -> PatternSet {
        (0..count)
            .map(|i| Pattern::from_integer(i.wrapping_mul(0x9E37_79B9), width))
            .collect()
    }

    #[test]
    fn cached_and_uncached_images_are_identical() {
        let circuit = library::alu4();
        let compiled = CompiledCircuit::new(&circuit);
        let width = circuit.primary_inputs().len();
        let set = patterns(150, width);
        let cache = GoodMachineCache::new();
        for chunk in 0..set.chunk_count(1) {
            let (inputs, count) = set.pack_chunk::<1>(width, chunk);
            let cached = cache.node_chunks(&compiled, &inputs, count);
            let direct = compiled.node_chunks(&inputs);
            assert_eq!(*cached, direct, "chunk {chunk}");
        }
        assert_eq!(cache.misses(), set.chunk_count(1) as u64);
        assert_eq!(cache.hits(), 0);
        // The second pass is answered from the cache, with identical words.
        for chunk in 0..set.chunk_count(1) {
            let (inputs, count) = set.pack_chunk::<1>(width, chunk);
            let cached = cache.node_chunks(&compiled, &inputs, count);
            assert_eq!(*cached, compiled.node_chunks(&inputs), "chunk {chunk}");
        }
        assert_eq!(cache.hits(), set.chunk_count(1) as u64);
        assert_eq!(cache.misses(), set.chunk_count(1) as u64);
    }

    #[test]
    fn lookups_of_one_chunk_share_a_single_image() {
        let circuit = library::alu4();
        let compiled = CompiledCircuit::new(&circuit);
        let width = circuit.primary_inputs().len();
        let set = patterns(100, width);
        let (inputs, count) = set.pack_chunk::<4>(width, 0);
        let cache = GoodMachineCache::new();
        let miss = cache.node_chunks(&compiled, &inputs, count);
        let hit = cache.node_chunks(&compiled, &inputs, count);
        let again = cache.node_chunks(&compiled, &inputs, count);
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        // Neither the miss nor the hits copied the image.
        assert!(Arc::ptr_eq(&miss, &hit));
        assert!(Arc::ptr_eq(&hit, &again));
    }

    #[test]
    fn lane_widths_and_circuits_do_not_collide() {
        let alu = library::alu4();
        let c17 = library::c17();
        assert_ne!(circuit_fingerprint(&alu), circuit_fingerprint(&c17));
        let compiled = CompiledCircuit::new(&alu);
        let width = alu.primary_inputs().len();
        let set = patterns(64, width);
        let cache = GoodMachineCache::new();
        let (inputs1, count1) = set.pack_chunk::<1>(width, 0);
        let (inputs4, count4) = set.pack_chunk::<4>(width, 0);
        let narrow = cache.node_chunks(&compiled, &inputs1, count1);
        let wide = cache.node_chunks(&compiled, &inputs4, count4);
        assert_eq!(cache.misses(), 2, "different lane widths are distinct keys");
        for (gate, chunk) in wide.iter().enumerate() {
            assert_eq!(chunk.0[0], narrow[gate].0[0]);
        }
    }

    #[test]
    fn capacity_bound_evicts_rather_than_grows() {
        let circuit = library::c17();
        let compiled = CompiledCircuit::new(&circuit);
        let cache = GoodMachineCache::with_capacity(2);
        // A full splitmix64 mix per pattern so every 64-pattern chunk packs
        // differently (weaker mixers leave colliding chunks).
        let set: PatternSet = (0..64u64 * 5)
            .map(|i| {
                let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                Pattern::from_integer(z ^ (z >> 31), 5)
            })
            .collect();
        for chunk in 0..5 {
            let (inputs, count) = set.pack_chunk::<1>(5, chunk);
            let _ = cache.node_chunks(&compiled, &inputs, count);
        }
        assert!(cache.len() <= 2, "{} entries resident", cache.len());
        assert_eq!(cache.misses(), 5);
        cache.clear();
        assert!(cache.is_empty());
        assert!(format!("{cache:?}").contains("capacity"));
    }

    #[test]
    fn distinct_pattern_counts_are_distinct_entries() {
        // A full chunk and a shorter prefix can pack to the same words (the
        // tail patterns may be all-zero); the count keeps them apart.
        let circuit = library::c17();
        let compiled = CompiledCircuit::new(&circuit);
        let cache = GoodMachineCache::new();
        let zeros: PatternSet = (0..64).map(|_| Pattern::zeros(5)).collect();
        let (inputs, _) = zeros.pack_chunk::<1>(5, 0);
        let _ = cache.node_chunks(&compiled, &inputs, 64);
        let _ = cache.node_chunks(&compiled, &inputs, 10);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
    }
}
