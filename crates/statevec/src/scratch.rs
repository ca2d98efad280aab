//! Reusable per-worker scratch arena for the gate-application hot path.
//!
//! Every generic apply kernel needs the same transient state per call: a
//! gather buffer, an output buffer, and the group-offset table derived
//! from the gate's qubit set (`deposit_bits` over every in-group basis
//! index). Allocating those per gate is pure overhead on the `2^n` sweep —
//! a steady-state `EXECUTE` applies thousands of kernels whose qubit sets
//! repeat stage after stage. A [`Scratch`] owns all of it:
//!
//! * **buffers** (`windows`/`out_off`/`split`/`lanes`) are `clear()` +
//!   `resize()`d per call, which never reallocates once capacity covers
//!   the largest kernel seen (kernels are ≤ 7 qubits, so a piece's gather
//!   window takes ≤ 256 entries, times the pool's thread count when a
//!   kernel is split, and the split dense matrix ≤ 2·4^7 `f64`s);
//! * **offset tables** are memoized per distinct qubit list in a map, so
//!   the `deposit_bits` scatter arithmetic runs once per (qubit set) and
//!   the table also records the layout fact the permutation kernel
//!   needs (contiguous low window?);
//! * **pools** hand out owned buffers (`take_*`/`put_*`) for callers that
//!   nest scratch-using kernels (batched execution, scale folding) and
//!   therefore cannot share the flat buffers.
//!
//! The executor threads one `Scratch` per worker thread through the shard
//! programs via [`with_thread`] (a kernel split over the pool uses only
//! the calling thread's arena): pool workers persist across stages (see
//! [`crate::pool`]), so after the first stage warms the arena, kernel
//! execution performs **zero heap allocations per gate** — asserted by the
//! counting-allocator test in `tests/hotpath_alloc.rs`.

use atlas_qmath::{deposit_bits, Complex64};
use std::cell::RefCell;
use std::collections::HashMap;

/// Memoized per-qubit-set addressing: the sorted qubit list (for
/// `insert_bits` group enumeration), the in-group offsets (`deposit_bits`
/// of every basis index over the qubit list *in gate order*), and the
/// layout fact the permutation kernel branches on.
pub struct OffsetTable {
    /// The qubit list sorted ascending — the `insert_bits` argument.
    pub sorted: Vec<u32>,
    /// `offsets[x] = deposit_bits(x, qubits)` for `x < 2^k` (gate order).
    pub offsets: Vec<u64>,
    /// The qubit *set* is `{0, …, k-1}` (any order): groups are contiguous
    /// `2^k` chunks and every offset stays inside the chunk.
    pub low_window: bool,
}

/// Flat reusable buffers for the non-nesting apply kernels.
pub(crate) struct Bufs {
    /// One permutation-kernel gather window per piece of a kernel split
    /// over a pool, laid out back to back; a single window when the
    /// kernel runs whole. The calling thread owns the arena, so pool
    /// workers need no arena of their own.
    pub windows: Vec<Complex64>,
    /// Destination offsets for permutation kernels.
    pub out_off: Vec<u64>,
    /// The dense kernel's matrix in the split block layout (real parts,
    /// then imaginary parts), written once per call.
    pub split: Vec<f64>,
    /// One split re/im gather window per piece for the dense kernels,
    /// laid out like `windows`.
    pub lanes: Vec<f64>,
}

/// Memo of [`OffsetTable`]s with hit/miss/eviction counters.
///
/// Entries carry a last-use tick; at capacity the least-recently-used
/// entry is evicted, so a long-lived serve process cycling through more
/// than [`MEMO_MAX_ENTRIES`] distinct qubit sets keeps its hot tables
/// warm instead of rebuilding the whole memo forever. All three
/// counters are monotonic across evictions.
pub(crate) struct Tables {
    map: HashMap<Vec<u32>, (u64, OffsetTable)>,
    /// Home for tables too wide to be worth memoizing (`k` above
    /// [`MEMO_MAX_QUBITS`]): rebuilt per call, never inserted in `map`.
    transient: Option<OffsetTable>,
    /// Logical clock: bumped per lookup, stamped on the entry used.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Widest qubit list the memo retains. Fusion/shm kernels are ≤ 7 qubits,
/// so anything wider comes from ad-hoc public `apply_matrix` calls whose
/// `2^k`-entry tables are not worth pinning in thread-local storage.
const MEMO_MAX_QUBITS: usize = 11;

/// Hard cap on memoized qubit lists. A plan's distinct kernel qubit sets
/// number in the dozens; a long-lived process cycling through many
/// structurally different circuits must not grow the memo without bound,
/// so at capacity each new list evicts the least-recently-used entry
/// (cold sets churn through one slot; hot sets stay resident).
const MEMO_MAX_ENTRIES: usize = 256;

fn build_table(qubits: &[u32]) -> OffsetTable {
    let k = qubits.len();
    let mut sorted = qubits.to_vec();
    sorted.sort_unstable();
    let offsets: Vec<u64> = (0..1u64 << k).map(|x| deposit_bits(x, qubits)).collect();
    let low_window = sorted.iter().enumerate().all(|(i, &q)| q == i as u32);
    OffsetTable {
        sorted,
        offsets,
        low_window,
    }
}

impl Tables {
    /// Returns the table for `qubits`, building it on first sight. Memory
    /// is bounded: over-wide lists are served transiently and past
    /// [`MEMO_MAX_ENTRIES`] distinct lists each new one evicts the
    /// least-recently-used entry.
    pub(crate) fn lookup(&mut self, qubits: &[u32]) -> &OffsetTable {
        // Drop any previously served over-wide table — it must not stay
        // pinned in a thread-local arena past its one call.
        self.transient = None;
        if qubits.len() > MEMO_MAX_QUBITS {
            self.misses += 1;
            self.transient = Some(build_table(qubits));
            return self.transient.as_ref().expect("just set");
        }
        self.tick += 1;
        if let Some(entry) = self.map.get_mut(qubits) {
            // Hit: re-stamp and serve. No allocation on this path — the
            // zero-alloc steady state of `tests/hotpath_alloc.rs` rides
            // on it.
            self.hits += 1;
            entry.0 = self.tick;
        } else {
            self.misses += 1;
            if self.map.len() >= MEMO_MAX_ENTRIES {
                // Evict the coldest entry, not the whole memo: a server
                // cycling through > MEMO_MAX_ENTRIES distinct qubit sets
                // must not rebuild its hot tables forever. The O(cap)
                // scan runs only on at-capacity misses, which already
                // pay a table build.
                let cold = self
                    .map
                    .iter()
                    .min_by_key(|(_, (t, _))| *t)
                    .map(|(k, _)| k.clone())
                    .expect("memo at capacity is non-empty");
                self.map.remove(&cold);
                self.evictions += 1;
            }
            self.map
                .insert(qubits.to_vec(), (self.tick, build_table(qubits)));
        }
        &self.map.get(qubits).expect("table just ensured").1
    }
}

/// The per-worker scratch arena. See the module docs for the lifecycle.
pub struct Scratch {
    pub(crate) bufs: Bufs,
    pub(crate) tables: Tables,
    amp_pool: Vec<Vec<Complex64>>,
    offset_pool: Vec<Vec<u64>>,
    qubit_pool: Vec<Vec<u32>>,
}

impl Scratch {
    /// An empty arena. Buffers and tables grow on first use and are
    /// reused afterwards.
    pub fn new() -> Self {
        Scratch {
            bufs: Bufs {
                windows: Vec::new(),
                out_off: Vec::new(),
                split: Vec::new(),
                lanes: Vec::new(),
            },
            tables: Tables {
                map: HashMap::new(),
                transient: None,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            },
            amp_pool: Vec::new(),
            offset_pool: Vec::new(),
            qubit_pool: Vec::new(),
        }
    }

    /// Splits the arena into the flat buffers and the offset-table memo so
    /// a kernel can hold both mutably at once.
    pub(crate) fn split(&mut self) -> (&mut Bufs, &mut Tables) {
        (&mut self.bufs, &mut self.tables)
    }

    /// Offset-table cache hits so far (one per kernel application whose
    /// qubit set was seen before).
    pub fn table_hits(&self) -> u64 {
        self.tables.hits
    }

    /// Offset-table cache misses so far (one per *distinct* qubit list,
    /// plus one per rebuild of a previously evicted list).
    pub fn table_misses(&self) -> u64 {
        self.tables.misses
    }

    /// Offset-table LRU evictions so far (cold entries displaced once
    /// the memo reached capacity). Like hits and misses, monotonic for
    /// the lifetime of the arena — serve-mode cache-stats reports diff
    /// snapshots of all three.
    pub fn table_evictions(&self) -> u64 {
        self.tables.evictions
    }

    /// Takes an owned amplitude buffer from the pool (empty, capacity
    /// retained from previous use). Return it with [`Scratch::put_amps`].
    pub fn take_amps(&mut self) -> Vec<Complex64> {
        let mut v = self.amp_pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Returns an amplitude buffer to the pool.
    pub fn put_amps(&mut self, v: Vec<Complex64>) {
        self.amp_pool.push(v);
    }

    /// Takes an owned offset buffer from the pool.
    pub fn take_offsets(&mut self) -> Vec<u64> {
        let mut v = self.offset_pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Returns an offset buffer to the pool.
    pub fn put_offsets(&mut self, v: Vec<u64>) {
        self.offset_pool.push(v);
    }

    /// Takes an owned qubit-index buffer from the pool.
    pub fn take_qubits(&mut self) -> Vec<u32> {
        let mut v = self.qubit_pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Returns a qubit-index buffer to the pool.
    pub fn put_qubits(&mut self, v: Vec<u32>) {
        self.qubit_pool.push(v);
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch::new()
    }
}

thread_local! {
    /// One arena per thread. Pool workers live for a whole `EXECUTE`
    /// (see [`crate::pool::with_pool`]), so their arenas stay warm across
    /// every stage of a run — and across runs on the main thread.
    static TLS: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Runs `f` with this thread's scratch arena.
///
/// Re-entrant calls (an apply wrapper invoked while the arena is already
/// borrowed) fall back to a fresh throwaway arena instead of panicking —
/// correctness never depends on reuse, only steady-state allocation
/// behavior does. Crate-internal hot paths thread an explicit `&mut
/// Scratch` precisely so this fallback never triggers for them.
pub fn with_thread<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    TLS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut Scratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_memoize_by_exact_qubit_order() {
        let mut s = Scratch::new();
        let (_, tables) = s.split();
        let a = tables.lookup(&[2, 0]).offsets.clone();
        let b = tables.lookup(&[0, 2]).offsets.clone();
        assert_eq!(a, vec![0, 4, 1, 5]);
        assert_eq!(b, vec![0, 1, 4, 5]);
        assert_eq!(s.table_misses(), 2);
        let _ = s.split().1.lookup(&[2, 0]);
        assert_eq!(s.table_hits(), 1);
        assert_eq!(s.table_misses(), 2);
    }

    #[test]
    fn layout_flags_classify_windows() {
        let mut s = Scratch::new();
        let (_, tables) = s.split();
        assert!(tables.lookup(&[0, 1, 2]).low_window);
        assert!(tables.lookup(&[1, 0]).low_window);
        assert!(!tables.lookup(&[0, 2]).low_window);
    }

    #[test]
    fn memo_is_bounded() {
        let mut s = Scratch::new();
        let (_, tables) = s.split();
        // Over-wide lists are served transiently, not retained.
        let wide: Vec<u32> = (0..(MEMO_MAX_QUBITS as u32 + 1)).collect();
        let t = tables.lookup(&wide);
        assert!(t.low_window);
        assert!(tables.map.is_empty());
        // Exceeding the entry cap evicts per insert instead of growing
        // (distinct 2-qubit lists, all positions < 64).
        for i in 0..(MEMO_MAX_ENTRIES as u32 + 8) {
            let _ = tables.lookup(&[i % 32, 32 + i / 32]);
        }
        assert_eq!(tables.map.len(), MEMO_MAX_ENTRIES);
        assert_eq!(s.table_hits(), 0);
        assert_eq!(s.table_evictions(), 8);
    }

    #[test]
    fn memo_evicts_cold_entries_and_keeps_hot_ones() {
        // The serve-mode churn scenario: one qubit set stays hot while a
        // stream of distinct cold sets overflows the memo. The hot entry
        // must hit on every round — pre-fix, the memo was cleared
        // wholesale at capacity, rebuilding the hot table forever.
        let mut s = Scratch::new();
        let (_, tables) = s.split();
        let hot = [0u32, 1];
        tables.lookup(&hot);
        let rounds = (MEMO_MAX_ENTRIES as u32) * 2;
        for i in 0..rounds {
            let _ = tables.lookup(&[i % 32, 32 + i / 32]); // distinct cold set
            let _ = tables.lookup(&hot);
        }
        // One hit per round: the hot entry was never evicted.
        assert_eq!(s.table_hits(), rounds as u64);
        // Every cold set missed exactly once (plus the hot warm-up miss).
        assert_eq!(s.table_misses(), rounds as u64 + 1);
        // Evictions: inserts beyond capacity, all of them cold.
        assert_eq!(
            s.table_evictions(),
            rounds as u64 + 1 - MEMO_MAX_ENTRIES as u64
        );
        assert_eq!(s.table_hits() + s.table_misses(), 1 + 2 * rounds as u64);
    }

    #[test]
    fn pools_recycle_capacity() {
        let mut s = Scratch::new();
        let mut v = s.take_amps();
        v.resize(64, Complex64::ZERO);
        let ptr = v.as_ptr();
        s.put_amps(v);
        let v2 = s.take_amps();
        assert_eq!(v2.as_ptr(), ptr);
        assert!(v2.capacity() >= 64);
        s.put_amps(v2);
    }

    #[test]
    fn with_thread_is_reentrancy_safe() {
        with_thread(|outer| {
            outer.split().1.lookup(&[0]);
            with_thread(|inner| {
                // The inner arena is fresh, not the borrowed outer one.
                assert_eq!(inner.table_misses(), 0);
            });
        });
    }
}
