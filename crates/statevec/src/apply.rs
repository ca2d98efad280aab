//! Gate-application kernels over raw amplitude slices.
//!
//! The general path handles any `k`-qubit unitary via gather → dense
//! multiply → scatter (Eq. (1) of the paper generalized to `k` qubits).
//! Specialized paths cover the shapes that dominate real circuits —
//! single-qubit, diagonal, controlled, swap — mirroring what a production
//! GPU simulator specializes in its kernel zoo.
//!
//! ## Fast vs. generic forms
//!
//! Each structural kernel (dense, diagonal, permutation, controlled,
//! scale) has one hot implementation, plus a reference oracle for the
//! gather-based ones:
//!
//! * `apply_*_generic` — the allocation-per-call gather/multiply/scatter
//!   reference **oracle**. Never dispatches; kept in-tree so the fast
//!   paths have something to be differentially (and bitwise) tested
//!   against, and so the hotpath bench can measure the gap. Only these
//!   use `Matrix::mul_vec_into`.
//! * the hot form — [`apply_matrix_with`], [`apply_permutation_with`],
//!   [`apply_controlled_matrix_with`] (which take a
//!   [`crate::scratch::Scratch`] arena, so the steady state allocates
//!   nothing), [`apply_diag`] and [`apply_scale`]. Each is written once,
//!   over a range of the kernel's independent groups (an element range
//!   for the diagonal and scale passes). A call on a one-thread
//!   [`Pool`], or below [`PARALLEL_GROUP_CUTOFF`] groups
//!   ([`PARALLEL_ELEMENT_CUTOFF`] elements), runs the full range on the
//!   caller; otherwise the range is split into [`Pool::threads`]
//!   contiguous pieces run as pool items.
//! * `apply_matrix` / `apply_permutation` / `apply_controlled_matrix` —
//!   serial convenience wrappers using the calling thread's arena.
//!
//! Every fast path performs **the same floating-point operations in the
//! same order** as the generic oracle, and no group reads another
//! group's amplitudes, so fast and generic forms — and every split of a
//! range across threads — produce byte-identical amplitudes (pinned by
//! `tests/hotpath_exactness.rs` and `tests/determinism_threads.rs`).
//!
//! ## The dense multiply
//!
//! A dense kernel with `k = 1` or `k = 2` runs an unrolled kernel with
//! the matrix in registers. Every `k ≥ 3` kernel — whatever its qubit
//! layout — and the target sub-matrix of every controlled kernel run one
//! **register-blocked group multiply** (`DenseGroups`):
//!
//! 1. once per call, the matrix is written into a pooled scratch buffer
//!    as two arrays, real parts and imaginary parts, each transposed per
//!    block of 8 rows, so a block's column is 8 consecutive `f64`s;
//! 2. per group, the `2^k` amplitudes are gathered through the memoized
//!    offset table into split re/im windows;
//! 3. 8 output rows at a time are computed with 8 independent
//!    accumulators per part, then scattered back.
//!
//! The generic oracle accumulates each output row as one serial chain of
//! complex multiply-adds, so every add waits on the previous one. The
//! blocked form runs 8 such chains side by side, which fills the
//! floating-point pipeline and lets the compiler put the 8 lanes in SIMD
//! registers — but each chain is still exactly the oracle's chain for its
//! row: it starts from `0.0` and, in column order, computes
//! `re = (re + mr·xr) − mi·xi` and `im = (im + mr·xi) + mi·xr`, the
//! operations and order of `Complex64::mul_add`. Same IEEE operations on
//! the same operands in the same order give the same bits, so the blocked
//! multiply is byte-identical to the oracle with no tolerance and no
//! option. For the same reason it never uses FMA: a fused multiply-add
//! rounds once where the oracle rounds twice, which would change bits
//! (Rust never contracts `a * b + c` on its own).
//!
//! The body is written once. On x86_64 it is compiled a second time
//! inside a `#[target_feature(enable = "avx2")]` wrapper, chosen per call
//! with `is_x86_feature_detected!("avx2")`; elsewhere, or without AVX2,
//! the baseline compilation runs. This is a platform choice, not a knob:
//! AVX2 lanes perform the same scalar IEEE operations, so the output bits
//! do not depend on the host (pinned by the
//! `avx2_and_portable_dense_bodies_are_bit_identical` unit test).

use crate::pool::Pool;
use crate::scratch::{self, Scratch};
use atlas_circuit::{Gate, GateKind};
use atlas_qmath::{deposit_bits, extract_bits, insert_bit, insert_bits, Complex64, Matrix};
use std::cell::UnsafeCell;

/// Minimum number of independent groups before a kernel is split across
/// a pool's threads.
///
/// Rationale: a pool dispatch + barrier costs microseconds, while a
/// group of a small-`k` kernel costs tens of nanoseconds; at fewer than
/// ~2^10 groups the dispatch overhead rivals the whole serial kernel, so
/// small problems stay on one thread. The constant is deliberately
/// conservative — crossing it early only wastes microseconds, crossing
/// it late leaves real parallelism unused on big shards (2^20+
/// amplitudes), which sit far above the cutoff anyway.
pub const PARALLEL_GROUP_CUTOFF: usize = 1024;

/// Minimum element count before a purely element-wise pass (diagonal
/// multiply, whole-slice scale) is split across a pool's threads.
///
/// Much higher than [`PARALLEL_GROUP_CUTOFF`] because the unit of work
/// differs: a dense kernel's group costs `O(4^k)` complex MACs, while an
/// element-wise "group" is a single complex multiply (~1 ns). At 2^16
/// elements the serial pass costs ~100 µs, comfortably above the
/// dispatch overhead; below it, splitting is a net loss.
pub const PARALLEL_ELEMENT_CUTOFF: usize = 1 << 16;

/// Shared view of an amplitude slice through which the pieces of a split
/// kernel write disjoint indices concurrently (also used, with `T = f64`
/// or `T = Complex64`, to hand each piece its own window of one scratch
/// buffer).
///
/// Group `g` of a kernel over a duplicate-free qubit set touches exactly
/// the indices `insert_bits(g, sorted) | deposit_bits(x, qubits)` for
/// `x < 2^k`. Those sets are disjoint for distinct `g` (the non-kernel
/// bits differ) and partition the slice, so pieces owning disjoint group
/// ranges never touch the same amplitude.
struct AmpCell<'a, T = Complex64>(&'a [UnsafeCell<T>]);
// Group kernels check the duplicate-freedom this relies on with
// `assert_distinct`; `atlas-analyze` also proves it for every compiled
// op (`effect_of`).
// SAFETY: all access goes through `read`, `write` and `slice_mut`, whose
// contracts confine callers to indices their piece owns — pieces get
// disjoint ranges, and a kernel's groups partition the slice (see above).
unsafe impl<T: Send> Sync for AmpCell<'_, T> {}

impl<'a, T: Copy> AmpCell<'a, T> {
    fn new(amps: &'a mut [T]) -> Self {
        // SAFETY: T and UnsafeCell<T> have identical layout, and the
        // exclusive borrow is held for `'a`.
        let ptr = amps.as_mut_ptr() as *const UnsafeCell<T>;
        AmpCell(unsafe { std::slice::from_raw_parts(ptr, amps.len()) })
    }

    /// # Safety
    /// Caller must guarantee `idx` is not written concurrently.
    #[inline(always)]
    unsafe fn read(&self, idx: usize) -> T {
        // SAFETY: caller contract — no concurrent write to `idx`.
        unsafe { *self.0[idx].get() }
    }

    /// # Safety
    /// Caller must guarantee `idx` is not accessed concurrently.
    #[inline(always)]
    unsafe fn write(&self, idx: usize, v: T) {
        // SAFETY: caller contract — no concurrent access to `idx`.
        unsafe { *self.0[idx].get() = v }
    }

    /// # Safety
    /// Caller must guarantee no index in `lo..hi` is accessed through any
    /// other path while the returned slice lives.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        let cells = &self.0[lo..hi];
        // SAFETY: caller contract — exclusive access to `lo..hi`; the
        // layout is identical (see `new`).
        unsafe { std::slice::from_raw_parts_mut(UnsafeCell::raw_get(cells.as_ptr()), cells.len()) }
    }
}

/// Panics unless `qubits` are distinct (and below 64). Only then do a
/// kernel's groups touch disjoint amplitudes — the condition a split
/// over a pool relies on for soundness, not just for correctness.
fn assert_distinct(qubits: &[u32]) {
    let mask = qubits
        .iter()
        .fold(0u64, |m, &q| m | 1u64.checked_shl(q).unwrap_or(0));
    assert_eq!(
        mask.count_ones() as usize,
        qubits.len(),
        "kernel qubits must be distinct: {qubits:?}"
    );
}

/// Runs `body(lo, hi, window)` over the independent units `0..units`
/// (kernel groups, or elements of an element-wise pass): as one
/// full-range call on the caller below `cutoff` units or on a one-thread
/// pool, otherwise as [`Pool::threads`] contiguous pieces run as items of
/// `pool`. Each call gets its own `window_len`-element window of `buf`
/// as gather/output scratch, so pieces share no mutable state and the
/// split changes nothing but which thread computes which group.
fn run_ranges<T: Copy + Default + Send>(
    buf: &mut Vec<T>,
    pool: &Pool,
    units: usize,
    cutoff: usize,
    window_len: usize,
    body: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    let pieces = if units < cutoff { 1 } else { pool.threads() };
    buf.clear();
    buf.resize(pieces * window_len, T::default());
    if pieces == 1 {
        return body(0, units, buf);
    }
    let span = units.div_ceil(pieces);
    let windows = AmpCell::new(buf);
    pool.run(pieces, &|i| {
        // SAFETY: piece `i` is the only user of window `i`.
        let window = unsafe { windows.slice_mut(i * window_len, (i + 1) * window_len) };
        body((i * span).min(units), ((i + 1) * span).min(units), window);
    });
}

/// [`run_ranges`] for kernels that need no scratch window.
fn run_plain(pool: &Pool, units: usize, cutoff: usize, body: impl Fn(usize, usize) + Sync) {
    run_ranges(
        &mut Vec::<()>::new(),
        pool,
        units,
        cutoff,
        0,
        |lo, hi, _| body(lo, hi),
    );
}

/// Applies an arbitrary unitary `m` over `qubits` (matrix bit `t` =
/// `qubits[t]`), dispatching to the cheapest layout-matched kernel, using
/// the calling thread's scratch arena.
///
/// Complexity: `O(4^k)` complex MACs per group × `2^{n-k}` groups, i.e.
/// `2^{n+k}` MACs total.
pub fn apply_matrix(amps: &mut [Complex64], qubits: &[u32], m: &Matrix) {
    scratch::with_thread(|s| apply_matrix_with(s, amps, qubits, m, &Pool::SERIAL));
}

/// The generic gather → dense multiply → scatter oracle for
/// [`apply_matrix`]: allocates its buffers per call and never takes a
/// specialized path. The fast forms are bitwise-tested against this.
pub fn apply_matrix_generic(amps: &mut [Complex64], qubits: &[u32], m: &Matrix) {
    let k = qubits.len();
    assert_eq!(m.rows(), 1 << k, "matrix size does not match qubit count");
    let mut sorted: Vec<u32> = qubits.to_vec();
    sorted.sort_unstable();
    let groups = amps.len() >> k;
    let dim = 1usize << k;
    let mut inbuf = vec![Complex64::ZERO; dim];
    let mut outbuf = vec![Complex64::ZERO; dim];
    // Precompute the in-group offsets once: offset[x] places the matrix
    // basis index x onto the amplitude index bits.
    let offsets: Vec<u64> = (0..dim as u64).map(|x| deposit_bits(x, qubits)).collect();
    for g in 0..groups as u64 {
        let base = insert_bits(g, &sorted);
        for (x, off) in offsets.iter().enumerate() {
            inbuf[x] = amps[(base | off) as usize];
        }
        m.mul_vec_into(&inbuf, &mut outbuf);
        for (x, off) in offsets.iter().enumerate() {
            amps[(base | off) as usize] = outbuf[x];
        }
    }
}

/// [`apply_matrix`] with an explicit scratch arena and pool — the
/// zero-allocation hot form. `k = 1` and `k = 2` run unrolled kernels;
/// every `k ≥ 3` runs the register-blocked group multiply (see the
/// module docs). Both are byte-identical to [`apply_matrix_generic`],
/// for every split of the groups over `pool`.
pub fn apply_matrix_with(
    scratch: &mut Scratch,
    amps: &mut [Complex64],
    qubits: &[u32],
    m: &Matrix,
    pool: &Pool,
) {
    apply_matrix_scaled_with(scratch, amps, qubits, m, None, pool);
}

/// [`apply_matrix_with`] for the matrix `m · scale` (entry-wise, each
/// entry rounded once as `m[(r, c)] * scale`), without materializing the
/// scaled matrix: the entries are scaled as the kernel packs them.
pub(crate) fn apply_matrix_scaled_with(
    scratch: &mut Scratch,
    amps: &mut [Complex64],
    qubits: &[u32],
    m: &Matrix,
    scale: Option<Complex64>,
    pool: &Pool,
) {
    let k = qubits.len();
    assert_eq!(m.rows(), 1 << k, "matrix size does not match qubit count");
    assert_distinct(qubits);
    let entry = |r: usize, c: usize| match scale {
        Some(s) => m[(r, c)] * s,
        None => m[(r, c)],
    };
    let groups = amps.len() >> k;
    let cell = &AmpCell::new(amps);
    let cutoff = PARALLEL_GROUP_CUTOFF;
    match k {
        1 => {
            let (q, mm) = (qubits[0], square(entry));
            return run_plain(pool, groups, cutoff, |lo, hi| {
                matrix_1q_range(cell, q, &mm, lo, hi)
            });
        }
        2 => {
            let (q0, q1, mm) = (qubits[0], qubits[1], square(entry));
            return run_plain(pool, groups, cutoff, |lo, hi| {
                matrix_2q_range(cell, q0, q1, &mm, lo, hi)
            });
        }
        _ => {}
    }
    let (bufs, tables) = scratch.split();
    let table = tables.lookup(qubits);
    let kernel = DenseGroups::pack(&mut bufs.split, &table.sorted, 0, &table.offsets, entry);
    kernel.run(&mut bufs.lanes, cell, pool, groups);
}

/// The `D × D` entries of a matrix as a register-friendly array.
fn square<const D: usize>(entry: impl Fn(usize, usize) -> Complex64) -> [[Complex64; D]; D] {
    std::array::from_fn(|r| std::array::from_fn(|c| entry(r, c)))
}

/// Unrolled dense single-qubit kernel over groups `lo..hi`,
/// byte-identical to the generic path: each output is accumulated
/// `ZERO → +m·a` in matrix-column order, exactly like
/// `Matrix::mul_vec_into`.
fn matrix_1q_range(cell: &AmpCell, q: u32, m: &[[Complex64; 2]; 2], lo: usize, hi: usize) {
    let [[m00, m01], [m10, m11]] = *m;
    if q == 0 {
        // SAFETY: group `g` is the pair `2g, 2g+1`; this piece owns
        // groups `lo..hi`.
        let pairs = unsafe { cell.slice_mut(2 * lo, 2 * hi) };
        for pair in pairs.chunks_exact_mut(2) {
            let (a0, a1) = (pair[0], pair[1]);
            pair[0] = m01.mul_add(a1, m00.mul_add(a0, Complex64::ZERO));
            pair[1] = m11.mul_add(a1, m10.mul_add(a0, Complex64::ZERO));
        }
        return;
    }
    let stride = 1usize << q;
    for g in lo as u64..hi as u64 {
        let i0 = insert_bit(g, q) as usize;
        let i1 = i0 | stride;
        // SAFETY: group `g` (indices `i0`, `i1`) is owned by this piece.
        unsafe {
            let (a0, a1) = (cell.read(i0), cell.read(i1));
            cell.write(i0, m01.mul_add(a1, m00.mul_add(a0, Complex64::ZERO)));
            cell.write(i1, m11.mul_add(a1, m10.mul_add(a0, Complex64::ZERO)));
        }
    }
}

/// Unrolled dense two-qubit kernel (matrix bit 0 = `q0`, bit 1 = `q1`)
/// over groups `lo..hi`, byte-identical to the generic path.
fn matrix_2q_range(
    cell: &AmpCell,
    q0: u32,
    q1: u32,
    mm: &[[Complex64; 4]; 4],
    lo: usize,
    hi: usize,
) {
    let s0 = 1usize << q0;
    let s1 = 1usize << q1;
    let sorted = if q0 < q1 { [q0, q1] } else { [q1, q0] };
    let mul = |row: &[Complex64; 4], a: &[Complex64; 4]| {
        row[3].mul_add(
            a[3],
            row[2].mul_add(
                a[2],
                row[1].mul_add(a[1], row[0].mul_add(a[0], Complex64::ZERO)),
            ),
        )
    };
    if q0 == 0 && q1 == 1 {
        // Contiguous group in memory order: no index math at all.
        // SAFETY: group `g` is the chunk `4g..4g+4`; this piece owns
        // groups `lo..hi`.
        let chunks = unsafe { cell.slice_mut(4 * lo, 4 * hi) };
        for chunk in chunks.chunks_exact_mut(4) {
            let a = [chunk[0], chunk[1], chunk[2], chunk[3]];
            for (r, row) in mm.iter().enumerate() {
                chunk[r] = mul(row, &a);
            }
        }
        return;
    }
    for g in lo as u64..hi as u64 {
        let b = insert_bits(g, &sorted) as usize;
        let idx = [b, b | s0, b | s1, b | s0 | s1];
        // SAFETY: group `g` (the four indices `idx`) is owned by this
        // piece.
        unsafe {
            let a = [
                cell.read(idx[0]),
                cell.read(idx[1]),
                cell.read(idx[2]),
                cell.read(idx[3]),
            ];
            for (r, row) in mm.iter().enumerate() {
                cell.write(idx[r], mul(row, &a));
            }
        }
    }
}

/// Output rows per register block of the dense group multiply: each
/// block keeps `BLOCK` independent accumulators per part, so the adds of
/// one row no longer wait on each other.
const BLOCK: usize = 8;

/// One dense kernel ready to run: group addressing plus the matrix in the
/// split block layout (see [`DenseGroups::pack`]).
struct DenseGroups<'a> {
    /// `insert_bits` positions: the sorted kernel (plus control) qubits.
    sorted: &'a [u32],
    /// Bits forced to 1 in every group base (controls; 0 for a plain
    /// dense kernel).
    cmask: u64,
    /// In-group offset of matrix basis index `x` (gate order).
    offsets: &'a [u64],
    /// Real parts, block-major (see [`DenseGroups::pack`]).
    re: &'a [f64],
    /// Imaginary parts, same layout as `re`.
    im: &'a [f64],
}

impl<'a> DenseGroups<'a> {
    /// Writes the `dim × dim` matrix `entry` into `split` — the real parts,
    /// then the imaginary parts — each transposed per block of
    /// `min(dim, BLOCK)` rows: block `b`, column `c`, row `j` of the block
    /// sits at `(b·dim + c)·rows + j`. The multiply then streams both
    /// arrays front to back.
    fn pack(
        split: &'a mut Vec<f64>,
        sorted: &'a [u32],
        cmask: u64,
        offsets: &'a [u64],
        entry: impl Fn(usize, usize) -> Complex64,
    ) -> Self {
        let dim = offsets.len();
        let rows = dim.min(BLOCK);
        split.clear();
        split.resize(2 * dim * dim, 0.0);
        let (re, im) = split.split_at_mut(dim * dim);
        for r in 0..dim {
            for c in 0..dim {
                let at = ((r / rows) * dim + c) * rows + r % rows;
                let v = entry(r, c);
                (re[at], im[at]) = (v.re, v.im);
            }
        }
        let (re, im) = (&*re, &*im);
        DenseGroups {
            sorted,
            cmask,
            offsets,
            re,
            im,
        }
    }

    /// Runs groups `0..groups` over `pool` (see [`run_ranges`]), each piece
    /// with its own split re/im gather window in `lanes`.
    fn run(&self, lanes: &mut Vec<f64>, cell: &AmpCell, pool: &Pool, groups: usize) {
        let avx2 = has_avx2();
        let dim = self.offsets.len();
        run_ranges(
            lanes,
            pool,
            groups,
            PARALLEL_GROUP_CUTOFF,
            2 * dim,
            |lo, hi, x| self.range(avx2, cell, x, lo, hi),
        );
    }

    /// Groups `lo..hi`, through the AVX2 compilation of the body when
    /// `avx2` (which the caller must have detected on this CPU).
    fn range(&self, avx2: bool, cell: &AmpCell, x: &mut [f64], lo: usize, hi: usize) {
        #[cfg(target_arch = "x86_64")]
        if avx2 {
            // SAFETY: `avx2` is only set when the CPU reports AVX2.
            return unsafe { self.range_avx2(cell, x, lo, hi) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = avx2;
        self.body(cell, x, lo, hi)
    }

    /// The same body compiled with AVX2 enabled: 4-lane vectors, the
    /// same scalar IEEE operations per lane, no FMA.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn range_avx2(&self, cell: &AmpCell, x: &mut [f64], lo: usize, hi: usize) {
        self.body(cell, x, lo, hi)
    }

    /// The body, inlined into each compilation: `R = BLOCK` rows per
    /// block, or the whole (smaller) matrix as one block.
    #[inline(always)]
    fn body(&self, cell: &AmpCell, x: &mut [f64], lo: usize, hi: usize) {
        match self.offsets.len() {
            1 => self.blocked::<1>(cell, x, lo, hi),
            2 => self.blocked::<2>(cell, x, lo, hi),
            4 => self.blocked::<4>(cell, x, lo, hi),
            _ => self.blocked::<BLOCK>(cell, x, lo, hi),
        }
    }

    /// Gathers each group into the split window `x` (real parts, then
    /// imaginary parts), computes `R` output rows at a time and scatters
    /// them. Each accumulator runs the generic oracle's operation
    /// sequence for its output row: from `0.0`, in column order,
    /// `re = (re + mr·xr) − mi·xi` and `im = (im + mr·xi) + mi·xr`.
    #[inline(always)]
    fn blocked<const R: usize>(&self, cell: &AmpCell, x: &mut [f64], lo: usize, hi: usize) {
        let dim = self.offsets.len();
        let (xr, xi) = x.split_at_mut(dim);
        let (re_blocks, _) = self.re.as_chunks::<R>();
        let (im_blocks, _) = self.im.as_chunks::<R>();
        for g in lo as u64..hi as u64 {
            let base = insert_bits(g, self.sorted) | self.cmask;
            for ((r, i), off) in xr.iter_mut().zip(xi.iter_mut()).zip(self.offsets) {
                // SAFETY: group `g` is owned by this piece (disjoint groups
                // touch disjoint indices, see `AmpCell`).
                let a = unsafe { cell.read((base | off) as usize) };
                (*r, *i) = (a.re, a.im);
            }
            let blocks = re_blocks.chunks_exact(dim).zip(im_blocks.chunks_exact(dim));
            for ((mre, mim), outs) in blocks.zip(self.offsets.chunks_exact(R)) {
                let (mut re, mut im) = ([0.0f64; R], [0.0f64; R]);
                for ((mr, mi), (&a, &b)) in mre.iter().zip(mim).zip(xr.iter().zip(xi.iter())) {
                    for j in 0..R {
                        re[j] = (re[j] + mr[j] * a) - mi[j] * b;
                        im[j] = (im[j] + mr[j] * b) + mi[j] * a;
                    }
                }
                for (j, off) in outs.iter().enumerate() {
                    // SAFETY: as above; the inputs were gathered into `x`.
                    unsafe { cell.write((base | off) as usize, Complex64::new(re[j], im[j])) };
                }
            }
        }
    }
}

/// `true` when the blocked dense multiply may run its AVX2 compilation
/// on this CPU. A platform choice, not a knob: both compilations produce
/// the same bits.
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Applies a general single-qubit unitary to qubit `q`.
///
/// Complexity: one fused 2×2 multiply per amplitude pair (`2^{n-1}`
/// pairs), strided so the pair partner sits `2^q` elements away.
pub fn apply_1q(amps: &mut [Complex64], q: u32, m: &Matrix) {
    let (u00, u01, u10, u11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
    let half = amps.len() / 2;
    let stride = 1usize << q;
    for i in 0..half as u64 {
        let i0 = insert_bit(i, q) as usize;
        let i1 = i0 + stride;
        let a0 = amps[i0];
        let a1 = amps[i1];
        amps[i0] = u00.mul_add(a0, u01 * a1);
        amps[i1] = u10.mul_add(a0, u11 * a1);
    }
}

/// Applies a diagonal single-qubit gate `diag(d0, d1)` to qubit `q`.
pub fn apply_1q_diag(amps: &mut [Complex64], q: u32, d0: Complex64, d1: Complex64) {
    let bit = 1usize << q;
    let trivial0 = d0.approx_eq(Complex64::ONE, 0.0);
    for (i, a) in amps.iter_mut().enumerate() {
        if i & bit != 0 {
            *a *= d1;
        } else if !trivial0 {
            *a *= d0;
        }
    }
}

/// Applies a general diagonal gate over `qubits`: amplitude `i` is scaled
/// by `diag[extract_bits(i, qubits)]`, split over `pool` above
/// [`PARALLEL_ELEMENT_CUTOFF`] elements.
///
/// Complexity: one complex multiply per amplitude, a single sequential
/// pass — memory-bandwidth bound, no gather/scatter.
pub fn apply_diag(amps: &mut [Complex64], qubits: &[u32], diag: &[Complex64], pool: &Pool) {
    assert_eq!(diag.len(), 1 << qubits.len());
    let len = amps.len();
    let cell = &AmpCell::new(amps);
    run_plain(pool, len, PARALLEL_ELEMENT_CUTOFF, |lo, hi| {
        // SAFETY: elements `lo..hi` are owned by this piece.
        let part = unsafe { cell.slice_mut(lo, hi) };
        for (i, a) in (lo..hi).zip(part) {
            *a *= diag[extract_bits(i as u64, qubits) as usize];
        }
    });
}

/// Multiplies every amplitude by `factor`, split over `pool` above
/// [`PARALLEL_ELEMENT_CUTOFF`] elements.
pub fn apply_scale(amps: &mut [Complex64], factor: Complex64, pool: &Pool) {
    let len = amps.len();
    let cell = &AmpCell::new(amps);
    run_plain(pool, len, PARALLEL_ELEMENT_CUTOFF, |lo, hi| {
        // SAFETY: elements `lo..hi` are owned by this piece.
        for a in unsafe { cell.slice_mut(lo, hi) } {
            *a *= factor;
        }
    });
}

/// Applies a single-qubit unitary `u` on `target`, controlled on all bits of
/// `control_mask` being 1.
pub fn apply_controlled_1q(amps: &mut [Complex64], control_mask: u64, target: u32, u: &Matrix) {
    let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
    let tbit = 1usize << target;
    let cmask = control_mask as usize;
    for i0 in 0..amps.len() {
        if i0 & cmask == cmask && i0 & tbit == 0 {
            let i1 = i0 | tbit;
            let a0 = amps[i0];
            let a1 = amps[i1];
            amps[i0] = u00.mul_add(a0, u01 * a1);
            amps[i1] = u10.mul_add(a0, u11 * a1);
        }
    }
}

/// Applies a `k`-qubit permutation-with-phases kernel over `qubits`: for
/// every group, `out[dst[x]] = phase[x] * in[x]` over the matrix basis
/// indices `x`. This is the fast path for X-like / CX-like / swap-like
/// fused kernels, replacing the dense `O(4^k)` multiply per group with an
/// `O(2^k)` gather + scaled scatter. Uses the calling thread's scratch
/// arena.
pub fn apply_permutation(amps: &mut [Complex64], qubits: &[u32], dst: &[u32], phase: &[Complex64]) {
    scratch::with_thread(|s| apply_permutation_with(s, amps, qubits, dst, phase, &Pool::SERIAL));
}

/// The allocation-per-call reference oracle for [`apply_permutation`].
pub fn apply_permutation_generic(
    amps: &mut [Complex64],
    qubits: &[u32],
    dst: &[u32],
    phase: &[Complex64],
) {
    let k = qubits.len();
    let dim = 1usize << k;
    assert_eq!(dst.len(), dim);
    assert_eq!(phase.len(), dim);
    let mut sorted: Vec<u32> = qubits.to_vec();
    sorted.sort_unstable();
    let offsets: Vec<u64> = (0..dim as u64).map(|x| deposit_bits(x, qubits)).collect();
    // out_off[x] is where basis index x lands after the permutation.
    let out_off: Vec<u64> = dst.iter().map(|&d| offsets[d as usize]).collect();
    let groups = amps.len() >> k;
    let mut inbuf = vec![Complex64::ZERO; dim];
    for g in 0..groups as u64 {
        let base = insert_bits(g, &sorted);
        for (x, off) in offsets.iter().enumerate() {
            inbuf[x] = amps[(base | off) as usize];
        }
        for (x, off) in out_off.iter().enumerate() {
            amps[(base | off) as usize] = phase[x] * inbuf[x];
        }
    }
}

/// [`apply_permutation`] with an explicit scratch arena and pool:
/// memoized offset tables, a reusable destination-offset buffer, and a
/// chunk-local path for contiguous low-window qubit sets. Byte-identical
/// to [`apply_permutation_generic`].
pub fn apply_permutation_with(
    scratch: &mut Scratch,
    amps: &mut [Complex64],
    qubits: &[u32],
    dst: &[u32],
    phase: &[Complex64],
    pool: &Pool,
) {
    let k = qubits.len();
    let dim = 1usize << k;
    assert_eq!(dst.len(), dim);
    assert_eq!(phase.len(), dim);
    assert_distinct(qubits);
    let groups = amps.len() >> k;
    let cell = &AmpCell::new(amps);
    let (bufs, tables) = scratch.split();
    let table = tables.lookup(qubits);
    bufs.out_off.clear();
    bufs.out_off
        .extend(dst.iter().map(|&d| table.offsets[d as usize]));
    let out_off = &bufs.out_off;
    let cutoff = PARALLEL_GROUP_CUTOFF;
    run_ranges(
        &mut bufs.windows,
        pool,
        groups,
        cutoff,
        dim,
        |lo, hi, inbuf| {
            if table.low_window {
                // Gather and scaled scatter both stay inside the contiguous
                // chunk.
                // SAFETY: groups `lo..hi` are the contiguous chunks
                // `lo·2^k..hi·2^k`, owned by this piece.
                let chunks = unsafe { cell.slice_mut(lo << k, hi << k) };
                for chunk in chunks.chunks_exact_mut(dim) {
                    for (x, &off) in table.offsets.iter().enumerate() {
                        inbuf[x] = chunk[off as usize];
                    }
                    for (x, &off) in out_off.iter().enumerate() {
                        chunk[off as usize] = phase[x] * inbuf[x];
                    }
                }
                return;
            }
            for g in lo as u64..hi as u64 {
                let base = insert_bits(g, &table.sorted);
                for (x, off) in table.offsets.iter().enumerate() {
                    // SAFETY: group `g` is owned by this piece.
                    inbuf[x] = unsafe { cell.read((base | off) as usize) };
                }
                for (x, off) in out_off.iter().enumerate() {
                    // SAFETY: as above.
                    unsafe { cell.write((base | off) as usize, phase[x] * inbuf[x]) };
                }
            }
        },
    );
}

/// Applies unitary `m` over `targets`, controlled on every qubit in
/// `controls` being 1. Groups whose control bits are not all set are
/// untouched, so the dense multiply runs on a `2^|controls|`-times smaller
/// subspace than the equivalent full `expand_to_kernel` matrix. Uses the
/// calling thread's scratch arena.
pub fn apply_controlled_matrix(
    amps: &mut [Complex64],
    controls: &[u32],
    targets: &[u32],
    m: &Matrix,
) {
    scratch::with_thread(|s| {
        apply_controlled_matrix_with(s, amps, controls, targets, m, &Pool::SERIAL)
    });
}

/// The allocation-per-call reference oracle for
/// [`apply_controlled_matrix`].
pub fn apply_controlled_matrix_generic(
    amps: &mut [Complex64],
    controls: &[u32],
    targets: &[u32],
    m: &Matrix,
) {
    let kt = targets.len();
    assert_eq!(m.rows(), 1 << kt, "matrix size does not match target count");
    let cmask: u64 = controls.iter().fold(0, |acc, &c| acc | (1u64 << c));
    // Iterate the subspace directly: groups enumerate the bits outside
    // controls ∪ targets, with every control bit forced to 1.
    let mut all: Vec<u32> = controls.iter().chain(targets).copied().collect();
    all.sort_unstable();
    let dim = 1usize << kt;
    let offsets: Vec<u64> = (0..dim as u64).map(|x| deposit_bits(x, targets)).collect();
    let groups = amps.len() >> all.len();
    let mut inbuf = vec![Complex64::ZERO; dim];
    let mut outbuf = vec![Complex64::ZERO; dim];
    for g in 0..groups as u64 {
        let base = insert_bits(g, &all) | cmask;
        for (x, off) in offsets.iter().enumerate() {
            inbuf[x] = amps[(base | off) as usize];
        }
        m.mul_vec_into(&inbuf, &mut outbuf);
        for (x, off) in offsets.iter().enumerate() {
            amps[(base | off) as usize] = outbuf[x];
        }
    }
}

/// [`apply_controlled_matrix`] with an explicit scratch arena and pool
/// (memoized target-offset table, pooled qubit buffer for the control ∪
/// target set). The target sub-matrix runs through the same blocked
/// group multiply as a dense `k ≥ 3` kernel, on the subspace where every
/// control bit is set. Byte-identical to
/// [`apply_controlled_matrix_generic`].
pub fn apply_controlled_matrix_with(
    scratch: &mut Scratch,
    amps: &mut [Complex64],
    controls: &[u32],
    targets: &[u32],
    m: &Matrix,
    pool: &Pool,
) {
    let kt = targets.len();
    assert_eq!(m.rows(), 1 << kt, "matrix size does not match target count");
    let cmask: u64 = controls.iter().fold(0, |acc, &c| acc | (1u64 << c));
    let mut all = scratch.take_qubits();
    all.extend(controls.iter().chain(targets).copied());
    all.sort_unstable();
    assert_distinct(&all);
    let groups = amps.len() >> all.len();
    let cell = &AmpCell::new(amps);
    let (bufs, tables) = scratch.split();
    let table = tables.lookup(targets);
    let entry = |r, c| m[(r, c)];
    let kernel = DenseGroups::pack(&mut bufs.split, &all, cmask, &table.offsets, entry);
    kernel.run(&mut bufs.lanes, cell, pool, groups);
    scratch.put_qubits(all);
}

/// Swaps qubits `a` and `b`.
pub fn apply_swap(amps: &mut [Complex64], a: u32, b: u32) {
    let abit = 1usize << a;
    let bbit = 1usize << b;
    for i in 0..amps.len() {
        // Visit each mismatched pair once: a-bit set, b-bit clear.
        if i & abit != 0 && i & bbit == 0 {
            amps.swap(i, (i & !abit) | bbit);
        }
    }
}

/// Extracts the diagonal of a matrix if it is diagonal; `None` otherwise.
pub(crate) fn diagonal_of(m: &Matrix) -> Option<Vec<Complex64>> {
    if !m.is_diagonal(1e-14) {
        return None;
    }
    Some((0..m.rows()).map(|i| m[(i, i)]).collect())
}

/// Applies a gate, dispatching to the most specialized kernel available.
pub fn apply_gate(amps: &mut [Complex64], gate: &Gate) {
    use GateKind::*;
    let qs = gate.qubits.as_slice();
    match gate.kind {
        Swap => apply_swap(amps, qs[0], qs[1]),
        CX => apply_controlled_1q(amps, 1 << qs[0], qs[1], &X.matrix()),
        CY => apply_controlled_1q(amps, 1 << qs[0], qs[1], &Y.matrix()),
        CH => apply_controlled_1q(amps, 1 << qs[0], qs[1], &H.matrix()),
        CRX(t) => apply_controlled_1q(amps, 1 << qs[0], qs[1], &RX(t).matrix()),
        CRY(t) => apply_controlled_1q(amps, 1 << qs[0], qs[1], &RY(t).matrix()),
        CCX => apply_controlled_1q(amps, (1 << qs[0]) | (1 << qs[1]), qs[2], &X.matrix()),
        CSwap => {
            // Fredkin: swap conditioned on control — use the general path.
            apply_matrix(amps, qs, &gate.matrix());
        }
        _ => {
            let m = gate.matrix();
            if let Some(diag) = diagonal_of(&m) {
                if qs.len() == 1 {
                    apply_1q_diag(amps, qs[0], diag[0], diag[1]);
                } else {
                    apply_diag(amps, qs, &diag, &Pool::SERIAL);
                }
            } else if qs.len() == 1 {
                apply_1q(amps, qs[0], &m);
            } else {
                apply_matrix(amps, qs, &m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;
    use atlas_circuit::{Circuit, Gate, GateKind};

    fn run(c: &Circuit) -> StateVector {
        let mut sv = StateVector::zero_state(c.num_qubits());
        for g in c.gates() {
            apply_gate(sv.amplitudes_mut(), g);
        }
        sv
    }

    /// Applies every gate through the *generic oracle* path only.
    fn run_general(c: &Circuit) -> StateVector {
        let mut sv = StateVector::zero_state(c.num_qubits());
        for g in c.gates() {
            apply_matrix_generic(sv.amplitudes_mut(), g.qubits.as_slice(), &g.matrix());
        }
        sv
    }

    #[test]
    fn h_creates_superposition() {
        let mut c = Circuit::new(1);
        c.h(0);
        let sv = run(&c);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!(sv.amplitudes()[0].approx_eq(Complex64::real(s), 1e-12));
        assert!(sv.amplitudes()[1].approx_eq(Complex64::real(s), 1e-12));
    }

    #[test]
    fn bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let sv = run(&c);
        assert!((sv.probability(0) - 0.5).abs() < 1e-12);
        assert!((sv.probability(3) - 0.5).abs() < 1e-12);
        assert!(sv.probability(1) < 1e-12);
        assert!(sv.probability(2) < 1e-12);
    }

    #[test]
    fn ghz_on_five_qubits() {
        let c = atlas_circuit::generators::ghz(5);
        let sv = run(&c);
        assert!((sv.probability(0) - 0.5).abs() < 1e-12);
        assert!((sv.probability(31) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn specialized_paths_match_general_path() {
        use GateKind::*;
        let kinds: Vec<(GateKind, Vec<u32>)> = vec![
            (H, vec![2]),
            (X, vec![0]),
            (Z, vec![3]),
            (T, vec![1]),
            (RZ(0.77), vec![2]),
            (P(1.3), vec![0]),
            (RX(0.4), vec![1]),
            (CX, vec![0, 3]),
            (CX, vec![3, 1]),
            (CZ, vec![1, 2]),
            (CP(0.9), vec![2, 0]),
            (CRY(1.7), vec![0, 2]),
            (CRZ(0.33), vec![3, 0]),
            (Swap, vec![0, 3]),
            (RZZ(0.5), vec![1, 3]),
            (RXX(0.8), vec![0, 2]),
            (CCX, vec![0, 2, 3]),
            (CCZ, vec![1, 2, 0]),
            (CSwap, vec![2, 0, 3]),
        ];
        // Build one circuit that layers everything, preceded by H-walls so
        // the state is dense.
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.h(q);
            c.t(q);
        }
        for (k, qs) in kinds {
            c.push(Gate::new(k, &qs));
        }
        let fast = run(&c);
        let gen = run_general(&c);
        assert!(
            fast.approx_eq(&gen, 1e-10),
            "specialized dispatch diverged from general path: max diff {}",
            fast.max_abs_diff(&gen)
        );
        assert!(fast.is_normalized(1e-9));
    }

    #[test]
    fn gate_order_convention_control_is_bit0() {
        // CX with control=1, target=0 applied to |01⟩ (qubit0=1? no:
        // index 2 = qubit1 set) must flip qubit 0.
        let mut sv = StateVector::basis_state(2, 2); // qubit1 = 1
        let g = Gate::new(GateKind::CX, &[1, 0]);
        apply_gate(sv.amplitudes_mut(), &g);
        assert!((sv.probability(3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_matrix_respects_qubit_order() {
        // CRY with qubits given in (control, target) order where control >
        // target: both orderings of the qubit slice must agree with the
        // controlled semantics.
        let mut a = StateVector::basis_state(2, 2); // control (q1) = 1
        let g = Gate::new(GateKind::CRY(0.9), &[1, 0]);
        apply_matrix(a.amplitudes_mut(), g.qubits.as_slice(), &g.matrix());
        // control set → rotation applied to target.
        assert!(a.probability(2) < 1.0 - 1e-6);
        let mut b = StateVector::basis_state(2, 1); // control (q1) = 0
        apply_matrix(b.amplitudes_mut(), g.qubits.as_slice(), &g.matrix());
        assert!((b.probability(1) - 1.0).abs() < 1e-12); // untouched
    }

    #[test]
    fn apply_permutation_matches_matrix_for_cx() {
        // CX over (control=q2, target=q5) as an explicit permutation:
        // basis |c t⟩ → |c, t ⊕ c⟩, i.e. 0→0, 1→3, 2→2, 3→1 with control
        // on matrix bit 0.
        let g = Gate::new(GateKind::CX, &[2, 5]);
        let mut prep = Circuit::new(6);
        for q in 0..6 {
            prep.h(q);
            prep.rz(0.11 * (q + 1) as f64, q);
        }
        let mut a = run(&prep);
        let mut b = a.clone();
        apply_matrix(a.amplitudes_mut(), &[2, 5], &g.matrix());
        let dst = [0u32, 3, 2, 1];
        let phase = [Complex64::ONE; 4];
        apply_permutation(b.amplitudes_mut(), &[2, 5], &dst, &phase);
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn apply_controlled_matrix_matches_general_path() {
        let mut prep = Circuit::new(6);
        for q in 0..6 {
            prep.h(q);
            prep.t(q);
        }
        let mut a = run(&prep);
        let mut b = a.clone();
        // CCRY-style: RY(0.8) on q1, controlled on q4 and q0. Build the
        // doubly-controlled matrix by hand — identity unless bits 0 (q0)
        // and 1 (q4) of the kernel index are set — and compare against
        // the subspace-skipping controlled kernel.
        let ry = GateKind::RY(0.8).matrix();
        let mut ccry = atlas_qmath::Matrix::identity(8);
        for r in 0..2 {
            for c in 0..2 {
                ccry[(3 | (r << 2), 3 | (c << 2))] = ry[(r, c)];
            }
        }
        apply_matrix(a.amplitudes_mut(), &[0, 4, 1], &ccry);
        apply_controlled_matrix(b.amplitudes_mut(), &[0, 4], &[1], &ry);
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn dispatched_apply_matrix_is_bitwise_equal_to_generic() {
        // Unrolled k=1 (contiguous and strided), unrolled k=2 (both
        // orders), and the blocked k ≥ 3 multiply over an identity-order
        // window, a permuted low window and strided qubits.
        let mut prep = Circuit::new(8);
        for q in 0..8 {
            prep.h(q).rz(0.13 * (q + 1) as f64, q).t(q);
        }
        let base = run(&prep);
        let cases: Vec<Vec<u32>> = vec![
            vec![0],
            vec![5],
            vec![0, 1],
            vec![1, 0],
            vec![3, 6],
            vec![0, 1, 2],
            vec![2, 0, 1],
            vec![1, 4, 7],
            vec![6, 2, 4, 0],
        ];
        for qs in cases {
            let mut kc = Circuit::new(8);
            for (i, &q) in qs.iter().enumerate() {
                kc.h(q).rz(0.3 + i as f64, q);
                if i > 0 {
                    kc.cx(qs[i - 1], q);
                }
            }
            let m = crate::fused::fuse_gates(&qs, kc.gates());
            let mut fast = base.clone();
            let mut gen = base.clone();
            apply_matrix(fast.amplitudes_mut(), &qs, &m);
            apply_matrix_generic(gen.amplitudes_mut(), &qs, &m);
            for (a, b) in fast.amplitudes().iter().zip(gen.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "{qs:?}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "{qs:?}");
            }
        }
    }

    fn dense_prep(n: u32, angle: f64) -> StateVector {
        let mut prep = Circuit::new(n);
        for q in 0..n {
            prep.h(q).rz(angle * (q + 1) as f64, q);
        }
        run(&prep)
    }

    fn assert_bits_eq(a: &StateVector, b: &StateVector) {
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn split_ranges_match_sequential() {
        let n = 12;
        let mut a = dense_prep(n, 0.05);
        let mut b = a.clone();
        let mut work = Circuit::new(n);
        work.cx(3, 9).h(11).cp(0.7, 0, 10).swap(2, 8);
        for g in work.gates() {
            apply_gate(a.amplitudes_mut(), g);
        }
        crate::pool::with_pool(4, |pool| {
            let mut s = Scratch::new();
            for g in work.gates() {
                let qs = g.qubits.as_slice();
                apply_matrix_with(&mut s, b.amplitudes_mut(), qs, &g.matrix(), pool);
            }
        });
        assert!(
            a.approx_eq(&b, 1e-10),
            "split diverged: {}",
            a.max_abs_diff(&b)
        );
    }

    /// A workerless pool with a thread budget still splits the range, and
    /// runs the pieces in order on the caller: an uneven three-way split
    /// must land on the same bits as the full range.
    #[test]
    fn inline_pool_split_is_bit_exact() {
        let n = 13;
        let qs = [1u32, 6, 10];
        assert!(1usize << (n - 3) >= PARALLEL_GROUP_CUTOFF);
        let mut kc = Circuit::new(n);
        kc.h(1).cx(1, 6).ry(0.4, 10).cx(6, 10);
        let m = crate::fused::fuse_gates(&qs, kc.gates());
        let mut whole = dense_prep(n, 0.09);
        let mut split = whole.clone();
        let mut s = Scratch::new();
        apply_matrix_with(&mut s, whole.amplitudes_mut(), &qs, &m, &Pool::SERIAL);
        apply_matrix_with(&mut s, split.amplitudes_mut(), &qs, &m, &Pool::inline(3));
        assert_bits_eq(&whole, &split);
    }

    /// Regression test pinning the serial cutoff at its boundary: one group
    /// below [`PARALLEL_GROUP_CUTOFF`] stays whole, exactly at the cutoff
    /// the range splits, and both sides must be **bit-identical** to the
    /// full-range kernel.
    #[test]
    fn cutoff_boundary_is_bit_exact_on_both_sides() {
        assert!(PARALLEL_GROUP_CUTOFF.is_power_of_two());
        let k = 1u32; // single-qubit gate → groups = 2^(n-1)
        let cutoff_n = PARALLEL_GROUP_CUTOFF.trailing_zeros() + k;
        // groups = cutoff/2 (stays whole) then exactly = cutoff (the first
        // size that splits).
        for n in [cutoff_n - 1, cutoff_n] {
            let mut serial = dense_prep(n, 0.03);
            let mut split = serial.clone();
            let h = Gate::new(GateKind::H, &[3]);
            apply_matrix(serial.amplitudes_mut(), &[3], &h.matrix());
            crate::pool::with_pool(4, |pool| {
                let mut s = Scratch::new();
                apply_matrix_with(&mut s, split.amplitudes_mut(), &[3], &h.matrix(), pool);
            });
            let groups = split.amplitudes().len() >> k;
            assert_eq!(groups >= PARALLEL_GROUP_CUTOFF, n == cutoff_n);
            assert_bits_eq(&serial, &split);
        }
    }

    /// Overlapping groups would let two pieces of a split write the same
    /// amplitude, so a repeated qubit is rejected up front.
    #[test]
    #[should_panic(expected = "kernel qubits must be distinct")]
    fn repeated_kernel_qubit_is_rejected() {
        let mut sv = dense_prep(12, 0.1);
        let m = GateKind::CX.matrix();
        apply_matrix_with(
            &mut Scratch::new(),
            sv.amplitudes_mut(),
            &[4, 4],
            &m,
            &Pool::inline(2),
        );
    }

    /// Every hot kernel form, full range versus split over a 4-thread
    /// pool. `n = 16` puts the element-wise passes at
    /// [`PARALLEL_ELEMENT_CUTOFF`], so they split too.
    #[test]
    fn specialized_kernels_are_bit_exact_when_split() {
        let n = 16;
        assert!(1usize << n >= PARALLEL_ELEMENT_CUTOFF);
        let base = dense_prep(n, 0.07);
        let serial = &Pool::SERIAL;
        crate::pool::with_pool(4, |pool| {
            let mut s = Scratch::new();
            let mut both = |f: &mut dyn FnMut(&mut Scratch, &mut [Complex64], &Pool)| {
                let mut a = base.clone();
                let mut b = base.clone();
                f(&mut s, a.amplitudes_mut(), serial);
                f(&mut s, b.amplitudes_mut(), pool);
                assert_bits_eq(&a, &b);
            };
            // Diagonal.
            let diag: Vec<Complex64> = (0..4).map(|i| Complex64::cis(0.2 * i as f64)).collect();
            both(&mut |_, amps, p| apply_diag(amps, &[2, 9], &diag, p));
            // Permutation (CX as a permutation), strided and low-window.
            let dst = [0u32, 3, 2, 1];
            let phase = [Complex64::ONE; 4];
            for qs in [[4u32, 10], [1, 0]] {
                both(&mut |s, amps, p| apply_permutation_with(s, amps, &qs, &dst, &phase, p));
            }
            // Controlled, with one target and with three (the blocked
            // multiply's full 8-row blocks).
            let ry = GateKind::RY(0.8).matrix();
            both(&mut |s, amps, p| apply_controlled_matrix_with(s, amps, &[1], &[8], &ry, p));
            let targets = [8u32, 3, 12];
            let mut tc = Circuit::new(n);
            tc.h(8).cx(8, 3).ry(0.4, 12).cx(3, 12);
            let m3 = crate::fused::fuse_gates(&targets, tc.gates());
            both(&mut |s, amps, p| apply_controlled_matrix_with(s, amps, &[1], &targets, &m3, p));
            // Dense: unrolled k ≤ 2 and the blocked multiply over each
            // qubit layout.
            for qs in [
                vec![0],
                vec![0, 1],
                vec![5, 2],
                vec![0, 1, 2],
                vec![2, 0, 1],
                vec![3, 7, 12],
            ] {
                let mut kc = Circuit::new(n);
                for &q in &qs {
                    kc.h(q).rz(0.3 + q as f64, q);
                }
                let m = crate::fused::fuse_gates(&qs, kc.gates());
                both(&mut |s, amps, p| apply_matrix_with(s, amps, &qs, &m, p));
            }
            // Scale.
            both(&mut |_, amps, p| apply_scale(amps, Complex64::cis(0.4), p));
        });
    }

    /// The AVX2 compilation of the blocked dense body must give the same
    /// bits as the portable one, so output never depends on the host.
    #[test]
    fn avx2_and_portable_dense_bodies_are_bit_identical() {
        if !has_avx2() {
            eprintln!("skipped: this CPU has no AVX2");
            return;
        }
        #[cfg(target_arch = "x86_64")]
        for k in 3..=7usize {
            let n = k as u32 + 3;
            let qs: Vec<u32> = (0..k as u32).map(|i| (2 * i + 1) % n).collect();
            let mut kc = Circuit::new(n);
            for (i, &q) in qs.iter().enumerate() {
                kc.h(q).rz(0.21 + 0.7 * i as f64, q).ry(0.05 * k as f64, q);
                if i > 0 {
                    kc.cx(qs[i - 1], q);
                }
            }
            let m = crate::fused::fuse_gates(&qs, kc.gates());
            let mut portable = dense_prep(n, 0.11 * k as f64);
            let mut avx2 = portable.clone();
            let mut s = Scratch::new();
            let (bufs, tables) = s.split();
            let table = tables.lookup(&qs);
            let entry = |r, c| m[(r, c)];
            let kernel =
                DenseGroups::pack(&mut bufs.split, &table.sorted, 0, &table.offsets, entry);
            let groups = portable.amplitudes().len() >> k;
            let mut x = vec![0.0; 2 << k];
            let cell = AmpCell::new(portable.amplitudes_mut());
            kernel.body(&cell, &mut x, 0, groups);
            let cell = AmpCell::new(avx2.amplitudes_mut());
            // SAFETY: `has_avx2()` held above.
            unsafe { kernel.range_avx2(&cell, &mut x, 0, groups) };
            assert_bits_eq(&portable, &avx2);
        }
    }

    #[test]
    fn norm_preserved_across_families() {
        for fam in atlas_circuit::generators::Family::table1() {
            let c = fam.generate(6);
            let sv = run(&c);
            assert!(sv.is_normalized(1e-8), "{fam:?} broke normalization");
        }
    }
}
