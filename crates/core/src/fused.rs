//! Fused whole-transform task graphs (the tentpole of the barrier-free
//! pipeline).
//!
//! The phased pipeline runs an operator as scale → per-axis FFT →
//! convolution with an executor-level join after every stage — `D + 2`
//! stragglers' worth of idle time per apply. This module builds, once at
//! plan time, a single heterogeneous [`Dag`] whose nodes cover *every*
//! phase of an operator and whose edges are the actual data dependencies
//! between them, so one `run_dag_reuse` dispatch replaces all the joins:
//!
//! * **`Scale`** (forward) — one contiguous grid *slab* per node per
//!   channel, filled with the inverse-embed map (zero outside the image,
//!   `image·scale` inside) so no separate zeroing pass exists;
//! * **`Zero`** (adjoint) — one grid slab per node, zeroed across all
//!   channels;
//! * **`Fft`** — a run of consecutive SIMD tiles of one axis of one
//!   channel (the same tile/grain decomposition the phased
//!   [`crate::stage::FftOp`] shards, hoisted into the plan-owned
//!   [`TilePlan`]);
//! * **`Conv`/`Priv`/`Reduce`** — the adjoint scatter tasks with their
//!   Gray-code exclusion edges carried over verbatim, privatized tasks
//!   split into a dependency-free `Priv` convolve and a `Reduce` that
//!   inherits the edges (the task graph's one lowering,
//!   [`DagBuilder::add_task_graph`]);
//! * **`Gather`** (forward) — a chunk of one task's samples (so a chunk's
//!   kernel windows stay inside that task's halo box);
//! * **`Extract`** (adjoint) — a contiguous image chunk.
//!
//! ## Per-stage fragments
//!
//! Each stage operator contributes its node set through one `emit_*`
//! fragment function and its data dependencies through one `connect_*`
//! function; the whole-operator builders ([`build_forward`],
//! [`build_adjoint`], [`build_spread`]) are thin compositions of those
//! fragments instead of bespoke compilers. The spread graph
//! ([`build_spread`], run by every `SpreadOp` apply) is the adjoint's
//! zero + scatter fragments with nothing downstream — same node bodies,
//! same exclusion edges, so it stays bitwise-equal to the fused adjoint's
//! scatter.
//!
//! ## Edge construction
//!
//! Edges are exact at the node granularity (conservative only up to
//! chunking):
//!
//! * slab → first-axis FFT: a tile chunk depends on the slabs containing
//!   its elements (`elem / slab_len`, deduplicated with a stamp array);
//! * axis *k−1* → axis *k*: a chunk depends on the previous-axis chunks
//!   whose tiles wrote its elements, via
//!   [`FftNd::tile_of_element`]/[`FftNd::for_each_tile_element`] — O(grid)
//!   per axis, not all-to-all, wherever the layout permits fewer edges;
//! * conv → first-axis FFT and last-axis FFT → gather: a task's halo box
//!   (cell ± ⌈W⌉, wrapped) is walked as contiguous last-dimension runs and
//!   mapped to tile chunks;
//! * last-axis FFT → extract: each image chunk's wrapped grid positions
//!   map to last-axis tiles.
//!
//! In the adjoint, `Zero → Fft` edges are intentionally omitted: partition
//! cells tile the grid and every task's box contains its cell, so for any
//! element `e` the chain `Zero(slab(e)) → Conv(cell_task(e)) →
//! Fft(chunk(e))` already orders the zeroing before the first FFT read —
//! the covering argument in DESIGN.md §12.
//!
//! ## Why this preserves bitwise output
//!
//! Per-element arithmetic is schedule-independent everywhere except the
//! adjoint scatter, where the summation *order* on shared grid cells is
//! fixed by the Gray-code edges (adjacent tasks are totally ordered, and
//! the direction of each edge — not the schedule — decides who goes
//! first). Those edges are copied into the fused graph unchanged, every
//! node kind executes the identical code the phased path runs (the scatter
//! and gather bodies are shared with `crate::stage`), and the slab/chunk
//! decompositions partition their domains; so fused output is bitwise
//! equal to phased output at any thread count and ISA — pinned by
//! `tests/scheduler_consistency.rs`.

use crate::grid::{strides, Geometry};
use crate::tasks::Preprocess;
use nufft_fft::FftNd;
use nufft_math::Complex32;
use nufft_parallel::exec::{DagRunStats, TaskPhase};
use nufft_parallel::graph::{Dag, DagBuilder, NodeId};

/// Complex elements per 64-byte cache line (slab/chunk boundaries are
/// rounded to this so two nodes never split a line of contiguous output).
const LANE_ALIGN: usize = 64 / core::mem::size_of::<Complex32>();

/// Relative priority weight of one sample convolution vs one grid-element
/// touch (a `W`-wide window does ~(2W+1)^D multiply-adds).
const W_SAMPLE: u64 = 32;

/// Node kinds, packed into the tag's top byte.
pub const KIND_SCALE: u8 = 0;
/// Adjoint grid-zeroing slab (all channels).
pub const KIND_ZERO: u8 = 1;
/// A run of consecutive FFT tiles of one axis of one channel.
pub const KIND_FFT: u8 = 2;
/// A non-privatized adjoint scatter task (Gray-code exclusion edges).
pub const KIND_CONV: u8 = 3;
/// A privatized task's convolve into its private buffer (no deps).
pub const KIND_PRIV: u8 = 4;
/// A privatized task's reduction into the shared grids.
pub const KIND_REDUCE: u8 = 5;
/// A chunk of one task's samples gathered from the spectra.
pub const KIND_GATHER: u8 = 6;
/// A contiguous image chunk of the adjoint's final extract.
pub const KIND_EXTRACT: u8 = 7;
/// A four-step sub-FFT shard: one column group of a run of tiles on a
/// four-step axis (pass 1; reads the grid, writes the `fs` intermediate).
pub const KIND_FFT_SUB: u8 = 8;
/// A four-step transpose-and-combine shard: one k-block of a run of tiles
/// (pass 2; reads `fs`, writes the finished spectrum back to the grid).
pub const KIND_FFT_TRN: u8 = 9;

/// Packs `(kind, axis, channel, index)` into an opaque node tag.
pub fn tag(kind: u8, axis: usize, channel: usize, index: usize) -> u64 {
    debug_assert!(axis < 256 && channel < 65536 && index <= u32::MAX as usize);
    ((kind as u64) << 56) | ((axis as u64) << 48) | ((channel as u64) << 32) | index as u64
}

/// The kind byte of a node tag.
pub fn kind_of(tag: u64) -> u8 {
    (tag >> 56) as u8
}

/// The FFT axis of a node tag (meaningful for [`KIND_FFT`]).
pub fn axis_of(tag: u64) -> usize {
    ((tag >> 48) & 0xFF) as usize
}

/// The channel of a node tag.
pub fn channel_of(tag: u64) -> usize {
    ((tag >> 32) & 0xFFFF) as usize
}

/// The kind-specific index of a node tag (slab, chunk, or task id).
pub fn index_of(tag: u64) -> usize {
    (tag & 0xFFFF_FFFF) as usize
}

/// Short kind name for traces and diagnostics.
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_SCALE => "scale",
        KIND_ZERO => "zero",
        KIND_FFT => "fft",
        KIND_CONV => "conv",
        KIND_PRIV => "priv",
        KIND_REDUCE => "reduce",
        KIND_GATHER => "gather",
        KIND_EXTRACT => "extract",
        KIND_FFT_SUB => "fft_sub",
        KIND_FFT_TRN => "fft_trn",
        _ => "?",
    }
}

/// The phase index a node would occupy in the *phased* schedule — used by
/// `nufft-sim` to replay the same node set with barriers between phases
/// and measure what the fusion buys.
///
/// Forward: scale = 0, FFT axis k = 1+k, gather = 1+D.
/// Adjoint: zero = 0, conv/priv/reduce = 1, FFT axis k = 2+k,
/// extract = 2+D.
pub fn node_phase(tag: u64, adjoint: bool, ndim: usize) -> usize {
    match kind_of(tag) {
        KIND_SCALE | KIND_ZERO => 0,
        KIND_CONV | KIND_PRIV | KIND_REDUCE => 1,
        KIND_FFT | KIND_FFT_SUB | KIND_FFT_TRN => axis_of(tag) + if adjoint { 2 } else { 1 },
        KIND_GATHER => 1 + ndim,
        KIND_EXTRACT => 2 + ndim,
        _ => unreachable!("unknown node kind"),
    }
}

/// Plan-owned FFT tile decomposition: per axis, the tile count at the
/// plan's batch width and the chunk grain the executor shards — computed
/// once at construction instead of on every apply (and per channel in the
/// batched adjoint, as the phased path used to).
#[derive(Clone, Debug)]
pub(crate) struct TilePlan {
    /// Lines per tile (the SIMD batch width at plan-build time).
    pub(crate) b: usize,
    /// `parallel_for` chunk alignment for the phased path.
    pub(crate) align: usize,
    pub(crate) axes: Vec<AxisPlan>,
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct AxisPlan {
    /// Tiles of width `b` along this axis.
    pub(crate) tiles: usize,
    /// Tiles per executor chunk (and per fused FFT node).
    pub(crate) grain: usize,
    /// Four-step shard counts `(col_groups, k_blocks)` per tile chunk, or
    /// `None` for the recursive tile path. When set, a chunk splits into
    /// `col_groups` sub-FFT nodes followed by `k_blocks` combine nodes
    /// instead of one [`KIND_FFT`] node.
    pub(crate) shards: Option<(usize, usize)>,
}

impl TilePlan {
    pub(crate) fn new(fft: &FftNd, threads: usize) -> Self {
        let b = FftNd::batch_width();
        let align = (LANE_ALIGN / b).max(1);
        let axes = (0..fft.ndim())
            .map(|axis| {
                let tiles = fft.num_tiles(axis, b);
                // ~4 chunks per worker for stealable slack, capped so one
                // chunk never dominates an axis.
                let grain = (tiles / (4 * threads)).clamp(1, 64);
                let shards = if fft.axis_fourstep(axis) {
                    Some((fft.fs_col_groups(axis, b), fft.fs_k_blocks(axis)))
                } else {
                    None
                };
                AxisPlan { tiles, grain, shards }
            })
            .collect();
        TilePlan { b, align, axes }
    }

    /// Fused FFT tile chunks along `axis` (the [`KIND_FFT`] node count on a
    /// recursive axis; four-step axes split each chunk into shards).
    pub(crate) fn nodes(&self, axis: usize) -> usize {
        self.axes[axis].tiles.div_ceil(self.axes[axis].grain)
    }

    /// Nodes whose input is the axis's *untransformed* grid data: tile
    /// chunks on a recursive axis, chunk × column-group sub-FFT shards on a
    /// four-step one. Producers of the axis's elements wire edges to these.
    pub(crate) fn entry_shards(&self, axis: usize) -> usize {
        self.nodes(axis) * self.axes[axis].shards.map_or(1, |(colg, _)| colg)
    }

    /// Nodes that write the axis's *finished* spectrum: tile chunks on a
    /// recursive axis, chunk × k-block combine shards on a four-step one.
    /// Consumers of the axis's elements wire edges from these.
    pub(crate) fn writer_shards(&self, axis: usize) -> usize {
        self.nodes(axis) * self.axes[axis].shards.map_or(1, |(_, kbg)| kbg)
    }
}

/// The entry-shard id (see [`TilePlan::entry_shards`]) whose read set
/// contains `elem` on `axis`.
fn entry_shard_of(fft: &FftNd, tp: &TilePlan, axis: usize, elem: usize) -> usize {
    let ap = &tp.axes[axis];
    let chunk = fft.tile_of_element(axis, elem, tp.b) / ap.grain;
    match ap.shards {
        Some((colg, _)) => chunk * colg + fft.fs_col_group_of_element(axis, elem, tp.b),
        None => chunk,
    }
}

/// The writer-shard id (see [`TilePlan::writer_shards`]) that writes `elem`
/// on `axis`.
fn writer_shard_of(fft: &FftNd, tp: &TilePlan, axis: usize, elem: usize) -> usize {
    let ap = &tp.axes[axis];
    let chunk = fft.tile_of_element(axis, elem, tp.b) / ap.grain;
    match ap.shards {
        Some((_, kbg)) => chunk * kbg + fft.fs_kblock_of_element(axis, elem),
        None => chunk,
    }
}

/// A fused operator graph plus the lookup tables its nodes execute from.
pub(crate) struct FusedApply {
    pub(crate) dag: Dag,
    /// Gather chunk sample ranges `[lo, hi)` in internal order (forward
    /// graphs only; indexed by a `KIND_GATHER` node's tag index).
    pub(crate) chunks: Vec<(u32, u32)>,
    /// Grid elements per `Scale`/`Zero` slab.
    pub(crate) slab: usize,
    /// Image elements per `Extract` chunk (adjoint graphs only).
    pub(crate) img_chunk: usize,
}

/// Sizes a contiguous domain decomposition: ~8 pieces per worker, aligned
/// to cache lines, never zero.
fn piece_len(total: usize, threads: usize) -> usize {
    total.div_ceil((threads * 8).max(1)).next_multiple_of(LANE_ALIGN).max(LANE_ALIGN)
}

/// Stamp-array deduplicator: `hit` returns true the first time `id` is
/// seen since the last `next`.
struct Stamp {
    marks: Vec<u32>,
    cur: u32,
}

impl Stamp {
    fn new(n: usize) -> Self {
        Stamp { marks: vec![u32::MAX; n], cur: 0 }
    }

    fn next(&mut self) {
        self.cur = self.cur.checked_add(1).expect("stamp counter overflow");
    }

    fn hit(&mut self, id: usize) -> bool {
        if self.marks[id] != self.cur {
            self.marks[id] = self.cur;
            true
        } else {
            false
        }
    }
}

/// Walks a task's wrapped halo box as contiguous last-dimension runs,
/// calling `f(flat_start, len)` for each. `lo` is the unwrapped box origin
/// (may be negative), `len` its extent per dimension (≤ `m[d]` — capped by
/// the caller, so wrapped coordinates never self-overlap).
fn for_each_box_run<const D: usize>(
    m: &[usize; D],
    gs: &[usize; D],
    lo: &[i32; D],
    len: &[usize; D],
    mut f: impl FnMut(usize, usize),
) {
    let dl = D - 1;
    let mut off = [0usize; D];
    loop {
        let mut base = 0usize;
        for d in 0..dl {
            base += (lo[d] + off[d] as i32).rem_euclid(m[d] as i32) as usize * gs[d];
        }
        // Runs along the last dimension: at most two after wrapping.
        let start = lo[dl].rem_euclid(m[dl] as i32) as usize;
        let l = len[dl];
        if start + l <= m[dl] {
            f(base + start, l);
        } else {
            f(base + start, m[dl] - start);
            f(base, start + l - m[dl]);
        }
        // Odometer over the prefix dimensions.
        let mut d = dl;
        let mut carried = true;
        while d > 0 {
            d -= 1;
            off[d] += 1;
            if off[d] < len[d] {
                carried = false;
                break;
            }
            off[d] = 0;
        }
        if carried {
            return;
        }
    }
}

/// A task's halo box (cell ± ⌈W⌉), extents capped at the grid so wrapped
/// coordinates stay distinct.
fn task_box<const D: usize>(
    pre: &Preprocess<D>,
    m: &[usize; D],
    wc: usize,
    t: usize,
) -> ([i32; D], [usize; D]) {
    let idx: [usize; D] = pre.graph.unflatten(t).try_into().expect("dims match D");
    let (start, end) = pre.parts.cell(&idx);
    let mut lo = [0i32; D];
    let mut len = [0usize; D];
    for d in 0..D {
        lo[d] = start[d] as i32 - wc as i32;
        len[d] = (end[d] - start[d] + 2 * wc).min(m[d]);
    }
    (lo, len)
}

/// Approximate element count of FFT tile-chunk `[t0, t1)` on `axis` — the
/// node's priority weight.
fn fft_chunk_weight(fft: &FftNd, axis: usize, t0: usize, t1: usize, b: usize) -> u64 {
    let n = fft.shape()[axis];
    let lines = if fft.axis_stride(axis) == 1 { 1 } else { b };
    // ~log-factor work per element folded into a flat 4.
    (4 * n * lines * (t1 - t0)) as u64
}

/// Emits the FFT node run of one `(channel, axis)` pair, plus — on a
/// four-step axis — the intra-axis sub → combine edges. Returns the
/// `(entry, writer)` node bases: producers of the axis's elements wire to
/// `entry + entry_shard_of(..)`, consumers wire from
/// `writer + writer_shard_of(..)` (the same base on a recursive axis).
///
/// A four-step chunk's combine shards each read every block of the chunk's
/// `fs` region, and the chunk's sub-FFT shards together write exactly that
/// region — so the intra-chunk wiring is complete bipartite and no
/// cross-chunk edges exist (shards never straddle a tile chunk).
fn add_axis_nodes(
    builder: &mut DagBuilder,
    fft: &FftNd,
    tp: &TilePlan,
    axis: usize,
    c: usize,
) -> (NodeId, NodeId) {
    let ap = &tp.axes[axis];
    let chunks = tp.nodes(axis);
    let chunk_weight = |k: usize| {
        let t0 = k * ap.grain;
        let t1 = (t0 + ap.grain).min(ap.tiles);
        fft_chunk_weight(fft, axis, t0, t1, tp.b)
    };
    match ap.shards {
        None => {
            let base = builder.len() as NodeId;
            for k in 0..chunks {
                builder.add_node(tag(KIND_FFT, axis, c, k), chunk_weight(k));
            }
            (base, base)
        }
        Some((colg, kbg)) => {
            let sub = builder.len() as NodeId;
            for k in 0..chunks {
                let w = (chunk_weight(k) / colg as u64).max(1);
                for cg in 0..colg {
                    builder.add_node(tag(KIND_FFT_SUB, axis, c, k * colg + cg), w);
                }
            }
            let trn = builder.len() as NodeId;
            for k in 0..chunks {
                let w = (chunk_weight(k) / kbg as u64).max(1);
                for kb in 0..kbg {
                    builder.add_node(tag(KIND_FFT_TRN, axis, c, k * kbg + kb), w);
                }
            }
            for k in 0..chunks {
                for cg in 0..colg {
                    for kb in 0..kbg {
                        builder.add_edge(
                            sub + (k * colg + cg) as NodeId,
                            trn + (k * kbg + kb) as NodeId,
                        );
                    }
                }
            }
            (sub, trn)
        }
    }
}

/// Emits `writer → axis entry` edges for every channel: for each entry
/// shard of `axis` (tile chunk, or chunk × column group on a four-step
/// axis), the deduplicated set of writer ids under `writer_of(elem)` over
/// the shard's read set. `writer_node(c, id)` and `entry_node(c, shard)`
/// map to node ids.
#[allow(clippy::too_many_arguments)]
fn connect_axis_inputs(
    builder: &mut DagBuilder,
    fft: &FftNd,
    tp: &TilePlan,
    axis: usize,
    channels: usize,
    stamp: &mut Stamp,
    mut writer_of: impl FnMut(usize) -> usize,
    writer_node: impl Fn(usize, usize) -> NodeId,
    entry_node: impl Fn(usize, usize) -> NodeId,
) {
    let ap = &tp.axes[axis];
    let colg = ap.shards.map_or(1, |(colg, _)| colg);
    for chunk in 0..tp.nodes(axis) {
        let t0 = chunk * ap.grain;
        let t1 = (t0 + ap.grain).min(ap.tiles);
        for cg in 0..colg {
            stamp.next();
            let shard = chunk * colg + cg;
            for tile in t0..t1 {
                if ap.shards.is_some() {
                    fft.for_each_fs_col_element(axis, tile, cg, tp.b, |e| {
                        let w = writer_of(e);
                        if stamp.hit(w) {
                            for c in 0..channels {
                                builder.add_edge(writer_node(c, w), entry_node(c, shard));
                            }
                        }
                    });
                } else {
                    fft.for_each_tile_element(axis, tile, tp.b, |e| {
                        let w = writer_of(e);
                        if stamp.hit(w) {
                            for c in 0..channels {
                                builder.add_edge(writer_node(c, w), entry_node(c, shard));
                            }
                        }
                    });
                }
            }
        }
    }
}

/// Rewrites every node's scheduling priority to be **phase-major**:
/// `(phases_remaining << 48) | work`, so the ready queue pops the oldest
/// phase first and the heaviest node within a phase. This changes nothing
/// about readiness — a worker still takes newer-phase work whenever no
/// older-phase node is ready, so the graph stays barrier-free — but at low
/// parallelism it keeps the grid traversal streaming phase-by-phase
/// (axis-by-axis for the FFT) instead of ping-ponging a larger-than-cache
/// grid between phases. Weights are untouched: cost models
/// (`nufft_sim::DagCostModel`) keep reading real work estimates.
fn apply_phase_priorities(builder: &mut DagBuilder, adjoint: bool, ndim: usize) {
    let last_phase = (if adjoint { 2 + ndim } else { 1 + ndim }) as u64;
    const WORK_MASK: u64 = (1 << 48) - 1;
    for v in 0..builder.len() as u32 {
        let phase = node_phase(builder.node_tag(v), adjoint, ndim) as u64;
        let work = builder.node_weight(v).min(WORK_MASK);
        builder.set_priority(v, ((last_phase - phase) << 48) | work);
    }
}

// ---------------------------------------------------------------------------
// Per-stage DAG fragments
// ---------------------------------------------------------------------------

/// Scale-stage fragment (forward embed): one slab run per channel.
/// Returns the per-channel node bases.
fn emit_scale_fragment(
    builder: &mut DagBuilder,
    grid_len: usize,
    slab: usize,
    channels: usize,
) -> Vec<NodeId> {
    let nslabs = grid_len.div_ceil(slab);
    (0..channels)
        .map(|c| {
            let base = builder.len() as NodeId;
            for s in 0..nslabs {
                let elems = (grid_len - s * slab).min(slab);
                builder.add_node(tag(KIND_SCALE, 0, c, s), elems as u64);
            }
            base
        })
        .collect()
}

/// Zero-stage fragment (adjoint grid clear): one slab run, each node
/// zeroing every channel's slab. Returns the node base.
fn emit_zero_fragment(
    builder: &mut DagBuilder,
    grid_len: usize,
    slab: usize,
    channels: usize,
) -> NodeId {
    let nslabs = grid_len.div_ceil(slab);
    let base = builder.len() as NodeId;
    for s in 0..nslabs {
        let elems = (grid_len - s * slab).min(slab);
        builder.add_node(tag(KIND_ZERO, 0, 0, s), (elems * channels) as u64);
    }
    base
}

/// Spread-stage fragment (adjoint scatter): the task graph lowered by
/// [`DagBuilder::add_task_graph`] — privatized tasks as a `(Priv → Reduce)`
/// pair, others as a single `Conv` node, plus the Gray-code exclusion edges
/// **verbatim**, which fix the per-cell summation order and hence bitwise
/// output. Returns `conv_shared[t]`, the node carrying task `t`'s
/// shared-grid writes (and hence its ordering edges).
fn emit_spread_fragment<const D: usize>(
    builder: &mut DagBuilder,
    pre: &Preprocess<D>,
    channels: usize,
) -> Vec<NodeId> {
    builder.add_task_graph(
        &pre.graph,
        |t, phase| {
            let kind = match phase {
                TaskPhase::Normal => KIND_CONV,
                TaskPhase::PrivateConvolve => KIND_PRIV,
                TaskPhase::Reduce => KIND_REDUCE,
            };
            tag(kind, 0, 0, t)
        },
        |t, phase| match (phase, pre.regions[t]) {
            (TaskPhase::Reduce, Some(region)) => (region.len() * channels) as u64,
            _ => pre.ranges[t].len() as u64 * W_SAMPLE,
        },
    )
}

/// FFT-stage fragment: per-channel, per-axis node runs (with the
/// four-step sub → combine intra-axis edges). Returns the
/// `(entry, writer)` bases indexed `[channel][axis]`.
fn emit_fft_fragment(
    builder: &mut DagBuilder,
    fft: &FftNd,
    tp: &TilePlan,
    ndim: usize,
    channels: usize,
) -> Vec<Vec<(NodeId, NodeId)>> {
    (0..channels)
        .map(|c| (0..ndim).map(|axis| add_axis_nodes(builder, fft, tp, axis, c)).collect())
        .collect()
}

/// Interp-stage fragment (forward gather): chunks of one task's samples,
/// shared across channels. Chunk boundaries land on cache-line multiples
/// (`order` is near-identity within a task) and never cross a task
/// boundary, so a chunk's windows stay inside its task's halo box.
/// Returns `(node base, chunk sample ranges, chunk ids per task)`.
fn emit_interp_fragment<const D: usize>(
    builder: &mut DagBuilder,
    pre: &Preprocess<D>,
    gather_grain: usize,
) -> (NodeId, Vec<(u32, u32)>, Vec<core::ops::Range<usize>>) {
    let base = builder.len() as NodeId;
    let mut chunks: Vec<(u32, u32)> = Vec::new();
    let mut task_chunks: Vec<core::ops::Range<usize>> = Vec::with_capacity(pre.graph.len());
    for r in &pre.ranges {
        let first = chunks.len();
        let mut lo = r.start;
        while lo < r.end {
            let hi = (lo + gather_grain).next_multiple_of(LANE_ALIGN).min(r.end);
            builder.add_node(tag(KIND_GATHER, 0, 0, chunks.len()), (hi - lo) as u64 * W_SAMPLE);
            chunks.push((lo as u32, hi as u32));
            lo = hi;
        }
        task_chunks.push(first..chunks.len());
    }
    (base, chunks, task_chunks)
}

/// Deconvolve-stage fragment (adjoint extract): per-channel contiguous
/// image chunks. Returns the per-channel node bases.
fn emit_extract_fragment(
    builder: &mut DagBuilder,
    image_len: usize,
    img_chunk: usize,
    channels: usize,
) -> Vec<NodeId> {
    let nchunks = image_len.div_ceil(img_chunk);
    (0..channels)
        .map(|c| {
            let base = builder.len() as NodeId;
            for k in 0..nchunks {
                let elems = (image_len - k * img_chunk).min(img_chunk);
                builder.add_node(tag(KIND_EXTRACT, 0, c, k), elems as u64);
            }
            base
        })
        .collect()
}

/// The downstream-FFT wiring of [`connect_spread_edges`]: which axis-0
/// entry nodes each scatter task must precede (absent in the spread-only
/// graph).
struct Axis0Wiring<'a> {
    fft: &'a FftNd,
    tp: &'a TilePlan,
    fft_base: &'a [Vec<(NodeId, NodeId)>],
    channels: usize,
}

/// Wires the spread fragment's inputs and outputs in one halo-box pass per
/// task: `zero slab → conv` (a task reads-modifies-writes its box) and —
/// when an FFT stage follows — `conv → axis-0 entry` for the chunks
/// covering the box. `Zero → Fft` is transitively covered (see module
/// docs).
#[allow(clippy::too_many_arguments)]
fn connect_spread_edges<const D: usize>(
    builder: &mut DagBuilder,
    m: &[usize; D],
    pre: &Preprocess<D>,
    wc: usize,
    zero_base: NodeId,
    conv_shared: &[NodeId],
    slab: usize,
    fft_out: Option<Axis0Wiring<'_>>,
) {
    let nslabs = m.iter().product::<usize>().div_ceil(slab);
    let gs = strides(m);
    let mut slab_stamp = Stamp::new(nslabs);
    let mut chunk_stamp = fft_out.as_ref().map(|f| Stamp::new(f.tp.entry_shards(0)));
    let mut dep_chunks: Vec<u32> = Vec::new();
    for t in 0..pre.graph.len() {
        slab_stamp.next();
        if let Some(cs) = chunk_stamp.as_mut() {
            cs.next();
        }
        dep_chunks.clear();
        let (lo, len) = task_box(pre, m, wc, t);
        for_each_box_run(m, &gs, &lo, &len, |start, rlen| {
            for s in start / slab..=(start + rlen - 1) / slab {
                if slab_stamp.hit(s) {
                    builder.add_edge(zero_base + s as NodeId, conv_shared[t]);
                }
            }
            let (Some(f), Some(cs)) = (&fft_out, chunk_stamp.as_mut()) else {
                return;
            };
            if f.tp.axes[0].shards.is_some() {
                // Four-step column groups decimate a line, so a contiguous
                // run can cross entry shards: resolve per element.
                for e in start..start + rlen {
                    let shard = entry_shard_of(f.fft, f.tp, 0, e);
                    if cs.hit(shard) {
                        dep_chunks.push(shard as u32);
                    }
                }
            } else {
                // Axis-0 tiles of a last-dim run are contiguous (the run
                // stays within one outer block and one inner window — see
                // tile_of_element); stride-1 axis 0 means D == 1, one line.
                let grain0 = f.tp.axes[0].grain;
                let (t_first, t_last) = if f.fft.axis_stride(0) == 1 {
                    (
                        f.fft.tile_of_element(0, start, f.tp.b),
                        f.fft.tile_of_element(0, start, f.tp.b),
                    )
                } else {
                    (
                        f.fft.tile_of_element(0, start, f.tp.b),
                        f.fft.tile_of_element(0, start + rlen - 1, f.tp.b),
                    )
                };
                for chunk in t_first / grain0..=t_last / grain0 {
                    if cs.hit(chunk) {
                        dep_chunks.push(chunk as u32);
                    }
                }
            }
        });
        if let Some(f) = &fft_out {
            for &chunk in &dep_chunks {
                for c in 0..f.channels {
                    builder.add_edge(conv_shared[t], f.fft_base[c][0].0 + chunk as NodeId);
                }
            }
        }
    }
}

/// Wires FFT axis `k−1` writers → axis `k` entries for every axis after
/// the first (every channel), reusing the caller's stamp.
fn connect_fft_chain(
    builder: &mut DagBuilder,
    fft: &FftNd,
    tp: &TilePlan,
    ndim: usize,
    channels: usize,
    stamp: &mut Stamp,
    fft_base: &[Vec<(NodeId, NodeId)>],
) {
    for axis in 1..ndim {
        connect_axis_inputs(
            builder,
            fft,
            tp,
            axis,
            channels,
            stamp,
            |e| writer_shard_of(fft, tp, axis - 1, e),
            |c, k| fft_base[c][axis - 1].1 + k as NodeId,
            |c, k| fft_base[c][axis].0 + k as NodeId,
        );
    }
}

/// Wires last-axis FFT writers → gather chunks: a task's chunks read its
/// halo box, so they depend on the last-axis writer shards containing the
/// box's rows — in every channel (one gather chunk writes all channels'
/// outputs).
#[allow(clippy::too_many_arguments)]
fn connect_interp_inputs<const D: usize>(
    builder: &mut DagBuilder,
    geo: &Geometry<D>,
    fft: &FftNd,
    tp: &TilePlan,
    pre: &Preprocess<D>,
    wc: usize,
    channels: usize,
    fft_base: &[Vec<(NodeId, NodeId)>],
    gather_base: NodeId,
    task_chunks: &[core::ops::Range<usize>],
) {
    let gs = geo.grid_strides();
    let last = D - 1;
    let grain_last = tp.axes[last].grain;
    let mut dep_chunks: Vec<u32> = Vec::new();
    let mut task_stamp = Stamp::new(tp.writer_shards(last));
    for t in 0..pre.graph.len() {
        if task_chunks[t].is_empty() {
            continue;
        }
        task_stamp.next();
        dep_chunks.clear();
        let (lo, len) = task_box(pre, &geo.m, wc, t);
        for_each_box_run(&geo.m, &gs, &lo, &len, |start, rlen| {
            if tp.axes[last].shards.is_some() {
                // Four-step k-blocks stripe a line, so a contiguous run can
                // cross writer shards: resolve per element.
                for e in start..start + rlen {
                    let shard = writer_shard_of(fft, tp, last, e);
                    if task_stamp.hit(shard) {
                        dep_chunks.push(shard as u32);
                    }
                }
            } else {
                // A last-dimension run lies within one last-axis line = tile.
                let chunk = fft.tile_of_element(last, start, tp.b) / grain_last;
                if task_stamp.hit(chunk) {
                    dep_chunks.push(chunk as u32);
                }
            }
        });
        for g in task_chunks[t].clone() {
            for &dep in &dep_chunks {
                for c in 0..channels {
                    builder
                        .add_edge(fft_base[c][last].1 + dep as NodeId, gather_base + g as NodeId);
                }
            }
        }
    }
}

/// Wires last-axis FFT writers → extract chunks: an image chunk reads the
/// wrapped embed positions of its flat range.
#[allow(clippy::too_many_arguments)]
fn connect_extract_inputs<const D: usize>(
    builder: &mut DagBuilder,
    geo: &Geometry<D>,
    fft: &FftNd,
    tp: &TilePlan,
    channels: usize,
    fft_base: &[Vec<(NodeId, NodeId)>],
    extract_base: &[NodeId],
    img_chunk: usize,
) {
    let gs = geo.grid_strides();
    let image_len = geo.image_len();
    let nchunks = image_len.div_ceil(img_chunk);
    let last = D - 1;
    let mut ex_stamp = Stamp::new(tp.writer_shards(last));
    for k in 0..nchunks {
        ex_stamp.next();
        let lo = k * img_chunk;
        let count = (image_len - lo).min(img_chunk);
        crate::grid::for_each_index_range(&geo.n, lo, count, |_flat, idx| {
            let mut g = 0usize;
            for d in 0..D {
                let wrapped = (idx[d] + geo.m[d] - geo.n[d] / 2) % geo.m[d];
                g += wrapped * gs[d];
            }
            let shard = writer_shard_of(fft, tp, last, g);
            if ex_stamp.hit(shard) {
                for c in 0..channels {
                    builder.add_edge(
                        fft_base[c][last].1 + shard as NodeId,
                        extract_base[c] + k as NodeId,
                    );
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Whole-operator builders (fragment compositions)
// ---------------------------------------------------------------------------

/// Builds the fused **forward** graph for `channels` channels:
/// scale slabs → per-axis FFT chunks (per channel) → gather chunks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_forward<const D: usize>(
    geo: &Geometry<D>,
    fft: &FftNd,
    tp: &TilePlan,
    pre: &Preprocess<D>,
    wc: usize,
    gather_grain: usize,
    threads: usize,
    channels: usize,
) -> FusedApply {
    let grid_len = geo.grid_len();
    let slab = piece_len(grid_len, threads);
    let nslabs = grid_len.div_ceil(slab);
    let mut builder = DagBuilder::new();

    let scale_base = emit_scale_fragment(&mut builder, grid_len, slab, channels);
    let fft_base = emit_fft_fragment(&mut builder, fft, tp, D, channels);
    let (gather_base, chunks, task_chunks) = emit_interp_fragment(&mut builder, pre, gather_grain);

    // Edges: slab → axis 0, then the axis chain.
    let max_writers = nslabs.max((0..D).map(|a| tp.writer_shards(a)).max().unwrap_or(1));
    let mut stamp = Stamp::new(max_writers);
    connect_axis_inputs(
        &mut builder,
        fft,
        tp,
        0,
        channels,
        &mut stamp,
        |e| e / slab,
        |c, s| scale_base[c] + s as NodeId,
        |c, k| fft_base[c][0].0 + k as NodeId,
    );
    connect_fft_chain(&mut builder, fft, tp, D, channels, &mut stamp, &fft_base);
    connect_interp_inputs(
        &mut builder,
        geo,
        fft,
        tp,
        pre,
        wc,
        channels,
        &fft_base,
        gather_base,
        &task_chunks,
    );

    apply_phase_priorities(&mut builder, false, D);
    FusedApply { dag: builder.build(), chunks, slab, img_chunk: 0 }
}

/// Builds the fused **adjoint** graph for `channels` channels:
/// zero slabs → conv/priv/reduce tasks (Gray edges preserved) → per-axis
/// FFT chunks (per channel) → extract chunks.
pub(crate) fn build_adjoint<const D: usize>(
    geo: &Geometry<D>,
    fft: &FftNd,
    tp: &TilePlan,
    pre: &Preprocess<D>,
    wc: usize,
    threads: usize,
    channels: usize,
) -> FusedApply {
    let grid_len = geo.grid_len();
    let image_len = geo.image_len();
    let slab = piece_len(grid_len, threads);
    let img_chunk = piece_len(image_len, threads);
    let mut builder = DagBuilder::new();

    let zero_base = emit_zero_fragment(&mut builder, grid_len, slab, channels);
    let conv_shared = emit_spread_fragment(&mut builder, pre, channels);
    let fft_base = emit_fft_fragment(&mut builder, fft, tp, D, channels);
    let extract_base = emit_extract_fragment(&mut builder, image_len, img_chunk, channels);

    connect_spread_edges(
        &mut builder,
        &geo.m,
        pre,
        wc,
        zero_base,
        &conv_shared,
        slab,
        Some(Axis0Wiring { fft, tp, fft_base: &fft_base, channels }),
    );
    let max_writers = (0..D).map(|a| tp.writer_shards(a)).max().unwrap_or(1);
    let mut stamp = Stamp::new(max_writers);
    connect_fft_chain(&mut builder, fft, tp, D, channels, &mut stamp, &fft_base);
    connect_extract_inputs(
        &mut builder,
        geo,
        fft,
        tp,
        channels,
        &fft_base,
        &extract_base,
        img_chunk,
    );

    apply_phase_priorities(&mut builder, true, D);
    FusedApply { dag: builder.build(), chunks: Vec::new(), slab, img_chunk }
}

/// Builds the **spread** graph over grid extents `m`: the adjoint's zero
/// and scatter fragments with nothing downstream — the graph every
/// [`SpreadOp`](crate::stage::SpreadOp) apply runs (and hence
/// `spread_only`, the phased adjoints and type-3 forwards). The Gray-code
/// exclusion edges and `zero → conv` wiring are identical to the full
/// adjoint's, so the scattered grid is bitwise-identical to the fused
/// adjoint's at any thread count.
pub(crate) fn build_spread<const D: usize>(
    m: &[usize; D],
    pre: &Preprocess<D>,
    wc: usize,
    threads: usize,
) -> FusedApply {
    let grid_len = m.iter().product();
    let slab = piece_len(grid_len, threads);
    let mut builder = DagBuilder::new();
    let zero_base = emit_zero_fragment(&mut builder, grid_len, slab, 1);
    let conv_shared = emit_spread_fragment(&mut builder, pre, 1);
    connect_spread_edges(&mut builder, m, pre, wc, zero_base, &conv_shared, slab, None);
    apply_phase_priorities(&mut builder, true, D);
    FusedApply { dag: builder.build(), chunks: Vec::new(), slab, img_chunk: 0 }
}

/// Writes a Chrome `trace_event` JSON (load in `chrome://tracing` or
/// Perfetto) of one fused run's per-node spans. Timestamps are
/// microseconds from run start; tracks (`tid`) are workers.
pub(crate) fn write_trace(path: &str, stats: &DagRunStats, adjoint: bool) {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(stats.log.len() * 112 + 64);
    s.push_str("{\"traceEvents\":[");
    for (i, r) in stats.log.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let kind = kind_of(r.tag);
        let name = kind_name(kind);
        let _ = write!(
            s,
            "\n{{\"name\":\"{name}[ax{ax} ch{ch} #{ix}]\",\"cat\":\"{name}\",\"ph\":\"X\",\
             \"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":{pid},\"tid\":{tid}}}",
            ax = axis_of(r.tag),
            ch = channel_of(r.tag),
            ix = index_of(r.tag),
            ts = r.start * 1e6,
            dur = (r.end - r.start).max(0.0) * 1e6,
            pid = if adjoint { 1 } else { 0 },
            tid = r.worker,
        );
    }
    s.push_str("\n]}\n");
    if let Err(e) = std::fs::write(path, s) {
        eprintln!("NUFFT_TRACE: failed to write {path}: {e}");
    }
}

/// The wall-clock span (first start to last end) of all records whose
/// kind satisfies `pred` — the fused analogue of a phase timer. Spans of
/// different kinds overlap by design; each is still an honest "this phase
/// was in flight for X seconds".
pub(crate) fn kind_span(stats: &DagRunStats, pred: impl Fn(u8) -> bool) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for r in &stats.log {
        if pred(kind_of(r.tag)) {
            lo = lo.min(r.start);
            hi = hi.max(r.end);
        }
    }
    if hi > lo {
        hi - lo
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trips() {
        let t = tag(KIND_FFT, 2, 7, 123456);
        assert_eq!(kind_of(t), KIND_FFT);
        assert_eq!(axis_of(t), 2);
        assert_eq!(channel_of(t), 7);
        assert_eq!(index_of(t), 123456);
    }

    #[test]
    fn box_runs_cover_wrapped_box_exactly_once() {
        let m = [8usize, 6];
        let gs = [6usize, 1];
        // Box hanging off both edges: origin (−2, 4), size (5, 4) wraps in
        // both dimensions.
        let mut seen = vec![0usize; 48];
        for_each_box_run(&m, &gs, &[-2, 4], &[5, 4], |start, len| {
            for e in start..start + len {
                seen[e] += 1;
            }
        });
        let mut want = vec![0usize; 48];
        for i in 0..5i32 {
            for j in 0..4i32 {
                let r = (-2 + i).rem_euclid(8) as usize;
                let c = (4 + j).rem_euclid(6) as usize;
                want[r * 6 + c] += 1;
            }
        }
        assert_eq!(seen, want);
    }

    #[test]
    fn box_runs_full_extent_has_no_duplicates() {
        // len == m in every dimension: the capped "covers everything" case.
        let m = [4usize, 6];
        let gs = [6usize, 1];
        let mut seen = vec![0usize; 24];
        for_each_box_run(&m, &gs, &[-1, 3], &[4, 6], |start, len| {
            for e in start..start + len {
                seen[e] += 1;
            }
        });
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn box_runs_1d() {
        let m = [10usize];
        let gs = [1usize];
        let mut runs = Vec::new();
        for_each_box_run(&m, &gs, &[8], &[5], |start, len| runs.push((start, len)));
        assert_eq!(runs, vec![(8, 2), (0, 3)]);
    }

    #[test]
    fn node_phases_order_the_pipeline() {
        assert_eq!(node_phase(tag(KIND_SCALE, 0, 0, 0), false, 2), 0);
        assert_eq!(node_phase(tag(KIND_FFT, 1, 0, 0), false, 2), 2);
        assert_eq!(node_phase(tag(KIND_GATHER, 0, 0, 0), false, 2), 3);
        assert_eq!(node_phase(tag(KIND_ZERO, 0, 0, 0), true, 3), 0);
        assert_eq!(node_phase(tag(KIND_REDUCE, 0, 0, 0), true, 3), 1);
        assert_eq!(node_phase(tag(KIND_FFT, 2, 0, 0), true, 3), 4);
        assert_eq!(node_phase(tag(KIND_EXTRACT, 0, 0, 0), true, 3), 5);
    }
}
