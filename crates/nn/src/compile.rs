//! Stage compiler: lowers a stage's [`OpGraph`] to a cached, fused,
//! arena-backed kernel sequence ([`StagePlan`]).
//!
//! Plans are the only way a served stage runs: the serving engine
//! refuses a network any stage of which does not lower. The layer walk
//! ([`StagedNetwork::classify`], [`StagedNetwork::predict_all`]) stays
//! only as the reference the plans are held bitwise equal to.
//!
//! # What compilation buys
//!
//! The layer walk re-plans every call: it traverses the `Sequential`
//! block, allocates a fresh intermediate per layer, packs the same
//! weight panels again, and runs bias/relu as separate passes over
//! memory the GEMM just wrote. A [`StagePlan`] does all of that once,
//! at compile time:
//!
//! - **Fusion** — single-consumer `MatMul → BiasAdd → Relu` chains
//!   collapse into one `FusedGemm` step whose elementwise tail runs
//!   inside the GEMM micro-kernel epilogue (`eugene-tensor`'s
//!   [`Matrix::matmul_epilogue_into`]).
//! - **Weight pre-packing** — the blocked kernel's column panels
//!   ([`eugene_tensor::PackedRhs`]) are built once per *layer*, by the
//!   first plan compiled over it, instead of on every call; the layer
//!   owns them and every plan shape borrows the same `Arc`, exactly as
//!   Int8 layers share their [`eugene_tensor::QuantizedRhs`] pack.
//! - **Arena reuse** — every intermediate lives in a [`PlanArena`]
//!   checked out per dispatch from a pool keyed by the plan; after
//!   warm-up a dispatch performs zero allocations.
//!
//! # The bitwise contract
//!
//! A compiled plan reproduces the layer walk **bitwise**: the fused
//! epilogue applies the identical scalar ops in the identical order as
//! the separate passes, pre-packed panels are pure layout, either
//! pack is the very `Arc` the layer owns, and dropout is skipped
//! exactly because deterministic inference is the identity.
//! `plan_parity` property-tests this across shapes, batch sizes,
//! precisions, and kernel tiers.
//!
//! # Staleness
//!
//! Plans hold handles to weight *packs*, so any parameter mutation
//! must invalidate them. Every mutation path through [`StagedNetwork`]
//! (`stages_mut`, `heads_mut`, `visit_params`, `quantize_stages`)
//! bumps the cache generation and drops cached plans, and the layer
//! drops its packs when its weights are touched; a plan's
//! [`StagePlan::generation`] tag records the generation it was built
//! under, so tests can prove no stale plan is ever served. A plan that
//! escaped the cache (or is handed a foreign network) still cannot
//! answer with old weights: every GEMM step asserts its pack is the
//! one the resolved layer owns *now*.

use crate::graph::{ActKind, LayerRef, Op, OpGraph, OutputRole, SourceKind};
use crate::linear::WeightPack;
use crate::{Activation, Dropout, Linear, StagedNetwork};
use eugene_tensor::{Matrix, PackedRhs, PlanCacheStats, Precision};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Why a stage could not be compiled. Serving refuses the network: a
/// stage that does not lower has no way to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The stage index is out of range.
    NoSuchStage(usize),
    /// A trunk layer is not expressible in the op IR (not a `Linear`,
    /// `Activation`, or `Dropout`).
    UnsupportedLayer {
        stage: usize,
        layer: usize,
        describe: String,
    },
    /// A layer's width does not chain: a `Linear`'s or head's input is
    /// not the width that reaches it, or a head's output is not
    /// `num_classes` wide.
    WidthMismatch {
        at: LayerRef,
        /// `"input"` or `"output"`.
        side: &'static str,
        expected: usize,
        found: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::NoSuchStage(s) => write!(f, "stage {s} does not exist"),
            CompileError::UnsupportedLayer {
                stage,
                layer,
                describe,
            } => write!(
                f,
                "stage {stage} layer {layer} ({describe}) has no op-graph lowering"
            ),
            CompileError::WidthMismatch {
                at,
                side,
                expected,
                found,
            } => {
                match at {
                    LayerRef::Trunk { stage, layer } => write!(f, "stage {stage} layer {layer}")?,
                    LayerRef::Head { stage } => write!(f, "stage {stage} head")?,
                }
                write!(f, " {side} is {found} wide where {expected} is required")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Cache key: one plan per (stage, batch shape, serving precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    pub stage: usize,
    /// Batch rows the plan is specialized to.
    pub rows: usize,
    pub precision: Precision,
}

/// Where a step reads from: an external stage input or an arena buffer
/// written by an earlier step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    Hidden,
    Raw,
    Buf(usize),
}

/// One executable step of a compiled plan. Steps write to arena buffer
/// `dst` and only read operands produced earlier (SSA order), so
/// execution can split the arena at `dst` borrow-safely.
enum Step {
    /// `dst = [lhs | rhs]` (column concat — the input-skip shortcut).
    Concat {
        lhs: Operand,
        rhs: Operand,
        dst: usize,
        dst_cols: usize,
        lhs_cols: usize,
    },
    /// `dst = act(src · W + b)`: the fused GEMM. `bias`/`relu` record
    /// which tail ops were folded into the kernel epilogue; `pack` is
    /// the weight layer's own pack at compile time.
    FusedGemm {
        src: Operand,
        dst: usize,
        weights: LayerRef,
        bias: Option<LayerRef>,
        relu: bool,
        pack: WeightPack,
    },
    /// `dst = src + bias` — a bias add that could not fuse (its matmul
    /// has other consumers).
    BiasAdd {
        src: Operand,
        dst: usize,
        dst_cols: usize,
        bias: LayerRef,
    },
    /// `dst = act(src)` element-wise — activations that cannot fold
    /// into an epilogue (tanh, or relu on a shared value).
    Elementwise {
        src: Operand,
        dst: usize,
        dst_cols: usize,
        kind: ActKind,
    },
    /// `dst = lhs + rhs` element-wise.
    ResidualAdd {
        lhs: Operand,
        rhs: Operand,
        dst: usize,
        dst_cols: usize,
    },
}

/// The reusable intermediate buffers for one in-flight execution of a
/// plan. Pooled inside the plan ([`StagePlan::execute_into`] checks one
/// out per dispatch and back in afterwards), so concurrent dispatchers
/// never alias a buffer and steady-state dispatches never allocate.
pub struct PlanArena {
    bufs: Vec<Matrix>,
}

impl PlanArena {
    fn new(num_bufs: usize) -> Self {
        Self {
            bufs: (0..num_bufs).map(|_| Matrix::zeros(0, 0)).collect(),
        }
    }
}

/// A compiled, shape-specialized execution plan for one stage (trunk
/// block + classifier head). Built by [`StagedNetwork::stage_plan`],
/// cached in the network's [`PlanCache`].
///
/// Weights and biases are resolved against the live network at
/// execution time via [`LayerRef`]; the *packs* (f32 panels, Int8
/// quantization) are handles to what each layer owned at compile time,
/// guarded by the cache generation and checked again on every dispatch.
pub struct StagePlan {
    stage: usize,
    rows: usize,
    precision: Precision,
    generation: u64,
    steps: Vec<Step>,
    num_bufs: usize,
    hidden_out: Operand,
    logits_out: Operand,
    arenas: Mutex<Vec<PlanArena>>,
}

impl StagePlan {
    /// The stage this plan executes.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// The batch shape (rows) the plan is specialized to.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The serving precision the plan was compiled for.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The cache generation this plan was compiled under. A plan is
    /// served only while its network's cache is at the same
    /// generation; any parameter mutation bumps it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of executable steps (after fusion).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of fused-GEMM steps — parity/fusion tests assert the
    /// elementwise chains actually collapsed.
    pub fn fused_gemm_steps(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::FusedGemm { .. }))
            .count()
    }

    /// The f32 panel packs this plan multiplies with, one per f32 GEMM
    /// step — handles to the layers' own packs, shared with every
    /// other plan shape of the same layers.
    pub fn f32_packs(&self) -> impl Iterator<Item = &Arc<PackedRhs>> {
        self.steps.iter().filter_map(|s| match s {
            Step::FusedGemm {
                pack: WeightPack::F32(p),
                ..
            } => Some(p),
            _ => None,
        })
    }

    /// Heap bytes of the f32 weight panels this plan multiplies with.
    /// The panels belong to the layers, so summing this over plans of
    /// one network counts each pack once per plan; see
    /// [`StagedNetwork::packed_weight_bytes`] for resident bytes.
    pub fn packed_bytes(&self) -> usize {
        self.f32_packs().map(|p| p.packed_bytes()).sum()
    }

    /// Executes the plan over a batch, writing the stage's hidden
    /// activations and head logits into caller-owned buffers (resized
    /// in place, so a reusing caller allocates nothing).
    ///
    /// `hidden` is the previous stage's output (the raw input for
    /// stage 0); `raw` is the network input (read only by input-skip
    /// plans). Bitwise-identical to the layer walk.
    ///
    /// # Panics
    ///
    /// Panics if the batch shape differs from [`StagePlan::rows`], or
    /// if a layer of `network` no longer owns the pack this plan was
    /// compiled with — a different network, or weights mutated since.
    pub fn execute_into(
        &self,
        network: &StagedNetwork,
        hidden: &Matrix,
        raw: &Matrix,
        out_hidden: &mut Matrix,
        out_logits: &mut Matrix,
    ) {
        assert_eq!(
            hidden.rows(),
            self.rows,
            "plan compiled for {} rows, dispatched {}",
            self.rows,
            hidden.rows()
        );
        let mut arena = {
            let mut pool = self.arenas.lock().expect("arena pool poisoned");
            pool.pop()
        }
        .unwrap_or_else(|| PlanArena::new(self.num_bufs));

        for step in &self.steps {
            self.run_step(step, network, hidden, raw, &mut arena);
        }
        let copy_out = |src: Operand, dst: &mut Matrix, arena: &PlanArena| {
            let src = operand_ref(src, hidden, raw, &arena.bufs);
            dst.reset_zeroed(src.rows(), src.cols());
            dst.as_mut_slice().copy_from_slice(src.as_slice());
        };
        copy_out(self.hidden_out, out_hidden, &arena);
        copy_out(self.logits_out, out_logits, &arena);
        self.arenas.lock().expect("arena pool poisoned").push(arena);
    }

    /// Allocating convenience wrapper over [`StagePlan::execute_into`]:
    /// returns `(hidden, logits)`.
    pub fn execute(
        &self,
        network: &StagedNetwork,
        hidden: &Matrix,
        raw: &Matrix,
    ) -> (Matrix, Matrix) {
        let mut out_hidden = Matrix::zeros(0, 0);
        let mut out_logits = Matrix::zeros(0, 0);
        self.execute_into(network, hidden, raw, &mut out_hidden, &mut out_logits);
        (out_hidden, out_logits)
    }

    fn run_step(
        &self,
        step: &Step,
        network: &StagedNetwork,
        hidden: &Matrix,
        raw: &Matrix,
        arena: &mut PlanArena,
    ) {
        let rows = self.rows;
        match *step {
            Step::Concat {
                lhs,
                rhs,
                dst,
                dst_cols,
                lhs_cols,
            } => {
                let (head, tail) = arena.bufs.split_at_mut(dst);
                let l = operand_ref(lhs, hidden, raw, head);
                let r = operand_ref(rhs, hidden, raw, head);
                let out = &mut tail[0];
                out.reset_zeroed(rows, dst_cols);
                for row in 0..rows {
                    out.row_mut(row)[..lhs_cols].copy_from_slice(l.row(row));
                    out.row_mut(row)[lhs_cols..].copy_from_slice(r.row(row));
                }
            }
            Step::FusedGemm {
                src,
                dst,
                weights,
                bias,
                relu,
                ref pack,
            } => {
                let lin = resolve_linear(network, weights);
                let bias_row = bias.map(|b| resolve_linear(network, b).bias().row(0));
                let (head, tail) = arena.bufs.split_at_mut(dst);
                let x = operand_ref(src, hidden, raw, head);
                let out = &mut tail[0];
                // The kernels read only the pack, never `lin.weights()`:
                // a pack the layer no longer owns would silently pair
                // old weights with the live bias.
                match pack {
                    WeightPack::Int8(q) => {
                        assert!(
                            lin.quantized_pack()
                                .is_some_and(|p| std::ptr::eq(p, q.as_ref())),
                            "Int8 plan outlived its weight pack"
                        );
                        x.matmul_quantized_epilogue_into(q, bias_row, relu, out);
                    }
                    WeightPack::F32(p) => {
                        assert!(
                            lin.packed_weights().is_some_and(|own| Arc::ptr_eq(own, p)),
                            "f32 plan outlived its weight pack"
                        );
                        x.matmul_epilogue_into(lin.weights(), Some(p), bias_row, relu, out);
                    }
                }
            }
            Step::BiasAdd {
                src,
                dst,
                dst_cols,
                bias,
            } => {
                let b = resolve_linear(network, bias).bias();
                let (head, tail) = arena.bufs.split_at_mut(dst);
                let x = operand_ref(src, hidden, raw, head);
                let out = &mut tail[0];
                out.reset_zeroed(rows, dst_cols);
                out.as_mut_slice().copy_from_slice(x.as_slice());
                out.add_row_broadcast(b.row(0));
            }
            Step::Elementwise {
                src,
                dst,
                dst_cols,
                kind,
            } => {
                let (head, tail) = arena.bufs.split_at_mut(dst);
                let x = operand_ref(src, hidden, raw, head);
                let out = &mut tail[0];
                out.reset_zeroed(rows, dst_cols);
                for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *o = kind.apply(v);
                }
            }
            Step::ResidualAdd {
                lhs,
                rhs,
                dst,
                dst_cols,
            } => {
                let (head, tail) = arena.bufs.split_at_mut(dst);
                let l = operand_ref(lhs, hidden, raw, head);
                let r = operand_ref(rhs, hidden, raw, head);
                let out = &mut tail[0];
                out.reset_zeroed(rows, dst_cols);
                for ((o, &a), &b) in out
                    .as_mut_slice()
                    .iter_mut()
                    .zip(l.as_slice())
                    .zip(r.as_slice())
                {
                    *o = a + b;
                }
            }
        }
    }
}

fn operand_ref<'a>(
    op: Operand,
    hidden: &'a Matrix,
    raw: &'a Matrix,
    bufs: &'a [Matrix],
) -> &'a Matrix {
    match op {
        Operand::Hidden => hidden,
        Operand::Raw => raw,
        Operand::Buf(i) => &bufs[i],
    }
}

fn resolve_linear(network: &StagedNetwork, layer: LayerRef) -> &Linear {
    match layer {
        LayerRef::Trunk { stage, layer } => network.stages()[stage].layers()[layer]
            .as_any()
            .downcast_ref::<Linear>()
            .expect("plan layer ref must resolve to a Linear"),
        LayerRef::Head { stage } => &network.heads()[stage],
    }
}

/// Errs with [`CompileError::WidthMismatch`] unless `found == expected`.
fn check_width(
    at: LayerRef,
    side: &'static str,
    expected: usize,
    found: usize,
) -> Result<(), CompileError> {
    if found == expected {
        Ok(())
    } else {
        Err(CompileError::WidthMismatch {
            at,
            side,
            expected,
            found,
        })
    }
}

/// Builds the op graph for one stage of `network`: the input-skip
/// concat (when applicable), the trunk block lowered layer by layer
/// (dropout elided — deterministic inference is the identity), and the
/// classifier head, with `Hidden` and `Logits` outputs. Builds no
/// weight pack, so it is also the cheap check that a stage lowers and
/// that its widths chain.
pub fn stage_graph(network: &StagedNetwork, stage: usize) -> Result<OpGraph, CompileError> {
    if stage >= network.num_stages() {
        return Err(CompileError::NoSuchStage(stage));
    }
    let mut g = OpGraph::new();
    let hidden_cols = if stage == 0 {
        network.input_dim()
    } else {
        network.stage_output_dim(stage - 1)
    };
    let mut cur = g.add(Op::Source(SourceKind::Hidden), hidden_cols);
    let mut cur_cols = hidden_cols;
    if stage > 0 && network.input_skip() {
        let raw = g.add(Op::Source(SourceKind::RawInput), network.input_dim());
        cur_cols += network.input_dim();
        cur = g.add(Op::Concat { lhs: cur, rhs: raw }, cur_cols);
    }
    for (i, layer) in network.stages()[stage].layers().iter().enumerate() {
        let any = layer.as_any();
        if let Some(lin) = any.downcast_ref::<Linear>() {
            let r = LayerRef::Trunk { stage, layer: i };
            check_width(r, "input", cur_cols, lin.in_dim())?;
            cur_cols = lin.out_dim();
            cur = g.add(
                Op::MatMul {
                    input: cur,
                    layer: r,
                },
                cur_cols,
            );
            cur = g.add(
                Op::BiasAdd {
                    input: cur,
                    layer: r,
                },
                cur_cols,
            );
        } else if let Some(act) = any.downcast_ref::<Activation>() {
            cur = g.add(
                Op::Activation {
                    input: cur,
                    kind: act.act_kind(),
                },
                cur_cols,
            );
        } else if any.downcast_ref::<Dropout>().is_some() {
            // Deterministic inference through dropout is the identity.
        } else {
            return Err(CompileError::UnsupportedLayer {
                stage,
                layer: i,
                describe: layer.describe(),
            });
        }
    }
    g.add(
        Op::Output {
            input: cur,
            role: OutputRole::Hidden,
        },
        cur_cols,
    );
    let head = LayerRef::Head { stage };
    let classes = network.num_classes();
    let head_layer = &network.heads()[stage];
    check_width(head, "input", cur_cols, head_layer.in_dim())?;
    check_width(head, "output", classes, head_layer.out_dim())?;
    let hm = g.add(
        Op::MatMul {
            input: cur,
            layer: head,
        },
        classes,
    );
    let hb = g.add(
        Op::BiasAdd {
            input: hm,
            layer: head,
        },
        classes,
    );
    g.add(
        Op::Output {
            input: hb,
            role: OutputRole::Logits,
        },
        classes,
    );
    Ok(g)
}

/// Compiles `graph` (one stage of `network`) into a [`StagePlan`]
/// specialized to `rows` batch rows, fusing single-consumer
/// `MatMul → BiasAdd → Relu` chains into GEMM-epilogue steps and
/// borrowing each layer's weight pack.
pub fn compile_graph(
    network: &StagedNetwork,
    graph: &OpGraph,
    stage: usize,
    rows: usize,
    generation: u64,
) -> StagePlan {
    assert!(rows > 0, "plans are specialized to a positive batch shape");
    let n = graph.len();
    let counts = graph.consumer_counts();
    // Single consumer of each node, when unique.
    let mut sole_consumer: Vec<Option<NodeIdx>> = vec![None; n];
    for (id, node) in graph.nodes().iter().enumerate() {
        for input in node.op.inputs() {
            sole_consumer[input] = if counts[input] == 1 { Some(id) } else { None };
        }
    }
    let mut steps = Vec::new();
    let mut val: Vec<Option<Operand>> = vec![None; n];
    let mut fused = vec![false; n];
    let mut num_bufs = 0usize;
    let mut hidden_out = None;
    let mut logits_out = None;
    let mut alloc_buf = || {
        let b = num_bufs;
        num_bufs += 1;
        b
    };
    for id in graph.topo_order() {
        if fused[id] {
            continue;
        }
        let node = &graph.nodes()[id];
        match node.op {
            Op::Source(SourceKind::Hidden) => val[id] = Some(Operand::Hidden),
            Op::Source(SourceKind::RawInput) => val[id] = Some(Operand::Raw),
            Op::Concat { lhs, rhs } => {
                let dst = alloc_buf();
                steps.push(Step::Concat {
                    lhs: val[lhs].expect("input scheduled"),
                    rhs: val[rhs].expect("input scheduled"),
                    dst,
                    dst_cols: node.cols,
                    lhs_cols: graph.nodes()[lhs].cols,
                });
                val[id] = Some(Operand::Buf(dst));
            }
            Op::MatMul { input, layer } => {
                // Greedy epilogue fusion along the single-consumer
                // chain: matmul [+ bias] [+ relu].
                let mut last = id;
                let mut bias = None;
                let mut relu = false;
                if let Some(next) = sole_consumer[last] {
                    if let Op::BiasAdd {
                        input: bi,
                        layer: bl,
                    } = graph.nodes()[next].op
                    {
                        if bi == last {
                            bias = Some(bl);
                            fused[next] = true;
                            last = next;
                        }
                    }
                }
                if let Some(next) = sole_consumer[last] {
                    if let Op::Activation {
                        input: ai,
                        kind: ActKind::Relu,
                    } = graph.nodes()[next].op
                    {
                        if ai == last {
                            relu = true;
                            fused[next] = true;
                            last = next;
                        }
                    }
                }
                let pack = resolve_linear(network, layer).serving_pack();
                let dst = alloc_buf();
                steps.push(Step::FusedGemm {
                    src: val[input].expect("input scheduled"),
                    dst,
                    weights: layer,
                    bias,
                    relu,
                    pack,
                });
                val[last] = Some(Operand::Buf(dst));
                val[id] = val[last];
            }
            Op::BiasAdd { input, layer } => {
                let dst = alloc_buf();
                steps.push(Step::BiasAdd {
                    src: val[input].expect("input scheduled"),
                    dst,
                    dst_cols: node.cols,
                    bias: layer,
                });
                val[id] = Some(Operand::Buf(dst));
            }
            Op::Activation { input, kind } => {
                let dst = alloc_buf();
                steps.push(Step::Elementwise {
                    src: val[input].expect("input scheduled"),
                    dst,
                    dst_cols: node.cols,
                    kind,
                });
                val[id] = Some(Operand::Buf(dst));
            }
            Op::ResidualAdd { lhs, rhs } => {
                let dst = alloc_buf();
                steps.push(Step::ResidualAdd {
                    lhs: val[lhs].expect("input scheduled"),
                    rhs: val[rhs].expect("input scheduled"),
                    dst,
                    dst_cols: node.cols,
                });
                val[id] = Some(Operand::Buf(dst));
            }
            Op::Output { input, role } => {
                let v = val[input].expect("input scheduled");
                val[id] = Some(v);
                match role {
                    OutputRole::Hidden => hidden_out = Some(v),
                    OutputRole::Logits => logits_out = Some(v),
                }
            }
        }
    }
    let hidden_out = hidden_out.expect("stage graph must emit a Hidden output");
    let logits_out = logits_out.expect("stage graph must emit a Logits output");
    StagePlan {
        stage,
        rows,
        precision: network.stage_precision(stage),
        generation,
        steps,
        num_bufs,
        hidden_out,
        logits_out,
        arenas: Mutex::new(Vec::new()),
    }
}

type NodeIdx = usize;

/// The per-network compiled-plan cache: `(stage, rows, precision)` →
/// [`StagePlan`], guarded by a generation counter that every parameter
/// mutation bumps.
///
/// Cloning a network clones this as an **empty** cache — plans
/// resolve layers of the network they were compiled from, so they
/// must not travel to a copy (the copy's layers do share the packs).
pub struct PlanCache {
    generation: AtomicU64,
    plans: Mutex<HashMap<PlanKey, Arc<StagePlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl PlanCache {
    pub fn new() -> Self {
        Self {
            generation: AtomicU64::new(0),
            plans: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The current generation tag. Plans compiled under an older
    /// generation are never served.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Drops every cached plan and bumps the generation — called by
    /// every parameter-mutation path on [`StagedNetwork`].
    pub fn invalidate(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        self.plans.lock().expect("plan cache poisoned").clear();
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.plans.lock().expect("plan cache poisoned").len(),
            generation: self.generation(),
        }
    }

    /// Looks up (or compiles and caches) the plan for `key` against
    /// `network`. Compilation happens under the cache lock, so
    /// concurrent dispatchers never compile the same plan twice.
    pub fn get_or_compile(
        &self,
        network: &StagedNetwork,
        key: PlanKey,
    ) -> Result<Arc<StagePlan>, CompileError> {
        let generation = self.generation();
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        if let Some(plan) = plans.get(&key) {
            if plan.generation == generation {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(plan));
            }
            // Defensive: invalidate() clears eagerly, so a stale entry
            // should be unreachable; treat one as a miss regardless.
            plans.remove(&key);
        }
        let graph = stage_graph(network, key.stage)?;
        let plan = Arc::new(compile_graph(
            network, &graph, key.stage, key.rows, generation,
        ));
        self.misses.fetch_add(1, Ordering::Relaxed);
        plans.insert(key, Arc::clone(&plan));
        Ok(plan)
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for PlanCache {
    /// A cloned network starts with a fresh, empty cache: cached plans
    /// belong to the original and must not be served by the copy.
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "PlanCache(gen {}, {} entries, {} hits / {} misses / {} invalidations)",
            s.generation, s.entries, s.hits, s.misses, s.invalidations
        )
    }
}
