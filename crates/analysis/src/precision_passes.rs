//! Precision/criticality consistency passes (GA3xx).
//!
//! The SRG carries `Criticality` annotations and element types; the
//! scheduler picks kernel tiers and device classes. This module closes
//! the loop statically: an *error-interval abstract domain* propagates
//! a per-node worst-case relative error bound forward through the graph
//! (one sweep of its topological order, [`SrgFlow`]), and the GA3xx
//! passes compare what the schedule *delivers* against what the
//! annotations *demand*:
//!
//! - **GA301** `criticality-tolerance-exceeded` — a node's explicit
//!   `tolerance_rel` attribute is tighter than the delivered bound, or
//!   a `Critical` edge's source exceeds [`CRITICALITY_SLACK`] times its
//!   unit-factor baseline bound (the schedule degraded a critical
//!   value's precision, not the math itself).
//! - **GA302** `precision-lossy-critical-path` — a node downcasts its
//!   floating-point inputs to a wider-epsilon type on a path that
//!   feeds a `Critical` edge downstream.
//! - **GA303** `error-interval-unknown` — `Fused`/`CustomKernel` ops
//!   have no static error model; their (and their consumers') bounds
//!   are `+∞`.
//!
//! The bound is the classic first-order model: each element type
//! contributes a unit roundoff ε, each arithmetic op amplifies the
//! joined input error by its fan-in and adds a local term proportional
//! to its reduction length (k·ε for a length-k dot product). That
//! local term is what kernel tiers and device classes scale; the k·ε
//! worst case holds for *any* summation order, which is why the f32
//! tiers (scalar/blocked/simd/parallel — see [`error_factor`]) all
//! carry factor 1 while the
//! quantized int8/fp16 tiers widen it to their per-MAC error. The
//! differential
//! test in `tests/precision_consistency.rs` executes the functional
//! plane on two tiers and asserts the observed divergence sits inside
//! the static bound.

use crate::dataflow::SrgFlow;
use crate::diag::{Anchor, LintCode, LintConfig, Report};
use crate::plan::ExecutionPlan;
use genie_cluster::{GpuClass, Topology};
use genie_srg::traverse::CycleError;
use genie_srg::{Criticality, Edge, ElemType, Node, NodeId, OpKind, Srg};
use genie_tensor::ops::tier_for_flops;
use genie_tensor::stats::Path;
use std::cell::OnceCell;

/// Node attribute carrying an explicit relative-tolerance demand, e.g.
/// `"tolerance_rel" = "1e-5"`. Checked by GA301.
pub const TOLERANCE_ATTR: &str = "tolerance_rel";

/// Node attribute naming the kernel tier a plan assigns to the node,
/// e.g. `"kernel_tier" = "int8"` (any [`Path::label`]). Overrides
/// the flop-threshold tier in the GA3xx passes — this is how a
/// quantization-aware planner exposes its choice to GA301, and how
/// GA301 denies a quantized plan whose `tolerance_rel` the tier's error
/// model cannot meet.
pub const KERNEL_TIER_ATTR: &str = "kernel_tier";

/// How much looser than its unit-factor baseline a `Critical` value's
/// delivered bound may be before GA301 fires. Device classes today
/// scale local error by at most 2×, so a healthy heterogeneous
/// schedule always sits inside this slack.
pub const CRITICALITY_SLACK: f64 = 4.0;

/// Unit roundoff of one element type: the relative error introduced by
/// rounding a real to the nearest representable value. Integer and
/// boolean types are exact; `I8` carries its quantization step.
pub fn elem_eps(elem: ElemType) -> f64 {
    match elem {
        ElemType::F32 => (2.0f64).powi(-24),
        ElemType::F16 => (2.0f64).powi(-11),
        ElemType::Bf16 => (2.0f64).powi(-8),
        ElemType::I8 => (2.0f64).powi(-8),
        ElemType::I32 | ElemType::I64 | ElemType::Bool => 0.0,
    }
}

/// Multiplier on a node's local error term when run on kernel tier
/// `tier` (`genie-tensor`'s dispatch [`Path`]).
///
/// The f32 tiers carry factor 1: the k·ε local term already bounds
/// a length-k reduction under *any* summation order, so lane
/// unrolling, re-blocking, or splitting the accumulation across
/// threads cannot exceed it. The quantized tiers scale ε up to
/// their per-MAC relative error: `factor · ε_f32` must dominate the
/// bound `genie-tensor`'s quantized kernels advertise —
/// 2¹⁸·2⁻²⁴ = 2⁻⁶ ≥ `quant::INT8_MAC_RELERR` and
/// 2¹⁵·2⁻²⁴ = 2⁻⁹ ≥ `quant::FP16_MAC_RELERR` — which the
/// `quant_error` suite checks empirically against the scalar oracle.
pub fn error_factor(tier: Path) -> f64 {
    match tier {
        Path::Scalar | Path::Blocked | Path::Simd | Path::Parallel => 1.0,
        Path::Int8 => (2.0f64).powi(18),
        Path::Fp16 => (2.0f64).powi(15),
    }
}

/// The tier a plan asked for on `node` through [`KERNEL_TIER_ATTR`].
pub fn requested_tier(node: &Node) -> Option<Path> {
    let label = node.attrs.get(KERNEL_TIER_ATTR)?;
    Path::from_label(label)
}

/// The kernel tier assigned to a node: an explicit [`KERNEL_TIER_ATTR`]
/// wins, else the tier `genie-tensor`'s dispatchers pick for its flop
/// count (thread availability permitting; never a quantized one).
pub fn tier_for_node(srg: &Srg, id: NodeId) -> Path {
    let node = srg.node(id);
    requested_tier(node).unwrap_or_else(|| tier_for_flops(node.cost.flops as usize))
}

/// Multiplier on a node's local error term when scheduled onto a
/// device of this class. Inference-class parts model reduced-precision
/// accumulate paths (tensor-core style) as a 2× widening.
pub fn device_class_error_factor(class: GpuClass) -> f64 {
    match class {
        GpuClass::Flagship | GpuClass::BandwidthOptimized => 1.0,
        GpuClass::Inference => 2.0,
    }
}

/// Worst-case relative error bound per node output, from one forward
/// sweep of the topological order. `+∞` means "no static bound" (downstream of a
/// fused or custom kernel).
#[derive(Clone, Debug)]
pub struct ErrorBounds {
    /// Indexed by [`NodeId::index`]; the sweep covers every node.
    bounds: Vec<f64>,
}

impl ErrorBounds {
    /// The bound for one node (`+∞` if the node is unknown).
    pub fn bound(&self, node: NodeId) -> f64 {
        self.bounds
            .get(node.index())
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// All (node, bound) pairs, ascending by node id.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.bounds
            .iter()
            .enumerate()
            .map(|(i, &b)| (NodeId::new(i as u32), b))
    }

    /// The largest finite bound, if any node has one.
    pub fn max_finite(&self) -> Option<f64> {
        self.bounds
            .iter()
            .copied()
            .filter(|b| b.is_finite())
            .fold(None, |acc, b| Some(acc.map_or(b, |a: f64| a.max(b))))
    }
}

/// Error bounds with unit kernel-tier/device factors: what the graph's
/// math delivers on an exact-dispatch backend.
pub fn error_bounds(srg: &Srg) -> Result<ErrorBounds, CycleError> {
    error_bounds_with(srg, |_| 1.0)
}

/// Error bounds with a per-node multiplier on the local error term
/// (kernel tier × device class). The multiplier scales only the error
/// *introduced at* the node, not the error flowing through it, so the
/// delivered/baseline ratio is bounded by the largest single factor.
pub fn error_bounds_with<F>(srg: &Srg, factor: F) -> Result<ErrorBounds, CycleError>
where
    F: Fn(NodeId) -> f64,
{
    Ok(propagate_bounds(srg, &SrgFlow::new(srg)?, factor))
}

/// One forward error-propagation sweep over an already-built flow: each
/// node's transfer reads the max of its producers' bounds, joined from 0
/// in in-edge order, all of them already final.
fn propagate_bounds(srg: &Srg, flow: &SrgFlow<'_>, factor: impl Fn(NodeId) -> f64) -> ErrorBounds {
    let mut bounds = vec![f64::INFINITY; srg.node_count()];
    for &id in flow.order() {
        let joined = srg
            .in_edges(id)
            .fold(0.0, |acc: f64, e| acc.max(bounds[e.src.index()]));
        bounds[id.index()] = node_bound(srg, id, joined, factor(id));
    }
    ErrorBounds { bounds }
}

/// Epsilon of the value a node produces: widest outgoing element type,
/// falling back to the widest incoming one for sink nodes.
fn output_eps(srg: &Srg, id: NodeId) -> f64 {
    let out = srg
        .out_edges(id)
        .map(|e| elem_eps(e.meta.elem))
        .fold(None, |acc: Option<f64>, e| {
            Some(acc.map_or(e, |a| a.max(e)))
        });
    out.unwrap_or_else(|| {
        srg.in_edges(id)
            .map(|e| elem_eps(e.meta.elem))
            .fold(0.0, f64::max)
    })
}

/// Length of the reduction a node performs, from its input shapes: the
/// `k` in the k·ε local error term.
fn reduction_len(srg: &Srg, id: NodeId) -> f64 {
    let last_dim = |e: &Edge| e.meta.shape.last().copied().unwrap_or(1).max(1) as f64;
    let mut ins = srg.in_edges(id);
    match srg.node(id).op {
        // Dot products of length k (the contracted dimension).
        OpKind::MatMul => ins.next().map(last_dim).unwrap_or(16.0),
        // QKᵀ (length d) + softmax (length seq) + AV (length seq).
        OpKind::Attention => ins
            .next()
            .map(|e| {
                let shape = &e.meta.shape;
                let d = shape.last().copied().unwrap_or(1).max(1) as f64;
                let seq = if shape.len() >= 2 {
                    shape[shape.len() - 2].max(1) as f64
                } else {
                    1.0
                };
                d + 2.0 * seq
            })
            .unwrap_or(64.0),
        // One output accumulates C_in·kh·kw products (weight shape
        // [C_out, C_in, kh, kw]).
        OpKind::Conv2d => ins
            .nth(1)
            .map(|e| {
                e.meta.shape[1..]
                    .iter()
                    .copied()
                    .map(|d| d.max(1) as f64)
                    .product::<f64>()
                    .max(1.0)
            })
            .unwrap_or(64.0),
        // A length-n reduction plus a division/rescale pass.
        OpKind::LayerNorm
        | OpKind::RmsNorm
        | OpKind::Softmax
        | OpKind::BatchNorm
        | OpKind::Reduce => ins.next().map(|e| 2.0 * last_dim(e)).unwrap_or(16.0),
        // One rounding each.
        OpKind::Add | OpKind::Mul => 1.0,
        // Polynomial/rational approximations: a few ulps.
        OpKind::Gelu | OpKind::Silu | OpKind::Pool2d => 4.0,
        _ => 0.0,
    }
}

/// One step of the error transfer function: the bound on a node's
/// output given the join (max) of its inputs' bounds.
fn node_bound(srg: &Srg, id: NodeId, joined: f64, factor: f64) -> f64 {
    match srg.node(id).op {
        // No static model: poison downstream bounds.
        OpKind::Fused(_) | OpKind::CustomKernel(_) => f64::INFINITY,
        // Sources contribute only their representation roundoff.
        OpKind::Input | OpKind::Parameter => output_eps(srg, id),
        // Pure data movement / monotone selection: error flows through.
        OpKind::Relu
        | OpKind::Concat
        | OpKind::Slice
        | OpKind::Reshape
        | OpKind::Transpose
        | OpKind::EmbeddingGather
        | OpKind::KvAppend
        | OpKind::Sample
        | OpKind::Output => joined,
        // Arithmetic: fan-in errors add (bounded by count × max), plus
        // the local reduction term scaled by the schedule factor.
        _ => {
            let fan_in = srg.in_degree(id).max(1) as f64;
            let local = reduction_len(srg, id) * output_eps(srg, id);
            fan_in * joined + factor * local
        }
    }
}

/// Per-node "does a `Critical` edge sit downstream of here" flags,
/// indexed by [`NodeId::index`]: one reverse sweep of the topological
/// order, so every consumer's flag is final before its producer's.
fn critical_downstream(srg: &Srg, flow: &SrgFlow<'_>) -> Vec<bool> {
    let mut feeds = vec![false; srg.node_count()];
    for &id in flow.order().iter().rev() {
        feeds[id.index()] = srg
            .out_edges(id)
            .any(|e| e.criticality == Criticality::Critical || feeds[e.dst.index()]);
    }
    feeds
}

/// GA301/GA302/GA303 at graph level. Factors are unit except where a
/// node carries an explicit [`KERNEL_TIER_ATTR`] — a quantized tier
/// request widens that node's local term even before any plan exists.
pub fn check_precision_consistency(srg: &Srg, cfg: &LintConfig, report: &mut Report) {
    let Ok(flow) = SrgFlow::new(srg) else {
        return; // cyclic graphs are a GA0xx problem
    };
    check_precision_with_factors(
        srg,
        &flow,
        |id| requested_tier(srg.node(id)).map_or(1.0, error_factor),
        cfg,
        report,
    );
}

/// GA301/GA302/GA303 against a plan: the local-error multiplier per
/// node is its kernel tier (from the cost hints) times its device's
/// class factor.
pub(crate) fn check_precision_plan(
    plan: &ExecutionPlan,
    flow: Option<&SrgFlow>,
    topo: &Topology,
    cfg: &LintConfig,
    report: &mut Report,
) {
    let Some(flow) = flow else {
        return; // cyclic graphs are a GA0xx problem
    };
    let srg = &plan.srg;
    let ndev = topo.devices().len();
    check_precision_with_factors(
        srg,
        flow,
        |id| {
            let mut f = error_factor(tier_for_node(srg, id));
            if let Some(dev) = plan.location(id).device() {
                if (dev.0 as usize) < ndev {
                    f *= device_class_error_factor(topo.device(dev).spec.class);
                }
            }
            f
        },
        cfg,
        report,
    );
}

/// The full GA3xx pass over `srg`'s `flow` with an explicit per-node
/// local-error factor.
fn check_precision_with_factors<F>(
    srg: &Srg,
    flow: &SrgFlow<'_>,
    factor: F,
    cfg: &LintConfig,
    report: &mut Report,
) where
    F: Fn(NodeId) -> f64,
{
    // Every sweep runs when first asked for. Bounds are asked for by a
    // tolerance demand, and by a Critical edge under a non-unit factor:
    // with unit factors everywhere (any graph-level check without a
    // `KERNEL_TIER_ATTR`, any plan on exact tiers and unit-factor device
    // classes) the delivered sweep *is* the baseline sweep, so the
    // relative GA301 check cannot fire. `Critical` reachability is asked
    // for only by a node that downcasts its inputs in a graph with a
    // Critical edge.
    let unit_factors = srg.node_ids().all(|id| factor(id) == 1.0);
    let (baseline, scaled) = (OnceCell::new(), OnceCell::new());
    let baseline = || baseline.get_or_init(|| propagate_bounds(srg, flow, |_| 1.0));
    let delivered = || {
        if unit_factors {
            baseline()
        } else {
            scaled.get_or_init(|| propagate_bounds(srg, flow, &factor))
        }
    };
    let any_critical = srg.edges().any(|e| e.criticality == Criticality::Critical);
    let downstream = OnceCell::new();
    let feeds_critical =
        |id: NodeId| downstream.get_or_init(|| critical_downstream(srg, flow))[id.index()];

    for node in srg.nodes() {
        // GA303 — ops with no static error model.
        match &node.op {
            OpKind::Fused(k) => report.push(
                cfg,
                LintCode::ErrorIntervalUnknown,
                Anchor::Node(node.id),
                format!(
                    "fused region {} ({k} ops) has no static error model; \
                     downstream bounds are unbounded",
                    node.name
                ),
            ),
            OpKind::CustomKernel(name) => report.push(
                cfg,
                LintCode::ErrorIntervalUnknown,
                Anchor::Node(node.id),
                format!(
                    "custom kernel {} ({name}) has no static error model; \
                     downstream bounds are unbounded",
                    node.name
                ),
            ),
            _ => {}
        }

        // GA301 (absolute) — explicit tolerance demand vs delivered bound.
        if let Some(tol) = node
            .attrs
            .get(TOLERANCE_ATTR)
            .and_then(|s| s.parse::<f64>().ok())
        {
            let got = delivered().bound(node.id);
            if got > tol {
                report.push(
                    cfg,
                    LintCode::CriticalityToleranceExceeded,
                    Anchor::Node(node.id),
                    format!(
                        "node {} demands relative tolerance {tol:.3e} but the \
                         scheduled kernels deliver a worst-case bound of {got:.3e}",
                        node.name
                    ),
                );
            }
        }

        // GA302 — float downcast feeding a Critical edge downstream.
        if !any_critical {
            continue;
        }
        let in_eps = srg
            .in_edges(node.id)
            .map(|e| elem_eps(e.meta.elem))
            .filter(|&e| e > 0.0)
            .fold(None, |acc: Option<f64>, e| {
                Some(acc.map_or(e, |a| a.max(e)))
            });
        let out_eps = srg
            .out_edges(node.id)
            .map(|e| elem_eps(e.meta.elem))
            .filter(|&e| e > 0.0)
            .fold(None, |acc: Option<f64>, e| {
                Some(acc.map_or(e, |a| a.max(e)))
            });
        if let (Some(ie), Some(oe)) = (in_eps, out_eps) {
            if oe > ie && feeds_critical(node.id) {
                report.push(
                    cfg,
                    LintCode::PrecisionLossyCriticalPath,
                    Anchor::Node(node.id),
                    format!(
                        "node {} downcasts its inputs (output ε {oe:.1e} > input \
                         ε {ie:.1e}) on a path feeding a Critical edge",
                        node.name
                    ),
                );
            }
        }
    }

    // GA301 (relative) — the schedule degraded a Critical value's bound
    // past the slack, even without an explicit tolerance demand. One
    // finding per offending source node.
    if unit_factors {
        return;
    }
    let mut flagged: std::collections::BTreeSet<NodeId> = std::collections::BTreeSet::new();
    for edge in srg.edges() {
        if edge.criticality != Criticality::Critical || !flagged.insert(edge.src) {
            continue;
        }
        let d = delivered().bound(edge.src);
        let b = baseline().bound(edge.src);
        if d > CRITICALITY_SLACK * b {
            report.push(
                cfg,
                LintCode::CriticalityToleranceExceeded,
                Anchor::Edge(edge.id),
                format!(
                    "critical value from {} is delivered at a worst-case bound of \
                     {d:.3e}, more than {CRITICALITY_SLACK}× its baseline {b:.3e}: \
                     the schedule, not the math, degraded it",
                    srg.node(edge.src).name
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_srg::{Node, TensorMeta};

    fn chain() -> (Srg, NodeId, NodeId, NodeId) {
        let mut g = Srg::new("prec");
        let x = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "x"));
        let w = g.add_node(Node::new(NodeId::new(0), OpKind::Parameter, "w"));
        let mm =
            g.add_node(
                Node::new(NodeId::new(0), OpKind::MatMul, "mm")
                    .with_cost(genie_srg::CostHints::new(2.0 * 8.0 * 64.0 * 8.0, 1.0, 1.0)),
            );
        g.connect(x, mm, TensorMeta::new([8, 64], ElemType::F32));
        g.connect(w, mm, TensorMeta::new([64, 8], ElemType::F32));
        let out = g.add_node(Node::new(NodeId::new(0), OpKind::Output, "out"));
        g.connect(mm, out, TensorMeta::new([8, 8], ElemType::F32));
        (g, x, mm, out)
    }

    #[test]
    fn bounds_are_finite_and_monotone_along_the_chain() {
        let (g, x, mm, out) = chain();
        let b = error_bounds(&g).unwrap();
        assert!(b.bound(x) > 0.0 && b.bound(x).is_finite());
        assert!(b.bound(mm) > b.bound(x), "matmul adds a k·ε local term");
        assert!(b.bound(out) >= b.bound(mm), "output only propagates");
        assert!(b.max_finite().unwrap() >= b.bound(out));
        // k = 64 contracted elements: local term alone is 64·ε.
        assert!(b.bound(mm) >= 64.0 * elem_eps(ElemType::F32));
    }

    #[test]
    fn clean_f32_graph_has_no_findings() {
        let (g, ..) = chain();
        let mut r = Report::new("t");
        check_precision_consistency(&g, &LintConfig::new(), &mut r);
        assert!(r.finish().is_empty());
    }

    #[test]
    fn ga301_tolerance_attr_tighter_than_bound_denied() {
        let (mut g, _, mm, _) = chain();
        g.node_mut(mm)
            .attrs
            .insert(TOLERANCE_ATTR.into(), "1e-12".into());
        let mut r = Report::new("t");
        check_precision_consistency(&g, &LintConfig::new(), &mut r);
        let r = r.finish();
        assert_eq!(
            r.with_code(LintCode::CriticalityToleranceExceeded).len(),
            1,
            "{r}"
        );
        assert!(r.has_deny());

        // A loose demand is satisfied.
        let (mut g, _, mm, _) = chain();
        g.node_mut(mm)
            .attrs
            .insert(TOLERANCE_ATTR.into(), "0.1".into());
        let mut r = Report::new("t");
        check_precision_consistency(&g, &LintConfig::new(), &mut r);
        assert!(r.finish().is_empty());
    }

    #[test]
    fn ga301_relative_fires_when_schedule_inflates_critical_value() {
        let (mut g, _, mm, out) = chain();
        let e = g.out_edges(mm).next().unwrap().id;
        let _ = out;
        g.edge_mut(e).criticality = Criticality::Critical;

        // Unit factors: inside the slack.
        let mut r = Report::new("t");
        check_precision_consistency(&g, &LintConfig::new(), &mut r);
        assert!(r.finish().is_empty());

        // A hypothetical 8× lossier kernel on the critical producer
        // blows past the 4× slack.
        let mut r = Report::new("t");
        check_precision_with_factors(
            &g,
            &SrgFlow::new(&g).unwrap(),
            |id| if id == mm { 8.0 } else { 1.0 },
            &LintConfig::new(),
            &mut r,
        );
        let r = r.finish();
        assert_eq!(
            r.with_code(LintCode::CriticalityToleranceExceeded).len(),
            1,
            "{r}"
        );
        assert!(r.has_deny());
    }

    #[test]
    fn ga302_downcast_on_critical_path_warns() {
        let mut g = Srg::new("down");
        let x = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "x"));
        let mm = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "mm"));
        g.connect(x, mm, TensorMeta::new([8, 8], ElemType::F32));
        let out = g.add_node(Node::new(NodeId::new(0), OpKind::Output, "out"));
        let e = g.connect(mm, out, TensorMeta::new([8, 8], ElemType::F16));

        // Not critical: quiet.
        let mut r = Report::new("t");
        check_precision_consistency(&g, &LintConfig::new(), &mut r);
        assert!(r
            .finish()
            .with_code(LintCode::PrecisionLossyCriticalPath)
            .is_empty());

        g.edge_mut(e).criticality = Criticality::Critical;
        let mut r = Report::new("t");
        check_precision_consistency(&g, &LintConfig::new(), &mut r);
        let r = r.finish();
        let hits = r.with_code(LintCode::PrecisionLossyCriticalPath);
        assert_eq!(hits.len(), 1, "{r}");
        assert!(!r.has_deny(), "GA302 warns");
    }

    #[test]
    fn uniform_f16_critical_graph_is_quiet() {
        // Zoo spec graphs are uniformly F16 with Critical edges from
        // the critical-path marker; neither GA301 nor GA302 may fire.
        let mut g = Srg::new("f16");
        let x = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "x"));
        let mm = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "mm"));
        g.connect(x, mm, TensorMeta::new([8, 4096], ElemType::F16));
        let out = g.add_node(Node::new(NodeId::new(0), OpKind::Output, "out"));
        let e = g.connect(mm, out, TensorMeta::new([8, 8], ElemType::F16));
        g.edge_mut(e).criticality = Criticality::Critical;
        let mut r = Report::new("t");
        check_precision_consistency(&g, &LintConfig::new(), &mut r);
        assert!(r.finish().is_empty());
    }

    #[test]
    fn ga303_unknown_op_is_info_and_poisons_bounds() {
        let mut g = Srg::new("fused");
        let x = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "x"));
        let f = g.add_node(Node::new(NodeId::new(0), OpKind::Fused(3), "blk"));
        g.connect(x, f, TensorMeta::new([8, 8], ElemType::F32));
        let out = g.add_node(Node::new(NodeId::new(0), OpKind::Output, "out"));
        g.connect(f, out, TensorMeta::new([8, 8], ElemType::F32));

        let b = error_bounds(&g).unwrap();
        assert!(b.bound(f).is_infinite());
        assert!(b.bound(out).is_infinite(), "poison flows downstream");

        let mut r = Report::new("t");
        check_precision_consistency(&g, &LintConfig::new(), &mut r);
        let r = r.finish();
        assert_eq!(r.with_code(LintCode::ErrorIntervalUnknown).len(), 1, "{r}");
        assert!(!r.has_deny(), "GA303 is informational");
    }

    #[test]
    fn tier_factors_dominate_the_advertised_kernel_error() {
        for t in genie_tensor::stats::PATHS {
            let exact = !t.is_quantized();
            assert_eq!(
                error_factor(t) == 1.0,
                exact,
                "f32 tiers share the k·ε bound"
            );
        }
        // factor · ε_f32 must dominate the advertised per-MAC error.
        let eps = elem_eps(ElemType::F32);
        assert!(error_factor(Path::Int8) * eps >= genie_tensor::quant::INT8_MAC_RELERR);
        assert!(error_factor(Path::Fp16) * eps >= genie_tensor::quant::FP16_MAC_RELERR);
    }

    #[test]
    fn ga301_denies_overtight_int8_plan() {
        // 1e-3 is comfortable for any f32 tier (the 64-wide matmul's
        // bound is ~66·2⁻²⁴ ≈ 4e-6) but far tighter than the int8
        // tier's widened local term (2¹⁸·64·2⁻²⁴ = 1.0) — requesting
        // the quantized tier must flip the plan from clean to denied.
        let (mut g, _, mm, _) = chain();
        g.node_mut(mm)
            .attrs
            .insert(TOLERANCE_ATTR.into(), "1e-3".into());
        let mut r = Report::new("t");
        check_precision_consistency(&g, &LintConfig::new(), &mut r);
        assert!(r.finish().is_empty(), "f32 dispatch meets 1e-3");

        g.node_mut(mm)
            .attrs
            .insert(KERNEL_TIER_ATTR.into(), "int8".into());
        assert_eq!(tier_for_node(&g, mm), Path::Int8);
        let mut r = Report::new("t");
        check_precision_consistency(&g, &LintConfig::new(), &mut r);
        let r = r.finish();
        assert_eq!(
            r.with_code(LintCode::CriticalityToleranceExceeded).len(),
            1,
            "{r}"
        );
        assert!(r.has_deny(), "GA301 denies the int8 plan");

        // A demand the int8 error model can meet is allowed through.
        let (mut g, _, mm, _) = chain();
        g.node_mut(mm)
            .attrs
            .insert(TOLERANCE_ATTR.into(), "8.0".into());
        g.node_mut(mm)
            .attrs
            .insert(KERNEL_TIER_ATTR.into(), "int8".into());
        let mut r = Report::new("t");
        check_precision_consistency(&g, &LintConfig::new(), &mut r);
        assert!(r.finish().is_empty(), "loose tolerance admits int8");
    }

    #[test]
    fn integer_values_are_exact() {
        let mut g = Srg::new("ids");
        let ids = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "ids"));
        let sink = g.add_node(Node::new(NodeId::new(0), OpKind::Output, "sink"));
        g.connect(ids, sink, TensorMeta::new([16], ElemType::I32));
        let b = error_bounds(&g).unwrap();
        assert_eq!(b.bound(ids), 0.0);
        assert_eq!(b.bound(sink), 0.0);
    }
}
