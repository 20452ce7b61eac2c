//! SRG-level passes: semantic checks a captured graph must satisfy before
//! any scheduler may plan on it (the capture-time gate).
//!
//! Each pass is independently callable; [`run_srg_passes`] runs them all
//! (plus the graph-level GA3xx precision passes from
//! [`crate::precision_passes`]) under per-pass timing spans and returns
//! one canonical [`Report`].

use crate::diag::{timed_pass, Anchor, LintCode, LintConfig, Report};
use genie_srg::{ElemType, OpKind, Phase, Residency, Srg};

/// Run every SRG pass under `cfg` and return the merged report.
pub fn run_srg_passes(srg: &Srg, cfg: &LintConfig) -> Report {
    let mut report = Report::new(srg.name.clone());
    timed_pass("lint.shapes", || check_shapes(srg, cfg, &mut report));
    timed_pass("lint.dtypes", || check_dtypes(srg, cfg, &mut report));
    timed_pass("lint.phases", || check_phases(srg, cfg, &mut report));
    timed_pass("lint.residency", || check_residency(srg, cfg, &mut report));
    timed_pass("lint.cost_hints", || {
        check_cost_hints(srg, cfg, &mut report)
    });
    timed_pass("lint.rates", || check_rates(srg, cfg, &mut report));
    timed_pass("lint.annotation_gaps", || {
        check_annotation_gaps(srg, cfg, &mut report)
    });
    timed_pass("lint.precision", || {
        crate::precision_passes::check_precision_consistency(srg, cfg, &mut report)
    });
    report.finish().record_metrics()
}

/// The items of `it` when there are exactly `N` of them.
fn exactly<T: Copy + Default, const N: usize>(mut it: impl Iterator<Item = T>) -> Option<[T; N]> {
    let mut out = [T::default(); N];
    for slot in &mut out {
        *slot = it.next()?;
    }
    it.next().is_none().then_some(out)
}

/// Shapes on a node's in-edges, in slot order.
fn input_shapes(srg: &Srg, node: genie_srg::NodeId) -> impl Iterator<Item = &[usize]> {
    srg.in_edges(node).map(|e| e.meta.shape.as_slice())
}

/// GA001 — shape propagation: every op family with known composition rules
/// gets its input `TensorMeta`s checked against each other.
pub fn check_shapes(srg: &Srg, cfg: &LintConfig, report: &mut Report) {
    for node in srg.nodes() {
        let shapes = || input_shapes(srg, node.id);
        let mut flag = |msg: String| {
            report.push(cfg, LintCode::ShapeMismatch, Anchor::Node(node.id), msg);
        };
        match &node.op {
            OpKind::MatMul => {
                if let Some([a, b]) = exactly(shapes()) {
                    if a.len() == 2 && b.len() == 2 && a[1] != b[0] {
                        flag(format!(
                            "matmul inner dims disagree: [{},{}] x [{},{}]",
                            a[0], a[1], b[0], b[1]
                        ));
                    }
                }
            }
            OpKind::Attention => {
                if let Some([q, k, v]) = exactly(shapes()) {
                    if k != v {
                        flag(format!("attention k {k:?} vs v {v:?}"));
                    } else if q.len() == 2 && k.len() == 2 && q[1] != k[1] {
                        flag(format!("attention model dims disagree: q {q:?} vs k {k:?}"));
                    }
                }
            }
            OpKind::KvAppend => {
                if let Some([cache, new]) = exactly(shapes()) {
                    if cache.len() == 2 && new.len() == 2 && cache[1] != new[1] {
                        flag(format!(
                            "kv_append row width {} vs cache width {}",
                            new[1], cache[1]
                        ));
                    }
                }
            }
            OpKind::Concat => {
                let dim: usize = node
                    .attrs
                    .get("dim")
                    .and_then(|d| d.parse().ok())
                    .unwrap_or(0);
                let mut rest = shapes();
                if let Some(a) = rest.next() {
                    for b in rest {
                        let ranks_match = a.len() == b.len() && dim < a.len();
                        let other_dims_match = ranks_match
                            && a.iter()
                                .zip(b.iter())
                                .enumerate()
                                .all(|(i, (x, y))| i == dim || x == y);
                        if !ranks_match || !other_dims_match {
                            flag(format!("concat along dim {dim}: {a:?} vs {b:?}"));
                        }
                    }
                }
            }
            OpKind::Add | OpKind::Mul => {
                // `add_bias` legitimately broadcasts a rank-1 bias over the
                // innermost dim and is marked with a "bias" attr.
                if node.attrs.contains_key("bias") {
                    if let Some([x, b]) = exactly(shapes()) {
                        if b.len() != 1 || x.last() != b.first() {
                            flag(format!("bias {b:?} does not match innermost of {x:?}"));
                        }
                    }
                } else if let Some([a, b]) = exactly(shapes()) {
                    if a != b {
                        flag(format!("elementwise operands {a:?} vs {b:?}"));
                    }
                }
            }
            OpKind::Conv2d => {
                let mut ins = shapes();
                if let (Some(x), Some(w)) = (ins.next(), ins.next()) {
                    if x.len() == 4 && w.len() == 4 && x[1] != w[1] {
                        flag(format!(
                            "conv2d input channels {} vs weight channels {}",
                            x[1], w[1]
                        ));
                    }
                }
            }
            _ => {}
        }
    }
}

fn is_index_elem(e: ElemType) -> bool {
    matches!(e, ElemType::I64 | ElemType::I32 | ElemType::Bool)
}

/// GA002 — dtype propagation: arithmetic ops must not silently mix element
/// types (index inputs like I64 gather indices are exempt).
pub fn check_dtypes(srg: &Srg, cfg: &LintConfig, report: &mut Report) {
    for node in srg.nodes() {
        if !matches!(
            node.op,
            OpKind::MatMul
                | OpKind::Attention
                | OpKind::KvAppend
                | OpKind::Concat
                | OpKind::Add
                | OpKind::Mul
        ) {
            continue;
        }
        let mut elems = srg
            .in_edges(node.id)
            .map(|e| e.meta.elem)
            .filter(|e| !is_index_elem(*e));
        if let Some(first) = elems.next() {
            if let Some(other) = elems.find(|e| *e != first) {
                report.push(
                    cfg,
                    LintCode::DtypeMismatch,
                    Anchor::Node(node.id),
                    format!("{} mixes {} and {} inputs", node.op, first, other),
                );
            }
        }
    }
}

fn phase_order(p: &Phase) -> Option<u8> {
    // Only phases with a defined pipeline position participate; Unknown
    // and orthogonal phases (vision, fusion, ...) are compatible with all.
    match p {
        Phase::LlmPrefill | Phase::TrainForward => Some(0),
        Phase::LlmDecode | Phase::TrainBackward => Some(1),
        _ => None,
    }
}

fn same_family(a: &Phase, b: &Phase) -> bool {
    let llm = |p: &Phase| matches!(p, Phase::LlmPrefill | Phase::LlmDecode);
    let train = |p: &Phase| matches!(p, Phase::TrainForward | Phase::TrainBackward);
    (llm(a) && llm(b)) || (train(a) && train(b))
}

/// GA003 — phase coherence: a pipeline-earlier phase must never consume a
/// pipeline-later one (prefill cannot depend on decode; the forward pass
/// cannot depend on the backward pass).
pub fn check_phases(srg: &Srg, cfg: &LintConfig, report: &mut Report) {
    for edge in srg.edges() {
        let src = &srg.node(edge.src).phase;
        let dst = &srg.node(edge.dst).phase;
        if !same_family(src, dst) {
            continue;
        }
        if let (Some(a), Some(b)) = (phase_order(src), phase_order(dst)) {
            if a > b {
                report.push(
                    cfg,
                    LintCode::PhaseIncoherence,
                    Anchor::Edge(edge.id),
                    format!("{} node {} feeds {} node {}", src, edge.src, dst, edge.dst),
                );
            }
        }
    }
}

/// GA004 — KV residency: a `StatefulKvCache` value may only flow into
/// `KvAppend` (growing it) or `Attention` (reading it). Anything else
/// treats session state as a throwaway activation.
pub fn check_residency(srg: &Srg, cfg: &LintConfig, report: &mut Report) {
    for node in srg.nodes() {
        if node.residency != Residency::StatefulKvCache {
            continue;
        }
        for edge in srg.out_edges(node.id) {
            let consumer = srg.node(edge.dst);
            if !matches!(consumer.op, OpKind::KvAppend | OpKind::Attention) {
                report.push(
                    cfg,
                    LintCode::KvResidencyViolation,
                    Anchor::Edge(edge.id),
                    format!(
                        "kv cache {} consumed by {} node {}",
                        node.id, consumer.op, edge.dst
                    ),
                );
            }
        }
    }
}

/// GA005 / GA006 — cost-hint sanity: compute-heavy ops must carry FLOPs
/// (GA005, deny), and a matmul's FLOPs must agree with its shapes within
/// 4× (GA006, warn).
pub fn check_cost_hints(srg: &Srg, cfg: &LintConfig, report: &mut Report) {
    for node in srg.nodes() {
        let heavy = matches!(node.op, OpKind::MatMul | OpKind::Attention | OpKind::Conv2d);
        if !heavy {
            continue;
        }
        if node.cost.flops <= 0.0 {
            report.push(
                cfg,
                LintCode::ZeroFlopCompute,
                Anchor::Node(node.id),
                format!("{} node {} has zero FLOPs", node.op, node.id),
            );
            continue;
        }
        if node.op == OpKind::MatMul {
            if let Some([a, b]) = exactly(input_shapes(srg, node.id)) {
                if a.len() == 2 && b.len() == 2 && a[1] == b[0] {
                    let expected = 2.0 * a[0] as f64 * a[1] as f64 * b[1] as f64;
                    let ratio = node.cost.flops / expected.max(1.0);
                    if !(0.25..=4.0).contains(&ratio) {
                        report.push(
                            cfg,
                            LintCode::CostHintInconsistent,
                            Anchor::Node(node.id),
                            format!(
                                "matmul {} claims {:.3e} FLOPs, shapes imply {expected:.3e}",
                                node.id, node.cost.flops
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// GA007 — rate sanity: the consumer side of an edge cannot read more
/// bytes than the producer side emits.
pub fn check_rates(srg: &Srg, cfg: &LintConfig, report: &mut Report) {
    for edge in srg.edges() {
        let r = edge.rate;
        if r.produced_bytes > 0.0 && r.consumed_bytes > r.produced_bytes * 1.001 {
            report.push(
                cfg,
                LintCode::RateInconsistent,
                Anchor::Edge(edge.id),
                format!(
                    "edge {} consumes {:.0} B but produces {:.0} B",
                    edge.id, r.consumed_bytes, r.produced_bytes
                ),
            );
        }
    }
}

/// GA008 — annotation completeness: a device-work compute node with
/// neither a phase nor a module path is invisible to every semantic
/// optimization the paper motivates.
pub fn check_annotation_gaps(srg: &Srg, cfg: &LintConfig, report: &mut Report) {
    for node in srg.nodes() {
        if node.op.is_source() || node.op.is_metadata_only() {
            continue;
        }
        if node.phase == Phase::Unknown && node.module_path.is_empty() {
            report.push(
                cfg,
                LintCode::AnnotationGap,
                Anchor::Node(node.id),
                format!(
                    "{} node {} has no phase and no module path",
                    node.op, node.id
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_srg::{CostHints, Node, NodeId, Rate, TensorMeta};

    fn meta(shape: &[usize]) -> TensorMeta {
        TensorMeta::new(shape.to_vec(), ElemType::F32)
    }

    fn lint(srg: &Srg) -> Report {
        run_srg_passes(srg, &LintConfig::new())
    }

    #[test]
    fn ga001_matmul_inner_dim_mismatch() {
        let mut g = Srg::new("bad-matmul");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "b"));
        let mm = g.add_node(
            Node::new(NodeId::new(0), OpKind::MatMul, "mm")
                .with_cost(CostHints::new(1e6, 1.0, 1.0)),
        );
        g.connect(a, mm, meta(&[2, 3]));
        g.connect(b, mm, meta(&[5, 7]));
        let r = lint(&g);
        assert_eq!(r.with_code(LintCode::ShapeMismatch).len(), 1, "{r}");
        assert!(r.has_deny());
    }

    #[test]
    fn ga001_concat_axis_mismatch() {
        let mut g = Srg::new("bad-concat");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "b"));
        let c = g.add_node(Node::new(NodeId::new(0), OpKind::Concat, "cat").with_attr("dim", "1"));
        g.connect(a, c, meta(&[2, 4]));
        g.connect(b, c, meta(&[3, 4])); // dim-0 differs, concat is along 1
        let r = lint(&g);
        assert_eq!(r.with_code(LintCode::ShapeMismatch).len(), 1, "{r}");
    }

    #[test]
    fn ga002_dtype_mix_detected() {
        let mut g = Srg::new("bad-dtype");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "b"));
        let add = g.add_node(Node::new(NodeId::new(0), OpKind::Add, "add"));
        g.connect(a, add, meta(&[4]));
        g.connect(b, add, TensorMeta::new([4], ElemType::F16));
        let r = lint(&g);
        assert_eq!(r.with_code(LintCode::DtypeMismatch).len(), 1, "{r}");
    }

    #[test]
    fn ga003_decode_feeding_prefill() {
        let mut g = Srg::new("bad-phase");
        let a =
            g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a").with_phase(Phase::LlmDecode));
        let b =
            g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b").with_phase(Phase::LlmPrefill));
        g.connect(a, b, meta(&[4]));
        let r = lint(&g);
        assert_eq!(r.with_code(LintCode::PhaseIncoherence).len(), 1, "{r}");

        // The legal direction is clean.
        let mut ok = Srg::new("ok-phase");
        let a = ok
            .add_node(Node::new(NodeId::new(0), OpKind::Input, "a").with_phase(Phase::LlmPrefill));
        let b =
            ok.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b").with_phase(Phase::LlmDecode));
        ok.connect(a, b, meta(&[4]));
        assert!(lint(&ok).with_code(LintCode::PhaseIncoherence).is_empty());
    }

    #[test]
    fn ga003_backward_feeding_forward() {
        let mut g = Srg::new("bad-train");
        let a = g.add_node(
            Node::new(NodeId::new(0), OpKind::Input, "grad").with_phase(Phase::TrainBackward),
        );
        let b = g.add_node(
            Node::new(NodeId::new(0), OpKind::Relu, "fwd").with_phase(Phase::TrainForward),
        );
        g.connect(a, b, meta(&[4]));
        assert_eq!(lint(&g).with_code(LintCode::PhaseIncoherence).len(), 1);
    }

    #[test]
    fn ga004_kv_cache_into_wrong_consumer() {
        let mut g = Srg::new("bad-kv");
        let kv = g.add_node(
            Node::new(NodeId::new(0), OpKind::Input, "kv")
                .with_residency(Residency::StatefulKvCache),
        );
        let relu = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "relu"));
        g.connect(kv, relu, meta(&[2, 4]));
        let r = lint(&g);
        assert_eq!(r.with_code(LintCode::KvResidencyViolation).len(), 1, "{r}");

        // The blessed consumers are clean.
        let mut ok = Srg::new("ok-kv");
        let kv = ok.add_node(
            Node::new(NodeId::new(0), OpKind::Input, "kv")
                .with_residency(Residency::StatefulKvCache),
        );
        let row = ok.add_node(Node::new(NodeId::new(0), OpKind::Input, "row"));
        let app = ok.add_node(Node::new(NodeId::new(0), OpKind::KvAppend, "app"));
        ok.connect(kv, app, meta(&[2, 4]));
        ok.connect(row, app, meta(&[1, 4]));
        assert!(lint(&ok)
            .with_code(LintCode::KvResidencyViolation)
            .is_empty());
    }

    #[test]
    fn ga005_zero_flop_matmul() {
        let mut g = Srg::new("zero-flops");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "b"));
        let mm = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "mm"));
        g.connect(a, mm, meta(&[2, 3]));
        g.connect(b, mm, meta(&[3, 4]));
        let r = lint(&g);
        assert_eq!(r.with_code(LintCode::ZeroFlopCompute).len(), 1, "{r}");
        // Zero-FLOP gathers / kv_appends are legitimate and not flagged.
        assert!(r.with_code(LintCode::CostHintInconsistent).is_empty());
    }

    #[test]
    fn ga006_cost_hint_off_by_10x() {
        let mut g = Srg::new("bad-cost");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "b"));
        let mm = g.add_node(
            Node::new(NodeId::new(0), OpKind::MatMul, "mm").with_cost(CostHints::new(
                2.0 * 2.0 * 3.0 * 4.0 * 10.0,
                1.0,
                1.0,
            )),
        );
        g.connect(a, mm, meta(&[2, 3]));
        g.connect(b, mm, meta(&[3, 4]));
        let r = lint(&g);
        assert_eq!(r.with_code(LintCode::CostHintInconsistent).len(), 1, "{r}");
        assert!(!r.has_deny(), "GA006 is warn-level by default");
    }

    #[test]
    fn ga007_consumer_exceeds_producer() {
        let mut g = Srg::new("bad-rate");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b"));
        let e = g.connect(a, b, meta(&[4]));
        g.edge_mut(e).rate = Rate {
            produced_bytes: 16.0,
            consumed_bytes: 64.0,
        };
        let r = lint(&g);
        assert_eq!(r.with_code(LintCode::RateInconsistent).len(), 1, "{r}");
    }

    #[test]
    fn ga008_unannotated_compute_is_info() {
        let mut g = Srg::new("bare");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b"));
        g.connect(a, b, meta(&[4]));
        let r = lint(&g);
        assert_eq!(r.with_code(LintCode::AnnotationGap).len(), 1, "{r}");
        assert!(!r.has_deny(), "info never gates");

        // A module path (or phase) closes the gap.
        let mut ok = Srg::new("scoped");
        let a = ok.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = ok.add_node(Node::new(NodeId::new(0), OpKind::Relu, "b").with_module_path("mlp"));
        ok.connect(a, b, meta(&[4]));
        assert!(lint(&ok).with_code(LintCode::AnnotationGap).is_empty());
    }

    #[test]
    fn allow_suppresses_a_deny() {
        let mut g = Srg::new("bad-kv");
        let kv = g.add_node(
            Node::new(NodeId::new(0), OpKind::Input, "kv")
                .with_residency(Residency::StatefulKvCache),
        );
        let relu = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "relu"));
        g.connect(kv, relu, meta(&[2, 4]));
        let cfg = LintConfig::new().allow(LintCode::KvResidencyViolation);
        let r = run_srg_passes(&g, &cfg);
        assert!(r.with_code(LintCode::KvResidencyViolation).is_empty());
    }
}
