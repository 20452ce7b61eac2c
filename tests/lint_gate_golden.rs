//! The capture-time lint gate, pinned byte for byte.
//!
//! `run_srg_passes` is on the critical path of every captured step, so
//! it gets optimized; its `Report` (codes, anchors, messages, order)
//! must not move when it does. This suite renders the reports of the
//! paper-scale zoo graphs and of one negative fixture per rule branch
//! (GA001–GA008, GA301–GA303, with and without `KERNEL_TIER_ATTR` so
//! both the shared-solve and the two-solve precision paths run) and
//! compares them with `tests/golden/srg_lint_reports.txt`, rendered by
//! the implementation as it stood before the single-solve rewrite.

use genie::analysis::{run_srg_passes, LintConfig, KERNEL_TIER_ATTR, TOLERANCE_ATTR};
use genie::frontend::capture::CaptureCtx;
use genie::models::{TransformerConfig, TransformerLm, Workload};
use genie::srg::{
    CostHints, Criticality, ElemType, Node, NodeId, OpKind, Phase, Rate, Residency, Srg, TensorMeta,
};

fn f32s(shape: &[usize]) -> TensorMeta {
    TensorMeta::new(shape.to_vec(), ElemType::F32)
}

fn node(g: &mut Srg, kind: OpKind, name: &str) -> NodeId {
    g.add_node(op(kind, name))
}

/// `op` fed by one fresh `Input` per entry of `inputs`.
fn fed(name: &str, op: Node, inputs: &[TensorMeta]) -> Srg {
    let mut g = Srg::new(name);
    let srcs: Vec<NodeId> = (0..inputs.len())
        .map(|i| node(&mut g, OpKind::Input, &format!("in{i}")))
        .collect();
    let dst = g.add_node(op);
    for (src, meta) in srcs.into_iter().zip(inputs) {
        g.connect(src, dst, meta.clone());
    }
    g
}

fn op(kind: OpKind, name: &str) -> Node {
    Node::new(NodeId::new(0), kind, name)
}

/// x[8,64] · w[64,8] → out, the precision passes' reference chain.
fn matmul_chain() -> (Srg, NodeId) {
    let mut g = Srg::new("prec");
    let x = node(&mut g, OpKind::Input, "x");
    let w = node(&mut g, OpKind::Parameter, "w");
    let mm = g.add_node(op(OpKind::MatMul, "mm").with_cost(CostHints::new(
        2.0 * 8.0 * 64.0 * 8.0,
        1.0,
        1.0,
    )));
    g.connect(x, mm, f32s(&[8, 64]));
    g.connect(w, mm, f32s(&[64, 8]));
    let out = node(&mut g, OpKind::Output, "out");
    g.connect(mm, out, f32s(&[8, 8]));
    (g, mm)
}

fn negative_fixtures() -> Vec<Srg> {
    let heavy = CostHints::new(1e6, 1.0, 1.0);
    let mut all = vec![
        // GA001, one per composition rule.
        fed(
            "ga001.matmul",
            op(OpKind::MatMul, "mm").with_cost(heavy),
            &[f32s(&[2, 3]), f32s(&[5, 7])],
        ),
        fed(
            "ga001.attention_kv",
            op(OpKind::Attention, "attn").with_cost(heavy),
            &[f32s(&[1, 8]), f32s(&[4, 8]), f32s(&[5, 8])],
        ),
        fed(
            "ga001.attention_dim",
            op(OpKind::Attention, "attn").with_cost(heavy),
            &[f32s(&[1, 8]), f32s(&[4, 16]), f32s(&[4, 16])],
        ),
        fed(
            "ga001.kv_append",
            op(OpKind::KvAppend, "app"),
            &[f32s(&[2, 4]), f32s(&[1, 8])],
        ),
        fed(
            "ga001.concat",
            op(OpKind::Concat, "cat").with_attr("dim", "1"),
            &[f32s(&[2, 4]), f32s(&[3, 4]), f32s(&[2, 4, 1])],
        ),
        fed(
            "ga001.bias",
            op(OpKind::Add, "bias").with_attr("bias", "1"),
            &[f32s(&[2, 4]), f32s(&[3])],
        ),
        fed(
            "ga001.elementwise",
            op(OpKind::Mul, "mul"),
            &[f32s(&[2, 4]), f32s(&[4, 2])],
        ),
        fed(
            "ga001.conv2d",
            op(OpKind::Conv2d, "conv").with_cost(heavy),
            &[f32s(&[1, 3, 8, 8]), f32s(&[4, 2, 3, 3]), f32s(&[4])],
        ),
        // GA002: float mix flagged, index operand exempt.
        fed(
            "ga002.dtype",
            op(OpKind::Add, "add"),
            &[
                f32s(&[4]),
                TensorMeta::new([4], ElemType::I64),
                TensorMeta::new([4], ElemType::F16),
            ],
        ),
        // GA005 / GA006.
        fed(
            "ga005.zero_flops",
            op(OpKind::MatMul, "mm"),
            &[f32s(&[2, 3]), f32s(&[3, 4])],
        ),
        fed(
            "ga006.cost_hint",
            op(OpKind::MatMul, "mm").with_cost(CostHints::new(480.0, 1.0, 1.0)),
            &[f32s(&[2, 3]), f32s(&[3, 4])],
        ),
        // GA008.
        fed("ga008.bare", op(OpKind::Relu, "relu"), &[f32s(&[4])]),
    ];

    // GA003: decode feeding prefill.
    let mut g = Srg::new("ga003.phase");
    let a = g.add_node(op(OpKind::Input, "a").with_phase(Phase::LlmDecode));
    let b = g.add_node(op(OpKind::Relu, "b").with_phase(Phase::LlmPrefill));
    g.connect(a, b, f32s(&[4]));
    all.push(g);

    // GA004: a KV cache consumed by a non-KV op.
    let mut g = Srg::new("ga004.kv");
    let kv = g.add_node(op(OpKind::Input, "kv").with_residency(Residency::StatefulKvCache));
    let relu = node(&mut g, OpKind::Relu, "relu");
    g.connect(kv, relu, f32s(&[2, 4]));
    all.push(g);

    // GA007: consumer reads more than the producer emits.
    let mut g = Srg::new("ga007.rate");
    let a = node(&mut g, OpKind::Input, "a");
    let b = node(&mut g, OpKind::Relu, "b");
    let e = g.connect(a, b, f32s(&[4]));
    g.edge_mut(e).rate = Rate {
        produced_bytes: 16.0,
        consumed_bytes: 64.0,
    };
    all.push(g);

    // GA301 (absolute), unit factors: the shared-solve path.
    let (mut g, mm) = matmul_chain();
    g.name = "ga301.tolerance".into();
    g.node_mut(mm)
        .attrs
        .insert(TOLERANCE_ATTR.into(), "1e-12".into());
    all.push(g);

    // GA301 (absolute) under an int8 tier: the two-solve path.
    let (mut g, mm) = matmul_chain();
    g.name = "ga301.int8".into();
    let attrs = &mut g.node_mut(mm).attrs;
    attrs.insert(TOLERANCE_ATTR.into(), "1e-3".into());
    attrs.insert(KERNEL_TIER_ATTR.into(), "int8".into());
    all.push(g);

    // GA301 (relative): an int8 producer of a Critical value.
    let (mut g, mm) = matmul_chain();
    g.name = "ga301.relative".into();
    let e = g.out_edges(mm).next().expect("mm feeds out").id;
    g.edge_mut(e).criticality = Criticality::Critical;
    g.node_mut(mm)
        .attrs
        .insert(KERNEL_TIER_ATTR.into(), "int8".into());
    all.push(g);

    // GA302: f32 → f16 downcast on a Critical path.
    let mut g = Srg::new("ga302.downcast");
    let x = node(&mut g, OpKind::Input, "x");
    let mm = node(&mut g, OpKind::MatMul, "mm");
    g.connect(x, mm, f32s(&[8, 8]));
    let out = node(&mut g, OpKind::Output, "out");
    let e = g.connect(mm, out, TensorMeta::new([8, 8], ElemType::F16));
    g.edge_mut(e).criticality = Criticality::Critical;
    all.push(g);

    // GA303: fused and custom kernels have no error model.
    let mut g = Srg::new("ga303.unknown");
    let x = node(&mut g, OpKind::Input, "x");
    let f = node(&mut g, OpKind::Fused(3), "blk");
    g.connect(x, f, f32s(&[8, 8]));
    let k = node(&mut g, OpKind::CustomKernel("flash".into()), "ck");
    g.connect(f, k, f32s(&[8, 8]));
    all.push(g);

    all
}

/// The four paper-scale zoo families plus a GPT-J prefill: five spec
/// graphs, annotated (so `Critical` edges are present).
fn zoo_graphs() -> Vec<Srg> {
    let mut all: Vec<Srg> = Workload::ALL.iter().map(Workload::spec_graph).collect();
    let lm = TransformerLm::new_spec(TransformerConfig::gptj_6b());
    let ctx = CaptureCtx::new("llm.prefill");
    lm.capture_prefill(&ctx, &[0; 72]).logits.mark_output();
    let mut srg = ctx.finish().srg;
    genie::frontend::patterns::run_all(&mut srg);
    genie::frontend::annotate::finalize(&mut srg, 1e-3);
    all.push(srg);
    all
}

#[test]
fn srg_pass_reports_are_byte_identical_to_the_golden_rendering() {
    let cfg = LintConfig::new();
    let rendered: String = zoo_graphs()
        .iter()
        .chain(&negative_fixtures())
        .map(|g| run_srg_passes(g, &cfg).render())
        .collect();
    let golden = include_str!("golden/srg_lint_reports.txt");
    assert!(
        rendered == golden,
        "lint reports moved; rendered now:\n{rendered}"
    );
    // The fixtures do exercise what they claim to.
    for code in [
        "GA001", "GA002", "GA003", "GA004", "GA005", "GA006", "GA007", "GA008", "GA301", "GA302",
        "GA303",
    ] {
        assert!(golden.contains(code), "{code} absent from the golden file");
    }
}
