//! The capture-time and plan-time lint gates, pinned byte for byte.
//!
//! `run_srg_passes` is on the critical path of every captured step and
//! `run_plan_passes` on that of every scheduled plan, so both get
//! optimized; their `Report`s (codes, anchors, messages, order) must not
//! move when they do.
//!
//! The graph gate's suite renders the reports of the paper-scale zoo
//! graphs and of one negative fixture per rule branch (GA001–GA008,
//! GA301–GA303, with and without `KERNEL_TIER_ATTR` so both the
//! shared-sweep and the two-sweep precision paths run) and compares them
//! with `tests/golden/srg_lint_reports.txt`, rendered by the
//! implementation as it stood before the single-solve rewrite.
//!
//! The plan gate's suite renders `lint_plan` over the five families the
//! control-path benchmark schedules (under `SemanticsAware` on the paper
//! testbed, and under `RoundRobin` on a four-server rack, which splits
//! KV caches and ships activations between every pair of ops) and over
//! one hand-built plan per rule branch (GA101 overcommit, fit,
//! pinned-backed value, absent device and cyclic fallback; GA102, GA103,
//! GA104, GA201–GA204, a transfer on a cyclic edge, and GA3xx against a plan),
//! and compares them with `tests/golden/plan_lint_reports.txt`, rendered
//! by the implementation as it stood before the interval-sweep rewrite.
//!
//! The plans themselves are pinned too: `tests/golden/plans.txt` holds
//! every control-path graph as each plain-graph policy places it on three
//! cluster states, with its transfers, pinned uploads, estimate, lint
//! codes and simulation, rendered before the plan shared its graph and
//! indexed its placements densely.

use genie::analysis::{run_srg_passes, LintConfig, KERNEL_TIER_ATTR, TOLERANCE_ATTR};
use genie::backend::simulate_once;
use genie::cluster::{ClusterState, DevId, GpuSpec, Link, Topology};
use genie::frontend::capture::CaptureCtx;
use genie::models::{
    CnnConfig, Dlrm, DlrmConfig, KvState, Multimodal, MultimodalConfig, SimpleCnn,
    TransformerConfig, TransformerLm, Workload,
};
use genie::netsim::{RpcParams, TraceEvent};
use genie::scheduler::{
    lint_plan, schedule_with_lints, CostBreakdown, CostModel, DataAware, ExecutionPlan,
    LeastLoaded, Location, Policy, RoundRobin, SemanticsAware, Transfer,
};
use genie::srg::{
    CostHints, Criticality, EdgeId, ElemType, Node, NodeId, OpKind, Phase, Rate, Residency, Srg,
    TensorId, TensorMeta,
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

/// The five families the control-path benchmark schedules, at one fixed
/// input set each, annotated the way its pipeline annotates them.
fn control_path_graphs() -> Vec<Srg> {
    let lm = TransformerLm::new_spec(TransformerConfig::gptj_6b());
    let prompt: Vec<i64> = (0..24).map(|t| t * 31 + 5).collect();
    let mut graphs = Vec::new();
    for (name, prefill) in [("gptj_decode", false), ("gptj_prefill", true)] {
        let ctx = CaptureCtx::new(name);
        let cap = if prefill {
            lm.capture_prefill(&ctx, &prompt)
        } else {
            lm.capture_decode_step(&ctx, 7, &KvState::default())
        };
        cap.logits.sample().mark_output();
        for (k, v) in cap.k_caches.iter().zip(&cap.v_caches) {
            k.mark_output();
            v.mark_output();
        }
        graphs.push(ctx.finish().srg);
    }
    let ctx = CaptureCtx::new("resnet");
    SimpleCnn::new_spec(CnnConfig::resnet_like())
        .capture_inference(&ctx, 4, None)
        .mark_output();
    graphs.push(ctx.finish().srg);
    let dlrm = DlrmConfig::production_like();
    let ids: Vec<Vec<i64>> = (0..dlrm.tables)
        .map(|t| (0..8).map(|i| (t * 97 + i * 13) as i64).collect())
        .collect();
    let ctx = CaptureCtx::new("dlrm");
    Dlrm::new_spec(dlrm)
        .capture_inference(&ctx, &ids, None)
        .mark_output();
    graphs.push(ctx.finish().srg);
    let ctx = CaptureCtx::new("vqa");
    Multimodal::new_spec(MultimodalConfig::vqa_like())
        .capture_inference(&ctx, &[5, 9, 2, 7, 1, 8, 3, 4], None)
        .mark_output();
    graphs.push(ctx.finish().srg);
    for srg in &mut graphs {
        genie::frontend::patterns::run_all(srg);
        genie::frontend::annotate::finalize(srg, 1e-3);
    }
    graphs
}

/// `lint_plan` over every control-path graph as `SemanticsAware` plans it
/// on the paper testbed, and as `RoundRobin` plans it on a 4-server rack
/// and on two 1 MiB devices (where GA101 prints every plan's demand).
fn scheduled_reports(cfg: &LintConfig) -> String {
    let state = ClusterState::new();
    let aware = SemanticsAware::new();
    let setups: [(Topology, CostModel, &dyn Policy); 3] = [
        (Topology::paper_testbed(), CostModel::paper_stack(), &aware),
        (Topology::rack(4, 25e9), CostModel::ideal_25g(), &RoundRobin),
        (gpus_of(1 << 20), CostModel::ideal_25g(), &RoundRobin),
    ];
    let graphs = control_path_graphs();
    let mut out = String::new();
    for (topo, cost, policy) in &setups {
        for srg in &graphs {
            let plan = schedule_with_lints(srg, topo, &state, cost, *policy, cfg);
            out += &lint_plan(&plan, topo, &state, cfg).render();
        }
    }
    out
}

const CLIENT: Location = Location::ClientCpu;
const D0: Location = Location::Device(DevId(0));
const D1: Location = Location::Device(DevId(1));

/// A client and one server holding two devices of `spec`.
fn two_gpus(spec: GpuSpec) -> Topology {
    let mut t = Topology::new();
    let client = t.add_host("client");
    let server = t.add_host("server");
    t.add_device(server, spec.clone());
    t.add_device(server, spec);
    t.add_link(client, server, Link::PAPER_TESTBED);
    t
}

/// Two A100-class devices with `mem` bytes each.
fn gpus_of(mem: u64) -> Topology {
    two_gpus(GpuSpec {
        mem_capacity: mem,
        ..GpuSpec::a100_80gb()
    })
}

/// A hand-built plan: node `i` of `srg` runs at `at[i]`.
fn plan(
    srg: Srg,
    at: &[Location],
    transfers: Vec<Transfer>,
    pinned_uploads: Vec<(TensorId, DevId, u64)>,
) -> ExecutionPlan {
    assert_eq!(at.len(), srg.node_count(), "one location per node");
    ExecutionPlan {
        policy: "fixture".into(),
        placements: at.to_vec(),
        srg,
        transfers,
        pinned_uploads,
        estimate: CostBreakdown::default(),
        diagnostics: Vec::new(),
    }
}

/// A transfer of `edge`'s tensor declared on the channel `from → to`.
fn xfer(srg: &Srg, edge: EdgeId, from: Location, to: Location, via_handle: bool) -> Transfer {
    let e = srg.edge(edge);
    Transfer {
        edge,
        tensor: e.tensor,
        from,
        to,
        bytes: e.transfer_bytes() as u64,
        via_handle,
    }
}

/// 1 MB of f32.
fn mb() -> TensorMeta {
    f32s(&[250, 1000])
}

/// One hand-built plan per plan-gate rule branch, each with the topology
/// it is checked against.
fn plan_fixtures() -> Vec<(ExecutionPlan, Topology)> {
    let mut all = Vec::new();

    // GA101 overcommit: `a` stays live across both consumers, and the
    // values that cross to d1 are charged there too (3 MB > 2.5 MB),
    // while d0 peaks at 2 MB.
    let mut g = Srg::new("ga101.overcommit");
    let a = node(&mut g, OpKind::Input, "a");
    let b = node(&mut g, OpKind::Relu, "b");
    let c = node(&mut g, OpKind::Add, "c");
    let d = node(&mut g, OpKind::Output, "d");
    g.connect(a, b, mb());
    let ac = g.connect(a, c, mb());
    let bc = g.connect(b, c, mb());
    g.connect(c, d, mb());
    let t = vec![xfer(&g, ac, D0, D1, false), xfer(&g, bc, D0, D1, false)];
    all.push((plan(g, &[D0, D0, D1, D1], t, vec![]), gpus_of(2_500_000)));

    // GA101 fits: a chain never holds more than two 1 MB values.
    let mut g = Srg::new("ga101.fits");
    let ids: Vec<NodeId> = ["a", "b", "c", "d"]
        .iter()
        .map(|n| node(&mut g, OpKind::Relu, n))
        .collect();
    for w in ids.windows(2) {
        g.connect(w[0], w[1], mb());
    }
    all.push((plan(g, &[D0; 4], vec![], vec![]), gpus_of(2_500_000)));

    // GA101 with a pinned-backed value: the 8 MB weight counts once,
    // on the pinned side, beside mm's 4 MB output (12 MB > 10 MB).
    let mut g = Srg::new("ga101.pinned");
    let w = g.add_node(op(OpKind::Parameter, "w").with_residency(Residency::PersistentWeight));
    let mm = node(&mut g, OpKind::MatMul, "mm");
    let out = node(&mut g, OpKind::Output, "out");
    let wm = g.connect(w, mm, f32s(&[1000, 2000]));
    let mo = g.connect(mm, out, f32s(&[250, 4000]));
    let pinned = vec![(g.edge(wm).tensor, DevId(0), 8_000_000)];
    let t = vec![xfer(&g, mo, D0, CLIENT, false)];
    all.push((
        plan(g, &[CLIENT, D0, CLIENT], t, pinned),
        gpus_of(10_000_000),
    ));

    // GA101 on a device the topology does not have.
    let mut g = Srg::new("ga101.absent_device");
    let a = node(&mut g, OpKind::Input, "a");
    let b = node(&mut g, OpKind::Relu, "b");
    g.connect(a, b, f32s(&[4, 4]));
    let ghost = Location::Device(DevId(42));
    all.push((plan(g, &[CLIENT, ghost], vec![], vec![]), gpus_of(1 << 30)));

    // GA101 on a cyclic graph: the warn-capped pessimistic sum.
    let mut g = Srg::new("ga101.cyclic");
    let a = node(&mut g, OpKind::Relu, "a");
    let b = node(&mut g, OpKind::Relu, "b");
    g.connect(a, b, mb());
    g.connect(b, a, mb());
    all.push((plan(g, &[D0, D0], vec![], vec![]), gpus_of(500_000)));

    // GA102: endpoints that disagree with the placements, and a transfer
    // of an edge the graph does not have.
    let mut g = Srg::new("ga102.endpoints");
    let x = node(&mut g, OpKind::Input, "x");
    let mm = node(&mut g, OpKind::MatMul, "mm");
    let e = g.connect(x, mm, f32s(&[4, 4]));
    let dangling = Transfer {
        edge: EdgeId::new(99),
        tensor: TensorId::new(99),
        from: CLIENT,
        to: D0,
        bytes: 64,
        via_handle: false,
    };
    let t = vec![xfer(&g, e, D0, D0, true), dangling];
    all.push((plan(g, &[CLIENT, D0], t, vec![]), gpus_of(1 << 30)));

    // GA103: a persistent weight shipped by value.
    let mut g = Srg::new("ga103.weight_by_value");
    let w = g.add_node(op(OpKind::Parameter, "w").with_residency(Residency::PersistentWeight));
    let mm = node(&mut g, OpKind::MatMul, "mm");
    let e = g.connect(w, mm, f32s(&[1024, 1024]));
    let t = vec![xfer(&g, e, CLIENT, D0, false)];
    all.push((plan(g, &[CLIENT, D0], t, vec![]), gpus_of(1 << 30)));

    // GA104: two decode-phase KV caches on the client. Each is pinned to
    // d0, and one is read on d0, the other on d1.
    let mut g = Srg::new("ga104.kv_split");
    let kv = |name: &str| {
        op(OpKind::Input, name)
            .with_residency(Residency::StatefulKvCache)
            .with_phase(Phase::LlmDecode)
    };
    let (kv0, kv1) = (g.add_node(kv("kv0")), g.add_node(kv("kv1")));
    let read0 = g.add_node(op(OpKind::Attention, "read0").with_phase(Phase::LlmDecode));
    let read1 = g.add_node(op(OpKind::Attention, "read1").with_phase(Phase::LlmDecode));
    let on_d0 = g.connect(kv0, read0, f32s(&[5, 8]));
    let on_d1 = g.connect(kv1, read1, f32s(&[5, 8]));
    let pins = [on_d0, on_d1].map(|e| (g.edge(e).tensor, DevId(0), 160));
    let at = [CLIENT, CLIENT, D0, D1];
    all.push((plan(g, &at, vec![], pins.to_vec()), gpus_of(1 << 30)));

    // GA201: the late consumer's transfer queued first on client→d0.
    let mut g = Srg::new("ga201.order");
    let a = node(&mut g, OpKind::Input, "a");
    let early = node(&mut g, OpKind::Relu, "early");
    let mid = node(&mut g, OpKind::Relu, "mid");
    let late = node(&mut g, OpKind::Add, "late");
    let e_early = g.connect(a, early, f32s(&[4, 4]));
    g.connect(early, mid, f32s(&[4, 4]));
    g.connect(mid, late, f32s(&[4, 4]));
    let e_late = g.connect(a, late, f32s(&[4, 4]));
    let t = vec![
        xfer(&g, e_late, CLIENT, D0, false),
        xfer(&g, e_early, CLIENT, D0, false),
    ];
    all.push((plan(g, &[CLIENT, D0, D0, D0], t, vec![]), gpus_of(1 << 30)));

    // GA202: one tensor pinned twice on d0.
    let mut g = Srg::new("ga202.double_pin");
    let w = g.add_node(op(OpKind::Parameter, "w").with_residency(Residency::PersistentWeight));
    let mm = node(&mut g, OpKind::MatMul, "mm");
    let e = g.connect(w, mm, f32s(&[16, 16]));
    let tensor = g.edge(e).tensor;
    let pinned = vec![(tensor, DevId(0), 1024), (tensor, DevId(0), 1024)];
    all.push((plan(g, &[CLIENT, D0], vec![], pinned), gpus_of(1 << 30)));

    // GA203: d0→d1 lists z→w's transfer before x→y's, but z needs y's
    // output, which needs x→y's payload.
    let mut g = Srg::new("ga203.fifo");
    let x = node(&mut g, OpKind::Input, "x");
    let y = node(&mut g, OpKind::Relu, "y");
    let z = node(&mut g, OpKind::Relu, "z");
    let w = node(&mut g, OpKind::Output, "w");
    let xy = g.connect(x, y, f32s(&[4, 4]));
    let yz = g.connect(y, z, f32s(&[4, 4]));
    let zw = g.connect(z, w, f32s(&[4, 4]));
    let t = vec![
        xfer(&g, zw, D0, D1, false),
        xfer(&g, xy, D0, D1, false),
        xfer(&g, yz, D1, D0, false),
    ];
    all.push((plan(g, &[D0, D1, D0, D1], t, vec![]), gpus_of(1 << 30)));

    // GA203 through a transfer on an edge of an SRG cycle.
    let mut g = Srg::new("ga203.cyclic_edge");
    let a = node(&mut g, OpKind::Relu, "a");
    let b = node(&mut g, OpKind::Relu, "b");
    let ab = g.connect(a, b, f32s(&[4, 4]));
    g.connect(b, a, f32s(&[4, 4]));
    let t = vec![xfer(&g, ab, D0, D1, false)];
    all.push((plan(g, &[D0, D1], t, vec![]), gpus_of(1 << 30)));

    // GA204: d0 reaches c1 before c2, d1 reaches c2 before c1.
    let mut g = Srg::new("ga204.collectives");
    let p0 = node(&mut g, OpKind::Relu, "p0");
    let p1 = node(&mut g, OpKind::Relu, "p1");
    let q0 = node(&mut g, OpKind::Relu, "q0");
    let q1 = node(&mut g, OpKind::Relu, "q1");
    let c1 = node(&mut g, OpKind::AllReduce, "c1");
    let c2 = node(&mut g, OpKind::AllReduce, "c2");
    g.connect(p0, c1, f32s(&[4, 4]));
    g.connect(p1, c2, f32s(&[4, 4]));
    let q1c1 = g.connect(q1, c1, f32s(&[4, 4]));
    let q0c2 = g.connect(q0, c2, f32s(&[4, 4]));
    let t = vec![xfer(&g, q1c1, D1, D0, false), xfer(&g, q0c2, D0, D1, false)];
    all.push((
        plan(g, &[D0, D1, D0, D1, D0, D1], t, vec![]),
        gpus_of(1 << 30),
    ));

    // GA3xx against a plan on inference-class devices: an absolute
    // tolerance demand, an int8 producer of a Critical value, and a
    // fused region with no error model.
    let (mut g, mm) = matmul_chain();
    g.name = "ga3xx.plan".into();
    g.node_mut(mm)
        .attrs
        .insert(TOLERANCE_ATTR.into(), "1e-12".into());
    let q = g.add_node(
        op(OpKind::MatMul, "q")
            .with_cost(CostHints::new(2.0 * 8.0 * 8.0 * 8.0, 1.0, 1.0))
            .with_attr(KERNEL_TIER_ATTR, "int8"),
    );
    let wq = node(&mut g, OpKind::Parameter, "wq");
    g.connect(mm, q, f32s(&[8, 8]));
    g.connect(wq, q, f32s(&[8, 8]));
    let fused = node(&mut g, OpKind::Fused(2), "blk");
    let e = g.connect(q, fused, f32s(&[8, 8]));
    g.edge_mut(e).criticality = Criticality::Critical;
    let at = [CLIENT, CLIENT, D0, CLIENT, D1, CLIENT, D1];
    all.push((plan(g, &at, vec![], vec![]), two_gpus(GpuSpec::l4())));

    all
}

#[test]
fn plan_pass_reports_are_byte_identical_to_the_golden_rendering() {
    let cfg = LintConfig::new();
    let state = ClusterState::new();
    let mut rendered = scheduled_reports(&cfg);
    for (plan, topo) in plan_fixtures() {
        rendered += &lint_plan(&plan, &topo, &state, &cfg).render();
    }
    let golden = include_str!("golden/plan_lint_reports.txt");
    assert!(
        rendered == golden,
        "plan lint reports moved; rendered now:\n{rendered}"
    );
    for code in [
        "GA101", "GA102", "GA103", "GA104", "GA201", "GA202", "GA203", "GA204", "GA301", "GA303",
    ] {
        assert!(golden.contains(code), "{code} absent from the golden file");
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One plan and its simulation, rendered exactly: placements run-length
/// in node order, every transfer (`*` marks a handle reference), every
/// pinned upload, the estimate and the simulated times as `f64` bits,
/// the lint codes, and an FNV-1a digest of the trace events.
fn render_plan(out: &mut String, plan: &ExecutionPlan, topo: &Topology, cost: &CostModel) {
    use std::fmt::Write;
    let mut runs: Vec<(Location, usize)> = Vec::new();
    for id in plan.srg.node_ids() {
        match runs.last_mut() {
            Some((loc, n)) if *loc == plan.location(id) => *n += 1,
            _ => runs.push((plan.location(id), 1)),
        }
    }
    out.push_str("placements");
    for (loc, n) in runs {
        write!(out, " {loc}×{n}").unwrap();
    }
    write!(out, "\ntransfers {}:", plan.transfers.len()).unwrap();
    for t in &plan.transfers {
        let handle = if t.via_handle { "*" } else { "" };
        let (e, x) = (t.edge.index(), t.tensor.0);
        write!(out, " e{e}/t{x}:{}>{}:{}{handle}", t.from, t.to, t.bytes).unwrap();
    }
    write!(out, "\npinned {}:", plan.pinned_uploads.len()).unwrap();
    for (tensor, dev, bytes) in &plan.pinned_uploads {
        write!(out, " t{}>{dev}:{bytes}", tensor.0).unwrap();
    }
    let e = &plan.estimate;
    writeln!(
        out,
        "\nestimate compute={:016x} transfer={:016x} queue={:016x} bytes={:016x}",
        e.compute_s.to_bits(),
        e.transfer_s.to_bits(),
        e.queue_s.to_bits(),
        (plan.network_bytes() as f64).to_bits()
    )
    .unwrap();
    out.push_str("codes");
    for d in &plan.diagnostics {
        write!(out, " {}", d.code).unwrap();
    }
    let sim = simulate_once(plan, topo, cost, RpcParams::tensorpipe_python());
    let events = trace_fields(sim.trace.events());
    write!(
        out,
        "\nsim makespan={:016x} utilization={:016x} bytes={} busy",
        sim.makespan_s.to_bits(),
        sim.utilization.to_bits(),
        sim.network_bytes
    )
    .unwrap();
    for (dev, busy) in &sim.busy_s {
        write!(out, " {dev}={:016x}", busy.to_bits()).unwrap();
    }
    let n = sim.trace.events().len();
    writeln!(out, " events={n} fnv={:016x}", fnv1a(&events)).unwrap();
}

/// Every field of every trace event, one event a line.
fn trace_fields(events: &[TraceEvent]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for e in events {
        match e {
            TraceEvent::Kernel {
                device,
                label,
                start,
                end,
                node,
                plan,
            } => writeln!(
                out,
                "kernel {device} {label} {} {} {node:?} {plan:?}",
                start.0, end.0
            ),
            TraceEvent::Transfer {
                from,
                to,
                bytes,
                start,
                end,
                node,
                plan,
                queue_delay,
            } => writeln!(
                out,
                "transfer {from}>{to} {bytes} {} {} {node:?} {plan:?} {}",
                start.0, end.0, queue_delay.0
            ),
            TraceEvent::Mark { label, at } => writeln!(out, "mark {label} {}", at.0),
        }
        .unwrap();
    }
    out
}

/// Every control-path graph under every policy that places a plain graph,
/// on a client and two single-GPU servers: healthy, with the client's link
/// to the first server derated to a quarter, and with that link severed.
fn rendered_plans() -> String {
    let topo = Topology::rack(2, 25e9);
    let cost = CostModel::paper_stack();
    let mut derated = ClusterState::new();
    derated.set_link_derate(0, 1, 0.25);
    let mut partitioned = ClusterState::new();
    partitioned.set_partitioned(0, 1, true);
    let states = [
        ("healthy", ClusterState::new()),
        ("derated", derated),
        ("partitioned", partitioned),
    ];
    let aware = SemanticsAware::new();
    let policies: [&dyn Policy; 4] = [&aware, &RoundRobin, &LeastLoaded, &DataAware];
    let cfg = LintConfig::new();
    let mut out = String::new();
    for srg in &control_path_graphs() {
        for (state_name, state) in &states {
            for policy in policies {
                let plan = schedule_with_lints(srg, &topo, state, &cost, policy, &cfg);
                out += &format!("== {} {state_name}\n", plan.label());
                render_plan(&mut out, &plan, &topo, &cost);
            }
        }
    }
    out
}

#[test]
fn plans_and_their_simulations_are_byte_identical_to_the_golden_rendering() {
    let rendered = rendered_plans();
    let golden = include_str!("golden/plans.txt");
    assert!(rendered == golden, "plans moved; rendered now:\n{rendered}");
}
