//! Integration tests for the semantic lint engine: every graph the model
//! zoo can produce must pass the deny-level gate, and the lint namespace
//! itself must stay stable.

use genie::analysis::{run_srg_passes, LintCode, LintConfig, Severity};
use genie::models::{TransformerConfig, TransformerLm, Workload};
use genie::prelude::*;

fn deny_free(report: &genie::analysis::Report) -> bool {
    report.count(Severity::Deny) == 0
}

#[test]
fn lint_code_namespace_is_stable() {
    let codes = LintCode::ALL;
    assert!(codes.len() >= 8, "at least 8 distinct lint codes");
    assert!(codes.iter().any(|c| c.is_plan_level()), "GA1xx present");
    assert!(codes.iter().any(|c| !c.is_plan_level()), "GA0xx present");
    let mut seen = std::collections::BTreeSet::new();
    for c in codes {
        assert!(seen.insert(c.code()), "{} is distinct", c.code());
        assert!(!c.invariant().is_empty());
    }
}

#[test]
fn every_zoo_family_is_deny_clean_end_to_end() {
    let cfg = LintConfig::new();
    let topo = Topology::rack(4, 25e9);
    let state = ClusterState::new();
    let cost = CostModel::ideal_25g();
    for w in Workload::ALL {
        // spec_graph() itself passes the capture gate (finish panics on
        // deny); re-lint explicitly and also lint the scheduled plan.
        let srg = w.spec_graph();
        let graph_report = run_srg_passes(&srg, &cfg);
        assert!(deny_free(&graph_report), "{}: {graph_report}", w.name());

        let plan = genie::scheduler::schedule(&srg, &topo, &state, &cost, &SemanticsAware::new());
        assert!(
            !plan
                .diagnostics
                .iter()
                .any(|d| d.severity == Severity::Deny),
            "{}: {:?}",
            w.name(),
            plan.diagnostics
        );
    }
}

/// Hand-built GA2xx violations must survive the JSON round trip with
/// their stable code strings, so fleet tooling can key on them.
#[test]
fn ga2xx_findings_render_to_json() {
    use genie::analysis::plan::{CostBreakdown, ExecutionPlan, Location, Transfer};
    use genie::analysis::run_plan_passes;
    use genie::cluster::DevId;
    use genie::srg::{ElemType, Node, NodeId, OpKind, Srg, TensorId, TensorMeta};

    // a on d0 feeds both the first and the last step of a chain on d1.
    // Shipping the later consumer's payload first inverts the channel
    // FIFO against consumption order (GA201); pinning one buffer twice
    // double-charges device memory (GA202).
    let mut g = Srg::new("fixture");
    let meta = TensorMeta::new([4], ElemType::F32);
    let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
    let early = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "early"));
    let mid = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "mid"));
    let late = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "late"));
    let e_early = g.connect(a, early, meta.clone());
    g.connect(early, mid, meta.clone());
    g.connect(mid, late, meta.clone());
    let e_late = g.connect(a, late, meta);

    let (d0, d1) = (DevId(0), DevId(1));
    let xfer = |edge, tensor| Transfer {
        edge,
        tensor,
        from: Location::Device(d0),
        to: Location::Device(d1),
        bytes: 16,
        via_handle: false,
    };
    let plan = ExecutionPlan {
        policy: "test".into(),
        // a, early, mid, late.
        placements: [d0, d1, d1, d1].map(Location::Device).into(),
        transfers: vec![
            xfer(e_late, g.edge(e_late).tensor),
            xfer(e_early, g.edge(e_early).tensor),
        ],
        pinned_uploads: vec![(TensorId::new(99), d1, 1024), (TensorId::new(99), d1, 1024)],
        srg: g,
        estimate: CostBreakdown::default(),
        diagnostics: Vec::new(),
    };

    let topo = Topology::rack(2, 25e9);
    let report = run_plan_passes(&plan, &topo, &ClusterState::new(), &LintConfig::new());
    let json = report.to_json();
    let codes: Vec<&str> = json["diagnostics"]
        .as_array()
        .expect("diagnostics array")
        .iter()
        .map(|d| d["code"].as_str().expect("code string"))
        .collect();
    assert!(codes.contains(&"GA201"), "{json}");
    assert!(codes.contains(&"GA202"), "{json}");
    assert_eq!(json["subject"].as_str(), Some("fixture@test"));
    for d in json["diagnostics"].as_array().unwrap() {
        assert!(d["severity"].as_str().is_some(), "{d}");
        assert!(!d["message"].as_str().unwrap().is_empty(), "{d}");
    }
}

/// GA3xx violations — an unmeetable tolerance and an unmodeled fused
/// op — must also surface through `Report::to_json` with stable codes.
#[test]
fn ga3xx_findings_render_to_json() {
    use genie::srg::{ElemType as El, Node, NodeId, OpKind, TensorMeta};
    use genie::tensor::init;

    let ctx = CaptureCtx::new("precision-fixture");
    let x = ctx.input("x", [4, 16], El::F32, Some(init::randn([4, 16], 1)));
    let w = ctx.parameter("w", [16, 16], El::F32, Some(init::randn([16, 16], 2)));
    let y = x.matmul(&w);
    y.mark_output();
    let mm = y.node;
    let mut cap = ctx.finish();
    // 2^-24 per element over a k=16 reduction can never meet 1e-12.
    cap.srg
        .node_mut(mm)
        .attrs
        .insert("tolerance_rel".into(), "1e-12".into());
    // A fused region has no static error model: GA303, and every bound
    // downstream of it is unbounded.
    let fx = cap
        .srg
        .add_node(Node::new(NodeId::new(0), OpKind::Fused(2), "fx"));
    cap.srg.connect(mm, fx, TensorMeta::new([4, 16], El::F32));

    let report = run_srg_passes(&cap.srg, &LintConfig::new());
    let json = report.to_json();
    let codes: Vec<&str> = json["diagnostics"]
        .as_array()
        .expect("diagnostics array")
        .iter()
        .map(|d| d["code"].as_str().expect("code string"))
        .collect();
    assert!(codes.contains(&"GA301"), "{json}");
    assert!(codes.contains(&"GA303"), "{json}");
    // One JSON diagnostic per finding, in report order.
    assert_eq!(
        codes,
        report
            .diagnostics
            .iter()
            .map(|d| d.code.code())
            .collect::<Vec<_>>()
    );
}

/// GA204 fixture: two devices that reach two all_reduce collectives in
/// contradictory orders must be denied — and the sharded model's own
/// captures, whose collective order is the capture program order on
/// every rank, must stay clean.
#[test]
fn ga204_collective_schedule_cycle_denied() {
    use genie::analysis::plan::{CostBreakdown, ExecutionPlan, Location};
    use genie::analysis::run_plan_passes;
    use genie::cluster::DevId;
    use genie::srg::{ElemType, Node, NodeId, OpKind, Srg, TensorMeta};

    // d0 produces p0 (early) and q0 (late); d1 produces p1 (early) and
    // q1 (late). c1 consumes {p0, q1}, c2 consumes {p1, q0}: d0 reaches
    // c1 first, d1 reaches c2 first — each blocks in a collective the
    // other has not entered.
    let mut g = Srg::new("collective-fixture");
    let meta = TensorMeta::new([4, 4], ElemType::F32);
    let p0 = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "p0"));
    let p1 = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "p1"));
    let q0 = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "q0"));
    let q1 = g.add_node(Node::new(NodeId::new(0), OpKind::Relu, "q1"));
    let c1 = g.add_node(Node::new(NodeId::new(0), OpKind::AllReduce, "c1"));
    let c2 = g.add_node(Node::new(NodeId::new(0), OpKind::AllReduce, "c2"));
    g.connect(p0, c1, meta.clone());
    g.connect(q1, c1, meta.clone());
    g.connect(p1, c2, meta.clone());
    g.connect(q0, c2, meta);

    let (d0, d1) = (DevId(0), DevId(1));
    let plan = ExecutionPlan {
        policy: "test".into(),
        // p0, p1, q0, q1, c1, c2.
        placements: [d0, d1, d0, d1, d0, d1].map(Location::Device).into(),
        transfers: Vec::new(),
        pinned_uploads: Vec::new(),
        srg: g,
        estimate: CostBreakdown::default(),
        diagnostics: Vec::new(),
    };
    let topo = Topology::rack(2, 25e9);
    let report = run_plan_passes(&plan, &topo, &ClusterState::new(), &LintConfig::new());
    let hits = report.with_code(LintCode::CollectiveScheduleCycle);
    assert_eq!(hits.len(), 1, "{report}");
    assert_eq!(hits[0].severity, Severity::Deny, "{report}");
    assert_eq!(hits[0].code.code(), "GA204");
    assert!(
        report.render().contains("GA204"),
        "stable code renders: {report}"
    );
}

/// A real sharded capture scheduled by the sharded policy is GA204-clean:
/// capture program order gives every rank the same collective order.
#[test]
fn sharded_plans_pass_collective_deadlock_gate() {
    use genie::models::sharded::ShardedTransformerLm;
    use genie::srg::shard::ShardSpec;

    let cfg = TransformerConfig::tiny();
    let caches = vec![genie::tensor::Tensor::zeros([16, cfg.d_model]); cfg.layers];
    let kv = genie::models::KvState {
        k: caches.clone(),
        v: caches,
    };
    let sharded = ShardedTransformerLm::new(TransformerLm::new_spec(cfg), ShardSpec::new(2, 2));
    let ctx = CaptureCtx::new("decode.pp2xtp2");
    let sc = sharded.capture_decode_step(&ctx, 0, &kv);
    sc.caps[0].logits.mark_output();
    let (cap, shard_of) = (ctx.finish(), sc.shard_of);
    let topo = Topology::rack(4, 25e9);
    let state = ClusterState::new();
    let cost = CostModel::ideal_25g();
    let policy = genie::scheduler::Sharded::new(shard_of);
    let plan = genie::scheduler::schedule(&cap.srg, &topo, &state, &cost, &policy);
    assert!(
        !plan
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::CollectiveScheduleCycle),
        "sharded capture order is consistent across ranks: {:?}",
        plan.diagnostics
    );
}
