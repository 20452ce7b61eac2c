//! The JSON documents this platform writes, pinned byte for byte, and the
//! one it reads, round-tripped and attacked.
//!
//! `tests/golden/json_documents.txt` holds one compact document per
//! writer — an SRG (a small decode capture), a lint `Report`, a
//! `ChromeTrace` over a simulated zoo run under a fault plan, a
//! `MetricsSnapshot` — as `srg::json` rendered them when it replaced
//! serde. Key names and order, variant names, what is absent when empty
//! and how numbers print are the format; Perfetto and every `jq` gate in
//! CI read it. To re-render after a change that is *meant* to move the
//! format, run the test: on a mismatch it prints the whole file before it
//! fails.

use genie::analysis::{Anchor, LintCode, LintConfig, Report};
use genie::backend::simulate_once_faulty;
use genie::cluster::DevId;
use genie::models::{KvState, TransformerConfig, TransformerLm, Workload};
use genie::netsim::{FaultPlan, FaultSpec, Nanos, RpcParams, XorShift64};
use genie::prelude::*;
use genie::srg::json::{self, Value};
use genie::srg::serialize::{from_json, to_json};
use genie::srg::{EdgeId, NodeId};
use genie::telemetry::{ChromeTrace, MetricsRegistry};
use genie::tensor::Tensor;

fn tiny_lm() -> TransformerLm {
    let mut cfg = TransformerConfig::tiny();
    cfg.layers = 1;
    TransformerLm::new_spec(cfg)
}

/// A decode step over `cached` tokens of KV, outputs marked.
fn decode_capture(m: &TransformerLm, cached: usize) -> Srg {
    let (layers, d) = (m.config.layers, m.config.d_model);
    let kv = KvState {
        k: (0..layers)
            .map(|_| Tensor::zeros(vec![cached, d]))
            .collect(),
        v: (0..layers)
            .map(|_| Tensor::zeros(vec![cached, d]))
            .collect(),
    };
    let ctx = CaptureCtx::new("decode");
    let cap = m.capture_decode_step(&ctx, 0, &kv);
    cap.logits.sample().mark_output();
    for (k, v) in cap.k_caches.iter().zip(&cap.v_caches) {
        k.mark_output();
        v.mark_output();
    }
    ctx.finish().srg
}

fn prefill_capture(m: &TransformerLm, prompt: &[i64]) -> Srg {
    let ctx = CaptureCtx::new("prefill");
    m.capture_prefill(&ctx, prompt).logits.mark_output();
    ctx.finish().srg
}

fn report_document() -> Value {
    let cfg = LintConfig::new();
    let mut report = Report::new("fixture@test");
    let mut push = |code, anchor, message: &str| report.push(&cfg, code, anchor, message.into());
    push(
        LintCode::ShapeMismatch,
        Anchor::Node(NodeId::new(3)),
        "inner dims 4 vs 5",
    );
    push(
        LintCode::RateInconsistent,
        Anchor::Edge(EdgeId::new(7)),
        "reads 8 B of 4 B",
    );
    push(
        LintCode::TransferDependencyCycle,
        Anchor::Graph,
        "\"quoted\" \\ and\nnewline",
    );
    push(
        LintCode::DeviceOvercommit,
        Anchor::Device(DevId(1)),
        "needs 10 B, free 5 B",
    );
    report.finish().to_json()
}

/// Metadata rows, kernel and transfer slices, and fault instants: the
/// vision graph on the paper testbed with its one link derated, then down.
fn trace_document() -> Value {
    let srg = Workload::ComputerVision.spec_graph();
    let topo = Topology::paper_testbed();
    let cost = CostModel::paper_stack();
    let policy = SemanticsAware::new();
    let plan = genie::scheduler::schedule(&srg, &topo, &ClusterState::new(), &cost, &policy);
    let specs = vec![
        FaultSpec::Derate {
            a: 0,
            b: 1,
            factor: 0.5,
        },
        FaultSpec::LinkDown {
            a: 0,
            b: 1,
            from: Nanos::from_millis(2),
            until: Nanos::from_millis(5),
        },
    ];
    let faults = FaultPlan::new(11, specs);
    let report = simulate_once_faulty(&plan, &topo, &cost, RpcParams::tensorpipe_python(), &faults);
    let mut chrome = ChromeTrace::new();
    chrome.push_sim_trace(&report.trace, Some(&srg), Some(&plan.label()));
    chrome.to_json()
}

fn metrics_document() -> Value {
    let reg = MetricsRegistry::new();
    reg.counter(
        "genie_requests_total",
        &[("tenant", "a"), ("role", "client")],
    )
    .add((1 << 53) + 1);
    reg.gauge("genie_queue_depth", &[]).set(2.5);
    let h = reg.histogram("genie_step_seconds", &[("lane", "0")], &[1e-3, 0.1]);
    for seconds in [5e-4, 0.05, 7.0] {
        h.observe(seconds);
    }
    reg.snapshot().to_json()
}

#[test]
fn every_written_document_is_byte_identical_to_its_golden_rendering() {
    let documents = [
        (
            "srg.decode_capture",
            decode_capture(&tiny_lm(), 2).to_json(),
        ),
        ("analysis.report", report_document()),
        ("telemetry.chrome_trace", trace_document()),
        ("telemetry.metrics_snapshot", metrics_document()),
    ];
    let mut rendered = String::new();
    for (name, doc) in &documents {
        rendered.push_str(&format!("== {name}\n{doc}\n"));
        // What is pinned is also what the parser reads back.
        assert_eq!(&json::parse(&doc.to_string()).unwrap(), doc, "{name}");
    }
    let golden = include_str!("golden/json_documents.txt");
    if rendered != golden {
        // Shown by the harness because the test fails: the file to pin.
        print!("{rendered}");
        let moved = rendered
            .lines()
            .zip(golden.lines())
            .find(|(now, then)| now != then);
        let at = moved.map(|(now, then)| {
            let same = now.bytes().zip(then.bytes()).take_while(|(a, b)| a == b);
            let from = same.count().saturating_sub(40);
            let window = |s: &str| s.chars().skip(from).take(120).collect::<String>();
            (window(now), window(then))
        });
        panic!("a document moved; first difference (now, pinned):\n{at:#?}");
    }
}

/// What `tests/property_based.rs` asserts of random captures, over the
/// graphs that matter: decoding gives back an equal graph — adjacency
/// included, it is rebuilt — and encoding that gives back the same bytes.
#[test]
fn zoo_graphs_and_captures_round_trip_to_equal_graphs_and_equal_bytes() {
    let lm = TransformerLm::new_spec(TransformerConfig::tiny());
    let mut graphs: Vec<Srg> = Workload::ALL.iter().map(|w| w.spec_graph()).collect();
    graphs.push(prefill_capture(&lm, &[1, 2, 3, 4, 5]));
    graphs.push(decode_capture(&lm, 0));
    graphs.push(decode_capture(&lm, 5));
    for g in &graphs {
        let text = to_json(g).unwrap();
        let back = from_json(&text).unwrap();
        assert_eq!(&back, g, "{}", g.name);
        assert_eq!(to_json(&back).unwrap(), text, "{}", g.name);
        assert!(back.validate_all().is_ok(), "{}", g.name);
        // The pretty form is the same document.
        let pretty = genie::srg::serialize::to_json_pretty(g).unwrap();
        assert_eq!(&from_json(&pretty).unwrap(), g, "{}", g.name);
    }
}

/// A document written before adjacency left the format carries
/// `out_adj`/`in_adj`, and one written before edges lost their memory
/// layout a `"layout"` member in every edge's `meta`; both still load,
/// and what they claim is not believed.
#[test]
fn a_document_with_adjacency_arrays_loads_and_they_are_ignored() {
    let g = decode_capture(&tiny_lm(), 1);
    let text = to_json(&g).unwrap();
    let forged = format!(
        r#"{},"out_adj":[[4000000000]],"in_adj":"nonsense","unknown":{{"k":[1,2]}}}}"#,
        text.strip_suffix('}').unwrap()
    );
    assert_eq!(from_json(&forged).unwrap(), g);
    let laid_out = text
        .replace(r#""},"rate":"#, r#"","layout":"RowMajor"},"rate":"#)
        .replacen("RowMajor", "ChannelsLast", 1);
    assert_eq!(laid_out.matches(r#""layout":"#).count(), g.edge_count());
    assert_eq!(from_json(&laid_out).unwrap(), g);
}

struct Mutator(XorShift64);

impl Mutator {
    fn pick(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    /// Mostly a value of the kind that was there, so the document still
    /// loads and the graph is what is wrong; sometimes any kind at all.
    fn replacement(&mut self, old: &Value) -> Value {
        const NUMBERS: [u64; 12] = [
            0,
            1,
            2,
            5,
            6,
            7,
            255,
            256,
            u32::MAX as u64,
            1 << 32,
            1 << 40,
            u64::MAX,
        ];
        const STRINGS: [&str; 9] = [
            "",
            "x",
            "MatMul",
            "Reshape",
            "Input",
            "Output",
            "Unknown",
            "StatefulKvCache",
            "1,x",
        ];
        match (old, self.pick(6)) {
            (Value::U64(_), 1..) => NUMBERS[self.pick(NUMBERS.len())].into(),
            (Value::Str(_), 1..) => STRINGS[self.pick(STRINGS.len())].into(),
            (_, 0) => Value::I64(-1),
            (_, 1) => 1e300.into(),
            (_, 2) => Value::Null,
            (_, 3) => Value::Object(vec![("Fused".into(), "x".into())]),
            (_, 4) => Value::Array(vec![(1u64 << 40).into(); 3]),
            _ => Value::Object(Vec::new()),
        }
    }

    /// One random edit somewhere under `v`.
    fn edit(&mut self, v: &mut Value) {
        match v {
            Value::Array(items) if !items.is_empty() && self.pick(8) != 0 => {
                let i = self.pick(items.len());
                match self.pick(16) {
                    0 => drop(items.remove(i)),
                    1 => items.insert(i, items[i].clone()),
                    2 => items.swap(i, 0),
                    _ => self.edit(&mut items[i]),
                }
            }
            Value::Object(members) if !members.is_empty() && self.pick(8) != 0 => {
                let i = self.pick(members.len());
                match self.pick(16) {
                    0 => drop(members.remove(i)),
                    1 => members[i].0.push('x'),
                    _ => self.edit(&mut members[i].1),
                }
            }
            _ => *v = self.replacement(v),
        }
    }
}

/// Replace, drop and duplicate random parts of a valid SRG document with
/// values of every kind, 20 000 times: `from_json` returns (a graph or an
/// error), and on whatever graph it returns `validate_all` returns too.
#[test]
fn mutated_documents_never_panic_the_reader_or_the_validator() {
    use genie::srg::{ElemType, Node, OpKind, Residency, TensorMeta};
    let mut g = Srg::new("seed");
    let f32s = |dims: &[usize]| TensorMeta::new(dims.to_vec(), ElemType::F32);
    let source = |kind, name: &str| Node::new(NodeId::new(0), kind, name);
    let x = g.add_node(source(OpKind::Input, "x"));
    let w = g.add_node(source(OpKind::Parameter, "w"));
    let kv = g.add_node(source(OpKind::Input, "kv").with_residency(Residency::StatefulKvCache));
    let mm = g.add_node(source(OpKind::MatMul, "mm").with_phase(Phase::Custom("p".into())));
    let view = g.add_node(source(OpKind::Reshape, "view").with_attr("shape", "1,4"));
    let grown = g.add_node(source(OpKind::KvAppend, "grown"));
    let fused = g.add_node(source(OpKind::Fused(2), "fused"));
    g.connect(x, mm, f32s(&[1, 4]));
    g.connect(w, mm, f32s(&[4, 4]));
    g.connect(mm, view, f32s(&[1, 4]));
    g.connect(kv, grown, f32s(&[0, 4]));
    g.connect(view, grown, f32s(&[1, 4]));
    g.connect(grown, fused, f32s(&[1, 4]));
    g.node_mut(fused).device = Some(genie::srg::DeviceId::new(1));
    assert!(g.validate_all().is_ok());
    let seed = g.to_json();

    let mut mutator = Mutator(XorShift64::new(0xC0FFEE));
    let (mut loaded, mut well_formed) = (0, 0);
    for _ in 0..20_000 {
        let mut doc = seed.clone();
        for _ in 0..1 + mutator.pick(3) {
            mutator.edit(&mut doc);
        }
        if let Ok(g) = from_json(&doc.to_string()) {
            loaded += 1;
            well_formed += usize::from(g.validate_all().is_ok());
        }
    }
    // The mutator reaches all three outcomes, not mostly one of them.
    let refused = 20_000 - loaded;
    let ill_formed = loaded - well_formed;
    assert!(
        refused > 2_000 && ill_formed > 200 && well_formed > 2_000,
        "{refused} refused, {ill_formed} ill-formed, {well_formed} well-formed"
    );
}
