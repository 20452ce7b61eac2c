//! Deferred-execution capture: the Rust analogue of PyTorch's
//! `__torch_dispatch__` + LazyTensor mechanism (§3.2).
//!
//! Application code computes with [`LazyTensor`] handles. No arithmetic
//! happens at call time; every operation appends an annotated node to an
//! SRG under construction inside a shared [`CaptureCtx`]. Shapes are
//! checked eagerly (so user errors surface at the call site, as in eager
//! PyTorch), cost hints are derived from operator type and shapes, and the
//! module / phase / modality scopes active at call time become the node's
//! structural annotations.
//!
//! A context started over the previous step's finished capture
//! ([`crate::recapture::RecaptureSession`]) *re-traces*: the same calls
//! run, but each is compared with the node the previous capture recorded
//! at that position, and while they match only sizes, cost hints and
//! payloads are written — into the graph that is already there. The
//! first call that does not match cuts the graph back to the matched
//! prefix and the capture carries on appending, as [`CaptureCtx::new`]
//! does from the start.

use crate::interp::ExecPlan;
use crate::value::Value;
use genie_analysis::{run_srg_passes, LintConfig, Report};
use genie_srg::{
    CostHints, ElemType, Modality, Name, Node, NodeId, OpKind, Phase, Residency, Srg, TensorId,
    TensorMeta,
};
use genie_telemetry::{lock, Counter, Histogram, DEFAULT_TIME_BOUNDS};
use genie_tensor::{IndexTensor, Shape, Tensor};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// The result of a finished capture: a validated SRG plus the payloads of
/// its source nodes (parameters and inputs) when running functionally.
#[derive(Clone, Debug)]
pub struct CapturedGraph {
    /// The captured, annotated graph.
    pub srg: Srg,
    /// Payloads for `Parameter` / `Input` nodes (functional plane only;
    /// simulation-scale captures carry no data).
    pub values: HashMap<NodeId, Value>,
    /// Nodes marked as model outputs, in marking order.
    pub outputs: Vec<NodeId>,
}

/// Annotation scope tiers; the discriminant indexes [`TIER_LABELS`] and
/// [`CaptureMetrics::scopes`].
#[derive(Clone, Copy)]
enum Tier {
    Module,
    Phase,
    Modality,
}

const TIER_LABELS: [&str; 3] = ["module", "phase", "modality"];

/// How a capture related to the one it was started over: there was none,
/// every call matched it, or one did not and the rest was captured cold.
/// The discriminant indexes [`REUSE_LABELS`] and [`CaptureMetrics::reuse`].
#[derive(Clone, Copy, Default)]
enum Reuse {
    #[default]
    Miss,
    Hit,
    Diverged,
}

const REUSE_LABELS: [&str; 3] = ["miss", "hit", "diverged"];

/// A node attribute as the operator methods state it: the value as the
/// method has it, rendered into the [`Name`] a node stores (in place, up
/// to 22 bytes), which a re-trace compares with the stored bytes.
pub(crate) type Attr<'a> = (&'static str, &'a dyn fmt::Display);

/// What a recorded call produces: its dims, element type and residency
/// (an ephemeral activation unless [`Out::with`] says otherwise).
pub(crate) struct Out<'a> {
    dims: &'a [usize],
    elem: ElemType,
    residency: Residency,
}

impl<'a> Out<'a> {
    pub(crate) fn new(dims: &'a [usize], elem: ElemType) -> Self {
        let residency = Residency::EphemeralActivation;
        Out {
            dims,
            elem,
            residency,
        }
    }

    fn with(self, residency: Residency) -> Self {
        Out { residency, ..self }
    }
}

/// The capture path's metric handles, resolved once per process: a
/// registry lookup builds its key and searches under the registry mutex,
/// a held handle is one atomic add — and a decode step records ~55 ops
/// under ~20 scopes.
struct CaptureMetrics {
    source_ops: Counter,
    compute_ops: Counter,
    /// `(genie_capture_scopes_total, genie_capture_scope_seconds)` per tier.
    scopes: [(Counter, Histogram); 3],
    capture_seconds: Histogram,
    /// `genie_capture_reuse_total` per [`Reuse`] outcome.
    reuse: [Counter; 3],
}

fn capture_metrics() -> &'static CaptureMetrics {
    static HANDLES: OnceLock<CaptureMetrics> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let m = &genie_telemetry::global().metrics;
        let ops = |kind| m.counter("genie_capture_ops_total", &[("kind", kind)]);
        CaptureMetrics {
            source_ops: ops("source"),
            compute_ops: ops("compute"),
            scopes: TIER_LABELS.map(|tier| {
                let labels = [("tier", tier)];
                (
                    m.counter("genie_capture_scopes_total", &labels),
                    m.histogram("genie_capture_scope_seconds", &labels, &DEFAULT_TIME_BOUNDS),
                )
            }),
            capture_seconds: m.histogram("genie_capture_seconds", &[], &DEFAULT_TIME_BOUNDS),
            reuse: REUSE_LABELS
                .map(|outcome| m.counter("genie_capture_reuse_total", &[("outcome", outcome)])),
        }
    })
}

/// Append `node`, fed by `inputs`, and allocate its output tensor.
fn append(srg: &mut Srg, node: Node, inputs: &[&LazyTensor]) -> (NodeId, TensorId) {
    let fed = (inputs.iter()).map(|i| (i.node, i.tensor, TensorMeta::new(i.dims(), i.elem)));
    let id = srg.add_node_fed(node, fed);
    let tensor = srg.fresh_tensor();
    // One tensor per recorded call: a re-trace hands out the same ids
    // without asking the graph.
    debug_assert_eq!(tensor.0, id.index() as u64);
    (id, tensor)
}

/// How far a re-trace has got through the previous capture's graph.
struct Retrace {
    /// Calls matched so far: the index of the node the next call must match.
    nodes: usize,
    /// In-edges of the matched nodes: the id of the next node's first.
    edges: usize,
    /// The previous capture's execution plan, handed on if every call
    /// matches (the structure is then the one it was computed for).
    plan: Option<ExecPlan>,
}

#[derive(Default)]
struct CaptureState {
    /// The graph under construction. During a re-trace it is the previous
    /// capture's graph, correct for this step up to the cursor.
    srg: Option<Srg>,
    values: HashMap<NodeId, Value>,
    outputs: Vec<NodeId>,
    /// Dotted path of the open module scopes, kept joined so recording a
    /// node clones it instead of re-joining a stack.
    module_path: String,
    /// `module_path.len()` before each open module scope was pushed.
    module_marks: Vec<usize>,
    phase_stack: Vec<Phase>,
    modality_stack: Vec<Modality>,
    started: Option<std::time::Instant>,
    /// `Some` while every call so far has matched the previous capture.
    retrace: Option<Retrace>,
    reuse: Reuse,
    /// Debug builds, on a capture started over a previous one: the same
    /// calls recorded cold, for [`assert_same_as_cold`].
    shadow: Option<Srg>,
}

impl CaptureState {
    /// The node one recorded call describes, carrying the scopes active
    /// right now.
    fn node(
        &self,
        op: OpKind,
        name: &str,
        residency: Residency,
        cost: CostHints,
        attrs: &[Attr<'_>],
    ) -> Node {
        let mut node = Node::new(NodeId::new(0), op, name)
            .with_module_path(self.module_path.as_str())
            .with_phase(self.phase_stack.last().cloned().unwrap_or_default())
            .with_modality(self.modality_stack.last().copied().unwrap_or_default())
            .with_residency(residency)
            .with_cost(cost);
        node.attrs = (attrs.iter())
            .map(|(k, v)| (*k, Name::render(*v)))
            .collect();
        node
    }

    /// One recorded call: matched against the previous capture while a
    /// re-trace lasts, appended otherwise.
    fn call(
        &mut self,
        op: OpKind,
        name: &str,
        residency: Residency,
        cost: CostHints,
        attrs: &[Attr<'_>],
        inputs: &[&LazyTensor],
    ) -> (NodeId, TensorId) {
        if let Some(mut shadow) = self.shadow.take() {
            let cold = self.node(op.clone(), name, residency, cost, attrs);
            append(&mut shadow, cold, inputs);
            self.shadow = Some(shadow);
        }
        if let Some(hit) = self.retrace_call(&op, name, residency, cost, attrs, inputs) {
            return hit;
        }
        self.diverge();
        let node = self.node(op, name, residency, cost, attrs);
        let srg = self.srg.as_mut().expect("capture already finished");
        append(srg, node, inputs)
    }

    /// If the node at the re-trace cursor is what this call would record —
    /// same operator, name, scopes, attributes and operands — make it
    /// describe this step and return it. What is compared is what decides
    /// the graph's structure and the interpreter's dispatch; what may
    /// differ from step to step (operand shapes, cost hints) and what
    /// later code rewrites (residency by `mark_output`, the device
    /// binding) is overwritten, so nothing of the previous step survives.
    fn retrace_call(
        &mut self,
        op: &OpKind,
        name: &str,
        residency: Residency,
        cost: CostHints,
        attrs: &[Attr<'_>],
        inputs: &[&LazyTensor],
    ) -> Option<(NodeId, TensorId)> {
        let rt = self.retrace.as_mut()?;
        let srg = self.srg.as_mut().expect("capture already finished");
        let id = NodeId::new(rt.nodes as u32);
        let node = srg.try_node(id)?;
        let same = node.op == *op
            && node.name == name
            && node.module_path == self.module_path
            && node.phase == *self.phase_stack.last().unwrap_or(&Phase::Unknown)
            && node.modality == self.modality_stack.last().copied().unwrap_or_default()
            && node.attrs.len() == attrs.len()
            && (attrs.iter())
                .all(|(k, v)| node.attrs.get(k).is_some_and(|s| *s == Name::render(*v)))
            && srg.in_degree(id) == inputs.len()
            && srg
                .in_edges(id)
                .zip(inputs)
                .enumerate()
                .all(|(i, (e, input))| {
                    e.id.index() == rt.edges + i && e.src == input.node && e.tensor == input.tensor
                });
        if !same {
            return None;
        }
        let (nodes, edges) = srg.parts_mut();
        let node = &mut nodes[id.index()];
        node.cost = cost;
        node.residency = residency;
        node.device = None;
        for (edge, input) in edges[rt.edges..].iter_mut().zip(inputs) {
            edge.reset_payload(input.dims(), input.elem);
        }
        rt.nodes += 1;
        rt.edges += inputs.len();
        Some((id, TensorId::new(id.index() as u64)))
    }

    /// End a re-trace at the first call that does not match: cut the
    /// graph back to the calls that did, so that appending continues a
    /// graph indistinguishable from one captured cold. No-op otherwise.
    fn diverge(&mut self) {
        let Some(rt) = self.retrace.take() else {
            return;
        };
        let srg = self.srg.as_mut().expect("capture already finished");
        srg.truncate(rt.nodes, rt.edges, rt.nodes as u64);
        self.values.retain(|id, _| id.index() < rt.nodes);
        self.reuse = Reuse::Diverged;
    }
}

/// Debug builds check every capture that was started over a previous one
/// against the same calls recorded cold: every node (id, annotations,
/// cost hints, residency, attributes), every edge (ends, tensor id, meta,
/// rate), adjacency, and the rendered lint reports.
fn assert_same_as_cold(srg: &Srg, cold: &Srg, report: &Report, cfg: &LintConfig) {
    for (ours, cold) in srg.nodes().zip(cold.nodes()) {
        assert_eq!(ours, cold, "re-traced node differs from its cold capture");
    }
    for (ours, cold) in srg.edges().zip(cold.edges()) {
        assert_eq!(ours, cold, "re-traced edge differs from its cold capture");
    }
    assert!(srg == cold, "re-traced graph differs from its cold capture");
    let cold_report = run_srg_passes(cold, cfg).to_string();
    assert_eq!(
        report.to_string(),
        cold_report,
        "re-trace lints differently"
    );
}

/// A capture context: the graph under construction plus the annotation
/// scopes. Clone freely — clones share the same underlying state.
#[derive(Clone)]
pub struct CaptureCtx {
    state: Arc<Mutex<CaptureState>>,
}

impl CaptureCtx {
    /// Start capturing a graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        let state = CaptureState {
            srg: Some(Srg::new(name)),
            started: Some(std::time::Instant::now()),
            ..Default::default()
        };
        CaptureCtx {
            state: Arc::new(Mutex::new(state)),
        }
    }

    /// Start capturing `name` as a re-trace of `prev`, the finished
    /// capture of the previous step, whose graph, payload table and
    /// `plan` this capture takes over.
    pub(crate) fn retrace(name: &str, mut prev: CapturedGraph, plan: Option<ExecPlan>) -> Self {
        if prev.srg.name != name {
            prev.srg.name = name.to_string();
        }
        prev.outputs.clear();
        let state = CaptureState {
            srg: Some(prev.srg),
            values: prev.values,
            outputs: prev.outputs,
            started: Some(std::time::Instant::now()),
            retrace: Some(Retrace {
                nodes: 0,
                edges: 0,
                plan,
            }),
            reuse: Reuse::Hit,
            shadow: cfg!(debug_assertions).then(|| Srg::new(name)),
            ..Default::default()
        };
        CaptureCtx {
            state: Arc::new(Mutex::new(state)),
        }
    }

    // ---- scopes -----------------------------------------------------

    /// Run `f` with `name` pushed onto the module-path stack. Mirrors
    /// entering an `nn.Module`'s `forward`.
    pub fn scope<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        {
            let mut st = lock(&self.state);
            let mark = st.module_path.len();
            if !st.module_marks.is_empty() {
                st.module_path.push('.');
            }
            st.module_path.push_str(name);
            st.module_marks.push(mark);
        }
        let out = Self::timed_scope(Tier::Module, f);
        let mut st = lock(&self.state);
        let mark = st.module_marks.pop().expect("scope pushed above");
        st.module_path.truncate(mark);
        out
    }

    /// Run `f` with an explicit phase annotation active — the
    /// `genie.annotate_phase` developer hook of §3.2.
    pub fn phase_scope<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        lock(&self.state).phase_stack.push(phase);
        let out = Self::timed_scope(Tier::Phase, f);
        lock(&self.state).phase_stack.pop();
        out
    }

    /// Run `f` with a modality annotation active.
    pub fn modality_scope<R>(&self, modality: Modality, f: impl FnOnce() -> R) -> R {
        lock(&self.state).modality_stack.push(modality);
        let out = Self::timed_scope(Tier::Modality, f);
        lock(&self.state).modality_stack.pop();
        out
    }

    /// Count and time one annotation scope of the given tier.
    fn timed_scope<R>(tier: Tier, f: impl FnOnce() -> R) -> R {
        let (count, seconds) = &capture_metrics().scopes[tier as usize];
        count.inc();
        let begin = std::time::Instant::now();
        let out = f();
        seconds.observe(begin.elapsed().as_secs_f64());
        out
    }

    /// Nodes recorded so far. Snapshot before/after a region to attribute
    /// the nodes it created (sharding assignment does exactly this).
    pub fn node_count(&self) -> usize {
        let st = lock(&self.state);
        let srg = st.srg.as_ref().expect("capture already finished");
        st.retrace.as_ref().map_or(srg.node_count(), |rt| rt.nodes)
    }

    // ---- sources ----------------------------------------------------

    /// Declare a model parameter. `payload` is `Some` on the functional
    /// plane and `None` for simulation-scale captures.
    pub fn parameter(
        &self,
        name: &str,
        shape: impl AsRef<[usize]>,
        elem: ElemType,
        payload: Option<Tensor>,
    ) -> LazyTensor {
        let out = Out::new(shape.as_ref(), elem).with(Residency::PersistentWeight);
        self.dense_source(OpKind::Parameter, name, out, payload)
    }

    /// Declare a dense float input.
    pub fn input(
        &self,
        name: &str,
        shape: impl AsRef<[usize]>,
        elem: ElemType,
        payload: Option<Tensor>,
    ) -> LazyTensor {
        let out = Out::new(shape.as_ref(), elem).with(Residency::ModelInput);
        self.dense_source(OpKind::Input, name, out, payload)
    }

    /// Declare an integer-index input (token ids, embedding rows).
    pub fn input_ids(&self, name: &str, ids: &[i64]) -> LazyTensor {
        let payload = Some(Value::I(IndexTensor::from_slice(ids)));
        let dims = [ids.len()];
        let out = Out::new(&dims, ElemType::I64).with(Residency::ModelInput);
        self.source(OpKind::Input, name, out, payload)
    }

    /// Declare an index input with no payload (simulation plane).
    pub fn input_ids_spec(&self, name: &str, len: usize) -> LazyTensor {
        let dims = [len];
        let out = Out::new(&dims, ElemType::I64).with(Residency::ModelInput);
        self.source(OpKind::Input, name, out, None)
    }

    /// An empty KV-cache seed of shape `[0, dim]` — the starting state of
    /// a decode loop. Only a `functional` capture binds it a (zero-row)
    /// payload; a spec capture binds none, as its parameters do.
    pub fn empty_cache(
        &self,
        name: &str,
        dim: usize,
        elem: ElemType,
        functional: bool,
    ) -> LazyTensor {
        let payload = functional.then(|| Value::F(Tensor::zeros(vec![0, dim])));
        let dims = [0, dim];
        let out = Out::new(&dims, elem).with(Residency::StatefulKvCache);
        self.source(OpKind::Input, name, out, payload)
    }

    // ---- finish -----------------------------------------------------

    /// Finish the capture, returning the SRG and captured payloads. The
    /// context can no longer record operations afterwards.
    ///
    /// The graph is run through the `GA0xx` semantic lint passes under the
    /// default [`LintConfig`]; deny-level findings (shape or dtype
    /// inconsistencies, phase-order inversions, KV caches flowing into
    /// non-KV consumers, heavy ops with no cost hints) abort the capture
    /// with the rendered report. Use [`finish_checked`](Self::finish_checked)
    /// to handle findings programmatically or to relax the policy.
    pub fn finish(&self) -> CapturedGraph {
        match self.finish_checked(&LintConfig::new()) {
            Ok(cap) => cap,
            Err(report) => lint_gate_panic(&report),
        }
    }

    /// [`finish`](Self::finish) with an explicit lint policy: returns the
    /// full report instead of panicking when any `GA0xx` finding is deny
    /// under `cfg`. The capture is consumed either way.
    pub fn finish_checked(&self, cfg: &LintConfig) -> Result<CapturedGraph, Report> {
        self.finish_traced(cfg).map(|(cap, _)| cap)
    }

    /// [`finish_checked`](Self::finish_checked), plus the previous
    /// capture's execution plan when this one re-traced it call for call.
    /// The lint gate runs in full either way: its verdicts depend on
    /// sizes, and sizes are what a re-trace changes.
    pub(crate) fn finish_traced(
        &self,
        cfg: &LintConfig,
    ) -> Result<(CapturedGraph, Option<ExecPlan>), Report> {
        let telemetry = genie_telemetry::global();
        let (srg, values, outputs, started, plan, reuse, shadow) = {
            let mut st = lock(&self.state);
            let st = &mut *st;
            let recorded = st.srg.as_ref().expect("capture already finished");
            // Stopping short of the previous capture is a mismatch too.
            if (st.retrace.as_ref()).is_some_and(|rt| rt.nodes < recorded.node_count()) {
                st.diverge();
            }
            (
                st.srg.take().expect("checked above"),
                std::mem::take(&mut st.values),
                std::mem::take(&mut st.outputs),
                st.started.take(),
                st.retrace.take().and_then(|rt| rt.plan),
                st.reuse,
                st.shadow.take(),
            )
        };
        // The attributes are only worth building for a live span.
        let collector = &telemetry.collector;
        let mut span = collector.is_enabled().then(|| {
            collector.span_with(
                "capture.finish",
                "frontend",
                genie_telemetry::SemAttrs::new()
                    .with("graph", srg.name.clone())
                    .with("ops", srg.node_count().to_string())
                    .with("reuse", REUSE_LABELS[reuse as usize]),
            )
        });
        let metrics = capture_metrics();
        metrics.reuse[reuse as usize].inc();
        if let Some(started) = started {
            metrics
                .capture_seconds
                .observe(started.elapsed().as_secs_f64());
        }
        let report = run_srg_passes(&srg, cfg);
        if let Some(cold) = &shadow {
            assert_same_as_cold(&srg, cold, &report, cfg);
        }
        if report.has_deny() {
            if let Some(span) = &mut span {
                span.annotate(|a| a.extra.push(("lint".into(), "deny".into())));
            }
            return Err(report);
        }
        let cap = CapturedGraph {
            srg,
            values,
            outputs,
        };
        Ok((cap, plan))
    }

    // ---- internals --------------------------------------------------

    /// [`source`](Self::source) of a dense float payload, checked
    /// against the declared shape.
    fn dense_source(
        &self,
        op: OpKind,
        name: &str,
        out: Out,
        payload: Option<Tensor>,
    ) -> LazyTensor {
        if let Some(t) = &payload {
            assert_eq!(t.dims(), out.dims, "{op} {name} payload shape mismatch");
        }
        self.source(op, name, out, payload.map(Value::F))
    }

    /// Record a source node, bind its payload (functional plane) and
    /// hand back its handle, all under one lock.
    fn source(&self, op: OpKind, name: &str, out: Out, payload: Option<Value>) -> LazyTensor {
        capture_metrics().source_ops.inc();
        let mut st = lock(&self.state);
        let (id, tensor) = st.call(op, name, out.residency, CostHints::ZERO, &[], &[]);
        match payload {
            Some(value) => {
                st.values.insert(id, value);
            }
            // The table a re-trace took over may still bind this node.
            None if st.retrace.is_some() => {
                st.values.remove(&id);
            }
            None => {}
        }
        drop(st);
        self.handle(id, tensor, out)
    }

    /// Record one operator call producing `out`.
    pub(crate) fn record(
        &self,
        op: OpKind,
        name: &str,
        inputs: &[&LazyTensor],
        out: Out,
        cost: CostHints,
        attrs: &[Attr<'_>],
    ) -> LazyTensor {
        capture_metrics().compute_ops.inc();
        let (id, tensor) = lock(&self.state).call(op, name, out.residency, cost, attrs, inputs);
        self.handle(id, tensor, out)
    }

    fn handle(&self, node: NodeId, tensor: TensorId, out: Out) -> LazyTensor {
        LazyTensor {
            ctx: self.clone(),
            node,
            tensor,
            shape: Shape::new(out.dims),
            elem: out.elem,
        }
    }

    /// Fixed-order all-reduce over per-shard partial sums: the parts are
    /// summed in ascending rank (slot) order with a left-leaning fold,
    /// bit-identical to accumulating them sequentially on one device.
    pub fn all_reduce(&self, parts: &[&LazyTensor]) -> LazyTensor {
        assert!(!parts.is_empty(), "all_reduce of zero shards");
        for p in parts {
            assert_eq!(p.dims(), parts[0].dims(), "all_reduce shape mismatch");
        }
        let bytes = parts[0].size_bytes() as f64;
        let k = parts.len() as f64;
        self.record(
            OpKind::AllReduce,
            "all_reduce",
            parts,
            Out::new(parts[0].dims(), parts[0].elem),
            CostHints::new(
                k * bytes / 4.0, // one add per element per extra shard
                k * bytes,
                bytes,
            ),
            &[("shards", &parts.len())],
        )
    }

    /// Fixed-order all-gather: concatenate per-shard slices along `dim`
    /// in ascending rank (slot) order.
    pub fn all_gather(&self, parts: &[&LazyTensor], dim: usize) -> LazyTensor {
        assert!(!parts.is_empty(), "all_gather of zero shards");
        assert!(dim < parts[0].dims().len(), "all_gather dim out of range");
        let attrs: [Attr; 2] = [("dim", &dim), ("shards", &parts.len())];
        self.join(OpKind::AllGather, "all_gather", parts, dim, &attrs)
    }

    /// Concatenate `parts` along `dim`, in order, as one node.
    pub fn concat(&self, parts: &[&LazyTensor], dim: usize) -> LazyTensor {
        for p in parts {
            assert_eq!(p.dims().len(), parts[0].dims().len(), "concat rank");
        }
        self.join(OpKind::Concat, "concat", parts, dim, &[("dim", &dim)])
    }

    /// `parts` joined along `dim` in order as one `op` node.
    fn join(
        &self,
        op: OpKind,
        name: &str,
        parts: &[&LazyTensor],
        dim: usize,
        attrs: &[Attr<'_>],
    ) -> LazyTensor {
        let mut shape = parts[0].shape.clone();
        shape.dims_mut()[dim] = parts.iter().map(|p| p.dims()[dim]).sum();
        let elem = parts[0].elem;
        let bytes = size_bytes(shape.dims(), elem) as f64;
        let (out, cost) = (
            Out::new(shape.dims(), elem),
            CostHints::new(0.0, bytes, bytes),
        );
        self.record(op, name, parts, out, cost, attrs)
    }
}

/// A deferred tensor: a handle to a node in the capture context. All
/// arithmetic on `LazyTensor`s records SRG nodes instead of executing.
#[derive(Clone)]
pub struct LazyTensor {
    ctx: CaptureCtx,
    /// The producing node.
    pub node: NodeId,
    /// The logical tensor this handle denotes. Every consumer edge carries
    /// the same id, so schedulers can deduplicate fan-out transfers.
    pub tensor: genie_srg::TensorId,
    /// Held inline (see [`Shape`]): a handle is built without the heap.
    shape: Shape,
    elem: ElemType,
}

impl LazyTensor {
    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Bytes of this value at its declared precision.
    pub fn size_bytes(&self) -> usize {
        size_bytes(self.dims(), self.elem)
    }

    fn num_elements(&self) -> usize {
        self.shape.num_elements()
    }

    fn es(&self) -> f64 {
        self.elem.size_bytes() as f64
    }

    /// Mark this value as a model output. Stateful residencies survive:
    /// a KV cache returned to the caller is still a KV cache, and the
    /// scheduler must keep treating it as pinnable state.
    pub fn mark_output(&self) {
        let mut st = lock(&self.ctx.state);
        let st = &mut *st;
        for srg in st.srg.iter_mut().chain(&mut st.shadow) {
            let node = srg.node_mut(self.node);
            if !node.residency.prefers_remote_pinning() {
                node.residency = Residency::ModelOutput;
            }
        }
        st.outputs.push(self.node);
    }

    // ---- binary dense ops -------------------------------------------

    /// Matrix multiply `[m,k] · [k,n] → [m,n]`.
    pub fn matmul(&self, rhs: &LazyTensor) -> LazyTensor {
        assert_eq!(self.dims().len(), 2, "matmul lhs rank");
        assert_eq!(rhs.dims().len(), 2, "matmul rhs rank");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (rhs.dims()[0], rhs.dims()[1]);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let read = (m * k + k * n) as f64 * self.es();
        let write = (m * n) as f64 * self.es();
        self.ctx.record(
            OpKind::MatMul,
            "matmul",
            &[self, rhs],
            Out::new(&[m, n], self.elem),
            CostHints::new(flops, read, write),
            &[],
        )
    }

    /// Elementwise add (same shapes).
    pub fn add(&self, rhs: &LazyTensor) -> LazyTensor {
        assert_eq!(self.dims(), rhs.dims(), "add shape mismatch");
        self.elementwise(OpKind::Add, "add", Some(rhs))
    }

    /// Elementwise multiply (same shapes).
    pub fn mul(&self, rhs: &LazyTensor) -> LazyTensor {
        assert_eq!(self.dims(), rhs.dims(), "mul shape mismatch");
        self.elementwise(OpKind::Mul, "mul", Some(rhs))
    }

    /// Add a rank-1 bias over the innermost dim.
    pub fn add_bias(&self, bias: &LazyTensor) -> LazyTensor {
        assert_eq!(
            bias.dims(),
            &[*self.dims().last().expect("rank >= 1")],
            "bias must match innermost dim"
        );
        let n = self.num_elements() as f64;
        self.ctx.record(
            OpKind::Add,
            "add_bias",
            &[self, bias],
            Out::new(self.dims(), self.elem),
            CostHints::new(n, 2.0 * n * self.es(), n * self.es()),
            &[("bias", &"1")],
        )
    }

    // ---- unary dense ops --------------------------------------------

    /// ReLU.
    pub fn relu(&self) -> LazyTensor {
        self.elementwise(OpKind::Relu, "relu", None)
    }

    /// GELU.
    pub fn gelu(&self) -> LazyTensor {
        self.elementwise(OpKind::Gelu, "gelu", None)
    }

    /// SiLU.
    pub fn silu(&self) -> LazyTensor {
        self.elementwise(OpKind::Silu, "silu", None)
    }

    /// Softmax over the innermost dimension.
    pub fn softmax(&self) -> LazyTensor {
        self.elementwise(OpKind::Softmax, "softmax", None)
    }

    /// Layer norm over the innermost dimension.
    pub fn layer_norm(&self, gamma: &LazyTensor, beta: &LazyTensor, eps: f32) -> LazyTensor {
        let inner = *self.dims().last().expect("rank >= 1");
        assert_eq!(gamma.dims(), &[inner], "gamma shape");
        assert_eq!(beta.dims(), &[inner], "beta shape");
        let n = self.num_elements() as f64;
        self.ctx.record(
            OpKind::LayerNorm,
            "layer_norm",
            &[self, gamma, beta],
            Out::new(self.dims(), self.elem),
            CostHints::new(8.0 * n, 2.0 * n * self.es(), n * self.es()),
            &[("eps", &eps)],
        )
    }

    /// RMS norm over the innermost dimension.
    pub fn rms_norm(&self, gamma: &LazyTensor, eps: f32) -> LazyTensor {
        let inner = *self.dims().last().expect("rank >= 1");
        assert_eq!(gamma.dims(), &[inner], "gamma shape");
        let n = self.num_elements() as f64;
        self.ctx.record(
            OpKind::RmsNorm,
            "rms_norm",
            &[self, gamma],
            Out::new(self.dims(), self.elem),
            CostHints::new(5.0 * n, 2.0 * n * self.es(), n * self.es()),
            &[("eps", &eps)],
        )
    }

    // ---- attention / KV ---------------------------------------------

    /// Fused multi-head scaled-dot-product attention. `self` is the query
    /// `[tq, dm]`; `k`/`v` are `[tk, dm]`.
    pub fn attention(
        &self,
        k: &LazyTensor,
        v: &LazyTensor,
        heads: usize,
        causal: bool,
    ) -> LazyTensor {
        assert_eq!(self.dims().len(), 2, "attention q rank");
        let (tq, dm) = (self.dims()[0], self.dims()[1]);
        let tk = k.dims()[0];
        assert_eq!(k.dims(), &[tk, dm], "k shape");
        assert_eq!(v.dims(), &[tk, dm], "v shape");
        assert_eq!(dm % heads, 0, "heads must divide model dim");
        let flops = 4.0 * tq as f64 * tk as f64 * dm as f64;
        let read = ((tq + 2 * tk) * dm) as f64 * self.es();
        let write = (tq * dm) as f64 * self.es();
        self.ctx.record(
            OpKind::Attention,
            "attention",
            &[self, k, v],
            Out::new(&[tq, dm], self.elem),
            CostHints::new(flops, read, write),
            &[("heads", &heads), ("causal", &causal)],
        )
    }

    /// Append rows to a KV cache along dim 0: `[t, d] ⊕ [n, d] → [t+n, d]`.
    /// The output carries `StatefulKvCache` residency — the signature cue
    /// the paper's scheduler keys on.
    pub fn kv_append(&self, new: &LazyTensor) -> LazyTensor {
        assert_eq!(self.dims().len(), 2, "cache rank");
        assert_eq!(new.dims().len(), 2, "new rows rank");
        assert_eq!(self.dims()[1], new.dims()[1], "kv dim mismatch");
        let delta = new.size_bytes() as f64;
        self.ctx.record(
            OpKind::KvAppend,
            "kv_append",
            &[self, new],
            Out::new(&[self.dims()[0] + new.dims()[0], self.dims()[1]], self.elem)
                .with(Residency::StatefulKvCache),
            CostHints::new(0.0, delta, delta),
            &[],
        )
    }

    // ---- conv / vision ----------------------------------------------

    /// 2-D convolution over NCHW input with `[Cout, Cin, Kh, Kw]` weight.
    pub fn conv2d(
        &self,
        w: &LazyTensor,
        bias: &LazyTensor,
        stride: usize,
        padding: usize,
    ) -> LazyTensor {
        assert_eq!(self.dims().len(), 4, "conv2d input must be NCHW");
        assert_eq!(w.dims().len(), 4, "conv2d weight rank");
        let (n, cin, h, wd) = (
            self.dims()[0],
            self.dims()[1],
            self.dims()[2],
            self.dims()[3],
        );
        let (cout, cin2, kh, kw) = (w.dims()[0], w.dims()[1], w.dims()[2], w.dims()[3]);
        assert_eq!(cin, cin2, "conv2d channel mismatch");
        assert_eq!(bias.dims(), &[cout], "conv2d bias shape");
        assert!(
            kh <= h + 2 * padding && kw <= wd + 2 * padding,
            "conv2d kernel {kh}x{kw} larger than input {h}x{wd} with padding {padding}"
        );
        let oh = (h + 2 * padding - kh) / stride + 1;
        let ow = (wd + 2 * padding - kw) / stride + 1;
        let flops = 2.0 * (n * cout * oh * ow * cin * kh * kw) as f64;
        let read = (self.num_elements() + w.num_elements()) as f64 * self.es();
        let write = (n * cout * oh * ow) as f64 * self.es();
        self.ctx.record(
            OpKind::Conv2d,
            "conv2d",
            &[self, w, bias],
            Out::new(&[n, cout, oh, ow], self.elem),
            CostHints::new(flops, read, write),
            &[("stride", &stride), ("padding", &padding)],
        )
    }

    /// Square max/avg pooling over NCHW input.
    pub fn pool2d(&self, k: usize, stride: usize, avg: bool) -> LazyTensor {
        assert_eq!(self.dims().len(), 4, "pool2d input must be NCHW");
        let (n, c, h, w) = (
            self.dims()[0],
            self.dims()[1],
            self.dims()[2],
            self.dims()[3],
        );
        let oh = (h - k) / stride + 1;
        let ow = (w - k) / stride + 1;
        let nelem = self.num_elements() as f64;
        let out_elems = (n * c * oh * ow) as f64;
        self.ctx.record(
            OpKind::Pool2d,
            "pool2d",
            &[self],
            Out::new(&[n, c, oh, ow], self.elem),
            CostHints::new(nelem, nelem * self.es(), out_elems * self.es()),
            &[("k", &k), ("stride", &stride), ("avg", &avg)],
        )
    }

    /// Global average pooling `[N,C,H,W] → [N,C]`.
    pub fn global_avg_pool(&self) -> LazyTensor {
        assert_eq!(self.dims().len(), 4, "gap input must be NCHW");
        let (n, c) = (self.dims()[0], self.dims()[1]);
        let nelem = self.num_elements() as f64;
        self.ctx.record(
            OpKind::Pool2d,
            "global_avg_pool",
            &[self],
            Out::new(&[n, c], self.elem),
            CostHints::new(nelem, nelem * self.es(), (n * c) as f64 * self.es()),
            &[("gap", &"true")],
        )
    }

    // ---- sparse -----------------------------------------------------

    /// Gather rows of a `[vocab, d]` table by an index tensor: `→ [n, d]`.
    /// `self` is the table.
    pub fn gather(&self, indices: &LazyTensor) -> LazyTensor {
        assert_eq!(self.dims().len(), 2, "gather table rank");
        assert_eq!(indices.elem, ElemType::I64, "indices must be I64");
        let n = indices.num_elements();
        let d = self.dims()[1];
        let bytes = (n * d) as f64 * self.es();
        self.ctx.record(
            OpKind::EmbeddingGather,
            "gather",
            &[self, indices],
            Out::new(&[n, d], self.elem),
            CostHints::new(0.0, bytes, bytes),
            &[],
        )
    }

    /// Sum-pooled multi-hot gather (EmbeddingBag): `→ [d]`.
    pub fn gather_sum(&self, indices: &LazyTensor) -> LazyTensor {
        assert_eq!(self.dims().len(), 2, "gather table rank");
        let n = indices.num_elements();
        let d = self.dims()[1];
        let bytes = (n * d) as f64 * self.es();
        self.ctx.record(
            OpKind::EmbeddingGather,
            "gather_sum",
            &[self, indices],
            Out::new(&[d], self.elem),
            CostHints::new((n * d) as f64, bytes, d as f64 * self.es()),
            &[("pooled", &"true")],
        )
    }

    // ---- sharding / collectives -------------------------------------

    /// Matmul continuing a carried accumulator:
    /// `init[m,n] + self[m,k] · rhs[k,n]`. Chained over contiguous
    /// reduction-range chunks this is bit-identical to the unsharded
    /// matmul (the accumulation order is the scalar reference order),
    /// which makes row-parallel sharding exact.
    pub fn matmul_acc(&self, rhs: &LazyTensor, init: &LazyTensor) -> LazyTensor {
        assert_eq!(self.dims().len(), 2, "matmul_acc lhs rank");
        assert_eq!(rhs.dims().len(), 2, "matmul_acc rhs rank");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (rhs.dims()[0], rhs.dims()[1]);
        assert_eq!(k, k2, "matmul_acc inner dims {k} vs {k2}");
        assert_eq!(init.dims(), &[m, n], "matmul_acc init shape");
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let read = (m * k + k * n + m * n) as f64 * self.es();
        let write = (m * n) as f64 * self.es();
        self.ctx.record(
            OpKind::MatMulAcc,
            "matmul_acc",
            &[self, rhs, init],
            Out::new(&[m, n], self.elem),
            CostHints::new(flops, read, write),
            &[],
        )
    }

    /// Point-to-point activation send between shards. Arithmetic
    /// identity; the scheduler prices it as `from_shard → to_shard`
    /// fabric traffic.
    pub fn send_activation(&self, from_shard: u32, to_shard: u32) -> LazyTensor {
        let bytes = self.size_bytes() as f64;
        self.ctx.record(
            OpKind::SendActivation,
            "send",
            &[self],
            Out::new(self.dims(), self.elem),
            CostHints::new(0.0, bytes, bytes),
            &[("from_shard", &from_shard), ("to_shard", &to_shard)],
        )
    }

    // ---- shape ------------------------------------------------------

    /// Concatenate along `dim`.
    pub fn concat(&self, rhs: &LazyTensor, dim: usize) -> LazyTensor {
        self.ctx.concat(&[self, rhs], dim)
    }

    /// Narrow `dim` to `[start, start+len)`.
    pub fn narrow(&self, dim: usize, start: usize, len: usize) -> LazyTensor {
        assert!(start + len <= self.dims()[dim], "narrow out of range");
        let mut shape = self.shape.clone();
        shape.dims_mut()[dim] = len;
        let bytes = size_bytes(shape.dims(), self.elem) as f64;
        self.ctx.record(
            OpKind::Slice,
            "narrow",
            &[self],
            Out::new(shape.dims(), self.elem),
            CostHints::new(0.0, bytes, bytes),
            &[("dim", &dim), ("start", &start), ("len", &len)],
        )
    }

    /// Reshape (metadata only).
    pub fn reshape(&self, shape: impl AsRef<[usize]>) -> LazyTensor {
        let shape = shape.as_ref();
        assert_eq!(
            shape.iter().product::<usize>(),
            self.num_elements(),
            "reshape element count"
        );
        self.ctx.record(
            OpKind::Reshape,
            "reshape",
            &[self],
            Out::new(shape, self.elem),
            CostHints::ZERO,
            &[("shape", &Dims(shape))],
        )
    }

    /// Transpose a rank-2 value.
    pub fn transpose(&self) -> LazyTensor {
        assert_eq!(self.dims().len(), 2, "transpose rank");
        let bytes = self.size_bytes() as f64;
        self.ctx.record(
            OpKind::Transpose,
            "transpose",
            &[self],
            Out::new(&[self.dims()[1], self.dims()[0]], self.elem),
            CostHints::new(0.0, bytes, bytes),
            &[],
        )
    }

    // ---- output ops -------------------------------------------------

    /// Greedy-sample the next token from `[t, vocab]` logits: argmax of
    /// the last row. Output is a single I64 token id — the vocab-sized
    /// tensor collapses to 8 bytes, the paper's example of a
    /// producer/consumer rate the network layer can exploit.
    pub fn sample(&self) -> LazyTensor {
        assert_eq!(self.dims().len(), 2, "sample expects [t, vocab] logits");
        let n = self.num_elements() as f64;
        self.ctx.record(
            OpKind::Sample,
            "sample",
            &[self],
            Out::new(&[1], ElemType::I64).with(Residency::ModelOutput),
            CostHints::new(n, n * self.es(), 8.0),
            &[],
        )
    }

    /// Mean over the innermost dimension.
    pub fn mean_lastdim(&self) -> LazyTensor {
        let shape = match self.dims() {
            [] | [_] => &[1],
            [outer @ .., _] => outer,
        };
        let n = self.num_elements() as f64;
        let out_elems = shape.iter().product::<usize>() as f64;
        self.ctx.record(
            OpKind::Reduce,
            "mean",
            &[self],
            Out::new(shape, self.elem),
            CostHints::new(n, n * self.es(), out_elems * self.es()),
            &[("kind", &"mean")],
        )
    }

    fn elementwise(&self, op: OpKind, name: &str, rhs: Option<&LazyTensor>) -> LazyTensor {
        let n = self.num_elements() as f64;
        let reads = if rhs.is_some() { 2.0 } else { 1.0 };
        let cost = CostHints::new(n, reads * n * self.es(), n * self.es());
        let pair;
        let inputs: &[&LazyTensor] = match rhs {
            Some(r) => {
                pair = [self, r];
                &pair
            }
            None => &[self],
        };
        self.ctx.record(
            op,
            name,
            inputs,
            Out::new(self.dims(), self.elem),
            cost,
            &[],
        )
    }
}

/// What [`CaptureCtx::finish`] does with a denied capture.
pub(crate) fn lint_gate_panic(report: &Report) -> ! {
    panic!("semantic lint gate rejected capture:\n{report}")
}

/// Dims as a reshape's `shape` attribute states them (`2,3,4`),
/// rendered only where the attribute is written or compared.
struct Dims<'a>(&'a [usize]);

impl fmt::Display for Dims<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(f, "{sep}{d}")?;
        }
        Ok(())
    }
}

/// Bytes of a `dims` tensor of `elem`.
fn size_bytes(dims: &[usize], elem: ElemType) -> usize {
    dims.iter().product::<usize>() * elem.size_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_builds_graph_without_executing() {
        let ctx = CaptureCtx::new("g");
        let w = ctx.parameter("w", [4, 4], ElemType::F32, None);
        let x = ctx.input("x", [2, 4], ElemType::F32, None);
        let y = x.matmul(&w.transpose());
        y.mark_output();
        let cap = ctx.finish();
        assert_eq!(cap.srg.node_count(), 4); // w, x, transpose, matmul
        assert_eq!(cap.outputs.len(), 1);
        assert!(genie_srg::validate::validate(&cap.srg).is_empty());
        assert!(cap.values.is_empty(), "spec-only capture holds no data");
    }

    #[test]
    fn shapes_checked_eagerly() {
        let ctx = CaptureCtx::new("g");
        let a = ctx.input("a", [2, 3], ElemType::F32, None);
        let b = ctx.input("b", [4, 5], ElemType::F32, None);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.matmul(&b)));
        assert!(result.is_err(), "shape mismatch must panic at capture time");
    }

    #[test]
    fn scopes_annotate_nodes() {
        let ctx = CaptureCtx::new("g");
        let x = ctx.input("x", [1, 8], ElemType::F32, None);
        let y = ctx.scope("decoder", || {
            ctx.phase_scope(Phase::LlmDecode, || ctx.scope("mlp", || x.relu()))
        });
        let cap = ctx.finish();
        let node = cap.srg.node(y.node);
        assert_eq!(node.module_path, "decoder.mlp");
        assert_eq!(node.phase, Phase::LlmDecode);
    }

    #[test]
    fn cost_hints_scale_with_shapes() {
        let ctx = CaptureCtx::new("g");
        let a = ctx.input("a", [8, 16], ElemType::F32, None);
        let b = ctx.input("b", [16, 32], ElemType::F32, None);
        let c = a.matmul(&b);
        let cap = ctx.finish();
        let cost = cap.srg.node(c.node).cost;
        assert_eq!(cost.flops, 2.0 * 8.0 * 16.0 * 32.0);
        assert!(cost.bytes_read > 0.0 && cost.bytes_written > 0.0);
    }

    #[test]
    fn kv_append_grows_and_tags_residency() {
        let ctx = CaptureCtx::new("g");
        let cache = ctx.empty_cache("kv", 8, ElemType::F32, true);
        let new = ctx.input("new", [1, 8], ElemType::F32, None);
        let grown = cache.kv_append(&new);
        assert_eq!(grown.dims(), &[1, 8]);
        let grown2 = grown.kv_append(&new);
        assert_eq!(grown2.dims(), &[2, 8]);
        let cap = ctx.finish();
        assert_eq!(
            cap.srg.node(grown2.node).residency,
            Residency::StatefulKvCache
        );
    }

    #[test]
    fn sample_collapses_to_one_token() {
        let ctx = CaptureCtx::new("g");
        let logits = ctx.input("logits", [1, 50400], ElemType::F32, None);
        let tok = logits.sample();
        assert_eq!(tok.size_bytes(), 8);
        let cap = ctx.finish();
        assert_eq!(cap.srg.node(tok.node).residency, Residency::ModelOutput);
    }

    #[test]
    fn parameters_carry_payloads_functionally() {
        let ctx = CaptureCtx::new("g");
        let w = ctx.parameter("w", [2, 2], ElemType::F32, Some(Tensor::ones([2, 2])));
        let cap = ctx.finish();
        assert!(matches!(cap.values.get(&w.node), Some(Value::F(_))));
    }

    #[test]
    #[should_panic(expected = "payload shape mismatch")]
    fn payload_shape_mismatch_panics() {
        let ctx = CaptureCtx::new("g");
        ctx.parameter("w", [2, 2], ElemType::F32, Some(Tensor::ones([3])));
    }

    #[test]
    fn conv_output_shape() {
        let ctx = CaptureCtx::new("g");
        let x = ctx.input("x", [1, 3, 32, 32], ElemType::F32, None);
        let w = ctx.parameter("w", [16, 3, 3, 3], ElemType::F32, None);
        let b = ctx.parameter("b", [16], ElemType::F32, None);
        let y = x.conv2d(&w, &b, 1, 1);
        assert_eq!(y.dims(), &[1, 16, 32, 32]);
        let p = y.pool2d(2, 2, false);
        assert_eq!(p.dims(), &[1, 16, 16, 16]);
    }

    /// Unchecked, a 3×3 kernel over a 2×2 input records a `[1,1,0,0]`
    /// node in a release build and a 5×5 one wraps further.
    fn capture_conv_with_kernel(k: usize) {
        let ctx = CaptureCtx::new("g");
        let x = ctx.input("x", [1, 1, 2, 2], ElemType::F32, None);
        let w = ctx.parameter("w", [1, 1, k, k], ElemType::F32, None);
        let b = ctx.parameter("b", [1], ElemType::F32, None);
        x.conv2d(&w, &b, 1, 0);
    }

    #[test]
    #[should_panic(expected = "larger than input")]
    fn conv_capture_rejects_a_kernel_one_past_the_padded_input() {
        capture_conv_with_kernel(3);
    }

    #[test]
    #[should_panic(expected = "larger than input")]
    fn conv_capture_rejects_a_kernel_far_past_the_padded_input() {
        capture_conv_with_kernel(5);
    }

    #[test]
    fn finish_rejects_phase_incoherent_capture() {
        // A decode-phase value feeding a prefill-phase op inverts the
        // LLM serving order; the lint gate must fail the capture fast.
        let ctx = CaptureCtx::new("g");
        let x = ctx.input("x", [1, 8], ElemType::F32, None);
        let decoded = ctx.phase_scope(Phase::LlmDecode, || x.relu());
        ctx.phase_scope(Phase::LlmPrefill, || decoded.relu().mark_output());
        let report = ctx
            .finish_checked(&genie_analysis::LintConfig::new())
            .expect_err("phase inversion must be denied");
        assert!(report.has_deny(), "{report}");
        assert!(
            !report
                .with_code(genie_analysis::LintCode::PhaseIncoherence)
                .is_empty(),
            "{report}"
        );
    }

    #[test]
    fn finish_panics_with_rendered_report_on_deny() {
        let ctx = CaptureCtx::new("g");
        let x = ctx.input("x", [1, 8], ElemType::F32, None);
        let decoded = ctx.phase_scope(Phase::LlmDecode, || x.relu());
        ctx.phase_scope(Phase::LlmPrefill, || decoded.relu().mark_output());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.finish()));
        let msg = *result
            .expect_err("deny finding must panic")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("GA003"), "{msg}");
    }

    #[test]
    fn finish_checked_allow_suppresses_deny() {
        let ctx = CaptureCtx::new("g");
        let x = ctx.input("x", [1, 8], ElemType::F32, None);
        let decoded = ctx.phase_scope(Phase::LlmDecode, || x.relu());
        ctx.phase_scope(Phase::LlmPrefill, || decoded.relu().mark_output());
        let cfg =
            genie_analysis::LintConfig::new().allow(genie_analysis::LintCode::PhaseIncoherence);
        let cap = ctx.finish_checked(&cfg).expect("allowed code passes gate");
        assert_eq!(cap.outputs.len(), 1);
    }

    #[test]
    fn capture_feeds_telemetry_counters() {
        // Global metrics are shared across tests, so assert growth only.
        let count = |kind: &str| {
            genie_telemetry::global()
                .metrics
                .snapshot()
                .counter("genie_capture_ops_total", &[("kind", kind)])
                .unwrap_or(0)
        };
        let (src_before, op_before) = (count("source"), count("compute"));
        let ctx = CaptureCtx::new("telemetry");
        let x = ctx.input("x", [1, 4], ElemType::F32, None);
        ctx.scope("m", || x.relu()).mark_output();
        let _ = ctx.finish();
        assert!(count("source") > src_before);
        assert!(count("compute") > op_before);
        let scopes = genie_telemetry::global()
            .metrics
            .snapshot()
            .counter("genie_capture_scopes_total", &[("tier", "module")])
            .unwrap_or(0);
        assert!(scopes >= 1);
    }

    #[test]
    fn attention_requires_divisible_heads() {
        let ctx = CaptureCtx::new("g");
        let q = ctx.input("q", [2, 8], ElemType::F32, None);
        let k = ctx.input("k", [4, 8], ElemType::F32, None);
        let v = ctx.input("v", [4, 8], ElemType::F32, None);
        let o = q.attention(&k, &v, 2, true);
        assert_eq!(o.dims(), &[2, 8]);
        let cap = ctx.finish();
        let n = cap.srg.node(o.node);
        assert_eq!(n.attrs["heads"], "2");
        assert_eq!(n.attrs["causal"], "true");
    }
}
