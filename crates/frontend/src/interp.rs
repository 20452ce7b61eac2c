//! Reference interpreter: executes a captured SRG with real arithmetic.
//!
//! This is the ground truth for every functional test in the platform —
//! lazy capture must produce the same numbers as eager evaluation, remote
//! execution must produce the same numbers as local, and lineage replay
//! must reproduce lost values exactly. Backends delegate to this
//! interpreter for the compute they "run".
//!
//! There is one executor. It groups the graph into dependency levels
//! (longest-path depth, via [`genie_srg::traverse::levels`]), keeps live
//! values in a dense slot table indexed by [`NodeId::index`], and
//! evaluates level by level. The grouping depends on the graph's
//! structure only, so a caller whose graph keeps its structure from one
//! step to the next ([`crate::recapture`]) hands the same grouping back
//! in; everyone else has it computed on entry. Nodes within a level are
//! mutually independent, so a level *may* be fanned out over the
//! process-wide worker pool ([`genie_tensor::pool`]); whether it is, is
//! decided by cost, not by count (see [`level_fans_out`]), from the cost
//! hints the graph carries now. Node-level scheduling
//! never changes arithmetic — each node's kernel is deterministic and
//! level order respects every edge — so [`execute`] and
//! [`execute_outputs`] are bit-identical to [`execute_sequential`], the
//! reference they are tested against: a plain loop over the graph's
//! topological order through the same kernels, sharing no grouping with
//! the executor and never touching the pool. Dead intermediates dropped
//! by [`execute_outputs`] return their buffers to the tensor arena for
//! the next allocation to reuse.

use crate::value::Value;
use genie_srg::{Name, Node, NodeId, OpKind, Srg};
use genie_telemetry::{Counter, Gauge};
use genie_tensor::ops;
use genie_tensor::stats::{self, OPS, PATHS, PATH_COUNT};
use genie_tensor::{pool, Tensor};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Interpretation failure.
#[derive(Debug)]
pub enum InterpError {
    /// A source node has no payload bound.
    MissingValue {
        /// The unbound node.
        node: NodeId,
        /// Its name.
        name: String,
    },
    /// The graph contains a cycle.
    Cycle,
    /// An operator is not supported by the functional plane.
    Unsupported {
        /// The offending node.
        node: NodeId,
        /// Operator mnemonic.
        op: String,
    },
    /// A requested output is not a node of the graph.
    UnknownOutput {
        /// The id that names no node.
        node: NodeId,
    },
    /// A node has fewer in-edges than its operator reads operands.
    MissingOperand {
        /// The offending node.
        node: NodeId,
        /// Operator mnemonic.
        op: String,
        /// Operands the operator reads.
        needs: usize,
    },
    /// An attribute the operator needs does not parse.
    BadAttr {
        /// The offending node.
        node: NodeId,
        /// The attribute key.
        key: &'static str,
    },
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::MissingValue { node, name } => {
                write!(f, "no payload bound for source {node} ({name})")
            }
            InterpError::Cycle => write!(f, "graph contains a cycle"),
            InterpError::Unsupported { node, op } => {
                write!(f, "operator {op} at {node} unsupported in functional plane")
            }
            InterpError::UnknownOutput { node } => {
                write!(f, "requested output {node} is not in the graph")
            }
            InterpError::MissingOperand { node, op, needs } => {
                write!(f, "operator {op} at {node} needs {needs} operands")
            }
            InterpError::BadAttr { node, key } => {
                write!(f, "attribute `{key}` of {node} does not parse")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Execute every node of `srg`, reading source payloads from `bindings`.
/// Returns the value of every node (every node's value is part of the
/// contract, so nothing is dropped along the way).
pub fn execute(
    srg: &Srg,
    bindings: &HashMap<NodeId, Value>,
) -> Result<HashMap<NodeId, Value>, InterpError> {
    run(srg, None, bindings, None).map(into_map)
}

/// Sequential reference: every node in the graph's topological order,
/// one at a time, through the same kernels. It shares no level grouping
/// with the executor and never touches the worker pool, so it is the
/// independent oracle the executor is tested against; also for
/// environments where touching the pool is unwanted. Returns the value of
/// every node.
pub fn execute_sequential(
    srg: &Srg,
    bindings: &HashMap<NodeId, Value>,
) -> Result<HashMap<NodeId, Value>, InterpError> {
    let stats_before = stats::snapshot();
    let order = genie_srg::traverse::topo_order(srg).map_err(|_| InterpError::Cycle)?;
    let mut values: HashMap<NodeId, Value> = HashMap::with_capacity(order.len());
    for id in order {
        let input = |src: NodeId| values.get(&src).expect("topo order guarantees inputs");
        let value = eval_node(srg, id, input, bindings)?;
        values.insert(id, value);
    }
    publish_dispatch_delta(&stats_before);
    Ok(values)
}

/// Execute and return only the requested outputs, in order. Interior
/// values are dropped as soon as their last consumer has run, so peak
/// memory tracks the widest live wavefront instead of the whole graph.
pub fn execute_outputs(
    srg: &Srg,
    bindings: &HashMap<NodeId, Value>,
    outputs: &[NodeId],
) -> Result<Vec<Value>, InterpError> {
    execute_outputs_planned(srg, None, bindings, outputs)
}

/// [`execute_outputs`] over a plan computed earlier for this structure
/// (`None`: compute it now).
pub(crate) fn execute_outputs_planned(
    srg: &Srg,
    plan: Option<&ExecPlan>,
    bindings: &HashMap<NodeId, Value>,
    outputs: &[NodeId],
) -> Result<Vec<Value>, InterpError> {
    let mut slots = run(srg, plan, bindings, Some(outputs))?;
    Ok(outputs
        .iter()
        .enumerate()
        .map(|(i, id)| {
            // An id listed twice is cloned for all but its last mention.
            let slot = &mut slots[id.index()];
            let value = if outputs[i + 1..].contains(id) {
                slot.clone()
            } else {
                slot.take()
            };
            value.expect("outputs exist in graph")
        })
        .collect())
}

fn into_map(slots: Vec<Option<Value>>) -> HashMap<NodeId, Value> {
    let mut map = HashMap::with_capacity(slots.len());
    for (i, v) in slots.into_iter().enumerate() {
        if let Some(v) = v {
            map.insert(NodeId::new(i as u32), v);
        }
    }
    map
}

/// What the executor derives from a graph's structure alone — nodes,
/// edges and their ends, not shapes, costs or payloads — so it stays
/// valid for as long as the structure does. Level `l` is
/// `order[starts[l]..starts[l + 1]]`, ascending id within a level, so
/// evaluation order is deterministic.
#[derive(Clone, Debug)]
pub(crate) struct ExecPlan {
    order: Vec<NodeId>,
    starts: Vec<usize>,
}

impl ExecPlan {
    /// Group nodes into dependency levels: every node's inputs live in a
    /// strictly earlier level, and nodes within a level are independent.
    pub(crate) fn of(srg: &Srg) -> Result<ExecPlan, InterpError> {
        let lv = genie_srg::traverse::levels(srg).map_err(|_| InterpError::Cycle)?;
        let depth = lv.iter().copied().max().map_or(0, |d| d + 1);
        let mut starts = vec![0usize; depth + 1];
        for &l in &lv {
            starts[l + 1] += 1;
        }
        for l in 0..depth {
            starts[l + 1] += starts[l];
        }
        // Counting sort by level; `cursor[l]` is the next free place of level `l`.
        let mut cursor = starts.clone();
        let mut order = vec![NodeId::new(0); lv.len()];
        for id in srg.node_ids() {
            let at = &mut cursor[lv[id.index()]];
            order[*at] = id;
            *at += 1;
        }
        Ok(ExecPlan { order, starts })
    }

    /// The levels, first to last.
    fn levels(&self) -> impl Iterator<Item = &[NodeId]> {
        self.starts.windows(2).map(|b| &self.order[b[0]..b[1]])
    }
}

/// How many operands [`eval_node`] reads for `op` (the collectives take
/// however many arrive; unsupported operators are refused there).
fn operands(op: &OpKind) -> usize {
    use OpKind::*;
    match op {
        LayerNorm | Attention | Conv2d | MatMulAcc => 3,
        MatMul | Add | Mul | RmsNorm | KvAppend | EmbeddingGather | Concat => 2,
        Relu | Gelu | Silu | Softmax | Pool2d | Slice | Reshape | Transpose | Reduce | Sample
        | SendActivation | Output => 1,
        _ => 0,
    }
}

/// Summed FLOP hints of one level, as the graph states them now.
fn level_flops(srg: &Srg, level: &[NodeId]) -> f64 {
    level.iter().map(|&id| srg.node(id).cost.flops).sum()
}

/// Whether a level of `width` independent nodes costing `flops` in total
/// is worth a trip through the worker pool on `cores` cores. The
/// threshold is the kernels' own ([`ops::MATMUL_PAR_MIN_FLOPS`]): below
/// the work at which a single matmul pays for a queue round-trip and a
/// wake-up, a whole level does not pay for one either.
pub fn level_fans_out(flops: f64, width: usize, cores: usize) -> bool {
    width >= 2 && cores >= 2 && flops >= ops::MATMUL_PAR_MIN_FLOPS as f64
}

/// The one evaluation loop. `plan` is the graph's [`ExecPlan`] when the
/// caller kept one (`None`: computed here). With `retain = Some(outputs)`
/// a value is released once its last consumer has run (outputs are
/// always kept); with `None` every value is kept. Returns the slot table.
fn run(
    srg: &Srg,
    plan: Option<&ExecPlan>,
    bindings: &HashMap<NodeId, Value>,
    retain: Option<&[NodeId]>,
) -> Result<Vec<Option<Value>>, InterpError> {
    let stats_before = stats::snapshot();
    // Pool workers plus the helping caller.
    let cores = pool::size() + 1;
    let n = srg.node_count();
    if let Some(&node) = retain.unwrap_or_default().iter().find(|id| id.index() >= n) {
        return Err(InterpError::UnknownOutput { node });
    }
    let built;
    let plan = match plan {
        Some(plan) => plan,
        None => {
            built = ExecPlan::of(srg)?;
            &built
        }
    };
    debug_assert_eq!(plan.order.len(), n, "plan belongs to another structure");
    let mut slots: Vec<Option<Value>> = vec![None; n];
    // Consumers still to run per node; `usize::MAX` pins a kept value.
    let mut remaining: Vec<usize> = match retain {
        Some(_) => srg.node_ids().map(|id| srg.out_degree(id)).collect(),
        None => Vec::new(),
    };
    for id in retain.unwrap_or_default() {
        remaining[id.index()] = usize::MAX;
    }

    for group in plan.levels() {
        if level_fans_out(level_flops(srg, group), group.len(), cores) {
            let results = eval_level_pooled(srg, group, &slots, bindings, cores);
            for (id, res) in group.iter().zip(results) {
                slots[id.index()] = Some(res?);
            }
        } else {
            for &id in group {
                let value = eval_node(srg, id, |src| input_slot(&slots, src), bindings)?;
                slots[id.index()] = Some(value);
            }
        }
        if retain.is_some() {
            // All of this level's reads are done; release inputs whose
            // last consumer just ran.
            for &id in group {
                for e in srg.in_edges(id) {
                    let r = &mut remaining[e.src.index()];
                    if *r != usize::MAX {
                        *r = r.saturating_sub(1);
                        if *r == 0 {
                            slots[e.src.index()] = None;
                        }
                    }
                }
            }
        }
    }
    publish_dispatch_delta(&stats_before);
    Ok(slots)
}

fn input_slot(slots: &[Option<Value>], src: NodeId) -> &Value {
    slots[src.index()]
        .as_ref()
        .expect("level order guarantees inputs")
}

/// Evaluate one level across the pool, in contiguous chunks of `group`.
/// Result order matches `group` order.
fn eval_level_pooled(
    srg: &Srg,
    group: &[NodeId],
    slots: &[Option<Value>],
    bindings: &HashMap<NodeId, Value>,
    cores: usize,
) -> Vec<Result<Value, InterpError>> {
    let per = group.len().div_ceil(cores.min(group.len()));
    let mut results: Vec<Option<Result<Value, InterpError>>> =
        (0..group.len()).map(|_| None).collect();
    pool::scope(|scope| {
        for (chunk, ids) in results.chunks_mut(per).zip(group.chunks(per)) {
            scope.spawn(move || {
                for (slot, &id) in chunk.iter_mut().zip(ids) {
                    *slot = Some(eval_node(srg, id, |src| input_slot(slots, src), bindings));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every level slot filled"))
        .collect()
}

/// Publish kernel-dispatch counts accumulated since `before` as
/// `genie_tensor_kernel_dispatch_total{op,path}` counters, plus the
/// worker-pool occupancy high-water mark as `genie_worker_pool_busy` and
/// the workers' parks as `genie_worker_pool_parks_total`.
///
/// Every graph executed comes here, so the handles are resolved once per
/// process, as `capture::capture_metrics` holds its own: a registry lookup
/// builds its key and searches under the registry mutex, a held handle is
/// one atomic add. Each is resolved the first time it has something to
/// publish, so a series still appears exactly when it first moves.
fn publish_dispatch_delta(before: &stats::Snapshot) {
    static DISPATCH: [[OnceLock<Counter>; PATH_COUNT]; OPS.len()] =
        [const { [const { OnceLock::new() }; PATH_COUNT] }; OPS.len()];
    static POOL_BUSY: OnceLock<Gauge> = OnceLock::new();
    static POOL_PARKS: OnceLock<Counter> = OnceLock::new();
    static PARKS_PUBLISHED: AtomicUsize = AtomicUsize::new(0);

    let delta = stats::snapshot().since(before);
    if delta.total() == 0 {
        return;
    }
    let metrics = &genie_telemetry::global().metrics;
    for (op, cells) in OPS.into_iter().zip(&DISPATCH) {
        for (path, cell) in PATHS.into_iter().zip(cells) {
            let n = delta.get(op, path);
            if n > 0 {
                let labels = [("op", op), ("path", path.label())];
                cell.get_or_init(|| metrics.counter("genie_tensor_kernel_dispatch_total", &labels))
                    .add(n);
            }
        }
    }
    let peak = pool::busy_peak_take();
    if peak > 0 {
        POOL_BUSY
            .get_or_init(|| metrics.gauge("genie_worker_pool_busy", &[]))
            .set(peak as f64);
    }
    let parks = pool::parks();
    let published = PARKS_PUBLISHED.fetch_max(parks, Ordering::Relaxed);
    if parks > published {
        POOL_PARKS
            .get_or_init(|| metrics.counter("genie_worker_pool_parks_total", &[]))
            .add((parks - published) as u64);
    }
}

/// Evaluate one node. `input` resolves a producer to its value; operand
/// `i` is the producer on the node's `i`-th in-edge (slot order).
fn eval_node<'v>(
    srg: &Srg,
    id: NodeId,
    input: impl Fn(NodeId) -> &'v Value,
    bindings: &HashMap<NodeId, Value>,
) -> Result<Value, InterpError> {
    let node = srg.node(id);
    // Operand `i` is read off the `i`-th in-edge; a graph from outside (a
    // peer's, over `backend::remote`) may have too few.
    let needs = operands(&node.op);
    if srg.in_degree(id) < needs {
        return Err(InterpError::MissingOperand {
            node: id,
            op: node.op.mnemonic().to_string(),
            needs,
        });
    }
    let arg = |i: usize| input(srg.in_edges(id).nth(i).expect("operands counted above").src);
    let attr = |key: &str| node.attrs.get(key).map_or("", Name::as_str);
    let attr_usize = |key| number(id, node, key, 0usize);

    Ok(match &node.op {
        OpKind::Parameter | OpKind::Input => {
            bindings
                .get(&id)
                .cloned()
                .ok_or_else(|| InterpError::MissingValue {
                    node: id,
                    name: node.name.to_string(),
                })?
        }
        OpKind::MatMul => Value::F(ops::matmul(arg(0).as_f("matmul"), arg(1).as_f("matmul"))),
        OpKind::Add => {
            if attr("bias") == "1" {
                Value::F(ops::add_bias(arg(0).as_f("add"), arg(1).as_f("bias")))
            } else {
                Value::F(ops::add(arg(0).as_f("add"), arg(1).as_f("add")))
            }
        }
        OpKind::Mul => Value::F(ops::mul(arg(0).as_f("mul"), arg(1).as_f("mul"))),
        OpKind::Relu => Value::F(ops::relu(arg(0).as_f("relu"))),
        OpKind::Gelu => Value::F(ops::gelu(arg(0).as_f("gelu"))),
        OpKind::Silu => Value::F(ops::silu(arg(0).as_f("silu"))),
        OpKind::Softmax => Value::F(ops::softmax_lastdim(arg(0).as_f("softmax"))),
        OpKind::LayerNorm => {
            let eps = number(id, node, "eps", 1e-5f32)?;
            Value::F(ops::layer_norm(
                arg(0).as_f("layer_norm"),
                arg(1).as_f("gamma"),
                arg(2).as_f("beta"),
                eps,
            ))
        }
        OpKind::RmsNorm => {
            let eps = number(id, node, "eps", 1e-6f32)?;
            Value::F(ops::rms_norm(
                arg(0).as_f("rms_norm"),
                arg(1).as_f("gamma"),
                eps,
            ))
        }
        OpKind::Attention => {
            let heads = attr_usize("heads")?.max(1);
            let causal = attr("causal") == "true";
            Value::F(ops::multi_head_attention(
                arg(0).as_f("q"),
                arg(1).as_f("k"),
                arg(2).as_f("v"),
                heads,
                causal,
            ))
        }
        OpKind::KvAppend => Value::F(ops::concat(arg(0).as_f("cache"), arg(1).as_f("new"), 0)),
        OpKind::Conv2d => Value::F(ops::conv2d(
            arg(0).as_f("x"),
            arg(1).as_f("w"),
            arg(2).as_f("bias"),
            attr_usize("stride")?.max(1),
            attr_usize("padding")?,
        )),
        OpKind::Pool2d => {
            let x = arg(0).as_f("pool");
            if attr("gap") == "true" {
                Value::F(ops::global_avg_pool(x))
            } else {
                let mode = if attr("avg") == "true" {
                    ops::PoolMode::Avg
                } else {
                    ops::PoolMode::Max
                };
                Value::F(ops::pool2d(
                    x,
                    attr_usize("k")?.max(1),
                    attr_usize("stride")?.max(1),
                    mode,
                ))
            }
        }
        OpKind::EmbeddingGather => {
            let table = arg(0).as_f("table");
            let idx = arg(1).as_i("indices");
            if attr("pooled") == "true" {
                Value::F(ops::gather_sum(table, idx))
            } else {
                Value::F(ops::gather_rows(table, idx))
            }
        }
        OpKind::Slice => Value::F(ops::narrow(
            arg(0).as_f("narrow"),
            attr_usize("dim")?,
            attr_usize("start")?,
            attr_usize("len")?,
        )),
        OpKind::Reshape => {
            let dims = attr("shape").split(',').filter(|s| !s.is_empty());
            let shape: Vec<usize> =
                dims.map(|s| s.parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| InterpError::BadAttr {
                        node: id,
                        key: "shape",
                    })?;
            // Zero-copy: a reshaped view shares the input's buffer.
            Value::F(arg(0).as_f("reshape").reshaped(shape))
        }
        OpKind::Transpose => Value::F(ops::transpose2d(arg(0).as_f("transpose"))),
        OpKind::Reduce => {
            let x = arg(0).as_f("reduce");
            match attr("kind") {
                "sum" => Value::F(ops::sum_lastdim(x)),
                "max" => Value::F(ops::max_lastdim(x)),
                _ => Value::F(ops::mean_lastdim(x)),
            }
        }
        OpKind::Sample => {
            let logits = arg(0).as_f("sample");
            let t = logits.dims()[0];
            let last = ops::narrow(logits, 0, t - 1, 1);
            Value::I(ops::argmax_lastdim(&last))
        }
        OpKind::MatMulAcc => Value::F(ops::matmul_acc(
            arg(0).as_f("matmul_acc"),
            arg(1).as_f("matmul_acc"),
            arg(2).as_f("acc"),
        )),
        OpKind::AllReduce => {
            let parts: Vec<&Tensor> = srg
                .in_edges(id)
                .map(|e| input(e.src).as_f("all_reduce"))
                .collect();
            Value::F(ops::all_reduce_sum(&parts))
        }
        // A concat is the all-gather's fold over its parts, in slot order.
        OpKind::Concat | OpKind::AllGather => {
            let parts: Vec<&Tensor> = srg
                .in_edges(id)
                .map(|e| input(e.src).as_f(node.op.mnemonic()))
                .collect();
            Value::F(ops::all_gather(&parts, attr_usize("dim")?))
        }
        // A point-to-point send is the identity on the value; its cost
        // lives in the plan's transfer schedule, not the arithmetic.
        OpKind::SendActivation => arg(0).clone(),
        OpKind::Output => arg(0).clone(),
        other => {
            return Err(InterpError::Unsupported {
                node: id,
                op: other.mnemonic().to_string(),
            })
        }
    })
}

/// The numeric attribute `key` of `node`: `default` when it is absent,
/// [`InterpError::BadAttr`] when it is present and does not parse.
fn number<T: std::str::FromStr>(
    id: NodeId,
    node: &Node,
    key: &'static str,
    default: T,
) -> Result<T, InterpError> {
    node.attrs.get(key).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| InterpError::BadAttr { node: id, key })
    })
}

/// Convenience: bind nothing extra, run, and return a single float output.
pub fn run_single_output(cap: &crate::capture::CapturedGraph) -> Result<Tensor, InterpError> {
    let out = cap.outputs.last().expect("capture has an output");
    let vals = execute_outputs(&cap.srg, &cap.values, &[*out])?;
    Ok(vals[0].as_f("output").clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{CaptureCtx, CapturedGraph};
    use genie_srg::ElemType;
    use genie_tensor::init::randn;

    #[test]
    fn lazy_matches_eager_matmul_chain() {
        let a = randn([4, 8], 1);
        let b = randn([8, 8], 2);
        // Eager reference.
        let eager = ops::relu(&ops::matmul(&a, &b));

        // Lazy capture + interpret.
        let ctx = CaptureCtx::new("g");
        let la = ctx.input("a", [4, 8], ElemType::F32, Some(a));
        let lb = ctx.parameter("b", [8, 8], ElemType::F32, Some(b));
        let ly = la.matmul(&lb).relu();
        ly.mark_output();
        let cap = ctx.finish();
        let out = run_single_output(&cap).unwrap();
        assert!(out.approx_eq(&eager, 1e-6));
    }

    #[test]
    fn an_unparsable_numeric_attribute_is_a_typed_error() {
        // A layer norm and an attention, captured and then handed an
        // `eps` and a `heads` that do not parse; each runs once its
        // attribute is gone (the defaults) and once it is well formed.
        let ctx = CaptureCtx::new("g");
        let f = |name, dims: [usize; 2]| {
            ctx.input(name, dims, ElemType::F32, Some(randn(dims, dims[0] as u64)))
        };
        let (x, q) = (f("x", [2, 4]), f("q", [3, 4]));
        let (g, b) = (f("g", [1, 4]).reshape([4]), f("b", [1, 4]).reshape([4]));
        let norm = x.layer_norm(&g, &b, 1e-5);
        let att = q.attention(&q, &q, 2, true);
        let mut cap = ctx.finish();
        for (node, key, bad) in [(norm.node, "eps", "x"), (att.node, "heads", "-1")] {
            let run = |cap: &CapturedGraph| execute_outputs(&cap.srg, &cap.values, &[node]);
            assert!(run(&cap).is_ok());
            cap.srg.node_mut(node).attrs.insert(key.into(), bad.into());
            let err = run(&cap).unwrap_err();
            assert!(
                matches!(err, InterpError::BadAttr { node: n, key: k } if n == node && k == key)
            );
            assert_eq!(
                err.to_string(),
                format!("attribute `{key}` of {node} does not parse")
            );
            cap.srg.node_mut(node).attrs.remove(key);
            assert!(run(&cap).is_ok());
        }
    }

    #[test]
    fn missing_binding_is_reported() {
        let ctx = CaptureCtx::new("g");
        let x = ctx.input("x", [2, 2], ElemType::F32, None); // no payload
        let y = x.relu();
        y.mark_output();
        let cap = ctx.finish();
        let err = execute(&cap.srg, &cap.values).unwrap_err();
        assert!(matches!(err, InterpError::MissingValue { .. }));
        assert!(err.to_string().contains("x"));
    }

    #[test]
    fn kv_append_interp_grows_cache() {
        let ctx = CaptureCtx::new("g");
        let cache = ctx.empty_cache("kv", 4, ElemType::F32, true);
        let row = ctx.input(
            "row",
            [1, 4],
            ElemType::F32,
            Some(genie_tensor::Tensor::ones([1, 4])),
        );
        let grown = cache.kv_append(&row).kv_append(&row);
        grown.mark_output();
        let cap = ctx.finish();
        let out = run_single_output(&cap).unwrap();
        assert_eq!(out.dims(), &[2, 4]);
        assert_eq!(out.data(), &[1.0; 8]);
    }

    #[test]
    fn sample_returns_argmax_of_last_row() {
        let ctx = CaptureCtx::new("g");
        let logits = ctx.input(
            "logits",
            [2, 4],
            ElemType::F32,
            Some(Tensor::from_vec(
                [2, 4],
                vec![9.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0, 0.0],
            )),
        );
        let tok = logits.sample();
        tok.mark_output();
        let cap = ctx.finish();
        let vals = execute_outputs(&cap.srg, &cap.values, &[tok.node]).unwrap();
        assert_eq!(vals[0].as_i("tok").data(), &[2]);
    }

    #[test]
    fn embedding_then_mlp_pipeline() {
        let table = randn([10, 4], 3);
        let w = randn([4, 2], 4);
        let ctx = CaptureCtx::new("g");
        let lt = ctx.parameter("table", [10, 4], ElemType::F32, Some(table.clone()));
        let ids = ctx.input_ids("ids", &[1, 3]);
        let lw = ctx.parameter("w", [4, 2], ElemType::F32, Some(w.clone()));
        let y = lt.gather(&ids).matmul(&lw);
        y.mark_output();
        let cap = ctx.finish();
        let got = run_single_output(&cap).unwrap();

        let rows = ops::gather_rows(&table, &genie_tensor::IndexTensor::from_slice(&[1, 3]));
        let expect = ops::matmul(&rows, &w);
        assert!(got.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn conv_pipeline_matches_eager() {
        let x = randn([1, 2, 8, 8], 7);
        let w = randn([4, 2, 3, 3], 8);
        let b = randn([4], 9);
        let eager = ops::global_avg_pool(&ops::pool2d(
            &ops::relu(&ops::conv2d(&x, &w, &b, 1, 1)),
            2,
            2,
            ops::PoolMode::Max,
        ));

        let ctx = CaptureCtx::new("g");
        let lx = ctx.input("x", [1, 2, 8, 8], ElemType::F32, Some(x));
        let lw = ctx.parameter("w", [4, 2, 3, 3], ElemType::F32, Some(w));
        let lb = ctx.parameter("b", [4], ElemType::F32, Some(b));
        let y = lx
            .conv2d(&lw, &lb, 1, 1)
            .relu()
            .pool2d(2, 2, false)
            .global_avg_pool();
        y.mark_output();
        let cap = ctx.finish();
        let got = run_single_output(&cap).unwrap();
        assert!(got.approx_eq(&eager, 1e-5));
    }

    #[test]
    fn reduce_reshape_transpose_roundtrip() {
        let x = randn([3, 4], 30);
        let ctx = CaptureCtx::new("g");
        let lx = ctx.input("x", [3, 4], ElemType::F32, Some(x.clone()));
        let mean = lx.mean_lastdim();
        let reshaped = lx.reshape([4, 3]);
        let transposed = lx.transpose();
        mean.mark_output();
        reshaped.mark_output();
        transposed.mark_output();
        let cap = ctx.finish();
        let outs = execute_outputs(
            &cap.srg,
            &cap.values,
            &[mean.node, reshaped.node, transposed.node],
        )
        .unwrap();
        assert!(outs[0].as_f("mean").approx_eq(&ops::mean_lastdim(&x), 1e-6));
        assert_eq!(outs[1].as_f("reshape").dims(), &[4, 3]);
        assert_eq!(outs[1].as_f("reshape").data(), x.data());
        assert!(outs[2]
            .as_f("transpose")
            .approx_eq(&ops::transpose2d(&x), 1e-6));
    }

    #[test]
    fn norm_variants_match_eager() {
        let x = randn([2, 16], 31);
        let gamma = genie_tensor::Tensor::ones([16]);
        let ctx = CaptureCtx::new("g");
        let lx = ctx.input("x", [2, 16], ElemType::F32, Some(x.clone()));
        let lg = ctx.parameter("g", [16], ElemType::F32, Some(gamma.clone()));
        let rms = lx.rms_norm(&lg, 1e-6);
        let silu = lx.silu();
        let soft = lx.softmax();
        rms.mark_output();
        silu.mark_output();
        soft.mark_output();
        let cap = ctx.finish();
        let outs =
            execute_outputs(&cap.srg, &cap.values, &[rms.node, silu.node, soft.node]).unwrap();
        assert!(outs[0]
            .as_f("rms")
            .approx_eq(&ops::rms_norm(&x, &gamma, 1e-6), 1e-5));
        assert!(outs[1].as_f("silu").approx_eq(&ops::silu(&x), 1e-6));
        assert!(outs[2]
            .as_f("softmax")
            .approx_eq(&ops::softmax_lastdim(&x), 1e-6));
    }

    #[test]
    fn concat_narrow_bias_match_eager() {
        let a = randn([2, 3], 32);
        let b = randn([2, 3], 33);
        let bias = randn([6], 34);
        let ctx = CaptureCtx::new("g");
        let la = ctx.input("a", [2, 3], ElemType::F32, Some(a.clone()));
        let lb = ctx.input("b", [2, 3], ElemType::F32, Some(b.clone()));
        let lbias = ctx.parameter("bias", [6], ElemType::F32, Some(bias.clone()));
        let cat = la.concat(&lb, 1);
        let biased = cat.add_bias(&lbias);
        let sliced = biased.narrow(1, 2, 3);
        sliced.mark_output();
        let cap = ctx.finish();
        let out = run_single_output(&cap).unwrap();
        let expect = ops::narrow(&ops::add_bias(&ops::concat(&a, &b, 1), &bias), 1, 2, 3);
        assert!(out.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn wavefront_matches_sequential_on_branching_graph() {
        // A diamond with heterogeneous branches: x fans out to four
        // independent ops (one wavefront level), which recombine.
        let x = randn([4, 4], 40);
        let ctx = CaptureCtx::new("g");
        let lx = ctx.input("x", [4, 4], ElemType::F32, Some(x));
        let a = lx.relu();
        let b = lx.gelu();
        let c = lx.silu();
        let d = lx.softmax();
        let ab = a.mul(&b);
        let cd = c.mul(&d);
        let y = ab.add(&cd);
        y.mark_output();
        let cap = ctx.finish();

        let wave = execute(&cap.srg, &cap.values).unwrap();
        let seq = execute_sequential(&cap.srg, &cap.values).unwrap();
        assert_eq!(wave.len(), seq.len());
        for (id, v) in &seq {
            assert_eq!(wave.get(id), Some(v), "node {id} diverged");
        }
    }

    #[test]
    fn execute_outputs_matches_full_execution() {
        let x = randn([3, 6], 41);
        let w = randn([6, 6], 42);
        let ctx = CaptureCtx::new("g");
        let lx = ctx.input("x", [3, 6], ElemType::F32, Some(x));
        let lw = ctx.parameter("w", [6, 6], ElemType::F32, Some(w));
        let h1 = lx.matmul(&lw).relu();
        let h2 = h1.matmul(&lw).gelu();
        let y = h2.mean_lastdim();
        y.mark_output();
        let cap = ctx.finish();

        let outs = execute_outputs(&cap.srg, &cap.values, &[y.node]).unwrap();
        let seq = execute_sequential(&cap.srg, &cap.values).unwrap();
        assert_eq!(
            outs[0], seq[&y.node],
            "dropping interiors must not change outputs"
        );
    }

    #[test]
    fn level_order_respects_dependencies() {
        let ctx = CaptureCtx::new("g");
        let lx = ctx.input("x", [2, 2], ElemType::F32, Some(Tensor::ones([2, 2])));
        let a = lx.relu();
        let b = lx.gelu();
        let y = a.add(&b);
        y.mark_output();
        let cap = ctx.finish();
        let plan = ExecPlan::of(&cap.srg).unwrap();
        let levels: Vec<&[NodeId]> = plan.levels().collect();
        let level_of = |n: NodeId| levels.iter().position(|l| l.contains(&n)).expect("placed");
        assert_eq!(level_of(a.node), level_of(b.node), "siblings share a level");
        assert!(level_of(lx.node) < level_of(a.node));
        assert!(level_of(a.node) < level_of(y.node));
        // relu + gelu: 4 flops each; the other levels hold one node.
        assert_eq!(level_flops(&cap.srg, levels[level_of(a.node)]), 8.0);
        assert_eq!(plan.starts.last(), Some(&cap.srg.node_count()));
    }

    #[test]
    fn fan_out_is_gated_by_cost_not_count() {
        let min = ops::MATMUL_PAR_MIN_FLOPS as f64;
        assert!(level_fans_out(min, 2, 2), "at the threshold");
        assert!(!level_fans_out(min - 1.0, 64, 8), "wide but cheap");
        assert!(!level_fans_out(min * 100.0, 1, 8), "nothing to split");
        assert!(!level_fans_out(min * 100.0, 8, 1), "single core");
    }

    #[test]
    fn execute_outputs_allows_repeated_ids() {
        // Regression: the second mention of an id used to panic with
        // "outputs exist in graph" (the first had removed the value).
        let ctx = CaptureCtx::new("g");
        let x = ctx.input("x", [2, 2], ElemType::F32, Some(randn([2, 2], 60)));
        let y = x.relu();
        y.mark_output();
        y.mark_output();
        let cap = ctx.finish();
        assert_eq!(cap.outputs, vec![y.node, y.node]);
        let outs = execute_outputs(&cap.srg, &cap.values, &cap.outputs).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0], outs[1]);
        assert_eq!(
            outs[0],
            execute_sequential(&cap.srg, &cap.values).unwrap()[&y.node]
        );
    }

    #[test]
    fn execute_outputs_rejects_ids_outside_the_graph() {
        // Regression: a caller-supplied id past the last node indexed the
        // slot table out of bounds and panicked.
        let ctx = CaptureCtx::new("g");
        let x = ctx.input("x", [2, 2], ElemType::F32, Some(randn([2, 2], 61)));
        let y = x.relu();
        y.mark_output();
        let cap = ctx.finish();
        let stray = NodeId::new(cap.srg.node_count() as u32);
        let err = execute_outputs(&cap.srg, &cap.values, &[y.node, stray]).unwrap_err();
        assert!(
            matches!(err, InterpError::UnknownOutput { node } if node == stray),
            "{err}"
        );
        assert!(err.to_string().contains("not in the graph"), "{err}");
    }

    #[test]
    fn dispatch_counters_published() {
        let ctx = CaptureCtx::new("g");
        let la = ctx.input("a", [4, 8], ElemType::F32, Some(randn([4, 8], 50)));
        let lb = ctx.parameter("b", [8, 8], ElemType::F32, Some(randn([8, 8], 51)));
        let y = la.matmul(&lb);
        y.mark_output();
        let cap = ctx.finish();
        let dispatched = |op, path| {
            genie_telemetry::global().metrics.snapshot().counter(
                "genie_tensor_kernel_dispatch_total",
                &[("op", op), ("path", path)],
            )
        };
        execute(&cap.srg, &cap.values).unwrap();
        let first = dispatched("matmul", "scalar").unwrap_or(0);
        assert!(first >= 1, "matmul dispatch not published");
        // The handle resolved by the first publish keeps publishing.
        execute(&cap.srg, &cap.values).unwrap();
        assert!(dispatched("matmul", "scalar").unwrap_or(0) > first);
        // A series appears when its cell first moves: no test of this
        // crate runs an int8 attention.
        assert_eq!(dispatched("attention", "int8"), None);
    }

    #[test]
    fn attention_block_matches_eager() {
        let q = randn([3, 8], 20);
        let k = randn([5, 8], 21);
        let v = randn([5, 8], 22);
        let eager = ops::multi_head_attention(&q, &k, &v, 2, true);

        let ctx = CaptureCtx::new("g");
        let lq = ctx.input("q", [3, 8], ElemType::F32, Some(q));
        let lk = ctx.input("k", [5, 8], ElemType::F32, Some(k));
        let lv = ctx.input("v", [5, 8], ElemType::F32, Some(v));
        let o = lq.attention(&lk, &lv, 2, true);
        o.mark_output();
        let cap = ctx.finish();
        let got = run_single_output(&cap).unwrap();
        assert!(got.approx_eq(&eager, 1e-6));
    }
}
