//! Replays for layers that run inside a call the driver cannot see
//! into (`ServingLoop::run`, `LocalBackend::execute_outputs`): the same
//! inputs go through the layer's public functions again, under
//! `probe.*` spans, after the op and outside its span.

use crate::trace::Tracer;
use genie_frontend::capture::{CaptureCtx, CapturedGraph};
use genie_frontend::interp;
use genie_models::{KvState, LmCapture, TransformerLm};
use genie_srg::{OpKind, Srg};
use genie_tensor::{init, ops, Tensor};
use std::collections::HashMap;

/// A dense kernel of a captured graph, by the shapes it was recorded on.
enum KernelCall {
    MatMul {
        a: Vec<usize>,
        b: Vec<usize>,
    },
    Attention {
        q: Vec<usize>,
        k: Vec<usize>,
        v: Vec<usize>,
        heads: usize,
        causal: bool,
    },
}

/// Every matmul and attention node of `srg`, in node order.
fn kernel_calls(srg: &Srg) -> Vec<KernelCall> {
    let mut calls = Vec::new();
    for id in srg.node_ids() {
        let node = srg.node(id);
        let shapes: Vec<Vec<usize>> = srg.in_edges(id).map(|e| e.meta.shape.clone()).collect();
        match node.op {
            OpKind::MatMul if shapes.len() == 2 => calls.push(KernelCall::MatMul {
                a: shapes[0].clone(),
                b: shapes[1].clone(),
            }),
            OpKind::Attention if shapes.len() == 3 => calls.push(KernelCall::Attention {
                q: shapes[0].clone(),
                k: shapes[1].clone(),
                v: shapes[2].clone(),
                heads: node
                    .attrs
                    .get("heads")
                    .and_then(|h| h.parse().ok())
                    .unwrap_or(1),
                causal: node.attrs.get("causal").is_some_and(|c| c == "true"),
            }),
            _ => {}
        }
    }
    calls
}

/// A kernel call with its operands bound.
enum Ready {
    MatMul(Tensor, Tensor),
    Attention(Tensor, Tensor, Tensor, usize, bool),
}

fn run_kernels(ready: &[Ready], tr: &mut Tracer) {
    tr.span("probe.kernel_replay", "tensor", |_| {
        for call in ready {
            match call {
                Ready::MatMul(a, b) => {
                    std::hint::black_box(ops::matmul(a, b));
                }
                Ready::Attention(q, k, v, heads, causal) => {
                    std::hint::black_box(ops::multi_head_attention(q, k, v, *heads, *causal));
                }
            }
        }
    });
}

/// Totals of one replay, for per-op averages.
#[derive(Default)]
pub struct ReplayTotals {
    pub graphs: u64,
    pub nodes: u64,
    pub edges: u64,
}

/// Replays functional-LM graphs and their kernels, reusing one random
/// operand per shape so building operands stays off the clock.
#[derive(Default)]
pub struct Replayer {
    operands: HashMap<Vec<usize>, Tensor>,
    pub totals: ReplayTotals,
}

impl Replayer {
    fn operand(&mut self, shape: &[usize]) -> Tensor {
        self.operands
            .entry(shape.to_vec())
            .or_insert_with(|| init::randn(shape.to_vec(), 17))
            .clone()
    }

    /// Re-run every matmul and attention node of `srg` through
    /// `genie_tensor::ops` on its recorded shapes.
    pub fn kernels(&mut self, srg: &Srg, tr: &mut Tracer) {
        let ready = self.ready(srg);
        run_kernels(&ready, tr);
    }

    /// The kernels of `srg` with operands bound, ready to run.
    fn ready(&mut self, srg: &Srg) -> Vec<Ready> {
        kernel_calls(srg)
            .into_iter()
            .map(|call| match call {
                KernelCall::MatMul { a, b } => Ready::MatMul(self.operand(&a), self.operand(&b)),
                KernelCall::Attention {
                    q,
                    k,
                    v,
                    heads,
                    causal,
                } => Ready::Attention(
                    self.operand(&q),
                    self.operand(&k),
                    self.operand(&v),
                    heads,
                    causal,
                ),
            })
            .collect()
    }

    fn count(&mut self, captured: &CapturedGraph) {
        self.totals.graphs += 1;
        self.totals.nodes += captured.srg.node_count() as u64;
        self.totals.edges += captured.srg.edge_count() as u64;
    }

    /// Greedy generation with the capture discipline `generate` and the
    /// serving engine share, each capture and each interpretation under
    /// its own `probe.*` span. The kernels of every graph are replayed
    /// once generation is over, so they do not disturb the caches the
    /// next capture runs on (the engine has no such interlude either).
    pub fn generate(
        &mut self,
        model: &TransformerLm,
        prompt: &[i64],
        steps: usize,
        tr: &mut Tracer,
    ) -> Vec<i64> {
        let mut tokens = Vec::with_capacity(steps);
        let mut kernels: Vec<Vec<Ready>> = Vec::with_capacity(steps);
        let (captured, cap, sampled) = tr.span("probe.capture_prefill", "frontend", |_| {
            let ctx = CaptureCtx::new("replay.prefill");
            let cap = model.capture_prefill(&ctx, prompt);
            let sampled = cap.logits.sample();
            sampled.mark_output();
            for (k, v) in cap.k_caches.iter().zip(&cap.v_caches) {
                k.mark_output();
                v.mark_output();
            }
            (ctx.finish(), cap, sampled.node)
        });
        let values = tr.span("probe.interp_prefill", "frontend", |_| {
            interp::execute(&captured.srg, &captured.values).expect("replayed prefill executes")
        });
        self.count(&captured);
        kernels.push(self.ready(&captured.srg));
        let mut token = values[&sampled].as_i("sampled token").data()[0];
        let mut kv = collect_kv(&values, &cap);
        tokens.push(token);

        for _ in 1..steps {
            let (captured, cap, sampled) = tr.span("probe.capture_decode", "frontend", |_| {
                let ctx = CaptureCtx::new("replay.decode");
                let cap = model.capture_decode_step(&ctx, token, &kv);
                let sampled = cap.logits.sample();
                sampled.mark_output();
                (ctx.finish(), cap, sampled.node)
            });
            let values = tr.span("probe.interp_decode", "frontend", |_| {
                interp::execute(&captured.srg, &captured.values).expect("replayed decode executes")
            });
            self.count(&captured);
            kernels.push(self.ready(&captured.srg));
            token = values[&sampled].as_i("sampled token").data()[0];
            kv = collect_kv(&values, &cap);
            tokens.push(token);
        }
        for ready in &kernels {
            run_kernels(ready, tr);
        }
        tokens
    }
}

fn collect_kv(
    values: &HashMap<genie_srg::NodeId, genie_frontend::Value>,
    cap: &LmCapture,
) -> KvState {
    let cache = |lt: &genie_frontend::LazyTensor| values[&lt.node].as_f("kv cache").clone();
    KvState {
        k: cap.k_caches.iter().map(cache).collect(),
        v: cap.v_caches.iter().map(cache).collect(),
    }
}

/// Sustained GFLOP/s of `ops::matmul` on `[m,k]·[k,n]`, best of five
/// batches sized to about 20 ms each.
pub fn matmul_gflops(m: usize, k: usize, n: usize) -> f64 {
    let a = init::randn([m, k], 31);
    let b = init::randn([k, n], 32);
    let flops = 2.0 * (m * k * n) as f64;
    let reps = ((20e-3 * 2e9 / flops) as usize).clamp(1, 20_000);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(ops::matmul(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
            ));
        }
        best = best.max(flops * reps as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    best
}
