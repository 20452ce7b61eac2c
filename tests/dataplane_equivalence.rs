//! Level fan-out and value dropping must be pure performance
//! optimizations: across the whole functional model zoo,
//! `interp::execute` (may fan levels out over the pool) and
//! `interp::execute_outputs` (same, plus value dropping) must produce
//! exactly the same values as `interp::execute_sequential` — bit for bit,
//! not approximately. The first two share one executor; the reference is
//! an independent topological-order loop over the same kernels.

use genie::frontend::capture::{CaptureCtx, CapturedGraph};
use genie::frontend::interp;
use genie::models::{
    CnnConfig, Dlrm, DlrmConfig, KvState, Multimodal, MultimodalConfig, ShardedTransformerLm,
    SimpleCnn, TransformerConfig, TransformerLm,
};
use genie::srg::shard::ShardSpec;
use genie::srg::{ElemType, NodeId};
use genie::tensor::init;
use genie::tensor::stats::{force_path, Path};

/// Assert every execution strategy agrees exactly on `captured`.
fn assert_wavefront_matches(captured: &CapturedGraph, output: NodeId) {
    let seq = interp::execute_sequential(&captured.srg, &captured.values).expect("sequential");
    let wave = interp::execute(&captured.srg, &captured.values).expect("wavefront");

    assert_eq!(seq.len(), captured.srg.node_count(), "every node evaluated");
    assert_eq!(seq.len(), wave.len(), "same set of evaluated nodes");
    for (id, v) in &seq {
        assert_eq!(Some(v), wave.get(id), "node {id:?} diverged");
    }

    // One output, every marked output, and a repeated id.
    let mut wanted = vec![output];
    wanted.extend(&captured.outputs);
    let outs = interp::execute_outputs(&captured.srg, &captured.values, &wanted).expect("outputs");
    assert_eq!(outs.len(), wanted.len());
    for (id, v) in wanted.iter().zip(&outs) {
        assert_eq!(Some(v), seq.get(id), "output {id:?} diverged");
    }
}

#[test]
fn transformer_prefill_wavefront_matches_sequential() {
    let model = TransformerLm::new_functional(TransformerConfig::tiny(), 11);
    let prompt: Vec<i64> = (0..12).map(|i| i % 32).collect();
    let ctx = CaptureCtx::new("llm.prefill");
    let cap = model.capture_prefill(&ctx, &prompt);
    cap.logits.mark_output();
    let out = cap.logits.node;
    assert_wavefront_matches(&ctx.finish(), out);
}

#[test]
fn transformer_decode_step_wavefront_matches_sequential() {
    let model = TransformerLm::new_functional(TransformerConfig::tiny(), 11);
    let cfg = &model.config;
    let kv = KvState {
        k: (0..cfg.layers)
            .map(|l| init::randn([4, cfg.d_model], 100 + l as u64))
            .collect(),
        v: (0..cfg.layers)
            .map(|l| init::randn([4, cfg.d_model], 200 + l as u64))
            .collect(),
    };
    let ctx = CaptureCtx::new("llm.decode");
    let cap = model.capture_decode_step(&ctx, 3, &kv);
    cap.logits.mark_output();
    let out = cap.logits.node;
    assert_wavefront_matches(&ctx.finish(), out);
}

#[test]
fn cnn_inference_wavefront_matches_sequential() {
    let cfg = CnnConfig::tiny();
    let model = SimpleCnn::new_functional(cfg.clone(), 5);
    let pixels = init::randn([2, 3, cfg.image_size, cfg.image_size], 42);
    let ctx = CaptureCtx::new("cnn.inference");
    let scores = model.capture_inference(&ctx, 2, Some(pixels));
    scores.mark_output();
    let out = scores.node;
    assert_wavefront_matches(&ctx.finish(), out);
}

#[test]
fn dlrm_inference_wavefront_matches_sequential() {
    let cfg = DlrmConfig::tiny();
    let model = Dlrm::new_functional(cfg.clone(), 9);
    let ids: Vec<Vec<i64>> = (0..cfg.tables)
        .map(|t| {
            (0..cfg.lookups_per_table)
                .map(|i| ((t * 17 + i * 5) % cfg.rows_per_table) as i64)
                .collect()
        })
        .collect();
    let dense = init::randn([1, cfg.dense_features], 8);
    let ctx = CaptureCtx::new("dlrm.inference");
    let logit = model.capture_inference(&ctx, &ids, Some(dense));
    logit.mark_output();
    let out = logit.node;
    assert_wavefront_matches(&ctx.finish(), out);
}

/// Build the full functional model zoo as named captures.
fn zoo_captures() -> Vec<(&'static str, CapturedGraph)> {
    let mut zoo = Vec::new();

    let model = TransformerLm::new_functional(TransformerConfig::tiny(), 11);
    let prompt: Vec<i64> = (0..12).map(|i| i % 32).collect();
    let ctx = CaptureCtx::new("llm.prefill");
    model.capture_prefill(&ctx, &prompt).logits.mark_output();
    zoo.push(("llm.prefill", ctx.finish()));

    let cfg = &model.config;
    let kv = KvState {
        k: (0..cfg.layers)
            .map(|l| init::randn([4, cfg.d_model], 100 + l as u64))
            .collect(),
        v: (0..cfg.layers)
            .map(|l| init::randn([4, cfg.d_model], 200 + l as u64))
            .collect(),
    };
    let ctx = CaptureCtx::new("llm.decode");
    model.capture_decode_step(&ctx, 3, &kv).logits.mark_output();
    zoo.push(("llm.decode", ctx.finish()));

    let cfg = CnnConfig::tiny();
    let model = SimpleCnn::new_functional(cfg.clone(), 5);
    let pixels = init::randn([2, 3, cfg.image_size, cfg.image_size], 42);
    let ctx = CaptureCtx::new("cnn.inference");
    model.capture_inference(&ctx, 2, Some(pixels)).mark_output();
    zoo.push(("cnn.inference", ctx.finish()));

    let cfg = DlrmConfig::tiny();
    let model = Dlrm::new_functional(cfg.clone(), 9);
    let ids: Vec<Vec<i64>> = (0..cfg.tables)
        .map(|t| {
            (0..cfg.lookups_per_table)
                .map(|i| ((t * 17 + i * 5) % cfg.rows_per_table) as i64)
                .collect()
        })
        .collect();
    let dense = init::randn([1, cfg.dense_features], 8);
    let ctx = CaptureCtx::new("dlrm.inference");
    model
        .capture_inference(&ctx, &ids, Some(dense))
        .mark_output();
    zoo.push(("dlrm.inference", ctx.finish()));

    let cfg = MultimodalConfig::tiny();
    let model = Multimodal::new_functional(cfg.clone(), 13);
    let question: Vec<i64> = (0..6).map(|i| i % cfg.text.vocab as i64).collect();
    let pixels = init::randn([1, 3, cfg.vision.image_size, cfg.vision.image_size], 21);
    let ctx = CaptureCtx::new("vqa.inference");
    model
        .capture_inference(&ctx, &question, Some(pixels))
        .mark_output();
    zoo.push(("vqa.inference", ctx.finish()));

    zoo
}

#[test]
fn zoo_forced_simd_is_bitwise_identical_to_forced_scalar() {
    // The SIMD tier keeps one f32 accumulator per output element and
    // walks reductions in the scalar order, so forcing it must change
    // nothing — bit for bit — across every zoo model. One test walks the
    // whole zoo because `force_path` is process-global and the forced
    // sections must not interleave.
    let run = |captured: &CapturedGraph, path: Path| {
        force_path(Some(path));
        let out = interp::execute_sequential(&captured.srg, &captured.values);
        force_path(None);
        out.expect("forced execution succeeds")
    };
    for (name, captured) in &zoo_captures() {
        let scalar = run(captured, Path::Scalar);
        let simd = run(captured, Path::Simd);
        assert_eq!(scalar.len(), simd.len(), "{name}: same nodes evaluated");
        for (id, v) in &scalar {
            assert_eq!(Some(v), simd.get(id), "{name}: node {id:?} diverged");
        }
    }
}

#[test]
fn multimodal_inference_wavefront_matches_sequential() {
    let cfg = MultimodalConfig::tiny();
    let model = Multimodal::new_functional(cfg.clone(), 13);
    let question: Vec<i64> = (0..6).map(|i| i % cfg.text.vocab as i64).collect();
    let pixels = init::randn([1, 3, cfg.vision.image_size, cfg.vision.image_size], 21);
    let ctx = CaptureCtx::new("vqa.inference");
    let scores = model.capture_inference(&ctx, &question, Some(pixels));
    scores.mark_output();
    let out = scores.node;
    assert_wavefront_matches(&ctx.finish(), out);
}

/// Wide enough that whole levels clear the fan-out threshold (q/k/v
/// projections: 3 × 2·48·128·128 ≈ 4.7 MFLOP), so on a multi-core host
/// the pooled path really runs.
fn wide_transformer() -> TransformerLm {
    let config = TransformerConfig {
        d_model: 128,
        heads: 4,
        vocab: 64,
        ..TransformerConfig::tiny()
    };
    TransformerLm::new_functional(config, 17)
}

#[test]
fn wide_transformer_prefill_and_decode_match_sequential() {
    let model = wide_transformer();
    let prompt: Vec<i64> = (0..48).map(|i| (i * 7) % 64).collect();
    let ctx = CaptureCtx::new("llm.wide.prefill");
    let cap = model.capture_prefill(&ctx, &prompt);
    cap.logits.mark_output();
    for (k, v) in cap.k_caches.iter().zip(&cap.v_caches) {
        k.mark_output();
        v.mark_output();
    }
    let captured = ctx.finish();
    let levels = genie::srg::traverse::levels(&captured.srg).expect("acyclic");
    let mut flops = vec![0.0; captured.srg.node_count()];
    for (level, node) in levels.iter().zip(captured.srg.nodes()) {
        flops[*level] += node.cost.flops;
    }
    assert!(
        flops.iter().any(|&f| interp::level_fans_out(f, 2, 2)),
        "some level clears the fan-out threshold"
    );
    assert_wavefront_matches(&captured, cap.logits.node);

    let (token, kv) = model.prefill_step(&prompt);
    let ctx = CaptureCtx::new("llm.wide.decode");
    let cap = model.capture_decode_step(&ctx, token, &kv);
    cap.logits.mark_output();
    assert_wavefront_matches(&ctx.finish(), cap.logits.node);
}

#[test]
fn tensor_parallel_sharded_graph_matches_sequential() {
    let sharded = ShardedTransformerLm::new(wide_transformer(), ShardSpec::tensor(2));
    let prompt: Vec<i64> = (0..24).map(|i| (i * 5) % 64).collect();
    let ctx = CaptureCtx::new("llm.tp2.prefill");
    let sc = sharded.capture_prefill(&ctx, &prompt);
    sc.caps[0].logits.mark_output();
    assert_wavefront_matches(&ctx.finish(), sc.caps[0].logits.node);

    let (token, kv) = sharded.model.prefill_step(&prompt);
    let ctx = CaptureCtx::new("llm.tp2.decode");
    let sc = sharded.capture_decode_step(&ctx, token, &kv);
    sc.caps[0].logits.mark_output();
    assert_wavefront_matches(&ctx.finish(), sc.caps[0].logits.node);
}

#[test]
fn resnet_shaped_cnn_matches_sequential() {
    // `resnet_like`'s depth and classifier, shrunk to functional size.
    let cfg = CnnConfig {
        base_channels: 4,
        image_size: 16,
        elem: ElemType::F32,
        ..CnnConfig::resnet_like()
    };
    let model = SimpleCnn::new_functional(cfg.clone(), 23);
    let pixels = init::randn([2, 3, cfg.image_size, cfg.image_size], 24);
    let ctx = CaptureCtx::new("cnn.resnet_shaped");
    let scores = model.capture_inference(&ctx, 2, Some(pixels));
    scores.mark_output();
    assert_wavefront_matches(&ctx.finish(), scores.node);
}

#[test]
fn production_shaped_dlrm_matches_sequential() {
    // `production_like`'s 26 tables × 32 lookups (one wide level of
    // pooled gathers), with tables shrunk to functional size.
    let cfg = DlrmConfig {
        rows_per_table: 64,
        embedding_dim: 16,
        mlp_hidden: 64,
        elem: ElemType::F32,
        ..DlrmConfig::production_like()
    };
    let model = Dlrm::new_functional(cfg.clone(), 29);
    let ids: Vec<Vec<i64>> = (0..cfg.tables)
        .map(|t| {
            (0..cfg.lookups_per_table)
                .map(|i| ((t * 17 + i * 5) % cfg.rows_per_table) as i64)
                .collect()
        })
        .collect();
    let dense = init::randn([1, cfg.dense_features], 30);
    let ctx = CaptureCtx::new("dlrm.production_shaped");
    let logit = model.capture_inference(&ctx, &ids, Some(dense));
    logit.mark_output();
    assert_wavefront_matches(&ctx.finish(), logit.node);
}
