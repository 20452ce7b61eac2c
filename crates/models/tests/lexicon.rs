//! Cross-crate validation of the learned semantic lexicon (§5): train on
//! the workload zoo, classify configurations it never saw.

use genie_frontend::capture::CaptureCtx;
use genie_frontend::patterns::learned::LearnedLexicon;
use genie_models::{
    CnnConfig, Dlrm, DlrmConfig, KvState, SimpleCnn, TransformerConfig, TransformerLm,
};

fn llm_graph(cfg: TransformerConfig) -> genie_srg::Srg {
    let m = TransformerLm::new_spec(cfg);
    let ctx = CaptureCtx::new("llm");
    let cap = m.capture_decode_step(&ctx, 0, &KvState::default());
    cap.logits.sample().mark_output();
    ctx.finish().srg
}

fn cnn_graph(cfg: CnnConfig) -> genie_srg::Srg {
    let m = SimpleCnn::new_spec(cfg);
    let ctx = CaptureCtx::new("cnn");
    m.capture_inference(&ctx, 1, None).mark_output();
    ctx.finish().srg
}

fn dlrm_graph(cfg: DlrmConfig) -> genie_srg::Srg {
    let m = Dlrm::new_spec(cfg.clone());
    let ctx = CaptureCtx::new("dlrm");
    let ids: Vec<Vec<i64>> = (0..cfg.tables)
        .map(|_| vec![0; cfg.lookups_per_table])
        .collect();
    m.capture_inference(&ctx, &ids, None).mark_output();
    ctx.finish().srg
}

#[test]
fn lexicon_generalizes_across_model_scales() {
    let mut lex = LearnedLexicon::new();

    // Train on small/medium configs.
    lex.learn("llm", &llm_graph(TransformerConfig::tiny()));
    lex.learn(
        "llm",
        &llm_graph(TransformerConfig {
            layers: 8,
            d_model: 512,
            heads: 8,
            vocab: 32000,
            ffn_mult: 4,
            elem: genie_srg::ElemType::F16,
        }),
    );
    lex.learn("vision", &cnn_graph(CnnConfig::tiny()));
    lex.learn(
        "vision",
        &cnn_graph(CnnConfig {
            stages: 5,
            base_channels: 16,
            image_size: 64,
            classes: 100,
            elem: genie_srg::ElemType::F16,
        }),
    );
    lex.learn("recsys", &dlrm_graph(DlrmConfig::tiny()));

    // Classify configurations never seen during training.
    let gptj = llm_graph(TransformerConfig::gptj_6b());
    assert_eq!(lex.classify(&gptj).unwrap().0, "llm");

    let resnet = cnn_graph(CnnConfig::resnet_like());
    assert_eq!(lex.classify(&resnet).unwrap().0, "vision");

    let prod_dlrm = dlrm_graph(DlrmConfig::production_like());
    assert_eq!(lex.classify(&prod_dlrm).unwrap().0, "recsys");
}
