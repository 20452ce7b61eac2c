//! A batched step is its members' own steps run as one graph: every
//! token and every K/V tensor that `prefill_batch` / `decode_batch`
//! return is bit-identical to the member's one-member `prefill_step` /
//! `decode_step`, across the functional zoo and the `decode_small` model,
//! with ragged prompts and KV lengths and members joining and leaving.

use genie::frontend::capture::CaptureCtx;
use genie::models::{
    functional_transformers, KvState, LmCapture, TransformerConfig, TransformerLm,
};
use genie::srg::{OpKind, Phase, Srg};

/// The zoo plus the `decode_small` benchmark model.
fn models() -> Vec<(&'static str, TransformerLm)> {
    let decode_small = TransformerConfig {
        layers: 2,
        d_model: 64,
        heads: 4,
        ffn_mult: 4,
        vocab: 512,
        ..TransformerConfig::tiny()
    };
    let mut zoo = functional_transformers();
    zoo.push((
        "decode_small",
        TransformerLm::new_functional(decode_small, 11),
    ));
    zoo
}

fn prompt(len: usize, salt: usize, vocab: usize) -> Vec<i64> {
    (0..len)
        .map(|i| ((i * 37 + salt * 11 + 5) % vocab) as i64)
        .collect()
}

/// Every float of `kv`, as bits.
fn bits(kv: &KvState) -> Vec<Vec<u32>> {
    let tensors = kv.k.iter().chain(&kv.v);
    tensors
        .map(|t| t.data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn assert_same(got: &[(i64, KvState)], want: &[(i64, KvState)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: one result per member");
    for (m, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.0, w.0, "{what}, member {m}: sampled token");
        assert_eq!(bits(&g.1), bits(&w.1), "{what}, member {m}: K/V");
    }
}

#[test]
fn a_ragged_prefill_batch_is_each_prompts_own_prefill() {
    for (name, m) in models() {
        let prompts: Vec<Vec<i64>> = [1, 7, 3, 12, 5]
            .iter()
            .enumerate()
            .map(|(i, &len)| prompt(len, i, m.config.vocab))
            .collect();
        let alone: Vec<(i64, KvState)> = prompts.iter().map(|p| m.prefill_step(p)).collect();
        for b in 1..=prompts.len() {
            let batch: Vec<&[i64]> = prompts[..b].iter().map(Vec::as_slice).collect();
            let what = format!("{name} B={b}");
            assert_same(&m.prefill_batch(&batch), &alone[..b], &what);
        }
    }
}

#[test]
fn a_decode_batch_is_each_members_own_decode_step() {
    for (name, m) in models() {
        let lens = [1, 4, 9, 2, 6];
        // Member i joins at step i; from step 6 the oldest leaves: B runs
        // 1, 2, 3, 4, 5, 5, 4, 3, 2, 1 over ragged KV lengths.
        let mut batch: Vec<(i64, KvState)> = Vec::new();
        for step in 0..10 {
            if let Some(&len) = lens.get(step) {
                batch.push(m.prefill_step(&prompt(len, step, m.config.vocab)));
            }
            if step > lens.len() {
                batch.remove(0);
            }
            let alone: Vec<_> = batch.iter().map(|(t, kv)| m.decode_step(*t, kv)).collect();
            let members: Vec<(i64, &KvState)> = batch.iter().map(|(t, kv)| (*t, kv)).collect();
            let got = m.decode_batch(&members);
            assert_same(&got, &alone, &format!("{name} step {step}"));
            batch = got;
        }
    }
}

/// A one-member batch splits nothing: it records no row `narrow` and no
/// `concat`, and its graph is the one-member capture's, which
/// `tests/golden/json_documents.txt` (`srg.decode_capture`) and the SRG
/// lint golden pin byte for byte. Two members add exactly the split nodes.
#[test]
fn a_one_member_batch_records_the_one_member_graph() {
    let (_, m) = functional_transformers().remove(0);
    let prompt: &[i64] = &[3, 1, 4];
    let (token, kv) = m.prefill_step(prompt);
    let graph = |capture: &dyn Fn(&CaptureCtx) -> Vec<LmCapture>| {
        let ctx = CaptureCtx::new("step");
        for cap in capture(&ctx) {
            cap.logits.sample().mark_output();
        }
        ctx.finish().srg
    };
    let count = |srg: &Srg, op: OpKind| srg.nodes().filter(|n| n.op == op).count();
    let cold = KvState::default();
    let batched = graph(&|ctx| m.capture_batch(ctx, Phase::LlmPrefill, &[(prompt, &cold)]));
    assert!(batched == graph(&|ctx| vec![m.capture_prefill(ctx, prompt)]));
    let one = graph(&|ctx| m.capture_batch(ctx, Phase::LlmDecode, &[(&[token], &kv)]));
    assert!(one == graph(&|ctx| vec![m.capture_decode_step(ctx, token, &kv)]));
    assert_eq!(
        (count(&one, OpKind::Slice), count(&one, OpKind::Concat)),
        (0, 0)
    );

    // Per layer: q/k/v narrows and one concat; then each member's logits row.
    let member: (&[i64], &KvState) = (&[token], &kv);
    let two = graph(&|ctx| m.capture_batch(ctx, Phase::LlmDecode, &[member; 2]));
    let layers = m.config.layers;
    assert_eq!(count(&two, OpKind::Slice), 2 * 3 * layers + 2);
    assert_eq!(count(&two, OpKind::Concat), layers);
    let split = 2 * 3 * layers + 2 + layers;
    // The second member adds its own cache inputs, appends, attention and sample.
    let own = layers * (2 + 2 + 1) + 1;
    assert_eq!(two.node_count(), one.node_count() + split + own);
}
