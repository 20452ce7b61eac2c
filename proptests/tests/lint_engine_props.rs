//! The two property cases of the workspace's `tests/lint_engine.rs`:
//! every transformer capture the zoo can produce, at any cached length
//! or prompt length, passes the deny-level lint gate.

use genie::analysis::{run_srg_passes, LintConfig, Severity};
use genie::models::{KvState, TransformerConfig, TransformerLm};
use genie::prelude::*;
use genie::tensor::Tensor;
use proptest::prelude::*;

fn deny_free(report: &genie::analysis::Report) -> bool {
    report.count(Severity::Deny) == 0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Decode steps at any cached sequence length capture deny-clean:
    /// the KV chain always flows through blessed consumers and the
    /// builders' cost hints always satisfy the GA0xx invariants.
    #[test]
    fn decode_captures_are_deny_clean(cached in 0usize..64) {
        let cfg = TransformerConfig::tiny();
        let d = cfg.d_model;
        let layers = cfg.layers;
        let m = TransformerLm::new_spec(cfg);
        let kv = KvState {
            k: (0..layers).map(|_| Tensor::zeros(vec![cached, d])).collect(),
            v: (0..layers).map(|_| Tensor::zeros(vec![cached, d])).collect(),
        };
        let ctx = CaptureCtx::new("prop.decode");
        let cap = m.capture_decode_step(&ctx, 0, &kv);
        cap.logits.sample().mark_output();
        for (k, v) in cap.k_caches.iter().zip(&cap.v_caches) {
            k.mark_output();
            v.mark_output();
        }
        let cap = ctx
            .finish_checked(&LintConfig::new())
            .expect("decode capture passes the deny gate");
        let report = run_srg_passes(&cap.srg, &LintConfig::new());
        prop_assert!(deny_free(&report), "{}", report);
    }

    /// Prefill captures at any prompt length are deny-clean too.
    #[test]
    fn prefill_captures_are_deny_clean(prompt_len in 1usize..32) {
        let m = TransformerLm::new_spec(TransformerConfig::tiny());
        let ctx = CaptureCtx::new("prop.prefill");
        let prompt = vec![0i64; prompt_len];
        let cap = m.capture_prefill(&ctx, &prompt);
        cap.logits.mark_output();
        let cap = ctx
            .finish_checked(&LintConfig::new())
            .expect("prefill capture passes the deny gate");
        let report = run_srg_passes(&cap.srg, &LintConfig::new());
        prop_assert!(deny_free(&report), "{}", report);
    }
}
