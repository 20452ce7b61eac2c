//! The two property cases of `tests/lint_engine.rs`: every transformer
//! capture the zoo can produce, at any cached length or prompt length,
//! passes the deny-level lint gate — as seeded loops. A case is a
//! function of its index alone, and a failing case prints the index
//! that reproduces it.

use genie::analysis::{run_srg_passes, LintConfig, Severity};
use genie::models::{KvState, TransformerConfig, TransformerLm};
use genie::netsim::XorShift64;
use genie::prelude::*;
use genie::tensor::Tensor;

/// Cases per property.
const CASES: u64 = 32;

/// One case's draw in `lo..hi`; a panic while it is alive names the index.
struct Case {
    index: u64,
    drawn: usize,
}

impl Case {
    fn new(index: u64, lo: u64, hi: u64) -> Self {
        // Odd multiplier: distinct indices give distinct, nonzero seeds.
        let mut rng = XorShift64::new((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let drawn = (lo + rng.next_below(hi - lo)) as usize;
        Case { index, drawn }
    }
}

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing case: {} (drew {})", self.index, self.drawn);
        }
    }
}

fn deny_free(report: &genie::analysis::Report) -> bool {
    report.count(Severity::Deny) == 0
}

/// Decode steps at any cached sequence length capture deny-clean:
/// the KV chain always flows through blessed consumers and the
/// builders' cost hints always satisfy the GA0xx invariants.
#[test]
fn decode_captures_are_deny_clean() {
    for case in 0..CASES {
        let case = Case::new(case, 0, 64);
        let cached = case.drawn;
        let cfg = TransformerConfig::tiny();
        let d = cfg.d_model;
        let layers = cfg.layers;
        let m = TransformerLm::new_spec(cfg);
        let kv = KvState {
            k: (0..layers)
                .map(|_| Tensor::zeros(vec![cached, d]))
                .collect(),
            v: (0..layers)
                .map(|_| Tensor::zeros(vec![cached, d]))
                .collect(),
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
        assert!(deny_free(&report), "{report}");
    }
}

/// Prefill captures at any prompt length are deny-clean too.
#[test]
fn prefill_captures_are_deny_clean() {
    for case in 0..CASES {
        let case = Case::new(case, 1, 32);
        let m = TransformerLm::new_spec(TransformerConfig::tiny());
        let ctx = CaptureCtx::new("prop.prefill");
        let prompt = vec![0i64; case.drawn];
        let cap = m.capture_prefill(&ctx, &prompt);
        cap.logits.mark_output();
        let cap = ctx
            .finish_checked(&LintConfig::new())
            .expect("prefill capture passes the deny gate");
        let report = run_srg_passes(&cap.srg, &LintConfig::new());
        assert!(deny_free(&report), "{report}");
    }
}
