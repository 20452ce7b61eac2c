//! Re-capture points for dynamic control flow (§3.7).
//!
//! Graph capture excels when the computation is static, but real inference
//! loops branch on data — a decode loop stops when the model emits EOS. The
//! answer is one capture *per dynamic region*: control flow runs in
//! ordinary Rust between captures, and each captured region is still a
//! full SRG the scheduler can optimize.
//!
//! Successive captures of one region are usually the same graph at other
//! sizes (a decode step at KV length L, then L + 1). A [`RecaptureSession`]
//! keeps the last finished capture of its region, with the interpreter's
//! execution plan for it, and starts the next capture as a re-trace of
//! that one (see [`crate::capture`]): when every call matches, the step
//! reuses the graph, its adjacency, its strings, its payload table and
//! its plan, and pays only for what changed. A step that does something
//! else — another branch, one more layer — is captured cold from where it
//! departs and becomes what the step after it is compared with. There is
//! nothing to configure and nothing to invalidate: a session that has seen
//! no step, or whose last step was denied by the lint gate, starts the
//! next one with [`CaptureCtx::new`].

use crate::capture::{lint_gate_panic, CaptureCtx, CapturedGraph};
use crate::interp::{self, ExecPlan, InterpError};
use crate::value::Value;
use genie_analysis::{LintConfig, Report};
use genie_srg::NodeId;

/// The captures of one dynamic region, one step after another. The
/// session owns each finished capture and lends it out read-only, so the
/// plan it keeps beside the graph cannot go stale.
#[derive(Debug, Default)]
pub struct RecaptureSession {
    /// The last finished capture and, once it has run, its plan.
    last: Option<(CapturedGraph, Option<ExecPlan>)>,
}

impl RecaptureSession {
    /// A session that has captured nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start capturing the region's next step as graph `name`: a re-trace
    /// of the last finished step when there is one, a cold capture
    /// otherwise. The session gives that step up; hand the context back to
    /// [`finish`](Self::finish) once the step's operations are recorded.
    pub fn begin(&mut self, name: &str) -> CaptureCtx {
        match self.last.take() {
            Some((prev, plan)) => CaptureCtx::retrace(name, prev, plan),
            None => CaptureCtx::new(name),
        }
    }

    /// Finish the step `ctx` captured (as [`CaptureCtx::finish`]: the
    /// full lint gate under the default policy, a panic with the rendered
    /// report on a deny-level finding) and keep it as the session's last.
    pub fn finish(&mut self, ctx: &CaptureCtx) -> &CapturedGraph {
        match self.finish_checked(ctx, &LintConfig::new()) {
            Ok(cap) => cap,
            Err(report) => lint_gate_panic(&report),
        }
    }

    /// [`finish`](Self::finish) with an explicit lint policy (as
    /// [`CaptureCtx::finish_checked`]). A denied capture is dropped; the
    /// step after it starts cold.
    pub fn finish_checked(
        &mut self,
        ctx: &CaptureCtx,
        cfg: &LintConfig,
    ) -> Result<&CapturedGraph, Report> {
        let (cap, _) = self.last.insert(ctx.finish_traced(cfg)?);
        Ok(cap)
    }

    /// Run the last finished step for `outputs` (as
    /// [`interp::execute_outputs`]). The execution plan is computed the
    /// first time a structure runs and kept for as long as steps re-trace
    /// it.
    ///
    /// # Panics
    /// If no step has been finished.
    pub fn execute_outputs(&mut self, outputs: &[NodeId]) -> Result<Vec<Value>, InterpError> {
        let (cap, plan) = self.last.as_mut().expect("a step was finished");
        if plan.is_none() {
            *plan = Some(ExecPlan::of(&cap.srg)?);
        }
        interp::execute_outputs_planned(&cap.srg, plan.as_ref(), &cap.values, outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::Out;
    use genie_analysis::LintCode;
    use genie_srg::{CostHints, ElemType, OpKind};
    use genie_tensor::Tensor;

    /// A data-dependent loop: keep doubling until the value exceeds a
    /// threshold. Each iteration is its own capture; the loop condition
    /// runs in plain Rust on materialized results — exactly the paper's
    /// "insert re-capture points" strategy.
    #[test]
    fn data_dependent_loop_via_recapture() {
        let mut session = RecaptureSession::new();
        let mut x = Tensor::from_vec([1], vec![1.0]);
        let mut iterations = 0;
        while x.data()[0] <= 10.0 {
            let ctx = session.begin("doubling");
            let lx = ctx.input("x", [1], ElemType::F32, Some(x));
            let doubled = lx.add(&lx);
            doubled.mark_output();
            session.finish(&ctx);
            let out = session.execute_outputs(&[doubled.node]).unwrap();
            x = out[0].as_f("doubled").clone();
            iterations += 1;
        }
        // 1 → 2 → 4 → 8 → 16: four captures of one structure.
        assert_eq!(iterations, 4);
        assert_eq!(x.data(), &[16.0]);
    }

    /// `x[1, k] · w[k, 4]` with a `tolerance_rel` demand on the matmul.
    fn toleranced_matmul(ctx: &CaptureCtx, k: usize) {
        let x = ctx.input("x", [1, k], ElemType::F32, None);
        let w = ctx.parameter("w", [k, 4], ElemType::F32, None);
        let flops = 2.0 * k as f64 * 4.0;
        ctx.record(
            OpKind::MatMul,
            "matmul",
            &[&x, &w],
            Out::new(&[1, 4], ElemType::F32),
            CostHints::new(flops, 4.0 * (k + 4 * k) as f64, 16.0),
            &[("tolerance_rel", &"1e-6")],
        )
        .mark_output();
    }

    /// The GA3xx error bound grows with the reduction length, so a
    /// verdict reached at one size says nothing about the next: the gate
    /// has to deny at exactly the steps where a cold capture is denied.
    #[test]
    fn size_dependent_deny_is_reported_at_its_own_step() {
        let cfg = LintConfig::new();
        let mut session = RecaptureSession::new();
        let mut verdicts = Vec::new();
        for k in [4, 8, 64, 4, 64] {
            let cold = CaptureCtx::new("tolerance");
            toleranced_matmul(&cold, k);
            let cold = cold.finish_checked(&cfg).map(|cap| cap.srg);

            let ctx = session.begin("tolerance");
            toleranced_matmul(&ctx, k);
            let ours = session.finish_checked(&ctx, &cfg).map(|cap| &cap.srg);
            match (&ours, &cold) {
                (Ok(ours), Ok(cold)) => assert_eq!(*ours, cold, "k = {k}"),
                (Err(ours), Err(cold)) => {
                    assert_eq!(ours.to_string(), cold.to_string(), "k = {k}");
                    assert!(
                        !ours
                            .with_code(LintCode::CriticalityToleranceExceeded)
                            .is_empty(),
                        "{ours}"
                    );
                }
                _ => panic!("k = {k}: re-traced and cold captures disagree on the gate"),
            }
            verdicts.push(ours.is_ok());
        }
        assert_eq!(verdicts, [true, true, false, true, false]);
    }
}
