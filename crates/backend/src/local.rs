//! Local CPU backend: the "Local (Upper Bound)" execution mode of §4.
//!
//! Executes captured graphs with real arithmetic on the client, no
//! network involved. It is both the baseline of the evaluation and the
//! numerical oracle for every remote mode.

use genie_frontend::capture::CapturedGraph;
use genie_frontend::interp::{self, InterpError};
use genie_frontend::value::Value;

/// The local backend. Stateless; exists as a type so call sites read the
/// same as the remote backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalBackend;

impl LocalBackend {
    /// Execute and return the marked outputs in marking order.
    pub fn execute_outputs(&self, cap: &CapturedGraph) -> Result<Vec<Value>, InterpError> {
        let _span = genie_telemetry::global().collector.span_with(
            "local.execute",
            "backend",
            genie_telemetry::SemAttrs::new().with("graph", cap.srg.name.clone()),
        );
        interp::execute_outputs(&cap.srg, &cap.values, &cap.outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_frontend::capture::CaptureCtx;
    use genie_srg::ElemType;
    use genie_tensor::init::randn;

    #[test]
    fn local_backend_runs_captures() {
        let ctx = CaptureCtx::new("g");
        let x = ctx.input("x", [2, 4], ElemType::F32, Some(randn([2, 4], 1)));
        let w = ctx.parameter("w", [4, 4], ElemType::F32, Some(randn([4, 4], 2)));
        let y = x.matmul(&w).gelu();
        y.mark_output();
        let cap = ctx.finish();
        let outs = LocalBackend.execute_outputs(&cap).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].as_f("y").dims(), &[2, 4]);
    }

    #[test]
    fn missing_payload_errors_cleanly() {
        let ctx = CaptureCtx::new("g");
        let x = ctx.input("x", [2, 2], ElemType::F32, None);
        x.relu().mark_output();
        let cap = ctx.finish();
        assert!(LocalBackend.execute_outputs(&cap).is_err());
    }
}
