//! Tenant requests: the unit of fleet-wide scheduling (§3.6).
//!
//! In the Genie vision, every client instance submits its semantic graph
//! to the global scheduler as a first-class description of its workload —
//! not an opaque "give me 2 GPUs".

use genie_srg::stats::GraphStats;
use genie_srg::Srg;

/// Workload class derived from the semantic graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkloadClass {
    /// LLM serving (phased, stateful).
    Llm,
    /// Vision inference (regular, pipelinable).
    Vision,
    /// Recommendation (sparse + dense).
    Recommendation,
    /// Multimodal fusion.
    Multimodal,
    /// Anything else.
    Generic,
}

/// One tenant's scheduling request.
#[derive(Clone, Debug)]
pub struct TenantRequest {
    /// Unique tenant id.
    pub id: u64,
    /// The annotated semantic graph (the request's *description*).
    pub srg: Srg,
}

impl TenantRequest {
    /// Classify the workload from the graph alone.
    pub fn classify(&self) -> WorkloadClass {
        classify_graph(&self.srg)
    }
}

/// Classify any SRG into a workload class using its statistics.
pub fn classify_graph(srg: &Srg) -> WorkloadClass {
    let Ok(stats) = GraphStats::of(srg) else {
        return WorkloadClass::Generic;
    };
    match stats.computation_pattern() {
        "sequential, phased (prefill/decode)" => WorkloadClass::Llm,
        "cross-modal fusion" => WorkloadClass::Multimodal,
        "sparse + dense mix" => WorkloadClass::Recommendation,
        _ if stats.modalities.iter().any(|m| m == "vision") => WorkloadClass::Vision,
        _ => WorkloadClass::Generic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_models::Workload;

    #[test]
    fn zoo_graphs_classify_correctly() {
        let cases = [
            (Workload::LlmServing, WorkloadClass::Llm),
            (Workload::ComputerVision, WorkloadClass::Vision),
            (Workload::Recommendation, WorkloadClass::Recommendation),
            (Workload::Multimodal, WorkloadClass::Multimodal),
        ];
        for (w, expect) in cases {
            let srg = w.spec_graph();
            assert_eq!(classify_graph(&srg), expect, "{}", w.name());
        }
    }

    #[test]
    fn llm_request_classifies_as_llm() {
        let req = TenantRequest {
            id: 1,
            srg: Workload::LlmServing.spec_graph(),
        };
        assert_eq!(req.classify(), WorkloadClass::Llm);
    }
}
