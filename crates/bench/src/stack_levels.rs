//! Figure-1 analog: semantic visibility across the software stack.
//!
//! Figure 1 of the paper is the layered-stack diagram motivating the
//! "semantic translation gap". We make it quantitative: for each workload
//! we render the same execution at three interposition levels and count
//! the semantic facts recoverable at each — the information that is
//! *lost in translation* as computation descends the stack.
//!
//! - **PCIe level** sees only DMA bursts: sizes and directions. Every
//!   transfer looks alike; 0 semantic facts.
//! - **Driver level** sees kernel launches and memcpy sizes: operator
//!   mnemonics are recoverable (kernel names), but phases, residency,
//!   modality, and module structure are gone.
//! - **Framework level (SRG)** sees the full annotation schema.

use genie_models::Workload;
use genie_srg::json::Value;
use genie_srg::{json_object, Modality, Phase, Residency, Srg};
use std::collections::BTreeSet;

/// Facts visible at one interposition level for one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct VisibilityRow {
    /// Workload family.
    pub workload: String,
    /// Stack level name.
    pub level: &'static str,
    /// Distinct operator families identifiable.
    pub op_kinds: usize,
    /// Distinct execution phases identifiable.
    pub phases: usize,
    /// Distinct residency classes identifiable.
    pub residencies: usize,
    /// Distinct modalities identifiable.
    pub modalities: usize,
    /// Module-structure facts (distinct module paths).
    pub structure: usize,
    /// Total semantic facts (sum of the above).
    pub total: usize,
}

impl VisibilityRow {
    /// The row as it lands in the `figure1` artifact.
    pub fn to_json(&self) -> Value {
        json_object! {
            "workload": self.workload.as_str(),
            "level": self.level,
            "op_kinds": self.op_kinds,
            "phases": self.phases,
            "residencies": self.residencies,
            "modalities": self.modalities,
            "structure": self.structure,
            "total": self.total,
        }
    }
}

fn count_graph_facts(srg: &Srg, level: &'static str, workload: &str) -> VisibilityRow {
    let (op_kinds, phases, residencies, modalities, structure) = match level {
        // PCIe: opaque DMA bursts.
        "pcie" => (0, 0, 0, 0, 0),
        // Driver: kernel names leak operator families; nothing else.
        "driver" => {
            let ops: BTreeSet<String> = srg
                .nodes()
                .filter(|n| !n.op.is_source())
                .map(|n| n.op.mnemonic().to_string())
                .collect();
            (ops.len(), 0, 0, 0, 0)
        }
        // Framework: the full SRG.
        _ => {
            let ops: BTreeSet<String> = srg
                .nodes()
                .filter(|n| !n.op.is_source())
                .map(|n| n.op.mnemonic().to_string())
                .collect();
            let phases: BTreeSet<&Phase> = srg
                .nodes()
                .map(|n| &n.phase)
                .filter(|p| **p != Phase::Unknown)
                .collect();
            let res: BTreeSet<Residency> = srg
                .nodes()
                .map(|n| n.residency)
                .filter(|r| *r != Residency::Unknown)
                .collect();
            let mods: BTreeSet<Modality> = srg
                .nodes()
                .map(|n| n.modality)
                .filter(|m| *m != Modality::Unknown)
                .collect();
            let paths: BTreeSet<&str> = srg
                .nodes()
                .map(|n| n.module_path.as_str())
                .filter(|p| !p.is_empty())
                .collect();
            (ops.len(), phases.len(), res.len(), mods.len(), paths.len())
        }
    };
    VisibilityRow {
        workload: workload.to_string(),
        level,
        op_kinds,
        phases,
        residencies,
        modalities,
        structure,
        total: op_kinds + phases + residencies + modalities + structure,
    }
}

/// The three interposition levels.
pub const LEVELS: [&str; 3] = ["pcie", "driver", "framework"];

/// Compute the visibility table for all workloads × levels.
pub fn semantic_visibility() -> Vec<VisibilityRow> {
    let mut out = Vec::new();
    for w in Workload::ALL {
        let srg = w.spec_graph();
        for level in LEVELS {
            out.push(count_graph_facts(&srg, level, w.name()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_strictly_increases_up_the_stack() {
        let rows = semantic_visibility();
        for chunk in rows.chunks(3) {
            let (pcie, driver, framework) = (&chunk[0], &chunk[1], &chunk[2]);
            assert_eq!(pcie.total, 0, "{}", pcie.workload);
            assert!(
                driver.total > pcie.total,
                "{}: driver sees kernel names",
                driver.workload
            );
            assert!(
                framework.total > 2 * driver.total,
                "{}: the SRG must dominate ({} vs {})",
                framework.workload,
                framework.total,
                driver.total
            );
        }
    }

    #[test]
    fn framework_level_sees_phases_and_residency() {
        let rows = semantic_visibility();
        let llm_fw = rows
            .iter()
            .find(|r| r.workload == "LLM Serving" && r.level == "framework")
            .unwrap();
        assert!(llm_fw.phases >= 1);
        assert!(llm_fw.residencies >= 3, "weights, cache, activations");
        assert!(llm_fw.structure > 28, "per-layer module paths");
    }

    #[test]
    fn driver_level_sees_only_op_kinds() {
        for row in semantic_visibility() {
            if row.level == "driver" {
                assert_eq!(
                    row.phases + row.residencies + row.modalities + row.structure,
                    0
                );
                assert!(row.op_kinds > 0);
            }
        }
    }
}
