//! Vision recognizer: chained convolutional stages.
//!
//! Two or more `Conv2d` nodes connected through elementwise/pooling ops are
//! the signature of a CNN feature extractor. Beyond phase and modality,
//! the recognizer numbers the convolutional stages (`pipeline_stage`
//! attribute) — the hook the scheduler's pipelined-CNN-inference rewrite
//! (§3.3) keys on.

use genie_srg::{Modality, Name, NodeId, OpKind, Phase, Srg};

/// Annotate vision phases, modality, and pipeline stages. Returns nodes
/// annotated (zero if fewer than two convolutions are chained).
pub fn recognize(srg: &mut Srg) -> usize {
    let convs: Vec<NodeId> = srg
        .nodes()
        .filter(|n| n.op == OpKind::Conv2d)
        .map(|n| n.id)
        .collect();
    if convs.len() < 2 {
        return 0;
    }
    // Verify the convs form a dependency chain (each reachable from the
    // previous) — parallel towers (e.g. inception branches) still count as
    // stages in topological order.
    let order = match genie_srg::traverse::topo_order(srg) {
        Ok(o) => o,
        Err(_) => return 0,
    };
    let conv_in_order: Vec<NodeId> = order
        .iter()
        .copied()
        .filter(|id| convs.contains(id))
        .collect();

    let mut annotated = 0;
    // Stage boundaries: each conv starts a new stage; every node is tagged
    // with the stage of the latest conv at-or-before it in topo order.
    let mut stage: i64 = -1;
    let nodes = srg.parts_mut().0;
    for id in order {
        if conv_in_order.contains(&id) {
            stage += 1;
        }
        let node = &mut nodes[id.index()];
        let mut touched = false;
        if node.phase == Phase::Unknown {
            node.phase = Phase::VisionEncode;
            touched = true;
        }
        if node.modality == Modality::Unknown {
            node.modality = Modality::Vision;
            touched = true;
        }
        if stage >= 0 && !node.attrs.contains_key("pipeline_stage") {
            node.attrs
                .insert("pipeline_stage".into(), Name::render(&stage));
            touched = true;
        }
        if touched {
            annotated += 1;
        }
    }
    annotated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureCtx;
    use genie_srg::ElemType;

    fn cnn(stages: usize) -> Srg {
        let ctx = CaptureCtx::new("cnn");
        let mut x = ctx.input("img", [1, 3, 16, 16], ElemType::F32, None);
        for i in 0..stages {
            let cin = if i == 0 { 3 } else { 8 };
            let w = ctx.parameter(&format!("w{i}"), [8, cin, 3, 3], ElemType::F32, None);
            let b = ctx.parameter(&format!("b{i}"), [8], ElemType::F32, None);
            x = x.conv2d(&w, &b, 1, 1).relu();
        }
        x.mark_output();
        ctx.finish().srg
    }

    #[test]
    fn chained_convs_recognized() {
        let mut srg = cnn(3);
        assert!(recognize(&mut srg) > 0);
        assert!(srg
            .nodes()
            .all(|n| n.phase == Phase::VisionEncode && n.modality == Modality::Vision));
        // Stages 0..=2 assigned.
        let stages: std::collections::BTreeSet<_> = srg
            .nodes()
            .filter_map(|n| n.attrs.get("pipeline_stage").cloned())
            .collect();
        assert_eq!(stages.len(), 3);
    }

    #[test]
    fn single_conv_not_enough() {
        let mut srg = cnn(1);
        assert_eq!(recognize(&mut srg), 0);
    }

    #[test]
    fn stage_numbers_follow_topology() {
        let mut srg = cnn(2);
        recognize(&mut srg);
        // The relu after the second conv must be stage 1.
        let last_relu = srg.nodes().filter(|n| n.op == OpKind::Relu).last().unwrap();
        assert_eq!(last_relu.attrs["pipeline_stage"], "1");
    }
}
