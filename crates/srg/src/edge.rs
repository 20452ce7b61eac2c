//! SRG edges: data dependencies annotated with movement costs.

use crate::annotations::{Criticality, ElemType, Rate, TensorMeta};
use crate::ids::{EdgeId, NodeId, TensorId};

/// A directed data dependency between two nodes. Edges carry everything the
/// scheduler needs to price a potential network transfer: payload metadata,
/// producer/consumer rates, and criticality (§3.1).
#[derive(Clone, Debug, PartialEq)]
pub struct Edge {
    /// Id within the owning graph.
    pub id: EdgeId,
    /// Producing node.
    pub src: NodeId,
    /// Consuming node.
    pub dst: NodeId,
    /// Logical tensor flowing along this edge. Multiple edges share a
    /// `TensorId` when one value fans out to several consumers — the
    /// scheduler must ship it only once per destination device.
    pub tensor: TensorId,
    /// Shape and precision of the payload.
    pub meta: TensorMeta,
    /// Data-volume change between producer and consumer.
    pub rate: Rate,
    /// Critical-path tag.
    pub criticality: Criticality,
    /// Which input slot of `dst` this edge feeds (operands are ordered).
    pub dst_slot: u8,
}

impl Edge {
    /// Construct a pass-through edge for the given payload.
    pub fn new(id: EdgeId, src: NodeId, dst: NodeId, tensor: TensorId, meta: TensorMeta) -> Self {
        let bytes = meta.size_bytes() as f64;
        Edge {
            id,
            src,
            dst,
            tensor,
            meta,
            rate: Rate::passthrough(bytes),
            criticality: Criticality::Normal,
            dst_slot: 0,
        }
    }

    /// Re-describe the payload in place as a `shape` of `elem`:
    /// afterwards the edge is what [`Edge::new`] builds for
    /// `TensorMeta::new(shape, elem)` between the same ends (pass-through
    /// rate, normal criticality). The shape buffer is reused.
    pub fn reset_payload(&mut self, shape: &[usize], elem: ElemType) {
        self.meta.shape.clear();
        self.meta.shape.extend_from_slice(shape);
        self.meta.elem = elem;
        self.rate = Rate::passthrough(self.meta.size_bytes() as f64);
        self.criticality = Criticality::Normal;
    }

    /// Builder-style destination-slot annotation.
    pub fn with_slot(mut self, slot: u8) -> Self {
        self.dst_slot = slot;
        self
    }

    /// Bytes that must cross the network if `src` and `dst` land on
    /// different devices.
    pub fn transfer_bytes(&self) -> f64 {
        // The consumer-side volume is what must arrive; a reducing edge
        // (e.g. sampling) can apply the reduction producer-side.
        self.rate.consumed_bytes.min(self.rate.produced_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::ElemType;

    fn edge() -> Edge {
        Edge::new(
            EdgeId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            TensorId::new(9),
            TensorMeta::new([4, 8], ElemType::F32),
        )
    }

    #[test]
    fn reset_payload_equals_a_new_edge() {
        let mut e = Edge {
            criticality: Criticality::Critical,
            rate: Rate::passthrough(1.0),
            ..edge().with_slot(1)
        };
        let grown = TensorMeta::new([5, 8], ElemType::F16);
        e.reset_payload(&grown.shape, grown.elem);
        let fresh = Edge::new(e.id, e.src, e.dst, e.tensor, grown).with_slot(1);
        assert_eq!(e, fresh);
    }

    #[test]
    fn passthrough_rate_matches_meta() {
        let e = edge();
        assert_eq!(e.meta.size_bytes(), 128);
        assert_eq!(e.rate.produced_bytes, 128.0);
        assert_eq!(e.transfer_bytes(), 128.0);
    }

    #[test]
    fn reducing_edge_transfers_consumer_volume() {
        let e = Edge {
            rate: Rate {
                produced_bytes: 201_600.0,
                consumed_bytes: 4.0,
            },
            ..edge()
        };
        assert_eq!(e.transfer_bytes(), 4.0);
    }

    #[test]
    fn edge_json_roundtrip() {
        let e = Edge {
            criticality: Criticality::Background,
            ..edge()
        };
        let json = e.to_json().to_string();
        let back = Edge::from_json(&crate::json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, e);
    }
}
