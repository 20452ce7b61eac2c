//! Portable serialization of SRGs.
//!
//! The SRG is Genie's interchange format between frontends, schedulers, and
//! backends — possibly across processes and languages (§3.1 "portable
//! abstraction"). JSON is the reference encoding; it is self-describing and
//! diffable, which matters for a format meant to outlive any one framework.
//!
//! The codec is written out by hand in both directions: keys are the field
//! names in declaration order, enum variants go by their Rust names
//! (`"LlmDecode"`, `{"Fused":3}`, `{"Custom":"x"}`), and adjacency is not in
//! the document — [`Srg::from_json`] rebuilds it from the edges. Reading
//! is hostile-input code (`genie-backend`'s remote executor reads a peer's
//! graph): unknown keys are ignored, everything else is checked, and what
//! comes back can be handed to [`crate::validate::validate`] without a
//! panic. Whether it is *well-formed* stays that function's question: a
//! partial graph is a legitimate document.

use crate::annotations::{
    CostHints, Criticality, ElemType, Modality, Phase, Rate, Residency, TensorMeta,
};
use crate::edge::Edge;
use crate::graph::Srg;
use crate::ids::{DeviceId, EdgeId, NodeId, TensorId};
use crate::json::{self, Error, Value};
use crate::json_object;
use crate::name::Name;
use crate::node::{Node, OpKind};

/// Serialization/deserialization failure.
#[derive(Debug)]
pub struct SerError(json::Error);

impl std::fmt::Display for SerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SRG serialization error: {}", self.0)
    }
}

impl std::error::Error for SerError {}

/// Encode a graph as compact JSON.
pub fn to_json(g: &Srg) -> Result<String, SerError> {
    Ok(g.to_json().to_string())
}

/// Encode a graph as pretty-printed JSON (for artifacts and debugging).
pub fn to_json_pretty(g: &Srg) -> Result<String, SerError> {
    Ok(format!("{:#}", g.to_json()))
}

/// Decode a graph from JSON produced by [`to_json`].
pub fn from_json(json: &str) -> Result<Srg, SerError> {
    let doc = json::parse(json).map_err(SerError)?;
    Srg::from_json(&doc).map_err(SerError)
}

/// The error says what was expected, never what was found: it goes back
/// to the peer that sent the document.
fn expected(what: &str) -> Error {
    Error::Mismatch(format!("expected {what}"))
}

/// Member `key` of object `v`, read by `read`; the error names the key.
fn field<T>(v: &Value, key: &str, read: impl Fn(&Value) -> Result<T, Error>) -> Result<T, Error> {
    let member = v.get(key).ok_or_else(|| expected("the key"));
    let named = |e| Error::Mismatch(format!("{key}: {e}"));
    member.and_then(read).map_err(named)
}

/// An unsigned integer that fits `T`.
fn uint<T: TryFrom<u64>>(v: &Value) -> Result<T, Error> {
    let fits = v.as_u64().and_then(|n| T::try_from(n).ok());
    fits.ok_or_else(|| expected(std::any::type_name::<T>()))
}

fn float(v: &Value) -> Result<f64, Error> {
    v.as_f64().ok_or_else(|| expected("a number"))
}

fn string<S: for<'s> From<&'s str>>(v: &Value) -> Result<S, Error> {
    let s = v.as_str().ok_or_else(|| expected("a string"))?;
    Ok(S::from(s))
}

fn list<T>(v: &Value, read: impl Fn(&Value) -> Result<T, Error>) -> Result<Vec<T>, Error> {
    let items = v.as_array().ok_or_else(|| expected("an array"))?;
    items.iter().map(read).collect()
}

/// `to_json`/`from_json` for an enum, from one list of its variants used
/// in both directions: unit variants are their name as a string, a
/// variant with a payload is `{"Name": payload}`.
macro_rules! enum_json {
    ($ty:ident: $($unit:ident)* $(; $($data:ident($read:expr))*)?) => {
        impl $ty {
            /// The variant, under the name it has in Rust.
            pub fn to_json(&self) -> Value {
                match self {
                    $($ty::$unit => stringify!($unit).into(),)*
                    $($($ty::$data(x) => {
                        Value::Object(vec![(stringify!($data).into(), x.clone().into())])
                    })*)?
                }
            }

            /// The variant `v` names.
            pub fn from_json(v: &Value) -> Result<$ty, Error> {
                match (v.as_str(), v.as_object()) {
                    $((Some(stringify!($unit)), _) => Ok($ty::$unit),)*
                    $($((_, Some([(name, x)])) if name == stringify!($data) => {
                        $read(x).map($ty::$data)
                    })*)?
                    _ => Err(expected(concat!("a variant of ", stringify!($ty)))),
                }
            }
        }
    };
}

enum_json!(Phase: Unknown LlmPrefill LlmDecode VisionEncode EmbeddingLookup DenseInteraction
    ModalityFusion TrainForward TrainBackward; Custom(string));
enum_json!(Residency: Unknown PersistentWeight EphemeralActivation StatefulKvCache ModelInput
    ModelOutput EmbeddingTable OptimizerState);
enum_json!(Modality: Unknown Text Vision Audio Tabular Mixed);
enum_json!(ElemType: F32 F16 Bf16 I8 I32 I64 Bool);
enum_json!(Criticality: Background Normal Critical);
enum_json!(OpKind: MatMul Attention LayerNorm RmsNorm Softmax Gelu Relu Silu EmbeddingGather
    Conv2d Pool2d BatchNorm Add Mul Concat Slice Reshape Transpose Reduce KvAppend Sample
    AllReduce AllGather SendActivation MatMulAcc Input Parameter Output;
    Fused(uint) CustomKernel(string));

impl CostHints {
    /// The hints as a JSON object, keys in field order.
    pub fn to_json(&self) -> Value {
        json_object! {
            "flops": self.flops,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }
    }

    /// Read one back; unknown keys are ignored.
    pub fn from_json(v: &Value) -> Result<CostHints, Error> {
        Ok(CostHints {
            flops: field(v, "flops", float)?,
            bytes_read: field(v, "bytes_read", float)?,
            bytes_written: field(v, "bytes_written", float)?,
        })
    }
}

impl Rate {
    /// The rate as a JSON object, keys in field order.
    pub fn to_json(&self) -> Value {
        json_object! {
            "produced_bytes": self.produced_bytes,
            "consumed_bytes": self.consumed_bytes,
        }
    }

    /// Read one back; unknown keys are ignored.
    pub fn from_json(v: &Value) -> Result<Rate, Error> {
        Ok(Rate {
            produced_bytes: field(v, "produced_bytes", float)?,
            consumed_bytes: field(v, "consumed_bytes", float)?,
        })
    }
}

impl TensorMeta {
    /// The metadata as a JSON object, keys in field order.
    pub fn to_json(&self) -> Value {
        json_object! {
            "shape": self.shape.clone(),
            "elem": self.elem.to_json(),
        }
    }

    /// Read one back; unknown keys are ignored.
    pub fn from_json(v: &Value) -> Result<TensorMeta, Error> {
        let shape: Vec<usize> = field(v, "shape", |s| list(s, uint))?;
        // `size_bytes` multiplies the dims out unchecked; refuse a shape
        // whose size (at the widest element, zero dims aside) overflows.
        let fits = shape
            .iter()
            .try_fold(8usize, |n, &d| n.checked_mul(d.max(1)));
        fits.ok_or_else(|| Error::Mismatch("shape: byte size overflows".into()))?;
        Ok(TensorMeta {
            shape,
            elem: field(v, "elem", ElemType::from_json)?,
        })
    }
}

impl Node {
    /// The node as a JSON object, keys in field order.
    pub fn to_json(&self) -> Value {
        let attrs = self
            .attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.as_str().into()));
        json_object! {
            "id": self.id.0,
            "op": self.op.to_json(),
            "name": self.name.as_str(),
            "module_path": self.module_path.as_str(),
            "phase": self.phase.to_json(),
            "residency": self.residency.to_json(),
            "modality": self.modality.to_json(),
            "cost": self.cost.to_json(),
            "device": self.device.map(|d| d.0),
            "attrs": Value::Object(attrs.collect()),
        }
    }

    /// Read one back; unknown keys are ignored.
    pub fn from_json(v: &Value) -> Result<Node, Error> {
        let attrs = |v: &Value| {
            let members = v.as_object().ok_or_else(|| expected("an object"))?;
            let attr = |(k, v): &(String, Value)| Ok((Name::from(k.as_str()), string::<Name>(v)?));
            members.iter().map(attr).collect()
        };
        Ok(Node {
            id: NodeId(field(v, "id", uint)?),
            op: field(v, "op", OpKind::from_json)?,
            name: field(v, "name", string)?,
            module_path: field(v, "module_path", string)?,
            phase: field(v, "phase", Phase::from_json)?,
            residency: field(v, "residency", Residency::from_json)?,
            modality: field(v, "modality", Modality::from_json)?,
            cost: field(v, "cost", CostHints::from_json)?,
            // Unplaced is `null`, or no key at all.
            device: match v.get("device") {
                None | Some(Value::Null) => None,
                Some(d) => Some(DeviceId(uint(d)?)),
            },
            attrs: field(v, "attrs", attrs)?,
        })
    }
}

impl Edge {
    /// The edge as a JSON object, keys in field order.
    pub fn to_json(&self) -> Value {
        json_object! {
            "id": self.id.0,
            "src": self.src.0,
            "dst": self.dst.0,
            "tensor": self.tensor.0,
            "meta": self.meta.to_json(),
            "rate": self.rate.to_json(),
            "criticality": self.criticality.to_json(),
            "dst_slot": u32::from(self.dst_slot),
        }
    }

    /// Read one back; unknown keys are ignored.
    pub fn from_json(v: &Value) -> Result<Edge, Error> {
        Ok(Edge {
            id: EdgeId(field(v, "id", uint)?),
            src: NodeId(field(v, "src", uint)?),
            dst: NodeId(field(v, "dst", uint)?),
            tensor: TensorId(field(v, "tensor", uint)?),
            meta: field(v, "meta", TensorMeta::from_json)?,
            rate: field(v, "rate", Rate::from_json)?,
            criticality: field(v, "criticality", Criticality::from_json)?,
            dst_slot: field(v, "dst_slot", uint)?,
        })
    }
}

impl Srg {
    /// The graph as a JSON document: `name`, `nodes`, `edges`,
    /// `next_tensor`.
    pub fn to_json(&self) -> Value {
        json_object! {
            "name": self.name.as_str(),
            "nodes": self.nodes().map(Node::to_json).collect::<Vec<_>>(),
            "edges": self.edges().map(Edge::to_json).collect::<Vec<_>>(),
            "next_tensor": self.next_tensor(),
        }
    }

    /// Read a graph back. Every node and edge must carry the id of its
    /// position; an edge to a node that is not there is kept out of the
    /// adjacency lists and left for [`crate::validate::validate`] to
    /// report as `DanglingEdge`.
    pub fn from_json(v: &Value) -> Result<Srg, Error> {
        let nodes = field(v, "nodes", |n| list(n, Node::from_json))?;
        let edges = field(v, "edges", |e| list(e, Edge::from_json))?;
        let in_place = nodes.iter().enumerate().all(|(i, n)| n.id.index() == i)
            && edges.iter().enumerate().all(|(i, e)| e.id.index() == i);
        if !in_place {
            return Err(Error::Mismatch("an id disagrees with its position".into()));
        }
        let name = field(v, "name", string)?;
        let next_tensor = field(v, "next_tensor", uint)?;
        Ok(Srg::from_parts(name, nodes, edges, next_tensor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::{ElemType, Phase, TensorMeta};
    use crate::ids::NodeId;
    use crate::node::{Node, OpKind};

    fn sample() -> Srg {
        let mut g = Srg::new("sample");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g
            .add_node(Node::new(NodeId::new(0), OpKind::MatMul, "b").with_phase(Phase::LlmPrefill));
        g.connect(a, b, TensorMeta::new([3, 3], ElemType::F32));
        g
    }

    #[test]
    fn json_roundtrip_preserves_structure() {
        let g = sample();
        let json = to_json(&g).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(back.name, "sample");
        assert_eq!(back.node_count(), 2);
        assert_eq!(back.edge_count(), 1);
        assert_eq!(back.node(NodeId::new(1)).phase, Phase::LlmPrefill);
        assert_eq!(back.in_degree(NodeId::new(1)), 1);
    }

    #[test]
    fn pretty_json_is_multiline() {
        let g = sample();
        assert!(to_json_pretty(&g).unwrap().contains('\n'));
    }

    #[test]
    fn malformed_json_errors() {
        let err = from_json("{not json").unwrap_err();
        assert!(err.to_string().contains("serialization error"));
    }

    #[test]
    fn roundtrip_is_stable() {
        // Serializing twice must yield identical bytes (deterministic).
        let g = sample();
        let j1 = to_json(&g).unwrap();
        let j2 = to_json(&from_json(&j1).unwrap()).unwrap();
        assert_eq!(j1, j2);
    }
}
