//! The Genie remote-execution protocol.
//!
//! A message is an envelope (`u64` id; on requests a trace-context
//! presence byte and, when it is 1, two `u64`s), a `u8` body tag and the
//! body's fields in declaration order, every sequence a `u32` count and
//! its items ([`wire::put_seq`] / [`wire::get_seq`]). Graphs travel as
//! JSON (the SRG's portable interchange encoding); a tensor is a `u8`
//! kind, its dims and its raw little-endian element bytes. Encoding
//! splices those bytes into the [`Frame`] by handle and decoding hands
//! them out as a range of the received frame: neither copies them.
//! `tests/golden/frames.txt` pins one encoded frame per body variant.

use crate::error::{Result, TransportError};
use crate::wire;
use crate::wire::{Frame, SharedBytes};
use genie_telemetry::causal::TraceCtx;

/// Element kind of a tensor payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadKind {
    /// 32-bit floats.
    F32,
    /// 64-bit indices.
    I64,
}

/// A tensor on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct TensorPayload {
    /// Dimension sizes.
    pub dims: Vec<usize>,
    /// Element kind.
    pub kind: PayloadKind,
    /// Raw little-endian element bytes.
    pub data: SharedBytes,
}

impl TensorPayload {
    /// Wrap an f32 tensor.
    pub fn from_f32(dims: Vec<usize>, data: &[f32]) -> Self {
        TensorPayload {
            dims,
            kind: PayloadKind::F32,
            data: wire::f32s_to_bytes(data),
        }
    }

    /// Wrap an i64 tensor.
    pub fn from_i64(dims: Vec<usize>, data: &[i64]) -> Self {
        TensorPayload {
            dims,
            kind: PayloadKind::I64,
            data: wire::i64s_to_bytes(data),
        }
    }

    /// Payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Kind, rank and data length with nothing behind them.
    const MIN_WIRE_BYTES: usize = 1 + 1 + 4;

    fn encode(&self, buf: &mut Frame) -> Result<()> {
        wire::put_u8(
            buf,
            match self.kind {
                PayloadKind::F32 => 0,
                PayloadKind::I64 => 1,
            },
        );
        wire::put_dims(buf, &self.dims)?;
        wire::put_bytes(buf, &self.data)
    }

    fn decode(buf: &mut SharedBytes) -> Result<Self> {
        let kind = match wire::get_u8(buf)? {
            0 => PayloadKind::F32,
            1 => PayloadKind::I64,
            other => return Err(TransportError::Codec(format!("bad payload kind {other}"))),
        };
        let dims = wire::get_dims(buf)?;
        let data = wire::get_bytes(buf)?;
        Ok(TensorPayload { dims, kind, data })
    }
}

/// A request body.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestBody {
    /// Liveness probe.
    Ping,
    /// Upload a tensor and pin it as a resident object under `key`.
    /// Returns `Handle { key, epoch }`.
    Upload {
        /// Caller-chosen object key.
        key: u64,
        /// The tensor.
        tensor: TensorPayload,
    },
    /// Execute a serialized SRG. `bindings` map node ids to inline
    /// payloads; `handle_bindings` map node ids to resident objects;
    /// `fetch` lists node ids whose values return inline;
    /// `pin` maps node ids to keys under which their values pin remotely.
    Execute {
        /// JSON-encoded SRG (`genie_srg::serialize`).
        srg_json: String,
        /// Inline input payloads.
        bindings: Vec<(u32, TensorPayload)>,
        /// Handle-resolved input bindings `(node, key, expected_epoch)`.
        handle_bindings: Vec<(u32, u64, u64)>,
        /// Node ids whose outputs to return inline.
        fetch: Vec<u32>,
        /// Node ids whose outputs to pin remotely `(node, key)`.
        pin: Vec<(u32, u64)>,
    },
    /// Fetch a resident object's bytes.
    Fetch {
        /// Object key.
        key: u64,
    },
    /// Drop a resident object.
    Release {
        /// Object key.
        key: u64,
    },
    /// Invalidate every resident object (fault-injection hook for
    /// tests: simulates losing the device).
    Crash,
}

/// A response body.
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseBody {
    /// Ping reply.
    Pong,
    /// Generic success.
    Ok,
    /// A resident-object handle.
    Handle {
        /// Object key.
        key: u64,
        /// Epoch; a crash bumps it and invalidates older handles.
        epoch: u64,
    },
    /// Inline tensors, ordered as requested.
    Tensors(Vec<TensorPayload>),
    /// Result of an `Execute`: fetched tensors plus handles for pinned
    /// outputs, each in request order.
    ExecuteResult {
        /// Values of the `fetch` nodes.
        tensors: Vec<TensorPayload>,
        /// `(key, epoch)` per `pin` entry.
        handles: Vec<(u64, u64)>,
    },
    /// Application-level failure.
    Error(String),
}

/// A full request envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Correlation id.
    pub id: u64,
    /// Causal trace context (serving request + parent span), carried
    /// in the envelope so request attribution survives the wire.
    pub trace: Option<TraceCtx>,
    /// Body.
    pub body: RequestBody,
}

/// A full response envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Correlation id (matches the request).
    pub id: u64,
    /// Body.
    pub body: ResponseBody,
}

impl Request {
    /// Encode to the frame it is written as, each tensor's bytes spliced in
    /// by handle. Fails with [`TransportError::Oversize`] on values the
    /// wire format cannot carry (rather than silently truncating them).
    pub fn to_frame(&self) -> Result<Frame> {
        let mut buf = Frame::default();
        wire::put_u64(&mut buf, self.id);
        // Trace context rides between the id and the body tag: one
        // presence byte, then (request, parent_span) when present.
        match &self.trace {
            Some(ctx) => {
                wire::put_u8(&mut buf, 1);
                wire::put_u64(&mut buf, ctx.request);
                wire::put_u64(&mut buf, ctx.parent_span);
            }
            None => wire::put_u8(&mut buf, 0),
        }
        match &self.body {
            RequestBody::Ping => wire::put_u8(&mut buf, 0),
            RequestBody::Upload { key, tensor } => {
                wire::put_u8(&mut buf, 1);
                wire::put_u64(&mut buf, *key);
                tensor.encode(&mut buf)?;
            }
            RequestBody::Execute {
                srg_json,
                bindings,
                handle_bindings,
                fetch,
                pin,
            } => {
                wire::put_u8(&mut buf, 2);
                wire::put_str(&mut buf, srg_json)?;
                wire::put_seq(&mut buf, bindings, |buf, (node, tensor)| {
                    wire::put_u32(buf, *node);
                    tensor.encode(buf)
                })?;
                wire::put_seq(&mut buf, handle_bindings, |buf, &(node, key, epoch)| {
                    wire::put_u32(buf, node);
                    wire::put_u64(buf, key);
                    wire::put_u64(buf, epoch);
                    Ok(())
                })?;
                wire::put_seq(&mut buf, fetch, |buf, &node| {
                    wire::put_u32(buf, node);
                    Ok(())
                })?;
                wire::put_seq(&mut buf, pin, |buf, &(node, key)| {
                    wire::put_u32(buf, node);
                    wire::put_u64(buf, key);
                    Ok(())
                })?;
            }
            RequestBody::Fetch { key } => {
                wire::put_u8(&mut buf, 3);
                wire::put_u64(&mut buf, *key);
            }
            RequestBody::Release { key } => {
                wire::put_u8(&mut buf, 4);
                wire::put_u64(&mut buf, *key);
            }
            RequestBody::Crash => wire::put_u8(&mut buf, 5),
        }
        Ok(buf)
    }

    /// [`to_frame`](Self::to_frame), joined into one buffer.
    pub fn encode(&self) -> Result<SharedBytes> {
        Ok(self.to_frame()?.join())
    }

    /// Decode from a frame payload.
    pub fn decode(mut raw: SharedBytes) -> Result<Self> {
        let id = wire::get_u64(&mut raw)?;
        let trace = match wire::get_u8(&mut raw)? {
            0 => None,
            1 => Some(TraceCtx {
                request: wire::get_u64(&mut raw)?,
                parent_span: wire::get_u64(&mut raw)?,
            }),
            other => {
                return Err(TransportError::Codec(format!(
                    "bad trace-context presence byte {other}"
                )))
            }
        };
        let tag = wire::get_u8(&mut raw)?;
        let body = match tag {
            0 => RequestBody::Ping,
            1 => RequestBody::Upload {
                key: wire::get_u64(&mut raw)?,
                tensor: TensorPayload::decode(&mut raw)?,
            },
            // Fields are read in the order they are written here, which
            // is the order they travel in.
            2 => RequestBody::Execute {
                srg_json: wire::get_str(&mut raw)?,
                bindings: wire::get_seq(&mut raw, 4 + TensorPayload::MIN_WIRE_BYTES, |raw| {
                    Ok((wire::get_u32(raw)?, TensorPayload::decode(raw)?))
                })?,
                handle_bindings: wire::get_seq(&mut raw, 4 + 8 + 8, |raw| {
                    Ok((
                        wire::get_u32(raw)?,
                        wire::get_u64(raw)?,
                        wire::get_u64(raw)?,
                    ))
                })?,
                fetch: wire::get_seq(&mut raw, 4, wire::get_u32)?,
                pin: wire::get_seq(&mut raw, 4 + 8, |raw| {
                    Ok((wire::get_u32(raw)?, wire::get_u64(raw)?))
                })?,
            },
            3 => RequestBody::Fetch {
                key: wire::get_u64(&mut raw)?,
            },
            4 => RequestBody::Release {
                key: wire::get_u64(&mut raw)?,
            },
            5 => RequestBody::Crash,
            other => return Err(TransportError::Codec(format!("bad request tag {other}"))),
        };
        Ok(Request { id, trace, body })
    }
}

impl Response {
    /// Encode to the frame it is written as, each tensor's bytes spliced in
    /// by handle. Fails with [`TransportError::Oversize`] on values the
    /// wire format cannot carry (rather than silently truncating them).
    pub fn to_frame(&self) -> Result<Frame> {
        let mut buf = Frame::default();
        wire::put_u64(&mut buf, self.id);
        match &self.body {
            ResponseBody::Pong => wire::put_u8(&mut buf, 0),
            ResponseBody::Ok => wire::put_u8(&mut buf, 1),
            ResponseBody::Handle { key, epoch } => {
                wire::put_u8(&mut buf, 2);
                wire::put_u64(&mut buf, *key);
                wire::put_u64(&mut buf, *epoch);
            }
            ResponseBody::Tensors(tensors) => {
                wire::put_u8(&mut buf, 3);
                wire::put_seq(&mut buf, tensors, |buf, t| t.encode(buf))?;
            }
            ResponseBody::Error(msg) => {
                wire::put_u8(&mut buf, 4);
                wire::put_str(&mut buf, msg)?;
            }
            ResponseBody::ExecuteResult { tensors, handles } => {
                wire::put_u8(&mut buf, 5);
                wire::put_seq(&mut buf, tensors, |buf, t| t.encode(buf))?;
                wire::put_seq(&mut buf, handles, |buf, &(key, epoch)| {
                    wire::put_u64(buf, key);
                    wire::put_u64(buf, epoch);
                    Ok(())
                })?;
            }
        }
        Ok(buf)
    }

    /// [`to_frame`](Self::to_frame), joined into one buffer.
    pub fn encode(&self) -> Result<SharedBytes> {
        Ok(self.to_frame()?.join())
    }

    /// Decode from a frame payload.
    pub fn decode(mut raw: SharedBytes) -> Result<Self> {
        let id = wire::get_u64(&mut raw)?;
        let tag = wire::get_u8(&mut raw)?;
        let body = match tag {
            0 => ResponseBody::Pong,
            1 => ResponseBody::Ok,
            2 => ResponseBody::Handle {
                key: wire::get_u64(&mut raw)?,
                epoch: wire::get_u64(&mut raw)?,
            },
            3 => ResponseBody::Tensors(wire::get_seq(
                &mut raw,
                TensorPayload::MIN_WIRE_BYTES,
                TensorPayload::decode,
            )?),
            4 => ResponseBody::Error(wire::get_str(&mut raw)?),
            5 => ResponseBody::ExecuteResult {
                tensors: wire::get_seq(
                    &mut raw,
                    TensorPayload::MIN_WIRE_BYTES,
                    TensorPayload::decode,
                )?,
                handles: wire::get_seq(&mut raw, 8 + 8, |raw| {
                    Ok((wire::get_u64(raw)?, wire::get_u64(raw)?))
                })?,
            },
            other => return Err(TransportError::Codec(format!("bad response tag {other}"))),
        };
        Ok(Response { id, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(body: RequestBody) {
        let req = Request {
            id: 42,
            trace: None,
            body,
        };
        let decoded = Request::decode(req.encode().unwrap()).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn trace_context_rides_the_envelope() {
        let req = Request {
            id: 42,
            trace: Some(TraceCtx {
                request: 1337,
                parent_span: 55,
            }),
            body: RequestBody::Fetch { key: 1 },
        };
        let decoded = Request::decode(req.encode().unwrap()).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(decoded.trace.unwrap().request, 1337);
        assert_eq!(decoded.trace.unwrap().parent_span, 55);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(RequestBody::Ping);
        roundtrip_req(RequestBody::Upload {
            key: 7,
            tensor: TensorPayload::from_f32(vec![2, 2], &[1.0, 2.0, 3.0, 4.0]),
        });
        roundtrip_req(RequestBody::Execute {
            srg_json: "{\"name\":\"g\"}".into(),
            bindings: vec![(0, TensorPayload::from_i64(vec![3], &[1, 2, 3]))],
            handle_bindings: vec![(1, 99, 2)],
            fetch: vec![5, 6],
            pin: vec![(7, 1000)],
        });
        roundtrip_req(RequestBody::Fetch { key: 1 });
        roundtrip_req(RequestBody::Release { key: u64::MAX });
        roundtrip_req(RequestBody::Crash);
    }

    #[test]
    fn response_roundtrips() {
        for body in [
            ResponseBody::Pong,
            ResponseBody::Ok,
            ResponseBody::Handle { key: 3, epoch: 9 },
            ResponseBody::Tensors(vec![
                TensorPayload::from_f32(vec![1], &[5.0]),
                TensorPayload::from_i64(vec![2], &[-1, 1]),
            ]),
            ResponseBody::ExecuteResult {
                tensors: vec![TensorPayload::from_f32(vec![1], &[2.5])],
                handles: vec![(9, 1), (10, 1)],
            },
            ResponseBody::Error("boom".into()),
        ] {
            let resp = Response { id: 8, body };
            assert_eq!(Response::decode(resp.encode().unwrap()).unwrap(), resp);
        }
    }

    /// A frame writes each tensor from the payload's own bytes, in field
    /// order, and joined it is the contiguous encoding.
    #[test]
    fn frames_splice_each_payload_by_handle() {
        let a = TensorPayload::from_f32(vec![2], &[1.0, 2.0]);
        let b = TensorPayload::from_i64(vec![1], &[7]);
        let upload = Request {
            id: 1,
            trace: None,
            body: RequestBody::Upload {
                key: 3,
                tensor: a.clone(),
            },
        };
        let tensors = Response {
            id: 2,
            body: ResponseBody::Tensors(vec![a.clone(), b.clone()]),
        };
        let result = Response {
            id: 3,
            body: ResponseBody::ExecuteResult {
                tensors: vec![b.clone(), a.clone()],
                handles: vec![(4, 5)],
            },
        };
        for (frame, joined, payloads) in [
            (upload.to_frame(), upload.encode(), vec![&a]),
            (tensors.to_frame(), tensors.encode(), vec![&a, &b]),
            (result.to_frame(), result.encode(), vec![&b, &a]),
        ] {
            let (frame, joined) = (frame.unwrap(), joined.unwrap());
            let parts = frame.parts();
            let spliced: Vec<_> = parts
                .iter()
                .skip(1)
                .step_by(2)
                .map(|p| p.as_ptr())
                .collect();
            let own: Vec<_> = payloads.iter().map(|p| p.data.as_ptr()).collect();
            assert_eq!(spliced, own);
            assert_eq!(frame.join(), joined);
            assert_eq!(parts.concat(), &joined[..]);
        }
    }

    #[test]
    fn oversize_tensor_rank_propagates_from_encode() {
        let req = Request {
            id: 1,
            trace: None,
            body: RequestBody::Upload {
                key: 0,
                tensor: TensorPayload {
                    dims: vec![1; 300],
                    kind: PayloadKind::F32,
                    data: Vec::new().into(),
                },
            },
        };
        let err = req.encode().unwrap_err();
        assert!(
            matches!(
                err,
                TransportError::Oversize {
                    what: "tensor rank",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn garbage_rejected() {
        assert!(Request::decode(vec![1, 2, 3].into()).is_err());
        let mut buf = Frame::default();
        wire::put_u64(&mut buf, 1);
        wire::put_u8(&mut buf, 250); // bad tag
        assert!(Request::decode(buf.join()).is_err());
    }

    #[test]
    fn payload_sizes() {
        let t = TensorPayload::from_f32(vec![10], &[0.0; 10]);
        assert_eq!(t.size_bytes(), 40);
        let t = TensorPayload::from_i64(vec![4], &[0; 4]);
        assert_eq!(t.size_bytes(), 32);
    }
}
