//! Remote execution over real sockets.
//!
//! The server side ([`GenieExecutor`]) plugs Genie's remote-executor
//! semantics into `genie-transport`: a resident-object store with epochs,
//! SRG execution via the reference interpreter, and a `Crash` hook that
//! loses all device state (a fault-injection fixture). The client side
//! ([`RemoteSession`]) uploads pinnable state once, then drives per-step
//! graphs whose stateful inputs are handle references — the
//! semantics-aware execution mode of §4 running on an actual TCP stack.

use crate::handle::{HandleTable, RemoteHandle};
use genie_frontend::capture::CapturedGraph;
use genie_frontend::value::Value;
use genie_srg::NodeId;
use genie_telemetry::lock;
use genie_tensor::{IndexTensor, Tensor};
use genie_transport::{
    wire, Client, PayloadKind, RequestBody, ResponseBody, RetryPolicy, Server, TensorPayload,
    TransportError,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

/// Server-side resident store shared across connections.
#[derive(Debug, Default)]
struct Store {
    objects: HashMap<u64, (Value, u64)>,
    epoch: u64,
}

/// The server-side executor state (wrap in [`spawn_server`]).
#[derive(Clone, Default)]
pub struct GenieExecutor {
    store: Arc<Mutex<Store>>,
}

impl GenieExecutor {
    /// Fresh executor.
    pub fn new() -> Self {
        GenieExecutor::default()
    }

    /// Number of resident objects (test observability).
    pub fn resident_count(&self) -> usize {
        lock(&self.store).objects.len()
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        lock(&self.store).epoch
    }

    fn handle_body(&self, body: RequestBody) -> ResponseBody {
        match body {
            RequestBody::Ping => ResponseBody::Pong,
            RequestBody::Upload { key, tensor } => {
                let value = match payload_to_value(&tensor) {
                    Ok(v) => v,
                    Err(e) => return ResponseBody::Error(e),
                };
                let mut store = lock(&self.store);
                let epoch = store.epoch;
                store.objects.insert(key, (value, epoch));
                ResponseBody::Handle { key, epoch }
            }
            RequestBody::Fetch { key } => {
                let store = lock(&self.store);
                match store.objects.get(&key) {
                    Some((v, _)) => ResponseBody::Tensors(vec![value_to_payload(v)]),
                    None => ResponseBody::Error(format!("no resident object {key}")),
                }
            }
            RequestBody::Release { key } => {
                lock(&self.store).objects.remove(&key);
                ResponseBody::Ok
            }
            RequestBody::Crash => {
                let mut store = lock(&self.store);
                store.objects.clear();
                store.epoch += 1;
                ResponseBody::Ok
            }
            RequestBody::Execute {
                srg_json,
                bindings,
                handle_bindings,
                fetch,
                pin,
            } => self.execute(&srg_json, bindings, handle_bindings, fetch, pin),
        }
    }

    fn execute(
        &self,
        srg_json: &str,
        bindings: Vec<(u32, TensorPayload)>,
        handle_bindings: Vec<(u32, u64, u64)>,
        fetch: Vec<u32>,
        pin: Vec<(u32, u64)>,
    ) -> ResponseBody {
        // The graph is a peer's: parsed defensively, then held to every
        // structural invariant the interpreter indexes by.
        let srg = match genie_srg::serialize::from_json(srg_json) {
            Ok(g) => g,
            Err(e) => return ResponseBody::Error(format!("bad graph: {e}")),
        };
        if let Err(e) = srg.validate_all() {
            return ResponseBody::Error(format!("bad graph: {e}"));
        }
        let mut values: HashMap<NodeId, Value> = HashMap::new();
        for (node, payload) in &bindings {
            match payload_to_value(payload) {
                Ok(v) => {
                    values.insert(NodeId::new(*node), v);
                }
                Err(e) => return ResponseBody::Error(e),
            }
        }
        {
            let store = lock(&self.store);
            for (node, key, expected_epoch) in &handle_bindings {
                match store.objects.get(key) {
                    Some((v, epoch)) if epoch == expected_epoch => {
                        values.insert(NodeId::new(*node), v.clone());
                    }
                    Some((_, epoch)) => {
                        return ResponseBody::Error(format!(
                            "stale handle {key}: epoch {expected_epoch} != {epoch}"
                        ))
                    }
                    None => return ResponseBody::Error(format!("dangling handle {key}")),
                }
            }
        }
        // What validation cannot see — a binding whose kind or dims the
        // kernels refuse — still panics inside them. That is this request's
        // failure, not the connection's: nothing is locked here and the
        // store has not been touched yet.
        let run = || genie_frontend::interp::execute(&srg, &values);
        let all = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            Ok(Ok(v)) => v,
            Ok(Err(e)) => return ResponseBody::Error(format!("execution failed: {e}")),
            Err(panic) => {
                genie_telemetry::global()
                    .metrics
                    .counter("genie_remote_execute_panics_total", &[])
                    .inc();
                // `assert_eq!` and friends format their message.
                let why = panic.downcast_ref::<String>();
                let why = why.map_or("a kernel panicked", String::as_str);
                return ResponseBody::Error(format!("execution failed: {why}"));
            }
        };
        let mut tensors = Vec::with_capacity(fetch.len());
        for node in &fetch {
            match all.get(&NodeId::new(*node)) {
                Some(v) => tensors.push(value_to_payload(v)),
                None => return ResponseBody::Error(format!("fetch of unknown node {node}")),
            }
        }
        let mut handles = Vec::with_capacity(pin.len());
        {
            let mut store = lock(&self.store);
            let epoch = store.epoch;
            for (node, key) in &pin {
                match all.get(&NodeId::new(*node)) {
                    Some(v) => {
                        store.objects.insert(*key, (v.clone(), epoch));
                        handles.push((*key, epoch));
                    }
                    None => return ResponseBody::Error(format!("pin of unknown node {node}")),
                }
            }
        }
        ResponseBody::ExecuteResult { tensors, handles }
    }
}

/// Spawn a remote-executor server. Returns the server (shut down on drop)
/// and the shared executor for test observability.
pub fn spawn_server() -> genie_transport::Result<(Server, GenieExecutor)> {
    let executor = GenieExecutor::new();
    let exec2 = executor.clone();
    let server = Server::spawn(move || {
        let exec = exec2.clone();
        move |body: RequestBody| exec.handle_body(body)
    })?;
    Ok((server, executor))
}

/// [`spawn_server`] behind a chaotic transport: every request executes
/// normally, then the reply is stalled or dropped per `policy`. Pair with
/// [`RemoteSession::connect_with`] to exercise the retry + request-id
/// dedup path under seeded hostility.
pub fn spawn_chaotic_server(
    policy: genie_transport::ChaosPolicy,
) -> genie_transport::Result<(Server, GenieExecutor)> {
    let executor = GenieExecutor::new();
    let exec2 = executor.clone();
    let server = Server::spawn_chaotic(
        move || {
            let exec = exec2.clone();
            move |body: RequestBody| exec.handle_body(body)
        },
        policy,
    )?;
    Ok((server, executor))
}

/// How a caller should handle a remote error; [`classify_error`] is the
/// one classifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// Transient transport trouble — the retry layer already did (or can
    /// do) its best; no remote state was lost.
    Retryable,
    /// Remote state is gone (crash, epoch bump, severed session): the
    /// caller must rebuild it before continuing.
    StateLoss,
    /// A programming or protocol error retries cannot fix.
    Fatal,
}

/// Classify a transport error. Every I/O error is state loss: the socket,
/// and the session's handles with it, cannot be trusted. `Exhausted` is
/// classified by its final error: a retry budget spent against a dead
/// server is state loss (the session, and with it the server's view of
/// our handles, may be gone), while an exhausted budget over timeouts
/// alone stays retryable — the server may simply be slow.
pub fn classify_error(error: &TransportError) -> ErrorClass {
    match error {
        TransportError::Timeout { .. } => ErrorClass::Retryable,
        TransportError::Io(_) | TransportError::ConnectionClosed => ErrorClass::StateLoss,
        TransportError::Remote(msg) => {
            if msg.contains("stale handle") || msg.contains("dangling handle") {
                ErrorClass::StateLoss
            } else {
                ErrorClass::Fatal
            }
        }
        TransportError::Exhausted { last, .. } => classify_error(last),
        _ => ErrorClass::Fatal,
    }
}

/// A client session against a remote executor.
pub struct RemoteSession {
    client: Client,
    retry: Option<RetryPolicy>,
    /// Named handle table for this session's pinned state.
    pub handles: HandleTable,
}

impl RemoteSession {
    /// Connect to a remote executor (default deadline, no retries).
    pub fn connect(addr: SocketAddr) -> genie_transport::Result<RemoteSession> {
        Ok(RemoteSession {
            client: Client::connect(addr)?,
            retry: None,
            handles: HandleTable::new(),
        })
    }

    /// Connect with a retry policy: every call is issued under the
    /// policy's deadline and re-sent (same request id, server-side
    /// dedup) on transient transport errors.
    pub fn connect_with(
        addr: SocketAddr,
        policy: RetryPolicy,
    ) -> genie_transport::Result<RemoteSession> {
        Ok(RemoteSession {
            client: Client::connect_with_deadline(addr, Some(policy.deadline))?,
            retry: Some(policy),
            handles: HandleTable::new(),
        })
    }

    /// The active retry policy, if any.
    pub fn retry_policy(&self) -> Option<&RetryPolicy> {
        self.retry.as_ref()
    }

    fn call(&mut self, body: RequestBody) -> genie_transport::Result<ResponseBody> {
        match &self.retry {
            Some(policy) => self.client.call_retry(body, policy),
            None => self.client.call(body),
        }
    }

    /// Upload a value and pin it under `name`.
    pub fn upload_pinned(
        &mut self,
        name: &str,
        value: &Value,
    ) -> genie_transport::Result<RemoteHandle> {
        let key = self.handles.fresh_key();
        let payload = value_to_payload(value);
        let bytes = payload.size_bytes() as u64;
        match self.call(RequestBody::Upload {
            key,
            tensor: payload,
        })? {
            ResponseBody::Handle { key, epoch } => {
                let handle = RemoteHandle { key, epoch, bytes };
                self.handles.bind(name, handle);
                Ok(handle)
            }
            other => Err(TransportError::Codec(format!(
                "unexpected upload response {other:?}"
            ))),
        }
    }

    /// Execute a captured graph remotely.
    ///
    /// - nodes named in `handle_inputs` are bound to this session's
    ///   pinned objects instead of shipping payloads;
    /// - every other bound value in `cap.values` ships inline;
    /// - `fetch` values return inline; `pin` values stay remote under the
    ///   given names (existing bindings are reused so pinned state keeps
    ///   its key across steps).
    pub fn execute(
        &mut self,
        cap: &CapturedGraph,
        handle_inputs: &[(NodeId, &str)],
        fetch: &[NodeId],
        pin: &[(NodeId, &str)],
    ) -> genie_transport::Result<Vec<Value>> {
        let _span = genie_telemetry::global().collector.span_with(
            "remote.execute",
            "backend",
            genie_telemetry::SemAttrs::new()
                .with("graph", cap.srg.name.clone())
                .with("handle_inputs", handle_inputs.len().to_string())
                .with("fetch", fetch.len().to_string())
                .with("pin", pin.len().to_string()),
        );
        let srg_json = genie_srg::serialize::to_json(&cap.srg)
            .map_err(|e| TransportError::Codec(e.to_string()))?;

        let handle_bound: std::collections::HashSet<NodeId> =
            handle_inputs.iter().map(|(n, _)| *n).collect();
        let mut bindings = Vec::new();
        for (node, value) in &cap.values {
            if !handle_bound.contains(node) {
                bindings.push((node.0, value_to_payload(value)));
            }
        }
        bindings.sort_by_key(|(n, _)| *n);

        let mut handle_bindings = Vec::new();
        for (node, name) in handle_inputs {
            let handle = self
                .handles
                .get(name)
                .ok_or_else(|| TransportError::Codec(format!("no handle named {name}")))?;
            handle_bindings.push((node.0, handle.key, handle.epoch));
        }

        let mut pin_keys = Vec::new();
        for (node, name) in pin {
            let key = match self.handles.get(name) {
                Some(h) => h.key,
                None => self.handles.fresh_key(),
            };
            pin_keys.push((node.0, key, name.to_string()));
        }

        let body = RequestBody::Execute {
            srg_json,
            bindings,
            handle_bindings,
            fetch: fetch.iter().map(|n| n.0).collect(),
            pin: pin_keys.iter().map(|(n, k, _)| (*n, *k)).collect(),
        };
        match self.call(body)? {
            ResponseBody::ExecuteResult { tensors, handles } => {
                for ((_, _, name), (key, epoch)) in pin_keys.iter().zip(&handles) {
                    self.handles.bind(
                        name.clone(),
                        RemoteHandle {
                            key: *key,
                            epoch: *epoch,
                            bytes: 0,
                        },
                    );
                }
                tensors
                    .iter()
                    .map(|p| payload_to_value(p).map_err(TransportError::Codec))
                    .collect()
            }
            other => Err(TransportError::Codec(format!(
                "unexpected execute response {other:?}"
            ))),
        }
    }

    /// Fetch a pinned object back to the client.
    pub fn fetch(&mut self, name: &str) -> genie_transport::Result<Value> {
        let handle = self
            .handles
            .get(name)
            .ok_or_else(|| TransportError::Codec(format!("no handle named {name}")))?;
        match self.call(RequestBody::Fetch { key: handle.key })? {
            ResponseBody::Tensors(mut ts) if ts.len() == 1 => {
                payload_to_value(&ts.remove(0)).map_err(TransportError::Codec)
            }
            other => Err(TransportError::Codec(format!(
                "unexpected fetch response {other:?}"
            ))),
        }
    }

    /// Inject a device loss: the server drops all resident state and
    /// bumps its epoch; every local handle is invalidated. Returns the
    /// lost bindings.
    pub fn inject_crash(&mut self) -> genie_transport::Result<Vec<(String, RemoteHandle)>> {
        self.call(RequestBody::Crash)?;
        Ok(self.handles.invalidate_all())
    }

    /// Total bytes over the socket in both directions.
    pub fn traffic_bytes(&self) -> u64 {
        self.client.total_bytes()
    }
}

/// Convert a runtime value to a wire payload.
pub fn value_to_payload(v: &Value) -> TensorPayload {
    match v {
        Value::F(t) => TensorPayload::from_f32(t.dims().to_vec(), t.data()),
        Value::I(t) => TensorPayload::from_i64(t.shape().dims().to_vec(), t.data()),
    }
}

/// Convert a wire payload to a runtime value: checked as a peer's, then
/// decoded once, straight into the tensor's storage.
pub fn payload_to_value(p: &TensorPayload) -> Result<Value, String> {
    let (kind, width) = match p.kind {
        PayloadKind::F32 => ("f32", 4),
        PayloadKind::I64 => ("i64", 8),
    };
    if !p.data.len().is_multiple_of(width) {
        return Err(format!("{kind} payload not {width}-aligned"));
    }
    // Dims come off the wire: their product can overflow, and must match
    // the element count before a tensor may claim that shape.
    let elements = p.dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
    if elements != Some(p.data.len() / width) {
        return Err("payload length does not match dims".to_string());
    }
    Ok(match p.kind {
        PayloadKind::F32 => Value::F(Tensor::build(p.dims.clone(), |out| {
            wire::f32s_from_bytes(&p.data, out)
        })),
        PayloadKind::I64 => {
            let mut data = vec![0; p.data.len() / width];
            wire::i64s_from_bytes(&p.data, &mut data);
            Value::I(IndexTensor::from_vec(p.dims.clone(), data))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_frontend::capture::CaptureCtx;
    use genie_srg::ElemType;
    use genie_tensor::init::randn;

    #[test]
    fn dims_that_overflow_or_disagree_with_the_data_are_refused() {
        let mut p = TensorPayload::from_f32(vec![2], &[1.0, 2.0]);
        assert!(payload_to_value(&p).is_ok());
        p.dims = vec![3];
        assert!(payload_to_value(&p).is_err());
        // 2^64 elements: a wrapping product is 0 and would match no data.
        p.dims = vec![1 << 16; 4];
        p.data = TensorPayload::from_f32(vec![0], &[]).data;
        assert!(payload_to_value(&p).is_err());
        // Bytes that are not whole elements, whatever the dims claim.
        for (kind, len, dims) in [(PayloadKind::F32, 7, 1), (PayloadKind::I64, 12, 1)] {
            let p = TensorPayload {
                dims: vec![dims],
                kind,
                data: vec![0u8; len].into(),
            };
            let err = payload_to_value(&p).unwrap_err();
            assert!(err.contains("aligned"), "{err}");
        }
    }

    /// Everything a peer can put in an `Execute` — text that is not JSON,
    /// JSON that is not a graph, a graph that is not well-formed, a
    /// well-formed graph the interpreter or a kernel cannot run — comes
    /// back as `Error`, and the executor answers the next request.
    #[test]
    fn hostile_graphs_are_refused_and_the_executor_lives_on() {
        use genie_srg::{Node, OpKind, Srg, TensorMeta};
        let exec = GenieExecutor::new();
        let execute = |srg_json: &str, bindings: &[(u32, &Tensor)], fetch: u32| {
            exec.handle_body(RequestBody::Execute {
                srg_json: srg_json.to_string(),
                bindings: bindings
                    .iter()
                    .map(|(n, t)| (*n, value_to_payload(&Value::F((*t).clone()))))
                    .collect(),
                handle_bindings: vec![],
                fetch: vec![fetch],
                pin: vec![],
            })
        };
        let refused = |srg_json: &str, bindings: &[(u32, &Tensor)], why: &str| match execute(
            srg_json, bindings, 0,
        ) {
            ResponseBody::Error(msg) => assert!(msg.contains(why), "{msg} lacks {why}"),
            other => panic!("accepted ({why}): {other:?}"),
        };

        // The honest request: y = x @ w.
        let (x, w) = (randn([2, 4], 1), randn([4, 4], 2));
        let meta = |dims: [usize; 2]| TensorMeta::new(dims, ElemType::F32);
        let mut g = Srg::new("g");
        let nx = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "x"));
        let nw = g.add_node(Node::new(NodeId::new(0), OpKind::Parameter, "w"));
        let ny = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "y"));
        g.connect(nx, ny, meta([2, 4]));
        g.connect(nw, ny, meta([4, 4]));
        let honest = genie_srg::serialize::to_json(&g).unwrap();
        let bound = [(0, &x), (1, &w)];
        let answer = execute(&honest, &bound, 2);
        assert!(
            matches!(answer, ResponseBody::ExecuteResult { .. }),
            "{answer:?}"
        );

        // Not JSON, or deeper than the parser goes.
        refused("{not json", &[], "bad graph");
        refused(&"[".repeat(64), &[], "bad graph");
        refused(&"[".repeat(100_000), &[], "TooDeep");
        refused(
            &format!("{}{}", "[".repeat(64), "]".repeat(64)),
            &[],
            "bad graph",
        );
        // JSON, but fields of the wrong type.
        refused(
            &honest.replace(r#""next_tensor":2"#, r#""next_tensor":"2""#),
            &bound,
            "next_tensor",
        );
        refused(
            &honest.replace(r#""nodes":["#, r#""nodes":[7,"#),
            &bound,
            "nodes",
        );
        refused(
            &honest.replace(r#""id":1,"op""#, r#""id":5,"op""#),
            &bound,
            "position",
        );
        // A graph, but not a well-formed one.
        refused(
            &honest.replace(r#""dst":2,"#, r#""dst":99,"#),
            &bound,
            "missing node",
        );
        // Adjacency is rebuilt, never read: forged lists change nothing.
        let forged = honest.replacen('{', r#"{"out_adj":[[9,9],[],[0]],"in_adj":[[1]],"#, 1);
        assert_eq!(execute(&forged, &bound, 2), answer);

        // Well-formed, but not runnable: a matmul with one operand…
        let mut g = Srg::new("short");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let mm = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "mm"));
        g.connect(a, mm, meta([2, 4]));
        let short = genie_srg::serialize::to_json(&g).unwrap();
        refused(&short, &[(0, &x)], "needs 2 operands");
        // …a reshape to a shape that is not one…
        let reshape = short
            .replace(r#""op":"MatMul""#, r#""op":"Reshape""#)
            .replacen(r#""attrs":{}}],"#, r#""attrs":{"shape":"2,x"}}],"#, 1);
        refused(&reshape, &[(0, &x)], "`shape`");
        // …and bindings whose inner dimensions the kernel refuses.
        let panics = || {
            let snapshot = genie_telemetry::global().metrics.snapshot();
            snapshot
                .counter("genie_remote_execute_panics_total", &[])
                .unwrap_or(0)
        };
        let before = panics();
        refused(
            &honest,
            &[(0, &randn([2, 3], 3)), (1, &w)],
            "execution failed",
        );
        assert_eq!(panics(), before + 1);

        assert_eq!(exec.handle_body(RequestBody::Ping), ResponseBody::Pong);
        assert_eq!(execute(&honest, &bound, 2), answer);
    }

    #[test]
    fn remote_matches_local_numerically() {
        let (server, _exec) = spawn_server().unwrap();
        let mut session = RemoteSession::connect(server.addr()).unwrap();

        let x = randn([2, 4], 1);
        let w = randn([4, 4], 2);
        let eager = genie_tensor::ops::gelu(&genie_tensor::ops::matmul(&x, &w));

        let ctx = CaptureCtx::new("g");
        let lx = ctx.input("x", [2, 4], ElemType::F32, Some(x));
        let lw = ctx.parameter("w", [4, 4], ElemType::F32, Some(w));
        let y = lx.matmul(&lw).gelu();
        y.mark_output();
        let cap = ctx.finish();

        let outs = session.execute(&cap, &[], &[y.node], &[]).unwrap();
        assert!(outs[0].as_f("y").approx_eq(&eager, 1e-6));
        drop(server);
    }

    #[test]
    fn pinned_weights_avoid_reshipping() {
        let (server, exec) = spawn_server().unwrap();
        let mut session = RemoteSession::connect(server.addr()).unwrap();

        let w = randn([64, 64], 3);
        session.upload_pinned("w", &Value::F(w.clone())).unwrap();
        assert_eq!(exec.resident_count(), 1);
        let after_upload = session.traffic_bytes();

        // Two steps referencing the pinned weight by handle.
        let mut last = 0;
        for step in 0..2 {
            let ctx = CaptureCtx::new(format!("step{step}"));
            let lx = ctx.input("x", [1, 64], ElemType::F32, Some(randn([1, 64], step)));
            let lw = ctx.parameter("w", [64, 64], ElemType::F32, None); // handle-bound
            let y = lx.matmul(&lw);
            y.mark_output();
            let cap = ctx.finish();
            let outs = session
                .execute(&cap, &[(lw.node, "w")], &[y.node], &[])
                .unwrap();
            assert_eq!(outs[0].as_f("y").dims(), &[1, 64]);
            last = session.traffic_bytes();
        }
        // Steady-state steps ship ~(64 + 64)·4 bytes plus protocol, far
        // less than the 16 KB weight.
        let per_step = (last - after_upload) / 2;
        assert!(per_step < w.size_bytes() as u64 / 2, "per step {per_step}");
    }

    #[test]
    fn kv_cache_grows_remotely_via_pins() {
        let (server, _exec) = spawn_server().unwrap();
        let mut session = RemoteSession::connect(server.addr()).unwrap();

        // Seed the cache remotely.
        session
            .upload_pinned("kv", &Value::F(Tensor::zeros(vec![0usize, 4])))
            .unwrap();

        for step in 0..3 {
            let cached = step;
            let ctx = CaptureCtx::new(format!("append{step}"));
            let cache = if cached > 0 {
                ctx.input("kv", [cached, 4], ElemType::F32, None)
            } else {
                ctx.empty_cache("kv", 4, ElemType::F32, true)
            };
            let row = ctx.input(
                "row",
                [1, 4],
                ElemType::F32,
                Some(Tensor::full([1, 4], step as f32)),
            );
            let grown = cache.kv_append(&row);
            grown.mark_output();
            let mut cap = ctx.finish();
            // Cache comes from the remote handle, not an inline payload.
            cap.values.remove(&cache.node);
            session
                .execute(&cap, &[(cache.node, "kv")], &[], &[(grown.node, "kv")])
                .unwrap();
        }
        let cache = session.fetch("kv").unwrap();
        let t = cache.as_f("kv");
        assert_eq!(t.dims(), &[3, 4]);
        assert_eq!(t.at(&[2, 0]), 2.0);
        drop(server);
    }

    #[test]
    fn crash_invalidates_epochs() {
        let (server, exec) = spawn_server().unwrap();
        let mut session = RemoteSession::connect(server.addr()).unwrap();
        session
            .upload_pinned("w", &Value::F(randn([4, 4], 1)))
            .unwrap();
        let stale = session.handles.get("w").unwrap();
        let lost = session.inject_crash().unwrap();
        assert_eq!(lost.len(), 1);
        assert_eq!(exec.resident_count(), 0);
        assert_eq!(exec.epoch(), 1);

        // Using the stale handle must fail loudly.
        let ctx = CaptureCtx::new("stale");
        let lw = ctx.parameter("w", [4, 4], ElemType::F32, None);
        let y = lw.relu();
        y.mark_output();
        let cap = ctx.finish();
        session.handles.bind("w", stale);
        let err = session
            .execute(&cap, &[(lw.node, "w")], &[y.node], &[])
            .unwrap_err();
        assert_eq!(classify_error(&err), ErrorClass::StateLoss);
        assert!(matches!(err, TransportError::Remote(msg) if msg.contains("handle")));
        drop(server);
    }

    /// The host vanishes mid-session: even retries cannot reach it, and
    /// the next call classifies as state loss.
    #[test]
    fn a_severed_session_classifies_as_state_loss() {
        let (server, _exec) = spawn_server().unwrap();
        let mut session = RemoteSession::connect_with(server.addr(), RetryPolicy::fast()).unwrap();
        session
            .upload_pinned("w", &Value::F(randn([4, 4], 1)))
            .unwrap();
        drop(server);

        let ctx = CaptureCtx::new("severed");
        let lw = ctx.parameter("w", [4, 4], ElemType::F32, None);
        let y = lw.relu();
        y.mark_output();
        let cap = ctx.finish();
        let err = session
            .execute(&cap, &[(lw.node, "w")], &[y.node], &[])
            .unwrap_err();
        assert_eq!(classify_error(&err), ErrorClass::StateLoss, "{err}");
    }

    #[test]
    fn error_classification_feeds_recovery() {
        assert_eq!(
            classify_error(&TransportError::Timeout {
                after: std::time::Duration::from_secs(1)
            }),
            ErrorClass::Retryable
        );
        assert_eq!(
            classify_error(&TransportError::ConnectionClosed),
            ErrorClass::StateLoss
        );
        assert_eq!(
            classify_error(&TransportError::Remote("stale handle 3".into())),
            ErrorClass::StateLoss
        );
        assert_eq!(
            classify_error(&TransportError::Remote("execution failed: shape".into())),
            ErrorClass::Fatal
        );
        // Exhausted inherits the class of its final error.
        assert_eq!(
            classify_error(&TransportError::Exhausted {
                attempts: 3,
                last: Box::new(TransportError::ConnectionClosed),
            }),
            ErrorClass::StateLoss
        );
        assert_eq!(
            classify_error(&TransportError::Exhausted {
                attempts: 3,
                last: Box::new(TransportError::Timeout {
                    after: std::time::Duration::from_secs(1)
                }),
            }),
            ErrorClass::Retryable
        );
    }

    #[test]
    fn session_with_retry_policy_works_end_to_end() {
        let (server, _exec) = spawn_server().unwrap();
        let mut session = RemoteSession::connect_with(server.addr(), RetryPolicy::fast()).unwrap();
        session
            .upload_pinned("w", &Value::F(randn([4, 4], 1)))
            .unwrap();
        let v = session.fetch("w").unwrap();
        assert_eq!(v.as_f("w").dims(), &[4, 4]);
        drop(server);
    }

    #[test]
    fn payload_value_roundtrip() {
        let f = Value::F(randn([3, 2], 9));
        assert_eq!(payload_to_value(&value_to_payload(&f)).unwrap(), f);
        let i = Value::I(IndexTensor::from_slice(&[5, -3]));
        assert_eq!(payload_to_value(&value_to_payload(&i)).unwrap(), i);
    }

    /// Conversion moves bits, not values: NaN payloads, signed zeros,
    /// subnormals, infinities and the i64 extremes come back unchanged.
    #[test]
    fn payload_conversion_is_bit_exact() {
        let bits = [
            0x7fc0_0001u32, // quiet NaN with payload bits
            0xff80_0001,    // negative signalling NaN
            0x8000_0000,    // -0.0
            0x0000_0000,    // +0.0
            0x0000_0001,    // smallest subnormal
            0x807f_ffff,    // largest negative subnormal
            0x7f80_0000,    // +inf
            0xff80_0000,    // -inf
        ];
        let f = Tensor::from_vec([2, 4], bits.iter().map(|&b| f32::from_bits(b)).collect());
        let Value::F(back) = payload_to_value(&value_to_payload(&Value::F(f))).unwrap() else {
            panic!("an f32 payload decoded to another kind");
        };
        assert_eq!(back.dims(), &[2, 4]);
        let back: Vec<u32> = back.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(back, bits);
        let i = Value::I(IndexTensor::from_vec([3], vec![i64::MIN, i64::MAX, -1]));
        assert_eq!(payload_to_value(&value_to_payload(&i)).unwrap(), i);
    }
}
