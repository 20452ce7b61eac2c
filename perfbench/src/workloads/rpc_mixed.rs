//! `rpc_mixed`: one 16-step decode session on the wire — the only
//! real-socket path. Small calls are latency-bound (framing, syscalls,
//! thread wake-up) and bulk calls are copy-bound (codec, payload
//! conversion), writes beside reads, so a gain for one that costs the
//! other shows.
//!
//! `RemoteSession::execute` is left out on purpose: it serializes the
//! SRG through `serde_json`, which is a typecheck-only stand-in in the
//! build container.

use super::{bit_equal, timed_ms, Workload, INPUT_SETS};
use crate::calib::Mix;
use crate::json;
use crate::metrics::{ratio, Metrics};
use crate::rng::{set_seed, SplitMix64};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use genie_backend::remote::{payload_to_value, value_to_payload};
use genie_backend::{spawn_server, GenieExecutor};
use genie_frontend::Value;
use genie_tensor::Tensor;
use genie_transport::{
    Client, Request, RequestBody, Response, ResponseBody, Server, TensorPayload,
};

/// Fitted on this workload's ops over quiet and busy spells of the host
/// (README, "Calibration").
const CALIB_MIX: Mix = Mix {
    compute: 0.25,
    parallel: 0.4,
    memory: 0.1,
};
const PINNED_WEIGHT_FLOATS: usize = (4 << 20) / 4;
const BULK_FLOATS: usize = (1 << 20) / 4;
const SMALL_FLOATS: usize = (2 << 10) / 4;
const STEPS: usize = 16;
const WEIGHT_KEY: u64 = 1;
const BULK_KEY: u64 = 2;
const SMALL_KEY: u64 = 3;
/// Calls one op makes: bulk upload, 16 × (upload, fetch, ping), bulk
/// fetch, two releases.
const CALLS_PER_OP: usize = 1 + 3 * STEPS + 1 + 2;

struct Inputs {
    bulk: Value,
    small: Vec<Value>,
}

fn floats(rng: &mut SplitMix64, n: usize) -> Value {
    Value::F(Tensor::from_vec(
        [n],
        (0..n).map(|_| rng.unit_f32()).collect(),
    ))
}

fn generate(seed: u64) -> Vec<Inputs> {
    (0..INPUT_SETS)
        .map(|i| {
            let mut rng = SplitMix64::new(set_seed(seed, i));
            Inputs {
                bulk: floats(&mut rng, BULK_FLOATS),
                small: (0..STEPS).map(|_| floats(&mut rng, SMALL_FLOATS)).collect(),
            }
        })
        .collect()
}

/// What one op fetched back, for the output check.
struct Output {
    bulk: Option<Value>,
    small: Vec<Option<Value>>,
    errors: usize,
    resident_after: usize,
}

pub struct RpcMixed {
    // Field order is drop order: the client hangs up before the server
    // shuts down and joins its threads.
    client: Client,
    _server: Server,
    executor: GenieExecutor,
    sets: Vec<Inputs>,
    resident_after_setup: usize,
    last: Option<Output>,
    errors: u64,
    wire_at_start: u64,
    calls_at_start: u64,
}

impl RpcMixed {
    pub fn build(seed: u64) -> Self {
        let (server, executor) = spawn_server().expect("loopback server spawns");
        let mut client = Client::connect(server.addr()).expect("client connects over loopback");
        let mut rng = SplitMix64::new(set_seed(seed, INPUT_SETS));
        let weight = floats(&mut rng, PINNED_WEIGHT_FLOATS);
        client
            .call(RequestBody::Upload {
                key: WEIGHT_KEY,
                tensor: value_to_payload(&weight),
            })
            .expect("weight pins");
        RpcMixed {
            resident_after_setup: executor.resident_count(),
            client,
            _server: server,
            executor,
            sets: generate(seed),
            last: None,
            errors: 0,
            wire_at_start: 0,
            calls_at_start: 0,
        }
    }

    /// One wire call under a span; a transport or remote error is
    /// counted and surfaces in the output check.
    fn call(
        client: &mut Client,
        tr: &mut Tracer,
        span: &'static str,
        body: RequestBody,
        errors: &mut usize,
    ) -> Option<ResponseBody> {
        match tr.span(span, "transport", |_| client.call(body)) {
            Ok(reply) => Some(reply),
            Err(_) => {
                *errors += 1;
                None
            }
        }
    }

    fn upload(
        client: &mut Client,
        tr: &mut Tracer,
        span: &'static str,
        key: u64,
        value: &Value,
        errors: &mut usize,
    ) {
        let tensor = tr.span("backend.value_to_payload", "backend", |_| {
            value_to_payload(value)
        });
        Self::call(
            client,
            tr,
            span,
            RequestBody::Upload { key, tensor },
            errors,
        );
    }

    fn fetch(
        client: &mut Client,
        tr: &mut Tracer,
        span: &'static str,
        key: u64,
        errors: &mut usize,
    ) -> Option<Value> {
        let reply = Self::call(client, tr, span, RequestBody::Fetch { key }, errors)?;
        let ResponseBody::Tensors(tensors) = reply else {
            *errors += 1;
            return None;
        };
        let payload = tensors.first()?;
        tr.span("backend.payload_to_value", "backend", |_| {
            payload_to_value(payload).ok()
        })
    }
}

impl Workload for RpcMixed {
    fn model_build_ms(&self) -> f64 {
        // Random blocks stand in for weights: no model is built.
        0.0
    }

    fn prepare_checks(&mut self) {}

    fn start_counting(&mut self) {
        self.errors = 0;
        self.wire_at_start = self.client.total_bytes();
        self.calls_at_start = self.client.calls;
    }

    fn op(&mut self, set: usize, tr: &mut Tracer) {
        let inputs = &self.sets[set];
        let client = &mut self.client;
        let mut errors = 0usize;
        Self::upload(
            client,
            tr,
            "transport.bulk_upload",
            BULK_KEY,
            &inputs.bulk,
            &mut errors,
        );
        let mut small = Vec::with_capacity(STEPS);
        for input in &inputs.small {
            Self::upload(
                client,
                tr,
                "transport.small_upload",
                SMALL_KEY,
                input,
                &mut errors,
            );
            small.push(Self::fetch(
                client,
                tr,
                "transport.small_fetch",
                SMALL_KEY,
                &mut errors,
            ));
            Self::call(client, tr, "transport.ping", RequestBody::Ping, &mut errors);
        }
        let bulk = Self::fetch(client, tr, "transport.bulk_fetch", BULK_KEY, &mut errors);
        for key in [BULK_KEY, SMALL_KEY] {
            Self::call(
                client,
                tr,
                "transport.release",
                RequestBody::Release { key },
                &mut errors,
            );
        }
        if tr.enabled() {
            self.errors += errors as u64;
        }
        self.last = Some(Output {
            bulk,
            small,
            errors,
            resident_after: self.executor.resident_count(),
        });
    }

    fn check(&mut self, set: usize) -> Result<(), String> {
        let out = self.last.as_ref().ok_or("no op ran")?;
        let inputs = &self.sets[set];
        if out.errors > 0 {
            return Err(format!("set {set}: {} calls failed", out.errors));
        }
        if !out
            .bulk
            .as_ref()
            .is_some_and(|v| bit_equal(v, &inputs.bulk))
        {
            return Err(format!(
                "set {set}: bulk block fetched differs from uploaded"
            ));
        }
        for (step, (got, want)) in out.small.iter().zip(&inputs.small).enumerate() {
            if !got.as_ref().is_some_and(|v| bit_equal(v, want)) {
                return Err(format!("set {set} step {step}: fetched bytes differ"));
            }
        }
        if out.resident_after != self.resident_after_setup {
            return Err(format!(
                "set {set}: {} resident objects after the op, {} after set-up",
                out.resident_after, self.resident_after_setup
            ));
        }
        Ok(())
    }

    fn per_layer(&mut self, tr: &mut Tracer, ops: usize, m: &mut Metrics) {
        let n = ops.max(1) as f64;
        let pings = tr.durations_us("transport.ping");
        m.set("transport.ping_rtt_us_p50", percentile(&pings, 0.50));
        m.set("transport.ping_rtt_us_p99", percentile(&pings, 0.99));
        let mut small = tr.durations_us("transport.small_upload");
        small.extend(tr.durations_us("transport.small_fetch"));
        m.set("transport.small_call_us_p50", percentile(&small, 0.50));
        let bulk_mb = (BULK_FLOATS * 4) as f64 / 1e6;
        let mb_per_s = |name: &str| {
            let med_us = median(&tr.durations_us(name));
            ratio(bulk_mb, med_us / 1e6)
        };
        m.set(
            "transport.bulk_upload_mb_per_s",
            mb_per_s("transport.bulk_upload"),
        );
        m.set(
            "transport.bulk_fetch_mb_per_s",
            mb_per_s("transport.bulk_fetch"),
        );
        m.set(
            "transport.wire_bytes_per_op",
            (self.client.total_bytes() - self.wire_at_start) as f64 / n,
        );
        m.set(
            "transport.calls_per_op",
            (self.client.calls - self.calls_at_start) as f64 / n,
        );
        m.set("transport.errors_per_op", self.errors as f64 / n);

        let convert_ms =
            tr.total_ms("backend.value_to_payload") + tr.total_ms("backend.payload_to_value");
        m.set("backend.payload_convert_ms_per_op", convert_ms / n);
        // Each op converts the bulk block and every small block both ways.
        let converted_mb = 2.0 * ((BULK_FLOATS + STEPS * SMALL_FLOATS) * 4) as f64 / 1e6;
        m.set(
            "backend.payload_convert_mb_per_s",
            ratio(converted_mb * n, convert_ms / 1e3),
        );

        // Codec alone: encode and decode in memory, no socket.
        let small_payload = value_to_payload(&self.sets[0].small[0]);
        let bulk_payload = value_to_payload(&self.sets[0].bulk);
        const SMALL_MSGS: u32 = 2_000;
        let small_ms = tr.span("probe.codec_small", "transport", |_| {
            timed_ms(|| {
                for i in 0..SMALL_MSGS {
                    roundtrip(u64::from(i), &small_payload);
                }
            })
            .0
        });
        // One message is a request and a response, each encoded and decoded.
        m.set(
            "transport.codec_small_us_per_msg",
            small_ms * 1e3 / f64::from(2 * SMALL_MSGS),
        );
        const BULK_MSGS: u32 = 20;
        let bulk_ms = tr.span("probe.codec_bulk", "transport", |_| {
            timed_ms(|| {
                for i in 0..BULK_MSGS {
                    roundtrip(u64::from(i), &bulk_payload);
                }
            })
            .0
        });
        m.set(
            "transport.codec_bulk_mb_per_s",
            ratio(2.0 * bulk_mb * f64::from(BULK_MSGS), bulk_ms / 1e3),
        );
    }

    fn calib_mix(&self) -> Mix {
        CALIB_MIX
    }

    fn params_json(&self) -> String {
        json::object([
            (
                "pinned_weight_bytes",
                (PINNED_WEIGHT_FLOATS * 4).to_string(),
            ),
            ("bulk_block_bytes", (BULK_FLOATS * 4).to_string()),
            ("small_block_bytes", (SMALL_FLOATS * 4).to_string()),
            ("steps", STEPS.to_string()),
            ("calls_per_op", CALLS_PER_OP.to_string()),
            ("transport", json::string("tcp loopback, nodelay")),
        ])
    }
}

/// `Upload` request and `Tensors` response through encode and decode.
fn roundtrip(id: u64, payload: &TensorPayload) {
    let request = Request {
        id,
        trace: None,
        body: RequestBody::Upload {
            key: SMALL_KEY,
            tensor: payload.clone(),
        },
    };
    let wire = request.encode().expect("request encodes");
    std::hint::black_box(Request::decode(wire).expect("request decodes"));
    let response = Response {
        id,
        body: ResponseBody::Tensors(vec![payload.clone()]),
    };
    let wire = response.encode().expect("response encodes");
    std::hint::black_box(Response::decode(wire).expect("response decodes"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_sets_are_a_function_of_the_seed() {
        let first = |seed| match &generate(seed)[0].small[0] {
            Value::F(t) => t.data().to_vec(),
            Value::I(_) => unreachable!("inputs are floats"),
        };
        assert_eq!(first(2), first(2));
        assert_ne!(first(2), first(3));
        let sets = generate(2);
        assert_eq!(sets.len(), INPUT_SETS);
        assert_eq!(sets[0].small.len(), STEPS);
        assert_eq!(sets[0].bulk.size_bytes(), BULK_FLOATS * 4);
    }

    #[test]
    fn an_op_leaves_the_store_as_set_up_left_it() {
        let mut w = RpcMixed::build(1);
        let mut tr = Tracer::new(true);
        w.start_counting();
        for set in 0..2 {
            tr.op(|tr| w.op(set, tr));
            w.check(set).unwrap();
        }
        assert_eq!(w.client.calls - w.calls_at_start, 2 * CALLS_PER_OP as u64);
        assert_eq!(w.executor.resident_count(), 1);
    }
}
