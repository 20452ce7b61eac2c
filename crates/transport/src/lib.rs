//! # genie-transport — real user-space networking
//!
//! The functional counterpart of §3.4's datapath: a TCP transport on `std`
//! alone that actually moves Genie's protocol over sockets.
//!
//! - [`frame`] — length-prefixed framing with pre-allocation bounds, one
//!   vectored write per frame, and a per-connection [`frame::FrameReader`]
//!   that polls a socket with reads into a small read-ahead for a bounded
//!   time before it parks: a small frame, prefix and payload, arrives in
//!   one read, and a long one is read into memory that is never zeroed;
//! - [`wire`] / [`message`] — a hand-rolled binary codec over
//!   [`wire::Frame`] (write) and [`wire::SharedBytes`] (read): a tensor
//!   payload is spliced into the frame it is written from by handle and
//!   decoded as a range of the receive buffer, never copied either way,
//!   and a `SharedBytes` can be lent by any owner of bytes, so a tensor is
//!   spliced from its own storage (`genie_tensor::LeBytes`);
//!   every length or count a peer sends is checked against the bytes that
//!   are left, in one function, before anything is allocated for it;
//!   graphs travel as the SRG's portable JSON;
//! - [`client`] / [`server`] — blocking RPC with correlation ids, per-
//!   connection handler state, traffic counters (the paper's "network
//!   volume via RPC counters"), and graceful shutdown;
//! - [`retry`] / [`chaos`] — the robustness layer: per-call deadlines
//!   ([`TransportError::Timeout`] instead of hangs), process-global
//!   idempotent request ids deduplicated server-side, capped exponential
//!   backoff with deterministic jitter ([`retry::RetryPolicy`]), and a
//!   seeded chaotic server ([`chaos::ChaosPolicy`]) that stalls or drops
//!   responses after the handler ran;
//! - [`buffer`] — the pinned-buffer pool realizing §3.4's *proactive*
//!   allocation: tensors born in registered memory ship with zero staging
//!   copies, and the pool's counters prove it.
//!
//! The transport knows nothing about graphs or scheduling: the remote
//! executor that interprets [`message::RequestBody::Execute`] lives in
//! `genie-backend`, plugged in through the [`server::Handler`] trait.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod chaos;
pub mod client;
pub mod error;
pub mod frame;
pub mod message;
pub mod retry;
pub mod server;
pub mod wire;

pub use buffer::{PinnedBuf, PinnedPool};
pub use chaos::{ChaosAction, ChaosPolicy};
pub use client::{next_request_id, Client, DEFAULT_DEADLINE};
pub use error::{Result, TransportError};
pub use message::{PayloadKind, Request, RequestBody, Response, ResponseBody, TensorPayload};
pub use retry::RetryPolicy;
pub use server::{Handler, Server};
