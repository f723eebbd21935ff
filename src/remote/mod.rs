//! Exploration-as-a-service: share one warm artifact store across
//! machines and processes.
//!
//! The [`store`](crate::store) module made stage artifacts outlive a
//! process; this module makes them outlive a *machine boundary*. A
//! `serve` daemon (see [`serve`]) keeps one [`Explorer`](crate::Explorer)
//! session resident — its disk store — and answers artifact operations
//! over a versioned binary protocol ([`proto`]); clients plug a
//! [`RemoteTier`] above their disk store (or run storeless against the
//! server alone) via
//! [`Explorer::with_remote`](crate::Explorer::with_remote).
//!
//! The design inherits the cache's core contract: *the remote tier can
//! degrade, never break*. Every failure — server absent, killed
//! mid-request, corrupt frame, protocol version skew, timeout — maps
//! to a counted miss, so the next tier or the computation serves the
//! request. A [`RetryPolicy`] bounds every socket operation, and an
//! unhealthy server is skipped entirely (one probe per interval) so a
//! dead daemon costs one timeout per second, not one per request.
//!
//! Module layout:
//!
//! - [`proto`] — the frame format and message bodies;
//! - [`transport`] — [`Endpoint`] addressing (TCP and Unix sockets)
//!   and the [`Conn`]/[`Listener`] abstractions;
//! - [`client`] — [`RemoteTier`], the
//!   [`ArtifactTier`](crate::tier::ArtifactTier) speaking the protocol;
//! - [`server`] — the [`serve`] daemon and its [`ServerHandle`].
//!
//! See `docs/serve.md` for the wire specification, the compatibility
//! policy and the operational topology.

pub mod client;
pub mod proto;
pub mod server;
pub mod transport;

pub use client::{RemoteTier, RemoteTotals, RetryPolicy};
pub use proto::{Request, Response, ServeStats, ServerInfo, PROTO_VERSION};
pub use server::{serve, ServeOptions, ServerHandle};
pub use transport::{Conn, Endpoint, Listener};
