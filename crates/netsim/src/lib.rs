//! # webdep-netsim
//!
//! A simulated internet fabric for the `webdep` measurement pipeline.
//!
//! The paper's measurements (ZDNS resolution, ZGrab2 TLS scans) run against
//! the real internet; this crate provides the stand-in: an in-process
//! datagram network with IPv4 addressing, unicast and anycast delivery,
//! a continent-pair latency model, and optional packet loss. Servers bind
//! [`Endpoint`]s and serve from threads; clients send datagrams and wait
//! with timeouts, exactly as a UDP scanner would.
//!
//! Design goals follow the session guides: event-driven and synchronous
//! (no async runtime — each server is a plain thread draining a channel),
//! simple and robust over clever.
//!
//! ```
//! use webdep_netsim::{Network, Region};
//! use bytes::Bytes;
//! use std::time::Duration;
//!
//! let net = Network::new(Default::default());
//! let server = net.bind("10.0.0.1".parse().unwrap(), 53, Region::EUROPE).unwrap();
//! let client = net.bind("10.9.9.9".parse().unwrap(), 4000, Region::ASIA).unwrap();
//!
//! client.send(server.addr(), Bytes::from_static(b"ping")).unwrap();
//! let dgram = server.recv_timeout(Duration::from_secs(1)).unwrap();
//! assert_eq!(&dgram.payload[..], b"ping");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod error;
pub mod fault;
pub mod latency;
pub mod network;
pub mod packet;
pub mod shared;

pub use addr::{Prefix, SockAddr};
pub use error::NetError;
pub use fault::{FaultKind, FaultPlan, FaultedReply};
pub use latency::LatencyModel;
pub use network::{Endpoint, NetConfig, NetStats, Network, Region, ResponderFn};
pub use packet::Datagram;
pub use shared::ResponderSet;
