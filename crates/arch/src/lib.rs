//! Architectural synthesis with distributed channel storage.
//!
//! This crate implements Section 3.2 of the paper. Starting from a schedule
//! (operations bound to devices with start/end times), it
//!
//! 1. extracts every **transportation task** between devices, splitting long
//!    waits into *store → cache-in-channel → fetch* triples
//!    ([`transport`]),
//! 2. places the devices on a square **connection grid**
//!    ([`ConnectionGrid`], [`placement`]),
//! 3. routes every transportation path over grid edges connected by
//!    switches, with **time multiplexing**: paths whose time windows overlap
//!    may not share an edge or an intersection node, and a channel segment
//!    caching a fluid sample is blocked for its entire storage interval
//!    (its two end nodes stay usable, as in the paper) ([`routing`]),
//! 4. keeps only the edges actually used, yielding the planar
//!    [`ConnectionGraph`] and its valve count ([`synthesis`]),
//! 5. and provides the **dedicated storage unit** baseline against which the
//!    paper compares (valve cost of a multiplexer-addressed cell bank and its
//!    port-bandwidth limit) ([`dedicated`]).
//!
//! # Scaling to 10k-op assays
//!
//! Place & route runs on indexed data structures so the 1k/10k-operation
//! transport-task streams produced by the list scheduler are absorbed
//! without quadratic hot paths:
//!
//! * every grid edge and node owns a sorted, coalesced **reservation
//!   calendar** ([`ReservationCalendar`]) with `O(log n)` occupancy queries
//!   and a [`first_free`](ReservationCalendar::first_free) primitive that
//!   hands the router feasible windows directly,
//! * store tasks pick their cache segment through a per-device-pair
//!   **segment index** (distance-sorted, lazily priced) instead of scanning
//!   every grid edge,
//! * placement refinement prices annealing moves by **delta cost** from the
//!   traffic-matrix rows of the touched devices,
//! * [`Router::route`] is an explicit staged pipeline — window selection →
//!   path search → commit — whose per-stage effort ([`RouterStats`]) is
//!   surfaced through [`SynthesisStats`] and the synthesis report, and
//! * the connection grid is sized from the schedule's **peak concurrent
//!   storage**, so scale assays get a grid with enough channel segments to
//!   cache their samples up front.
//!
//! # Example
//!
//! ```
//! use biochip_assay::library;
//! use biochip_schedule::{ListScheduler, ScheduleProblem, Scheduler};
//! use biochip_arch::{ArchitectureSynthesizer, SynthesisOptions};
//!
//! let problem = ScheduleProblem::new(library::pcr()).with_mixers(2);
//! let schedule = ListScheduler::default().schedule(&problem)?;
//! let synthesizer = ArchitectureSynthesizer::new(SynthesisOptions::default());
//! let architecture = synthesizer.synthesize(&problem, &schedule)?;
//! assert!(architecture.used_edge_count() > 0);
//! assert!(architecture.verify().is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod connection_graph;
mod dedicated;
mod error;
mod grid;
mod oracle;
mod parallel;
mod placement;
mod reservation;
mod route_plan;
mod routing;
mod segment_index;
mod synthesis;
mod transport;

pub use connection_graph::{Architecture, ConnectionGraph, RoutedTransport};
pub use dedicated::{dedicated_storage_valves, DedicatedStorageUnit};
pub use error::ArchError;
pub use grid::{ConnectionGrid, GridCoord, GridEdgeId, NodeId};
pub use oracle::{OracleCache, RoutingOracle};
pub use parallel::Parallelism;
pub use placement::{place_devices, Placement, PlacementOptions};
pub use reservation::{Interval, ReservationCalendar, ReservationTable};
pub use route_plan::validate_route_plan;
pub use routing::{RoutedPath, Router, RouterStats, RoutingOptions};
pub use synthesis::{
    ArchitectureSynthesizer, SynthesisOptions, SynthesisStats, WarmReuse, WarmStart,
};
pub use transport::{extract_transport_tasks, TransportKind, TransportTask};

/// Re-exported scheduling types used in this crate's public API.
pub use biochip_schedule::{DeviceId, Schedule, ScheduleProblem};
