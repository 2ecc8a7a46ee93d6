//! # mdq-services — the simulated deep-web service substrate
//!
//! The paper's experiments (§6) wrap live 2008 web sites into services
//! executed on a local test server. This crate is the from-scratch
//! substitute: deterministic in-memory sources with the same observable
//! behaviour (ranked tuples, chunked paging, access-pattern indexes,
//! provider-side latency quirks), plus the *service registration*
//! machinery of §5 (runtime registry, call accounting, sampling
//! profiler).
//!
//! * [`service`] — the [`Service`](service::Service) trait, call
//!   counters, latency models and [`ServiceFault`](service::ServiceFault);
//! * [`fault`] — deterministic fault injection:
//!   [`FaultProfile`](fault::FaultProfile) wrappers with seeded or
//!   scripted error/timeout/rate-limit/latency-spike schedules;
//! * [`synthetic`] — ranked in-memory sources;
//! * [`refresh`] — the substrate of standing queries: epoch clocks, the
//!   TTL policy, invocation keys, and deterministic epoch-drifting
//!   source wrappers;
//! * [`registry`] — schema-id → runtime-service bindings;
//! * [`profiler`] — sampling estimation of erspi / τ / chunk size
//!   (regenerates Table 1);
//! * [`domains`] — ready-made worlds: the calibrated
//!   [`travel`](domains::travel) running example, plus
//!   [`protein`](domains::protein), [`bibliography`](domains::bibliography)
//!   and [`news`](domains::news).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod domains;
pub mod fault;
pub mod profiler;
pub mod refresh;
pub mod registry;
pub mod service;
pub mod synthetic;

/// Recovers the guard of a poisoned lock — a copy of
/// `mdq_exec::store::recover`, the engine's one poison policy, kept here
/// because this crate sits below `mdq-exec` and cannot depend on it. No
/// write under this crate's locks can panic half done, so the state a
/// panicking holder leaves is whole, and propagating the poison would
/// only make every later fetch panic too.
pub(crate) fn recover<T>(result: std::sync::LockResult<T>) -> T {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Convenient glob-import surface: `use mdq_services::prelude::*;`.
pub mod prelude {
    pub use crate::domains::travel::{travel_world, TravelIds, TravelWorld};
    pub use crate::domains::World;
    pub use crate::fault::{FaultConfig, FaultPlan, FaultProfile, PlannedFault};
    pub use crate::profiler::{install, profile_service, ProfileReport};
    pub use crate::refresh::{
        refreshing_registry, Epoch, EpochClock, InvocationKey, RefreshConfig, RefreshPolicy,
        RefreshingSource,
    };
    pub use crate::registry::ServiceRegistry;
    pub use crate::service::{
        CallCounter, Counted, LatencyModel, Service, ServiceFault, ServiceResponse,
    };
    pub use crate::synthetic::SyntheticSource;
}
