//! Tenant identity and isolation policy for the serving edge.
//!
//! Every submission runs *as* a tenant: the scheduler round-robins
//! across tenant queues (one flooding client cannot starve another),
//! the shared gateway state charges forwarded calls to the tenant's
//! cumulative budget cell, and the sub-result store bounds how many
//! materialized prefixes a tenant may hold. In-process callers that
//! never mention tenants run as [`DEFAULT_TENANT`] with an unlimited
//! policy — the pre-tenancy behavior, unchanged.

use mdq_exec::gateway::TenantId;
use mdq_exec::store::recover;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The tenant a bare [`QueryServer::submit`] runs as (always
/// registered, unlimited policy).
///
/// [`QueryServer::submit`]: crate::server::QueryServer::submit
pub const DEFAULT_TENANT: TenantId = 0;

/// Isolation policy of one tenant. The default is unlimited everywhere
/// — policies only ever *restrict*.
#[derive(Clone, Copy, Debug, Default)]
pub struct TenantPolicy {
    /// Cumulative forwarded-call budget across every query the tenant
    /// ever runs (`None` = unlimited). Exhaustion fails the tenant's
    /// queries with a tenant-budget error; other tenants are
    /// unaffected.
    pub call_budget: Option<u64>,
    /// Per-query forwarded-call budget override (`None` = inherit the
    /// server's [`RuntimeConfig::call_budget`]).
    ///
    /// [`RuntimeConfig::call_budget`]: crate::server::RuntimeConfig::call_budget
    pub per_query_call_budget: Option<u64>,
    /// Max submissions the tenant may have queued at once (`0` =
    /// unlimited). The scheduler sheds past this bound even while the
    /// global queue has room — one tenant cannot occupy the whole
    /// admission queue.
    pub max_queued: usize,
    /// Max materialized sub-result prefixes the tenant may hold in the
    /// shared store (`None` = unlimited, `Some(0)` = never publishes).
    pub sub_result_quota: Option<u64>,
    /// Max live standing-query subscriptions the tenant may hold
    /// (`None` = inherit the server-wide
    /// [`RuntimeConfig::max_subscriptions`], `Some(0)` = the tenant
    /// may not subscribe at all). Each subscription pins pages and
    /// joins every refresh pass, so an uncapped tenant could grow the
    /// server's maintenance work without bound.
    ///
    /// [`RuntimeConfig::max_subscriptions`]: crate::server::RuntimeConfig::max_subscriptions
    pub max_subscriptions: Option<usize>,
    /// Operator tenants may trigger refresh passes over the wire and
    /// manage (poll, inspect, deregister) any tenant's subscriptions.
    /// `false` by default — and note this is the one policy field that
    /// *grants* rather than restricts, so first-registration-wins
    /// matters doubly: a reconnecting client cannot promote itself.
    pub operator: bool,
}

/// One registered tenant: identity plus live serving counters.
pub(crate) struct TenantInfo {
    pub(crate) name: String,
    pub(crate) policy: TenantPolicy,
    /// Submissions accepted into the queue.
    pub(crate) submitted: AtomicU64,
    /// Queries that completed with an answer stream.
    pub(crate) completed: AtomicU64,
    /// Queries that failed after admission.
    pub(crate) failed: AtomicU64,
    /// Submissions refused at the front door (queue bounds or budget).
    pub(crate) shed: AtomicU64,
}

impl TenantInfo {
    fn new(name: &str, policy: TenantPolicy) -> Self {
        TenantInfo {
            name: name.to_string(),
            policy,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }
}

/// The server's tenant table: ids are dense indices, handed out at
/// registration and stable for the server's lifetime.
pub(crate) struct TenantRegistry {
    tenants: Mutex<Vec<Arc<TenantInfo>>>,
}

impl TenantRegistry {
    /// Builds a registry with [`DEFAULT_TENANT`] pre-registered under
    /// an unlimited policy.
    pub(crate) fn new() -> Self {
        TenantRegistry {
            tenants: Mutex::new(vec![Arc::new(TenantInfo::new(
                "default",
                TenantPolicy::default(),
            ))]),
        }
    }

    /// Registers `name`, returning its id — or the existing id if the
    /// name is already registered (the policy is NOT replaced: first
    /// registration wins, so a reconnecting client cannot relax its own
    /// limits).
    pub(crate) fn register(&self, name: &str, policy: TenantPolicy) -> TenantId {
        let mut tenants = recover(self.tenants.lock());
        if let Some(id) = tenants.iter().position(|t| t.name == name) {
            return id as TenantId;
        }
        tenants.push(Arc::new(TenantInfo::new(name, policy)));
        (tenants.len() - 1) as TenantId
    }

    /// The tenant registered under `id`, if any.
    pub(crate) fn get(&self, id: TenantId) -> Option<Arc<TenantInfo>> {
        recover(self.tenants.lock()).get(id as usize).cloned()
    }

    /// The id registered under `name`, if any.
    pub(crate) fn lookup(&self, name: &str) -> Option<TenantId> {
        recover(self.tenants.lock())
            .iter()
            .position(|t| t.name == name)
            .map(|i| i as TenantId)
    }

    /// Every registered tenant, in id order.
    pub(crate) fn all(&self) -> Vec<Arc<TenantInfo>> {
        recover(self.tenants.lock()).clone()
    }
}

/// Point-in-time serving counters of one tenant, reported in
/// [`MetricsSnapshot::tenants`].
///
/// [`MetricsSnapshot::tenants`]: crate::metrics::MetricsSnapshot::tenants
#[derive(Clone, Debug)]
pub struct TenantSnapshot {
    /// The tenant's id.
    pub id: TenantId,
    /// The tenant's registered name.
    pub name: String,
    /// Submissions accepted into the queue.
    pub submitted: u64,
    /// Queries that completed with an answer stream.
    pub completed: u64,
    /// Queries that failed after admission.
    pub failed: u64,
    /// Submissions refused at the front door (queue bounds or
    /// exhausted budget).
    pub shed: u64,
    /// Forwarded service calls charged to the tenant by the shared
    /// gateway state — reconciles with the gateway's budget cell
    /// exactly.
    pub forwarded_calls: u64,
    /// The cumulative call budget, if bounded.
    pub call_budget: Option<u64>,
}

impl TenantInfo {
    /// Samples the live counters into a snapshot; `forwarded_calls`
    /// comes from the gateway's budget cell, not from here.
    pub(crate) fn snapshot(&self, id: TenantId, forwarded_calls: u64) -> TenantSnapshot {
        TenantSnapshot {
            id,
            name: self.name.clone(),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            forwarded_calls,
            call_budget: self.policy.call_budget,
        }
    }
}
