//! Tenant identity, weights, and budgets.
//!
//! A [`TenantId`] travels with every request. Tenants are cheap: an
//! unregistered id serves at the default weight with no quotas, so
//! single-tenant deployments never touch this module. Registering a
//! [`TenantConfig`] buys two things:
//!
//! - a **weight** for the weighted-fair admission queue
//!   ([`crate::FairGate`]) — a tenant with weight `w` receives `w`
//!   admission slots for every one a weight-1 tenant receives while both
//!   have backlog;
//! - **budgets**: cumulative quotas on plan-cache bytes charged for
//!   builds this tenant triggered and on evaluation milliseconds it
//!   consumed (measured by the same clock that feeds the latency
//!   histograms). Budgets are post-paid — work is debited after it
//!   runs, and a tenant whose cumulative charge has reached a quota is
//!   shed with [`EngineError::QuotaExceeded`] *before* its next request
//!   costs anything. [`TenantTable::reset_budgets`] opens a new billing
//!   window.

use std::collections::HashMap;
use std::time::Duration;

use mbt_check::sync::{Mutex, PoisonError};

use crate::error::EngineError;

/// A tenant's stable identity. `TenantId::DEFAULT` (id 0) is what
/// requests carry when the caller never sets one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant requests belong to unless one is set explicitly.
    pub const DEFAULT: TenantId = TenantId(0);
}

/// One tenant's service terms: fair-share weight plus optional budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Fair-share weight for the admission queue (clamped to ≥ 1).
    /// While two tenants both have backlog, their admission rates are
    /// proportional to their weights.
    pub weight: u32,
    /// Cumulative cap on plan-cache bytes charged to this tenant (each
    /// plan build the tenant triggers debits the plan's resident size).
    /// `None` is unlimited.
    pub plan_bytes_quota: Option<u64>,
    /// Cumulative cap on evaluation milliseconds charged to this tenant
    /// (each served request debits its post-admission wall time). `None`
    /// is unlimited.
    pub eval_ms_quota: Option<u64>,
}

impl Default for TenantConfig {
    fn default() -> TenantConfig {
        TenantConfig {
            weight: 1,
            plan_bytes_quota: None,
            eval_ms_quota: None,
        }
    }
}

impl TenantConfig {
    /// A quota-free config with the given fair-share weight.
    #[must_use]
    pub fn weighted(weight: u32) -> TenantConfig {
        TenantConfig {
            weight,
            ..TenantConfig::default()
        }
    }
}

/// One tenant's running account.
#[derive(Debug, Default)]
struct TenantState {
    config: TenantConfig,
    charged_plan_bytes: u64,
    charged_eval_ns: u64,
    requests: u64,
    admitted: u64,
    shed: u64,
}

/// One tenant's slice of an [`crate::EngineStats`] snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantBreakdown {
    /// The tenant id.
    pub tenant: u32,
    /// The tenant's fair-share weight.
    pub weight: u32,
    /// Requests this tenant submitted (admitted or shed).
    pub requests: u64,
    /// Requests admitted past the gate.
    pub admitted: u64,
    /// Requests shed for any reason (overload, deadline, quota).
    pub shed: u64,
    /// Plan-cache bytes charged against the tenant's budget.
    pub charged_plan_bytes: u64,
    /// Evaluation milliseconds charged against the tenant's budget.
    pub charged_eval_ms: f64,
    /// The plan-bytes quota, if one is configured.
    pub plan_bytes_quota: Option<u64>,
    /// The eval-milliseconds quota, if one is configured.
    pub eval_ms_quota: Option<u64>,
}

fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The engine's tenant registry and accounts, one mutex around both
/// (taken once per request, never per point — the same budget the
/// per-plan stats breakdown lives under).
#[derive(Debug, Default)]
pub(crate) struct TenantTable {
    tenants: Mutex<HashMap<TenantId, TenantState>>,
}

impl TenantTable {
    pub(crate) fn new() -> TenantTable {
        TenantTable::default()
    }

    fn lock(&self) -> mbt_check::sync::MutexGuard<'_, HashMap<TenantId, TenantState>> {
        self.tenants.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or replaces) `tenant`'s service terms. Weights are
    /// clamped to ≥ 1 — a zero weight would starve the tenant forever,
    /// which is what quotas are for. Charges survive re-registration.
    pub(crate) fn register(&self, tenant: TenantId, config: TenantConfig) {
        let mut map = self.lock();
        let entry = map.entry(tenant).or_default();
        entry.config = TenantConfig {
            weight: config.weight.max(1),
            ..config
        };
    }

    /// The tenant's fair-share weight (1 for unregistered tenants).
    pub(crate) fn weight(&self, tenant: TenantId) -> u32 {
        self.lock()
            .get(&tenant)
            .map_or(1, |s| s.config.weight.max(1))
    }

    /// Sheds the request if the tenant has exhausted a budget. Also
    /// counts the request (every submission lands in `requests`; callers
    /// follow up with [`TenantTable::note_admitted`] or
    /// [`TenantTable::note_shed`]).
    pub(crate) fn admit_request(&self, tenant: TenantId) -> Result<(), EngineError> {
        let mut map = self.lock();
        let state = map.entry(tenant).or_default();
        state.requests += 1;
        let over_bytes = state
            .config
            .plan_bytes_quota
            .is_some_and(|q| state.charged_plan_bytes >= q);
        if over_bytes {
            state.shed += 1;
            return Err(EngineError::QuotaExceeded {
                tenant,
                resource: "plan_bytes",
            });
        }
        let over_eval = state
            .config
            .eval_ms_quota
            .is_some_and(|q| state.charged_eval_ns / 1_000_000 >= q);
        if over_eval {
            state.shed += 1;
            return Err(EngineError::QuotaExceeded {
                tenant,
                resource: "eval_ms",
            });
        }
        Ok(())
    }

    pub(crate) fn note_admitted(&self, tenant: TenantId) {
        self.lock().entry(tenant).or_default().admitted += 1;
    }

    pub(crate) fn note_shed(&self, tenant: TenantId) {
        self.lock().entry(tenant).or_default().shed += 1;
    }

    /// Debits a plan build's resident bytes to the tenant that
    /// triggered it.
    pub(crate) fn charge_plan_bytes(&self, tenant: TenantId, bytes: usize) {
        self.lock().entry(tenant).or_default().charged_plan_bytes += bytes as u64;
    }

    /// Debits one served request's post-admission wall time.
    pub(crate) fn charge_eval(&self, tenant: TenantId, took: Duration) {
        self.lock().entry(tenant).or_default().charged_eval_ns += saturating_ns(took);
    }

    /// Zeroes `tenant`'s charges — the start of a new billing window.
    /// Returns whether the tenant had an account.
    pub(crate) fn reset_budgets(&self, tenant: TenantId) -> bool {
        let mut map = self.lock();
        match map.get_mut(&tenant) {
            Some(state) => {
                state.charged_plan_bytes = 0;
                state.charged_eval_ns = 0;
                true
            }
            None => false,
        }
    }

    /// Every tenant's account, sorted by id.
    pub(crate) fn breakdown(&self) -> Vec<TenantBreakdown> {
        let map = self.lock();
        let mut rows: Vec<TenantBreakdown> = map
            .iter()
            .map(|(id, s)| TenantBreakdown {
                tenant: id.0,
                weight: s.config.weight.max(1),
                requests: s.requests,
                admitted: s.admitted,
                shed: s.shed,
                charged_plan_bytes: s.charged_plan_bytes,
                charged_eval_ms: s.charged_eval_ns as f64 * 1e-6,
                plan_bytes_quota: s.config.plan_bytes_quota,
                eval_ms_quota: s.config.eval_ms_quota,
            })
            .collect();
        rows.sort_by_key(|r| r.tenant);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unregistered_tenant_has_default_terms() {
        let table = TenantTable::new();
        assert_eq!(table.weight(TenantId(7)), 1);
        assert!(table.admit_request(TenantId(7)).is_ok());
        let rows = table.breakdown();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tenant, 7);
        assert_eq!(rows[0].requests, 1);
        assert_eq!(rows[0].plan_bytes_quota, None);
    }

    #[test]
    fn weights_clamp_and_survive_lookup() {
        let table = TenantTable::new();
        table.register(TenantId(1), TenantConfig::weighted(8));
        table.register(TenantId(2), TenantConfig::weighted(0));
        assert_eq!(table.weight(TenantId(1)), 8);
        assert_eq!(table.weight(TenantId(2)), 1, "zero weight clamps to 1");
    }

    #[test]
    fn plan_bytes_quota_sheds_once_reached() {
        let table = TenantTable::new();
        let t = TenantId(3);
        table.register(
            t,
            TenantConfig {
                plan_bytes_quota: Some(1000),
                ..TenantConfig::default()
            },
        );
        assert!(table.admit_request(t).is_ok());
        table.charge_plan_bytes(t, 999);
        assert!(table.admit_request(t).is_ok(), "under budget still serves");
        table.charge_plan_bytes(t, 1);
        assert_eq!(
            table.admit_request(t).unwrap_err(),
            EngineError::QuotaExceeded {
                tenant: t,
                resource: "plan_bytes"
            }
        );
        // the shed was counted against the tenant
        assert_eq!(table.breakdown()[0].shed, 1);
        // a new billing window serves again
        assert!(table.reset_budgets(t));
        assert!(table.admit_request(t).is_ok());
        assert!(!table.reset_budgets(TenantId(99)));
    }

    #[test]
    fn eval_quota_counts_milliseconds() {
        let table = TenantTable::new();
        let t = TenantId(4);
        table.register(
            t,
            TenantConfig {
                eval_ms_quota: Some(10),
                ..TenantConfig::default()
            },
        );
        table.charge_eval(t, Duration::from_millis(9));
        assert!(table.admit_request(t).is_ok());
        table.charge_eval(t, Duration::from_millis(1));
        assert_eq!(
            table.admit_request(t).unwrap_err(),
            EngineError::QuotaExceeded {
                tenant: t,
                resource: "eval_ms"
            }
        );
        let row = table.breakdown()[0];
        assert!((row.charged_eval_ms - 10.0).abs() < 1e-9);
        assert_eq!(row.eval_ms_quota, Some(10));
    }

    #[test]
    fn charges_survive_reregistration() {
        let table = TenantTable::new();
        let t = TenantId(5);
        table.charge_plan_bytes(t, 512);
        table.register(t, TenantConfig::weighted(3));
        let row = table.breakdown()[0];
        assert_eq!(row.charged_plan_bytes, 512);
        assert_eq!(row.weight, 3);
    }
}
