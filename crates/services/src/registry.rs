//! The service registry: binds schema signatures to runtime services.
//!
//! §5 assumes an execution environment with *service registration*: the
//! optimizer knows each service's signature, patterns and statistics; the
//! engine knows how to actually call it. The registry is that binding,
//! plus the per-service call counters used by the experiments.

use crate::service::{CallCounter, Counted, Service};
use mdq_model::schema::ServiceId;
use std::collections::HashMap;
use std::sync::Arc;

/// Runtime bindings from [`ServiceId`]s to callable services.
#[derive(Default)]
pub struct ServiceRegistry {
    services: HashMap<ServiceId, Arc<dyn Service>>,
    counters: HashMap<ServiceId, Arc<CallCounter>>,
}

impl ServiceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ServiceRegistry::default()
    }

    /// Registers a service for `id`, wrapping it with a call counter.
    pub fn register<S: Service + 'static>(&mut self, id: ServiceId, service: S) {
        let (counted, counter) = Counted::new(service);
        self.services.insert(id, Arc::new(counted));
        self.counters.insert(id, counter);
    }

    /// The runtime service for `id`.
    pub fn get(&self, id: ServiceId) -> Option<&Arc<dyn Service>> {
        self.services.get(&id)
    }

    /// The call counter for `id`.
    pub fn counter(&self, id: ServiceId) -> Option<&Arc<CallCounter>> {
        self.counters.get(&id)
    }

    /// Registered service ids.
    pub fn ids(&self) -> impl Iterator<Item = ServiceId> + '_ {
        self.services.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{LatencyModel, ServiceResponse};
    use mdq_model::value::{Tuple, Value};

    struct Echo;
    impl Service for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn fetch(&self, _pattern: usize, inputs: &[Value], _page: u32) -> ServiceResponse {
            let _ = LatencyModel::fixed(1.0);
            ServiceResponse {
                tuples: vec![Tuple::new(inputs.to_vec())],
                has_more: false,
                latency: 0.5,
            }
        }
    }

    #[test]
    fn register_fetch_count() {
        let mut reg = ServiceRegistry::new();
        let id = ServiceId(0);
        reg.register(id, Echo);
        let svc = reg.get(id).expect("registered").clone();
        let r = svc.fetch(0, &[Value::Int(7)], 0);
        assert_eq!(r.tuples.len(), 1);
        let c = reg.counter(id).expect("counter");
        assert_eq!(c.calls(), 1);
        assert!((c.total_latency() - 0.5).abs() < 1e-9);
        assert!(reg.get(ServiceId(99)).is_none());
        assert_eq!(reg.ids().count(), 1);
    }
}
