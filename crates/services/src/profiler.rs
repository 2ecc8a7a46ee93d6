//! Sampling profiler — the paper's *service registration* (§5).
//!
//! "The registration includes several features about each service, such
//! as its signature and its patterns, and gives estimates (by sampling)
//! of its erspi, average response time, and chunk values." Profiling a
//! service produces the rows of Table 1, and `install` writes the
//! estimates back into the schema for the optimizer to use.

use crate::service::Service;
use mdq_model::schema::{Chunking, Schema, ServiceId, ServiceKind};
use mdq_model::value::Value;

/// Measured profile of one service, matching the columns of Table 1.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileReport {
    /// Service name.
    pub name: String,
    /// Exact or search (taken from the signature — ranking is declared,
    /// not measurable from samples).
    pub kind: ServiceKind,
    /// Observed page size, for chunked services.
    pub chunk_size: Option<u32>,
    /// Average tuples per (complete) invocation — the erspi ξ. Reported
    /// as `None` for chunked services, matching Table 1's "-" entries
    /// (their size per call is `cs · F`, not an intrinsic constant).
    pub avg_response_size: Option<f64>,
    /// Average response time per request, seconds (faulted attempts
    /// contribute the simulated seconds they consumed).
    pub avg_response_time: f64,
    /// Observed failure rate: faulted sample invocations over all
    /// sample invocations (errors, timeouts, throttling alike).
    pub failure_rate: f64,
    /// Number of sample invocations issued.
    pub samples: usize,
}

/// Profiles `service` by issuing one invocation per sample input (for
/// chunked services, only the first page — the per-fetch behaviour is
/// what the cost model consumes).
///
/// Sampling goes through the fallible
/// [`try_fetch`](Service::try_fetch) path, so a degraded provider's
/// error/timeout/throttle behaviour is *observed*: faulted samples
/// count into [`ProfileReport::failure_rate`] (and contribute the
/// simulated seconds they consumed to the average response time), the
/// same way the paper's registration samples live services as they
/// actually behave.
///
/// `signature_kind`/`chunking` come from the declared signature;
/// `sample_inputs` is a set of representative input bindings for
/// `pattern` (the paper derives them "from several test queries").
pub fn profile_service(
    service: &dyn Service,
    pattern: usize,
    kind: ServiceKind,
    chunking: Chunking,
    sample_inputs: &[Vec<Value>],
) -> ProfileReport {
    let mut total_tuples = 0usize;
    let mut total_latency = 0.0f64;
    let mut failures = 0usize;
    let mut observed_chunk: Option<u32> = chunking.chunk_size();
    for inputs in sample_inputs {
        match service.try_fetch(pattern, inputs, 0) {
            Ok(r) => {
                total_tuples += r.tuples.len();
                total_latency += r.latency;
                if chunking.is_chunked() && r.has_more {
                    observed_chunk = Some(r.tuples.len() as u32);
                }
            }
            Err(fault) => {
                failures += 1;
                total_latency += fault.latency();
            }
        }
    }
    let n = sample_inputs.len().max(1);
    ProfileReport {
        name: service.name().to_string(),
        kind,
        chunk_size: if chunking.is_chunked() {
            observed_chunk
        } else {
            None
        },
        avg_response_size: if chunking.is_chunked() {
            None
        } else {
            Some(total_tuples as f64 / n as f64)
        },
        avg_response_time: total_latency / n as f64,
        failure_rate: failures as f64 / n as f64,
        samples: n,
    }
}

/// Writes a measured profile back into the schema signature (the
/// periodic re-estimation of §5). Response size updates erspi only for
/// bulk services.
pub fn install(schema: &mut Schema, id: ServiceId, report: &ProfileReport) {
    let sig = schema.service_mut(id);
    sig.profile.response_time = report.avg_response_time;
    sig.profile.failure_rate = report.failure_rate.clamp(0.0, 0.95);
    if let Some(size) = report.avg_response_size {
        sig.profile.erspi = size;
    }
    if let (Chunking::Chunked { chunk_size }, Some(observed)) =
        (&mut sig.chunking, report.chunk_size)
    {
        *chunk_size = observed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::travel::{travel_world, CONF_TUPLES};

    #[test]
    fn profiles_recover_table1() {
        let w = travel_world(1);
        // conf by topic: one sample ('DB') — 71 tuples, 1.2 s
        let conf = w.registry.get(w.ids.conf).expect("conf");
        let report = profile_service(
            conf.as_ref(),
            0,
            ServiceKind::Exact,
            Chunking::Bulk,
            &[vec![Value::str("DB")]],
        );
        assert_eq!(report.avg_response_size, Some(CONF_TUPLES as f64));
        assert!((report.avg_response_time - 1.2).abs() < 1e-9);
        assert_eq!(report.chunk_size, None);

        // hotel by (city, category, dates): chunked, 4.9 s, chunk 5
        let hotel = w.registry.get(w.ids.hotel).expect("hotel");
        let conf_rows = conf.fetch(0, &[Value::str("DB")], 0).tuples;
        let samples: Vec<Vec<Value>> = conf_rows
            .iter()
            .take(10)
            .map(|t| {
                vec![
                    t.get(4).clone(),
                    Value::str("luxury"),
                    t.get(2).clone(),
                    t.get(3).clone(),
                ]
            })
            .collect();
        let report = profile_service(
            hotel.as_ref(),
            0,
            ServiceKind::Search,
            Chunking::Chunked { chunk_size: 5 },
            &samples,
        );
        assert_eq!(report.chunk_size, Some(5));
        assert_eq!(report.avg_response_size, None, "Table 1 shows '-'");
        assert!((report.avg_response_time - 4.9).abs() < 1e-9);
    }

    #[test]
    fn profiler_learns_failure_rates() {
        use crate::fault::{FaultPlan, FaultProfile, PlannedFault};
        let mut w = travel_world(1);
        let conf = w.registry.get(w.ids.conf).expect("conf").clone();
        // the 'DB' sample always times out, the 'AI' sample is healthy
        let flaky = FaultProfile::scripted(
            conf,
            FaultPlan::new().fail_inputs(vec![Value::str("DB")], u32::MAX, PlannedFault::Timeout),
        );
        let report = profile_service(
            &flaky,
            0,
            ServiceKind::Exact,
            Chunking::Bulk,
            &[vec![Value::str("DB")], vec![Value::str("AI")]],
        );
        assert!((report.failure_rate - 0.5).abs() < 1e-12, "{report:?}");
        install(&mut w.schema, w.ids.conf, &report);
        let profile = &w.schema.service(w.ids.conf).profile;
        assert!((profile.failure_rate - 0.5).abs() < 1e-12);
        assert!(
            profile.effective_response_time() > profile.response_time,
            "flakiness penalizes the effective τ"
        );
    }

    #[test]
    fn install_updates_schema() {
        let mut w = travel_world(1);
        let conf = w.registry.get(w.ids.conf).expect("conf").clone();
        let report = profile_service(
            conf.as_ref(),
            0,
            ServiceKind::Exact,
            Chunking::Bulk,
            &[vec![Value::str("DB")], vec![Value::str("AI")]],
        );
        install(&mut w.schema, w.ids.conf, &report);
        let sig = w.schema.service(w.ids.conf);
        // (71 + 8) / 2 = 39.5 over the two topics
        assert!((sig.profile.erspi - 39.5).abs() < 1e-9);
        assert!((sig.profile.response_time - 1.2).abs() < 1e-9);
    }
}
