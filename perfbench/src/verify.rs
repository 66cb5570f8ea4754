//! The answer verifier. It runs outside every timed region and rejects
//! any answer that is not a correct schedule for its request:
//!
//! * the body parses as a `ScheduleResponse` of the current wire version,
//!   echoing the request's deadline and reporting model;
//! * `key` equals [`ScheduleRequest::key`];
//! * [`Schedule::validate`] passes: assignment length and range,
//!   topological order, deadline;
//! * σ recomputed by [`Schedule::battery_cost`] under the RV model the
//!   search used matches within [`SIGMA_RTOL`], and `model_cost`
//!   recomputed through [`ModelSpec::build`] matches within the same
//!   tolerance.
//!
//! Byte-identity of cache hits is checked by the callers, against the
//! first verified answer for the same key.

use batsched_battery::rv::RvModel;
use batsched_battery::BatteryModel;
use batsched_core::Schedule;
use batsched_service::{ModelSpec, ScheduleRequest, ScheduleResponse, WIRE_VERSION};
use batsched_taskgraph::{PointId, TaskGraph, TaskId};

/// Relative tolerance for recomputed charges.
pub const SIGMA_RTOL: f64 = 1e-9;

/// The charge floor of a request: Σ over tasks of the smallest
/// current × duration among its design points. No schedule can draw
/// less charge, so `σ / floor` measures answer quality on a scale that
/// does not depend on the instance's size (lower is better).
pub fn charge_floor(g: &TaskGraph) -> f64 {
    g.task_ids()
        .map(|t| {
            g.task(t)
                .points
                .iter()
                .map(|p| p.charge().value())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= SIGMA_RTOL * want.abs().max(f64::MIN_POSITIVE)
}

/// Checks one answer body against its request. On success returns the
/// answer's `σ / charge_floor`.
///
/// # Errors
///
/// A one-line reason naming the first check that failed.
pub fn verify(req: &ScheduleRequest, body: &[u8]) -> Result<f64, String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_string())?;
    let resp: ScheduleResponse =
        serde_json::from_str(text).map_err(|e| format!("answer does not parse: {e}"))?;
    if resp.v != WIRE_VERSION {
        return Err(format!("wire version {} in the answer", resp.v));
    }
    let key = req.key();
    if resp.key != key {
        return Err(format!("key {} does not match request key {key}", resp.key));
    }
    if resp.deadline.to_bits() != req.deadline.to_bits() {
        return Err(format!(
            "deadline {} does not echo the request's {}",
            resp.deadline, req.deadline
        ));
    }
    let spec = req.model.clone().unwrap_or_else(ModelSpec::default_rv);
    if resp.model != spec.name() {
        return Err(format!(
            "model {} does not match the request's {}",
            resp.model,
            spec.name()
        ));
    }
    let g = &req.graph;
    let schedule = Schedule::new(
        resp.order.iter().map(|&t| TaskId(t)).collect(),
        resp.assignment.iter().map(|&p| PointId(p)).collect(),
    );
    schedule
        .validate(g, Some(batsched_battery::Minutes::new(req.deadline)))
        .map_err(|e| format!("invalid schedule: {e}"))?;
    let (beta, terms) = spec.search_params();
    let rv = RvModel::new(beta, terms).map_err(|e| format!("rv model: {e}"))?;
    let sigma = schedule.battery_cost(g, &rv).value();
    if !close(resp.sigma, sigma) {
        return Err(format!(
            "sigma {} differs from the recomputed {sigma}",
            resp.sigma
        ));
    }
    let model = spec.build().map_err(|e| format!("model: {e}"))?;
    let profile = schedule.to_profile(g);
    let model_cost = model.apparent_charge(&profile, profile.end()).value();
    if !close(resp.model_cost, model_cost) {
        return Err(format!(
            "model_cost {} differs from the recomputed {model_cost}",
            resp.model_cost
        ));
    }
    Ok(resp.sigma / charge_floor(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use batsched_core::SolverWorkspace;
    use batsched_taskgraph::paper::g3;

    fn answer(req: &ScheduleRequest) -> ScheduleResponse {
        batsched_service::solve(req, &mut SolverWorkspace::new()).expect("G3 at 150 solves")
    }

    fn body(resp: &ScheduleResponse) -> Vec<u8> {
        serde_json::to_string(resp).unwrap().into_bytes()
    }

    fn request() -> ScheduleRequest {
        ScheduleRequest::new(g3(), 150.0)
    }

    #[test]
    fn accepts_a_true_answer_and_reports_its_quality() {
        let req = request();
        let q = verify(&req, &body(&answer(&req))).unwrap();
        assert!(q >= 1.0, "σ cannot undercut the charge floor: {q}");
    }

    #[test]
    fn rejects_a_swapped_order() {
        let req = request();
        let mut resp = answer(&req);
        let last = resp.order.len() - 1;
        resp.order.swap(0, last); // the sink now runs first
        let err = verify(&req, &body(&resp)).unwrap_err();
        assert!(err.contains("topological"), "{err}");
    }

    #[test]
    fn rejects_a_broken_deadline() {
        let req = request();
        let mut resp = answer(&req);
        // Every task on its slowest design point overruns 150 min.
        let slowest = req.graph.point_count() - 1;
        resp.assignment.iter_mut().for_each(|p| *p = slowest);
        let err = verify(&req, &body(&resp)).unwrap_err();
        assert!(err.contains("after deadline"), "{err}");
    }

    #[test]
    fn rejects_sigma_off_by_one_in_a_million() {
        let req = request();
        let mut resp = answer(&req);
        resp.sigma *= 1.0 + 1e-6;
        let err = verify(&req, &body(&resp)).unwrap_err();
        assert!(err.contains("sigma"), "{err}");
    }

    #[test]
    fn rejects_model_cost_wrong_key_and_garbage() {
        let req = request();
        let good = answer(&req);
        let mut resp = good.clone();
        resp.model_cost *= 1.0 + 1e-6;
        assert!(verify(&req, &body(&resp))
            .unwrap_err()
            .contains("model_cost"));
        let mut resp = good.clone();
        resp.key = "0000000000000000".into();
        assert!(verify(&req, &body(&resp)).unwrap_err().contains("key"));
        assert!(verify(&req, b"{\"v\":1,\"error\":\"internal\"}").is_err());
        assert!(verify(&req, b"\xff").is_err());
    }

    #[test]
    fn charge_floor_is_the_sum_of_cheapest_points() {
        let g = g3();
        let floor = charge_floor(&g);
        let fastest: f64 = g
            .task_ids()
            .map(|t| g.point(t, PointId(0)).charge().value())
            .sum();
        assert!(floor > 0.0 && floor <= fastest);
    }
}
