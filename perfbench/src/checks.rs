//! Output checks: artifact byte identity, row invariants, and planner
//! responses against answers the generator recomputes itself.

use eft_vqa::hamiltonians::{heisenberg_1d, ising_1d};
use eft_vqa::relative_improvement;
use eftq_pauli::PauliSum;
use eftq_sweep::jsonl::parse_row;
use eftq_sweep::Row;

/// Number of lines of `actual` that differ from `expected`, counting
/// missing and extra lines; 0 means byte-identical text.
pub fn mismatched_lines(actual: &str, expected: &str) -> usize {
    if actual == expected {
        return 0;
    }
    let a: Vec<&str> = actual.split('\n').collect();
    let e: Vec<&str> = expected.split('\n').collect();
    let differing = a.iter().zip(&e).filter(|(x, y)| x != y).count();
    // Bytes differ somewhere even when every line pair matches (e.g. a
    // trailing newline): never report identity for unequal text.
    (differing + a.len().abs_diff(e.len())).max(1)
}

/// The Hamiltonian a figure row was computed for.
pub fn model_hamiltonian(model: &str, n: usize, j: f64) -> PauliSum {
    match model {
        "Ising" => ising_1d(n, j),
        "Heisenberg" => heisenberg_1d(n, j),
        other => panic!("unknown model '{other}'"),
    }
}

fn spectral_bound(h: &PauliSum) -> f64 {
    h.terms().iter().map(|t| t.coefficient.abs()).sum()
}

fn finite(row: &Row, keys: &[&str]) -> Option<Vec<f64>> {
    keys.iter()
        .map(|k| row.get_num(k).filter(|v| v.is_finite()))
        .collect()
}

/// Invariants of a fig12 row: finite energies inside the Hamiltonian's
/// spectral bound and γ recomputed from them exactly.
pub fn fig12_row_ok(line: &str) -> bool {
    let Ok(row) = parse_row(line) else {
        return false;
    };
    let (Some(model), Some(n)) = (row.get_str("model"), row.get_int("qubits")) else {
        return false;
    };
    let Some(v) = finite(&row, &["j", "e0", "e_pqec", "e_nisq", "gamma"]) else {
        return false;
    };
    let (j, e0, ep, en, gamma) = (v[0], v[1], v[2], v[3], v[4]);
    let bound = spectral_bound(&model_hamiltonian(model, n as usize, j));
    row.label() == "fig12"
        && [e0, ep, en].iter().all(|e| e.abs() <= bound + 1e-9)
        && gamma == relative_improvement(e0, ep, en)
}

/// Invariants of a fig13 row: the variational principle (no noisy
/// energy below the exact ground energy), the label, and γ recomputed.
pub fn fig13_row_ok(line: &str, qubits: usize) -> bool {
    let Ok(row) = parse_row(line) else {
        return false;
    };
    let Some(model) = row.get_str("model") else {
        return false;
    };
    let Some(v) = finite(&row, &["j", "e0", "e_pqec", "e_nisq", "gamma"]) else {
        return false;
    };
    let (j, e0, ep, en, gamma) = (v[0], v[1], v[2], v[3], v[4]);
    row.label() == "fig13"
        && row.get_int("n") == Some(qubits as i64)
        && row.get_str("benchmark") == Some(format!("{model}-{qubits} J={j}").as_str())
        && ep >= e0 - 1e-9
        && en >= e0 - 1e-9
        && gamma == relative_improvement(e0, ep, en)
}

/// What a planner response must contain.
#[derive(Clone, Debug, PartialEq)]
pub enum Expected {
    /// `/plan`: 200 with this strategy, fidelity, source and degraded flag.
    Plan {
        /// Strategy label.
        strategy: &'static str,
        /// Fidelity, bit-exact.
        fidelity: f64,
        /// `surface` or `exact`.
        source: &'static str,
        /// Whether the answer is stamped degraded.
        degraded: bool,
    },
    /// `/lookup`: 200 with this value and degraded flag.
    Lookup {
        /// Interpolated value, bit-exact.
        value: f64,
        /// Whether the query was clamped.
        degraded: bool,
    },
    /// A malformed request: 400.
    BadRequest,
    /// `/healthz`: 200 health row.
    Health,
    /// `/metrics`: 200 Prometheus text.
    Metrics,
}

/// Splits a raw HTTP response into status and body.
pub fn split_response(raw: &[u8]) -> Option<(u16, &str)> {
    let text = std::str::from_utf8(raw).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, body))
}

/// Checks one raw response against what the generator expects.
///
/// # Errors
///
/// A description of the first mismatch.
pub fn check_response(raw: &[u8], expected: &Expected) -> Result<(), String> {
    let (status, body) = split_response(raw).ok_or("unparsable response")?;
    let want_status = if *expected == Expected::BadRequest {
        400
    } else {
        200
    };
    if status != want_status {
        return Err(format!(
            "status {status}, want {want_status}: {}",
            body.trim_end()
        ));
    }
    let row = || parse_row(body.trim_end()).map_err(|e| format!("bad body: {e}"));
    match expected {
        Expected::Plan {
            strategy,
            fidelity,
            source,
            degraded,
        } => {
            let r = row()?;
            let ok = r.label() == "planner_plan"
                && r.get_str("strategy") == Some(strategy)
                && r.get_num("fidelity") == Some(*fidelity)
                && r.get_str("source") == Some(source)
                && r.get_int("degraded") == Some(i64::from(*degraded));
            ok.then_some(())
                .ok_or_else(|| format!("plan mismatch: {}", body.trim_end()))
        }
        Expected::Lookup { value, degraded } => {
            let r = row()?;
            let ok = r.label() == "planner_lookup"
                && r.get_num("value") == Some(*value)
                && r.get_int("degraded") == Some(i64::from(*degraded));
            ok.then_some(())
                .ok_or_else(|| format!("lookup mismatch: {}", body.trim_end()))
        }
        Expected::BadRequest => {
            let r = row()?;
            (r.get_str("cause") == Some("bad_request"))
                .then_some(())
                .ok_or_else(|| format!("400 without bad_request: {}", body.trim_end()))
        }
        Expected::Health => {
            let r = row()?;
            (r.label() == "~planner-health" && r.get_str("status") == Some("live"))
                .then_some(())
                .ok_or_else(|| format!("unhealthy: {}", body.trim_end()))
        }
        Expected::Metrics => body
            .contains("planner_requests_total")
            .then_some(())
            .ok_or_else(|| "metrics body without planner_requests_total".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flip_byte(s: &str, at: usize) -> String {
        let mut b = s.as_bytes().to_vec();
        b[at] ^= 0x01;
        String::from_utf8(b).unwrap()
    }

    #[test]
    fn artifact_check_rejects_a_flipped_byte() {
        let baseline =
            std::fs::read_to_string(crate::host::repo_root().join("ci/baselines/fig13.jsonl"))
                .unwrap();
        assert_eq!(mismatched_lines(&baseline, &baseline), 0);
        for at in [0, baseline.len() / 2, baseline.len() - 2] {
            assert!(mismatched_lines(&flip_byte(&baseline, at), &baseline) >= 1);
        }
        assert_eq!(mismatched_lines(&format!("{baseline}\n"), &baseline), 1);
    }

    #[test]
    fn row_checks_accept_baselines_and_reject_wrong_values() {
        let root = crate::host::repo_root();
        let fig12 = std::fs::read_to_string(root.join("ci/baselines/fig12.jsonl")).unwrap();
        let fig13 = std::fs::read_to_string(root.join("ci/baselines/fig13.jsonl")).unwrap();
        let rows12: Vec<&str> = fig12.lines().skip(1).collect();
        let rows13: Vec<&str> = fig13.lines().skip(1).collect();
        assert!(rows12.iter().all(|l| fig12_row_ok(l)));
        assert!(rows13.iter().all(|l| fig13_row_ok(l, 6)));
        // A wrong γ, and a noisy energy below the exact ground energy.
        let bad12 = rows12[0].replace("\"gamma\":12.5", "\"gamma\":13.5");
        assert!(!fig12_row_ok(&bad12));
        let bad13 = rows13[0].replace("\"e_pqec\":-5.73", "\"e_pqec\":-6.73");
        assert!(!fig13_row_ok(&bad13, 6));
    }

    fn response(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} X\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn response_check_rejects_a_wrong_fidelity() {
        let body = "{\"row\":\"planner_plan\",\"logical_qubits\":24,\"device_qubits\":30000,\
                    \"strategy\":\"pQEC\",\"fidelity\":0.25,\"source\":\"surface\",\"degraded\":0}\n";
        let want = Expected::Plan {
            strategy: "pQEC",
            fidelity: 0.25,
            source: "surface",
            degraded: false,
        };
        assert_eq!(check_response(&response(200, body), &want), Ok(()));
        let wrong = Expected::Plan {
            strategy: "pQEC",
            fidelity: 0.2500000000000001,
            source: "surface",
            degraded: false,
        };
        assert!(check_response(&response(200, body), &wrong).is_err());
        assert!(check_response(&response(429, body), &want).is_err());
        let flipped = body.replace("0.25", "0.26");
        assert!(check_response(&response(200, &flipped), &want).is_err());
    }

    #[test]
    fn bad_request_check_wants_exactly_400() {
        let body = "{\"row\":\"~planner-error\",\"status\":400,\"cause\":\"bad_request\",\"message\":\"m\"}\n";
        assert_eq!(
            check_response(&response(400, body), &Expected::BadRequest),
            Ok(())
        );
        assert!(check_response(&response(404, body), &Expected::BadRequest).is_err());
        let ok = "{\"row\":\"planner_lookup\",\"value\":1,\"degraded\":0}\n";
        let want = Expected::Lookup {
            value: 1.0,
            degraded: false,
        };
        assert_eq!(check_response(&response(200, ok), &want), Ok(()));
        assert!(check_response(&response(400, ok), &want).is_err());
    }
}
