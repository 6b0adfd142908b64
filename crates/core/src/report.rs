//! Operator-facing explanation reports: rendering attributions into the
//! NFV-operations vocabulary, the artifact a NOC engineer actually reads.

use crate::explanation::Attribution;
use serde::{Deserialize, Serialize};

/// What kind of prediction is being explained (sets the report phrasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictionKind {
    /// Probability of an SLA violation in the next window.
    SlaViolationRisk,
    /// Predicted p95 latency (log-ms scale).
    LatencyP95,
    /// A scaling decision score.
    ScalingScore,
}

/// A rendered operator report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatorReport {
    /// One-line headline.
    pub headline: String,
    /// Per-driver lines, most influential first.
    pub drivers: Vec<String>,
    /// Full rendered text.
    pub text: String,
}

/// Humanizes a telemetry feature name like `"1_ids_cpu"` into
/// "CPU utilization of the IDS (stage 1)".
pub fn humanize_feature(name: &str) -> String {
    let parts: Vec<&str> = name.split('_').collect();
    if parts.len() == 3 {
        if let Ok(stage) = parts[0].parse::<usize>() {
            let vnf = parts[1].to_uppercase();
            let metric = match parts[2] {
                "cpu" => "CPU utilization",
                "queue" => "queue depth",
                "drop" => "local drop rate",
                "interf" => "co-location interference",
                other => other,
            };
            return format!("{metric} of the {vnf} (stage {stage})");
        }
    }
    match name {
        "offered_kpps" => "offered load (kpps)".to_string(),
        "payload_bytes" => "mean payload size".to_string(),
        other => other.replace('_', " "),
    }
}

/// Renders an attribution as an operator report, listing the `top_k`
/// drivers with their share of the total attribution mass.
pub fn render_report(attr: &Attribution, kind: PredictionKind, top_k: usize) -> OperatorReport {
    let what = match kind {
        PredictionKind::SlaViolationRisk => "SLA-violation risk",
        PredictionKind::LatencyP95 => "predicted p95 latency",
        PredictionKind::ScalingScore => "scale-out score",
    };
    let direction = if attr.prediction >= attr.base_value {
        "above"
    } else {
        "below"
    };
    let headline = format!(
        "{what} is {:.3} ({direction} the fleet baseline of {:.3})",
        attr.prediction, attr.base_value
    );
    let total_mass: f64 = attr.values.iter().map(|v| v.abs()).sum::<f64>().max(1e-12);
    let mut drivers = Vec::new();
    for i in attr.order_by_magnitude().into_iter().take(top_k) {
        let v = attr.values[i];
        if v == 0.0 {
            continue;
        }
        let arrow = if v > 0.0 { "raises" } else { "lowers" };
        let share = 100.0 * v.abs() / total_mass;
        drivers.push(format!(
            "{} {arrow} the prediction by {:+.4} ({share:.0}% of attribution mass)",
            humanize_feature(&attr.names[i]),
            v
        ));
    }
    let mut text = String::new();
    text.push_str(&headline);
    text.push('\n');
    if drivers.is_empty() {
        text.push_str("No feature contributes measurably; the prediction sits at the baseline.\n");
    } else {
        text.push_str("Top drivers:\n");
        for d in &drivers {
            text.push_str("  - ");
            text.push_str(d);
            text.push('\n');
        }
    }
    text.push_str(&format!(
        "(method: {}, residual: {:+.2e})\n",
        attr.method,
        attr.efficiency_gap()
    ));
    OperatorReport {
        headline,
        drivers,
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr() -> Attribution {
        Attribution {
            names: [
                "offered_kpps".to_string(),
                "1_ids_cpu".into(),
                "2_lb_queue".into(),
                "payload_bytes".into(),
            ]
            .into(),
            values: vec![0.05, 0.30, -0.10, 0.0],
            base_value: 0.10,
            prediction: 0.35,
            method: "tree-shap".into(),
        }
    }

    #[test]
    fn humanize_covers_schema_names() {
        assert_eq!(
            humanize_feature("1_ids_cpu"),
            "CPU utilization of the IDS (stage 1)"
        );
        assert_eq!(
            humanize_feature("0_fw_drop"),
            "local drop rate of the FW (stage 0)"
        );
        assert_eq!(humanize_feature("offered_kpps"), "offered load (kpps)");
        assert_eq!(humanize_feature("some_other_thing"), "some other thing");
    }

    #[test]
    fn report_orders_drivers_and_skips_zeros() {
        let r = render_report(&attr(), PredictionKind::SlaViolationRisk, 4);
        assert!(r.headline.contains("SLA-violation risk"));
        assert!(r.headline.contains("above"));
        assert_eq!(r.drivers.len(), 3, "zero-value feature skipped");
        assert!(r.drivers[0].contains("IDS"), "{:?}", r.drivers);
        assert!(r.drivers[0].contains("raises"));
        assert!(r.drivers[1].contains("lowers") || r.drivers[2].contains("lowers"));
        assert!(r.text.contains("tree-shap"));
    }

    #[test]
    fn below_baseline_phrasing() {
        let mut a = attr();
        a.prediction = 0.01;
        a.values = vec![-0.05, -0.04, 0.0, 0.0];
        let r = render_report(&a, PredictionKind::LatencyP95, 2);
        assert!(r.headline.contains("below"));
        assert!(r.headline.contains("p95"));
    }

    #[test]
    fn all_zero_attribution_degrades_gracefully() {
        let a = Attribution {
            names: ["a".to_string()].into(),
            values: vec![0.0],
            base_value: 0.5,
            prediction: 0.5,
            method: "t".into(),
        };
        let r = render_report(&a, PredictionKind::ScalingScore, 3);
        assert!(r.drivers.is_empty());
        assert!(r.text.contains("baseline"));
    }
}
