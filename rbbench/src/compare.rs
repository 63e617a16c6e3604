//! `rbbench compare A.json B.json`: per workload and end-to-end metric,
//! both sides' medians and quartiles, their ratio, and a verdict against
//! the metric's bound. On the same seed it also requires B to repeat A's
//! simulated outputs and [`INVARIANT_LAYERS`] exactly: a change that only
//! speeds up the simulator must not change what it simulates.
//!
//! Every workload, metric and checked output of A must be present in B: a
//! missing one is a violation, never a silent pass.

use rb_simcore::Json;

/// How B's median stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound of A's median.
    WithinBound,
    /// Better than A by more than the bound.
    Better,
    /// Worse than A by more than the bound.
    Worse,
    /// One side's quartile spread exceeds the bound, so the medians cannot
    /// tell a change from noise (unless every B sample beats every A one).
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `setup_s` may move by this many seconds whatever its relative bound:
/// where set-up takes microseconds, a relative bound alone would flag
/// shifts far below anything `wall_s` can show.
pub const SETUP_ABS_BOUND_S: f64 = 0.005;

/// The absolute floor of a metric's bound, in its own unit.
pub fn abs_bound(metric: &str) -> f64 {
    if metric == "setup_s" {
        SETUP_ABS_BOUND_S
    } else {
        0.0
    }
}

/// Per-layer counts of the traced rep that depend only on what was
/// simulated, never on how fast.
pub const INVARIANT_LAYERS: [&str; 3] = [
    "simcore.queue.dispatched",
    "simcore.queue.scheduled",
    "simcore.trace.records",
];

/// One side of a metric comparison.
#[derive(Debug, Clone)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

impl Side {
    fn from_json(m: &Json) -> Option<Side> {
        let num = |k: &str| m.get(k).and_then(Json::as_f64);
        Some(Side {
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            samples: m
                .get("samples")
                .and_then(Json::as_arr)
                .map(|s| s.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default(),
        })
    }
}

/// Judge B against A for a metric where `lower_is_better` holds or not.
/// The tolerance is `bound` times A's median, but never less than
/// `abs_bound`.
pub fn verdict(a: &Side, b: &Side, lower_is_better: bool, bound: f64, abs_bound: f64) -> Verdict {
    let tol = (bound * a.median.abs()).max(abs_bound);
    let worse = if lower_is_better {
        b.median - a.median
    } else {
        a.median - b.median
    };
    if (a.q3 - a.q1).max(b.q3 - b.q1) > tol {
        let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
        let all_better = !a.samples.is_empty()
            && !b.samples.is_empty()
            && b.samples
                .iter()
                .all(|&x| a.samples.iter().all(|&y| beats(x, y)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse > tol {
        Verdict::Worse
    } else if worse < -tol {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn provenance(doc: &Json) -> String {
    format!(
        "git_rev {}, host.cores {}, seed {}",
        doc.get("git_rev").and_then(Json::as_str).unwrap_or("?"),
        doc.path("host.cores").and_then(Json::as_f64).unwrap_or(0.0),
        doc.get("seed").and_then(Json::as_f64).unwrap_or(0.0),
    )
}

fn named<'a>(list: Option<&'a Json>, name: &str) -> Option<&'a Json> {
    list.and_then(Json::as_arr)?
        .iter()
        .find(|x| x.get("name").and_then(Json::as_str) == Some(name))
}

fn show(v: Option<&Json>) -> String {
    v.and_then(Json::as_f64)
        .map_or_else(|| "null".to_string(), |x| format!("{x}"))
}

/// Check that B repeats A's simulated outputs (`sim`) and invariant layer
/// counts (`layers`) exactly. Returns whether it does.
fn same_outputs(wname: &str, wa: &Json, wb: &Json, lines: &mut Vec<String>) -> bool {
    let mut ok = true;
    for key in ["sim", "layers"] {
        let rows = wa.get(key).and_then(Json::as_arr).unwrap_or(&[]);
        for ra in rows {
            let name = ra.get("name").and_then(Json::as_str).unwrap_or("?");
            if key == "layers" && !INVARIANT_LAYERS.contains(&name) {
                continue;
            }
            let va = ra.get("value");
            let Some(rb) = named(wb.get(key), name) else {
                lines.push(format!("{wname:<12} {name:<26} missing from B"));
                ok = false;
                continue;
            };
            let vb = rb.get("value");
            let same = va == vb;
            ok &= same;
            lines.push(format!(
                "{wname:<12} {name:<26} {:>16} {:>16}  {}",
                show(va),
                show(vb),
                if same { "identical" } else { "differs" }
            ));
        }
    }
    ok
}

/// Compare result documents A and B. Returns the printed lines and
/// whether B holds: no metric worse, on the same seed the same simulated
/// outputs, and nothing of A missing in B.
pub fn compare(a: &Json, b: &Json) -> (Vec<String>, bool) {
    let mut lines = vec![
        format!("A: {}", provenance(a)),
        format!("B: {}", provenance(b)),
        format!(
            "{:<12} {:<14} {:>12} {:>25} {:>12} {:>25} {:>7}  verdict",
            "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A"
        ),
    ];
    let same_seed = a.get("seed") == b.get("seed");
    let mut outputs = Vec::new();
    let mut ok = true;
    for wa in a.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
        let wname = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = named(b.get("workloads"), wname) else {
            lines.push(format!("{wname:<12} missing from B"));
            ok = false;
            continue;
        };
        for ma in wa.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
            let mname = ma.get("name").and_then(Json::as_str).unwrap_or("?");
            let (Some(sa), Some(sb)) = (
                Side::from_json(ma),
                named(wb.get("end_to_end"), mname).and_then(Side::from_json),
            ) else {
                lines.push(format!("{wname:<12} {mname:<14} missing from B"));
                ok = false;
                continue;
            };
            let lower = ma.get("better").and_then(Json::as_str) != Some("higher");
            let bound = ma.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let floor = abs_bound(mname);
            let v = verdict(&sa, &sb, lower, bound, floor);
            ok &= v != Verdict::Worse;
            let floor_note = if floor > 0.0 {
                format!(", at least {floor}")
            } else {
                String::new()
            };
            lines.push(format!(
                "{wname:<12} {mname:<14} {:>12.6} {:>12.6}..{:<12.6} {:>12.6} {:>12.6}..{:<12.6} {:>7.4}  {} (bound {bound}{floor_note})",
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                sb.median / sa.median,
                v.label()
            ));
        }
        if same_seed {
            ok &= same_outputs(wname, wa, wb, &mut outputs);
        }
    }
    if same_seed {
        lines.push(format!(
            "{:<12} {:<26} {:>16} {:>16}  same seed: must be identical",
            "workload", "simulated output", "A", "B"
        ));
        lines.extend(outputs);
    } else {
        lines.push("seeds differ: simulated outputs not compared".to_string());
    }
    (lines, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(samples: &[f64]) -> Side {
        let s = rb_simcore::Summary::from_samples(samples.to_vec());
        Side {
            median: s.median(),
            q1: s.percentile(25.0),
            q3: s.percentile(75.0),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = side(&[1.00, 1.01, 0.99, 1.00]);
        let v = |b: &[f64], lower| verdict(&a, &side(b), lower, 0.1, 0.0);
        assert_eq!(v(&[1.05, 1.06, 1.04, 1.05], true), Verdict::WithinBound);
        assert_eq!(v(&[1.20, 1.21, 1.19, 1.20], true), Verdict::Worse);
        assert_eq!(v(&[0.80, 0.81, 0.79, 0.80], true), Verdict::Better);
        // Higher-is-better flips the direction.
        assert_eq!(v(&[0.80, 0.81, 0.79, 0.80], false), Verdict::Worse);
        // A spread wider than the bound cannot resolve a 15 % change…
        assert_eq!(v(&[0.70, 1.30, 1.15, 1.15], true), Verdict::Unresolved);
        // …unless every sample of B beats every sample of A.
        assert_eq!(v(&[0.50, 0.90, 0.70, 0.70], true), Verdict::Better);
    }

    fn rows(rows: &[(&str, f64)]) -> Json {
        Json::Arr(
            rows.iter()
                .map(|&(n, v)| Json::obj().set("name", n).set("value", v))
                .collect(),
        )
    }

    fn workload(name: &str, metrics: &[(&str, f64)]) -> Json {
        let ms = metrics.iter().map(|&(m, v)| {
            Json::obj()
                .set("name", m)
                .set("better", "lower")
                .set("bound", 0.1)
                .set("median", v)
                .set("q1", v)
                .set("q3", v)
                .set("samples", Json::Arr(vec![v.into()]))
        });
        Json::obj()
            .set("name", name)
            .set("end_to_end", Json::Arr(ms.collect()))
    }

    fn doc(seed: u64, workloads: Vec<Json>) -> Json {
        Json::obj()
            .set("seed", seed)
            .set("workloads", Json::Arr(workloads))
    }

    #[test]
    fn same_numbers_compare_clean() {
        let a = doc(11, vec![workload("w", &[("wall_s", 1.0), ("cpu_s", 2.0)])]);
        let (lines, ok) = compare(&a, &a);
        assert!(ok);
        assert_eq!(
            lines.iter().filter(|l| l.contains("within bound")).count(),
            2
        );
    }

    #[test]
    fn a_workload_or_metric_missing_from_b_is_a_violation() {
        let a = doc(
            11,
            vec![
                workload("w", &[("wall_s", 1.0), ("cpu_s", 2.0)]),
                workload("v", &[("wall_s", 1.0)]),
            ],
        );
        let b = doc(11, vec![workload("w", &[("wall_s", 1.0)])]);
        let (lines, ok) = compare(&a, &b);
        assert!(!ok);
        assert!(lines
            .iter()
            .any(|l| l.contains("cpu_s") && l.contains("missing")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("v ") && l.contains("missing")));
    }

    #[test]
    fn a_regression_beyond_the_bound_fails() {
        let a = doc(11, vec![workload("w", &[("wall_s", 1.0)])]);
        let b = doc(11, vec![workload("w", &[("wall_s", 1.2)])]);
        let (lines, ok) = compare(&a, &b);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.contains("worse")));
    }

    #[test]
    fn setup_s_has_an_absolute_floor() {
        // 45 µs → 60 µs is 33 % worse but far inside 5 ms…
        let a = doc(11, vec![workload("w", &[("setup_s", 45e-6)])]);
        let b = doc(11, vec![workload("w", &[("setup_s", 60e-6)])]);
        let (lines, ok) = compare(&a, &b);
        assert!(ok, "{lines:#?}");
        assert!(lines.iter().any(|l| l.contains("within bound")));
        // …while the same shift of another metric is a regression…
        let a = doc(11, vec![workload("w", &[("wall_s", 45e-6)])]);
        let b = doc(11, vec![workload("w", &[("wall_s", 60e-6)])]);
        assert!(!compare(&a, &b).1);
        // …and above the floor the relative bound rules again.
        let a = doc(11, vec![workload("w", &[("setup_s", 0.2)])]);
        let b = doc(11, vec![workload("w", &[("setup_s", 0.3)])]);
        assert!(!compare(&a, &b).1);
    }

    #[test]
    fn a_changed_simulated_output_is_a_violation_on_the_same_seed() {
        let with_sim = |seed, idle| {
            let w = workload("w", &[("wall_s", 1.0)]).set(
                "sim",
                rows(&[("sim_idleness_pct", idle), ("sim_jobs_completed", 176.0)]),
            );
            doc(seed, vec![w])
        };
        let (lines, ok) = compare(&with_sim(11, 0.0986), &with_sim(11, 0.0990));
        assert!(!ok);
        assert!(lines
            .iter()
            .any(|l| l.contains("sim_idleness_pct") && l.contains("differs")));
        assert!(lines
            .iter()
            .any(|l| l.contains("sim_jobs_completed") && l.contains("identical")));
        // On another seed the outputs legitimately differ.
        let (lines, ok) = compare(&with_sim(11, 0.0986), &with_sim(12, 0.0990));
        assert!(ok);
        assert!(lines.iter().any(|l| l.contains("not compared")));
        // A simulated output A has and B lacks is a violation.
        let bare = doc(11, vec![workload("w", &[("wall_s", 1.0)])]);
        assert!(!compare(&with_sim(11, 0.0986), &bare).1);
    }

    #[test]
    fn invariant_layer_counts_must_repeat_and_timed_layers_need_not() {
        let with_layers = |dispatched, run_s| {
            let w = workload("w", &[("wall_s", 1.0)]).set(
                "layers",
                rows(&[
                    ("simcore.queue.dispatched", dispatched),
                    ("simnet.run_s", run_s),
                ]),
            );
            doc(11, vec![w])
        };
        assert!(compare(&with_layers(1000.0, 1.0), &with_layers(1000.0, 0.5)).1);
        let (lines, ok) = compare(&with_layers(1000.0, 1.0), &with_layers(999.0, 1.0));
        assert!(!ok);
        assert!(lines
            .iter()
            .any(|l| l.contains("simcore.queue.dispatched") && l.contains("differs")));
    }
}
