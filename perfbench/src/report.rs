//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` is the one list of metrics: [`Catalogue::load`] reads
//! their names and units from it at run time. A workload fills in what it
//! measures; a per-layer metric whose layer the workload never calls is
//! reported as `0` — no work was done there.

use crate::stats::{skipped_share, valid_metric_name};
use std::path::Path;

/// Table 1 rows in the paper's print order (the sweep order of
/// `bd_bench::table1_sweeps`).
pub const ROWS: [&str; 7] = [
    "QuotientTh1",
    "ArbitraryHalfTh2",
    "ArbitrarySqrtTh5",
    "GatheredHalfTh3",
    "GatheredThirdTh4",
    "StrongArbitraryTh7",
    "StrongGatheredTh6",
];

/// The metrics `BENCHMARK.json` declares, `(name, unit)` in file order.
#[derive(Debug)]
pub struct Catalogue {
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

impl Catalogue {
    /// Read the `end_to_end` and `per_layer` lists of the `BENCHMARK.json`
    /// at `path`. Fails on a missing list, an illegal or repeated name, or
    /// a missing unit.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
        let doc: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("parsing {path:?}: {e}"))?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            let entries = doc
                .get(key)
                .and_then(|v| v.as_array())
                .ok_or(format!("{path:?} has no {key} list"))?;
            entries
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .map(String::from)
                            .ok_or(format!("a {key} entry lacks its {k}"))
                    };
                    Ok((field("name")?, field("unit")?))
                })
                .collect()
        };
        let catalogue = Catalogue {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        };
        let mut names: Vec<&str> = catalogue.names().collect();
        if let Some(bad) = names.iter().find(|n| !valid_metric_name(n)) {
            return Err(format!("illegal metric name {bad:?}"));
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        if names.len() != count {
            return Err("a metric name is used twice".into());
        }
        Ok(catalogue)
    }

    fn names(&self) -> impl Iterator<Item = &str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .map(|(n, _)| n.as_str())
    }
}

/// Named measurements collected by a workload.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Record `value` under `name`, replacing an earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Plan and engine work summed over the cells of one row (or of all rows).
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineSums {
    pub cells: u64,
    pub plan_us: f64,
    pub engine_us: f64,
    pub rounds: u64,
    pub stepped: u64,
    /// Stepped rounds × robots: the engine's unit of work.
    pub robot_rounds: u64,
}

impl EngineSums {
    /// Add one cell of `k` robots.
    pub fn cell(&mut self, plan_us: f64, engine_us: f64, rounds: u64, skipped: u64, k: usize) {
        let stepped = rounds - skipped;
        self.cells += 1;
        self.plan_us += plan_us;
        self.engine_us += engine_us;
        self.rounds += rounds;
        self.stepped += stepped;
        self.robot_rounds += stepped * k as u64;
    }

    pub fn add(&mut self, other: &EngineSums) {
        self.cells += other.cells;
        self.plan_us += other.plan_us;
        self.engine_us += other.engine_us;
        self.rounds += other.rounds;
        self.stepped += other.stepped;
        self.robot_rounds += other.robot_rounds;
    }

    /// Record the plan/engine metrics under `suffix` (`""` for all rows,
    /// `".<Row>"` per row): times and stepped rounds as means per cell.
    pub fn report(&self, layers: &mut Metrics, suffix: &str) {
        let per = self.cells.max(1) as f64;
        layers.set(format!("plan.us{suffix}"), self.plan_us / per);
        layers.set(format!("engine.us{suffix}"), self.engine_us / per);
        layers.set(
            format!("engine.stepped_rounds{suffix}"),
            self.stepped as f64 / per,
        );
        layers.set(
            format!("engine.skipped_share{suffix}"),
            skipped_share(self.stepped, self.rounds),
        );
        layers.set(
            format!("engine.ns_per_stepped_robot_round{suffix}"),
            self.engine_us * 1e3 / self.robot_rounds.max(1) as f64,
        );
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output checked so far was correct.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
}

/// The final stdout line: `{"correct":…,"attempted":…,"failed":…,
/// "metrics":{name:{"value":…,"unit":…},…}}`. With `traced`, the metrics
/// are the catalogue's per-layer list (unmeasured layers read 0),
/// otherwise its end-to-end list. Fails when an end-to-end value is
/// missing, a value is not finite, or a traced run measured a per-layer
/// metric the catalogue does not list.
pub fn result_line(run: &RunResult, catalogue: &Catalogue, traced: bool) -> Result<String, String> {
    let listed = if traced {
        &catalogue.per_layer
    } else {
        &catalogue.end_to_end
    };
    if traced {
        if let Some((name, _)) = run
            .per_layer
            .0
            .iter()
            .find(|(name, _)| !listed.iter().any(|(n, _)| n == name))
        {
            return Err(format!("per-layer metric {name} is not in the catalogue"));
        }
    }
    let mut entries = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        let value = if traced {
            run.per_layer.get(name).unwrap_or(0.0)
        } else {
            run.end_to_end
                .get(name)
                .ok_or_else(|| format!("end-to-end metric {name} was not measured"))?
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        entries.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.correct,
        run.attempted,
        run.failed,
        entries.join(",")
    ))
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip rendering gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Restart this process's peak resident set size (`VmHWM`) from its
/// current resident set, so [`peak_rss_mb`] leaves out what ran before.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting VmHWM through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process in MB, from `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Catalogue {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Catalogue::load(&path).expect("BENCHMARK.json loads")
    }

    #[test]
    fn rows_match_the_sweep_shapes() {
        let names: Vec<&str> = bd_bench::table1_sweeps()
            .iter()
            .map(|s| s.algo.row().name())
            .collect();
        assert_eq!(names, ROWS);
    }

    /// Every per-row metric a serve-miss traced run sets is listed.
    #[test]
    fn benchmark_json_lists_every_per_row_metric() {
        let catalogue = benchmark_json();
        assert!(catalogue.per_layer.len() <= 128);
        let mut layers = Metrics::default();
        for row in ROWS {
            EngineSums::default().report(&mut layers, &format!(".{row}"));
        }
        let run = RunResult {
            per_layer: layers,
            ..RunResult::default()
        };
        result_line(&run, &catalogue, true).unwrap();
    }

    #[test]
    fn load_refuses_bad_names() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".bench_work")
            .join(format!("test-catalogue-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCHMARK.json");
        let write = |e2e: &str| {
            std::fs::write(
                &path,
                format!(r#"{{"end_to_end":[{e2e}],"per_layer":[{{"name":"a.b","unit":"us"}}]}}"#),
            )
            .unwrap();
        };
        write(r#"{"name":"setup_s","unit":"s"}"#);
        assert_eq!(Catalogue::load(&path).unwrap().end_to_end.len(), 1);
        write(r#"{"name":"set up","unit":"s"}"#);
        assert!(Catalogue::load(&path).is_err());
        write(r#"{"name":"a.b","unit":"s"}"#);
        assert!(Catalogue::load(&path).is_err());
        write(r#"{"name":"setup_s"}"#);
        assert!(Catalogue::load(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_line_reports_the_catalogue() {
        let catalogue = Catalogue {
            end_to_end: vec![
                ("latency_p50_ms".into(), "ms".into()),
                ("setup_s".into(), "s".into()),
            ],
            per_layer: vec![("plan.us".into(), "us".into())],
        };
        let mut run = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            ..RunResult::default()
        };
        run.end_to_end.set("latency_p50_ms", 1.25);
        run.end_to_end.set("setup_s", 3.5);
        let line = result_line(&run, &catalogue, false).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"latency_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":3.5,\"unit\":\"s\"}}}"
        );
        let traced = result_line(&run, &catalogue, true).unwrap();
        assert!(traced.contains("\"plan.us\":{\"value\":0.0,\"unit\":\"us\"}"));
        run.per_layer.set("verify.us", 2.0);
        assert!(result_line(&run, &catalogue, true).is_err());
        run.end_to_end.set("setup_s", f64::NAN);
        assert!(result_line(&run, &catalogue, false).is_err());
        assert!(result_line(&RunResult::default(), &catalogue, false).is_err());
    }
}
