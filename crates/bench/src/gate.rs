//! Throughput regression gate against a committed baseline document.
//!
//! `table1 --gate BENCH_table1.json` and `load --gate BENCH_serve.json`
//! both compare named throughput figures of the current run with the same
//! figures in a baseline file and fail below [`MIN_RATIO`] × baseline.
//! The baseline is read into memory when the arguments are parsed, before
//! the run starts, so a run can never be gated against its own output;
//! a run's own document is written ([`write()`]) only to a path the caller
//! names.
//! Only throughput is gated; wall-clock latency percentiles on shared
//! machines are too noisy to fail a build on.
//!
//! [`overhead`] is the other gate the bins share: the interleaved A/B
//! check that an instrumentation hook (telemetry, fault injection) costs
//! nothing measurable while it is off.

use serde_json::Value;

/// The lowest accepted `current / baseline` throughput ratio: generous
/// enough to absorb machine variance and quick-vs-full mode differences
/// while still catching order-of-magnitude regressions.
pub const MIN_RATIO: f64 = 0.25;

/// A baseline document, read once.
pub struct Baseline {
    path: String,
    doc: Value,
}

impl Baseline {
    /// Read and parse the baseline at `path`.
    pub fn load(path: &str) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc = serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        Ok(Baseline {
            path: path.to_string(),
            doc,
        })
    }

    /// Gate `current`, a document of the baseline's own schema, and print
    /// one ok/REGRESSION line per named `(current, baseline)` figure:
    /// `field` of every entry of array `list` (named by its `key`) against
    /// the same-named baseline entry, then a top-level `field`, when the
    /// current document has one, as `TOTAL`. Passes when every figure is
    /// at least [`MIN_RATIO`] × its baseline; figures without a baseline
    /// are skipped.
    pub fn check(&self, current: &Value, list: &str, key: &str, field: &str) -> bool {
        let entries = current.get(list).and_then(Value::as_array);
        let mut figures: Vec<_> = entries
            .into_iter()
            .flatten()
            .filter_map(|e| {
                let name = e.get(key)?.as_str()?;
                let base = entry(&self.doc, list, key, name, field);
                Some((name, e.get(field)?.as_f64()?, base))
            })
            .collect();
        if let Some(total) = current.get(field).and_then(Value::as_f64) {
            figures.push(("TOTAL", total, self.doc.get(field).and_then(Value::as_f64)));
        }
        println!("\ngate vs {} (min ratio {MIN_RATIO}):", self.path);
        let mut passed = true;
        for (name, current, base) in figures {
            let Some(base) = base else {
                println!("  {name:<20} (no baseline entry, skipped)");
                continue;
            };
            let ratio = current / base.max(1e-9);
            let ok = ratio >= MIN_RATIO;
            passed &= ok;
            println!(
                "  {name:<20} {current:>12.1} vs {base:>12.1} {field}  ratio {ratio:>5.2}  {}",
                if ok { "ok" } else { "REGRESSION" }
            );
        }
        if passed {
            println!("gate passed: every figure within {MIN_RATIO}x of baseline");
        } else {
            eprintln!("throughput regression against {}", self.path);
        }
        passed
    }
}

/// Write result document `doc` to `path` in the pretty-printed form
/// [`Baseline::load`] reads back, and say so on stdout.
pub fn write(path: &str, doc: &Value) {
    let text = format!("{}\n", serde_json::to_string_pretty(doc).unwrap());
    std::fs::write(path, text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");
}

/// Interleaved A/B overhead gate. After one untimed warm-up run of the
/// plain side (the first run of a process pays page faults and allocator
/// warm-up), run the plain and instrumented sides alternately, three times
/// each; `run(instrumented, iter)` returns one run's microseconds. Passes
/// when the best instrumented run is within 5% of the best plain run plus
/// `floor_micros` of timer jitter. `sides` labels the two sides.
pub fn overhead(
    sides: [&str; 2],
    floor_micros: u64,
    mut run: impl FnMut(bool, usize) -> u64,
) -> bool {
    let _ = run(false, usize::MAX);
    let mut best = [u64::MAX; 2];
    for i in 0..6 {
        let side = i % 2;
        let micros = run(side == 1, i);
        best[side] = best[side].min(micros);
        println!("iter {:>2} {:<20} {micros:>9} us", i + 1, sides[side]);
    }
    let [plain, instrumented] = best;
    let budget = plain + plain / 20 + floor_micros;
    println!(
        "best {} {plain} us, best {} {instrumented} us, budget {budget} us (overhead {:+.2}%)",
        sides[0],
        sides[1],
        100.0 * (instrumented as f64 - plain as f64) / plain.max(1) as f64
    );
    let passed = instrumented <= budget;
    if passed {
        println!("overhead within budget");
    } else {
        eprintln!("{} overhead exceeds the 5% budget", sides[1]);
    }
    passed
}

/// Number `field` of the entry in array `list` of `doc` whose `key` is
/// `name` (e.g. `rows[row == "QuotientTh1"].rounds_per_sec`).
fn entry(doc: &Value, list: &str, key: &str, name: &str, field: &str) -> Option<f64> {
    doc.get(list)?
        .as_array()?
        .iter()
        .find(|e| e.get(key).and_then(Value::as_str) == Some(name))?
        .get(field)?
        .as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(tag: &str, doc: &str) -> (std::path::PathBuf, Baseline) {
        let path = std::env::temp_dir().join(format!("bd-gate-{tag}-{}.json", std::process::id()));
        std::fs::write(&path, doc).unwrap();
        let loaded = Baseline::load(path.to_str().unwrap()).unwrap();
        (path, loaded)
    }

    fn doc(a: f64, total: f64) -> String {
        format!(r#"{{"rows": [{{"row": "A", "rps": {a}}}], "rps": {total}}}"#)
    }

    fn gate(base: &Baseline, current: &str) -> bool {
        base.check(
            &serde_json::from_str(current).unwrap(),
            "rows",
            "row",
            "rps",
        )
    }

    #[test]
    fn overwriting_the_file_after_loading_keeps_the_original_numbers() {
        let (path, base) = baseline("overwrite", &doc(1000.0, 50.0));
        // A run that writes its own (slow) result over the baseline file
        // would then read as ratio 1.00 everywhere.
        std::fs::write(&path, doc(1.0, 1.0)).unwrap();
        assert!(!gate(&base, &doc(1.0, 1.0)));
        assert!(gate(&base, &doc(1000.0, 50.0)));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn a_figure_below_the_ratio_fails_and_one_at_it_passes() {
        let (path, base) = baseline("ratio", &doc(1000.0, 50.0));
        assert!(gate(&base, &doc(250.0, 12.5)));
        assert!(!gate(&base, &doc(249.0, 50.0)), "row below 0.25x");
        assert!(!gate(&base, &doc(1000.0, 12.0)), "total below 0.25x");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn a_figure_missing_from_the_baseline_is_skipped() {
        let (path, base) = baseline("missing", r#"{"rows": [{"row": "B", "rps": 9.0}]}"#);
        assert!(gate(&base, &doc(0.0, 0.0)));
        assert!(!gate(&base, r#"{"rows": [{"row": "B", "rps": 1.0}]}"#));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn overhead_passes_within_five_percent_plus_the_floor() {
        let gate = |instrumented: u64, floor: u64| {
            overhead(
                ["off", "on"],
                floor,
                |on, _| if on { instrumented } else { 1000 },
            )
        };
        assert!(gate(1050, 0));
        assert!(!gate(1051, 0));
        assert!(gate(1100, 50));
    }

    #[test]
    fn an_unreadable_baseline_is_an_error() {
        assert!(Baseline::load("/nonexistent/bd-gate-baseline.json").is_err());
    }
}
