//! The result a pass prints: report lines, then one JSON line.

/// One named measurement.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric `name` reading `value` in `unit`.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit }
    }

    /// One report line: name, value and unit.
    pub fn describe(&self) -> String {
        format!("{}: {} {}", self.name, self.value, self.unit)
    }
}

/// What a pass measured and checked.
pub struct Outcome {
    /// Human-readable report, printed before the result line.
    pub lines: Vec<String>,
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Runs that panicked or failed an output check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Prints the report and, last, the result as one JSON object. A
    /// metric that is not a finite number marks the result incorrect and
    /// is printed as 0, since JSON has no NaN.
    pub fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            finite && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
