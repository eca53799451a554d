//! Simulated results of each operation, and the reference they are
//! checked against.
//!
//! The reference file holds one line per operation:
//!
//! ```text
//! <workload> <seed> <operation> <key>=<value> <key>=<value> ...
//! ```
//!
//! Lines starting with `#` are comments (the capture's host fingerprint).
//! Values are compared as exact strings: the simulator is deterministic,
//! and floats are written in Rust's shortest round-trip form.

use std::collections::BTreeMap;

use sesame_net::FabricStats;
use sesame_sim::SimTime;

/// The simulated results of one operation (a sweep point or a run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpResult {
    /// Operation name, unique within a rep, e.g. `fig8/optimistic/2`.
    pub name: String,
    /// Compared results, in a fixed order.
    pub fields: Vec<(&'static str, String)>,
}

impl OpResult {
    /// An operation's common results: makespan, network power, visits and
    /// fabric statistics.
    pub fn new(name: String, end: SimTime, power: f64, visits: u64, fabric: FabricStats) -> Self {
        let mut op = OpResult {
            name,
            fields: Vec::new(),
        };
        op.push("end_ns", end.as_nanos());
        op.push("power", format!("{power:?}"));
        op.push("visits", visits);
        op.push("packets", fabric.packets);
        op.push("bytes", fabric.bytes);
        op.push("link_traversals", fabric.link_traversals);
        op.push("losses", fabric.losses);
        op.push("ser_ns", fabric.ser_ns);
        op
    }

    /// Appends one compared result.
    pub fn push(&mut self, key: &'static str, value: impl ToString) {
        self.fields.push((key, value.to_string()));
    }

    /// One reference-file line for this operation.
    pub fn line(&self, workload: &str, seed: u64) -> String {
        let mut s = format!("{workload} {seed} {}", self.name);
        for (k, v) in &self.fields {
            s.push_str(&format!(" {k}={v}"));
        }
        s
    }
}

/// The expected `(key, value)` results of each operation, by name.
pub type Expected = BTreeMap<String, Vec<(String, String)>>;

/// Expected results keyed by `(workload, seed)`.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    runs: BTreeMap<(String, u64), Expected>,
}

impl Reference {
    /// Parses a reference file.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut r = Reference::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(workload), Some(seed), Some(op)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("reference line too short: {line}"));
            };
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("bad seed in reference line: {line}"))?;
            let fields = parts
                .map(|kv| {
                    kv.split_once('=')
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .ok_or_else(|| format!("bad field {kv:?} in reference line: {line}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            r.runs
                .entry((workload.to_string(), seed))
                .or_default()
                .insert(op.to_string(), fields);
        }
        Ok(r)
    }

    /// The expected operations of `workload` at `seed`, if captured.
    pub fn get(&self, workload: &str, seed: u64) -> Option<&Expected> {
        self.runs.get(&(workload.to_string(), seed))
    }
}

/// Compares `op` with its expected results; `Err` names the first
/// difference.
pub fn compare(op: &OpResult, expected: &Expected) -> Result<(), String> {
    let Some(want) = expected.get(&op.name) else {
        return Err(format!("{}: no reference result", op.name));
    };
    let got: Vec<(String, String)> = op
        .fields
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    if &got == want {
        return Ok(());
    }
    for (g, w) in got.iter().zip(want) {
        if g != w {
            return Err(format!(
                "{}: {}={} but the reference has {}={}",
                op.name, g.0, g.1, w.0, w.1
            ));
        }
    }
    Err(format!(
        "{}: {} result fields but the reference has {}",
        op.name,
        got.len(),
        want.len()
    ))
}
