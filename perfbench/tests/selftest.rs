//! The benchmark's own tests: a tiny-size run of each workload passes its
//! oracle and reports exactly the metrics `BENCHMARK.json` declares, with
//! their units; two traced runs of one seed report identical exact
//! counts.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["fleet_sweep", "rollout_ota", "device_exec"];

/// Counts that are exact: a traced run must repeat them bit for bit.
const EXACT: [&str; 32] = [
    "msp430.cycles_per_instruction",
    "eilid.extra_cycles.LightSensor",
    "eilid.extra_cycles.UltrasonicRanger",
    "eilid.extra_cycles.FireSensor",
    "eilid.extra_cycles.SyringePump",
    "eilid.extra_cycles.TempSensor",
    "eilid.extra_cycles.Charlieplexing",
    "eilid.extra_cycles.LcdSensor",
    "eilid.extra_bytes.LightSensor",
    "eilid.extra_bytes.UltrasonicRanger",
    "eilid.extra_bytes.FireSensor",
    "eilid.extra_bytes.SyringePump",
    "eilid.extra_bytes.TempSensor",
    "eilid.extra_bytes.Charlieplexing",
    "eilid.extra_bytes.LcdSensor",
    "casu.hmac_ops_per_device",
    "casu.hmac_bytes_per_device",
    "casu.agg.hmac_ops_per_device",
    "casu.merkle.leaves_rehashed_per_device",
    "casu.agg.roots_verified",
    "casu.agg.short_circuited_share",
    "casu.agg.suspects",
    "casu.monitor.violations_per_attack",
    "net.gateway.frames_per_device",
    "net.gateway.busy_rejections",
    "net.engine.probes_executed",
    "net.engine.probes_memoized",
    "net.wire.update_bytes_wire",
    "net.wire.update_bytes_full",
    "alloc.allocs_per_device",
    "alloc.bytes_per_device",
    "failed_share",
];

/// A parsed JSON value (just what the result line and `BENCHMARK.json`
/// need).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Str(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn number(&self) -> f64 {
        match self {
            Json::Number(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value();
        parser.skip_ws();
        assert_eq!(parser.at, parser.bytes.len(), "trailing JSON input");
        value
    }

    fn skip_ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_ws();
        assert_eq!(self.bytes[self.at], byte, "JSON syntax at byte {}", self.at);
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        self.bytes[self.at]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.at;
        while self.bytes[self.at] != b'"' {
            assert_ne!(self.bytes[self.at], b'\\', "escapes are not expected");
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(self.bytes[start..self.at - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut map = BTreeMap::new();
                if self.peek() == b'}' {
                    self.eat(b'}');
                    return Json::Object(map);
                }
                loop {
                    let key = self.string();
                    self.eat(b':');
                    assert!(map.insert(key, self.value()).is_none(), "duplicate key");
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b'}');
                        return Json::Object(map);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() == b']' {
                    self.eat(b']');
                    return Json::Array(items);
                }
                loop {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b']');
                        return Json::Array(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && !matches!(self.bytes[self.at], b',' | b'}' | b']')
                    && !self.bytes[self.at].is_ascii_whitespace()
                {
                    self.at += 1;
                }
                match std::str::from_utf8(&self.bytes[start..self.at]).expect("utf-8") {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    number => Json::Number(number.parse().expect("JSON number")),
                }
            }
        }
    }
}

/// `name -> unit` for one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    match Parser::parse(&text).get(list) {
        Json::Array(items) => items
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect(),
        other => panic!("{list} is not a list: {other:?}"),
    }
}

/// Runs the benchmark at tiny size and returns its parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "tiny"])
        .output()
        .expect("benchmark runs");
    assert!(
        output.status.success(),
        "{workload} exited with {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Parser::parse(last)
}

fn metrics(result: &Json) -> BTreeMap<String, (f64, String)> {
    match result.get("metrics") {
        Json::Object(map) => map
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    (m.get("value").number(), m.get("unit").str().to_string()),
                )
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn assert_passes_oracle(workload: &str, result: &Json) {
    assert_eq!(
        result.get("correct"),
        &Json::Bool(true),
        "{workload}: {result:?}"
    );
    assert_eq!(result.get("failed").number(), 0.0, "{workload}");
    assert!(result.get("attempted").number() >= 1.0, "{workload}");
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_passes_its_oracle() {
    let declared = declared("end_to_end");
    for workload in WORKLOADS {
        let result = run(workload, 1, false);
        assert_passes_oracle(workload, &result);
        let reported = metrics(&result);
        let units: BTreeMap<String, String> = reported
            .iter()
            .map(|(name, (_, unit))| (name.clone(), unit.clone()))
            .collect();
        assert_eq!(units, declared, "{workload}: metric names or units differ");
        for (name, (value, _)) in &reported {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload}: {name} = {value} (end-to-end metrics are never 0)"
            );
        }
    }
}

#[test]
fn traced_runs_report_every_layer_and_repeat_exact_counts() {
    let declared = declared("per_layer");
    for workload in WORKLOADS {
        let first = run(workload, 3, true);
        let second = run(workload, 3, true);
        assert_passes_oracle(workload, &first);
        assert_passes_oracle(workload, &second);
        let (first, second) = (metrics(&first), metrics(&second));
        let units: BTreeMap<String, String> = first
            .iter()
            .map(|(name, (_, unit))| (name.clone(), unit.clone()))
            .collect();
        assert_eq!(units, declared, "{workload}: layer names or units differ");
        for name in EXACT {
            assert_eq!(
                first[name].0, second[name].0,
                "{workload}: exact count {name} differs between two traced runs"
            );
        }
    }
}

#[test]
fn simulated_overheads_repeat_across_seeds() {
    let a = metrics(&run("device_exec", 5, false));
    let b = metrics(&run("device_exec", 6, false));
    for name in [
        "eilid_runtime_overhead_pct",
        "eilid_size_overhead_pct",
        "update_bytes_per_device",
    ] {
        assert_eq!(a[name].0, b[name].0, "{name} must not depend on the seed");
    }
}
