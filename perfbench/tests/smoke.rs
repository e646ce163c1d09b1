//! Smoke runs of every workload at tiny sizes, in both modes: the
//! result line parses, no operation failed, and exactly the metrics of
//! the spec are printed with their units. Also holds the spec to the
//! workloads and metric lists in `BENCHMARK.json`.

use perfbench::spec;
use std::collections::BTreeMap;
use std::process::Command;

/// A JSON value, enough of one to read the result line and
/// `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key:?}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.b.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    m.insert(k, self.value());
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.b[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.b[self.i] != b'"' {
                    self.i += if self.b[self.i] == b'\\' { 2 } else { 1 };
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.b[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                let word = [&b"true"[..], b"false", b"null"]
                    .into_iter()
                    .find(|w| self.b[self.i..].starts_with(w))
                    .expect("literal");
                self.i += word.len();
                match word {
                    b"true" => Json::Bool(true),
                    b"false" => Json::Bool(false),
                    _ => Json::Null,
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.b.len() && b"+-.eE0123456789".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                Json::Num(
                    std::str::from_utf8(&self.b[start..self.i])
                        .unwrap()
                        .parse()
                        .unwrap(),
                )
            }
        }
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last)
}

/// Every named metric is printed with its unit, nothing else, and no
/// operation failed.
fn assert_result(workload: &str, trace: bool, res: &Json) {
    let Json::Obj(keys) = res else {
        panic!("result is not an object")
    };
    let names: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(names, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(res.get("correct"), &Json::Bool(true), "{workload}: {res:?}");
    assert_eq!(res.get("failed"), &Json::Num(0.0), "{workload}");
    assert!(matches!(res.get("attempted"), Json::Num(n) if *n >= 1.0));
    let want = if trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let Json::Obj(metrics) = res.get("metrics") else {
        panic!("metrics")
    };
    assert_eq!(
        metrics.len(),
        want.len(),
        "{workload}: {:?}",
        metrics.keys()
    );
    for (name, unit) in want {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_eq!(m.get("unit").str(), unit, "{name}");
        assert!(
            matches!(m.get("value"), Json::Num(v) if v.is_finite()),
            "{name}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_on_two_seeds() {
    for workload in spec::WORKLOADS {
        for seed in [1, 2] {
            assert_result(workload, false, &run(workload, seed, false));
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for workload in spec::WORKLOADS {
        assert_result(workload, true, &run(workload, 3, true));
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "mixed", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "mixed",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn benchmark_json_declares_exactly_the_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"));
    let declared = |key: &str| -> Vec<(String, String)> {
        let Json::Arr(list) = bench.get(key) else {
            panic!("{key}")
        };
        let mut v: Vec<(String, String)> = list
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect();
        v.sort();
        v
    };
    let spec_list = |list: Vec<(String, &'static str)>| -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> =
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect();
        v.sort();
        v
    };
    assert_eq!(declared("end_to_end"), spec_list(spec::end_to_end()));
    assert_eq!(declared("per_layer"), spec_list(spec::per_layer()));
    let Json::Arr(workloads) = bench.get("workloads") else {
        panic!("workloads")
    };
    let names: Vec<&str> = workloads.iter().map(|w| w.get("name").str()).collect();
    assert_eq!(names, spec::WORKLOADS);
}
