//! The JSON codec pinned from outside the vendored crates: the bytes
//! `serde_json` writes for every served model family, the stats snapshot
//! and every derive shape, and a round trip that gives every value back
//! bit for bit.
//!
//! The golden files under `tests/golden/` were written by the `Value`-tree
//! codec this one replaced and are compared byte for byte. The models are
//! fitted from fixed seeds; a change to a fitting routine that moves their
//! bits on purpose re-captures them with the codec as it stands, never
//! with a hand edit.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_serve::prelude::*;

/// Every derive shape in one place: a named struct holding an enum with
/// unit, newtype, tuple and struct variants, a tuple struct, a unit struct
/// and a field-less named struct.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
enum Shape {
    Unit,
    Newtype(f64),
    Pair(u32, String),
    Named {
        id: u64,
        label: String,
        weight: Option<f64>,
    },
}

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Point(i32, f64);

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Marker;

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Empty {}

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Zoo {
    shapes: Vec<Shape>,
    point: Point,
    marker: Marker,
    empty: Empty,
    none: Option<u32>,
    no_items: Vec<u8>,
    nested: Vec<Vec<f64>>,
    text: String,
    floats: Vec<f64>,
    ints: (i64, u64),
}

fn data(seed: u64) -> Dataset {
    friedman1(60, 5, 0.1, seed).unwrap().data
}

fn forest() -> ServeModel {
    let params = ForestParams {
        n_trees: 2,
        tree: TreeParams {
            max_depth: 3,
            ..TreeParams::default()
        },
        sample_fraction: 1.0,
    };
    ServeModel::Forest(RandomForest::fit(&data(1), &params, 11, 1).unwrap())
}

fn gbdt() -> ServeModel {
    let params = GbdtParams {
        n_rounds: 3,
        tree: TreeParams {
            max_depth: 2,
            ..TreeParams::default()
        },
        ..GbdtParams::default()
    };
    ServeModel::Gbdt(Gbdt::fit(&data(2), &params, 12).unwrap())
}

fn linear() -> ServeModel {
    ServeModel::Linear(LinearRegression::fit(&data(3), 0.5).unwrap())
}

fn mlp() -> ServeModel {
    let params = MlpParams {
        hidden: vec![3],
        epochs: 2,
        batch_size: 16,
        ..MlpParams::default()
    };
    ServeModel::Mlp(Mlp::fit(&data(4), &params, 14).unwrap())
}

fn stats() -> ServeStats {
    ServeStats {
        submitted: 1_000,
        completed: 990,
        cache_hits: u64::MAX,
        cache_hit_rate: 0.25,
        mean_batch_size: 3.0,
        fused_fill_ratio: 1.0 / 3.0,
        queue_wait_p50_us: 17.5,
        queue_wait_p99_us: f64::NAN,
        service_p99_us: f64::INFINITY,
        total_mean_us: 1e20,
        total_p50_us: 1e15,
        total_p99_us: 999_999_999_999_999.0,
        ..ServeStats::default()
    }
}

fn zoo() -> Zoo {
    Zoo {
        shapes: vec![
            Shape::Unit,
            Shape::Newtype(-0.0),
            Shape::Pair(7, "a \"quoted\" pair".into()),
            Shape::Named {
                id: 42,
                label: "tab\there, newline\nthere, bell\u{7}, é, 😀".into(),
                weight: None,
            },
            Shape::Named {
                id: 0,
                label: String::new(),
                weight: Some(2.5),
            },
        ],
        point: Point(-3, 1e-7),
        marker: Marker,
        empty: Empty {},
        none: None,
        no_items: Vec::new(),
        nested: vec![vec![], vec![1.0, -2.5], vec![f64::NEG_INFINITY]],
        text: "back\\slash / slash \r\u{1f}".into(),
        floats: vec![0.1, 1e300, -1e-300, 123_456_789.0, 5e-324, 1e15],
        ints: (i64::MIN, u64::MAX),
    }
}

/// The pinned fixtures: (golden file stem, compact text, pretty text).
fn pinned() -> Vec<(&'static str, String, String)> {
    fn both<T: serde::Serialize>(name: &'static str, v: &T) -> (&'static str, String, String) {
        (
            name,
            serde_json::to_string(v).unwrap(),
            serde_json::to_string_pretty(v).unwrap(),
        )
    }
    vec![
        both("forest", &forest()),
        both("gbdt", &gbdt()),
        both("linear", &linear()),
        both("mlp", &mlp()),
        both("stats", &stats()),
        both("shapes", &zoo()),
    ]
}

/// Reads a golden file by stem.
fn golden(file: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn output_is_byte_identical_to_the_pinned_goldens() {
    for (name, compact, pretty) in pinned() {
        assert!(
            compact == golden(&format!("{name}.json")),
            "{name}: compact output moved off its golden bytes"
        );
        assert!(
            pretty == golden(&format!("{name}.pretty.json")),
            "{name}: pretty output moved off its golden bytes"
        );
    }
}

#[test]
fn goldens_read_back_and_rewrite_to_the_same_bytes() {
    fn fixpoint<T: serde::Serialize + serde::Deserialize>(name: &str) {
        for file in [format!("{name}.json"), format!("{name}.pretty.json")] {
            let text = golden(&file);
            let v: T = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            let again = if file.ends_with(".pretty.json") {
                serde_json::to_string_pretty(&v)
            } else {
                serde_json::to_string(&v)
            };
            assert!(
                again.unwrap() == text,
                "{file}: read then rewritten differs"
            );
        }
    }
    for name in ["forest", "gbdt", "linear", "mlp"] {
        fixpoint::<ServeModel>(name);
    }
    fixpoint::<ServeStats>("stats");
    fixpoint::<Zoo>("shapes");
    let back: Zoo = serde_json::from_str(&golden("shapes.json")).unwrap();
    let want = zoo();
    // NaN-free fields compare by value; the non-finite one reads as NaN.
    assert_eq!(back.shapes.len(), want.shapes.len());
    for (a, b) in back.shapes.iter().zip(&want.shapes) {
        match (a, b) {
            (Shape::Newtype(x), Shape::Newtype(y)) => assert_eq!(x.to_bits(), y.to_bits()),
            _ => assert_eq!(a, b),
        }
    }
    assert_eq!(back.ints, want.ints);
    assert_eq!(back.text, want.text);
    assert!(back.nested[2][0].is_nan());
}

/// A splitmix64 stream: the proptest seeds one per case.
struct Bits(u64);

impl Bits {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Any finite f64, by bit pattern: subnormals, huge and tiny
    /// magnitudes, both zeros.
    fn f64(&mut self) -> f64 {
        loop {
            let f = f64::from_bits(self.next());
            if f.is_finite() {
                return f;
            }
        }
    }

    fn task(&mut self) -> Task {
        if self.below(2) == 0 {
            Task::Regression
        } else {
            Task::BinaryClassification
        }
    }

    fn tree(&mut self) -> DecisionTree {
        let nodes: Vec<TreeNode> = (0..1 + self.below(12))
            .map(|_| TreeNode {
                feature: self.next() as usize,
                threshold: self.f64(),
                left: self.next() as u32,
                right: self.next() as u32,
                value: self.f64(),
                cover: self.f64(),
                is_leaf: self.below(2) == 0,
            })
            .collect();
        DecisionTree {
            nodes: nodes.into(),
            n_features: self.next() as usize,
            task: self.task(),
        }
    }

    fn trees(&mut self) -> Vec<DecisionTree> {
        (0..self.below(4)).map(|_| self.tree()).collect()
    }

    fn floats(&mut self, n: u64) -> Vec<f64> {
        (0..n).map(|_| self.f64()).collect()
    }

    /// One of the four served families, every float drawn by bit pattern.
    /// The MLP keeps its weights private, so it is built from its JSON.
    fn model(&mut self) -> ServeModel {
        match self.below(4) {
            0 => ServeModel::Forest(RandomForest {
                trees: self.trees(),
                n_features: self.next() as usize,
                task: self.task(),
            }),
            1 => ServeModel::Gbdt(Gbdt {
                trees: self.trees(),
                base_score: self.f64(),
                learning_rate: self.f64(),
                n_features: self.next() as usize,
                task: self.task(),
            }),
            2 => {
                let n = self.below(8);
                ServeModel::Linear(LinearRegression {
                    coefficients: self.floats(n),
                    intercept: self.f64(),
                })
            }
            _ => {
                let layers: Vec<String> = (0..1 + self.below(3))
                    .map(|_| {
                        let (n_in, n_out) = (1 + self.below(3), 1 + self.below(3));
                        format!(
                            r#"{{"w":{},"b":{},"n_in":{n_in},"n_out":{n_out}}}"#,
                            serde_json::to_string(&self.floats(n_in * n_out)).unwrap(),
                            serde_json::to_string(&self.floats(n_out)).unwrap(),
                        )
                    })
                    .collect();
                let json = format!(
                    r#"{{"Mlp":{{"layers":[{}],"task":"Regression","n_features":{},"final_loss":{}}}}}"#,
                    layers.join(","),
                    self.next(),
                    serde_json::to_string(&self.f64()).unwrap(),
                );
                serde_json::from_str(&json).unwrap()
            }
        }
    }

    fn stats(&mut self) -> ServeStats {
        ServeStats {
            submitted: self.next(),
            completed: self.next(),
            rejected_queue_full: self.next(),
            rejected_deadline_unmeetable: self.next(),
            rejected_deadline_expired: self.next(),
            rejected_unknown_model: self.next(),
            rejected_invalid: self.next(),
            rejected_unknown_method: self.next(),
            explain_errors: self.next(),
            cache_hits: self.next(),
            cache_misses: self.next(),
            cache_hit_rate: self.f64(),
            batches: self.next(),
            batched_requests: self.next(),
            mean_batch_size: self.f64(),
            max_batch: self.next(),
            fused_groups: self.next(),
            fused_requests: self.next(),
            fused_rows: self.next(),
            fused_fill_ratio: self.f64(),
            dedup_rows_saved: self.next(),
            single_flight_hits: self.next(),
            probe_admits: self.next(),
            quantized_hits: self.next(),
            degraded_served: self.next(),
            refined_entries: self.next(),
            refine_dropped: self.next(),
            cache_hot_entries: self.next(),
            cache_cold_entries: self.next(),
            cache_hot_bytes: self.next(),
            cache_cold_bytes: self.next(),
            queue_wait_p50_us: self.f64(),
            queue_wait_p99_us: self.f64(),
            service_p50_us: self.f64(),
            service_p99_us: self.f64(),
            total_p50_us: self.f64(),
            total_p99_us: self.f64(),
            total_mean_us: self.f64(),
        }
    }
}

/// Bit-level equality of two tree lists.
fn same_trees(a: &[DecisionTree], b: &[DecisionTree]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.n_features == y.n_features
                && x.task == y.task
                && x.nodes.len() == y.nodes.len()
                && x.nodes.iter().zip(y.nodes.iter()).all(|(m, n)| {
                    (m.feature, m.left, m.right, m.is_leaf)
                        == (n.feature, n.left, n.right, n.is_leaf)
                        && m.threshold.to_bits() == n.threshold.to_bits()
                        && m.value.to_bits() == n.value.to_bits()
                        && m.cover.to_bits() == n.cover.to_bits()
                })
        })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Bit-level equality of two models. The MLP's weights are private: its
/// text is compared instead, which pins every bit because the shortest
/// round-trip form of a finite f64 (`-0.0` included) names exactly one
/// bit pattern.
fn same_model(a: &ServeModel, b: &ServeModel) -> bool {
    match (a, b) {
        (ServeModel::Forest(x), ServeModel::Forest(y)) => {
            same_trees(&x.trees, &y.trees) && (x.n_features, x.task) == (y.n_features, y.task)
        }
        (ServeModel::Gbdt(x), ServeModel::Gbdt(y)) => {
            same_trees(&x.trees, &y.trees)
                && (x.n_features, x.task) == (y.n_features, y.task)
                && bits(&[x.base_score, x.learning_rate]) == bits(&[y.base_score, y.learning_rate])
        }
        (ServeModel::Linear(x), ServeModel::Linear(y)) => {
            bits(&x.coefficients) == bits(&y.coefficients)
                && x.intercept.to_bits() == y.intercept.to_bits()
        }
        (ServeModel::Mlp(x), ServeModel::Mlp(y)) => {
            x == y && serde_json::to_string(x).unwrap() == serde_json::to_string(y).unwrap()
        }
        _ => false,
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    #[test]
    fn every_model_family_round_trips_bit_for_bit(seed in 0u64..u64::MAX) {
        let model = Bits(seed).model();
        for text in [
            serde_json::to_string(&model).unwrap(),
            serde_json::to_string_pretty(&model).unwrap(),
        ] {
            let back: ServeModel = serde_json::from_str(&text).unwrap();
            proptest::prop_assert!(same_model(&model, &back), "{} did not round-trip", model.kind());
        }
    }

    #[test]
    fn stats_round_trip_bit_for_bit(seed in 0u64..u64::MAX) {
        let stats = Bits(seed).stats();
        let back: ServeStats = serde_json::from_str(&serde_json::to_string(&stats).unwrap()).unwrap();
        proptest::prop_assert_eq!(&back, &stats);
        let floats = |s: &ServeStats| bits(&[
            s.cache_hit_rate, s.mean_batch_size, s.fused_fill_ratio, s.queue_wait_p50_us,
            s.queue_wait_p99_us, s.service_p50_us, s.service_p99_us, s.total_p50_us,
            s.total_p99_us, s.total_mean_us,
        ]);
        proptest::prop_assert_eq!(floats(&back), floats(&stats));
    }
}

/// A `Register` whose tree nodes omit a float field is refused: an absent
/// field is missing, never NaN. An explicit `null` still reads as NaN, the
/// form a non-finite float is written in.
#[test]
fn an_omitted_float_field_is_missing_not_nan() {
    let node = |threshold: &str| {
        format!(
            r#"{{"Forest":{{"trees":[{{"nodes":[{{"feature":0,{threshold}"left":0,"right":0,
            "value":0.5,"cover":1.0,"is_leaf":true}}],"n_features":1,"task":"Regression"}}],
            "n_features":1,"task":"Regression"}}}}"#
        )
    };
    let err = serde_json::from_str::<ServeModel>(&node("")).unwrap_err();
    assert_eq!(
        err.to_string(),
        "serde error: field `trees`: field `nodes`: missing field `threshold`"
    );
    let explicit: ServeModel = serde_json::from_str(&node(r#""threshold":null,"#)).unwrap();
    let ServeModel::Forest(f) = explicit else {
        panic!("a forest")
    };
    assert!(f.trees[0].nodes[0].threshold.is_nan());
}
