//! The physical Naive Bayes operators (§6.2): Gaussian training and
//! prediction.
//!
//! Training follows the paper exactly: "Each thread holds a hash table
//! [keyed by] the class [...] the number of tuples N is stored for each
//! class, as well as the sum of the attribute values Σ n.a and the sum of
//! the square of each attribute value Σ n.a² for each class and
//! attribute." The a-priori probability uses the paper's Laplace-smoothed
//! formula `PR(c) = (|c| + 1) / (|D| + |C|)`.

use std::collections::HashMap;

use hylite_common::governor::Governor;
use hylite_common::hash::FoldMap;
use hylite_common::morsel::map_morsels;
use hylite_common::{Chunk, ColumnVector, DataType, HyError, Result, Value};

/// A class label: the discrete types the binder admits for labels.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LabelValue {
    /// Integer label.
    Int(i64),
    /// String label.
    Str(String),
    /// Boolean label.
    Bool(bool),
}

impl LabelValue {
    /// From a scalar [`Value`]; NULL and floats are rejected.
    pub fn from_value(v: &Value) -> Result<LabelValue> {
        match v {
            Value::Int(x) => Ok(LabelValue::Int(*x)),
            Value::Str(s) => Ok(LabelValue::Str(s.clone())),
            Value::Bool(b) => Ok(LabelValue::Bool(*b)),
            other => Err(HyError::Analytics(format!(
                "invalid class label {other} (must be BIGINT, VARCHAR or BOOLEAN)"
            ))),
        }
    }

    /// Back to a scalar [`Value`].
    pub fn to_value(&self) -> Value {
        match self {
            LabelValue::Int(x) => Value::Int(*x),
            LabelValue::Str(s) => Value::Str(s.clone()),
            LabelValue::Bool(b) => Value::Bool(*b),
        }
    }
}

/// Per-class running moments: N, Σa and Σa² per attribute.
#[derive(Debug, Clone, Default)]
pub struct ClassMoments {
    /// Tuples seen for this class.
    pub n: u64,
    /// Σ of each attribute.
    pub sums: Vec<f64>,
    /// Σ of squares of each attribute.
    pub sum_sqs: Vec<f64>,
    /// Minimum of each attribute (for CLASS_STATS).
    pub mins: Vec<f64>,
    /// Maximum of each attribute (for CLASS_STATS).
    pub maxs: Vec<f64>,
}

impl ClassMoments {
    fn merge(&mut self, other: &ClassMoments) {
        self.n += other.n;
        for i in 0..self.sums.len() {
            self.sums[i] += other.sums[i];
            self.sum_sqs[i] += other.sum_sqs[i];
            self.mins[i] = self.mins[i].min(other.mins[i]);
            self.maxs[i] = self.maxs[i].max(other.maxs[i]);
        }
    }

    /// Mean of attribute `i`.
    pub fn mean(&self, i: usize) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sums[i] / self.n as f64
        }
    }

    /// Sample standard deviation of attribute `i` (0 when n < 2).
    pub fn stddev(&self, i: usize) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let nf = self.n as f64;
        (((self.sum_sqs[i] - self.sums[i] * self.sums[i] / nf) / (nf - 1.0)).max(0.0)).sqrt()
    }
}

/// Fold chunks into per-class moments under a resource [`Governor`]:
/// chunks are folded on the morsel scheduler (a cancellation/deadline
/// check per chunk) into per-chunk class tables, merged in chunk order.
/// The label is the LAST column; earlier columns are DOUBLE features.
/// Min/max are tracked only with `track_minmax` — CLASS_STATS needs them,
/// Naive Bayes training only N, Σa, Σa² (§6.2).
pub fn collect_moments_governed(
    chunks: &[Chunk],
    track_minmax: bool,
    governor: &Governor,
) -> Result<HashMap<LabelValue, ClassMoments>> {
    let Some(first) = chunks.first() else {
        return Ok(HashMap::new());
    };
    let d = first.num_columns().saturating_sub(1);
    if d == 0 {
        return Err(HyError::Analytics(
            "Naive Bayes needs at least one feature column plus the label".into(),
        ));
    }
    // Per-thread class tables, merged once at the end (paper §6.2).
    let locals = map_morsels(governor, chunks, |chunk| fold_chunk(chunk, d, track_minmax))?;
    let mut merged: HashMap<LabelValue, ClassMoments> = HashMap::new();
    for (label, moments) in locals.into_iter().flatten() {
        merged
            .entry(label)
            .and_modify(|m| m.merge(&moments))
            .or_insert(moments);
    }
    Ok(merged)
}

/// Resolve every row's label to a dense class id, numbered in first-seen
/// order within the chunk. Returns the classes and one id per row.
fn class_ids(label_col: &ColumnVector) -> Result<(Vec<LabelValue>, Vec<u32>)> {
    let mut classes = Vec::new();
    let mut ids = Vec::with_capacity(label_col.len());
    // Fast path: non-NULL BIGINT labels resolve without per-row Value
    // materialization (the common benchmark shape) — the previous row's
    // label first, which is all that sorted labels ever need.
    if let (0, Ok(labels)) = (label_col.null_count(), label_col.as_i64()) {
        let mut table: FoldMap<i64, u32> = FoldMap::default();
        let mut last = None;
        for &label in labels {
            let id = match last {
                Some((l, id)) if l == label => id,
                _ => *table.entry(label).or_insert_with(|| {
                    classes.push(LabelValue::Int(label));
                    classes.len() as u32 - 1
                }),
            };
            last = Some((label, id));
            ids.push(id);
        }
        return Ok((classes, ids));
    }
    let mut table: HashMap<LabelValue, u32> = HashMap::new();
    for i in 0..label_col.len() {
        let label = LabelValue::from_value(&label_col.value(i))?;
        let id = *table.entry(label).or_insert_with_key(|label| {
            classes.push(label.clone());
            classes.len() as u32 - 1
        });
        ids.push(id);
    }
    Ok((classes, ids))
}

/// One chunk's per-class moments, classes in first-seen order. Per
/// (class, attribute) the rows are added in row order, so the sums are
/// those of any other loop nest over the same rows.
fn fold_chunk(
    chunk: &Chunk,
    d: usize,
    track_minmax: bool,
) -> Result<Vec<(LabelValue, ClassMoments)>> {
    let feature_cols: Vec<&[f64]> = (0..d)
        .map(|i| chunk.column(i).as_f64())
        .collect::<Result<_>>()?;
    let (classes, ids) = class_ids(chunk.column(d))?;
    // (Σa, Σa²) and (min, max) per class and attribute, class-major: a
    // row touches `d` independent accumulators of its class.
    let mut sums = vec![[0.0f64; 2]; classes.len() * d];
    let mut ranges = vec![[f64::INFINITY, f64::NEG_INFINITY]; sums.len()];
    let mut counts = vec![0u64; classes.len()];
    for (i, &id) in ids.iter().enumerate() {
        counts[id as usize] += 1;
        let class = id as usize * d..(id as usize + 1) * d;
        for (col, sum) in feature_cols.iter().zip(&mut sums[class.clone()]) {
            let x = col[i];
            *sum = [sum[0] + x, sum[1] + x * x];
        }
        if track_minmax {
            for (col, range) in feature_cols.iter().zip(&mut ranges[class]) {
                *range = [range[0].min(col[i]), range[1].max(col[i])];
            }
        }
    }
    let moments = counts.iter().enumerate().map(|(c, &n)| {
        let column = |of: &[[f64; 2]], side: usize| -> Vec<f64> {
            of[c * d..(c + 1) * d].iter().map(|m| m[side]).collect()
        };
        ClassMoments {
            n,
            sums: column(&sums, 0),
            sum_sqs: column(&sums, 1),
            mins: column(&ranges, 0),
            maxs: column(&ranges, 1),
        }
    });
    Ok(classes.into_iter().zip(moments).collect())
}

/// One class of a trained Gaussian model.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassModel {
    /// The class label.
    pub label: LabelValue,
    /// Laplace-smoothed prior `(|c|+1)/(|D|+|C|)`.
    pub prior: f64,
    /// Per-attribute (mean, stddev).
    pub gaussians: Vec<(f64, f64)>,
}

/// A trained Gaussian Naive Bayes model.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBayesModel {
    /// Feature names, aligned with the gaussians.
    pub feature_names: Vec<String>,
    /// Classes, sorted by label for deterministic output.
    pub classes: Vec<ClassModel>,
}

/// Floor for stddev so degenerate attributes don't produce infinities.
const MIN_STDDEV: f64 = 1e-9;

impl NaiveBayesModel {
    /// Train from labeled chunks (features..., label).
    pub fn train(chunks: &[Chunk], feature_names: &[String]) -> Result<NaiveBayesModel> {
        NaiveBayesModel::train_governed(chunks, feature_names, &Governor::unlimited())
    }

    /// [`train`](NaiveBayesModel::train) under a resource [`Governor`]:
    /// see [`collect_moments_governed`].
    pub fn train_governed(
        chunks: &[Chunk],
        feature_names: &[String],
        governor: &Governor,
    ) -> Result<NaiveBayesModel> {
        let moments = collect_moments_governed(chunks, false, governor)?;
        if moments.is_empty() {
            return Err(HyError::Analytics(
                "Naive Bayes training input is empty".into(),
            ));
        }
        let total: u64 = moments.values().map(|m| m.n).sum();
        let num_classes = moments.len() as f64;
        let mut labels: Vec<&LabelValue> = moments.keys().collect();
        labels.sort();
        let classes = labels
            .into_iter()
            .map(|label| {
                let m = &moments[label];
                // The paper's smoothed prior: (|c|+1) / (|D|+|C|).
                let prior = (m.n as f64 + 1.0) / (total as f64 + num_classes);
                let gaussians = (0..feature_names.len())
                    .map(|a| (m.mean(a), m.stddev(a).max(MIN_STDDEV)))
                    .collect();
                ClassModel {
                    label: label.clone(),
                    prior,
                    gaussians,
                }
            })
            .collect();
        Ok(NaiveBayesModel {
            feature_names: feature_names.to_vec(),
            classes,
        })
    }

    /// Serialize to the model relation rows:
    /// `(class, attribute, prior, mean, stddev)`.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for class in &self.classes {
            for (a, name) in self.feature_names.iter().enumerate() {
                rows.push(vec![
                    class.label.to_value(),
                    Value::Str(name.clone()),
                    Value::Float(class.prior),
                    Value::Float(class.gaussians[a].0),
                    Value::Float(class.gaussians[a].1),
                ]);
            }
        }
        rows
    }

    /// Reconstruct a model from a model relation
    /// `(class, attribute, prior, mean, stddev)`, aligning attributes to
    /// `feature_names` (the prediction data's columns).
    pub fn from_relation(chunks: &[Chunk], feature_names: &[String]) -> Result<NaiveBayesModel> {
        // prior + one optional (mean, stddev) slot per expected attribute.
        type ClassSlots = (f64, Vec<Option<(f64, f64)>>);
        let mut by_class: HashMap<LabelValue, ClassSlots> = HashMap::new();
        let attr_index: HashMap<&str, usize> = feature_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        for chunk in chunks {
            if chunk.num_columns() != 5 {
                return Err(HyError::Analytics(format!(
                    "model relation must have 5 columns, found {}",
                    chunk.num_columns()
                )));
            }
            for i in 0..chunk.len() {
                let label = LabelValue::from_value(&chunk.column(0).value(i))?;
                let attr = chunk.column(1).value(i);
                let attr = attr.as_str().map_err(|_| {
                    HyError::Analytics("model attribute column must be VARCHAR".into())
                })?;
                let prior = chunk.column(2).value(i).as_float()?;
                let mean = chunk.column(3).value(i).as_float()?;
                let stddev = chunk.column(4).value(i).as_float()?;
                let Some(&a) = attr_index.get(attr) else {
                    return Err(HyError::Analytics(format!(
                        "model attribute '{attr}' does not match any prediction column \
                         (expected one of {feature_names:?})"
                    )));
                };
                let entry = by_class
                    .entry(label)
                    .or_insert_with(|| (prior, vec![None; feature_names.len()]));
                entry.0 = prior;
                entry.1[a] = Some((mean, stddev.max(MIN_STDDEV)));
            }
        }
        if by_class.is_empty() {
            return Err(HyError::Analytics("model relation is empty".into()));
        }
        let mut labels: Vec<LabelValue> = by_class.keys().cloned().collect();
        labels.sort();
        let classes = labels
            .into_iter()
            .map(|label| {
                let (prior, slots) = &by_class[&label];
                let gaussians = slots
                    .iter()
                    .enumerate()
                    .map(|(a, s)| {
                        s.ok_or_else(|| {
                            HyError::Analytics(format!(
                                "model is missing attribute '{}' for a class",
                                feature_names[a]
                            ))
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(ClassModel {
                    label,
                    prior: *prior,
                    gaussians,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(NaiveBayesModel {
            feature_names: feature_names.to_vec(),
            classes,
        })
    }

    /// Predict class labels for feature-only chunks under a resource
    /// [`Governor`]: chunks are scored on the morsel scheduler, with a
    /// cancellation/deadline check per chunk. Returns one label column per
    /// input chunk.
    pub fn predict_governed(
        &self,
        chunks: &[Chunk],
        governor: &Governor,
    ) -> Result<Vec<ColumnVector>> {
        let d = self.feature_names.len();
        map_morsels(governor, chunks, |chunk| {
            if chunk.num_columns() != d {
                return Err(HyError::Analytics(format!(
                    "prediction data has {} columns, model expects {d}",
                    chunk.num_columns()
                )));
            }
            let cols: Vec<&[f64]> = (0..d)
                .map(|i| chunk.column(i).as_f64())
                .collect::<Result<_>>()?;
            let label_type = self.classes[0].label.to_value().data_type();
            let mut out = ColumnVector::empty(label_type);
            for i in 0..chunk.len() {
                let mut best: Option<(f64, &ClassModel)> = None;
                for class in &self.classes {
                    // Log-space score: ln prior + Σ ln N(x; μ, σ).
                    let mut score = class.prior.ln();
                    for (a, col) in cols.iter().enumerate() {
                        let (mean, std) = class.gaussians[a];
                        let z = (col[i] - mean) / std;
                        score += -0.5 * z * z - std.ln();
                    }
                    if best.is_none_or(|(s, _)| score > s) {
                        best = Some((score, class));
                    }
                }
                let label = best.expect("model has ≥1 class").1.label.to_value();
                out.push_value(&label)?;
            }
            Ok(out)
        })
    }

    /// The type of the label column.
    pub fn label_type(&self) -> DataType {
        self.classes[0].label.to_value().data_type()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::ColumnVector as CV;

    /// Two well-separated 1-D classes: label 0 near 0.0, label 1 near 10.
    fn labeled() -> Vec<Chunk> {
        vec![Chunk::new(vec![
            CV::from_f64(vec![0.0, 0.5, -0.5, 10.0, 10.5, 9.5]),
            CV::from_i64(vec![0, 0, 0, 1, 1, 1]),
        ])]
    }

    #[test]
    fn train_priors_match_paper_formula() {
        let m = NaiveBayesModel::train(&labeled(), &["x".into()]).unwrap();
        assert_eq!(m.classes.len(), 2);
        // (3 + 1) / (6 + 2) = 0.5 for both classes.
        for c in &m.classes {
            assert!((c.prior - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn train_moments() {
        let m = NaiveBayesModel::train(&labeled(), &["x".into()]).unwrap();
        let c0 = &m.classes[0];
        assert_eq!(c0.label, LabelValue::Int(0));
        assert!((c0.gaussians[0].0 - 0.0).abs() < 1e-12, "mean");
        assert!((c0.gaussians[0].1 - 0.5).abs() < 1e-12, "sample stddev");
    }

    #[test]
    fn predict_recovers_labels() {
        let m = NaiveBayesModel::train(&labeled(), &["x".into()]).unwrap();
        let test = Chunk::new(vec![CV::from_f64(vec![0.2, 9.8, -1.0, 11.0])]);
        let labels = m.predict_governed(&[test], &Governor::unlimited()).unwrap();
        assert_eq!(labels[0].as_i64().unwrap(), &[0, 1, 0, 1]);
    }

    #[test]
    fn model_relation_roundtrip() {
        let names = vec!["x".to_string()];
        let m = NaiveBayesModel::train(&labeled(), &names).unwrap();
        let rows = m.to_rows();
        assert_eq!(rows.len(), 2, "2 classes × 1 attribute");
        let types = [
            DataType::Int64,
            DataType::Varchar,
            DataType::Float64,
            DataType::Float64,
            DataType::Float64,
        ];
        let chunk = Chunk::from_rows(&types, &rows).unwrap();
        let back = NaiveBayesModel::from_relation(&[chunk], &names).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn string_labels() {
        let data = Chunk::new(vec![
            CV::from_f64(vec![1.0, 1.2, 5.0, 5.2]),
            CV::from_str(vec!["ham", "ham", "spam", "spam"]),
        ]);
        let m = NaiveBayesModel::train(&[data], &["len".into()]).unwrap();
        assert_eq!(m.label_type(), DataType::Varchar);
        let test = Chunk::new(vec![CV::from_f64(vec![1.1, 5.1])]);
        let labels = m.predict_governed(&[test], &Governor::unlimited()).unwrap();
        assert_eq!(
            labels[0].as_varchar().unwrap(),
            &["ham".to_string(), "spam".to_string()]
        );
    }

    #[test]
    fn parallel_matches_serial() {
        // Many small chunks vs one big chunk must give identical models
        // up to floating-point association (moments are sums).
        let xs: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        let ls: Vec<i64> = (0..1000).map(|i| (i % 2) as i64).collect();
        let big = Chunk::new(vec![CV::from_f64(xs.clone()), CV::from_i64(ls.clone())]);
        let small: Vec<Chunk> = (0..10).map(|i| big.slice(i * 100, 100)).collect();
        let a = NaiveBayesModel::train(&[big], &["x".into()]).unwrap();
        let b = NaiveBayesModel::train(&small, &["x".into()]).unwrap();
        for (ca, cb) in a.classes.iter().zip(&b.classes) {
            assert_eq!(ca.label, cb.label);
            assert!((ca.prior - cb.prior).abs() < 1e-12);
            assert!((ca.gaussians[0].0 - cb.gaussians[0].0).abs() < 1e-9);
            assert!((ca.gaussians[0].1 - cb.gaussians[0].1).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(NaiveBayesModel::train(&[], &["x".into()]).is_err());
        // Float labels rejected.
        let data = Chunk::new(vec![CV::from_f64(vec![1.0]), CV::from_f64(vec![0.5])]);
        assert!(NaiveBayesModel::train(&[data], &["x".into()]).is_err());
        // Width mismatch at prediction.
        let m = NaiveBayesModel::train(&labeled(), &["x".into()]).unwrap();
        let test = Chunk::new(vec![CV::from_f64(vec![1.0]), CV::from_f64(vec![1.0])]);
        assert!(m.predict_governed(&[test], &Governor::unlimited()).is_err());
    }

    #[test]
    fn degenerate_attribute_does_not_blow_up() {
        // Constant feature → stddev 0 → floored; prediction still works.
        let data = Chunk::new(vec![
            CV::from_f64(vec![1.0, 1.0, 1.0, 1.0]),
            CV::from_i64(vec![0, 0, 1, 1]),
        ]);
        let m = NaiveBayesModel::train(&[data], &["x".into()]).unwrap();
        let test = Chunk::new(vec![CV::from_f64(vec![1.0])]);
        let labels = m.predict_governed(&[test], &Governor::unlimited()).unwrap();
        assert_eq!(labels[0].len(), 1);
    }
}
