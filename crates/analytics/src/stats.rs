//! Per-class statistics — the reusable building-block operator of §6.2
//! ("the generation of additional statistical measures is handled by two
//! additional operators that are not limited to Naive Bayes but can be
//! used as a building block for multiple algorithms").

use hylite_common::governor::Governor;
use hylite_common::{Chunk, Result, Value};

use crate::naive_bayes::{collect_moments_governed, LabelValue};

/// One output row of the CLASS_STATS operator.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStatsRow {
    /// The class label.
    pub class: LabelValue,
    /// Attribute name.
    pub attribute: String,
    /// Tuples in the class.
    pub count: u64,
    /// Attribute mean within the class.
    pub mean: f64,
    /// Sample standard deviation within the class.
    pub stddev: f64,
    /// Minimum within the class.
    pub min: f64,
    /// Maximum within the class.
    pub max: f64,
}

impl ClassStatsRow {
    /// To a relation row `(class, attribute, count, mean, stddev, min, max)`.
    pub fn to_values(&self) -> Vec<Value> {
        vec![
            self.class.to_value(),
            Value::Str(self.attribute.clone()),
            Value::Int(self.count as i64),
            Value::Float(self.mean),
            Value::Float(self.stddev),
            Value::Float(self.min),
            Value::Float(self.max),
        ]
    }
}

/// Compute per-class, per-attribute statistics under a resource
/// [`Governor`] (see [`collect_moments_governed`]). Input chunks hold
/// DOUBLE feature columns with the label last (same contract as Naive
/// Bayes training — both share the moment-collection pass).
pub fn class_stats_governed(
    chunks: &[Chunk],
    feature_names: &[String],
    governor: &Governor,
) -> Result<Vec<ClassStatsRow>> {
    let moments = collect_moments_governed(chunks, true, governor)?;
    let mut labels: Vec<&LabelValue> = moments.keys().collect();
    labels.sort();
    let mut out = Vec::with_capacity(labels.len() * feature_names.len());
    for label in labels {
        let m = &moments[label];
        for (a, name) in feature_names.iter().enumerate() {
            out.push(ClassStatsRow {
                class: label.clone(),
                attribute: name.clone(),
                count: m.n,
                mean: m.mean(a),
                stddev: m.stddev(a),
                min: m.mins[a],
                max: m.maxs[a],
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::ColumnVector as CV;

    #[test]
    fn stats_per_class() {
        let data = Chunk::new(vec![
            CV::from_f64(vec![1.0, 3.0, 10.0, 20.0]),
            CV::from_i64(vec![0, 0, 1, 1]),
        ]);
        let rows =
            class_stats_governed(&[data], &["x".to_string()], &Governor::unlimited()).unwrap();
        assert_eq!(rows.len(), 2);
        let c0 = &rows[0];
        assert_eq!(c0.class, LabelValue::Int(0));
        assert_eq!(c0.count, 2);
        assert!((c0.mean - 2.0).abs() < 1e-12);
        assert!((c0.min - 1.0).abs() < 1e-12);
        assert!((c0.max - 3.0).abs() < 1e-12);
        // stddev of {1,3} (sample) = sqrt(2)
        assert!((c0.stddev - 2.0f64.sqrt()).abs() < 1e-12);
        let c1 = &rows[1];
        assert!((c1.mean - 15.0).abs() < 1e-12);
    }

    #[test]
    fn multiple_attributes() {
        let data = Chunk::new(vec![
            CV::from_f64(vec![1.0, 2.0]),
            CV::from_f64(vec![10.0, 20.0]),
            CV::from_str(vec!["a", "a"]),
        ]);
        let rows = class_stats_governed(
            &[data],
            &["x".to_string(), "y".to_string()],
            &Governor::unlimited(),
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].attribute, "x");
        assert_eq!(rows[1].attribute, "y");
        assert!((rows[1].mean - 15.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_gives_no_rows() {
        let rows = class_stats_governed(&[], &["x".to_string()], &Governor::unlimited()).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn row_serialization() {
        let data = Chunk::new(vec![CV::from_f64(vec![1.0]), CV::from_i64(vec![7])]);
        let rows =
            class_stats_governed(&[data], &["x".to_string()], &Governor::unlimited()).unwrap();
        let vals = rows[0].to_values();
        assert_eq!(vals[0], Value::Int(7));
        assert_eq!(vals[1], Value::from("x"));
        assert_eq!(vals[2], Value::Int(1));
    }
}
