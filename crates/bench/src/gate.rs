//! Timing and baseline gates shared by the `repro bench-*` commands.
//!
//! Every timed cell runs through [`min_wall`]; every summary number is a
//! [`geomean`]. A command writes its `BENCH_*.json` document and then,
//! with `--check-baseline`, [`check`]s that same document against a
//! committed baseline under the command's [`Table`]: the number gated is
//! the number written.

use std::time::Instant;

use ebcp_harness::Value;

/// The largest fraction a gated number may drop below its baseline.
pub const MAX_DROP: f64 = 0.25;

/// One command's gates: the keys that name the configuration a document
/// was measured at, and the keys whose values are gated.
#[derive(Debug)]
pub struct Table {
    /// Keys whose values must be equal in the document and the baseline:
    /// a number measured at one configuration says nothing about another.
    pub identity: &'static [&'static str],
    /// Keys whose values may drop at most [`MAX_DROP`] below the
    /// baseline's.
    pub gated: &'static [&'static str],
}

/// `repro bench-throughput`: the matrix, sweep, lockstep and CMP DES
/// geometric means, at one machine scale.
pub const THROUGHPUT: Table = Table {
    identity: &["scale_den"],
    gated: &[
        "geomean_mips",
        "sweep_geomean_mips",
        "lockstep_geomean_mips",
        "cmp_geomean_mips",
    ],
};

/// `repro bench-trace-scale`: the segmented geometric mean, at one tier
/// and machine scale.
pub const TRACE_SCALE: Table = Table {
    identity: &["tier", "scale_den"],
    gated: &["geomean_mips"],
};

/// Runs `f` `reps` times and returns the shortest wall time in seconds
/// with the last run's result. The minimum is the robust estimator of a
/// cell's cost on a shared host, where one scheduler hiccup smears a
/// single shot by 20-30%.
///
/// # Panics
///
/// Panics if `reps` is zero.
pub fn min_wall<T>(reps: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps > 0, "a timed cell runs at least once");
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("reps > 0"))
}

/// Geometric mean of the positive values (robust to one fast cell
/// dominating an arithmetic mean); `0.0` when there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for v in values.into_iter().filter(|&v| v > 0.0) {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// Checks the document a command just built against a committed
/// baseline under `table`.
///
/// Returns `(key, current, baseline)` for every gated key on success.
///
/// # Errors
///
/// Fails, naming the key, if an identity value differs or is missing
/// from either document, if a gated key is missing from either
/// document or not positive in the baseline, or if a gated value
/// dropped more than [`MAX_DROP`] below the baseline's.
pub fn check(
    doc: &Value,
    baseline: &Value,
    table: &Table,
) -> Result<Vec<(&'static str, f64, f64)>, String> {
    for &key in table.identity {
        let cur = doc
            .get(key)
            .ok_or_else(|| format!("the measured document has no {key}"))?;
        let base = baseline
            .get(key)
            .ok_or_else(|| format!("baseline has no {key}"))?;
        if cur != base {
            return Err(format!(
                "baseline {key} {} does not match the measured {key} {}; \
                 re-record the baseline at this configuration",
                base.to_json(),
                cur.to_json()
            ));
        }
    }
    let mut passed = Vec::with_capacity(table.gated.len());
    for &key in table.gated {
        let cur = doc
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("the measured document has no {key}"))?;
        let base = baseline
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("baseline has no {key}"))?;
        if base <= 0.0 {
            return Err(format!("baseline {key} not positive: {base}"));
        }
        let floor = base * (1.0 - MAX_DROP);
        if cur < floor {
            return Err(format!(
                "{key} regressed: {cur:.1} is below {floor:.1} ({:.0}% of baseline {base:.1})",
                (1.0 - MAX_DROP) * 100.0
            ));
        }
        passed.push((key, cur, base));
    }
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: Table = Table {
        identity: &["tier", "scale_den"],
        gated: &["a_mips", "b_mips"],
    };

    fn doc(fields: &[(&str, Value)]) -> Value {
        Value::Obj(
            fields
                .iter()
                .map(|(k, v)| ((*k).to_owned().into(), v.clone()))
                .collect(),
        )
    }

    fn full(a: f64, b: f64) -> Vec<(&'static str, Value)> {
        vec![
            ("tier", Value::Str("quick".into())),
            ("scale_den", Value::Int(16)),
            ("a_mips", Value::Num(a)),
            ("b_mips", Value::Num(b)),
        ]
    }

    fn without(mut fields: Vec<(&'static str, Value)>, key: &str) -> Vec<(&'static str, Value)> {
        fields.retain(|(k, _)| *k != key);
        fields
    }

    fn with(
        mut fields: Vec<(&'static str, Value)>,
        key: &str,
        v: Value,
    ) -> Vec<(&'static str, Value)> {
        fields.iter_mut().find(|(k, _)| *k == key).unwrap().1 = v;
        fields
    }

    #[test]
    fn check_cases() {
        let base = full(40.0, 100.0);
        // (case, measured document, baseline, expected error substring;
        // None = pass).
        let cases: Vec<(&str, Vec<_>, Vec<_>, Option<&str>)> = vec![
            ("within bound", full(31.0, 76.0), base.clone(), None),
            (
                "beyond bound",
                full(31.0, 74.0),
                base.clone(),
                Some("b_mips regressed"),
            ),
            (
                "gated key missing from the baseline",
                full(40.0, 100.0),
                without(base.clone(), "b_mips"),
                Some("baseline has no b_mips"),
            ),
            (
                "baseline value not positive",
                full(40.0, 100.0),
                with(base.clone(), "a_mips", Value::Num(0.0)),
                Some("a_mips not positive"),
            ),
            (
                "identity mismatch",
                with(full(40.0, 100.0), "scale_den", Value::Int(4)),
                base.clone(),
                Some("scale_den"),
            ),
            (
                "identity missing from the baseline",
                full(40.0, 100.0),
                without(base.clone(), "tier"),
                Some("baseline has no tier"),
            ),
            (
                "gated key absent from the measured document",
                without(full(40.0, 100.0), "a_mips"),
                base.clone(),
                Some("measured document has no a_mips"),
            ),
        ];
        for (case, cur, baseline, want) in cases {
            let got = check(&doc(&cur), &doc(&baseline), &TABLE);
            match (got, want) {
                (Ok(passed), None) => {
                    let keys: Vec<_> = passed.iter().map(|p| p.0).collect();
                    assert_eq!(keys, TABLE.gated, "{case}");
                }
                (Err(e), Some(want)) => assert!(e.contains(want), "{case}: {e}"),
                (got, want) => panic!("{case}: got {got:?}, want error {want:?}"),
            }
        }
    }

    #[test]
    fn geomean_math() {
        assert!((geomean([10.0, 40.0]) - 20.0).abs() < 1e-9);
        assert!(
            (geomean([30.0, 0.0, 120.0]) - 60.0).abs() < 1e-9,
            "skips zeros"
        );
        assert_eq!(geomean([]), 0.0);
    }

    #[test]
    fn min_wall_keeps_the_last_result() {
        let mut calls = 0;
        let (secs, last) = min_wall(3, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (3, 3));
        assert!(secs >= 0.0 && secs.is_finite());
    }

    /// The committed baselines carry every identity and gated key of
    /// their command's table, each gated value is positive, and the
    /// identity matches the quick scale the CI gate steps run at.
    #[test]
    fn committed_baselines_carry_every_key() {
        let quick = crate::Scale::quick();
        let committed = [
            (
                include_str!("../baselines/throughput_quick.json"),
                THROUGHPUT,
                crate::throughput::to_json(quick, &[], &[], &[], &[]),
            ),
            (
                include_str!("../baselines/trace_scale_quick.json"),
                TRACE_SCALE,
                crate::tracescale::to_json(quick, false, &[], None),
            ),
        ];
        for (text, table, quick_doc) in committed {
            let baseline = ebcp_harness::json::parse(text).expect("baseline parses");
            for &key in table.identity {
                assert_eq!(
                    baseline.get(key),
                    quick_doc.get(key),
                    "baseline identity {key}"
                );
            }
            for &key in table.gated {
                let v = baseline.get(key).and_then(Value::as_f64);
                assert!(v.is_some_and(|v| v > 0.0), "baseline {key}: {v:?}");
            }
        }
    }
}
