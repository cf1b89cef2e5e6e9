//! Sweep grids: the unit of work a client submits.
//!
//! A sweep is named, not serialized: workload preset names × prefetcher
//! names × a [`Scale`]. Both ends of the wire resolve the same names
//! through the same workspace code ([`SweepSpec::jobs`]), so the
//! daemon's content-addressed [`Job`]s are identical to the ones a
//! local run would build — the memo, the disk store, and the
//! byte-identical `results.json` contract all hang off that.

use ebcp_core::EbcpConfig;
use ebcp_harness::{CmpJob, Job, Scale, Value};
use ebcp_prefetch::{BaselineConfig, FaultConfig};
use ebcp_sim::PrefetcherSpec;
use ebcp_trace::WorkloadSpec;

/// A named sweep: the cross product of workloads and prefetchers at
/// one scale. Order matters — it is the submission (and results.json)
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Workload preset names (subset of the paper's four plus the
    /// evolving-graph preset, `graph`).
    pub workloads: Vec<String>,
    /// Prefetcher names (see [`SweepSpec::resolve_prefetcher`]).
    pub prefetchers: Vec<String>,
    /// CMP core counts (1..=64). Empty = single-core only: the sweep
    /// carries no CMP cells and its `results.json` is byte-identical
    /// to the pre-CMP format. Non-empty adds one multi-core cell per
    /// workload × count × prefetcher, routed through the
    /// discrete-event CMP engine.
    pub cores: Vec<u64>,
    /// Experiment scale.
    pub scale: Scale,
}

impl SweepSpec {
    /// Resolves a prefetcher name at `scale`: `none`, `ebcp`,
    /// `ebcp-minus`, any Figure 9 roster baseline (`ghb-small`,
    /// `ghb-large`, `tcp-small`, `tcp-large`, `stream`, `sms`,
    /// `solihin-3,2`, `solihin-6,1`), a modern roster competitor
    /// (`triangel`, `amc`), or `fault` — the fault-injection
    /// prefetcher, kept addressable so isolation is testable end to
    /// end. A `+nof` suffix wraps any of the above in the neural
    /// off-chip filter (`ebcp+nof`, `stream+nof`, ...).
    ///
    /// # Errors
    ///
    /// An unknown name (the message lists the roster).
    pub fn resolve_prefetcher(name: &str, scale: &Scale) -> Result<PrefetcherSpec, String> {
        if let Some(inner) = name.strip_suffix("+nof") {
            let inner = Self::resolve_prefetcher(inner, scale)?;
            return Ok(PrefetcherSpec::filtered(inner));
        }
        match name {
            "none" => Ok(PrefetcherSpec::None),
            "ebcp" => Ok(PrefetcherSpec::Ebcp(
                EbcpConfig::comparison().with_table_entries(scale.entries(1 << 20)),
            )),
            "ebcp-minus" => Ok(PrefetcherSpec::Ebcp(
                EbcpConfig::comparison_minus().with_table_entries(scale.entries(1 << 20)),
            )),
            "fault" => Ok(PrefetcherSpec::baseline(
                "fault",
                BaselineConfig::Fault(FaultConfig::panic_after(0)),
            )),
            other => scale
                .figure9_roster()
                .into_iter()
                .chain(scale.modern_roster())
                .find(|(n, _)| *n == other)
                .map(|(n, c)| PrefetcherSpec::baseline(n, c))
                .ok_or_else(|| {
                    format!(
                        "unknown prefetcher {other:?}; known: none, ebcp, ebcp-minus, fault, \
                         ghb-small, ghb-large, tcp-small, tcp-large, stream, sms, \
                         solihin-3,2, solihin-6,1, triangel, amc, and any of those \
                         with a +nof suffix"
                    )
                }),
        }
    }

    /// Expands the grid into submission-ordered jobs (workload-major,
    /// matching the figure drivers).
    ///
    /// # Errors
    ///
    /// An unknown workload or prefetcher name, or an empty axis.
    pub fn jobs(&self) -> Result<Vec<Job>, String> {
        if self.workloads.is_empty() || self.prefetchers.is_empty() {
            return Err("a sweep needs at least one workload and one prefetcher".into());
        }
        let presets = self.scale.workloads_all();
        let machine = self.scale.machine();
        let pfs: Vec<PrefetcherSpec> = self
            .prefetchers
            .iter()
            .map(|n| Self::resolve_prefetcher(n, &self.scale))
            .collect::<Result<_, _>>()?;
        let mut jobs = Vec::with_capacity(self.workloads.len() * pfs.len());
        for wname in &self.workloads {
            let w = presets
                .iter()
                .find(|w| &w.name == wname)
                .ok_or_else(|| format!("unknown workload {wname:?}"))?;
            let spec = self.scale.run_spec(w, machine);
            for pf in &pfs {
                jobs.push(Job::new(spec.clone(), pf.clone()));
            }
        }
        Ok(jobs)
    }

    /// Expands the CMP grid into submission-ordered cells
    /// (workload-major, then core count, then prefetcher). Empty when
    /// the sweep has no `cores` axis.
    ///
    /// Cells are built through the one shared recipe
    /// ([`Scale::cmp_spec`], from the **unscaled** presets), so the
    /// daemon's content-addressed [`CmpJob`]s are identical to the ones
    /// `repro cmp` or a local `repro sweep --cores` would build — same
    /// id, same memo, same disk cache.
    ///
    /// # Errors
    ///
    /// An unknown workload or prefetcher name, or a core count outside
    /// `1..=64`.
    pub fn cmp_jobs(&self) -> Result<Vec<CmpJob>, String> {
        if self.cores.is_empty() {
            return Ok(Vec::new());
        }
        if let Some(&n) = self.cores.iter().find(|&&n| n == 0 || n > 64) {
            return Err(format!("core count {n} outside 1..=64"));
        }
        let presets = WorkloadSpec::extended_presets();
        let pfs: Vec<PrefetcherSpec> = self
            .prefetchers
            .iter()
            .map(|n| Self::resolve_prefetcher(n, &self.scale))
            .collect::<Result<_, _>>()?;
        let mut jobs = Vec::with_capacity(self.workloads.len() * self.cores.len() * pfs.len());
        for wname in &self.workloads {
            let preset = presets
                .iter()
                .find(|w| &w.name == wname)
                .ok_or_else(|| format!("unknown workload {wname:?}"))?;
            for &n in &self.cores {
                let spec = self.scale.cmp_spec(preset, n as usize);
                for pf in &pfs {
                    jobs.push(CmpJob::new(spec.clone(), pf.clone()));
                }
            }
        }
        Ok(jobs)
    }

    /// Wire encoding (the names and scale numbers, nothing resolved).
    /// The `cores` axis is encoded only when non-empty, so a
    /// single-core sweep's encoding is unchanged from older clients.
    pub fn to_value(&self) -> Value {
        let strs = |v: &[String]| Value::Arr(v.iter().map(|s| Value::Str(s.clone())).collect());
        let mut fields = vec![
            ("workloads".into(), strs(&self.workloads)),
            ("prefetchers".into(), strs(&self.prefetchers)),
        ];
        if !self.cores.is_empty() {
            fields.push((
                "cores".into(),
                Value::Arr(self.cores.iter().map(|&n| Value::Int(n)).collect()),
            ));
        }
        fields.push((
            "scale".into(),
            Value::Obj(vec![
                ("den".into(), Value::Int(self.scale.den)),
                ("warm_tenths".into(), Value::Int(self.scale.warm_tenths)),
                (
                    "measure_tenths".into(),
                    Value::Int(self.scale.measure_tenths),
                ),
                ("seed".into(), Value::Int(self.scale.seed)),
            ]),
        ));
        Value::Obj(fields)
    }

    /// Decodes the wire encoding.
    ///
    /// # Errors
    ///
    /// A missing or mistyped field, or a scale `den` that is not a power
    /// of two in `1..=`[`Scale::MAX_DEN`] (the machine cannot be built
    /// at any other).
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let strs = |key: &str| -> Result<Vec<String>, String> {
            v.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("sweep missing {key:?} array"))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| format!("non-string entry in {key:?}"))
                })
                .collect()
        };
        let scale = v.get("scale").ok_or("sweep missing \"scale\"")?;
        let num = |key: &str| -> Result<u64, String> {
            scale
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("scale missing {key:?}"))
        };
        // Absent-tolerant: sweeps from pre-CMP clients carry no
        // "cores" key, which decodes as the empty axis.
        let cores: Vec<u64> = match v.get("cores") {
            None => Vec::new(),
            Some(arr) => arr
                .as_arr()
                .ok_or("\"cores\" is not an array")?
                .iter()
                .map(|n| {
                    n.as_u64()
                        .ok_or_else(|| "non-integer core count".to_owned())
                })
                .collect::<Result<_, _>>()?,
        };
        let den = num("den")?;
        if !den.is_power_of_two() || den > Scale::MAX_DEN {
            return Err(format!(
                "scale den {den} is not a power of two in 1..={}",
                Scale::MAX_DEN
            ));
        }
        Ok(SweepSpec {
            workloads: strs("workloads")?,
            prefetchers: strs("prefetchers")?,
            cores,
            scale: Scale {
                den,
                warm_tenths: num("warm_tenths")?,
                measure_tenths: num("measure_tenths")?,
                seed: num("seed")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> SweepSpec {
        SweepSpec {
            workloads: vec!["database".into(), "tpcw".into()],
            prefetchers: vec!["none".into(), "ebcp".into(), "stream".into()],
            cores: Vec::new(),
            scale: Scale::quick(),
        }
    }

    #[test]
    fn grid_expands_workload_major() {
        let jobs = sweep().jobs().unwrap();
        assert_eq!(jobs.len(), 6);
        assert_eq!(jobs[0].spec.workload.name, "database");
        assert_eq!(jobs[0].pf.name(), "none");
        assert_eq!(jobs[2].pf.name(), "stream");
        assert_eq!(jobs[3].spec.workload.name, "tpcw");
    }

    #[test]
    fn wire_round_trip_preserves_the_grid() {
        let s = sweep();
        let text = s.to_value().to_json();
        let back = SweepSpec::from_value(&ebcp_harness::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        // Same grid → same content-addressed jobs on both ends.
        let a: Vec<_> = s.jobs().unwrap().iter().map(Job::id).collect();
        let b: Vec<_> = back.jobs().unwrap().iter().map(Job::id).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_names_are_rejected_with_the_roster() {
        let mut s = sweep();
        s.prefetchers = vec!["bogus".into()];
        let err = s.jobs().unwrap_err();
        assert!(err.contains("unknown prefetcher") && err.contains("solihin-6,1"));
        let mut s = sweep();
        s.workloads = vec!["nope".into()];
        assert!(s.jobs().unwrap_err().contains("unknown workload"));
    }

    #[test]
    fn cmp_grid_expands_and_round_trips() {
        // No cores axis: no CMP cells, and no "cores" key on the wire
        // (single-core encodings stay byte-identical).
        let s = sweep();
        assert!(s.cmp_jobs().unwrap().is_empty());
        assert!(!s.to_value().to_json().contains("cores"));

        let mut s = sweep();
        s.cores = vec![1, 4];
        let cells = s.cmp_jobs().unwrap();
        // workload-major × cores × prefetchers.
        assert_eq!(cells.len(), 2 * 2 * 3);
        assert_eq!(cells[0].spec.name, "database-mix");
        assert_eq!(cells[0].cores(), 1);
        assert_eq!(cells[0].pf.name(), "none");
        assert_eq!(cells[3].cores(), 4);
        assert_eq!(cells[6].spec.name, "tpcw-mix");

        // Wire round-trip preserves the axis and the content hashes.
        let text = s.to_value().to_json();
        let back = SweepSpec::from_value(&ebcp_harness::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        let a: Vec<_> = cells.iter().map(CmpJob::id).collect();
        let b: Vec<_> = back.cmp_jobs().unwrap().iter().map(CmpJob::id).collect();
        assert_eq!(a, b);

        // Out-of-range counts are rejected.
        s.cores = vec![65];
        assert!(s.cmp_jobs().unwrap_err().contains("1..=64"));
    }

    /// Every name [`SweepSpec::resolve_prefetcher`] knows, plus
    /// compositions with the off-chip filter.
    const ROSTER: [&str; 17] = [
        "none",
        "ebcp",
        "ebcp-minus",
        "fault",
        "ghb-small",
        "ghb-large",
        "tcp-small",
        "tcp-large",
        "stream",
        "sms",
        "solihin-3,2",
        "solihin-6,1",
        "triangel",
        "amc",
        "ebcp+nof",
        "stream+nof",
        "triangel+nof",
    ];

    #[test]
    fn every_roster_name_resolves() {
        for n in ROSTER {
            let pf = SweepSpec::resolve_prefetcher(n, &Scale::quick()).unwrap();
            assert_eq!(pf.name(), n);
        }
        // The suffix composes with resolution, not with arbitrary text.
        assert!(SweepSpec::resolve_prefetcher("bogus+nof", &Scale::quick()).is_err());
    }

    #[test]
    fn graph_workload_and_modern_names_expand_to_jobs() {
        let s = SweepSpec {
            workloads: vec!["graph".into()],
            prefetchers: vec!["triangel".into(), "amc".into(), "ebcp+nof".into()],
            cores: vec![2],
            scale: Scale::quick(),
        };
        let jobs = s.jobs().unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].spec.workload.name, "graph");
        assert!(jobs[0].spec.workload.evolve_every_execs > 0);
        assert_eq!(jobs[2].pf.name(), "ebcp+nof");
        assert_eq!(s.cmp_jobs().unwrap().len(), 3);

        // Wire round-trip preserves the grid and the content hashes.
        let text = s.to_value().to_json();
        let back = SweepSpec::from_value(&ebcp_harness::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        let a: Vec<_> = jobs.iter().map(Job::id).collect();
        let b: Vec<_> = back.jobs().unwrap().iter().map(Job::id).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn max_den_is_the_largest_scale_the_machine_and_roster_build_at() {
        let scale = Scale {
            den: Scale::MAX_DEN,
            ..Scale::quick()
        };
        let _ = scale.machine();
        for n in ROSTER {
            let pf = SweepSpec::resolve_prefetcher(n, &scale).unwrap();
            assert_eq!(pf.build().name(), n);
        }
        let s = SweepSpec {
            workloads: scale.workloads_all().into_iter().map(|w| w.name).collect(),
            prefetchers: vec!["none".into(), "ebcp".into()],
            cores: vec![1, 64],
            scale,
        };
        assert_eq!(s.jobs().unwrap().len(), 5 * 2);
        assert_eq!(s.cmp_jobs().unwrap().len(), 5 * 2 * 2);
        // One power of two further and the L1s hold less than one set.
        let beyond = Scale {
            den: Scale::MAX_DEN * 2,
            ..scale
        };
        assert!(std::panic::catch_unwind(|| beyond.machine()).is_err());
    }

    #[test]
    fn scale_den_outside_the_buildable_range_is_rejected() {
        for den in [0, 3, 96, Scale::MAX_DEN * 2, 1 << 40] {
            let mut s = sweep();
            s.scale.den = den;
            let err = SweepSpec::from_value(&s.to_value()).unwrap_err();
            assert!(err.contains("scale den"), "den {den}: {err}");
        }
        for den in [1, 16, Scale::MAX_DEN] {
            let mut s = sweep();
            s.scale.den = den;
            assert_eq!(SweepSpec::from_value(&s.to_value()).unwrap(), s);
        }
    }
}
