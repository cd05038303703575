//! Scenario parameter schemas, presets and override parsing.
//!
//! Every scenario declares its knobs as [`ParamSpec`]s: a name, a
//! one-line description, and a value for each scale preset. The CLI
//! resolves a preset, applies `--set name=value` overrides (parsed and
//! type-checked against the schema *before* anything runs), and hands the
//! scenario a read-only [`ResolvedParams`] view.

use std::fmt;

/// Run scale preset.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub enum Scale {
    /// Shrunken parameters for CI smoke runs.
    Quick,
    /// Paper-scale parameters (the default, mirroring the figures).
    Paper,
}

impl Scale {
    /// Lower-case preset name as recorded in reports.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }
}

/// A typed parameter value.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamValue {
    /// Integer knob (counts, sizes, seeds; `0` conventionally means
    /// "disabled" where a scenario documents it).
    Int(i64),
    /// Floating-point knob (resolutions, thresholds).
    Float(f64),
    /// Text knob (secrets, labels).
    Str(String),
    /// Integer sweep axis, e.g. `25,50,100`.
    IntList(Vec<i64>),
    /// Text sweep axis, e.g. `5us,fuzzy-5us,1ms`.
    StrList(Vec<String>),
}

impl ParamValue {
    /// Kind name for messages and `describe` output.
    pub fn kind(&self) -> &'static str {
        match self {
            ParamValue::Int(_) => "int",
            ParamValue::Float(_) => "float",
            ParamValue::Str(_) => "str",
            ParamValue::IntList(_) => "int-list",
            ParamValue::StrList(_) => "str-list",
        }
    }

    /// Parse `text` as the same kind as `self` (the preset value fixes
    /// each parameter's type).
    pub fn parse_same_kind(&self, text: &str) -> Result<ParamValue, String> {
        let fail = |what: &str| Err(format!("expected {what}, got {text:?}"));
        match self {
            ParamValue::Int(_) => match text.parse() {
                Ok(v) => Ok(ParamValue::Int(v)),
                Err(_) => fail("an integer"),
            },
            ParamValue::Float(_) => match text.parse() {
                Ok(v) => Ok(ParamValue::Float(v)),
                Err(_) => fail("a number"),
            },
            ParamValue::Str(_) => Ok(ParamValue::Str(text.to_string())),
            ParamValue::IntList(_) => {
                let mut out = Vec::new();
                for part in text.split(',').filter(|p| !p.is_empty()) {
                    match part.trim().parse() {
                        Ok(v) => out.push(v),
                        Err(_) => return fail("a comma-separated integer list"),
                    }
                }
                Ok(ParamValue::IntList(out))
            }
            ParamValue::StrList(_) => Ok(ParamValue::StrList(
                text.split(',')
                    .filter(|p| !p.is_empty())
                    .map(|p| p.trim().to_string())
                    .collect(),
            )),
        }
    }

    /// JSON form for the report's `config` object.
    pub fn to_value(&self) -> racer_results::Value {
        use racer_results::Value;
        match self {
            ParamValue::Int(v) => Value::Int(*v),
            ParamValue::Float(v) => Value::Float(*v),
            ParamValue::Str(v) => Value::Str(v.clone()),
            ParamValue::IntList(v) => Value::from(v.clone()),
            ParamValue::StrList(v) => Value::from(v.clone()),
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v}"),
            ParamValue::Str(v) => write!(f, "{v}"),
            ParamValue::IntList(v) => {
                let parts: Vec<String> = v.iter().map(|x| x.to_string()).collect();
                write!(f, "{}", parts.join(","))
            }
            ParamValue::StrList(v) => write!(f, "{}", v.join(",")),
        }
    }
}

/// One declared scenario parameter.
#[derive(Clone, Debug)]
pub struct ParamSpec {
    /// Override key (`--set name=value`).
    pub name: &'static str,
    /// One-line description for `describe`.
    pub description: &'static str,
    /// Value under the quick preset.
    pub quick: ParamValue,
    /// Value under the paper preset.
    pub paper: ParamValue,
}

impl ParamSpec {
    /// Integer parameter with per-preset values.
    pub fn int(name: &'static str, description: &'static str, quick: i64, paper: i64) -> Self {
        ParamSpec {
            name,
            description,
            quick: ParamValue::Int(quick),
            paper: ParamValue::Int(paper),
        }
    }

    /// Float parameter with per-preset values.
    pub fn float(name: &'static str, description: &'static str, quick: f64, paper: f64) -> Self {
        ParamSpec {
            name,
            description,
            quick: ParamValue::Float(quick),
            paper: ParamValue::Float(paper),
        }
    }

    /// String parameter with per-preset values.
    pub fn str(name: &'static str, description: &'static str, quick: &str, paper: &str) -> Self {
        ParamSpec {
            name,
            description,
            quick: ParamValue::Str(quick.to_string()),
            paper: ParamValue::Str(paper.to_string()),
        }
    }

    /// Integer-list parameter with per-preset values.
    pub fn int_list(
        name: &'static str,
        description: &'static str,
        quick: &[i64],
        paper: &[i64],
    ) -> Self {
        ParamSpec {
            name,
            description,
            quick: ParamValue::IntList(quick.to_vec()),
            paper: ParamValue::IntList(paper.to_vec()),
        }
    }

    /// String-list parameter with per-preset values.
    pub fn str_list(
        name: &'static str,
        description: &'static str,
        quick: &[&str],
        paper: &[&str],
    ) -> Self {
        let conv = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        ParamSpec {
            name,
            description,
            quick: ParamValue::StrList(conv(quick)),
            paper: ParamValue::StrList(conv(paper)),
        }
    }

    /// The preset value for `scale`.
    pub fn preset(&self, scale: Scale) -> &ParamValue {
        match scale {
            Scale::Quick => &self.quick,
            Scale::Paper => &self.paper,
        }
    }
}

/// Fully resolved parameters for one run: preset plus overrides.
#[derive(Clone, Debug)]
pub struct ResolvedParams {
    values: Vec<(&'static str, ParamValue)>,
}

impl ResolvedParams {
    /// Resolve `specs` under `scale`, then apply `(name, value)` overrides.
    /// Unknown override names, kind mismatches, negative integers and
    /// empty lists are caller errors: every integer parameter is a count
    /// and every list parameter a sweep axis.
    pub fn resolve(
        specs: &[ParamSpec],
        scale: Scale,
        overrides: &[(String, String)],
    ) -> Result<ResolvedParams, String> {
        let mut values: Vec<(&'static str, ParamValue)> = specs
            .iter()
            .map(|s| (s.name, s.preset(scale).clone()))
            .collect();
        for (key, text) in overrides {
            let spec = specs
                .iter()
                .find(|s| s.name == key)
                .ok_or_else(|| format!("unknown parameter {key:?}"))?;
            let parsed = spec
                .preset(scale)
                .parse_same_kind(text)
                .map_err(|e| format!("parameter {key:?}: {e}"))?;
            let negative = match &parsed {
                ParamValue::Int(v) => *v < 0,
                ParamValue::IntList(v) => v.iter().any(|&x| x < 0),
                _ => false,
            };
            if negative {
                return Err(format!(
                    "parameter {key:?}: expected a non-negative count, got {text:?}"
                ));
            }
            let empty = match &parsed {
                ParamValue::IntList(v) => v.is_empty(),
                ParamValue::StrList(v) => v.is_empty(),
                _ => false,
            };
            if empty {
                return Err(format!(
                    "parameter {key:?}: expected a non-empty list, got {text:?}"
                ));
            }
            let slot = values
                .iter_mut()
                .find(|(n, _)| n == key)
                .expect("resolved above");
            slot.1 = parsed;
        }
        Ok(ResolvedParams { values })
    }

    fn lookup(&self, name: &str) -> &ParamValue {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("scenario read undeclared parameter {name:?}"))
    }

    /// Integer parameter as `i64`.
    pub fn i64(&self, name: &str) -> i64 {
        match self.lookup(name) {
            ParamValue::Int(v) => *v,
            other => panic!("parameter {name:?} is {}, not int", other.kind()),
        }
    }

    /// Integer parameter as `usize` (must be non-negative).
    pub fn usize(&self, name: &str) -> usize {
        usize::try_from(self.i64(name))
            .unwrap_or_else(|_| panic!("parameter {name:?} must be non-negative"))
    }

    /// Integer parameter as `u64` (must be non-negative).
    pub fn u64(&self, name: &str) -> u64 {
        u64::try_from(self.i64(name))
            .unwrap_or_else(|_| panic!("parameter {name:?} must be non-negative"))
    }

    /// Float parameter.
    pub fn f64(&self, name: &str) -> f64 {
        match self.lookup(name) {
            ParamValue::Float(v) => *v,
            other => panic!("parameter {name:?} is {}, not float", other.kind()),
        }
    }

    /// String parameter.
    pub fn str(&self, name: &str) -> &str {
        match self.lookup(name) {
            ParamValue::Str(v) => v,
            other => panic!("parameter {name:?} is {}, not str", other.kind()),
        }
    }

    /// Integer-list parameter as `usize`s.
    pub fn usize_list(&self, name: &str) -> Vec<usize> {
        match self.lookup(name) {
            ParamValue::IntList(v) => v
                .iter()
                .map(|&x| {
                    usize::try_from(x)
                        .unwrap_or_else(|_| panic!("parameter {name:?} must be non-negative"))
                })
                .collect(),
            other => panic!("parameter {name:?} is {}, not int-list", other.kind()),
        }
    }

    /// Integer-list parameter as `u64`s.
    pub fn u64_list(&self, name: &str) -> Vec<u64> {
        self.usize_list(name)
            .into_iter()
            .map(|x| x as u64)
            .collect()
    }

    /// String-list parameter.
    pub fn str_list(&self, name: &str) -> Vec<String> {
        match self.lookup(name) {
            ParamValue::StrList(v) => v.clone(),
            other => panic!("parameter {name:?} is {}, not str-list", other.kind()),
        }
    }

    /// All resolved values in declaration order (for the report's `config`
    /// object).
    pub fn entries(&self) -> &[(&'static str, ParamValue)] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<ParamSpec> {
        vec![
            ParamSpec::int("trials", "trial count", 3, 12),
            ParamSpec::int_list("points", "sweep axis", &[1, 2], &[10, 20, 30]),
            ParamSpec::str("secret", "leaked text", "OK", "LONGER"),
        ]
    }

    #[test]
    fn presets_resolve_by_scale() {
        let p = ResolvedParams::resolve(&specs(), Scale::Quick, &[]).unwrap();
        assert_eq!(p.i64("trials"), 3);
        assert_eq!(p.usize_list("points"), vec![1, 2]);
        let p = ResolvedParams::resolve(&specs(), Scale::Paper, &[]).unwrap();
        assert_eq!(p.i64("trials"), 12);
        assert_eq!(p.str("secret"), "LONGER");
    }

    #[test]
    fn overrides_apply_and_typecheck() {
        let over = vec![
            ("trials".to_string(), "7".to_string()),
            ("points".to_string(), "5,6,7".to_string()),
        ];
        let p = ResolvedParams::resolve(&specs(), Scale::Quick, &over).unwrap();
        assert_eq!(p.i64("trials"), 7);
        assert_eq!(p.usize_list("points"), vec![5, 6, 7]);

        let bad = vec![("trials".to_string(), "many".to_string())];
        assert!(ResolvedParams::resolve(&specs(), Scale::Quick, &bad).is_err());
        let unknown = vec![("nope".to_string(), "1".to_string())];
        assert!(ResolvedParams::resolve(&specs(), Scale::Quick, &unknown).is_err());
    }

    #[test]
    fn list_overrides_must_be_non_empty() {
        let specs = [
            ParamSpec::int_list("points", "sweep axis", &[1, 2], &[10, 20]),
            ParamSpec::str_list("timers", "sweep axis", &["a"], &["a", "b"]),
        ];
        for (key, text) in [("points", ""), ("points", ","), ("timers", "")] {
            let over = vec![(key.to_string(), text.to_string())];
            assert_eq!(
                ResolvedParams::resolve(&specs, Scale::Quick, &over).err(),
                Some(format!(
                    "parameter {key:?}: expected a non-empty list, got {text:?}"
                )),
            );
        }
        let one = vec![("timers".to_string(), "b".to_string())];
        let p = ResolvedParams::resolve(&specs, Scale::Quick, &one).unwrap();
        assert_eq!(p.str_list("timers"), ["b"]);
    }

    #[test]
    #[should_panic(expected = "undeclared parameter")]
    fn reading_undeclared_parameter_panics() {
        let p = ResolvedParams::resolve(&specs(), Scale::Quick, &[]).unwrap();
        let _ = p.i64("missing");
    }
}
