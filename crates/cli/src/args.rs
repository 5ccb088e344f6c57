//! A small dependency-free `--flag value` argument parser.

use std::collections::BTreeMap;

/// Argument-parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A flag that expects a value appeared last.
    MissingValue(String),
    /// A value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending text.
        value: String,
    },
    /// A required flag was absent.
    Required(String),
    /// A flag the binary does not document (most likely a typo).
    UnknownFlag(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "flag --{k} expects a value"),
            ArgError::BadValue { flag, value } => write!(f, "bad value '{value}' for --{flag}"),
            ArgError::Required(k) => write!(f, "missing required flag --{k}"),
            ArgError::UnknownFlag(k) => write!(f, "unknown flag --{k}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed arguments: `--key value...` pairs (multi-valued) and bare
/// `--switch` flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    values: BTreeMap<String, Vec<String>>,
    switches: Vec<String>,
}

/// Flags that take no value (everything else consumes the following
/// non-flag tokens).
const SWITCHES: &[&str] = &[
    "shaq-efficient",
    "fit",
    "use_profiler_prediction",
    "no_auto",
    "kv8",
    "help",
    "inject-bug",
    "trace",
    "migrations",
    "serving",
    "elastic",
    "no-swaps",
    "compare-static",
    "keep-outputs",
    "degrade",
];

impl Args {
    /// Parse a token stream (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let toks: Vec<String> = tokens.into_iter().collect();
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            let key = t.trim_start_matches('-').to_string();
            if !t.starts_with('-') {
                return Err(ArgError::BadValue { flag: "<positional>".into(), value: t.clone() });
            }
            if SWITCHES.contains(&key.as_str()) {
                out.switches.push(key);
                i += 1;
                continue;
            }
            // Consume one or more values until the next flag. A token
            // starting with '-' counts as a flag unless it is a negative
            // number.
            let is_flag = |t: &str| {
                t.starts_with('-')
                    && !t[1..].chars().next().is_some_and(|c| c.is_ascii_digit() || c == '.')
            };
            let mut vals = Vec::new();
            let mut j = i + 1;
            while j < toks.len() && !is_flag(&toks[j]) {
                vals.push(toks[j].clone());
                j += 1;
            }
            if vals.is_empty() {
                return Err(ArgError::MissingValue(key));
            }
            out.values.entry(key).or_default().extend(vals);
            i = j;
        }
        Ok(out)
    }

    /// Fail on the first flag or switch that is not in `known`, so a
    /// typo exits with usage instead of silently running defaults.
    pub fn reject_unknown(self, known: &[&str]) -> Result<Args, ArgError> {
        match self.values.keys().chain(&self.switches).find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(ArgError::UnknownFlag(k.clone())),
            None => Ok(self),
        }
    }

    /// Whether a bare switch was present.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// First value of a flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).and_then(|v| v.first()).map(String::as_str)
    }

    /// All values of a flag.
    pub fn get_all(&self, name: &str) -> &[String] {
        self.values.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Required string flag.
    pub fn required(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name).ok_or_else(|| ArgError::Required(name.into()))
    }

    /// Typed flag with default.
    pub fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue { flag: name.into(), value: v.into() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_paper_style_command_line() {
        let a = parse(
            "--model-name opt --model_size 30b --device-names T4 V100 --device-numbers 3 1 \
             --global_bz 32 --s 512 --n 100 --theta 1 --group 2 --shaq-efficient --fit",
        )
        .unwrap();
        assert_eq!(a.get("model-name"), Some("opt"));
        assert_eq!(a.get_all("device-names"), &["T4".to_string(), "V100".to_string()]);
        assert_eq!(a.get_all("device-numbers"), &["3".to_string(), "1".to_string()]);
        assert_eq!(a.get_parse("global_bz", 0usize).unwrap(), 32);
        assert_eq!(a.get_parse("theta", 0.0f64).unwrap(), 1.0);
        assert!(a.switch("shaq-efficient"));
        assert!(a.switch("fit"));
        assert!(!a.switch("use_profiler_prediction"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(parse("--s").unwrap_err(), ArgError::MissingValue("s".into()));
    }

    #[test]
    fn required_flag_reported() {
        let a = parse("--s 512").unwrap();
        assert!(matches!(a.required("model-name"), Err(ArgError::Required(_))));
        assert_eq!(a.required("s").unwrap(), "512");
    }

    #[test]
    fn bad_typed_value_reported() {
        let a = parse("--s twelve").unwrap();
        assert!(matches!(a.get_parse("s", 0usize), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("--s 512").unwrap();
        assert_eq!(a.get_parse("n", 100usize).unwrap(), 100);
    }

    #[test]
    fn unknown_flag_is_rejected_known_flags_and_switches_pass() {
        let known = ["admission", "max-queue", "help"];
        assert_eq!(
            parse("--admision deadline --max-queue 4").unwrap().reject_unknown(&known).unwrap_err(),
            ArgError::UnknownFlag("admision".into())
        );
        // `--fit` parses as a switch everywhere but this binary does not take it.
        assert_eq!(
            parse("--fit").unwrap().reject_unknown(&known).unwrap_err(),
            ArgError::UnknownFlag("fit".into())
        );
        let a = parse("--admission deadline --help").unwrap().reject_unknown(&known).unwrap();
        assert_eq!(a.get("admission"), Some("deadline"));
        assert!(a.switch("help"));
    }

    #[test]
    fn positional_tokens_rejected() {
        assert!(parse("oops --s 512").is_err());
    }
}
