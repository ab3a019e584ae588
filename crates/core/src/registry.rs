//! Scheme construction by name: [`SchemeRegistry`] and [`SchemeConfig`].
//!
//! Experiments, examples and the XML layer used to hard-code match arms
//! over concrete scheme types; the registry replaces those with named
//! factories producing `Box<dyn DynScheme>`, so a multi-scheme sweep is
//! a list of spec strings:
//!
//! ```
//! use ltree_core::registry::SchemeRegistry;
//! use ltree_core::OrderedLabelingMut;
//!
//! let reg = SchemeRegistry::with_builtin(); // "ltree" is always present
//! let mut scheme = reg.build("ltree(4,2)").unwrap();
//! let handles = scheme.bulk_build(8).unwrap();
//! assert_eq!(handles.len(), 8);
//! ```
//!
//! # Spec-string grammar
//!
//! A *spec* is a scheme name optionally followed by parenthesized
//! arguments. Arguments are split at **top-level** commas (commas inside
//! nested parentheses belong to the nested spec) and each argument is a
//! number, a `key=value` option, a bare flag, or — recursively — another
//! spec:
//!
//! ```text
//! spec  ::= name | name "(" args ")"
//! args  ::= arg ("," arg)*
//! arg   ::= number | option | spec  // nested specs only for composite schemes
//! option ::= key "=" value | flag   // trailing; consumed via SpecOptions
//! name  ::= [^(),=]+                // trimmed; no parens, commas or '='
//! ```
//!
//! Argument interpretation belongs to the factory registered for the
//! name; numeric arguments override the corresponding [`SchemeConfig`]
//! fields, and trailing options are consumed through [`SpecOptions`]
//! (unknown or malformed options are typed
//! [`LTreeError::InvalidOption`] errors naming the offending key — the
//! option table lives next to the grammar table in `ARCHITECTURE.md`).
//! The workspace ships these schemes (crates in parentheses register
//! themselves via their `register` function; the facade crate composes
//! them all into `default_registry()`):
//!
//! | spec | scheme | arguments |
//! |------|--------|-----------|
//! | `ltree` | materialized L-Tree, paper §2 (`ltree-core`) | `(f,s)` |
//! | `ltree-virtual`, `virtual` | virtual L-Tree, paper §4.2 (`ltree-virtual`) | `(f,s)` |
//! | `naive` | consecutive integers, paper Fig. 1 (`labeling-baselines`) | — |
//! | `gap` | fixed-gap midpoint labels (`labeling-baselines`) | `(gap)` |
//! | `list-label` | even-redistribution list labeling (`labeling-baselines`) | `(bits)` or `(bits,tau)` |
//! | `sharded` | segment-partitioned composite (`ltree-sharded`) | `(inner)`, `(n,inner)`, or `(n,split,merge,inner)` |
//!
//! Composite schemes take another spec as an argument and are built
//! recursively against the same registry: `sharded(4,ltree(4,2))` is a
//! sharded store over four materialized L-Trees, and
//! `sharded(2,sharded(2,gap))` nests. Plain (numeric-only) factories
//! registered with [`SchemeRegistry::register`] reject nested-spec
//! arguments; composite factories are registered with
//! [`SchemeRegistry::register_composite`] and receive the registry
//! itself, plus the raw [`SpecArg`] list, to build their inners.
//!
//! Unknown names and malformed specs fail with
//! [`LTreeError::UnknownScheme`] / [`LTreeError::InvalidSpec`], whose
//! messages point back at this grammar.

use std::sync::Arc;

use crate::error::{LTreeError, Result};
use crate::params::Params;
use crate::scheme::DynScheme;

/// Construction-time knobs shared by every scheme factory. Spec
/// arguments, when present, override the matching field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeConfig {
    /// `(f, s)` shape parameters for the L-Tree variants.
    pub params: Params,
    /// Gap width for the fixed-gap baseline.
    pub gap: u128,
    /// Initial universe width (bits) for the list-labeling baseline.
    pub list_bits: u32,
    /// Density threshold `τ ∈ (0.5, 1)` for the list-labeling baseline.
    pub list_tau: f64,
}

impl Default for SchemeConfig {
    fn default() -> Self {
        SchemeConfig {
            params: Params::example(),
            gap: 32,
            list_bits: 16,
            list_tau: 0.75,
        }
    }
}

impl SchemeConfig {
    /// A config with the given L-Tree parameters and default baselines.
    pub fn with_params(params: Params) -> Self {
        SchemeConfig {
            params,
            ..Self::default()
        }
    }

    /// Resolve `(f, s)` from spec arguments: no args keeps
    /// `self.params`, two args build fresh [`Params`]. Shared by every
    /// L-Tree-shaped factory.
    pub fn params_from_args(&self, spec: &str, args: &[f64]) -> Result<Params> {
        match args {
            [] => Ok(self.params),
            [f, s] => {
                let (f, s) = (as_u32(spec, *f)?, as_u32(spec, *s)?);
                Params::new(f, s)
            }
            _ => Err(LTreeError::InvalidSpec {
                spec: spec.to_owned(),
                reason: "expected no arguments or (f,s)",
            }),
        }
    }
}

/// Convert one spec argument to an integer, rejecting fractions.
pub fn as_u32(spec: &str, v: f64) -> Result<u32> {
    if v.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&v) {
        Ok(v as u32)
    } else {
        Err(LTreeError::InvalidSpec {
            spec: spec.to_owned(),
            reason: "argument must be a non-negative integer",
        })
    }
}

/// One parsed spec argument: a number, a `key=value` option, or — for
/// composite schemes like `sharded(4,ltree(4,2))` — a nested spec
/// string. See the [grammar](self#spec-string-grammar).
#[derive(Debug, Clone, PartialEq)]
pub enum SpecArg {
    /// A numeric argument (`4`, `0.8`).
    Num(f64),
    /// A nested scheme spec (`ltree(4,2)`, `gap`), built recursively by
    /// composite factories — or a bare word a factory may interpret as a
    /// flag option (`reconnect`).
    Spec(String),
    /// A `key=value` option (`conns=4`). Interpretation belongs to the
    /// factory; [`SpecOptions`] is the standard way to consume these.
    Opt {
        /// The option key (left of `=`), trimmed.
        key: String,
        /// The raw value (right of `=`), trimmed.
        value: String,
    },
}

impl SpecArg {
    /// The numeric value, if this argument is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            SpecArg::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The nested spec, if this argument is one.
    pub fn as_spec(&self) -> Option<&str> {
        match self {
            SpecArg::Spec(s) => Some(s),
            _ => None,
        }
    }
}

/// A typed view over the trailing `key=value` / bare-flag arguments of a
/// spec, for composite factories that accept options
/// (`remote(host:port,conns=4,retries=2,reconnect)`).
///
/// Factories `take_*` the keys they know, then call
/// [`finish`](Self::finish), which rejects anything left over — so an
/// unknown or misspelled option is a typed
/// [`LTreeError::InvalidOption`] naming the offending key, never a
/// silent no-op. Every error points back at the spec-grammar table in
/// `ARCHITECTURE.md`.
///
/// ```
/// use ltree_core::registry::{SpecArg, SpecOptions};
///
/// let args = [
///     SpecArg::Opt { key: "conns".into(), value: "4".into() },
///     SpecArg::Spec("reconnect".into()), // a bare flag
/// ];
/// let mut opts = SpecOptions::parse("remote", &args).unwrap();
/// assert_eq!(opts.take_u32("conns").unwrap(), Some(4));
/// assert!(opts.take_flag("reconnect").unwrap());
/// assert_eq!(opts.take_u64("timeout-ms").unwrap(), None); // absent option
/// opts.finish().unwrap(); // nothing unknown left behind
/// ```
#[derive(Debug)]
pub struct SpecOptions {
    spec: String,
    /// `(key, value)`; `None` value marks a bare flag.
    entries: Vec<(String, Option<String>)>,
}

impl SpecOptions {
    /// Interpret `args` as an option list: [`SpecArg::Opt`] entries and
    /// bare words (flags). Numbers, nested specs and duplicate keys are
    /// rejected here — positional arguments must come *before* the
    /// options and be consumed by the factory first.
    pub fn parse(spec: &str, args: &[SpecArg]) -> Result<SpecOptions> {
        let mut entries: Vec<(String, Option<String>)> = Vec::with_capacity(args.len());
        for arg in args {
            let (key, value) = match arg {
                SpecArg::Opt { key, value } => (key.clone(), Some(value.clone())),
                SpecArg::Spec(word) if !word.contains('(') => (word.clone(), None),
                other => {
                    return Err(LTreeError::InvalidOption {
                        spec: spec.to_owned(),
                        key: match other {
                            SpecArg::Num(v) => v.to_string(),
                            SpecArg::Spec(s) => s.clone(),
                            SpecArg::Opt { key, .. } => key.clone(),
                        },
                        reason: "expected key=value options or bare flags here \
                                 (positional arguments come first)",
                    })
                }
            };
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(LTreeError::InvalidOption {
                    spec: spec.to_owned(),
                    key,
                    reason: "duplicate option",
                });
            }
            entries.push((key, value));
        }
        Ok(SpecOptions {
            spec: spec.to_owned(),
            entries,
        })
    }

    /// The spec (or scheme name) these options were parsed for — useful
    /// when a consumer mints its own [`LTreeError::InvalidOption`].
    pub fn spec(&self) -> &str {
        &self.spec
    }

    fn take(&mut self, key: &str) -> Option<Option<String>> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(i).1)
    }

    fn bad(&self, key: &str, reason: &'static str) -> LTreeError {
        LTreeError::InvalidOption {
            spec: self.spec.clone(),
            key: key.to_owned(),
            reason,
        }
    }

    /// Consume a bare flag (`reconnect`). Present → `true`; absent →
    /// `false`; present *with* a value (`reconnect=1`) → error.
    pub fn take_flag(&mut self, key: &str) -> Result<bool> {
        match self.take(key) {
            None => Ok(false),
            Some(None) => Ok(true),
            Some(Some(_)) => Err(self.bad(key, "is a bare flag and takes no value")),
        }
    }

    /// Consume a `key=N` option as a `u32`. Absent → `Ok(None)`.
    pub fn take_u32(&mut self, key: &str) -> Result<Option<u32>> {
        match self.take_u64(key)? {
            None => Ok(None),
            Some(v) if v <= u32::MAX as u64 => Ok(Some(v as u32)),
            Some(_) => Err(self.bad(key, "value out of range")),
        }
    }

    /// Consume a `key=N` option as a `u64`. Absent → `Ok(None)`.
    pub fn take_u64(&mut self, key: &str) -> Result<Option<u64>> {
        match self.take(key) {
            None => Ok(None),
            Some(None) => Err(self.bad(key, "needs a value (key=N)")),
            Some(Some(v)) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| self.bad(key, "expected a non-negative integer value")),
        }
    }

    /// Consume a `key=word` option as a raw string. Absent → `Ok(None)`.
    pub fn take_str(&mut self, key: &str) -> Result<Option<String>> {
        match self.take(key) {
            None => Ok(None),
            Some(None) => Err(self.bad(key, "needs a value (key=word)")),
            Some(Some(v)) => Ok(Some(v)),
        }
    }

    /// Reject anything the factory did not consume: the first leftover
    /// key becomes an "unknown option" error naming it.
    pub fn finish(self) -> Result<()> {
        match self.entries.into_iter().next() {
            None => Ok(()),
            Some((key, _)) => Err(LTreeError::InvalidOption {
                spec: self.spec,
                key,
                reason: "unknown option for this scheme",
            }),
        }
    }
}

/// A factory producing a boxed scheme from the shared config and the
/// numeric spec arguments (empty when the spec had no parentheses).
pub type SchemeFactory =
    Box<dyn Fn(&SchemeConfig, &[f64]) -> Result<Box<dyn DynScheme>> + Send + Sync>;

/// A composite factory: receives the registry itself (to build nested
/// specs recursively) and the raw argument list, numbers and nested
/// specs alike.
pub type CompositeFactory = Box<
    dyn Fn(&SchemeRegistry, &SchemeConfig, &[SpecArg]) -> Result<Box<dyn DynScheme>> + Send + Sync,
>;

enum Factory {
    Plain(SchemeFactory),
    Composite(CompositeFactory),
}

struct Entry {
    name: &'static str,
    summary: &'static str,
    factory: Factory,
}

/// Named scheme factories. See the [module docs](self) for the
/// spec-string grammar and the table of shipped schemes.
///
/// Cloning is cheap (entries are shared behind [`Arc`]): composite
/// schemes clone the registry into their own factories so they can
/// build fresh inner schemes later (e.g. when a shard splits).
#[derive(Default, Clone)]
pub struct SchemeRegistry {
    entries: Vec<Arc<Entry>>,
}

impl SchemeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry holding the schemes this crate itself provides
    /// (currently the materialized `"ltree"`).
    pub fn with_builtin() -> Self {
        let mut reg = Self::new();
        reg.register(
            "ltree",
            "materialized L-Tree (paper §2); args: (f,s)",
            |cfg, args| {
                let params = cfg.params_from_args("ltree", args)?;
                Ok(Box::new(crate::LTree::new(params)))
            },
        );
        reg
    }

    /// Register (or replace) a plain factory under `name`. Plain
    /// factories take numeric arguments only; a nested-spec argument is
    /// rejected before the factory runs.
    pub fn register<F>(&mut self, name: &'static str, summary: &'static str, factory: F)
    where
        F: Fn(&SchemeConfig, &[f64]) -> Result<Box<dyn DynScheme>> + Send + Sync + 'static,
    {
        self.insert(name, summary, Factory::Plain(Box::new(factory)));
    }

    /// Register (or replace) a composite factory under `name`. Composite
    /// factories receive the registry itself and the raw [`SpecArg`]
    /// list, so they can recursively build nested specs
    /// (`sharded(4,ltree(4,2))`).
    pub fn register_composite<F>(&mut self, name: &'static str, summary: &'static str, factory: F)
    where
        F: Fn(&SchemeRegistry, &SchemeConfig, &[SpecArg]) -> Result<Box<dyn DynScheme>>
            + Send
            + Sync
            + 'static,
    {
        self.insert(name, summary, Factory::Composite(Box::new(factory)));
    }

    fn insert(&mut self, name: &'static str, summary: &'static str, factory: Factory) {
        self.entries.retain(|e| e.name != name);
        self.entries.push(Arc::new(Entry {
            name,
            summary,
            factory,
        }));
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// `(name, summary)` pairs, in registration order.
    pub fn summaries(&self) -> Vec<(&'static str, &'static str)> {
        self.entries.iter().map(|e| (e.name, e.summary)).collect()
    }

    /// Whether `name` (the bare name, not a spec) is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }

    /// Build a scheme from a spec string with the default config.
    pub fn build(&self, spec: &str) -> Result<Box<dyn DynScheme>> {
        self.build_with(spec, &SchemeConfig::default())
    }

    /// Build a scheme from a spec string; numeric spec arguments
    /// override the matching `config` fields, nested-spec arguments are
    /// resolved recursively against this registry.
    pub fn build_with(&self, spec: &str, config: &SchemeConfig) -> Result<Box<dyn DynScheme>> {
        let (name, args) = parse_spec(spec)?;
        let entry = self
            .entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| LTreeError::UnknownScheme {
                name: name.to_owned(),
            })?;
        match &entry.factory {
            Factory::Plain(f) => {
                let mut nums = Vec::with_capacity(args.len());
                for a in &args {
                    match a {
                        SpecArg::Num(v) => nums.push(*v),
                        SpecArg::Spec(_) | SpecArg::Opt { .. } => {
                            return Err(LTreeError::InvalidSpec {
                                spec: spec.to_owned(),
                                reason: "arguments must be numbers (nested specs and \
                                         key=value options need a composite scheme)",
                            })
                        }
                    }
                }
                f(config, &nums)
            }
            Factory::Composite(f) => f(self, config, &args),
        }
    }

    /// Validate a spec string against this registry **without building
    /// anything**: parse it through the live grammar, check that the
    /// top-level name is registered, and recurse into every argument
    /// that is itself a parenthesized spec (`sharded(2,ltree(4,2))`
    /// validates `ltree(4,2)` too). Bare-word arguments (`inner`,
    /// flag names, `host:port` addresses) are factory-specific and
    /// accepted here; numeric ranges are likewise only checked at
    /// build time.
    ///
    /// `cargo xtask lint` runs this over every spec string quoted in
    /// rustdoc and ARCHITECTURE.md, so documented examples cannot rot
    /// away from the grammar the registry actually parses.
    pub fn validate_spec(&self, spec: &str) -> Result<()> {
        let (name, args) = parse_spec(spec)?;
        if !self.contains(name) {
            return Err(LTreeError::UnknownScheme {
                name: name.to_owned(),
            });
        }
        for arg in &args {
            if let SpecArg::Spec(s) = arg {
                if s.contains('(') {
                    self.validate_spec(s)?;
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for SchemeRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchemeRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// Split `"name(a,b)"` into the name and its arguments, honoring nested
/// parentheses: commas inside a nested spec belong to that spec. See the
/// [grammar](self#spec-string-grammar).
fn parse_spec(spec: &str) -> Result<(&str, Vec<SpecArg>)> {
    let spec_trim = spec.trim();
    let bad = |reason: &'static str| LTreeError::InvalidSpec {
        spec: spec.to_owned(),
        reason,
    };
    let Some(open) = spec_trim.find('(') else {
        if spec_trim.is_empty() {
            return Err(bad("empty scheme spec"));
        }
        if spec_trim.contains(')') || spec_trim.contains(',') {
            return Err(bad("unbalanced parentheses"));
        }
        return Ok((spec_trim, Vec::new()));
    };
    let Some(rest) = spec_trim.strip_suffix(')') else {
        return Err(bad("unbalanced parentheses"));
    };
    let name = spec_trim[..open].trim();
    if name.is_empty() {
        return Err(bad("missing scheme name"));
    }
    let inner = &rest[open + 1..];
    let mut args = Vec::new();
    if !inner.trim().is_empty() {
        // Split at top-level commas only: a comma at depth > 0 belongs
        // to a nested spec like `ltree(4,2)`.
        let mut depth = 0i32;
        let mut start = 0usize;
        let mut parts: Vec<&str> = Vec::new();
        for (i, c) in inner.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth < 0 {
                        return Err(bad("unbalanced parentheses"));
                    }
                }
                ',' if depth == 0 => {
                    parts.push(&inner[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        if depth != 0 {
            return Err(bad("unbalanced parentheses"));
        }
        parts.push(&inner[start..]);
        for part in parts {
            let part = part.trim();
            if part.is_empty() {
                return Err(bad("empty argument"));
            }
            if let Ok(v) = part.parse::<f64>() {
                args.push(SpecArg::Num(v));
                continue;
            }
            // `key=value` (with the `=` before any nested parenthesis)
            // is an option; `remote(a,conns=4)` nested *inside* another
            // spec keeps its `=` because the `(` comes first.
            let eq = part.find('=');
            let is_opt = match (eq, part.find('(')) {
                (Some(e), Some(p)) => e < p,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if is_opt {
                let (key, value) = part.split_at(eq.unwrap());
                let (key, value) = (key.trim(), value[1..].trim());
                if key.is_empty() {
                    return Err(LTreeError::InvalidOption {
                        spec: spec.to_owned(),
                        key: part.to_owned(),
                        reason: "missing option key before '='",
                    });
                }
                if value.is_empty() {
                    return Err(LTreeError::InvalidOption {
                        spec: spec.to_owned(),
                        key: key.to_owned(),
                        reason: "missing option value after '='",
                    });
                }
                args.push(SpecArg::Opt {
                    key: key.to_owned(),
                    value: value.to_owned(),
                });
            } else {
                // Anything else is a nested spec (or a bare flag a
                // composite factory may accept); its own validity is
                // checked when the factory consumes it.
                args.push(SpecArg::Spec(part.to_owned()));
            }
        }
    }
    Ok((name, args))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{Instrumented, OrderedLabeling, OrderedLabelingMut};

    #[test]
    fn builtin_ltree_builds_with_and_without_args() {
        let reg = SchemeRegistry::with_builtin();
        let mut plain = reg.build("ltree").unwrap();
        assert_eq!(plain.name(), "ltree");
        plain.bulk_build(4).unwrap();
        let mut wide = reg.build(" ltree(16, 4) ").unwrap();
        wide.bulk_build(4).unwrap();
        assert_eq!(wide.scheme_stats().inserts, 0);
    }

    #[test]
    fn unknown_and_malformed_specs_are_typed_errors() {
        let reg = SchemeRegistry::with_builtin();
        assert!(matches!(
            reg.build("nope"),
            Err(LTreeError::UnknownScheme { .. })
        ));
        assert!(matches!(
            reg.build("ltree(4"),
            Err(LTreeError::InvalidSpec { .. })
        ));
        assert!(matches!(
            reg.build("ltree(4,2,1)"),
            Err(LTreeError::InvalidSpec { .. })
        ));
        assert!(matches!(
            reg.build("ltree(4.5,2)"),
            Err(LTreeError::InvalidSpec { .. })
        ));
        assert!(matches!(reg.build(""), Err(LTreeError::InvalidSpec { .. })));
        assert!(matches!(
            reg.build("(4,2)"),
            Err(LTreeError::InvalidSpec { .. })
        ));
        // Invalid params surface the params error, not a panic.
        assert!(matches!(
            reg.build("ltree(5,2)"),
            Err(LTreeError::InvalidParams { .. })
        ));
        // A nested spec handed to a plain (numeric-only) factory.
        assert!(matches!(
            reg.build("ltree(gap,2)"),
            Err(LTreeError::InvalidSpec { .. })
        ));
        // Nested parens must balance even inside arguments.
        assert!(matches!(
            reg.build("ltree(4))"),
            Err(LTreeError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn error_messages_point_at_the_grammar() {
        let reg = SchemeRegistry::with_builtin();
        let unknown = reg.build("nope").err().unwrap().to_string();
        assert!(unknown.contains("spec grammar"), "{unknown}");
        let invalid = reg.build("ltree(4").err().unwrap().to_string();
        assert!(invalid.contains("spec grammar"), "{invalid}");
    }

    #[test]
    fn registration_replaces_and_lists() {
        let mut reg = SchemeRegistry::with_builtin();
        assert!(reg.contains("ltree"));
        reg.register("ltree", "replacement", |cfg, _| {
            Ok(Box::new(crate::LTree::new(cfg.params)))
        });
        assert_eq!(reg.names(), vec!["ltree"]);
        assert_eq!(reg.summaries()[0].1, "replacement");
    }

    #[test]
    fn config_override_applies_when_spec_has_no_args() {
        let reg = SchemeRegistry::with_builtin();
        let cfg = SchemeConfig::with_params(Params::new(16, 4).unwrap());
        let mut wide = reg.build_with("ltree", &cfg).unwrap();
        wide.bulk_build(1000).unwrap();
        let mut narrow = reg.build("ltree(4,2)").unwrap();
        narrow.bulk_build(1000).unwrap();
        // f = 16 packs 1000 leaves into a shallower tree than f = 4:
        // fewer levels means a smaller label space.
        assert!(
            wide.label_space_bits() < narrow.label_space_bits(),
            "the config override must reach the factory ({} vs {})",
            wide.label_space_bits(),
            narrow.label_space_bits()
        );
    }

    #[test]
    fn composite_factories_see_nested_specs_and_the_registry() {
        let mut reg = SchemeRegistry::with_builtin();
        // A toy composite that unwraps to its inner spec.
        reg.register_composite("wrap", "identity wrapper", |reg, cfg, args| match args {
            [SpecArg::Spec(inner)] => reg.build_with(inner, cfg),
            _ => Err(LTreeError::InvalidSpec {
                spec: "wrap".into(),
                reason: "expected (inner-spec)",
            }),
        });
        let mut s = reg.build("wrap(ltree(4,2))").unwrap();
        assert_eq!(s.name(), "ltree");
        s.bulk_build(4).unwrap();
        // Nesting composes.
        assert_eq!(reg.build("wrap(wrap(ltree))").unwrap().name(), "ltree");
        assert!(reg.build("wrap(nope)").is_err());
        assert!(reg.build("wrap(ltree(4,2)").is_err(), "unbalanced");
    }

    #[test]
    fn option_arguments_parse_and_misuse_is_typed() {
        // key=value and bare flags reach composite factories as SpecArgs.
        let (name, args) = parse_spec("remote(127.0.0.1:9, conns=4, reconnect)").unwrap();
        assert_eq!(name, "remote");
        assert_eq!(
            args,
            vec![
                SpecArg::Spec("127.0.0.1:9".into()),
                SpecArg::Opt {
                    key: "conns".into(),
                    value: "4".into()
                },
                SpecArg::Spec("reconnect".into()),
            ]
        );
        // A nested spec keeps its own options intact (the '(' wins).
        let (_, args) = parse_spec("sharded(2,remote(h:1,conns=4))").unwrap();
        assert_eq!(args[1], SpecArg::Spec("remote(h:1,conns=4)".into()));
        // Malformed options name the key.
        for (spec, key) in [("remote(a:1,=4)", "=4"), ("remote(a:1,conns=)", "conns")] {
            match parse_spec(spec) {
                Err(LTreeError::InvalidOption { key: k, .. }) => assert_eq!(k, key, "{spec}"),
                other => panic!("{spec}: expected InvalidOption, got {other:?}"),
            }
        }
        // Plain factories reject options outright.
        let reg = SchemeRegistry::with_builtin();
        assert!(matches!(
            reg.build("ltree(4,s=2)"),
            Err(LTreeError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn spec_options_accessors_and_unknown_keys() {
        let args = [
            SpecArg::Opt {
                key: "retries".into(),
                value: "2".into(),
            },
            SpecArg::Spec("reconnect".into()),
            SpecArg::Opt {
                key: "bogus".into(),
                value: "1".into(),
            },
        ];
        let mut opts = SpecOptions::parse("remote", &args).unwrap();
        assert_eq!(opts.take_u32("retries").unwrap(), Some(2));
        assert!(opts.take_flag("reconnect").unwrap());
        assert_eq!(opts.take_u64("absent").unwrap(), None);
        match opts.finish() {
            Err(LTreeError::InvalidOption { key, .. }) => assert_eq!(key, "bogus"),
            other => panic!("expected unknown-option error, got {other:?}"),
        }
        // A flag given a value, and a valued key used bare, both fail.
        let mut opts = SpecOptions::parse(
            "remote",
            &[SpecArg::Opt {
                key: "reconnect".into(),
                value: "1".into(),
            }],
        )
        .unwrap();
        assert!(matches!(
            opts.take_flag("reconnect"),
            Err(LTreeError::InvalidOption { .. })
        ));
        let mut opts = SpecOptions::parse("remote", &[SpecArg::Spec("conns".into())]).unwrap();
        assert!(matches!(
            opts.take_u32("conns"),
            Err(LTreeError::InvalidOption { .. })
        ));
        // Duplicates are rejected at parse time.
        assert!(matches!(
            SpecOptions::parse(
                "remote",
                &[
                    SpecArg::Spec("reconnect".into()),
                    SpecArg::Spec("reconnect".into())
                ]
            ),
            Err(LTreeError::InvalidOption { .. })
        ));
    }

    #[test]
    fn cloned_registries_share_entries() {
        let reg = SchemeRegistry::with_builtin();
        let clone = reg.clone();
        drop(reg);
        assert!(clone.build("ltree(4,2)").is_ok());
    }
}
