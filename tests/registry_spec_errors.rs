//! Error-path coverage for the registry's spec-string parser and every
//! factory's arity checking, over the **full default registry** — the
//! unknown-name, unbalanced-parenthesis and wrong-arity cases the
//! grammar in `ltree_core::registry` promises to reject with typed
//! errors pointing back at the docs.

use ltree::prelude::*;
use ltree::LTreeError;

fn build(spec: &str) -> Result<Box<dyn DynScheme>, LTreeError> {
    default_registry().build(spec)
}

#[test]
fn unknown_scheme_names_are_typed_and_helpful() {
    for spec in ["nope", "nope(4)", "sharded(2,nope)", "served(nope)"] {
        let err = build(spec).err().unwrap_or_else(|| panic!("{spec} built"));
        assert!(
            matches!(err, LTreeError::UnknownScheme { .. }),
            "{spec}: {err}"
        );
        let msg = err.to_string();
        assert!(msg.contains("nope"), "{spec}: {msg}");
        assert!(msg.contains("spec grammar"), "{spec}: {msg}");
    }
}

#[test]
fn unbalanced_parentheses_are_rejected_everywhere() {
    for spec in [
        "ltree(4,2",
        "ltree(4,2))",
        "ltree)4,2(",
        "sharded(2,ltree(4,2)",
        "sharded(2,ltree(4,2)))",
        "served(ltree",
        "served(ltree))",
        "gap(",
        ")",
        "ltree,",
    ] {
        assert!(
            matches!(build(spec), Err(LTreeError::InvalidSpec { .. })),
            "{spec} must be an InvalidSpec error"
        );
    }
}

#[test]
fn empty_and_malformed_argument_lists_are_rejected() {
    for spec in ["", "   ", "(4,2)", "ltree(4,)", "ltree(,2)", "sharded(,)"] {
        assert!(
            matches!(build(spec), Err(LTreeError::InvalidSpec { .. })),
            "{spec:?} must be an InvalidSpec error"
        );
    }
}

#[test]
fn wrong_arity_is_rejected_per_factory() {
    // Every factory checks its own argument count/shape.
    for spec in [
        "ltree(4)",
        "ltree(4,2,1)",
        "virtual(4)",
        "virtual(4,2,1)",
        "naive(1)",
        "gap(1,2)",
        "list-label(16,0.75,3)",
        "sharded",            // composites need at least the inner
        "sharded(4)",         // no inner spec
        "sharded(ltree,2)",   // inner must come last
        "sharded(2,4,ltree)", // (n,split,merge,inner) or shorter
        "served",             // inner required
        "served(4)",          // inner must be a spec, not a number
        "remote",             // address required
        "remote(1,2)",        // the address is a spec-shaped argument
    ] {
        assert!(
            matches!(build(spec), Err(LTreeError::InvalidSpec { .. })),
            "{spec} must be an InvalidSpec error"
        );
    }
}

#[test]
fn numeric_argument_validation_is_typed() {
    // Fractional or out-of-range numbers where integers are required.
    for spec in ["ltree(4.5,2)", "sharded(2.5,ltree)", "gap(-1)"] {
        assert!(
            matches!(build(spec), Err(LTreeError::InvalidSpec { .. })),
            "{spec} must be an InvalidSpec error"
        );
    }
    // Structurally valid specs with semantically bad parameters surface
    // the parameter error, not a parse error (and never a panic).
    assert!(matches!(
        build("ltree(5,2)"),
        Err(LTreeError::InvalidParams { .. })
    ));
}

/// The `key=value` option syntax (`remote(addr,conns=4,reconnect)`):
/// unknown and malformed options are [`LTreeError::InvalidOption`]
/// errors that *name the offending key* and point at the spec-grammar
/// table in ARCHITECTURE.md — never a silent no-op, never a vague
/// whole-spec error.
#[test]
fn option_errors_name_the_key_and_point_at_the_grammar_table() {
    for (spec, key) in [
        // Unknown options (a stray word where options belong is one).
        ("served(ltree,gap)", "gap"),
        ("served(ltree,bogus=1)", "bogus"),
        ("served(ltree(4,2),conns=2,nope)", "nope"),
        // Malformed values.
        ("served(ltree,conns=many)", "conns"),
        ("served(ltree,conns=0)", "conns"),
        ("served(ltree,retries=-1)", "retries"),
        ("served(ltree,timeout-ms=soon)", "timeout-ms"),
        // A flag given a value, and a valued key used bare.
        ("served(ltree,reconnect=1)", "reconnect"),
        ("served(ltree,conns)", "conns"),
        // Duplicates.
        ("served(ltree,conns=2,conns=3)", "conns"),
        // Structurally broken options.
        ("served(ltree,=4)", "=4"),
        ("served(ltree,conns=)", "conns"),
    ] {
        let err = build(spec).err().unwrap_or_else(|| panic!("{spec} built"));
        match &err {
            LTreeError::InvalidOption { key: k, .. } => assert_eq!(k, key, "{spec}"),
            other => panic!("{spec}: expected InvalidOption, got {other}"),
        }
        let msg = err.to_string();
        assert!(msg.contains(key), "{spec}: {msg}");
        assert!(msg.contains("ARCHITECTURE.md"), "{spec}: {msg}");
    }
}

/// The client has no write-behind buffer, so `coalesce` is an unknown
/// option on both client specs, named as the offending key.
#[test]
fn coalesce_is_an_unknown_client_option() {
    let server = LabelServer::bind("127.0.0.1:0", build("ltree(4,2)").unwrap()).unwrap();
    for spec in [
        "served(ltree(4,2),coalesce)".to_owned(),
        format!("remote({},coalesce)", server.local_addr()),
    ] {
        match build(&spec) {
            Err(LTreeError::InvalidOption { key, .. }) => assert_eq!(key, "coalesce", "{spec}"),
            Err(other) => panic!("{spec}: expected InvalidOption, got {other}"),
            Ok(_) => panic!("{spec} built"),
        }
    }
}

/// The `durable(...)` wrapper's options: a missing inner spec is an
/// [`LTreeError::InvalidSpec`]; bad `dir=`, `sync=` and
/// `checkpoint_every=` values are [`LTreeError::InvalidOption`] errors
/// naming the offending key.
#[test]
fn durable_option_errors_are_typed() {
    for spec in ["durable", "durable(4)"] {
        assert!(
            matches!(build(spec), Err(LTreeError::InvalidSpec { .. })),
            "{spec} must be an InvalidSpec error"
        );
    }
    for (spec, key) in [
        // `dir` and `sync` need values; `sync` only accepts two words.
        ("durable(ltree(4,2),dir)", "dir"),
        ("durable(ltree(4,2),dir=)", "dir"),
        ("durable(ltree(4,2),sync)", "sync"),
        ("durable(ltree(4,2),sync=sometimes)", "sync"),
        // `checkpoint_every` must be a positive integer.
        (
            "durable(ltree(4,2),checkpoint_every=soon)",
            "checkpoint_every",
        ),
        ("durable(ltree(4,2),checkpoint_every=0)", "checkpoint_every"),
        (
            "durable(ltree(4,2),checkpoint_every=-3)",
            "checkpoint_every",
        ),
        // Unknown keys and duplicates behave like everywhere else.
        ("durable(ltree(4,2),bogus=1)", "bogus"),
        ("durable(gap,sync=never,sync=always)", "sync"),
    ] {
        let err = build(spec).err().unwrap_or_else(|| panic!("{spec} built"));
        match &err {
            LTreeError::InvalidOption { key: k, .. } => assert_eq!(k, key, "{spec}"),
            other => panic!("{spec}: expected InvalidOption, got {other}"),
        }
        assert!(err.to_string().contains("ARCHITECTURE.md"), "{spec}");
    }
}

/// And the flip side for `durable`: every well-formed option combination
/// builds (dir-less stores live in a self-cleaning scratch directory).
#[test]
fn durable_option_syntax_builds_when_well_formed() {
    for spec in [
        "durable(ltree(4,2))",
        "durable(gap,sync=never)",
        "durable(ltree(4,2),sync=always,checkpoint_every=3)",
        "served(durable(ltree(4,2),checkpoint_every=2))",
        "checked(durable(gap,sync=never))",
    ] {
        let mut s = build(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(s.bulk_build(6).unwrap().len(), 6, "{spec}");
        assert_eq!(s.cursor().count(), 6, "{spec}");
    }
    // An explicit dir= builds too, against a scratch path (fixed paths
    // in tests are lint errors).
    let dir = ltree::remote::scratch_dir("spec-errors");
    let spec = format!("durable(ltree(4,2),dir={})", dir.display());
    let mut s = build(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
    assert_eq!(s.bulk_build(4).unwrap().len(), 4, "{spec}");
    drop(s);
    std::fs::remove_dir_all(&dir).ok();
}

/// The flip side: well-formed options build, on `served` and through
/// arbitrary nesting.
#[test]
fn option_syntax_builds_when_well_formed() {
    for spec in [
        "served(ltree(4,2),conns=2)",
        "served(ltree(4,2),conns=2,retries=1,reconnect,timeout-ms=2000)",
        "served(gap,reconnect)",
        "served( ltree(4,2) , conns=2 , reconnect )",
        "sharded(2,served(ltree(4,2),conns=2))",
    ] {
        let mut s = build(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(s.bulk_build(6).unwrap().len(), 6, "{spec}");
        assert_eq!(s.cursor().count(), 6, "{spec}");
    }
}

#[test]
fn whitespace_and_nesting_still_parse() {
    // The flip side: the parser is strict about structure, not spacing.
    for spec in [
        " ltree( 4 , 2 ) ",
        "sharded( 2 , ltree(4,2) )",
        "served( sharded(2, gap) )",
        "sharded(2,served(ltree(4,2)))",
    ] {
        let mut s = build(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(s.bulk_build(6).unwrap().len(), 6, "{spec}");
    }
}
