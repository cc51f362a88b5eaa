//! Strict command-line parsing shared by every bd-bench bin.
//!
//! Each bin declares the flags it accepts as a `&[Flag]` table: switches
//! (`--quick`) and value flags (`--cycles N`) with the type their value
//! must parse as. [`parse`] rejects unknown flags, repeated flags, missing
//! values, values that do not parse, and a flag standing where a value is
//! expected (`--store --quick`), so a typo can never silently fall back to
//! a default. [`parse_env`] is the `main` entry point: any error becomes
//! one message plus a usage line generated from the table, and exit 2.

use std::str::FromStr;

/// One accepted flag.
pub struct Flag {
    name: &'static str,
    /// `(metavar, check)` for value flags; `check` tells whether a raw
    /// value parses as the declared type.
    value: Option<(&'static str, fn(&str) -> bool)>,
}

impl Flag {
    /// A flag that takes no value.
    pub const fn switch(name: &'static str) -> Flag {
        Flag { name, value: None }
    }

    /// A flag whose value must parse as `T` (shown as `metavar` in the
    /// usage line). Read it back with [`Args::get`] at the same `T`.
    pub const fn value<T: FromStr>(name: &'static str, metavar: &'static str) -> Flag {
        Flag {
            name,
            value: Some((metavar, parses::<T>)),
        }
    }
}

fn parses<T: FromStr>(raw: &str) -> bool {
    raw.parse::<T>().is_ok()
}

/// `--store DIR`: open a content-addressed result store (see
/// [`crate::open_store`]).
pub const STORE: Flag = Flag::value::<String>("--store", "DIR");

/// `--trace-out FILE`: export a Chrome trace (see [`crate::TraceOut`]).
pub const TRACE_OUT: Flag = Flag::value::<String>("--trace-out", "FILE");

/// The flags one invocation gave, checked against the bin's table.
#[derive(Debug)]
pub struct Args {
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Whether `name` was given (switch or value flag).
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value of `name` as `T`, if given. `T` must be the type the
    /// flag was declared with; [`parse`] already checked that it parses.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let raw = self.given.iter().find(|(n, _)| *n == name)?.1.as_deref()?;
        let value = raw.parse().ok();
        assert!(
            value.is_some(),
            "{name} read as a type it was not declared with"
        );
        value
    }
}

/// Check `argv` (without the program name) against `flags`.
pub fn parse(flags: &[Flag], argv: &[String]) -> Result<Args, String> {
    let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        let flag = flags
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown argument {arg:?}"))?;
        if given.iter().any(|(n, _)| *n == flag.name) {
            return Err(format!("{arg} given twice"));
        }
        let value = match flag.value {
            None => None,
            Some((metavar, check)) => {
                let raw = rest
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{arg} needs a value ({metavar})"))?;
                if !check(raw) {
                    return Err(format!("{arg}: cannot parse {raw:?} as {metavar}"));
                }
                Some(raw.clone())
            }
        };
        given.push((flag.name, value));
    }
    Ok(Args { given })
}

/// The usage line generated from a flag table.
pub fn usage(bin: &str, flags: &[Flag]) -> String {
    let mut line = format!("usage: {bin}");
    for flag in flags {
        match flag.value {
            None => line += &format!(" [{}]", flag.name),
            Some((metavar, _)) => line += &format!(" [{} {metavar}]", flag.name),
        }
    }
    line
}

/// Print `{bin}: {message}` and the usage line to stderr, then exit 2.
pub fn fail(bin: &str, flags: &[Flag], message: &str) -> ! {
    eprintln!("{bin}: {message}\n{}", usage(bin, flags));
    std::process::exit(2);
}

/// Parse the process arguments against `flags`, exiting 2 via [`fail`]
/// on any error.
pub fn parse_env(bin: &str, flags: &[Flag]) -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse(flags, &argv).unwrap_or_else(|e| fail(bin, flags, &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag::switch("--quick"),
        Flag::value::<u64>("--cycles", "N"),
        STORE,
    ];

    fn run(argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        parse(FLAGS, &argv)
    }

    #[test]
    fn accepts_declared_flags_in_any_order() {
        let args = run(&["--store", "/tmp/s", "--quick", "--cycles", "7"]).unwrap();
        assert!(args.has("--quick"));
        assert_eq!(args.get::<u64>("--cycles"), Some(7));
        assert_eq!(args.get::<String>("--store").as_deref(), Some("/tmp/s"));
        let empty = run(&[]).unwrap();
        assert!(!empty.has("--quick"));
        assert_eq!(empty.get::<u64>("--cycles"), None);
    }

    #[test]
    fn rejects_unknown_flags_and_stray_arguments() {
        for argv in [&["--quikc"][..], &["--case", "3"], &["--quick", "extra"]] {
            let err = run(argv).unwrap_err();
            assert!(err.starts_with("unknown argument"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn rejects_a_missing_value() {
        assert_eq!(
            run(&["--quick", "--cycles"]).unwrap_err(),
            "--cycles needs a value (N)"
        );
    }

    #[test]
    fn rejects_a_value_that_does_not_parse() {
        assert_eq!(
            run(&["--cycles", "abc"]).unwrap_err(),
            "--cycles: cannot parse \"abc\" as N"
        );
        assert!(run(&["--cycles", "-1"]).is_err());
    }

    #[test]
    fn rejects_a_flag_where_a_value_is_expected() {
        assert_eq!(
            run(&["--store", "--quick"]).unwrap_err(),
            "--store needs a value (DIR)"
        );
    }

    #[test]
    fn rejects_a_repeated_flag() {
        assert_eq!(
            run(&["--quick", "--quick"]).unwrap_err(),
            "--quick given twice"
        );
    }

    #[test]
    fn usage_lists_every_flag() {
        assert_eq!(
            usage("chaos", FLAGS),
            "usage: chaos [--quick] [--cycles N] [--store DIR]"
        );
    }
}
