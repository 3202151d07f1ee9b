//! The workspace's one command-line flag grammar. A binary's `USAGE` text
//! is the only place its flags are declared: [`grammar`] reads one entry
//! of it, and [`Args::from_argv`] parses argv against that entry once,
//! before the binary does any work.
//!
//! An entry runs from `\n  <program>[ <cmd>]` to the next one. `fzgpu`
//! has one entry per subcommand (`fzgpu compress`, `fzgpu store read`,
//! ...); each `fzgpu-bench` binary has a single entry, its own name.

/// One flag as a `USAGE` entry declares it, with the flag it modifies and
/// requires, if any.
#[derive(Clone, Copy)]
pub struct Flag {
    /// The flag, `--` included.
    pub name: &'static str,
    /// Whether the next argv token is its value.
    pub takes_value: bool,
    /// The flag this one modifies; giving it alone is an error.
    pub parent: Option<&'static str>,
}

/// One entry's grammar: its flags, and at most `max_positionals` bare
/// arguments (`fzgpu profile` takes its file or `--synthetic`).
pub struct Grammar {
    /// Every declared flag, in `USAGE` order.
    pub flags: Vec<Flag>,
    /// The most bare arguments the entry accepts.
    pub max_positionals: usize,
}

/// The program a `USAGE` text describes: the first word of its first entry.
fn program(usage: &'static str) -> Option<&'static str> {
    usage.split_once("\n  ")?.1.split_whitespace().next()
}

/// Read the grammar of `cmd`'s entry in `usage` (`cmd` is empty for a
/// single-entry binary). A `--flag` takes the next token as its value
/// unless the flag closes a bracket or that token starts with `-`, `[`,
/// `(` or `|`. A flag opening a `[...]` group inside another group
/// requires the outer group's first flag. Every other `<...>` token is a
/// positional.
pub fn grammar(usage: &'static str, cmd: &str) -> Option<Grammar> {
    let head = format!("\n  {}", program(usage)?);
    let entry = usage.split(head.as_str()).skip(1).find_map(|e| {
        let rest = if cmd.is_empty() { e } else { e.strip_prefix(' ')?.strip_prefix(cmd)? };
        (rest.is_empty() || rest.starts_with(char::is_whitespace)).then_some(rest)
    })?;
    let mut tokens = entry.split_whitespace().peekable();
    let mut grammar = Grammar { flags: Vec::new(), max_positionals: 0 };
    // The first word of each open `[...]` group, innermost last.
    let mut groups: Vec<&'static str> = Vec::new();
    while let Some(tok) = tokens.next() {
        let word = tok.trim_start_matches(['[', '(']).trim_end_matches([']', ')']);
        let opens = tok.len() - tok.trim_start_matches('[').len();
        let parent = groups.last().copied().filter(|w| opens > 0 && w.starts_with("--"));
        groups.extend(std::iter::repeat_n(word, opens));
        let mut last = tok;
        if word.starts_with("--") {
            let closes = tok.ends_with([']', ')']);
            let value = tokens.next_if(|t| !closes && !t.starts_with(['-', '[', '(', '|']));
            last = value.unwrap_or(tok);
            grammar.flags.push(Flag { name: word, takes_value: value.is_some(), parent });
        } else if word.starts_with('<') {
            grammar.max_positionals += 1;
        }
        groups.truncate(groups.len() - (last.len() - last.trim_end_matches(']').len()));
    }
    Some(grammar)
}

/// One entry's argv, parsed once against its grammar.
pub struct Args {
    grammar: Grammar,
    positionals: Vec<String>,
    /// Each flag given, with its value if it takes one.
    given: Vec<(Flag, Option<String>)>,
}

impl Args {
    /// Parse `argv` against `cmd`'s entry in `usage`. Positionals may sit
    /// among the flags; a token starting with `--` is a flag, never a
    /// value. Errors name the subcommand, or the program when `cmd` is
    /// empty.
    ///
    /// # Panics
    /// Panics when `usage` has no entry for `cmd`: that is a bug in the
    /// caller, not an input condition.
    pub fn from_argv(usage: &'static str, cmd: &str, argv: &[String]) -> Result<Args, String> {
        let grammar = grammar(usage, cmd).expect("every command has a USAGE entry");
        let label = if cmd.is_empty() { program(usage).unwrap_or_default() } else { cmd };
        let mut args = Args { grammar, positionals: Vec::new(), given: Vec::new() };
        let mut argv = argv.iter().peekable();
        while let Some(tok) = argv.next() {
            if !tok.starts_with("--") {
                if args.positionals.len() == args.grammar.max_positionals {
                    return Err(format!("{label}: unexpected argument '{tok}'"));
                }
                args.positionals.push(tok.clone());
                continue;
            }
            let flag = args.grammar.flags.iter().find(|f| f.name == tok);
            let &flag = flag.ok_or_else(|| format!("{label}: unknown flag {tok}"))?;
            if args.has(tok) {
                return Err(format!("{label}: {tok} given twice"));
            }
            let value = match argv.next_if(|v| flag.takes_value && !v.starts_with("--")) {
                None if flag.takes_value => return Err(format!("{label}: {tok} needs a value")),
                v => v.cloned(),
            };
            args.given.push((flag, value));
        }
        for (flag, _) in &args.given {
            if let Some(p) = flag.parent.filter(|p| !args.has(p)) {
                return Err(format!("{label}: {} without {p}; modifiers require {p}", flag.name));
            }
        }
        Ok(args)
    }

    /// The `i`th positional, or "missing {what}".
    pub fn pos(&self, i: usize, what: &str) -> Result<&str, String> {
        self.positionals.get(i).map(String::as_str).ok_or_else(|| format!("missing {what}"))
    }

    /// The value slot of `flag` if it was given; reading an undeclared flag is a bug.
    fn slot(&self, flag: &str) -> Option<&Option<String>> {
        debug_assert!(self.grammar.flags.iter().any(|f| f.name == flag), "{flag} not in USAGE");
        self.given.iter().find(|(f, _)| f.name == flag).map(|(_, v)| v)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.slot(flag).is_some()
    }

    /// The value of `flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.slot(flag)?.as_deref()
    }

    /// The value of `flag` parsed as a `T`, if given.
    pub fn parse<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let parse = |s: &str| s.parse().map_err(|_| format!("bad {flag} value '{s}'"));
        self.get(flag).map(parse).transpose()
    }

    /// A count: at least 1.
    pub fn count(&self, flag: &str) -> Result<Option<usize>, String> {
        match self.parse(flag)? {
            Some(0) => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        }
    }

    /// A number, finite and `> 0` (an error bound).
    pub fn positive(&self, flag: &str) -> Result<Option<f64>, String> {
        let v = self.parse::<f64>(flag)?;
        if v.is_some_and(|v| !(v.is_finite() && v > 0.0)) {
            return Err(format!("{flag} must be finite and positive"));
        }
        Ok(v)
    }

    /// A time given in microseconds, finite and `>= 0`, returned in seconds.
    pub fn micros(&self, flag: &str) -> Result<Option<f64>, String> {
        let t = self.parse::<f64>(flag)?;
        if t.is_some_and(|t| !t.is_finite() || t < 0.0) {
            return Err(format!("{flag} must be a nonnegative finite time in us"));
        }
        Ok(t.map(|t| t * 1e-6))
    }

    /// A probability in `[0, 1]`.
    pub fn prob(&self, flag: &str) -> Result<Option<f64>, String> {
        let p = self.parse::<f64>(flag)?;
        if p.is_some_and(|p| !(0.0..=1.0).contains(&p)) {
            return Err(format!("{flag} must be a probability in [0, 1]"));
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "usage:
  tool run  <in> [<out>] --mode fast|slow [--quiet | --level N]
            [--retry P [--retry-max N]]
  tool stat <in>
  tool stats [--json]";

    const SINGLE: &str = "usage:\n  single [--check | --update] [--out <path>]";

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn entries_are_read_per_subcommand_or_per_program() {
        let run = grammar(USAGE, "run").unwrap();
        assert_eq!(run.max_positionals, 2);
        let flags: Vec<_> = run.flags.iter().map(|f| (f.name, f.takes_value, f.parent)).collect();
        assert_eq!(
            flags,
            [
                ("--mode", true, None),
                ("--quiet", false, None),
                ("--level", true, None),
                ("--retry", true, None),
                ("--retry-max", true, Some("--retry")),
            ]
        );
        // `stat` is not a prefix match of `stats`, nor the other way round.
        assert!(grammar(USAGE, "stat").unwrap().flags.is_empty());
        assert_eq!(grammar(USAGE, "stats").unwrap().flags.len(), 1);
        assert!(grammar(USAGE, "sta").is_none());
        let single = grammar(SINGLE, "").unwrap();
        assert_eq!(single.max_positionals, 0);
        let names: Vec<_> = single.flags.iter().map(|f| (f.name, f.takes_value)).collect();
        assert_eq!(names, [("--check", false), ("--update", false), ("--out", true)]);
        assert!(grammar("usage:\n  bare", "").unwrap().flags.is_empty());
    }

    #[test]
    fn positionals_sit_among_flags_and_values_may_start_with_one_dash() {
        let args = Args::from_argv(USAGE, "run", &argv(&["--level", "-1", "a", "--quiet", "b"]));
        let args = args.unwrap();
        assert_eq!(args.pos(0, "input"), Ok("a"));
        assert_eq!(args.pos(1, "output"), Ok("b"));
        assert_eq!(args.get("--level"), Some("-1"));
        assert_eq!(args.parse::<i32>("--level"), Ok(Some(-1)));
        assert!(args.has("--quiet") && !args.has("--mode"));
    }

    #[test]
    fn grammar_errors_name_the_subcommand_or_the_program() {
        let err = |usage, cmd, tokens: &[&str]| Args::from_argv(usage, cmd, &argv(tokens)).err();
        let cases: [(&str, &str, &[&str], &str); 7] = [
            (USAGE, "run", &["--bogus"], "run: unknown flag --bogus"),
            (USAGE, "run", &["--quiet", "--quiet"], "run: --quiet given twice"),
            (USAGE, "run", &["--mode"], "run: --mode needs a value"),
            (USAGE, "run", &["--mode", "--quiet"], "run: --mode needs a value"),
            (USAGE, "stat", &["a", "b"], "stat: unexpected argument 'b'"),
            (
                USAGE,
                "run",
                &["--retry-max", "2"],
                "run: --retry-max without --retry; modifiers require --retry",
            ),
            (SINGLE, "", &["--bogus"], "single: unknown flag --bogus"),
        ];
        for (usage, cmd, tokens, want) in cases {
            assert_eq!(err(usage, cmd, tokens).as_deref(), Some(want), "{tokens:?}");
        }
        assert!(err(SINGLE, "", &["--check", "--update", "--out", "o"]).is_none());
    }

    #[test]
    fn checked_readers_reject_out_of_range_values() {
        let args = |tokens: &[&str]| Args::from_argv(USAGE, "run", &argv(tokens)).unwrap();
        let level = |v: &str| args(&["--level", v]).count("--level");
        assert_eq!(level("3"), Ok(Some(3)));
        assert_eq!(level("0"), Err("--level must be at least 1".into()));
        assert_eq!(level("x"), Err("bad --level value 'x'".into()));
        let retry = |v: &str| args(&["--retry", v]);
        assert_eq!(retry("1e-3").positive("--retry"), Ok(Some(1e-3)));
        for bad in ["0", "-1", "inf", "NaN"] {
            let want = Err("--retry must be finite and positive".into());
            assert_eq!(retry(bad).positive("--retry"), want, "{bad}");
        }
        assert_eq!(retry("250").micros("--retry"), Ok(Some(250e-6)));
        assert!(retry("-1").micros("--retry").is_err());
        assert_eq!(retry("0.5").prob("--retry"), Ok(Some(0.5)));
        assert!(retry("1.5").prob("--retry").is_err());
        assert_eq!(args(&[]).positive("--retry"), Ok(None));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "--verbose not in USAGE")]
    fn reading_an_undeclared_flag_is_a_bug() {
        Args::from_argv(SINGLE, "", &[]).unwrap().has("--verbose");
    }
}
