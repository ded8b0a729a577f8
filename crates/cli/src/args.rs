//! Command-line grammar. Each verb declares the flags it accepts once,
//! as it parses: that one declaration separates positionals from flag
//! values *and* rejects everything else, so the two cannot drift.

use std::fmt::Display;
use std::str::FromStr;

use adminref_core::ordering::OrderingMode;
use adminref_core::transition::AuthMode;

use crate::Run;

/// One verb's parsed command line.
#[derive(Default)]
pub(crate) struct Args<'a> {
    pos: Vec<&'a str>,
    /// `(name, value)`; a switch's value is empty.
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Parses `rest` against a verb's grammar: at most `max_pos`
    /// positionals, and only the flags named in `accepted` — each a
    /// space-separated list, so twins can share one and add their own.
    /// A name spelled `--flag=` takes the next argument as its value,
    /// wherever it sits among the positionals; a bare `--flag` is a
    /// switch. Anything else is a usage error naming the offender.
    pub(crate) fn parse(rest: &'a [&String], max_pos: usize, accepted: &[&str]) -> Run<Self> {
        let mut args = Args::default();
        let mut it = rest.iter().map(|s| s.as_str());
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                if args.pos.len() == max_pos {
                    return Err(format!("unexpected argument `{arg}`").into());
                }
                args.pos.push(arg);
                continue;
            }
            let spec = accepted
                .iter()
                .flat_map(|list| list.split_whitespace())
                .find(|spec| spec.strip_suffix('=').unwrap_or(spec) == arg)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let mut value = "";
            if spec.ends_with('=') {
                let next = it.next().filter(|v| !v.starts_with("--"));
                value = next.ok_or_else(|| format!("{arg} needs a value"))?;
            }
            args.flags.push((arg, value));
        }
        Ok(args)
    }

    /// Was the switch (or value flag) given?
    pub(crate) fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The value of the first occurrence of a value flag.
    pub(crate) fn value(&self, name: &str) -> Option<&'a str> {
        self.flags.iter().find(|(f, _)| *f == name).map(|(_, v)| *v)
    }

    /// The `n`th positional, or a usage error naming `what` is missing.
    pub(crate) fn pos(&self, n: usize, what: &str) -> Run<&'a str> {
        let found = self.pos.get(n).copied();
        Ok(found.ok_or_else(|| format!("missing {what}"))?)
    }

    /// A numeric value flag, or `default` when it was not given.
    pub(crate) fn number<T: FromStr>(&self, name: &str, default: T) -> Run<T>
    where
        T::Err: Display,
    {
        match self.value(name) {
            Some(v) => Ok(v.parse().map_err(|e| format!("{name}: {e}"))?),
            None => Ok(default),
        }
    }

    /// `--ordered` selects Extended-ordering authorization for the
    /// in-process monitor; a served monitor has its own mode.
    pub(crate) fn auth_mode(&self) -> AuthMode {
        if self.has("--ordered") {
            AuthMode::Ordered(OrderingMode::Extended)
        } else {
            AuthMode::Explicit
        }
    }
}
