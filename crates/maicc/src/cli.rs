//! The strict command-line reader of the workspace's binaries.
//!
//! An argument that starts with `--` is a flag; any other argument is
//! the value of the flag before it or a positional. A program reads the
//! flags it knows, then its positionals, and calls [`Args::finish`]
//! before any work, so a misspelt flag, a forgotten value or a stray
//! argument is an error that names it instead of a silent default.

use std::str::FromStr;

/// One command line, each argument marked once something reads it.
#[derive(Debug)]
pub struct Args {
    args: Vec<String>,
    read: Vec<bool>,
}

impl FromIterator<String> for Args {
    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let args: Vec<String> = iter.into_iter().collect();
        let read = vec![false; args.len()];
        Args { args, read }
    }
}

impl Args {
    /// Whether the switch `name` is given; an error if given twice.
    pub fn switch(&mut self, name: &str) -> Result<bool, String> {
        Ok(self.once(name, false)?.is_some())
    }

    /// The value of the flag `name`, if given; an error if the flag is
    /// given twice or without a value, or if the value does not parse.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.once(name, true)?
            .map(|v| v.parse().map_err(|_| format!("bad {name} value `{v}`")))
            .transpose()
    }

    /// The values of a repeatable flag, in order; an error if one is missing.
    pub fn values(&mut self, name: &str) -> Result<Vec<String>, String> {
        self.take(name, true)
    }

    /// The first argument nothing has read that is not a flag.
    pub fn positional(&mut self) -> Option<String> {
        let i = (0..self.args.len()).find(|&i| !self.read[i] && !self.args[i].starts_with("--"))?;
        self.read[i] = true;
        Some(self.args[i].clone())
    }

    /// Ends reading; an error naming the first argument nothing read.
    pub fn finish(self) -> Result<(), String> {
        match self.args.iter().zip(&self.read).find(|(_, &read)| !read) {
            Some((arg, _)) => Err(format!("unexpected argument `{arg}`")),
            None => Ok(()),
        }
    }

    /// Marks each `name` read, with its value when `with_value`, and
    /// returns the values (an empty string per switch).
    fn take(&mut self, name: &str, with_value: bool) -> Result<Vec<String>, String> {
        let mut found = Vec::new();
        for i in (0..self.args.len()).filter(|&i| self.args[i] == name) {
            self.read[i] = true;
            if !with_value {
                found.push(String::new());
                continue;
            }
            match self.args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    self.read[i + 1] = true;
                    found.push(v.clone());
                }
                _ => return Err(format!("{name} needs a value")),
            }
        }
        Ok(found)
    }

    /// [`Args::take`] for a flag given at most once.
    fn once(&mut self, name: &str, with_value: bool) -> Result<Option<String>, String> {
        let mut found = self.take(name, with_value)?;
        if found.len() > 1 {
            return Err(format!("{name} given twice"));
        }
        Ok(found.pop())
    }
}

#[cfg(test)]
mod tests {
    use super::Args;
    use proptest::prelude::*;

    fn args(line: &str) -> Args {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn reads_flags_in_any_order_before_positionals() {
        let mut a = args("--max-steps 50 prog.s --json");
        assert_eq!(a.value::<u64>("--max-steps"), Ok(Some(50)));
        assert_eq!(a.switch("--json"), Ok(true));
        assert_eq!(a.switch("--quick"), Ok(false));
        assert_eq!(a.value::<u64>("--seed"), Ok(None));
        assert_eq!(a.positional().as_deref(), Some("prog.s"));
        assert_eq!(a.positional(), None);
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn each_error_names_the_argument() {
        let err = |line: &str, read: fn(&mut Args) -> Result<(), String>| {
            let mut a = args(line);
            read(&mut a).and_then(|()| a.finish()).unwrap_err()
        };
        let seed = |a: &mut Args| a.value::<u64>("--seed").map(drop);
        assert_eq!(err("--seed 42 --seed 7", seed), "--seed given twice");
        assert_eq!(err("--seed", seed), "--seed needs a value");
        assert_eq!(err("--seed --json", seed), "--seed needs a value");
        assert_eq!(err("--seed x", seed), "bad --seed value `x`");
        assert_eq!(
            err("--seed 1 --polcy sjf", seed),
            "unexpected argument `--polcy`"
        );
        assert_eq!(
            err("--json --json", |a| a.switch("--json").map(drop)),
            "--json given twice"
        );
        let faults = |a: &mut Args| a.values("--fault").map(drop);
        assert_eq!(err("--fault a --fault", faults), "--fault needs a value");
    }

    /// Value flags, switches and misspellings the property reads or leaves.
    const FLAGS: [&str; 3] = ["--seed", "--horizon", "--policy"];
    const SWITCHES: [&str; 2] = ["--json", "--quick"];
    const STRAYS: [&str; 4] = ["--polcy", "--jsn", "-q", "stray"];

    /// Reads every known flag and switch, tolerating errors.
    fn read_all(a: &mut Args) -> Vec<Result<Option<String>, String>> {
        let mut seen: Vec<_> = FLAGS.iter().map(|f| a.value(f)).collect();
        seen.extend(
            SWITCHES
                .iter()
                .map(|s| a.switch(s).map(|on| on.then(String::new))),
        );
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any mix of known flags, switches, misspellings and values:
        /// reading never panics.
        #[test]
        fn prop_reading_never_panics(
            picks in proptest::collection::vec(0usize..10, 0..10),
        ) {
            let words = ["--seed", "--horizon", "--policy", "--json", "--quick",
                         "--polcy", "--jsn", "-q", "7", "sjf"];
            let mut a: Args = picks.iter().map(|&w| words[w].to_string()).collect();
            let _ = read_all(&mut a);
            let _ = a.values("--seed");
            while a.positional().is_some() {}
            let _ = a.finish();
        }

        /// Known flags each given once with a value, in any order, read
        /// the same values; a stray token between two of them is left
        /// unread and `finish` names it.
        #[test]
        fn prop_order_does_not_change_values_and_strays_are_named(
            given in proptest::collection::vec((any::<bool>(), 0u64..1_000_000), 5),
            order in proptest::collection::vec(any::<u64>(), 5),
            stray in (any::<bool>(), 0usize..6, 0usize..4)
                .prop_map(|(on, at, token)| on.then_some((at, token))),
        ) {
            // `given[i]`: whether flag or switch `i` appears, and its value
            let mut pairs: Vec<Vec<String>> = Vec::new();
            for (i, &(on, v)) in given.iter().enumerate() {
                if !on {
                    continue;
                }
                pairs.push(match FLAGS.get(i) {
                    Some(f) => vec![f.to_string(), v.to_string()],
                    None => vec![SWITCHES[i - FLAGS.len()].to_string()],
                });
            }
            let in_order: Args = pairs.concat().into_iter().collect();
            let mut keyed: Vec<(u64, Vec<String>)> =
                order.iter().copied().zip(pairs.iter().cloned()).collect();
            keyed.sort();
            let mut shuffled: Vec<Vec<String>> = keyed.into_iter().map(|(_, p)| p).collect();
            if let Some((at, token)) = stray {
                shuffled.insert(at % (shuffled.len() + 1), vec![STRAYS[token].to_string()]);
            }
            let mut a = in_order;
            let mut b: Args = shuffled.concat().into_iter().collect();
            let want: Vec<Result<Option<String>, String>> = given
                .iter()
                .enumerate()
                .map(|(i, &(on, v))| {
                    Ok(on.then(|| if i < FLAGS.len() { v.to_string() } else { String::new() }))
                })
                .collect();
            prop_assert_eq!(read_all(&mut a), want.clone());
            prop_assert_eq!(read_all(&mut b), want);
            prop_assert_eq!(a.finish(), Ok(()));
            match stray {
                Some((_, token)) => prop_assert_eq!(
                    b.finish(),
                    Err(format!("unexpected argument `{}`", STRAYS[token]))
                ),
                None => prop_assert_eq!(b.finish(), Ok(())),
            }
        }
    }
}
