//! Strict command line: every flag is known or the run is refused.

use std::path::PathBuf;

pub const USAGE: &str = "\
usage: ppcbench [--workload <name>] [--seed <u64>] [--seconds <1..60>]
                [--trace [0|1]] [--out <path>] [--list]

  --workload <name>  run one workload (see --list); without it every
                     workload runs in turn, each in its own process
  --seed <u64>       input seed (default 1): same seed, same inputs
  --seconds <n>      measuring time of one run in seconds (default 14)
  --trace [0|1]      1 (or bare --trace): the per-layer run; 0: end-to-end
  --out <path>       also write the result, with host context, to a file
  --list             print every workload and metric name with its unit";

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub list: bool,
    pub out: Option<PathBuf>,
}

/// Parse `argv` (without the program name). `workloads` is the list of
/// valid `--workload` names. Any unknown flag, missing or malformed
/// value, repeated flag or stray positional is an error.
pub fn parse<I>(argv: I, workloads: &[&str]) -> Result<Args, String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 14,
        trace: false,
        list: false,
        out: None,
    };
    let mut seen: Vec<String> = Vec::new();
    let mut it = argv.into_iter().peekable();
    while let Some(flag) = it.next() {
        if seen.contains(&flag) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag.clone());
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; known: {}",
                        workloads.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let v = value("a u64")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value("a whole number of seconds")?;
                args.seconds = match v.parse() {
                    Ok(n @ 1..=60) => n,
                    _ => return Err(format!("--seconds {v:?} is not a whole number in 1..=60")),
                };
            }
            "--trace" => {
                // The value is optional so both the plain flag and the
                // `--trace 0|1` form are accepted.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: &[&str] = &["inline_null", "fs_chain"];

    fn p(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from), W)
    }

    #[test]
    fn accepts_the_driver_form() {
        let a = p("--workload fs_chain --seed 18446744073709551615 --seconds 7 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("fs_chain"));
        assert_eq!((a.seed, a.seconds, a.trace), (u64::MAX, 7, false));
        assert!(p("--workload inline_null --trace 1").unwrap().trace);
        assert!(p("--trace --workload inline_null").unwrap().trace);
        assert!(p("--list").unwrap().list);
        assert_eq!(
            p("--out x.json").unwrap().out,
            Some(PathBuf::from("x.json"))
        );
    }

    #[test]
    fn defaults() {
        let a = p("").unwrap();
        assert_eq!(
            a,
            Args {
                workload: None,
                seed: 1,
                seconds: 14,
                trace: false,
                list: false,
                out: None
            }
        );
    }

    #[test]
    fn rejects_typos_and_bad_values() {
        for bad in [
            "--workloads fs_chain",
            "--workload fs_chian",
            "--workload",
            "--seed",
            "--seed -1",
            "--seed 1.5",
            "--seed 18446744073709551616",
            "--seconds 0",
            "--seconds 61",
            "--seconds ten",
            "--trace 2",
            "--smoke",
            "fs_chain",
            "--seed 1 --seed 2",
            "--out",
        ] {
            assert!(p(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
