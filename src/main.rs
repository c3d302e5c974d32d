//! The `govdns` command-line tool: generate a calibrated world, run the
//! measurement campaign, and query the results — the operational face of
//! the library. Every subcommand shares one argument reader and one exit
//! mapping (see `cli`).

use std::process::ExitCode;

mod cli;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    cli::exit_code(cli::run(&argv))
}

#[cfg(test)]
mod tests {
    use crate::cli::paper::parse_args;
    use crate::cli::Error;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let o = parse_args(&args(&["audit", "--scale", "0.2", "--seed", "9", "--loss", "0.1"]))
            .unwrap();
        assert_eq!(o.positional, vec!["audit"]);
        assert_eq!(o.scale, 0.2);
        assert_eq!(o.seed, 9);
        assert_eq!(o.loss, 0.1);
        assert_eq!(o.workers, 8);
        // Integers parse as integers: no round trip through f64.
        let o = parse_args(&args(&["audit", "--seed", "9007199254740993"])).unwrap();
        assert_eq!(o.seed, 9_007_199_254_740_993);
    }

    #[test]
    fn positional_order_is_preserved() {
        let o = parse_args(&args(&["country", "br", "--workers", "2"])).unwrap();
        assert_eq!(o.positional, vec!["country", "br"]);
        assert_eq!(o.workers, 2);
    }

    #[test]
    fn rejects_unknown_and_valueless_flags() {
        let usage_error = |list: &[&str]| matches!(parse_args(&args(list)), Err(Error::Usage(_)));
        assert!(usage_error(&["--nope"]));
        assert!(usage_error(&["--scale"]));
        assert!(usage_error(&["--seed", "abc"]));
        // Values a cast would have silently changed.
        assert!(usage_error(&["--seed", "-5"]));
        assert!(usage_error(&["--seed", "7.5"]));
        assert!(usage_error(&["--workers", "0.5"]));
        // Outside the generator's (0, 2] bound: rejected before it can panic.
        assert!(usage_error(&["--scale", "0"]));
        assert!(usage_error(&["--scale", "2.5"]));
        assert!(usage_error(&["--scale", "NaN"]));
    }
}
