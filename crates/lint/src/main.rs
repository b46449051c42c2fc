//! The `bmf-lint` binary: lints the workspace and exits nonzero on any
//! finding.
//!
//! ```text
//! bmf-lint [--root DIR] [--format human|json] [--list-rules]
//!          [--emit callgraph] [--explain RULE]
//! ```
//!
//! `--emit=callgraph` dumps the workspace call graph instead of linting
//! (DOT under `--format=human`, JSON under `--format=json`); both dumps
//! are byte-deterministic. `--explain <rule>` prints the long-form
//! description of one rule.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error. A reader
//! that closes the output early (`bmf-lint --emit=callgraph | head`)
//! ends the write quietly and leaves the exit code as it was.

#![forbid(unsafe_code)]

use bmf_lint::report;
use bmf_lint::rules::{all_rules, explain_rule};
use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "bmf-lint [--root DIR] [--format human|json] [--list-rules]\n\
                     \x20        [--emit callgraph] [--explain RULE]\n";

struct Options {
    root: PathBuf,
    json: bool,
    list_rules: bool,
    emit_callgraph: bool,
    explain: Option<String>,
    help: bool,
}

/// Splits `--flag=value` into its parts; a bare `--flag` takes the next
/// argument as its value when it needs one.
fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        json: false,
        list_rules: false,
        emit_callgraph: false,
        explain: None,
        help: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (arg, None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| args.next())
                .ok_or(format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--root" => opts.root = PathBuf::from(value()?),
            "--format" => match value()?.as_str() {
                "json" => opts.json = true,
                "human" => opts.json = false,
                other => return Err(format!("--format must be human or json, got `{other}`")),
            },
            "--emit" => match value()?.as_str() {
                "callgraph" => opts.emit_callgraph = true,
                other => return Err(format!("--emit supports callgraph, got `{other}`")),
            },
            "--explain" => opts.explain = Some(value()?),
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => opts.help = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Runs the requested mode: the text to print, and whether it is clean.
fn run(opts: &Options) -> Result<(String, bool), String> {
    if opts.help {
        return Ok((USAGE.to_string(), true));
    }
    if opts.list_rules {
        let lines: String = all_rules()
            .iter()
            .map(|r| format!("{:28} {}\n", r.id(), r.describe()))
            .collect();
        return Ok((lines, true));
    }
    if let Some(rule) = &opts.explain {
        let text = explain_rule(rule)
            .ok_or_else(|| format!("no rule named `{rule}` (see --list-rules)"))?;
        return Ok((format!("{rule}: {text}"), true));
    }
    if opts.emit_callgraph {
        let graph = bmf_lint::analyze_workspace(&opts.root)?.graph;
        let dump = if opts.json {
            graph.to_json()
        } else {
            graph.to_dot()
        };
        return Ok((dump, true));
    }
    let findings = bmf_lint::lint_workspace(&opts.root)?;
    let rendered = if opts.json {
        report::json(&findings)
    } else {
        report::human(&findings)
    };
    Ok((rendered, findings.is_empty()))
}

fn main() -> ExitCode {
    let (text, clean) = match parse_args().and_then(|opts| run(&opts)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("bmf-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("bmf-lint: cannot write the report: {e}");
            return ExitCode::from(2);
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
