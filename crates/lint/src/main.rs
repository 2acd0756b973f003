//! CLI: `cargo run -p lo-lint -- [flags]`
//!
//! Exit codes: 0 clean (or findings without `--deny`), 1 findings with
//! `--deny`, 2 operational error (bad manifest, unreadable workspace).

use lo_lint::{find_root, is_dirty, run_lint, Config};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
lo-lint — static analyzer for the logical-ordering concurrency protocol

USAGE:
    lo-lint [--root DIR] [--manifest PATH] [--format text|json] [--out FILE] [--deny]

FLAGS:
    --root DIR         workspace root (default: walk up to ordering_policy.toml)
    --manifest PATH    policy manifest (default: <root>/ordering_policy.toml)
    --format FMT       `text` (default) or `json`
    --out FILE         also write the report to FILE
    --deny             exit 1 if there is any finding
    -h, --help         this help
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut manifest: Option<PathBuf> = None;
    let mut format = "text".to_string();
    let mut out_file: Option<PathBuf> = None;
    let mut deny = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let r = match a.as_str() {
            "--root" => take("--root").map(|v| root = Some(PathBuf::from(v))),
            "--manifest" => take("--manifest").map(|v| manifest = Some(PathBuf::from(v))),
            "--format" => take("--format").map(|v| format = v),
            "--out" => take("--out").map(|v| out_file = Some(PathBuf::from(v))),
            "--deny" => {
                deny = true;
                Ok(())
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(e) = r {
            eprintln!("lo-lint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if format != "text" && format != "json" {
        eprintln!("lo-lint: --format must be `text` or `json`");
        return ExitCode::from(2);
    }

    let root = match root.or_else(|| {
        std::env::current_dir().ok().and_then(|d| find_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!(
                "lo-lint: no ordering_policy.toml found walking up from the current \
                 directory; pass --root"
            );
            return ExitCode::from(2);
        }
    };

    let cfg = Config { root, manifest };
    let report = match run_lint(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lo-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let rendered = match format.as_str() {
        "json" => report.to_json(),
        _ => report.to_text(),
    };
    print!("{rendered}");
    if let Some(path) = out_file {
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("lo-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if deny && is_dirty(&report) {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
