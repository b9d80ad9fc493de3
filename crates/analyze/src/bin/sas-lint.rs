//! `sas-lint` — static speculative-gadget and MTE tag-discipline linter.
//!
//! ```text
//! sas-lint [--json] [--quiet] [--suggest] [--spec-window N] [--taint X0,X1] FILE
//! sas-lint --all-attacks [--expect FILE] [--json]
//! ```
//!
//! Exit status: `0` clean, `1` gadget findings / cross-validation failure /
//! `--expect` mismatch, `2` usage errors (bad flags, unreadable input,
//! parse errors). `--quiet` suppresses all stdout; scripts branch on the
//! exit code alone.

use sas_analyze::{analyze, harden, xval, AnalysisConfig};
use sas_isa::{parse_program, Reg};
use specasan::SimConfig;
use std::process::ExitCode;

const USAGE: &str = "\
usage: sas-lint [--json] [--quiet] [--suggest] [--spec-window N] [--taint REG[,REG...]] FILE
       sas-lint --all-attacks [--expect FILE] [--json]

  FILE              SAS-IR assembly file to analyze
  --json            emit findings (or verdicts) as JSON lines
  --quiet           print nothing; the exit code is the whole answer
  --suggest         also compute and print a minimal CSDB cut set
  --spec-window N   speculative window length in instructions (default 64)
  --taint REGS      registers holding attacker-controlled data at entry
  --all-attacks     cross-validate the static analyzer against every PoC in
                    the attack suite (static flag vs. dynamic leak, and
                    hardened-program re-analysis)
  --expect FILE     with --all-attacks: fail unless the verdict table equals
                    FILE byte-for-byte
";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("sas-lint: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

fn parse_reg(s: &str) -> Option<Reg> {
    let u = s.trim().to_ascii_uppercase();
    match u.as_str() {
        "XZR" => Some(Reg::XZR),
        "SP" => Some(Reg::SP),
        _ => {
            let n: u8 = u.strip_prefix('X')?.parse().ok()?;
            if n <= 30 {
                Some(Reg::X(n))
            } else {
                None
            }
        }
    }
}

struct Options {
    json: bool,
    quiet: bool,
    suggest: bool,
    all_attacks: bool,
    expect: Option<String>,
    spec_window: Option<u32>,
    taint: Vec<Reg>,
    file: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        json: false,
        quiet: false,
        suggest: false,
        all_attacks: false,
        expect: None,
        spec_window: None,
        taint: Vec::new(),
        file: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => o.json = true,
            "--quiet" => o.quiet = true,
            "--suggest" => o.suggest = true,
            "--all-attacks" => o.all_attacks = true,
            "--expect" => {
                o.expect =
                    Some(it.next().ok_or("--expect needs a file argument")?.clone());
            }
            "--spec-window" => {
                let v = it.next().ok_or("--spec-window needs a number")?;
                o.spec_window =
                    Some(v.parse().map_err(|_| format!("bad --spec-window value '{v}'"))?);
            }
            "--taint" => {
                let v = it.next().ok_or("--taint needs a register list")?;
                for part in v.split(',') {
                    o.taint.push(
                        parse_reg(part).ok_or(format!("bad register '{part}' in --taint"))?,
                    );
                }
            }
            "--help" | "-h" => return Err(String::new()),
            f if !f.starts_with('-') => {
                if o.file.replace(f.to_string()).is_some() {
                    return Err("more than one input file".into());
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if o.all_attacks == o.file.is_some() {
        return Err("pass exactly one of FILE or --all-attacks".into());
    }
    if o.all_attacks && (o.suggest || o.spec_window.is_some() || !o.taint.is_empty()) {
        return Err("--suggest/--spec-window/--taint only apply to file mode".into());
    }
    if o.quiet && (o.json || o.suggest) {
        return Err("--quiet contradicts --json/--suggest".into());
    }
    Ok(o)
}

fn lint_file(o: &Options) -> ExitCode {
    let path = o.file.as_deref().expect("file mode");
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return usage_error(&format!("cannot read {path}: {e}")),
    };
    let program = match parse_program(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sas-lint: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut acfg = AnalysisConfig::default();
    if let Some(w) = o.spec_window {
        acfg.spec_window = w;
    }
    acfg.attacker_regs = o.taint.clone();
    let analysis = analyze(&program, &acfg);
    if !o.quiet {
        for f in &analysis.findings {
            if o.json {
                println!("{}", f.to_json_line());
            } else {
                println!("{}", f.render_human(&program));
            }
        }
    }
    let gadgets = analysis.gadget_count();
    let lints = analysis.lints().count();
    if !o.json && !o.quiet {
        println!("{gadgets} gadget finding(s), {lints} lint(s)");
    }
    if o.suggest {
        match harden(&program, &acfg) {
            Ok(h) => {
                if h.cuts.is_empty() {
                    println!("no CSDB insertions needed");
                } else {
                    println!("suggested CSDB insertions (before these instructions):");
                    for &c in &h.cuts {
                        let line = program
                            .listing()
                            .lines()
                            .find(|l| l.trim_start().starts_with(&format!("{c}: ")))
                            .unwrap_or("")
                            .trim_end()
                            .to_string();
                        println!("{line}");
                    }
                }
            }
            Err(e) => {
                eprintln!("sas-lint: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::from(u8::from(gadgets > 0))
}

fn verdict_json(v: &sas_analyze::xval::AttackVerdict) -> String {
    format!(
        "{{\"attack\":\"{}\",\"dynamic_leak\":{},\"gadgets\":{},\"agree\":{},\
         \"hardened_gadgets\":{},\"cuts\":{}}}",
        sas_telemetry::json::escape(v.name),
        v.dynamic_leak,
        v.gadget_count,
        v.agrees(),
        v.hardened_gadgets,
        v.cuts,
    )
}

fn run_all_attacks(o: &Options) -> ExitCode {
    let cfg = SimConfig::table2();
    let verdicts = xval::cross_validate(&cfg);
    let table = xval::verdict_table(&verdicts);
    if o.json {
        for v in &verdicts {
            println!("{}", verdict_json(v));
        }
    } else {
        print!("{table}");
    }
    let mut failed = xval::failures(&verdicts);
    if let Some(path) = &o.expect {
        match std::fs::read_to_string(path) {
            Ok(expected) => {
                if expected != table {
                    eprintln!(
                        "sas-lint: verdict table differs from {path}\n--- expected ---\n\
                         {expected}--- actual ---\n{table}"
                    );
                    failed += 1;
                }
            }
            Err(e) => return usage_error(&format!("cannot read {path}: {e}")),
        }
    }
    if failed > 0 {
        eprintln!("sas-lint: {failed} cross-validation failure(s)");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => return usage_error(&msg),
    };
    if o.all_attacks {
        run_all_attacks(&o)
    } else {
        lint_file(&o)
    }
}
