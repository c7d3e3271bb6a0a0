//! `repro <id>` regenerates one paper experiment on stdout; `repro all`
//! runs every one in order. With no or an unknown id it lists the ids and
//! exits 2.

use std::io::Write;
use std::process::ExitCode;

use tce_bench::repro::{run, IDS};

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let all = arg == "all";
    let selected: Vec<_> = IDS.iter().filter(|&&(id, _)| all || id == arg).collect();
    if selected.is_empty() {
        eprintln!("usage: repro <id> | all\n\nexperiments:");
        for (id, what) in IDS {
            eprintln!("  {id:<4} {what}");
        }
        return ExitCode::from(2);
    }
    let mut out = std::io::stdout().lock();
    for (id, what) in selected {
        if all {
            let _ = writeln!(out, "##### {id}: {what}\n");
        }
        if let Err(e) = run(id, &mut out) {
            let _ = out.flush();
            eprintln!("repro {id}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
