//! The `odp` binary: every subcommand lives in `odp_cli`.
#![forbid(unsafe_code)]

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    odp_cli::exit_code(odp_cli::dispatch(&args, &mut std::io::stdout()))
}
