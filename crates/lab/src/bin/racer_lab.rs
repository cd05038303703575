//! `racer-lab` binary: see [`racer_lab::cli`].
//!
//! Exit codes are the documented taxonomy in [`racer_lab::error`]:
//! 0 success, 2 usage, 3 io, 4 parse, 5 param, 6 scenario-panic,
//! 7 timeout, 8 checkpoint-conflict, 9 partial success
//! (`report --keep-going`).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match racer_lab::cli::dispatch(&args) {
        Ok(racer_lab::cli::Outcome::Ok) => {}
        Ok(racer_lab::cli::Outcome::Partial) => std::process::exit(9),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
