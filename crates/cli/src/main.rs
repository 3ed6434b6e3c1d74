//! Thin shim over [`pels_cli`]: parse, execute, report errors on stderr.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match pels_cli::parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", pels_cli::usage());
            std::process::exit(2);
        }
    };
    let results = std::env::var_os("PELS_RESULTS_DIR").map(std::path::PathBuf::from);
    if let Err(e) = pels_cli::execute(cmd, results.as_deref(), &mut std::io::stdout()) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
