//! Byte-identity gate for the paper outputs: every `table*`/`figure*`
//! binary, run at the default corpus scale, must print exactly the
//! checked-in `tests/golden/<bin>.txt`.
//!
//! A changed number here means an engine, pipeline or scoring edit moved a
//! paper result. If the move is intended, re-record the golden with
//! `cargo run -p seed-bench --bin <bin> > crates/bench/tests/golden/<bin>.txt`
//! (with `SEED_SCALE` unset) and say why in the change description.

use std::process::Command;

fn assert_matches_golden(bin: &str, exe: &str, golden: &str) {
    let output = Command::new(exe)
        .env_remove("SEED_SCALE")
        .output()
        .unwrap_or_else(|e| panic!("failed to run {bin}: {e}"));
    assert!(
        output.status.success(),
        "{bin} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    if stdout != golden {
        let first_diff = stdout
            .lines()
            .zip(golden.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| stdout.lines().count().min(golden.lines().count()));
        panic!(
            "{bin} stdout differs from tests/golden/{bin}.txt at line {}:\n--- got ---\n{stdout}\n--- want ---\n{golden}",
            first_diff + 1
        );
    }
}

macro_rules! paper_golden {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            assert_matches_golden(
                stringify!($bin),
                env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                include_str!(concat!("golden/", stringify!($bin), ".txt")),
            );
        }
    )*};
}

paper_golden!(table1, table2, table3, table4, table5, table6, table7, figure1, figure2, figure3);
