//! Shared by the golden-value tests (`parallel_engine.rs`, `hotpath.rs`).

/// FNV-1a of a rendered observation.
pub fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Prints what a cell observed when `PINNED_SHOW` is set (run with
/// `--nocapture`), for when a golden has to be re-taken.
pub fn show(name: &str, o: &dyn std::fmt::Debug) {
    if std::env::var_os("PINNED_SHOW").is_some() {
        eprintln!("{name}: {o:?}");
    }
}
