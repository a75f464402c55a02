//! Empty stand-in: only dev-dependencies of the crates under `crates/` name it, and the benchmark builds none of them.
