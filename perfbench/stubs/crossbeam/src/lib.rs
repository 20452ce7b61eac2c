//! Empty stand-in for `crossbeam`. `genie-transport` lists it as a
//! dependency and names nothing from it; the build container has no
//! crates.io access, so the benchmark ships this so the manifest resolves.
