//! Nothing to export: the property suites are the integration tests
//! under `tests/`, each moved here unchanged from the crate it tests.
