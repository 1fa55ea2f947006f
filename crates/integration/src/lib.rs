//! Anchor package for the workspace-level integration tests in
//! `/tests` and the examples in `/examples` (the workspace root is
//! virtual, so those targets need a member package to belong to; the
//! manifest's explicit `[[test]]`/`[[example]]` paths point at them).
#![forbid(unsafe_code)]
