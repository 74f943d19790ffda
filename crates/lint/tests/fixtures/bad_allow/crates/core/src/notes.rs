//! Fixture: malformed allow annotations are themselves violations.

// goggles-lint: allow(no-such-rule): misspelled rule names must not pass silently
pub fn f() {}

// goggles-lint: allow(atomics)
pub fn g() {}
