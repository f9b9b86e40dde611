//! Seeded violation: `orphan` is public but no binary, example, test
//! or benchmark reaches it — only its own unit test does.

pub fn used(x: u64) -> u64 {
    x + 1
}

pub fn as_pointer(x: u64) -> u64 {
    2 * x
}

pub fn orphan() -> u64 {
    3
}

#[cfg(test)]
mod tests {
    #[test]
    fn orphan_is_three() {
        assert_eq!(super::orphan(), 3);
    }
}
