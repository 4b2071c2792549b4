//! TCP sequence-number arithmetic (RFC 793 §3.3): comparisons on a 32-bit
//! circular space. Shared by the monolithic stack and the sublayered
//! stack's RD sublayer — the *arithmetic* is common; what differs between
//! the designs is who owns the state.

/// `a < b` in sequence space.
#[inline]
pub fn lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// `a <= b` in sequence space.
#[inline]
pub fn leq(a: u32, b: u32) -> bool {
    a == b || lt(a, b)
}

/// `a > b` in sequence space.
#[inline]
pub fn gt(a: u32, b: u32) -> bool {
    lt(b, a)
}

/// `a >= b` in sequence space.
#[inline]
pub fn geq(a: u32, b: u32) -> bool {
    a == b || gt(a, b)
}

/// `lo <= x < hi` in sequence space.
#[inline]
pub fn between(x: u32, lo: u32, hi: u32) -> bool {
    hi.wrapping_sub(lo) > x.wrapping_sub(lo)
}

/// `max` in sequence space.
#[inline]
pub fn max(a: u32, b: u32) -> u32 {
    if gt(a, b) {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ordering() {
        assert!(lt(1, 2));
        assert!(!lt(2, 1));
        assert!(leq(2, 2));
        assert!(gt(2, 1));
        assert!(geq(2, 2));
    }

    #[test]
    fn wrapping_ordering() {
        // Near the wrap point, 0xFFFF_FFFF < 0.
        assert!(lt(u32::MAX, 0));
        assert!(gt(5, u32::MAX - 5));
        assert!(lt(u32::MAX - 5, 5));
    }

    #[test]
    fn between_handles_wrap() {
        assert!(between(5, 1, 10));
        assert!(!between(0, 1, 10));
        assert!(!between(10, 1, 10));
        // Window straddling the wrap point.
        assert!(between(u32::MAX, u32::MAX - 2, 3));
        assert!(between(1, u32::MAX - 2, 3));
        assert!(!between(4, u32::MAX - 2, 3));
    }

    #[test]
    fn empty_window_contains_nothing() {
        assert!(!between(7, 7, 7));
    }

    #[test]
    fn seq_max() {
        assert_eq!(max(3, 9), 9);
        assert_eq!(max(5, u32::MAX - 5), 5);
    }
}
