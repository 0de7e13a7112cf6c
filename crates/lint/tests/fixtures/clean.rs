//! Fixture: every escape hatch in one file — all rules must stay silent.

// lint:allow(hash-order): counts are summed, never iterated into output.
use std::collections::HashMap;

fn total(m: &HashMap<u32, u32>) -> u32 {
    // The pattern ".unwrap()" inside a string or comment is not code.
    let s = "calling .unwrap() and Instant::now() in a string";
    let _ = s;
    m.values().sum()
}

// lint:allow(no-unwrap): fixture demonstrates a justified unwrap site.
fn startup(x: Option<u8>) -> u8 {
    x.unwrap()
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    #[test]
    fn tests_may_use_clocks_and_unwrap() {
        let t = Instant::now();
        let _ = "x".parse::<u32>().unwrap_or(0);
        assert!(t.elapsed().as_nanos() < u128::MAX);
    }
}
