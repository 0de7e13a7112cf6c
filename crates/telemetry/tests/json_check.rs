//! `json::check` accepts exactly what `json::parse` accepts, with the same
//! error, on the values the result store holds, on their prefixes (the
//! shape of a torn write), and on seeded random mutations that reach
//! escapes, numbers, nesting and multi-byte UTF-8.

use ruche_telemetry::json::{check, parse};
use std::path::Path;

/// Asserts the checker and the parser agree on `s`, error included.
fn agree(s: &str) {
    assert_eq!(check(s), parse(s).map(drop), "disagree on {s:?}");
}

/// The values of every line of the committed sweep store.
fn store_values() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/sweep_store/store.tsv");
    std::fs::read_to_string(path)
        .expect("the committed store")
        .lines()
        .filter_map(|l| l.split_once('\t'))
        .map(|(_, v)| v.to_string())
        .collect()
}

/// SplitMix64: a seeded, dependency-free generator for the mutations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Characters a mutation may write: structure, escapes, number syntax,
/// literal prefixes, whitespace and multi-byte UTF-8.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', ':', ',', '"', '\\', ' ', '\n', '0', '1', '9', '.', 'e', 'E', '+', '-',
    't', 'f', 'N', 'I', 'a', 'é', '€', '𝄞',
];

/// One random edit of `s`: replace, insert or delete a character, or
/// duplicate a span (which nests brackets and repeats escapes).
fn mutate(rng: &mut Rng, s: &str) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    let at = rng.below(chars.len() + 1);
    let c = ALPHABET[rng.below(ALPHABET.len())];
    match rng.below(4) {
        0 if at < chars.len() => chars[at] = c,
        1 => chars.insert(at, c),
        2 if at < chars.len() => {
            chars.remove(at);
        }
        _ => {
            let end = (at + 1 + rng.below(12)).min(chars.len());
            let span: Vec<char> = chars[at.min(end)..end].to_vec();
            chars.splice(at..at, span);
        }
    }
    chars.into_iter().collect()
}

#[test]
fn checker_agrees_with_the_parser_on_every_stored_value() {
    let values = store_values();
    assert!(values.len() >= 200, "{} stored values", values.len());
    for v in &values {
        assert_eq!(check(v), Ok(()), "{v}");
        agree(v);
    }
}

#[test]
fn checker_agrees_with_the_parser_on_every_prefix() {
    let values = store_values();
    // Every 16th value, every prefix: the lines a torn write leaves.
    for v in values.iter().step_by(16) {
        for end in (0..=v.len()).filter(|&i| v.is_char_boundary(i)) {
            agree(&v[..end]);
        }
    }
}

#[test]
fn checker_agrees_with_the_parser_under_random_mutations() {
    let mut seeds = store_values().into_iter().step_by(8).collect::<Vec<_>>();
    seeds.push(
        r#"{"a":[1,{"b":"x\"y\\z"}],"é€𝄞":[-1.5e-3,true,false,NaN,-Infinity,Infinity,[]],"n":18446744073709551615}"#
            .to_string(),
    );
    seeds.push(r#"[[[{"k":[0.0,-0.0,1e308,2.5E+10]}]],"\\\"",{}]"#.to_string());
    let mut rng = Rng(0x5eed_c4ec);
    let (mut accepted, mut rejected) = (0, 0);
    for round in 0..4000 {
        let seed = &seeds[round % seeds.len()];
        // One to three stacked edits.
        let mut s = mutate(&mut rng, seed);
        for _ in 0..rng.below(3) {
            s = mutate(&mut rng, &s);
        }
        agree(&s);
        if parse(&s).is_ok() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    // Both verdicts are exercised, not just rejection.
    assert!(accepted > 200 && rejected > 200, "{accepted} / {rejected}");
}
