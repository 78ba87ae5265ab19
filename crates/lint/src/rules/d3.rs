//! **D3** — RNG construction from nondeterministic sources.
//!
//! Every random stream in this workspace is a seeded `biochip_rand`
//! xoshiro stream, forked with `split_seed` for parallel work — that is
//! what makes multi-start placement reproducible. Constructing an RNG from the environment (`thread_rng`,
//! `from_entropy`, `OsRng`, raw `getrandom`) or seeding one from the clock
//! silently breaks every byte-identity gate, so it is flagged everywhere,
//! in every crate.

use crate::lexer::TokenKind;
use crate::rules::report;
use crate::{Finding, Rule, SourceFile};

/// Identifiers that mean "entropy from the environment".
const NONDETERMINISTIC_SOURCES: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "EntropyRng",
    "random_seed",
];

/// Runs the pass.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..file.tokens.len() {
        let tok = &file.tokens[i];
        if tok.kind != TokenKind::Ident || !NONDETERMINISTIC_SOURCES.contains(&tok.text.as_str()) {
            continue;
        }
        if file.ctx[i].in_test {
            continue;
        }
        report(
            out,
            Rule::D3,
            file,
            tok.line,
            format!(
                "nondeterministic RNG source `{}` — all randomness must come from \
                 seeded `biochip_rand` streams (fork with `split_seed`); waive only \
                 with the reason the stream cannot influence results",
                tok.text
            ),
        );
    }
}
