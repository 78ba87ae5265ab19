//! Differential test of the streaming JSON codec against the `Json` tree.
//!
//! Typed I/O (`to_string`, `to_string_pretty`, `from_str`) streams straight
//! between values and text; hashing and dynamic documents go through the
//! `Json` tree. The two must agree byte for byte when writing, and on
//! accept/reject and on the decoded value when reading. The documents are
//! the ones the pipeline actually hands off: the six paper outcomes, RA1K's
//! complete pipeline state, a server result document and a configuration.
//! Each text is also read after seeded mutations: truncation, duplicate and
//! unknown keys, values of the wrong kind, fractional and out-of-range
//! numbers, escaped and surrogate-pair strings, and nesting around the
//! 128-level limit.

use std::fmt::Debug;

use biochip_json::{from_str, parse, to_string, to_string_pretty, Deserialize, Json, Serialize};
use biochip_server::ResultDoc;
use biochip_synth::assay::random::ra1k;
use biochip_synth::{
    PipelineState, SchedulerChoice, SynthesisConfig, SynthesisFlow, SynthesisOutcome,
};
use rand::rngs::StdRng;
use rand::Rng;

/// Stands in for a value or an object member while a mutated tree is
/// printed; replaced by raw text afterwards.
const MARK: &str = "\u{0}mutation";

fn marker_text() -> String {
    Json::String(MARK.to_owned()).to_compact()
}

/// Checks both readers on `text`: the same verdict, and on acceptance the
/// same value.
fn assert_readers_agree<T>(text: &str, what: &str)
where
    T: Deserialize + PartialEq + Debug,
{
    let streamed = from_str::<T>(text);
    let tree = parse(text).and_then(|value| T::from_json(&value));
    match (&streamed, &tree) {
        (Ok(a), Ok(b)) => assert!(a == b, "{what}: the readers decoded different values"),
        (Err(_), Err(_)) => {}
        _ => panic!(
            "{what}: the readers disagree (streamed: {}, tree: {}) on {}",
            verdict(&streamed),
            verdict(&tree),
            excerpt(text)
        ),
    }
}

fn verdict<T>(result: &Result<T, biochip_json::JsonError>) -> String {
    match result {
        Ok(_) => "accepted".to_owned(),
        Err(e) => format!("rejected: {e}"),
    }
}

fn excerpt(text: &str) -> String {
    let end = text.char_indices().nth(400).map_or(text.len(), |(i, _)| i);
    format!("{}… ({} bytes)", &text[..end], text.len())
}

/// Walks from the root to a random value, returning the path of indices
/// (array elements or object members).
fn random_path(root: &Json, rng: &mut StdRng) -> Vec<usize> {
    let mut path = Vec::new();
    let mut at = root;
    loop {
        let children = match at {
            Json::Array(items) => items.len(),
            Json::Object(pairs) => pairs.len(),
            _ => 0,
        };
        // Stop early now and then, so shallow values are chosen too.
        if children == 0 || rng.gen_range(0..4) == 0 {
            return path;
        }
        let i = rng.gen_range(0..children);
        path.push(i);
        at = match at {
            Json::Array(items) => &items[i],
            Json::Object(pairs) => &pairs[i].1,
            _ => unreachable!(),
        };
    }
}

fn at_path<'a>(root: &'a mut Json, path: &[usize]) -> &'a mut Json {
    path.iter().fold(root, |at, &i| match at {
        Json::Array(items) => &mut items[i],
        Json::Object(pairs) => &mut pairs[i].1,
        _ => unreachable!(),
    })
}

/// A string as JSON text with every character `\u`-escaped, astral ones
/// as surrogate pairs.
fn escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        out.push_str(&format!("\\u{unit:04X}"));
    }
    out.push('"');
    out
}

fn nested(depth: usize, inner: &str) -> String {
    format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth))
}

/// One seeded mutation of `doc`, printed compactly: either a member is
/// inserted into an object, or a value is replaced by raw text.
fn mutate(doc: &Json, rng: &mut StdRng) -> String {
    let mut tree = doc.clone();
    let path = random_path(&tree, rng);
    let depth = path.len();
    let current = at_path(&mut tree, &path).clone();
    if let Json::Object(pairs) = &current {
        if !pairs.is_empty() && rng.gen_bool(0.6) {
            // A duplicate of an existing key (before or after the
            // original), or an unknown key.
            let (key, value) = &pairs[rng.gen_range(0..pairs.len())];
            let key = Json::String(key.clone()).to_compact();
            let member = match rng.gen_range(0..4) {
                0 => format!("{key}:{}", wrong_kind(value, rng)),
                1 => format!("{key}:{}", value.to_compact()),
                2 => format!("\"zz_unknown\":{}", any_value(rng)),
                _ => {
                    // Nesting around the limit inside an unknown member,
                    // whose value sits at depth + 2.
                    let levels = rng.gen_range(120..=130usize) - depth;
                    format!("\"zz_deep\":{}", nested(levels, "0"))
                }
            };
            let at = rng.gen_range(0..=pairs.len());
            if let Json::Object(pairs) = at_path(&mut tree, &path) {
                pairs.insert(at, (MARK.to_owned(), Json::Null));
            }
            let slot = format!("{}:null", marker_text());
            return tree.to_compact().replacen(&slot, &member, 1);
        }
    }
    let raw = match &current {
        Json::String(s) => match rng.gen_range(0..3) {
            0 => escaped(s),
            1 => "\"\\ud800\"".to_owned(),
            _ => wrong_kind(&current, rng),
        },
        Json::Number(n) => match rng.gen_range(0..4) {
            0 => ["0.5", "-1", "1e400", "18446744073709551616", "-0", "1E2"][rng.gen_range(0..6)]
                .to_owned(),
            1 => format!("{}", n.trunc() + 0.5),
            2 => format!("{}e0", current.to_compact()),
            _ => wrong_kind(&current, rng),
        },
        other if rng.gen_bool(0.3) => nested(rng.gen_range(100..140), &other.to_compact()),
        other => wrong_kind(other, rng),
    };
    *at_path(&mut tree, &path) = Json::String(MARK.to_owned());
    tree.to_compact().replacen(&marker_text(), &raw, 1)
}

/// A value of another kind than `value`.
fn wrong_kind(value: &Json, rng: &mut StdRng) -> String {
    loop {
        let candidate = any_value(rng);
        let kind = parse(&candidate).map(|v| v.kind()).unwrap_or("");
        if kind != value.kind() {
            return candidate;
        }
    }
}

fn any_value(rng: &mut StdRng) -> String {
    ["null", "true", "7", "\"x\"", "[]", "{}", "[1,{\"a\":[]}]"][rng.gen_range(0..7)].to_owned()
}

/// The full check for one document: writers byte-identical, readers in
/// agreement on the text, on its truncations and on `mutations` mutations.
fn check<T>(value: &T, what: &str, mutations: usize, rng: &mut StdRng)
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let tree = value.to_json();
    let compact = to_string(value);
    let pretty = to_string_pretty(value);
    assert_eq!(compact, tree.to_compact(), "{what}: compact text differs");
    assert_eq!(
        pretty,
        tree.to_pretty() + "\n",
        "{what}: pretty text differs"
    );
    assert_eq!(
        &from_str::<T>(&compact).unwrap(),
        value,
        "{what}: round trip"
    );
    assert_readers_agree::<T>(&pretty, what);

    for case in 0..mutations {
        let text = if case % 4 == 0 {
            // Truncation, of either form.
            let text = if case % 8 == 0 { &pretty } else { &compact };
            let mut cut = rng.gen_range(0..text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_owned()
        } else {
            mutate(&tree, rng)
        };
        assert_readers_agree::<T>(&text, &format!("{what}, mutation {case}"));
    }
}

fn paper_outcomes() -> Vec<(&'static str, SynthesisOutcome)> {
    biochip_bench::paper_configs()
        .into_iter()
        .map(|(name, graph, config)| {
            let config = config.with_scheduler(SchedulerChoice::StorageAware);
            let outcome = SynthesisFlow::new(config).run(graph).expect("synthesizes");
            (name, outcome)
        })
        .collect()
}

#[test]
fn streaming_codec_matches_the_tree_on_handoff_documents() {
    let mut rng = proptest::test_rng("streaming_codec_matches_the_tree_on_handoff_documents");
    let outcomes = paper_outcomes();
    assert_eq!(outcomes.len(), 6);
    for (name, outcome) in &outcomes {
        check(outcome, name, 48, &mut rng);
    }

    let (_, pcr) = &outcomes[0];
    let result = ResultDoc {
        schema: ResultDoc::SCHEMA.to_owned(),
        assay: pcr.report.assay.clone(),
        key: pcr.output_key(),
        report: pcr.report.clone(),
        execution: pcr.execution,
    };
    check(&result, "result document", 96, &mut rng);
    check(&SynthesisConfig::default(), "config", 96, &mut rng);

    let config = SynthesisConfig::default()
        .with_mixers(8)
        .with_scheduler(SchedulerChoice::StorageAware);
    let outcome = SynthesisFlow::new(config.clone())
        .run(ra1k())
        .expect("RA1K");
    check(
        &PipelineState::from_outcome(config, &outcome),
        "RA1K pipeline state",
        8,
        &mut rng,
    );
}

#[test]
fn the_first_duplicate_key_wins_on_both_paths() {
    let config = SynthesisConfig::default();
    let text = to_string(&config);
    // A later duplicate of `mixers` with another count, and one of the
    // wrong kind: both are skipped.
    for duplicate in ["99", "\"many\""] {
        let body = text.strip_suffix('}').unwrap();
        let mutated = format!("{{\"zz\":[{{\"mixers\":0}}],{}", &body[1..]);
        let mutated = format!("{mutated},\"mixers\":{duplicate}}}");
        let streamed: SynthesisConfig = from_str(&mutated).unwrap();
        let tree = SynthesisConfig::from_json(&parse(&mutated).unwrap()).unwrap();
        assert_eq!(streamed, config);
        assert_eq!(tree, config);
    }
}
