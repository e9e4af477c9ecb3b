//! The one JSON formatter, pinned from both sides: a fixed corpus whose
//! expected text was recorded from the tree serialiser of commit
//! 79160f9, and random trees that must survive `parse(write(tree))`,
//! compact and pretty.

use coyote_telemetry::{parse_json, JsonValue};
use proptest::prelude::*;

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// `(tree, compact, pretty)` — the two texts are literal output of the
/// pre-emitter `JsonValue::write_into`.
fn corpus() -> Vec<(JsonValue, &'static str, &'static str)> {
    use JsonValue::{Array, Bool, Float, Int, Null, Str, UInt};
    vec![
        (
            obj(vec![
                ("a", Array(vec![])),
                ("b", obj(vec![])),
                ("c", Array(vec![Array(vec![]), obj(vec![])])),
                ("d", Array(vec![obj(vec![("e", Array(vec![Null]))])])),
            ]),
            r#"{"a":[],"b":{},"c":[[],{}],"d":[{"e":[null]}]}"#,
            "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [\n    [],\n    {}\n  ],\n  \"d\": [\n    {\n      \"e\": [\n        null\n      ]\n    }\n  ]\n}\n",
        ),
        (
            obj(vec![(
                "k\"\n",
                Str("q\"b\\s/\n\r\t\u{0}\u{1}\u{1f}\u{7f}é€😀".to_owned()),
            )]),
            "{\"k\\\"\\n\":\"q\\\"b\\\\s/\\n\\r\\t\\u0000\\u0001\\u001f\u{7f}é€😀\"}",
            "{\n  \"k\\\"\\n\": \"q\\\"b\\\\s/\\n\\r\\t\\u0000\\u0001\\u001f\u{7f}é€😀\"\n}\n",
        ),
        (
            Array(vec![
                UInt(0),
                UInt(u64::MAX),
                Int(-1),
                Int(i64::MIN),
                Int(5),
                Float(f64::NAN),
                Float(f64::INFINITY),
                Float(3.0),
                Float(-0.0),
                Float(2.5),
                Float(123_456_789_012_345.0),
                Float(1e15),
                Float(1e21),
                Float(1e-7),
                Bool(true),
                Bool(false),
                Null,
            ]),
            "[0,18446744073709551615,-1,-9223372036854775808,5,null,null,3.0,-0.0,2.5,123456789012345.0,1000000000000000,1000000000000000000000,0.0000001,true,false,null]",
            "[\n  0,\n  18446744073709551615,\n  -1,\n  -9223372036854775808,\n  5,\n  null,\n  null,\n  3.0,\n  -0.0,\n  2.5,\n  123456789012345.0,\n  1000000000000000,\n  1000000000000000000000,\n  0.0000001,\n  true,\n  false,\n  null\n]\n",
        ),
        (Str("x".to_owned()), "\"x\"", "\"x\"\n"),
        (Array(vec![]), "[]", "[]\n"),
        (obj(vec![]), "{}", "{}\n"),
    ]
}

#[test]
fn emitter_reproduces_the_recorded_serialisation() {
    for (tree, compact, pretty) in corpus() {
        assert_eq!(tree.to_string_compact(), compact, "{tree:?}");
        assert_eq!(tree.to_string_pretty(), pretty, "{tree:?}");
    }
}

/// Strings over the whole scalar range the vendored `any::<char>()`
/// draws from (control characters included), salted with the characters
/// the escaper special-cases.
fn text() -> impl Strategy<Value = String> {
    let salted = prop_oneof![
        any::<char>(),
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\u{1}'),
        Just('a'),
    ];
    prop::collection::vec(salted, 0..6).prop_map(|chars| chars.into_iter().collect())
}

/// Scalars that are their own parse: negative `Int`s (the parser reads
/// a non-negative integer as `UInt`) and finite floats the `Float` rule
/// prints with a `.` (integral values from 1e15 up print as integers).
fn scalar() -> BoxedStrategy<JsonValue> {
    prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        any::<u64>().prop_map(JsonValue::UInt),
        (i64::MIN..0).prop_map(JsonValue::Int),
        any::<f64>()
            .prop_filter("prints as a float", |v| {
                v.is_finite() && (v.fract() != 0.0 || v.abs() < 1e15)
            })
            .prop_map(JsonValue::Float),
        text().prop_map(JsonValue::Str),
    ]
    .boxed()
}

fn tree(depth: u32) -> BoxedStrategy<JsonValue> {
    if depth == 0 {
        return scalar();
    }
    prop_oneof![
        scalar(),
        prop::collection::vec(tree(depth - 1), 0..4).prop_map(JsonValue::Array),
        prop::collection::vec((text(), tree(depth - 1)), 0..4).prop_map(JsonValue::Object),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn random_trees_round_trip_through_the_parser(doc in tree(3)) {
        prop_assert_eq!(&parse_json(&doc.to_string_compact()).unwrap(), &doc);
        prop_assert_eq!(&parse_json(&doc.to_string_pretty()).unwrap(), &doc);
    }
}
