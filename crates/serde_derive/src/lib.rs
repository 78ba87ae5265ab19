//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros.
//!
//! The offline build cannot fetch `serde_derive` (nor `syn`/`quote`), so this
//! crate parses the item's `TokenStream` directly. It supports exactly the
//! shapes used in this workspace:
//!
//! * structs with named fields → JSON objects keyed by field name,
//! * newtype structs (`struct OpId(pub usize)`) → the inner value,
//! * fieldless enums → the variant name as a JSON string.
//!
//! One field attribute is understood: `#[serde(default)]` makes an absent
//! field take its value from `Self::default()`, so documents written before
//! the field existed still load. Generic types, other tuple or unit structs
//! and any other `#[serde(...)]` attribute are rejected with a compile
//! error.
//!
//! The generated impls target the traits re-exported by the in-repo `serde`
//! facade (i.e. `biochip_json::{Serialize, Deserialize}`) and fill both of
//! each trait's methods: the streaming `write_json`/`read_json` that typed
//! I/O uses, which go straight between the value and text, and the tree
//! `to_json`/`from_json` that hashing and dynamic documents use.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (the `biochip_json` flavour).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Trait::Serialize)
}

/// Derives `serde::Deserialize` (the `biochip_json` flavour).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Trait::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Trait {
    Serialize,
    Deserialize,
}

enum Shape {
    Named(Vec<Field>),
    Newtype,
    Enum(Vec<String>),
}

struct Field {
    name: String,
    /// `#[serde(default)]`: an absent field comes from `Self::default()`.
    default: bool,
}

struct Item {
    name: String,
    shape: Shape,
}

fn expand(input: TokenStream, which: Trait) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(message) => {
            return format!("::core::compile_error!({message:?});")
                .parse()
                .unwrap();
        }
    };
    let code = match which {
        Trait::Serialize => serialize_impl(&item),
        Trait::Deserialize => deserialize_impl(&item),
    };
    code.parse().unwrap()
}

fn serialize_impl(item: &Item) -> String {
    let name = &item.name;
    let (tree, stream) = match &item.shape {
        Shape::Named(fields) => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| {
                    let f = &f.name;
                    format!("({f:?}, ::serde::Serialize::to_json(&self.{f}))")
                })
                .collect();
            let members: String = fields
                .iter()
                .map(|f| {
                    let f = &f.name;
                    format!("w.key({f:?}); ::serde::Serialize::write_json(&self.{f}, w);\n")
                })
                .collect();
            (
                format!("::serde::Json::object([{}])", pairs.join(", ")),
                format!("w.begin_object();\n{members}w.end_object();"),
            )
        }
        Shape::Newtype => (
            "::serde::Serialize::to_json(&self.0)".to_owned(),
            "::serde::Serialize::write_json(&self.0, w)".to_owned(),
        ),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{name}::{v} => {v:?},"))
                .collect();
            let variant = format!("match self {{ {} }}", arms.join(" "));
            (
                format!("::serde::Json::String(::std::string::String::from({variant}))"),
                format!("w.string({variant})"),
            )
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_json(&self) -> ::serde::Json {{ {tree} }}\n\
             fn write_json(&self, w: &mut ::serde::Writer) {{ {stream} }}\n\
         }}"
    )
}

fn deserialize_impl(item: &Item) -> String {
    let name = &item.name;
    let (tree, stream) = match &item.shape {
        Shape::Named(fields) => named_deserialize(fields),
        Shape::Newtype => (
            "::core::result::Result::Ok(Self(::serde::Deserialize::from_json(value)?))".to_owned(),
            "::core::result::Result::Ok(Self(::serde::Deserialize::read_json(r)?))".to_owned(),
        ),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{v:?} => ::core::result::Result::Ok({name}::{v}),"))
                .collect();
            let select = |text: &str| {
                format!(
                    "match {text} {{\n\
                         {}\n\
                         other => ::core::result::Result::Err(::serde::JsonError::new(\
                             ::std::format!(\"unknown {name} variant `{{other}}`\"))),\n\
                     }}",
                    arms.join("\n")
                )
            };
            (select("value.expect_str()?"), select("&*r.read_str()?"))
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_json(value: &::serde::Json) -> ::core::result::Result<Self, ::serde::JsonError> {{\n\
                 {tree}\n\
             }}\n\
             fn read_json(r: &mut ::serde::Reader<'_>) -> ::core::result::Result<Self, ::serde::JsonError> {{\n\
                 {stream}\n\
             }}\n\
         }}"
    )
}

/// The tree and streaming bodies of a named struct's `Deserialize`.
///
/// The streaming body reads each member straight into its field's slot: the
/// first occurrence of a key wins (as `Json::get` finds it), unknown keys
/// are validated and skipped, and fields still empty at the end are taken
/// from `Self::default()` if marked `#[serde(default)]`, else reported
/// missing with the same message `Json::field` gives.
fn named_deserialize(fields: &[Field]) -> (String, String) {
    let default_of = |f: &str| format!("<Self as ::core::default::Default>::default().{f}");
    let tree_inits: Vec<String> = fields
        .iter()
        .map(|Field { name: f, default }| {
            if *default {
                format!("{f}: value.field_or({f:?}, || {})?", default_of(f))
            } else {
                format!("{f}: value.field({f:?})?")
            }
        })
        .collect();
    let slots: String = fields
        .iter()
        .map(|f| {
            format!(
                "let mut __slot_{} = ::core::option::Option::None;\n",
                f.name
            )
        })
        .collect();
    let arms: String = fields
        .iter()
        .map(|f| format!("{0:?} => r.field_once(&mut __slot_{0}, {0:?}),\n", f.name))
        .collect();
    let stream_inits: Vec<String> = fields
        .iter()
        .map(|Field { name: f, default }| {
            let absent = if *default {
                default_of(f)
            } else {
                format!(
                    "return ::core::result::Result::Err(\
                         ::serde::JsonError::missing_field({f:?}, __kind))"
                )
            };
            format!(
                "{f}: match __slot_{f} {{\n\
                     ::core::option::Option::Some(v) => v,\n\
                     ::core::option::Option::None => {absent},\n\
                 }}"
            )
        })
        .collect();
    (
        format!(
            "::core::result::Result::Ok(Self {{ {} }})",
            tree_inits.join(", ")
        ),
        format!(
            "{slots}\
             let __kind = r.struct_members(|r, key| match key {{\n\
                 {arms}\
                 _ => r.skip_value(),\n\
             }})?;\n\
             ::core::result::Result::Ok(Self {{ {} }})",
            stream_inits.join(",\n")
        ),
    )
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens = input.into_iter().peekable();

    // Skip outer attributes (e.g. doc comments) and the visibility qualifier.
    let kind = loop {
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.next() {
                    if serde_attribute(g.stream())?.is_some() {
                        return Err("`#[serde(...)]` is only supported on fields".to_owned());
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next(); // pub(crate) etc.
                    }
                }
            }
            Some(TokenTree::Ident(id)) => {
                let word = id.to_string();
                if word == "struct" || word == "enum" {
                    break word;
                }
                return Err(format!("derive does not support `{word}` items"));
            }
            Some(other) => return Err(format!("unexpected token `{other}`")),
            None => return Err("unexpected end of item".to_owned()),
        }
    };

    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, found `{other:?}`")),
    };

    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            return Err(format!("cannot derive for generic type `{name}`"));
        }
    }

    let shape = if kind == "enum" {
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream(), &name)?)
            }
            _ => return Err(format!("expected `{{ ... }}` after `enum {name}`")),
        }
    } else {
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g))
                if g.delimiter() == Delimiter::Parenthesis
                    && count_tuple_fields(g.stream()) == 1 =>
            {
                Shape::Newtype
            }
            _ => {
                return Err(format!(
                    "cannot derive for `{name}`: only named-field and newtype structs are supported"
                ))
            }
        }
    };

    Ok(Item { name, shape })
}

/// The words inside a `serde(...)` attribute (the contents of `#[...]`), or
/// `None` for any other attribute.
fn serde_attribute(attr: TokenStream) -> Result<Option<Vec<String>>, String> {
    let mut tokens = attr.into_iter();
    match tokens.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return Ok(None),
    }
    match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Ok(Some(
            g.stream()
                .into_iter()
                .map(|t| t.to_string())
                .filter(|t| t != ",")
                .collect(),
        )),
        _ => Err("expected `serde(...)`".to_owned()),
    }
}

/// Parses `name: Type, ...` inside a braced struct body, returning the
/// fields. Types are skipped with `<`/`>` depth tracking so commas inside
/// generic arguments do not split fields.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        // Read field attributes and skip visibility.
        let mut default = false;
        let ident = loop {
            match tokens.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    let Some(TokenTree::Group(g)) = tokens.next() else {
                        return Err("expected `[...]` after `#`".to_owned());
                    };
                    match serde_attribute(g.stream())?.as_deref() {
                        None => {}
                        Some([word]) if word == "default" => default = true,
                        Some(words) => {
                            return Err(format!(
                                "unsupported serde attribute `{}`; only `default` is supported",
                                words.join(", ")
                            ))
                        }
                    }
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    if let Some(TokenTree::Group(g)) = tokens.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            tokens.next();
                        }
                    }
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => return Err(format!("unexpected token `{other}` in struct body")),
                None => return Ok(fields),
            }
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => return Err(format!("expected `:` after field `{ident}`")),
        }
        fields.push(Field {
            name: ident,
            default,
        });
        // Skip the type until a top-level comma.
        let mut angle_depth = 0usize;
        loop {
            match tokens.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => angle_depth += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                    angle_depth = angle_depth.saturating_sub(1);
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && angle_depth == 0 => break,
                Some(_) => {}
                None => return Ok(fields),
            }
        }
    }
}

/// Counts the fields of a tuple struct body by top-level commas.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut count = 0usize;
    let mut saw_token = false;
    let mut angle_depth = 0usize;
    for token in stream {
        match token {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1);
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                count += 1;
                saw_token = false;
            }
            _ => saw_token = true,
        }
    }
    count + usize::from(saw_token)
}

/// Parses the variants of a fieldless enum; variants with payloads are
/// rejected.
fn parse_variants(stream: TokenStream, enum_name: &str) -> Result<Vec<String>, String> {
    let mut variants = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        let ident = loop {
            match tokens.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    tokens.next();
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                Some(other) => {
                    return Err(format!("unexpected token `{other}` in enum `{enum_name}`"));
                }
                None => return Ok(variants),
            }
        };
        variants.push(ident);
        match tokens.next() {
            None => return Ok(variants),
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(TokenTree::Group(_)) => {
                return Err(format!(
                    "cannot derive for enum `{enum_name}`: variants with fields are not supported"
                ));
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                // Skip an explicit discriminant.
                loop {
                    match tokens.next() {
                        Some(TokenTree::Punct(q)) if q.as_char() == ',' => break,
                        Some(_) => {}
                        None => return Ok(variants),
                    }
                }
            }
            Some(other) => {
                return Err(format!("unexpected token `{other}` in enum `{enum_name}`"));
            }
        }
    }
}
