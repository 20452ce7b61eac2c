//! Typecheck-only stand-in for `serde_derive`.
//!
//! The build container has no crates.io access, so the benchmark ships
//! the smallest derive that lets the `genie-*` crates compile: it emits
//! `Serialize`/`Deserialize` impls that return a "stub" error and
//! accepts (ignores) every `#[serde(...)]` attribute. No benchmarked
//! path serializes a derived type.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The name of the `struct`/`enum`/`union` the derive is attached to.
/// Generic types are refused: the repo derives on none, and guessing
/// bounds here would hide a real error.
fn type_name(input: TokenStream) -> String {
    let mut tokens = flatten(input).into_iter().peekable();
    while let Some(tok) = tokens.next() {
        if let TokenTree::Ident(id) = &tok {
            let kw = id.to_string();
            if kw == "struct" || kw == "enum" || kw == "union" {
                let Some(TokenTree::Ident(name)) = tokens.next() else {
                    panic!("serde stub derive: expected a type name after `{kw}`");
                };
                if let Some(TokenTree::Punct(p)) = tokens.peek() {
                    assert!(
                        p.as_char() != '<',
                        "serde stub derive: generic type `{name}` is not supported"
                    );
                }
                return name.to_string();
            }
        }
    }
    panic!("serde stub derive: no struct/enum/union found");
}

/// Top-level tokens with `macro_rules!` fragment groups (invisible
/// delimiters) opened, so `$name:ident` reads as a plain identifier.
/// Attribute and body groups stay closed: their contents are skipped.
fn flatten(input: TokenStream) -> Vec<TokenTree> {
    let mut out = Vec::new();
    for tok in input {
        match tok {
            TokenTree::Group(g) if g.delimiter() == Delimiter::None => {
                out.extend(flatten(g.stream()));
            }
            other => out.push(other),
        }
    }
    out
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let name = type_name(input);
    format!(
        "impl ::serde::Serialize for {name} {{\
           fn serialize<S: ::serde::Serializer>(&self, _s: S) \
             -> ::core::result::Result<S::Ok, S::Error> {{\
             ::core::result::Result::Err(<S::Error as ::serde::ser::Error>::custom(\
               \"serde stub: derived Serialize for {name} is typecheck-only\"))\
           }}\
         }}"
    )
    .parse()
    .expect("generated impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let name = type_name(input);
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{\
           fn deserialize<D: ::serde::Deserializer<'de>>(_d: D) \
             -> ::core::result::Result<Self, D::Error> {{\
             ::core::result::Result::Err(<D::Error as ::serde::de::Error>::custom(\
               \"serde stub: derived Deserialize for {name} is typecheck-only\"))\
           }}\
         }}"
    )
    .parse()
    .expect("generated impl parses")
}
