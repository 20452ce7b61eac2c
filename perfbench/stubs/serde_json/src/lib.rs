//! Typecheck-only stand-in for `serde_json`: `Value`, `json!(expr)`
//! and the entry points the `genie-*` crates name. Every conversion of
//! a `Serialize`/`Deserialize` type returns `Err`: there is no data
//! format here, and no benchmarked path asks for one. The benchmark
//! writes its own JSON by hand.

use std::collections::BTreeMap;
use std::fmt;

#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::other(e)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

pub type Map<K, V> = BTreeMap<K, V>;

#[derive(Clone, Debug, Default, PartialEq)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

impl serde::Serialize for Value {
    fn serialize<S: serde::Serializer>(&self, _s: S) -> std::result::Result<S::Ok, S::Error> {
        Err(<S::Error as serde::ser::Error>::custom(
            "serde_json stub: Value is typecheck-only",
        ))
    }
}

impl<'de> serde::Deserialize<'de> for Value {
    fn deserialize<D: serde::Deserializer<'de>>(_d: D) -> std::result::Result<Self, D::Error> {
        Err(<D::Error as serde::de::Error>::custom(
            "serde_json stub: Value is typecheck-only",
        ))
    }
}

fn stub<T>(what: &str) -> Result<T> {
    Err(Error(format!("serde_json stub: {what} is typecheck-only")))
}

pub fn to_string<T: serde::Serialize + ?Sized>(_value: &T) -> Result<String> {
    stub("to_string")
}

pub fn to_string_pretty<T: serde::Serialize + ?Sized>(_value: &T) -> Result<String> {
    stub("to_string_pretty")
}

pub fn to_value<T: serde::Serialize>(_value: T) -> Result<Value> {
    stub("to_value")
}

pub fn from_str<T: serde::de::DeserializeOwned>(_s: &str) -> Result<T> {
    stub("from_str")
}

pub fn from_value<T: serde::de::DeserializeOwned>(_value: Value) -> Result<T> {
    stub("from_value")
}

/// What `json!(expr)` accepts: the leaf types the repo interpolates.
pub trait ToJson {
    fn to_json(&self) -> Value;
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

macro_rules! number_to_json {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
    )*};
}

number_to_json!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self[..].to_json()
    }
}

/// Only the single-expression form is supported; the library crates
/// use no other.
#[macro_export]
macro_rules! json {
    ($e:expr) => {
        $crate::ToJson::to_json(&$e)
    };
}
