//! Typecheck-only stand-in for `serde`: the trait surface the
//! `genie-*` crates name, with no data format behind it. Derived impls
//! (see `serde_derive`) return an error; the few primitive impls below
//! exist so hand-written impls in the repo typecheck.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

pub trait Serializer: Sized {
    type Ok;
    type Error: ser::Error;
    type SerializeStruct: ser::SerializeStruct<Ok = Self::Ok, Error = Self::Error>;

    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    fn serialize_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStruct, Self::Error>;
}

pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

pub trait Deserializer<'de>: Sized {
    type Error: de::Error;
}

pub mod ser {
    pub use crate::{Serialize, Serializer};

    pub trait Error: Sized + std::fmt::Debug + std::fmt::Display {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    pub trait SerializeStruct {
        type Ok;
        type Error: Error;
        fn serialize_field<T: ?Sized + Serialize>(
            &mut self,
            key: &'static str,
            value: &T,
        ) -> Result<(), Self::Error>;
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }
}

pub mod de {
    pub use crate::{Deserialize, Deserializer};

    pub trait Error: Sized + std::fmt::Debug + std::fmt::Display {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}

fn stub_ser<S: Serializer>(what: &str) -> Result<S::Ok, S::Error> {
    Err(<S::Error as ser::Error>::custom(format!(
        "serde stub: Serialize for {what} is typecheck-only"
    )))
}

fn stub_de<'de, T, D: Deserializer<'de>>(what: &str) -> Result<T, D::Error> {
    Err(<D::Error as de::Error>::custom(format!(
        "serde stub: Deserialize for {what} is typecheck-only"
    )))
}

macro_rules! stub_impls {
    ($($ty:ty),* $(,)?) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, _s: S) -> Result<S::Ok, S::Error> {
                stub_ser::<S>(stringify!($ty))
            }
        }
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(_d: D) -> Result<Self, D::Error> {
                stub_de::<Self, D>(stringify!($ty))
            }
        }
    )*};
}

stub_impls!(bool, i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64, String);

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, _s: S) -> Result<S::Ok, S::Error> {
        stub_ser::<S>("slice")
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, _s: S) -> Result<S::Ok, S::Error> {
        stub_ser::<S>("Vec")
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(_d: D) -> Result<Self, D::Error> {
        stub_de::<Self, D>("Vec")
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, _s: S) -> Result<S::Ok, S::Error> {
        stub_ser::<S>("Option")
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(_d: D) -> Result<Self, D::Error> {
        stub_de::<Self, D>("Option")
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}
