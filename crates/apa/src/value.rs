//! Values held by APA state components.
//!
//! The paper's state sets are powersets of structured data, e.g.
//! `Z_net = P({cam} × {V₁..V₄} × Z_gps)`. [`Value`] is a small term
//! language closed under tupling, so such domains are expressible
//! directly: a `cam` message is `Value::tuple([atom("cam"), atom("V1"),
//! atom("pos1")])`.

use std::fmt;

/// A structured value: an atom, an integer, or a tuple of values.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A named constant, e.g. `sW`, `pos1`, `warn`.
    Atom(String),
    /// An integer, e.g. a coordinate.
    Int(i64),
    /// An ordered tuple, e.g. `(cam, V1, pos1)`.
    Tuple(Vec<Value>),
}

impl Value {
    /// Creates an atom.
    pub fn atom(name: &str) -> Value {
        Value::Atom(name.to_owned())
    }

    /// Creates an integer value.
    pub fn int(v: i64) -> Value {
        Value::Int(v)
    }

    /// Creates a tuple.
    pub fn tuple(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Tuple(items.into_iter().collect())
    }

    /// Returns the atom name if this is an atom.
    pub fn as_atom(&self) -> Option<&str> {
        match self {
            Value::Atom(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the items if this is a tuple.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(items) => Some(items),
            _ => None,
        }
    }

    /// Returns `true` if this is a tuple whose first element is the atom
    /// `tag` — the conventional encoding of tagged messages such as
    /// `(cam, V1, pos1)`.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.as_tuple()
            .and_then(|t| t.first())
            .and_then(Value::as_atom)
            .is_some_and(|a| a == tag)
    }

    /// The `i`-th field of a tuple, if present.
    pub fn field(&self, i: usize) -> Option<&Value> {
        self.as_tuple().and_then(|t| t.get(i))
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Atom(s) => write!(f, "{s}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Tuple(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::atom(s)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let a = Value::atom("sW");
        assert_eq!(a.as_atom(), Some("sW"));
        assert_eq!(a.as_int(), None);
        let i = Value::int(42);
        assert_eq!(i.as_int(), Some(42));
        let t = Value::tuple([Value::atom("cam"), Value::int(1)]);
        assert_eq!(t.as_tuple().unwrap().len(), 2);
        assert_eq!(t.field(1), Some(&Value::int(1)));
        assert_eq!(t.field(5), None);
    }

    #[test]
    fn tags() {
        let msg = Value::tuple([Value::atom("cam"), Value::atom("V1"), Value::atom("pos1")]);
        assert!(msg.has_tag("cam"));
        assert!(!msg.has_tag("warn"));
        assert!(
            !Value::atom("cam").has_tag("cam"),
            "atoms are not tagged tuples"
        );
    }

    #[test]
    fn display() {
        let msg = Value::tuple([Value::atom("cam"), Value::int(3)]);
        assert_eq!(msg.to_string(), "(cam,3)");
        assert_eq!(Value::atom("x").to_string(), "x");
        assert_eq!(format!("{:?}", Value::int(7)), "7");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            Value::int(2),
            Value::atom("b"),
            Value::atom("a"),
            Value::int(1),
        ];
        v.sort();
        // Atoms sort before ints before tuples per derive order.
        assert_eq!(v[0], Value::atom("a"));
        assert_eq!(v[1], Value::atom("b"));
    }

    #[test]
    fn from_impls() {
        let a: Value = "x".into();
        assert_eq!(a, Value::atom("x"));
        let i: Value = 9i64.into();
        assert_eq!(i, Value::int(9));
    }
}
