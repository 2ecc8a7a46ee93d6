//! Runtime values, tuples and abstract domains.
//!
//! The paper abstracts web sources into relations over *abstract domains*
//! (§3.1: "the `Ai`'s do not denote attributes but abstract domains"). We
//! keep values dynamically typed — a service result field is a [`Value`] —
//! but every signature position is tagged with a [`DomainId`] so the
//! optimizer can reason about join compatibility and domain cardinalities.

use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A totally ordered, hashable `f64` wrapper.
///
/// Web-service fields such as prices and temperatures are floating point;
/// we need them as join keys and in `BTreeMap`s, so we adopt the IEEE-754
/// `totalOrder` predicate ([`f64::total_cmp`]) and normalise `-0.0`/NaN for
/// hashing.
#[derive(Clone, Copy, Debug, Default)]
pub struct F64(pub f64);

impl F64 {
    /// The wrapped float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    #[inline]
    fn canonical_bits(self) -> u64 {
        let v = if self.0 == 0.0 {
            0.0 // collapse -0.0 and +0.0
        } else if self.0.is_nan() {
            f64::NAN // collapse NaN payloads
        } else {
            self.0
        };
        v.to_bits()
    }
}

impl PartialEq for F64 {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.canonical_bits() == other.canonical_bits()
    }
}
impl Eq for F64 {}

impl PartialOrd for F64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl Hash for F64 {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical_bits().hash(state);
    }
}
impl fmt::Display for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A calendar date, stored as days since the civil epoch 1970-01-01.
///
/// The running example compares and offsets dates
/// (`Start ≥ '2007/3/14', End ≤ '2007/3/14' + 180`), so dates support
/// ordering and integer-day arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    days: i32,
}

impl Date {
    /// Builds a date from a civil year/month/day triple.
    ///
    /// Uses Howard Hinnant's `days_from_civil` algorithm; valid for the
    /// entire `i32` day range.
    pub fn from_ymd(y: i32, m: u32, d: u32) -> Self {
        debug_assert!((1..=12).contains(&m), "month out of range: {m}");
        debug_assert!((1..=31).contains(&d), "day out of range: {d}");
        let y = if m <= 2 { y - 1 } else { y };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as i64; // [0, 399]
        let mp = ((m + 9) % 12) as i64; // [0, 11], Mar=0
        let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        Date {
            days: (era as i64 * 146_097 + doe - 719_468) as i32,
        }
    }

    /// Days since 1970-01-01 (may be negative).
    #[inline]
    pub fn days_since_epoch(self) -> i32 {
        self.days
    }

    /// Returns the civil (year, month, day) triple.
    pub fn ymd(self) -> (i32, u32, u32) {
        let z = self.days as i64 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
        let y = if m <= 2 { y + 1 } else { y };
        (y as i32, m, d)
    }

    /// Offsets the date by a (possibly negative) number of days.
    #[inline]
    pub fn plus_days(self, delta: i64) -> Self {
        Date {
            days: (self.days as i64 + delta) as i32,
        }
    }

    /// [`Date::plus_days`], or `None` when the result leaves the `i32`
    /// day range — date arithmetic in predicates never wraps.
    #[inline]
    pub fn checked_plus_days(self, delta: i64) -> Option<Self> {
        let days = i64::from(self.days).checked_add(delta)?;
        Some(Date {
            days: i32::try_from(days).ok()?,
        })
    }

    /// Parses `YYYY/MM/DD` or `YYYY-MM-DD` (months/days may omit the
    /// leading zero, as in the paper's `'2007/3/14'`). Years beyond
    /// ±[`Date::MAX_YEAR`] are not dates: their day count would overflow.
    pub fn parse(s: &str) -> Option<Self> {
        let sep = if s.contains('/') { '/' } else { '-' };
        let mut it = s.split(sep);
        let y: i32 = it.next()?.trim().parse().ok()?;
        let m: u32 = it.next()?.trim().parse().ok()?;
        let d: u32 = it.next()?.trim().parse().ok()?;
        if it.next().is_some()
            || !(1..=12).contains(&m)
            || !(1..=31).contains(&d)
            || y.unsigned_abs() > Date::MAX_YEAR
        {
            return None;
        }
        Some(Date::from_ymd(y, m, d))
    }

    /// The largest year magnitude [`Date::parse`] accepts.
    pub const MAX_YEAR: u32 = 1_000_000;
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}/{m:02}/{d:02}")
    }
}

/// A dynamically typed value flowing through query plans.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Absent/unknown value (service did not fill the field).
    Null,
    /// Boolean flag.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// Totally ordered float.
    Float(F64),
    /// Interned string (cheap to clone across plan operators).
    Str(Arc<str>),
    /// Calendar date.
    Date(Date),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for float values.
    pub fn float(f: f64) -> Self {
        Value::Float(F64(f))
    }

    /// True when the value is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints and floats; dates as day counts) used by
    /// comparison predicates with mixed operand types.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(f.0),
            Value::Date(d) => Some(d.days_since_epoch() as f64),
            _ => None,
        }
    }

    /// Adds two values under the model's arithmetic:
    /// `Int+Int`, float combinations, and `Date + Int` (day offset).
    /// Integer and date results that leave their range are `None`.
    pub fn checked_add(&self, rhs: &Value) -> Option<Value> {
        match (self, rhs) {
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a.checked_add(*b)?)),
            (Value::Date(d), Value::Int(n)) | (Value::Int(n), Value::Date(d)) => {
                Some(Value::Date(d.checked_plus_days(*n)?))
            }
            (a, b) => Some(Value::float(a.as_f64()? + b.as_f64()?)),
        }
    }

    /// Subtracts two values; `Date - Date` yields the day difference as an
    /// integer, `Date - Int` offsets backwards.
    pub fn checked_sub(&self, rhs: &Value) -> Option<Value> {
        match (self, rhs) {
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a.checked_sub(*b)?)),
            (Value::Date(a), Value::Date(b)) => Some(Value::Int(
                i64::from(a.days_since_epoch()) - i64::from(b.days_since_epoch()),
            )),
            (Value::Date(d), Value::Int(n)) => {
                Some(Value::Date(d.checked_plus_days(n.checked_neg()?)?))
            }
            (a, b) => Some(Value::float(a.as_f64()? - b.as_f64()?)),
        }
    }

    /// Multiplies two numeric values.
    pub fn checked_mul(&self, rhs: &Value) -> Option<Value> {
        match (self, rhs) {
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a.checked_mul(*b)?)),
            (a, b) => Some(Value::float(a.as_f64()? * b.as_f64()?)),
        }
    }

    /// Compares two values for predicate evaluation. Numeric types compare
    /// by value across `Int`/`Float`; other kinds compare only within the
    /// same kind. Returns `None` for incomparable kinds.
    pub fn compare(&self, rhs: &Value) -> Option<Ordering> {
        match (self, rhs) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Null, Value::Null) => Some(Ordering::Equal),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                Some(x.total_cmp(&y))
            }
        }
    }

    /// Semantic equality used for equi-joins: numeric values match across
    /// `Int`/`Float`; other kinds require identical kind and content.
    pub fn join_eq(&self, rhs: &Value) -> bool {
        match (self, rhs) {
            // values of one stream share their strings: equal pointers
            // settle it without reading the bytes
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => self.compare(rhs) == Some(Ordering::Equal),
        }
    }
}

// Every arm writes without the formatter's width or fill, so a value
// displays the same inside a padded field as on its own.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => {
                f.write_char('\'')?;
                f.write_str(s)?;
                f.write_char('\'')
            }
            Value::Date(d) => write!(f, "'{d}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A tuple of values as returned by a service invocation or composed by a
/// join. Reference-counted so plan operators can fan tuples out to several
/// consumers without copying the payload.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: impl Into<Vec<Value>>) -> Self {
        Tuple(Arc::from(values.into()))
    }

    /// Number of fields.
    #[inline]
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Field access.
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// All fields as a slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Concatenates two tuples (used by join operators).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Tuple::new(v)
    }

    /// Projects the tuple onto the given positions.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple::new(
            positions
                .iter()
                .map(|&i| self.0[i].clone())
                .collect::<Vec<_>>(),
        )
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("⟨")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            fmt::Display::fmt(v, f)?;
        }
        f.write_str("⟩")
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

/// Identifier of an abstract domain interned in a
/// [`Schema`](crate::schema::Schema).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u32);

/// The value kind a domain ranges over; used for lenient type checking of
/// query constants and for generating synthetic data.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DomainKind {
    /// Any value kind accepted.
    #[default]
    Any,
    /// Integers.
    Int,
    /// Floats.
    Float,
    /// Strings.
    Str,
    /// Dates.
    Date,
    /// Booleans.
    Bool,
}

impl DomainKind {
    /// Whether `v` inhabits this domain kind (`Null` inhabits all).
    pub fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (DomainKind::Any, _)
                | (_, Value::Null)
                | (DomainKind::Int, Value::Int(_))
                | (DomainKind::Float, Value::Float(_))
                | (DomainKind::Float, Value::Int(_))
                | (DomainKind::Str, Value::Str(_))
                | (DomainKind::Date, Value::Date(_))
                | (DomainKind::Bool, Value::Bool(_))
        )
    }
}

/// Metadata for an abstract domain (§3.1).
///
/// `cardinality` is the optimizer's estimate of the number of distinct
/// values the domain can take; it caps distinct-value estimates under the
/// *optimal cache* setting (§5.1).
#[derive(Clone, Debug)]
pub struct DomainInfo {
    /// Domain name, e.g. `City`.
    pub name: Arc<str>,
    /// Kind of values in the domain.
    pub kind: DomainKind,
    /// Estimated number of distinct values, if known.
    pub cardinality: Option<f64>,
}

impl DomainInfo {
    /// A domain with the given name and kind and unknown cardinality.
    pub fn new(name: impl AsRef<str>, kind: DomainKind) -> Self {
        DomainInfo {
            name: Arc::from(name.as_ref()),
            kind,
            cardinality: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn f64_total_order_and_hash() {
        assert_eq!(F64(0.0), F64(-0.0));
        assert_eq!(hash_of(&F64(0.0)), hash_of(&F64(-0.0)));
        assert_eq!(F64(f64::NAN), F64(f64::NAN));
        assert!(F64(1.0) < F64(2.0));
        assert!(F64(-1.0) < F64(0.0));
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2007, 3, 14),
            (2008, 8, 24),
            (2000, 2, 29),
            (1999, 12, 31),
            (2100, 1, 1),
        ] {
            let date = Date::from_ymd(y, m, d);
            assert_eq!(date.ymd(), (y, m, d), "roundtrip {y}/{m}/{d}");
        }
        assert_eq!(Date::from_ymd(1970, 1, 1).days_since_epoch(), 0);
        assert_eq!(Date::from_ymd(1970, 1, 2).days_since_epoch(), 1);
        assert_eq!(Date::from_ymd(1969, 12, 31).days_since_epoch(), -1);
    }

    #[test]
    fn date_parse_and_arith() {
        let d = Date::parse("2007/3/14").expect("parses");
        assert_eq!(d.ymd(), (2007, 3, 14));
        let later = d.plus_days(180);
        assert_eq!(later.ymd(), (2007, 9, 10));
        assert!(Date::parse("2007/13/1").is_none());
        assert!(Date::parse("not-a-date").is_none());
        assert_eq!(
            Date::parse("2008-08-24").map(|d| d.ymd()),
            Some((2008, 8, 24))
        );
    }

    #[test]
    fn value_arithmetic() {
        let d = Value::Date(Date::from_ymd(2007, 3, 14));
        let plus = d.checked_add(&Value::Int(180)).expect("date+int");
        assert_eq!(plus, Value::Date(Date::from_ymd(2007, 9, 10)));
        assert_eq!(
            Value::Int(2).checked_add(&Value::float(0.5)),
            Some(Value::float(2.5))
        );
        assert_eq!(
            Value::Date(Date::from_ymd(2007, 3, 15))
                .checked_sub(&Value::Date(Date::from_ymd(2007, 3, 14))),
            Some(Value::Int(1))
        );
        assert_eq!(Value::Int(i64::MAX).checked_add(&Value::Int(1)), None);
        assert_eq!(Value::str("x").checked_add(&Value::Int(1)), None);
        // date arithmetic leaves the day range as `None`, never wrapping
        assert_eq!(d.checked_add(&Value::Int(i64::MAX)), None);
        assert_eq!(d.checked_add(&Value::Int(i64::from(i32::MAX))), None);
        assert_eq!(d.checked_sub(&Value::Int(i64::MIN)), None);
        let epoch = Date::from_ymd(1970, 1, 1);
        let lo = epoch
            .checked_plus_days(i64::from(i32::MIN))
            .expect("in range");
        let hi = epoch
            .checked_plus_days(i64::from(i32::MAX))
            .expect("in range");
        assert_eq!(
            Value::Date(hi).checked_sub(&Value::Date(lo)),
            Some(Value::Int(u32::MAX as i64))
        );
    }

    #[test]
    fn value_compare_mixed() {
        assert_eq!(
            Value::Int(3).compare(&Value::float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(3).compare(&Value::float(3.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::str("a").compare(&Value::Int(1)), None);
        assert!(Value::Int(3).join_eq(&Value::float(3.0)));
        assert!(!Value::str("a").join_eq(&Value::str("b")));
    }

    #[test]
    fn tuple_ops() {
        let t = Tuple::new(vec![Value::Int(1), Value::str("x")]);
        let u = Tuple::new(vec![Value::float(2.0)]);
        let c = t.concat(&u);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.get(2), &Value::float(2.0));
        assert_eq!(
            c.project(&[2, 0]).values(),
            &[Value::float(2.0), Value::Int(1)]
        );
        assert_eq!(format!("{t}"), "⟨1, 'x'⟩");
    }

    #[test]
    fn domain_kind_admits() {
        assert!(DomainKind::Int.admits(&Value::Int(1)));
        assert!(!DomainKind::Int.admits(&Value::str("a")));
        assert!(DomainKind::Float.admits(&Value::Int(1)));
        assert!(DomainKind::Any.admits(&Value::str("a")));
        assert!(DomainKind::Str.admits(&Value::Null));
    }
}
