//! The repository's one codec: what a value looks like as bytes, on
//! disk (WAL records, the snapshot blob) and on the wire (every frame
//! payload of `adminref_service::wire`).
//!
//! A layout is a [`Wire`] impl, and each is stated once. The rules:
//!
//! * integers are LEB128 varints (`u64`; `u32`/`usize` are the same
//!   varint and refuse a value that does not fit — an id past `u32` is
//!   [`CodecError::VarintOverflow`], never a truncation); a `u8` is one
//!   raw byte, a `bool` one byte that must be `00` or `01`; a string is
//!   a varint byte length then UTF-8;
//! * **option**: `00` absent, `01` present then the value;
//! * **list**: a varint count then that many elements. The count is a
//!   claim, so decoding reserves at most 4096 slots up front and grows
//!   only as elements actually arrive — allocation is bounded by the
//!   input's length whatever it announces;
//! * a **pair** or **struct** is its fields in order
//!   ([`wire_struct!`](crate::wire_struct)); an **enum** is a tag then
//!   the variant's fields ([`wire_enum!`](crate::wire_enum)), and an
//!   unknown tag is [`CodecError::BadTag`] naming the tag space.
//!
//! Everything else is a table row built from those. A type's row lives
//! in the lowest crate that sees both the type and this trait:
//! `adminref_core`'s types here, the monitor's audit types beside their
//! definitions, the service's messages in `adminref_service::wire`.
//! Two layouts are not field-by-field, because decoding them depends on
//! what was decoded before: [`Universe`] (a term may only mention ids
//! already interned, and the sparse action/object tables are re-densed)
//! and a policy, which is the [`EdgeSets`] row plus a
//! [`bind`](EdgeSets::bind) to the universe its ids index into.
//!
//! The format is deterministic and pinned by `fixtures/store_golden.hex`
//! and `fixtures/wire_golden.hex`.

use std::collections::BTreeMap;

use bytes::{Buf, BufMut};

use adminref_core::admission::{
    AdmissionReport, ConstraintSet, EdgeStatus, ImpactReport, PermFlip, StatusChange,
};
use adminref_core::command::{Command, CommandKind, CommandQueue};
use adminref_core::ids::{ActionId, Entity, ObjectId, Perm, PrivId, RoleId, UserId};
use adminref_core::lint::{Confirmation, Finding, FindingKind, LintReport, Severity};
use adminref_core::ordering::OrderingMode;
use adminref_core::policy::Policy;
use adminref_core::reach::EdgeDelta;
use adminref_core::refinement::RefinementViolation;
use adminref_core::safety::{ReachabilityAnswer, SafetyConfig, Truncation};
use adminref_core::session::SessionError;
use adminref_core::transition::{AuthMode, Authorization, StepOutcome};
use adminref_core::universe::{Edge, OutOfRange, PrivTerm, Universe, UniverseTag};

use crate::log::StoreError;
use crate::store::RecoveryReport;

/// Decoding failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// A tag byte (or varint) named no variant of its enum.
    BadTag {
        /// Which tag space (edge, option, request, …).
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A varint exceeded 64 bits, or the width of the integer it is for.
    VarintOverflow,
    /// A string was not valid UTF-8.
    BadUtf8,
    /// An id the tables decoded so far cannot place: a reference to an
    /// entry that does not exist (yet), or a sparse-table id that is out
    /// of order or further out than the input could ever fill.
    DanglingId(u64),
    /// The value decoded cleanly but bytes were left over: the framing
    /// around it and the encoding disagree.
    TrailingBytes {
        /// Undecoded bytes remaining.
        extra: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            CodecError::VarintOverflow => write!(f, "varint too wide for its integer"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            CodecError::DanglingId(id) => write!(f, "dangling table reference {id}"),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete value")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<OutOfRange> for CodecError {
    fn from(e: OutOfRange) -> Self {
        CodecError::DanglingId(e.id)
    }
}

// ----- the trait, the primitives, the containers -------------------------

/// One layout, stated once. Everything in the repository that becomes
/// bytes is an impl of this trait — by hand for the primitives, the
/// containers and the few layouts that are not field-by-field, by
/// [`wire_struct!`](crate::wire_struct) and
/// [`wire_enum!`](crate::wire_enum) for the rest.
pub trait Wire: Sized {
    /// Appends this value's encoding.
    fn put(&self, buf: &mut Vec<u8>);
    /// Reads one value off the front of `buf`, advancing past it.
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError>;
}

/// Collects what `put` writes into a fresh buffer.
pub fn encode(put: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::new();
    put(&mut buf);
    buf
}

/// Runs `take` over a whole payload — a frame's, a record's, a blob's.
/// Bytes it leaves unread are [`CodecError::TrailingBytes`].
pub fn decode<T>(
    payload: &[u8],
    take: impl FnOnce(&mut &[u8]) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let buf = &mut &payload[..];
    let value = take(buf)?;
    if buf.has_remaining() {
        return Err(CodecError::TrailingBytes {
            extra: buf.remaining(),
        });
    }
    Ok(value)
}

/// One raw byte: the tag of the nested enums.
impl Wire for u8 {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.put_u8(*self);
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        if !buf.has_remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(buf.get_u8())
    }
}

/// LEB128 varint — every integer except a checksum.
impl Wire for u64 {
    fn put(&self, buf: &mut Vec<u8>) {
        let mut v = *self;
        while v >= 0x80 {
            buf.put_u8(v as u8 | 0x80);
            v >>= 7;
        }
        buf.put_u8(v as u8);
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let mut out = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = u8::take(buf)?;
            out |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
        }
        Err(CodecError::VarintOverflow)
    }
}

/// A varint that must fit the narrower type; one that does not is a
/// typed overflow, never a truncation.
macro_rules! wire_narrow_varint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                (*self as u64).put(buf);
            }
            fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
                <$ty>::try_from(u64::take(buf)?).map_err(|_| CodecError::VarintOverflow)
            }
        }
    )*};
}
wire_narrow_varint!(usize, u32);

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.put_u8(u8::from(*self));
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::take(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(bad_tag("bool", other)),
        }
    }
}

impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) {
        self.len().put(buf);
        buf.put_slice(self.as_bytes());
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::take(buf)?;
        if buf.remaining() < len {
            return Err(CodecError::UnexpectedEof);
        }
        let (bytes, rest) = buf.split_at(len);
        *buf = rest;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
}

/// The one option rule: `00` absent, `01` present followed by the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.put_u8(0),
            Some(value) => {
                buf.put_u8(1);
                value.put(buf);
            }
        }
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::take(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::take(buf)?)),
            other => Err(bad_tag("option", other)),
        }
    }
}

/// The one list rule: a varint element count, then that many elements.
fn put_list<T: Wire>(items: &[T], buf: &mut Vec<u8>) {
    items.len().put(buf);
    for item in items {
        item.put(buf);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_list(self, buf);
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let n = usize::take(buf)?;
        // The count is the writer's claim: reserve a bounded number of
        // slots, and let a count the input cannot back end in
        // `UnexpectedEof` (every element takes at least one byte).
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(T::take(buf)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::take(buf)?, B::take(buf)?))
    }
}

fn bad_tag(what: &'static str, tag: u8) -> CodecError {
    CodecError::BadTag {
        what,
        tag: tag.into(),
    }
}

/// Structs as a table of `Name { fields }` rows: a struct is its fields
/// in row order, each by its own [`Wire`] impl. `field as Wrapper` sends
/// the field through a one-field wrapper type instead, where the
/// field's own type has a different layout from the one wanted.
#[macro_export]
macro_rules! wire_struct {
    ($($ty:ident { $($field:tt $(as $via:ident)?),* $(,)? })*) => {$(
        impl $crate::codec::Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                $( $crate::wire_struct!(@put buf, self.$field $(, $via)?); )*
            }
            fn take(buf: &mut &[u8]) -> Result<Self, $crate::codec::CodecError> {
                Ok($ty { $( $field: $crate::wire_struct!(@take buf $(, $via)?) ),* })
            }
        }
    )*};
    (@put $buf:ident, $value:expr) => { $crate::codec::Wire::put(&$value, $buf) };
    (@put $buf:ident, $value:expr, $via:ident) => {
        $crate::codec::Wire::put(&$via($value), $buf)
    };
    (@take $buf:ident) => { $crate::codec::Wire::take($buf)? };
    (@take $buf:ident, $via:ident) => { <$via as $crate::codec::Wire>::take($buf)?.0 };
}

/// A tagged enum as a table of `tag => Variant { fields }` rows: the
/// tag (of type `$repr`: `u8` for nested enums, varint `u64` for the
/// service's three message enums), then the named fields in row order,
/// each by its own [`Wire`] impl; an unknown tag is
/// [`CodecError::BadTag`]` { what, .. }`. Both directions come from the
/// one row. A row whose layout is not field-by-field spells both out
/// after `=`.
///
/// The first form is `impl Wire`. The second is for enums that need
/// more than the trait offers: the same two functions as inherent
/// items, with the buffer — and a decode context — named by the table
/// so that a spelled-out row can use them, and optionally the variant
/// names as a constant.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident: $repr:ty as $what:literal $rows:tt) => {
        $crate::wire_enum!(@impl [impl $crate::codec::Wire for $ty] $ty, $repr, $what, buf, [], $rows);
    };
    ($ty:ident: $repr:ty as $what:literal $(, names $names:ident)?,
     |$buf:ident $(, $cx:ident: $cxty:ty)?| $rows:tt) => {
        $crate::wire_enum!(@impl [impl $ty] $ty, $repr, $what, $buf, [$(, $cx: $cxty)?], $rows);
        $( $crate::wire_enum!(@names $names, $rows); )?
    };
    (@impl [$($head:tt)*] $ty:ident, $repr:ty, $what:literal, $buf:ident, [$($cx:tt)*], {
        $( $tag:tt => $variant:ident $({ $($f:ident),* })? $(( $($t:ident),* ))?
           $(= { put: $put:expr, take: $take:expr })? ),* $(,)?
    }) => {
        $($head)* {
            fn put(&self, $buf: &mut Vec<u8>) {
                match self {$(
                    $ty::$variant $({ $($f),* })? $(( $($t),* ))? => {
                        <$repr as $crate::codec::Wire>::put(&$tag, $buf);
                        $crate::wire_enum!(@or [
                            $($( $crate::codec::Wire::put($f, $buf); )*)?
                            $($( $crate::codec::Wire::put($t, $buf); )*)?
                        ] $($put)?)
                    }
                )*}
            }
            fn take($buf: &mut &[u8] $($cx)*) -> Result<Self, $crate::codec::CodecError> {
                Ok(match <$repr as $crate::codec::Wire>::take($buf)? {
                    $( $tag => $crate::wire_enum!(@or [
                        $ty::$variant $({ $($f: $crate::codec::Wire::take($buf)?),* })?
                            $(( $($crate::wire_enum!(@field $t, $buf)),* ))?
                    ] $($take)?), )*
                    other => return Err($crate::codec::CodecError::BadTag {
                        what: $what,
                        tag: other.into(),
                    }),
                })
            }
        }
    };
    (@names $names:ident, {
        $( $tag:tt => $variant:ident $({ $($f:ident),* })? $(( $($t:ident),* ))?
           $(= $custom:tt)? ),* $(,)?
    }) => {
        const $names: &[&str] = &[$(stringify!($variant)),*];
    };
    (@or [$($row:tt)*]) => { { $($row)* } };
    (@or [$($row:tt)*] $custom:expr) => { $custom };
    (@field $name:ident, $buf:ident) => { $crate::codec::Wire::take($buf)? };
}

// ----- the policy vocabulary: what the WAL and the snapshot hold ---------

// Ids travel as varints of their raw index; one past `u32` is a typed
// overflow here, and one past the universe it is used against is
// refused by whoever binds it (`Universe::check_edge`).
wire_struct! {
    UserId { 0 }
    RoleId { 0 }
    PrivId { 0 }
    ActionId { 0 }
    ObjectId { 0 }
    Perm { action, object }
    Command { actor, kind, edge }
    ConstraintSet { sod_pairs, deny_level, frozen_edges }
}
wire_enum!(Edge: u8 as "edge" {
    0 => UserRole(user, role),
    1 => RoleRole(senior, junior),
    2 => RolePriv(role, term),
});
// Children travel as ids. Term tables serialize in id order, which is
// topologically valid: hash-consing interns children before parents, so
// a nested term always references an earlier id.
wire_enum!(PrivTerm: u8 as "privilege term" {
    0 => Perm(perm),
    1 => Grant(edge),
    2 => Revoke(edge),
});
wire_enum!(CommandKind: u8 as "command kind" {
    0 => Grant,
    1 => Revoke,
});
wire_enum!(Severity: u8 as "severity" {
    0 => Note,
    1 => Warning,
    2 => Error,
});

/// `tag, users, roles, actions, objects, terms`: the identity tag, the
/// user and role names in id order, the actions and objects that some
/// permission mentions as sparse `(id, name)` pairs in id order, and
/// the term table in id order.
///
/// Decoding re-interns in the same order, so ids coincide with the
/// written ones (interning is deterministic append-order) and the
/// recovered universe *is* the saved one: it adopts the saved identity
/// tag so policies interoperate. Each table is checked against the ones
/// before it — a term mentioning an id that is not interned yet is
/// [`CodecError::DanglingId`], never an index out of bounds.
impl Wire for Universe {
    fn put(&self, buf: &mut Vec<u8>) {
        let mut actions = BTreeMap::new();
        let mut objects = BTreeMap::new();
        let terms: Vec<PrivTerm> = self.priv_ids().map(|p| self.term(p)).collect();
        for term in &terms {
            if let PrivTerm::Perm(Perm { action, object }) = *term {
                let name = || self.action_name(action).to_string();
                actions.entry(action.0).or_insert_with(name);
                let name = || self.object_name(object).to_string();
                objects.entry(object.0).or_insert_with(name);
            }
        }
        let users: Vec<String> = self.users().map(|u| self.user_name(u).into()).collect();
        let roles: Vec<String> = self.roles().map(|r| self.role_name(r).into()).collect();
        self.tag().raw().put(buf);
        users.put(buf);
        roles.put(buf);
        Vec::from_iter(actions).put(buf);
        Vec::from_iter(objects).put(buf);
        terms.put(buf);
    }

    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let mut universe = Universe::new();
        universe.adopt_tag(UniverseTag::from_raw(u64::take(buf)?));
        for name in Vec::<String>::take(buf)? {
            universe.user(&name);
        }
        for name in Vec::<String>::take(buf)? {
            universe.role(&name);
        }
        take_sparse_names(buf, "__action_", |name| {
            universe.action(name);
        })?;
        take_sparse_names(buf, "__object_", |name| {
            universe.object(name);
        })?;
        for term in Vec::<PrivTerm>::take(buf)? {
            match term {
                PrivTerm::Perm(perm) => universe.check_perm(perm)?,
                PrivTerm::Grant(edge) | PrivTerm::Revoke(edge) => universe.check_edge(edge)?,
            }
            match term {
                PrivTerm::Perm(perm) => universe.priv_perm(perm),
                PrivTerm::Grant(edge) => universe.priv_grant(edge),
                PrivTerm::Revoke(edge) => universe.priv_revoke(edge),
            };
        }
        Ok(universe)
    }
}

/// Reads a sparse `(id, name)` table and interns it densely: ids must
/// come out as written, so the gaps (names no permission mentions) are
/// filled with `{placeholder}{id}`. The ids must ascend, and none may
/// exceed the bytes that were left when the table began — so the
/// placeholders a table can make the decoder intern are bounded by the
/// input's length, and an id that breaks either rule is refused before
/// its gap is filled.
fn take_sparse_names(
    buf: &mut &[u8],
    placeholder: &str,
    mut intern: impl FnMut(&str),
) -> Result<(), CodecError> {
    let room = buf.len() as u64;
    let mut next = 0u64;
    for (id, name) in Vec::<(u32, String)>::take(buf)? {
        let id = u64::from(id);
        if id < next || id > room {
            return Err(CodecError::DanglingId(id));
        }
        for gap in next..id {
            intern(&format!("{placeholder}{gap}"));
        }
        intern(&name);
        next = id + 1;
    }
    Ok(())
}

/// A policy as bytes: its three relations as lists of id pairs. Reading
/// one back needs the universe those ids index into, so a [`Policy`] is
/// not itself [`Wire`]: [`EdgeSets::of`] a policy is, and
/// [`bind`](EdgeSets::bind) turns the decoded lists into a policy over
/// a universe that has every id they name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeSets {
    ua: Vec<(UserId, RoleId)>,
    rh: Vec<(RoleId, RoleId)>,
    pa: Vec<(RoleId, PrivId)>,
}

wire_struct! {
    EdgeSets { ua, rh, pa }
}

impl EdgeSets {
    /// The edge sets of `policy`.
    pub fn of(policy: &Policy) -> Self {
        EdgeSets {
            ua: policy.ua().collect(),
            rh: policy.rh().collect(),
            pa: policy.pa().collect(),
        }
    }

    /// The policy over `universe` with exactly these edges. An edge
    /// naming an id `universe` does not have is
    /// [`CodecError::DanglingId`].
    pub fn bind(self, universe: &Universe) -> Result<Policy, CodecError> {
        let ua = self.ua.into_iter().map(|(u, r)| Edge::UserRole(u, r));
        let rh = self.rh.into_iter().map(|(a, b)| Edge::RoleRole(a, b));
        let pa = self.pa.into_iter().map(|(r, p)| Edge::RolePriv(r, p));
        let mut policy = Policy::new(universe);
        for edge in ua.chain(rh).chain(pa) {
            universe.check_edge(edge)?;
            policy.add_edge(edge);
        }
        Ok(policy)
    }
}

// ----- what else of `adminref_core` (and this crate) crosses the wire ----

/// A reachability witness: the list of its commands.
impl Wire for CommandQueue {
    fn put(&self, buf: &mut Vec<u8>) {
        put_list(self.commands(), buf);
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Vec::take(buf).map(CommandQueue::from_commands)
    }
}

wire_enum!(Entity: u8 as "entity" {
    0 => User(id),
    1 => Role(id),
});
wire_enum!(ReachabilityAnswer: u8 as "reachability answer" {
    0 => Reachable { witness },
    1 => Unreachable,
    2 => Unknown { truncation },
});
wire_enum!(FindingKind: u8 as "finding kind" {
    0 => DeadCommand,
    1 => Unauthorizable,
    2 => RedundantGrant,
    3 => ShadowedGrant,
    // 4 (non-monotone-island) is retired, never reused.
    5 => SodConflict,
    6 => FrozenEdgeViolation,
});
wire_enum!(EdgeStatus: u8 as "edge status" {
    0 => Frozen,
    1 => Volatile,
    2 => Unreachable,
});

/// The ordering mode is folded into the auth-mode byte rather than
/// nested behind it.
impl Wire for AuthMode {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.put_u8(match self {
            AuthMode::Explicit => 0,
            AuthMode::Ordered(OrderingMode::Strict) => 1,
            AuthMode::Ordered(OrderingMode::Extended) => 2,
            AuthMode::Ordered(OrderingMode::ExtendedWithRevocation) => 3,
        });
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(match u8::take(buf)? {
            0 => AuthMode::Explicit,
            1 => AuthMode::Ordered(OrderingMode::Strict),
            2 => AuthMode::Ordered(OrderingMode::Extended),
            3 => AuthMode::Ordered(OrderingMode::ExtendedWithRevocation),
            other => return Err(bad_tag("auth mode", other)),
        })
    }
}

/// Field by field up to `jobs`; the two booleans then share one flags
/// byte (bit 0 escalate, bit 1 slice) whose higher bits must be zero.
impl Wire for SafetyConfig {
    fn put(&self, buf: &mut Vec<u8>) {
        self.max_steps.put(buf);
        self.max_states.put(buf);
        self.auth_mode.put(buf);
        self.weaker_depth.put(buf);
        self.jobs.put(buf);
        buf.put_u8(u8::from(self.escalate) | (u8::from(self.slice) << 1));
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let mut config = SafetyConfig {
            max_steps: Wire::take(buf)?,
            max_states: Wire::take(buf)?,
            auth_mode: Wire::take(buf)?,
            weaker_depth: Wire::take(buf)?,
            jobs: Wire::take(buf)?,
            escalate: false,
            slice: false,
        };
        let flags = u8::take(buf)?;
        if flags > 0b11 {
            return Err(bad_tag("safety-config flags", flags));
        }
        config.escalate = flags & 0b01 != 0;
        config.slice = flags & 0b10 != 0;
        Ok(config)
    }
}

/// A finding's `Option<Confirmation>`, folded into one byte:
/// `00` not applicable, `01` confirmed, `02` potential.
struct ConfirmationByte(Option<Confirmation>);

impl Wire for ConfirmationByte {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.put_u8(match self.0 {
            None => 0,
            Some(Confirmation::Confirmed) => 1,
            Some(Confirmation::Potential) => 2,
        });
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(ConfirmationByte(match u8::take(buf)? {
            0 => None,
            1 => Some(Confirmation::Confirmed),
            2 => Some(Confirmation::Potential),
            other => return Err(bad_tag("confirmation option", other)),
        }))
    }
}

// `specs/wire_protocol.md`'s named layouts that are `adminref_core`
// (or this crate's) types, in its order.
wire_struct! {
    Authorization { held, target }
    StepOutcome { authorization, changed }
    Truncation { states, depth, cap_hit }
    RefinementViolation { entity, perm }
    RecoveryReport { replayed, truncated_tail, divergent }
    Finding { kind, severity, role, term, edge, confirmation as ConfirmationByte, message }
    LintReport { rules_checked, closure_edges, findings }
    EdgeDelta { edge, added }
    PermFlip { user, term, now_granted }
    StatusChange { edge, before, after }
    ImpactReport {
        outcomes, deltas, flipped, grow_only_before, grow_only_after, status_changes, findings,
        severed_sessions,
    }
    AdmissionReport { findings, constraints_checked }
}

/// The one session error, untagged: the tag of the error that carries
/// it already says which it is.
impl Wire for SessionError {
    fn put(&self, buf: &mut Vec<u8>) {
        let SessionError::ActivationDenied { user, role } = self;
        user.put(buf);
        role.put(buf);
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(SessionError::ActivationDenied {
            user: Wire::take(buf)?,
            role: Wire::take(buf)?,
        })
    }
}

/// Lossy by design: a store error crosses as its display string and is
/// rebuilt as an I/O error on the far side.
impl Wire for StoreError {
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_string().put(buf);
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(StoreError::Io(std::io::Error::other(String::take(buf)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adminref_core::policy::PolicyBuilder;

    fn bytes_of(value: &impl Wire) -> Vec<u8> {
        encode(|buf| value.put(buf))
    }

    fn round_trip<T: Wire>(value: &T) -> T {
        decode(&bytes_of(value), T::take).expect("round trip")
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            assert_eq!(round_trip(&v), v);
        }
        assert_eq!(bytes_of(&300u64), [0xAC, 0x02]);
    }

    #[test]
    fn varint_eof() {
        // A continuation bit but no next byte.
        assert_eq!(
            u64::take(&mut &[0x80u8][..]),
            Err(CodecError::UnexpectedEof)
        );
        assert_eq!(
            u64::take(&mut &[0xFFu8; 11][..]),
            Err(CodecError::VarintOverflow)
        );
    }

    #[test]
    fn narrow_varints_overflow_instead_of_truncating() {
        let past_u32 = bytes_of(&((1u64 << 32) + 1));
        assert_eq!(
            u32::take(&mut &past_u32[..]),
            Err(CodecError::VarintOverflow)
        );
        // An edge, a command and a constraint set name ids; none of them
        // may come back as the id modulo 2^32.
        let mut edge = vec![0u8];
        edge.extend_from_slice(&past_u32);
        edge.push(0);
        assert_eq!(Edge::take(&mut &edge[..]), Err(CodecError::VarintOverflow));
        let mut command = past_u32.clone();
        command.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(
            Command::take(&mut &command[..]),
            Err(CodecError::VarintOverflow)
        );
        let mut set = vec![1u8, 0];
        set.extend_from_slice(&past_u32);
        set.extend_from_slice(&[0, 0]);
        assert_eq!(
            ConstraintSet::take(&mut &set[..]),
            Err(CodecError::VarintOverflow)
        );
    }

    #[test]
    fn string_round_trip() {
        assert_eq!(round_trip(&"nurse-α".to_string()), "nurse-α");
    }

    #[test]
    fn string_bad_utf8() {
        assert_eq!(
            String::take(&mut &[2u8, 0xFF, 0xFE][..]),
            Err(CodecError::BadUtf8)
        );
    }

    fn sample() -> (Universe, Policy) {
        let mut b = PolicyBuilder::new()
            .assign("diana", "nurse")
            .assign("jane", "hr")
            .declare_user("bob")
            .inherit("staff", "nurse")
            .permit("dbusr1", "read", "t1")
            .permit("dbusr1", "read", "t2");
        let (bob, staff) = {
            let u = b.universe_mut();
            (u.find_user("bob").unwrap(), u.find_role("staff").unwrap())
        };
        let g = b.universe_mut().grant_user_role(bob, staff);
        let nested = b.universe_mut().grant_role_priv(staff, g);
        b = b.assign_priv("hr", g).assign_priv("hr", nested);
        b.finish()
    }

    #[test]
    fn universe_round_trip_preserves_ids_and_names() {
        let (uni, _) = sample();
        let uni2 = round_trip(&uni);
        assert_eq!(uni2.user_count(), uni.user_count());
        assert_eq!(uni2.role_count(), uni.role_count());
        assert_eq!(uni2.term_count(), uni.term_count());
        for u in uni.users() {
            assert_eq!(uni.user_name(u), uni2.user_name(u));
        }
        for p in uni.priv_ids() {
            assert_eq!(uni.term(p), uni2.term(p));
            assert_eq!(uni.depth(p), uni2.depth(p));
        }
    }

    #[test]
    fn policy_round_trip_is_structural() {
        let (uni, policy) = sample();
        let uni2 = round_trip(&uni);
        let policy2 = round_trip(&EdgeSets::of(&policy)).bind(&uni2).unwrap();
        assert_eq!(policy.edge_count(), policy2.edge_count());
        let edges1: Vec<Edge> = policy.edges().collect();
        let edges2: Vec<Edge> = policy2.edges().collect();
        assert_eq!(edges1, edges2);
    }

    #[test]
    fn policy_over_missing_ids_is_dangling() {
        let (uni, policy) = sample();
        let mut smaller = Universe::new();
        smaller.user("diana");
        smaller.role("nurse");
        assert!(matches!(
            EdgeSets::of(&policy).bind(&smaller),
            Err(CodecError::DanglingId(_))
        ));
        assert!(EdgeSets::of(&policy).bind(&uni).is_ok());
    }

    #[test]
    fn command_round_trip() {
        let cmds = [
            Command::grant(UserId(3), Edge::UserRole(UserId(1), RoleId(2))),
            Command::revoke(UserId(0), Edge::RoleRole(RoleId(5), RoleId(6))),
            Command::grant(UserId(9), Edge::RolePriv(RoleId(1), PrivId(4))),
        ];
        for cmd in &cmds {
            assert_eq!(&round_trip(cmd), cmd);
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert_eq!(
            Edge::take(&mut &[9u8, 0, 0][..]),
            Err(CodecError::BadTag {
                what: "edge",
                tag: 9
            })
        );
        assert_eq!(
            PrivTerm::take(&mut &[7u8][..]),
            Err(CodecError::BadTag {
                what: "privilege term",
                tag: 7
            })
        );
    }

    /// A universe blob: tag 1, no users, role `r`, then the given
    /// action table, no objects, and the given term table.
    fn universe_blob(actions: &[(u32, String)], terms: &[PrivTerm]) -> Vec<u8> {
        encode(|buf| {
            1u64.put(buf);
            Vec::<String>::new().put(buf);
            vec!["r".to_string()].put(buf);
            actions.to_vec().put(buf);
            Vec::<(u32, String)>::new().put(buf);
            terms.to_vec().put(buf);
        })
    }

    #[test]
    fn dangling_term_reference_rejected() {
        // A term table whose first term references priv id 5.
        let blob = universe_blob(
            &[],
            &[PrivTerm::Grant(Edge::RolePriv(RoleId(0), PrivId(5)))],
        );
        assert_eq!(
            decode(&blob, Universe::take).err(),
            Some(CodecError::DanglingId(5))
        );
        // A duplicate term interns nothing, so what follows it may not
        // count it as a child either.
        let perm = PrivTerm::Grant(Edge::RoleRole(RoleId(0), RoleId(0)));
        let blob = universe_blob(
            &[],
            &[
                perm,
                perm,
                PrivTerm::Grant(Edge::RolePriv(RoleId(0), PrivId(1))),
            ],
        );
        assert_eq!(
            decode(&blob, Universe::take).err(),
            Some(CodecError::DanglingId(1))
        );
        // A permission over an action the tables never named.
        let blob = universe_blob(&[], &[PrivTerm::Perm(Perm::new(ActionId(0), ObjectId(0)))]);
        assert_eq!(
            decode(&blob, Universe::take).err(),
            Some(CodecError::DanglingId(0))
        );
    }

    #[test]
    fn sparse_tables_must_ascend_and_fit_the_input() {
        let name = |s: &str| s.to_string();
        let ok = universe_blob(&[(0, name("read")), (2, name("write"))], &[]);
        let uni = decode(&ok, Universe::take).expect("a gap of one is fine");
        assert_eq!(uni.action_count(), 3);
        assert_eq!(uni.action_name(ActionId(1)), "__action_1");

        let descending = universe_blob(&[(2, name("write")), (1, name("read"))], &[]);
        assert_eq!(
            decode(&descending, Universe::take).err(),
            Some(CodecError::DanglingId(1))
        );
        let repeated = universe_blob(&[(1, name("write")), (1, name("read"))], &[]);
        assert_eq!(
            decode(&repeated, Universe::take).err(),
            Some(CodecError::DanglingId(1))
        );
        // Four billion placeholders from a twenty-byte blob: refused
        // before the first is interned, not after the machine is out of
        // memory.
        let huge = universe_blob(&[(u32::MAX, name("x"))], &[]);
        let started = std::time::Instant::now();
        assert_eq!(
            decode(&huge, Universe::take).err(),
            Some(CodecError::DanglingId(u64::from(u32::MAX)))
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn constraints_round_trip() {
        let cases = [
            ConstraintSet::default(),
            ConstraintSet {
                sod_pairs: vec![(RoleId(1), RoleId(4)), (RoleId(0), RoleId(2))],
                deny_level: Some(Severity::Warning),
                frozen_edges: vec![
                    Edge::UserRole(UserId(0), RoleId(1)),
                    Edge::RolePriv(RoleId(2), PrivId(7)),
                ],
            },
        ];
        for c in &cases {
            assert_eq!(&round_trip(c), c);
        }
        // Option tag 3 after one pair.
        assert_eq!(
            ConstraintSet::take(&mut &[1u8, 0, 0, 3][..]),
            Err(CodecError::BadTag {
                what: "option",
                tag: 3
            })
        );
    }

    #[test]
    fn truncated_input_is_eof() {
        let (uni, _) = sample();
        let bytes = bytes_of(&uni);
        assert!(Universe::take(&mut &bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn whole_payload_decoding_refuses_leftovers() {
        let mut bytes = bytes_of(&7u64);
        bytes.push(0);
        assert_eq!(
            decode(&bytes, u64::take),
            Err(CodecError::TrailingBytes { extra: 1 })
        );
    }
}
