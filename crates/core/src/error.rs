//! The error type of the core crate.

use core::fmt;

use crate::ids::{AttrId, ImplId, TypeId};

/// Errors produced while building or querying a case base.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// An identifier used the reserved list-terminator word `0xFFFF`.
    ReservedId {
        /// The offending raw value.
        raw: u16,
    },
    /// Two function types share the same [`TypeId`].
    DuplicateType {
        /// The duplicated id.
        id: TypeId,
    },
    /// Two implementation variants of one function type share an [`ImplId`].
    DuplicateImpl {
        /// The function type containing the duplicate.
        type_id: TypeId,
        /// The duplicated id.
        impl_id: ImplId,
    },
    /// An attribute id appears twice in one attribute set.
    DuplicateAttr {
        /// The duplicated id.
        attr: AttrId,
    },
    /// An attribute value lies outside the design-global bounds declared for
    /// its attribute type.
    ValueOutOfBounds {
        /// The attribute type.
        attr: AttrId,
        /// The offending value.
        value: u16,
        /// Declared lower bound.
        lower: u16,
        /// Declared upper bound.
        upper: u16,
    },
    /// An attribute is used without a declaration in the bounds table.
    UndeclaredAttr {
        /// The undeclared attribute id.
        attr: AttrId,
    },
    /// A request referenced a function type absent from the case base.
    ///
    /// The paper treats this as a design error: "It should not happen that
    /// the desired type is not found since the application's functional
    /// requirements should already be known at design time."
    UnknownType {
        /// The requested type.
        type_id: TypeId,
    },
    /// A mutation named an implementation variant its (existing) function
    /// type does not hold.
    UnknownImpl {
        /// The function type that was searched.
        type_id: TypeId,
        /// The absent variant.
        impl_id: ImplId,
    },
    /// A request carried no constraining attributes.
    EmptyRequest,
    /// A function type was declared with no implementation variants.
    EmptyType {
        /// The empty type.
        type_id: TypeId,
    },
    /// Request weights were invalid (all zero, or negative/non-finite).
    InvalidWeights,
    /// The case base holds no function types at all.
    EmptyCaseBase,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ReservedId { raw } => {
                write!(f, "id {raw:#06x} collides with the reserved list terminator")
            }
            CoreError::DuplicateType { id } => write!(f, "duplicate function type {id}"),
            CoreError::DuplicateImpl { type_id, impl_id } => {
                write!(f, "duplicate implementation {impl_id} in function type {type_id}")
            }
            CoreError::DuplicateAttr { attr } => write!(f, "duplicate attribute {attr}"),
            CoreError::ValueOutOfBounds {
                attr,
                value,
                lower,
                upper,
            } => write!(
                f,
                "attribute {attr} value {value} outside design-global bounds [{lower}, {upper}]"
            ),
            CoreError::UndeclaredAttr { attr } => {
                write!(f, "attribute {attr} has no entry in the bounds table")
            }
            CoreError::UnknownType { type_id } => {
                write!(f, "function type {type_id} not present in the case base")
            }
            CoreError::UnknownImpl { type_id, impl_id } => {
                write!(f, "function type {type_id} holds no implementation {impl_id}")
            }
            CoreError::EmptyRequest => write!(f, "request carries no constraining attributes"),
            CoreError::EmptyType { type_id } => {
                write!(f, "function type {type_id} declares no implementation variants")
            }
            CoreError::InvalidWeights => {
                write!(f, "request weights must be finite, non-negative and not all zero")
            }
            CoreError::EmptyCaseBase => write!(f, "case base contains no function types"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = CoreError::UnknownType {
            type_id: TypeId::new(9).unwrap(),
        };
        let s = e.to_string();
        assert!(s.contains("T9"));
        assert!(s.starts_with(char::is_lowercase));
    }
}
