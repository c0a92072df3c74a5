//! Abstract syntax of specification files. Every name borrows its text
//! from the source.

use crate::token::Span;
use std::fmt;

/// A whole specification file: component-model declarations followed by
/// instance declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct File<'a> {
    /// The declared component models.
    pub models: Vec<ModelDecl<'a>>,
    /// The declared instances.
    pub instances: Vec<InstanceDecl<'a>>,
}

/// `model <name> stakeholder <agent> { action…; flow…; }` — a
/// functional component model template (Fig. 1 style); the index `i` in
/// action parameters is substituted at `use` time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelDecl<'a> {
    /// The model name (referenced by `use`).
    pub name: &'a str,
    /// The stakeholder template, e.g. `D_i`.
    pub stakeholder: &'a str,
    /// Template actions.
    pub actions: Vec<ActionDecl<'a>>,
    /// Internal flows.
    pub flows: Vec<FlowDecl<'a>>,
    /// Where the declaration starts.
    pub span: Span,
}

/// `use <model> as <alias> index <idx>;`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl<'a> {
    /// The model to instantiate.
    pub model: &'a str,
    /// The local alias for `connect` references.
    pub alias: &'a str,
    /// The instance index substituted for `i` (may be empty).
    pub index: &'a str,
    /// Where the declaration starts.
    pub span: Span,
}

/// `[policy] connect <alias>.<action> -> <alias>.<action>;`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectDecl<'a> {
    /// Source component alias.
    pub from_alias: &'a str,
    /// Source action identifier within the model.
    pub from_action: &'a str,
    /// Target component alias.
    pub to_alias: &'a str,
    /// Target action identifier within the model.
    pub to_action: &'a str,
    /// `true` for `policy connect`.
    pub policy: bool,
    /// Where the declaration starts.
    pub span: Span,
}

/// `instance "name" { … }`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceDecl<'a> {
    /// The quoted instance name.
    pub name: &'a str,
    /// Declared (free-standing) actions.
    pub actions: Vec<ActionDecl<'a>>,
    /// Declared flows between free-standing actions.
    pub flows: Vec<FlowDecl<'a>>,
    /// Component-model instantiations.
    pub uses: Vec<UseDecl<'a>>,
    /// External flows between instantiated components.
    pub connects: Vec<ConnectDecl<'a>>,
    /// Where the declaration starts.
    pub span: Span,
}

/// `action <id> = <term> [owner <id>] [stakeholder <id>];`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionDecl<'a> {
    /// The local identifier used by flows.
    pub id: &'a str,
    /// The action term.
    pub term: Term<'a>,
    /// Optional owning component instance (defaults to the stakeholder).
    pub owner: Option<&'a str>,
    /// Optional stakeholder (defaults to `"env"`).
    pub stakeholder: Option<&'a str>,
    /// Where the declaration starts.
    pub span: Span,
}

/// `[policy] flow <id> -> <id>;`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowDecl<'a> {
    /// Source action identifier.
    pub from: &'a str,
    /// Target action identifier.
    pub to: &'a str,
    /// `true` for `policy flow`.
    pub policy: bool,
    /// Where the declaration starts.
    pub span: Span,
}

/// A term: `name` or `name(arg, …)` with nested terms as arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Term<'a> {
    /// The head identifier.
    pub head: &'a str,
    /// The argument terms.
    pub args: Vec<Term<'a>>,
}

impl<'a> Term<'a> {
    /// A bare identifier term.
    pub fn leaf(head: &'a str) -> Term<'a> {
        Term {
            head,
            args: Vec::new(),
        }
    }
}

impl fmt::Display for Term<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.args.is_empty() {
            write!(f, "(")?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_display() {
        let t = Term {
            head: "send",
            args: vec![
                Term::leaf("CU_1"),
                Term {
                    head: "cam",
                    args: vec![Term::leaf("pos")],
                },
            ],
        };
        assert_eq!(t.to_string(), "send(CU_1,cam(pos))");
        assert_eq!(Term::leaf("x").to_string(), "x");
    }
}
