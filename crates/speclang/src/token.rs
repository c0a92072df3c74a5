//! Tokens and source spans.

use std::fmt;

/// A half-open byte range in the source, with line/column of its start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column of `start`.
    pub column: u32,
}

impl Span {
    /// A span for testing / synthetic tokens.
    pub fn dummy() -> Span {
        Span {
            start: 0,
            end: 0,
            line: 1,
            column: 1,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// The kinds of token the lexer produces. Identifiers and string
/// literals borrow their text from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// `instance`
    KwInstance,
    /// `action`
    KwAction,
    /// `flow`
    KwFlow,
    /// `policy`
    KwPolicy,
    /// `owner`
    KwOwner,
    /// `stakeholder`
    KwStakeholder,
    /// `model`
    KwModel,
    /// `use`
    KwUse,
    /// `as`
    KwAs,
    /// `index`
    KwIndex,
    /// `connect`
    KwConnect,
    /// `.`
    Dot,
    /// An identifier (action names, owners, term heads).
    Ident(&'a str),
    /// A double-quoted string literal (instance names), without quotes.
    Str(&'a str),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `=`
    Eq,
    /// `->`
    Arrow,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::KwInstance => write!(f, "`instance`"),
            TokenKind::KwAction => write!(f, "`action`"),
            TokenKind::KwFlow => write!(f, "`flow`"),
            TokenKind::KwPolicy => write!(f, "`policy`"),
            TokenKind::KwOwner => write!(f, "`owner`"),
            TokenKind::KwStakeholder => write!(f, "`stakeholder`"),
            TokenKind::KwModel => write!(f, "`model`"),
            TokenKind::KwUse => write!(f, "`use`"),
            TokenKind::KwAs => write!(f, "`as`"),
            TokenKind::KwIndex => write!(f, "`index`"),
            TokenKind::KwConnect => write!(f, "`connect`"),
            TokenKind::Dot => write!(f, "`.`"),
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Str(s) => write!(f, "string \"{s}\""),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Eq => write!(f, "`=`"),
            TokenKind::Arrow => write!(f, "`->`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// What was lexed.
    pub kind: TokenKind<'a>,
    /// Where it was lexed.
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_kinds() {
        assert_eq!(TokenKind::Arrow.to_string(), "`->`");
        assert_eq!(TokenKind::Ident("x").to_string(), "identifier `x`");
        assert_eq!(TokenKind::Str("s").to_string(), "string \"s\"");
        assert_eq!(TokenKind::Eof.to_string(), "end of input");
    }

    #[test]
    fn span_display() {
        let s = Span {
            start: 0,
            end: 3,
            line: 2,
            column: 7,
        };
        assert_eq!(s.to_string(), "2:7");
        assert_eq!(Span::dummy().to_string(), "1:1");
    }
}
