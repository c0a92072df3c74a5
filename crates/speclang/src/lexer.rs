//! Hand-written lexer.

use crate::error::ParseError;
use crate::token::{Span, Token, TokenKind};

/// Lexes `source` into tokens (ending with [`TokenKind::Eof`]).
///
/// Supports `//` line comments; identifiers may contain letters, digits
/// and `_`.
///
/// # Errors
///
/// Returns [`ParseError`] on unterminated strings or unexpected
/// characters.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, ParseError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut column = 1u32;

    let span_at = |start: usize, end: usize, line: u32, column: u32| Span {
        start,
        end,
        line,
        column,
    };

    while i < bytes.len() {
        let c = bytes[i] as char;
        let (start, start_line, start_col) = (i, line, column);
        match c {
            '\n' => {
                i += 1;
                line += 1;
                column = 1;
            }
            c if c.is_whitespace() => {
                i += 1;
                column += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '{' | '}' | '(' | ')' | ',' | ';' | '=' | '.' => {
                let kind = match c {
                    '{' => TokenKind::LBrace,
                    '}' => TokenKind::RBrace,
                    '(' => TokenKind::LParen,
                    ')' => TokenKind::RParen,
                    ',' => TokenKind::Comma,
                    ';' => TokenKind::Semi,
                    '.' => TokenKind::Dot,
                    _ => TokenKind::Eq,
                };
                tokens.push(Token {
                    kind,
                    span: span_at(start, i + 1, start_line, start_col),
                });
                i += 1;
                column += 1;
            }
            '-' if bytes.get(i + 1) == Some(&b'>') => {
                tokens.push(Token {
                    kind: TokenKind::Arrow,
                    span: span_at(start, i + 2, start_line, start_col),
                });
                i += 2;
                column += 2;
            }
            '"' => {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] != b'"' && bytes[j] != b'\n' {
                    j += 1;
                }
                if j >= bytes.len() || bytes[j] != b'"' {
                    return Err(ParseError::new(
                        span_at(start, j, start_line, start_col),
                        "unterminated string literal",
                    ));
                }
                tokens.push(Token {
                    kind: TokenKind::Str(&source[i + 1..j]),
                    span: span_at(start, j + 1, start_line, start_col),
                });
                column += (j + 1 - i) as u32;
                i = j + 1;
            }
            // Identifiers may start with a digit (`index 1`, `pos2`):
            // the grammar has no numeric literals, so digit-initial
            // words are plain identifiers.
            c if c.is_ascii_alphanumeric() || c == '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                let word = &source[i..j];
                let kind = match word {
                    "instance" => TokenKind::KwInstance,
                    "action" => TokenKind::KwAction,
                    "flow" => TokenKind::KwFlow,
                    "policy" => TokenKind::KwPolicy,
                    "owner" => TokenKind::KwOwner,
                    "stakeholder" => TokenKind::KwStakeholder,
                    "model" => TokenKind::KwModel,
                    "use" => TokenKind::KwUse,
                    "as" => TokenKind::KwAs,
                    "index" => TokenKind::KwIndex,
                    "connect" => TokenKind::KwConnect,
                    _ => TokenKind::Ident(word),
                };
                tokens.push(Token {
                    kind,
                    span: span_at(start, j, start_line, start_col),
                });
                column += (j - i) as u32;
                i = j;
            }
            other => {
                return Err(ParseError::new(
                    span_at(start, start + other.len_utf8(), start_line, start_col),
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        span: span_at(bytes.len(), bytes.len(), line, column),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_punctuation_and_keywords() {
        let k = kinds("instance \"x\" { action a = f(b, c); flow a -> a; }");
        assert_eq!(
            k,
            vec![
                TokenKind::KwInstance,
                TokenKind::Str("x"),
                TokenKind::LBrace,
                TokenKind::KwAction,
                TokenKind::Ident("a"),
                TokenKind::Eq,
                TokenKind::Ident("f"),
                TokenKind::LParen,
                TokenKind::Ident("b"),
                TokenKind::Comma,
                TokenKind::Ident("c"),
                TokenKind::RParen,
                TokenKind::Semi,
                TokenKind::KwFlow,
                TokenKind::Ident("a"),
                TokenKind::Arrow,
                TokenKind::Ident("a"),
                TokenKind::Semi,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let k = kinds("// a comment\naction // trailing\n");
        assert_eq!(k, vec![TokenKind::KwAction, TokenKind::Eof]);
    }

    #[test]
    fn line_and_column_tracked() {
        let toks = lex("a\n  bb").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[0].span.column, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.column, 3);
    }

    #[test]
    fn unterminated_string() {
        let err = lex("\"abc").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn unexpected_character() {
        let err = lex("a @ b").unwrap_err();
        assert!(err.message.contains('@'));
        assert_eq!(err.span.column, 3);
    }

    #[test]
    fn identifiers_with_underscores_and_digits() {
        let k = kinds("GPS_1 pos_w x2");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("GPS_1"),
                TokenKind::Ident("pos_w"),
                TokenKind::Ident("x2"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(kinds(""), vec![TokenKind::Eof]);
    }
}
