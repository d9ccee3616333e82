//! Tokenizer for the composition DSL.

use dandelion_common::DandelionError;

/// The kinds of tokens produced by the lexer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// The `composition` keyword.
    Composition,
    /// The `all` distribution keyword.
    All,
    /// The `each` distribution keyword.
    Each,
    /// The `key` distribution keyword.
    Key,
    /// The `optional` input-set modifier.
    Optional,
    /// An identifier (function, set or data name).
    Identifier(String),
    /// `(`
    LeftParen,
    /// `)`
    RightParen,
    /// `{`
    LeftBrace,
    /// `}`
    RightBrace,
    /// `=`
    Equals,
    /// `=>`
    Arrow,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// End of input marker.
    Eof,
}

impl TokenKind {
    /// Human readable description used in error messages.
    pub(crate) fn describe(&self) -> String {
        match self {
            TokenKind::Composition => "`composition`".to_string(),
            TokenKind::All => "`all`".to_string(),
            TokenKind::Each => "`each`".to_string(),
            TokenKind::Key => "`key`".to_string(),
            TokenKind::Optional => "`optional`".to_string(),
            TokenKind::Identifier(name) => format!("identifier `{name}`"),
            TokenKind::LeftParen => "`(`".to_string(),
            TokenKind::RightParen => "`)`".to_string(),
            TokenKind::LeftBrace => "`{`".to_string(),
            TokenKind::RightBrace => "`}`".to_string(),
            TokenKind::Equals => "`=`".to_string(),
            TokenKind::Arrow => "`=>`".to_string(),
            TokenKind::Comma => "`,`".to_string(),
            TokenKind::Semicolon => "`;`".to_string(),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

/// A token with its source location (1-based line and column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Line where the token starts.
    pub line: usize,
    /// Column where the token starts.
    pub column: usize,
}

fn is_identifier_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_identifier_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.'
}

/// Tokenizes DSL source text.
///
/// `//` and `#` introduce comments that run to end of line. Whitespace is
/// insignificant. The returned vector always ends with an [`TokenKind::Eof`]
/// token carrying the final position.
pub(crate) fn lex(source: &str) -> Result<Vec<Token>, DandelionError> {
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut column = 1usize;
    let mut chars = source.chars().peekable();

    macro_rules! push {
        ($kind:expr, $start_col:expr) => {
            tokens.push(Token {
                kind: $kind,
                line,
                column: $start_col,
            })
        };
    }

    while let Some(&c) = chars.peek() {
        let start_col = column;
        match c {
            '\n' => {
                chars.next();
                line += 1;
                column = 1;
            }
            c if c.is_whitespace() => {
                chars.next();
                column += 1;
            }
            '/' | '#' => {
                // Comments: `//` or `#` to end of line. A single `/` is an error.
                chars.next();
                column += 1;
                if c == '/' {
                    match chars.peek() {
                        Some('/') => {}
                        _ => {
                            return Err(DandelionError::Parse {
                                line,
                                column: start_col,
                                message: "unexpected `/` (did you mean `//` comment?)".to_string(),
                            })
                        }
                    }
                }
                for consumed in chars.by_ref() {
                    if consumed == '\n' {
                        line += 1;
                        column = 1;
                        break;
                    }
                }
            }
            '(' => {
                chars.next();
                column += 1;
                push!(TokenKind::LeftParen, start_col);
            }
            ')' => {
                chars.next();
                column += 1;
                push!(TokenKind::RightParen, start_col);
            }
            '{' => {
                chars.next();
                column += 1;
                push!(TokenKind::LeftBrace, start_col);
            }
            '}' => {
                chars.next();
                column += 1;
                push!(TokenKind::RightBrace, start_col);
            }
            ',' => {
                chars.next();
                column += 1;
                push!(TokenKind::Comma, start_col);
            }
            ';' => {
                chars.next();
                column += 1;
                push!(TokenKind::Semicolon, start_col);
            }
            '=' => {
                chars.next();
                column += 1;
                if chars.peek() == Some(&'>') {
                    chars.next();
                    column += 1;
                    push!(TokenKind::Arrow, start_col);
                } else {
                    push!(TokenKind::Equals, start_col);
                }
            }
            c if is_identifier_start(c) => {
                let mut word = String::new();
                while let Some(&next) = chars.peek() {
                    if is_identifier_continue(next) {
                        word.push(next);
                        chars.next();
                        column += 1;
                    } else {
                        break;
                    }
                }
                let kind = match word.as_str() {
                    "composition" => TokenKind::Composition,
                    "all" => TokenKind::All,
                    "each" => TokenKind::Each,
                    "key" => TokenKind::Key,
                    "optional" => TokenKind::Optional,
                    _ => TokenKind::Identifier(word),
                };
                push!(kind, start_col);
            }
            other => {
                return Err(DandelionError::Parse {
                    line,
                    column: start_col,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
        column,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(source: &str) -> Vec<TokenKind> {
        lex(source).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_and_punctuation() {
        let tokens = kinds("composition F(A) => B { X(a = all A) => (B = Out); }");
        assert_eq!(tokens[0], TokenKind::Composition);
        assert!(tokens.contains(&TokenKind::Arrow));
        assert!(tokens.contains(&TokenKind::All));
        assert!(tokens.contains(&TokenKind::Semicolon));
        assert_eq!(*tokens.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn distinguishes_equals_from_arrow() {
        assert_eq!(
            kinds("= =>"),
            vec![TokenKind::Equals, TokenKind::Arrow, TokenKind::Eof]
        );
    }

    #[test]
    fn identifiers_allow_dots_dashes_underscores() {
        let tokens = kinds("my_func-v2.0");
        assert_eq!(tokens[0], TokenKind::Identifier("my_func-v2.0".to_string()));
    }

    #[test]
    fn comments_are_skipped() {
        let tokens = kinds("// a comment line\nA # trailing\nB");
        assert_eq!(
            tokens,
            vec![
                TokenKind::Identifier("A".into()),
                TokenKind::Identifier("B".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn tracks_line_and_column() {
        let tokens = lex("A\n  B").unwrap();
        assert_eq!((tokens[0].line, tokens[0].column), (1, 1));
        assert_eq!((tokens[1].line, tokens[1].column), (2, 3));
    }

    #[test]
    fn rejects_unexpected_characters() {
        let err = lex("A @ B").unwrap_err();
        match err {
            DandelionError::Parse { column, .. } => assert_eq!(column, 3),
            other => panic!("expected parse error, got {other}"),
        }
        assert!(lex("A / B").is_err());
    }

    #[test]
    fn keyword_prefixed_identifiers_are_identifiers() {
        let tokens = kinds("allocate each_one keyring");
        assert_eq!(
            tokens,
            vec![
                TokenKind::Identifier("allocate".into()),
                TokenKind::Identifier("each_one".into()),
                TokenKind::Identifier("keyring".into()),
                TokenKind::Eof
            ]
        );
    }
}
