//! Recursive-descent parser for the composition DSL.

use dandelion_common::{DandelionError, DandelionResult};

use crate::ast::{CompositionAst, Distribution, InputBinding, OutputBinding, Statement};
use crate::lexer::{lex, Token, TokenKind};

struct Parser {
    tokens: Vec<Token>,
    position: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Self {
            tokens,
            position: 0,
        }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.position.min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let token = self.peek().clone();
        if self.position < self.tokens.len() - 1 {
            self.position += 1;
        }
        token
    }

    fn error(&self, message: impl Into<String>) -> DandelionError {
        let token = self.peek();
        DandelionError::Parse {
            line: token.line,
            column: token.column,
            message: message.into(),
        }
    }

    fn expect(&mut self, expected: TokenKind) -> DandelionResult<Token> {
        if self.peek().kind == expected {
            Ok(self.advance())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                expected.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    fn expect_identifier(&mut self, what: &str) -> DandelionResult<String> {
        match self.peek().kind.clone() {
            TokenKind::Identifier(name) => {
                self.advance();
                Ok(name)
            }
            other => Err(self.error(format!("expected {what}, found {}", other.describe()))),
        }
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    fn parse_name_list(&mut self, what: &str) -> DandelionResult<Vec<String>> {
        let mut names = vec![self.expect_identifier(what)?];
        while self.peek().kind == TokenKind::Comma {
            self.advance();
            names.push(self.expect_identifier(what)?);
        }
        Ok(names)
    }

    fn parse_composition(&mut self) -> DandelionResult<CompositionAst> {
        self.expect(TokenKind::Composition)?;
        let name = self.expect_identifier("composition name")?;
        self.expect(TokenKind::LeftParen)?;
        let inputs = if self.peek().kind == TokenKind::RightParen {
            Vec::new()
        } else {
            self.parse_name_list("input name")?
        };
        self.expect(TokenKind::RightParen)?;
        self.expect(TokenKind::Arrow)?;
        let outputs = self.parse_name_list("output name")?;
        self.expect(TokenKind::LeftBrace)?;
        let mut statements = Vec::new();
        while self.peek().kind != TokenKind::RightBrace {
            if self.at_eof() {
                return Err(self.error("unexpected end of input inside composition body"));
            }
            statements.push(self.parse_statement()?);
        }
        self.expect(TokenKind::RightBrace)?;
        Ok(CompositionAst {
            name,
            inputs,
            outputs,
            statements,
        })
    }

    fn parse_statement(&mut self) -> DandelionResult<Statement> {
        let line = self.peek().line;
        let vertex = self.expect_identifier("function or composition name")?;
        self.expect(TokenKind::LeftParen)?;
        let mut inputs = Vec::new();
        if self.peek().kind != TokenKind::RightParen {
            inputs.push(self.parse_input_binding()?);
            while self.peek().kind == TokenKind::Comma {
                self.advance();
                inputs.push(self.parse_input_binding()?);
            }
        }
        self.expect(TokenKind::RightParen)?;
        self.expect(TokenKind::Arrow)?;
        self.expect(TokenKind::LeftParen)?;
        let mut outputs = vec![self.parse_output_binding()?];
        while self.peek().kind == TokenKind::Comma {
            self.advance();
            outputs.push(self.parse_output_binding()?);
        }
        self.expect(TokenKind::RightParen)?;
        self.expect(TokenKind::Semicolon)?;
        Ok(Statement {
            vertex,
            inputs,
            outputs,
            line,
        })
    }

    fn parse_input_binding(&mut self) -> DandelionResult<InputBinding> {
        let set = self.expect_identifier("input set name")?;
        self.expect(TokenKind::Equals)?;
        let optional = if self.peek().kind == TokenKind::Optional {
            self.advance();
            true
        } else {
            false
        };
        let distribution = match self.peek().kind {
            TokenKind::All => {
                self.advance();
                Distribution::All
            }
            TokenKind::Each => {
                self.advance();
                Distribution::Each
            }
            TokenKind::Key => {
                self.advance();
                Distribution::Key
            }
            _ => {
                return Err(self.error(format!(
                    "expected distribution keyword `all`, `each` or `key`, found {}",
                    self.peek().kind.describe()
                )))
            }
        };
        let source = self.expect_identifier("source data name")?;
        Ok(InputBinding {
            set,
            source,
            distribution,
            optional,
        })
    }

    fn parse_output_binding(&mut self) -> DandelionResult<OutputBinding> {
        let published = self.expect_identifier("published output name")?;
        self.expect(TokenKind::Equals)?;
        let set = self.expect_identifier("output set name")?;
        Ok(OutputBinding { published, set })
    }
}

/// Parses a single composition from DSL text.
///
/// Trailing input after the composition is rejected.
pub(crate) fn parse_composition(source: &str) -> DandelionResult<CompositionAst> {
    let mut parser = Parser::new(lex(source)?);
    let composition = parser.parse_composition()?;
    if !parser.at_eof() {
        return Err(parser.error("unexpected tokens after composition"));
    }
    Ok(composition)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
        composition RenderLogs(AccessToken) => HTMLOutput {
            Access(AccessToken = all AccessToken) => (AuthRequest = HTTPRequest);
            HTTP(Request = each AuthRequest) => (AuthResponse = Response);
            FanOut(HTTPResponse = all AuthResponse) => (LogRequests = HTTPRequests);
            HTTP(Request = each LogRequests) => (LogResponses = Response);
            Render(HTTPResponses = all LogResponses) => (HTMLOutput = HTMLOutput);
        }
    "#;

    #[test]
    fn parses_the_paper_listing() {
        let ast = parse_composition(EXAMPLE).unwrap();
        assert_eq!(ast.name, "RenderLogs");
        assert_eq!(ast.inputs, vec!["AccessToken"]);
        assert_eq!(ast.outputs, vec!["HTMLOutput"]);
        assert_eq!(ast.statements.len(), 5);
        let fanout = &ast.statements[2];
        assert_eq!(fanout.vertex, "FanOut");
        assert_eq!(fanout.inputs[0].distribution, Distribution::All);
        assert_eq!(fanout.inputs[0].source, "AuthResponse");
        assert_eq!(fanout.outputs[0].published, "LogRequests");
        assert_eq!(fanout.outputs[0].set, "HTTPRequests");
    }

    #[test]
    fn parses_multiple_inputs_outputs_and_optional() {
        let source = r#"
            composition Join(Left, Right) => Out, Errors {
                Merge(L = all Left, R = key Right, Err = optional all Errors0) => (Out = Data, Errors = Problems);
            }
        "#;
        let ast = parse_composition(source).unwrap();
        assert_eq!(ast.inputs.len(), 2);
        assert_eq!(ast.outputs, vec!["Out", "Errors"]);
        let statement = &ast.statements[0];
        assert_eq!(statement.inputs.len(), 3);
        assert_eq!(statement.inputs[1].distribution, Distribution::Key);
        assert!(statement.inputs[2].optional);
        assert_eq!(statement.outputs.len(), 2);
    }

    #[test]
    fn parses_zero_input_composition() {
        let source = "composition Gen() => Data { Produce() => (Data = Numbers); }";
        let ast = parse_composition(source).unwrap();
        assert!(ast.inputs.is_empty());
        assert!(ast.statements[0].inputs.is_empty());
    }

    #[test]
    fn round_trips_via_to_dsl() {
        let ast = parse_composition(EXAMPLE).unwrap();
        let reparsed = parse_composition(&ast.to_dsl()).unwrap();
        // Source line numbers differ between the original text and the
        // pretty-printed form; everything else must round-trip exactly.
        assert_eq!(ast.to_dsl(), reparsed.to_dsl());
        assert_eq!(ast.name, reparsed.name);
        assert_eq!(ast.inputs, reparsed.inputs);
        assert_eq!(ast.outputs, reparsed.outputs);
        assert_eq!(ast.statements.len(), reparsed.statements.len());
    }

    #[test]
    fn parse_errors_carry_positions() {
        let err =
            parse_composition("composition X(A) => B { F(a = all A) => (B = Out) }").unwrap_err();
        match err {
            DandelionError::Parse { message, .. } => {
                assert!(message.contains("expected `;`"), "got {message}")
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_missing_distribution_keyword() {
        let err =
            parse_composition("composition X(A) => B { F(a = A) => (B = Out); }").unwrap_err();
        assert!(err.to_string().contains("distribution keyword"));
    }

    #[test]
    fn rejects_trailing_tokens() {
        let err = parse_composition("composition X(A) => B { F(a = all A) => (B = Out); } garbage")
            .unwrap_err();
        assert!(err.to_string().contains("unexpected tokens"));
    }
}
