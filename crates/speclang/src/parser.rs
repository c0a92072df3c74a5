//! Recursive-descent parser.

use crate::ast::{ActionDecl, ConnectDecl, File, FlowDecl, InstanceDecl, ModelDecl, Term, UseDecl};
use crate::error::ParseError;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Parses a specification source into its AST.
///
/// # Errors
///
/// Returns [`ParseError`] with the position of the first syntax error.
pub fn parse_file(source: &str) -> Result<File<'_>, ParseError> {
    let tokens = lex(source)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut models = Vec::new();
    let mut instances = Vec::new();
    while !p.at(&TokenKind::Eof) {
        if p.at(&TokenKind::KwModel) {
            models.push(p.model()?);
        } else {
            instances.push(p.instance()?);
        }
    }
    Ok(File { models, instances })
}

/// Tokens are `Copy` (names borrow the source), so taking one copies a
/// kind and a span and allocates nothing.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.pos]
    }

    fn at(&self, kind: &TokenKind<'_>) -> bool {
        &self.peek().kind == kind
    }

    fn bump(&mut self) -> Token<'a> {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<Token<'a>, ParseError> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            let found = self.peek();
            Err(ParseError::new(
                found.span,
                format!("expected {kind}, found {}", found.kind),
            ))
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.peek().kind {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(ParseError::new(
                self.peek().span,
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn model(&mut self) -> Result<ModelDecl<'a>, ParseError> {
        let kw = self.expect(TokenKind::KwModel)?;
        let name = self.ident()?;
        self.expect(TokenKind::KwStakeholder)?;
        let stakeholder = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut actions = Vec::new();
        let mut flows = Vec::new();
        loop {
            match &self.peek().kind {
                TokenKind::RBrace => {
                    self.bump();
                    break;
                }
                TokenKind::KwAction => actions.push(self.action_decl()?),
                TokenKind::KwFlow | TokenKind::KwPolicy => flows.push(self.flow_decl()?),
                other => {
                    return Err(ParseError::new(
                        self.peek().span,
                        format!("expected `action`, `flow`, `policy` or `}}`, found {other}"),
                    ))
                }
            }
        }
        Ok(ModelDecl {
            name,
            stakeholder,
            actions,
            flows,
            span: kw.span,
        })
    }

    fn instance(&mut self) -> Result<InstanceDecl<'a>, ParseError> {
        let kw = self.expect(TokenKind::KwInstance)?;
        let name = match self.peek().kind {
            TokenKind::Str(s) => {
                self.bump();
                s
            }
            other => {
                return Err(ParseError::new(
                    self.peek().span,
                    format!("expected instance name string, found {other}"),
                ))
            }
        };
        self.expect(TokenKind::LBrace)?;
        let mut actions = Vec::new();
        let mut flows = Vec::new();
        let mut uses = Vec::new();
        let mut connects = Vec::new();
        loop {
            match &self.peek().kind {
                TokenKind::RBrace => {
                    self.bump();
                    break;
                }
                TokenKind::KwAction => actions.push(self.action_decl()?),
                TokenKind::KwFlow => flows.push(self.flow_decl()?),
                TokenKind::KwConnect => connects.push(self.connect_decl(false)?),
                TokenKind::KwUse => uses.push(self.use_decl()?),
                TokenKind::KwPolicy => {
                    let span = self.bump().span;
                    match &self.peek().kind {
                        TokenKind::KwFlow => {
                            let mut f = self.flow_decl()?;
                            f.policy = true;
                            f.span = span;
                            flows.push(f);
                        }
                        TokenKind::KwConnect => {
                            let mut cd = self.connect_decl(true)?;
                            cd.span = span;
                            connects.push(cd);
                        }
                        other => {
                            return Err(ParseError::new(
                                self.peek().span,
                                format!("expected `flow` or `connect` after `policy`, found {other}"),
                            ))
                        }
                    }
                }
                other => {
                    return Err(ParseError::new(
                        self.peek().span,
                        format!(
                            "expected `action`, `flow`, `use`, `connect`, `policy` or `}}`, found {other}"
                        ),
                    ))
                }
            }
        }
        Ok(InstanceDecl {
            name,
            actions,
            flows,
            uses,
            connects,
            span: kw.span,
        })
    }

    fn use_decl(&mut self) -> Result<UseDecl<'a>, ParseError> {
        let kw = self.expect(TokenKind::KwUse)?;
        let model = self.ident()?;
        self.expect(TokenKind::KwAs)?;
        let alias = self.ident()?;
        let index = if self.at(&TokenKind::KwIndex) {
            self.bump();
            self.ident()?
        } else {
            ""
        };
        self.expect(TokenKind::Semi)?;
        Ok(UseDecl {
            model,
            alias,
            index,
            span: kw.span,
        })
    }

    fn connect_decl(&mut self, policy: bool) -> Result<ConnectDecl<'a>, ParseError> {
        let kw = self.expect(TokenKind::KwConnect)?;
        let from_alias = self.ident()?;
        self.expect(TokenKind::Dot)?;
        let from_action = self.ident()?;
        self.expect(TokenKind::Arrow)?;
        let to_alias = self.ident()?;
        self.expect(TokenKind::Dot)?;
        let to_action = self.ident()?;
        self.expect(TokenKind::Semi)?;
        Ok(ConnectDecl {
            from_alias,
            from_action,
            to_alias,
            to_action,
            policy,
            span: kw.span,
        })
    }

    fn action_decl(&mut self) -> Result<ActionDecl<'a>, ParseError> {
        let kw = self.expect(TokenKind::KwAction)?;
        let id = self.ident()?;
        self.expect(TokenKind::Eq)?;
        let term = self.term()?;
        let mut owner = None;
        let mut stakeholder = None;
        loop {
            match &self.peek().kind {
                TokenKind::KwOwner => {
                    self.bump();
                    owner = Some(self.ident()?);
                }
                TokenKind::KwStakeholder => {
                    self.bump();
                    stakeholder = Some(self.ident()?);
                }
                _ => break,
            }
        }
        self.expect(TokenKind::Semi)?;
        Ok(ActionDecl {
            id,
            term,
            owner,
            stakeholder,
            span: kw.span,
        })
    }

    fn flow_decl(&mut self) -> Result<FlowDecl<'a>, ParseError> {
        let policy = if self.at(&TokenKind::KwPolicy) {
            self.bump();
            true
        } else {
            false
        };
        let kw = self.expect(TokenKind::KwFlow)?;
        let from = self.ident()?;
        self.expect(TokenKind::Arrow)?;
        let to = self.ident()?;
        self.expect(TokenKind::Semi)?;
        Ok(FlowDecl {
            from,
            to,
            policy,
            span: kw.span,
        })
    }

    fn term(&mut self) -> Result<Term<'a>, ParseError> {
        let head = self.ident()?;
        let mut args = Vec::new();
        if self.at(&TokenKind::LParen) {
            self.bump();
            if !self.at(&TokenKind::RParen) {
                args.push(self.term()?);
                while self.at(&TokenKind::Comma) {
                    self.bump();
                    args.push(self.term()?);
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        Ok(Term { head, args })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG3: &str = r#"
    // Fig. 3 of the paper.
    instance "fig3" {
        action sense_1 = sense(ESP_1, sW) owner V1 stakeholder D_1;
        action send_1 = send(CU_1, cam(pos)) owner V1 stakeholder D_1;
        action rec_w = rec(CU_w, cam(pos)) owner Vw stakeholder D_w;
        action show_w = show(HMI_w, warn) owner Vw stakeholder D_w;
        flow sense_1 -> send_1;
        flow send_1 -> rec_w;
        flow rec_w -> show_w;
        policy flow sense_1 -> show_w;
    }
    "#;

    #[test]
    fn parses_fig3() {
        let file = parse_file(FIG3).unwrap();
        assert_eq!(file.instances.len(), 1);
        let inst = &file.instances[0];
        assert_eq!(inst.name, "fig3");
        assert_eq!(inst.actions.len(), 4);
        assert_eq!(inst.flows.len(), 4);
        assert_eq!(inst.actions[1].term.to_string(), "send(CU_1,cam(pos))");
        assert_eq!(inst.actions[0].owner, Some("V1"));
        assert_eq!(inst.actions[0].stakeholder, Some("D_1"));
        assert!(inst.flows[3].policy);
        assert!(!inst.flows[0].policy);
    }

    #[test]
    fn multiple_instances() {
        let src = r#"instance "a" { } instance "b" { }"#;
        let file = parse_file(src).unwrap();
        assert_eq!(file.instances.len(), 2);
    }

    #[test]
    fn action_without_owner_or_stakeholder() {
        let src = r#"instance "a" { action x = tick; }"#;
        let file = parse_file(src).unwrap();
        let a = &file.instances[0].actions[0];
        assert_eq!(a.owner, None);
        assert_eq!(a.stakeholder, None);
        assert_eq!(a.term.to_string(), "tick");
    }

    #[test]
    fn error_on_missing_semi() {
        let src = r#"instance "a" { action x = tick }"#;
        let err = parse_file(src).unwrap_err();
        assert!(err.message.contains("expected `;`"), "{err}");
    }

    #[test]
    fn error_on_bad_item() {
        let src = r#"instance "a" { owner x; }"#;
        let err = parse_file(src).unwrap_err();
        assert!(err.message.contains("expected `action`"), "{err}");
    }

    #[test]
    fn error_on_missing_instance_name() {
        let err = parse_file("instance { }").unwrap_err();
        assert!(err.message.contains("instance name"), "{err}");
    }

    #[test]
    fn error_position_reported() {
        let src = "instance \"a\" {\n  action = x;\n}";
        let err = parse_file(src).unwrap_err();
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn parses_model_use_connect() {
        let src = r#"
        model V stakeholder D_i {
            action send = send(CU_i, cam(pos));
            action rec = rec(CU_i, cam(pos));
        }
        instance "composed" {
            use V as v1 index 1;
            use V as vw index w;
            connect v1.send -> vw.rec;
            policy connect vw.send -> v1.rec;
        }
        "#;
        let file = parse_file(src).unwrap();
        assert_eq!(file.models.len(), 1);
        let m = &file.models[0];
        assert_eq!(m.name, "V");
        assert_eq!(m.stakeholder, "D_i");
        assert_eq!(m.actions.len(), 2);
        let inst = &file.instances[0];
        assert_eq!(inst.uses.len(), 2);
        assert_eq!(inst.uses[0].alias, "v1");
        assert_eq!(inst.uses[0].index, "1");
        assert_eq!(inst.connects.len(), 2);
        assert!(!inst.connects[0].policy);
        assert!(inst.connects[1].policy);
        assert_eq!(inst.connects[0].from_action, "send");
    }

    #[test]
    fn use_without_index() {
        let src = r#"
        model RSU stakeholder Operator { action send = send(cam(pos)); }
        instance "r" { use RSU as rsu; }
        "#;
        let file = parse_file(src).unwrap();
        assert_eq!(file.instances[0].uses[0].index, "");
    }

    #[test]
    fn policy_must_prefix_flow_or_connect() {
        let src = r#"instance "x" { policy action a = t; }"#;
        let err = parse_file(src).unwrap_err();
        assert!(err.message.contains("after `policy`"), "{err}");
    }

    #[test]
    fn nested_term_args() {
        let src = r#"instance "a" { action x = f(g(h(i)), j); }"#;
        let file = parse_file(src).unwrap();
        assert_eq!(
            file.instances[0].actions[0].term.to_string(),
            "f(g(h(i)),j)"
        );
    }

    #[test]
    fn empty_parens() {
        let src = r#"instance "a" { action x = f(); }"#;
        let file = parse_file(src).unwrap();
        assert_eq!(file.instances[0].actions[0].term.args.len(), 0);
    }
}
