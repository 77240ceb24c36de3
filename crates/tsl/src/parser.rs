//! Recursive-descent parser for TSL scripts.

use crate::ast::*;
use crate::error::TslError;
use crate::lexer::{tokenize, Token, TokenKind};

/// Parse a TSL script into its AST.
pub fn parse_script(src: &str) -> Result<TslScript, TslError> {
    let tokens = tokenize(src)?;
    Parser { tokens, at: 0 }.script()
}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.at]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.at].clone();
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, TslError> {
        let t = self.peek();
        Err(TslError::Parse {
            line: t.line,
            col: t.col,
            msg: msg.into(),
        })
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, TslError> {
        if self.peek().kind == kind {
            Ok(self.next())
        } else {
            self.err(format!("expected {kind}, found {}", self.peek().kind))
        }
    }

    fn ident(&mut self) -> Result<String, TslError> {
        match &self.peek().kind {
            TokenKind::Ident(_) => match self.next().kind {
                TokenKind::Ident(s) => Ok(s),
                _ => unreachable!(),
            },
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn at_ident(&self, word: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == word)
    }

    fn script(&mut self) -> Result<TslScript, TslError> {
        let mut script = TslScript::default();
        loop {
            let mut attributes = Vec::new();
            while self.peek().kind == TokenKind::LBracket {
                attributes.push(self.attribute()?);
            }
            match &self.peek().kind {
                TokenKind::Eof => {
                    if !attributes.is_empty() {
                        return self.err("attributes must precede a declaration");
                    }
                    return Ok(script);
                }
                TokenKind::Ident(word) => match word.as_str() {
                    "cell" => {
                        self.next();
                        if !self.at_ident("struct") {
                            return self.err("expected `struct` after `cell`");
                        }
                        self.next();
                        script.structs.push(self.struct_body(true, attributes)?);
                    }
                    "struct" => {
                        self.next();
                        script.structs.push(self.struct_body(false, attributes)?);
                    }
                    "protocol" => {
                        if !attributes.is_empty() {
                            return self.err("protocols do not take attributes");
                        }
                        self.next();
                        script.protocols.push(self.protocol_body()?);
                    }
                    other => return self.err(format!("expected a declaration, found `{other}`")),
                },
                other => return self.err(format!("expected a declaration, found {other}")),
            }
        }
    }

    /// `[Key: Value, Key: Value, ...]`
    fn attribute(&mut self) -> Result<Attribute, TslError> {
        self.expect(TokenKind::LBracket)?;
        let mut entries = Vec::new();
        loop {
            let key = self.ident()?;
            self.expect(TokenKind::Colon)?;
            let value = self.ident()?;
            entries.push((key, value));
            match self.peek().kind {
                TokenKind::Comma => {
                    self.next();
                }
                TokenKind::RBracket => break,
                _ => return self.err("expected `,` or `]` in attribute"),
            }
        }
        self.expect(TokenKind::RBracket)?;
        Ok(Attribute { entries })
    }

    fn struct_body(
        &mut self,
        is_cell: bool,
        attributes: Vec<Attribute>,
    ) -> Result<StructDef, TslError> {
        let name = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while self.peek().kind != TokenKind::RBrace {
            let mut field_attrs = Vec::new();
            while self.peek().kind == TokenKind::LBracket {
                field_attrs.push(self.attribute()?);
            }
            let ty = self.type_ref()?;
            let fname = self.ident()?;
            self.expect(TokenKind::Semicolon)?;
            fields.push(FieldDef {
                name: fname,
                ty,
                attributes: field_attrs,
            });
        }
        self.expect(TokenKind::RBrace)?;
        Ok(StructDef {
            name,
            is_cell,
            attributes,
            fields,
        })
    }

    fn type_ref(&mut self) -> Result<TypeRef, TslError> {
        let name = self.ident()?;
        Ok(match name.as_str() {
            "byte" => TypeRef::Byte,
            "bool" => TypeRef::Bool,
            "int" => TypeRef::Int,
            "long" => TypeRef::Long,
            "float" => TypeRef::Float,
            "double" => TypeRef::Double,
            "string" => TypeRef::String,
            "BitArray" => TypeRef::BitArray,
            "List" => {
                self.expect(TokenKind::LAngle)?;
                let inner = self.type_ref()?;
                self.expect(TokenKind::RAngle)?;
                TypeRef::List(Box::new(inner))
            }
            "Array" => {
                self.expect(TokenKind::LAngle)?;
                let inner = self.type_ref()?;
                self.expect(TokenKind::Comma)?;
                let len = match self.next().kind {
                    TokenKind::Int(n) if n >= 1 => n as usize,
                    other => {
                        return self.err(format!(
                            "Array length must be a positive integer, found {other}"
                        ))
                    }
                };
                self.expect(TokenKind::RAngle)?;
                TypeRef::Array(Box::new(inner), len)
            }
            _ => TypeRef::Struct(name),
        })
    }

    /// `protocol Name { Type: Syn; Request: M; Response: M; }`
    fn protocol_body(&mut self) -> Result<ProtocolDef, TslError> {
        let name = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut kind = None;
        let mut request = None;
        let mut response = None;
        while self.peek().kind != TokenKind::RBrace {
            let key = self.ident()?;
            self.expect(TokenKind::Colon)?;
            let value = self.ident()?;
            self.expect(TokenKind::Semicolon)?;
            match key.as_str() {
                "Type" => {
                    kind = Some(match value.as_str() {
                        "Syn" => ProtocolKind::Syn,
                        "Asyn" => ProtocolKind::Asyn,
                        other => {
                            return self.err(format!(
                                "protocol Type must be Syn or Asyn, found `{other}`"
                            ))
                        }
                    })
                }
                "Request" => request = Some(value),
                "Response" => response = Some(value),
                other => return self.err(format!("unknown protocol clause `{other}`")),
            }
        }
        self.expect(TokenKind::RBrace)?;
        let kind =
            kind.ok_or_else(|| TslError::Validate(format!("protocol {name} is missing `Type`")))?;
        let request = request
            .ok_or_else(|| TslError::Validate(format!("protocol {name} is missing `Request`")))?;
        if kind == ProtocolKind::Syn && response.is_none() {
            return Err(TslError::Validate(format!(
                "synchronous protocol {name} needs a `Response`"
            )));
        }
        Ok(ProtocolDef {
            name,
            kind,
            request,
            response,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 4 script, verbatim (modulo whitespace).
    const MOVIE_ACTOR: &str = r#"
        [CellType: NodeCell]
        cell struct Movie
        {
            string Name;
            [EdgeType: SimpleEdge, ReferencedCell: Actor]
            List<long> Actors;
        }
        [CellType: NodeCell]
        cell struct Actor
        {
            string Name;
            [EdgeType: SimpleEdge, ReferencedCell: Movie]
            List<long> Movies;
        }
    "#;

    /// The paper's Figure 5 script.
    const ECHO: &str = r#"
        struct MyMessage
        {
            string Text;
        }
        protocol Echo
        {
            Type: Syn;
            Request: MyMessage;
            Response: MyMessage;
        }
    "#;

    #[test]
    fn parses_paper_figure_4() {
        let s = parse_script(MOVIE_ACTOR).unwrap();
        assert_eq!(s.structs.len(), 2);
        let movie = &s.structs[0];
        assert_eq!(movie.name, "Movie");
        assert!(movie.is_cell);
        assert_eq!(movie.cell_kind(), Some(CellKind::Node));
        assert_eq!(movie.fields.len(), 2);
        assert_eq!(movie.fields[0].ty, TypeRef::String);
        assert_eq!(movie.fields[1].ty, TypeRef::List(Box::new(TypeRef::Long)));
        assert_eq!(movie.fields[1].edge_kind(), Some(EdgeKind::Simple));
        assert_eq!(movie.fields[1].referenced_cell(), Some("Actor"));
        // §4.1's rich edges: a node lists StructEdge ids, each naming an
        // `EdgeCell` that carries the edge's data.
        let s = parse_script(
            "[CellType: NodeCell] cell struct Person { string Name; \
             [EdgeType: StructEdge, ReferencedCell: Knows] List<long> Links; } \
             [CellType: EdgeCell] cell struct Knows { long Src; long Dst; double Weight; }",
        )
        .unwrap();
        let (person, knows) = (&s.structs[0], &s.structs[1]);
        assert_eq!(person.fields[1].edge_kind(), Some(EdgeKind::Struct));
        assert_eq!(person.fields[1].referenced_cell(), Some("Knows"));
        assert_eq!(knows.cell_kind(), Some(CellKind::Edge));
    }

    #[test]
    fn parses_paper_figure_5() {
        let s = parse_script(ECHO).unwrap();
        assert_eq!(s.structs.len(), 1);
        assert!(!s.structs[0].is_cell);
        assert_eq!(s.protocols.len(), 1);
        let p = &s.protocols[0];
        assert_eq!(p.name, "Echo");
        assert_eq!(p.kind, ProtocolKind::Syn);
        assert_eq!(p.request, "MyMessage");
        assert_eq!(p.response.as_deref(), Some("MyMessage"));
    }

    #[test]
    fn parses_figure_6_mycell() {
        let s = parse_script("cell struct MyCell { int Id; List<long> Links; }").unwrap();
        assert_eq!(s.structs[0].name, "MyCell");
        assert_eq!(s.structs[0].fields[0].ty, TypeRef::Int);
    }

    #[test]
    fn parses_nested_containers_and_structs() {
        let s = parse_script(
            "struct Inner { double Weight; } cell struct Outer { List<List<int>> Grid; Inner Inner; BitArray Flags; }",
        )
        .unwrap();
        let outer = &s.structs[1];
        assert_eq!(
            outer.fields[0].ty,
            TypeRef::List(Box::new(TypeRef::List(Box::new(TypeRef::Int))))
        );
        assert_eq!(outer.fields[1].ty, TypeRef::Struct("Inner".into()));
        assert_eq!(outer.fields[2].ty, TypeRef::BitArray);
    }

    #[test]
    fn asyn_protocol_without_response() {
        let s = parse_script("struct M { int X; } protocol Notify { Type: Asyn; Request: M; }")
            .unwrap();
        assert_eq!(s.protocols[0].kind, ProtocolKind::Asyn);
        assert_eq!(s.protocols[0].response, None);
    }

    #[test]
    fn rejects_malformed_scripts() {
        assert!(
            parse_script("cell Movie {}").is_err(),
            "missing struct keyword"
        );
        assert!(
            parse_script("struct A { int }").is_err(),
            "missing field name"
        );
        assert!(
            parse_script("struct A { int x; } protocol P { Type: Maybe; Request: A; }").is_err()
        );
        assert!(
            parse_script("protocol P { Request: A; }").is_err(),
            "missing Type"
        );
        assert!(
            parse_script("struct A { int x; } protocol P { Type: Syn; Request: A; }").is_err(),
            "syn needs response"
        );
        assert!(parse_script("[Dangling: Attr]").is_err());
        assert!(
            parse_script("struct A { List<int x; }").is_err(),
            "unclosed generic"
        );
    }
}
