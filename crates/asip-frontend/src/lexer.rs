//! Hand-written lexer for mini-C.

use crate::error::{FrontendError, Pos};
use crate::token::{Keyword, Punct, Token, TokenKind};

/// The mini-C tokenizer, run on demand by the parser: it reads the
/// source in place and allocates only the text of identifier tokens.
/// Supports `//` line comments and `/* ... */` block comments.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next character.
    i: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<char> {
        self.src[self.i..].chars().next()
    }

    fn peek2(&self) -> Option<char> {
        self.src[self.i..].chars().nth(1)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.i += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// The next token; at the end of the source, [`TokenKind::Eof`] on
    /// every call.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::Lex`] on an unknown character, a
    /// malformed numeric literal or an unterminated block comment.
    pub fn next_token(&mut self) -> Result<Token, FrontendError> {
        self.skip_trivia()?;
        let pos = self.pos();
        let kind = match self.peek() {
            None => TokenKind::Eof,
            Some(c) if c.is_ascii_alphabetic() || c == '_' => self.ident(),
            Some(c) if c.is_ascii_digit() => self.number(pos)?,
            Some(_) => self.punct(pos)?,
        };
        Ok(Token { kind, pos })
    }

    fn skip_trivia(&mut self) -> Result<(), FrontendError> {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') if self.peek2() == Some('/') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                Some('/') if self.peek2() == Some('*') => {
                    let start = self.pos();
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some('*'), Some('/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (None, _) => {
                                return Err(FrontendError::lex(start, "unterminated block comment"))
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn ident(&mut self) -> TokenKind {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
            self.bump();
        }
        let s = &self.src[start..self.i];
        match Keyword::from_str(s) {
            Some(k) => TokenKind::Keyword(k),
            None => TokenKind::Ident(s.to_string()),
        }
    }

    fn number(&mut self, pos: Pos) -> Result<TokenKind, FrontendError> {
        let start = self.i;
        let mut is_float = false;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if self.peek() == Some('.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            // exponent requires at least one digit, optionally signed
            let save = (self.i, self.line, self.col);
            self.bump();
            if matches!(self.peek(), Some('+' | '-')) {
                self.bump();
            }
            if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                is_float = true;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            } else {
                // not an exponent after all (e.g. `2e` followed by ident)
                self.i = save.0;
                self.line = save.1;
                self.col = save.2;
            }
        }
        let text = &self.src[start..self.i];
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::FloatLit)
                .map_err(|_| FrontendError::lex(pos, format!("malformed float literal `{text}`")))
        } else {
            text.parse::<i64>()
                .map(TokenKind::IntLit)
                .map_err(|_| FrontendError::lex(pos, format!("malformed int literal `{text}`")))
        }
    }

    fn punct(&mut self, pos: Pos) -> Result<TokenKind, FrontendError> {
        use Punct::*;
        let c = self.bump().expect("peeked");
        let two = |l: &mut Self, p: Punct| {
            l.bump();
            Ok(TokenKind::Punct(p))
        };
        match c {
            '+' if self.peek() == Some('=') => two(self, PlusAssign),
            '+' => Ok(TokenKind::Punct(Plus)),
            '-' if self.peek() == Some('=') => two(self, MinusAssign),
            '-' => Ok(TokenKind::Punct(Minus)),
            '*' if self.peek() == Some('=') => two(self, StarAssign),
            '*' => Ok(TokenKind::Punct(Star)),
            '/' if self.peek() == Some('=') => two(self, SlashAssign),
            '/' => Ok(TokenKind::Punct(Slash)),
            '%' => Ok(TokenKind::Punct(Percent)),
            '^' => Ok(TokenKind::Punct(Caret)),
            '&' if self.peek() == Some('&') => two(self, AmpAmp),
            '&' => Ok(TokenKind::Punct(Amp)),
            '|' if self.peek() == Some('|') => two(self, PipePipe),
            '|' => Ok(TokenKind::Punct(Pipe)),
            '!' if self.peek() == Some('=') => two(self, Ne),
            '!' => Ok(TokenKind::Punct(Bang)),
            '<' if self.peek() == Some('<') => two(self, Shl),
            '<' if self.peek() == Some('=') => two(self, Le),
            '<' => Ok(TokenKind::Punct(Lt)),
            '>' if self.peek() == Some('>') => two(self, Shr),
            '>' if self.peek() == Some('=') => two(self, Ge),
            '>' => Ok(TokenKind::Punct(Gt)),
            '=' if self.peek() == Some('=') => two(self, EqEq),
            '=' => Ok(TokenKind::Punct(Assign)),
            '(' => Ok(TokenKind::Punct(LParen)),
            ')' => Ok(TokenKind::Punct(RParen)),
            '[' => Ok(TokenKind::Punct(LBracket)),
            ']' => Ok(TokenKind::Punct(RBracket)),
            '{' => Ok(TokenKind::Punct(LBrace)),
            '}' => Ok(TokenKind::Punct(RBrace)),
            ',' => Ok(TokenKind::Punct(Comma)),
            ';' => Ok(TokenKind::Punct(Semi)),
            other => Err(FrontendError::lex(
                pos,
                format!("unexpected character `{other}`"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(source: &str) -> Result<Vec<Token>, FrontendError> {
        let mut lexer = Lexer::new(source);
        let mut out = Vec::new();
        loop {
            let token = lexer.next_token()?;
            let eof = token.kind == TokenKind::Eof;
            out.push(token);
            if eof {
                return Ok(out);
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src)
            .expect("lexes")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_declaration() {
        let ks = kinds("input float x[100];");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Keyword::Input),
                TokenKind::Keyword(Keyword::Float),
                TokenKind::Ident("x".into()),
                TokenKind::Punct(Punct::LBracket),
                TokenKind::IntLit(100),
                TokenKind::Punct(Punct::RBracket),
                TokenKind::Punct(Punct::Semi),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_operators_maximal_munch() {
        let ks = kinds("<= < << >= > >> == = != ! && & || |");
        use Punct::*;
        let want = [
            Le, Lt, Shl, Ge, Gt, Shr, EqEq, Assign, Ne, Bang, AmpAmp, Amp, PipePipe, Pipe,
        ];
        for (k, w) in ks.iter().zip(want) {
            assert_eq!(*k, TokenKind::Punct(w));
        }
    }

    #[test]
    fn lexes_compound_assignment_operators() {
        let ks = kinds("+= -= *= /= + = / /");
        use Punct::*;
        let want = [
            PlusAssign,
            MinusAssign,
            StarAssign,
            SlashAssign,
            Plus,
            Assign,
            Slash,
            Slash,
        ];
        for (k, w) in ks.iter().zip(want) {
            assert_eq!(*k, TokenKind::Punct(w));
        }
        // `/=` must not be confused with a comment start
        let ks = kinds("a /= 2 // comment");
        assert_eq!(ks[1], TokenKind::Punct(Punct::SlashAssign));
        assert_eq!(ks.len(), 4, "comment still skipped");
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("42")[0], TokenKind::IntLit(42));
        assert_eq!(kinds("3.5")[0], TokenKind::FloatLit(3.5));
        assert_eq!(kinds("1e3")[0], TokenKind::FloatLit(1000.0));
        assert_eq!(kinds("2.5e-1")[0], TokenKind::FloatLit(0.25));
        // `e` not followed by digits is an identifier, not an exponent
        let ks = kinds("2 effects");
        assert_eq!(ks[0], TokenKind::IntLit(2));
        assert_eq!(ks[1], TokenKind::Ident("effects".into()));
    }

    #[test]
    fn skips_comments() {
        let ks = kinds("1 // comment\n 2 /* block\n comment */ 3");
        assert_eq!(
            ks,
            vec![
                TokenKind::IntLit(1),
                TokenKind::IntLit(2),
                TokenKind::IntLit(3),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn tracks_positions() {
        let toks = lex("a\n  b").expect("lexes");
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn rejects_unknown_chars_and_unterminated_comments() {
        assert!(lex("$").is_err());
        assert!(lex("/* never closed").is_err());
    }
}
