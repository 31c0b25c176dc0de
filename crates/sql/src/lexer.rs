//! SQL tokenizer.

use bao_common::{BaoError, Result};

/// Lexical tokens. Keywords are recognized case-insensitively and carried
/// as upper-cased `Keyword`s; everything else identifier-shaped is `Ident`.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    Keyword(String),
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    /// Comparison operators: `=`, `<`, `<=`, `>`, `>=`, `<>` (or `!=`).
    Op(String),
    Comma,
    Dot,
    LParen,
    RParen,
    Star,
    Semicolon,
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "GROUP", "ORDER", "BY", "LIMIT", "AS", "COUNT", "SUM", "MIN",
    "MAX", "AVG", "ASC", "DESC", "BETWEEN", "EXPLAIN",
];

/// Tokenize SQL text.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '.' => {
                out.push(Token::Dot);
                i += 1;
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            ';' => {
                out.push(Token::Semicolon);
                i += 1;
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= chars.len() {
                        return Err(BaoError::Parse("unterminated string literal".into()));
                    }
                    if chars[i] == '\'' {
                        // '' escapes a quote inside the literal
                        if i + 1 < chars.len() && chars[i + 1] == '\'' {
                            s.push('\'');
                            i += 2;
                            continue;
                        }
                        i += 1;
                        break;
                    }
                    s.push(chars[i]);
                    i += 1;
                }
                out.push(Token::Str(s));
            }
            '=' => {
                out.push(Token::Op("=".into()));
                i += 1;
            }
            '<' | '>' | '!' => {
                let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
                if two == "<=" || two == ">=" || two == "<>" || two == "!=" {
                    let norm = if two == "!=" { "<>".to_string() } else { two };
                    out.push(Token::Op(norm));
                    i += 2;
                } else if c == '!' {
                    return Err(BaoError::Parse("unexpected '!'".into()));
                } else {
                    out.push(Token::Op(c.to_string()));
                    i += 1;
                }
            }
            c if c.is_ascii_digit() || (c == '-' && starts_number(&chars, i)) => {
                let start = i;
                if c == '-' {
                    i += 1;
                }
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                if text.contains('.') {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| BaoError::Parse(format!("bad float literal {text}")))?;
                    out.push(Token::Float(v));
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| BaoError::Parse(format!("bad int literal {text}")))?;
                    out.push(Token::Int(v));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                let upper = word.to_ascii_uppercase();
                if KEYWORDS.contains(&upper.as_str()) {
                    out.push(Token::Keyword(upper));
                } else {
                    out.push(Token::Ident(word));
                }
            }
            other => {
                return Err(BaoError::Parse(format!("unexpected character '{other}'")));
            }
        }
    }
    Ok(out)
}

/// Is the `-` at position `i` the start of a negative number literal
/// (rather than an operator we do not support)?
fn starts_number(chars: &[char], i: usize) -> bool {
    chars.get(i + 1).is_some_and(|c| c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select() {
        let toks = tokenize("SELECT * FROM t;").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT".into()),
                Token::Star,
                Token::Keyword("FROM".into()),
                Token::Ident("t".into()),
                Token::Semicolon,
            ]
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        let toks = tokenize("select Count from T").unwrap();
        assert_eq!(toks[0], Token::Keyword("SELECT".into()));
        assert_eq!(toks[1], Token::Keyword("COUNT".into()));
        assert_eq!(toks[3], Token::Ident("T".into()));
    }

    #[test]
    fn operators() {
        let toks = tokenize("a <= 5 AND b <> 3 AND c != 2 AND d >= -4").unwrap();
        let ops: Vec<&Token> = toks.iter().filter(|t| matches!(t, Token::Op(_))).collect();
        assert_eq!(
            ops,
            vec![
                &Token::Op("<=".into()),
                &Token::Op("<>".into()),
                &Token::Op("<>".into()),
                &Token::Op(">=".into()),
            ]
        );
        assert!(toks.contains(&Token::Int(-4)));
    }

    #[test]
    fn string_literals_with_escape() {
        let toks = tokenize("x = 'don''t'").unwrap();
        assert_eq!(toks[2], Token::Str("don't".into()));
        assert!(tokenize("x = 'oops").is_err());
    }

    #[test]
    fn numeric_literals() {
        let toks = tokenize("1 2.5 -3 -4.25").unwrap();
        assert_eq!(
            toks,
            vec![Token::Int(1), Token::Float(2.5), Token::Int(-3), Token::Float(-4.25)]
        );
        assert!(tokenize("1.2.3").is_err());
    }

    #[test]
    fn qualified_names() {
        let toks = tokenize("t.col").unwrap();
        assert_eq!(toks, vec![Token::Ident("t".into()), Token::Dot, Token::Ident("col".into())]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("a @ b").is_err());
        assert!(tokenize("a ! b").is_err());
    }
}
