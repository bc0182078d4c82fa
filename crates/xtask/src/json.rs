//! A small JSON reader for cargo's message stream and the baseline (the
//! workspace has no JSON dependency).

type Res<T> = Result<T, String>;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Total accessors: a missing member, or a value of another type, reads as
/// `null`, `""`, no number or no items.
impl Json {
    pub fn at(&self, key: &str) -> &Json {
        let Json::Obj(members) = self else {
            return &Json::Null;
        };
        members
            .iter()
            .find(|(k, _)| k == key)
            .map_or(&Json::Null, |(_, v)| v)
    }

    pub fn text(&self) -> &str {
        let Json::Str(s) = self else { return "" };
        s
    }

    pub fn num(&self) -> Option<f64> {
        let Json::Num(n) = self else { return None };
        Some(*n)
    }

    pub fn items(&self) -> &[Json] {
        let Json::Arr(items) = self else { return &[] };
        items
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Res<Json> {
    let c = text.chars().collect();
    let mut p = Parser { c, at: 0 };
    let v = p.value()?;
    match p.next() {
        None => Ok(v),
        Some(_) => Err(format!("trailing characters at {}", p.at)),
    }
}

struct Parser {
    c: Vec<char>,
    at: usize,
}

impl Parser {
    /// Skip whitespace, then take the next character.
    fn next(&mut self) -> Option<char> {
        while self.c.get(self.at).is_some_and(|x| x.is_whitespace()) {
            self.at += 1;
        }
        self.at += 1;
        self.c.get(self.at - 1).copied()
    }

    fn value(&mut self) -> Res<Json> {
        Ok(match self.next() {
            Some('"') => Json::Str(self.string()?),
            Some('[') => Json::Arr(self.seq(']', Self::value)?),
            Some('{') => Json::Obj(self.seq('}', |p| {
                let key = if p.next() == Some('"') {
                    p.string()?
                } else {
                    String::new()
                };
                match p.next() {
                    Some(':') => Ok((key, p.value()?)),
                    _ => Err(format!("expected `\"key\":` before {}", p.at)),
                }
            })?),
            _ => {
                let start = self.at - 1;
                let len = self.c[start..]
                    .iter()
                    .take_while(|x| x.is_alphanumeric() || "+-.".contains(**x))
                    .count();
                self.at = start + len;
                match self.c[start..self.at].iter().collect::<String>().as_str() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().map_err(|_| format!("bad value at {start}"))?),
                }
            }
        })
    }

    /// The items of an array or object, after its opener, through `close`.
    fn seq<T>(&mut self, close: char, item: fn(&mut Self) -> Res<T>) -> Res<Vec<T>> {
        let mut items = Vec::new();
        let at = self.at;
        if self.next() == Some(close) {
            return Ok(items);
        }
        self.at = at;
        loop {
            items.push(item(self)?);
            match self.next() {
                Some(',') => {}
                Some(c) if c == close => return Ok(items),
                _ => return Err(format!("expected `,` or `{close}` before {}", self.at)),
            }
        }
    }

    /// The rest of a string, after its opening quote.
    fn string(&mut self) -> Res<String> {
        let mut s = String::new();
        loop {
            let take = |p: &mut Self| {
                p.at += 1;
                p.c.get(p.at - 1).copied().ok_or("unterminated string")
            };
            s.push(match take(self)? {
                '"' => return Ok(s),
                '\\' => match take(self)? {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    'u' => {
                        let hex: String = self.c.iter().skip(self.at).take(4).collect();
                        self.at += 4;
                        let code = u32::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
                        char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
                    }
                    other => other,
                },
                other => other,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_rejects() {
        let doc = parse(r#" {"a": [1, -2.5e1, true, null, {}], "b": {"c": "x\"\\\né"}, "d": []} "#)
            .unwrap();
        let a = format!("{:?}", doc.at("a"));
        assert_eq!(a, "Arr([Num(1.0), Num(-25.0), Bool(true), Null, Obj([])])");
        assert_eq!(doc.at("b").at("c").text(), "x\"\\\né");
        assert_eq!(
            (doc.at("d"), doc.at("zz")),
            (&Json::Arr(vec![]), &Json::Null)
        );
        let truncated = ["", "{", "[1,", "\"abc", "nul", "[1] x"];
        for bad in truncated
            .into_iter()
            .chain(["{\"a\" 1}", "{\"a\": 1,}", "[1 2]"])
        {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
