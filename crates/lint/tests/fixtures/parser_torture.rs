// Parser torture fixture: every construct the hand-rolled item parser
// must cross without degrading or false-positiving. Analyzed with the
// FULL catalog; the expectation is ZERO diagnostics. Never compiled.
pub struct Wrapper<T>
where
    T: Clone,
{
    items: Vec<T>,
    tag: char,
}

pub trait Summable {
    fn total(&self) -> u64 {
        0
    }
}

impl<T> Wrapper<T>
where
    T: Clone,
{
    pub fn push_twice(&mut self, item: T) {
        self.items.push(item.clone());
        self.items.push(item);
        self.tag = 'x';
    }
}

impl<T: Clone> Extend<T> for Wrapper<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.items.push(item);
        }
    }
}

pub mod outer {
    pub mod inner {
        pub fn depth(values: &[f64]) -> Vec<&f64> {
            values.iter().filter(|v| **v > 0.5).collect::<Vec<&f64>>()
        }
    }
}

macro_rules! twice {
    ($e:expr) => {
        ($e, $e)
    };
}

// Item-position macro calls, every delimiter, inside an impl too: each
// is one opaque item and what follows still parses.
twice! { "x.unwrap() in a call is still string data" }
std::thread_local!(static DEPTH: u8 = 0);

impl<T: Clone> Wrapper<T> {
    twice![1];

    pub fn tag(&self) -> char {
        self.tag
    }
}

pub enum Shape<'a> {
    Dot,
    Line { from: &'a str, to: &'a str },
    Poly(Vec<(f64, f64)>),
}

pub fn describe(s: &Shape<'_>) -> &'static str {
    match s {
        Shape::Dot => "these look dangerous but are string data: \
                       x.unwrap() panic! Instant::now()",
        Shape::Line { .. } => r"raw \ strings mask too: y.expect() rand()",
        Shape::Poly(_) => "poly",
    }
}

pub fn lifetimes<'a>(a: &'a str, _b: &str) -> &'a str {
    let pair = twice!(a.len());
    if pair.0 == pair.1 {
        a
    } else {
        "const"
    }
}
