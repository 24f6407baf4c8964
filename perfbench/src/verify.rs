//! Answer checking, done after the timed phase: every answered pair
//! against the in-process oracle of the generation that served it, and a
//! seeded sample of pairs against exact Dijkstra distances.

use std::collections::HashMap;

use cc_graph::Graph;
use cc_oracle::DistanceOracle;

use crate::loadgen::{digest, Reply, Sample};
use crate::rng::Rng;
use crate::workload::{Kind, Request};

/// Wire value of an unreachable pair in a binary response frame.
const UNREACHABLE: u64 = u64::MAX;

/// The oracle's answers for `pairs`, with unreachable as [`UNREACHABLE`].
pub fn expected(oracle: &DistanceOracle, pairs: &[(u32, u32)]) -> Vec<u64> {
    pairs
        .iter()
        .map(|&(u, v)| {
            oracle
                .try_query(u as usize, v as usize)
                .ok()
                .and_then(|d| d.value())
                .unwrap_or(UNREACHABLE)
        })
        .collect()
}

/// The `CCBR` response frame for `values`.
pub fn response_frame(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 * values.len());
    out.extend_from_slice(b"CCBR");
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn parse_value(token: &str) -> Option<u64> {
    match token.trim() {
        "null" => Some(UNREACHABLE),
        t => t.parse().ok(),
    }
}

/// The distances a JSON answer carries: `"distance"` of a `/distance`
/// answer, `"distances"` of a text `/batch` answer.
pub fn parse_answers(kind: Kind, body: &[u8]) -> Option<Vec<u64>> {
    let text = std::str::from_utf8(body).ok()?;
    match kind {
        Kind::Get => {
            let at = text.find("\"distance\":")? + "\"distance\":".len();
            let end = text[at..].find([',', '}'])? + at;
            Some(vec![parse_value(&text[at..end])?])
        }
        Kind::Text => {
            let at = text.find("\"distances\":[")? + "\"distances\":[".len();
            let end = text[at..].find(']')? + at;
            let list = &text[at..end];
            if list.trim().is_empty() {
                return Some(Vec::new());
            }
            list.split(',').map(parse_value).collect()
        }
        Kind::Binary => None,
    }
}

/// Checks replies against one or more generations' oracles; an answer is
/// right when it equals every pair's answer under one of them (a request
/// is served whole by one generation). Expected answers are computed once
/// per distinct request.
pub struct Checker<'a> {
    requests: &'a [Request],
    oracles: Vec<&'a DistanceOracle>,
    memo: HashMap<(usize, usize), (Vec<u64>, u64)>,
}

impl<'a> Checker<'a> {
    pub fn new(requests: &'a [Request], oracles: Vec<&'a DistanceOracle>) -> Checker<'a> {
        Checker { requests, oracles, memo: HashMap::new() }
    }

    fn expect(&mut self, generation: usize, req: usize) -> &(Vec<u64>, u64) {
        let (requests, oracles) = (self.requests, &self.oracles);
        self.memo.entry((generation, req)).or_insert_with(|| {
            let values = expected(oracles[generation], &requests[req].pairs);
            let frame_digest = digest(&response_frame(&values));
            (values, frame_digest)
        })
    }

    /// True when `reply` is a 2xx whose answers match one generation.
    pub fn check(&mut self, req: usize, reply: &Reply) -> bool {
        if !reply.ok() {
            return false;
        }
        let kind = self.requests[req].kind;
        let got = match kind {
            Kind::Binary => None,
            _ => match parse_answers(kind, &reply.body) {
                Some(values) => Some(values),
                None => return false,
            },
        };
        (0..self.oracles.len()).any(|g| {
            let (values, frame_digest) = self.expect(g, req);
            match &got {
                Some(got) => got == values,
                None => reply.digest == *frame_digest,
            }
        })
    }

    /// Checks every sample of a phase whose operations map to requests
    /// through `req_of`; returns how many failed.
    pub fn check_all(&mut self, samples: &[Sample], req_of: impl Fn(usize) -> usize) -> usize {
        samples.iter().filter(|s| !self.check(req_of(s.op), &s.reply)).count()
    }
}

/// Outcome of the exact-distance sample.
#[derive(Debug, Default)]
pub struct ExactCheck {
    pub pairs: usize,
    /// Answers below the true distance: never allowed.
    pub unsound: usize,
    /// Answers above `stretch_bound` times the true distance.
    pub over_stretch: usize,
    /// Largest answer / true distance seen.
    pub worst_ratio: f64,
}

/// Checks `samples` seeded pairs drawn from `requests` against
/// `cc_graph::reference::dijkstra` on `graph`: each answer must be at
/// least the true distance and at most `stretch_bound` times it.
pub fn exact_sample(
    graph: &Graph,
    oracle: &DistanceOracle,
    requests: &[Request],
    seed: u64,
    samples: usize,
) -> ExactCheck {
    let mut rng = Rng::new(seed, 77);
    let bound = oracle.stretch_bound();
    let mut out = ExactCheck { worst_ratio: 1.0, ..ExactCheck::default() };
    for _ in 0..samples {
        let req = &requests[rng.below(requests.len() as u64) as usize];
        let (u, v) = req.pairs[rng.below(req.pairs.len() as u64) as usize];
        let truth = cc_graph::reference::dijkstra(graph, u as usize)[v as usize];
        let got = expected(oracle, &[(u, v)])[0];
        out.pairs += 1;
        match truth {
            None => out.unsound += usize::from(got != UNREACHABLE),
            Some(0) => out.unsound += usize::from(got != 0),
            Some(d) => {
                let ratio = got as f64 / d as f64;
                out.worst_ratio = out.worst_ratio.max(ratio);
                out.unsound += usize::from(got < d);
                out.over_stretch += usize::from(ratio > bound);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_answers_parse() {
        let get = br#"{"u":1,"v":2,"distance":17,"connected":true}"#;
        assert_eq!(parse_answers(Kind::Get, get), Some(vec![17]));
        let null = br#"{"u":1,"v":2,"distance":null,"connected":false}"#;
        assert_eq!(parse_answers(Kind::Get, null), Some(vec![UNREACHABLE]));
        let text = br#"{"count":3,"distances":[1,null,30]}"#;
        assert_eq!(parse_answers(Kind::Text, text), Some(vec![1, UNREACHABLE, 30]));
        assert_eq!(parse_answers(Kind::Text, b"{\"error\":\"x\"}"), None);
    }
}
