//! Replayable counterexample traces.
//!
//! When the explorer finds a violation, the path that reached it — the
//! chosen event sequence numbers plus the full choice-tap script — is
//! enough to re-execute the violation **deterministically on the
//! production runtime**: sequence numbers are assigned in dispatch
//! order, so replaying the same choices from the same initial network
//! reproduces the same sequence numbers, the same deliveries and the
//! same quorum arithmetic, with no model-checker machinery in the loop.
//! That is what makes the JSON files under `tests/corpus/` regression
//! tests rather than logs: `tests/tests/mc_regressions.rs` replays them
//! against the real [`bne_net::EventNet`] every CI run (see
//! [`crate::scenario::replay_trace`]).

use crate::explorer::Choice;
use bne_net::EnabledKind;
use bne_sim::json::Json;

/// A serialized schedule-space counterexample (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterexampleTrace {
    /// Which [`crate::scenario`] registry entry rebuilds the network.
    pub scenario: String,
    /// The scenario's parameters, in canonical order.
    pub params: Vec<(String, u64)>,
    /// The full choice-tap script (coins and lies, in draw order).
    pub script: Vec<u64>,
    /// The schedule: one [`Choice`] per transition, in order.
    pub choices: Vec<Choice>,
    /// Name of the violated property.
    pub property: String,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl CounterexampleTrace {
    /// Number of replayed transitions (events + crashes) — the trace
    /// length the acceptance bound "counterexample ≤ 30 events" talks
    /// about.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether the trace has no transitions at all (a violation at the
    /// initial state; does not occur for well-formed scenarios).
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Serializes to the corpus JSON layout.
    pub fn to_json(&self) -> String {
        let choices: Vec<Json> = self
            .choices
            .iter()
            .map(|c| match c {
                Choice::Event { seq, kind } => {
                    let mut fields = vec![("seq".to_string(), Json::U64(*seq))];
                    match kind {
                        EnabledKind::Deliver { src, dst } => {
                            fields.push(("kind".to_string(), Json::Str("deliver".into())));
                            fields.push(("src".to_string(), Json::U64(*src as u64)));
                            fields.push(("dst".to_string(), Json::U64(*dst as u64)));
                        }
                        EnabledKind::Timer { proc, timer } => {
                            fields.push(("kind".to_string(), Json::Str("timer".into())));
                            fields.push(("proc".to_string(), Json::U64(*proc as u64)));
                            fields.push(("timer".to_string(), Json::U64(*timer)));
                        }
                        EnabledKind::Crash { proc } => {
                            fields.push(("kind".to_string(), Json::Str("planned-crash".into())));
                            fields.push(("proc".to_string(), Json::U64(*proc as u64)));
                        }
                        EnabledKind::Recover { proc } => {
                            fields.push(("kind".to_string(), Json::Str("recover".into())));
                            fields.push(("proc".to_string(), Json::U64(*proc as u64)));
                        }
                    }
                    Json::Obj(fields)
                }
                Choice::Crash { proc } => Json::Obj(vec![
                    ("kind".to_string(), Json::Str("crash".into())),
                    ("proc".to_string(), Json::U64(*proc as u64)),
                ]),
            })
            .collect();
        Json::Obj(vec![
            ("scenario".to_string(), Json::Str(self.scenario.clone())),
            (
                "params".to_string(),
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "script".to_string(),
                Json::Arr(self.script.iter().map(|&v| Json::U64(v)).collect()),
            ),
            ("choices".to_string(), Json::Arr(choices)),
            ("property".to_string(), Json::Str(self.property.clone())),
            ("detail".to_string(), Json::Str(self.detail.clone())),
        ])
        .to_string()
    }

    /// Parses a corpus JSON document.
    pub fn from_json(text: &str) -> Result<CounterexampleTrace, String> {
        let doc = Json::parse(text)?;
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let params = match doc.get("params") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("param {k:?} is not an integer"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing object field \"params\"".to_string()),
        };
        let script = doc
            .get("script")
            .and_then(Json::as_arr)
            .ok_or("missing array field \"script\"")?
            .iter()
            .map(|v| v.as_u64().ok_or("non-integer script entry".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let choices = doc
            .get("choices")
            .and_then(Json::as_arr)
            .ok_or("missing array field \"choices\"")?
            .iter()
            .map(parse_choice)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CounterexampleTrace {
            scenario: str_field("scenario")?,
            params,
            script,
            choices,
            property: str_field("property")?,
            detail: str_field("detail")?,
        })
    }
}

fn parse_choice(c: &Json) -> Result<Choice, String> {
    let kind = c
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("choice without \"kind\"")?;
    let num = |key: &str| -> Result<u64, String> {
        c.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("choice missing integer field {key:?}"))
    };
    let kind = match kind {
        "deliver" => EnabledKind::Deliver {
            src: num("src")? as usize,
            dst: num("dst")? as usize,
        },
        "timer" => EnabledKind::Timer {
            proc: num("proc")? as usize,
            timer: num("timer")?,
        },
        "planned-crash" => EnabledKind::Crash {
            proc: num("proc")? as usize,
        },
        "recover" => EnabledKind::Recover {
            proc: num("proc")? as usize,
        },
        "crash" => {
            return Ok(Choice::Crash {
                proc: num("proc")? as usize,
            })
        }
        other => return Err(format!("unknown choice kind {other:?}")),
    };
    Ok(Choice::Event {
        seq: num("seq")?,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_round_trips_through_json() {
        let trace = CounterexampleTrace {
            scenario: "bracha".to_string(),
            params: vec![("n".to_string(), 4), ("t".to_string(), 1)],
            script: vec![3, 0, 3],
            choices: vec![
                Choice::Event {
                    seq: 2,
                    kind: EnabledKind::Deliver { src: 0, dst: 3 },
                },
                Choice::Crash { proc: 1 },
                Choice::Event {
                    seq: 9,
                    kind: EnabledKind::Timer { proc: 2, timer: 0 },
                },
            ],
            property: "validity".to_string(),
            detail: "process 1 decided 0, outside the valid set {1}".to_string(),
        };
        let text = trace.to_json();
        assert_eq!(CounterexampleTrace::from_json(&text).unwrap(), trace);
    }
}
