//! The JSONL wire protocol: newline-delimited JSON both ways.
//!
//! # Requests (client → server), one object per line
//!
//! ```text
//! {"type":"sweep","id":"r1","nets":["alexnet"],"configs":["edge"],"optimizers":["adam"]}
//! {"type":"ping"}
//! {"type":"shutdown"}
//! ```
//!
//! `type` defaults to `"sweep"` when omitted. A sweep names presets from
//! [`crate::registry`]; the grid is the full cross product
//! `nets × configs × optimizers`, expanded in that nesting order.
//!
//! # Response frames (server → client), one object per line
//!
//! * `accepted` — the whole sweep was admitted; `cells` results follow.
//! * `cell` — one result; `record` is exactly
//!   `SimResult::to_record()` (tab-separated, shortest-roundtrip float
//!   text), so a client can byte-compare it against a local
//!   `CambriconQ::simulate` of the same cell.
//! * `cell_error` — the cell panicked; `error` carries the panic
//!   message, and its siblings still complete.
//! * `done` — terminates a sweep's frame stream; carries `sim.*` and
//!   `serve.*` counters.
//! * `rejected` — backpressure: nothing was admitted (all-or-nothing),
//!   retry the whole request after `retry_after_ms`.
//! * `error` — the request never became a sweep (parse/validation
//!   failure, or a grid that can never fit the queue).
//! * `pong` / `shutting_down` — ping reply and shutdown acknowledgement.

use cq_obs::json::{self, Json};
use cq_obs::json_escape;

use crate::registry;

/// One (network, config, optimizer) grid point, by registry keyword.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Network keyword (see [`registry::NETS`]).
    pub net: String,
    /// Config keyword (see [`registry::CONFIGS`]).
    pub config: String,
    /// Optimizer keyword (see [`registry::OPTIMIZERS`]).
    pub optimizer: String,
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.net, self.config, self.optimizer)
    }
}

/// A validated sweep request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// Client-chosen correlation id, echoed on every frame.
    pub id: String,
    /// Network keywords (validated, non-empty).
    pub nets: Vec<String>,
    /// Config keywords (validated, non-empty).
    pub configs: Vec<String>,
    /// Optimizer keywords (validated, non-empty).
    pub optimizers: Vec<String>,
}

impl SweepRequest {
    /// The full grid, nets-outermost: `nets × configs × optimizers`.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out =
            Vec::with_capacity(self.nets.len() * self.configs.len() * self.optimizers.len());
        for net in &self.nets {
            for config in &self.configs {
                for optimizer in &self.optimizers {
                    out.push(Cell {
                        net: net.clone(),
                        config: config.clone(),
                        optimizer: optimizer.clone(),
                    });
                }
            }
        }
        out
    }

    /// The request's wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let list = |names: &[String]| {
            let quoted: Vec<String> = names
                .iter()
                .map(|n| format!("\"{}\"", json_escape(n)))
                .collect();
            quoted.join(",")
        };
        format!(
            "{{\"type\":\"sweep\",\"id\":\"{}\",\"nets\":[{}],\"configs\":[{}],\"optimizers\":[{}]}}",
            json_escape(&self.id),
            list(&self.nets),
            list(&self.configs),
            list(&self.optimizers),
        )
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Ask the daemon to drain and exit.
    Shutdown,
    /// A simulation sweep.
    Sweep(SweepRequest),
}

fn string_list(doc: &Json, key: &str, legal: &[&str]) -> Result<Vec<String>, String> {
    let arr = doc
        .get(key)
        .ok_or_else(|| format!("sweep request is missing {key:?}"))?
        .as_arr()
        .ok_or_else(|| format!("{key:?} must be an array of strings"))?;
    if arr.is_empty() {
        return Err(format!("{key:?} must name at least one preset"));
    }
    let mut out = Vec::with_capacity(arr.len());
    for v in arr {
        let s = v
            .as_str()
            .ok_or_else(|| format!("{key:?} must be an array of strings"))?;
        if !legal.contains(&s) {
            return Err(format!(
                "unknown {key} preset {s:?} (expected one of {legal:?})"
            ));
        }
        out.push(s.to_string());
    }
    Ok(out)
}

/// Parses and validates one request line. Every preset name is checked
/// against the registry here, before any queueing, so an invalid grid
/// costs the server nothing but the parse.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = json::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
    let kind = match doc.get("type") {
        None => "sweep",
        Some(t) => t.as_str().ok_or("\"type\" must be a string")?,
    };
    match kind {
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "sweep" => {
            let id = doc
                .get("id")
                .and_then(Json::as_str)
                .ok_or("sweep request needs a string \"id\"")?
                .to_string();
            Ok(Request::Sweep(SweepRequest {
                id,
                nets: string_list(&doc, "nets", &registry::NETS)?,
                configs: string_list(&doc, "configs", &registry::CONFIGS)?,
                optimizers: string_list(&doc, "optimizers", &registry::OPTIMIZERS)?,
            }))
        }
        other => Err(format!("unknown request type {other:?}")),
    }
}

/// A server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// The sweep was admitted; `cells` results follow, then `done`.
    Accepted {
        /// Echoed request id.
        id: String,
        /// Number of grid cells admitted.
        cells: usize,
    },
    /// One finished cell.
    Cell {
        /// Echoed request id.
        id: String,
        /// The grid point.
        cell: Cell,
        /// `SimResult::to_record()`, byte-exact.
        record: String,
    },
    /// One cell whose simulation panicked.
    CellError {
        /// Echoed request id.
        id: String,
        /// The grid point.
        cell: Cell,
        /// Failure description.
        error: String,
    },
    /// Sweep complete (follows the last cell/cell_error frame).
    Done {
        /// Echoed request id.
        id: String,
        /// Cells admitted.
        cells: usize,
        /// Cells that ended in `cell_error`.
        errors: usize,
        /// `sim.*`/`serve.*` counters at completion time.
        counters: Vec<(String, u64)>,
    },
    /// Backpressure: nothing was admitted; retry the whole request.
    Rejected {
        /// Echoed request id.
        id: String,
        /// Human-readable reason.
        reason: String,
        /// Client should wait this long before retrying.
        retry_after_ms: u64,
    },
    /// The request could not become a sweep at all.
    Error {
        /// What was wrong with it.
        error: String,
    },
    /// Ping reply.
    Pong,
    /// Shutdown acknowledgement; the connection closes after this.
    ShuttingDown,
}

fn cell_fields(id: &str, cell: &Cell) -> String {
    format!(
        "\"id\":\"{}\",\"net\":\"{}\",\"config\":\"{}\",\"optimizer\":\"{}\"",
        json_escape(id),
        json_escape(&cell.net),
        json_escape(&cell.config),
        json_escape(&cell.optimizer),
    )
}

impl Frame {
    /// The frame's wire line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Frame::Accepted { id, cells } => format!(
                "{{\"frame\":\"accepted\",\"id\":\"{}\",\"cells\":{cells}}}",
                json_escape(id)
            ),
            Frame::Cell { id, cell, record } => format!(
                "{{\"frame\":\"cell\",{},\"record\":\"{}\"}}",
                cell_fields(id, cell),
                json_escape(record)
            ),
            Frame::CellError { id, cell, error } => format!(
                "{{\"frame\":\"cell_error\",{},\"error\":\"{}\"}}",
                cell_fields(id, cell),
                json_escape(error)
            ),
            Frame::Done {
                id,
                cells,
                errors,
                counters,
            } => {
                let body: Vec<String> = counters
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
                    .collect();
                format!(
                    "{{\"frame\":\"done\",\"id\":\"{}\",\"cells\":{cells},\"errors\":{errors},\"counters\":{{{}}}}}",
                    json_escape(id),
                    body.join(",")
                )
            }
            Frame::Rejected {
                id,
                reason,
                retry_after_ms,
            } => format!(
                "{{\"frame\":\"rejected\",\"id\":\"{}\",\"reason\":\"{}\",\"retry_after_ms\":{retry_after_ms}}}",
                json_escape(id),
                json_escape(reason)
            ),
            Frame::Error { error } => {
                format!("{{\"frame\":\"error\",\"error\":\"{}\"}}", json_escape(error))
            }
            Frame::Pong => "{\"frame\":\"pong\"}".to_string(),
            Frame::ShuttingDown => "{\"frame\":\"shutting_down\"}".to_string(),
        }
    }

    /// Parses one frame line (the client half of the protocol).
    pub fn parse(line: &str) -> Result<Frame, String> {
        let doc = json::parse(line).map_err(|e| format!("bad frame JSON: {e}"))?;
        let kind = doc
            .get("frame")
            .and_then(Json::as_str)
            .ok_or("frame object needs a string \"frame\"")?;
        let id = || -> Result<String, String> {
            Ok(doc
                .get("id")
                .and_then(Json::as_str)
                .ok_or("frame needs a string \"id\"")?
                .to_string())
        };
        let cell = || -> Result<Cell, String> {
            let field = |k: &str| -> Result<String, String> {
                Ok(doc
                    .get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("cell frame needs a string {k:?}"))?
                    .to_string())
            };
            Ok(Cell {
                net: field("net")?,
                config: field("config")?,
                optimizer: field("optimizer")?,
            })
        };
        let count = |k: &str| -> Result<usize, String> {
            doc.get(k)
                .and_then(Json::as_f64)
                .map(|v| v as usize)
                .ok_or_else(|| format!("frame needs a numeric {k:?}"))
        };
        match kind {
            "accepted" => Ok(Frame::Accepted {
                id: id()?,
                cells: count("cells")?,
            }),
            "cell" => Ok(Frame::Cell {
                id: id()?,
                cell: cell()?,
                record: doc
                    .get("record")
                    .and_then(Json::as_str)
                    .ok_or("cell frame needs a string \"record\"")?
                    .to_string(),
            }),
            "cell_error" => Ok(Frame::CellError {
                id: id()?,
                cell: cell()?,
                error: doc
                    .get("error")
                    .and_then(Json::as_str)
                    .ok_or("cell_error frame needs a string \"error\"")?
                    .to_string(),
            }),
            "done" => {
                let counters = doc
                    .get("counters")
                    .and_then(Json::as_obj)
                    .ok_or("done frame needs a \"counters\" object")?
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n as u64)))
                    .collect();
                Ok(Frame::Done {
                    id: id()?,
                    cells: count("cells")?,
                    errors: count("errors")?,
                    counters,
                })
            }
            "rejected" => Ok(Frame::Rejected {
                id: id()?,
                reason: doc
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                retry_after_ms: count("retry_after_ms")? as u64,
            }),
            "error" => Ok(Frame::Error {
                error: doc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
            "pong" => Ok(Frame::Pong),
            "shutting_down" => Ok(Frame::ShuttingDown),
            other => Err(format!("unknown frame kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> SweepRequest {
        SweepRequest {
            id: "req-1".into(),
            nets: vec!["alexnet".into(), "lstm".into()],
            configs: vec!["edge".into()],
            optimizers: vec!["sgd".into(), "adam".into()],
        }
    }

    #[test]
    fn sweep_round_trips_through_the_wire_format() {
        let req = sweep();
        match parse_request(&req.encode()).unwrap() {
            Request::Sweep(parsed) => assert_eq!(parsed, req),
            other => panic!("expected sweep, got {other:?}"),
        }
    }

    #[test]
    fn grid_expansion_is_the_full_cross_product_in_order() {
        let cells = sweep().cells();
        let names: Vec<String> = cells.iter().map(Cell::to_string).collect();
        assert_eq!(
            names,
            [
                "alexnet/edge/sgd",
                "alexnet/edge/adam",
                "lstm/edge/sgd",
                "lstm/edge/adam",
            ]
        );
    }

    #[test]
    fn request_validation_rejects_unknowns_and_malformed_lines() {
        for (line, needle) in [
            ("not json", "bad request JSON"),
            ("{\"type\":\"sweep\"}", "needs a string \"id\""),
            (
                "{\"id\":\"x\",\"nets\":[],\"configs\":[\"edge\"],\"optimizers\":[\"sgd\"]}",
                "at least one",
            ),
            (
                "{\"id\":\"x\",\"nets\":[\"alexnet9\"],\"configs\":[\"edge\"],\"optimizers\":[\"sgd\"]}",
                "unknown nets preset",
            ),
            (
                "{\"id\":\"x\",\"nets\":[\"alexnet\"],\"configs\":[\"edge\"],\"optimizers\":[\"lamb\"]}",
                "unknown optimizers preset",
            ),
            ("{\"type\":\"selfdestruct\"}", "unknown request type"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn control_requests_parse() {
        assert_eq!(parse_request("{\"type\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request("{\"type\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn frames_round_trip() {
        let cell = Cell {
            net: "alexnet".into(),
            config: "edge".into(),
            optimizer: "adam".into(),
        };
        let frames = [
            Frame::Accepted {
                id: "r".into(),
                cells: 4,
            },
            Frame::Cell {
                id: "r".into(),
                cell: cell.clone(),
                record: "a\tb\t1.5\tNaN".into(),
            },
            Frame::CellError {
                id: "r".into(),
                cell,
                error: "panicked: \"poisoned\"\nline2".into(),
            },
            Frame::Done {
                id: "r".into(),
                cells: 4,
                errors: 1,
                counters: vec![("sim.hwcost.hit".into(), 12), ("serve.requests".into(), 3)],
            },
            Frame::Rejected {
                id: "r".into(),
                reason: "queue full (0 of 4 slots free)".into(),
                retry_after_ms: 25,
            },
            Frame::Error {
                error: "unknown nets preset".into(),
            },
            Frame::Pong,
            Frame::ShuttingDown,
        ];
        for f in frames {
            let line = f.encode();
            assert_eq!(Frame::parse(&line).unwrap(), f, "{line}");
        }
    }

    #[test]
    fn record_payloads_survive_tabs_and_newlines() {
        // The SimResult record codec is tab-separated; the JSON escape
        // layer must deliver it byte-identically.
        let record = "Cambricon-Q\tAlexNet\t1.0\t123\t4.5e-3\t-0.0";
        let f = Frame::Cell {
            id: "r".into(),
            cell: Cell {
                net: "alexnet".into(),
                config: "edge".into(),
                optimizer: "sgd".into(),
            },
            record: record.into(),
        };
        match Frame::parse(&f.encode()).unwrap() {
            Frame::Cell { record: got, .. } => assert_eq!(got, record),
            other => panic!("expected cell, got {other:?}"),
        }
    }
}
