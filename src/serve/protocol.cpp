#include "serve/protocol.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "delay/evaluator.h"
#include "io/cli.h"

namespace ntr::serve {

using runtime::Status;
using runtime::StatusCode;

namespace {

Status bad_request(const std::string& why) {
  return Status(StatusCode::kBadInput, "request: " + why);
}

/// Saturating double-to-integral conversion for wire values. A direct
/// static_cast is undefined behavior when the double is NaN or outside
/// the target's range, and every number here arrives from an untrusted
/// peer; saturation keeps a hostile or buggy document from turning into
/// UB while preserving every in-range value exactly.
template <typename T>
T narrow_wire(double v) {
  constexpr double lo = static_cast<double>(std::numeric_limits<T>::lowest());
  constexpr double hi = static_cast<double>(std::numeric_limits<T>::max());
  if (!(v > lo)) return std::numeric_limits<T>::lowest();  // also NaN
  if (v >= hi) return std::numeric_limits<T>::max();
  return static_cast<T>(v);
}

/// Fetches an optional finite number field; `fallback` when absent.
Status get_number(const Json& doc, const char* key, double fallback,
                  double& out) {
  const Json* v = doc.find(key);
  if (v == nullptr) {
    out = fallback;
    return Status::ok_status();
  }
  if (!v->is_number())
    return bad_request(std::string(key) + " must be a number");
  out = v->as_number();
  return Status::ok_status();
}

}  // namespace

runtime::StatusOr<Request> parse_request(const Json& doc) {
  if (!doc.is_object()) return bad_request("document must be a JSON object");
  Request req;
  if (const Json* id = doc.find("id")) req.id = *id;

  if (const Json* op = doc.find("op")) {
    if (!op->is_string()) return bad_request("op must be a string");
    const std::string& name = op->as_string();
    if (name == "route")
      req.op = RequestOp::kRoute;
    else if (name == "ping")
      req.op = RequestOp::kPing;
    else if (name == "stats" || name == "health")
      req.op = RequestOp::kStats;
    else if (name == "shutdown")
      req.op = RequestOp::kShutdown;
    else
      return bad_request("unknown op '" + name + "'");
  }
  if (req.op != RequestOp::kRoute) return req;

  if (const Json* mode = doc.find("mode")) {
    if (!mode->is_string()) return bad_request("mode must be a string");
    const std::string& name = mode->as_string();
    if (name == "solve")
      req.mode = RouteMode::kSolve;
    else if (name == "flow")
      req.mode = RouteMode::kFlow;
    else
      return bad_request("unknown mode '" + name + "'");
  }

  if (const Json* net = doc.find("net")) {
    if (!net->is_string()) return bad_request("net must be a string");
    req.nets.push_back(net->as_string());
  }
  if (const Json* nets = doc.find("nets")) {
    if (!nets->is_array()) return bad_request("nets must be an array");
    for (const Json& n : nets->items()) {
      if (!n.is_string()) return bad_request("nets entries must be strings");
      req.nets.push_back(n.as_string());
    }
  }
  if (req.nets.empty()) return bad_request("missing net/nets");

  if (const Json* strategy = doc.find("strategy")) {
    if (!strategy->is_string()) return bad_request("strategy must be a string");
    try {
      req.strategy = io::strategy_from_name(strategy->as_string());
    } catch (const std::exception& e) {
      return bad_request(e.what());
    }
  }
  if (const Json* evaluator = doc.find("evaluator")) {
    if (!evaluator->is_string())
      return bad_request("evaluator must be a string");
    req.evaluator = evaluator->as_string();
    if (!delay::is_evaluator_name(req.evaluator))
      return bad_request("unknown evaluator '" + req.evaluator + "'");
  }
  if (const Json* on_error = doc.find("on_error")) {
    if (!on_error->is_string()) return bad_request("on_error must be a string");
    const std::optional<core::OnError> policy =
        core::on_error_from_name(on_error->as_string());
    if (!policy)
      return bad_request("unknown on_error '" + on_error->as_string() + "'");
    req.on_error = *policy;
  }

  Status s = get_number(doc, "deadline_ms", 0.0, req.deadline_ms);
  if (!s.ok()) return s;
  if (req.deadline_ms < 0.0) return bad_request("deadline_ms must be >= 0");

  double max_edges = -1.0;
  s = get_number(doc, "max_edges", -1.0, max_edges);
  if (!s.ok()) return s;
  // Clamp before the narrowing cast: a wire double above what size_t can
  // hold is undefined behavior to convert, and 1e15 added edges is "no
  // limit" for any design the solver could ever see.
  if (max_edges >= 0.0)
    req.max_edges = static_cast<std::size_t>(std::min(max_edges, 1e15));

  s = get_number(doc, "clock_period_s", req.clock_period_s, req.clock_period_s);
  if (!s.ok()) return s;
  if (req.clock_period_s <= 0.0)
    return bad_request("clock_period_s must be > 0");

  s = get_number(doc, "debug_wedge_ms", 0.0, req.debug_wedge_ms);
  if (!s.ok()) return s;
  if (req.debug_wedge_ms < 0.0)
    return bad_request("debug_wedge_ms must be >= 0");

  return req;
}

const char* response_status_name(ResponseStatus s) {
  switch (s) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kDegraded: return "degraded";
    case ResponseStatus::kQuarantined: return "quarantined";
    case ResponseStatus::kBadRequest: return "bad-request";
    case ResponseStatus::kBadInput: return "bad-input";
    case ResponseStatus::kOverloaded: return "overloaded";
    case ResponseStatus::kShuttingDown: return "shutting-down";
    case ResponseStatus::kTimeout: return "timeout";
    case ResponseStatus::kCancelled: return "cancelled";
    case ResponseStatus::kNumerical: return "numerical";
    case ResponseStatus::kInternal: return "internal";
  }
  return "internal";
}

std::optional<ResponseStatus> response_status_from_name(std::string_view name) {
  for (const ResponseStatus s :
       {ResponseStatus::kOk, ResponseStatus::kDegraded,
        ResponseStatus::kQuarantined, ResponseStatus::kBadRequest,
        ResponseStatus::kBadInput, ResponseStatus::kOverloaded,
        ResponseStatus::kShuttingDown, ResponseStatus::kTimeout,
        ResponseStatus::kCancelled, ResponseStatus::kNumerical,
        ResponseStatus::kInternal}) {
    if (name == response_status_name(s)) return s;
  }
  return std::nullopt;
}

int response_code(ResponseStatus s) {
  switch (s) {
    case ResponseStatus::kOk:
    case ResponseStatus::kDegraded:
      return io::kExitOk;  // a routing shipped, as the CLI under degrade
    case ResponseStatus::kBadRequest:
      return io::kExitUsage;
    case ResponseStatus::kBadInput:
      return io::kExitInput;
    case ResponseStatus::kQuarantined:
    case ResponseStatus::kTimeout:
    case ResponseStatus::kCancelled:
    case ResponseStatus::kNumerical:
      return io::kExitNumerical;
    case ResponseStatus::kOverloaded:
    case ResponseStatus::kShuttingDown:
    case ResponseStatus::kInternal:
      return io::kExitInternal;  // retryable server-side refusals
  }
  return io::kExitInternal;
}

ResponseStatus status_from_error(const runtime::Status& error) {
  switch (error.code()) {
    case StatusCode::kOk:
      return ResponseStatus::kOk;
    case StatusCode::kBadInput:
    case StatusCode::kIoError:
      return ResponseStatus::kBadInput;
    case StatusCode::kTimeout:
      return ResponseStatus::kTimeout;
    case StatusCode::kCancelled:
      return ResponseStatus::kCancelled;
    case StatusCode::kSingular:
    case StatusCode::kNonFinite:
      return ResponseStatus::kNumerical;
    case StatusCode::kUnavailable:
    case StatusCode::kConnectionReset:
      // Transport-level failures surfacing through a handler: the peer
      // can retry, which is exactly what `overloaded` promises.
      return ResponseStatus::kOverloaded;
    case StatusCode::kResourceExhausted:
    case StatusCode::kInternal:
      return ResponseStatus::kInternal;
  }
  return ResponseStatus::kInternal;
}

ResponseStatus status_from_outcome(const core::NetOutcome& outcome) {
  switch (outcome.disposition) {
    case core::NetDisposition::kOk:
      return ResponseStatus::kOk;
    case core::NetDisposition::kDegraded:
      return ResponseStatus::kDegraded;
    case core::NetDisposition::kQuarantined:
      return ResponseStatus::kQuarantined;
  }
  return ResponseStatus::kInternal;
}

const char* response_kind_name(ResponseKind k) {
  switch (k) {
    case ResponseKind::kNet: return "net";
    case ResponseKind::kSummary: return "summary";
    case ResponseKind::kPong: return "pong";
    case ResponseKind::kStats: return "stats";
    case ResponseKind::kShutdown: return "shutdown";
    case ResponseKind::kError: return "error";
  }
  return "error";
}

std::optional<ResponseKind> response_kind_from_name(std::string_view name) {
  for (const ResponseKind k :
       {ResponseKind::kNet, ResponseKind::kSummary, ResponseKind::kPong,
        ResponseKind::kStats, ResponseKind::kShutdown, ResponseKind::kError}) {
    if (name == response_kind_name(k)) return k;
  }
  return std::nullopt;
}

std::string Response::to_json() const {
  Json doc = Json::object();
  doc.set("id", id);
  doc.set("kind", Json::string(response_kind_name(kind)));
  doc.set("status", Json::string(response_status_name(status)));
  doc.set("code", Json::number(code));
  if (!error.empty()) doc.set("error", Json::string(error));
  if (kind == ResponseKind::kNet) {
    doc.set("net_index", Json::number(static_cast<double>(net_index)));
    doc.set("net_count", Json::number(static_cast<double>(net_count)));
    doc.set("rung", Json::number(rung));
    doc.set("routing", Json::string(routing));
    Json delays = Json::array();
    for (const double d : delays_s) delays.push_back(Json::number(d));
    doc.set("delays", std::move(delays));
    doc.set("wirelength_um", Json::number(wirelength_um));
    doc.set("max_delay_s", Json::number(max_delay_s));
    doc.set("evaluator", Json::string(evaluator));
  } else if (kind == ResponseKind::kSummary) {
    doc.set("net_count", Json::number(static_cast<double>(net_count)));
    doc.set("iterations", Json::number(iterations));
    doc.set("nets_rerouted", Json::number(static_cast<double>(nets_rerouted)));
    doc.set("initial_worst_slack_s", Json::number(initial_worst_slack_s));
    doc.set("worst_slack_s", Json::number(worst_slack_s));
  } else if (kind == ResponseKind::kStats) {
    doc.set("stats", stats);
  } else if (kind == ResponseKind::kError && net_count > 0) {
    // A per-net rejection (e.g. `overloaded` for one net of a batch):
    // indexed so the client can still account for every net it sent.
    doc.set("net_index", Json::number(static_cast<double>(net_index)));
    doc.set("net_count", Json::number(static_cast<double>(net_count)));
  }
  return doc.dump();
}

runtime::StatusOr<Response> Response::from_json(const Json& doc) {
  if (!doc.is_object())
    return Status(StatusCode::kBadInput, "response: not a JSON object");
  Response r;
  if (const Json* id = doc.find("id")) r.id = *id;

  const Json* kind = doc.find("kind");
  if (kind == nullptr || !kind->is_string())
    return Status(StatusCode::kBadInput, "response: missing kind");
  const std::optional<ResponseKind> k =
      response_kind_from_name(kind->as_string());
  if (!k)
    return Status(StatusCode::kBadInput,
                  "response: unknown kind '" + kind->as_string() + "'");
  r.kind = *k;

  const Json* status = doc.find("status");
  if (status == nullptr || !status->is_string())
    return Status(StatusCode::kBadInput, "response: missing status");
  const std::optional<ResponseStatus> s =
      response_status_from_name(status->as_string());
  if (!s)
    return Status(StatusCode::kBadInput,
                  "response: unknown status '" + status->as_string() + "'");
  r.status = *s;

  if (const Json* code = doc.find("code"); code != nullptr && code->is_number())
    r.code = narrow_wire<int>(code->as_number());
  if (const Json* err = doc.find("error"); err != nullptr && err->is_string())
    r.error = err->as_string();
  if (const Json* v = doc.find("net_index"); v != nullptr && v->is_number())
    r.net_index = narrow_wire<std::size_t>(v->as_number());
  if (const Json* v = doc.find("net_count"); v != nullptr && v->is_number())
    r.net_count = narrow_wire<std::size_t>(v->as_number());
  if (const Json* v = doc.find("rung"); v != nullptr && v->is_number())
    r.rung = narrow_wire<int>(v->as_number());
  if (const Json* v = doc.find("routing"); v != nullptr && v->is_string())
    r.routing = v->as_string();
  if (const Json* v = doc.find("delays"); v != nullptr && v->is_array()) {
    for (const Json& d : v->items()) {
      if (!d.is_number())
        return Status(StatusCode::kBadInput, "response: non-numeric delay");
      r.delays_s.push_back(d.as_number());
    }
  }
  if (const Json* v = doc.find("wirelength_um"); v != nullptr && v->is_number())
    r.wirelength_um = v->as_number();
  if (const Json* v = doc.find("max_delay_s"); v != nullptr && v->is_number())
    r.max_delay_s = v->as_number();
  if (const Json* v = doc.find("evaluator"); v != nullptr && v->is_string())
    r.evaluator = v->as_string();
  if (const Json* v = doc.find("iterations"); v != nullptr && v->is_number())
    r.iterations = narrow_wire<unsigned>(v->as_number());
  if (const Json* v = doc.find("nets_rerouted"); v != nullptr && v->is_number())
    r.nets_rerouted = narrow_wire<std::size_t>(v->as_number());
  if (const Json* v = doc.find("initial_worst_slack_s");
      v != nullptr && v->is_number())
    r.initial_worst_slack_s = v->as_number();
  if (const Json* v = doc.find("worst_slack_s"); v != nullptr && v->is_number())
    r.worst_slack_s = v->as_number();
  if (const Json* v = doc.find("stats")) r.stats = *v;
  return r;
}

const char* strategy_wire_name(core::Strategy s) {
  switch (s) {
    case core::Strategy::kMst: return "mst";
    case core::Strategy::kStar: return "star";
    case core::Strategy::kSteinerTree: return "steiner";
    case core::Strategy::kErt: return "ert";
    case core::Strategy::kSert: return "sert";
    case core::Strategy::kLdrg: return "ldrg";
    case core::Strategy::kSldrg: return "sldrg";
    case core::Strategy::kErtLdrg: return "ert-ldrg";
    case core::Strategy::kH1: return "h1";
    case core::Strategy::kH2: return "h2";
    case core::Strategy::kH3: return "h3";
  }
  return "ldrg";
}

Json request_to_json(const Request& req) {
  Json doc = Json::object();
  if (!req.id.is_null()) doc.set("id", req.id);
  switch (req.op) {
    case RequestOp::kRoute: doc.set("op", Json::string("route")); break;
    case RequestOp::kPing: doc.set("op", Json::string("ping")); break;
    case RequestOp::kStats: doc.set("op", Json::string("stats")); break;
    case RequestOp::kShutdown: doc.set("op", Json::string("shutdown")); break;
  }
  if (req.op != RequestOp::kRoute) return doc;
  doc.set("mode", Json::string(req.mode == RouteMode::kFlow ? "flow" : "solve"));
  Json nets = Json::array();
  for (const std::string& n : req.nets) nets.push_back(Json::string(n));
  doc.set("nets", std::move(nets));
  doc.set("strategy", Json::string(strategy_wire_name(req.strategy)));
  doc.set("evaluator", Json::string(req.evaluator));
  doc.set("on_error", Json::string(core::on_error_name(req.on_error)));
  if (req.deadline_ms > 0.0) doc.set("deadline_ms", Json::number(req.deadline_ms));
  if (req.max_edges != static_cast<std::size_t>(-1))
    doc.set("max_edges", Json::number(static_cast<double>(req.max_edges)));
  if (req.mode == RouteMode::kFlow)
    doc.set("clock_period_s", Json::number(req.clock_period_s));
  if (req.debug_wedge_ms > 0.0)
    doc.set("debug_wedge_ms", Json::number(req.debug_wedge_ms));
  return doc;
}

Response make_error_response(const Json& id, ResponseStatus status,
                             std::string detail) {
  Response r;
  r.id = id;
  r.kind = ResponseKind::kError;
  r.status = status;
  r.code = response_code(status);
  r.error = std::move(detail);
  return r;
}

}  // namespace ntr::serve
