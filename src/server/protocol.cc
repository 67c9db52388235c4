#include "srs/server/protocol.h"

#include <cmath>

namespace srs {

namespace {

/// "<field>: must be <requirement>" — the shape every protocol parse
/// error takes, mirroring the options builder's convention.
Status FieldError(const char* field, const std::string& requirement) {
  return Status::InvalidArgument(std::string(field) + ": must be " +
                                 requirement);
}

bool IsIntegral(const JsonValue& v) {
  return v.is_number() && v.AsNumber() == std::floor(v.AsNumber());
}

/// Reads an array of [u, v] integer pairs into `*out`.
Status ParseEdgeList(const JsonValue& doc, const char* field,
                     std::vector<std::pair<NodeId, NodeId>>* out) {
  const JsonValue* list = doc.Find(field);
  if (list == nullptr) return Status::OK();
  if (!list->is_array()) {
    return FieldError(field, "an array of [u, v] pairs");
  }
  out->reserve(list->array().size());
  for (const JsonValue& edge : list->array()) {
    if (!edge.is_array() || edge.array().size() != 2 ||
        !IsIntegral(edge.array()[0]) || !IsIntegral(edge.array()[1])) {
      return FieldError(field, "an array of [u, v] integer pairs");
    }
    out->emplace_back(static_cast<NodeId>(edge.array()[0].AsNumber()),
                      static_cast<NodeId>(edge.array()[1].AsNumber()));
  }
  return Status::OK();
}

Status ParseQueryFields(const JsonValue& doc,
                        const SimilarityOptions& defaults,
                        ProtocolRequest* request) {
  QueryRequest& query = request->query;

  if (const JsonValue* measure = doc.Find("measure")) {
    if (!measure->is_string()) {
      return FieldError("measure", "\"gsr-star\", \"esr-star\", or \"rwr\"");
    }
    SRS_ASSIGN_OR_RETURN(query.measure, ParseMeasureName(measure->AsString()));
  }

  const JsonValue* sources = doc.Find("sources");
  if (sources == nullptr || !sources->is_array() ||
      sources->array().empty()) {
    return FieldError("sources", "a non-empty array of node ids");
  }
  query.sources.reserve(sources->array().size());
  for (const JsonValue& s : sources->array()) {
    if (!IsIntegral(s)) {
      return FieldError("sources", "a non-empty array of node ids");
    }
    query.sources.push_back(static_cast<NodeId>(s.AsNumber()));
  }

  if (const JsonValue* version = doc.Find("version")) {
    if (!IsIntegral(*version) || version->AsNumber() < 0) {
      return FieldError("version", "a non-negative integer");
    }
    query.version = static_cast<uint64_t>(version->AsNumber());
  }

  if (const JsonValue* deadline = doc.Find("deadline_ms")) {
    if (!deadline->is_number() || deadline->AsNumber() < 0) {
      return FieldError("deadline_ms", "a non-negative number");
    }
    request->deadline_ms = deadline->AsNumber();
  }

  // Option overrides merge over the server's serving defaults; the builder
  // re-validates the merged configuration and names any offending field.
  SimilarityOptionsBuilder builder(defaults);
  struct NumberKnob {
    const char* key;
    bool integral;
    void (*apply)(SimilarityOptionsBuilder*, double);
  };
  static constexpr NumberKnob kKnobs[] = {
      {"damping", false,
       [](SimilarityOptionsBuilder* b, double v) { b->Damping(v); }},
      {"iterations", true,
       [](SimilarityOptionsBuilder* b, double v) {
         b->Iterations(static_cast<int>(v));
       }},
      {"epsilon", false,
       [](SimilarityOptionsBuilder* b, double v) { b->Epsilon(v); }},
      {"prune_epsilon", false,
       [](SimilarityOptionsBuilder* b, double v) { b->PruneEpsilon(v); }},
      {"top_k", true,
       [](SimilarityOptionsBuilder* b, double v) {
         b->TopK(static_cast<int>(v));
       }},
  };
  for (const NumberKnob& knob : kKnobs) {
    if (const JsonValue* v = doc.Find(knob.key)) {
      if (!v->is_number() || (knob.integral && !IsIntegral(*v))) {
        return FieldError(knob.key,
                          knob.integral ? "an integer" : "a number");
      }
      knob.apply(&builder, v->AsNumber());
    }
  }
  if (const JsonValue* v = doc.Find("backend")) {
    if (!v->is_string()) return FieldError("backend", "a string");
    builder.BackendName(v->AsString());
  }
  if (const JsonValue* v = doc.Find("topk_early_termination")) {
    if (!v->is_bool()) return FieldError("topk_early_termination", "a bool");
    builder.TopKEarlyTermination(v->AsBool());
  }
  if (const JsonValue* v = doc.Find("trace")) {
    if (!v->is_bool()) return FieldError("trace", "a bool");
    query.collect_trace = v->AsBool();
  }
  SRS_ASSIGN_OR_RETURN(query.options, builder.Build());
  return Status::OK();
}

}  // namespace

Result<QueryMeasure> ParseMeasureName(const std::string& name) {
  if (name == "gsr-star") return QueryMeasure::kSimRankStarGeometric;
  if (name == "esr-star") return QueryMeasure::kSimRankStarExponential;
  if (name == "rwr") return QueryMeasure::kRwr;
  return Status::InvalidArgument(
      "measure: must be \"gsr-star\", \"esr-star\", or \"rwr\", got \"" +
      name + "\"");
}

Result<ProtocolRequest> ParseRequestLine(const std::string& line,
                                         const SimilarityOptions& defaults) {
  SRS_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  ProtocolRequest request;
  if (const JsonValue* id = doc.Find("id")) request.id = *id;

  const JsonValue* op = doc.Find("op");
  if (op == nullptr || !op->is_string()) {
    return FieldError(
        "op", "\"query\", \"apply_delta\", \"stats\", or \"shutdown\"");
  }
  const std::string& name = op->AsString();
  if (name == "query") {
    request.op = ProtocolRequest::Op::kQuery;
    SRS_RETURN_NOT_OK(ParseQueryFields(doc, defaults, &request));
  } else if (name == "apply_delta") {
    request.op = ProtocolRequest::Op::kApplyDelta;
    SRS_RETURN_NOT_OK(ParseEdgeList(doc, "insert", &request.insert_edges));
    SRS_RETURN_NOT_OK(ParseEdgeList(doc, "remove", &request.remove_edges));
    if (request.insert_edges.empty() && request.remove_edges.empty()) {
      return Status::InvalidArgument(
          "apply_delta: needs at least one of \"insert\" / \"remove\"");
    }
  } else if (name == "stats") {
    request.op = ProtocolRequest::Op::kStats;
  } else if (name == "shutdown") {
    request.op = ProtocolRequest::Op::kShutdown;
  } else {
    return FieldError(
        "op", "\"query\", \"apply_delta\", \"stats\", or \"shutdown\"");
  }
  return request;
}

const char* ProtocolStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return kStatusInvalidRequest;
    case StatusCode::kDeadlineExceeded:
      return kStatusDeadlineExpired;
    case StatusCode::kUnavailable:
    case StatusCode::kCapacityError:
      return kStatusOverload;
    default:
      return kStatusInternalError;
  }
}

JsonValue MakeResponse(const JsonValue& id, const char* status) {
  JsonValue response = JsonValue::MakeObject();
  if (!id.is_null()) response.Set("id", id);
  response.Set("status", status);
  return response;
}

JsonValue MakeErrorResponse(const JsonValue& id, const char* status,
                            const std::string& message) {
  JsonValue response = MakeResponse(id, status);
  response.Set("error", message);
  return response;
}

JsonValue EncodeQueryResponse(const JsonValue& id,
                              const QueryResponse& response) {
  JsonValue out = MakeResponse(id, kStatusOk);
  out.Set("version", response.version);
  out.Set("ranked", response.ranked);
  out.Set("engine_reused", response.engine_reused);
  JsonValue rows = JsonValue::MakeArray();
  rows.array().reserve(response.rows.size());
  for (const QueryRowResult& row : response.rows) {
    JsonValue r = JsonValue::MakeObject();
    r.Set("source", static_cast<int64_t>(row.source));
    if (response.ranked) {
      JsonValue ranking = JsonValue::MakeArray();
      ranking.array().reserve(row.ranking.size());
      for (const RankedNode& entry : row.ranking) {
        JsonValue e = JsonValue::MakeObject();
        e.Set("node", static_cast<int64_t>(entry.node));
        e.Set("score", entry.score);
        ranking.Append(std::move(e));
      }
      r.Set("ranking", std::move(ranking));
      r.Set("levels_evaluated", row.levels_evaluated);
      r.Set("levels_total", row.levels_total);
      r.Set("residual_bound", row.residual_bound);
      r.Set("served_from_cache", row.served_from_cache);
    } else {
      JsonValue scores = JsonValue::MakeArray();
      scores.array().reserve(row.scores.size());
      for (double s : row.scores) scores.Append(s);
      r.Set("scores", std::move(scores));
    }
    rows.Append(std::move(r));
  }
  out.Set("rows", std::move(rows));
  // Opt-in only: responses without "trace": true in the request carry no
  // trace object, keeping the hot-path encoding unchanged.
  if (response.trace.collected) {
    out.Set("trace", TraceToJson(response.trace));
  }
  return out;
}

}  // namespace srs
