#pragma once
// Wire protocol of the counting service (docs/SERVER.md).
//
// Transport: length-prefixed frames (util/framing.hpp) over TCP or a
// Unix-domain socket, each frame one UTF-8 JSON document (obs::Json —
// dependency-free, order-preserving, integer-preserving).  Every
// request is answered by exactly ONE terminal frame, preceded by zero
// or more event frames; event frames carry an "event" key, terminal
// frames never do, which is the client's framing rule for streams.
//
// Requests are objects with an "op" key:
//   load_graph    register a dataset or edge-list file under a name
//   count         count one template on a registered graph
//   gdd           graphlet degrees at an orbit vertex
//   run_batch     a template set through the batch engine
//   mutate_graph  apply a GraphDelta to a registered graph (versioned)
//   recount       advance a retained incremental count (recount_of)
//   status        one job or the whole service
//   cancel        cooperative per-job cancellation
//   shutdown      stop the server after replying
//
// Feature detection: status and health replies carry "protocol" (the
// version below) and "capabilities" (capabilities_json) so clients can
// refuse or adapt instead of probing with trial requests.
//
// This header is the single source of truth both sides compile
// against: the server parses requests and renders results with these
// functions, the client builds requests and parses results with the
// same ones — a round-trip cannot drift from the in-process API.
// Numbers survive dump -> parse -> dump byte-identically (obs/json),
// which is what makes server-side counts bit-comparable to direct
// library calls (tests/test_server.cpp pins this).

#include <string>

#include "graph/delta.hpp"
#include "obs/json.hpp"
#include "sched/batch.hpp"
#include "svc/job.hpp"

namespace fascia::svc {

using obs::Json;

/// Current protocol major version, echoed in every terminal response.
/// Version 2 added graph mutation: mutate_graph/recount ops, graph
/// version tokens, and the capabilities array.
inline constexpr int kProtocolVersion = 2;

/// The server's feature list, as a JSON array of strings.  A client
/// checks for the capability before sending the op it names:
///   "mutate_graph"   mutate_graph + recount ops, version tokens
///   "adaptive_batch" batch options accept "adaptive_batch" (PR 8)
Json capabilities_json();

// ---- template specs -------------------------------------------------------
// {"name": "U7-1"} | {"path": 7} | {"star": 7} |
// {"k": 5, "edges": [[0,1], ...], "labels": [..]?}

Json template_to_json(const TreeTemplate& tmpl);
TreeTemplate template_from_json(const Json& spec);

// ---- options --------------------------------------------------------------
// Flat JSON objects mirroring the grouped option structs; unknown keys
// are rejected (a typo must not silently run with defaults).

Json count_options_to_json(const CountOptions& options);
CountOptions count_options_from_json(const Json& spec);

Json batch_options_to_json(const sched::BatchOptions& options);
sched::BatchOptions batch_options_from_json(const Json& spec);

// ---- deltas ---------------------------------------------------------------
// {"insert": [[u, v], ...], "remove": [[u, v], ...]} — either key may
// be absent.  Malformed edits surface GraphDelta's own taxonomy.

Json delta_to_json(const GraphDelta& delta);
GraphDelta delta_from_json(const Json& spec);

// ---- results --------------------------------------------------------------

/// Terminal response body for a count/gdd job: estimate, stderr,
/// per-iteration estimates, run status, and (when `include_report`)
/// the full RunReport document under "report".
Json count_result_to_json(const CountResult& result, bool include_report);

Json batch_result_to_json(const sched::BatchResult& result,
                          bool include_report);

Json job_info_to_json(const JobInfo& info);

// ---- request assembly / dispatch ------------------------------------------

/// Builds the JobSpec for a count/gdd/run_batch request object.
/// Throws Error(kUsage)/(kBadInput) on malformed requests.
JobSpec job_spec_from_request(const Json& request);

/// Inverse of job_spec_from_request: renders a JobSpec back into the
/// wire-request document.  This is what the job journal stores — a
/// replayed record goes through job_spec_from_request again, so
/// recovery and the wire share one parsing path and cannot drift.
Json job_spec_to_request_json(const JobSpec& spec);

/// Uniform error envelope: {"ok": false, "error": ..., "category": ...}.
Json error_response(const std::string& message, const std::string& category);

/// Error envelope with a Retry-After hint (shed/draining responses):
/// adds "retry_after_seconds" when positive.  Well-behaved clients
/// (svc::Client with retries enabled) back off for at least the hint.
Json error_response(const std::string& message, const std::string& category,
                    double retry_after_seconds);

Priority priority_from_name(const std::string& name);

}  // namespace fascia::svc
