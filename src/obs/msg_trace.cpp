#include "obs/msg_trace.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <stdexcept>

#include "util/json.h"

namespace byzcast::obs {

namespace {

constexpr const char* kKindNames[kMsgEventKindCount] = {
    "broadcast",     "first_heard",   "verified",     "delivered",
    "gossiped",      "requested",     "sync_pulled",  "rejected",
    "forwarded",     "find_issued",   "retransmitted", "suspect",
    "bad_signature", "overlay_join",  "overlay_leave", "sync_open",
    "sync_pull",     "sync_failover", "sync_done",
};

// splitmix64 finalizer: uncorrelated bits from the (origin, seq) id so
// sampling never aliases with seq striding patterns.
std::uint64_t mix_id(NodeId origin, std::uint32_t seq) {
  std::uint64_t x = (static_cast<std::uint64_t>(origin) << 32) | seq;
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string fmt_i64(std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

// NodeId on the wire: kInvalidNode serializes as -1 so readers never
// need to know the sentinel constant.
std::string fmt_node(NodeId id) {
  if (id == kInvalidNode) return "-1";
  return fmt_u64(id);
}

// --- micro-parser for our own JSONL schema ---------------------------------
//
// Not a JSON parser: the writer above is the only producer, its values
// are integers or bare identifier strings, and keys are unique per
// line. That makes "find the key, slice to the next delimiter" exact.
// Trace files are untrusted input all the same, so every number must be
// a whole decimal integer inside its field's range.

/// The value token after "key": verbatim — a quoted string through its
/// closing quote, anything else up to the next ',' or '}'.
bool find_raw(const std::string& line, const char* key, std::string& out) {
  const std::string needle = std::string("\"") + key + "\":";
  std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  if (pos >= line.size()) return false;
  std::size_t end = pos;
  if (line[pos] == '"') {
    end = line.find('"', pos + 1);
    if (end == std::string::npos) return false;
    ++end;
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  }
  out = line.substr(pos, end - pos);
  return !out.empty();
}

bool find_string(const std::string& line, const char* key, std::string& out) {
  std::string raw;
  if (!find_raw(line, key, raw) || raw.front() != '"') return false;
  out = raw.substr(1, raw.size() - 2);
  return true;
}

std::string require_token(const std::string& line, const char* key) {
  std::string raw;
  if (!find_raw(line, key, raw)) {
    throw std::invalid_argument(std::string("msg trace line missing \"") + key +
                                "\": " + line);
  }
  return raw;
}

/// A whole unsigned decimal token no larger than `max`; anything else —
/// sign, trailing junk, overflow, a quoted string — names the key.
std::uint64_t parse_uint(const std::string& raw, const std::string& line,
                         const char* key, std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = raw.data() + raw.size();
  auto [ptr, ec] = std::from_chars(raw.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) {
    throw std::invalid_argument(std::string("msg trace field \"") + key +
                                "\" is not an integer in [0, " +
                                fmt_u64(max) + "]: " + line);
  }
  return value;
}

std::uint64_t require_u64(const std::string& line, const char* key) {
  return parse_uint(require_token(line, key), line, key, UINT64_MAX);
}

std::uint32_t require_u32(const std::string& line, const char* key) {
  return static_cast<std::uint32_t>(
      parse_uint(require_token(line, key), line, key, UINT32_MAX));
}

/// The inverse of fmt_node: -1 is kInvalidNode, anything else a real id.
NodeId require_node(const std::string& line, const char* key) {
  const std::string raw = require_token(line, key);
  if (raw == "-1") return kInvalidNode;
  return static_cast<NodeId>(parse_uint(raw, line, key, kInvalidNode - 1));
}

}  // namespace

const char* msg_event_name(MsgEventKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

bool msg_event_from_name(std::string_view name, MsgEventKind& kind) {
  for (std::size_t i = 0; i < kMsgEventKindCount; ++i) {
    if (name == kKindNames[i]) {
      kind = static_cast<MsgEventKind>(i);
      return true;
    }
  }
  return false;
}

bool msg_trace_sampled(NodeId origin, std::uint32_t seq,
                       std::uint32_t sample_every) {
  if (sample_every <= 1) return true;
  return mix_id(origin, seq) % sample_every == 0;
}

MsgTraceRecorder::MsgTraceRecorder(MsgTraceConfig config) : config_(config) {}

void MsgTraceRecorder::record(des::SimTime at, MsgEventKind kind, NodeId node,
                              NodeId origin, std::uint32_t seq, NodeId peer,
                              std::uint64_t a) {
  std::size_t* recorded = nullptr;  // the budget this event draws on
  if (msg_event_node_scoped(kind)) {
    recorded = &per_node_events_[node];
  } else {
    if (!msg_trace_sampled(origin, seq, config_.sample_every)) return;
    const std::pair<NodeId, std::uint32_t> key{origin, seq};
    auto it = per_msg_events_.find(key);
    if (it == per_msg_events_.end()) {
      if (per_msg_events_.size() >= config_.max_messages) {
        ++suppressed_;
        return;
      }
      it = per_msg_events_.emplace(key, 0).first;
    }
    recorded = &it->second;
  }
  if (*recorded >= config_.max_events_per_message) {
    ++suppressed_;
    return;
  }
  ++*recorded;
  events_.push_back(MsgEvent{at, kind, node, peer, origin, seq, a});
}

std::size_t MsgTraceRecorder::count(MsgEventKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const MsgEvent& e) { return e.kind == kind; }));
}

void MsgTraceRecorder::write_jsonl(std::ostream& os) const {
  os << "{\"schema\":" << util::json_quote(kMsgTraceSchema)
     << ",\"node\":" << fmt_node(anchor_.node) << ",\"n\":" << anchor_.n
     << ",\"clock\":" << (anchor_.wall_clock ? "\"wall\"" : "\"sim\"")
     << ",\"anchor_env_us\":" << fmt_u64(anchor_.anchor_env)
     << ",\"anchor_unix_us\":" << fmt_u64(anchor_.anchor_unix_us)
     << ",\"events\":" << events_.size() << ",\"suppressed\":" << suppressed_
     << "}\n";
  for (const MsgEvent& ev : events_) {
    os << "{\"t_us\":" << fmt_u64(ev.at)
       << ",\"kind\":" << util::json_quote(msg_event_name(ev.kind))
       << ",\"node\":" << fmt_node(ev.node) << ",\"peer\":" << fmt_node(ev.peer)
       << ",\"origin\":" << fmt_node(ev.origin) << ",\"seq\":" << ev.seq
       << ",\"a\":" << fmt_u64(ev.a) << "}\n";
  }
}

void MsgTraceRecorder::write_csv(std::ostream& os) const {
  os << "t_us,kind,node,peer,origin,seq,a\n";
  for (const MsgEvent& ev : events_) {
    os << fmt_u64(ev.at) << ',' << msg_event_name(ev.kind) << ','
       << fmt_node(ev.node) << ',' << fmt_node(ev.peer) << ','
       << fmt_node(ev.origin) << ',' << ev.seq << ',' << fmt_u64(ev.a)
       << '\n';
  }
}

void MsgTraceRecorder::write_text(std::ostream& os) const {
  char buf[64];
  for (const MsgEvent& ev : events_) {
    std::snprintf(buf, sizeof buf, "[%10.6fs] node %-3u %-14s",
                  des::to_seconds(ev.at), ev.node, msg_event_name(ev.kind));
    os << buf;
    const bool node_scoped = msg_event_node_scoped(ev.kind);
    if (!node_scoped) os << " msg (" << ev.origin << ',' << ev.seq << ')';
    if (ev.peer != kInvalidNode) os << " peer " << ev.peer;
    if (node_scoped && ev.kind != MsgEventKind::kOverlayJoin &&
        ev.kind != MsgEventKind::kOverlayLeave) {
      os << " a=" << fmt_u64(ev.a);
    }
    os << '\n';
  }
}

// --- parse -----------------------------------------------------------------

ParsedMsgTrace parse_msg_trace(std::istream& is) {
  ParsedMsgTrace out;
  std::string line;
  bool saw_anchor = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (!saw_anchor) {
      std::string schema;
      if (!find_string(line, "schema", schema) || schema != kMsgTraceSchema) {
        throw std::invalid_argument(
            "msg trace file does not start with a " +
            std::string(kMsgTraceSchema) + " anchor line: " + line);
      }
      out.anchor.node = require_node(line, "node");
      out.anchor.n = require_u32(line, "n");
      std::string clock;
      if (!find_string(line, "clock", clock) ||
          (clock != "wall" && clock != "sim")) {
        throw std::invalid_argument("msg trace anchor has bad clock: " + line);
      }
      out.anchor.wall_clock = clock == "wall";
      out.anchor.anchor_env = require_u64(line, "anchor_env_us");
      out.anchor.anchor_unix_us = require_u64(line, "anchor_unix_us");
      saw_anchor = true;
      continue;
    }
    MsgEvent ev;
    ev.at = require_u64(line, "t_us");
    std::string kind;
    if (!find_string(line, "kind", kind) ||
        !msg_event_from_name(kind, ev.kind)) {
      throw std::invalid_argument("msg trace line has unknown kind: " + line);
    }
    ev.node = require_node(line, "node");
    ev.peer = require_node(line, "peer");
    ev.origin = require_node(line, "origin");
    ev.seq = require_u32(line, "seq");
    ev.a = require_u64(line, "a");
    out.events.push_back(ev);
  }
  if (!saw_anchor) {
    throw std::invalid_argument("msg trace file is empty (no anchor line)");
  }
  return out;
}

// --- merge -----------------------------------------------------------------

MergedMsgTrace merge_msg_traces(const std::vector<ParsedMsgTrace>& traces) {
  if (traces.empty()) {
    throw std::invalid_argument("merge_msg_traces: no trace files");
  }
  MergedMsgTrace merged;
  merged.wall_clock = traces.front().anchor.wall_clock;
  std::set<NodeId> nodes;
  for (const ParsedMsgTrace& trace : traces) {
    if (trace.anchor.wall_clock != merged.wall_clock) {
      throw std::invalid_argument(
          "merge_msg_traces: cannot mix wall-clock and sim-clock traces");
    }
    merged.n = std::max(merged.n, trace.anchor.n);
    if (trace.anchor.node != kInvalidNode) nodes.insert(trace.anchor.node);
  }

  // Global time: a wall trace maps env time t onto unix µs through its
  // anchor pair; a sim trace is already fleet-global. Signed arithmetic
  // tolerates events recorded before the anchor instant.
  std::vector<MsgEvent> all;
  bool have_min = false;
  std::uint64_t min_t = 0;
  for (const ParsedMsgTrace& trace : traces) {
    for (MsgEvent ev : trace.events) {
      if (trace.anchor.wall_clock) {
        const std::int64_t delta = static_cast<std::int64_t>(ev.at) -
                                   static_cast<std::int64_t>(
                                       trace.anchor.anchor_env);
        ev.at = static_cast<des::SimTime>(
            static_cast<std::int64_t>(trace.anchor.anchor_unix_us) + delta);
      }
      nodes.insert(ev.node);
      if (!have_min || ev.at < min_t) {
        min_t = ev.at;
        have_min = true;
      }
      all.push_back(ev);
    }
  }
  merged.t0_us = have_min ? min_t : 0;
  for (MsgEvent& ev : all) ev.at -= merged.t0_us;

  std::stable_sort(all.begin(), all.end(),
                   [](const MsgEvent& a, const MsgEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.node != b.node) return a.node < b.node;
                     if (a.origin != b.origin) return a.origin < b.origin;
                     if (a.seq != b.seq) return a.seq < b.seq;
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
  merged.events = std::move(all);
  merged.nodes.assign(nodes.begin(), nodes.end());
  return merged;
}

// --- DAG reconstruction ----------------------------------------------------

namespace {

// Events that prove the node holds the message payload at that time
// (kRequested / kRejected / kFindIssued only prove it heard *about* it).
bool has_payload_kind(MsgEventKind kind) {
  switch (kind) {
    case MsgEventKind::kBroadcast:
    case MsgEventKind::kFirstHeard:
    case MsgEventKind::kVerified:
    case MsgEventKind::kDelivered:
    case MsgEventKind::kGossiped:
    case MsgEventKind::kSyncPulled:
    case MsgEventKind::kForwarded:
    case MsgEventKind::kRetransmitted:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::vector<MsgDag> build_dags(const MergedMsgTrace& merged) {
  // Group events per message id; std::map keeps (origin, seq) order
  // deterministic.
  std::map<std::pair<NodeId, std::uint32_t>, std::vector<const MsgEvent*>>
      by_msg;
  for (const MsgEvent& ev : merged.events) {
    if (msg_event_node_scoped(ev.kind)) continue;
    by_msg[{ev.origin, ev.seq}].push_back(&ev);
  }

  std::vector<MsgDag> dags;
  dags.reserve(by_msg.size());
  for (const auto& [key, events] : by_msg) {
    MsgDag dag;
    dag.origin = key.first;
    dag.seq = key.second;

    // Per-node first-have time and the hearing event that established it.
    std::map<NodeId, des::SimTime> have_time;
    std::map<NodeId, const MsgEvent*> hearing;  // first_heard | sync_pulled
    std::map<NodeId, des::SimTime> delivered_at;
    std::set<NodeId> touched;
    for (const MsgEvent* ev : events) {
      touched.insert(ev->node);
      if (ev->kind == MsgEventKind::kBroadcast && !dag.have_root) {
        dag.have_root = true;
        dag.broadcast_at = ev->at;
      }
      if (has_payload_kind(ev->kind)) {
        auto [it, fresh] = have_time.emplace(ev->node, ev->at);
        if (!fresh && ev->at < it->second) it->second = ev->at;
      }
      if (ev->kind == MsgEventKind::kFirstHeard ||
          ev->kind == MsgEventKind::kSyncPulled) {
        auto [it, fresh] = hearing.emplace(ev->node, ev);
        if (!fresh && ev->at < it->second->at) it->second = ev;
      }
      if (ev->kind == MsgEventKind::kDelivered) {
        auto [it, fresh] = delivered_at.emplace(ev->node, ev->at);
        if (!fresh && ev->at < it->second) it->second = ev->at;
      }
    }
    // An id that was only ever rejected (wire corruption garbles the
    // origin/seq fields before the signature check throws the packet
    // out) is not a message: no root, no hops, no deliveries. Skip it —
    // the rejection instants stay in the merged event stream.
    if (!dag.have_root && hearing.empty() && delivered_at.empty()) continue;

    // The origin delivers at broadcast time (mark_accepted in
    // broadcast() — it records kBroadcast, not kDelivered).
    if (dag.have_root) delivered_at.emplace(dag.origin, dag.broadcast_at);

    // One first-hop edge per hearing node. A parent whose own trace
    // lost the pre-crash events (SIGKILL) can show a have-time *after*
    // the child heard from it; that latency is unknown, not negative.
    for (const auto& [node, ev] : hearing) {
      if (node == dag.origin && dag.have_root) continue;
      HopEdge edge;
      edge.from = ev->peer;
      edge.to = node;
      edge.at = ev->at;
      edge.sync = ev->kind == MsgEventKind::kSyncPulled;
      auto parent = have_time.find(ev->peer);
      if (parent != have_time.end() && parent->second <= ev->at) {
        edge.latency_us = static_cast<std::int64_t>(ev->at - parent->second);
      }
      dag.edges.push_back(edge);
    }
    std::sort(dag.edges.begin(), dag.edges.end(),
              [](const HopEdge& a, const HopEdge& b) {
                if (a.at != b.at) return a.at < b.at;
                return a.to < b.to;
              });

    for (const auto& [node, at] : delivered_at) dag.delivered.push_back(node);
    for (NodeId node : touched) {
      if (delivered_at.find(node) == delivered_at.end()) {
        dag.stalled.push_back(node);
      }
    }

    // Coverage curve: cumulative delivered count over rebased time.
    std::vector<des::SimTime> times;
    times.reserve(delivered_at.size());
    for (const auto& [node, at] : delivered_at) times.push_back(at);
    std::sort(times.begin(), times.end());
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (!dag.coverage.empty() && dag.coverage.back().at == times[i]) {
        dag.coverage.back().covered = i + 1;
      } else {
        dag.coverage.push_back(CoveragePoint{times[i], i + 1});
      }
    }

    // Completeness: BFS down the hop edges from the origin; every
    // delivering node must be reachable (its causal chain closes). An
    // edge with unknown latency is self-grounding: its parent's own
    // acquisition record died with the process (SIGKILL before flush),
    // but the child's verified hearing attests the parent had the
    // message at edge time — e.g. the killed node relayed pre-crash,
    // lost its trace, and re-recorded only the post-respawn sync pull,
    // which would otherwise leave a parent↔child loop the origin never
    // reaches.
    std::set<NodeId> reachable;
    if (dag.have_root) {
      reachable.insert(dag.origin);
      bool grew = true;
      while (grew) {
        grew = false;
        for (const HopEdge& edge : dag.edges) {
          const bool grounded =
              edge.latency_us < 0 || reachable.count(edge.from) != 0;
          if (!grounded) continue;
          if (reachable.insert(edge.from).second) grew = true;
          if (reachable.insert(edge.to).second) grew = true;
        }
      }
    }
    dag.complete = dag.have_root;
    for (NodeId node : dag.delivered) {
      if (reachable.count(node) == 0) {
        dag.complete = false;
        break;
      }
    }
    dags.push_back(std::move(dag));
  }
  return dags;
}

// --- merged JSON -----------------------------------------------------------

void write_merged_json(std::ostream& os, const MergedMsgTrace& merged,
                       const std::vector<MsgDag>& dags) {
  os << "{\n  \"schema\": " << util::json_quote(kMergedTraceSchema)
     << ",\n  \"clock\": " << (merged.wall_clock ? "\"wall\"" : "\"sim\"")
     << ",\n  \"t0_us\": " << fmt_u64(merged.t0_us)
     << ",\n  \"n\": " << merged.n << ",\n  \"nodes\": [";
  for (std::size_t i = 0; i < merged.nodes.size(); ++i) {
    os << (i == 0 ? "" : ", ") << merged.nodes[i];
  }
  os << "],\n  \"events\": " << merged.events.size()
     << ",\n  \"messages\": [\n";

  std::size_t complete = 0;
  std::size_t stalled_nodes = 0;
  std::size_t hops = 0;
  std::size_t sync_hops = 0;
  std::uint64_t latency_count = 0;
  std::uint64_t latency_sum = 0;
  std::int64_t latency_max = 0;
  for (std::size_t m = 0; m < dags.size(); ++m) {
    const MsgDag& dag = dags[m];
    if (dag.complete) ++complete;
    stalled_nodes += dag.stalled.size();
    os << "    {\"origin\": " << fmt_node(dag.origin)
       << ", \"seq\": " << dag.seq
       << ", \"broadcast\": " << (dag.have_root ? "true" : "false")
       << ", \"broadcast_t_us\": " << fmt_u64(dag.broadcast_at)
       << ", \"complete\": " << (dag.complete ? "true" : "false")
       << ",\n     \"delivered\": [";
    for (std::size_t i = 0; i < dag.delivered.size(); ++i) {
      os << (i == 0 ? "" : ", ") << dag.delivered[i];
    }
    os << "], \"stalled\": [";
    for (std::size_t i = 0; i < dag.stalled.size(); ++i) {
      os << (i == 0 ? "" : ", ") << dag.stalled[i];
    }
    os << "],\n     \"edges\": [";
    for (std::size_t i = 0; i < dag.edges.size(); ++i) {
      const HopEdge& edge = dag.edges[i];
      ++hops;
      if (edge.sync) ++sync_hops;
      if (edge.latency_us >= 0) {
        ++latency_count;
        latency_sum += static_cast<std::uint64_t>(edge.latency_us);
        latency_max = std::max(latency_max, edge.latency_us);
      }
      os << (i == 0 ? "" : ", ") << "{\"from\": " << fmt_node(edge.from)
         << ", \"to\": " << fmt_node(edge.to)
         << ", \"t_us\": " << fmt_u64(edge.at)
         << ", \"latency_us\": " << fmt_i64(edge.latency_us)
         << ", \"sync\": " << (edge.sync ? "true" : "false") << "}";
    }
    os << "],\n     \"coverage\": [";
    for (std::size_t i = 0; i < dag.coverage.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "{\"t_us\": "
         << fmt_u64(dag.coverage[i].at)
         << ", \"covered\": " << dag.coverage[i].covered << "}";
    }
    os << "]}" << (m + 1 < dags.size() ? "," : "") << "\n";
  }
  const double latency_mean =
      latency_count == 0
          ? 0.0
          : static_cast<double>(latency_sum) / static_cast<double>(latency_count);
  os << "  ],\n  \"summary\": {\"messages\": " << dags.size()
     << ", \"complete\": " << complete
     << ", \"stalled_nodes\": " << stalled_nodes << ", \"hops\": " << hops
     << ", \"sync_hops\": " << sync_hops
     << ", \"hop_latency_us\": {\"count\": " << fmt_u64(latency_count)
     << ", \"mean\": " << util::json_double(latency_mean)
     << ", \"max\": " << fmt_i64(latency_max) << "}}\n}\n";
}

// --- Chrome trace-event export ---------------------------------------------

void write_chrome_trace(std::ostream& os, const MergedMsgTrace& merged) {
  // pid = node, tid = 1 + message index: each message gets its own track
  // inside the node's process so overlapping broadcasts do not stack;
  // tid 0 carries the node-scoped events.
  std::map<std::pair<NodeId, std::uint32_t>, std::size_t> msg_track;
  for (const MsgEvent& ev : merged.events) {
    if (msg_event_node_scoped(ev.kind)) continue;
    msg_track.emplace(std::make_pair(ev.origin, ev.seq), msg_track.size() + 1);
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& json) {
    os << (first ? "\n" : ",\n") << json;
    first = false;
  };

  for (NodeId node : merged.nodes) {
    emit("{\"ph\":\"M\",\"pid\":" + fmt_node(node) +
         ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":" +
         util::json_quote("node" + fmt_node(node)) + "}}");
    emit("{\"ph\":\"M\",\"pid\":" + fmt_node(node) +
         ",\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":"
         "\"node events\"}}");
  }

  // Span per (node, message): first touch → delivery (or last event).
  struct Span {
    des::SimTime begin = 0;
    des::SimTime end = 0;
  };
  std::map<std::pair<NodeId, std::size_t>, Span> spans;
  for (const MsgEvent& ev : merged.events) {
    if (msg_event_node_scoped(ev.kind)) continue;
    const std::size_t track = msg_track.at({ev.origin, ev.seq});
    auto [it, fresh] = spans.emplace(std::make_pair(ev.node, track),
                                     Span{ev.at, ev.at});
    if (!fresh) {
      it->second.begin = std::min(it->second.begin, ev.at);
      it->second.end = std::max(it->second.end, ev.at);
    }
  }
  for (const auto& [key, span] : spans) {
    std::uint32_t origin = 0;
    std::uint32_t seq = 0;
    for (const auto& [msg, track] : msg_track) {
      if (track == key.second) {
        origin = msg.first;
        seq = msg.second;
        break;
      }
    }
    const std::uint64_t dur = span.end > span.begin ? span.end - span.begin : 1;
    emit("{\"ph\":\"X\",\"cat\":\"msg\",\"pid\":" + fmt_node(key.first) +
         ",\"tid\":" + fmt_u64(key.second) + ",\"ts\":" + fmt_u64(span.begin) +
         ",\"dur\":" + fmt_u64(dur) + ",\"name\":" +
         util::json_quote("m" + fmt_u64(origin) + ":" + fmt_u64(seq)) + "}");
  }

  // Instant events per lifecycle station + flow arrows per causal hop.
  std::size_t flow_id = 0;
  for (const MsgEvent& ev : merged.events) {
    if (msg_event_node_scoped(ev.kind)) {
      emit("{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"node\",\"pid\":" +
           fmt_node(ev.node) + ",\"tid\":0,\"ts\":" + fmt_u64(ev.at) +
           ",\"name\":" + util::json_quote(msg_event_name(ev.kind)) +
           ",\"args\":{\"peer\":" + fmt_node(ev.peer) +
           ",\"a\":" + fmt_u64(ev.a) + "}}");
      continue;
    }
    const std::size_t track = msg_track.at({ev.origin, ev.seq});
    emit("{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"lifecycle\",\"pid\":" +
         fmt_node(ev.node) + ",\"tid\":" + fmt_u64(track) +
         ",\"ts\":" + fmt_u64(ev.at) +
         ",\"name\":" + util::json_quote(msg_event_name(ev.kind)) + "}");
    if ((ev.kind == MsgEventKind::kFirstHeard ||
         ev.kind == MsgEventKind::kSyncPulled) &&
        ev.peer != kInvalidNode) {
      const std::string name =
          ev.kind == MsgEventKind::kSyncPulled ? "sync_hop" : "hop";
      const std::string id = fmt_u64(flow_id++);
      const des::SimTime from_ts = ev.at > 0 ? ev.at - 1 : 0;
      emit("{\"ph\":\"s\",\"cat\":\"hop\",\"id\":" + id + ",\"pid\":" +
           fmt_node(ev.peer) + ",\"tid\":" + fmt_u64(track) +
           ",\"ts\":" + fmt_u64(from_ts) + ",\"name\":" +
           util::json_quote(name) + "}");
      emit("{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"hop\",\"id\":" + id +
           ",\"pid\":" + fmt_node(ev.node) + ",\"tid\":" + fmt_u64(track) +
           ",\"ts\":" + fmt_u64(ev.at) + ",\"name\":" +
           util::json_quote(name) + "}");
    }
  }
  os << "\n]}\n";
}

}  // namespace byzcast::obs
