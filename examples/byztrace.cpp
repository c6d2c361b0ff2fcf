// byztrace — fleet trace merger and propagation analyzer.
//
// Takes the per-node byzcast-msg-trace/v2 JSONL files that byzcastd
// (--trace-msgs) or byzsim (--trace-msgs, --trace=jsonl) wrote, aligns
// their clocks via the per-file anchors, and reconstructs one
// propagation DAG per (origin, seq) message: who heard it from whom,
// per-hop latency, the delivery-coverage curve, and which nodes stalled
// without delivering. Node-scoped events (suspicions, overlay role
// changes, range-sync sessions) ride along in the merged stream and on
// each node's "node events" Chrome track; the DAGs ignore them. Input
// is untrusted: a malformed number or an unknown kind fails the file.
//
//   ./build/examples/byztrace node*.trace.jsonl           # text report
//   ./build/examples/byztrace --json=merged.json --chrome=trace.json
//       node*.trace.jsonl
//
// --json writes the byzcast-msg-trace-merged/v1 document, --chrome a
// Chrome trace-event file loadable in Perfetto / chrome://tracing.
// --expect-n=N fails (exit 2) unless every complete message reached N
// nodes — the knob CI uses to assert chaos-run convergence.
//
// util::CliArgs rejects positional arguments by design, so this tool
// parses argv by hand: anything not starting with "--" is an input.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/msg_trace.h"

namespace {

using byzcast::NodeId;
using byzcast::kInvalidNode;

struct Options {
  std::vector<std::string> inputs;
  std::string json_path;
  std::string chrome_path;
  bool text = false;
  std::size_t expect_n = 0;  // 0 = no convergence assertion
};

void usage(std::ostream& os) {
  os << "usage: byztrace [options] TRACE.jsonl [TRACE.jsonl ...]\n"
        "  --json=PATH     write byzcast-msg-trace-merged/v1 JSON\n"
        "  --chrome=PATH   write Chrome trace-event JSON (Perfetto)\n"
        "  --text          print the human propagation report (default\n"
        "                  when no other output is requested)\n"
        "  --expect-n=N    exit 2 unless every message's DAG is complete\n"
        "                  and delivered by all N nodes\n"
        "  --help          this text\n";
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* name) -> const char* {
      const std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.c_str() + prefix.size();
      return nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else if (arg == "--text") {
      opt.text = true;
    } else if (const char* v = value_of("--json")) {
      opt.json_path = v;
    } else if (const char* v = value_of("--chrome")) {
      opt.chrome_path = v;
    } else if (const char* v = value_of("--expect-n")) {
      opt.expect_n = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (arg.rfind("--", 0) == 0) {
      throw std::invalid_argument("unknown flag: " + arg);
    } else {
      opt.inputs.push_back(arg);
    }
  }
  if (opt.inputs.empty()) {
    usage(std::cerr);
    throw std::invalid_argument("no trace files given");
  }
  if (opt.json_path.empty() && opt.chrome_path.empty()) opt.text = true;
  return opt;
}

std::string fmt_node(NodeId id) {
  return id == kInvalidNode ? std::string("?") : std::to_string(id);
}

void print_text_report(std::ostream& os,
                       const byzcast::obs::MergedMsgTrace& merged,
                       const std::vector<byzcast::obs::MsgDag>& dags) {
  os << "merged trace of " << merged.nodes.size()
     << " node(s), fleet n=" << merged.n
     << ", clock=" << (merged.wall_clock ? "wall" : "sim") << ", "
     << merged.events.size() << " events, " << dags.size() << " message(s)\n";
  for (const auto& dag : dags) {
    os << "\nmsg (" << fmt_node(dag.origin) << ',' << dag.seq << ")";
    if (dag.have_root) {
      os << "  broadcast at t+" << dag.broadcast_at << "us";
    } else {
      os << "  [no broadcast event: origin trace missing]";
    }
    os << "  delivered=" << dag.delivered.size()
       << (dag.complete ? "  complete" : "  INCOMPLETE") << '\n';
    for (const auto& e : dag.edges) {
      os << "  " << fmt_node(e.from) << " -> " << fmt_node(e.to) << " at t+"
         << e.at << "us";
      if (e.latency_us >= 0) os << " (+" << e.latency_us << "us)";
      if (e.sync) os << " [range-sync]";
      os << '\n';
    }
    if (!dag.stalled.empty()) {
      os << "  stalled:";
      for (NodeId id : dag.stalled) os << ' ' << id;
      os << '\n';
    }
    if (!dag.coverage.empty()) {
      const auto& last = dag.coverage.back();
      os << "  coverage: " << last.covered << " node(s) by t+" << last.at
         << "us\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opt = parse_args(argc, argv);

  std::vector<byzcast::obs::ParsedMsgTrace> traces;
  traces.reserve(opt.inputs.size());
  for (const std::string& path : opt.inputs) {
    std::ifstream file(path, std::ios::binary);
    if (!file) throw std::runtime_error("cannot open trace file: " + path);
    try {
      traces.push_back(byzcast::obs::parse_msg_trace(file));
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ": " + e.what());
    }
  }

  const auto merged = byzcast::obs::merge_msg_traces(traces);
  const auto dags = byzcast::obs::build_dags(merged);

  if (!opt.json_path.empty()) {
    std::ofstream file(opt.json_path, std::ios::binary | std::ios::trunc);
    if (!file) {
      throw std::runtime_error("cannot open --json output: " + opt.json_path);
    }
    byzcast::obs::write_merged_json(file, merged, dags);
  }
  if (!opt.chrome_path.empty()) {
    std::ofstream file(opt.chrome_path, std::ios::binary | std::ios::trunc);
    if (!file) {
      throw std::runtime_error("cannot open --chrome output: " +
                               opt.chrome_path);
    }
    byzcast::obs::write_chrome_trace(file, merged);
  }
  if (opt.text) print_text_report(std::cout, merged, dags);

  if (opt.expect_n > 0) {
    bool ok = !dags.empty();
    for (const auto& dag : dags) {
      if (!dag.complete || dag.delivered.size() < opt.expect_n) {
        std::fprintf(stderr,
                     "byztrace: msg (%s,%u) %s, delivered %zu/%zu\n",
                     fmt_node(dag.origin).c_str(), dag.seq,
                     dag.complete ? "complete" : "INCOMPLETE",
                     dag.delivered.size(), opt.expect_n);
        ok = false;
      }
    }
    if (!ok) return 2;
    std::fprintf(stderr, "byztrace: %zu message(s) complete on all %zu nodes\n",
                 dags.size(), opt.expect_n);
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "byztrace: %s\n", e.what());
  return 1;
}
