#include "ledger.h"

#include <stdexcept>

namespace perfbench {

void SpanStack::open(Span span, std::uint64_t now_ns) {
  open_.push_back(Open{span, now_ns, 0});
}

void SpanStack::close(std::uint64_t now_ns) {
  if (open_.empty()) throw std::logic_error("SpanStack::close: no open span");
  const Open done = open_.back();
  open_.pop_back();
  const std::uint64_t duration = now_ns - done.start_ns;
  Totals& t = totals_[static_cast<std::size_t>(done.span)];
  ++t.calls;
  t.total_ns += duration;
  t.self_ns += duration - done.child_ns;
  if (open_.empty()) {
    top_level_ns_ += duration;
  } else {
    open_.back().child_ns += duration;
  }
}

void SpanStack::reset() {
  if (!open_.empty()) throw std::logic_error("SpanStack::reset: span open");
  totals_ = {};
  top_level_ns_ = 0;
}

Ledger des_ledger(double slice_wall_ms, double dispatch_ms,
                  const LeafTimes& leaves) {
  Ledger l;
  l.wall_ms = slice_wall_ms;
  l.queue_self_ms = slice_wall_ms - dispatch_ms;
  l.leaves = leaves;
  l.node_self_ms = dispatch_ms - leaves.sum();
  return l;
}

Ledger live_ledger(double wall_ms, double cpu_ms, const SpanStack& spans,
                   const LeafTimes& leaves) {
  const double ms = 1e-6;
  const double top = static_cast<double>(spans.top_level_ns()) * ms;
  Ledger l;
  l.wall_ms = wall_ms;
  l.idle_ms = wall_ms - cpu_ms;
  l.rx_path_ms = cpu_ms - top;
  l.send_ms = static_cast<double>(spans.totals(Span::kSend).total_ns) * ms;
  l.leaves = leaves;
  l.node_self_ms = top - l.send_ms - leaves.sum();
  return l;
}

}  // namespace perfbench
