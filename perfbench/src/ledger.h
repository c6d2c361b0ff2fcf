// Self-time arithmetic for the traced runs.
//
// SpanStack times nested spans opened from the benchmark's own
// decorators: closing a span adds its duration to its category and to
// its parent's child time, so every child is subtracted from exactly one
// parent — the one it was opened inside — and never from a grandparent.
// The ledgers then split one wall-clock interval into per-layer self
// times that add back up to that interval: whatever is not inside a
// measured span lands in a named residual (the DES kernel's own queue
// work, the live loop's poll/recv/decode path, or idle time), never in
// an unexplained gap.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Span : std::uint8_t {
  kRx,         ///< a node's transport receive handler
  kTimer,      ///< a node timer callback (scheduled through its Env)
  kBroadcast,  ///< the generator's call into ByzcastNode::broadcast
  kSend,       ///< Transport::send (nested inside the above)
};
inline constexpr std::size_t kSpanCount = 4;

class SpanStack {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;  ///< summed durations, children included
    std::uint64_t self_ns = 0;   ///< summed durations minus children
  };

  void open(Span span, std::uint64_t now_ns);
  /// Closes the innermost open span.
  void close(std::uint64_t now_ns);
  /// Zeroes every total; only between spans (nothing open).
  void reset();

  [[nodiscard]] const Totals& totals(Span span) const {
    return totals_[static_cast<std::size_t>(span)];
  }
  /// Summed durations of spans opened with nothing else open: the time
  /// the traced process spent inside any measured span.
  [[nodiscard]] std::uint64_t top_level_ns() const { return top_level_ns_; }
  [[nodiscard]] std::size_t depth() const { return open_.size(); }

 private:
  struct Open {
    Span span;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  std::vector<Open> open_;
  std::array<Totals, kSpanCount> totals_{};
  std::uint64_t top_level_ns_ = 0;
};

/// Time in the library's five leaf probes (obs::Profiler sign, verify,
/// serialize, parse, medium fan-out). None of them nests another.
struct LeafTimes {
  double sign_ms = 0;
  double verify_ms = 0;
  double serialize_ms = 0;
  double parse_ms = 0;
  double fanout_ms = 0;
  [[nodiscard]] double sum() const {
    return sign_ms + verify_ms + serialize_ms + parse_ms + fanout_ms;
  }
};

/// One traced interval split into self times that sum to `wall_ms`.
struct Ledger {
  double wall_ms = 0;
  double queue_self_ms = 0;  ///< DES: slice wall outside event callbacks
  double idle_ms = 0;        ///< live: loop wall the process was off-CPU
  double rx_path_ms = 0;     ///< live: CPU outside every measured span
  double send_ms = 0;        ///< live: Transport::send spans
  LeafTimes leaves;
  double node_self_ms = 0;   ///< callback time outside every leaf/child

  [[nodiscard]] double sum() const {
    return queue_self_ms + idle_ms + rx_path_ms + send_ms + leaves.sum() +
           node_self_ms;
  }
};

/// DES: the slices' wall time; event dispatch (Profiler) covers every
/// callback, and the five leaf probes all fire inside callbacks.
Ledger des_ledger(double slice_wall_ms, double dispatch_ms,
                  const LeafTimes& leaves);

/// Live: the loop's wall and process CPU over the same interval, plus the
/// decorator spans. Every leaf probe fires inside a node span (handler,
/// timer or broadcast) and outside any send span.
Ledger live_ledger(double wall_ms, double cpu_ms, const SpanStack& spans,
                   const LeafTimes& leaves);

}  // namespace perfbench
