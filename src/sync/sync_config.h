// Knobs for the range-sync subsystem (DESIGN.md §11), split from sync.h
// so core/config.h can embed them without pulling in the session machine.
#pragma once

#include <cstddef>

#include "des/time.h"
#include "sync/backoff.h"

namespace byzcast::sync {

/// Defaults keep range-sync OFF: a config with enabled=false must leave
/// runs event-for-event identical to builds without the subsystem
/// (pinned by the determinism golden hash).
struct SyncConfig {
  bool enabled = false;
  /// Also open a session this often while idle (0 = only on explicit
  /// begin_catchup(), i.e. recovery/rejoin).
  des::SimDuration period = 0;
  /// Delay between begin_catchup() and the first session — a rejoiner
  /// needs a couple of HELLO periods before it has neighbours to ask.
  des::SimDuration startup_delay = des::seconds(2);
  /// Retry/timeout policy for session steps: the attempt-k reply timeout
  /// doubles as the backoff delay, and max_attempts is the retry budget
  /// across peer failovers.
  BackoffPolicy backoff{des::millis(400), des::seconds(4), 0.25, 0,
                        /*max_attempts=*/8};
  /// Responder-side batch cap: a BULK_REPLY closes at this many blobs (or
  /// at kBatchMaxBytes, sync.cpp) and pages the rest behind last=false.
  /// 1..core::kMaxBatchMessages; SyncManager refuses anything else.
  std::size_t batch_max_messages = 16;
};

}  // namespace byzcast::sync
