#include "sim/fault.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace byzcast::sim {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashStop:
      return "crash";
    case FaultKind::kCrashRecover:
      return "recover";
    case FaultKind::kRadioOutage:
      return "radio-off";
    case FaultKind::kRadioRestore:
      return "radio-on";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kHeal:
      return "heal";
    case FaultKind::kJoin:
      return "join";
    case FaultKind::kLeave:
      return "leave";
  }
  return "?";
}

FaultKind fault_kind_from_name(const std::string& name) {
  for (auto kind :
       {FaultKind::kCrashStop, FaultKind::kCrashRecover,
        FaultKind::kRadioOutage, FaultKind::kRadioRestore,
        FaultKind::kPartition, FaultKind::kHeal, FaultKind::kJoin,
        FaultKind::kLeave}) {
    if (name == fault_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown fault kind: " + name);
}

des::SimTime FaultSchedule::end_time() const {
  des::SimTime end = 0;
  for (const FaultEvent& event : events) end = std::max(end, event.at);
  return end;
}

namespace {

[[noreturn]] void bad_line(const std::string& line, const std::string& why) {
  throw std::invalid_argument("fault schedule: " + why + " in line: " + line);
}

/// Parses all of `text` as a T; a sign where T has none, a partial
/// parse or an out-of-range value is a bad line.
template <typename T>
T parse_number(const std::string& line, const std::string& key,
               std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end) {
    bad_line(line, key + " has a malformed number '" + std::string(text) +
                       "'");
  }
  return value;
}

/// A coordinate: any finite double (the medium's grid fits its bounds to
/// every node position, joiners included).
double parse_coord(const std::string& line, const std::string& key,
                   std::string_view text) {
  const double v = parse_number<double>(line, key, text);
  if (!std::isfinite(v)) bad_line(line, key + " must be finite");
  return v;
}

}  // namespace

FaultSchedule FaultSchedule::parse(const std::string& text) {
  FaultSchedule schedule;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream fields(line);
    std::string field;
    if (!(fields >> field)) continue;  // blank / comment-only line

    FaultEvent event;
    bool have_time = false;
    bool have_kind = false;
    bool have_node = false;
    do {
      const std::string_view view = field;
      if (field.starts_with("t=")) {
        const double t = parse_number<double>(line, "t=", view.substr(2));
        // from_seconds casts t * 1e6 to an unsigned 64-bit tick count.
        if (!(t >= 0 && t * 1e6 < 0x1p64)) {
          bad_line(line, "t= must be a time in [0, 2^64) microseconds");
        }
        event.at = des::from_seconds(t);
        have_time = true;
      } else if (field.starts_with("node=")) {
        const auto node =
            parse_number<std::uint64_t>(line, "node=", view.substr(5));
        if (node >= kInvalidNode) bad_line(line, "node= is out of range");
        event.node = static_cast<NodeId>(node);
        have_node = true;
      } else if (field.starts_with("x=")) {
        event.wall_x = parse_coord(line, "x=", view.substr(2));
      } else if (field.starts_with("pos=")) {
        const std::string_view coords = view.substr(4);
        const auto comma = coords.find(',');
        if (comma == std::string_view::npos) bad_line(line, "pos= needs x,y");
        event.position = {parse_coord(line, "pos=", coords.substr(0, comma)),
                          parse_coord(line, "pos=", coords.substr(comma + 1))};
      } else if (!have_kind) {
        event.kind = fault_kind_from_name(field);
        have_kind = true;
      } else {
        bad_line(line, "unrecognized field '" + field + "'");
      }
    } while (fields >> field);

    if (!have_time) bad_line(line, "missing t=<seconds>");
    if (!have_kind) bad_line(line, "missing event kind");
    switch (event.kind) {
      case FaultKind::kCrashStop:
      case FaultKind::kCrashRecover:
      case FaultKind::kRadioOutage:
      case FaultKind::kRadioRestore:
      case FaultKind::kLeave:
        if (!have_node) bad_line(line, "missing node=<id>");
        break;
      case FaultKind::kPartition:
      case FaultKind::kHeal:
      case FaultKind::kJoin:
        break;
    }
    schedule.events.push_back(event);
  }
  return schedule;
}

}  // namespace byzcast::sim
