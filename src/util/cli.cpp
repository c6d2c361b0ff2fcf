#include "util/cli.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace byzcast::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-h") arg = "--help";
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --flag, got: " + arg);
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
  help_requested_ = values_.count("help") > 0;
}

bool CliArgs::has(const std::string& name) const {
  queried_.insert(name);
  return values_.count(name) > 0;
}

std::string CliArgs::get_str(const std::string& name,
                             const std::string& def) const {
  queried_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

void CliArgs::check(const std::string& name, double value,
                    Bound bound) const {
  const bool positive = bound == Bound::kPositive;
  if (bound == Bound::kAny ||
      (std::isfinite(value) && (positive ? value > 0 : value >= 0))) {
    return;
  }
  throw std::invalid_argument("--" + name +
                              (positive ? " must be > 0" : " must be >= 0") +
                              ", got: " + values_.at(name));
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t def,
                              Bound bound) const {
  queried_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  std::int64_t value = 0;
  try {
    value = std::stoll(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + " expects an integer, got: " +
                                it->second);
  }
  check(name, static_cast<double>(value), bound);
  return value;
}

double CliArgs::get_double(const std::string& name, double def,
                           Bound bound) const {
  queried_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  double value = 0;
  try {
    value = std::stod(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + " expects a number, got: " +
                                it->second);
  }
  check(name, value, bound);
  return value;
}

bool CliArgs::get_bool(const std::string& name, bool def) const {
  queried_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw std::invalid_argument("--" + name + " expects true/false, got: " +
                              it->second);
}

CliArgs& CliArgs::register_flag(const std::string& name,
                                std::string default_text,
                                const std::string& help) {
  queried_.insert(name);  // registered flags are never "unknown"
  auto it = std::find_if(flags_.begin(), flags_.end(),
                         [&](const FlagInfo& f) { return f.name == name; });
  if (it != flags_.end()) {
    it->default_text = std::move(default_text);
    it->help = help;
    it->group = current_group_;
  } else {
    flags_.push_back({name, std::move(default_text), help, current_group_});
  }
  return *this;
}

CliArgs& CliArgs::begin_group(const std::string& title) {
  current_group_ = title;
  return *this;
}

CliArgs& CliArgs::add_flag(const std::string& name, const std::string& def,
                           const std::string& help) {
  return register_flag(name, def, help);
}
CliArgs& CliArgs::add_flag(const std::string& name, const char* def,
                           const std::string& help) {
  return register_flag(name, def, help);
}
CliArgs& CliArgs::add_flag(const std::string& name, std::int64_t def,
                           const std::string& help) {
  return register_flag(name, std::to_string(def), help);
}
CliArgs& CliArgs::add_flag(const std::string& name, int def,
                           const std::string& help) {
  return register_flag(name, std::to_string(def), help);
}
CliArgs& CliArgs::add_flag(const std::string& name, double def,
                           const std::string& help) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", def);
  return register_flag(name, buf, help);
}
CliArgs& CliArgs::add_flag(const std::string& name, bool def,
                           const std::string& help) {
  return register_flag(name, def ? "true" : "false", help);
}

const CliArgs::FlagInfo& CliArgs::registered(const std::string& name) const {
  auto it = std::find_if(flags_.begin(), flags_.end(),
                         [&](const FlagInfo& f) { return f.name == name; });
  if (it == flags_.end()) {
    throw std::logic_error("flag --" + name + " was never add_flag()ed");
  }
  return *it;
}

std::string CliArgs::get_str(const std::string& name) const {
  return get_str(name, registered(name).default_text);
}
std::int64_t CliArgs::get_int(const std::string& name, Bound bound) const {
  const FlagInfo& info = registered(name);
  return get_int(name, std::stoll(info.default_text), bound);
}
double CliArgs::get_double(const std::string& name, Bound bound) const {
  const FlagInfo& info = registered(name);
  return get_double(name, std::stod(info.default_text), bound);
}
bool CliArgs::get_bool(const std::string& name) const {
  const FlagInfo& info = registered(name);
  return get_bool(name, info.default_text == "true");
}

bool CliArgs::handle_help(const std::string& program, std::ostream& os) const {
  queried_.insert("help");
  if (!help_requested_) return false;
  os << "usage: " << program << " [--flag=value ...]\n";
  if (!flags_.empty()) {
    std::size_t width = 0;
    for (const FlagInfo& f : flags_) {
      width = std::max(width, f.name.size() + f.default_text.size());
    }
    // One block per group, in first-appearance order; ungrouped flags
    // keep the historical "flags:" heading.
    std::vector<std::string> groups;
    for (const FlagInfo& f : flags_) {
      if (std::find(groups.begin(), groups.end(), f.group) == groups.end()) {
        groups.push_back(f.group);
      }
    }
    for (const std::string& group : groups) {
      os << "\n" << (group.empty() ? "flags" : group) << ":\n";
      for (const FlagInfo& f : flags_) {
        if (f.group != group) continue;
        std::string head = "--" + f.name + "=" + f.default_text;
        os << "  " << head;
        for (std::size_t i = head.size(); i < width + 5; ++i) os << ' ';
        os << f.help << "\n";
      }
    }
  }
  return true;
}

void CliArgs::reject_unknown() const {
  std::string unknown;
  for (const auto& [k, v] : values_) {
    if (queried_.count(k) == 0) {
      unknown += (unknown.empty() ? "" : ", ") + ("--" + k);
    }
  }
  if (!unknown.empty()) {
    throw std::invalid_argument("unknown flag(s): " + unknown);
  }
}

std::string read_flag_file(const std::string& flag, const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::invalid_argument("--" + flag + ": cannot open " + path);
  }
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

}  // namespace byzcast::util
