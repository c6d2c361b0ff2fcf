// Tiny `--flag=value` command-line parser for benches and examples.
//
// Two layers. The raw getters (`get_int(name, def)` etc.) are the
// original ad-hoc interface: flags are `--name=value` or `--name value`;
// bare `--name` is a boolean true; unknown flags throw so typos in
// experiment sweeps fail loudly instead of silently running the default
// scenario. On top of that sits a declarative registry: `add_flag(name,
// default, help)` declares a flag once, single-argument getters read it
// with its registered default, and `handle_help()` renders a generated
// `--help` listing every registered flag — which is how the 16 bench
// binaries share one definition of `--seeds/--threads/--csv/--json`
// (bench/bench_util.h) instead of 16 copies.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace byzcast::util {

class CliArgs {
 public:
  /// What a numeric flag's value must be, checked by get_int and
  /// get_double. Counts and durations are kNonNegative (cast to unsigned,
  /// a negative value wraps into a run that never ends); a period that
  /// re-arms a timer is kPositive. A value out of bounds, or not finite,
  /// throws std::invalid_argument naming the flag.
  enum class Bound { kAny, kNonNegative, kPositive };

  /// Parses argv. Throws std::invalid_argument on malformed input.
  CliArgs(int argc, const char* const* argv);

  // --- raw access ----------------------------------------------------------
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_str(const std::string& name,
                                    const std::string& def) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def,
                                     Bound bound = Bound::kAny) const;
  [[nodiscard]] double get_double(const std::string& name, double def,
                                  Bound bound = Bound::kAny) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool def) const;

  // --- declarative registry ------------------------------------------------
  /// Declares a flag with its default and help text; `--help` output
  /// lists flags in declaration order. Redeclaring a name replaces its
  /// default/help (so a bench can override a shared default). Returns
  /// *this for chaining.
  CliArgs& add_flag(const std::string& name, const std::string& def,
                    const std::string& help);
  CliArgs& add_flag(const std::string& name, const char* def,
                    const std::string& help);
  CliArgs& add_flag(const std::string& name, std::int64_t def,
                    const std::string& help);
  CliArgs& add_flag(const std::string& name, int def, const std::string& help);
  CliArgs& add_flag(const std::string& name, double def,
                    const std::string& help);
  CliArgs& add_flag(const std::string& name, bool def,
                    const std::string& help);

  /// Starts a named help group: flags declared after this call render
  /// under a `title:` heading in --help instead of the default `flags:`
  /// block. Lets a binary with backend-specific flags (byzcastd's sim/udp
  /// split) keep its generated help readable. Returns *this for chaining.
  CliArgs& begin_group(const std::string& title);

  /// Registered-default getters; throw std::logic_error for names never
  /// passed to add_flag (a programming error, not user input).
  [[nodiscard]] std::string get_str(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     Bound bound = Bound::kAny) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  Bound bound = Bound::kAny) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// When --help (or -h as argv[1]) was given: prints a usage line and
  /// the registered flags to `os` and returns true; the caller should
  /// exit. Call after every add_flag. A binary that never calls it gets
  /// --help rejected by reject_unknown() like any other unknown flag.
  bool handle_help(const std::string& program, std::ostream& os) const;

  /// Throws std::invalid_argument listing any flag never queried via the
  /// getters above nor registered. Call after all gets.
  void reject_unknown() const;

 private:
  struct FlagInfo {
    std::string name;
    std::string default_text;
    std::string help;
    std::string group;  ///< help heading; "" renders under "flags:"
  };
  [[nodiscard]] const FlagInfo& registered(const std::string& name) const;
  void check(const std::string& name, double value, Bound bound) const;
  CliArgs& register_flag(const std::string& name, std::string default_text,
                         const std::string& help);

  std::map<std::string, std::string> values_;
  std::vector<FlagInfo> flags_;  ///< declaration order, for --help
  std::string current_group_;    ///< applied to subsequent add_flag calls
  bool help_requested_ = false;
  mutable std::set<std::string> queried_;
};

/// Reads the whole file that flag `--<flag>` names. Throws
/// std::invalid_argument("--<flag>: cannot open <path>") when the file
/// cannot be opened, so a typo fails instead of running a default.
std::string read_flag_file(const std::string& flag, const std::string& path);

}  // namespace byzcast::util
