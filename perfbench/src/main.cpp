// perfbench: the end-to-end broadcast benchmark (see README.md).
//
//   perfbench --workload des_scale|des_lossy|live_loopback --seed N
//             --seconds S --trace 0|1 [--commit SHA]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// ledger of a separate traced run. The last stdout line is one JSON
// object; the exit code is non-zero when a correctness check failed.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "report.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

/// CPU brand string from cpuid (no file reads).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.c_str();  // stop at the first NUL
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "des_scale|des_lossy|live_loopback --seed N --seconds S "
               "--trace 0|1 [--commit SHA]\n",
               error.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(value, &used);
    if (used == value.size() && value.front() != '-') return v;
  } catch (const std::exception&) {
  }
  usage("--" + flag + " needs a non-negative integer, got '" + value + "'");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage("unexpected argument '" + arg + "'");
    std::string flag = arg.substr(2);
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("--" + flag + " needs a value");
    }
    if (flag == "workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "seed") {
      options.seed = parse_u64(flag, value);
    } else if (flag == "seconds") {
      options.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "trace") {
      const std::uint64_t trace = parse_u64(flag, value);
      if (trace > 1) usage("--trace takes 0 or 1");
      options.trace = trace == 1;
    } else if (flag == "commit") {
      commit = value;
    } else {
      usage("unknown flag --" + flag);
    }
  }
  const bool des = options.workload == "des_scale" ||
                   options.workload == "des_lossy";
  if (!have_workload || (!des && options.workload != "live_loopback")) {
    usage("--workload must be des_scale, des_lossy or live_loopback");
  }
  if (options.seconds < 1) usage("--seconds must be at least 1");

  perfbench::Report report;
  report.note("perfbench workload=" + options.workload +
              " seed=" + std::to_string(options.seed) +
              " seconds=" + perfbench::json_number(options.seconds) +
              " trace=" + (options.trace ? "1" : "0"));
  report.note("build=" PERFBENCH_BUILD_TYPE " compiler=" + compiler() +
              " commit=" + commit);
  report.note("host: nproc=" + std::to_string(online_cpus()) +
              " cpu=" + cpu_model());
  try {
    if (des) {
      perfbench::run_des(options, report);
    } else {
      perfbench::run_live(options, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  return report.finish();
}
