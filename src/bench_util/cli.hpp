// Strict flag parsing for the benchmark drivers. Every argument is `--name`
// (a switch) or `--name=value`; the driver declares the flags it accepts,
// and anything else ends the process with status 2 and a message naming the
// flag and what would have been accepted, instead of running a default:
//   - an unknown flag, a switch given a value or a value flag given none;
//   - a number that does not parse, or a count below its minimum
//     (`--threads=0`, `--runs=0`);
//   - an enum-valued flag given a name outside its list.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/topology.hpp"
#include "stm/fwd.hpp"

namespace proust::bench {

class Cli {
 public:
  /// The names each enum-valued flag accepts (--mode, --pin, --stat), in
  /// the order the rejection message lists them.
  template <class E>
  using Named = std::pair<const char*, E>;

  static constexpr Named<stm::Mode> kModes[] = {
      {"lazy", stm::Mode::Lazy},
      {"eagerwrite", stm::Mode::EagerWrite},
      {"eagerall", stm::Mode::EagerAll}};
  static constexpr Named<topo::PinPolicy> kPinPolicies[] = {
      {"none", topo::PinPolicy::None},
      {"compact", topo::PinPolicy::Compact},
      {"scatter", topo::PinPolicy::Scatter}};
  /// --stat: which timed run a row's ms and ops/s report.
  static constexpr Named<bool> kStats[] = {{"mean", false}, {"min", true}};

  /// Unchecked parsing: every argument is kept, none is rejected.
  Cli(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// Checked parsing. `switches` are the flags written bare (`--smoke`),
  /// `values` those written `--name=value`.
  Cli(int argc, char** argv, const std::vector<std::string>& switches,
      const std::vector<std::string>& values)
      : Cli(argc, argv) {
    std::string accepted;
    for (const auto* list : {&switches, &values}) {
      for (const std::string& f : *list) {
        accepted += (accepted.empty() ? "--" : ", --") + f;
      }
    }
    const auto listed = [](const std::vector<std::string>& l,
                           const std::string& n) {
      for (const std::string& f : l) {
        if (f == n) return true;
      }
      return false;
    };
    for (const std::string& a : args_) {
      const std::size_t eq = a.find('=');
      const std::string name =
          a.rfind("--", 0) == 0 ? a.substr(2, eq == std::string::npos
                                                  ? std::string::npos
                                                  : eq - 2)
                                : std::string();
      const bool has_value = eq != std::string::npos;
      if (!name.empty() && listed(has_value ? values : switches, name)) {
        continue;
      }
      if (!name.empty() && listed(has_value ? switches : values, name)) {
        fail(has_value ? "--" + name + " takes no value"
                       : "--" + name + " needs a value (--" + name + "=...)");
      }
      fail("unknown flag " + a + "; accepted flags: " + accepted);
    }
  }

  bool has(const std::string& flag) const {
    for (const auto& a : args_) {
      if (a == "--" + flag) return true;
      if (a.rfind("--" + flag + "=", 0) == 0) return true;
    }
    return false;
  }

  std::string get(const std::string& flag, const std::string& def) const {
    const std::string prefix = "--" + flag + "=";
    for (const auto& a : args_) {
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    }
    return def;
  }

  /// An integer >= `min`.
  long get_long(const std::string& flag, long def, long min = 0) const {
    const std::string v = get(flag, "");
    return v.empty() ? def : to_long(flag, v, min);
  }

  double get_double(const std::string& flag, double def, double lo = 0,
                    double hi = 1) const {
    const std::string v = get(flag, "");
    return v.empty() ? def : to_double(flag, v, lo, hi);
  }

  /// Comma-separated integers, each >= `min`.
  std::vector<long> get_longs(const std::string& flag, std::vector<long> def,
                              long min = 1) const {
    std::vector<long> out;
    for (const std::string& s : items(flag)) {
      out.push_back(to_long(flag, s, min));
    }
    return out.empty() ? def : out;
  }

  /// Comma-separated numbers in [lo, hi].
  std::vector<double> get_doubles(const std::string& flag,
                                  std::vector<double> def, double lo = 0,
                                  double hi = 1) const {
    std::vector<double> out;
    for (const std::string& s : items(flag)) {
      out.push_back(to_double(flag, s, lo, hi));
    }
    return out.empty() ? def : out;
  }

  /// Comma-separated names from `names`, e.g. --mode=lazy,eagerall.
  template <class E, std::size_t N>
  std::vector<E> get_enums(const std::string& flag, std::vector<E> def,
                           const Named<E> (&names)[N]) const {
    std::vector<E> out;
    for (const std::string& n : items(flag)) {
      out.push_back(lookup(flag, n, names));
    }
    return out.empty() ? def : out;
  }

  /// One name from `names`, e.g. --mode=lazy.
  template <class E, std::size_t N>
  E get_enum(const std::string& flag, E def,
             const Named<E> (&names)[N]) const {
    const std::string v = get(flag, "");
    return v.empty() ? def : lookup(flag, v, names);
  }

  /// The value named `v`; an unknown name ends the process (status 2).
  template <class E, std::size_t N>
  static E lookup(const std::string& flag, const std::string& v,
                  const Named<E> (&names)[N]) {
    std::string accepted;
    for (const auto& [name, value] : names) {
      if (v == name) return value;
      accepted += accepted.empty() ? name : std::string(", ") + name;
    }
    fail("--" + flag + "=" + v + ": unknown value; accepted values: " +
         accepted);
  }

  /// Print `msg` and end the process with status 2 (a usage error).
  [[noreturn]] static void fail(const std::string& msg) {
    std::fprintf(stderr, "%s\n", msg.c_str());
    std::exit(2);
  }

 private:
  /// The comma-separated items of --flag's value (none when absent).
  std::vector<std::string> items(const std::string& flag) const {
    std::vector<std::string> out;
    std::stringstream ss(get(flag, ""));
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(item);
    return out;
  }

  static long to_long(const std::string& flag, const std::string& s,
                      long min) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0' || errno != 0) {
      fail("--" + flag + "=" + s + ": not an integer");
    }
    if (v < min) {
      fail("--" + flag + "=" + s + ": must be >= " + std::to_string(min));
    }
    return v;
  }

  static double to_double(const std::string& flag, const std::string& s,
                          double lo, double hi) {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0' || !(v >= lo && v <= hi)) {
      char range[64];
      std::snprintf(range, sizeof range, "%g..%g", lo, hi);
      fail("--" + flag + "=" + s + ": not a number in " + range);
    }
    return v;
  }

  std::vector<std::string> args_;
};

}  // namespace proust::bench
