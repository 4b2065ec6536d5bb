// Minimal flag parsing shared by the benchmark drivers:
//   --ops=N  --key-range=N  --warmup=N  --runs=N  --threads=1,2,4
//   --o=1,16  --u=0,0.5,1  --full  --mode=lazy|eagerwrite|eagerall
// An enum-valued flag given a name outside its list exits with status 2 and
// a message naming the accepted values, instead of running the default.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/topology.hpp"
#include "stm/fwd.hpp"
#include "stm/options.hpp"

namespace proust::bench {

class Cli {
 public:
  /// The names each enum-valued flag accepts, in the order the rejection
  /// message lists them.
  template <class E>
  using Named = std::pair<const char*, E>;

  static constexpr Named<stm::Mode> kModes[] = {
      {"lazy", stm::Mode::Lazy},
      {"eagerwrite", stm::Mode::EagerWrite},
      {"eagerall", stm::Mode::EagerAll}};
  static constexpr Named<stm::ClockScheme> kSchemes[] = {
      {"inc", stm::ClockScheme::IncOnCommit},
      {"lazybump", stm::ClockScheme::LazyBump}};
  static constexpr Named<topo::PinPolicy> kPinPolicies[] = {
      {"none", topo::PinPolicy::None},
      {"compact", topo::PinPolicy::Compact},
      {"scatter", topo::PinPolicy::Scatter}};

  Cli(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
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

  long get_long(const std::string& flag, long def) const {
    const std::string v = get(flag, "");
    return v.empty() ? def : std::strtol(v.c_str(), nullptr, 10);
  }

  double get_double(const std::string& flag, double def) const {
    const std::string v = get(flag, "");
    return v.empty() ? def : std::strtod(v.c_str(), nullptr);
  }

  std::vector<long> get_longs(const std::string& flag,
                              std::vector<long> def) const {
    const std::string v = get(flag, "");
    if (v.empty()) return def;
    return split_longs(v);
  }

  std::vector<double> get_doubles(const std::string& flag,
                                  std::vector<double> def) const {
    const std::string v = get(flag, "");
    if (v.empty()) return def;
    std::vector<double> out;
    std::stringstream ss(v);
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
    return out;
  }

  /// --mode=lazy|eagerwrite|eagerall (STM conflict-detection mode).
  stm::Mode get_mode(const std::string& flag, stm::Mode def) const {
    return get_enum(flag, def, kModes);
  }

  /// --scheme=inc|lazybump (global-clock scheme).
  stm::ClockScheme get_scheme(const std::string& flag,
                              stm::ClockScheme def) const {
    return get_enum(flag, def, kSchemes);
  }

  /// Comma-separated string list, e.g. --families=map,ordered.
  std::vector<std::string> get_strings(const std::string& flag,
                                       std::vector<std::string> def) const {
    const std::string v = get(flag, "");
    if (v.empty()) return def;
    std::vector<std::string> out;
    std::stringstream ss(v);
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(item);
    return out;
  }

  /// Harness worker pinning, --pin=none|compact|scatter.
  topo::PinPolicy get_pin_policy(const std::string& flag,
                                 topo::PinPolicy def) const {
    return get_enum(flag, def, kPinPolicies);
  }

  /// Comma-separated pinning policies, e.g. --pin=none,compact,scatter.
  std::vector<topo::PinPolicy> get_pin_policies(
      const std::string& flag, std::vector<topo::PinPolicy> def) const {
    const std::vector<std::string> names = get_strings(flag, {});
    if (names.empty()) return def;
    std::vector<topo::PinPolicy> out;
    for (const std::string& n : names) {
      out.push_back(lookup(flag, n, kPinPolicies));
    }
    return out;
  }

 private:
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
    std::fprintf(stderr, "--%s=%s: unknown value; accepted values: %s\n",
                 flag.c_str(), v.c_str(), accepted.c_str());
    std::exit(2);
  }

  static std::vector<long> split_longs(const std::string& v) {
    std::vector<long> out;
    std::stringstream ss(v);
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(std::stol(item));
    return out;
  }

  std::vector<std::string> args_;
};

}  // namespace proust::bench
