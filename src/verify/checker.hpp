// The conflict-abstraction checker: decides Definition 3.1 over a bounded
// model by exhaustive enumeration (the offline stand-in for the paper's
// SAT/SMT reduction — see model.hpp).
#pragma once

#include <optional>
#include <string>

#include "verify/model.hpp"

namespace proust::verify {

struct Invocation {
  std::string method;
  Args args;
};

struct Counterexample {
  int state = 0;
  Invocation m, n;
  std::string detail;  // human-readable explanation (the "SAT model")
};

/// Two invocations commute in `state` iff applying them in either order
/// yields the same final state and the same per-invocation return values
/// (the §3 definition).
bool commutes(const ModelSpec& model, int state, const MethodSpec& m,
              const Args& ma, const MethodSpec& n, const Args& na);

/// Whether two access sets constitute an STM-level conflict: some location
/// is write/write, read/write or write/read shared (Definition 3.1's three
/// cases).
bool accesses_conflict(const Access& a, const Access& b);

/// Definition 3.1: for every state and every pair of invocations that do
/// not commute there, the CA must force conflicting STM accesses. Returns
/// the first violation found, or nullopt if the CA is correct for the
/// model. Exhaustive over num_states × (Σ|args|)² — complete for bounded
/// models.
std::optional<Counterexample> check_conflict_abstraction(
    const ModelSpec& model, const ConflictAbstractionFn& ca);

/// Diagnostic: count false conflicts — commuting pairs whose CA accesses
/// nevertheless conflict. Not an error (Definition 3.1 is an implication,
/// not an equivalence) but the quantity Proust tries to minimize; the
/// striping ablation uses this to show the M/false-conflict trade-off.
std::size_t count_false_conflicts(const ModelSpec& model,
                                  const ConflictAbstractionFn& ca);

/// Total number of (state, invocation-pair) combinations examined, for
/// reporting ratios alongside count_false_conflicts.
std::size_t count_pairs(const ModelSpec& model);

/// A method is read-only iff no invocation of it changes the model state
/// from any (filtered) starting state. This is the property the optimistic
/// read fast path (DESIGN.md §12) assumes of the operations it admits
/// without the abstract lock: if a wrapper routed a secretly-mutating
/// method down the fast path, its base-structure write would bypass both
/// the CA slot's write lock and the abstract lock.
bool is_read_only(const ModelSpec& model, const MethodSpec& method);

/// The fast path's soundness side condition: every pair of read-only
/// invocations commutes in every state (so unlocked readers can never
/// conflict with *each other*; reader-vs-mutator interleavings are what the
/// guarded read's orec validation handles). Returns the first read-only pair that
/// fails to commute — which would indicate a model whose "reads" observe
/// order — or nullopt if the model is fast-path sound.
std::optional<Counterexample> check_read_only_commutativity(
    const ModelSpec& model);

std::string to_string(const Counterexample& cex);

}  // namespace proust::verify
