// Tests for the conflict-abstraction checker (§3 "Correctness", Appendix E):
// published CAs verify, broken CAs are refuted with counterexamples, and the
// checker's own commutativity judgments are validated.
#include <gtest/gtest.h>

#include "verify/checker.hpp"

using namespace proust::verify;

TEST(Commutes, CounterBasics) {
  const ModelSpec m = make_counter_model(6);
  const MethodSpec& incr = m.methods[0];
  const MethodSpec& decr = m.methods[1];
  // incr/incr commute everywhere (below the clamp).
  EXPECT_TRUE(commutes(m, 0, incr, {}, incr, {}));
  EXPECT_TRUE(commutes(m, 3, incr, {}, incr, {}));
  // incr/decr at 0: decr's error depends on order.
  EXPECT_FALSE(commutes(m, 0, incr, {}, decr, {}));
  // incr/decr at 1: both orders leave 1 and decr succeeds in both.
  EXPECT_TRUE(commutes(m, 1, incr, {}, decr, {}));
  // decr/decr at 1: one succeeds, one errors — order-dependent.
  EXPECT_FALSE(commutes(m, 1, decr, {}, decr, {}));
  // decr/decr at 2: both succeed in both orders.
  EXPECT_TRUE(commutes(m, 2, decr, {}, decr, {}));
  // decr/decr at 0: both error in both orders.
  EXPECT_TRUE(commutes(m, 0, decr, {}, decr, {}));
}

TEST(Commutes, MapBasics) {
  const ModelSpec m = make_map_model(2, 2);
  const MethodSpec& get = m.methods[0];
  const MethodSpec& put = m.methods[2];
  const MethodSpec& rem = m.methods[3];
  // Distinct keys always commute.
  EXPECT_TRUE(commutes(m, 0, put, {0, 1}, put, {1, 2}));
  EXPECT_TRUE(commutes(m, 0, get, {0}, put, {1, 1}));
  // Same key: put/put with different values don't commute.
  EXPECT_FALSE(commutes(m, 0, put, {0, 1}, put, {0, 2}));
  // get/put on the same key don't commute when the value changes.
  EXPECT_FALSE(commutes(m, 0, get, {0}, put, {0, 1}));
  // get/get always commute.
  EXPECT_TRUE(commutes(m, 0, get, {0}, get, {0}));
  // remove/remove on the same key: second returns absent either way only if
  // state had no mapping.
  EXPECT_TRUE(commutes(m, 0, rem, {0}, rem, {0}));  // both absent
}

TEST(CheckCA, CounterPaperCAIsCorrect) {
  const auto cex =
      check_conflict_abstraction(make_counter_model(6), counter_ca_paper());
  EXPECT_FALSE(cex.has_value()) << cex->detail;
}

TEST(CheckCA, CounterThreshold1IsRefuted) {
  const auto cex = check_conflict_abstraction(make_counter_model(6),
                                              counter_ca_threshold1());
  ASSERT_TRUE(cex.has_value());
  EXPECT_EQ(cex->state, 1);
  EXPECT_EQ(cex->m.method, "decr");
  EXPECT_EQ(cex->n.method, "decr");
}

TEST(CheckCA, StripedMapCAIsCorrectForAllM) {
  const ModelSpec m = make_map_model(3, 2);
  for (int M : {1, 2, 3, 4, 8}) {
    const auto cex = check_conflict_abstraction(m, map_ca_striped(M));
    EXPECT_FALSE(cex.has_value()) << "M=" << M << ": " << cex->detail;
  }
}

TEST(CheckCA, ReadlessMapCAIsRefuted) {
  const auto cex =
      check_conflict_abstraction(make_map_model(2, 2), map_ca_readless());
  ASSERT_TRUE(cex.has_value());
  // The missed conflict must involve a reader (get/contains) vs an update.
  const bool reader_involved = cex->m.method == "get" ||
                               cex->m.method == "contains" ||
                               cex->n.method == "get" ||
                               cex->n.method == "contains";
  EXPECT_TRUE(reader_involved) << cex->detail;
}

TEST(CheckCA, PQueueOurCAIsCorrect) {
  const auto cex = check_conflict_abstraction(make_pqueue_model(3, 4),
                                              pqueue_ca_ours(3, 4));
  EXPECT_FALSE(cex.has_value()) << cex->detail;
}

TEST(CheckCA, PQueueFigure3LiteralIsRefutedOnEmptyQueue) {
  // The empty-queue insert that only Reads PQueueMin misses its conflict
  // with min()/removeMin() — the deviation documented in txn_pqueue.hpp.
  const auto cex = check_conflict_abstraction(make_pqueue_model(3, 4),
                                              pqueue_ca_figure3_literal(3, 4));
  ASSERT_TRUE(cex.has_value());
  EXPECT_EQ(cex->m.method, "insert");
  // The partner is one of the min-observing operations.
  EXPECT_TRUE(cex->n.method == "min" || cex->n.method == "removeMin")
      << cex->detail;
}

TEST(CheckCA, QueueHeadTailCAIsCorrect) {
  // Validates core::TxnQueue's conflict abstraction analytically.
  const auto cex = check_conflict_abstraction(make_queue_model(2, 4),
                                              queue_ca_ours(2, 4));
  EXPECT_FALSE(cex.has_value()) << cex->detail;
}

TEST(CheckCA, QueueWithoutEmptyReadIsRefuted) {
  const auto cex = check_conflict_abstraction(make_queue_model(2, 4),
                                              queue_ca_no_empty_read(2, 4));
  ASSERT_TRUE(cex.has_value());
  EXPECT_EQ(cex->state, 0) << "the miss is deq-on-empty vs enq";
  const bool enq_deq = (cex->m.method == "enq" && cex->n.method == "deq") ||
                       (cex->m.method == "deq" && cex->n.method == "enq");
  EXPECT_TRUE(enq_deq) << cex->detail;
}

TEST(CheckCA, DequeGuardedCAIsCorrect) {
  const auto cex = check_conflict_abstraction(make_deque_model(2, 5),
                                              deque_ca_ours(2, 5));
  EXPECT_FALSE(cex.has_value()) << cex->detail;
}

TEST(CheckCA, DequeUnguardedCAIsRefutedOnEmpty) {
  const auto cex = check_conflict_abstraction(make_deque_model(2, 5),
                                              deque_ca_unguarded(2, 5));
  ASSERT_TRUE(cex.has_value());
  EXPECT_EQ(cex->state, 0) << "the miss involves the empty deque";
}

TEST(CheckCA, OrderedMapIntervalCAIsCorrect) {
  const ModelSpec m = make_ordered_map_model(4, 2);
  for (int M : {1, 2, 4}) {
    const auto cex = check_conflict_abstraction(m, ordered_map_ca_interval(M));
    EXPECT_FALSE(cex.has_value()) << "M=" << M << ": " << cex->detail;
  }
}

TEST(CheckCA, OrderedMapLowerOnlyCAIsRefuted) {
  // A put strictly inside a queried range is the missed conflict.
  const auto cex = check_conflict_abstraction(make_ordered_map_model(4, 2),
                                              ordered_map_ca_lower_only(4));
  ASSERT_TRUE(cex.has_value());
  const bool range_involved =
      cex->m.method == "range_sum" || cex->n.method == "range_sum";
  EXPECT_TRUE(range_involved) << cex->detail;
}

TEST(FalseConflicts, OrderedMapIntervalStripingIsMonotone) {
  const ModelSpec m = make_ordered_map_model(4, 2);
  std::size_t prev = count_false_conflicts(m, ordered_map_ca_interval(1));
  for (int M : {2, 4}) {
    const std::size_t cur = count_false_conflicts(m, ordered_map_ca_interval(M));
    EXPECT_LE(cur, prev);
    prev = cur;
  }
}

TEST(FalseConflicts, StripingTradeoffIsMonotone) {
  // Definition 3.1 permits false conflicts; striping M trades memory for
  // them. More locations can never create new false conflicts.
  const ModelSpec m = make_map_model(4, 2);
  std::size_t prev = count_false_conflicts(m, map_ca_striped(1));
  EXPECT_GT(prev, 0u) << "M=1 must over-serialize";
  for (int M : {2, 4}) {
    const std::size_t cur = count_false_conflicts(m, map_ca_striped(M));
    EXPECT_LE(cur, prev) << "false conflicts must not grow with M";
    prev = cur;
  }
  // Once every key has its own location (M >= num_keys) the count
  // saturates: what remains are intrinsic same-key false conflicts (e.g.
  // two identical puts commute but both write their key's location).
  const std::size_t saturated = count_false_conflicts(m, map_ca_striped(4));
  EXPECT_EQ(count_false_conflicts(m, map_ca_striped(8)), saturated);
  EXPECT_LT(saturated, count_false_conflicts(m, map_ca_striped(1)));
}

TEST(FalseConflicts, PaperCounterCAHasOnlyBoundaryFalseConflicts) {
  const ModelSpec m = make_counter_model(6);
  // The only commuting-but-conflicting pairs are around 0/1 (incr-vs-decr at
  // 1, decr-vs-decr at 0); beyond the threshold no location is touched.
  const std::size_t fc = count_false_conflicts(m, counter_ca_paper());
  EXPECT_GT(fc, 0u);
  EXPECT_LE(fc, 4u);
}

TEST(AccessConflicts, DetectAllThreeKinds) {
  EXPECT_TRUE(accesses_conflict({{}, {0}}, {{}, {0}}));  // w/w
  EXPECT_TRUE(accesses_conflict({{0}, {}}, {{}, {0}}));  // r/w
  EXPECT_TRUE(accesses_conflict({{}, {0}}, {{0}, {}}));  // w/r
  EXPECT_FALSE(accesses_conflict({{0}, {}}, {{0}, {}}));  // r/r
  EXPECT_FALSE(accesses_conflict({{0}, {1}}, {{2}, {3}}));  // disjoint
  EXPECT_FALSE(accesses_conflict({{}, {}}, {{}, {0}}));  // empty vs write
}

TEST(CheckCA, PairCountMatchesEnumeration) {
  const ModelSpec m = make_map_model(2, 1);  // 4 states
  // invocations: get×2 + contains×2 + put×2 + remove×2 = 8; pairs = 8*9/2.
  EXPECT_EQ(count_pairs(m), 4u * 36u);
}

// --- Read-only soundness for the unlocked read path (DESIGN.md §12) ---
// The unlocked path serves exactly the operations the wrappers route
// through AbstractLock::read; these tests pin down the model-level
// justification: those methods are state-preserving in every reachable
// state, and any two of them commute everywhere (so unlocked readers cannot
// conflict with each other — only the reader-vs-mutator case remains,
// which the guarded read's orec validation covers).

namespace {
const MethodSpec& method_named(const ModelSpec& m, const std::string& name) {
  for (const MethodSpec& ms : m.methods) {
    if (ms.name == name) return ms;
  }
  ADD_FAILURE() << "model " << m.name << " has no method " << name;
  return m.methods.front();
}
}  // namespace

TEST(ReadOnly, MapReadersAreReadOnlyAndMutatorsAreNot) {
  const ModelSpec m = make_map_model(2, 2);
  EXPECT_TRUE(is_read_only(m, method_named(m, "get")));
  EXPECT_TRUE(is_read_only(m, method_named(m, "contains")));
  EXPECT_FALSE(is_read_only(m, method_named(m, "put")));
  EXPECT_FALSE(is_read_only(m, method_named(m, "remove")));
}

TEST(ReadOnly, PQueueMinIsReadOnlyRemoveMinIsNot) {
  const ModelSpec m = make_pqueue_model(3, 4);
  EXPECT_TRUE(is_read_only(m, method_named(m, "min")));
  EXPECT_FALSE(is_read_only(m, method_named(m, "insert")));
  EXPECT_FALSE(is_read_only(m, method_named(m, "removeMin")));
}

TEST(ReadOnly, AllModelsAreFastPathSound) {
  for (const ModelSpec& m :
       {make_counter_model(6), make_map_model(3, 2), make_pqueue_model(3, 4),
        make_queue_model(2, 4), make_deque_model(2, 4),
        make_ordered_map_model(4, 2)}) {
    const auto cex = check_read_only_commutativity(m);
    EXPECT_FALSE(cex.has_value()) << m.name << ": " << cex->detail;
  }
}

TEST(ReadOnly, OrderSensitiveReadIsRefuted) {
  // A "read" whose result depends on how many times it has run — the model
  // analogue of a fast-path read observing replay order. It preserves the
  // state, so is_read_only admits it; the commutativity check must be the
  // one to refute it.
  auto calls = std::make_shared<int>(0);
  ModelSpec m;
  m.name = "order-sensitive-read";
  m.num_states = 1;
  m.methods.push_back(MethodSpec{
      "stale_get", {{}}, [calls](int state, const Args&) {
        return OpOutcome{state, ++*calls};
      }});
  EXPECT_TRUE(is_read_only(m, m.methods[0]));
  const auto cex = check_read_only_commutativity(m);
  ASSERT_TRUE(cex.has_value());
  EXPECT_EQ(cex->m.method, "stale_get");
}
