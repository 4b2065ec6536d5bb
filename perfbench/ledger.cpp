// `ledger`: skewed bank transfers on Mode::EagerAll with the WAL attached.
// 20% update calls move money between two Zipf(0.9) accounts and log a
// 24-byte record; 80% query calls audit 4 accounts read-only. The WAL runs
// with default WalOptions (relaxed ack, group commit every 32 records or
// 200 us) in a fresh directory that is removed after the run.
#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>

#include "containers/striped_hash_map.hpp"
#include "core/lap.hpp"
#include "core/txn_hash_map.hpp"
#include "runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace stm = proust::stm;
namespace core = proust::core;

/// Large enough that no transfer is ever refused.
constexpr long kInitialBalance = 1'000'000'000'000L;
constexpr std::uint32_t kStream = 1;

struct Record {
  std::int64_t from;
  std::int64_t to;
  std::int64_t amount;
};
static_assert(sizeof(Record) == 24);

class LedgerWorkload {
  using Lap = core::OptimisticLap<long>;
  using Map = core::TxnHashMap<long, long, Lap>;

  /// Members are destroyed in reverse: accounts, lap, Stm, then the Wal,
  /// whose destructor drains and fsyncs every published record.
  struct State {
    std::unique_ptr<stm::Wal> wal;
    std::unique_ptr<stm::Stm> stm;
    std::unique_ptr<Lap> lap;
    std::unique_ptr<Map> accounts;
  };

 public:
  struct Local {
    long transfers = 0;  // committed update calls
    long refused = 0;    // transfers refused for lack of funds
  };
  static constexpr std::size_t kOpsPerThread = std::size_t{1} << 17;

  explicit LedgerWorkload(const Config& cfg)
      : accounts_(cfg.smoke ? 1u << 12 : 1u << 16),
        zipf_(accounts_, 0.9),
        dir_base_(cfg.scratch_dir + "/wal-" + std::to_string(::getpid())) {}

  ~LedgerWorkload() { teardown(); }
  LedgerWorkload(const LedgerWorkload&) = delete;
  LedgerWorkload& operator=(const LedgerWorkload&) = delete;

  void describe(Report& r) const {
    r.meta("structure: TxnHashMap<long,long,OptimisticLap> accounts=" +
           std::to_string(accounts_) + " ca_slots=4096 stripes=" +
           std::to_string(stripes()) + " zipf_theta=0.9");
    r.meta("mix: 20% update (transfer: 2 get + 2 put + wal_log 24 B), "
           "80% query (audit: 4 get)");
    r.meta("stm: mode=EagerAll options: durability=<Wal> (others default)");
    r.meta("wal: options: dir=" + dir_base_ + "-<n> (others default: relaxed ack, "
           "fsync_every_n=32, fsync_interval_us=200)");
  }

  Op make_op(Rng& rng) const {
    Op op{};
    op.update = rng.below(100) < 20;
    op.k[0] = zipf_.sample(rng);
    for (int i = 1; i < 4; ++i) {
      do {
        op.k[i] = zipf_.sample(rng);
      } while (op.update && op.k[i] == op.k[0]);
    }
    op.arg = 1 + static_cast<std::int64_t>(rng.below(1000));
    return op;
  }

  void generate(Rng&) {}

  void setup() {
    dir_ = dir_base_ + "-" + std::to_string(setups_++);
    std::filesystem::remove_all(dir_);
    stm::WalOptions wopts;
    wopts.dir = dir_;
    state_ = std::make_unique<State>();
    state_->wal = std::make_unique<stm::Wal>(wopts);
    stm::StmOptions opts;
    opts.durability = state_->wal.get();
    state_->stm = std::make_unique<stm::Stm>(stm::Mode::EagerAll, opts);
    state_->lap = std::make_unique<Lap>(*state_->stm, 4096);
    state_->accounts = std::make_unique<Map>(*state_->lap, stripes());
    for (std::uint32_t a = 0; a < accounts_; ++a) {
      state_->accounts->unsafe_put(a, kInitialBalance);
    }
  }

  void teardown() {
    state_.reset();
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
      dir_.clear();
    }
  }

  stm::Stm& stm() { return *state_->stm; }
  stm::Wal* wal() { return state_ ? state_->wal.get() : nullptr; }

  template <bool T>
  void call(const Op& op, Local& local, Trace<T>& trace) {
    Map& acc = *state_->accounts;
    if (!op.update) {
      state_->stm->atomically([&](stm::Txn& tx) {
        typename Trace<T>::Scope attempt(trace, Kind::Attempt);
        long total = 0;
        for (std::uint32_t a : op.k) {
          total += trace.op(Kind::MapGet, [&] { return acc.get(tx, a); }).value_or(0);
        }
        return total;
      });
      return;
    }
    const long from = op.k[0], to = op.k[1], amount = op.arg;
    const bool done = state_->stm->atomically([&](stm::Txn& tx) {
      typename Trace<T>::Scope attempt(trace, Kind::Attempt);
      const long a = *trace.op(Kind::MapGet, [&] { return acc.get(tx, from); });
      const long b = *trace.op(Kind::MapGet, [&] { return acc.get(tx, to); });
      if (a < amount) return false;
      trace.op(Kind::MapPut, [&] { return acc.put(tx, from, a - amount); });
      trace.op(Kind::MapPut, [&] { return acc.put(tx, to, b + amount); });
      const Record rec{from, to, amount};
      tx.wal_log(kStream, &rec, sizeof rec);
      return true;
    });
    ++(done ? local.transfers : local.refused);
  }

  bool stationary(std::string& why) const {
    const long n = state_->accounts->size();
    if (n == static_cast<long>(accounts_)) return true;
    why = "account count " + std::to_string(n);
    return false;
  }

  /// Money is conserved and no transfer was refused. Then the Wal is closed
  /// and its recovered records, folded over the initial balances, must give
  /// the final balances.
  void check(const std::vector<Local>& locals, bool traced, Report& r) {
    long transfers = 0, refused = 0;
    for (const Local& l : locals) {
      transfers += l.transfers;
      refused += l.refused;
    }
    std::vector<long> final_balance(accounts_);
    constexpr std::uint32_t kChunk = 4096;
    for (std::uint32_t lo = 0; lo < accounts_; lo += kChunk) {
      state_->stm->atomically([&](stm::Txn& tx) {
        for (std::uint32_t a = lo; a < lo + kChunk && a < accounts_; ++a) {
          final_balance[a] = state_->accounts->get(tx, a).value_or(-1);
        }
      });
    }
    long total = 0;
    for (long b : final_balance) total += b;
    const long expected_total = static_cast<long>(accounts_) * kInitialBalance;
    if (total != expected_total) {
      r.error("ledger: total " + std::to_string(total) + " != " +
              std::to_string(expected_total));
    }
    if (refused != 0) r.error("ledger: " + std::to_string(refused) + " transfers refused");

    const std::string dir = dir_;
    state_.reset();  // closes the Wal: everything published is now durable
    if (traced) fsync_us_.push_back(probe_fsync_us(dir));
    std::vector<long> replayed(accounts_, kInitialBalance);
    long records = 0, malformed = 0;
    const std::int64_t t0 = now_ns();
    const stm::WalRecoveryInfo info =
        stm::Wal::recover(dir, [&](const stm::WalRecordView& v) {
          Record rec;
          if (v.stream != kStream || v.size != sizeof rec || v.from_checkpoint) {
            ++malformed;
            return;
          }
          std::memcpy(&rec, v.data, sizeof rec);
          if (rec.from < 0 || rec.to < 0 || rec.from >= static_cast<long>(accounts_) ||
              rec.to >= static_cast<long>(accounts_)) {
            ++malformed;
            return;
          }
          replayed[static_cast<std::size_t>(rec.from)] -= rec.amount;
          replayed[static_cast<std::size_t>(rec.to)] += rec.amount;
          ++records;
        });
    recover_s_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    r.meta("check: transfers=" + std::to_string(transfers) + " wal_records=" +
           std::to_string(records) + " segments=" + std::to_string(info.segments) +
           " torn_tail=" + std::to_string(info.torn_tail));
    if (records != transfers || malformed != 0 || info.torn_tail) {
      r.error("ledger: recovered " + std::to_string(records) + " records (" +
              std::to_string(malformed) + " malformed) for " +
              std::to_string(transfers) + " committed transfers");
    }
    if (replayed != final_balance) {
      r.error("ledger: balances replayed from the WAL differ from the final ones");
    }
  }

  /// Direct StripedHashMap calls on one thread, on a private map of the
  /// workload's accounts with Zipf keys; plus the WAL figures of check().
  void layers(Report& r) const {
    proust::containers::StripedHashMap<long, long> m(stripes());
    for (std::uint32_t a = 0; a < accounts_; ++a) m.put(a, kInitialBalance);
    Rng rng(accounts_);
    std::vector<long> keys(1u << 16);
    for (long& k : keys) k = zipf_.sample(rng);
    const std::size_t mask = keys.size() - 1;
    r.set("containers.hashmap_get_ns", batched_ns(2000, 64, [&](std::uint64_t i) {
            (void)m.get(keys[i & mask]);
          }));
    r.set("containers.hashmap_put_ns", batched_ns(2000, 64, [&](std::uint64_t i) {
            m.put(keys[i & mask], static_cast<long>(i));
          }));
    r.set("stm.wal.fsync_us", median(fsync_us_),
          "median over episodes of the p50 of 64 x (4 KiB write + fsync)");
    r.set("stm.wal.recover_s", median(recover_s_),
          "median over episodes of Wal::recover in the end-of-run check");
  }

 private:
  std::size_t stripes() const { return accounts_ / 16; }

  /// p50 of write(4 KiB)+fsync in `dir`, in us: the device floor under a
  /// strict-ack commit.
  static double probe_fsync_us(const std::string& dir) {
    const std::string path = dir + "/fsync-probe";
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return 0;
    std::vector<char> block(4096, 'x');
    std::vector<double> us;
    for (int i = 0; i < 64; ++i) {
      const std::int64_t t0 = now_ns();
      if (::write(fd, block.data(), block.size()) !=
              static_cast<ssize_t>(block.size()) ||
          ::fsync(fd) != 0) {
        break;
      }
      us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
    }
    ::close(fd);
    ::unlink(path.c_str());
    return median(us);
  }

  std::uint32_t accounts_;
  Zipf zipf_;
  std::string dir_base_;
  std::string dir_;
  int setups_ = 0;
  std::unique_ptr<State> state_;
  std::vector<double> fsync_us_;   // one per episode (traced runs)
  std::vector<double> recover_s_;  // one per episode
};

}  // namespace

Report run_ledger(const Config& cfg) { return run<LedgerWorkload>(cfg); }

}  // namespace perfbench
