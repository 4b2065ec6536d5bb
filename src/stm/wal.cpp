#include "stm/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/backoff.hpp"
#include "common/crc32.hpp"
#include "stm/chaos.hpp"
#include "stm/thread_registry.hpp"
#include "stm/var.hpp"
#include "stm/wal_format.hpp"

namespace proust::stm {

namespace {

namespace fs = std::filesystem;
using namespace walfmt;

/// Raw full write, no policy: used only to manufacture deterministic torn
/// appends at the WalAppend/CkptWrite crash gates (the bytes must reach the
/// file before the _exit, whatever the injected-fault config says).
bool full_write_raw(int fd, const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// A backlog that piled up behind a slow fsync is not kept resident once
/// written: committer buffers that grew past this are released (a batch in
/// steady state is a few KiB).
constexpr std::size_t kRetainBytes = std::size_t{64} << 10;

template <class T>
void clear_and_trim(std::vector<T>& v) {
  if (v.capacity() * sizeof(T) > kRetainBytes) {
    std::vector<T>().swap(v);
  } else {
    v.clear();
  }
}

/// Holds a staging slot's `busy` flag for a scope. Each side holds it only
/// for an append or a buffer swap, so spinning is enough.
class BusyGuard {
 public:
  explicit BusyGuard(std::atomic<bool>& busy) noexcept : busy_(busy) {
    while (busy_.exchange(true, std::memory_order_acquire)) {
      Backoff::cpu_relax();
    }
  }
  ~BusyGuard() { busy_.store(false, std::memory_order_release); }
  BusyGuard(const BusyGuard&) = delete;
  BusyGuard& operator=(const BusyGuard&) = delete;

 private:
  std::atomic<bool>& busy_;
};

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  const common::UniqueFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd) return false;
  out.clear();
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd.get(), buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) break;
    out.insert(out.end(), buf, buf + r);
  }
  return true;
}

/// A checkpoint file loaded and fully validated (both CRCs, the name/header
/// epoch agreement, and the record framing) before any record is delivered.
struct CkptLoaded {
  std::uint64_t epoch = 0;
  std::uint64_t n_records = 0;
  std::vector<std::uint8_t> buf;
};

bool load_checkpoint(const std::string& path, std::uint64_t name_epoch,
                     CkptLoaded& out) {
  if (!read_file(path, out.buf)) return false;
  const auto& b = out.buf;
  if (b.size() < kCkptHeaderSize || get_u64(b.data()) != kCkptMagic ||
      get_u32(b.data() + 8) != kCkptVersion) {
    return false;
  }
  const std::uint64_t epoch = get_u64(b.data() + 16);
  const std::uint64_t n_records = get_u64(b.data() + 24);
  const std::uint64_t payload_len = get_u64(b.data() + 32);
  const std::uint32_t payload_crc = get_u32(b.data() + 40);
  const std::uint32_t header_crc = get_u32(b.data() + 44);
  if (epoch != name_epoch || epoch == 0 ||
      header_crc != crc32(b.data(), 44) ||
      payload_len != b.size() - kCkptHeaderSize ||
      payload_crc != crc32(b.data() + kCkptHeaderSize, payload_len)) {
    return false;
  }
  std::size_t pos = kCkptHeaderSize;
  std::uint64_t n = 0;
  while (pos < b.size()) {
    if (b.size() - pos < 8) return false;
    const std::uint32_t len = get_u32(b.data() + pos + 4);
    pos += 8;
    if (len > b.size() - pos) return false;
    pos += len;
    ++n;
  }
  if (n != n_records) return false;
  out.epoch = epoch;
  out.n_records = n_records;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Staging helpers (transaction side)

void Wal::stage_record(std::vector<std::uint8_t>& buf, std::uint32_t stream,
                       const void* data, std::size_t n) {
  put_u32(buf, stream);
  put_u32(buf, static_cast<std::uint32_t>(n));
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf.insert(buf.end(), p, p + n);
}

void Wal::stage_var_record(std::vector<std::uint8_t>& buf, std::uint64_t var_id,
                           const void* value, std::size_t n) {
  put_u32(buf, kVarStream);
  put_u32(buf, static_cast<std::uint32_t>(8 + n));
  put_u64(buf, var_id);
  const auto* p = static_cast<const std::uint8_t*>(value);
  buf.insert(buf.end(), p, p + n);
}

bool Wal::decode_var_record(const WalRecordView& r, std::uint64_t& var_id,
                            const std::uint8_t*& value,
                            std::uint32_t& size) noexcept {
  if (r.stream != kVarStream || r.size < 8) return false;
  var_id = get_u64(r.data);
  value = r.data + 8;
  size = r.size - 8;
  return true;
}

// ---------------------------------------------------------------------------
// Construction / teardown

Wal::Wal(WalOptions opts) : opts_(std::move(opts)) {
  fs_ = opts_.fs != nullptr ? opts_.fs : &common::Fs::real();
  if (opts_.dir.empty()) {
    throw std::invalid_argument("WalOptions::dir must be set");
  }
  if (::mkdir(opts_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("wal: cannot create directory " + opts_.dir);
  }
  dir_fd_.reset(
      fs_->open(opts_.dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC, 0));

  // Resume after whatever valid history is on disk: the scan truncates any
  // torn tail and tells us the newest surviving epoch (checkpoint-covered or
  // in a segment); appending continues in a *fresh* segment so this instance
  // never writes into a file an earlier instance half-finished. The scanned
  // per-segment epoch ranges seed the retirement bookkeeping, and the
  // streams seen in history seed the snapshotter-coverage mask.
  const WalRecoveryInfo info = recover(opts_.dir, {});
  resume_epoch_ = info.last_epoch;
  sealed_epoch_ = info.last_epoch;
  next_epoch_.store(info.last_epoch + 1, std::memory_order_relaxed);
  kick_at_.store(info.last_epoch + 1, std::memory_order_relaxed);
  slots_ = std::make_unique<StagingSlot[]>(ThreadRegistry::kMaxSlots);
  drained_.resize(ThreadRegistry::kMaxSlots);
  stream_mask_.store(info.stream_mask, std::memory_order_relaxed);
  sealed_ = info.segment_details;

  std::uint32_t max_index = 0;
  bool any = false;
  std::error_code ec;
  for (const auto& ent : fs::directory_iterator(opts_.dir, ec)) {
    std::uint32_t idx;
    if (parse_seg_name(ent.path().filename().string(), idx)) {
      if (!any || idx > max_index) max_index = idx;
      any = true;
    }
  }
  seg_index_ = any ? max_index + 1 : 0;

  open_fresh_segment();
  committer_ = std::thread([this] { committer_main(); });
}

Wal::~Wal() {
  stop_.store(true, std::memory_order_seq_cst);
  work_ec_.notify_all();
  if (committer_.joinable()) committer_.join();
  if (fd_) {
    fs_->fsync(fd_.get());
    fd_.reset();
  }
  dir_fd_.reset();
}

void Wal::open_fresh_segment() {
  seg_path_ = opts_.dir + "/" + seg_name(seg_index_);
  fd_.reset(fs_->open(seg_path_.c_str(),
                      O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644));
  if (!fd_) {
    throw std::runtime_error("wal: cannot create segment " + seg_path_);
  }
  std::vector<std::uint8_t> h;
  seg_header_bytes(h, seg_index_);
  // Ctor path: EINTR/short-write absorbing loop, any other error throws
  // (the UniqueFd members unwind the descriptors — the pre-RAII code leaked
  // fd_ and dir_fd_ here because ~Wal never ran after a throwing ctor).
  const std::uint8_t* p = h.data();
  std::size_t n = h.size();
  while (n > 0) {
    const long w = fs_->write(fd_.get(), p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("wal: cannot initialize segment " + seg_path_);
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  if (fs_->fsync(fd_.get()) != 0) {
    throw std::runtime_error("wal: cannot initialize segment " + seg_path_);
  }
  if (dir_fd_) fs_->fsync(dir_fd_.get());
  seg_bytes_ = h.size();
  seg_first_epoch_ = 0;
  seg_last_epoch_ = 0;
}

// ---------------------------------------------------------------------------
// Publish side

std::uint64_t Wal::publish(unsigned slot, const std::uint8_t* staged,
                           std::size_t bytes, std::uint32_t records) {
  assert(slot < ThreadRegistry::kMaxSlots);
  StagingSlot& s = slots_[slot];
  const BusyGuard guard(s.busy);  // contended only by the committer's drain
  // Staged unit: epoch + record count + sealed byte length, then the staged
  // records verbatim. Expansion to the on-disk format (and all CRC work)
  // happens on the committer thread. Any growth happens before the claim,
  // so a claimed epoch is always appended (the committer waits for it).
  const std::size_t need = s.units.size() + 16 + bytes;
  if (need > s.units.capacity()) {
    s.units.reserve(std::max(need, 2 * s.units.capacity()));
  }
  const std::uint64_t e = next_epoch_.fetch_add(1, std::memory_order_seq_cst);
  put_u64(s.units, e);
  put_u32(s.units, records);
  put_u32(s.units, static_cast<std::uint32_t>(bytes));
  s.units.insert(s.units.end(), staged, staged + bytes);
  s.records.store(s.records.load(std::memory_order_relaxed) + records,
                  std::memory_order_relaxed);
  return e;
}

void Wal::wait_durable(std::uint64_t epoch) {
  for (;;) {
    if (durable_epoch_.load(std::memory_order_acquire) >= epoch) return;
    if (failed()) {
      throw WalUnavailable(
          "wal: log failed before the commit's batch became durable");
    }
    durable_ec_.wait_until(
        [&] {
          return durable_epoch_.load(std::memory_order_acquire) >= epoch ||
                 failed();
        },
        std::chrono::steady_clock::now() + std::chrono::milliseconds(10));
  }
}

void Wal::flush() {
  const std::uint64_t e = published_epoch();
  if (e == 0) return;
  wait_durable(e);
}

WalStats Wal::stats() const noexcept {
  WalStats s;
  s.records = n_records_.load(std::memory_order_relaxed);
  s.bytes = n_bytes_.load(std::memory_order_relaxed);
  s.batches = n_batches_.load(std::memory_order_relaxed);
  s.fsyncs = n_fsyncs_.load(std::memory_order_relaxed);
  s.rotations = n_rotations_.load(std::memory_order_relaxed);
  s.errors = n_errors_.load(std::memory_order_relaxed);
  s.retries = n_retries_.load(std::memory_order_relaxed);
  s.segments_retired = n_segments_retired_.load(std::memory_order_relaxed);
  s.published_epoch = published_epoch();
  s.durable_epoch = durable_epoch_.load(std::memory_order_relaxed);
  return s;
}

void Wal::register_var(std::uint64_t id, const VarBase& var) {
  var_ids_.emplace(&var, id);
}

bool Wal::var_id(const VarBase* var, std::uint64_t& id) const noexcept {
  const auto it = var_ids_.find(var);
  if (it == var_ids_.end()) return false;
  id = it->second;
  return true;
}

// ---------------------------------------------------------------------------
// Committer side

bool Wal::chaos_crash(ChaosPoint p) noexcept {
  if (opts_.chaos == nullptr) [[likely]] return false;
  const ChaosAction a = opts_.chaos->decide(p);
  if (a == ChaosAction::None) return false;
  if (a == ChaosAction::Crash) return true;
  // Abort/Timeout have no meaning on the committer thread; every counted
  // decision must have an effect, so they coerce to a delay (which widens
  // the published-but-not-durable window — the interesting one).
  opts_.chaos->inject_delay();
  return false;
}

void Wal::fail(const char* op, int err, const std::string& path) {
  n_errors_.fetch_add(1, std::memory_order_relaxed);
  if (failing_.exchange(true, std::memory_order_acq_rel)) return;
  const WalError e{op, err, path};
  if (opts_.on_error) {
    opts_.on_error(e);
  } else {
    std::fprintf(stderr,
                 "[wal] FAILED: %s on %s: %s — durability is now read-only\n",
                 op, path.c_str(), std::strerror(err));
  }
  // Report first, then publish: every WalUnavailable — a strict waiter's or
  // a refused commit's — keys off failed(), so the caller that catches it
  // already sees what on_error recorded.
  failed_.store(true, std::memory_order_release);
  durable_ec_.notify_all();  // strict waiters must stop waiting and throw
}

WalErrorPolicy Wal::classify(int err) const noexcept {
  if (opts_.error_policy) return opts_.error_policy(err);
  switch (err) {
    case EAGAIN:
    case ENOBUFS:
    case ENOMEM:
      return WalErrorPolicy::Retry;
    default:
      return WalErrorPolicy::Fatal;
  }
}

void Wal::retry_backoff_sleep(unsigned attempt) noexcept {
  const auto d = opts_.retry_backoff * (1u << std::min(attempt, 6u));
  if (d.count() > 0) std::this_thread::sleep_for(d);
}

bool Wal::write_all(int fd, const void* data, std::size_t n,
                    const std::string& path) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  unsigned attempts = 0;
  while (n > 0) {
    const long w = fs_->write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      if (classify(err) == WalErrorPolicy::Retry &&
          attempts < opts_.retry_limit) {
        n_retries_.fetch_add(1, std::memory_order_relaxed);
        retry_backoff_sleep(attempts++);
        continue;
      }
      fail("write", err, path);
      return false;
    }
    attempts = 0;  // progress resets the transient-retry budget
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

void Wal::committer_main() {
  while (wait_for_work()) {
    wait_for_batch();
    seal_batch();
    // A failed log drops batches on the floor: durable_epoch stops moving,
    // strict waiters throw, and publish-side commits refuse up front.
    if (!failing_.load(std::memory_order_acquire)) write_batch(batch_);
    release_written();
  }
}

bool Wal::wait_for_work() {
  // kick_at_ was armed at sealed_epoch_ + 1 by the last seal (or the ctor),
  // so the first publish past the sealed prefix wakes us (long deadline —
  // an idle log costs ~no wakeups).
  while (claimed_epoch() == sealed_epoch_) {
    if (stop_.load(std::memory_order_seq_cst)) return false;
    work_ec_.wait_until(
        [&] {
          return claimed_epoch() != sealed_epoch_ ||
                 stop_.load(std::memory_order_seq_cst);
        },
        std::chrono::steady_clock::now() + std::chrono::milliseconds(50));
  }
  return true;
}

void Wal::wait_for_batch() {
  using clock = std::chrono::steady_clock;
  // The window opens at the publish that kicked us for this batch (its
  // publisher stamped the clock), or now if that kick has not landed yet.
  const clock::rep k = kick_ns_.load(std::memory_order_relaxed);
  const clock::time_point deadline =
      (k != 0 ? clock::time_point(clock::duration(k)) : clock::now()) +
      opts_.fsync_interval_us;
  for (;;) {
    drain_slots();
    if (stop_.load(std::memory_order_seq_cst) ||
        drained_records_ >= opts_.fsync_every_n || clock::now() >= deadline) {
      return;
    }
    // Ask to be kicked by the publish that should bring the pending count
    // to fsync_every_n, judging units by the last batch's records per unit.
    const std::uint64_t missing = opts_.fsync_every_n - drained_records_;
    const std::uint64_t at =
        claimed_epoch() + (missing + records_per_unit_ - 1) / records_per_unit_;
    kick_at_.store(at, std::memory_order_seq_cst);
    work_ec_.wait_until(
        [&] {
          return claimed_epoch() >= at ||
                 stop_.load(std::memory_order_seq_cst);
        },
        deadline);
  }
}

void Wal::drain_slots() {
  const unsigned n = ThreadRegistry::high_water();
  for (unsigned i = 0; i < n; ++i) {
    StagingSlot& s = slots_[i];
    if (s.records.load(std::memory_order_relaxed) == 0) continue;
    Drained& d = drained_[i];
    const BusyGuard guard(s.busy);
    // Swap when nothing is left over, so the publisher keeps appending into
    // a buffer that has capacity.
    if (d.units.empty()) {
      d.units.swap(s.units);
    } else {
      d.units.insert(d.units.end(), s.units.begin(), s.units.end());
      s.units.clear();
    }
    drained_records_ += s.records.load(std::memory_order_relaxed);
    s.records.store(0, std::memory_order_relaxed);
  }
}

bool Wal::seal_unit(std::uint64_t epoch) {
  const unsigned n = ThreadRegistry::high_water();
  for (unsigned i = 0; i < n; ++i) {
    Drained& d = drained_[i];
    if (d.pos == d.units.size() || get_u64(d.units.data() + d.pos) != epoch) {
      continue;
    }
    const std::uint32_t records = get_u32(d.units.data() + d.pos + 8);
    batch_.units.push_back(UnitRef{i, d.pos});
    batch_.records += records;
    drained_records_ -= records;
    d.pos += 16 + get_u32(d.units.data() + d.pos + 12);
    return true;
  }
  return false;
}

void Wal::release_written() {
  const unsigned n = ThreadRegistry::high_water();
  for (unsigned i = 0; i < n; ++i) {
    Drained& d = drained_[i];
    if (d.pos == d.units.size()) {
      // The next drain swaps this buffer into the slot, so trimming here
      // also bounds what the publisher keeps.
      clear_and_trim(d.units);
    } else {
      d.units.erase(d.units.begin(),
                    d.units.begin() + static_cast<std::ptrdiff_t>(d.pos));
    }
    d.pos = 0;
  }
  clear_and_trim(batch_.units);
  clear_and_trim(payload_);
}

void Wal::seal_batch() {
  // Everything claimed so far goes in. Each slot's units are in epoch order,
  // so the next epoch is always at the head of some slot — unless its
  // publisher has claimed it and not appended yet (a hole, a few
  // instructions wide unless that thread was preempted): re-drain and wait.
  const std::uint64_t target = claimed_epoch();
  batch_.units.clear();
  batch_.records = 0;
  batch_.first_epoch = sealed_epoch_ + 1;
  Backoff backoff;
  while (sealed_epoch_ < target) {
    if (!seal_unit(sealed_epoch_ + 1)) {
      drain_slots();
      if (!seal_unit(sealed_epoch_ + 1)) {
        backoff.pause();
        continue;
      }
    }
    ++sealed_epoch_;
  }
  batch_.last_epoch = target;
  const std::uint64_t units = target - batch_.first_epoch + 1;
  records_per_unit_ = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, batch_.records / units));
  // Arm the next batch's first-publish kick.
  kick_ns_.store(0, std::memory_order_relaxed);
  kick_at_.store(sealed_epoch_ + 1, std::memory_order_seq_cst);
}

void Wal::write_batch(const Batch& b) {
  // WalSeal gate: crash after sealing, before anything reaches the file —
  // the whole batch (published, possibly relaxed-acked) is lost.
  if (chaos_crash(ChaosPoint::WalSeal)) ::_exit(kWalCrashExitCode);

  // The batch is split into frames: each frame becomes one on-disk batch,
  // capped so header+payload fits a segment's data budget (a single
  // oversized transaction still gets a frame of its own). Rotation thereby
  // interleaves with a large batch instead of waiting for the next one.
  // The single fsync at the end covers every frame — rotate_segment fsyncs
  // the outgoing segment before switching, so no frame is left uncovered.
  const std::size_t seg_budget =
      opts_.segment_bytes > kSegHeaderSize + kBatchHeaderSize
          ? opts_.segment_bytes - kSegHeaderSize - kBatchHeaderSize
          : 0;

  std::vector<std::uint8_t>& payload = payload_;
  std::vector<std::uint8_t>& header = header_;
  payload.clear();
  std::uint64_t frame_first = 0;
  std::uint64_t frame_last = 0;
  std::uint32_t frame_records = 0;
  std::uint64_t seen_streams = 0;

  const auto emit_frame = [&]() -> bool {
    header.clear();
    put_u32(header, kBatchMagic);
    put_u32(header, frame_records);
    put_u64(header, payload.size());
    put_u64(header, frame_first);
    put_u64(header, frame_last);
    put_u32(header, crc32(payload.data(), payload.size()));
    put_u32(header, crc32(header.data(), header.size()));

    // Keep frames whole within a segment: rotate first if this one would
    // push the segment past its limit (and it holds at least one frame).
    if (seg_bytes_ > kSegHeaderSize &&
        seg_bytes_ + header.size() + payload.size() > opts_.segment_bytes) {
      if (!rotate_segment()) return false;  // failed -> fail-stop
    }

    // WalAppend gate: a crash draw *tears* the append — a prefix of the
    // frame reaches the file before the kill, which is exactly the torn
    // tail the recovery checksums must detect and truncate.
    if (chaos_crash(ChaosPoint::WalAppend)) {
      (void)full_write_raw(fd_.get(), header.data(), header.size());
      (void)full_write_raw(fd_.get(), payload.data(), payload.size() / 2);
      ::_exit(kWalCrashExitCode);
    }
    if (!write_all(fd_.get(), header.data(), header.size(), seg_path_) ||
        !write_all(fd_.get(), payload.data(), payload.size(), seg_path_)) {
      return false;
    }
    seg_bytes_ += header.size() + payload.size();
    if (seg_first_epoch_ == 0) seg_first_epoch_ = frame_first;
    seg_last_epoch_ = frame_last;
    n_records_.fetch_add(frame_records, std::memory_order_relaxed);
    n_bytes_.fetch_add(payload.size(), std::memory_order_relaxed);
    n_batches_.fetch_add(1, std::memory_order_relaxed);
    payload.clear();
    frame_records = 0;
    return true;
  };

  for (const UnitRef& u : b.units) {
    const std::uint8_t* p = drained_[u.slot].units.data() + u.offset;
    const std::uint64_t epoch = get_u64(p);
    const std::uint32_t records = get_u32(p + 8);
    const std::uint32_t nbytes = get_u32(p + 12);
    p += 16;
    // Units (transactions) never split across frames, so the sealed
    // first/last epochs of consecutive frames stay dense.
    const std::size_t expanded = nbytes + std::size_t{records} * 12;
    if (frame_records > 0 && seg_budget > 0 &&
        payload.size() + expanded > seg_budget) {
      if (!emit_frame()) return;  // batch tail dropped on fail-stop
    }
    if (frame_records == 0) frame_first = epoch;
    frame_last = epoch;
    frame_records += records;
    const std::uint8_t* const unit_end = p + nbytes;
    while (p < unit_end) {
      const std::uint32_t stream = get_u32(p);
      const std::uint32_t len = get_u32(p + 4);
      p += 8;
      if (stream != kVarStream) seen_streams |= stream_bit(stream);
      put_u64(payload, epoch);
      put_u32(payload, stream);
      put_u32(payload, len);
      put_u32(payload, crc32(p, len));
      payload.insert(payload.end(), p, p + len);
      p += len;
    }
  }
  if (seen_streams != 0) {
    stream_mask_.fetch_or(seen_streams, std::memory_order_relaxed);
  }
  if (frame_records > 0 && !emit_frame()) return;

  // WalFsync gate: crash after the write, before the fsync — the batch sits
  // in the page cache; relaxed acks may be lost, strict acks were never
  // given (durable_epoch has not covered them).
  if (chaos_crash(ChaosPoint::WalFsync)) ::_exit(kWalCrashExitCode);
  // fsync never consults the error policy: after a failed fsync the kernel
  // may have discarded the dirty pages, so a retried fsync that "succeeds"
  // would certify data that never reached the platter (fsyncgate).
  if (fs_->fsync(fd_.get()) != 0) {
    fail("fsync", errno, seg_path_);
    return;
  }

  n_fsyncs_.fetch_add(1, std::memory_order_relaxed);
  durable_epoch_.store(b.last_epoch, std::memory_order_release);
  durable_ec_.notify_all();
}

bool Wal::rotate_segment() {
  const std::uint32_t next = seg_index_ + 1;
  const std::string final_path = opts_.dir + "/" + seg_name(next);
  const std::string tmp_path = final_path + ".tmp";
  common::UniqueFd nfd;
  for (unsigned attempts = 0;;) {
    nfd.reset(fs_->open(tmp_path.c_str(),
                        O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644));
    if (nfd) break;
    const int err = errno;
    if (err == EINTR) continue;
    if (classify(err) == WalErrorPolicy::Retry && attempts < opts_.retry_limit) {
      n_retries_.fetch_add(1, std::memory_order_relaxed);
      retry_backoff_sleep(attempts++);
      continue;
    }
    fail("open", err, tmp_path);
    return false;
  }
  std::vector<std::uint8_t> h;
  seg_header_bytes(h, next);
  if (!write_all(nfd.get(), h.data(), h.size(), tmp_path)) return false;
  if (fs_->fsync(nfd.get()) != 0) {  // always fatal — see write_batch
    fail("fsync", errno, tmp_path);
    return false;
  }
  // WalRotate gate: crash between creating the tmp segment and renaming it
  // into place — recovery must discard the orphaned .tmp and keep reading
  // the old tail segment.
  if (chaos_crash(ChaosPoint::WalRotate)) ::_exit(kWalCrashExitCode);
  for (unsigned attempts = 0;;) {
    if (fs_->rename(tmp_path.c_str(), final_path.c_str()) == 0) break;
    const int err = errno;
    if (classify(err) == WalErrorPolicy::Retry && attempts < opts_.retry_limit) {
      n_retries_.fetch_add(1, std::memory_order_relaxed);
      retry_backoff_sleep(attempts++);
      continue;
    }
    fail("rename", err, tmp_path);
    return false;
  }
  if (dir_fd_) fs_->fsync(dir_fd_.get());
  // Seal the outgoing segment: make it durable (fsync — always fatal on
  // error) and record its epoch range so checkpoint retirement knows
  // exactly what the file holds.
  if (fs_->fsync(fd_.get()) != 0) {
    fail("fsync", errno, seg_path_);
    return false;
  }
  {
    std::lock_guard<std::mutex> lk(seg_mu_);
    sealed_.push_back({seg_index_, seg_first_epoch_, seg_last_epoch_});
  }
  fd_ = std::move(nfd);
  seg_index_ = next;
  seg_path_ = final_path;
  seg_bytes_ = h.size();
  seg_first_epoch_ = 0;
  seg_last_epoch_ = 0;
  n_rotations_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint32_t Wal::retire_segments(std::uint64_t covered_epoch) {
  std::vector<WalSegmentDetail> gone;
  {
    std::lock_guard<std::mutex> lk(seg_mu_);
    std::vector<WalSegmentDetail> keep;
    keep.reserve(sealed_.size());
    for (const WalSegmentDetail& s : sealed_) {
      // A sealed segment is subsumed once every epoch it holds is covered;
      // empty sealed segments (an earlier run's fresh file) hold nothing
      // and go with any checkpoint.
      (s.last_epoch <= covered_epoch ? gone : keep).push_back(s);
    }
    if (gone.empty()) return 0;
    sealed_.swap(keep);
  }
  // Oldest first: a crash mid-retirement leaves a removed *prefix*, so the
  // survivors still chain densely from the checkpoint's covering epoch.
  std::uint32_t n = 0;
  for (const WalSegmentDetail& s : gone) {
    const std::string path = opts_.dir + "/" + seg_name(s.index);
    if (fs_->unlink(path.c_str()) == 0) ++n;
  }
  n_segments_retired_.fetch_add(n, std::memory_order_relaxed);
  return n;
}

// ---------------------------------------------------------------------------
// Recovery

WalRecoveryInfo Wal::recover(
    const std::string& dir,
    const std::function<void(const WalRecordView&)>& handler) {
  WalRecoveryInfo info;
  std::error_code ec;
  std::vector<std::pair<std::uint32_t, std::string>> segs;
  std::vector<std::pair<std::uint64_t, std::string>> ckpts;
  for (const auto& ent : fs::directory_iterator(dir, ec)) {
    const std::string name = ent.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // Half-finished rotation or checkpoint: the renamed form never
      // existed, nothing in it was ever relied on. Discard.
      std::error_code rm_ec;
      fs::remove(ent.path(), rm_ec);
      ++info.skipped_tmp;
      continue;
    }
    std::uint32_t idx;
    std::uint64_t cep;
    if (parse_seg_name(name, idx)) {
      segs.emplace_back(idx, ent.path().string());
    } else if (parse_ckpt_name(name, cep)) {
      ckpts.emplace_back(cep, ent.path().string());
    }
  }
  if (ec) return info;  // missing/unreadable directory == empty log
  std::sort(segs.begin(), segs.end());
  std::sort(ckpts.begin(), ckpts.end());

  // Newest CRC-valid checkpoint wins; corrupt ones (bit rot — the write
  // protocol never renames a torn file into place) fall back to the next
  // retained one. Its records are state *at* the covering epoch; the
  // segment scan below anchors on that epoch and skips what it subsumes.
  CkptLoaded ckpt;
  for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {
    if (load_checkpoint(it->second, it->first, ckpt)) break;
    ckpt = CkptLoaded{};
    ++info.corrupt_checkpoints;
  }
  const std::uint64_t cep = ckpt.epoch;
  if (cep > 0) {
    info.checkpoint_epoch = cep;
    std::size_t pos = kCkptHeaderSize;
    while (pos < ckpt.buf.size()) {
      const std::uint32_t stream = get_u32(ckpt.buf.data() + pos);
      const std::uint32_t len = get_u32(ckpt.buf.data() + pos + 4);
      pos += 8;
      if (stream != kVarStream) info.stream_mask |= stream_bit(stream);
      if (handler) {
        handler(WalRecordView{cep, stream, ckpt.buf.data() + pos, len, true});
      }
      ++info.checkpoint_records;
      pos += len;
    }
  }

  std::uint64_t expected = 0;  // 0 = not yet anchored in the segment chain
  std::vector<std::uint8_t> buf;
  std::vector<WalRecordView> views;
  for (const auto& [idx, path] : segs) {
    if (info.torn_tail) break;  // nothing after a torn point is trustworthy
    if (!read_file(path, buf)) {
      info.torn_tail = true;
      break;
    }
    const auto torn_at = [&](std::size_t off) {
      info.torn_tail = true;
      info.truncated_bytes += buf.size() - off;
      (void)::truncate(path.c_str(), static_cast<off_t>(off));
    };
    if (buf.size() < kSegHeaderSize || get_u64(buf.data()) != kSegMagic ||
        get_u32(buf.data() + 8) != kSegVersion ||
        get_u32(buf.data() + 16) != crc32(buf.data(), 16)) {
      torn_at(0);
      break;
    }
    ++info.segments;
    WalSegmentDetail det{idx, 0, 0};
    std::size_t pos = kSegHeaderSize;
    while (pos < buf.size()) {
      const std::size_t batch_start = pos;
      if (buf.size() - pos < kBatchHeaderSize) {
        torn_at(batch_start);
        break;
      }
      const std::uint32_t magic = get_u32(buf.data() + pos);
      const std::uint32_t n_records = get_u32(buf.data() + pos + 4);
      const std::uint64_t payload_len = get_u64(buf.data() + pos + 8);
      const std::uint64_t first_epoch = get_u64(buf.data() + pos + 16);
      const std::uint64_t last_epoch = get_u64(buf.data() + pos + 24);
      const std::uint32_t payload_crc = get_u32(buf.data() + pos + 32);
      const std::uint32_t header_crc = get_u32(buf.data() + pos + 36);
      if (magic != kBatchMagic || header_crc != crc32(buf.data() + pos, 36) ||
          payload_len > buf.size() - pos - kBatchHeaderSize) {
        torn_at(batch_start);
        break;
      }
      pos += kBatchHeaderSize;
      if (payload_crc != crc32(buf.data() + pos, payload_len)) {
        torn_at(batch_start);
        break;
      }
      // Validate the sealed payload record by record before delivering any
      // of it: bounds, per-record CRC, and epoch density (each record's
      // epoch is the previous unit's or exactly one past it, anchored at
      // the batch header's sealed first/last epochs). The *first* surviving
      // batch anchors the chain: with no checkpoint it must start at epoch
      // 1; with one, at most one past the covering epoch (retirement only
      // removes a prefix, so a farther start means lost history — torn).
      views.clear();
      const std::size_t payload_end = pos + payload_len;
      std::uint64_t unit_epoch = first_epoch;
      bool valid = last_epoch >= first_epoch &&
                   (expected != 0 ? first_epoch == expected
                                  : first_epoch >= 1 && first_epoch <= cep + 1);
      std::size_t rp = pos;
      while (valid && rp < payload_end) {
        if (payload_end - rp < kRecHeaderSize) {
          valid = false;
          break;
        }
        const std::uint64_t epoch = get_u64(buf.data() + rp);
        const std::uint32_t stream = get_u32(buf.data() + rp + 8);
        const std::uint32_t len = get_u32(buf.data() + rp + 12);
        const std::uint32_t rec_crc = get_u32(buf.data() + rp + 16);
        rp += kRecHeaderSize;
        if (len > payload_end - rp || rec_crc != crc32(buf.data() + rp, len) ||
            (epoch != unit_epoch && epoch != unit_epoch + 1) ||
            epoch > last_epoch) {
          valid = false;
          break;
        }
        unit_epoch = epoch;
        if (stream != kVarStream) info.stream_mask |= stream_bit(stream);
        if (epoch > cep) {
          views.push_back(WalRecordView{epoch, stream, buf.data() + rp, len});
        } else {
          // The checkpoint already carries this record's effect (state at
          // cep); delivering it after the checkpoint records would replay
          // an operation twice. Happens when a crash hit between the
          // checkpoint rename and segment retirement.
          ++info.skipped_records;
        }
        rp += len;
      }
      if (!valid || unit_epoch != last_epoch) {
        torn_at(batch_start);
        break;
      }
      if (handler) {
        for (const WalRecordView& v : views) handler(v);
      }
      info.records += views.size();
      (void)n_records;
      if (det.first_epoch == 0) det.first_epoch = first_epoch;
      det.last_epoch = last_epoch;
      expected = last_epoch + 1;
      pos = payload_end;
    }
    info.segment_details.push_back(det);
  }
  info.last_epoch = std::max(cep, expected == 0 ? 0 : expected - 1);
  return info;
}

WalRecoveryInfo Wal::replay_into(
    const std::function<void(const WalRecordView&)>& handler) {
  // Registration takes `const VarBase&` because the commit path only reads
  // the directory; warm restart is a quiescent mutation by the owner, so
  // the cast back is sound by the replay_into contract.
  std::unordered_map<std::uint64_t, VarBase*> by_id;
  by_id.reserve(var_ids_.size());
  for (const auto& [var, id] : var_ids_) {
    by_id.emplace(id, const_cast<VarBase*>(var));
  }
  return recover(opts_.dir, [&](const WalRecordView& v) {
    std::uint64_t id;
    const std::uint8_t* value;
    std::uint32_t size;
    if (decode_var_record(v, id, value, size)) {
      const auto it = by_id.find(id);
      if (it != by_id.end() && it->second->unsafe_restore(value, size)) return;
    }
    if (handler) handler(v);
  });
}

}  // namespace proust::stm
