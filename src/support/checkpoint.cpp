#include "support/checkpoint.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/check.h"
#include "support/json.h"
#include "support/metrics.h"
#include "support/retry.h"
#include "support/trace.h"

namespace ethsm::support {

namespace fs = std::filesystem;

namespace {

/// Write-only observability tap over the checkpoint store: append volume
/// and latency, import merges, and record reads. Compiled out under
/// ETHSM_METRICS=OFF.
struct CheckpointMetrics {
  metrics::Counter& appends;
  metrics::Counter& append_bytes;
  metrics::Histogram& append_seconds;
  metrics::Counter& imported_records;
  metrics::Counter& imported_bytes;
  metrics::Counter& read_records;
  metrics::Counter& read_bytes;

  static CheckpointMetrics& instance() {
    auto& reg = metrics::registry();
    static CheckpointMetrics m{
        reg.counter("ethsm_checkpoint_appends_total",
                    "Records appended to checkpoint files"),
        reg.counter("ethsm_checkpoint_append_bytes_total",
                    "Bytes written by checkpoint appends (incl. framing)"),
        reg.histogram("ethsm_checkpoint_append_seconds",
                      metrics::Histogram::latency_bounds_seconds(),
                      "Latency of single checkpoint appends (open to flush)"),
        reg.counter("ethsm_checkpoint_imported_records_total",
                    "Records merged in via import_directory"),
        reg.counter("ethsm_checkpoint_imported_bytes_total",
                    "Payload bytes merged in via import_directory"),
        reg.counter("ethsm_checkpoint_read_records_total",
                    "Records read back via read_checkpoint_records"),
        reg.counter("ethsm_checkpoint_read_bytes_total",
                    "Payload bytes read back via read_checkpoint_records"),
    };
    return m;
  }
};

}  // namespace

// ---------------------------------------------------------------- sharding --

std::optional<ShardSpec> parse_shard(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const std::string_view k_text = text.substr(0, slash);
  const std::string_view n_text = text.substr(slash + 1);
  std::uint32_t k = 0;
  std::uint32_t n = 0;
  const auto k_result =
      std::from_chars(k_text.data(), k_text.data() + k_text.size(), k);
  const auto n_result =
      std::from_chars(n_text.data(), n_text.data() + n_text.size(), n);
  if (k_result.ec != std::errc() || k_result.ptr != k_text.data() + k_text.size())
    return std::nullopt;
  if (n_result.ec != std::errc() || n_result.ptr != n_text.data() + n_text.size())
    return std::nullopt;
  if (n == 0 || k >= n) return std::nullopt;
  return ShardSpec{k, n};
}

// ------------------------------------------------------------ fingerprints --

namespace {

/// SplitMix64 finalizer, the same mixer rng.h builds on.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Fingerprint& Fingerprint::mix(std::uint64_t v) noexcept {
  state_ = mix64(state_ + 0x9e3779b97f4a7c15ULL + v);
  return *this;
}

Fingerprint& Fingerprint::mix(double v) noexcept {
  return mix(std::bit_cast<std::uint64_t>(v));
}

Fingerprint& Fingerprint::mix(std::string_view text) noexcept {
  mix(static_cast<std::uint64_t>(text.size()));
  return mix_bytes(reinterpret_cast<const std::byte*>(text.data()),
                   text.size());
}

Fingerprint& Fingerprint::mix_bytes(const std::byte* data,
                                    std::size_t size) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    mix(word);
  }
  if (i < size) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, size - i);
    mix(word);
  }
  return *this;
}

// ------------------------------------------------------- payload (de)coding --

namespace {

template <typename T>
void put_raw(std::vector<std::byte>& buffer, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t offset = buffer.size();
  buffer.resize(offset + sizeof(T));
  std::memcpy(buffer.data() + offset, &value, sizeof(T));
}

}  // namespace

void ByteWriter::u32(std::uint32_t v) { put_raw(buffer_, v); }
void ByteWriter::u64(std::uint64_t v) { put_raw(buffer_, v); }
void ByteWriter::f64(double v) {
  put_raw(buffer_, std::bit_cast<std::uint64_t>(v));
}

void ByteWriter::f64_vec(const std::vector<double>& v) {
  u64(v.size());
  for (double x : v) f64(x);
}

void ByteWriter::u64_vec(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  for (std::uint64_t x : v) u64(x);
}

void ByteReader::take(void* out, std::size_t n) {
  if (cursor_ + n > size_) {
    throw std::runtime_error(
        "checkpoint payload underrun: record shorter than its codec expects");
  }
  std::memcpy(out, data_ + cursor_, n);
  cursor_ += n;
}

std::uint32_t ByteReader::u32() {
  std::uint32_t v = 0;
  take(&v, sizeof v);
  return v;
}

std::uint64_t ByteReader::u64() {
  std::uint64_t v = 0;
  take(&v, sizeof v);
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::vector<double> ByteReader::f64_vec() {
  const std::uint64_t n = u64();
  if (n > size_ / sizeof(double)) {
    throw std::runtime_error("checkpoint payload underrun: vector too long");
  }
  std::vector<double> v(n);
  for (auto& x : v) x = f64();
  return v;
}

std::vector<std::uint64_t> ByteReader::u64_vec() {
  const std::uint64_t n = u64();
  if (n > size_ / sizeof(std::uint64_t)) {
    throw std::runtime_error("checkpoint payload underrun: vector too long");
  }
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = u64();
  return v;
}

void CheckpointCodec<Histogram>::encode(ByteWriter& w, const Histogram& h) {
  w.u64(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) w.u64(h.at(i));
  w.u64(h.overflow());
}

Histogram CheckpointCodec<Histogram>::decode(ByteReader& r) {
  const std::uint64_t size = r.u64();
  if (size == 0 || size > (1ULL << 24)) {
    throw std::runtime_error("checkpoint payload: implausible histogram size");
  }
  Histogram h(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    h.add(static_cast<std::size_t>(i), r.u64());
  }
  h.add(static_cast<std::size_t>(size), r.u64());  // out of range -> overflow
  return h;
}

// ------------------------------------------------------------------- store --

namespace {

constexpr const char* kFileExtension = ".ethsmck";

std::uint64_t record_checksum(std::uint64_t job,
                              const std::byte* payload, std::size_t size) {
  Fingerprint fp;
  fp.mix(std::uint64_t{0xC5ECC5ECULL});  // domain separation from sweep fps
  fp.mix(job);
  fp.mix(static_cast<std::uint64_t>(size));
  fp.mix_bytes(payload, size);
  return fp.digest();
}

template <typename T>
bool read_raw(std::ifstream& in, T& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  return static_cast<bool>(in.read(reinterpret_cast<char*>(&out), sizeof(T)));
}

template <typename T>
void append_raw(std::string& buffer, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  buffer.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Outcome of walking one checkpoint file's header + records.
struct FileWalk {
  bool header_ok = false;         ///< magic/version matched
  std::uint64_t fingerprint = 0;  ///< header fingerprint (valid iff header_ok)
  std::uint64_t valid_end = 0;    ///< byte offset after the last valid record
  std::size_t records = 0;        ///< checksum-valid records seen
};

/// Shared record walk of CheckpointStore::load, scan_checkpoint_directory and
/// read_checkpoint_records: reads records until the first truncated,
/// over-long or checksum-corrupted one. When `expected_fingerprint` is set
/// and the header names a different sweep, the walk stops after the header
/// (header_ok stays true; the caller decides whether foreign files matter).
/// Torn-tail safety rests here: a record the writer has not fully flushed
/// fails the length bound or the trailing checksum and terminates the walk,
/// so concurrent readers observe a valid record prefix, never torn data.
template <typename Sink>  // void(std::uint64_t job, std::vector<std::byte>&&)
FileWalk walk_checkpoint_file(const std::string& path,
                              const std::optional<std::uint64_t>&
                                  expected_fingerprint,
                              Sink&& sink) {
  FileWalk walk;
  std::ifstream in(path, std::ios::binary);
  if (!in) return walk;
  std::error_code size_ec;
  const std::uint64_t file_bytes = fs::file_size(path, size_ec);
  if (size_ec) return walk;

  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t reserved = 0;
  std::uint64_t file_fingerprint = 0;
  if (!read_raw(in, magic) || !read_raw(in, version) ||
      !read_raw(in, reserved) || !read_raw(in, file_fingerprint)) {
    return walk;  // too short to even hold a header
  }
  if (magic != CheckpointStore::kMagic ||
      version != CheckpointStore::kFormatVersion) {
    return walk;  // foreign file: ignore wholesale
  }
  walk.header_ok = true;
  walk.fingerprint = file_fingerprint;
  walk.valid_end = sizeof magic + sizeof version + sizeof reserved +
                   sizeof file_fingerprint;
  if (expected_fingerprint && file_fingerprint != *expected_fingerprint) {
    return walk;  // stale sweep: header fine, records are not ours
  }

  for (;;) {
    std::uint64_t job = 0;
    std::uint64_t size = 0;
    if (!read_raw(in, job) || !read_raw(in, size)) break;  // truncated tail
    // A corrupted size field must not drive the allocation below: the
    // payload + checksum cannot extend past the end of the file.
    const std::uint64_t record_data_start =
        walk.valid_end + sizeof job + sizeof size;
    if (size > file_bytes ||
        record_data_start + size + sizeof(std::uint64_t) > file_bytes) {
      break;
    }
    std::vector<std::byte> payload(size);
    if (!in.read(reinterpret_cast<char*>(payload.data()),
                 static_cast<std::streamsize>(size))) {
      break;
    }
    std::uint64_t checksum = 0;
    if (!read_raw(in, checksum)) break;
    if (checksum != record_checksum(job, payload.data(), payload.size())) {
      break;  // corruption: stop trusting this file from here on
    }
    sink(job, std::move(payload));
    ++walk.records;
    walk.valid_end += sizeof job + sizeof size + size + sizeof checksum;
  }
  return walk;
}

/// Sorted *.ethsmck paths under `directory` (deterministic merge order).
std::vector<std::string> checkpoint_files_in(const std::string& directory) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() == kFileExtension) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string directory,
                                 std::uint64_t fingerprint, ShardSpec shard)
    : directory_(std::move(directory)),
      fingerprint_(fingerprint),
      shard_(shard) {
  trace::Span span("checkpoint.load");  // one clock pair per load
  ETHSM_EXPECTS(!directory_.empty(), "checkpoint directory must be non-empty");
  // Missing parents are created, not reported: `--checkpoint-dir a/b/c` on a
  // fresh machine should just work. Only a real filesystem refusal (EROFS,
  // EACCES, a file in the way) fails, and then with the OS reason, not a
  // bare stream-open error further down. Creation retries with backoff so a
  // transient hiccup (network filesystems) does not abort a long sweep.
  retry(RetryPolicy{}, [this] {
    std::error_code create_ec;
    fs::create_directories(directory_, create_ec);
    ETHSM_EXPECTS(!create_ec, "cannot create checkpoint directory " +
                                  directory_ + ": " + create_ec.message());
  });
  // Merge every readable matching file: this process's earlier attempts plus
  // any other shard's output dropped into the same directory.
  for (const auto& path : checkpoint_files_in(directory_)) {
    const std::uint64_t valid_bytes = load_file(path);
    if (path == own_file_path()) {
      // This process appends to its own file: drop any truncated/corrupt tail
      // a previous interrupted run left behind, so new records stay readable.
      // valid_bytes == 0 (a torn or foreign header) truncates to empty, which
      // makes the next append() rewrite a fresh header instead of landing
      // records after garbage forever.
      std::error_code resize_ec;
      if (fs::file_size(path, resize_ec) != valid_bytes && !resize_ec) {
        fs::resize_file(path, valid_bytes, resize_ec);
      }
    }
  }
}

std::string CheckpointStore::own_file_path() const {
  std::ostringstream name;
  name << "sweep-" << hex64(fingerprint_) << "-shard" << shard_.index << "of"
       << shard_.count << kFileExtension;
  return (fs::path(directory_) / name.str()).string();
}

std::uint64_t CheckpointStore::load_file(const std::string& path) {
  const FileWalk walk = walk_checkpoint_file(
      path, fingerprint_, [this](std::uint64_t job,
                                 std::vector<std::byte>&& payload) {
        records_[job] = std::move(payload);
      });
  if (!walk.header_ok || walk.fingerprint != fingerprint_) {
    return 0;  // stale sweep / foreign file: ignore wholesale
  }
  return walk.valid_end;
}

const std::vector<std::byte>& CheckpointStore::payload(
    std::uint64_t job) const {
  const auto it = records_.find(job);
  ETHSM_EXPECTS(it != records_.end(), "no checkpoint record for job");
  return it->second;
}

void CheckpointStore::append(std::uint64_t job,
                             const std::vector<std::byte>& payload) {
  const std::lock_guard<std::mutex> lock(append_mutex_);
  append_locked(job, payload);
}

std::size_t CheckpointStore::import_directory(
    const std::string& source_directory) {
  // The source walk is the read-only merge `ethsm serve` uses for progress
  // reads: foreign fingerprints are skipped at the header, a torn tail is
  // simply absent. Appends then go through this store's ordinary single-
  // buffered-write path, so readers of *this* directory keep their
  // valid-prefix guarantee while an orchestrator imports worker results.
  std::size_t imported = 0;
  for (const auto& [job, payload] :
       read_checkpoint_records(source_directory, fingerprint_)) {
    const std::lock_guard<std::mutex> lock(append_mutex_);
    if (records_.count(job) != 0) continue;  // idempotent re-sync
    append_locked(job, payload);
    if constexpr (metrics::kEnabled) {
      CheckpointMetrics& m = CheckpointMetrics::instance();
      m.imported_records.add();
      m.imported_bytes.add(payload.size());
    }
    ++imported;
  }
  return imported;
}

void CheckpointStore::append_locked(std::uint64_t job,
                                    const std::vector<std::byte>& payload) {
  std::chrono::steady_clock::time_point append_start;
  if constexpr (metrics::kEnabled) {
    append_start = std::chrono::steady_clock::now();
  }
  const std::string path = own_file_path();
  const bool fresh = !fs::exists(path) || fs::file_size(path) == 0;
  // Opening retries with backoff (transient EMFILE/network-storage blips);
  // a record lost to a genuinely dead disk still surfaces the final error.
  std::ofstream out = retry(RetryPolicy{}, [&path] {
    std::ofstream stream(path, std::ios::binary | std::ios::app);
    ETHSM_ENSURES(static_cast<bool>(stream),
                  "cannot open checkpoint file " + path);
    return stream;
  });
  // The whole append is staged into one buffer and handed to the stream as a
  // single write: concurrent readers of the same sweep then race against at
  // most one partially-flushed record, which their checksum walk rejects
  // (the writer/reader contract in checkpoint.h).
  std::string buffer;
  buffer.reserve(payload.size() + 64);
  if (fresh) {
    append_raw(buffer, kMagic);
    append_raw(buffer, kFormatVersion);
    append_raw(buffer, std::uint32_t{0});
    append_raw(buffer, fingerprint_);
  }
  append_raw(buffer, job);
  append_raw(buffer, static_cast<std::uint64_t>(payload.size()));
  buffer.append(reinterpret_cast<const char*>(payload.data()),
                payload.size());
  append_raw(buffer, record_checksum(job, payload.data(), payload.size()));
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  out.flush();
  ETHSM_ENSURES(static_cast<bool>(out),
                "short write to checkpoint file " + path);

  if constexpr (metrics::kEnabled) {
    CheckpointMetrics& m = CheckpointMetrics::instance();
    m.appends.add();
    m.append_bytes.add(buffer.size());
    m.append_seconds.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      append_start)
            .count());
  }

  records_[job] = payload;
}

// ------------------------------------------------------ directory scanning --

std::vector<CheckpointFileInfo> scan_checkpoint_directory(
    const std::string& directory) {
  std::vector<CheckpointFileInfo> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != kFileExtension) continue;

    CheckpointFileInfo info;
    info.path = entry.path().string();
    std::error_code size_ec;
    info.bytes = fs::file_size(entry.path(), size_ec);
    if (size_ec) info.bytes = 0;

    // Same record walk as CheckpointStore::load_file: stop at the first
    // truncated or checksum-corrupted record.
    const FileWalk walk = walk_checkpoint_file(
        info.path, std::nullopt,
        [](std::uint64_t, std::vector<std::byte>&&) {});
    info.readable = walk.header_ok;
    info.fingerprint = walk.fingerprint;
    info.records = walk.records;
    files.push_back(std::move(info));
  }
  std::sort(files.begin(), files.end(),
            [](const CheckpointFileInfo& a, const CheckpointFileInfo& b) {
              return a.path < b.path;
            });
  return files;
}

std::map<std::uint64_t, std::vector<std::byte>> read_checkpoint_records(
    const std::string& directory, std::uint64_t fingerprint) {
  trace::Span span("checkpoint.load");  // one clock pair per load
  std::map<std::uint64_t, std::vector<std::byte>> records;
  for (const auto& path : checkpoint_files_in(directory)) {
    walk_checkpoint_file(path, fingerprint,
                         [&records](std::uint64_t job,
                                    std::vector<std::byte>&& payload) {
                           if constexpr (metrics::kEnabled) {
                             CheckpointMetrics& m =
                                 CheckpointMetrics::instance();
                             m.read_records.add();
                             m.read_bytes.add(payload.size());
                           }
                           records[job] = std::move(payload);
                         });
  }
  return records;
}

std::string describe(const SweepCheckpoint& checkpoint,
                     const SweepOutcome& outcome) {
  std::ostringstream os;
  os << "checkpoint: " << outcome.loaded << " loaded + " << outcome.computed
     << " computed of " << outcome.jobs_total << " jobs";
  if (!checkpoint.shard.is_whole_sweep()) {
    os << " (shard " << checkpoint.shard.index << "/"
       << checkpoint.shard.count << ")";
  }
  if (outcome.skipped > 0) {
    os << "; " << outcome.skipped
       << " left for other shards or a later resume";
  }
  os << " [dir: " << checkpoint.directory << "]";
  return os.str();
}

}  // namespace ethsm::support
