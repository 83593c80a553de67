// Resumable sweep checkpointing (ROADMAP: "sharded sweep checkpointing").
//
// Long sweeps (threshold_curve at tight tolerance, 100+ alpha grids) persist
// per-job results to disk so an interrupted regeneration resumes instead of
// restarting, and so the same job grid can be split across processes
// (--shard k/N) and merged by index afterwards. The job-index determinism
// contract (support/parallel.h) makes both bitwise-exact by construction:
// every job is a pure function of its index, results are serialized as raw
// bit patterns, and aggregation always happens serially in index order over
// the merged result vector.
//
// On-disk format (one file per writing process, little-endian):
//   header:  magic u64 "ETHSMCK1" | format version u32 | reserved u32 |
//            sweep fingerprint u64
//   record:  job index u64 | payload size u64 | payload bytes |
//            checksum u64 over (job index, size, payload)
// Files whose header does not match the current magic/version/fingerprint are
// ignored wholesale (stale sweeps share a directory safely); reading a file
// stops at the first truncated or checksum-corrupted record, so a process
// killed mid-append loses at most its final record. The store loads *every*
// readable file in the directory with a matching fingerprint, which is
// exactly the index-ordered shard merge.

#ifndef ETHSM_SUPPORT_CHECKPOINT_H
#define ETHSM_SUPPORT_CHECKPOINT_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/stats.h"

namespace ethsm::support {

// ---------------------------------------------------------------- sharding --

/// Cross-process shard selection: shard k of N owns job j of the sweep keyed
/// by `fingerprint` when (fingerprint + j) % N == k. The fingerprint offsets
/// each sweep's stripe, so the many sweeps shorter than N still spread over
/// every shard. Ownership is a pure function of the sweep key and index, so
/// merges stay bitwise. The default {0, 1} owns everything.
struct ShardSpec {
  std::uint32_t index = 0;
  std::uint32_t count = 1;

  [[nodiscard]] bool owns(std::uint64_t fingerprint,
                          std::size_t job) const noexcept {
    return (fingerprint + job) % count == index;
  }
  [[nodiscard]] bool is_whole_sweep() const noexcept { return count == 1; }
};

/// Parses "k/N" (0 <= k < N); nullopt on malformed input.
[[nodiscard]] std::optional<ShardSpec> parse_shard(std::string_view text);

// ------------------------------------------------------------ fingerprints --

/// Order-sensitive 64-bit mixer used for sweep fingerprints and record
/// checksums. Doubles are mixed as bit patterns so any numeric change to a
/// sweep's parameters yields a different fingerprint.
class Fingerprint {
 public:
  Fingerprint& mix(std::uint64_t v) noexcept;
  Fingerprint& mix(std::int64_t v) noexcept {
    return mix(static_cast<std::uint64_t>(v));
  }
  Fingerprint& mix(std::uint32_t v) noexcept {
    return mix(static_cast<std::uint64_t>(v));
  }
  Fingerprint& mix(int v) noexcept {
    return mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  Fingerprint& mix(bool v) noexcept {
    return mix(static_cast<std::uint64_t>(v ? 1 : 0));
  }
  Fingerprint& mix(double v) noexcept;
  Fingerprint& mix(std::string_view text) noexcept;
  /// String literals must hash as text, not decay to the bool overload.
  Fingerprint& mix(const char* text) noexcept {
    return mix(std::string_view(text));
  }
  Fingerprint& mix_bytes(const std::byte* data, std::size_t size) noexcept;

  [[nodiscard]] std::uint64_t digest() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0x9d5c'0fb2'ae73'11c5ULL;
};

// ------------------------------------------------------- payload (de)coding --

/// Append-only little-endian byte buffer. Doubles are stored as raw bit
/// patterns, so decode(encode(x)) == x bitwise -- the property the resumed ==
/// fresh guarantee rests on.
class ByteWriter {
 public:
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u32(v ? 1 : 0); }
  void f64_vec(const std::vector<double>& v);
  void u64_vec(const std::vector<std::uint64_t>& v);

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept {
    return buffer_;
  }

 private:
  std::vector<std::byte> buffer_;
};

/// Cursor over a checkpoint payload; throws std::runtime_error on underrun
/// (a record that passed its checksum but does not match the codec layout is
/// a schema bug, not silent corruption).
class ByteReader {
 public:
  ByteReader(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::byte>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] double f64();
  [[nodiscard]] bool boolean() { return u32() != 0; }
  [[nodiscard]] std::vector<double> f64_vec();
  [[nodiscard]] std::vector<std::uint64_t> u64_vec();
  [[nodiscard]] bool exhausted() const noexcept { return cursor_ == size_; }

 private:
  void take(void* out, std::size_t n);

  const std::byte* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
};

/// Per-result-type codec used by run_checkpointed; specialize for every sweep
/// job result. Encoding must be a pure function of the value and must round-
/// trip bitwise (store raw bit patterns, never re-derived quantities).
template <typename T>
struct CheckpointCodec;  // intentionally undefined for unknown types

template <>
struct CheckpointCodec<double> {
  static void encode(ByteWriter& w, double v) { w.f64(v); }
  static double decode(ByteReader& r) { return r.f64(); }
};

template <>
struct CheckpointCodec<std::uint64_t> {
  static void encode(ByteWriter& w, std::uint64_t v) { w.u64(v); }
  static std::uint64_t decode(ByteReader& r) { return r.u64(); }
};

/// Histograms round-trip exactly: integer bucket counts plus the overflow
/// bucket reconstruct total() without loss.
template <>
struct CheckpointCodec<Histogram> {
  static void encode(ByteWriter& w, const Histogram& h);
  static Histogram decode(ByteReader& r);
};

// ------------------------------------------------------------------- store --

/// Persistent (sweep fingerprint, job index) -> payload map backed by the
/// directory described in the header comment. Loading merges every matching
/// file (shards included); appends go to this process's own file and are
/// flushed record-by-record, so a killed process loses at most the record
/// being written. Append is thread-safe (called from pool workers); one store
/// instance must not be shared between processes.
///
/// Writer/reader concurrency contract (relied on by `ethsm serve`, which
/// answers progress reads while a sweep is still appending): every record is
/// written with a single buffered write whose checksum trails the payload, so
/// a reader racing the writer sees either the whole record or a tail that
/// fails the length/checksum walk -- never a torn record presented as data.
/// Concurrent readers must go through read_checkpoint_records /
/// scan_checkpoint_directory (both stop at the first invalid record and never
/// write); constructing a second CheckpointStore for the same (directory,
/// fingerprint, shard) while a writer is live is NOT safe -- the constructor
/// truncates its own file's invalid tail.
class CheckpointStore {
 public:
  /// "ETHSMCK1" as a little-endian u64.
  static constexpr std::uint64_t kMagic = 0x314b'434d'5348'5445ULL;
  static constexpr std::uint32_t kFormatVersion = 1;

  CheckpointStore(std::string directory, std::uint64_t fingerprint,
                  ShardSpec shard = {});

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool contains(std::uint64_t job) const {
    return records_.count(job) != 0;
  }
  [[nodiscard]] const std::vector<std::byte>& payload(std::uint64_t job) const;
  [[nodiscard]] const std::string& directory() const noexcept {
    return directory_;
  }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

  /// Persists one job result; overwrites any in-memory copy. Thread-safe.
  void append(std::uint64_t job, const std::vector<std::byte>& payload);

  /// Read-only merge of a foreign checkpoint directory (a worker's private
  /// store, synced back by `ethsm orchestrate`): every valid record for this
  /// store's fingerprint found under `source_directory` that this store does
  /// not already hold is appended to this store's own file. The source is
  /// never created, truncated or written; files with foreign fingerprints or
  /// corrupt tails contribute exactly their valid matching prefix (the same
  /// walk as read_checkpoint_records), so importing from a worker killed
  /// mid-append recovers everything it completed. Safe while concurrent
  /// readers watch this store's directory (appends keep the one-writer/
  /// many-readers contract); idempotent -- re-importing the same source
  /// appends nothing. Returns the number of records imported. Thread-safe.
  std::size_t import_directory(const std::string& source_directory);

  /// File this process appends to (exposed for tests).
  [[nodiscard]] std::string own_file_path() const;

 private:
  /// Loads one file; returns the byte offset of the end of the last valid
  /// record (0 when the header itself is unusable).
  std::uint64_t load_file(const std::string& path);

  /// The body of append(); the caller must hold append_mutex_.
  void append_locked(std::uint64_t job, const std::vector<std::byte>& payload);

  std::string directory_;
  std::uint64_t fingerprint_;
  ShardSpec shard_;
  std::map<std::uint64_t, std::vector<std::byte>> records_;
  std::mutex append_mutex_;
};

// ------------------------------------------------------ directory scanning --

/// One on-disk checkpoint file as reported by scan_checkpoint_directory
/// (the substrate of `ethsm checkpoint-stats` and its --prune GC).
struct CheckpointFileInfo {
  std::string path;
  std::uint64_t bytes = 0;        ///< on-disk file size
  bool readable = false;          ///< header parsed, magic/version matched
  std::uint64_t fingerprint = 0;  ///< sweep fingerprint (valid iff readable)
  std::size_t records = 0;        ///< checksum-valid records
};

/// Scans every *.ethsmck file in `directory` (non-recursive, sorted by path)
/// and summarizes its header and valid-record count. Unlike CheckpointStore,
/// no fingerprint filter is applied: the scan sees every sweep sharing the
/// directory. Missing directory => empty result.
[[nodiscard]] std::vector<CheckpointFileInfo> scan_checkpoint_directory(
    const std::string& directory);

/// Read-only merge of every valid record for `fingerprint` under `directory`
/// (all shard files, sorted by path; later files win duplicate job indices,
/// matching CheckpointStore's load order). Never creates the directory,
/// never truncates or writes -- safe to call concurrently with one live
/// writer appending to the same sweep: a mid-append tail record simply is
/// not there yet. Missing directory => empty map. This is the progress-read
/// path of `ethsm serve`.
[[nodiscard]] std::map<std::uint64_t, std::vector<std::byte>>
read_checkpoint_records(const std::string& directory,
                        std::uint64_t fingerprint);

// -------------------------------------------------------- sweep-level knobs --

/// Progress accounting for a (possibly resumed / sharded / budgeted) sweep.
struct SweepOutcome {
  std::size_t jobs_total = 0;
  std::size_t loaded = 0;    ///< satisfied from checkpoint records
  std::size_t computed = 0;  ///< freshly executed by this process
  std::size_t skipped = 0;   ///< left to other shards or a later resume

  [[nodiscard]] bool complete() const noexcept {
    return loaded + computed == jobs_total;
  }
  void merge(const SweepOutcome& other) noexcept {
    jobs_total += other.jobs_total;
    loaded += other.loaded;
    computed += other.computed;
    skipped += other.skipped;
  }
};

/// Checkpoint/shard options threaded through the sweep drivers. An empty
/// directory disables persistence entirely (the driver computes every job
/// in-process exactly as before).
struct SweepCheckpoint {
  /// Created on first use, parents included; creation failure raises a
  /// std::invalid_argument naming the directory and the OS reason.
  std::string directory;
  ShardSpec shard;
  /// Upper bound on jobs *computed* by this invocation (resume-interruption
  /// testing and coarse time budgeting); SIZE_MAX = unbounded.
  std::size_t max_new_jobs = static_cast<std::size_t>(-1);

  [[nodiscard]] bool enabled() const noexcept { return !directory.empty(); }
};

/// One-line human-readable resume/shard progress summary.
[[nodiscard]] std::string describe(const SweepCheckpoint& checkpoint,
                                   const SweepOutcome& outcome);

}  // namespace ethsm::support

#endif  // ETHSM_SUPPORT_CHECKPOINT_H
