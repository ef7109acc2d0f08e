// Benchmark-side tracing: spans recorded around the calls the benchmark makes
// into each remgen layer, kept in memory and written out after the run, plus
// a timing decorator around ml::Estimator for the work the library fans out
// onto its pool.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ml/estimator.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

/// Microseconds since the process's first call (main() makes it at start).
[[nodiscard]] double now_us();

/// One closed span. `layer` is the remgen module the call belongs to, or
/// "bench" for the benchmark's own grouping spans.
struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  std::uint64_t trace = 0;   ///< Shared by every span of one request (0 = none).
  std::uint32_t thread = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Process-wide in-memory span store. Off unless enable() was called, in
/// which case a Span costs two clock reads and one locked push.
class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const SpanRecord& span);
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Parent for spans opened on threads with no open span of their own (the
  /// library's pool workers): the benchmark's innermost span around the call
  /// that fanned out.
  void set_worker_parent(std::uint64_t id) { worker_parent_.store(id); }
  [[nodiscard]] std::uint64_t worker_parent() const { return worker_parent_.load(); }

  /// Writes every span as Chrome-trace JSON. Returns false if unwritable.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> worker_parent_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< Guarded by mutex_.
};

/// RAII span. Nests under the thread's innermost open span; inherits its
/// trace id unless one is given.
class Span {
 public:
  Span(const char* name, const char* layer, std::uint64_t trace = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return record_.id; }

 private:
  SpanRecord record_;
  bool active_ = false;
};

/// Wall time attributed to each layer over a set of root spans. At every
/// instant inside a root, the deepest open layer span on any thread owns the
/// time; instants covered by no layer span ("bench" spans only group) are
/// unattributed. The layer times plus
/// the unattributed time add up to the roots' total duration exactly.
struct Attribution {
  std::map<std::string, double> layer_us;
  double unattributed_us = 0.0;
  double total_us = 0.0;
};
[[nodiscard]] Attribution attribute(const std::vector<SpanRecord>& spans,
                                    const std::vector<std::uint64_t>& roots);

/// Timing decorator: forwards to the wrapped estimator and sums fit time,
/// predicted queries and predict busy time across every calling thread.
/// Opens an "ml" span per call when tracing is on.
class TimedEstimator final : public remgen::ml::Estimator {
 public:
  explicit TimedEstimator(std::unique_ptr<remgen::ml::Estimator> inner)
      : inner_(std::move(inner)) {}

  void fit(std::span<const remgen::data::Sample> train) override;
  [[nodiscard]] double predict(const remgen::data::Sample& query) const override;
  void predict_batch(std::span<const remgen::data::Sample> queries,
                     std::span<double> out) const override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  /// Hands back the wrapped estimator (snapshots serialise the real model).
  [[nodiscard]] std::unique_ptr<remgen::ml::Estimator> release() { return std::move(inner_); }

  [[nodiscard]] double fit_s() const { return static_cast<double>(fit_ns_.load()) * 1e-9; }
  [[nodiscard]] std::uint64_t predict_queries() const { return predict_queries_.load(); }
  [[nodiscard]] double predict_busy_s() const {
    return static_cast<double>(predict_busy_ns_.load()) * 1e-9;
  }

 private:
  std::unique_ptr<remgen::ml::Estimator> inner_;
  std::atomic<std::uint64_t> fit_ns_{0};
  mutable std::atomic<std::uint64_t> predict_queries_{0};
  mutable std::atomic<std::uint64_t> predict_busy_ns_{0};
};

}  // namespace bench
