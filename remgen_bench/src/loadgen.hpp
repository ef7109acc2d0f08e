// Load generation against a net::Server on loopback, from one client
// thread. Open loop: request i is due at start + i / rate whatever the
// server does, and its latency runs from that due time to its last response
// byte, so a stall shows up in every request queued behind it. Closed loop:
// a fixed window of requests stays unanswered, for throughput.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bench {

/// What one run observed.
struct LoadResult {
  std::size_t sent = 0;
  std::size_t failed = 0;          ///< ok:false replies (503 overloads included) + dropped.
  std::size_t dropped = 0;         ///< No reply before the drain deadline.
  std::size_t backlog_at_end = 0;  ///< Open loop: unanswered when the last request was due.
  bool aborted = false;            ///< Open loop: sending stopped at max_outstanding.
  double seconds = 0.0;            ///< Closed loop: first send to last reply.
  std::vector<double> latency_us;  ///< Due (open loop) or send (closed loop) time to
                                   ///< last byte, successful requests.
  std::vector<double> late_us;     ///< Open loop: how late each request was sent.
  /// Every `sample_every`-th request with its response line, for byte checks.
  std::vector<std::pair<std::size_t, std::string>> samples;
};

/// Sends `requests` (JSONL without newline; ids must be 1, 2, ...) at `rate`
/// per second round-robin over three connections, then waits up to 10 s for
/// the stragglers, spinning on the connections all the while. Sending ends
/// early once `stop` (when given) is set, or with `max_outstanding` (when
/// non-zero) requests unanswered. With tracing on and a `parent` span,
/// records one "net.request" span per request under it.
[[nodiscard]] LoadResult run_open_loop(std::uint16_t port, const std::vector<std::string>& requests,
                                       double rate, std::size_t sample_every,
                                       std::uint64_t parent,
                                       const std::atomic<bool>* stop = nullptr,
                                       std::size_t max_outstanding = 0);

/// Sends `requests` (ids 1, 2, ...) round-robin over three connections,
/// keeping `window` of them unanswered: each reply lets the next request go.
/// Latency runs from a request's send to its last response byte; `seconds`
/// from the first send to the last reply. Gives up 10 s after the last reply.
[[nodiscard]] LoadResult run_closed_loop(std::uint16_t port,
                                         const std::vector<std::string>& requests,
                                         std::size_t window);

/// A blocking line-oriented connection for admin requests ("stats").
class AdminConnection {
 public:
  explicit AdminConnection(std::uint16_t port);
  ~AdminConnection();
  AdminConnection(const AdminConnection&) = delete;
  AdminConnection& operator=(const AdminConnection&) = delete;

  /// Sends one line and returns the next response line ("" on failure).
  [[nodiscard]] std::string request(const std::string& line);

 private:
  int fd_ = -1;
  std::string in_;
};

/// The value at the highest of p (in [0,1]) and the largest quantile that
/// still leaves at least ten samples above it; 0 for an empty input.
[[nodiscard]] double tail_quantile(std::vector<double> values, double p);

}  // namespace bench
