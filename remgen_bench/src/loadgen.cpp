#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <optional>
#include <cmath>
#include <stdexcept>

#include "trace.hpp"

namespace bench {

namespace {

constexpr std::int64_t kFirstId = 1;
constexpr std::size_t kConnections = 3;  ///< Data connections; "stats" uses one more.
constexpr double kDrainS = 10.0;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to the server");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t written = 0;
  std::string in;
};

/// The data connections of one run; closed on every exit path.
struct Conns {
  std::vector<Conn> all;
  explicit Conns(std::size_t n) : all(n) {}
  ~Conns() {
    for (const Conn& c : all) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Conns(const Conns&) = delete;
  Conns& operator=(const Conns&) = delete;
};

bool pump_write(Conn& c) {
  while (c.written < c.out.size()) {
    const ssize_t n =
        ::send(c.fd, c.out.data() + c.written, c.out.size() - c.written, MSG_DONTWAIT);
    if (n > 0) {
      c.written += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return true;
    } else {
      return false;
    }
  }
  c.out.clear();
  c.written = 0;
  return true;
}

/// Reads what is available; appends complete lines. False on error or EOF.
bool pump_read(Conn& c, std::vector<std::string>& lines) {
  char buffer[1 << 16];
  while (true) {
    const ssize_t n = ::recv(c.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n > 0) {
      c.in.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
    return false;
  }
  std::size_t start = 0;
  for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos; start = nl + 1) {
    lines.push_back(c.in.substr(start, nl - start));
  }
  c.in.erase(0, start);
  return true;
}

/// Reads a reply's top-level "id" and "ok" without a full JSON parse, so the
/// single client thread can keep its schedule at tens of thousands of
/// replies per second. Replies are obs::Json dumps with sorted keys: the
/// first "id": and "ok": members are the top-level ones, because no response
/// body nests an object with those keys and a string cannot hold an
/// unescaped quote.
bool scan_reply(const std::string& line, std::int64_t& id, bool& ok) {
  const std::size_t id_at = line.find("\"id\":");
  const std::size_t ok_at = line.find("\"ok\":");
  if (id_at == std::string::npos || ok_at == std::string::npos) return false;
  const char* first = line.data() + id_at + 5;
  const char* last = line.data() + line.size();
  if (std::from_chars(first, last, id).ec != std::errc()) return false;
  ok = line.compare(ok_at + 5, 4, "true") == 0;
  return ok || line.compare(ok_at + 5, 5, "false") == 0;
}

/// The index of the request `line` answers, which is then marked answered;
/// nothing for an unreadable reply or one that matches no unanswered request
/// among the first `sent` (it fails on its own). `ok` is the reply's "ok".
std::optional<std::size_t> match_reply(const std::string& line, std::size_t sent,
                                       std::vector<char>& answered, bool& ok) {
  std::int64_t id = -1;
  if (!scan_reply(line, id, ok)) return std::nullopt;
  const std::int64_t index = id - kFirstId;
  if (index < 0 || static_cast<std::size_t>(index) >= sent ||
      answered[static_cast<std::size_t>(index)] != 0) {
    return std::nullopt;
  }
  answered[static_cast<std::size_t>(index)] = 1;
  return static_cast<std::size_t>(index);
}

/// One pass over the connections: writes what is pending, appends the
/// complete reply lines that arrived.
void pump_all(std::vector<Conn>& conns, std::vector<std::string>& lines) {
  for (Conn& c : conns) {
    if (!pump_write(c)) throw std::runtime_error("connection write failed");
    if (!pump_read(c, lines)) throw std::runtime_error("server closed a connection");
  }
}

}  // namespace

LoadResult run_open_loop(std::uint16_t port, const std::vector<std::string>& requests,
                         double rate, std::size_t sample_every, std::uint64_t parent,
                         const std::atomic<bool>* stop, std::size_t max_outstanding) {
  Conns owned(kConnections);
  std::vector<Conn>& conns = owned.all;
  for (Conn& c : conns) c.fd = connect_loopback(port);

  std::size_t n = requests.size();
  std::vector<double> due_us(n, 0.0);
  std::vector<char> answered(n, 0);
  LoadResult result;
  result.late_us.reserve(n);
  result.latency_us.reserve(n);
  Tracer& tracer = Tracer::get();
  const bool tracing = tracer.enabled() && parent != 0;
  std::vector<SpanRecord> spans;  // Handed to the tracer after the run, off the schedule.
  if (tracing) spans.reserve(n);

  const double period_us = 1e6 / rate;
  const double start_us = now_us();
  double deadline_us =
      start_us + static_cast<double>(n > 0 ? n - 1 : 0) * period_us + kDrainS * 1e6;
  std::size_t answered_count = 0;
  bool backlog_taken = false;
  std::vector<std::string> lines;

  // The thread spins instead of sleeping until the next due time or reply:
  // a sleeping client is woken late by a busy host, which made requests go
  // out about 80 us late at the median and stamped replies late by as much
  // again, and swung the hot median by a factor of six between runs.
  while (answered_count < n) {
    double now = now_us();
    const bool overrun = max_outstanding > 0 && result.sent - answered_count > max_outstanding;
    if (result.sent < n && (overrun || (stop != nullptr && stop->load()))) {
      result.aborted = overrun;
      n = result.sent;
      deadline_us = now + kDrainS * 1e6;
      continue;
    }
    while (result.sent < n && start_us + static_cast<double>(result.sent) * period_us <= now) {
      const std::size_t i = result.sent;
      due_us[i] = start_us + static_cast<double>(i) * period_us;
      Conn& c = conns[i % conns.size()];
      c.out += requests[i];
      c.out += '\n';
      if (!pump_write(c)) throw std::runtime_error("connection write failed");
      result.late_us.push_back(now_us() - due_us[i]);
      ++result.sent;
    }
    if (!backlog_taken && result.sent == n) {
      backlog_taken = true;
      result.backlog_at_end = n - answered_count;
    }
    if (now_us() > deadline_us) break;

    pump_all(conns, lines);
    const double received_us = now_us();
    for (const std::string& line : lines) {
      bool ok = false;
      const std::optional<std::size_t> matched = match_reply(line, result.sent, answered, ok);
      if (!matched.has_value()) {
        ++result.failed;
        continue;
      }
      const std::size_t i = *matched;
      ++answered_count;
      if (ok) {
        result.latency_us.push_back(received_us - due_us[i]);
      } else {
        ++result.failed;
      }
      if (sample_every > 0 && i % sample_every == 0) result.samples.emplace_back(i, line);
      if (tracing) {
        SpanRecord span;
        span.name = "net.request";
        span.layer = "net";
        span.id = tracer.next_id();
        span.parent = parent;
        span.trace = static_cast<std::uint64_t>(static_cast<std::int64_t>(i) + kFirstId);
        span.start_us = due_us[i];
        span.end_us = received_us;
        spans.push_back(span);
      }
    }
    lines.clear();
  }
  for (const SpanRecord& span : spans) tracer.record(span);
  result.dropped = n - answered_count;  // `n` is what was sent by now.
  result.failed += result.dropped;
  return result;
}

LoadResult run_closed_loop(std::uint16_t port, const std::vector<std::string>& requests,
                           std::size_t window) {
  Conns owned(kConnections);
  std::vector<Conn>& conns = owned.all;
  for (Conn& c : conns) c.fd = connect_loopback(port);

  const std::size_t n = requests.size();
  std::vector<double> sent_us(n, 0.0);
  std::vector<char> answered(n, 0);
  LoadResult result;
  result.latency_us.reserve(n);
  std::size_t answered_count = 0;
  std::vector<std::string> lines;
  std::vector<pollfd> pfds(conns.size());
  const double start_us = now_us();
  double last_reply_us = start_us;

  // Unlike the open loop this one sleeps while it waits: the window keeps the
  // server busy meanwhile, and a spinning client would take a CPU from it.
  while (answered_count < n) {
    while (result.sent < n && result.sent - answered_count < window) {
      const std::size_t i = result.sent;
      Conn& c = conns[i % conns.size()];
      c.out += requests[i];
      c.out += '\n';
      sent_us[i] = now_us();
      ++result.sent;
    }
    for (std::size_t k = 0; k < conns.size(); ++k) {
      pfds[k] = {conns[k].fd, static_cast<short>(POLLIN | (conns[k].out.empty() ? 0 : POLLOUT)),
                 0};
    }
    if (::poll(pfds.data(), pfds.size(), 100) < 0 && errno != EINTR) {
      throw std::runtime_error("poll failed");
    }
    pump_all(conns, lines);
    const double received_us = now_us();
    if (lines.empty() && received_us - last_reply_us > kDrainS * 1e6) break;
    for (const std::string& line : lines) {
      bool ok = false;
      const std::optional<std::size_t> matched = match_reply(line, result.sent, answered, ok);
      if (!matched.has_value()) {
        ++result.failed;
        continue;
      }
      const std::size_t i = *matched;
      ++answered_count;
      last_reply_us = received_us;
      if (ok) {
        result.latency_us.push_back(received_us - sent_us[i]);
      } else {
        ++result.failed;
      }
    }
    lines.clear();
  }
  result.seconds = (last_reply_us - start_us) * 1e-6;
  result.dropped = result.sent - answered_count;
  result.failed += result.dropped;
  return result;
}

AdminConnection::AdminConnection(std::uint16_t port) : fd_(connect_loopback(port)) {}

AdminConnection::~AdminConnection() {
  if (fd_ >= 0) ::close(fd_);
}

std::string AdminConnection::request(const std::string& line) {
  Conn c;
  c.fd = fd_;
  c.out = line + "\n";
  c.in = std::move(in_);
  std::vector<std::string> lines;
  const double deadline = now_us() + 60e6;
  while (lines.empty() && now_us() < deadline) {
    if (!pump_write(c)) return "";
    pollfd pfd{fd_, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
    if (::poll(&pfd, 1, 100) < 0 && errno != EINTR) return "";
    if (!pump_read(c, lines)) return "";
  }
  in_ = std::move(c.in);
  return lines.empty() ? "" : lines.front();
}

double tail_quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double q = std::max(0.0, std::min(p, 1.0 - 10.0 / n));
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return values[rank == 0 ? 0 : std::min(values.size(), rank) - 1];
}

}  // namespace bench
