#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace bench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

std::atomic<std::uint32_t> g_next_thread{0};

struct OpenSpan {
  std::uint64_t id;
  std::uint64_t trace;
};

thread_local std::vector<OpenSpan> t_open;
thread_local std::uint32_t t_thread = g_next_thread.fetch_add(1);

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kProcessStart).count();
}

Tracer& Tracer::get() {
  static Tracer& tracer = *new Tracer;  // Never destroyed: pool threads may outlive main.
  return tracer;
}

void Tracer::record(const SpanRecord& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  const std::vector<SpanRecord> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"trace\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.layer, s.thread, s.start_us,
                 s.end_us - s.start_us, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, const char* layer, std::uint64_t trace) {
  Tracer& tracer = Tracer::get();
  if (!tracer.enabled()) return;
  active_ = true;
  record_.name = name;
  record_.layer = layer;
  record_.id = tracer.next_id();
  record_.thread = t_thread;
  if (!t_open.empty()) {
    record_.parent = t_open.back().id;
    record_.trace = trace != 0 ? trace : t_open.back().trace;
  } else {
    record_.parent = tracer.worker_parent();
    record_.trace = trace;
  }
  t_open.push_back({record_.id, record_.trace});
  record_.start_us = now_us();
}

Span::~Span() {
  if (!active_) return;
  record_.end_us = now_us();
  t_open.pop_back();
  Tracer::get().record(record_);
}

Attribution attribute(const std::vector<SpanRecord>& spans,
                      const std::vector<std::uint64_t>& roots) {
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;

  // Depth and owning root of every span, by walking parent links.
  std::unordered_map<std::uint64_t, std::pair<int, std::uint64_t>> placed;  // id -> (depth, root)
  const std::set<std::uint64_t> root_set(roots.begin(), roots.end());
  const auto place = [&](const SpanRecord& s) {
    std::vector<std::uint64_t> chain;
    std::uint64_t cur = s.id;
    std::pair<int, std::uint64_t> base{-1, 0};
    while (true) {
      if (const auto it = placed.find(cur); it != placed.end()) {
        base = it->second;
        break;
      }
      chain.push_back(cur);
      if (root_set.count(cur) != 0) {
        base = {-1, cur};
        break;
      }
      const auto it = by_id.find(cur);
      if (it == by_id.end() || it->second->parent == 0) break;
      cur = it->second->parent;
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      base = {base.first + 1, base.second};
      placed[*it] = base;
    }
  };
  for (const SpanRecord& s : spans) place(s);

  Attribution result;
  for (const std::uint64_t root_id : roots) {
    const auto root_it = by_id.find(root_id);
    if (root_it == by_id.end()) continue;
    const SpanRecord& root = *root_it->second;
    result.total_us += root.end_us - root.start_us;

    // Boundary events of the root's descendants, clipped to the root.
    struct Event {
      double t;
      bool open;
      int depth;
      const SpanRecord* span;
    };
    std::vector<Event> events;
    for (const SpanRecord& s : spans) {
      const auto& [depth, owner] = placed[s.id];
      // The benchmark's own grouping spans attribute nothing: time they
      // alone cover is the benchmark's, i.e. unattributed.
      if (owner != root_id || s.id == root_id || std::string_view(s.layer) == "bench") continue;
      const double a = std::max(s.start_us, root.start_us);
      const double b = std::min(s.end_us, root.end_us);
      if (b <= a) continue;
      events.push_back({a, true, depth, &s});
      events.push_back({b, false, depth, &s});
    }
    std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
      if (x.t != y.t) return x.t < y.t;
      return !x.open && y.open;  // Close before open at the same instant.
    });
    std::multiset<std::pair<int, const SpanRecord*>> active;
    double last = root.start_us;
    const auto charge = [&](double until) {
      const double dt = until - last;
      if (dt <= 0.0) return;
      if (active.empty()) {
        result.unattributed_us += dt;
      } else {
        result.layer_us[active.rbegin()->second->layer] += dt;
      }
    };
    for (const Event& e : events) {
      charge(e.t);
      last = std::max(last, e.t);
      if (e.open) {
        active.insert({e.depth, e.span});
      } else {
        active.erase(active.find({e.depth, e.span}));
      }
    }
    charge(root.end_us);
  }
  return result;
}

void TimedEstimator::fit(std::span<const remgen::data::Sample> train) {
  const Span span("ml.fit", "ml");
  const Clock::time_point t0 = Clock::now();
  inner_->fit(train);
  fit_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

double TimedEstimator::predict(const remgen::data::Sample& query) const {
  const Span span("ml.predict", "ml");
  const Clock::time_point t0 = Clock::now();
  const double value = inner_->predict(query);
  predict_busy_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  ++predict_queries_;
  return value;
}

void TimedEstimator::predict_batch(std::span<const remgen::data::Sample> queries,
                                   std::span<double> out) const {
  const Span span("ml.predict_batch", "ml");
  const Clock::time_point t0 = Clock::now();
  inner_->predict_batch(queries, out);
  predict_busy_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  predict_queries_ += queries.size();
}

}  // namespace bench
