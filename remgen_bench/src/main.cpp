// remgen-bench: one named workload from one seed, in one process.
//
//   remgen-bench --workload cold|hot --seed N --seconds S --trace 0|1
//                [--trace-out FILE]
//
// Every run goes through the whole system, because every run reports every
// end-to-end metric:
//   - set-up: the paper apartment and 2-UAV campaign (6x4x3 waypoints, UWB,
//     Wi-Fi), its CSV text, the map build (parse, filter, fit
//     knn-onehot-x3-k16, 0.25 m sweep, snapshot save), snapshot load and
//     QueryEngine construction;
//   - replay: QueryEngine::replay_jsonl over the workload's request stream on
//     a fresh engine, no network;
//   - network: net::Server on loopback, an open-loop stream at the workload's
//     fixed rate, and a closed-loop capacity probe that saturates it;
//   - live ingest: the campaign's rows pushed scan by scan into an
//     ingest::IngestPipeline that hot-publishes every epoch into a server
//     while a low-rate cold stream keeps querying it.
// After the first set-up these run in interleaved rounds (see run()). The
// workload picks the request mix the replay and network phases send
// (requests.hpp). Threads stay within the machine's hardware threads in
// every phase.
//
// The last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 repeats the
// run with spans around every library call and reports the per-layer split.
// The exit code is non-zero when an output check or an operation failed.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rem_builder.hpp"
#include "data/dataset.hpp"
#include "exec/config.hpp"
#include "ingest/pipeline.hpp"
#include "loadgen.hpp"
#include "mission/campaign.hpp"
#include "ml/metrics.hpp"
#include "ml/model_zoo.hpp"
#include "net/server.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "radio/scenario.hpp"
#include "requests.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"
#include "store/snapshot.hpp"
#include "trace.hpp"
#include "util/log.hpp"

namespace {

namespace core = remgen::core;
namespace data = remgen::data;
namespace exec = remgen::exec;
namespace ingest = remgen::ingest;
namespace mission = remgen::mission;
namespace ml = remgen::ml;
namespace net = remgen::net;
namespace obs = remgen::obs;
namespace serve = remgen::serve;
namespace store = remgen::store;
namespace geom = remgen::geom;
namespace util = remgen::util;
using bench::Span;

// The paper's apartment and campaign (seed 2022: 2,424 samples over 68 MACs)
// on every run, so every seed maps the same dataset and the map-build work
// does not change with the seed; --seed varies the request streams, the hot
// lattice and the holdout split. Other campaigns differ by up to a fifth in
// size, which would move every timing by as much as the bounds allow.
constexpr std::uint64_t kPaperSeed = 2022;
const geom::Aabb kVolume({0.0, 0.0, 0.0}, {3.74, 3.20, 2.10});
constexpr std::size_t kRounds = 4;          ///< See run(): phases interleave by round.
constexpr std::size_t kExtraCampaigns = 3;  ///< Campaign-only repetitions per round.
constexpr double kFixedShare = 0.3;         ///< Share of --seconds at the fixed rate.
constexpr double kCapacityShare = 0.5;      ///< Share of --seconds in capacity probes.
constexpr std::size_t kCacheBytes = 64u << 20;
constexpr double kLadderStep = 1.05;        ///< SLO capacity ladder: 100 * 1.05^k qps.
/// net.slo_capacity_qps: the p99 limit. It sits where p99 climbs steeply
/// with load: about ten times the 1.5-2.5 ms a cold request costs on the
/// event loop, and above the 10 ms scheduling quantum with which a busy
/// virtualised host takes a CPU away.
constexpr double kSloUs = 25000.0;
constexpr std::size_t kProbeMinRequests = 500;
/// A ladder probe stops sending (and misses) with this many requests
/// unanswered, well below the server's max_inflight, so it draws no 503s.
constexpr std::size_t kProbeMaxOutstanding = 2000;
constexpr std::size_t kEpochSamples = 600;
constexpr double kLiveRate = 200.0;         ///< Queries/s beside live ingest.

/// Per-mix constants: the server's execution width (its pool's thread count,
/// the loop thread included), the fixed offered rate (well below capacity),
/// the capacity probe's window of unanswered requests and the throughput
/// that sizes its stream, the SLO ladder's first rate, the replay stream
/// length and the sequential traced replay length.
///
/// hot is served at width 1: its requests cost microseconds, and fork/join
/// rounds over a wider pool made its latency swing between 0.13 and 2.7 ms
/// from one second to the next on a 4-vCPU VM. At its 2,000/s nearly every
/// request finds the loop asleep; at 5,000-20,000/s some found it awake and
/// some did not, and the median, sitting between the two, moved by 10-25%
/// from run to run. The windows saturate the server: on that VM the throughput stopped rising at
/// them, and it repeated within a few percent, where smaller windows left the
/// loop waiting on client round trips and varied by 10-20%.
struct MixPlan {
  bench::Mix mix;
  std::size_t serve_width;
  double fixed_rate;
  std::size_t capacity_window;
  double capacity_guess;
  double ladder_start;
  std::size_t replay_requests;
  std::size_t traced_requests;
};

std::optional<MixPlan> plan_for(const std::string& workload, std::size_t hw) {
  const std::size_t wide = std::max<std::size_t>(1, hw - 1);  // The client takes one thread.
  if (workload == "cold") return MixPlan{bench::Mix::Cold, wide, 200.0, 64, 1100.0, 400.0, 1000, 300};
  if (workload == "hot") return MixPlan{bench::Mix::Hot, 1, 2000.0, 512, 45000.0, 8000.0, 40000, 4000};
  return std::nullopt;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double seconds_since(double start_us) { return (bench::now_us() - start_us) * 1e-6; }

/// Output checks and the operation ledger.
struct Ledger {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  void ops(std::uint64_t n, std::uint64_t bad, const char* what) {
    attempted += n;
    failed += bad;
    if (bad > 0) std::fprintf(stderr, "FAILED OPERATIONS: %llu of %llu in %s\n",
                              static_cast<unsigned long long>(bad),
                              static_cast<unsigned long long>(n), what);
  }
};

/// Metrics in report order.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values;
  void add(const std::string& name, double value, const std::string& unit) {
    values.push_back({name, {value, unit}});
  }
};

// ---------------------------------------------------------------- map build

struct MapBuild {
  std::string snapshot_bytes;
  double parse_s = 0.0, filter_s = 0.0, build_rem_s = 0.0, save_s = 0.0, total_s = 0.0;
  std::size_t raw_rows = 0, kept_rows = 0, voxels = 0;
  // Decorated builds only.
  double fit_s = 0.0, predict_busy_s = 0.0;
  std::uint64_t predict_queries = 0;
};

/// Dataset CSV text -> REM + snapshot bytes, the way `remgen rem
/// --snapshot-out` does it. `decorate` wraps the estimator in the timing
/// decorator (traced runs only).
MapBuild build_map(const std::string& csv, bool decorate) {
  MapBuild b;
  const Span group("bench.map_build", "bench");
  const double t0 = bench::now_us();
  data::Dataset raw;
  {
    const Span span("data.read_csv", "data");
    std::istringstream in(csv);
    raw = data::Dataset::read_csv(in);
  }
  const double t1 = bench::now_us();
  const core::RemBuilderConfig config;  // 0.25 m voxels, the 16-sample MAC gate.
  data::Dataset prepared;
  {
    const Span span("data.filter", "data");
    prepared = raw.filter_min_samples_per_mac(config.min_samples_per_mac);
  }
  const double t2 = bench::now_us();
  std::unique_ptr<ml::Estimator> model = ml::make_model(ml::ModelKind::KnnScaled16);
  std::unique_ptr<bench::TimedEstimator> timed;
  if (decorate) timed = std::make_unique<bench::TimedEstimator>(std::move(model));
  store::Snapshot snapshot;
  {
    const Span span("core.build_rem", "core");
    bench::Tracer::get().set_worker_parent(span.id());
    snapshot.rem.emplace(core::build_rem(raw, decorate ? *timed : *model, kVolume, config));
    bench::Tracer::get().set_worker_parent(0);
  }
  const double t3 = bench::now_us();
  snapshot.dataset = std::move(prepared);
  snapshot.model = decorate ? timed->release() : std::move(model);
  {
    const Span span("store.save_snapshot", "store");
    std::ostringstream out;
    store::save_snapshot(out, snapshot);
    b.snapshot_bytes = std::move(out).str();
  }
  const double t4 = bench::now_us();
  b.parse_s = (t1 - t0) * 1e-6;
  b.filter_s = (t2 - t1) * 1e-6;
  b.build_rem_s = (t3 - t2) * 1e-6;
  b.save_s = (t4 - t3) * 1e-6;
  b.total_s = (t4 - t0) * 1e-6;
  b.raw_rows = raw.size();
  b.kept_rows = snapshot.dataset.size();
  const geom::GridGeometry& g = snapshot.rem->geometry();
  b.voxels = snapshot.rem->macs().size() * g.nx() * g.ny() * g.nz();
  if (decorate) {
    b.fit_s = timed->fit_s();
    b.predict_busy_s = timed->predict_busy_s();
    b.predict_queries = timed->predict_queries();
  }
  return b;
}

// ------------------------------------------------------------------- set-up

struct Campaign {
  std::string csv;
  double seconds = 0.0;
  std::size_t samples = 0;
  double attempts_per_waypoint = 0.0;
};

Campaign run_campaign(const remgen::radio::Scenario& scenario, util::Rng& rng) {
  Campaign c;
  const double t0 = bench::now_us();
  mission::CampaignResult result;
  {
    const Span span("mission.run_campaign", "mission");
    result = mission::run_campaign(scenario, mission::CampaignConfig{}, rng);
  }
  c.seconds = seconds_since(t0);
  {
    const Span span("data.write_csv", "data");
    std::ostringstream out;
    result.dataset.write_csv(out);
    c.csv = std::move(out).str();
  }
  c.samples = result.dataset.size();
  std::size_t attempts = 0;
  for (const mission::WaypointCoverage& w : result.coverage) attempts += w.attempts;
  c.attempts_per_waypoint =
      result.coverage.empty() ? 0.0
                              : static_cast<double>(attempts) /
                                    static_cast<double>(result.coverage.size());
  return c;
}

std::shared_ptr<const serve::QueryEngine> load_engine(const std::string& bytes,
                                                      double* load_s = nullptr) {
  const double t0 = bench::now_us();
  store::Snapshot snapshot;
  {
    const Span span("store.load_snapshot", "store");
    std::istringstream in(bytes);
    snapshot = store::load_snapshot(in);
  }
  if (load_s != nullptr) *load_s = seconds_since(t0);
  const Span span("serve.engine", "serve");
  return std::make_shared<const serve::QueryEngine>(std::move(snapshot), kCacheBytes);
}

struct Setup {
  double seconds = 0.0;
  double load_s = 0.0;
  Campaign campaign;
  MapBuild map;
  std::shared_ptr<const serve::QueryEngine> engine;
};

Setup run_setup(bool decorate, std::vector<std::uint64_t>& roots) {
  Setup s;
  const Span root("bench.setup", "bench");
  roots.push_back(root.id());
  const double t0 = bench::now_us();
  // One stream for the apartment and then the campaign, as `remgen campaign
  // --seed 2022` draws them.
  util::Rng rng(kPaperSeed);
  std::optional<remgen::radio::Scenario> scenario;
  {
    const Span span("mission.scenario", "mission");
    scenario.emplace(remgen::radio::Scenario::make_apartment(rng));
  }
  s.campaign = run_campaign(*scenario, rng);
  s.map = build_map(s.campaign.csv, decorate);
  s.engine = load_engine(s.map.snapshot_bytes, &s.load_s);
  s.seconds = seconds_since(t0);
  return s;
}

// ----------------------------------------------------------------- serving

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

/// net::Server running on its own thread; shut down and joined on scope exit.
class ServerThread {
 public:
  explicit ServerThread(std::shared_ptr<const serve::QueryEngine> engine)
      : server_(net::ServerConfig{}) {
    server_.add_engine("rem", std::move(engine));
    port_ = server_.bind_and_listen();
    thread_ = std::thread([this] { server_.run(); });
  }
  ~ServerThread() { stop(); }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  /// Drains and joins; after this stats() is final.
  void stop() {
    if (!thread_.joinable()) return;
    server_.request_shutdown();
    thread_.join();
  }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] net::Server& server() { return server_; }

 private:
  net::Server server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// Admin "stats" reply body, parsed.
obs::Json server_stats(bench::AdminConnection& admin) {
  const std::string reply = admin.request(R"({"id":0,"type":"stats"})");
  if (reply.empty()) throw std::runtime_error("no reply to a stats request");
  return obs::Json::parse(reply);
}

/// Successful replies per second from one closed-loop probe that holds the
/// plan's window of requests unanswered. It averages over every reply, where
/// a p99 threshold on an open-loop rate ladder turned each short host stall
/// into a missed rung and did not repeat from run to run.
double probe_capacity(std::uint16_t port, const MixPlan& plan, const bench::MixContext& context,
                      util::Rng& rng, double seconds, Ledger& ledger) {
  const auto n = static_cast<std::size_t>(plan.capacity_guess * seconds);
  const std::vector<std::string> requests = bench::make_requests(plan.mix, context, n, rng);
  const bench::LoadResult r = bench::run_closed_loop(port, requests, plan.capacity_window);
  ledger.ops(r.sent, r.failed, "capacity probe");
  const auto ok = static_cast<double>(r.latency_us.size());
  std::fprintf(stderr, "  capacity probe: %zu requests in %.3f s, p50 %.0f us, p99 %.0f us\n",
               r.sent, r.seconds, bench::tail_quantile(r.latency_us, 0.5),
               bench::tail_quantile(r.latency_us, 0.99));
  return r.seconds > 0.0 ? ok / r.seconds : 0.0;
}

/// Highest rung of the rate ladder at which an open-loop probe meets p99 <=
/// kSloUs with nothing failed, the backlog not growing and the generator on
/// schedule to within the SLO. Climbs five rungs at a time from the plan's
/// start until a rung misses, then bisects the last gap. A rung misses only
/// when two probes at it both miss: a host stall can slow a probe, never
/// speed it up. Traced runs only: a short host stall fails a rung whatever
/// the load, so the result does not repeat well enough to gate on.
double find_slo_capacity(std::uint16_t port, const MixPlan& plan,
                         const bench::MixContext& context, util::Rng& rng, double seconds,
                         Ledger& ledger) {
  const auto rung_rate = [](int k) { return 100.0 * std::pow(kLadderStep, k); };
  const double probe_s = 0.05 * seconds;
  const auto attempt = [&](int k, int a) {
    const double rate = rung_rate(k);
    const auto n = static_cast<std::size_t>(
        std::max(rate * probe_s, static_cast<double>(kProbeMinRequests)));
    util::Rng probe_rng = rng.fork("rung-" + std::to_string(k) + "-" + std::to_string(a));
    const std::vector<std::string> requests = bench::make_requests(plan.mix, context, n, probe_rng);
    const bench::LoadResult r =
        bench::run_open_loop(port, requests, rate, 0, 0, nullptr, kProbeMaxOutstanding);
    ledger.ops(r.sent, r.failed, "SLO ladder probe");
    const double p99 = bench::tail_quantile(r.latency_us, 0.99);
    const double late_p99 = bench::tail_quantile(r.late_us, 0.99);
    const auto backlog_limit = static_cast<std::size_t>(std::ceil(rate * 2.0 * kSloUs * 1e-6)) + 2;
    const bool pass = !r.aborted && r.failed == 0 && p99 <= kSloUs &&
                      r.backlog_at_end <= backlog_limit && late_p99 <= kSloUs;
    std::fprintf(stderr, "  rung %8.0f qps: p99 %8.0f us, late p99 %6.0f us, backlog %zu -> %s\n",
                 rate, p99, late_p99, r.backlog_at_end, pass ? "pass" : "miss");
    return pass;
  };
  const auto probe = [&](int k) { return attempt(k, 0) || attempt(k, 1); };
  int k = static_cast<int>(std::floor(std::log(plan.ladder_start / 100.0) / std::log(kLadderStep)));
  int good = -1;
  int bad = -1;
  if (probe(k)) {
    good = k;
    while (bad < 0 && k < 200) {
      k += 5;
      if (probe(k)) good = k; else bad = k;
    }
  } else {
    bad = k;
    while (good < 0 && k > 0) {
      k = std::max(0, k - 5);
      if (probe(k)) good = k; else bad = k;
    }
  }
  if (good < 0) return rung_rate(0) / kLadderStep;  // Below the ladder.
  while (bad - good > 1) {
    const int mid = (good + bad) / 2;
    if (probe(mid)) good = mid; else bad = mid;
  }
  return rung_rate(good);
}

// ------------------------------------------------------------------- ingest

struct LiveResult {
  std::vector<double> epoch_s;        ///< Firing push start -> epoch visible in stats.
  std::vector<double> build_s;        ///< Duration of the firing push.
  std::vector<double> publish_lag_s;  ///< Firing push end -> epoch visible.
  double push_s = 0.0;                ///< Pushes that fired no epoch.
  std::size_t push_samples = 0;
  std::size_t pushes = 0;
  double total_s = 0.0;
  std::uint64_t epochs = 0;
  std::vector<double> delta_ratio;
  std::string final_snapshot;
  bench::LoadResult queries;
  std::uint64_t publish_swaps = 0;
};

/// Splits the arrival-ordered rows into waypoint scans (one push each).
std::vector<std::vector<data::Sample>> split_scans(const data::Dataset& dataset) {
  std::vector<std::vector<data::Sample>> scans;
  const data::Sample* prev = nullptr;
  for (const data::Sample& s : dataset.samples()) {
    if (prev == nullptr || s.uav_id != prev->uav_id ||
        s.waypoint_index != prev->waypoint_index || s.timestamp_s != prev->timestamp_s) {
      scans.emplace_back();
    }
    scans.back().push_back(s);
    prev = &s;
  }
  return scans;
}

LiveResult run_live(const Setup& base, const bench::MixContext& context, util::Rng& rng,
                    std::vector<std::uint64_t>& roots) {
  LiveResult live;
  data::Dataset rows;
  {
    std::istringstream in(base.campaign.csv);
    rows = data::Dataset::read_csv(in);
  }
  const std::vector<std::vector<data::Sample>> scans = split_scans(rows);

  ServerThread server(load_engine(base.map.snapshot_bytes));
  ingest::IngestConfig config;
  config.volume = kVolume;
  config.epoch_samples = kEpochSamples;
  config.server = &server.server();
  config.map = "rem";
  ingest::IngestPipeline pipeline(config);

  // A cold best-AP stream keeps querying the map while epochs are published.
  const std::vector<std::string> requests = bench::make_requests(
      bench::Mix::Cold, context, static_cast<std::size_t>(kLiveRate * 120.0), rng);
  std::atomic<bool> stop{false};
  std::string client_error;
  std::thread client([&] {
    try {
      live.queries = bench::run_open_loop(server.port(), requests, kLiveRate, 0, 0, &stop);
    } catch (const std::exception& e) {
      client_error = e.what();
    }
  });
  // Stops and joins the client on every exit path, before the server stops.
  struct ClientJoin {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~ClientJoin() {
      stop = true;
      if (thread.joinable()) thread.join();
    }
  } client_join{stop, client};

  const Span root("bench.ingest", "bench");
  roots.push_back(root.id());
  bench::AdminConnection admin(server.port());
  const auto wait_visible = [&](std::uint64_t epoch) {
    const Span span("net.stats_poll", "net");
    const double deadline = bench::now_us() + 60e6;
    while (bench::now_us() < deadline) {
      const obs::Json stats = server_stats(admin);
      if (static_cast<std::uint64_t>(
              stats.at("map_stats").at("rem").at("epoch").as_int64()) >= epoch) {
        return bench::now_us();
      }
    }
    throw std::runtime_error("a published epoch never became visible");
  };
  const auto record_epoch = [&](double t0, double t1, std::uint64_t epoch) {
    const double visible = wait_visible(epoch);
    live.epoch_s.push_back((visible - t0) * 1e-6);
    live.build_s.push_back((t1 - t0) * 1e-6);
    live.publish_lag_s.push_back((visible - t1) * 1e-6);
    return visible;
  };

  const double first = bench::now_us();
  double last_visible = first;
  for (const std::vector<data::Sample>& scan : scans) {
    const std::uint64_t before = pipeline.epoch();
    const double t0 = bench::now_us();
    {
      const Span span("ingest.push_batch", "ingest");
      pipeline.push_batch(scan);
    }
    const double t1 = bench::now_us();
    ++live.pushes;
    if (pipeline.epoch() > before) {
      last_visible = record_epoch(t0, t1, pipeline.epoch());
    } else {
      live.push_s += (t1 - t0) * 1e-6;
      live.push_samples += scan.size();
    }
  }
  {
    const double t0 = bench::now_us();
    std::optional<ingest::EpochInfo> info;
    {
      const Span span("ingest.flush", "ingest");
      info = pipeline.flush();
    }
    if (info.has_value()) last_visible = record_epoch(t0, bench::now_us(), info->epoch);
  }
  live.total_s = (last_visible - first) * 1e-6;
  stop = true;
  client.join();
  if (!client_error.empty()) throw std::runtime_error("live query stream: " + client_error);
  server.stop();

  live.epochs = pipeline.epoch();
  for (const ingest::EpochInfo& e : pipeline.history()) {
    if (e.delta && e.snapshot_bytes > 0) {
      live.delta_ratio.push_back(static_cast<double>(e.delta_bytes) /
                                 static_cast<double>(e.snapshot_bytes));
    }
  }
  live.final_snapshot = pipeline.latest_snapshot_bytes();
  live.publish_swaps = server.server().stats().publish_swaps;
  return live;
}

// -------------------------------------------------------------- traced replay

struct TracedReplay {
  std::vector<double> parse_us, execute_us, serialize_us;
  double predictions_per_request = 0.0;
  double seconds = 0.0;
};

/// Sequential in-process replay of `lines` on a fresh engine that first
/// executes `warmup` untimed, so the cache starts in the state the served
/// engine starts in: parse, execute and serialise each request. Traced
/// passes put a span around each call (one trace id per request) and
/// decorate the model.
TracedReplay replay_sequential(const std::string& snapshot_bytes,
                               const std::vector<std::string>& warmup,
                               const std::vector<std::string>& lines, bool traced,
                               std::vector<std::uint64_t>* roots) {
  store::Snapshot snapshot;
  {
    std::istringstream in(snapshot_bytes);
    snapshot = store::load_snapshot(in);
  }
  bench::TimedEstimator* timed = nullptr;
  if (traced) {
    auto wrapper = std::make_unique<bench::TimedEstimator>(std::move(snapshot.model));
    timed = wrapper.get();
    snapshot.model = std::move(wrapper);
  }
  const serve::QueryEngine engine(std::move(snapshot), kCacheBytes);
  bench::Tracer::get().set_enabled(false);
  for (const std::string& line : warmup) {
    if (!engine.execute(serve::parse_request(line)).ok) {
      throw std::runtime_error("cache warm-up request failed: " + line);
    }
  }
  bench::Tracer::get().set_enabled(traced);
  const std::uint64_t warmup_queries = timed != nullptr ? timed->predict_queries() : 0;
  TracedReplay r;
  std::optional<Span> root;
  if (traced) {
    root.emplace("bench.replay", "bench");
    roots->push_back(root->id());
  }
  const double t0 = bench::now_us();
  std::int64_t trace_id = 0;
  for (const std::string& line : lines) {
    ++trace_id;
    std::optional<Span> request;
    if (traced) request.emplace("serve.request", "bench", static_cast<std::uint64_t>(trace_id));
    const double a = bench::now_us();
    serve::Request parsed;
    {
      const Span span("serve.parse_request", "serve");
      parsed = serve::parse_request(line);
    }
    const double b = bench::now_us();
    serve::Response response;
    {
      const Span span("serve.execute", "serve");
      response = engine.execute(parsed);
    }
    const double c = bench::now_us();
    std::string out;
    {
      const Span span("serve.to_jsonl", "serve");
      out = response.to_jsonl();
    }
    const double d = bench::now_us();
    if (!response.ok) throw std::runtime_error("replayed request failed: " + out);
    r.parse_us.push_back(b - a);
    r.execute_us.push_back(c - b);
    r.serialize_us.push_back(d - c);
  }
  r.seconds = seconds_since(t0);
  if (timed != nullptr) {
    r.predictions_per_request = static_cast<double>(timed->predict_queries() - warmup_queries) /
                                static_cast<double>(lines.size());
  }
  return r;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

// --------------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = true;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        o.trace = value == "1";
      } else if (key == "--trace-out") {
        o.trace_out = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !(o.seconds > 0.0)) {
    return std::nullopt;
  }
  return o;
}

int run(const Options& options, const MixPlan& plan) {
  const bool traced = options.trace;
  if (traced) bench::Tracer::get().set_enabled(true);
  const std::size_t hw = exec::hardware_threads();
  const double S = options.seconds;
  Ledger ledger;
  std::vector<std::uint64_t> roots;  ///< Busy root spans the reconciliation covers.
  util::Rng rng = util::Rng(options.seed).fork("bench");

  // 1. Set-up. Its first repetition provides the map every later phase uses.
  exec::set_thread_count(hw);
  std::deque<Setup> setups;  // Stable references while it grows.
  setups.push_back(run_setup(traced, roots));
  const Setup& base = setups.front();
  std::fprintf(stderr, "set-up: %zu rows, %zu kept, %zu voxels, snapshot %zu B\n",
               base.map.raw_rows, base.map.kept_rows, base.map.voxels,
               base.map.snapshot_bytes.size());

  bench::MixContext context;
  context.volume = kVolume;
  context.macs = base.engine->macs();
  {
    util::Rng lattice_rng = rng.fork("lattice");
    context.lattice = bench::pick_lattice(kVolume, core::RemBuilderConfig{}.voxel_m, lattice_rng);
  }
  // The hot mix is served from a warm cache.
  const std::vector<std::string> warmup =
      plan.mix == bench::Mix::Hot ? bench::make_warmup(context) : std::vector<std::string>{};
  util::Rng replay_rng = rng.fork("replay");
  const std::vector<std::string> replay_lines =
      bench::make_requests(plan.mix, context, plan.replay_requests, replay_rng);
  const std::string replay_text = join_lines(replay_lines);

  // 2. The batch block: one replay on a fresh engine (no network), one more
  // set-up and a few more campaigns.
  std::vector<double> replay_qps, campaign_s;
  std::string first_replay_out;
  const auto batch_block = [&] {
    exec::set_thread_count(hw);
    {
      const auto engine = load_engine(base.map.snapshot_bytes);
      std::istringstream in(replay_text);
      std::ostringstream out;
      const serve::ReplayStats stats = engine->replay_jsonl(in, out);
      replay_qps.push_back(stats.qps);
      ledger.ops(stats.requests, stats.errors, "replay");
      if (first_replay_out.empty()) first_replay_out = out.str();
      ledger.check(out.str() == first_replay_out, "replay output is deterministic");
    }
    setups.push_back(run_setup(traced, roots));
    Setup& s = setups.back();
    ledger.check(s.campaign.csv == base.campaign.csv, "the campaign is deterministic");
    ledger.check(s.map.snapshot_bytes == base.map.snapshot_bytes,
                 "the map build is deterministic");
    s.campaign.csv = std::string();  // Only the timings are kept.
    s.map.snapshot_bytes = std::string();
    s.engine.reset();
    // A campaign takes a tenth of a second: sample it more often.
    util::Rng paper_rng(kPaperSeed);
    const remgen::radio::Scenario scenario = remgen::radio::Scenario::make_apartment(paper_rng);
    for (std::size_t k = 0; k < kExtraCampaigns; ++k) {
      const Span root("bench.campaign", "bench");
      roots.push_back(root.id());
      util::Rng campaign_rng = paper_rng;
      const Campaign c = run_campaign(scenario, campaign_rng);
      ledger.check(c.csv == base.campaign.csv, "the campaign is deterministic");
      campaign_s.push_back(c.seconds);
    }
    ledger.ops(kExtraCampaigns, 0, "campaign");
  };

  // Width 1 must give the same bytes as width N.
  {
    exec::set_thread_count(1);
    const MapBuild narrow = build_map(base.campaign.csv, false);
    exec::set_thread_count(hw);
    ledger.check(narrow.snapshot_bytes == base.map.snapshot_bytes,
                 "REM snapshot bytes identical at width 1 and width " + std::to_string(hw));
  }

  // The paper's 75/25 holdout (Fig. 8), outside every timed region.
  double holdout_rmse = 0.0;
  {
    std::istringstream in(base.campaign.csv);
    const data::Dataset prepared = data::Dataset::read_csv(in).filter_min_samples_per_mac(
        core::RemBuilderConfig{}.min_samples_per_mac);
    util::Rng split_rng = rng.fork("holdout");
    const data::DatasetSplit split = prepared.split(0.75, split_rng);
    const std::unique_ptr<ml::Estimator> model = ml::make_model(ml::ModelKind::KnnScaled16);
    model->fit(split.train);
    holdout_rmse = ml::evaluate(*model, split.test).rmse;
  }

  // Traced runs: the per-request split from a sequential replay of the same
  // stream, and the tracing overhead: untraced vs traced passes of that
  // replay, and plain vs decorated and traced map builds (the source of the
  // ml, core and exec figures). The larger of the two ratios is reported.
  std::optional<TracedReplay> split_replay;
  double trace_overhead = 0.0;
  if (traced) {
    const std::vector<std::string> lines(
        replay_lines.begin(),
        replay_lines.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(plan.traced_requests, replay_lines.size())));
    double plain_s = 0.0, traced_s = 0.0, plain_build_s = 0.0, traced_build_s = 0.0;
    for (int k = 0; k < 2; ++k) {
      plain_s += replay_sequential(base.map.snapshot_bytes, warmup, lines, false, nullptr).seconds;
      split_replay = replay_sequential(base.map.snapshot_bytes, warmup, lines, true, &roots);
      traced_s += split_replay->seconds;
      bench::Tracer::get().set_enabled(false);
      plain_build_s += build_map(base.campaign.csv, false).total_s;
      bench::Tracer::get().set_enabled(true);
      traced_build_s += build_map(base.campaign.csv, true).total_s;
    }
    std::fprintf(stderr, "trace overhead: replay %.3f, map build %.3f\n", traced_s / plain_s,
                 traced_build_s / plain_build_s);
    trace_overhead = std::max(traced_s / plain_s, traced_build_s / plain_build_s);
  }

  // 3. Rounds. Each round runs a batch block, a slice of the fixed-rate
  // stream, a capacity probe and one live-ingest stream. Host speed drifts
  // over seconds, so every metric takes its samples from several parts of
  // the run, not from one stretch.
  const auto engine = load_engine(base.map.snapshot_bytes);  // Served by every round.
  {
    std::vector<serve::Request> warm;
    for (const std::string& line : warmup) warm.push_back(serve::parse_request(line));
    for (const serve::Response& r : engine->execute_all(warm)) {
      ledger.check(r.ok, "cache warm-up request succeeds");
    }
  }
  std::uint64_t fixed_hits = 0, fixed_misses = 0;  ///< Served engine, fixed-rate stream.
  std::vector<double> capacities, fixed_latency_us, late_us, loop_lag_ms;
  std::uint64_t stalled_rounds = 0, overload_rejections = 0;
  std::uint64_t sent_total = 0, failed_total = 0;
  std::vector<LiveResult> lives;
  for (std::size_t round = 0; round < kRounds; ++round) {
    batch_block();

    exec::set_thread_count(plan.serve_width);
    {
      ServerThread server(engine);
      std::optional<Span> root;
      if (traced) root.emplace("bench.network", "bench");
      util::Rng fixed_rng = rng.fork("fixed-" + std::to_string(round));
      const auto n = static_cast<std::size_t>(plan.fixed_rate * kFixedShare * S / kRounds);
      const std::vector<std::string> requests =
          bench::make_requests(plan.mix, context, n, fixed_rng);
      const std::uint64_t hits_before = engine->cache().hits();
      const std::uint64_t misses_before = engine->cache().misses();
      const bench::LoadResult fixed = bench::run_open_loop(
          server.port(), requests, plan.fixed_rate, 23, root.has_value() ? root->id() : 0);
      fixed_hits += engine->cache().hits() - hits_before;
      fixed_misses += engine->cache().misses() - misses_before;
      ledger.ops(fixed.sent, fixed.failed, "fixed-rate queries");
      sent_total += fixed.sent;
      failed_total += fixed.failed;
      late_us.insert(late_us.end(), fixed.late_us.begin(), fixed.late_us.end());
      fixed_latency_us.insert(fixed_latency_us.end(), fixed.latency_us.begin(),
                              fixed.latency_us.end());
      // Network responses equal in-process execution on the same engine.
      std::size_t mismatches = 0;
      for (const auto& [index, line] : fixed.samples) {
        if (engine->execute(serve::parse_request(requests[index])).to_jsonl() != line) {
          ++mismatches;
        }
      }
      ledger.check(!fixed.samples.empty() && mismatches == 0,
                   "sampled network responses are byte-identical to QueryEngine::execute (" +
                       std::to_string(mismatches) + " of " +
                       std::to_string(fixed.samples.size()) + " differ)");
      {
        bench::AdminConnection admin(server.port());
        loop_lag_ms.push_back(server_stats(admin).at("loop").at("lag_p99_us").as_double() * 1e-3);
      }
      util::Rng probe_rng = rng.fork("probe-" + std::to_string(round));
      capacities.push_back(
          probe_capacity(server.port(), plan, context, probe_rng, kCapacityShare * S / kRounds, ledger));
      server.stop();
      stalled_rounds += server.server().stats().stalled_rounds;
      overload_rejections += server.server().stats().overload_rejections;
    }

    exec::set_thread_count(std::max<std::size_t>(1, hw - 2));
    util::Rng live_rng = rng.fork("live-" + std::to_string(round));
    lives.push_back(run_live(base, context, live_rng, roots));
    const LiveResult& live = lives.back();
    ledger.ops(live.pushes, 0, "ingest pushes");
    ledger.ops(live.queries.sent, live.queries.failed, "queries beside live ingest");
    sent_total += live.queries.sent;
    failed_total += live.queries.failed;
    late_us.insert(late_us.end(), live.queries.late_us.begin(), live.queries.late_us.end());
    ledger.check(live.queries.failed == 0 && live.queries.dropped == 0,
                 "no query failed or was dropped across publishes");
    ledger.check(live.publish_swaps == live.epochs, "every epoch was hot-published");
    ledger.check(live.final_snapshot == base.map.snapshot_bytes,
                 "final live epoch is byte-identical to the batch build of the same rows");
  }

  // Traced runs: the share of requests the server answered inside a same-MAC
  // group of two or more points (execute_coalesced's merge), from one more
  // fixed-rate slice with the library's own metrics switched on. It has a
  // slice of its own because those metrics cost time in every layer.
  double merged_share = 0.0;
  if (traced) {
    exec::set_thread_count(plan.serve_width);
    ServerThread server(engine);
    util::Rng merge_rng = rng.fork("merge");
    const auto n = static_cast<std::size_t>(plan.fixed_rate * kFixedShare * S / kRounds);
    const std::vector<std::string> requests = bench::make_requests(plan.mix, context, n, merge_rng);
    obs::Histogram& groups = obs::registry().histogram("serve.coalesced_points", {1, 8, 64, 512, 4096});
    groups.reset();
    obs::set_enabled(true);
    const bench::LoadResult r = bench::run_open_loop(server.port(), requests, plan.fixed_rate, 0, 0);
    obs::set_enabled(false);
    server.stop();
    ledger.ops(r.sent, r.failed, "merge-share queries");
    // Bucket 0 counts the groups of one point: they merged nothing.
    const double merged = groups.sum() - static_cast<double>(groups.bucket_counts().front());
    merged_share = r.sent > 0 ? merged / static_cast<double>(r.sent) : 0.0;
  }
  // Traced runs: the rate ladder under the p99 SLO, on a fresh server.
  double slo_capacity = 0.0;
  if (traced) {
    exec::set_thread_count(plan.serve_width);
    ServerThread server(engine);
    util::Rng ladder_rng = rng.fork("ladder");
    slo_capacity = find_slo_capacity(server.port(), plan, context, ladder_rng, S, ledger);
    server.stop();
  }
  exec::set_thread_count(hw);
  const double query_p50 = bench::tail_quantile(fixed_latency_us, 0.50) * 1e-3;
  const double query_p99 = bench::tail_quantile(fixed_latency_us, 0.99) * 1e-3;
  std::fprintf(stderr, "fixed %.0f qps: p50 %.3f ms, p99 %.3f ms (%zu requests)\n",
               plan.fixed_rate, query_p50, query_p99, fixed_latency_us.size());

  std::vector<double> setup_s, map_build_s, parse_s, filter_s, load_s;
  for (const Setup& s : setups) {
    setup_s.push_back(s.seconds);
    campaign_s.push_back(s.campaign.seconds);
    map_build_s.push_back(s.map.total_s);
    parse_s.push_back(s.map.parse_s);
    filter_s.push_back(s.map.filter_s);
    load_s.push_back(s.load_s);
  }
  ledger.ops(setups.size(), 0, "set-up (campaign + map build + load)");
  std::vector<double> epoch_s, build_s, publish_lag_s, delta_ratio, total_s, live_latency_us;
  double push_s = 0.0;
  std::size_t push_samples = 0;
  std::uint64_t epochs = 0;
  for (const LiveResult& live : lives) {
    epoch_s.insert(epoch_s.end(), live.epoch_s.begin(), live.epoch_s.end());
    build_s.insert(build_s.end(), live.build_s.begin(), live.build_s.end());
    publish_lag_s.insert(publish_lag_s.end(), live.publish_lag_s.begin(), live.publish_lag_s.end());
    delta_ratio.insert(delta_ratio.end(), live.delta_ratio.begin(), live.delta_ratio.end());
    live_latency_us.insert(live_latency_us.end(), live.queries.latency_us.begin(),
                           live.queries.latency_us.end());
    total_s.push_back(live.total_s);
    push_s += live.push_s;
    push_samples += live.push_samples;
    epochs += live.epochs;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  Report report;
  if (!traced) {
    report.add("setup_s", median(setup_s), "s");
    report.add("campaign_s", median(campaign_s), "s");
    report.add("map_build_s", median(map_build_s), "s");
    report.add("holdout_rmse_db", holdout_rmse, "dB");
    report.add("query_p50_ms", query_p50, "ms");
    report.add("capacity_qps", median(capacities), "qps");
    report.add("replay_qps", median(replay_qps), "qps");
    report.add("epoch_p50_s", median(epoch_s), "s");
    report.add("ingest_total_s", median(total_s), "s");
    report.add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // The last set-up ran on a warm process; its decorated model gives the
    // ml split. build_rem filters again before it fits: core.sweep_s is what
    // remains of it after that filter and the fit.
    const MapBuild& m = setups.back().map;
    const double sweep_s = std::max(0.0, m.build_rem_s - m.filter_s - m.fit_s);
    const TracedReplay& tr = *split_replay;
    const double in_process_p50_us =
        median(tr.parse_us) + median(tr.execute_us) + median(tr.serialize_us);
    report.add("mission.samples", static_cast<double>(base.campaign.samples), "count");
    report.add("mission.attempts_per_waypoint", base.campaign.attempts_per_waypoint, "count");
    report.add("data.csv_parse_s", median(parse_s), "s");
    report.add("data.filter_s", median(filter_s), "s");
    report.add("data.rows_kept_ratio",
               static_cast<double>(m.kept_rows) / static_cast<double>(m.raw_rows), "ratio");
    report.add("ml.fit_s", m.fit_s, "s");
    report.add("ml.predict_queries", static_cast<double>(m.predict_queries), "count");
    report.add("ml.predict_busy_s", m.predict_busy_s, "s");
    report.add("ml.predict_us_per_query",
               m.predict_queries > 0 ? m.predict_busy_s * 1e6 / static_cast<double>(m.predict_queries)
                                     : 0.0,
               "us");
    report.add("core.build_rem_s", m.build_rem_s, "s");
    report.add("core.sweep_s", sweep_s, "s");
    report.add("core.voxels", static_cast<double>(m.voxels), "count");
    report.add("exec.sweep_efficiency",
               sweep_s > 0 ? m.predict_busy_s / (sweep_s * static_cast<double>(hw)) : 0.0,
               "ratio");
    report.add("store.save_s", m.save_s, "s");
    report.add("store.snapshot_bytes", static_cast<double>(base.map.snapshot_bytes.size()), "B");
    report.add("store.load_s", median(load_s), "s");
    report.add("serve.parse_us", mean(tr.parse_us), "us");
    report.add("serve.execute_us_p50", median(tr.execute_us), "us");
    report.add("serve.execute_us_p99", bench::tail_quantile(tr.execute_us, 0.99), "us");
    report.add("serve.serialize_us", mean(tr.serialize_us), "us");
    report.add("serve.predictions_per_request", tr.predictions_per_request, "count");
    report.add("serve.cache_hit_ratio",
               fixed_hits + fixed_misses > 0
                   ? static_cast<double>(fixed_hits) / static_cast<double>(fixed_hits + fixed_misses)
                   : 0.0,
               "ratio");
    report.add("serve.merged_share", merged_share, "ratio");
    report.add("net.overhead_us_p50", query_p50 * 1e3 - in_process_p50_us, "us");
    report.add("net.query_p99_ms", query_p99, "ms");
    report.add("net.slo_capacity_qps", slo_capacity, "qps");
    report.add("net.loop_lag_p99_ms", median(loop_lag_ms), "ms");
    report.add("net.stalled_rounds", static_cast<double>(stalled_rounds), "count");
    report.add("net.overload_rejections", static_cast<double>(overload_rejections), "count");
    report.add("ingest.push_us_per_sample",
               push_samples > 0 ? push_s * 1e6 / static_cast<double>(push_samples) : 0.0,
               "us");
    report.add("ingest.epochs", static_cast<double>(epochs) / static_cast<double>(lives.size()),
               "count");
    report.add("ingest.epoch_build_s", median(build_s), "s");
    report.add("ingest.publish_lag_ms", median(publish_lag_s) * 1e3, "ms");
    report.add("ingest.delta_ratio", mean(delta_ratio), "ratio");
    report.add("ingest.query_p99_ms", bench::tail_quantile(live_latency_us, 0.99) * 1e-3, "ms");
    report.add("loadgen.late_p99_ms", bench::tail_quantile(late_us, 0.99) * 1e-3, "ms");
    report.add("loadgen.sent", static_cast<double>(sent_total), "count");
    report.add("loadgen.failed", static_cast<double>(failed_total), "count");
    report.add("obs.trace_overhead_ratio", trace_overhead, "ratio");
    const bench::Attribution a = bench::attribute(bench::Tracer::get().spans(), roots);
    report.add("bench.unattributed_ratio", a.total_us > 0 ? a.unattributed_us / a.total_us : 0.0,
               "ratio");
    std::fprintf(stderr, "layer wall time over %.3f s of traced work:\n", a.total_us * 1e-6);
    for (const auto& [layer, us] : a.layer_us) {
      std::fprintf(stderr, "  %-8s %9.3f s  %5.1f%%\n", layer.c_str(), us * 1e-6,
                   100.0 * us / a.total_us);
    }
    std::fprintf(stderr, "  %-8s %9.3f s  %5.1f%%\n", "(none)", a.unattributed_us * 1e-6,
                 100.0 * a.unattributed_us / a.total_us);
    if (!options.trace_out.empty() && !bench::Tracer::get().write_chrome_trace(options.trace_out)) {
      std::fprintf(stderr, "warning: cannot write %s\n", options.trace_out.c_str());
    }
  }

  obs::Json::Object metrics;
  for (const auto& [name, value_unit] : report.values) {
    std::fprintf(stderr, "%-32s %14.6f %s\n", name.c_str(), value_unit.first,
                 value_unit.second.c_str());
    metrics[name] = obs::Json(obs::Json::Object{{"value", obs::Json(value_unit.first)},
                                                {"unit", obs::Json(value_unit.second)}});
  }
  const bool ok = ledger.correct && ledger.failed == 0;
  const obs::Json result(obs::Json::Object{
      {"correct", obs::Json(ledger.correct)},
      {"attempted", obs::Json(ledger.attempted)},
      {"failed", obs::Json(ledger.failed)},
      {"metrics", obs::Json(std::move(metrics))},
  });
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  (void)bench::now_us();  // Anchors the clock at process start.
  const std::optional<Options> options = parse_args(argc, argv);
  const std::optional<MixPlan> plan =
      options.has_value() ? plan_for(options->workload, exec::hardware_threads()) : std::nullopt;
  if (!options.has_value() || !plan.has_value()) {
    std::fprintf(stderr,
                 "usage: remgen-bench --workload cold|hot --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  util::set_log_level(util::LogLevel::Warn);
  try {
    return run(*options, *plan);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
