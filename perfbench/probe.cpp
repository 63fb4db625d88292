// perfbench_probe — one benchmark repetition in its own process.
//
//   perfbench_probe run CONFIG EXPORT [--trace SPANS]
//   perfbench_probe shard CONFIG EXPORT_PLAIN EXPORT_SHARDED
//   perfbench_probe setup CONFIG
//
// `run` drives one generated scenario through the library's public path —
// ScenarioSpec::from_file -> validate -> to_campaign_config ->
// CampaignEngine::create -> CampaignEngine::run — into the documented
// "keep in memory while exporting" composition
// FanOutSink{CollectingSink, JsonExportSink -> EXPORT}, then runs the
// paper analyses on every published dataset.  It prints one JSON object
// with the timings, the counts the benchmark pins and the export digest.
// The wall clock stops when the analyses finish; digesting the export and
// everything `--trace` adds happen after it.
//
// With `--trace SPANS` the same repetition also records spans around every
// call it makes into a layer (sink hooks are folded into one span per hook
// kind), replays the vantage dataset through a fresh sim::Simulation +
// p2p::Swarm, and writes the spans to SPANS when it ends.
//
// `shard` runs the config once on the plain engine and once through
// runtime::ShardedCampaignRunner with 4 shards on 4 workers, and reports
// both run times and whether the two exports are byte-identical.
//
// `setup` times only the set-up (load, validate, create) and exits: a run
// takes many cold set-up samples this way, because a single set-up is short
// and noisy.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <expected>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/churn_stats.hpp"
#include "analysis/content_stats.hpp"
#include "analysis/size_estimation.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "measure/sink.hpp"
#include "p2p/swarm.hpp"
#include "runtime/sharded.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/simulation.hpp"

// JsonExportSink spools its sample streams into std::tmpfile(), which the C
// library places in /tmp.  The benchmark keeps every file it writes inside
// its own work directory, so this executable supplies tmpfile() itself: an
// unnamed file in $PERFBENCH_TMPDIR (default: the current directory).  On
// failure it returns nullptr, on which the sink falls back to memory.
extern "C" FILE* tmpfile(void) {
  const char* env_dir = std::getenv("PERFBENCH_TMPDIR");
  const std::string dir = env_dir != nullptr ? env_dir : ".";
  int fd = ::open(dir.c_str(), O_TMPFILE | O_RDWR, 0600);
  if (fd < 0) {  // no O_TMPFILE support: create, then unlink at once
    std::string path = dir + "/spool-XXXXXX";
    fd = ::mkstemp(path.data());
    if (fd >= 0) ::unlink(path.c_str());
  }
  if (fd < 0) return nullptr;
  FILE* file = ::fdopen(fd, "w+");
  if (file == nullptr) ::close(fd);
  return file;
}

namespace {

using namespace ipfs;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---- spans ------------------------------------------------------------------

/// In-memory span log: name, parent, start and end relative to the trace
/// origin, and a call count (> 1 for folded sink-hook spans, whose `end`
/// is `start` + their summed duration).  Disabled, it reads no clock.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point origin) : enabled_(enabled), origin_(origin) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  int begin(std::string name, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), parent, now(), 0.0, 1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_s = now();
  }
  int folded(std::string name, int parent, double total_s, std::uint64_t calls) {
    if (!enabled_ || calls == 0) return -1;
    spans_.push_back({std::move(name), parent, 0.0, total_s, calls});
    return static_cast<int>(spans_.size()) - 1;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    common::JsonWriter json(out);
    json.begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      json.begin_object();
      json.field("id", static_cast<std::int64_t>(i));
      json.field("parent", static_cast<std::int64_t>(span.parent));
      json.field("name", span.name);
      json.field("start_s", span.start_s);
      json.field("end_s", span.end_s);
      json.field("calls", span.calls);
      json.end_object();
    }
    json.end_array();
    out << "\n";
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t calls = 1;
  };

  double now() const { return seconds_between(origin_, Clock::now()); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span over one call into a layer.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, int parent)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Forwards every hook to `inner`, summing the time spent in each hook kind.
class TimedSink final : public measure::MeasurementSink {
 public:
  enum Hook : std::size_t {
    kRunBegin, kCrawl, kPopulation, kProvide, kFetch, kContent, kDataset, kRunEnd,
    kHookCount
  };
  static constexpr std::array<std::string_view, kHookCount> kNames = {
      "on_run_begin", "on_crawl", "on_population", "on_provide",
      "on_fetch",     "on_content", "on_dataset",  "on_run_end"};

  struct Total {
    double seconds = 0.0;
    std::uint64_t calls = 0;
  };

  explicit TimedSink(measure::MeasurementSink& inner) : inner_(inner) {}

  void on_run_begin(const std::string& description) override {
    timed(kRunBegin, [&] { inner_.on_run_begin(description); });
  }
  void on_crawl(const measure::CrawlObservation& crawl) override {
    timed(kCrawl, [&] { inner_.on_crawl(crawl); });
  }
  void on_population(const measure::PopulationSample& sample) override {
    timed(kPopulation, [&] { inner_.on_population(sample); });
  }
  void on_provide(const measure::ProvideSample& sample) override {
    timed(kProvide, [&] { inner_.on_provide(sample); });
  }
  void on_fetch(const measure::FetchSample& sample) override {
    timed(kFetch, [&] { inner_.on_fetch(sample); });
  }
  void on_content(const measure::ContentSample& sample) override {
    timed(kContent, [&] { inner_.on_content(sample); });
  }
  void on_dataset(measure::DatasetRole role, measure::Dataset dataset) override {
    timed(kDataset, [&] { inner_.on_dataset(role, std::move(dataset)); });
  }
  void on_run_end(const measure::RunSummary& summary) override {
    timed(kRunEnd, [&] { inner_.on_run_end(summary); });
  }

  [[nodiscard]] const Total& total(Hook hook) const { return totals_[hook]; }

 private:
  template <typename F>
  void timed(Hook hook, F&& call) {
    const auto start = Clock::now();
    call();
    totals_[hook].seconds += seconds_between(start, Clock::now());
    ++totals_[hook].calls;
  }

  measure::MeasurementSink& inner_;
  std::array<Total, kHookCount> totals_{};
};

// ---- p2p replay -------------------------------------------------------------

struct ReplayStats {
  double open_s = 0.0, close_s = 0.0, identify_s = 0.0, trim_s = 0.0;
  std::uint64_t opens = 0, closes = 0, identify_calls = 0;
  std::uint64_t trim_ticks = 0, noop_ticks = 0;
  std::size_t opened_total = 0;
  std::size_t peerstore_peers = 0;
};

/// Replays a vantage dataset through a fresh Simulation + Swarm using only
/// public calls: the peer history (touch, add_address, set_agent,
/// set_protocols) and every recorded connection open/close at its recorded
/// time, with the trim loop ticking at the period's watermarks.
ReplayStats replay_vantage(const measure::Dataset& dataset, int low_water,
                           int high_water) {
  enum Kind : std::uint8_t { kOpen, kFirstSeen, kAgent, kProtocols, kClose };
  struct Event {
    common::SimTime at;
    Kind kind;
    std::uint32_t index;  // connection index, or peer index
    std::uint32_t sub;    // agent index / protocol event index
    auto operator<=>(const Event&) const = default;
  };

  const auto& peers = dataset.peers();
  const auto& connections = dataset.connections();
  std::vector<Event> events;
  events.reserve(2 * connections.size() + 2 * peers.size());
  for (std::uint32_t i = 0; i < connections.size(); ++i) {
    events.push_back({connections[i].opened, kOpen, i, 0});
    events.push_back({connections[i].closed, kClose, i, 0});
  }
  for (std::uint32_t p = 0; p < peers.size(); ++p) {
    const measure::PeerRecord& peer = peers[p];
    events.push_back({peer.first_seen, kFirstSeen, p, 0});
    for (std::uint32_t a = 0; a < peer.agent_history.size(); ++a) {
      events.push_back({peer.agent_history[a].at, kAgent, p, a});
    }
    // One set_protocols per distinct change time, after all changes at it.
    for (std::uint32_t e = 0; e < peer.protocol_events.size(); ++e) {
      const bool last_at_time = e + 1 == peer.protocol_events.size() ||
                                peer.protocol_events[e + 1].at != peer.protocol_events[e].at;
      if (last_at_time) events.push_back({peer.protocol_events[e].at, kProtocols, p, e});
    }
  }
  std::sort(events.begin(), events.end());

  auto address_of = [&](std::uint32_t peer) {
    const auto& ips = peers[peer].connected_ips;
    return p2p::Multiaddr{ips.empty() ? p2p::IpAddress::v4(0x0a000000u + peer) : *ips.begin(),
                          p2p::Transport::kTcp, 4001};
  };

  ReplayStats stats;
  sim::Simulation simulation;
  p2p::Swarm::Config config;
  config.conn_manager = p2p::ConnManagerConfig::with_watermarks(low_water, high_water);
  config.trim_enabled = true;
  p2p::Swarm swarm(simulation, p2p::PeerId::from_seed(0x9e3779b9u),
                   p2p::Multiaddr{p2p::IpAddress::v4(0x93200fa1u), p2p::Transport::kTcp, 4001},
                   config);
  simulation.schedule_every(config.conn_manager.check_interval, [&] {
    const auto start = Clock::now();
    const std::size_t trimmed = swarm.trim_now();
    stats.trim_s += seconds_between(start, Clock::now());
    ++stats.trim_ticks;
    if (trimmed == 0) ++stats.noop_ticks;
  });

  std::vector<p2p::ConnectionId> ids(connections.size(), 0);
  std::vector<std::set<std::string>> protocols(peers.size());
  std::vector<std::uint32_t> protocol_cursor(peers.size(), 0);
  p2p::Peerstore& peerstore = swarm.peerstore();
  for (const Event& event : events) {
    simulation.run_until(event.at);
    const auto start = Clock::now();
    switch (event.kind) {
      case kOpen: {
        const measure::ConnRecord& record = connections[event.index];
        ids[event.index] = swarm.open_connection(peers[record.peer].pid,
                                                 address_of(record.peer), record.direction);
        stats.open_s += seconds_between(start, Clock::now());
        ++stats.opens;
        break;
      }
      case kClose:
        swarm.close_connection(ids[event.index], connections[event.index].reason);
        stats.close_s += seconds_between(start, Clock::now());
        ++stats.closes;
        break;
      case kFirstSeen: {
        const measure::PeerRecord& peer = peers[event.index];
        peerstore.touch(peer.pid, event.at);
        for (const p2p::IpAddress& ip : peer.connected_ips) {
          peerstore.add_address(peer.pid, {ip, p2p::Transport::kTcp, 4001}, event.at);
        }
        stats.identify_s += seconds_between(start, Clock::now());
        stats.identify_calls += 1 + peer.connected_ips.size();
        break;
      }
      case kAgent: {
        const measure::PeerRecord& peer = peers[event.index];
        peerstore.set_agent(peer.pid, peer.agent_history[event.sub].agent, event.at);
        stats.identify_s += seconds_between(start, Clock::now());
        ++stats.identify_calls;
        break;
      }
      case kProtocols: {
        // Fold this time's changes into the peer's set (untimed), then
        // announce the resulting set (timed).
        const measure::PeerRecord& peer = peers[event.index];
        auto& current = protocols[event.index];
        for (std::uint32_t& e = protocol_cursor[event.index]; e <= event.sub; ++e) {
          const measure::ProtocolEvent& change = peer.protocol_events[e];
          if (change.added) {
            current.insert(change.protocol);
          } else {
            current.erase(change.protocol);
          }
        }
        const std::vector<std::string> announced(current.begin(), current.end());
        const auto call_start = Clock::now();
        peerstore.set_protocols(peer.pid, announced, event.at);
        stats.identify_s += seconds_between(call_start, Clock::now());
        ++stats.identify_calls;
        break;
      }
    }
  }
  simulation.run_until(dataset.measurement_end);
  stats.opened_total = swarm.opened_total();
  stats.peerstore_peers = peerstore.size();
  return stats;
}

// ---- one repetition ---------------------------------------------------------

int fail(const std::string& message) {
  std::cerr << "perfbench_probe: " << message << "\n";
  return 1;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

void write_build(common::JsonWriter& json) {
  json.key("build");
  json.begin_object();
  json.field("compiler", std::string("g++ ") + __VERSION__);
  json.field("build_type", PERFBENCH_BUILD_TYPE);
  json.end_object();
}

struct SetUp {
  scenario::ScenarioSpec spec;
  scenario::CampaignEngine engine;
};

/// The measured set-up: spec load + validate + CampaignEngine::create.
std::expected<SetUp, std::string> set_up(const std::string& config_path, Tracer& tracer,
                                         int parent) {
  std::optional<scenario::ScenarioSpec> spec;
  {
    Scope span(tracer, "scenario.load", parent);
    auto loaded = scenario::ScenarioSpec::from_file(config_path);
    if (!loaded) return std::unexpected(loaded.error());
    spec = std::move(*loaded);
  }
  Scope span(tracer, "scenario.create", parent);
  if (auto invalid = scenario::ScenarioSpec::validate(*spec)) return std::unexpected(*invalid);
  auto engine = scenario::CampaignEngine::create(spec->to_campaign_config());
  if (!engine) return std::unexpected(engine.error());
  return SetUp{std::move(*spec), std::move(*engine)};
}

/// Set-up alone, in a fresh process: extra set-up samples for a run.
int cmd_setup(const std::string& config_path) {
  const auto start = Clock::now();
  Tracer tracer(false, start);
  auto setup = set_up(config_path, tracer, -1);
  if (!setup) return fail(setup.error());
  const double setup_s = seconds_between(start, Clock::now());
  common::JsonWriter json(std::cout);
  json.begin_object();
  json.field("setup_s", setup_s);
  json.end_object();
  std::cout << "\n";
  return 0;
}

int cmd_run(const std::string& config_path, const std::string& export_path,
            const std::optional<std::string>& trace_path) {
  std::ofstream export_file(export_path, std::ios::binary);
  if (!export_file) return fail("cannot open " + export_path + " for writing");

  const auto wall_start = Clock::now();
  Tracer tracer(trace_path.has_value(), wall_start);
  const int root = tracer.begin("bench.wall", -1);
  auto setup = set_up(config_path, tracer, root);
  if (!setup) return fail(setup.error());
  const double setup_s = seconds_between(wall_start, Clock::now());
  const scenario::ScenarioSpec& spec = setup->spec;

  measure::CollectingSink collect;
  measure::JsonExportSink exporter(export_file, spec.output.export_options());
  TimedSink timed_export(exporter);
  measure::FanOutSink fan_out;
  fan_out.add(collect);
  fan_out.add(tracer.enabled() ? static_cast<measure::MeasurementSink&>(timed_export)
                               : exporter);
  TimedSink timed_fan_out(fan_out);

  const auto run_start = Clock::now();
  int run_span = -1;
  {
    Scope span(tracer, "campaign.run", root);
    run_span = span.id();
    setup->engine.run(tracer.enabled() ? static_cast<measure::MeasurementSink&>(timed_fan_out)
                                       : fan_out);
  }
  const double run_s = seconds_between(run_start, Clock::now());
  {
    Scope span(tracer, "measure.close", root);
    export_file.close();
    if (!export_file) return fail("error writing " + export_path);
  }

  std::size_t sessions = 0;
  {
    Scope span(tracer, "analysis.sessions", root);
    for (const auto& entry : collect.datasets()) {
      const auto traces = analysis::reconstruct_sessions(entry.dataset);
      sessions += analysis::compute_churn_stats(traces).session_count;
    }
  }
  std::vector<analysis::NetworkSizeReport> sizes;
  {
    Scope span(tracer, "analysis.size", root);
    for (const auto& entry : collect.datasets()) {
      sizes.push_back(analysis::estimate_network_size(entry.dataset));
    }
  }
  analysis::FetchStats fetch_stats;
  analysis::ProvideStats provide_stats;
  {
    Scope span(tracer, "analysis.content", root);
    provide_stats = analysis::compute_provide_stats(collect.provides());
    fetch_stats = analysis::compute_fetch_stats(collect.fetches());
  }
  tracer.end(root);
  const double wall_s = seconds_between(wall_start, Clock::now());
  const long rss_kb = peak_rss_kb();

  // Everything below is outside the measured wall time.
  const auto exported = read_file(export_path);
  if (!exported) return fail("cannot read back " + export_path);

  const measure::Dataset* vantage = collect.find(measure::DatasetRole::kVantage);
  std::optional<ReplayStats> replay;
  if (tracer.enabled()) {
    for (std::size_t index = 0; index < TimedSink::kHookCount; ++index) {
      const auto hook = static_cast<TimedSink::Hook>(index);
      const std::string_view name = TimedSink::kNames[index];
      const auto& outer = timed_fan_out.total(hook);
      const int parent = tracer.folded("measure.fanout." + std::string(name), run_span,
                                       outer.seconds, outer.calls);
      const auto& inner = timed_export.total(hook);
      tracer.folded("measure.export." + std::string(name), parent, inner.seconds,
                    inner.calls);
    }
    if (vantage != nullptr) {
      replay = replay_vantage(*vantage, spec.period.go_low_water, spec.period.go_high_water);
    }
    tracer.write(*trace_path);
  }

  common::JsonWriter json(std::cout);
  json.begin_object();
  json.field("setup_s", setup_s);
  json.field("run_s", run_s);
  json.field("wall_s", wall_s);
  json.field("peak_rss_kb", static_cast<std::int64_t>(rss_kb));
  json.field("export_bytes", static_cast<std::uint64_t>(exported->size()));
  json.field("digest", hex64(common::hash64(*exported)));
  json.field("population", static_cast<std::uint64_t>(collect.summary().population_size));
  json.field("events", static_cast<std::uint64_t>(collect.summary().events_executed));
  json.key("datasets");
  json.begin_array();
  for (std::size_t i = 0; i < collect.datasets().size(); ++i) {
    const auto& entry = collect.datasets()[i];
    std::uint64_t local_trims = 0;
    for (const measure::ConnRecord& record : entry.dataset.connections()) {
      if (record.reason == p2p::CloseReason::kLocalTrim) ++local_trims;
    }
    json.begin_object();
    json.field("role", measure::to_string(entry.role));
    json.field("peers", static_cast<std::uint64_t>(entry.dataset.peer_count()));
    json.field("connections", static_cast<std::uint64_t>(entry.dataset.connection_count()));
    json.field("local_trims", local_trims);
    json.field("estimated_peers_by_ip", sizes[i].estimated_peers_by_ip);
    json.end_object();
  }
  json.end_array();
  json.field("sessions", static_cast<std::uint64_t>(sessions));
  json.key("content");
  json.begin_object();
  json.field("provides", static_cast<std::uint64_t>(provide_stats.provides));
  json.field("fetches", static_cast<std::uint64_t>(fetch_stats.fetches));
  json.field("found", static_cast<std::uint64_t>(fetch_stats.found_provider));
  json.field("served", static_cast<std::uint64_t>(fetch_stats.served));
  json.end_object();
  json.field("stream_records",
             static_cast<std::uint64_t>(collect.population().size() + collect.provides().size() +
                                        collect.fetches().size() + collect.content().size()));
  if (replay) {
    json.key("replay");
    json.begin_object();
    json.field("open_s", replay->open_s);
    json.field("close_s", replay->close_s);
    json.field("identify_s", replay->identify_s);
    json.field("trim_s", replay->trim_s);
    json.field("opens", replay->opens);
    json.field("closes", replay->closes);
    json.field("identify_calls", replay->identify_calls);
    json.field("trim_ticks", replay->trim_ticks);
    json.field("noop_ticks", replay->noop_ticks);
    json.field("opened_total", static_cast<std::uint64_t>(replay->opened_total));
    json.field("peerstore_peers", static_cast<std::uint64_t>(replay->peerstore_peers));
    json.field("dataset_connections", static_cast<std::uint64_t>(vantage->connection_count()));
    json.field("dataset_peers", static_cast<std::uint64_t>(vantage->peer_count()));
    json.end_object();
  }
  write_build(json);
  json.end_object();
  std::cout << "\n";
  return 0;
}

/// One campaign into FanOutSink{CollectingSink, JsonExportSink -> path};
/// returns the seconds spent inside the run.
std::expected<double, std::string> timed_campaign(
    const scenario::ScenarioSpec& spec, const std::string& path,
    const std::optional<runtime::ShardedCampaignRunner>& sharded) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return std::unexpected("cannot open " + path + " for writing");
  measure::CollectingSink collect;
  measure::JsonExportSink exporter(out, spec.output.export_options());
  measure::FanOutSink fan_out{&collect, &exporter};
  const auto start = Clock::now();
  if (sharded) {
    auto outcome = sharded->run(spec.to_campaign_config(), fan_out);
    if (!outcome) return std::unexpected(outcome.error());
  } else {
    auto engine = scenario::CampaignEngine::create(spec.to_campaign_config());
    if (!engine) return std::unexpected(engine.error());
    engine->run(fan_out);
  }
  const double run_s = seconds_between(start, Clock::now());
  out.close();
  if (!out) return std::unexpected("error writing " + path);
  return run_s;
}

int cmd_shard(const std::string& config_path, const std::string& plain_path,
              const std::string& sharded_path) {
  auto spec = scenario::ScenarioSpec::from_file(config_path);
  if (!spec) return fail(spec.error());
  if (auto invalid = scenario::ScenarioSpec::validate(*spec)) return fail(*invalid);
  const auto plain = timed_campaign(*spec, plain_path, std::nullopt);
  if (!plain) return fail(plain.error());
  runtime::ShardedCampaignRunner::Options options;
  options.shards = 4;
  options.workers = 4;
  const auto sharded = timed_campaign(*spec, sharded_path, runtime::ShardedCampaignRunner(options));
  if (!sharded) return fail(sharded.error());
  const auto plain_bytes = read_file(plain_path);
  const auto sharded_bytes = read_file(sharded_path);
  if (!plain_bytes || !sharded_bytes) return fail("cannot read back the shard exports");

  common::JsonWriter json(std::cout);
  json.begin_object();
  json.field("plain_run_s", *plain);
  json.field("sharded_run_s", *sharded);
  json.field("identical", *plain_bytes == *sharded_bytes);
  json.end_object();
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 3 && args[0] == "run") return cmd_run(args[1], args[2], std::nullopt);
  if (args.size() == 5 && args[0] == "run" && args[3] == "--trace") {
    return cmd_run(args[1], args[2], args[4]);
  }
  if (args.size() == 4 && args[0] == "shard") return cmd_shard(args[1], args[2], args[3]);
  if (args.size() == 2 && args[0] == "setup") return cmd_setup(args[1]);
  std::cerr << "usage: perfbench_probe run CONFIG EXPORT [--trace SPANS]\n"
               "       perfbench_probe setup CONFIG\n"
               "       perfbench_probe shard CONFIG EXPORT_PLAIN EXPORT_SHARDED\n";
  return 2;
}
