// likwid_e2e — the suite's end-to-end benchmark.
//
// One process runs one workload and follows real monitor::Agent samples
// through the whole monitoring stack, composed only from public calls:
//
//   Agent::run (rounds of 32 intervals) -> Collector::samples()
//     -> collect::StreamEncoder::encode_batch -> CollectorService::publish
//     -> ingest threads: StreamDecoder -> TimeSeriesStore (concurrently)
//     -> CollectorService::stop (drain) -> QueryEngine -> cli::CsvSink
//
// The collector_* workloads first capture a corpus of real Agent samples
// and replay it as many streams, so the node side drops out of the timed
// window. No latency is modelled anywhere (device_latency_us = 0): every
// number is compute.
//
//   likwid_e2e --workload NAME --seed S [--seconds N] [--trace 0|1]
//              [--trace-out FILE] [--smoke]
//
// A run repeats the workload ("passes") on the same seed-derived inputs
// until --seconds have elapsed, after one warm-up pass and at least three
// measured passes, and prints one JSON line of medians over the passes as
// the last line of standard output: the end-to-end metrics with --trace 0;
// with --trace 1 the per-layer metrics, from traced passes alternating
// with untraced ones so the tracing overhead is measured in the same
// process. Every pass checks its outputs; a failed check makes the run
// incorrect and the exit status 1.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "cli/sinks.hpp"
#include "collect/query.hpp"
#include "collect/service.hpp"
#include "collect/wire.hpp"
#include "core/name_table.hpp"
#include "monitor/agent.hpp"
#include "monitor/aggregator.hpp"
#include "trace.hpp"
#include "workloads/synthetic.hpp"

using namespace likwid;
using e2e::Lane;
using e2e::Scope;
using e2e::Tracer;
using e2e::now_ns;

namespace {

constexpr std::size_t kRoundIntervals = 32;  ///< Agent::run length
constexpr double kIntervalSeconds = 0.1;
constexpr int kWindowSamples = 5;
constexpr std::size_t kFrameSamples = 32;  ///< replay frame length
constexpr std::uint64_t kShadowEvery = 16;  ///< traced decode/store probes
constexpr int kProbeIntervals = 2000;
constexpr std::size_t kTopK = 10;
constexpr int kAgentWorkers = 2;
constexpr std::size_t kProducers = 2;  ///< replay producer threads
constexpr const char* kMachine = "westmere-ep";

// --- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  /// false: a live Agent fleet feeds the collector round by round.
  /// true: a captured Agent corpus is replayed as `streams` streams.
  bool replay = false;
  std::vector<std::string> groups;
  double utilization = 0;
  int nodes = 0;         ///< fleet nodes, or corpus nodes when replaying
  std::size_t rounds = 0;  ///< rounds of 32 intervals (corpus length too)
  std::size_t streams = 0;             ///< replay only
  std::size_t samples_per_stream = 0;  ///< replay only
  std::size_t ingest_threads = 1;
  collect::StoreConfig store;
  std::size_t node_queries = 0;
  std::size_t fleet_queries = 0;

  std::size_t stream_count() const {
    return replay ? streams : static_cast<std::size_t>(nodes);
  }
};

/// A store whose raw tier holds `samples` per series.
collect::StoreConfig raw_store(std::size_t samples) {
  collect::StoreConfig store;
  store.raw_chunks_per_series = samples / store.chunk_points + 1;
  return store;
}

std::vector<Workload> workloads_table(bool smoke) {
  const std::vector<std::string> mux = {"MEM", "FLOPS_DP", "L2", "L3"};
  std::vector<Workload> table;

  // The default likwid-agent shape: the simulated workload and the core
  // polling do nearly all the work, collect does little.
  Workload busy;
  busy.name = "fleet_busy_mem";
  busy.groups = {"MEM"};
  busy.utilization = 0.6;
  busy.nodes = 64;
  busy.rounds = smoke ? 4 : 24;
  busy.node_queries = smoke ? 20 : 100;
  busy.fleet_queries = smoke ? 10 : 20;
  table.push_back(busy);

  // The same fleet idle with four groups rotated: no workload simulation,
  // only the bare monitoring path, and one-sample wire records.
  Workload idle = busy;
  idle.name = "fleet_idle_mux";
  idle.groups = mux;
  idle.utilization = 0;
  idle.rounds = smoke ? 4 : 32;
  idle.fleet_queries = smoke ? 10 : 60;
  table.push_back(idle);

  // Replayed busy-MEM traffic into small store tiers: collect encode,
  // decode and store do almost all the work and every retention cascade
  // runs, counted forgetting included.
  Workload ingest;
  ingest.name = "collector_ingest_mem";
  ingest.replay = true;
  ingest.groups = {"MEM"};
  ingest.utilization = 0.6;
  ingest.nodes = 32;
  ingest.rounds = 8;
  ingest.streams = smoke ? 128 : 1024;
  ingest.samples_per_stream = smoke ? 1024 : 2048;
  ingest.ingest_threads = 2;
  ingest.store.raw_chunks_per_series = 2;
  ingest.store.downsample_seconds = 1.0;
  ingest.store.buckets_per_series = 16;
  ingest.store.summaries_per_series = 8;
  ingest.node_queries = smoke ? 20 : 100;
  ingest.fleet_queries = smoke ? 4 : 20;
  table.push_back(ingest);

  // Reads beside the writes: replayed 4-group idle traffic retained raw,
  // then a single client queries it. The query layer dominates here.
  Workload query;
  query.name = "collector_query_mux";
  query.replay = true;
  query.groups = mux;
  query.utilization = 0;
  query.nodes = 32;
  query.rounds = 8;
  query.streams = smoke ? 64 : 512;
  query.samples_per_stream = smoke ? 256 : 2048;
  query.ingest_threads = 2;
  query.store = raw_store(query.samples_per_stream);
  query.node_queries = smoke ? 40 : 100;
  query.fleet_queries = 20;
  table.push_back(query);

  for (Workload& w : table) {
    if (!w.replay) w.store = raw_store(w.rounds * kRoundIntervals);
  }
  return table;
}

// --- small helpers ----------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_samples(const std::vector<monitor::Sample>& a,
                  const std::vector<monitor::Sample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].sequence != b[i].sequence ||
        !same_bits(a[i].t_start, b[i].t_start) ||
        !same_bits(a[i].t_end, b[i].t_end) ||
        a[i].schema->group_id != b[i].schema->group_id ||
        a[i].values.size() != b[i].values.size()) {
      return false;
    }
    for (std::size_t m = 0; m < a[i].values.size(); ++m) {
      if (!same_bits(a[i].values[m], b[i].values[m])) return false;
    }
  }
  return true;
}

bool same_points(const std::vector<monitor::SeriesPoint>& a,
                 const std::vector<monitor::SeriesPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const monitor::SeriesPoint& x = a[i];
    const monitor::SeriesPoint& y = b[i];
    if (x.machine_id != y.machine_id || x.window != y.window ||
        x.group_id != y.group_id || x.metric_id != y.metric_id ||
        x.stats.count != y.stats.count || !same_bits(x.t_start, y.t_start) ||
        !same_bits(x.t_end, y.t_end) || !same_bits(x.stats.min, y.stats.min) ||
        !same_bits(x.stats.avg, y.stats.avg) ||
        !same_bits(x.stats.max, y.stats.max) ||
        !same_bits(x.stats.p95, y.stats.p95)) {
      return false;
    }
  }
  return true;
}

/// Logical (uncompressed) size of a sample: sequence, two timestamps and
/// one double per metric — the footprint the wire format competes with.
std::uint64_t logical_bytes(const monitor::Sample& sample) {
  return 8 * (3 + sample.values.size());
}

monitor::AgentConfig agent_config(const Workload& w, std::uint64_t seed,
                                  std::size_t intervals_per_run) {
  monitor::AgentConfig cfg;
  cfg.monitor.machine_preset = kMachine;
  cfg.monitor.groups = w.groups;
  cfg.monitor.interval_seconds = kIntervalSeconds;
  cfg.monitor.ring_capacity = intervals_per_run;
  cfg.monitor.window_samples = kWindowSamples;
  cfg.monitor.target_utilization = w.utilization;
  cfg.monitor.seed = seed;
  cfg.fleet.num_threads = kAgentWorkers;
  cfg.num_machines = w.nodes;
  cfg.duration_seconds =
      static_cast<double>(intervals_per_run) * kIntervalSeconds;
  return cfg;
}

// --- one pass ---------------------------------------------------------------

/// Producer-side accounting: what the encoders put on the wire. Each
/// producer thread keeps its own, summed after the join.
struct Traffic {
  std::uint64_t samples = 0, wire_bytes = 0, logical_bytes = 0,
                data_frames = 0, batches = 0, batches_dropped = 0,
                samples_dropped = 0, frames_dropped = 0, generated = 0,
                shadow_samples = 0;

  void add(const Traffic& o) {
    samples += o.samples;
    wire_bytes += o.wire_bytes;
    logical_bytes += o.logical_bytes;
    data_frames += o.data_frames;
    batches += o.batches;
    batches_dropped += o.batches_dropped;
    samples_dropped += o.samples_dropped;
    frames_dropped += o.frames_dropped;
    generated += o.generated;
    shadow_samples += o.shadow_samples;
  }
};

/// Everything one pass measured; turned into metrics by the caller.
struct PassOutcome {
  double setup_s = 0;
  double window_s = 0;  ///< first timed call until stop() returned
  double cpu_s = 0;     ///< process CPU time over the same window
  Traffic sent;
  std::uint64_t decoded = 0;  ///< samples decoded into the store
  std::uint64_t failed_checks = 0;
  std::vector<double> node_query_ms;
  std::vector<double> fleet_query_ms;
  // Denominators and counters of the per-layer metrics.
  std::uint64_t agent_samples = 0;
  std::uint64_t steals = 0;
  std::uint64_t slices = 0;
  std::uint64_t folded = 0;
  std::uint64_t scanned = 0;
  std::uint64_t queries = 0;
  collect::StoreStats store;
  std::uint64_t retained_bytes = 0;
};

void check(bool ok, PassOutcome& out, const std::string& what) {
  if (ok) return;
  ++out.failed_checks;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

/// A bench-owned decoder + store that every 16th stream also runs through
/// in traced passes, timing the layers the ingest threads hide.
struct Shadow {
  explicit Shadow(const collect::StoreConfig& config) : store(config) {}
  collect::StreamDecoder decoder;
  collect::TimeSeriesStore store;
  std::vector<monitor::Sample> scratch;
};

/// Producer-side state of one node stream.
struct Stream {
  explicit Stream(std::uint64_t node) : id(node), encoder(node) {}
  std::uint64_t id;
  collect::StreamEncoder encoder;
  std::vector<monitor::Sample> batch;
  std::unique_ptr<Shadow> shadow;
};


/// Encode `stream.batch`, run the shadow decoder on it when traced, and
/// publish the frame; a dropped frame rolls its schema announcements back.
void ship(collect::CollectorService& service, Stream& stream, Lane* lane,
          Traffic& acc) {
  collect::Frame frame;
  {
    const Scope span(lane, "collect.encode");
    frame = stream.encoder.encode_batch(stream.batch);
  }
  acc.samples += frame.sample_count;
  acc.batches += frame.batch_count;
  acc.wire_bytes += frame.data.size();
  ++acc.data_frames;
  for (const monitor::Sample& s : stream.batch) {
    acc.logical_bytes += logical_bytes(s);
  }
  if (lane != nullptr && stream.shadow != nullptr) {
    Shadow& shadow = *stream.shadow;
    shadow.scratch.clear();
    {
      const Scope span(lane, "collect.decode");
      shadow.decoder.consume(frame.data, shadow.scratch);
    }
    {
      const Scope span(lane, "collect.store");
      shadow.store.append_batch(stream.id, shadow.scratch);
    }
    acc.shadow_samples += shadow.scratch.size();
  }
  bool published = false;
  {
    const Scope span(lane, "collect.publish");
    published = service.publish(stream.id, std::move(frame.data));
  }
  if (!published) {
    stream.encoder.rollback_schemas(frame);
    ++acc.frames_dropped;
    acc.batches_dropped += frame.batch_count;
    acc.samples_dropped += frame.sample_count;
  }
}

/// Publish the stream header (and feed it to the shadow decoder).
void ship_header(collect::CollectorService& service, Stream& stream,
                 Lane* lane, Traffic& acc) {
  collect::Frame header = stream.encoder.header();
  acc.wire_bytes += header.data.size();
  if (lane != nullptr && stream.shadow != nullptr) {
    stream.shadow->decoder.consume(header.data, stream.shadow->scratch);
  }
  const Scope span(lane, "collect.publish");
  if (!service.publish(stream.id, std::move(header.data))) {
    ++acc.frames_dropped;
  }
}

std::vector<Stream> make_streams(const Workload& w, bool traced) {
  std::vector<Stream> streams;
  streams.reserve(w.stream_count());
  for (std::size_t s = 0; s < w.stream_count(); ++s) {
    streams.emplace_back(s);
    if (traced && s % kShadowEvery == 0) {
      streams.back().shadow = std::make_unique<Shadow>(w.store);
    }
  }
  return streams;
}

std::unique_ptr<collect::CollectorService> make_service(const Workload& w) {
  collect::ServiceConfig cfg;
  cfg.num_nodes = w.stream_count();
  cfg.ingest_threads = w.ingest_threads;
  cfg.ring_capacity = 64;
  // Throughput, not backpressure, is measured: a generous deadline means
  // a frame is only dropped when ingest stalls for seconds.
  cfg.publish_deadline_seconds = 30.0;
  cfg.store = w.store;
  return std::make_unique<collect::CollectorService>(cfg);
}

/// The (group, metric) pairs fleet queries ask about.
std::vector<std::pair<std::string, std::string>> metric_pairs(
    const monitor::Collector& collector) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& schema : collector.schemas()) {
    for (const core::NameId metric : schema->metric_ids) {
      pairs.emplace_back(core::resolve_name(schema->group_id),
                         core::resolve_name(metric));
    }
  }
  return pairs;
}

/// Raw-tier samples of every node, split by group (what a query decodes).
struct RawCounts {
  std::vector<std::uint64_t> per_node;
  std::map<core::NameId, std::uint64_t> per_group;
};

RawCounts raw_counts(const collect::CollectorService& service,
                     std::size_t nodes) {
  RawCounts counts;
  counts.per_node.assign(nodes, 0);
  for (std::size_t node = 0; node < nodes; ++node) {
    const collect::TimeSeriesStore& store = service.store_for(node);
    const auto* groups = store.node_series(node);
    if (groups == nullptr) continue;
    for (const auto& [group, series] : *groups) {
      const std::uint64_t n =
          series.open.size() +
          series.chunks.size() * store.config().chunk_points;
      counts.per_node[node] += n;
      counts.per_group[group] += n;
    }
  }
  return counts;
}

/// The query phase: one closed-loop client asking for node views (a
/// node's windowed rollup plus its raw samples) and metric views (one
/// metric's fleet statistics plus its top-k nodes), each answer rendered
/// through CsvSink. Latency is the whole view, calls plus rendering. Nodes
/// and metrics are visited in a fixed rotation, so every run asks the same
/// mix of questions and the latency distributions stay comparable.
void run_queries(const Workload& w, const collect::CollectorService& service,
                 const std::vector<std::pair<std::string, std::string>>& pairs,
                 Lane* lane, PassOutcome& out) {
  const collect::QueryEngine engine(service, kWindowSamples);
  const cli::CsvSink sink;
  const std::size_t nodes = w.stream_count();
  const RawCounts raw = raw_counts(service, nodes);
  std::size_t rendered = 0;

  for (std::size_t i = 0; i < w.node_queries; ++i) {
    const std::uint64_t node = i % nodes;
    const std::int64_t t0 = now_ns();
    std::vector<monitor::SeriesPoint> rollup;
    std::vector<monitor::Sample> samples;
    {
      const Scope query(lane, "query");
      {
        const Scope span(lane, "collect.query.rollup");
        rollup = engine.rollup(node);
      }
      {
        const Scope span(lane, "cli.render");
        rendered += sink.series(rollup).size();
      }
      {
        const Scope span(lane, "collect.query.raw_samples");
        samples = engine.raw_samples(node);
      }
      // A raw export: every sample as a one-sample window.
      const Scope span(lane, "cli.render");
      std::vector<monitor::SeriesPoint> points;
      int index = 0;
      for (const monitor::Sample& s : samples) {
        for (std::size_t m = 0; m < s.values.size(); ++m) {
          monitor::SeriesPoint p;
          p.machine_id = static_cast<int>(node);
          p.window = index;
          p.t_start = s.t_start;
          p.t_end = s.t_end;
          p.group_id = s.schema->group_id;
          p.metric_id = s.schema->metric_ids[m];
          p.stats = {s.values[m], s.values[m], s.values[m], s.values[m], 1};
          points.push_back(p);
        }
        ++index;
      }
      rendered += sink.series(points).size();
    }
    out.node_query_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    out.scanned += 2 * raw.per_node[node];
    check(!rollup.empty() && samples.size() == raw.per_node[node], out,
          "node view " + std::to_string(node) + " is incomplete");
  }

  for (std::size_t i = 0; i < w.fleet_queries; ++i) {
    const auto& [group, metric] = pairs[i % pairs.size()];
    const std::int64_t t0 = now_ns();
    api::ResultTable stats;
    api::ResultTable top;
    {
      const Scope query(lane, "query");
      {
        const Scope span(lane, "collect.query.fleet_stats");
        stats = engine.fleet_stats(group, metric);
      }
      {
        const Scope span(lane, "cli.render");
        rendered += sink.measurement(stats).size();
      }
      {
        const Scope span(lane, "collect.query.top_k");
        top = engine.top_k(group, metric, kTopK);
      }
      const Scope span(lane, "cli.render");
      rendered += sink.measurement(top).size();
    }
    out.fleet_query_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    out.scanned += 2 * raw.per_group.at(core::intern_name(group));
    check(stats.cpus.size() == nodes &&
              top.cpus.size() == std::min(kTopK, nodes),
          out, "metric view " + group + "/" + metric + " is incomplete");
  }
  out.queries = 2 * (w.node_queries + w.fleet_queries);

  api::ResultTable status;
  {
    const Scope span(lane, "collect.query.node_status");
    status = engine.node_status();
  }
  rendered += sink.measurement(status).size();
  check(status.cpus.size() == nodes && rendered > 0, out,
        "node_status does not cover the fleet");
}

/// Loss reconciliation and the store identity.
void check_accounting(const collect::CollectorService& service,
                      PassOutcome& out) {
  const collect::DecodeStats decode = service.decode_stats();
  check(out.sent.batches ==
            decode.batches + out.sent.batches_dropped + decode.decode_errors(),
        out,
        "loss reconciliation: " + std::to_string(out.sent.batches) +
            " batches encoded != " + std::to_string(decode.batches) +
            " decoded + " + std::to_string(out.sent.batches_dropped) +
            " dropped + " + std::to_string(decode.decode_errors()) +
            " decode errors");
  check(decode.samples + out.sent.samples_dropped == out.sent.samples, out,
        "samples decoded + dropped != samples produced");
  std::uint64_t tiers = 0;
  for (std::size_t i = 0; i < service.num_shards(); ++i) {
    const collect::TimeSeriesStore& shard = service.shard(i);
    tiers += shard.samples_in_raw() + shard.samples_in_buckets() +
             shard.samples_in_summaries();
    out.retained_bytes += shard.retained_chunk_bytes();
  }
  out.store = service.store_stats();
  check(out.store.samples_appended == tiers + out.store.samples_forgotten,
        out,
        "store identity: appended " +
            std::to_string(out.store.samples_appended) + " != retained " +
            std::to_string(tiers) + " + forgotten " +
            std::to_string(out.store.samples_forgotten));
  check(out.store.samples_appended == decode.samples, out,
        "store appended != samples decoded");
  out.decoded = decode.samples;
}

// --- the live fleet ---------------------------------------------------------

PassOutcome run_fleet_pass(const Workload& w, std::uint64_t seed,
                           Tracer* tracer) {
  PassOutcome out;
  Lane* lane = tracer != nullptr ? tracer->lane() : nullptr;
  const std::int64_t t_pass = now_ns();
  const Scope workload_span(lane, "workload");

  std::unique_ptr<monitor::Agent> agent;
  std::unique_ptr<collect::CollectorService> service;
  std::vector<Stream> streams;
  std::vector<monitor::WindowFolder> folders;
  {
    const Scope span(lane, "setup");
    agent = std::make_unique<monitor::Agent>(
        agent_config(w, seed, kRoundIntervals));
    service = make_service(w);
    streams = make_streams(w, lane != nullptr);
    for (int n = 0; n < w.nodes; ++n) folders.emplace_back(n, kWindowSamples);
    service->start();
  }
  out.setup_s = static_cast<double>(now_ns() - t_pass) / 1e9;

  Traffic& acc = out.sent;
  std::vector<std::uint64_t> seen(static_cast<std::size_t>(w.nodes), 0);
  const std::int64_t t0 = now_ns();
  const double cpu0 = cpu_seconds();
  for (Stream& stream : streams) ship_header(*service, stream, lane, acc);
  for (std::size_t r = 0; r < w.rounds; ++r) {
    const Scope round(lane, "round");
    {
      const Scope span(lane, "monitor.run");
      agent->run();
    }
    out.steals += agent->transport().steals;
    out.slices += agent->transport().slices_folded;
    for (Stream& stream : streams) {
      const monitor::SampleRing& ring =
          agent->collectors()[stream.id]->samples();
      const std::uint64_t fresh = ring.pushed() - seen[stream.id];
      seen[stream.id] = ring.pushed();
      if (fresh != kRoundIntervals || fresh > ring.size()) {
        check(false, out,
              "node " + std::to_string(stream.id) + " produced " +
                  std::to_string(fresh) + " samples in a round");
      }
      {
        const Scope span(lane, "bench.generate");
        stream.batch.resize(fresh);
        for (std::size_t i = 0; i < fresh; ++i) {
          stream.batch[i] = ring[ring.size() - fresh + i];
        }
      }
      acc.generated += fresh;
      {
        // The reference fold of the rollup gate: what the Agent would
        // roll up in process from the very samples put on the wire.
        const Scope span(lane, "monitor.fold");
        for (const monitor::Sample& s : stream.batch) {
          folders[stream.id].add(s);
        }
      }
      out.folded += fresh;
      ship(*service, stream, lane, acc);
    }
  }
  {
    const Scope span(lane, "collect.drain");
    service->stop();
  }
  out.window_s = static_cast<double>(now_ns() - t0) / 1e9;
  out.cpu_s = cpu_seconds() - cpu0;
  out.agent_samples = acc.generated;
  check_accounting(*service, out);

  run_queries(w, *service, metric_pairs(*agent->collectors().front()),
              lane, out);

  // The real-sample rollup gate: the collector's rollup of every node is
  // bit-equal to the bench's own fold of the samples it encoded.
  const collect::QueryEngine engine(*service, kWindowSamples);
  for (int n = 0; n < w.nodes; ++n) {
    monitor::WindowFolder& folder = folders[static_cast<std::size_t>(n)];
    folder.finish();
    check(same_points(engine.rollup(static_cast<std::uint64_t>(n)),
                      folder.points()),
          out, "node " + std::to_string(n) + " rollup differs from the fold");
  }
  return out;
}

// --- corpus replay ----------------------------------------------------------

/// Captured real Agent samples, one stream per corpus node.
struct Corpus {
  std::vector<std::vector<monitor::Sample>> nodes;
  std::vector<std::pair<std::string, std::string>> pairs;
  std::size_t length = 0;
  double span_seconds = 0;  ///< time shift of one replay lap
};

Corpus capture_corpus(const Workload& w, std::uint64_t seed, Lane* lane,
                      PassOutcome& out) {
  const std::size_t length = w.rounds * kRoundIntervals;
  monitor::Agent agent(agent_config(w, seed, length));
  {
    const Scope span(lane, "monitor.run");
    agent.run();
  }
  out.steals += agent.transport().steals;
  out.slices += agent.transport().slices_folded;
  Corpus corpus;
  corpus.length = length;
  corpus.pairs = metric_pairs(*agent.collectors().front());
  for (const auto& collector : agent.collectors()) {
    const monitor::SampleRing& ring = collector->samples();
    std::vector<monitor::Sample> samples;
    samples.reserve(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i) samples.push_back(ring[i]);
    corpus.nodes.push_back(std::move(samples));
  }
  corpus.span_seconds =
      corpus.nodes.front().back().t_end - corpus.nodes.front().front().t_start;
  out.agent_samples += length * static_cast<std::size_t>(w.nodes);
  return corpus;
}

/// Sample `k` of replay stream `stream`: its corpus node's stream started
/// at a seed-drawn phase and continued lap after lap, sequence and time
/// shifted so the replayed stream is one continuous series.
void replay_sample(const Corpus& corpus, std::uint64_t stream,
                   std::uint64_t phase, std::uint64_t k,
                   monitor::Sample& out) {
  const auto& node = corpus.nodes[stream % corpus.nodes.size()];
  const std::uint64_t index = phase + k;
  const std::uint64_t lap = index / corpus.length;
  const monitor::Sample& base = node[index % corpus.length];
  const double shift = static_cast<double>(lap) * corpus.span_seconds;
  out.sequence = base.sequence + lap * corpus.length;
  out.t_start = base.t_start + shift;
  out.t_end = base.t_end + shift;
  out.schema = base.schema;
  out.values = base.values;
}

PassOutcome run_replay_pass(const Workload& w, std::uint64_t seed,
                            Tracer* tracer) {
  PassOutcome out;
  Lane* lane = tracer != nullptr ? tracer->lane() : nullptr;
  const std::int64_t t_pass = now_ns();
  const Scope workload_span(lane, "workload");

  Corpus corpus;
  std::unique_ptr<collect::CollectorService> service;
  std::vector<Stream> streams;
  std::vector<std::uint64_t> phases;
  {
    const Scope span(lane, "setup");
    corpus = capture_corpus(w, seed, lane, out);
    service = make_service(w);
    streams = make_streams(w, lane != nullptr);
    for (std::size_t s = 0; s < w.streams; ++s) {
      phases.push_back(splitmix64(seed * 0x100000001B3ULL + s) % corpus.length);
    }
    service->start();
  }
  out.setup_s = static_cast<double>(now_ns() - t_pass) / 1e9;

  std::vector<Traffic> per_thread(kProducers);
  std::vector<std::exception_ptr> errors(kProducers);
  const auto produce = [&](std::size_t p, Lane* plane) {
    try {
      Traffic& acc = per_thread[p];
      for (std::size_t s = p; s < w.streams; s += kProducers) {
        ship_header(*service, streams[s], plane, acc);
      }
      for (std::size_t k0 = 0; k0 < w.samples_per_stream; k0 += kFrameSamples) {
        const Scope round(plane, "round");
        const std::size_t n =
            std::min(kFrameSamples, w.samples_per_stream - k0);
        for (std::size_t s = p; s < w.streams; s += kProducers) {
          Stream& stream = streams[s];
          {
            const Scope span(plane, "bench.generate");
            stream.batch.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
              replay_sample(corpus, s, phases[s], k0 + i, stream.batch[i]);
            }
          }
          acc.generated += n;
          ship(*service, stream, plane, acc);
        }
      }
    } catch (...) {
      errors[p] = std::current_exception();
    }
  };

  const std::int64_t t0 = now_ns();
  const double cpu0 = cpu_seconds();
  {
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kProducers; ++p) {
      Lane* plane =
          tracer != nullptr ? tracer->lane(workload_span.id()) : nullptr;
      threads.emplace_back(produce, p, plane);
    }
    for (std::thread& t : threads) t.join();
  }
  {
    const Scope span(lane, "collect.drain");
    service->stop();
  }
  out.window_s = static_cast<double>(now_ns() - t0) / 1e9;
  out.cpu_s = cpu_seconds() - cpu0;
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  for (const Traffic& t : per_thread) out.sent.add(t);
  check_accounting(*service, out);

  run_queries(w, *service, corpus.pairs, lane, out);

  // Each stream's raw tier must be the newest replayed samples bit for
  // bit, and the collector's rollup of it bit-equal to the bench's fold
  // of the same samples.
  const collect::QueryEngine engine(*service, kWindowSamples);
  const bool holds_stream = w.store.raw_chunks_per_series *
                                w.store.chunk_points >=
                            w.samples_per_stream;
  std::vector<monitor::Sample> expected;
  for (std::size_t s = 0; s < w.streams; ++s) {
    const std::vector<monitor::Sample> raw = engine.raw_samples(s);
    const std::size_t held = raw.size();
    check(held > 0 && held <= w.samples_per_stream &&
              (!holds_stream || held == w.samples_per_stream),
          out,
          "stream " + std::to_string(s) + " holds " + std::to_string(held) +
              " raw samples");
    if (held == 0 || held > w.samples_per_stream) continue;
    expected.resize(held);
    for (std::size_t i = 0; i < held; ++i) {
      replay_sample(corpus, s, phases[s], w.samples_per_stream - held + i,
                    expected[i]);
    }
    check(same_samples(raw, expected), out,
          "stream " + std::to_string(s) + " raw tier differs from the replay");
    monitor::WindowFolder folder(static_cast<int>(s), kWindowSamples);
    {
      const Scope span(lane, "monitor.fold");
      for (const monitor::Sample& sample : expected) folder.add(sample);
      folder.finish();
    }
    out.folded += held;
    check(same_points(engine.rollup(s), folder.points()), out,
          "stream " + std::to_string(s) + " rollup differs from the fold");
  }
  return out;
}

// --- the probe node ---------------------------------------------------------

/// One api::Session built like a Collector (same preset, groups, one cpu
/// per core, machine 0's resident workload) stepped for kProbeIntervals
/// intervals, timing the layers under a sampling step.
void run_probe(const Workload& w, std::uint64_t seed, Tracer& tracer) {
  Lane* lane = tracer.lane();
  const Scope probe(lane, "probe");
  auto session = api::Session::configure()
                     .name("likwid_e2e probe")
                     .machine(kMachine)
                     .seed(seed)
                     .build();
  workloads::Placement placement;
  for (const auto& siblings : session->topology().cores) {
    placement.cpus.push_back(siblings.front());
  }
  session->set_cpus(placement.cpus);
  for (const std::string& group : w.groups) session->add_group(group);
  session->start();
  core::IntervalSampler& sampler = session->sampler();
  const core::PerfCtr& ctr = session->counters();
  ossim::SimKernel& kernel = session->kernel();
  workloads::SyntheticKernel workload(workloads::daxpy_kernel(4'000'000, 64));
  core::IntervalSampler::Interval iv;
  core::MetricBatch batch;
  const bool rotate = w.groups.size() > 1;
  double fraction_per_second = 1e-3;
  for (int step = 0; step < kProbeIntervals; ++step) {
    {
      // The Collector's busy/idle split of one interval.
      const Scope span(lane, "workloads.run_slice");
      const double phase = static_cast<double>(step % 8) / 8.0;
      const double budget = std::min(
          kIntervalSeconds * w.utilization * (0.5 + phase), kIntervalSeconds);
      double busy = 0;
      for (int slice = 0; slice < 64 && busy < budget - 1e-12; ++slice) {
        const double want = std::min(budget / 4, budget - busy);
        const double fraction =
            std::clamp(want * fraction_per_second, 1e-9, 1.0);
        const double t = workload.run_slice(kernel, placement, fraction);
        if (t <= 0) break;
        kernel.advance_time(t);
        busy += t;
        fraction_per_second = fraction / t;
      }
      if (busy < kIntervalSeconds) kernel.advance_time(kIntervalSeconds - busy);
    }
    {
      const Scope span(lane, "core.poll");
      sampler.poll_into(iv, rotate);
    }
    {
      const Scope span(lane, "core.eval");
      ctr.compute_metrics_batched(iv.set, iv.counts, batch, iv.seconds(),
                                  /*wall_time=*/true);
    }
  }
}

// --- metrics ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (--trace 0); names and units match
/// BENCHMARK.json.
const std::vector<MetricDef> kEndToEnd = {
    {"samples_per_s", "samples/s"},
    {"cpu_us_per_sample", "us"},
    {"setup_s", "s"},
    {"wire_bytes_per_sample", "B"},
    {"peak_rss_mb", "MB"},
    {"query_node_p50_ms", "ms"},
    {"query_node_p90_ms", "ms"},
    {"query_fleet_p50_ms", "ms"},
    {"query_fleet_p90_ms", "ms"},
};

/// The per-layer metrics (--trace 1).
const std::vector<MetricDef> kPerLayer = {
    {"workloads.run_slice.ns_per_sample", "ns"},
    {"core.poll.ns_per_sample", "ns"},
    {"core.eval.ns_per_sample", "ns"},
    {"monitor.run.ns_per_sample", "ns"},
    {"monitor.fold.ns_per_sample", "ns"},
    {"monitor.steals", "count"},
    {"monitor.slices", "count"},
    {"collect.encode.ns_per_sample", "ns"},
    {"collect.wire.bytes_per_sample", "B"},
    {"collect.wire.compression_ratio", "x"},
    {"collect.wire.batches_per_frame", "count"},
    {"collect.publish.ns_per_frame", "ns"},
    {"collect.publish.frames_dropped", "count"},
    {"collect.drain_s", "s"},
    {"collect.decode.ns_per_sample", "ns"},
    {"collect.store.ns_per_sample", "ns"},
    {"collect.store.chunks_closed", "count"},
    {"collect.store.chunks_evicted", "count"},
    {"collect.store.buckets_folded", "count"},
    {"collect.store.samples_forgotten", "count"},
    {"collect.store.retained_bytes", "B"},
    {"collect.query.rollup.us", "us"},
    {"collect.query.raw_samples.us", "us"},
    {"collect.query.fleet_stats.us", "us"},
    {"collect.query.top_k.us", "us"},
    {"collect.query.node_status.us", "us"},
    {"collect.query.samples_scanned", "count"},
    {"cli.render.us", "us"},
    {"bench.generate.ns_per_sample", "ns"},
    {"trace.round_coverage", "%"},
    {"trace.query_coverage", "%"},
    {"trace.overhead", "%"},
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double samples_per_s(const PassOutcome& p) {
  return ratio(static_cast<double>(p.decoded), p.window_s);
}

/// Per-layer metrics of one traced pass, from its spans and counters.
std::map<std::string, double> layer_metrics(const PassOutcome& p,
                                            const Tracer& tracer) {
  const std::map<std::string, e2e::LayerTime> layers = tracer.layers();
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? e2e::LayerTime{} : it->second;
  };
  const auto per = [&](const char* name, double den) {
    return ratio(layer(name).total_ns, den);
  };
  const auto mean_us = [&](const char* name) {
    const e2e::LayerTime t = layer(name);
    return ratio(t.total_ns, static_cast<double>(t.count)) / 1e3;
  };
  const auto coverage = [&](const char* name) {
    const e2e::LayerTime t = layer(name);
    return 100.0 * ratio(t.child_ns, t.total_ns);
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  std::map<std::string, double> m;
  m["workloads.run_slice.ns_per_sample"] =
      per("workloads.run_slice", kProbeIntervals);
  m["core.poll.ns_per_sample"] = per("core.poll", kProbeIntervals);
  m["core.eval.ns_per_sample"] = per("core.eval", kProbeIntervals);
  m["monitor.run.ns_per_sample"] = per("monitor.run", d(p.agent_samples));
  m["monitor.fold.ns_per_sample"] = per("monitor.fold", d(p.folded));
  m["monitor.steals"] = d(p.steals);
  m["monitor.slices"] = d(p.slices);
  m["collect.encode.ns_per_sample"] = per("collect.encode", d(p.sent.samples));
  m["collect.wire.bytes_per_sample"] =
      ratio(d(p.sent.wire_bytes), d(p.sent.samples));
  m["collect.wire.compression_ratio"] =
      ratio(d(p.sent.logical_bytes), d(p.sent.wire_bytes));
  m["collect.wire.batches_per_frame"] =
      ratio(d(p.sent.batches), d(p.sent.data_frames));
  m["collect.publish.ns_per_frame"] =
      per("collect.publish", d(layer("collect.publish").count));
  m["collect.publish.frames_dropped"] = d(p.sent.frames_dropped);
  m["collect.drain_s"] = layer("collect.drain").total_ns / 1e9;
  m["collect.decode.ns_per_sample"] =
      per("collect.decode", d(p.sent.shadow_samples));
  m["collect.store.ns_per_sample"] =
      per("collect.store", d(p.sent.shadow_samples));
  m["collect.store.chunks_closed"] = d(p.store.chunks_closed);
  m["collect.store.chunks_evicted"] = d(p.store.chunks_evicted);
  m["collect.store.buckets_folded"] = d(p.store.buckets_folded);
  m["collect.store.samples_forgotten"] = d(p.store.samples_forgotten);
  m["collect.store.retained_bytes"] = d(p.retained_bytes);
  m["collect.query.rollup.us"] = mean_us("collect.query.rollup");
  m["collect.query.raw_samples.us"] = mean_us("collect.query.raw_samples");
  m["collect.query.fleet_stats.us"] = mean_us("collect.query.fleet_stats");
  m["collect.query.top_k.us"] = mean_us("collect.query.top_k");
  m["collect.query.node_status.us"] = mean_us("collect.query.node_status");
  m["collect.query.samples_scanned"] = ratio(d(p.scanned), d(p.queries));
  m["cli.render.us"] = mean_us("cli.render");
  m["bench.generate.ns_per_sample"] =
      per("bench.generate", d(p.sent.generated));
  m["trace.round_coverage"] = coverage("round");
  m["trace.query_coverage"] = coverage("query");
  return m;
}

void print_layer_table(const Tracer& tracer, const PassOutcome& p) {
  std::fprintf(stderr, "%-28s %9s %11s %11s %12s\n", "span", "count",
               "total_ms", "self_ms", "ns/sample");
  for (const auto& [name, t] : tracer.layers()) {
    std::fprintf(stderr, "%-28s %9llu %11.3f %11.3f %12.1f\n", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                 t.self_ns / 1e6,
                 ratio(t.total_ns, static_cast<double>(p.sent.samples)));
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: likwid_e2e --workload NAME --seed S [--seconds N]\n"
               "                  [--trace 0|1] [--trace-out FILE] "
               "[--smoke]\n"
               "workloads: fleet_busy_mem fleet_idle_mux "
               "collector_ingest_mem collector_query_mux\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) != "0";
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return usage();
    }
  }
  const std::vector<Workload> table = workloads_table(smoke);
  const auto found =
      std::find_if(table.begin(), table.end(),
                   [&](const Workload& w) { return w.name == name; });
  if (found == table.end() || !(seconds > 0)) return usage();
  const Workload& w = *found;

  std::fprintf(stderr,
               "# likwid_e2e %s seed=%llu trace=%d smoke=%d "
               "hardware_threads=%u compiler=%s\n",
               w.name.c_str(), static_cast<unsigned long long>(seed),
               trace ? 1 : 0, smoke ? 1 : 0,
               std::thread::hardware_concurrency(), __VERSION__);

  // A monitoring daemon runs for days and its heap settles. glibc adapts
  // its mmap/trim thresholds as memory is freed, so without pinning them
  // the first two passes page-fault their buffers in and set up slower.
  // Pinned, one warm-up pass (checked, not measured) reaches the steady
  // state; lazily built tables fill during it too.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const std::size_t warmup = smoke ? 0 : 1;
  const std::size_t min_measured = smoke ? (trace ? 2 : 1) : (trace ? 4 : 3);
  std::vector<PassOutcome> warm;    // warm-up passes
  std::vector<PassOutcome> plain;   // measured untraced passes
  std::vector<PassOutcome> traced;  // measured traced passes
  std::vector<std::map<std::string, double>> layer_runs;
  std::unique_ptr<Tracer> last_tracer;
  const std::int64_t t_start = now_ns();
  try {
    for (std::size_t pass = 0;; ++pass) {
      const bool measured = pass >= warmup;
      const bool traced_pass = trace && measured && (pass - warmup) % 2 == 1;
      auto tracer = traced_pass ? std::make_unique<Tracer>() : nullptr;
      const std::int64_t t_pass = now_ns();
      PassOutcome out = w.replay ? run_replay_pass(w, seed, tracer.get())
                                 : run_fleet_pass(w, seed, tracer.get());
      if (tracer != nullptr) {
        run_probe(w, seed, *tracer);
        layer_runs.push_back(layer_metrics(out, *tracer));
        last_tracer = std::move(tracer);
      }
      std::fprintf(stderr,
                   "pass %zu%s: %.0f samples/s  %.3f us/sample cpu  setup "
                   "%.3f s  window %.3f s  %.2f B/sample  node p50 %.3f ms  "
                   "fleet p50 %.3f ms  failed checks %llu\n",
                   pass,
                   !measured ? " (warm-up)" : traced_pass ? " (traced)" : "",
                   samples_per_s(out),
                   1e6 * ratio(out.cpu_s, static_cast<double>(out.decoded)),
                   out.setup_s, out.window_s,
                   ratio(static_cast<double>(out.sent.wire_bytes),
                         static_cast<double>(out.sent.samples)),
                   percentile(out.node_query_ms, 0.5),
                   percentile(out.fleet_query_ms, 0.5),
                   static_cast<unsigned long long>(out.failed_checks));
      (!measured      ? warm
       : traced_pass ? traced
                     : plain)
          .push_back(std::move(out));
      const double elapsed = static_cast<double>(now_ns() - t_start) / 1e9;
      const double last = static_cast<double>(now_ns() - t_pass) / 1e9;
      if (pass + 1 >= warmup + min_measured && elapsed + last > seconds) break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "likwid_e2e: %s\n", e.what());
    return 1;
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&warm, &plain, &traced}) {
    for (const PassOutcome& p : *set) {
      attempted += p.sent.samples;
      failed += p.sent.samples - std::min(p.decoded, p.sent.samples) +
                p.failed_checks;
    }
  }
  std::fprintf(stderr, "failed_ratio %.9g (%llu of %llu)\n",
               ratio(static_cast<double>(failed),
                     static_cast<double>(attempted)),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted));

  std::map<std::string, double> metrics;
  const auto median_of = [&](auto&& value) {
    std::vector<double> values;
    for (const PassOutcome& p : plain) values.push_back(value(p));
    return median(values);
  };
  if (!trace) {
    // A pass the machine slowed down as a whole moves every view of that
    // pass, so latency percentiles are taken per pass and the median over
    // passes reported — except the metric-view tail: a pass asks too few
    // metric views for a p90 with ten views beyond it, so that one pools
    // every measured pass.
    std::vector<double> fleet_ms;
    for (const PassOutcome& p : plain) {
      fleet_ms.insert(fleet_ms.end(), p.fleet_query_ms.begin(),
                      p.fleet_query_ms.end());
    }
    metrics["samples_per_s"] = median_of(samples_per_s);
    metrics["cpu_us_per_sample"] = median_of([](const PassOutcome& p) {
      return 1e6 * ratio(p.cpu_s, static_cast<double>(p.decoded));
    });
    metrics["setup_s"] =
        median_of([](const PassOutcome& p) { return p.setup_s; });
    metrics["wire_bytes_per_sample"] = median_of([](const PassOutcome& p) {
      return ratio(static_cast<double>(p.sent.wire_bytes),
                   static_cast<double>(p.sent.samples));
    });
    metrics["peak_rss_mb"] = peak_rss_mb();
    metrics["query_node_p50_ms"] = median_of([](const PassOutcome& p) {
      return percentile(p.node_query_ms, 0.50);
    });
    metrics["query_node_p90_ms"] = median_of([](const PassOutcome& p) {
      return percentile(p.node_query_ms, 0.90);
    });
    metrics["query_fleet_p50_ms"] = median_of([](const PassOutcome& p) {
      return percentile(p.fleet_query_ms, 0.50);
    });
    metrics["query_fleet_p90_ms"] = percentile(fleet_ms, 0.90);
  } else {
    for (const MetricDef& def : kPerLayer) {
      std::vector<double> values;
      for (const auto& run : layer_runs) {
        const auto it = run.find(def.name);
        if (it != run.end()) values.push_back(it->second);
      }
      if (!values.empty()) metrics[def.name] = median(values);
    }
    std::vector<double> traced_sps;
    for (const PassOutcome& p : traced) traced_sps.push_back(samples_per_s(p));
    const double untraced = median_of(samples_per_s);
    metrics["trace.overhead"] =
        100.0 * ratio(untraced - median(traced_sps), untraced);
    print_layer_table(*last_tracer, traced.back());
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      last_tracer->write_chrome(out);
      if (!out) {
        std::fprintf(stderr, "likwid_e2e: cannot write %s\n",
                     trace_out.c_str());
        return 1;
      }
    }
  }

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const std::vector<MetricDef>& defs = trace ? kPerLayer : kEndToEnd;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, metrics[defs[i].name],
                defs[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
