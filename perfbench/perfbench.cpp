// oociso benchmark program: one workload against the real 4-node, file-backed
// pipeline. run.py builds this program, derives its inputs from the workload
// seed and turns the raw measurements it prints (one JSON object, the last
// line of stdout) into the named metrics.
//
//   perfbench --workload explore-cold --volume-seed 7 --sequence 10,30,...
//             --seconds 10 --work .bench_build/perfbench/work --trace 0
//
// The sequence is whole sweeps: back-to-back orderings of the same distinct
// isovalues.
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   explore-cold         1 client, QueryEngine::run (no shared pool), 512^2
//                        render + binary-swap; store evicted from the page
//                        cache before every query.
//   serve-warm           4 clients, QueryServer::query (admission 4), pools
//                        warmed by one untimed pass, mesh returned.
//   preview-progressive  1 client, QueryServer::query_progressive to level 1
//                        on a 3-level store; pools dropped and store evicted
//                        before every query.
//
// Every query is timed by the client around the public call. Outputs are
// checked outside the timed window: each query's triangle count and each
// distinct isovalue's canonical mesh hash against an in-core
// extract_volume reference of the same volume.

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "data/rm_generator.h"
#include "extract/kernel.h"
#include "extract/marching_cubes.h"
#include "extract/mesh.h"
#include "index/hierarchy.h"
#include "metacell/source.h"
#include "parallel/cluster.h"
#include "pipeline/preprocess.h"
#include "pipeline/progressive.h"
#include "pipeline/query_engine.h"
#include "serve/query_server.h"

#include "layer_trace.h"

namespace fs = std::filesystem;
namespace pt = perfbench::trace;
using namespace oociso;  // NOLINT(google-build-using-namespace)

namespace {

// The paper's down-sampled RM time step, preprocessed onto 4 node stores.
constexpr core::GridDims kDims{256, 256, 240};
constexpr int kTimeStep = 250;
constexpr std::size_t kNodes = 4;
constexpr std::int32_t kMetacellSide = 9;
constexpr std::int32_t kImageSide = 512;
// preview-progressive: 3 levels stored, refinement stops at level 1 (level
// 0 would force the mesh hash inside the timed query).
constexpr std::int32_t kPreviewLevels = 3;
constexpr std::int32_t kPreviewFinest = 1;
// setup_s is the median of this many set-ups.
constexpr int kSetups = 3;
// Sweeps a phase measures at least: nearest-rank p90 needs 10 samples beyond
// it, so 100 queries. A traced run's two halves need only their medians.
constexpr std::size_t kMinSweeps = 10;
constexpr std::size_t kTracedMinSweeps = 2;

enum class Workload { kExploreCold, kServeWarm, kPreviewProgressive };

struct Args {
  Workload workload = Workload::kExploreCold;
  std::string workload_name;
  std::uint64_t volume_seed = 0;
  std::vector<float> sequence;
  std::vector<float> distinct;  ///< the sweep's isovalues, ascending
  double seconds = 0.0;
  fs::path work;
  bool traced = false;
};

using pt::now_ns;

double seconds_since(std::int64_t begin) {
  return static_cast<double>(now_ns() - begin) / 1e9;
}

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument("usage: " + why);
}

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) usage("every flag takes one value");
  const auto need = [&](const std::string& key) -> const std::string& {
    const auto it = kv.find(key);
    if (it == kv.end()) usage("missing --" + key);
    return it->second;
  };
  Args args;
  args.workload_name = need("workload");
  if (args.workload_name == "explore-cold") {
    args.workload = Workload::kExploreCold;
  } else if (args.workload_name == "serve-warm") {
    args.workload = Workload::kServeWarm;
  } else if (args.workload_name == "preview-progressive") {
    args.workload = Workload::kPreviewProgressive;
  } else {
    usage("unknown workload " + args.workload_name);
  }
  args.volume_seed = std::stoull(need("volume-seed"));
  std::stringstream seq(need("sequence"));
  for (std::string item; std::getline(seq, item, ',');) {
    args.sequence.push_back(std::stof(item));
  }
  args.seconds = std::stod(need("seconds"));
  args.work = need("work");
  args.traced = need("trace") == "1";
  args.distinct = args.sequence;
  std::sort(args.distinct.begin(), args.distinct.end());
  args.distinct.erase(std::unique(args.distinct.begin(), args.distinct.end()),
                      args.distinct.end());
  const std::size_t sweep = args.distinct.size();
  bool whole_sweeps = sweep > 0 && args.sequence.size() % sweep == 0;
  for (std::size_t i = 0; whole_sweeps && i < args.sequence.size(); i += sweep) {
    std::vector<float> one(args.sequence.begin() + static_cast<std::ptrdiff_t>(i),
                           args.sequence.begin() + static_cast<std::ptrdiff_t>(i + sweep));
    std::sort(one.begin(), one.end());
    whole_sweeps = one == args.distinct;
  }
  if (!whole_sweeps || args.seconds <= 0.0) {
    usage("--sequence must hold whole sweeps; --seconds > 0");
  }
#ifndef PERFBENCH_TRACED
  if (args.traced) usage("--trace 1 needs the perfbench_traced build");
#endif
  return args;
}

// ---- deployment -------------------------------------------------------------

/// One set-up: the volume, its preprocessed 4-node store, and the engine or
/// server the workload queries. Member order is destruction order in
/// reverse: the server goes before the data and cluster it refers to.
struct Deployment {
  core::VolumeU8 volume;
  std::unique_ptr<parallel::Cluster> cluster;
  pipeline::PreprocessResult prep;
  std::unique_ptr<pipeline::QueryEngine> engine;
  std::unique_ptr<serve::QueryServer> server;
  pipeline::QueryOptions engine_options;
  fs::path store;
};

struct SetupTiming {
  double total_s = 0.0;
  double generate_s = 0.0;
  double preprocess_s = 0.0;
  std::uint64_t bytes_written = 0;
};

std::unique_ptr<Deployment> set_up(const Args& args, SetupTiming& timing) {
  const std::int64_t begin = now_ns();
  auto d = std::make_unique<Deployment>();
  d->store = args.work / "store";

  data::RmConfig rm;
  rm.dims = kDims;
  rm.seed = args.volume_seed;
  d->volume = data::generate_rm_timestep(rm, kTimeStep);
  timing.generate_s = seconds_since(begin);

  fs::remove_all(d->store);
  fs::create_directories(d->store);
  parallel::ClusterConfig cluster;
  cluster.node_count = kNodes;
  cluster.storage_dir = d->store;
  d->cluster = std::make_unique<parallel::Cluster>(cluster);
  const std::int64_t preprocess_begin = now_ns();
  const metacell::VolumeMetacellSource<std::uint8_t> source(d->volume,
                                                            kMetacellSide);
  pipeline::PreprocessConfig config;
  config.levels =
      args.workload == Workload::kPreviewProgressive ? kPreviewLevels : 1;
  d->prep = pipeline::preprocess(source, *d->cluster, config);
  timing.preprocess_s = seconds_since(preprocess_begin);
  timing.bytes_written =
      d->prep.bytes_written + d->prep.hierarchy_bytes_written;

  switch (args.workload) {
    case Workload::kExploreCold:
      // The `oociso query` path: render on, binary-swap compositing.
      d->engine_options.render = true;
      d->engine_options.image_width = kImageSide;
      d->engine_options.image_height = kImageSide;
      d->engine_options.schedule = pipeline::CompositeSchedule::kBinarySwap;
      d->engine = std::make_unique<pipeline::QueryEngine>(*d->cluster, d->prep);
      break;
    case Workload::kServeWarm: {
      serve::ServeOptions options;  // admission 4, pools hold the store
      options.query.render = false;
      options.query.keep_triangles = true;
      d->server = std::make_unique<serve::QueryServer>(*d->cluster, d->prep,
                                                       options);
      break;
    }
    case Workload::kPreviewProgressive: {
      serve::ServeOptions options;
      options.query.render = false;
      options.query.max_level = kPreviewFinest;
      d->server = std::make_unique<serve::QueryServer>(*d->cluster, d->prep,
                                                       options);
      break;
    }
  }
  timing.total_s = seconds_since(begin);
  return d;
}

std::vector<fs::path> store_files(const fs::path& store) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(store)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

class Fd {
 public:
  explicit Fd(const fs::path& path) : fd_(::open(path.c_str(), O_RDONLY)) {
    if (fd_ < 0) throw std::runtime_error("cannot open " + path.string());
  }
  ~Fd() { ::close(fd_); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

/// Makes the freshly written store durable so its pages are clean, which
/// posix_fadvise(DONTNEED) needs in order to drop them.
void sync_files(const std::vector<fs::path>& files) {
  for (const fs::path& file : files) {
    const Fd fd(file);
    if (::fdatasync(fd.get()) != 0) {
      throw std::runtime_error("fdatasync failed on " + file.string());
    }
  }
}

struct EvictStats {
  std::uint64_t pages = 0;           ///< store pages checked after eviction
  std::uint64_t resident_after = 0;  ///< of those, still in the page cache
};

/// Drops every store file from the OS page cache and counts, with mincore,
/// the pages that stayed resident.
void evict(const std::vector<fs::path>& files, EvictStats& stats) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  for (const fs::path& file : files) {
    const Fd fd(file);
    if (::posix_fadvise(fd.get(), 0, 0, POSIX_FADV_DONTNEED) != 0) {
      throw std::runtime_error("posix_fadvise failed on " + file.string());
    }
    struct stat st {};
    if (::fstat(fd.get(), &st) != 0 || st.st_size == 0) continue;
    const auto length = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, length, PROT_READ, MAP_SHARED, fd.get(), 0);
    if (map == MAP_FAILED) {
      throw std::runtime_error("mmap failed on " + file.string());
    }
    std::vector<unsigned char> resident((length + page - 1) / page);
    const int rc = ::mincore(map, length, resident.data());
    ::munmap(map, length);
    if (rc != 0) throw std::runtime_error("mincore failed on " + file.string());
    stats.pages += resident.size();
    for (const unsigned char r : resident) stats.resident_after += r & 1U;
  }
}

// ---- queries ----------------------------------------------------------------

/// What one query returned, as the output check and the layer totals need.
struct Outcome {
  std::uint64_t triangles = 0;
  double first_surface_ms = -1.0;  ///< progressive only
  std::uint64_t read_ops = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t seeks = 0;
  std::uint64_t retries = 0;
  std::uint64_t records_fetched = 0;
  std::uint64_t active_metacells = 0;
  std::uint64_t cache_misses = 0;
  std::optional<std::uint32_t> mesh_crc;

  /// The counts that must repeat exactly for every query of one isovalue.
  [[nodiscard]] auto repeatable() const {
    return std::tuple(triangles, read_ops, bytes_read, records_fetched,
                      active_metacells, cache_misses);
  }
};

void add_nodes(const std::vector<pipeline::NodeReport>& nodes, Outcome& out) {
  for (const pipeline::NodeReport& node : nodes) {
    out.read_ops += node.io.read_ops;
    out.bytes_read += node.io.bytes_read;
    out.seeks += node.io.seeks;
    out.retries += node.faults.retrieval.retries;
    out.records_fetched += node.records_fetched;
    out.active_metacells += node.active_metacells;
    out.cache_misses += node.cache.miss_blocks;
  }
}

/// Runs one query of the workload. With `with_crc` the mesh hash is taken
/// too; timed queries never ask for it.
Outcome run_query(Workload workload, Deployment& d, float iso, bool with_crc) {
  Outcome out;
  switch (workload) {
    case Workload::kExploreCold: {
      pipeline::QueryOptions options = d.engine_options;
      options.compute_mesh_crc = with_crc;
      const pipeline::QueryReport report = d.engine->run(iso, options);
      out.triangles = report.total_triangles();
      out.mesh_crc = report.mesh_crc;
      add_nodes(report.nodes, out);
      break;
    }
    case Workload::kServeWarm: {
      const pipeline::QueryReport report = d.server->query(iso);
      out.triangles = report.total_triangles();
      if (!report.triangles_out.has_value() ||
          report.triangles_out->size() != out.triangles) {
        throw std::runtime_error("returned mesh does not match its report");
      }
      if (with_crc) out.mesh_crc = extract::canonical_mesh_crc(*report.triangles_out);
      add_nodes(report.nodes, out);
      break;
    }
    case Workload::kPreviewProgressive: {
      const pipeline::ProgressiveReport report = d.server->query_progressive(iso);
      if (report.levels.empty() ||
          report.finest_level_completed != kPreviewFinest) {
        throw std::runtime_error("progressive query stopped at level " +
                                 std::to_string(report.finest_level_completed));
      }
      out.triangles = report.levels.back().triangles;
      out.first_surface_ms = report.levels.front().elapsed_ms;
      out.mesh_crc = report.mesh_crc;
      for (const pipeline::LevelReport& level : report.levels) {
        add_nodes(level.nodes, out);
      }
      break;
    }
  }
  return out;
}

struct Sample {
  std::size_t index = 0;  ///< position in the query sequence
  float iso = 0.0f;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  bool ok = false;
  std::string error;
  Outcome outcome;
};

/// Hands out sequence positions to closed-loop clients. A phase stops at
/// the first sweep boundary reached once its deadline has passed and it
/// has handed out at least `min_sweeps` sweeps, so every phase measures
/// whole sweeps: each isovalue equally often.
class Dispenser {
 public:
  Dispenser(const std::vector<float>& sequence, std::size_t sweep)
      : sequence_(sequence), sweep_(sweep) {}

  void start_phase(double seconds, std::size_t min_sweeps) {
    const std::lock_guard<std::mutex> lock(mutex_);
    deadline_ns_ = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    min_queries_ = min_sweeps * sweep_;
    phase_begin_ = next_;
    stopped_ = false;
  }

  std::optional<std::size_t> next() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return std::nullopt;
    if (next_ % sweep_ == 0 && next_ - phase_begin_ >= min_queries_ &&
        now_ns() >= deadline_ns_) {
      stopped_ = true;
      return std::nullopt;
    }
    if (next_ >= sequence_.size()) {
      throw std::runtime_error("query sequence exhausted; pass more sweeps");
    }
    return next_++;
  }

 private:
  const std::vector<float>& sequence_;
  const std::size_t sweep_;
  std::mutex mutex_;
  std::size_t next_ = 0;  // guarded by mutex_, like the fields below
  std::size_t phase_begin_ = 0;
  std::size_t min_queries_ = 0;
  std::int64_t deadline_ns_ = 0;
  bool stopped_ = false;
};

using Span = pt::Interval;

struct Phase {
  bool traced = false;
  std::int64_t begin_ns = 0;
  std::vector<Sample> samples;  ///< sequence order
  std::int64_t busy_ns = 0;     ///< wall time with >= 1 query in flight
  io::CacheCounters cache;      ///< pool counters over the phase
  EvictStats evicted;
  pt::Totals layers;            ///< traced phases only, like covered_ns
  std::int64_t covered_ns = 0;  ///< part of busy_ns inside layer spans
};

/// Merges intervals into a sorted, disjoint union.
std::vector<Span> union_of(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.begin < b.begin; });
  std::vector<Span> merged;
  for (const Span& s : spans) {
    if (!merged.empty() && s.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, s.end);
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

std::int64_t length_of(const std::vector<Span>& disjoint) {
  std::int64_t total = 0;
  for (const Span& s : disjoint) total += s.end - s.begin;
  return total;
}

/// Length of the intersection of two sorted disjoint unions.
std::int64_t overlap_of(const std::vector<Span>& a, const std::vector<Span>& b) {
  std::int64_t total = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const std::int64_t lo = std::max(a[i].begin, b[j].begin);
    const std::int64_t hi = std::min(a[i].end, b[j].end);
    if (hi > lo) total += hi - lo;
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

std::vector<Span> query_windows(const std::vector<Sample>& samples) {
  std::vector<Span> windows;
  windows.reserve(samples.size());
  for (const Sample& s : samples) windows.push_back({s.begin_ns, s.end_ns});
  return union_of(std::move(windows));
}

std::size_t clients_of(Workload workload) {
  return workload == Workload::kServeWarm ? 4 : 1;
}

bool cold(Workload workload) { return workload != Workload::kServeWarm; }

Phase run_phase(const Args& args, Deployment& d,
                const std::vector<fs::path>& files, Dispenser& dispenser,
                double seconds, std::size_t min_sweeps, bool traced) {
  Phase phase;
  phase.traced = traced;
  const io::CacheCounters cache_before =
      d.server ? d.server->cache_counters() : io::CacheCounters{};
  pt::clear_spans();
  const pt::Totals layers_before = pt::totals();
  pt::set_enabled(traced);
  phase.begin_ns = now_ns();
  dispenser.start_phase(seconds, min_sweeps);

  const std::size_t clients = clients_of(args.workload);
  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<EvictStats> evicted(clients);
  std::vector<std::exception_ptr> errors(clients);
  const auto client = [&](std::size_t c) {
    try {
      while (const std::optional<std::size_t> i = dispenser.next()) {
        Sample s;
        s.index = *i;
        s.iso = args.sequence[*i];
        if (cold(args.workload)) {
          // Outside the timed window: pools dropped, store evicted.
          if (d.server) d.server->drop_caches();
          evict(files, evicted[c]);
        }
        s.begin_ns = now_ns();
        try {
          s.outcome = run_query(args.workload, d, s.iso, false);
          s.ok = true;
        } catch (const std::exception& e) {
          s.error = e.what();
        }
        s.end_ns = now_ns();
        per_client[c].push_back(std::move(s));
      }
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }
  pt::set_enabled(false);
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (std::size_t c = 0; c < clients; ++c) {
    for (Sample& s : per_client[c]) phase.samples.push_back(std::move(s));
    phase.evicted.pages += evicted[c].pages;
    phase.evicted.resident_after += evicted[c].resident_after;
  }
  std::sort(phase.samples.begin(), phase.samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  const std::vector<Span> windows = query_windows(phase.samples);
  phase.busy_ns = length_of(windows);
  if (d.server) {
    const io::CacheCounters after = d.server->cache_counters();
    phase.cache.fetches = after.fetches - cache_before.fetches;
    phase.cache.hits = after.hits - cache_before.hits;
    phase.cache.misses = after.misses - cache_before.misses;
    phase.cache.waits = after.waits - cache_before.waits;
    phase.cache.evictions = after.evictions - cache_before.evictions;
  }
  if (traced) {
    phase.layers = pt::totals().since(layers_before);
    phase.covered_ns = overlap_of(union_of(pt::spans()), windows);
    pt::clear_spans();
  }
  return phase;
}

// ---- reference --------------------------------------------------------------

struct Reference {
  std::uint64_t triangles = 0;
  std::uint32_t crc = 0;
};

/// The volume a hierarchy level samples: coarse sample i sits at fine
/// position min(i * 2^level, n - 1) (index/hierarchy.h).
core::VolumeU8 level_volume(const core::VolumeU8& fine, std::int32_t level) {
  if (level == 0) return fine;
  const core::GridDims dims = index::hierarchy_level_dims(fine.dims(), level);
  const std::int32_t stride = 1 << level;
  core::VolumeU8 coarse(dims);
  const core::GridDims& f = fine.dims();
  for (std::int32_t z = 0; z < dims.nz; ++z) {
    for (std::int32_t y = 0; y < dims.ny; ++y) {
      for (std::int32_t x = 0; x < dims.nx; ++x) {
        coarse.at(x, y, z) = fine.at(std::min(x * stride, f.nx - 1),
                                     std::min(y * stride, f.ny - 1),
                                     std::min(z * stride, f.nz - 1));
      }
    }
  }
  return coarse;
}

/// Maps a level mesh into fine-lattice coordinates the way the progressive
/// engine does: scale by 2^level, clamped to the volume edge.
void scale_to_fine(extract::TriangleSoup& soup, std::int32_t level,
                   const core::GridDims& fine) {
  const auto scale = static_cast<float>(1 << level);
  const auto mx = static_cast<float>(fine.nx - 1);
  const auto my = static_cast<float>(fine.ny - 1);
  const auto mz = static_cast<float>(fine.nz - 1);
  for (extract::Triangle& tri : soup.triangles()) {
    for (core::Vec3* v : {&tri.a, &tri.b, &tri.c}) {
      v->x = std::min(v->x * scale, mx);
      v->y = std::min(v->y * scale, my);
      v->z = std::min(v->z * scale, mz);
    }
  }
}

/// In-core reference meshes for every distinct isovalue, computed on up to
/// 4 benchmark threads.
std::map<float, Reference> compute_references(const core::VolumeU8& fine,
                                              std::int32_t level,
                                              const std::vector<float>& isos) {
  const core::VolumeU8 volume = level_volume(fine, level);
  std::vector<Reference> refs(isos.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < isos.size(); i = next++) {
      extract::TriangleSoup soup;
      extract::extract_volume(volume, isos[i], soup);
      if (level > 0) scale_to_fine(soup, level, fine.dims());
      refs[i] = {soup.size(), extract::canonical_mesh_crc(soup)};
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < std::min<std::size_t>(4, isos.size()); ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) t.join();
  std::map<float, Reference> out;
  for (std::size_t i = 0; i < isos.size(); ++i) out[isos[i]] = refs[i];
  return out;
}

// ---- output -----------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string list(const std::vector<double>& values) {
  std::ostringstream out;
  out << std::setprecision(17) << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i ? "," : "") << values[i];
  }
  out << ']';
  return out.str();
}

/// Per-query layer metrics of a traced phase (names as in BENCHMARK.json).
std::map<std::string, double> layer_metrics(const Phase& p,
                                            const serve::QueryServer* server) {
  const pt::Totals& t = p.layers;
  const auto n = static_cast<double>(std::max<std::size_t>(1, p.samples.size()));
  const auto s = [&](pt::Layer layer) {
    return static_cast<double>(t.ns[static_cast<std::size_t>(layer)]) / 1e9;
  };
  const auto c = [&](pt::Count count) {
    return static_cast<double>(t.counts[static_cast<std::size_t>(count)]);
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  double bytes = 0, ops = 0, seeks = 0, retries = 0, fetched = 0, active = 0;
  double client_s = 0.0;
  for (const Sample& q : p.samples) {
    bytes += static_cast<double>(q.outcome.bytes_read);
    ops += static_cast<double>(q.outcome.read_ops);
    seeks += static_cast<double>(q.outcome.seeks);
    retries += static_cast<double>(q.outcome.retries);
    fetched += static_cast<double>(q.outcome.records_fetched);
    active += static_cast<double>(q.outcome.active_metacells);
    client_s += static_cast<double>(q.end_ns - q.begin_ns) / 1e9;
  }
  const double engine_s = s(pt::kQueryEngine) + s(pt::kProgressive);
  std::map<std::string, double> m;
  m["index.plan_us"] = (s(pt::kPlan) + s(pt::kPlanLevel)) * 1e6 / n;
  m["index.schedule_us"] = s(pt::kSchedule) * 1e6 / n;
  m["index.records_planned"] = c(pt::kRecordsPlanned) / n;
  m["index.reads_scheduled"] = c(pt::kReadsScheduled) / n;
  m["index.fetch_overshoot"] = ratio(fetched, active);
  m["io.read_s"] = s(pt::kRead) / n;
  m["io.read_ops"] = ops / n;
  m["io.bytes_read"] = bytes / n;
  m["io.seeks"] = seeks / n;
  m["io.retries"] = retries / n;
  m["io.mib_per_s"] = ratio(bytes / (1024.0 * 1024.0), s(pt::kRead));
  m["cache.hit_ratio"] = ratio(static_cast<double>(p.cache.hits),
                               static_cast<double>(p.cache.fetches));
  m["cache.misses"] = static_cast<double>(p.cache.misses) / n;
  m["cache.waits"] = static_cast<double>(p.cache.waits) / n;
  m["cache.evictions"] = static_cast<double>(p.cache.evictions) / n;
  m["metacell.decode_s"] = s(pt::kDecode) / n;
  m["extract.s"] = s(pt::kExtract) / n;
  m["extract.mesh_crc_s"] = s(pt::kMeshCrc) / n;
  m["extract.cells_classified"] = c(pt::kCellsClassified) / n;
  m["extract.active_cells"] = c(pt::kActiveCells) / n;
  m["extract.active_ratio"] = ratio(c(pt::kActiveCells), c(pt::kCellsClassified));
  m["extract.triangles"] = c(pt::kTriangles) / n;
  m["extract.mcells_per_s"] = ratio(c(pt::kCellsClassified) / 1e6, s(pt::kExtract));
  m["render.s"] = s(pt::kRender) / n;
  m["render.fragments_tested"] = c(pt::kFragmentsTested) / n;
  m["render.fragments_written"] = c(pt::kFragmentsWritten) / n;
  m["render.write_ratio"] = ratio(c(pt::kFragmentsWritten), c(pt::kFragmentsTested));
  m["composite.s"] = s(pt::kComposite) / n;
  m["composite.bytes"] = c(pt::kCompositeBytes) / n;
  m["composite.rounds"] = c(pt::kCompositeRounds) / n;
  // No public call exposes admission wait; the client's wall time minus the
  // engine run it was admitted to is that wait plus the hand-off.
  m["serve.admission_wait_ms"] =
      server != nullptr ? std::max(0.0, client_s - engine_s) * 1e3 / n : 0.0;
  m["serve.peak_in_flight"] =
      server != nullptr ? static_cast<double>(server->peak_in_flight()) : 0.0;
  // With several clients (serve-warm) this is the union of all threads'
  // spans over the union of query windows: one query's layer work can cover
  // another's untraced gaps.
  m["trace.coverage"] = ratio(static_cast<double>(p.covered_ns),
                              static_cast<double>(p.busy_ns));
  return m;
}

std::string phase_json(const Phase& p, const serve::QueryServer* server) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"traced\":" << (p.traced ? "true" : "false")
      << ",\"queries\":[";
  for (std::size_t i = 0; i < p.samples.size(); ++i) {
    const Sample& s = p.samples[i];
    out << (i ? "," : "") << '[' << s.iso << ','
        << static_cast<double>(s.begin_ns - p.begin_ns) / 1e6 << ','
        << static_cast<double>(s.end_ns - p.begin_ns) / 1e6 << ','
        << (s.ok ? 1 : 0) << ',' << s.outcome.triangles << ','
        << s.outcome.first_surface_ms << ']';
  }
  out << "],\"evicted_pages\":" << p.evicted.pages
      << ",\"resident_after_evict\":" << p.evicted.resident_after;
  if (p.traced) {
    out << ",\"layers\":{";
    bool first = true;
    for (const auto& [name, value] : layer_metrics(p, server)) {
      out << (first ? "" : ",") << quoted(name) << ':' << value;
      first = false;
    }
    out << '}';
  }
  out << '}';
  return out.str();
}

/// Fails a traced run in which a leaf layer the workload's queries pass
/// through recorded no call: its wrapper is no longer on the library's call
/// path, and its metrics would read zero.
void require_layers(Workload workload, const pt::Totals& layers) {
  std::vector<std::pair<pt::Layer, const char*>> need{
      {pt::kSchedule, "schedule_plan"},
      {pt::kRead, "RetrievalStream::next"},
      {pt::kDecode, "decode_metacell"},
      {pt::kExtract, "extract_metacell"}};
  switch (workload) {
    case Workload::kExploreCold:
      need.insert(need.end(), {{pt::kPlan, "CompactIntervalTree::plan"},
                               {pt::kRender, "Rasterizer::draw"},
                               {pt::kComposite, "binary_swap"},
                               {pt::kQueryEngine, "QueryEngine::run"}});
      break;
    case Workload::kServeWarm:
      need.insert(need.end(), {{pt::kPlan, "CompactIntervalTree::plan"},
                               {pt::kQueryEngine, "QueryEngine::run"}});
      break;
    case Workload::kPreviewProgressive:
      need.insert(need.end(),
                  {{pt::kPlanLevel, "CompactIntervalTree::plan_level"},
                   {pt::kMeshCrc, "canonical_mesh_crc"},
                   {pt::kProgressive, "ProgressiveEngine::run"}});
      break;
  }
  for (const auto& [layer, name] : need) {
    if (layers.ns[static_cast<std::size_t>(layer)] == 0) {
      throw std::runtime_error(std::string("traced run saw no call to ") + name);
    }
  }
}

int run(const Args& args) {
  fs::create_directories(args.work);

  // Set-up, several times; the last deployment is the one measured.
  std::vector<SetupTiming> setups(kSetups);
  std::unique_ptr<Deployment> d;
  for (SetupTiming& timing : setups) {
    d.reset();
    d = set_up(args, timing);
  }
  const std::vector<fs::path> files = store_files(d->store);
  sync_files(files);

  // Untimed pass over every distinct isovalue: warms code paths and the
  // pools of serve-warm.
  for (const float iso : args.distinct) run_query(args.workload, *d, iso, false);

  Dispenser dispenser(args.sequence, args.distinct.size());
  std::vector<Phase> phases;
  if (args.traced) {
    // Untraced then traced halves of the same length: the tracing overhead
    // is the difference between their latencies.
    for (const bool traced : {false, true}) {
      phases.push_back(run_phase(args, *d, files, dispenser, args.seconds / 2,
                                 kTracedMinSweeps, traced));
    }
    require_layers(args.workload, phases.back().layers);
  } else {
    phases.push_back(run_phase(args, *d, files, dispenser, args.seconds,
                               kMinSweeps, false));
  }
  // The high-water mark of set-up, warm-up and the measured queries; the
  // mesh hashes of the output check below are taken after it.
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // ---- output checks (outside every timed window) --------------------------
  std::map<float, std::optional<std::uint32_t>> served_crc;
  for (const float iso : args.distinct) {
    served_crc[iso] = run_query(args.workload, *d, iso, true).mesh_crc;
  }
  const std::int32_t level =
      args.workload == Workload::kPreviewProgressive ? kPreviewFinest : 0;
  const std::map<float, Reference> refs =
      compute_references(d->volume, level, args.distinct);
  // A query whose output is wrong counts as failed, like one that threw.
  std::vector<std::string> problems;
  const auto note = [&problems](const std::string& problem) {
    if (problems.size() < 8) problems.push_back(problem);
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<float, decltype(Outcome{}.repeatable())> first_seen;
  for (Phase& p : phases) {
    for (Sample& s : p.samples) {
      ++attempted;
      const Reference& ref = refs.at(s.iso);
      if (s.ok && s.outcome.triangles != ref.triangles) {
        s.ok = false;
        s.error = "iso " + std::to_string(s.iso) + ": " +
                  std::to_string(s.outcome.triangles) +
                  " triangles, reference " + std::to_string(ref.triangles);
      }
      if (!s.ok) {
        ++failed;
        note("query failed: " + s.error);
        continue;
      }
      // Counts that must repeat exactly for one (volume, isovalue), and the
      // warm workload's promise of zero device reads.
      if (args.workload == Workload::kServeWarm && s.outcome.read_ops != 0) {
        note("serve-warm query read the device");
      }
      const auto counts = s.outcome.repeatable();
      const auto [it, inserted] = first_seen.emplace(s.iso, counts);
      if (!inserted && it->second != counts) {
        note("iso " + std::to_string(s.iso) + ": counts differ between repeats");
      }
    }
  }
  for (const auto& [iso, crc] : served_crc) {
    ++attempted;
    if (!crc.has_value() || *crc != refs.at(iso).crc) {
      ++failed;
      note("iso " + std::to_string(iso) +
           ": mesh hash differs from the in-core reference");
    }
  }

  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"workload\":" << quoted(args.workload_name)
      << ",\"meta\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":" << quoted(cpu_model()) << ",\"kernel_isa\":"
      << quoted(std::string(extract::kernel::isa_name(
             extract::kernel::resolve(extract::KernelIsa::kAuto))))
      << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
      << ",\"volume_seed\":" << args.volume_seed << ",\"dims\":["
      << kDims.nx << ',' << kDims.ny << ',' << kDims.nz
      << "],\"time_step\":" << kTimeStep << ",\"nodes\":" << kNodes
      << ",\"clients\":" << clients_of(args.workload) << "}";
  std::vector<double> total, generate, preprocess;
  for (const SetupTiming& t : setups) {
    total.push_back(t.total_s);
    generate.push_back(t.generate_s);
    preprocess.push_back(t.preprocess_s);
  }
  out << ",\"setup_s\":" << list(total) << ",\"generate_s\":" << list(generate)
      << ",\"preprocess_s\":" << list(preprocess)
      << ",\"voxels\":" << kDims.count()
      << ",\"preprocess_bytes\":" << setups.back().bytes_written
      << ",\"peak_rss_mib\":" << peak_rss_mib << ",\"phases\":[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    out << (i ? "," : "") << phase_json(phases[i], d->server.get());
  }
  out << "],\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    out << (i ? "," : "") << quoted(problems[i]);
  }
  out << "]}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
