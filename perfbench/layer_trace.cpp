#include "layer_trace.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "compositing/sort_last.h"
#include "extract/kernel.h"
#include "extract/marching_cubes.h"
#include "extract/mesh.h"
#include "index/compact_interval_tree.h"
#include "index/plan_scheduler.h"
#include "index/retrieval_stream.h"
#include "metacell/metacell.h"
#include "pipeline/progressive.h"
#include "pipeline/query_engine.h"
#include "render/rasterizer.h"

namespace perfbench::trace {
namespace {

struct ThreadLog {
  Totals totals;
  std::vector<Interval> spans;
};

std::atomic<bool> g_enabled{false};
std::mutex g_logs_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mutex

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Totals& Totals::operator+=(const Totals& other) {
  for (std::size_t i = 0; i < ns.size(); ++i) ns[i] += other.ns[i];
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  return *this;
}

Totals Totals::since(const Totals& earlier) const {
  Totals delta = *this;
  for (std::size_t i = 0; i < ns.size(); ++i) delta.ns[i] -= earlier.ns[i];
  for (std::size_t i = 0; i < counts.size(); ++i) {
    delta.counts[i] -= earlier.counts[i];
  }
  return delta;
}

Totals totals() {
  const std::lock_guard<std::mutex> lock(g_logs_mutex);
  Totals sum;
  for (const auto& log : g_logs) sum += log->totals;
  return sum;
}

std::vector<Interval> spans() {
  const std::lock_guard<std::mutex> lock(g_logs_mutex);
  std::vector<Interval> all;
  for (const auto& log : g_logs) {
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  return all;
}

void clear_spans() {
  const std::lock_guard<std::mutex> lock(g_logs_mutex);
  for (const auto& log : g_logs) log->spans.clear();
}

}  // namespace perfbench::trace

// ---- wrappers ---------------------------------------------------------------
// One (__real_X, __wrap_X) pair per mangled name X listed in CMakeLists.txt,
// compiled into the traced program only. They are declared extern "C" so the
// names are taken verbatim; each parameter list spells out the C++ signature,
// with a member function's object as the first parameter, which is how the
// Itanium C++ ABI passes it. `ld --wrap` binds __real_X to X, so a name that
// no longer exists in the library fails the traced link.

#ifdef PERFBENCH_TRACED

namespace perfbench::trace {
namespace {

// Logs outlive their threads (the query engine starts a producer thread per
// node and query), so the registry owns them.
ThreadLog& thread_log() {
  thread_local ThreadLog* mine = [] {
    const std::lock_guard<std::mutex> lock(g_logs_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    return g_logs.back().get();
  }();
  return *mine;
}

class Span {
 public:
  explicit Span(Layer layer)
      : log_(thread_log()), layer_(layer), begin_(now_ns()) {}
  ~Span() {
    const std::int64_t end = now_ns();
    log_.totals.ns[layer_] += static_cast<std::uint64_t>(end - begin_);
    if (layer_ < kQueryEngine) log_.spans.push_back({begin_, end});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void count(Count what, std::uint64_t n) { log_.totals.counts[what] += n; }

 private:
  ThreadLog& log_;
  Layer layer_;
  std::int64_t begin_;
};

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

}  // namespace
}  // namespace perfbench::trace

namespace pt = perfbench::trace;
namespace oc = oociso;

#define PERFBENCH_CAT2(a, b) a##b
#define PERFBENCH_CAT(a, b) PERFBENCH_CAT2(a, b)
#define REAL PERFBENCH_CAT(__real_, X)
#define WRAP PERFBENCH_CAT(__wrap_, X)

using ByteSpan = std::span<const std::byte>;
using SoupSpan = std::span<const oc::extract::TriangleSoup>;
using Frames = std::vector<oc::render::Framebuffer>;

extern "C" {

#define X _ZNK6oociso5index19CompactIntervalTree4planEf
oc::index::QueryPlan REAL(const oc::index::CompactIntervalTree*,
                          oc::core::ValueKey);
oc::index::QueryPlan WRAP(const oc::index::CompactIntervalTree* self,
                          oc::core::ValueKey iso) {
  if (!pt::enabled()) return REAL(self, iso);
  pt::Span span(pt::kPlan);
  oc::index::QueryPlan plan = REAL(self, iso);
  span.count(pt::kRecordsPlanned, plan.total_records());
  return plan;
}
#undef X

#define X _ZNK6oociso5index19CompactIntervalTree10plan_levelEfi
oc::index::QueryPlan REAL(const oc::index::CompactIntervalTree*,
                          oc::core::ValueKey, std::int32_t);
oc::index::QueryPlan WRAP(const oc::index::CompactIntervalTree* self,
                          oc::core::ValueKey iso, std::int32_t level) {
  if (!pt::enabled()) return REAL(self, iso, level);
  pt::Span span(pt::kPlanLevel);
  oc::index::QueryPlan plan = REAL(self, iso, level);
  span.count(pt::kRecordsPlanned, plan.total_records());
  return plan;
}
#undef X

#define X \
  _ZN6oociso5index13schedule_planERKNS0_9QueryPlanERKNS0_14ScheduleParamsERKNS0_14BrickDirectoryE
oc::index::ScheduledPlan REAL(const oc::index::QueryPlan&,
                              const oc::index::ScheduleParams&,
                              const oc::index::BrickDirectory&);
oc::index::ScheduledPlan WRAP(const oc::index::QueryPlan& plan,
                              const oc::index::ScheduleParams& params,
                              const oc::index::BrickDirectory& directory) {
  if (!pt::enabled()) return REAL(plan, params, directory);
  pt::Span span(pt::kSchedule);
  oc::index::ScheduledPlan scheduled = REAL(plan, params, directory);
  span.count(pt::kReadsScheduled, scheduled.items.size());
  return scheduled;
}
#undef X

#define X _ZN6oociso5index15RetrievalStream4nextEv
std::optional<oc::index::RecordBatch> REAL(oc::index::RetrievalStream*);
std::optional<oc::index::RecordBatch> WRAP(oc::index::RetrievalStream* self) {
  if (!pt::enabled()) return REAL(self);
  const pt::Span span(pt::kRead);
  return REAL(self);
}
#undef X

#define X \
  _ZN6oociso8metacell15decode_metacellESt4spanIKSt4byteLm18446744073709551615EENS_4core10ScalarKindERKNS0_16MetacellGeometryERNS0_15DecodedMetacellE
void REAL(ByteSpan, oc::core::ScalarKind, const oc::metacell::MetacellGeometry&,
          oc::metacell::DecodedMetacell&);
void WRAP(ByteSpan record, oc::core::ScalarKind kind,
          const oc::metacell::MetacellGeometry& geometry,
          oc::metacell::DecodedMetacell& out) {
  if (!pt::enabled()) return REAL(record, kind, geometry, out);
  const pt::Span span(pt::kDecode);
  REAL(record, kind, geometry, out);
}
#undef X

#define X \
  _ZN6oociso7extract16extract_metacellERKNS_8metacell15DecodedMetacellEfRNS0_12TriangleSoupERKNS0_13KernelOptionsE
oc::extract::ExtractionStats REAL(const oc::metacell::DecodedMetacell&, float,
                                  oc::extract::TriangleSoup&,
                                  const oc::extract::KernelOptions&);
oc::extract::ExtractionStats WRAP(const oc::metacell::DecodedMetacell& cell,
                                  float iso, oc::extract::TriangleSoup& out,
                                  const oc::extract::KernelOptions& kernel) {
  if (!pt::enabled()) return REAL(cell, iso, out, kernel);
  pt::Span span(pt::kExtract);
  const oc::extract::ExtractionStats stats = REAL(cell, iso, out, kernel);
  span.count(pt::kCellsClassified, stats.cells_visited);
  span.count(pt::kActiveCells, stats.active_cells);
  span.count(pt::kTriangles, stats.triangles);
  return stats;
}
#undef X

#define X \
  _ZN6oociso7extract18canonical_mesh_crcESt4spanIKNS0_12TriangleSoupELm18446744073709551615EE
std::uint32_t REAL(SoupSpan);
std::uint32_t WRAP(SoupSpan soups) {
  if (!pt::enabled()) return REAL(soups);
  const pt::Span span(pt::kMeshCrc);
  return REAL(soups);
}
#undef X

#define X \
  _ZN6oociso6render10Rasterizer4drawERKNS_7extract12TriangleSoupERKNS0_6CameraERNS0_11FramebufferE
oc::render::RasterStats REAL(oc::render::Rasterizer*,
                             const oc::extract::TriangleSoup&,
                             const oc::render::Camera&,
                             oc::render::Framebuffer&);
oc::render::RasterStats WRAP(oc::render::Rasterizer* self,
                             const oc::extract::TriangleSoup& soup,
                             const oc::render::Camera& camera,
                             oc::render::Framebuffer& target) {
  if (!pt::enabled()) return REAL(self, soup, camera, target);
  pt::Span span(pt::kRender);
  const oc::render::RasterStats stats = REAL(self, soup, camera, target);
  span.count(pt::kFragmentsTested, stats.fragments_tested);
  span.count(pt::kFragmentsWritten, stats.fragments_written);
  return stats;
}
#undef X

#define X \
  _ZN6oociso11compositing11binary_swapERKSt6vectorINS_6render11FramebufferESaIS3_EEPNS_3obs6TracerEj
oc::compositing::CompositeResult REAL(const Frames&, oc::obs::Tracer*,
                                      std::uint32_t);
oc::compositing::CompositeResult WRAP(const Frames& locals,
                                      oc::obs::Tracer* tracer,
                                      std::uint32_t pid) {
  if (!pt::enabled()) return REAL(locals, tracer, pid);
  pt::Span span(pt::kComposite);
  oc::compositing::CompositeResult result = REAL(locals, tracer, pid);
  span.count(pt::kCompositeBytes, result.traffic.bytes_total);
  span.count(pt::kCompositeRounds, result.traffic.rounds);
  return result;
}
#undef X

#define X _ZN6oociso8pipeline11QueryEngine3runEfRKNS0_12QueryOptionsE
oc::pipeline::QueryReport REAL(oc::pipeline::QueryEngine*, oc::core::ValueKey,
                               const oc::pipeline::QueryOptions&);
oc::pipeline::QueryReport WRAP(oc::pipeline::QueryEngine* self,
                               oc::core::ValueKey iso,
                               const oc::pipeline::QueryOptions& options) {
  if (!pt::enabled()) return REAL(self, iso, options);
  const pt::Span span(pt::kQueryEngine);
  return REAL(self, iso, options);
}
#undef X

#define X _ZN6oociso8pipeline17ProgressiveEngine3runEfRKNS0_12QueryOptionsE
oc::pipeline::ProgressiveReport REAL(oc::pipeline::ProgressiveEngine*,
                                     oc::core::ValueKey,
                                     const oc::pipeline::QueryOptions&);
oc::pipeline::ProgressiveReport WRAP(
    oc::pipeline::ProgressiveEngine* self, oc::core::ValueKey iso,
    const oc::pipeline::QueryOptions& options) {
  if (!pt::enabled()) return REAL(self, iso, options);
  const pt::Span span(pt::kProgressive);
  return REAL(self, iso, options);
}
#undef X

}  // extern "C"

#endif  // PERFBENCH_TRACED
