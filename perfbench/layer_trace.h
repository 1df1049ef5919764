#pragma once
// Benchmark-side layer spans.
//
// In the traced program (perfbench_traced) layer_trace.cpp defines
// `__wrap_<symbol>` for each layer entry point listed in CMakeLists.txt and
// `ld --wrap` routes the library's own calls through them; the plain program
// has no wrappers. While recording is enabled a wrapper times the real call on the
// calling thread and adds the counts its return value carries. Each thread
// appends to its own log, so a wrapper takes no lock; totals() and spans()
// read every log and may only be called while no query is running.

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench::trace {

/// Timed entry points. The layers before kQueryEngine are the leaf layers
/// whose spans count toward trace coverage; the two engine runs nest all of
/// them and are timed only to split admission wait off the client's wall.
enum Layer : int {
  kPlan,         // index: CompactIntervalTree::plan
  kPlanLevel,    // index: CompactIntervalTree::plan_level
  kSchedule,     // index: schedule_plan
  kRead,         // io: RetrievalStream::next (device read + CRC verify)
  kDecode,       // metacell: decode_metacell
  kExtract,      // extract: extract_metacell
  kMeshCrc,      // extract: canonical_mesh_crc over per-node soups
  kRender,       // render: Rasterizer::draw
  kComposite,    // compositing: binary_swap
  kQueryEngine,  // pipeline: QueryEngine::run
  kProgressive,  // pipeline: ProgressiveEngine::run
  kLayerCount
};

/// Work counts read off the wrapped calls' return values.
enum Count : int {
  kRecordsPlanned,   // QueryPlan::total_records()
  kReadsScheduled,   // ScheduledPlan::items.size()
  kCellsClassified,  // ExtractionStats::cells_visited
  kActiveCells,      // ExtractionStats::active_cells
  kTriangles,        // ExtractionStats::triangles
  kFragmentsTested,  // RasterStats::fragments_tested
  kFragmentsWritten, // RasterStats::fragments_written
  kCompositeBytes,   // TrafficStats::bytes_total
  kCompositeRounds,  // TrafficStats::rounds
  kCountCount
};

struct Totals {
  std::array<std::uint64_t, kLayerCount> ns{};
  std::array<std::uint64_t, kCountCount> counts{};

  Totals& operator+=(const Totals& other);
  /// What accumulated since `earlier` was taken.
  [[nodiscard]] Totals since(const Totals& earlier) const;
};

/// One leaf-layer span, steady-clock nanoseconds.
struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Steady-clock nanoseconds, the clock every span and query window uses.
[[nodiscard]] std::int64_t now_ns();

/// Turns recording on or off. Off, a wrapper only forwards the call.
void set_enabled(bool enabled);

/// Sums over every thread's log.
[[nodiscard]] Totals totals();

/// Every recorded leaf-layer span, in no particular order.
[[nodiscard]] std::vector<Interval> spans();

/// Drops recorded spans (totals keep accumulating).
void clear_spans();

}  // namespace perfbench::trace
