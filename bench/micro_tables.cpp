// Micro-benchmarks (google-benchmark) for the state-hashing substrate —
// the data structures behind §4.4: hash-consed path/route tables, the
// exact visited set and the bitstate Bloom filter.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "engine/visited.hpp"
#include "netbase/hash.hpp"
#include "protocols/route.hpp"

namespace {

using namespace plankton;

void BM_PathTableCons(benchmark::State& state) {
  for (auto _ : state) {
    PathTable paths;
    PathId p = kEmptyPath;
    for (int i = 0; i < state.range(0); ++i) {
      p = paths.cons(static_cast<NodeId>(i % 64), p);
    }
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PathTableCons)->Arg(64)->Arg(1024);

void BM_PathTableSharedSuffixes(benchmark::State& state) {
  // Interning many paths that share suffixes (the common RPVP pattern).
  for (auto _ : state) {
    PathTable paths;
    PathId spine = kEmptyPath;
    for (int i = 0; i < 32; ++i) spine = paths.cons(static_cast<NodeId>(i), spine);
    for (int i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(paths.cons(static_cast<NodeId>(100 + i % 512), spine));
    }
    benchmark::DoNotOptimize(paths.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PathTableSharedSuffixes)->Arg(4096);

void BM_RouteIntern(benchmark::State& state) {
  for (auto _ : state) {
    RouteTable routes;
    for (int i = 0; i < state.range(0); ++i) {
      Route r;
      r.path = static_cast<PathId>(2 + i % 128);
      r.metric = static_cast<std::uint32_t>(i % 32);
      benchmark::DoNotOptimize(routes.intern(std::move(r)));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RouteIntern)->Arg(4096);

void BM_VisitedSetInsert(benchmark::State& state) {
  for (auto _ : state) {
    VisitedSet visited;
    std::uint64_t h = 0x1234;
    for (int i = 0; i < state.range(0); ++i) {
      h = hash_mix(h);
      benchmark::DoNotOptimize(visited.insert(h));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VisitedSetInsert)->Arg(1 << 14);

void BM_BloomInsert(benchmark::State& state) {
  for (auto _ : state) {
    BloomFilter bloom(1 << 20);
    std::uint64_t h = 0x9876;
    for (int i = 0; i < state.range(0); ++i) {
      h = hash_mix(h);
      benchmark::DoNotOptimize(bloom.insert(h));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BloomInsert)->Arg(1 << 14);

/// Console output plus a record per run into the shared JSON trajectory
/// (PLANKTON_BENCH_JSON), like every other bench in this directory.
class JsonConsoleReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      plankton::bench::emit("micro_tables", run.benchmark_name(),
                            run.GetAdjustedRealTime() / 1e6,  // ns/iter -> ms
                            static_cast<std::uint64_t>(run.iterations), 0);
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonConsoleReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
