// google-benchmark microbenchmarks for the reordering algorithms themselves
// (serial, as in the study) on two structural extremes, a 2D mesh and a
// power-law graph, plus the BFS orderings on a road network whose hundreds
// of connected components expose any per-component O(n) cost.
#include <benchmark/benchmark.h>

#include "bench_report_main.hpp"
#include "corpus/generators.hpp"
#include "reorder/reordering.hpp"

namespace {

using namespace ordo;

const CsrMatrix& mesh() {
  static const CsrMatrix a = gen_mesh2d(120, 120, 5);
  return a;
}
const CsrMatrix& powerlaw() {
  static const CsrMatrix a = gen_rmat(12, 8, 0.57, 0.19, 0.19, 5);
  return a;
}

const CsrMatrix& road() {
  static const CsrMatrix a = gen_road_network(200000, 5);
  return a;
}

void bench_ordering(benchmark::State& state, const CsrMatrix& a,
                    OrderingKind kind) {
  ReorderOptions options;
  options.gp_parts = 64;
  options.hp_parts = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_ordering(a, kind, options));
  }
  state.SetItemsProcessed(state.iterations() * a.num_nonzeros());
}

void BM_RcmMesh(benchmark::State& s) { bench_ordering(s, mesh(), OrderingKind::kRcm); }
void BM_AmdMesh(benchmark::State& s) { bench_ordering(s, mesh(), OrderingKind::kAmd); }
void BM_NdMesh(benchmark::State& s) { bench_ordering(s, mesh(), OrderingKind::kNd); }
void BM_GpMesh(benchmark::State& s) { bench_ordering(s, mesh(), OrderingKind::kGp); }
void BM_HpMesh(benchmark::State& s) { bench_ordering(s, mesh(), OrderingKind::kHp); }
void BM_GrayMesh(benchmark::State& s) { bench_ordering(s, mesh(), OrderingKind::kGray); }
void BM_RcmPowerLaw(benchmark::State& s) { bench_ordering(s, powerlaw(), OrderingKind::kRcm); }
void BM_AmdPowerLaw(benchmark::State& s) { bench_ordering(s, powerlaw(), OrderingKind::kAmd); }
void BM_GpPowerLaw(benchmark::State& s) { bench_ordering(s, powerlaw(), OrderingKind::kGp); }
void BM_GrayPowerLaw(benchmark::State& s) { bench_ordering(s, powerlaw(), OrderingKind::kGray); }
void BM_RcmRoad(benchmark::State& s) { bench_ordering(s, road(), OrderingKind::kRcm); }
void BM_KingRoad(benchmark::State& s) {
  for (auto _ : s) benchmark::DoNotOptimize(king_ordering(road()));
  s.SetItemsProcessed(s.iterations() * road().num_nonzeros());
}
void BM_WindowedRcmRoad(benchmark::State& s) {
  for (auto _ : s) benchmark::DoNotOptimize(windowed_rcm_ordering(road(), 4096));
  s.SetItemsProcessed(s.iterations() * road().num_nonzeros());
}

BENCHMARK(BM_RcmMesh);
BENCHMARK(BM_AmdMesh);
BENCHMARK(BM_NdMesh);
BENCHMARK(BM_GpMesh);
BENCHMARK(BM_HpMesh);
BENCHMARK(BM_GrayMesh);
BENCHMARK(BM_RcmPowerLaw);
BENCHMARK(BM_AmdPowerLaw);
BENCHMARK(BM_GpPowerLaw);
BENCHMARK(BM_GrayPowerLaw);
BENCHMARK(BM_RcmRoad);
BENCHMARK(BM_KingRoad);
BENCHMARK(BM_WindowedRcmRoad);

}  // namespace

ORDO_BENCH_REPORT_MAIN("micro_reorderings")
