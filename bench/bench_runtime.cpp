// Runtime experiment: scaling of the thread-pool scheduler on the
// library's parallel hot paths, with the determinism contract enforced.
//
// For each thread count in {1, 2, 4, 8} the bench runs
//   (a) conflict-graph construction (sequential sorted-row pass),
//   (b) Luby MIS on G_k (parallel round evaluation),
//   (c) min-degree greedy MaxIS on G_k (sequential argmin scan),
// on one planted instance (a and c ignore the pool, so their speedup
// columns read about 1x) and CHECKs that every output is byte-identical
// to the single-threaded run — the runtime/scheduler.hpp contract, which
// holds on any machine.  Speedups are reported, not asserted: they only
// materialize with real cores (hardware_concurrency is in the output, so
// a 1-CPU container run is self-explaining).  Times are best-of --reps.
#include <algorithm>
#include <iostream>
#include <vector>

#include "core/conflict_graph.hpp"
#include "hypergraph/generators.hpp"
#include "local/luby_mis.hpp"
#include "mis/greedy_maxis.hpp"
#include "runtime/thread_pool.hpp"
#include "util/bench_report.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace pslocal;

namespace {

/// Best-of-reps wall time of f() in milliseconds.
template <typename F>
double best_ms(std::size_t reps, F&& f) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < reps; ++r) {
    WallTimer timer;
    f();
    best = std::min(best, timer.elapsed_millis());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  BenchReport json_report("runtime", opts);
  const std::uint64_t seed = opts.get_int("seed", 1);
  const std::size_t reps = opts.get_int("reps", 3);

  // Planted instance sized so candidate-pair enumeration alone exceeds
  // 10^5 pairs (checked below) — big enough for load balance to matter.
  PlantedCfParams params;
  params.n = opts.get_int("n", 256);
  params.m = opts.get_int("m", 256);
  params.k = opts.get_int("k", 6);
  params.epsilon = 0.5;
  Rng rng(seed);
  const auto inst = planted_cf_colorable(params, rng);

  // Single-threaded reference outputs (the determinism baseline).
  runtime::ThreadPool ref_pool(1);
  const ConflictGraph ref_cg(inst.hypergraph, params.k, ref_pool);
  const auto ref_luby = luby_mis(ref_cg.graph(), seed, 0, ref_pool);
  const auto ref_greedy = greedy_min_degree_maxis(ref_cg.graph(), ref_pool);

  const std::size_t pairs = ref_cg.count_edge_classes().total;
  PSL_CHECK_MSG(pairs >= 100'000,
                "instance too small for a meaningful scaling run: "
                    << pairs << " candidate pairs (raise --n/--m/--k)");

  Table table("Runtime scaling — conflict graph build / Luby MIS / greedy "
              "MaxIS on one planted instance (times: best of " +
              std::to_string(reps) + " reps)");
  table.header({"threads", "cg ms", "cg x", "luby ms", "luby x", "greedy ms",
                "greedy x", "identical"});

  double cg_ms1 = 0, luby_ms1 = 0, greedy_ms1 = 0;
  double cg_x4 = 0, luby_x4 = 0;
  bool all_identical = true;
  for (std::size_t threads : {1, 2, 4, 8}) {
    runtime::ThreadPool pool(threads);

    const double cg_ms = best_ms(reps, [&] {
      ConflictGraph cg(inst.hypergraph, params.k, pool);
    });
    const ConflictGraph cg(inst.hypergraph, params.k, pool);

    const double luby_ms =
        best_ms(reps, [&] { luby_mis(cg.graph(), seed, 0, pool); });
    const auto luby = luby_mis(cg.graph(), seed, 0, pool);

    const double greedy_ms =
        best_ms(reps, [&] { greedy_min_degree_maxis(cg.graph(), pool); });
    const auto greedy = greedy_min_degree_maxis(cg.graph(), pool);

    // The determinism contract: byte-identical outputs at every thread
    // count.  Graph== compares the full CSR; the MIS vectors compare
    // element-wise.
    const bool identical = cg.graph() == ref_cg.graph() &&
                           luby.independent_set == ref_luby.independent_set &&
                           luby.rounds == ref_luby.rounds &&
                           greedy == ref_greedy;
    PSL_CHECK_MSG(identical, "outputs diverged at threads=" << threads);
    all_identical = all_identical && identical;

    if (threads == 1) {
      cg_ms1 = cg_ms;
      luby_ms1 = luby_ms;
      greedy_ms1 = greedy_ms;
    }
    if (threads == 4) {
      cg_x4 = cg_ms1 / cg_ms;
      luby_x4 = luby_ms1 / luby_ms;
    }
    table.row({fmt_size(threads), fmt_double(cg_ms, 2),
               fmt_ratio(cg_ms1 / cg_ms, 2), fmt_double(luby_ms, 2),
               fmt_ratio(luby_ms1 / luby_ms, 2), fmt_double(greedy_ms, 2),
               fmt_ratio(greedy_ms1 / greedy_ms, 2),
               fmt_bool(identical)});
  }
  std::cout << table.render();
  json_report.add_table(table);

  const std::size_t hw = std::thread::hardware_concurrency();
  std::cout << "candidate pairs enumerated: " << pairs
            << "; hardware_concurrency: " << hw << "\n"
            << "all outputs byte-identical across thread counts: "
            << fmt_bool(all_identical) << "\n";
  if (hw < 4)
    std::cout << "note: <4 hardware threads — speedup columns reflect "
                 "oversubscription, not the scheduler.\n";

  json_report.metric("candidate_pairs", static_cast<double>(pairs))
      .metric("hardware_concurrency", static_cast<double>(hw))
      .metric("cg_speedup_4t", cg_x4)
      .metric("luby_speedup_4t", luby_x4)
      .metric("identical_all", all_identical ? 1.0 : 0.0);
  json_report.write();
  return 0;
}
