// perfbench_probe — the benchmark's in-process harness for the static
// mining layers. It links the program's libraries and calls their public
// functions; it adds no instrumentation to them.
//
//   perfbench_probe adi --input=db.lg --support=N --frames=F
//                       --page-file=path --output=patterns.lg
//       Builds the ADI index with an F-frame pool over a page file at
//       `path` and mines it; writes patterns as `partminer mine` does.
//       (The CLI's --algo=adi always puts its page file under /tmp; the
//       library takes a path.)
//
//   perfbench_probe layers --input=db.lg --support=N --threads=T
//                          --frames=F --page-file=path --output=patterns.lg
//       Times one call into each static layer on the same input and prints
//       one JSON object of per-layer metrics (names as in BENCHMARK.json);
//       writes the serial PartMiner patterns to --output for checking.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adi/adi_miner.h"
#include "common/thread_pool.h"
#include "common/timing.h"
#include "core/part_miner.h"
#include "graph/graph_io.h"
#include "miner/gspan.h"
#include "obs/metrics.h"
#include "partition/db_partition.h"

namespace {

using namespace partminer;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) continue;
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return flags;
}

int IntFlag(const std::map<std::string, std::string>& flags,
            const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) {
    std::fprintf(stderr, "error: missing --%s\n", key.c_str());
    std::exit(2);
  }
  return std::atoi(it->second.c_str());
}

std::string StrFlag(const std::map<std::string, std::string>& flags,
                    const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) {
    std::fprintf(stderr, "error: missing --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

int64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name)->value();
}

/// Same order and layout as `partminer mine --output`: support descending,
/// ties by DFS code.
bool WritePatterns(const PatternSet& patterns, const std::string& path) {
  std::vector<const PatternInfo*> ranked;
  for (const PatternInfo& p : patterns.patterns()) ranked.push_back(&p);
  std::sort(ranked.begin(), ranked.end(),
            [](const PatternInfo* a, const PatternInfo* b) {
              if (a->support != b->support) return a->support > b->support;
              return a->code.Compare(b->code) < 0;
            });
  std::ofstream out(path);
  int gid = 0;
  for (const PatternInfo* p : ranked) {
    out << "t # " << gid++ << "\n# support " << p->support << "\n";
    const Graph g = p->code.ToGraph();
    for (VertexId v = 0; v < g.VertexCount(); ++v) {
      out << "v " << v << " " << g.vertex_label(v) << "\n";
    }
    for (const EdgeEntry& e : g.UndirectedEdges()) {
      out << "e " << e.from << " " << e.to << " " << e.label << "\n";
    }
  }
  return static_cast<bool>(out);
}

GraphDatabase Load(const std::string& path) {
  GraphDatabase db;
  const Status status = ReadGraphDatabaseFile(path, &db);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  return db;
}

AdiMineOptions AdiOptions(int frames, const std::string& page_file) {
  AdiMineOptions options;
  options.pool.frames = frames;
  options.file_path = page_file;
  return options;
}

int Adi(const std::map<std::string, std::string>& flags) {
  const GraphDatabase db = Load(StrFlag(flags, "input"));
  AdiMine miner(AdiOptions(IntFlag(flags, "frames"),
                           StrFlag(flags, "page-file")));
  Status status = miner.BuildIndex(db);
  MinerOptions options;
  options.min_support = IntFlag(flags, "support");
  PatternSet patterns;
  if (status.ok()) status = miner.Mine(options, &patterns);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return WritePatterns(patterns, StrFlag(flags, "output")) ? 0 : 1;
}

int Layers(const std::map<std::string, std::string>& flags) {
  const GraphDatabase db = Load(StrFlag(flags, "input"));
  const int support = IntFlag(flags, "support");
  const int threads = IntFlag(flags, "threads");
  std::vector<std::pair<std::string, double>> out;
  auto put = [&out](const std::string& name, double value) {
    out.emplace_back(name, value);
  };

  // partition: DBPartition on its own.
  PartMinerOptions pm_options;
  pm_options.min_support_count = support;
  {
    Stopwatch watch;
    const PartitionedDatabase part =
        PartitionedDatabase::Create(db, pm_options.partition);
    put("partition.create_ms", watch.ElapsedMillis());
  }

  // miner: one serial gSpan sweep of the whole database.
  {
    const int64_t checks = CounterValue("miner.minimality_checks");
    const int64_t hits = CounterValue("canon.cache_hits");
    const int64_t misses = CounterValue("canon.cache_misses");
    MinerOptions options;
    options.min_support = support;
    Stopwatch watch;
    GSpanMiner miner;
    const PatternSet patterns = miner.Mine(db, options);
    put("miner.gspan_ms", watch.ElapsedMillis());
    put("miner.minimality_checks",
        static_cast<double>(CounterValue("miner.minimality_checks") - checks));
    const double h = static_cast<double>(CounterValue("canon.cache_hits") - hits);
    const double m =
        static_cast<double>(CounterValue("canon.cache_misses") - misses);
    put("canon.cache_hit_ratio", h + m > 0 ? h / (h + m) : 0.0);
  }

  // partition + miner + core: one serial PartMiner run; the phase split is
  // the one PartMinerResult reports.
  {
    Stopwatch watch;
    PartMiner miner(pm_options);
    const PartMinerResult result = miner.Mine(db);
    const double wall_ms = watch.ElapsedMillis();
    int64_t frontier = 0;
    for (const NodeFrontier& node : miner.node_frontiers()) {
      frontier += static_cast<int64_t>(node.map.size());
    }
    const double phases_ms = result.AggregateSeconds() * 1e3;
    put("partminer.wall_ms", wall_ms);
    put("partminer.coverage", wall_ms > 0 ? phases_ms / wall_ms : 0.0);
    put("miner.unit_mine_sum_ms", result.UnitSecondsSum() * 1e3);
    put("miner.unit_mine_max_ms", result.UnitSecondsMax() * 1e3);
    put("merge.static_ms", result.merge_seconds * 1e3);
    put("merge.frontier_entries", static_cast<double>(frontier));
    put("verify.exact_ms", result.verify_seconds * 1e3);
    put("verify.graphs_examined",
        static_cast<double>(result.verify_stats.graphs_examined));
    if (!WritePatterns(result.patterns, StrFlag(flags, "output"))) return 1;
  }

  // common/thread_pool: the same run at `threads` unit-mining threads.
  {
    const int64_t steals = CounterValue("pool.steals");
    const int64_t executed = CounterValue("pool.tasks_executed");
    PartMinerOptions options = pm_options;
    options.unit_mining_threads = threads;
    Stopwatch watch;
    PartMiner miner(options);
    const PartMinerResult result = miner.Mine(db);
    put("partminer.par_wall_ms", watch.ElapsedMillis());
    put("pool.steals", static_cast<double>(CounterValue("pool.steals") - steals));
    put("pool.tasks_executed",
        static_cast<double>(CounterValue("pool.tasks_executed") - executed));
  }

  // adi + storage: index build and mining scan through the small pool.
  {
    AdiMine miner(AdiOptions(IntFlag(flags, "frames"),
                             StrFlag(flags, "page-file")));
    Stopwatch watch;
    Status status = miner.BuildIndex(db);
    put("adi.build_ms", watch.ElapsedMillis());
    const IoStats& before = miner.io_stats();
    const int64_t reads = before.page_reads, writes = before.page_writes;
    const int64_t hits = before.pool_hits, misses = before.pool_misses;
    const int64_t evictions = CounterValue("pool.evictions") +
                              CounterValue("storage.pool_evictions");
    MinerOptions options;
    options.min_support = support;
    PatternSet patterns;
    watch.Restart();
    if (status.ok()) status = miner.Mine(options, &patterns);
    put("adi.scan_ms", watch.ElapsedMillis());
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    const IoStats& after = miner.io_stats();
    put("storage.pages", static_cast<double>(miner.index().pages_used()));
    put("storage.page_reads", static_cast<double>(after.page_reads - reads));
    put("storage.page_writes", static_cast<double>(writes));
    put("storage.evictions",
        static_cast<double>(CounterValue("pool.evictions") +
                            CounterValue("storage.pool_evictions") -
                            evictions));
    const double h = static_cast<double>(after.pool_hits - hits);
    const double m = static_cast<double>(after.pool_misses - misses);
    put("storage.hit_ratio", h + m > 0 ? h / (h + m) : 0.0);
  }

  std::printf("{");
  for (size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": %.6f", i ? ", " : "", out[i].first.c_str(),
                out[i].second);
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const auto flags = ParseFlags(argc, argv);
  if (command == "adi") return Adi(flags);
  if (command == "layers") return Layers(flags);
  std::fprintf(stderr, "usage: perfbench_probe adi|layers --flags...\n");
  return 2;
}
