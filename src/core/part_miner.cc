#include "core/part_miner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timing.h"
#include "miner/gaston.h"
#include "miner/gspan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace partminer {

double PartMinerResult::UnitSecondsSum() const {
  double total = 0;
  for (const double t : unit_mining_seconds) total += t;
  return total;
}

double PartMinerResult::UnitSecondsMax() const {
  double max_t = 0;
  for (const double t : unit_mining_seconds) max_t = std::max(max_t, t);
  return max_t;
}

double PartMinerResult::AggregateSeconds() const {
  return partition_seconds + UnitSecondsSum() + merge_seconds + verify_seconds;
}

double PartMinerResult::ParallelSeconds() const {
  return partition_seconds + UnitSecondsMax() + merge_seconds + verify_seconds;
}

PartMiner::PartMiner(const PartMinerOptions& options) : options_(options) {}

int PartMiner::ResolveSupport(int db_size) const {
  if (options_.min_support_count > 0) return options_.min_support_count;
  const int count = static_cast<int>(
      std::ceil(options_.min_support_fraction * db_size));
  return std::max(1, count);
}

int PartMiner::NodeSupport(int index) const {
  // ceil(sup / 2^depth), computed by repeated halving so intermediate
  // ceilings compose the way the completeness argument requires.
  int support = root_support_;
  for (int d = 0; d < partitioned_.tree()[index].depth; ++d) {
    support = (support + 1) / 2;
  }
  return std::max(1, support);
}

std::unique_ptr<FrequentSubgraphMiner> PartMiner::MakeUnitMiner() const {
  switch (options_.unit_miner) {
    case UnitMinerKind::kGaston:
      return std::make_unique<GastonMiner>();
    case UnitMinerKind::kGSpan:
      return std::make_unique<GSpanMiner>();
  }
  PM_CHECK(false);
  return nullptr;
}

PartMinerResult PartMiner::Mine(const GraphDatabase& db) {
  PM_TRACE_SPAN("part_miner.mine",
                {{"graphs", db.size()},
                 {"k", options_.partition.k},
                 {"threads", options_.unit_mining_threads}});
  PM_METRIC_COUNTER("partminer.mine_runs")->Increment();
  PartMinerResult result;
  root_support_ = ResolveSupport(db.size());
  result.min_support_count = root_support_;

  // Phase 1: divide the database into k units (Figure 6).
  Stopwatch partition_watch;
  {
    PM_TRACE_SPAN("partition", {{"k", options_.partition.k}});
    partitioned_ = PartitionedDatabase::Create(db, options_.partition);
  }
  result.partition_seconds = partition_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.phase.partition_ms")
      ->Observe(result.partition_seconds * 1e3);

  const std::vector<MergeTreeNode>& tree = partitioned_.tree();
  node_patterns_.assign(tree.size(), PatternSet());
  node_frontiers_.assign(tree.size(), NodeFrontier());
  result.unit_mining_seconds.assign(partitioned_.k(), 0.0);

  // One pool for the whole run: the units and their mining subtrees, then
  // each merge node's sweep. Its width is exactly unit_mining_threads.
  std::unique_ptr<ThreadPool> pool;
  if (options_.unit_mining_threads > 0) {
    pool = std::make_unique<ThreadPool>(options_.unit_mining_threads);
  }

  // Phase 2a: mine every unit with the memory-based miner at its reduced
  // support (Figure 11 lines 4-5). Units are independent, so with
  // unit_mining_threads > 0 they run concurrently, each worker with its own
  // miner instance and output slot.
  std::vector<int> leaf_nodes;
  for (size_t node = 0; node < tree.size(); ++node) {
    if (tree[node].left == -1) leaf_nodes.push_back(static_cast<int>(node));
  }
  auto mine_unit = [&](int node) {
    const int unit_index = tree[node].lo;
    PM_TRACE_SPAN("unit_mine",
                  {{"unit", unit_index}, {"support", NodeSupport(node)}});
    Stopwatch watch;
    const GraphDatabase unit_db = partitioned_.MaterializeUnit(db, unit_index);
    MinerOptions miner_options;
    miner_options.min_support = NodeSupport(node);
    miner_options.max_edges = options_.max_edges;
    miner_options.pool = pool.get();
    if (options_.keep_frontiers) {
      miner_options.capture_frontier = &node_frontiers_[node].map;
      node_frontiers_[node].valid = true;
    }
    std::unique_ptr<FrequentSubgraphMiner> unit_miner = MakeUnitMiner();
    node_patterns_[node] = unit_miner->Mine(unit_db, miner_options);
    result.unit_mining_seconds[unit_index] = watch.ElapsedSeconds();
    PM_METRIC_HISTOGRAM("partminer.phase.unit_mine_ms")
        ->Observe(result.unit_mining_seconds[unit_index] * 1e3);
  };
  {
    PM_TRACE_SPAN("unit_mining", {{"units", leaf_nodes.size()}});
    if (pool != nullptr) {
      // Units and their mining subtrees share the pool: a unit that
      // finishes early frees workers to steal extension subtrees of a
      // still-running heavy unit, which is what keeps the makespan near
      // max-unit instead of sum-of-stragglers.
      //
      // Longest-unit-first: units are claimed in descending assigned-vertex
      // order through a shared counter, so whichever task body runs first
      // picks up the heaviest remaining unit — submission and steal order
      // cannot invert the schedule.
      std::vector<int64_t> unit_vertices(partitioned_.k(), 0);
      for (const std::vector<int>& graph_assign : partitioned_.assignments()) {
        for (const int unit : graph_assign) ++unit_vertices[unit];
      }
      std::vector<int> order = leaf_nodes;
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return unit_vertices[tree[a].lo] > unit_vertices[tree[b].lo];
      });
      std::atomic<size_t> next{0};
      TaskGroup group(pool.get());
      for (size_t t = 0; t < order.size(); ++t) {
        group.Spawn([&]() {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          mine_unit(order[i]);
        });
      }
      group.Wait();
    } else {
      for (const int node : leaf_nodes) mine_unit(node);
    }
  }

  // Phase 2b: merge-join bottom-up (Figure 11 lines 9-17). Nodes are stored
  // preorder, so iterating in reverse index order visits children first.
  // Each node's sweep fans out on the pool; the nodes themselves run one
  // after another. Only the root's frontier is captured: an incremental
  // round re-merges the root alone and never reads an interior frontier.
  Stopwatch merge_watch;
  {
    PM_TRACE_SPAN("merge");
    for (int node = static_cast<int>(tree.size()) - 1; node >= 0; --node) {
      if (tree[node].left == -1) continue;  // Leaf.
      PM_TRACE_SPAN("merge_node",
                    {{"node", node}, {"depth", tree[node].depth}});
      const GraphDatabase node_db =
          partitioned_.Materialize(db, tree[node].lo, tree[node].hi);
      MergeJoinOptions mj;
      mj.min_support = NodeSupport(node);
      mj.max_edges = options_.max_edges;
      mj.pool = pool.get();
      const bool capture =
          options_.keep_frontiers && node == partitioned_.root();
      node_patterns_[node] =
          MergeJoin(node_db, node_patterns_[tree[node].left],
                    node_patterns_[tree[node].right], mj, &result.merge_stats,
                    capture ? &node_frontiers_[node] : nullptr);
    }
  }
  result.merge_seconds = merge_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.phase.merge_ms")
      ->Observe(result.merge_seconds * 1e3);

  // Exact verification at the root: inherited patterns carry child-level
  // supports; this recount makes the output exact at the requested support.
  Stopwatch verify_watch;
  {
    PM_TRACE_SPAN("verify",
                  {{"candidates", node_patterns_[partitioned_.root()].size()},
                   {"support", root_support_}});
    verified_ = VerifyExact(db, node_patterns_[partitioned_.root()],
                            root_support_, &result.verify_stats);
  }
  result.verify_seconds = verify_watch.ElapsedSeconds();
  PM_METRIC_HISTOGRAM("partminer.phase.verify_ms")
      ->Observe(result.verify_seconds * 1e3);

  result.patterns = verified_;
  mined_ = true;
  return result;
}

}  // namespace partminer
