#include "adi/adi_miner.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <system_error>

#include "common/logging.h"
#include "common/timing.h"
#include "miner/gspan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace partminer {

namespace {

/// A fresh page-file path in the system temp directory ($TMPDIR when set).
std::string UniqueTempPath() {
  static std::atomic<int> counter{0};
  std::error_code error;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path(error);
  PM_CHECK(!error) << "no usable temp directory for the ADI page file: "
                   << error.message();
  return (dir / ("partminer_adi_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter++) + ".pages"))
      .string();
}

}  // namespace

AdiMine::AdiMine(const AdiMineOptions& options)
    : engine_(options.pool.engine) {
  const std::string path =
      options.file_path.empty() ? UniqueTempPath() : options.file_path;
  PM_CHECK(disk_.Open(path).ok()) << "cannot open ADI page file " << path;
  disk_.set_simulated_latency_us(options.io_delay_us);
  if (engine_ == StorageEngine::kSwizzle) {
    swizzle_pool_ = std::make_unique<SwizzlePool>(&disk_, options.pool);
    index_ = std::make_unique<AdiIndex>(swizzle_pool_.get());
  } else {
    classic_pool_ = std::make_unique<BufferPool>(&disk_, options.pool.frames,
                                                 options.pool.partitions);
    index_ = std::make_unique<AdiIndex>(classic_pool_.get());
  }
}

AdiMine::~AdiMine() = default;

Status AdiMine::BuildIndex(const GraphDatabase& db) {
  PM_TRACE_SPAN("adi.build_index", {{"graphs", db.size()}});
  Stopwatch watch;
  // A failed build leaves a partially written index; refuse to mine it
  // until a later rebuild succeeds.
  built_ = false;
  if (swizzle_pool_ != nullptr) {
    swizzle_pool_->Clear();
  } else {
    classic_pool_->Clear();
  }
  PARTMINER_RETURN_IF_ERROR_CTX(disk_.Reset(), "resetting page file");
  PARTMINER_RETURN_IF_ERROR_CTX(index_->Build(db), "building ADI index");
  built_ = true;
  PM_METRIC_HISTOGRAM("adi.phase.build_index_ms")
      ->Observe(watch.ElapsedSeconds() * 1e3);
  return Status::Ok();
}

Status AdiMine::Mine(const MinerOptions& options, PatternSet* out) {
  *out = PatternSet();
  if (!built_) {
    return Status::InvalidArgument(
        "Mine() before a successful BuildIndex()");
  }
  PM_TRACE_SPAN("adi.mine", {{"support", options.min_support}});

  // Scan phase: the edge table tells which graphs contain any frequent
  // edge; only those are decoded from their pages.
  Stopwatch scan_watch;
  const std::vector<int> relevant =
      index_->GraphsWithFrequentEdges(options.min_support);
  // Keep database indices aligned with the original ids so pattern TID
  // lists are comparable with the other miners: graphs without frequent
  // edges become empty placeholders.
  GraphDatabase decoded;
  size_t next_relevant = 0;
  for (int i = 0; i < index_->graph_count(); ++i) {
    if (next_relevant < relevant.size() && relevant[next_relevant] == i) {
      Graph g;
      PARTMINER_RETURN_IF_ERROR_CTX(index_->LoadGraph(i, &g),
                                    "ADI index scan");
      decoded.Add(std::move(g), i);
      ++next_relevant;
    } else {
      decoded.Add(Graph(), i);
    }
  }
  last_scan_seconds_ = scan_watch.ElapsedSeconds();
  if (swizzle_pool_ != nullptr) swizzle_pool_->PublishMetrics();

  GSpanMiner miner;
  *out = miner.Mine(decoded, options);
  return Status::Ok();
}

PatternSet AdiMine::Mine(const MinerOptions& options) {
  PatternSet out;
  const Status status = Mine(options, &out);
  PM_CHECK(status.ok()) << status.ToString();
  return out;
}

const IoStats& AdiMine::io_stats() {
  if (swizzle_pool_ != nullptr) return swizzle_pool_->stats();
  return disk_.stats();
}

}  // namespace partminer
