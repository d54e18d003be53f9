#include "src/exp/trace_driver.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/common/logging.h"
#include "src/common/mpmc_queue.h"
#include "src/common/random.h"

namespace pcor {

TraceDriver::TraceDriver(std::vector<TraceEvent> events, Clock* clock)
    : events_(std::move(events)), clock_(clock) {
  PCOR_CHECK(clock_ != nullptr) << "TraceDriver needs a clock";
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.at_us < b.at_us;
                   });
}

TraceDriver::Stats TraceDriver::Run(const Handler& handler) {
  Stats stats;
  for (const TraceEvent& e : events_) {
    clock_->SleepUntil(e.at_us);
    const int64_t fired_us = clock_->NowMicros();
    const int64_t lag_us = fired_us - e.at_us;
    ++stats.dispatched;
    if (lag_us > 0) {
      ++stats.late;
      stats.total_lag_us += lag_us;
      stats.max_lag_us = std::max(stats.max_lag_us, lag_us);
    }
    handler(e, e.at_us, fired_us);
  }
  return stats;
}

std::function<Row(uint64_t)> MakeUniformRowSource(const Schema& schema,
                                                  uint64_t seed,
                                                  uint64_t outlier_stride,
                                                  double outlier_metric) {
  PCOR_CHECK(outlier_stride > 0) << "outlier_stride must be positive";
  std::vector<uint32_t> domains;
  domains.reserve(schema.num_attributes());
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    domains.push_back(
        static_cast<uint32_t>(schema.attribute(a).domain_size()));
  }
  return [domains, seed, outlier_stride, outlier_metric](uint64_t index) {
    Row row;
    row.codes.resize(domains.size());
    for (size_t a = 0; a < domains.size(); ++a) {
      const uint64_t h = SplitMix64Mix(
          seed ^ SplitMix64Mix(index * 0x9e3779b97f4a7c15ULL + a + 1));
      row.codes[a] = static_cast<uint32_t>(h % domains[a]);
    }
    if (index % outlier_stride == 0) {
      row.metric = outlier_metric;
    } else {
      const uint64_t h = SplitMix64Mix(seed ^ SplitMix64Mix(~index));
      // Benign band well inside any z-score threshold.
      row.metric = 10.0 + static_cast<double>(h % 1000) / 100.0;
    }
    return row;
  };
}

namespace {

inline uint64_t Fold(uint64_t h, uint64_t v) {
  return SplitMix64Mix(h ^ (v + 0x9e3779b97f4a7c15ULL));
}

inline uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// One submitted release awaiting collection.
struct InFlight {
  Future<BatchEntry> future;
  size_t tenant = 0;        // index into the replay's tenant table
  size_t slot = 0;          // digest slot = release index in trace order
  int64_t scheduled_us = 0;
  int64_t submitted_us = 0;
};

/// Per-thread accumulator; merged deterministically after the join
/// (histogram merge is an element-wise sum, so the merged result is
/// independent of which collector handled which future).
struct TenantAccum {
  LatencyHistogram scheduled;
  LatencyHistogram submitted;
  size_t released = 0;
  size_t failed = 0;
  size_t exceptions = 0;
};

}  // namespace

uint64_t DigestBatchEntry(const BatchEntry& entry) {
  uint64_t h = 0x5ca1ab1e;
  h = Fold(h, static_cast<uint64_t>(entry.status.code()));
  h = Fold(h, entry.v_row);
  h = Fold(h, entry.rng_seed);
  if (entry.status.ok()) {
    const PcorRelease& r = entry.release;
    // Only the deterministic slice of the payload: cache hit counts,
    // kernel backend and wall seconds legitimately vary run to run.
    h = Fold(h, static_cast<uint64_t>(r.context.Hash()));
    h = Fold(h, DoubleBits(r.epsilon_spent));
    h = Fold(h, DoubleBits(r.epsilon1));
    h = Fold(h, r.num_candidates);
    h = Fold(h, r.probes);
    h = Fold(h, DoubleBits(r.utility_score));
    h = Fold(h, r.epoch);
    h = Fold(h, r.stream_release_index);
    h = Fold(h, r.hit_probe_cap ? 1 : 0);
  }
  return h;
}

Result<TraceReplayResult> ReplayTrace(PcorServer& server,
                                      std::span<const TraceEvent> events,
                                      std::span<const uint32_t> outlier_pool,
                                      const TraceReplayOptions& options) {
  size_t n_releases = 0;
  bool has_streaming = false;
  bool has_appends = false;
  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case TraceEventKind::kRelease:
        ++n_releases;
        break;
      case TraceEventKind::kAppend:
        has_appends = true;
        has_streaming = true;
        break;
      case TraceEventKind::kSeal:
        has_streaming = true;
        break;
    }
  }
  if (n_releases > 0 && outlier_pool.empty()) {
    return Status::InvalidArgument(
        "trace has release events but the outlier pool is empty");
  }
  if (has_appends && !options.row_source) {
    return Status::InvalidArgument(
        "trace has append events but no TraceReplayOptions::row_source");
  }
  if (has_streaming && !server.streaming()) {
    return Status::InvalidArgument(
        "trace has append/seal events but the server is not streaming");
  }

  std::optional<RealClock> owned_clock;
  Clock* clock =
      options.clock != nullptr ? options.clock : &owned_clock.emplace();

  TraceDriver driver(std::vector<TraceEvent>(events.begin(), events.end()),
                     clock);

  // Tenant table: order of first appearance in dispatch order, so the
  // per-tenant breakdown is a deterministic function of the trace.
  std::unordered_map<std::string, size_t> tenant_index;
  std::vector<std::string> tenant_ids;
  for (const TraceEvent& e : driver.events()) {
    if (tenant_index.emplace(e.tenant, tenant_ids.size()).second) {
      tenant_ids.push_back(e.tenant);
    }
  }

  const size_t n_collectors = std::max<size_t>(1, options.collector_threads);
  BoundedMpmcQueue<InFlight> completions(std::max<size_t>(1, n_releases));
  std::vector<uint64_t> digest_slots(n_releases, 0);

  // Seal barrier state: releases admitted but not yet collected.
  std::mutex outstanding_mu;
  std::condition_variable outstanding_cv;
  size_t outstanding = 0;

  std::vector<std::vector<TenantAccum>> collector_accums(
      n_collectors, std::vector<TenantAccum>(tenant_ids.size()));

  std::vector<std::thread> collectors;
  collectors.reserve(n_collectors);
  for (size_t c = 0; c < n_collectors; ++c) {
    collectors.emplace_back([&, c] {
      std::vector<TenantAccum>& accums = collector_accums[c];
      InFlight item;
      while (completions.Pop(&item) == QueueOp::kOk) {
        TenantAccum& accum = accums[item.tenant];
        uint64_t digest = 0;
        try {
          BatchEntry entry = item.future.Get();
          digest = DigestBatchEntry(entry);
          if (entry.status.ok()) {
            ++accum.released;
          } else {
            ++accum.failed;
          }
        } catch (const std::exception&) {
          ++accum.exceptions;
          digest = Fold(0xdead, 1);
        }
        const int64_t done_us = clock->NowMicros();
        accum.scheduled.Record(done_us - item.scheduled_us);
        accum.submitted.Record(done_us - item.submitted_us);
        digest_slots[item.slot] = digest;
        {
          std::lock_guard<std::mutex> lock(outstanding_mu);
          --outstanding;
        }
        outstanding_cv.notify_all();
      }
    });
  }

  // Dispatcher-side accumulator: admission rejections terminate at the
  // admission call itself, so the dispatch thread records them.
  std::vector<TenantAccum> reject_accums(tenant_ids.size());

  TraceReplayResult result;
  result.tenants.resize(tenant_ids.size());
  for (size_t t = 0; t < tenant_ids.size(); ++t) {
    result.tenants[t].id = tenant_ids[t];
  }

  size_t release_slot = 0;
  uint64_t append_index = 0;
  const auto wall_start = std::chrono::steady_clock::now();

  result.driver = driver.Run([&](const TraceEvent& e, int64_t scheduled_us,
                                 int64_t /*fired_us*/) {
    const size_t tenant = tenant_index.at(e.tenant);
    switch (e.kind) {
      case TraceEventKind::kRelease: {
        ++result.releases;
        ++result.tenants[tenant].releases;
        BatchRequest request;
        request.v_row = outlier_pool[e.rows % outlier_pool.size()];
        if (e.epsilon > 0.0) {
          PcorOptions override_options = server.options().release;
          override_options.total_epsilon = e.epsilon;
          request.options = override_options;
        }
        const size_t slot = release_slot++;
        Result<Future<BatchEntry>> admitted =
            server.SubmitAsync(request, e.tenant);
        // Recorded AFTER SubmitAsync returns: admission-side blocking
        // (backpressure) lands in the omission gap, not in the
        // submit-to-completion latency — that is the whole point.
        const int64_t submitted_us = clock->NowMicros();
        if (!admitted.ok()) {
          TenantAccum& accum = reject_accums[tenant];
          if (admitted.status().IsPrivacyBudgetExceeded()) {
            ++result.rejected_budget;
            ++result.tenants[tenant].rejected_budget;
          } else {
            ++result.rejected_other;
            ++result.tenants[tenant].rejected_other;
          }
          // A rejection terminates at admission time.
          accum.scheduled.Record(submitted_us - scheduled_us);
          accum.submitted.Record(0);
          digest_slots[slot] =
              Fold(0xbad, static_cast<uint64_t>(admitted.status().code()));
          break;
        }
        {
          std::lock_guard<std::mutex> lock(outstanding_mu);
          ++outstanding;
        }
        InFlight item;
        item.future = std::move(admitted).value();
        item.tenant = tenant;
        item.slot = slot;
        item.scheduled_us = scheduled_us;
        item.submitted_us = submitted_us;
        completions.Push(std::move(item));
        break;
      }
      case TraceEventKind::kAppend: {
        for (uint64_t r = 0; r < e.rows; ++r) {
          const Row row = options.row_source(append_index++);
          if (server.SubmitAppend(row).ok()) {
            ++result.appends;
          } else {
            ++result.append_errors;
          }
        }
        break;
      }
      case TraceEventKind::kSeal: {
        {
          std::unique_lock<std::mutex> lock(outstanding_mu);
          outstanding_cv.wait(lock, [&] { return outstanding == 0; });
        }
        ++result.seals;
        Result<uint64_t> sealed = server.SealEpoch();
        if (sealed.ok()) result.final_epoch = sealed.value();
        break;
      }
    }
  });

  completions.Close();
  for (std::thread& t : collectors) t.join();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Deterministic assembly: per-tenant merges walk collectors in thread
  // order (any order would do — element-wise sums commute), then the
  // aggregate merges tenants in first-appearance order.
  for (size_t t = 0; t < tenant_ids.size(); ++t) {
    TenantReplayStats& out = result.tenants[t];
    out.scheduled.Merge(reject_accums[t].scheduled);
    out.submitted.Merge(reject_accums[t].submitted);
    for (size_t c = 0; c < n_collectors; ++c) {
      const TenantAccum& accum = collector_accums[c][t];
      out.scheduled.Merge(accum.scheduled);
      out.submitted.Merge(accum.submitted);
      out.released += accum.released;
      out.failed += accum.failed;
      out.exceptions += accum.exceptions;
    }
    result.scheduled.Merge(out.scheduled);
    result.submitted.Merge(out.submitted);
    result.released += out.released;
    result.failed += out.failed;
    result.exceptions += out.exceptions;
  }

  uint64_t digest = 0x9e3779b97f4a7c15ULL;
  for (uint64_t slot : digest_slots) digest = Fold(digest, slot);
  result.release_digest = digest;
  if (server.streaming()) result.final_epoch = server.stats().epoch;
  return result;
}

}  // namespace pcor
