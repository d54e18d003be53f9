#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "perfbench/perfbench.h"
#include "src/common/logging.h"
#include "src/common/mpmc_queue.h"
#include "src/common/random.h"
#include "src/common/simd.h"
#include "src/common/stats.h"
#include "src/common/string_util.h"
#include "src/common/threading.h"
#include "src/exp/trace_driver.h"
#include "src/exp/workloads.h"

namespace perfbench {

namespace {

using Steady = std::chrono::steady_clock;

int64_t NanosSince(Steady::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Steady::now() -
                                                              start)
      .count();
}

void Add(std::atomic<uint64_t>& total, uint64_t v) {
  total.fetch_add(v, std::memory_order_relaxed);
}

uint64_t Load(const std::atomic<uint64_t>& v) {
  return v.load(std::memory_order_relaxed);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

// ---------------------------------------------------------------------------
// Decorators.

LayerTotals LayerTotals::operator-(const LayerTotals& base) const {
  LayerTotals d;
  d.count_calls = count_calls - base.count_calls;
  d.count_ns = count_ns - base.count_ns;
  d.into_calls = into_calls - base.into_calls;
  d.into_ns = into_ns - base.into_ns;
  d.gather_calls = gather_calls - base.gather_calls;
  d.gather_ns = gather_ns - base.gather_ns;
  d.detect_calls = detect_calls - base.detect_calls;
  d.detect_ns = detect_ns - base.detect_ns;
  d.detect_elems = detect_elems - base.detect_elems;
  return d;
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& more) {
  count_calls += more.count_calls;
  count_ns += more.count_ns;
  into_calls += more.into_calls;
  into_ns += more.into_ns;
  gather_calls += more.gather_calls;
  gather_ns += more.gather_ns;
  detect_calls += more.detect_calls;
  detect_ns += more.detect_ns;
  detect_elems += more.detect_elems;
  return *this;
}

LayerTotals LayerCounters::Read() const {
  LayerTotals t;
  t.count_calls = Load(count_calls);
  t.count_ns = Load(count_ns);
  t.into_calls = Load(into_calls);
  t.into_ns = Load(into_ns);
  t.gather_calls = Load(gather_calls);
  t.gather_ns = Load(gather_ns);
  t.detect_calls = Load(detect_calls);
  t.detect_ns = Load(detect_ns);
  t.detect_elems = Load(detect_elems);
  return t;
}

void CountingDetector::Detect(std::span<const double> values,
                              std::vector<size_t>* flagged) const {
  const auto start = Steady::now();
  inner_->Detect(values, flagged);
  Add(counters_->detect_ns, NanosSince(start));
  Add(counters_->detect_calls, 1);
  Add(counters_->detect_elems, values.size());
}

bool CountingDetector::IsOutlier(std::span<const double> values,
                                 size_t target) const {
  const auto start = Steady::now();
  const bool outlier = inner_->IsOutlier(values, target);
  Add(counters_->detect_ns, NanosSince(start));
  Add(counters_->detect_calls, 1);
  Add(counters_->detect_elems, values.size());
  return outlier;
}

void CountingProbe::PopulationInto(const pcor::ContextVec& c,
                                   pcor::BitVector* population,
                                   pcor::BitVector* attr_union) const {
  const auto start = Steady::now();
  inner_->PopulationInto(c, population, attr_union);
  Add(counters_->into_ns, NanosSince(start));
  Add(counters_->into_calls, 1);
}

size_t CountingProbe::PopulationCount(const pcor::ContextVec& c) const {
  const auto start = Steady::now();
  const size_t n = inner_->PopulationCount(c);
  Add(counters_->count_ns, NanosSince(start));
  Add(counters_->count_calls, 1);
  return n;
}

size_t CountingProbe::OverlapCount(const pcor::ContextVec& c1,
                                   const pcor::ContextVec& c2) const {
  const auto start = Steady::now();
  const size_t n = inner_->OverlapCount(c1, c2);
  Add(counters_->count_ns, NanosSince(start));
  Add(counters_->count_calls, 1);
  return n;
}

void CountingProbe::GatherMetrics(const pcor::BitVector& population,
                                  std::vector<uint32_t>* row_ids,
                                  std::vector<double>* metric) const {
  const auto start = Steady::now();
  inner_->GatherMetrics(population, row_ids, metric);
  Add(counters_->gather_ns, NanosSince(start));
  Add(counters_->gather_calls, 1);
}

// ---------------------------------------------------------------------------
// Helpers.

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return pcor::PercentileOfSorted(values, q);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double NowSeconds() {
  return std::chrono::duration<double>(Steady::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Fold(uint64_t h, uint64_t v) {
  return pcor::SplitMix64Mix(h ^ (v + 0x9e3779b97f4a7c15ULL));
}

std::vector<uint32_t> SelectPool(const pcor::OutlierVerifier& verifier,
                                 const std::vector<uint32_t>& planted,
                                 uint64_t seed) {
  pcor::Rng rng(seed);
  return pcor::SelectQueryOutliers(verifier, planted, planted.size(), &rng);
}

std::unique_ptr<ClassicSubstrate> BuildClassic(uint64_t seed,
                                               LayerCounters* counters) {
  auto s = std::make_unique<ClassicSubstrate>();
  auto workload = pcor::MakeReducedSalaryWorkload(1.0);
  auto detector = pcor::MakeDetector("lof");
  PCOR_CHECK(workload.ok() && detector.ok()) << "salary workload / lof";
  s->dataset = std::move(workload.value().data.dataset);
  s->planted = std::move(workload.value().data.planted_outlier_rows);
  s->detector = std::move(detector).value();
  const auto start = Steady::now();
  if (counters == nullptr) {
    s->engine = std::make_unique<pcor::PcorEngine>(s->dataset, *s->detector);
    s->index_build_s = NanosSince(start) / 1e9;
  } else {
    auto index =
        std::make_shared<const pcor::ShardedPopulationIndex>(s->dataset);
    s->index_build_s = NanosSince(start) / 1e9;
    s->detector =
        std::make_unique<CountingDetector>(std::move(s->detector), counters);
    s->engine = std::make_unique<pcor::PcorEngine>(
        std::make_shared<const CountingProbe>(std::move(index), counters),
        *s->detector,
        std::make_shared<pcor::VerifierMemo>(pcor::VerifierOptions{}),
        /*epoch=*/s->dataset.num_rows());
  }
  s->pool = SelectPool(s->engine->verifier(), s->planted, seed);
  PCOR_CHECK(!s->pool.empty()) << "no planted outlier verifies under lof";
  return s;
}

PcorOptions BaseReleaseOptions() {
  PcorOptions options;
  options.sampler = pcor::SamplerKind::kBfs;
  options.num_samples = 20;
  options.total_epsilon = 0.2;
  return options;
}

size_t HostThreads() { return pcor::DefaultThreadCount(); }

void AddHostFingerprint(RunResult* result) {
  result->fingerprint["nproc"] = std::to_string(HostThreads());
  result->fingerprint["simd"] = pcor::simd::ActiveBackendName();
  result->fingerprint["compiler"] = PERFBENCH_COMPILER;
  result->fingerprint["build_type"] = PERFBENCH_BUILD_TYPE;
}

// ---------------------------------------------------------------------------
// Open-loop replay.

size_t ReplayOutcome::ok() const {
  size_t n = 0;
  for (const ReleaseRecord& r : releases) {
    if (r.ok()) ++n;
  }
  return n;
}

size_t ReplayOutcome::failed() const { return releases.size() - ok(); }

std::unique_ptr<HookLog> InstallHook(
    const std::vector<pcor::TraceEvent>& trace, pcor::Clock* clock,
    pcor::ServeOptions* options) {
  std::map<std::string, uint64_t> next_k;
  std::map<uint64_t, size_t> slot_of_seed;
  for (const pcor::TraceEvent& e : trace) {
    if (e.kind != pcor::TraceEventKind::kRelease) continue;
    const uint64_t seed = pcor::PcorServer::RequestSeed(
        options->seed, e.tenant, next_k[e.tenant]++);
    slot_of_seed.emplace(seed, slot_of_seed.size());
  }
  auto hooks = std::make_unique<HookLog>(slot_of_seed.size());
  hooks->slot_of_seed = std::move(slot_of_seed);
  hooks->clock = clock;
  HookLog* log = hooks.get();
  options->pre_batch_hook = [log](std::span<const pcor::BatchRequest> batch) {
    log->OnBatch(batch);
  };
  return hooks;
}

void HookLog::OnBatch(std::span<const pcor::BatchRequest> batch) {
  const int64_t now = clock->NowMicros();
  ++batches;
  batched_requests += batch.size();
  for (const pcor::BatchRequest& request : batch) {
    auto it = slot_of_seed.find(request.rng_seed);
    if (it != slot_of_seed.end()) {
      dequeued_us[it->second].store(now, std::memory_order_relaxed);
    }
  }
}

ReplayOutcome Replay(const ReplaySpec& spec) {
  ReplayOutcome out;
  pcor::Clock* clock = spec.clock;
  // The workloads hand in time-sorted traces, so the driver's stable sort
  // keeps their order and InstallHook's seed slots match the dispatch order.
  pcor::TraceDriver driver(spec.events, clock);
  std::map<std::string, size_t> tenant_index;
  size_t n_releases = 0;
  for (const pcor::TraceEvent& e : driver.events()) {
    if (e.kind != pcor::TraceEventKind::kRelease) continue;
    ++n_releases;
    if (tenant_index.emplace(e.tenant, out.tenants.size()).second) {
      out.tenants.push_back(e.tenant);
    }
  }
  out.releases.resize(n_releases);
  out.expected_spend.assign(out.tenants.size(), 0.0);
  const double default_eps = spec.server->options().release.total_epsilon;

  std::vector<pcor::Future<BatchEntry>> futures(n_releases);
  // One collector per tenant: the server keeps each tenant's dispatch order
  // and runs micro-batches one after another, so a tenant's releases
  // complete in submission order and its collector stamps each completion
  // as it happens, never stuck behind another tenant's slower request.
  std::vector<std::unique_ptr<pcor::BoundedMpmcQueue<size_t>>> completions;
  for (size_t t = 0; t < out.tenants.size(); ++t) {
    completions.push_back(std::make_unique<pcor::BoundedMpmcQueue<size_t>>(
        std::max<size_t>(1, n_releases)));
  }
  // Seal barrier: releases admitted but not yet collected.
  std::mutex mu;
  std::condition_variable drained;
  size_t outstanding = 0;

  std::vector<std::thread> collectors;
  for (size_t t = 0; t < out.tenants.size(); ++t) {
    collectors.emplace_back([&, t] {
      size_t slot = 0;
      while (completions[t]->Pop(&slot) == pcor::QueueOp::kOk) {
        ReleaseRecord& rec = out.releases[slot];
        try {
          rec.entry = futures[slot].Get();
        } catch (const std::exception&) {
          rec.exception = true;
        }
        rec.done_us = clock->NowMicros();
        // Under the seal barrier no seal runs while this release is
        // outstanding, so the current snapshot is the one it ran on.
        if (spec.stream != nullptr && !rec.exception &&
            rec.entry.status.ok()) {
          auto snapshot = spec.stream->Pin();
          rec.invalid_context =
              snapshot->epoch != rec.entry.release.epoch ||
              !snapshot->engine->verifier().IsOutlierInContext(
                  rec.entry.release.context, rec.entry.v_row);
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          --outstanding;
        }
        drained.notify_all();
      }
    });
  }

  size_t slot = 0;
  size_t append_index = spec.append_begin;
  const auto wall_start = Steady::now();
  driver.Run([&](const pcor::TraceEvent& e, int64_t scheduled_us,
                 int64_t fired_us) {
    out.lag_us.push_back(fired_us - scheduled_us);
    switch (e.kind) {
      case pcor::TraceEventKind::kRelease: {
        ReleaseRecord& rec = out.releases[slot];
        rec.tenant = tenant_index.at(e.tenant);
        rec.scheduled_us = scheduled_us;
        pcor::BatchRequest request;
        request.v_row = spec.pool[e.rows % spec.pool.size()];
        auto it = spec.tenant_options.find(e.tenant);
        if (it != spec.tenant_options.end()) request.options = it->second;
        const double eps =
            request.options ? request.options->total_epsilon : default_eps;
        const auto start = Steady::now();
        auto admitted = spec.server->SubmitAsync(request, e.tenant);
        rec.admit_ns = NanosSince(start);
        rec.submitted_us = clock->NowMicros();
        rec.entry.v_row = request.v_row;
        if (!admitted.ok()) {
          rec.entry.status = admitted.status();
          rec.done_us = clock->NowMicros();
        } else {
          rec.admitted = true;
          out.expected_spend[rec.tenant] += eps;
          futures[slot] = std::move(admitted).value();
          {
            std::lock_guard<std::mutex> lock(mu);
            ++outstanding;
          }
          completions[rec.tenant]->Push(slot);
        }
        ++slot;
        break;
      }
      case pcor::TraceEventKind::kAppend: {
        for (uint64_t r = 0; r < e.rows; ++r) {
          const pcor::Row row = spec.append_rows->GetRow(append_index++);
          const auto start = Steady::now();
          const pcor::Status appended = spec.server->SubmitAppend(row);
          out.append_call_ns.push_back(NanosSince(start));
          if (!appended.ok()) ++out.append_errors;
        }
        break;
      }
      case pcor::TraceEventKind::kSeal: {
        {
          std::unique_lock<std::mutex> lock(mu);
          drained.wait(lock, [&] { return outstanding == 0; });
        }
        const auto start = Steady::now();
        auto sealed = spec.server->SealEpoch();
        out.seal_call_ns.push_back(NanosSince(start));
        out.seal_latency_us.push_back(clock->NowMicros() - scheduled_us);
        if (!sealed.ok()) {
          ++out.seal_errors;
        } else if (spec.on_sealed) {
          spec.on_sealed(sealed.value());
        }
        break;
      }
    }
  });
  for (auto& queue : completions) queue->Close();
  for (std::thread& t : collectors) t.join();
  out.wall_s = NanosSince(wall_start) / 1e9;

  uint64_t digest = 0x9e3779b97f4a7c15ULL;
  for (const ReleaseRecord& rec : out.releases) {
    uint64_t h = 0;
    if (rec.exception) {
      h = Fold(0xdead, 1);
    } else if (!rec.admitted) {
      h = Fold(0xbad, static_cast<uint64_t>(rec.entry.status.code()));
    } else {
      h = pcor::DigestBatchEntry(rec.entry);
    }
    digest = Fold(digest, h);
  }
  out.digest = digest;
  return out;
}

void CheckServed(const ReplayOutcome& outcome, const pcor::PcorServer& server,
                 uint64_t reference_digest,
                 const pcor::OutlierVerifier* verifier, RunResult* result) {
  for (size_t t = 0; t < outcome.tenants.size(); ++t) {
    const double spent = server.accountant().SpentBy(outcome.tenants[t]);
    if (spent != outcome.expected_spend[t]) {
      result->Fail(pcor::strings::Format(
          "tenant %s ledger %.17g != admitted epsilon %.17g",
          outcome.tenants[t].c_str(), spent, outcome.expected_spend[t]));
    }
  }
  if (outcome.digest != reference_digest) {
    result->Fail(pcor::strings::Format(
        "release digest %016llx differs from the same-seed reference run "
        "%016llx",
        static_cast<unsigned long long>(outcome.digest),
        static_cast<unsigned long long>(reference_digest)));
  }
  size_t invalid = 0;
  for (const ReleaseRecord& rec : outcome.releases) {
    bool bad = rec.invalid_context;
    if (verifier != nullptr && rec.ok()) {
      bad = !verifier->IsOutlierInContext(rec.entry.release.context,
                                          rec.entry.v_row);
    }
    if (bad) ++invalid;
  }
  if (invalid > 0) {
    result->Fail(pcor::strings::Format(
        "%zu released contexts fail f_M on their epoch", invalid));
  }
}

// ---------------------------------------------------------------------------
// Metric assembly.

Latency ScheduledLatency(const ReplayOutcome& outcome) {
  const size_t n = outcome.releases.size();
  const size_t windows = std::max<size_t>(1, n / kLatencyWindow);
  std::vector<double> p50, p99;
  for (size_t w = 0; w < windows; ++w) {
    const size_t end = w + 1 == windows ? n : (w + 1) * kLatencyWindow;
    std::vector<double> ms;
    for (size_t i = w * kLatencyWindow; i < end; ++i) {
      const ReleaseRecord& rec = outcome.releases[i];
      ms.push_back((rec.done_us - rec.scheduled_us) / 1e3);
    }
    p50.push_back(Percentile(ms, 0.5));
    p99.push_back(Percentile(ms, 0.99));
  }
  return {Median(p50), Median(p99)};
}

void FillServeMetrics(const ReplayOutcome& outcome, const HookLog* hooks,
                      Layers* layers) {
  std::vector<double> lag_ms;
  size_t late = 0;
  for (int64_t lag : outcome.lag_us) {
    lag_ms.push_back(lag / 1e3);
    // A real clock always wakes a little past its deadline; an event
    // counts as late only when the generator fell a millisecond behind.
    if (lag > 1000) ++late;
  }
  layers->driver_late_share = Ratio(late, outcome.lag_us.size());
  layers->driver_lag_p99_ms = Percentile(lag_ms, 0.99);

  std::vector<double> admit_us, wait_ms, fanout_us, release_ms;
  double probes = 0, candidates = 0;
  for (size_t slot = 0; slot < outcome.releases.size(); ++slot) {
    const ReleaseRecord& rec = outcome.releases[slot];
    admit_us.push_back(rec.admit_ns / 1e3);
    if (!rec.ok()) continue;
    const pcor::PcorRelease& release = rec.entry.release;
    release_ms.push_back(release.seconds * 1e3);
    probes += release.probes;
    candidates += release.num_candidates;
    if (hooks == nullptr) continue;
    const int64_t dequeued =
        hooks->dequeued_us[slot].load(std::memory_order_relaxed);
    if (dequeued < 0) continue;
    wait_ms.push_back((dequeued - rec.submitted_us) / 1e3);
    fanout_us.push_back(static_cast<double>(rec.done_us - dequeued) -
                        release.seconds * 1e6);
  }
  layers->admit_us_p50 = Percentile(admit_us, 0.5);
  layers->admit_us_p99 = Percentile(admit_us, 0.99);
  layers->queue_wait_ms_p50 = Percentile(wait_ms, 0.5);
  layers->queue_wait_ms_p99 = Percentile(wait_ms, 0.99);
  layers->fanout_us_p50 = Percentile(fanout_us, 0.5);
  layers->engine_release_ms_p50 = Percentile(release_ms, 0.5);
  layers->engine_release_ms_p99 = Percentile(release_ms, 0.99);
  layers->probes_per_release = Ratio(probes, release_ms.size());
  layers->candidates_per_release = Ratio(candidates, release_ms.size());
  if (hooks != nullptr) {
    layers->batches = static_cast<double>(hooks->batches);
    layers->batch_size_mean = Ratio(hooks->batched_requests, hooks->batches);
  }
}

void FillMemoMetrics(const pcor::VerifierStats& before,
                     const pcor::VerifierStats& after, size_t releases,
                     Layers* layers) {
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  layers->memo_hit_ratio = Ratio(hits, hits + misses);
  layers->memo_misses_per_release = Ratio(misses, releases);
  layers->memo_evictions =
      static_cast<double>(after.cache_evictions - before.cache_evictions);
  layers->memo_invalidations = static_cast<double>(
      after.cache_invalidations - before.cache_invalidations);
  layers->memo_resident_mb = after.resident_bytes / 1048576.0;
}

void FillLayerMetrics(const LayerTotals& delta, size_t releases,
                      Layers* layers) {
  layers->detector_calls_per_release = Ratio(delta.detect_calls, releases);
  layers->detector_ns_per_elem = Ratio(delta.detect_ns, delta.detect_elems);
  layers->probe_count_calls_per_release = Ratio(delta.count_calls, releases);
  layers->probe_count_us_per_call =
      Ratio(delta.count_ns, delta.count_calls) / 1e3;
  layers->probe_into_us_per_call =
      Ratio(delta.into_ns, delta.into_calls) / 1e3;
  layers->probe_gather_us_per_call =
      Ratio(delta.gather_ns, delta.gather_calls) / 1e3;
}

void FillStageMetrics(const StageTotals& s, Layers* layers) {
  const double n = static_cast<double>(std::max<size_t>(1, s.releases));
  const double walk_self = s.walk_ns - s.walk_inner_ns;
  layers->stage_starting_context_us = s.start_ns / n / 1e3;
  layers->stage_sampler_walk_us = walk_self / n / 1e3;
  layers->stage_score_us = s.score_ns / n / 1e3;
  layers->stage_mechanism_us = s.mechanism_ns / n / 1e3;
  layers->stage_starting_context_share = Ratio(s.start_ns, s.wall_ns);
  layers->stage_sampler_walk_share = Ratio(walk_self, s.wall_ns);
  layers->stage_score_share = Ratio(s.score_ns, s.wall_ns);
  layers->stage_mechanism_share = Ratio(s.mechanism_ns, s.wall_ns);
  layers->detector_share = Ratio(s.layer.detect_ns, s.wall_ns);
  layers->probe_count_share = Ratio(s.layer.count_ns, s.wall_ns);
  layers->trace_unattributed_share =
      Ratio(s.wall_ns - (s.start_ns + s.walk_ns + s.score_ns +
                         s.mechanism_ns),
            s.wall_ns);
  layers->trace_replay_mismatches = static_cast<double>(s.mismatches);
}

}  // namespace perfbench
