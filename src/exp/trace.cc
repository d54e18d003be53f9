#include "src/exp/trace.h"

#include <algorithm>
#include <cmath>

#include "src/common/random.h"
#include "src/common/string_util.h"

namespace pcor {

std::vector<TraceEvent> MakeDiurnalTrace(const DiurnalTraceOptions& options) {
  std::vector<TraceEvent> events;
  if (options.tenants.empty() || options.duration_us <= 0) return events;
  Rng rng(options.seed);
  const double two_pi = 2.0 * 3.14159265358979323846;
  double t = 0.0;
  uint64_t index = 0;
  while (true) {
    // Inhomogeneous Poisson by thinning against the peak rate: candidate
    // gaps at the peak rate, each kept with probability rate(t)/peak.
    const double peak_per_us = options.peak_releases_per_sec / 1e6;
    if (peak_per_us <= 0.0) break;
    t += rng.NextExponential(peak_per_us);
    if (t >= static_cast<double>(options.duration_us)) break;
    const double phase =
        two_pi * t / static_cast<double>(options.period_us);
    const double rate_per_sec =
        options.trough_releases_per_sec +
        (options.peak_releases_per_sec - options.trough_releases_per_sec) *
            0.5 * (1.0 - std::cos(phase));
    if (rng.NextDouble() * options.peak_releases_per_sec > rate_per_sec) {
      continue;  // thinned
    }
    TraceEvent e;
    e.at_us = static_cast<int64_t>(t);
    e.tenant = options.tenants[rng.NextBounded(options.tenants.size())];
    e.kind = TraceEventKind::kRelease;
    e.rows = index++;
    events.push_back(std::move(e));
  }
  return events;
}

std::vector<TraceEvent> MakeFloodTrace(const FloodTraceOptions& options) {
  std::vector<TraceEvent> events;
  uint64_t index = 0;
  for (size_t i = 0; i < options.baseline_tenants.size(); ++i) {
    // Small per-tenant phase offset so baseline tenants interleave
    // instead of firing in lockstep.
    const int64_t phase = static_cast<int64_t>(i) *
                          options.baseline_interval_us /
                          static_cast<int64_t>(
                              options.baseline_tenants.size());
    for (int64_t at = phase; at < options.duration_us;
         at += options.baseline_interval_us) {
      TraceEvent e;
      e.at_us = at;
      e.tenant = options.baseline_tenants[i];
      e.kind = TraceEventKind::kRelease;
      e.rows = index++;
      events.push_back(std::move(e));
    }
  }
  for (size_t i = 0; i < options.flood_events; ++i) {
    TraceEvent e;
    e.at_us = options.flood_at_us +
              static_cast<int64_t>(i) * options.flood_spacing_us;
    e.tenant = options.flood_tenant;
    e.kind = TraceEventKind::kRelease;
    e.rows = index++;
    events.push_back(std::move(e));
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.at_us < b.at_us;
                   });
  return events;
}

std::vector<TraceEvent> MakeBudgetStormTrace(
    const BudgetStormTraceOptions& options) {
  std::vector<TraceEvent> events;
  const size_t total = options.tenant_count * options.events_per_tenant;
  events.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    TraceEvent e;
    e.at_us = static_cast<int64_t>(i) * options.interval_us;
    e.tenant = strings::Format("storm-%zu", i % options.tenant_count);
    e.kind = TraceEventKind::kRelease;
    e.epsilon = options.epsilon_per_release;
    e.rows = i;
    events.push_back(std::move(e));
  }
  return events;
}

std::vector<TraceEvent> MakeStreamingTrace(
    const StreamingTraceOptions& options) {
  std::vector<TraceEvent> events;
  if (options.tenants.empty()) return events;
  // Each epoch interval splits into evenly spaced slots: the append burst,
  // one seal, then the release volley against the freshly sealed epoch.
  const int64_t slots = static_cast<int64_t>(options.appends_per_epoch +
                                             1 + options.releases_per_epoch);
  const int64_t spacing = std::max<int64_t>(1, options.epoch_interval_us /
                                                   std::max<int64_t>(slots,
                                                                     1));
  uint64_t release_index = 0;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    const int64_t base =
        static_cast<int64_t>(epoch) * options.epoch_interval_us;
    int64_t slot = 0;
    for (size_t a = 0; a < options.appends_per_epoch; ++a, ++slot) {
      TraceEvent e;
      e.at_us = base + slot * spacing;
      e.tenant = options.tenants[a % options.tenants.size()];
      e.kind = TraceEventKind::kAppend;
      e.rows = options.rows_per_append;
      events.push_back(std::move(e));
    }
    {
      TraceEvent e;
      e.at_us = base + slot * spacing;
      ++slot;
      e.tenant = options.tenants[0];
      e.kind = TraceEventKind::kSeal;
      events.push_back(std::move(e));
    }
    for (size_t r = 0; r < options.releases_per_epoch; ++r, ++slot) {
      TraceEvent e;
      e.at_us = base + slot * spacing;
      e.tenant = options.tenants[release_index % options.tenants.size()];
      e.kind = TraceEventKind::kRelease;
      // Pool index: cycles, so replays need only supply a pool whose row
      // ids are all sealed by the FIRST epoch (see trace.h).
      e.rows = release_index++;
      events.push_back(std::move(e));
    }
  }
  return events;
}

}  // namespace pcor
