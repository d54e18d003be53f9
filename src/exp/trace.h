#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pcor {

/// \brief What one trace event asks the server to do.
enum class TraceEventKind {
  kRelease,  ///< submit one release request for `tenant`
  kAppend,   ///< buffer `rows` synthesized rows into the stream's tail
  kSeal,     ///< seal buffered rows into a new epoch snapshot
};

/// \brief One scheduled event of an open-loop workload trace.
///
/// The open-loop contract: `at_us` is when the event FIRES, fixed when the
/// trace is generated — never a function of how long earlier events took.
/// The driver sleeps until `at_us` and dispatches, so a slow server makes
/// the driver late (an observable omission gap), not the workload lighter.
///
/// Field use by kind:
///   kRelease: `epsilon` is the per-request total_epsilon override (0 =
///     the server's default options), and `rows` indexes the replay's
///     outlier pool (`pool[rows % pool.size()]` picks the target row), so
///     a trace stays valid across datasets of different sizes.
///   kAppend: `rows` is how many synthesized rows to buffer; epsilon 0.
///   kSeal: both auxiliary fields 0.
struct TraceEvent {
  int64_t at_us = 0;     ///< scheduled fire time, micros from trace start
  std::string tenant;    ///< submitting tenant id (non-empty)
  TraceEventKind kind = TraceEventKind::kRelease;
  double epsilon = 0.0;  ///< kRelease only; 0 = server default options
  uint64_t rows = 0;     ///< see field-use table above

  bool operator==(const TraceEvent&) const = default;
};

/// \brief Diurnal release load: per-tenant Poisson arrivals whose rate
/// swings sinusoidally between trough and peak over each period — the
/// classic day/night serving curve compressed to bench scale.
struct DiurnalTraceOptions {
  std::vector<std::string> tenants = {"day-0", "day-1"};
  int64_t duration_us = 1'000'000;
  int64_t period_us = 250'000;          ///< one full day/night cycle
  double trough_releases_per_sec = 50;  ///< rate at the cycle's low point
  double peak_releases_per_sec = 400;   ///< rate at the cycle's high point
  uint64_t seed = 2021;
};
std::vector<TraceEvent> MakeDiurnalTrace(const DiurnalTraceOptions& options);

/// \brief Tenant flood: steady baseline tenants plus one aggressor that
/// fires `flood_events` releases in a near-instant burst mid-trace. The
/// canonical coordinated-omission demonstration — a closed-loop client
/// would politely pace itself through the burst; the open-loop driver
/// keeps firing on schedule and the scheduled-to-completion tail shows
/// what every enqueued-behind-the-flood request actually waited.
struct FloodTraceOptions {
  std::vector<std::string> baseline_tenants = {"steady-0", "steady-1"};
  std::string flood_tenant = "flood";
  int64_t duration_us = 1'000'000;
  int64_t baseline_interval_us = 10'000;  ///< per-tenant steady cadence
  int64_t flood_at_us = 300'000;          ///< burst start
  int64_t flood_spacing_us = 10;          ///< near-simultaneous arrivals
  size_t flood_events = 256;
  uint64_t seed = 2021;
};
std::vector<TraceEvent> MakeFloodTrace(const FloodTraceOptions& options);

/// \brief Budget-exhaustion storm: each tenant submits `events_per_tenant`
/// releases of `epsilon_per_release` on a fixed cadence. With a per-tenant
/// cap of C, exactly floor(C / eps) admissions per tenant succeed and the
/// rest are typed kPrivacyBudgetExceeded rejections — admission order
/// equals trace order, so the expected rejection count is exact arithmetic
/// a bench can enforce without relaxation.
struct BudgetStormTraceOptions {
  size_t tenant_count = 4;
  size_t events_per_tenant = 32;
  double epsilon_per_release = 0.2;
  int64_t interval_us = 2'000;  ///< global cadence, tenants round-robin
  uint64_t seed = 2021;
};
std::vector<TraceEvent> MakeBudgetStormTrace(
    const BudgetStormTraceOptions& options);

/// \brief Streaming interleave: epochs of (append burst, seal, release
/// volley) — the open-loop version of the continual-release lifecycle.
/// Release events' pool indices simply cycle, so a replay need only
/// supply an outlier pool whose row ids are all sealed by the FIRST
/// epoch (row ids below appends_per_epoch * rows_per_append) for every
/// release to be valid by the time it dispatches under a seal barrier.
struct StreamingTraceOptions {
  std::vector<std::string> tenants = {"stream-0", "stream-1"};
  size_t epochs = 3;
  size_t appends_per_epoch = 4;    ///< append events per epoch
  uint64_t rows_per_append = 16;   ///< rows buffered per append event
  size_t releases_per_epoch = 8;   ///< release events after each seal
  int64_t epoch_interval_us = 100'000;
  uint64_t seed = 2021;
};
std::vector<TraceEvent> MakeStreamingTrace(
    const StreamingTraceOptions& options);

}  // namespace pcor
