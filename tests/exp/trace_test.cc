// Trace generator contract: each generator is a pure function of its
// options (seed included) and shapes its events as documented in trace.h.
#include "src/exp/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace pcor {
namespace {

TEST(TraceFormatTest, GeneratorsAreDeterministic) {
  DiurnalTraceOptions options;
  options.seed = 99;
  EXPECT_EQ(MakeDiurnalTrace(options), MakeDiurnalTrace(options));
  options.seed = 100;  // and actually seed-dependent
  EXPECT_NE(MakeDiurnalTrace(options), MakeDiurnalTrace(DiurnalTraceOptions{
                                           .seed = 99}));
}

TEST(TraceGeneratorTest, FloodShapesTheBurst) {
  FloodTraceOptions options;
  options.flood_events = 32;
  const std::vector<TraceEvent> events = MakeFloodTrace(options);
  size_t flood_count = 0;
  int64_t previous = 0;
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.kind, TraceEventKind::kRelease);
    EXPECT_GE(e.at_us, previous);  // sorted by schedule
    previous = e.at_us;
    if (e.tenant == options.flood_tenant) ++flood_count;
  }
  EXPECT_EQ(flood_count, options.flood_events);
}

TEST(TraceGeneratorTest, StormIsExactArithmetic) {
  BudgetStormTraceOptions options;
  options.tenant_count = 3;
  options.events_per_tenant = 5;
  const std::vector<TraceEvent> events = MakeBudgetStormTrace(options);
  ASSERT_EQ(events.size(), 15u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].at_us,
              static_cast<int64_t>(i) * options.interval_us);
    EXPECT_DOUBLE_EQ(events[i].epsilon, options.epsilon_per_release);
  }
}

TEST(TraceGeneratorTest, StreamingInterleavesEpochLifecycles) {
  StreamingTraceOptions options;
  options.epochs = 2;
  options.appends_per_epoch = 3;
  options.releases_per_epoch = 4;
  const std::vector<TraceEvent> events = MakeStreamingTrace(options);
  ASSERT_EQ(events.size(), 2u * (3 + 1 + 4));
  // Within each epoch: appends, then exactly one seal, then releases.
  for (size_t epoch = 0; epoch < 2; ++epoch) {
    const size_t base = epoch * 8;
    for (size_t a = 0; a < 3; ++a) {
      EXPECT_EQ(events[base + a].kind, TraceEventKind::kAppend);
      EXPECT_EQ(events[base + a].rows, options.rows_per_append);
    }
    EXPECT_EQ(events[base + 3].kind, TraceEventKind::kSeal);
    for (size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(events[base + 4 + r].kind, TraceEventKind::kRelease);
    }
  }
}

}  // namespace
}  // namespace pcor
