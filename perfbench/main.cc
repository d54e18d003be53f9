// perfbench --workload <serve-warm|batch-cold|stream-churn> --seed <n>
//           --seconds <s> --trace <0|1>
//           [--serve-rate <releases/s>] [--stream-rate <releases/s>]
//
// Runs one workload and prints, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced. Exits 1 when a
// correctness check fails and 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/perfbench.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  double value;
};

std::vector<MetricDef> EndToEndMetrics(const EndToEnd& e) {
  return {
      {"setup_s", "s", e.setup_s},
      {"releases_per_s", "1/s", e.releases_per_s},
      {"release_p50_ms", "ms", e.release_p50_ms},
      {"peak_rss_mb", "MB", e.peak_rss_mb},
  };
}

std::vector<MetricDef> LayerMetrics(const Layers& l) {
  return {
      {"driver.late_share", "ratio", l.driver_late_share},
      {"driver.lag_p99_ms", "ms", l.driver_lag_p99_ms},
      {"serve.admit_us_p50", "us", l.admit_us_p50},
      {"serve.admit_us_p99", "us", l.admit_us_p99},
      {"serve.queue_wait_ms_p50", "ms", l.queue_wait_ms_p50},
      {"serve.queue_wait_ms_p99", "ms", l.queue_wait_ms_p99},
      {"serve.batch_size_mean", "count", l.batch_size_mean},
      {"serve.batches", "count", l.batches},
      {"serve.queue_high_water", "count", l.queue_high_water},
      {"serve.fanout_us_p50", "us", l.fanout_us_p50},
      {"engine.release_ms_p50", "ms", l.engine_release_ms_p50},
      {"engine.release_ms_p99", "ms", l.engine_release_ms_p99},
      {"release_p99_ms", "ms", l.release_p99_ms},
      {"stage.starting_context_us", "us", l.stage_starting_context_us},
      {"stage.starting_context_share", "ratio",
       l.stage_starting_context_share},
      {"stage.sampler_walk_us", "us", l.stage_sampler_walk_us},
      {"stage.sampler_walk_share", "ratio", l.stage_sampler_walk_share},
      {"stage.score_us", "us", l.stage_score_us},
      {"stage.score_share", "ratio", l.stage_score_share},
      {"stage.mechanism_us", "us", l.stage_mechanism_us},
      {"stage.mechanism_share", "ratio", l.stage_mechanism_share},
      {"sampler.probes_per_release", "count", l.probes_per_release},
      {"sampler.candidates_per_release", "count", l.candidates_per_release},
      {"memo.hit_ratio", "ratio", l.memo_hit_ratio},
      {"memo.misses_per_release", "count", l.memo_misses_per_release},
      {"memo.evictions", "count", l.memo_evictions},
      {"memo.invalidations", "count", l.memo_invalidations},
      {"memo.resident_mb", "MB", l.memo_resident_mb},
      {"probe.count_calls_per_release", "count",
       l.probe_count_calls_per_release},
      {"probe.count_us_per_call", "us", l.probe_count_us_per_call},
      {"probe.count_share", "ratio", l.probe_count_share},
      {"probe.into_us_per_call", "us", l.probe_into_us_per_call},
      {"probe.gather_us_per_call", "us", l.probe_gather_us_per_call},
      {"index.resident_mb", "MB", l.index_resident_mb},
      {"index.build_s", "s", l.index_build_s},
      {"detector.calls_per_release", "count", l.detector_calls_per_release},
      {"detector.ns_per_elem", "ns", l.detector_ns_per_elem},
      {"detector.share", "ratio", l.detector_share},
      {"stream.append_us_p99", "us", l.stream_append_us_p99},
      {"stream.seal_us_p50", "us", l.stream_seal_us_p50},
      {"stream.seal_us_p90", "us", l.stream_seal_us_p90},
      {"stream.seal_p50_ms", "ms", l.seal_p50_ms},
      {"stream.seal_p90_ms", "ms", l.seal_p90_ms},
      {"stream.segments", "count", l.stream_segments},
      {"stream.compactions", "count", l.stream_compactions},
      {"stream.memo_invalidations", "count", l.stream_memo_invalidations},
      {"trace.overhead_share", "ratio", l.trace_overhead_share},
      {"trace.unattributed_share", "ratio", l.trace_unattributed_share},
      {"trace.replay_mismatches", "count", l.trace_replay_mismatches},
  };
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* why, const std::string& what = "") {
  std::fprintf(stderr,
               "perfbench: %s%s\nusage: perfbench --workload "
               "<serve-warm|batch-cold|stream-churn> --seed <n> --seconds "
               "<s> --trace <0|1> [--serve-rate <r>] [--stream-rate <r>]\n",
               why, what.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--serve-rate") {
      args.serve_rate = std::atof(value);
    } else if (flag == "--stream-rate") {
      args.stream_rate = std::atof(value);
    } else {
      return Usage("unknown flag ", flag);
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (!(args.seconds > 0) || !(args.serve_rate > 0) ||
      !(args.stream_rate > 0)) {
    return Usage("--seconds and the rates must be positive");
  }

  RunResult result;
  if (args.workload == "serve-warm") {
    result = RunServeWarm(args);
  } else if (args.workload == "batch-cold") {
    result = RunBatchCold(args);
  } else if (args.workload == "stream-churn") {
    result = RunStreamChurn(args);
  } else {
    return Usage("unknown workload ", args.workload);
  }

  AddHostFingerprint(&result);
  result.fingerprint["workload"] = args.workload;
  result.fingerprint["seed"] = std::to_string(args.seed);
  result.fingerprint["seconds"] = JsonNumber(args.seconds);
  result.fingerprint["trace"] = std::to_string(args.trace ? 1 : 0);
  std::string fingerprint = "{";
  for (const auto& [key, value] : result.fingerprint) {
    if (fingerprint.size() > 1) fingerprint += ", ";
    fingerprint += JsonString(key) + ": " + JsonString(value);
  }
  std::printf("fingerprint %s}\n", fingerprint.c_str());
  std::printf("error_rate %s (%zu of %zu releases failed or refused)\n",
              JsonNumber(result.attempted > 0
                             ? static_cast<double>(result.failed) /
                                   result.attempted
                             : 0.0)
                  .c_str(),
              result.failed, result.attempted);
  for (const std::string& error : result.errors) {
    std::printf("INCORRECT: %s\n", error.c_str());
  }

  const std::vector<MetricDef> metrics =
      args.trace ? LayerMetrics(result.layers) : EndToEndMetrics(result.e2e);
  std::string json = "{";
  for (const MetricDef& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name, m.value, m.unit);
    if (json.size() > 1) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  if (!args.trace) {
    std::printf("%-34s %16.6f ms (reported, not bounded)\n", "release_p99_ms",
                result.e2e.release_p99_ms);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}}\n",
      result.correct ? "true" : "false", result.attempted, result.failed,
      json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
