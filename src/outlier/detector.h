#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace pcor {

/// \brief Interface for deterministic, unsupervised outlier detectors.
///
/// A detector sees only the metric values of a population D_C and returns
/// the positions (indices into the input span) it flags as outliers. The
/// paper's PCOR framework treats the detector as a black box (requirement 4
/// in Section 1.1); determinism is required by Definition 3.1 and is what
/// makes the OCDP analysis of Section 3.1 meaningful.
///
/// The virtual core is span-based: detectors see one contiguous read-only
/// block of doubles (the prerequisite for SIMD kernels) and fill a
/// caller-owned position buffer, so a verifier probe reuses the same
/// buffers instead of allocating per call.
///
/// Scratch discipline under nested parallelism: every built-in detector
/// keeps thread_local work buffers (grubbs' sorted copy + position array,
/// the histogram's bin counts + rare-bin table, iqr's sorted copy, lof's
/// radix keys + sorted positions + window starts + sorted values,
/// k-distances and lrds) so steady-state probes allocate nothing. Detector
/// code also runs *on pool workers* — the engine's batch fan-out and
/// the sharded index's probes dispatch through ThreadPool::ParallelFor,
/// and a verifier cache miss inside either runs Detect on whatever thread
/// claimed the chunk. The buffers stay safe
/// because each has exactly one live user per thread: a Detect call runs
/// start-to-finish on one thread, ParallelFor waiters only drain chunks of
/// their *own* loop (never arbitrary queued tasks, see common/threading.h),
/// and Detect never opens a parallel region. Corollary for implementers:
/// never call back into the verifier, a population index, or ParallelFor
/// from inside Detect — re-entering detector code on the same thread would
/// alias the live scratch. The worker-initiated-release regression test in
/// tests/search/intra_release_parallel_test.cc guards this invariant.
class OutlierDetector {
 public:
  virtual ~OutlierDetector() = default;

  /// \brief Stable identifier, e.g. "grubbs", "histogram", "lof".
  virtual std::string name() const = 0;

  /// \brief Fills `*flagged` with the positions of outliers within
  /// `values`, ascending (any previous contents are discarded). Must be a
  /// pure function of `values`.
  virtual void Detect(std::span<const double> values,
                      std::vector<size_t>* flagged) const = 0;

  /// \brief Convenience overload returning the flagged positions. Derived
  /// classes re-expose it with `using OutlierDetector::Detect;`.
  std::vector<size_t> Detect(std::span<const double> values) const;

  /// \brief f_M restricted to one target: is `values[target]` an outlier in
  /// this population? Default runs Detect and binary-searches the ascending
  /// positions; detectors may override with a cheaper test.
  virtual bool IsOutlier(std::span<const double> values, size_t target) const;

  /// \brief Smallest population the detector will run on; smaller
  /// populations report no outliers (statistical tests degenerate on tiny
  /// samples, and tiny contexts carry little release value).
  virtual size_t min_population() const { return 3; }
};

/// \brief Creates a default-configured detector by name: "grubbs",
/// "histogram", "lof", "iqr" or "zscore".
Result<std::unique_ptr<OutlierDetector>> MakeDetector(
    const std::string& name);

/// \brief Names accepted by MakeDetector, in registration order.
std::vector<std::string> RegisteredDetectorNames();

}  // namespace pcor
