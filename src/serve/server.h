#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/future.h"
#include "src/common/mpmc_queue.h"
#include "src/common/result.h"
#include "src/search/pcor.h"
#include "src/search/streaming.h"
#include "src/serve/budget_accountant.h"
#include "src/serve/scheduler.h"

namespace pcor {

/// \brief Exception delivered to every future of a micro-batch whose
/// execution threw (e.g. a poisoned pre_batch_hook). Carries the original
/// what() in a fixed inline buffer — deliberately NOT std::runtime_error:
/// its heap message string is refcount-shared on copy under the COW string
/// ABI, and those refcounts live in the uninstrumented C++ runtime, so a
/// message crossing from the dispatcher to client threads would tear down
/// without any TSan-visible synchronization. A self-contained char array
/// copies by value and shares nothing.
class ServeError : public std::exception {
 public:
  explicit ServeError(const char* what) {
    std::snprintf(what_, sizeof(what_), "%s", what);
  }
  const char* what() const noexcept override { return what_; }

 private:
  char what_[256];
};

/// \brief Serving front-end configuration.
struct ServeOptions {
  /// Default release configuration (sampler, epsilon, n, ...) for requests
  /// that do not carry their own BatchRequest::options override. Its
  /// max_probes and num_samples are also ceilings for every override.
  PcorOptions release;
  /// Largest micro-batch one dispatch executes. The dispatcher never waits
  /// to fill a batch: it takes whatever is queued when it becomes free, up
  /// to this bound. Bigger batches give the engine pool's entry-level
  /// fan-out more to spread and keep the shared verifier cache hot.
  size_t max_batch = 64;
  /// Bound on requests admitted but not yet dispatched. A submission that
  /// finds the queue full blocks until the dispatcher frees a slot (or
  /// Shutdown wakes it with kUnavailable).
  size_t queue_capacity = 1024;
  /// Threads each micro-batch fans out over, the dispatcher included, on
  /// the engine's one pool (0 = all cores; capped by the pool's workers
  /// plus one). Latency-only: no value can perturb any released context.
  size_t release_threads = 0;
  /// Server seed: every request's Rng stream derives from
  /// (seed, client_id, the client's own submission index) — never from the
  /// micro-batch a request happens to land in.
  uint64_t seed = 2021;
  /// Per-client cumulative epsilon cap (infinity = unlimited).
  double per_client_epsilon_cap = std::numeric_limits<double>::infinity();
  /// Test/instrumentation hook run by the dispatcher immediately before
  /// each micro-batch executes. An exception thrown here propagates to
  /// every future in that batch as a ServeError carrying the original
  /// what() (one fresh exception per future; see FailBatchWith) — the
  /// stress suite uses this to prove that a worker-side crash surfaces at
  /// clients instead of hanging them.
  std::function<void(std::span<const BatchRequest>)> pre_batch_hook;
};

/// \brief Monotonic counters describing a server's lifetime so far.
struct ServerStats {
  size_t submitted = 0;        ///< admissions accepted into the queue
  size_t released = 0;         ///< entries completed with OK status
  size_t failed = 0;           ///< entries completed with an error status
  size_t rejected_budget = 0;  ///< submissions refused: budget cap
  size_t rejected_queue = 0;   ///< submissions refused: shutdown
  size_t rejected_depth = 0;   ///< submissions refused: tenant depth bound
  size_t rejected_invalid = 0; ///< submissions refused: bad request options
  size_t batches = 0;          ///< micro-batches executed
  size_t max_coalesced = 0;    ///< largest micro-batch observed
  /// Peak admitted-but-undispatched queue depth — with open-loop load the
  /// headline backlog indicator: a queue riding its high-water mark at
  /// capacity is where the coordinated-omission gap accumulates.
  size_t queue_high_water = 0;
  size_t hit_probe_cap = 0;    ///< released entries that hit max_probes
  double epsilon_spent = 0.0;  ///< sum of all client ledgers
  // Streaming mode only (all zero on a classic server):
  size_t appends = 0;          ///< rows accepted by SubmitAppend
  size_t epochs_sealed = 0;    ///< SealEpoch calls accepted
  uint64_t epoch = 0;          ///< current sealed epoch of the stream
};

/// \brief Asynchronous multi-tenant serving front-end over
/// PcorEngine::ReleaseBatch.
///
/// Many client threads call SubmitAsync/SubmitMany; a dispatcher thread
/// picks admitted requests in weighted-fair order across tenants (see
/// WeightedFairQueue), coalesces them into micro-batches and executes each
/// on ReleaseBatch with the engine's shared verifier cache, completing one
/// Future<BatchEntry> per request. Dispatch is work-conserving: a
/// micro-batch is whatever was queued when the dispatcher became free, up
/// to max_batch, so a lone request executes at once and requests that
/// arrive during a batch leave together in the next. A request may carry
/// its own PcorOptions (BatchRequest::options), validated at admission;
/// entries with differing options execute as homogeneous sub-batches of
/// the same micro-batch.
///
/// Determinism: a request's Rng stream seed is fixed at admission as
/// RequestSeed(seed, client_id, k) where k is the client's own 0-based
/// submission index. Coalescing shape, tenant weights, dispatch order and
/// thread count therefore cannot perturb any release: the same per-client
/// request sequences produce bit-identical PcorRelease results whether
/// submitted serially, in one giant batch, or raced from 16 threads.
///
/// Privacy: admission charges the request's effective total_epsilon to the
/// client's BudgetAccountant ledger; over-cap submissions are rejected
/// with a typed kPrivacyBudgetExceeded status (see BudgetAccountant for
/// the refund rules).
///
/// Streaming mode (construct over a StreamingPcorEngine): SubmitAppend /
/// SealEpoch grow the stream, and every dispatched micro-batch pins ONE
/// epoch snapshot — a batch never straddles epochs, so its entries all
/// report the same PcorRelease::epoch. Admission is the same path as in
/// classic mode: every release is charged its full effective epsilon and
/// the cap bounds sequential composition. The tenant's k-th submission
/// sits at stream position k + 1 (PcorRelease::stream_release_index),
/// which doubles as its Rng stream index, so identical
/// append/seal/submit interleavings at epoch granularity are
/// bit-identical at any thread count. Once dispatched, charges stick —
/// including entries failed for lack of a sealed epoch.
///
/// Admission rollback (both modes): a door rejection after the charge
/// (tenant depth, or a submitter blocked on a full queue and woken by
/// Shutdown) always refunds, and returns the slot only when no later
/// submission of the same tenant has claimed the next one; a slot that
/// cannot be returned is burned, so two releases never share an Rng
/// stream.
///
/// Thread-safety: every public method may be called concurrently from any
/// thread. SubmitAsync blocks only while the global queue is full;
/// Shutdown blocks until the dispatcher exits.
class PcorServer {
 public:
  /// \brief The engine must outlive the server.
  PcorServer(const PcorEngine& engine, ServeOptions options);

  /// \brief Streaming mode: serve continual releases over an evolving
  /// stream. The streaming engine must outlive the server. The server is
  /// the one source of a stream's charges and stream positions: it charges
  /// tenants at admission, runs PcorEngine::ReleaseBatch on pinned
  /// snapshots and stamps each release's stream_release_index.
  PcorServer(StreamingPcorEngine& stream, ServeOptions options);

  /// \brief Drains and stops (Shutdown(true)).
  ~PcorServer();

  PcorServer(const PcorServer&) = delete;
  PcorServer& operator=(const PcorServer&) = delete;

  /// \brief Creates or updates tenant `tenant_id`'s QoS configuration:
  /// scheduling weight, queue-depth bound, and the per-tenant epsilon cap
  /// override on the BudgetAccountant. Each call upserts the whole config:
  /// an unset epsilon_cap restores inheritance of the server-wide default
  /// (it never keeps an earlier registration's override). May be called
  /// before or after the tenant's first submission, from any thread;
  /// weight/depth apply from the next scheduling decision, the cap from
  /// the next admission. Returns kInvalidArgument for a non-positive or
  /// non-finite weight or a negative/NaN epsilon cap. Never blocks.
  Status RegisterTenant(std::string_view tenant_id,
                        const TenantConfig& config);

  /// \brief Admits one request for `client_id`. Returns the future that
  /// completes with the request's BatchEntry, or a typed error:
  /// kInvalidArgument (the effective options — the per-request override,
  /// else ServeOptions::release — fail ValidatePcorOptions, or an override
  /// raises max_probes or num_samples above ServeOptions::release's; nothing
  /// charged), kPrivacyBudgetExceeded (cap), kResourceExhausted (tenant
  /// depth bound), kUnavailable (shutting down, including a submission
  /// blocked on a full queue when Shutdown lands; its charge is refunded).
  /// Blocks only while the global queue is full — a tenant at its own
  /// depth bound is rejected immediately and its charge refunded.
  Result<Future<BatchEntry>> SubmitAsync(const BatchRequest& request,
                                         std::string_view client_id);

  /// \brief Admits many requests for one client, preserving order. Each
  /// request succeeds or fails admission independently (one over-budget
  /// request must not sink the rest).
  std::vector<Result<Future<BatchEntry>>> SubmitMany(
      std::span<const BatchRequest> requests, std::string_view client_id);

  /// \brief Streaming mode: buffers one validated row in the stream's
  /// mutable tail (invisible to probes until the next SealEpoch).
  /// kFailedPrecondition on a classic server, kUnavailable after
  /// Shutdown, else the StreamingPcorEngine::Append status.
  Status SubmitAppend(const Row& row);
  /// \brief Buffers many rows; stops at the first invalid row (earlier
  /// rows stay buffered — they were valid).
  Status SubmitAppends(std::span<const Row> rows);

  /// \brief Streaming mode: seals every buffered row into a new immutable
  /// epoch snapshot and returns the new epoch id (sealed row count).
  /// Requests admitted before the seal may execute against either epoch —
  /// each micro-batch pins whichever snapshot is current at dispatch, and
  /// every entry reports its epoch. kFailedPrecondition on a classic
  /// server, kUnavailable after Shutdown.
  Result<uint64_t> SealEpoch();

  /// \brief True when constructed over a StreamingPcorEngine.
  bool streaming() const { return stream_ != nullptr; }

  /// \brief Stops the server. `drain` true executes every admitted request
  /// before returning; false completes pending (undispatched) futures with
  /// a kUnavailable entry and refunds their budget charges. Idempotent;
  /// the first call's mode wins.
  void Shutdown(bool drain = true);

  /// \brief The Rng stream seed the server assigns to `client_id`'s k-th
  /// submission. Exposed so tests and replay tooling can predict and
  /// reproduce any served release with PcorEngine::Release.
  static uint64_t RequestSeed(uint64_t server_seed,
                              std::string_view client_id, uint64_t k);

  /// \brief Snapshot of the lifetime counters; consistent within one call,
  /// thread-safe, never blocks on the dispatcher.
  ServerStats stats() const;
  /// \brief The per-tenant epsilon ledger (thread-safe; see
  /// BudgetAccountant for the charge/refund contract).
  const BudgetAccountant& accountant() const { return accountant_; }
  const ServeOptions& options() const { return options_; }

 private:
  struct Pending {
    BatchRequest request;  // carries the pinned seed + options override
    Promise<BatchEntry> promise;
    std::string client_id;  // for the abort-path refund
    double cost = 0.0;      // epsilon charged at admission (refund amount)
    // The tenant's 1-based submission position; streaming mode stamps it
    // on the release as stream_release_index.
    uint64_t stream_index = 0;
  };

  void DispatcherLoop();
  void ExecuteBatch(std::vector<Pending> batch);
  /// \brief Fails every future in `batch` with its own ServeError carrying
  /// `what` (worker exceptions are rewrapped per future — the message
  /// survives, the concrete type intentionally does not; see ServeError).
  void FailBatchWith(std::vector<Pending>* batch, const char* what);

  const PcorEngine* engine_;          // null in streaming mode
  StreamingPcorEngine* stream_;       // null in classic mode
  const ServeOptions options_;
  BudgetAccountant accountant_;
  WeightedFairQueue<Pending> queue_;

  mutable std::mutex state_mu_;
  /// Per-tenant count of admitted submissions: the next submission takes
  /// Rng stream index seq and, in streaming mode, stream position seq + 1.
  ClientMap<uint64_t> seq_;
  bool shutting_down_ = false;
  std::atomic<bool> abort_pending_{false};
  std::mutex shutdown_mu_;  // serializes Shutdown callers

  mutable std::mutex stats_mu_;
  ServerStats stats_;  // queue_high_water is read from queue_ instead

  std::thread dispatcher_;  // last member: starts in the constructor
};

}  // namespace pcor
