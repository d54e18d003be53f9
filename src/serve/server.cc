#include "src/serve/server.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "src/common/random.h"
#include "src/common/string_util.h"

namespace pcor {

PcorServer::PcorServer(const PcorEngine& engine, ServeOptions options)
    : engine_(&engine),
      stream_(nullptr),
      options_(std::move(options)),
      accountant_(options_.per_client_epsilon_cap),
      queue_(std::max<size_t>(1, options_.queue_capacity)),
      dispatcher_([this] { DispatcherLoop(); }) {}

PcorServer::PcorServer(StreamingPcorEngine& stream, ServeOptions options)
    : engine_(nullptr),
      stream_(&stream),
      options_(std::move(options)),
      accountant_(options_.per_client_epsilon_cap),
      queue_(std::max<size_t>(1, options_.queue_capacity)),
      dispatcher_([this] { DispatcherLoop(); }) {}

PcorServer::~PcorServer() { Shutdown(/*drain=*/true); }

uint64_t PcorServer::RequestSeed(uint64_t server_seed,
                                 std::string_view client_id, uint64_t k) {
  // Fold the client id into the server seed character by character (every
  // step avalanches, so "c1"/"c2" land in unrelated stream families), then
  // apply the same Weyl-step + finalizer mix ReleaseBatch uses per index.
  uint64_t h = SplitMix64Mix(server_seed ^ 0x243f6a8885a308d3ULL);
  for (const char c : client_id) {
    h = SplitMix64Mix(h ^ static_cast<unsigned char>(c));
  }
  return SplitMix64Mix(h + 0x9e3779b97f4a7c15ULL * (k + 1));
}

Status PcorServer::RegisterTenant(std::string_view tenant_id,
                                  const TenantConfig& config) {
  PCOR_RETURN_NOT_OK(ValidateTenantConfig(config));
  queue_.RegisterTenant(tenant_id, config.weight, config.max_queue_depth);
  // Registration is an upsert of the WHOLE config: an unset epsilon_cap
  // restores inheritance of the server-wide default, it does not keep a
  // stale override from an earlier registration.
  if (config.epsilon_cap.has_value()) {
    accountant_.SetCap(tenant_id, *config.epsilon_cap);
  } else {
    accountant_.ClearCap(tenant_id);
  }
  return Status::OK();
}

Result<Future<BatchEntry>> PcorServer::SubmitAsync(
    const BatchRequest& request, std::string_view client_id) {
  // Bad effective options (a per-request override, else the server
  // default) are rejected before anything is charged or sequenced, so the
  // tenant's budget and stream indices are exactly as if the call never
  // happened. A NaN epsilon must never reach the accountant.
  const PcorOptions& effective =
      request.options ? *request.options : options_.release;
  Status valid = ValidatePcorOptions(effective);
  // The server default's sizes are ceilings: an override may lower them
  // but not buy a longer hold on the dispatcher than the owner allows.
  if (valid.ok() && request.options &&
      (effective.max_probes > options_.release.max_probes ||
       effective.num_samples > options_.release.num_samples)) {
    valid = Status::InvalidArgument(strings::Format(
        "override max_probes %zu / num_samples %zu exceeds the server's "
        "%zu / %zu",
        effective.max_probes, effective.num_samples,
        options_.release.max_probes, options_.release.num_samples));
  }
  if (!valid.ok()) {
    std::unique_lock<std::mutex> stats_lock(stats_mu_);
    ++stats_.rejected_invalid;
    return valid;
  }
  const double eps = effective.total_epsilon;
  Pending pending;
  pending.client_id = std::string(client_id);
  pending.request = request;
  pending.request.use_explicit_seed = true;
  pending.cost = eps;
  uint64_t my_seq = 0;
  {
    // One admission path for both modes: every release, classic or
    // streamed, costs its full effective epsilon. Charge and slot claim
    // happen together under state_mu_, so a refused charge never consumes
    // a slot and a shutdown cannot slip in between. The accountant's mutex
    // is a leaf; taking it under state_mu_ cannot invert any lock order.
    std::unique_lock<std::mutex> lock(state_mu_);
    if (shutting_down_) {
      lock.unlock();
      std::unique_lock<std::mutex> stats_lock(stats_mu_);
      ++stats_.rejected_queue;
      return Status::Unavailable("server is shutting down");
    }
    Status charged = accountant_.Charge(client_id, eps);
    if (!charged.ok()) {
      lock.unlock();
      std::unique_lock<std::mutex> stats_lock(stats_mu_);
      ++stats_.rejected_budget;
      return charged;
    }
    auto it = seq_.find(client_id);
    if (it == seq_.end()) it = seq_.emplace(pending.client_id, 0).first;
    my_seq = it->second++;
  }
  pending.request.rng_seed = RequestSeed(options_.seed, client_id, my_seq);
  pending.stream_index = my_seq + 1;
  Future<BatchEntry> future = pending.promise.GetFuture();

  // The DRR charge is the request's epsilon, so a tenant's fair share
  // holds in privacy budget per second: one expensive release costs as
  // many scheduling credits as many cheap ones.
  const QueueOp pushed = queue_.Push(client_id, std::move(pending), eps);
  if (pushed != QueueOp::kOk) {
    // Nothing ran against the data: roll the admission back. state_mu_
    // was released between admission and this push, so a concurrent
    // submission for this client may have claimed a later slot; the slot
    // is returned only when none did — an unconditional decrement could
    // hand an already-admitted request's seed to the next submission, and
    // two releases must never share an Rng stream. The charge does not
    // depend on the slot, so it is always refunded.
    {
      std::unique_lock<std::mutex> lock(state_mu_);
      auto it = seq_.find(client_id);
      if (it != seq_.end() && it->second == my_seq + 1) --it->second;
    }
    accountant_.Refund(client_id, eps);
    std::unique_lock<std::mutex> stats_lock(stats_mu_);
    if (pushed == QueueOp::kTenantFull) {
      ++stats_.rejected_depth;
      return Status::ResourceExhausted("tenant queue depth exceeded");
    }
    ++stats_.rejected_queue;
    return Status::Unavailable("server is shutting down");
  }
  {
    std::unique_lock<std::mutex> stats_lock(stats_mu_);
    ++stats_.submitted;
  }
  return future;
}

std::vector<Result<Future<BatchEntry>>> PcorServer::SubmitMany(
    std::span<const BatchRequest> requests, std::string_view client_id) {
  std::vector<Result<Future<BatchEntry>>> futures;
  futures.reserve(requests.size());
  for (const BatchRequest& request : requests) {
    futures.push_back(SubmitAsync(request, client_id));
  }
  return futures;
}

Status PcorServer::SubmitAppend(const Row& row) {
  if (stream_ == nullptr) {
    return Status::FailedPrecondition(
        "SubmitAppend requires a streaming-mode server");
  }
  {
    std::unique_lock<std::mutex> lock(state_mu_);
    if (shutting_down_) {
      return Status::Unavailable("server is shutting down");
    }
  }
  PCOR_RETURN_NOT_OK(stream_->Append(row));
  std::unique_lock<std::mutex> stats_lock(stats_mu_);
  ++stats_.appends;
  return Status::OK();
}

Status PcorServer::SubmitAppends(std::span<const Row> rows) {
  for (const Row& row : rows) {
    PCOR_RETURN_NOT_OK(SubmitAppend(row));
  }
  return Status::OK();
}

Result<uint64_t> PcorServer::SealEpoch() {
  if (stream_ == nullptr) {
    return Status::FailedPrecondition(
        "SealEpoch requires a streaming-mode server");
  }
  {
    std::unique_lock<std::mutex> lock(state_mu_);
    if (shutting_down_) {
      return Status::Unavailable("server is shutting down");
    }
  }
  const uint64_t epoch = stream_->SealEpoch();
  std::unique_lock<std::mutex> stats_lock(stats_mu_);
  ++stats_.epochs_sealed;
  return epoch;
}

void PcorServer::Shutdown(bool drain) {
  // Serializes concurrent Shutdown callers (including the destructor): the
  // first runs the teardown, later ones block here until it finished and
  // then find the dispatcher already joined.
  std::unique_lock<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::unique_lock<std::mutex> lock(state_mu_);
    if (!shutting_down_) {
      shutting_down_ = true;
      abort_pending_.store(!drain, std::memory_order_relaxed);
    }
  }
  queue_.Close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void PcorServer::DispatcherLoop() {
  while (true) {
    Pending first;
    if (queue_.Pop(&first) == QueueOp::kClosed) return;

    // Work-conserving: take only what is already queued, never wait for
    // stragglers. Requests arriving while this batch runs queue up and
    // leave together in the next one.
    std::vector<Pending> batch;
    batch.push_back(std::move(first));
    while (batch.size() < std::max<size_t>(1, options_.max_batch)) {
      Pending next;
      if (queue_.TryPop(&next) != QueueOp::kOk) break;  // empty, or closed
      batch.push_back(std::move(next));
    }

    if (abort_pending_.load(std::memory_order_relaxed)) {
      // Abort-mode shutdown: undispatched work fails typed and is refunded.
      FailBatch(&batch,
                Status::Unavailable("server shut down before dispatch"),
                /*dispatched=*/false);
      continue;
    }
    ExecuteBatch(std::move(batch));
  }
}

void PcorServer::ExecuteBatch(std::vector<Pending> batch) {
  std::vector<BatchRequest> requests;
  requests.reserve(batch.size());
  for (const Pending& pending : batch) requests.push_back(pending.request);

  // Streaming mode: pin ONE snapshot for the whole micro-batch — a batch
  // never straddles epochs — and execute against its engine. The pin keeps
  // the epoch's dataset and index alive however many appends/seals race
  // this dispatch. Before the first seal there is nothing to release
  // against: entries fail typed and keep their admission charge (see the
  // class comment).
  std::shared_ptr<const EpochSnapshot> snapshot;
  const PcorEngine* engine = engine_;
  if (stream_ != nullptr) {
    snapshot = stream_->Pin();
    engine = snapshot->engine.get();
    if (engine == nullptr) {
      FailBatch(&batch,
                Status::FailedPrecondition(
                    "no sealed epoch yet: append rows and SealEpoch before "
                    "releasing"),
                /*dispatched=*/true);
      return;
    }
  }

  // The engine reports every failure as an entry status; only the hook,
  // or a bug below us, can throw. That must fail this batch's requests
  // with a typed status, not kill the dispatcher. Nothing is completed
  // inside the try, so no promise is set when the failure path runs.
  BatchReleaseReport report;
  try {
    if (options_.pre_batch_hook) {
      options_.pre_batch_hook(std::span<const BatchRequest>(requests));
    }
    report = engine->ReleaseBatch(std::span<const BatchRequest>(requests),
                                  options_.release, options_.seed,
                                  options_.release_threads);
  } catch (const std::exception& e) {
    FailBatch(&batch, Status::Internal(e.what()), /*dispatched=*/true);
    return;
  } catch (...) {
    FailBatch(&batch,
              Status::Internal(
                  "non-std exception during micro-batch execution"),
              /*dispatched=*/true);
    return;
  }
  if (stream_ != nullptr) {
    // Annotate entries with their stream position (the engine stamped the
    // epoch already). Failed entries carry no release to annotate.
    for (size_t i = 0; i < batch.size(); ++i) {
      BatchEntry& entry = report.entries[i];
      if (entry.status.ok()) {
        entry.release.stream_release_index = batch[i].stream_index;
      }
    }
  }
  {
    std::unique_lock<std::mutex> stats_lock(stats_mu_);
    ++stats_.batches;
    stats_.max_coalesced = std::max(stats_.max_coalesced, batch.size());
    stats_.released += report.num_released();
    stats_.failed += report.failures;
    for (const BatchEntry& entry : report.entries) {
      if (entry.status.ok() && entry.release.hit_probe_cap) {
        ++stats_.hit_probe_cap;
      }
    }
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.Set(std::move(report.entries[i]));
  }
}

void PcorServer::FailBatch(std::vector<Pending>* batch, const Status& status,
                           bool dispatched) {
  {
    std::unique_lock<std::mutex> stats_lock(stats_mu_);
    if (dispatched) {
      ++stats_.batches;
      stats_.max_coalesced = std::max(stats_.max_coalesced, batch->size());
    }
    stats_.failed += batch->size();
  }
  for (Pending& pending : *batch) {
    // Undispatched work never touched the data: its charge is returned.
    if (!dispatched) accountant_.Refund(pending.client_id, pending.cost);
    BatchEntry entry;
    entry.v_row = pending.request.v_row;
    entry.rng_seed = pending.request.rng_seed;
    entry.status = status;
    pending.promise.Set(std::move(entry));
  }
}

ServerStats PcorServer::stats() const {
  ServerStats snapshot;
  {
    std::unique_lock<std::mutex> stats_lock(stats_mu_);
    snapshot = stats_;
  }
  snapshot.queue_high_water = queue_.high_water();
  snapshot.epsilon_spent = accountant_.TotalSpent();
  if (stream_ != nullptr) snapshot.epoch = stream_->current_epoch();
  return snapshot;
}

}  // namespace pcor
