// Serving: the async multi-tenant front-end over the batched release
// engine. Three tenants with different QoS registrations submit query
// outliers concurrently; the server picks admitted requests in
// weighted-fair order, coalesces them into micro-batches over
// PcorEngine::ReleaseBatch, charges each tenant's OCDP budget at
// admission, and completes one future per request — deterministically:
// tenant T's k-th request draws the same Rng stream no matter how the
// requests interleave, coalesce, or get scheduled.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_serving
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/string_util.h"
#include "src/outlier/zscore.h"
#include "src/serve/server.h"

using namespace pcor;

int main() {
  // A small synthetic table: 3x3 categorical grid, tight metric clusters,
  // plus one planted extreme row V (the query outlier of every request).
  Schema schema;
  schema.AddAttribute("Region", {"north", "south", "west"}).CheckOK();
  schema.AddAttribute("Tier", {"basic", "plus", "pro"}).CheckOK();
  schema.SetMetricName("spend");
  Dataset dataset(schema);
  for (uint32_t region = 0; region < 3; ++region) {
    for (uint32_t tier = 0; tier < 3; ++tier) {
      for (size_t i = 0; i < 12; ++i) {
        dataset.AppendRow({region, tier}, 95.0 + static_cast<double>(i % 7))
            .CheckOK();
      }
    }
  }
  const uint32_t v_row = static_cast<uint32_t>(dataset.num_rows());
  dataset.AppendRow({0, 0}, 400.0).CheckOK();

  ZscoreOptions detector_options;
  detector_options.threshold = 3.0;
  detector_options.min_population = 4;
  ZscoreDetector detector(detector_options);
  PcorEngine engine(dataset, detector);

  // Server: BFS releases at eps=0.2 each by default, micro-batches of up
  // to 16 (whatever is queued when the dispatcher frees up), weighted-fair
  // scheduling, and a default per-tenant budget cap of eps=1.0 — five
  // releases per tenant, then typed rejections.
  ServeOptions options;
  options.release.sampler = SamplerKind::kBfs;
  options.release.num_samples = 8;
  options.release.total_epsilon = 0.2;
  options.max_batch = 16;
  options.per_client_epsilon_cap = 1.0;
  options.seed = 2021;
  PcorServer server(engine, options);

  // Per-tenant QoS: tenant-0 is a premium analyst (4x scheduling share and
  // a raised budget cap), tenant-1 rides the defaults, tenant-2 registers
  // a queue-depth bound of 4 as burst protection — a flood past it would
  // fail fast with a typed kResourceExhausted instead of crowding the
  // shared queue. (The closed-loop submissions below keep at most one
  // request queued per tenant, so the bound never trips here; the depth
  // contract is exercised by tests/serve/ and docs/serving.md.)
  TenantConfig premium;
  premium.weight = 4.0;
  premium.epsilon_cap = 2.0;
  server.RegisterTenant("tenant-0", premium).CheckOK();
  TenantConfig bursty;
  bursty.max_queue_depth = 4;
  server.RegisterTenant("tenant-2", bursty).CheckOK();

  // tenant-1 overrides the release configuration per request: a cheaper
  // eps=0.1 uniform-sampling release instead of the server default. The
  // override is validated at admission and charged at its own epsilon.
  PcorOptions cheap;
  cheap.sampler = SamplerKind::kUniform;
  cheap.num_samples = 8;
  cheap.total_epsilon = 0.1;

  std::printf(
      "three tenants, 7 submissions each; tenant-0's raised cap admits all "
      "7 at\neps=0.2, tenant-1 submits eps=0.1 overrides (all 7 fit its "
      "1.0 cap),\ntenant-2's default cap admits 5 and rejects 2:\n\n");
  // Each tenant thread collects its own lines; they print after the join
  // in tenant order, so the output does not depend on thread timing.
  std::vector<std::thread> tenants;
  std::vector<std::vector<std::string>> lines(3);
  for (int t = 0; t < 3; ++t) {
    tenants.emplace_back([&, t] {
      const std::string tenant = "tenant-" + std::to_string(t);
      for (int k = 0; k < 7; ++k) {
        BatchRequest request;
        request.v_row = v_row;
        if (t == 1) request.options = cheap;
        auto future = server.SubmitAsync(request, tenant);
        if (!future.ok()) {
          lines[t].push_back(strings::Format(
              "%-9s #%d REJECTED: %s", tenant.c_str(), k,
              future.status().ToString().c_str()));
          continue;
        }
        BatchEntry entry = future->Get();
        if (entry.status.ok()) {
          lines[t].push_back(strings::Format(
              "%-9s #%d released %-28s eps=%.2f (seed %016llx)",
              tenant.c_str(), k, entry.release.description.c_str(),
              entry.release.epsilon_spent,
              static_cast<unsigned long long>(entry.rng_seed)));
        } else {
          lines[t].push_back(strings::Format("%-9s #%d failed: %s",
                                             tenant.c_str(), k,
                                             entry.status.ToString().c_str()));
        }
      }
    });
  }
  for (auto& t : tenants) t.join();
  server.Shutdown();
  for (const auto& tenant_lines : lines) {
    for (const std::string& line : tenant_lines) {
      std::printf("%s\n", line.c_str());
    }
  }

  const ServerStats stats = server.stats();
  std::printf(
      "\nserver: %zu released, %zu budget rejections, eps ledger total "
      "%.2f\n",
      stats.released, stats.rejected_budget, stats.epsilon_spent);
  std::printf(
      "ledgers: tenant-0 %.2f/2.00, tenant-1 %.2f/1.00, tenant-2 "
      "%.2f/1.00\n",
      server.accountant().SpentBy("tenant-0"),
      server.accountant().SpentBy("tenant-1"),
      server.accountant().SpentBy("tenant-2"));
  std::printf(
      "replay: any line above reproduces via PcorEngine::Release with the "
      "printed seed — scheduling and coalescing never change an answer.\n");
  return 0;
}
