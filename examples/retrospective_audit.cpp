// Retrospective research over a pipeline's history (challenge C3): query the
// version DAG, check out and re-run a historical pipeline version, diff two
// versions, and reclaim storage from unreferenced artifacts — followed by a
// durable checkpoint of the whole storage engine to disk.
//
// Run: ./build/examples/retrospective_audit

#include <cstdio>
#include <filesystem>

#include "pipeline/checkout.h"
#include "sim/scenario.h"
#include "storage/persistence.h"
#include "version/gc.h"
#include "version/history_query.h"

using namespace mlcask;

namespace {

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  std::printf("Retrospective audit of a pipeline history\n");
  std::printf("=========================================\n\n");

  auto deployment = sim::MakeDeployment("readmission", /*scale=*/0.1);
  Check(deployment.status(), "MakeDeployment");
  sim::Deployment& d = **deployment;
  Check(sim::BuildTwoBranchScenario(&d).status(), "scenario");

  // 1. Query the history.
  version::HistoryQuery query(d.repo.get());
  std::printf("history has %zu commits across branches {",
              query.AllCommits().size());
  bool first = true;
  for (const std::string& b : d.repo->branches().List()) {
    std::printf("%s%s", first ? "" : ", ", b.c_str());
    first = false;
  }
  std::printf("}\n");

  const version::Commit* best = query.BestByScore();
  std::printf("best pipeline in history: %s (score %.3f by %s)\n",
              best->Label().c_str(), best->snapshot.score,
              best->author.c_str());

  std::printf("\nmodel version timeline:\n");
  for (const auto& [commit, ver] : query.ComponentTimeline("cnn")) {
    std::printf("  %-14s cnn %s\n", commit->Label().c_str(),
                ver.ToString().c_str());
  }

  // 2. Tag the best version as a release candidate.
  Check(d.repo->Tag("release-candidate", best->id), "tag");
  auto tagged = d.repo->GetTag("release-candidate");
  Check(tagged.status(), "get tag");
  std::printf("\ntagged %s as 'release-candidate'\n",
              (*tagged)->Label().c_str());

  // 3. Check out and re-run the historical version (free via checkpoints).
  auto historical =
      pipeline::MaterializePipeline(*best, *d.libraries, "readmission");
  Check(historical.status(), "materialize");
  pipeline::Executor auditor(d.registry.get(), d.engine.get(), nullptr);
  Check(pipeline::SeedExecutorFromHistory({best}, *d.libraries,
                                          d.engine.get(), &auditor),
        "seed");
  pipeline::ExecutorOptions opts;
  opts.store_outputs = false;
  auto rerun = auditor.Run(*historical, opts);
  Check(rerun.status(), "re-run");
  std::printf("re-ran %s from its checkpoints: score %.3f, %llu component "
              "executions needed\n",
              best->Label().c_str(), rerun->score,
              static_cast<unsigned long long>(auditor.executions()));

  // 4. Diff the common ancestor against the dev branch head (which carries
  //    a schema evolution and several model updates).
  auto commits = query.AllCommits();
  auto dev_head = d.repo->Head("dev");
  Check(dev_head.status(), "dev head");
  auto diff = query.Diff(commits.front()->id, (*dev_head)->id);
  Check(diff.status(), "diff");
  std::printf("\ndiff %s -> %s:\n", commits.front()->Label().c_str(),
              (*dev_head)->Label().c_str());
  for (const auto& change : *diff) {
    std::printf("  %-16s %-13s %s -> %s\n", change.name.c_str(),
                version::ComponentDiffKindName(change.kind),
                change.from.ToString().c_str(), change.to.ToString().c_str());
  }

  // 5. Garbage-collect unreferenced artifacts, then checkpoint to disk.
  auto gc = version::CollectArtifactGarbage(*d.repo, d.engine.get());
  Check(gc.status(), "gc");
  std::printf("\ngc: examined %llu artifacts, deleted %llu, freed %.2f MB\n",
              static_cast<unsigned long long>(gc->artifacts_examined),
              static_cast<unsigned long long>(gc->artifacts_deleted),
              static_cast<double>(gc->bytes_freed) / 1e6);

  auto* forkbase = dynamic_cast<storage::ForkBaseEngine*>(d.engine.get());
  if (forkbase != nullptr) {
    std::string dir =
        (std::filesystem::temp_directory_path() / "mlcask_audit_checkpoint")
            .string();
    std::filesystem::remove_all(dir);
    Check(storage::SaveEngine(*forkbase, dir), "checkpoint");
    auto reloaded = storage::LoadEngine(dir);
    Check(reloaded.status(), "reload");
    std::printf("checkpointed engine to %s and reloaded it: %llu object "
                "versions, %.2f MB physical\n",
                dir.c_str(),
                static_cast<unsigned long long>(
                    (*reloaded)->ListAllVersions().size()),
                static_cast<double>((*reloaded)->stats().physical_bytes) / 1e6);
    std::filesystem::remove_all(dir);
  }
  return 0;
}
