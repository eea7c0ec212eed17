// The protocol families whose soaks checkpoint and resume: the rows the
// resume and encode-cache tests walk. The engine rows (FCAT and SCAT over
// IdealPhy, alone and under a deployment) can be rebuilt with a phy
// decorator between each engine and its phy, which the hopeless-record
// tests use to send every resolve request.
#pragma once

#include <vector>

#include "core/factories.h"
#include "deploy/deployment.h"
#include "fault/injector.h"

namespace anc::testing_rows {

struct ResumeCase {
  const char* label;
  sim::ProtocolFactory factory;
  bool evicts = false;  // its bounded record store overflows in the soak
};

inline std::vector<ResumeCase> EngineCheckpointableFactories(
    const core::PhyDecorator& decorate = {}) {
  core::FcatOptions fcat;
  fcat.lambda = 2;
  // Bounded store, retry and TTL budgets, bit rot, lossy channels and a
  // crash: the fault injector and its record ledger travel in the blob.
  core::FcatOptions chaos = fcat;
  chaos.fault = *fault::FaultProfile("chaos");
  core::ScatOptions scat;
  scat.lambda = 2;
  scat.estimation_prestep = true;
  // A 2x2 reader grid over a 40 m room: the blob nests every reader's
  // FCAT state, the scheduler cursor and the merged inventory.
  deploy::DeploymentConfig sequential;
  sequential.policy = deploy::SchedulerPolicy::kSequential;
  deploy::DeploymentConfig coloring;
  coloring.policy = deploy::SchedulerPolicy::kColoring;
  coloring.share_records = true;
  return {{"fcat2", core::MakeFcatFactory(fcat, decorate)},
          {"fcat2_chaos", core::MakeFcatFactory(chaos, decorate), true},
          {"scat2", core::MakeScatFactory(scat, decorate)},
          {"deploy_sequential_fcat2",
           deploy::MakeDeploymentFactory(
               sequential, core::MakeFcatFactory(fcat, decorate))},
          {"deploy_coloring_fcat2",
           deploy::MakeDeploymentFactory(
               coloring, core::MakeFcatFactory(fcat, decorate))}};
}

inline std::vector<ResumeCase> CheckpointableFactories() {
  std::vector<ResumeCase> rows = EngineCheckpointableFactories();
  rows.push_back({"irsa", core::MakeIrsaFactory()});
  rows.push_back({"crdsa2", core::MakeCrdsaFactory()});
  rows.push_back({"seeded", core::MakeSeededFactory()});
  rows.push_back({"seeded_cap2", core::MakeSeededFactory({}, 2), true});
  return rows;
}

}  // namespace anc::testing_rows
