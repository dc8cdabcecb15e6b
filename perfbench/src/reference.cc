/**
 * @file
 * perfbench --emit-reference: regenerate data/reference.json — the
 * simulated cycle count of every paper_grid cell and campaign golden,
 * and the outcome and cycles of every fault_campaign trial for each
 * program at each of the four positions a seeded order can give it.
 * The expected program outputs (data/expected_outputs.json) are
 * written by hand and are not regenerated here.
 */

#include <cstdio>

#include "bench.h"
#include "support/format.h"

namespace perfbench {

using namespace mxl;

int
emitReference(const std::string &path)
{
    Reference ref; // cycles only: faultCampaign() sizes budgets from it
    std::map<std::string, std::string> trials;

    Engine eng(loadThreads());
    std::vector<PaperCell> cells = paperGrid();
    std::vector<RunRequest> grid;
    for (const PaperCell &c : cells)
        grid.push_back(c.req);
    std::vector<RunReport> reps = eng.runGrid(grid);
    for (size_t i = 0; i < reps.size(); ++i) {
        if (!reps[i].ok()) {
            std::fprintf(stderr, "perfbench: %s failed: %s\n",
                         reps[i].label.c_str(),
                         reps[i].status.message.c_str());
            return 1;
        }
        ref.cycles[reps[i].label] = reps[i].result.stats.total;
    }

    const std::vector<std::string> &base = campaignPrograms();
    for (size_t rot = 0; rot < base.size(); ++rot) {
        std::vector<std::string> order;
        for (size_t i = 0; i < base.size(); ++i)
            order.push_back(base[(i + rot) % base.size()]);
        const Campaign c = faultCampaign(order, ref);
        CampaignResult res = runCampaign(eng, c, campaignOptions(c, ""));
        if (res.sandbox.abandoned || res.sandbox.watchdogKills) {
            std::fprintf(stderr, "perfbench: the sandbox killed or "
                                 "abandoned trials; rerun on a quiet "
                                 "host\n");
            return 1;
        }
        for (const RunReport &g : res.goldens) {
            auto it =
                ref.cycles.emplace(g.label, g.result.stats.total).first;
            if (!g.ok() || it->second != g.result.stats.total) {
                std::fprintf(stderr, "perfbench: golden %s is not "
                                     "reproducible\n",
                             g.label.c_str());
                return 1;
            }
        }
        for (const TrialRecord &t : res.trials)
            trials[trialKey(c, res, t)] = trialOutcome(t);
        std::printf("rotation %zu: %zu trials\n", rot, res.trials.size());
    }

    Json cycles = Json::object();
    for (const auto &[label, n] : ref.cycles)
        cycles.set(label, n);
    Json trialDoc = Json::object();
    for (const auto &[key, outcome] : trials)
        trialDoc.set(key, outcome);
    Json doc = Json::object();
    doc.set("cycles", std::move(cycles));
    doc.set("trials", std::move(trialDoc));
    if (!writeJsonFile(path, doc)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

} // namespace perfbench
