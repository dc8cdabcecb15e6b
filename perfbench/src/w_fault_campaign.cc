/**
 * @file
 * fault_campaign: a reduced runCampaign — all seven fault classes x
 * bench_faults' six-config ladder x its default three trials per cell,
 * over the four shortest paper programs in a seeded order (a
 * program's position sets its fault population, so the seed changes
 * every trial while the work per campaign stays comparable). Trials
 * run sandboxed in loadProcs() forked children with bench_faults'
 * deadline and watchdog, journaled to a scratch file, with no
 * self-injected chaos. Campaigns repeat until --seconds have elapsed,
 * at least two per run.
 *
 * Chosen because it is the only path through forked batch children,
 * pauseAtCycle/snapshot and machineSetup — today's interpreter-forced
 * seams.
 */

#include <unistd.h>

#include <algorithm>
#include <random>

#include "bench.h"
#include "core/experiment.h"
#include "programs/programs.h"
#include "support/format.h"

namespace perfbench {

using namespace mxl;

namespace {

/** The four shortest programs (fewest baseline cycles). */
const std::vector<std::string> kCampaignPrograms = {"inter", "deduce",
                                                    "opt", "trav"};

/** bench_faults' Table-2-style ladder. */
std::vector<CampaignConfigEntry>
configLadder()
{
    std::vector<CampaignConfigEntry> configs;
    configs.push_back({"unchecked", baselineOptions(Checking::Off)});
    configs.push_back({"software", baselineOptions(Checking::Full)});
    configs.push_back({"lowtag-sw", lowTagSoftwareOptions(Checking::Full)});
    CompilerOptions hwTraps = baselineOptions(Checking::Full);
    hwTraps.hw.branchOnTag = true;
    hwTraps.hw.genericArith = true;
    hwTraps.hw.checkedMemory = CheckedMem::All;
    configs.push_back({"hw-traps", hwTraps});
    CompilerOptions spur = baselineOptions(Checking::Full);
    spur.hw.ignoreTagOnMemory = true;
    spur.hw.branchOnTag = true;
    spur.hw.genericArith = true;
    spur.hw.checkedMemory = CheckedMem::Lists;
    configs.push_back({"spur-like", spur});
    CompilerOptions memtag = lowTagSoftwareOptions(Checking::Off);
    memtag.hw.memTagging = true;
    configs.push_back({"memtag", memtag});
    return configs;
}

std::vector<RunRequest>
goldenRequests(const Campaign &c)
{
    std::vector<RunRequest> reqs;
    for (const CampaignProgram &p : c.programs)
        for (const CampaignConfigEntry &cfg : c.configs) {
            RunRequest req;
            req.source = p.source;
            req.opts = cfg.opts;
            if (p.heapBytes)
                req.opts.heapBytes = p.heapBytes;
            req.exec.maxCycles = p.maxCycles;
            req.exec.deadlineSeconds = c.deadlineSeconds;
            req.exec.backend = c.backend;
            req.label = strcat("golden/", p.name, "/", cfg.label);
            reqs.push_back(std::move(req));
        }
    return reqs;
}

} // namespace

CampaignRunOptions
campaignOptions(const Campaign &c, const std::string &journal)
{
    CampaignRunOptions o;
    o.journalPath = journal;
    o.sandbox.enabled = sandboxSupported();
    o.sandbox.procs = static_cast<int>(loadProcs());
    o.sandbox.batchTrials = 64;
    o.sandbox.watchdogSeconds = c.deadlineSeconds + 10;
    return o;
}

std::string
trialKey(const Campaign &c, const CampaignResult &res, const TrialRecord &t)
{
    return strcat(c.programs[t.program].name, "@", t.program, "/",
                  res.configLabels[t.config], "/", res.classLabels[t.cls],
                  "/", t.trial);
}

std::string
trialOutcome(const TrialRecord &t)
{
    return strcat(outcomeName(t.outcome), " ", t.cycles);
}

namespace {

struct Window
{
    double wall = 0;
    int campaigns = 0;
    double goldenSeconds = 0; ///< summed: campaign call -> first trial
    uint64_t trials = 0;
    uint64_t interpTrials = 0;
    uint64_t cycles = 0;
    std::vector<double> latencyMs; ///< campaign call -> trial classified
    SandboxStats sandbox;
    CampaignResult first;
};

void
checkCampaign(const Campaign &c, const CampaignResult &res,
              const Reference &ref, Result *r)
{
    for (size_t p = 0; p < c.programs.size(); ++p)
        for (size_t k = 0; k < c.configs.size(); ++k) {
            const RunReport &g = res.golden(p, k);
            auto cyc = ref.cycles.find(g.label);
            if (!g.ok() || cyc == ref.cycles.end() ||
                cyc->second != g.result.stats.total ||
                g.result.output != ref.outputs.at(c.programs[p].name))
                r->mismatch(strcat(g.label, ": golden differs from the "
                                            "reference"));
        }
    for (const TrialRecord &t : res.trials) {
        const std::string key = trialKey(c, res, t);
        const std::string got = trialOutcome(t);
        auto want = ref.trials.find(key);
        if (want == ref.trials.end() || want->second != got)
            r->mismatch(strcat(key, ": ", got, ", reference ",
                               want == ref.trials.end() ? "none"
                                                        : want->second));
    }
    for (int i = 0; i < res.sandbox.abandoned; ++i)
        r->failedOp("campaign trial abandoned by the sandbox");
}

/**
 * Campaigns until @p seconds have elapsed and at least two ran. The
 * k-th campaign rotates @p order by 2k positions, so every run puts
 * each program at two different positions.
 */
Window
measure(Engine &eng, const std::vector<std::string> &order, double seconds,
        const Reference &ref, Result *r)
{
    Window w;
    const Clock::time_point start = Clock::now();
    int n = 0;
    do {
        std::vector<std::string> rotated = order;
        std::rotate(rotated.begin(),
                    rotated.begin() + (2 * n) % rotated.size(),
                    rotated.end());
        const Campaign c = faultCampaign(rotated, ref);
        const std::string journal =
            strcat(tmpDir(), "/campaign-", ::getpid(), "-", n++, ".jsonl");
        ::unlink(journal.c_str());
        CampaignRunOptions o = campaignOptions(c, journal);
        const Clock::time_point t0 = Clock::now();
        double firstTrial = -1;
        o.onTrial = [&](const TrialRecord &) {
            const double t = secondsSince(t0);
            if (firstTrial < 0)
                firstTrial = t;
            w.latencyMs.push_back(t * 1e3);
        };
        CampaignResult res = runCampaign(eng, c, o);
        ::unlink(journal.c_str());
        checkCampaign(c, res, ref, r);
        for (const TrialRecord &t : res.trials) {
            w.cycles += t.cycles;
            w.interpTrials += t.backend == Backend::Interpreter;
        }
        for (const RunReport &g : res.goldens)
            w.cycles += g.result.stats.total;
        w.trials += res.trials.size();
        w.sandbox.spawns += res.sandbox.spawns;
        w.sandbox.watchdogKills += res.sandbox.watchdogKills;
        w.sandbox.requeues += res.sandbox.requeues;
        w.sandbox.abandoned += res.sandbox.abandoned;
        w.campaigns++;
        w.goldenSeconds += firstTrial;
        if (n == 1)
            w.first = std::move(res);
    } while (secondsSince(start) < seconds || n < 2);
    w.wall = secondsSince(start);
    r->attempted += w.trials;
    return w;
}

} // namespace

Campaign
faultCampaign(const std::vector<std::string> &programs, const Reference &ref)
{
    Campaign c;
    for (const std::string &name : programs) {
        const BenchmarkProgram &p = programByName(name);
        // bench_faults' budget: unchecked golden cycles x 6, floor 2M.
        uint64_t budget = ref.cycles.at("ladder/base-off/" + name) * 6;
        c.programs.push_back(
            {p.name, p.source, std::max<uint64_t>(budget, 2'000'000),
             p.heapBytes});
    }
    c.configs = configLadder();
    c.classes = {FaultClass::TagCorrupt,      FaultClass::BitFlip,
                 FaultClass::CallArgType,     FaultClass::HeapTagCorrupt,
                 FaultClass::HeapBitFlip,     FaultClass::StackTagCorrupt,
                 FaultClass::StackBitFlip};
    c.trials = 3;
    c.seed = 19870401;
    c.deadlineSeconds = 30;
    return c;
}

const std::vector<std::string> &
campaignPrograms()
{
    return kCampaignPrograms;
}

int
runFaultCampaign(const Args &a, const Reference &ref, Result *r)
{
    std::vector<std::string> order = kCampaignPrograms;
    std::shuffle(order.begin(), order.end(), std::mt19937_64(a.seed));
    const Campaign c = faultCampaign(order, ref);
    const std::vector<RunRequest> goldens = goldenRequests(c);

    std::unique_ptr<Engine> eng = setUpEngine(goldens, r);
    if (!eng)
        return 1;

    const CpuTimes c0 = cpuTimes();
    Window plain = measure(*eng, order, a.seconds, ref, r);
    const CpuTimes c1 = cpuTimes();
    if (!a.trace) {
        // Over the whole window: every campaign runs all four
        // programs, but a stretch of it only some of them.
        r->set("ops_per_s", plain.trials / plain.wall);
        // Pooled over the window's campaigns: the second runs the
        // order rotated by two, so together they put every program in
        // both halves of a campaign.
        r->set("op_p50_ms", percentile(plain.latencyMs, 0.5));
        r->set("op_p99_ms", percentile(plain.latencyMs, 0.99));
        r->set("peak_rss_mb", peakRssMb());
        return 0;
    }

    TraceRecorder trace;
    eng->setTrace(&trace);
    const EngineCounters e0 = engineCounters(*eng);
    Window traced = measure(*eng, order, a.seconds, ref, r);
    engineMetrics(e0, engineCounters(*eng), traced.wall, eng->threadCount(),
                  r);
    eng->setTrace(nullptr);
    // The parent's engine sees only the goldens; the trial tier split
    // comes from the trial records themselves.
    r->set("engine.fallback_share",
           static_cast<double>(plain.interpTrials) / plain.trials);

    // Ledger: the goldens as the campaign runs them, and pinned to the
    // interpreter, which 5 of the 7 fault classes force.
    std::vector<RunRequest> cells = goldens;
    for (RunRequest req : goldens) {
        req.exec.backend = Backend::Interpreter;
        cells.push_back(std::move(req));
    }
    const LedgerTotals ledger =
        replayCells(*eng, cells, loadThreads(), &trace, r);

    const CampaignResult &f = plain.first;
    int byOutcome[static_cast<int>(Outcome::NumOutcomes)] = {};
    for (const CampaignCell &cell : f.cells)
        for (int o = 0; o < static_cast<int>(Outcome::NumOutcomes); ++o)
            byOutcome[o] += cell.byOutcome[o];
    auto outcome = [&](Outcome o) {
        return static_cast<double>(byOutcome[static_cast<int>(o)]);
    };
    r->set("faults.detected", outcome(Outcome::Detected));
    r->set("faults.silent", outcome(Outcome::SilentWrongAnswer));
    r->set("faults.crash", outcome(Outcome::CrashIllegalAccess));
    r->set("faults.cycle_limit", outcome(Outcome::CycleLimit));
    r->set("faults.masked", outcome(Outcome::Masked));
    r->set("faults.skipped", outcome(Outcome::Skipped));
    r->set("faults.golden_s", plain.goldenSeconds / plain.campaigns);
    r->set("faults.trial_ms", (plain.wall - plain.goldenSeconds) * 1e3 *
                                  loadProcs() / plain.trials);
    r->set("faults.interp_trial_share",
           static_cast<double>(plain.interpTrials) / plain.trials);
    r->set("sandbox.spawns", plain.sandbox.spawns);
    r->set("sandbox.watchdog_kills", plain.sandbox.watchdogKills);
    r->set("sandbox.requeues", plain.sandbox.requeues);
    r->set("sandbox.abandoned", plain.sandbox.abandoned);

    // Trials materialize their images in the sandbox children.
    r->set("proc.minor_faults_per_cell",
           static_cast<double>(c1.childMinorFaults - c0.childMinorFaults) /
               plain.trials);
    r->set("sim.mcycles_per_s", plain.cycles / plain.wall / 1e6);
    r->set("ops.samples", static_cast<double>(plain.latencyMs.size()));
    r->set("trace.overhead_share",
           1.0 - (traced.trials / traced.wall) / (plain.trials / plain.wall));

    Json extra = Json::object();
    Json progs = Json::array();
    for (const std::string &p : order)
        progs.push(p);
    extra.set("programs", std::move(progs));
    extra.set("trialsPerCampaign", static_cast<uint64_t>(f.trials.size()));
    extra.set("matrix", f.renderMatrix());
    finishTraced("fault_campaign", a, ledger, extra, trace, r);
    return 0;
}

} // namespace perfbench
