/**
 * Reproduces Table 1: percentage increase in execution time when full
 * run-time checking is added, per program, split into the arith /
 * vector / list checking categories.
 *
 * This harness is also the observability showcase: every cell runs with
 * the instruction profiler attached (per-PC cycle histograms, checked
 * here against the CycleStats totals on all ten programs), the
 * symbolized "who pays the tag-checking tax" attribution is printed for
 * a representative program, the engine's metrics registry and a Chrome
 * trace of the grid are exported, and the whole measurement lands in
 * BENCH_table1.json (validated through support/json.h's parser).
 */

#include <time.h>

#include <algorithm>
#include <cstdio>

#include "bench_export.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/paper.h"
#include "core/report.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "support/stats.h"
#include "support/format.h"
#include "support/table.h"

using namespace mxl;

namespace {

/** CPU time the calling thread has used, in seconds. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/**
 * CPU seconds one inline (warm-cache) run of @p req takes on this
 * thread, with or without the profiler. CPU time, not wall time: a
 * run that waits for a core while the host is busy costs no more.
 */
double
cellCpuSeconds(Engine &eng, RunRequest req, bool profiled)
{
    req.hooks.collectProfile = profiled;
    // Pin the interpreter on both sides: its attachProfile counting
    // path is the profiler with a per-issue cost (the translated
    // executor folds counters it keeps anyway), and pinning measures
    // the profiler, not the backend.
    req.exec.backend = Backend::Interpreter;
    const double t0 = threadCpuSeconds();
    eng.run(req);
    return threadCpuSeconds() - t0;
}

} // namespace

int
main()
{
    std::printf("Table 1: %% increase in execution time when run-time "
                "checking is added\n");
    std::printf("(measured on mxlisp; paper values in parentheses)\n\n");

    Engine eng;
    TraceRecorder trace;
    eng.setTrace(&trace);

    std::vector<RunRequest> reqs;
    std::vector<RunReport> reports;
    auto ms = measureAll(eng, baselineOptions(Checking::Off), &reqs,
                         &reports, /*collectProfile=*/true);

    TextTable t;
    t.addRow({"program", "arith", "vector", "list", "total",
              "(paper total)"});
    std::vector<double> totals;
    for (size_t i = 0; i < ms.size(); ++i) {
        auto r = table1Row(ms[i]);
        const auto &p = paper::table1()[i];
        t.addRow({r.program, fixed(r.arith, 2), fixed(r.vector, 2),
                  fixed(r.list, 2), fixed(r.total, 2),
                  strcat("(", fixed(p.total, 2), ")")});
        totals.push_back(r.total);
    }
    t.addRule();
    t.addRow({"average", "", "", "", fixed(mean(totals), 2),
              strcat("(", fixed(paper::table1Average, 2), ")")});
    std::printf("%s\n", t.render().c_str());

    std::printf("shape checks:\n");
    std::printf("  checking slows every program ........ %s\n",
                minOf(totals) > 0 ? "yes" : "NO");
    std::printf("  list checks dominate most programs .. (see rows)\n");
    std::printf("  opt & trav are the vector-heavy pair, rat the "
                "arith-heavy one\n\n");

    int failures = 0;
    auto check = [&](bool ok, const std::string &what) {
        std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
        if (!ok)
            ++failures;
    };

    // ---- profiler invariants on every cell (20 = ten programs × 2) ----
    const size_t stride = ms.size();
    bool cyclesExact = true, issuesExact = true, attribExact = true;
    Json attribution = Json::array();
    for (size_t i = 0; i < reports.size(); ++i) {
        const RunResult &r = reports[i].result;
        cyclesExact = cyclesExact && r.profile &&
                      r.profile->totalCycles() == r.stats.total;
        issuesExact = issuesExact && r.profile &&
                      r.profile->totalExecuted() == r.stats.instructions;
        if (!r.profile)
            continue;
        // Symbolized attribution must conserve the same total. The
        // compile is a cache hit — the grid above already compiled it.
        auto c = eng.compile(reqs[i].source, reqs[i].opts);
        auto funcs = symbolize(c.unit->prog, *r.profile);
        uint64_t funcCycles = 0;
        for (const FunctionProfile &f : funcs)
            funcCycles += f.cycles;
        attribExact = attribExact && funcCycles == r.stats.total;
        if (i >= stride) { // the checking-full half
            Json entry = Json::object();
            entry.set("program", reports[i].label);
            entry.set("functions", functionProfileJson(funcs));
            attribution.push(std::move(entry));
        }
    }
    check(cyclesExact, "per-PC cycle histograms sum exactly to "
                       "CycleStats totals (all 20 cells)");
    check(issuesExact, "per-PC issue counts sum exactly to the "
                       "instruction counts");
    check(attribExact, "per-function attribution conserves every cycle");

    // ---- who pays the tag-checking tax (symbolized, boyer/full) ----
    {
        size_t boyer = stride;
        for (size_t i = stride; i < reports.size(); ++i)
            if (reports[i].label == "full/boyer")
                boyer = i;
        auto c = eng.compile(reqs[boyer].source, reqs[boyer].opts);
        auto funcs = symbolize(c.unit->prog, *reports[boyer].result.profile);
        std::printf("\ntag-checking tax, boyer with full checking "
                    "(top 8 functions by checking cycles):\n%s\n",
                    renderCheckingTax(funcs, 8).c_str());
    }

    // ---- profiling overhead on the same warm-cache grid ----
    // Per cell, the best of three interleaved repeats of each variant
    // in thread CPU time, so host load and drift hit both sides alike.
    {
        double unprofiled = 0, profiled = 0;
        for (const RunRequest &req : reqs) {
            double plain = 1e99, prof = 1e99;
            for (int rep = 0; rep < 3; ++rep) {
                plain = std::min(plain, cellCpuSeconds(eng, req, false));
                prof = std::min(prof, cellCpuSeconds(eng, req, true));
            }
            unprofiled += plain;
            profiled += prof;
        }
        double pct = 100.0 * (profiled - unprofiled) / unprofiled;
        check(profiled <= unprofiled * 1.10,
              strcat("profiling overhead within 10% (", fixed(pct, 1),
                     "% on ", fixed(unprofiled, 2),
                     "s of simulation CPU time)"));
    }

    // ---- machine-readable export ----
    Json doc = benchDoc("table1", gridJson(reqs, reports), &eng);
    doc.set("attribution", std::move(attribution));
    if (!writeBenchJson("table1", doc))
        ++failures;
    eng.setTrace(nullptr);
    if (!writeBenchTrace("table1", trace))
        ++failures;

    return failures == 0 ? 0 : 1;
}
