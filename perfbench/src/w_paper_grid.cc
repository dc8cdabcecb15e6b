/**
 * @file
 * paper_grid: the paper's own grid through Engine::runGrid on
 * loadThreads() workers — the Table-2 ladder (baseline + rows 1-7,
 * Checking Off and Full) for the ten programs, the Table-1 profile
 * cells, and the check-placement rung. Every cell is compiled before
 * timing (that compile is setup_s); a timed pass runs the whole grid in
 * a fresh seeded order, and passes repeat until --seconds have elapsed
 * and at least three ran. The rate is the grid size over the median
 * pass time, so one pass slowed by the host does not move it.
 *
 * Chosen because simulated execution is a large share of each cell
 * here, and because the interpreter-only seams (profile, transform)
 * and the per-run place+verify cost sit on its hot path.
 */

#include <algorithm>
#include <random>

#include "bench.h"
#include "support/format.h"

namespace perfbench {

using namespace mxl;

namespace {

struct Window
{
    double wall = 0;
    uint64_t cells = 0;
    uint64_t cycles = 0;
    std::vector<double> passSeconds;
    std::vector<double> cellMs; ///< RunReport::wallSeconds per cell
};

/** Check one report against the carried reference. */
void
checkCell(const PaperCell &cell, const RunReport &rep, const Reference &ref,
          Result *r)
{
    if (!rep.ok()) {
        r->mismatch(strcat(cell.req.label, ": not ok: ", rep.status.message));
        return;
    }
    auto cyc = ref.cycles.find(cell.req.label);
    if (cyc == ref.cycles.end() || cyc->second != rep.result.stats.total)
        r->mismatch(strcat(cell.req.label, ": ", rep.result.stats.total,
                           " cycles, reference ",
                           cyc == ref.cycles.end() ? 0 : cyc->second));
    if (rep.result.output != ref.outputs.at(cell.program))
        r->mismatch(strcat(cell.req.label, ": output differs"));
    if (cell.req.hooks.collectProfile &&
        (!rep.result.profile ||
         rep.result.profile->totalCycles() != rep.result.stats.total))
        r->mismatch(strcat(cell.req.label, ": profile does not sum to "
                                           "the cycle total"));
}

/**
 * Whole grid passes, each in a fresh seeded order, until @p seconds
 * have elapsed and at least three passes ran.
 */
Window
measure(Engine &eng, std::vector<PaperCell> cells, std::mt19937_64 *rng,
        double seconds, const Reference &ref, Result *r)
{
    Window w;
    const Clock::time_point start = Clock::now();
    do {
        std::shuffle(cells.begin(), cells.end(), *rng);
        std::vector<RunRequest> grid;
        for (const PaperCell &c : cells)
            grid.push_back(c.req);
        const Clock::time_point p0 = Clock::now();
        std::vector<RunReport> reps = eng.runGrid(grid);
        w.passSeconds.push_back(secondsSince(p0));
        // runGrid has no per-cell boundary the caller can time, so a
        // cell's latency is the engine's own clock around it.
        for (size_t i = 0; i < reps.size(); ++i) {
            checkCell(cells[i], reps[i], ref, r);
            w.cycles += reps[i].result.stats.total;
            w.cellMs.push_back(reps[i].wallSeconds * 1e3);
        }
        w.cells += reps.size();
    } while (secondsSince(start) < seconds || w.passSeconds.size() < 3);
    w.wall = secondsSince(start);
    r->attempted += w.cells;
    return w;
}

} // namespace

int
runPaperGrid(const Args &a, const Reference &ref, Result *r)
{
    const std::vector<PaperCell> cells = paperGrid();
    std::vector<RunRequest> grid;
    for (const PaperCell &c : cells)
        grid.push_back(c.req);
    std::mt19937_64 rng(a.seed);

    std::unique_ptr<Engine> eng = setUpEngine(grid, r);
    if (!eng)
        return 1;

    const CpuTimes c0 = cpuTimes();
    Window plain = measure(*eng, cells, &rng, a.seconds, ref, r);
    const CpuTimes c1 = cpuTimes();
    if (!a.trace) {
        r->set("ops_per_s", grid.size() / median(plain.passSeconds));
        // Over every pass's cells: a pass's p99 is one of its two
        // largest cells, the pooled p99 the middle of that cluster.
        r->set("op_p50_ms", percentile(plain.cellMs, 0.5));
        r->set("op_p99_ms", percentile(plain.cellMs, 0.99));
        r->set("peak_rss_mb", peakRssMb());
        return 0;
    }

    // Traced pass: the same grid with a recorder on the engine.
    TraceRecorder trace;
    eng->setTrace(&trace);
    const EngineCounters e0 = engineCounters(*eng);
    Window traced = measure(*eng, cells, &rng, a.seconds, ref, r);
    engineMetrics(e0, engineCounters(*eng), traced.wall, eng->threadCount(),
                  r);
    eng->setTrace(nullptr);

    // Ledger: replay every cell once on a cold engine, so the compile
    // work that setup_s pays is split into its layers too.
    Engine cold(1);
    cold.setTrace(&trace);
    const LedgerTotals ledger =
        replayCells(cold, grid, loadThreads(), &trace, r);
    cold.setTrace(nullptr);

    r->set("proc.minor_faults_per_cell",
           static_cast<double>(c1.minorFaults - c0.minorFaults) / plain.cells);
    r->set("sim.mcycles_per_s", plain.cycles / plain.wall / 1e6);
    r->set("ops.samples", static_cast<double>(plain.cells));
    r->set("trace.overhead_share",
           1.0 - median(plain.passSeconds) / median(traced.passSeconds));

    Json extra = Json::object();
    extra.set("gridCells", static_cast<uint64_t>(grid.size()));
    extra.set("cyclesPerPass", plain.cycles / (plain.cells / grid.size()));
    finishTraced("paper_grid", a, ledger, extra, trace, r);
    return 0;
}

} // namespace perfbench
