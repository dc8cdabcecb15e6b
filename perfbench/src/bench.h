/**
 * @file
 * perfbench: the repository benchmark. One binary, three workloads
 * (paper_grid, fault_campaign, serve_closed), each driven only through
 * mxlisp's public entry points. See perfbench/README.md for why each
 * workload exists and which layer metric should move which end-to-end
 * metric.
 *
 * A run with --trace 0 measures the end-to-end metrics with tracing
 * off. A run with --trace 1 measures the same workload untraced and
 * then traced (the difference is the tracing overhead), and replays a
 * fixed set of its cells through the per-module public functions to
 * split each cell's host time into layers (ledger.cc).
 */

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "faults/campaign.h"
#include "obs/trace.h"
#include "support/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

/** Command-line arguments shared by every workload. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string dataDir = "perfbench/data";
};

/**
 * What one run reports: the correctness verdict, operation counts for
 * fail_share, and metric values by name. json() emits exactly the
 * end-to-end set (trace off) or the per-layer set (trace on), in the
 * order of BENCHMARK.json, with 0 for a layer the workload never
 * reaches.
 */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> mismatches; ///< first few, for stderr
    std::map<std::string, double> values;
    mutable std::mutex mu; ///< workload threads report concurrently

    void set(const std::string &name, double value);

    /** A failed operation that is not a correctness mismatch (shed,
     *  abandoned, transport error): counted in fail_share only. */
    void failedOp(const std::string &why);

    /** A wrong output / cycle count / outcome: fails the run. */
    void mismatch(const std::string &why);

    /** Human-readable metric table (stdout, before the JSON line). */
    void print(const std::string &workload, bool trace) const;

    /** Final JSON line (the benchmark's machine-readable result). */
    std::string json(bool trace) const;
};

/** A metric of BENCHMARK.json: name and unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};
const std::vector<MetricSpec> &endToEndSpec();
const std::vector<MetricSpec> &perLayerSpec();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile of @p v, @p p in [0, 1] (0 when empty). */
double percentile(std::vector<double> v, double p);

/**
 * Completions per second, given the completion times @p doneAt
 * (seconds from the window start): the window's completions are cut
 * into five runs of equal count, and the median of their rates is
 * returned, so a few seconds of a slowed host do not move it.
 */
double medianRate(std::vector<double> doneAt);

/** Larger of this process's and its largest reaped child's peak RSS. */
double peakRssMb();

/** User / system CPU seconds of this process plus reaped children. */
struct CpuTimes
{
    double user = 0;
    double sys = 0;
    uint64_t minorFaults = 0;      ///< this process
    uint64_t childMinorFaults = 0; ///< reaped children
};
CpuTimes cpuTimes();

/**
 * Worker threads / client connections to use: half the cores (at
 * least one). The host is shared, so load on every core measures the
 * scheduler and the neighbours as much as the program.
 */
unsigned loadThreads();

/**
 * Forked child processes to use: every core but one (at least one),
 * which is left to the parent that feeds them. Children share no
 * address space, so unlike threads they do not serialize on one
 * process's page faults.
 */
unsigned loadProcs();

/** Scratch directory inside the checkout (created on demand). */
std::string tmpDir();

/**
 * Reference data carried with the benchmark: each paper program's
 * expected output (hand-written), the simulated cycle count of every
 * paper_grid cell and campaign golden, and every fault_campaign
 * trial's outcome and cycles.
 */
struct Reference
{
    std::map<std::string, std::string> outputs;  ///< program -> output
    std::map<std::string, uint64_t> cycles;      ///< cell label -> cycles
    /** "program@index/config/class/trial" -> "outcome cycles". */
    std::map<std::string, std::string> trials;
    bool load(const std::string &dataDir, std::string *err);
};

// ---- the paper grid (shared by paper_grid, serve_closed, references) --

/** One labeled cell of the paper's grid. */
struct PaperCell
{
    mxl::RunRequest req;
    std::string program;
};

/**
 * Table-2 ladder (baseline + rows 1-7, Checking Off and Full) for the
 * ten programs, the Table-1 profile cells, and the check-placement
 * rung. Request order is fixed; callers shuffle.
 */
std::vector<PaperCell> paperGrid();

/** The ladder part of paperGrid() only (no hooks). */
std::vector<PaperCell> ladderCells();

// ---- generated tiny programs ------------------------------------------

/** A small MX-Lisp program with its host-computed printed output. */
struct TinyProgram
{
    std::string source;
    std::string expected;
};

/**
 * Deterministic generator: @p index selects the program family and
 * its parameters; different (seed, index) pairs give different
 * sources (the index is embedded), the same pair the same source.
 */
TinyProgram tinyProgram(uint64_t seed, uint64_t index);

/**
 * Check the cycle counts observed for tiny programs (@p seen: program
 * index, cycles): every occurrence of one source must agree, and must
 * equal a run on the reference interpreter (runUnitOn over @p
 * engine's compilation), on loadThreads() threads.
 */
void checkTinyCycles(mxl::Engine &engine, uint64_t seed,
                     const std::vector<std::pair<uint64_t, uint64_t>> &seen,
                     Result *r);

// ---- the per-layer ledger ---------------------------------------------

enum Layer
{
    kParse,
    kCompile,
    kTranslate,
    kPlace,
    kVerify,
    kImage,
    kExecute,
    kOther,
    kLayers,
};

/** Per-layer totals over a set of replayed cells. */
struct LedgerTotals
{
    uint64_t cells = 0;
    uint64_t micros[kLayers] = {};
    uint64_t cellMicros = 0;      ///< sum of cell spans
    uint64_t execMicrosTrans = 0; ///< execute on the translated backend
    uint64_t execMicrosInterp = 0;
    uint64_t cyclesTrans = 0;
    uint64_t cyclesInterp = 0;
    uint64_t cellsTrans = 0;
    uint64_t cellsInterp = 0;
    uint64_t simCycles = 0;
    uint64_t instructions = 0;
    uint64_t compiles = 0;
    uint64_t codeInsts = 0;     ///< summed over compiled units
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    double liveShareSum = 0;    ///< summed live/full image ratio
    std::vector<double> overheadMs; ///< Engine::run wall - layer sum
    std::map<std::string, uint64_t> fallbackNotes;

    void add(const LedgerTotals &o);
};

/**
 * Replay @p cells on @p threads threads: each cell runs through
 * @p engine's Engine::run (timed from outside), then through the
 * public layer functions — readAll, compileUnit, translateUnit, the
 * request's unitTransform, verifyUnit, Memory materialization,
 * runUnitOn / runTranslated — mirroring the engine's cache verdict,
 * with one span per layer recorded into @p trace under one trace id
 * per cell. A replay whose cycles or output differ from the engine's,
 * or whose ledger does not sum to its cell span, is a mismatch. Sets
 * the ledger's per-layer metrics and returns the totals.
 */
LedgerTotals replayCells(mxl::Engine &engine,
                         const std::vector<mxl::RunRequest> &cells,
                         unsigned threads, mxl::TraceRecorder *trace,
                         Result *r);

/**
 * Finish a traced run: set proc.user_s / proc.sys_s, print the
 * interpreter-fallback reasons, and write BENCH_perfbench_<workload>.json
 * (seed, fallback reasons, @p extra's fields) and the validated trace
 * BENCH_perfbench_<workload>_trace.json. A failed write is a mismatch.
 */
void finishTraced(const std::string &workload, const Args &a,
                  const LedgerTotals &ledger, const mxl::Json &extra,
                  const mxl::TraceRecorder &trace, Result *r);

/** The full pristine image of an engine-cached (trimmed) unit: the
 *  benchmark's own copy of the engine's file-local expandImage, so an
 *  engine change to image handling does not move it (engine.image_ms
 *  reads the engine's own cost). */
mxl::Memory materialize(const mxl::CompiledUnit &unit);

/** Engine counters at one instant (deltas give a window's share). */
struct EngineCounters
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t runs = 0;
    uint64_t fallbacks = 0;
    uint64_t queueCount = 0;
    uint64_t queueMicros = 0;
    uint64_t busyMicros = 0; ///< summed over started workers
    uint64_t cellMicros = 0; ///< engine.cell_micros histogram sum
    uint64_t compileMicros = 0;
    uint64_t runMicros = 0;
};
EngineCounters engineCounters(mxl::Engine &engine);

/** Set the engine.* per-layer metrics for the window [a, b] of
 *  @p wallSeconds on an engine with @p threads grid workers. */
void engineMetrics(const EngineCounters &a, const EngineCounters &b,
                   double wallSeconds, unsigned threads, Result *r);

/** Call @p fn(thread, i) for every i in [0, n) on @p threads threads. */
void parallelFor(size_t n, unsigned threads,
                 const std::function<void(unsigned thread, size_t i)> &fn);

/** Compile every distinct (source, options) of @p reqs through
 *  @p engine's cache on loadThreads() threads; false on any error. */
bool precompile(mxl::Engine &engine,
                const std::vector<mxl::RunRequest> &reqs, Result *r);

/**
 * The engine workloads' set-up, done three times: a fresh engine with
 * loadThreads() grid workers and every distinct cell of @p reqs
 * precompiled. Sets setup_s to the median time and returns the last
 * engine (null when a cell does not compile).
 */
std::unique_ptr<mxl::Engine>
setUpEngine(const std::vector<mxl::RunRequest> &reqs, Result *r);

// ---- workloads ---------------------------------------------------------

int runPaperGrid(const Args &a, const Reference &ref, Result *r);
int runFaultCampaign(const Args &a, const Reference &ref, Result *r);
int runServeClosed(const Args &a, const Reference &ref, Result *r);

/** Regenerate perfbench/data/reference.json from the current build. */
int emitReference(const std::string &path);

/** The four programs of the fault campaign, in their reference order. */
const std::vector<std::string> &campaignPrograms();

/** The fault campaign shared by the workload and the reference. */
mxl::Campaign faultCampaign(const std::vector<std::string> &programs,
                            const Reference &ref);

/** bench_faults' sandbox settings (loadProcs() children, its
 *  watchdog) with the trial journal at @p journal ("" for none). */
mxl::CampaignRunOptions campaignOptions(const mxl::Campaign &c,
                                        const std::string &journal);

/** Reference key of a trial: "program@position/config/class/trial". */
std::string trialKey(const mxl::Campaign &c, const mxl::CampaignResult &res,
                     const mxl::TrialRecord &t);

/** Reference value of a trial: "outcome cycles". */
std::string trialOutcome(const mxl::TrialRecord &t);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
