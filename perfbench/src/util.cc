#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "analysis/checkplace.h"
#include "bench.h"
#include "core/experiment.h"
#include "core/report.h"
#include "programs/programs.h"
#include "support/format.h"

namespace perfbench {

using namespace mxl;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- metric sets ---------------------------------------------------------

const std::vector<MetricSpec> &
endToEndSpec()
{
    static const std::vector<MetricSpec> spec = {
        {"setup_s", "s"},
        {"ops_per_s", "1/s"},
        {"op_p50_ms", "ms"},
        {"op_p99_ms", "ms"},
        {"peak_rss_mb", "MB"},
    };
    return spec;
}

const std::vector<MetricSpec> &
perLayerSpec()
{
    static const std::vector<MetricSpec> spec = {
        {"sim.mcycles_per_s", "Mcycles/s"},
        {"sexpr.parse_ms", "ms"},
        {"compiler.compile_ms", "ms"},
        {"compiler.code_insts", "count"},
        {"exec.translate_ms", "ms"},
        {"analysis.place_ms", "ms"},
        {"analysis.verify_ms", "ms"},
        {"image.materialize_ms", "ms"},
        {"image.live_share", "share"},
        {"exec.run_ms", "ms"},
        {"exec.mcycles_per_s", "Mcycles/s"},
        {"machine.run_ms", "ms"},
        {"machine.mcycles_per_s", "Mcycles/s"},
        {"ledger.other_ms", "ms"},
        {"ledger.cell_ms", "ms"},
        {"ledger.cells", "count"},
        {"engine.cache_hit_share", "share"},
        {"engine.fallback_share", "share"},
        {"engine.queue_wait_ms", "ms"},
        {"engine.worker_busy_share", "share"},
        {"engine.overhead_ms", "ms"},
        {"engine.image_ms", "ms"},
        {"proc.minor_faults_per_cell", "count"},
        {"proc.user_s", "s"},
        {"proc.sys_s", "s"},
        {"faults.golden_s", "s"},
        {"faults.trial_ms", "ms"},
        {"faults.interp_trial_share", "share"},
        {"faults.detected", "count"},
        {"faults.silent", "count"},
        {"faults.crash", "count"},
        {"faults.cycle_limit", "count"},
        {"faults.masked", "count"},
        {"faults.skipped", "count"},
        {"sandbox.spawns", "count"},
        {"sandbox.watchdog_kills", "count"},
        {"sandbox.requeues", "count"},
        {"sandbox.abandoned", "count"},
        {"serve.first_cell_ms", "ms"},
        {"serve.tail_ms", "ms"},
        {"serve.shed", "count"},
        {"serve.worker_deaths", "count"},
        {"serve.worker_compile_share", "share"},
        {"serve.cache_hit_share", "share"},
        {"serve.program_request_share", "share"},
        {"count.sim_cycles", "count"},
        {"count.instructions", "count"},
        {"count.cache_hits", "count"},
        {"count.cache_misses", "count"},
        {"ops.samples", "count"},
        {"fail_share", "share"},
        {"trace.overhead_share", "share"},
    };
    return spec;
}

// ---- Result --------------------------------------------------------------

void
Result::set(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lk(mu);
    values[name] = value;
}

void
Result::failedOp(const std::string &why)
{
    std::lock_guard<std::mutex> lk(mu);
    ++failed;
    if (mismatches.size() < 16)
        mismatches.push_back("failed: " + why);
}

void
Result::mismatch(const std::string &why)
{
    std::lock_guard<std::mutex> lk(mu);
    ++failed;
    correct = false;
    if (mismatches.size() < 16)
        mismatches.push_back("mismatch: " + why);
}

namespace {

double
valueOr0(const std::map<std::string, double> &values, const char *name)
{
    auto it = values.find(name);
    return it == values.end() || !std::isfinite(it->second) ? 0
                                                            : it->second;
}

} // namespace

void
Result::print(const std::string &workload, bool trace) const
{
    std::lock_guard<std::mutex> lk(mu);
    std::printf("%s (%s): %llu attempted, %llu failed, fail_share %.6f, "
                "%s\n",
                workload.c_str(), trace ? "traced" : "end-to-end",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                attempted ? static_cast<double>(failed) / attempted : 0.0,
                correct ? "outputs correct" : "OUTPUTS WRONG");
    for (const MetricSpec &m : trace ? perLayerSpec() : endToEndSpec())
        std::printf("  %-28s %16.6f %s\n", m.name, valueOr0(values, m.name),
                    m.unit);
    for (const std::string &s : mismatches)
        std::fprintf(stderr, "perfbench: %s\n", s.c_str());
}

std::string
Result::json(bool trace) const
{
    std::lock_guard<std::mutex> lk(mu);
    Json metrics = Json::object();
    for (const MetricSpec &m : trace ? perLayerSpec() : endToEndSpec()) {
        Json v = Json::object();
        v.set("value", valueOr0(values, m.name));
        v.set("unit", m.unit);
        metrics.set(m.name, std::move(v));
    }
    Json j = Json::object();
    j.set("correct", correct);
    j.set("attempted", attempted);
    j.set("failed", failed);
    j.set("metrics", std::move(metrics));
    return j.dump();
}

// ---- statistics and process accounting -------------------------------------

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest sample with at least p of the
    // samples at or below it.
    size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
    return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double
medianRate(std::vector<double> doneAt)
{
    constexpr size_t kRuns = 5;
    std::sort(doneAt.begin(), doneAt.end());
    const size_t n = doneAt.size();
    if (n <= kRuns)
        return n && doneAt.back() > 0 ? n / doneAt.back() : 0;
    std::vector<double> rates;
    for (size_t k = 0; k < kRuns; ++k) {
        // Run k spans the completions after index lo up to index hi.
        const size_t lo = k * (n - 1) / kRuns, hi = (k + 1) * (n - 1) / kRuns;
        const double span = doneAt[hi] - doneAt[lo];
        if (span > 0)
            rates.push_back((hi - lo) / span);
    }
    return median(std::move(rates));
}

double
peakRssMb()
{
    struct rusage self {}, kids {};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return std::max(self.ru_maxrss, kids.ru_maxrss) / 1024.0;
}

CpuTimes
cpuTimes()
{
    struct rusage self {}, kids {};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    auto secs = [](const timeval &tv) {
        return tv.tv_sec + tv.tv_usec / 1e6;
    };
    CpuTimes t;
    t.user = secs(self.ru_utime) + secs(kids.ru_utime);
    t.sys = secs(self.ru_stime) + secs(kids.ru_stime);
    t.minorFaults = static_cast<uint64_t>(self.ru_minflt);
    t.childMinorFaults = static_cast<uint64_t>(kids.ru_minflt);
    return t;
}

unsigned
loadThreads()
{
    return std::max(1u, std::thread::hardware_concurrency() / 2);
}

unsigned
loadProcs()
{
    const unsigned cores = std::thread::hardware_concurrency();
    return cores > 1 ? cores - 1 : 1;
}

std::string
tmpDir()
{
    const std::string dir = ".perfbench_tmp";
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

// ---- reference data ------------------------------------------------------

namespace {

bool
loadJson(const std::string &path, Json *out, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = "cannot read " + path;
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    if (!Json::parse(ss.str(), out) || !out->isObject()) {
        *err = path + " is not a JSON object";
        return false;
    }
    return true;
}

} // namespace

bool
Reference::load(const std::string &dataDir, std::string *err)
{
    Json outs, ref;
    if (!loadJson(dataDir + "/expected_outputs.json", &outs, err) ||
        !loadJson(dataDir + "/reference.json", &ref, err))
        return false;
    for (size_t i = 0; i < outs.size(); ++i)
        outputs[outs.entry(i).first] = outs.entry(i).second.str();
    const Json *c = ref.find("cycles");
    const Json *t = ref.find("trials");
    if (!c || !t || !c->isObject() || !t->isObject()) {
        *err = "reference.json lacks the cycles/trials objects";
        return false;
    }
    for (size_t i = 0; i < c->size(); ++i)
        cycles[c->entry(i).first] = c->entry(i).second.asUint();
    for (size_t i = 0; i < t->size(); ++i)
        trials[t->entry(i).first] = t->entry(i).second.str();
    if (outputs.size() != benchmarkPrograms().size()) {
        *err = "expected_outputs.json must name all ten programs";
        return false;
    }
    return true;
}

// ---- the paper grid ------------------------------------------------------

namespace {

void
addPrograms(std::vector<PaperCell> *out, const CompilerOptions &opts,
            const std::string &prefix)
{
    for (RunRequest &req : programGrid(opts)) {
        PaperCell c;
        c.program = req.label;
        req.label = prefix + req.label;
        c.req = std::move(req);
        out->push_back(std::move(c));
    }
}

} // namespace

std::vector<PaperCell>
ladderCells()
{
    std::vector<PaperCell> cells;
    for (Checking chk : {Checking::Off, Checking::Full}) {
        const char *col = chk == Checking::Off ? "off" : "full";
        addPrograms(&cells, baselineOptions(chk),
                    strcat("ladder/base-", col, "/"));
        for (const Table2Config &row : table2Configs())
            addPrograms(&cells, row.withChecking(chk),
                        strcat("ladder/", row.id, "-", col, "/"));
    }
    return cells;
}

std::vector<PaperCell>
paperGrid()
{
    std::vector<PaperCell> cells = ladderCells();
    // Table 1: per-PC profiles of the baseline at both checking
    // settings (the profile seam runs on the interpreter).
    for (Checking chk : {Checking::Off, Checking::Full}) {
        size_t first = cells.size();
        addPrograms(&cells, baselineOptions(chk),
                    chk == Checking::Off ? "profile/off/" : "profile/full/");
        for (size_t i = first; i < cells.size(); ++i)
            cells[i].req.hooks.collectProfile = true;
    }
    // The check-placement rung (bench_checkelim's placed column): the
    // transform and the load-time verifier run on every cell.
    size_t first = cells.size();
    addPrograms(&cells, baselineOptions(Checking::Full), "placed/");
    for (size_t i = first; i < cells.size(); ++i)
        cells[i].req.hooks.unitTransform =
            [](std::shared_ptr<const CompiledUnit> u) {
                return checkPlaceTransform(u);
            };
    return cells;
}

EngineCounters
engineCounters(Engine &engine)
{
    MetricsRegistry &m = engine.metrics();
    Engine::CacheStats cs = engine.cacheStats();
    EngineCounters c;
    c.hits = cs.hits;
    c.misses = cs.misses;
    c.runs = m.counter("engine.runs").value();
    c.fallbacks = m.counter("engine.backend.fallbacks").value();
    Histogram &q = m.histogram("engine.queue_wait_micros");
    c.queueCount = q.count();
    c.queueMicros = q.sum();
    c.cellMicros = m.histogram("engine.cell_micros").sum();
    c.compileMicros = m.counter("engine.compile_micros").value();
    c.runMicros = m.counter("engine.run_micros").value();
    for (unsigned w = 1; w <= engine.threadCount(); ++w)
        c.busyMicros +=
            m.counter(strcat("engine.worker.", w, ".busy_micros")).value();
    return c;
}

void
engineMetrics(const EngineCounters &a, const EngineCounters &b,
              double wallSeconds, unsigned threads, Result *r)
{
    const uint64_t lookups = (b.hits - a.hits) + (b.misses - a.misses);
    const uint64_t runs = b.runs - a.runs;
    const uint64_t queued = b.queueCount - a.queueCount;
    r->set("engine.cache_hit_share",
           lookups ? static_cast<double>(b.hits - a.hits) / lookups : 0);
    r->set("engine.fallback_share",
           runs ? static_cast<double>(b.fallbacks - a.fallbacks) / runs : 0);
    // The engine's own cell time outside compile and execute: its
    // image expansion and bookkeeping (plus unitTransform + verifyUnit
    // on cells that carry a transform).
    const uint64_t between = (b.cellMicros - a.cellMicros) -
                             (b.compileMicros - a.compileMicros) -
                             (b.runMicros - a.runMicros);
    r->set("engine.image_ms",
           runs ? static_cast<double>(between) / 1e3 / runs : 0);
    r->set("engine.queue_wait_ms",
           queued ? (b.queueMicros - a.queueMicros) / 1e3 / queued : 0);
    r->set("engine.worker_busy_share",
           wallSeconds > 0 && threads > 0
               ? (b.busyMicros - a.busyMicros) / 1e6 /
                     (wallSeconds * threads)
               : 0);
}

void
parallelFor(size_t n, unsigned threads,
            const std::function<void(unsigned thread, size_t i)> &fn)
{
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            for (size_t i; (i = next.fetch_add(1)) < n;)
                fn(t, i);
        });
    for (std::thread &t : pool)
        t.join();
}

bool
precompile(Engine &engine, const std::vector<RunRequest> &reqs, Result *r)
{
    // Engine::compile fills the Auto-tier entry, the one runs use.
    std::vector<const RunRequest *> unique;
    std::set<std::string> seen;
    for (const RunRequest &req : reqs)
        if (seen.insert(Engine::cacheKey(req.source, req.opts, Backend::Auto))
                .second)
            unique.push_back(&req);
    std::atomic<bool> ok{true};
    parallelFor(unique.size(), loadThreads(), [&](unsigned, size_t i) {
        Engine::CompileOutcome c =
            engine.compile(unique[i]->source, unique[i]->opts);
        if (!c.status.ok()) {
            r->mismatch(strcat(unique[i]->label, ": does not compile: ",
                               c.status.message));
            ok = false;
        }
    });
    return ok;
}

std::unique_ptr<Engine>
setUpEngine(const std::vector<RunRequest> &reqs, Result *r)
{
    std::vector<double> setups;
    std::unique_ptr<Engine> eng;
    for (int k = 0; k < 3; ++k) {
        eng.reset();
        const Clock::time_point t0 = Clock::now();
        eng = std::make_unique<Engine>(loadThreads());
        if (!precompile(*eng, reqs, r))
            return nullptr;
        setups.push_back(secondsSince(t0));
    }
    r->set("setup_s", median(setups));
    return eng;
}

} // namespace perfbench
