/**
 * Tests for the src/obs/ observability layer: the instruction
 * profiler's sum invariants on every benchmark program, symbolization
 * against the assembler label table, the metrics registry (including
 * thread safety under Engine::runGrid — run this binary under
 * -DMXL_SANITIZE=thread), histogram percentiles and the cross-process
 * delta/merge relay, Chrome trace parse-back and the fork-boundary
 * drain/import path, the structured event log, and the BENCH_*.json
 * comparison used by tools/bench_diff.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/experiment.h"
#include "core/report.h"
#include "core/run.h"
#include "obs/bench_compare.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "support/panic.h"

namespace mxl {
namespace {

RunRequest
request(const std::string &source, Checking checking,
        const std::string &label)
{
    RunRequest req;
    req.source = source;
    req.opts = baselineOptions(checking);
    req.label = label;
    return req;
}

/** A hand-built bench cell in the shape runReportJson() produces. */
Json
benchCell(const std::string &label, uint64_t total, bool ok = true)
{
    Json stats = Json::object();
    stats.set("total", total);
    Json c = Json::object();
    c.set("label", label);
    c.set("statusOk", ok);
    c.set("stats", std::move(stats));
    return c;
}

} // namespace

// ---------------------------------------------------------------------
// Instruction profiler
// ---------------------------------------------------------------------

TEST(Profiler, SumInvariantsOnEveryBenchmarkProgram)
{
    Engine eng;
    for (Checking chk : {Checking::Off, Checking::Full}) {
        std::vector<RunRequest> grid = programGrid(baselineOptions(chk));
        for (RunRequest &req : grid)
            req.hooks.collectProfile = true;
        std::vector<RunReport> reports = eng.runGrid(grid);
        ASSERT_EQ(reports.size(), grid.size());
        for (const RunReport &rep : reports) {
            ASSERT_TRUE(rep.ok()) << rep.status.message;
            ASSERT_TRUE(rep.result.profile) << rep.label;
            const PcProfile &p = *rep.result.profile;
            EXPECT_EQ(p.totalCycles(), rep.result.stats.total)
                << rep.label;
            EXPECT_EQ(p.totalExecuted(), rep.result.stats.instructions)
                << rep.label;
        }
    }
}

TEST(Profiler, SymbolizationConservesCyclesAndPurposes)
{
    Engine eng;
    std::vector<RunRequest> grid =
        programGrid(baselineOptions(Checking::Full));
    for (RunRequest &req : grid)
        req.hooks.collectProfile = true;
    std::vector<RunReport> reports = eng.runGrid(grid);
    for (size_t i = 0; i < reports.size(); ++i) {
        ASSERT_TRUE(reports[i].ok());
        // Cache hit: the grid above already compiled this cell.
        auto c = eng.compile(grid[i].source, grid[i].opts);
        auto funcs = symbolize(c.unit->prog, *reports[i].result.profile);
        uint64_t cycles = 0, executed = 0, checking = 0;
        int lastEnd = 0;
        for (const FunctionProfile &f : funcs) {
            EXPECT_LT(f.begin, f.end) << f.name;
            EXPECT_GE(f.begin, lastEnd) << f.name; // address order
            lastEnd = f.end;
            uint64_t byPurpose = 0;
            for (int p = 0; p < numPurposes; ++p)
                byPurpose += f.byPurpose[p];
            EXPECT_EQ(byPurpose, f.cycles) << f.name;
            EXPECT_LE(f.checkingCycles, f.cycles) << f.name;
            cycles += f.cycles;
            executed += f.executed;
            checking += f.checkingCycles;
        }
        EXPECT_EQ(cycles, reports[i].result.stats.total)
            << reports[i].label;
        EXPECT_EQ(executed, reports[i].result.stats.instructions)
            << reports[i].label;
        // Full checking makes *someone* pay the tax on every program.
        EXPECT_GT(checking, 0u) << reports[i].label;
    }
}

TEST(Profiler, SymbolizeMapsKnownLabelToItsPcRange)
{
    Engine eng;
    RunRequest req =
        request("(de myfun (x) (+ x 1)) (print (myfun 41))",
                Checking::Full, "myfun");
    req.hooks.collectProfile = true;
    RunReport rep = eng.run(req);
    ASSERT_TRUE(rep.ok()) << rep.status.message;
    ASSERT_TRUE(rep.result.profile);

    auto c = eng.compile(req.source, req.opts);
    const Program &prog = c.unit->prog;
    int addr = prog.symbol("fn_myfun");
    ASSERT_GE(addr, 0);

    auto funcs = symbolize(prog, *rep.result.profile);
    const FunctionProfile *f = nullptr;
    for (const FunctionProfile &fp : funcs)
        if (fp.name == "fn_myfun")
            f = &fp;
    ASSERT_NE(f, nullptr) << "fn_myfun missing from symbolization";
    EXPECT_EQ(f->begin, addr);
    EXPECT_GT(f->executed, 0u);
    EXPECT_GT(f->cycles, 0u);
    // Every cycle the region was charged lives inside [begin, end).
    uint64_t inRange = 0;
    for (int pc = f->begin; pc < f->end; ++pc)
        inRange += rep.result.profile->cycles[pc];
    EXPECT_EQ(inRange, f->cycles);

    Json j = functionProfileJson(funcs);
    ASSERT_TRUE(j.isArray());
    EXPECT_EQ(j.size(), funcs.size());
    EXPECT_TRUE(Json::roundTrips(j));
    EXPECT_FALSE(renderCheckingTax(funcs, 4).empty());
}

TEST(Profiler, ProfileOnlyWhenRequestedAndNotPartOfCacheKey)
{
    Engine eng;
    RunRequest req = request("(print (add1 1))", Checking::Off, "p");
    RunReport plain = eng.run(req);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(plain.result.profile, nullptr);

    // collectProfile is a run-time accessory: the compiled unit is
    // shared (cache hit), the profile still gets collected.
    req.hooks.collectProfile = true;
    RunReport profiled = eng.run(req);
    ASSERT_TRUE(profiled.ok());
    EXPECT_TRUE(profiled.cacheHit);
    ASSERT_TRUE(profiled.result.profile);
    EXPECT_EQ(profiled.result.profile->totalCycles(),
              profiled.result.stats.total);
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST(Metrics, HistogramBucketsByBitWidth)
{
    Histogram h;
    h.observe(0);    // bit width 0
    h.observe(1);    // bit width 1
    h.observe(2);    // bit width 2
    h.observe(3);    // bit width 2
    h.observe(1000); // bit width 10
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 1006u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 5.0);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(10), 1u);
    EXPECT_EQ(h.bucket(3), 0u);
    EXPECT_TRUE(Json::roundTrips(h.toJson()));
}

TEST(Metrics, HandlesAreStableAndKindMismatchPanics)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("x");
    Counter &b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    EXPECT_THROW(reg.gauge("x"), MxlError);
    EXPECT_THROW(reg.histogram("x"), MxlError);

    Gauge &g = reg.gauge("depth");
    g.set(5);
    g.add(-2);
    EXPECT_EQ(g.value(), 3);
}

TEST(Metrics, SnapshotIsDeterministic)
{
    auto build = [] {
        auto reg = std::make_unique<MetricsRegistry>();
        reg->counter("b.count").inc(3);
        reg->counter("a.count").inc(7);
        reg->gauge("depth").set(-4);
        reg->histogram("lat").observe(17);
        return reg;
    };
    auto r1 = build(), r2 = build();
    Json s1 = r1->snapshot(), s2 = r2->snapshot();
    EXPECT_EQ(s1.dump(), s2.dump());
    EXPECT_TRUE(Json::roundTrips(s1));
    const Json *counters = s1.find("counters");
    ASSERT_NE(counters, nullptr);
    const Json *a = counters->find("a.count");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->asUint(), 7u);
}

TEST(Metrics, SnapshotJsonRoundTripsByteIdentically)
{
    // snapshotJson() is the health-endpoint export (serve/server.cc):
    // it must be exactly snapshot().dump() — parseable, and re-dumping
    // the parse reproduces the text byte for byte, so two scrapes of
    // an unchanged registry compare equal as strings.
    MetricsRegistry reg;
    reg.counter("serve.requests").inc(12);
    reg.counter("engine.runs").inc(5);
    reg.gauge("serve.queue.depth").set(3);
    reg.histogram("serve.cell_micros").observe(1024);

    std::string text = reg.snapshotJson();
    EXPECT_EQ(text, reg.snapshot().dump());

    Json parsed;
    ASSERT_TRUE(Json::parse(text, &parsed));
    EXPECT_EQ(parsed.dump(), text);
    EXPECT_EQ(parsed.find("counters")->find("serve.requests")->asUint(),
              12u);
    EXPECT_EQ(parsed.find("gauges")->find("serve.queue.depth")->asInt(),
              3);

    // Unchanged registry, second scrape: identical text.
    EXPECT_EQ(reg.snapshotJson(), text);
}

TEST(Metrics, ExactUnderConcurrentBumpsAndLookups)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("shared.counter");
    Gauge &g = reg.gauge("shared.gauge");
    Histogram &h = reg.histogram("shared.hist");

    constexpr int kThreads = 8, kIters = 20'000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            // Concurrent first-use registration of a fresh name...
            Counter &mine =
                reg.counter("worker." + std::to_string(t) + ".ops");
            for (int i = 0; i < kIters; ++i) {
                c.inc();
                g.add(1);
                h.observe(static_cast<uint64_t>(i));
                mine.inc();
                // ...and lock-taking lookups racing the hot path.
                if (i % 1000 == 0)
                    reg.counter("shared.counter").inc(0);
            }
            // Snapshots may race the writers (torn totals are fine;
            // data races are not — TSan enforces the distinction).
            Json snap = reg.snapshot();
            EXPECT_TRUE(snap.isObject());
        });
    }
    for (std::thread &w : workers)
        w.join();

    EXPECT_EQ(c.value(), uint64_t(kThreads) * kIters);
    EXPECT_EQ(g.value(), int64_t(kThreads) * kIters);
    EXPECT_EQ(h.count(), uint64_t(kThreads) * kIters);
    for (int t = 0; t < kThreads; ++t) {
        Counter &mine =
            reg.counter("worker." + std::to_string(t) + ".ops");
        EXPECT_EQ(mine.value(), uint64_t(kIters));
    }
}

TEST(Metrics, EngineInstrumentsGridRuns)
{
    Engine eng(4);
    std::vector<RunRequest> grid =
        programGrid(baselineOptions(Checking::Off));
    std::vector<RunReport> first = eng.runGrid(grid);
    for (const RunReport &rep : first)
        ASSERT_TRUE(rep.ok());

    MetricsRegistry &m = eng.metrics();
    const uint64_t cells = grid.size();
    EXPECT_EQ(m.counter("engine.runs").value(), cells);
    EXPECT_EQ(m.counter("engine.cache.misses").value(), cells);
    EXPECT_EQ(m.counter("engine.cache.hits").value(), 0u);
    EXPECT_EQ(m.histogram("engine.queue_wait_micros").count(), cells);
    EXPECT_EQ(m.histogram("engine.cell_micros").count(), cells);

    // Same grid again: all hits, runs double, and the registry view
    // agrees with the engine's own cache accounting.
    eng.runGrid(grid);
    EXPECT_EQ(m.counter("engine.runs").value(), 2 * cells);
    EXPECT_EQ(m.counter("engine.cache.hits").value(), cells);
    auto cs = eng.cacheStats();
    EXPECT_EQ(m.counter("engine.cache.hits").value(), cs.hits);
    EXPECT_EQ(m.counter("engine.cache.misses").value(), cs.misses);

    // Per-worker utilization counters registered by the pool.
    Json snap = m.snapshot();
    const Json *counters = snap.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_NE(counters->find("engine.worker.1.busy_micros"), nullptr);
    EXPECT_TRUE(Json::roundTrips(snap));
}

TEST(Metrics, HistogramPercentileIsNearestRankBucketUpperBound)
{
    Histogram h;
    EXPECT_EQ(h.percentile(0.50), 0u); // empty
    // 10 observations: nine of value 3 (bucket [2,3]) and one of 1000
    // (bucket [512,1023]).
    for (int i = 0; i < 9; ++i)
        h.observe(3);
    h.observe(1000);
    // Ranks 1..9 land in the [2,3] bucket: upper bound 3.
    EXPECT_EQ(h.percentile(0.50), 3u);
    EXPECT_EQ(h.percentile(0.90), 3u);
    // Rank 10 lands in the tail bucket, whose upper bound 1023 is
    // clamped to the exact observed max.
    EXPECT_EQ(h.percentile(0.95), 1000u);
    EXPECT_EQ(h.percentile(0.99), 1000u);
    EXPECT_EQ(h.percentile(1.0), 1000u);
    // Out-of-range p clamps rather than misbehaving.
    EXPECT_EQ(h.percentile(-1.0), 3u);
    EXPECT_EQ(h.percentile(2.0), 1000u);

    // Zero-only histogram: bucket 0's upper bound is 0.
    Histogram z;
    z.observe(0);
    EXPECT_EQ(z.percentile(0.99), 0u);
}

TEST(Metrics, SnapshotExportsPercentilesAndStillRoundTrips)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("serve.e2e_micros");
    for (uint64_t v : {10u, 20u, 30u, 4000u})
        h.observe(v);
    Json snap = reg.snapshot();
    const Json *hj = snap.find("histograms")->find("serve.e2e_micros");
    ASSERT_NE(hj, nullptr);
    for (const char *key : {"p50", "p95", "p99"})
        ASSERT_NE(hj->find(key), nullptr) << key;
    EXPECT_EQ(hj->find("p50")->asUint(), h.percentile(0.50));
    EXPECT_EQ(hj->find("p99")->asUint(), h.percentile(0.99));
    // Percentiles are uint64 bucket bounds — the byte-identical
    // round-trip guarantee of the health export is preserved.
    EXPECT_TRUE(Json::roundTrips(snap));
}

TEST(Metrics, DeltaJsonCapturesOnlyGrowthAndAdvancesBaseline)
{
    MetricsRegistry reg;
    reg.counter("engine.runs").inc(3);
    reg.gauge("depth").set(7);
    reg.histogram("lat").observe(100);

    // First delta against an empty baseline: everything appears.
    Json baseline;
    Json d1 = reg.deltaJson(&baseline);
    EXPECT_EQ(d1.find("counters")->find("engine.runs")->asUint(), 3u);
    EXPECT_EQ(d1.find("gauges")->find("depth")->asInt(), 7);
    EXPECT_EQ(
        d1.find("histograms")->find("lat")->find("count")->asUint(),
        1u);

    // Nothing changed: the next delta is empty in every section.
    Json d2 = reg.deltaJson(&baseline);
    EXPECT_EQ(d2.find("counters")->size(), 0u);
    EXPECT_EQ(d2.find("gauges")->size(), 0u);
    EXPECT_EQ(d2.find("histograms")->size(), 0u);

    // Partial change: only the moved metric appears, with the
    // increment (not the absolute) for counters and histograms.
    reg.counter("engine.runs").inc(2);
    reg.histogram("lat").observe(50);
    Json d3 = reg.deltaJson(&baseline);
    EXPECT_EQ(d3.find("counters")->find("engine.runs")->asUint(), 2u);
    EXPECT_EQ(d3.find("gauges")->size(), 0u);
    const Json *lat = d3.find("histograms")->find("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->find("count")->asUint(), 1u);
    EXPECT_EQ(lat->find("sum")->asUint(), 50u);

    // Merging an empty delta is the identity.
    MetricsRegistry other;
    other.merge(d1);
    std::string before = other.snapshotJson();
    other.merge(d2);
    EXPECT_EQ(other.snapshotJson(), before);
}

TEST(Metrics, FallbackReasonsAreCountedAndRelayed)
{
    // Each reason an Auto request drops to the interpreter has its own
    // counter beside the unchanged total, and the split rides the same
    // worker delta relay (and health export) as every engine counter.
    const char *src = "(de f (n) (if (lessp n 1) 0 (+ n (f (sub1 n)))))"
                      "(print (f 30))";
    Engine eng(1);
    RunRequest plain;
    plain.source = src;
    plain.opts = baselineOptions(Checking::Full);

    RunRequest setup = plain;
    setup.hooks.machineSetup = [](Machine &, const CompiledUnit &) {};
    RunRequest transform = plain;
    transform.hooks.unitTransform =
        [](std::shared_ptr<const CompiledUnit> u) { return u; };
    RunRequest refused = plain;
    refused.opts.scheme = SchemeKind::Low2;
    refused.opts.checking = Checking::Off;
    refused.opts.hw.memTagging = true; // the translator declines
    RunRequest profiled = plain; // no longer a fallback
    profiled.hooks.collectProfile = true;

    Json baseline;
    eng.metrics().deltaJson(&baseline);
    for (const RunRequest *r : {&plain, &setup, &transform, &refused,
                                &profiled}) {
        RunReport rep = eng.run(*r);
        ASSERT_TRUE(rep.ok()) << rep.status.message;
    }
    auto value = [&](const char *name) {
        return eng.metrics().counter(name).value();
    };
    EXPECT_EQ(value("engine.backend.fallbacks"), 3u);
    EXPECT_EQ(value("engine.backend.fallback.machine_setup"), 1u);
    EXPECT_EQ(value("engine.backend.fallback.unit_transform"), 1u);
    EXPECT_EQ(value("engine.backend.fallback.translation_refused"), 1u);

    MetricsRegistry parent;
    parent.merge(eng.metrics().deltaJson(&baseline));
    EXPECT_EQ(parent.counter("engine.backend.fallbacks").value(), 3u);
    EXPECT_EQ(
        parent.counter("engine.backend.fallback.machine_setup").value(),
        1u);
    EXPECT_EQ(
        parent.counter("engine.backend.fallback.unit_transform").value(),
        1u);
    EXPECT_EQ(parent.counter("engine.backend.fallback.translation_refused")
                  .value(),
              1u);
    EXPECT_NE(parent.snapshotJson().find(
                  "engine.backend.fallback.translation_refused"),
              std::string::npos);
}

TEST(Metrics, MergeIsOrderIndependentAcrossWorkerDeltas)
{
    // Two "workers" produce deltas; the parent may receive them in
    // any order. Counter and histogram merges are additive (max is a
    // join), so the final snapshots must be byte-identical.
    auto workerDelta = [](uint64_t runs, uint64_t lat) {
        MetricsRegistry w;
        w.counter("engine.runs").inc(runs);
        w.histogram("serve.exec_micros").observe(lat);
        Json baseline;
        return w.deltaJson(&baseline);
    };
    Json d1 = workerDelta(3, 100);
    Json d2 = workerDelta(5, 9000);

    MetricsRegistry a, b;
    a.merge(d1);
    a.merge(d2);
    b.merge(d2);
    b.merge(d1);
    EXPECT_EQ(a.snapshotJson(), b.snapshotJson());
    EXPECT_EQ(a.counter("engine.runs").value(), 8u);
    EXPECT_EQ(a.histogram("serve.exec_micros").count(), 2u);
    EXPECT_EQ(a.histogram("serve.exec_micros").max(), 9000u);

    // Merging both deltas at once (a relay that batched them) equals
    // merging them one by one — the delta composition the wire relies
    // on when a worker's aux rides multiple results.
    MetricsRegistry src, c;
    src.merge(d1);
    src.merge(d2);
    Json baseline;
    c.merge(src.deltaJson(&baseline));
    EXPECT_EQ(c.snapshotJson(), a.snapshotJson());
}

// ---------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------

TEST(Trace, MultiThreadedRecordingSortsAndParsesBack)
{
    TraceRecorder tr;
    constexpr int kThreads = 4, kEvents = 50;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < kEvents; ++i) {
                uint64_t t0 = tr.nowMicros();
                tr.complete("span", "test", t, t0, 1, "cell");
                tr.instant("mark", "test", t);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    ASSERT_EQ(tr.size(), size_t(kThreads) * kEvents * 2);

    Json j = tr.toJson();
    ASSERT_TRUE(j.isArray());
    ASSERT_EQ(j.size(), tr.size());
    uint64_t lastTs = 0;
    for (size_t i = 0; i < j.size(); ++i) {
        const Json &e = j.at(i);
        ASSERT_TRUE(e.isObject());
        for (const char *key : {"name", "ph", "ts", "pid", "tid"})
            EXPECT_NE(e.find(key), nullptr) << key;
        uint64_t ts = e.find("ts")->asUint();
        EXPECT_GE(ts, lastTs); // sorted at serialization
        lastTs = ts;
        const std::string &ph = e.find("ph")->str();
        EXPECT_TRUE(ph == "X" || ph == "i") << ph;
    }

    // The export both reparses with our parser and round-trips.
    Json parsed;
    ASSERT_TRUE(Json::parse(j.dump(1), &parsed));
    EXPECT_EQ(parsed.size(), j.size());
    EXPECT_TRUE(Json::roundTrips(j));
}

TEST(Trace, EngineEmitsCompileAndRunSpans)
{
    Engine eng(2);
    TraceRecorder tr;
    eng.setTrace(&tr);

    std::vector<RunRequest> grid;
    for (int i = 0; i < 4; ++i)
        grid.push_back(request("(print " + std::to_string(i) + ")",
                               Checking::Off,
                               "cell" + std::to_string(i)));
    eng.runGrid(grid);

    auto countByName = [&](const std::string &name) {
        Json j = tr.toJson();
        size_t n = 0;
        for (size_t i = 0; i < j.size(); ++i)
            if (j.at(i).find("name")->str() == name)
                ++n;
        return n;
    };
    EXPECT_EQ(countByName("compile"), 4u); // one per cache miss
    EXPECT_EQ(countByName("run"), 4u);     // one per executed cell

    // Warm cache: no new compile spans, four more run spans.
    eng.runGrid(grid);
    EXPECT_EQ(countByName("compile"), 4u);
    EXPECT_EQ(countByName("run"), 8u);

    // Detached recorder sees nothing further.
    eng.setTrace(nullptr);
    size_t frozen = tr.size();
    eng.runGrid(grid);
    EXPECT_EQ(tr.size(), frozen);
}

TEST(Trace, EngineEmitsOneImageSpanAndCountsImageTimePerRun)
{
    Engine eng(2);
    TraceRecorder tr;
    eng.setTrace(&tr);
    std::vector<RunRequest> grid;
    for (int i = 0; i < 4; ++i)
        grid.push_back(request("(print " + std::to_string(i) + ")",
                               Checking::Off,
                               "img" + std::to_string(i)));
    eng.runGrid(grid); // cold
    eng.runGrid(grid); // cached

    // One "image" span per executed cell, on the cell's track, ending
    // before that cell's "run" span starts.
    Json j = tr.toJson();
    std::map<std::string, std::vector<const Json *>> images, runs;
    for (size_t i = 0; i < j.size(); ++i) {
        const Json &e = j.at(i);
        const Json *args = e.find("args");
        const Json *label = args ? args->find("label") : nullptr;
        if (label == nullptr)
            continue;
        if (e.find("name")->str() == "image")
            images[label->str()].push_back(&e);
        else if (e.find("name")->str() == "run")
            runs[label->str()].push_back(&e);
    }
    auto byTs = [](std::vector<const Json *> &v) {
        std::sort(v.begin(), v.end(), [](const Json *x, const Json *y) {
            return x->find("ts")->asInt() < y->find("ts")->asInt();
        });
    };
    ASSERT_EQ(images.size(), 4u);
    for (auto &[label, spans] : images) {
        std::vector<const Json *> &cellRuns = runs[label];
        ASSERT_EQ(spans.size(), 2u) << label;
        ASSERT_EQ(cellRuns.size(), 2u) << label;
        byTs(spans);
        byTs(cellRuns);
        for (size_t k = 0; k < 2; ++k) {
            EXPECT_EQ(spans[k]->find("tid")->asInt(),
                      cellRuns[k]->find("tid")->asInt());
            EXPECT_LE(spans[k]->find("ts")->asInt() +
                          spans[k]->find("dur")->asInt(),
                      cellRuns[k]->find("ts")->asInt())
                << label;
        }
    }

    // The counter beside engine.{compile,run}_micros accrues every run.
    Json snap = eng.metrics().snapshot();
    const Json *counters = snap.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("engine.image_micros"), nullptr);
    EXPECT_GT(counters->find("engine.image_micros")->asUint(0), 0u);
    EXPECT_EQ(counters->find("engine.runs")->asUint(0), 8u);
}

TEST(Trace, DrainImportRoundTripsLaneTidAndTraceId)
{
    // The fork-boundary relay: a worker-side recorder drains its
    // events to JSON, the parent imports them verbatim.
    TraceRecorder worker;
    worker.setLane(5);
    uint64_t t0 = worker.nowMicros();
    worker.complete("cell", "serve/worker", 0, t0, 42, "labelA",
                    "t123");
    worker.complete("compile", "engine", 2, t0, 7, "labelB");
    Json drained = worker.drainJson("tFill");
    EXPECT_EQ(worker.size(), 0u); // drain removes
    ASSERT_EQ(drained.size(), 2u);

    TraceRecorder parent; // stays on lane 1; imports keep lane 5
    parent.complete("request", "serve/request", 0, 0, 100, "req",
                    "t123");
    parent.importJson(drained);
    Json j = parent.toJson();

    size_t lane5 = 0, filled = 0, kept = 0;
    for (size_t i = 0; i < j.size(); ++i) {
        const Json &e = j.at(i);
        if (e.find("cat") &&
            e.find("cat")->str() == "__metadata")
            continue;
        if (e.find("pid")->asInt() == 5) {
            ++lane5;
            const Json *args = e.find("args");
            const Json *tid = args ? args->find("traceId") : nullptr;
            ASSERT_NE(tid, nullptr);
            // The span recorded with a trace id keeps it; the one
            // without got the drain-time fill (workers run one cell
            // at a time, so everything drained belongs to it).
            if (tid->str() == "t123")
                ++kept;
            else if (tid->str() == "tFill")
                ++filled;
        }
    }
    EXPECT_EQ(lane5, 2u);
    EXPECT_EQ(kept, 1u);
    EXPECT_EQ(filled, 1u);
    EXPECT_TRUE(Json::roundTrips(j));
}

TEST(Trace, LaneNamespacingKeepsWorkerTracksDistinct)
{
    // Two workers record on engine tid 0 in their own processes; the
    // serve layer gives each a distinct lane (2 + slot), so after the
    // merge the (pid, tid) pairs — Perfetto tracks — stay distinct.
    TraceRecorder w0, w1, parent;
    w0.alignEpoch(parent);
    w1.alignEpoch(parent);
    w0.setLane(2);
    w1.setLane(3);
    w0.complete("cell", "serve/worker", 0, 10, 5, "a", "tA");
    w1.complete("cell", "serve/worker", 0, 12, 5, "b", "tB");
    parent.nameLane(1, "mxl-served");
    parent.nameLane(2, "worker 0");
    parent.nameLane(3, "worker 1");
    parent.importJson(w0.drainJson());
    parent.importJson(w1.drainJson());

    Json j = parent.toJson();
    std::vector<std::pair<int64_t, int64_t>> tracks;
    size_t nameRecords = 0;
    for (size_t i = 0; i < j.size(); ++i) {
        const Json &e = j.at(i);
        if (e.find("cat") &&
            e.find("cat")->str() == "__metadata") {
            EXPECT_EQ(e.find("name")->str(), "process_name");
            ++nameRecords;
            continue;
        }
        tracks.emplace_back(e.find("pid")->asInt(),
                            e.find("tid")->asInt());
    }
    EXPECT_EQ(nameRecords, 3u);
    ASSERT_EQ(tracks.size(), 2u);
    EXPECT_NE(tracks[0], tracks[1]); // same tid, different lanes
}

// ---------------------------------------------------------------------
// Structured event log
// ---------------------------------------------------------------------

TEST(EventLog, SchemaRoundTripsAndLevelsFilter)
{
    std::string path = "/tmp/mxl_test_events_" +
                       std::to_string(::getpid()) + ".jsonl";
    ::unlink(path.c_str());
    {
        EventLog log;
        EXPECT_FALSE(log.enabled()); // no sink: events are dropped
        log.event(EventLog::Level::Error, "dropped");

        std::string err;
        ASSERT_TRUE(log.openFile(path, &err)) << err;
        EXPECT_TRUE(log.enabled());
        log.setMinLevel(EventLog::Level::Info);

        Json f = Json::object();
        f.set("requestId", "r1");
        f.set("traceId", "t42");
        f.set("cells", static_cast<uint64_t>(3));
        log.event(EventLog::Level::Info, "request.done", f);
        log.event(EventLog::Level::Debug, "noise"); // below min level
        log.event(EventLog::Level::Error, "worker.death", f);
        EXPECT_EQ(log.emitted(), 2u);
    }

    std::ifstream in(path);
    std::string line;
    std::vector<Json> lines;
    while (std::getline(in, line)) {
        Json e;
        ASSERT_TRUE(Json::parse(line, &e)) << line;
        EXPECT_TRUE(Json::roundTrips(e));
        lines.push_back(std::move(e));
    }
    ASSERT_EQ(lines.size(), 2u);
    // Fixed envelope first (ts, level, event), request-scoped fields
    // after, in the order the caller set them.
    EXPECT_EQ(lines[0].entry(0).first, "ts");
    EXPECT_GT(lines[0].find("ts")->asUint(), 0u);
    EXPECT_EQ(lines[0].find("level")->str(), "info");
    EXPECT_EQ(lines[0].find("event")->str(), "request.done");
    EXPECT_EQ(lines[0].find("requestId")->str(), "r1");
    EXPECT_EQ(lines[0].find("traceId")->str(), "t42");
    EXPECT_EQ(lines[0].find("cells")->asUint(), 3u);
    EXPECT_EQ(lines[1].find("level")->str(), "error");
    EXPECT_EQ(lines[1].find("event")->str(), "worker.death");
    ::unlink(path.c_str());
}

// ---------------------------------------------------------------------
// Bench comparison (tools/bench_diff's engine)
// ---------------------------------------------------------------------

TEST(BenchCompare, SelfComparisonIsZeroRegression)
{
    Engine eng;
    std::vector<RunRequest> grid = {
        request("(print (add1 1))", Checking::Off, "a"),
        request("(print (add1 2))", Checking::Full, "b"),
    };
    std::vector<RunReport> reports = eng.runGrid(grid);
    Json doc = gridJson(grid, reports);

    std::vector<BenchDelta> cells;
    ASSERT_TRUE(extractBenchCells(doc, &cells));
    EXPECT_EQ(cells.size(), 2u);

    BenchComparison cmp = compareBenchJson(doc, doc);
    ASSERT_EQ(cmp.deltas.size(), 2u);
    for (const BenchDelta &d : cmp.deltas) {
        EXPECT_EQ(d.before, d.after);
        EXPECT_EQ(d.pct(), 0.0);
    }
    EXPECT_TRUE(cmp.onlyBefore.empty());
    EXPECT_TRUE(cmp.onlyAfter.empty());
    EXPECT_TRUE(cmp.regressions(0.0).empty());

    bool failed = true;
    std::string rendered = renderComparison(cmp, 0.0, &failed);
    EXPECT_FALSE(failed);
    EXPECT_FALSE(rendered.empty());
}

TEST(BenchCompare, DetectsRegressionsMissingAndNewLabels)
{
    Json before = Json::array();
    before.push(benchCell("a", 100));
    before.push(benchCell("b", 200));
    before.push(benchCell("gone", 5));
    before.push(benchCell("bad", 1, /*ok=*/false)); // skipped

    // The wrapped-object shape the bench harnesses write.
    Json afterGrid = Json::array();
    afterGrid.push(benchCell("a", 110));
    afterGrid.push(benchCell("b", 190));
    afterGrid.push(benchCell("new", 7));
    Json after = Json::object();
    after.set("bench", "synthetic");
    after.set("grid", std::move(afterGrid));

    BenchComparison cmp = compareBenchJson(before, after);
    ASSERT_EQ(cmp.deltas.size(), 2u);
    EXPECT_DOUBLE_EQ(cmp.deltas[0].pct(), 10.0);  // a: 100 -> 110
    EXPECT_DOUBLE_EQ(cmp.deltas[1].pct(), -5.0);  // b: 200 -> 190
    // "bad" carries no cycle count and drops out entirely; only the
    // genuinely removed label is reported missing.
    EXPECT_EQ(cmp.onlyBefore, std::vector<std::string>{"gone"});
    EXPECT_EQ(cmp.onlyAfter, std::vector<std::string>{"new"});

    auto bad = cmp.regressions(5.0);
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_EQ(bad[0].label, "a");
    EXPECT_TRUE(cmp.regressions(15.0).empty());

    bool failed = false;
    renderComparison(cmp, 5.0, &failed);
    EXPECT_TRUE(failed);
}

TEST(BenchCompare, PctEdgeCases)
{
    BenchDelta d;
    d.before = 0;
    d.after = 0;
    EXPECT_EQ(d.pct(), 0.0);
    d.after = 50;
    EXPECT_EQ(d.pct(), 100.0);
    std::vector<BenchDelta> cells;
    EXPECT_FALSE(extractBenchCells(Json("not a grid"), &cells));
}

} // namespace mxl
