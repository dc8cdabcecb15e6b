#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "analysis/verify.h"
#include "exec/texec.h"
#include "support/panic.h"

namespace mxl {

namespace {

/**
 * The engine whose worker pool is executing the current thread, if any.
 * Set once per worker in workerLoop(); runGrid() consults it to refuse
 * re-entrant grids instead of self-deadlocking.
 */
thread_local const Engine *tlsWorkerOwner = nullptr;

/** Trace track id: 1..N on a worker, 0 on any other thread. */
thread_local int tlsWorkerId = 0;

uint64_t
microsSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

} // namespace

Engine::Engine(unsigned threads, size_t cacheCapacity, size_t cacheMaxBytes)
    : threads_(threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency())),
      cacheCapacity_(std::max<size_t>(1, cacheCapacity)),
      cacheMaxBytes_(cacheMaxBytes)
{
}

Engine::~Engine()
{
    {
        std::lock_guard<std::mutex> lk(poolMu_);
        stopping_ = true;
    }
    poolCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

const char *
backendName(Backend b)
{
    switch (b) {
      case Backend::Auto: return "auto";
      case Backend::Interpreter: return "interpreter";
      case Backend::Translated: return "translated";
    }
    return "?";
}

std::string
Engine::cacheKey(const std::string &source, const CompilerOptions &o,
                 Backend backend)
{
    // Fixed field order; every independent variable of the compilation
    // participates. maxCycles is a run parameter, not a compile one.
    // Auto and Translated share the translated-tier entry (both want
    // the translation attached); Interpreter entries skip translation.
    std::string k;
    k += backend == Backend::Interpreter ? "I|" : "T|";
    k += schemeKindName(o.scheme);
    k += '|';
    k += o.checking == Checking::Full ? 'F' : 'O';
    k += static_cast<char>('0' + static_cast<int>(o.arithMode));
    k += o.hw.ignoreTagOnMemory ? '1' : '0';
    k += o.hw.branchOnTag ? '1' : '0';
    k += o.hw.genericArith ? '1' : '0';
    k += static_cast<char>('0' + static_cast<int>(o.hw.checkedMemory));
    k += o.hw.memTagging ? '1' : '0';
    k += o.fillDelaySlots ? '1' : '0';
    k += o.overlapChecks ? '1' : '0';
    k += o.verifyLinked ? '1' : '0';
    k += '|';
    k += std::to_string(o.memBytes);
    k += ',';
    k += std::to_string(o.staticBytes);
    k += ',';
    k += std::to_string(o.heapBytes);
    k += '\n';
    k += source;
    return k;
}

Engine::Compiled
Engine::getOrCompile(const std::string &source, const CompilerOptions &opts,
                     Backend backend, bool *cacheHit)
{
    const std::string key = cacheKey(source, opts, backend);
    std::shared_future<Compiled> fut;
    std::promise<Compiled> prom;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lk(cacheMu_);
        auto it = cache_.find(key);
        if (it != cache_.end()) {
            ++hits_;
            mCacheHits_.inc();
            *cacheHit = true;
            lru_.splice(lru_.begin(), lru_, it->second);
            fut = it->second->future;
        } else {
            ++misses_;
            mCacheMisses_.inc();
            *cacheHit = false;
            owner = true;
            fut = prom.get_future().share();
            lru_.push_front(CacheEntry{key, fut, 0});
            cache_[key] = lru_.begin();
            evictOverLimits();
        }
    }
    if (!owner)
        return fut.get();

    // Compile outside the cache lock; waiters block on the future.
    Compiled c;
    try {
        auto unit = std::make_shared<CompiledUnit>(compileUnit(source, opts));
        if (backend != Backend::Interpreter) {
            // Translated-tier entry: attach the translation (or the
            // refusal note) to the cached compilation. Translation is a
            // single linear pass; it is timed separately so sweeps can
            // see its cost next to engine.compile_micros.
            auto tT0 = std::chrono::steady_clock::now();
            TranslateResult tr = translateUnit(*unit);
            mTranslateMicros_.inc(microsSince(tT0));
            c.trans = std::move(tr.unit);
            c.transNote = std::move(tr.note);
        }
        c.unit = std::move(unit);
    } catch (const MxlError &e) {
        c.status.code = e.kind == MxlError::Kind::Fatal
                            ? RunStatus::Code::CompileError
                            : RunStatus::Code::InternalError;
        c.status.message = e.what();
    } catch (const std::exception &e) {
        c.status.code = RunStatus::Code::InternalError;
        c.status.message = e.what();
    }
    prom.set_value(c);

    // Account the entry's bytes now that the unit's size is known, and
    // re-check the byte bound (the entry may already be evicted).
    if (c.unit) {
        // An entry costs the pages its pristine image holds, not the
        // address space.
        const size_t bytes =
            c.unit->memory.residentPages() * ZeroPages::kPageBytes;
        std::lock_guard<std::mutex> lk(cacheMu_);
        auto it = cache_.find(key);
        // bytes == 0 guards the evicted-and-reinserted race: only the
        // first finisher for a key accounts the entry.
        if (it != cache_.end() && it->second->bytes == 0) {
            it->second->bytes = bytes;
            cacheBytes_ += it->second->bytes;
            evictOverLimits();
        }
    }
    return c;
}

void
Engine::evictOverLimits()
{
    // LRU back first; the front (most recent) entry always survives, so
    // a unit larger than the whole byte budget is still cached once.
    while (lru_.size() > 1 &&
           (lru_.size() > cacheCapacity_ ||
            (cacheMaxBytes_ > 0 && cacheBytes_ > cacheMaxBytes_))) {
        cacheBytes_ -= lru_.back().bytes;
        cache_.erase(lru_.back().key);
        lru_.pop_back();
        ++evictions_;
        mCacheEvictions_.inc();
    }
}

Engine::CompileOutcome
Engine::compile(const std::string &source, const CompilerOptions &opts)
{
    CompileOutcome out;
    // Share the translated-tier entry: a later default (Auto) run of
    // the same cell then reuses this compilation.
    Compiled c = getOrCompile(source, opts, Backend::Auto, &out.cacheHit);
    out.unit = c.unit;
    out.status = c.status;
    return out;
}

RunReport
Engine::execute(const RunRequest &req)
{
    RunReport rep;
    rep.label = req.label;
    TraceRecorder *tr = trace();
    const int tid = tlsWorkerId;
    auto t0 = std::chrono::steady_clock::now();
    uint64_t trT0 = tr ? tr->nowMicros() : 0;

    const Backend want = req.exec.backend;
    Compiled c = getOrCompile(req.source, req.opts, want, &rep.cacheHit);
    uint64_t compileUs = microsSince(t0);
    mCompileMicros_.inc(compileUs);
    if (tr && !rep.cacheHit)
        tr->complete("compile", "engine", tid, trT0,
                     tr->nowMicros() - trT0, req.label);
    rep.status = c.status;
    if (c.status.ok()) {
        // Tier selection: a non-Interpreter request runs translated
        // when the unit translated and no hook needs the interpreter's
        // seams. Auto falls back (counted per reason + stamped); an
        // explicit Translated request that cannot be satisfied is an
        // error.
        bool useTrans = false;
        std::string note;
        Counter *reason = nullptr;
        if (want != Backend::Interpreter) {
            if (req.hooks.needsInterpreter()) {
                if (req.hooks.machineSetup) {
                    note = "machineSetup needs a live interpreter Machine";
                    reason = &mFallbackMachineSetup_;
                } else {
                    note = "the cached translation describes the "
                           "untransformed unit";
                    reason = &mFallbackUnitTransform_;
                }
            } else if (!c.trans) {
                note = c.transNote.empty() ? "translation refused"
                                           : c.transNote;
                reason = &mFallbackRefused_;
            } else {
                useTrans = true;
            }
        }
        rep.backend = useTrans ? Backend::Translated
                               : Backend::Interpreter;
        if (want == Backend::Translated && !useTrans) {
            rep.status.code = RunStatus::Code::InternalError;
            rep.status.message =
                strcat("translated backend unavailable: ", note);
        } else {
            if (want == Backend::Auto && !useTrans) {
                rep.backendFellBack = true;
                rep.backendNote = note;
                mFallbacks_.inc();
                reason->inc();
            }
            try {
                std::shared_ptr<const CompiledUnit> unit = c.unit;
                if (req.hooks.unitTransform) {
                    unit = req.hooks.unitTransform(unit);
                    if (!unit)
                        fatal("unitTransform returned a null unit");
                    if (req.hooks.verifyTransformed && unit != c.unit) {
                        VerifyResult ver = verifyUnit(*unit);
                        if (!ver.ok())
                            fatal("transformed unit rejected by "
                                  "load-time verifier: ",
                                  ver.render());
                    }
                }
                // The run image: a clone of the pristine image, which
                // copies only the pages the image builder wrote.
                auto tImg = std::chrono::steady_clock::now();
                uint64_t trI0 = tr ? tr->nowMicros() : 0;
                Memory image = unit->memory;
                if (req.hooks.imageMutator)
                    req.hooks.imageMutator(image, *unit);
                mImageMicros_.inc(microsSince(tImg));
                if (tr)
                    tr->complete("image", "engine", tid, trI0,
                                 tr->nowMicros() - trI0, req.label);
                const char *runCat = useTrans ? "engine/translated"
                                              : "engine/interpreter";
                // The snapshot hook, wrapped to mark the pause on this
                // worker's track when tracing. Hook-free requests copy
                // nothing.
                std::function<void(MachineSnapshot &, const CompiledUnit &)>
                    hook;
                if ((req.hooks.pauseAtCycle > 0 ||
                     req.hooks.pauseAtCall >= 0) &&
                    req.hooks.snapshotHook) {
                    hook = req.hooks.snapshotHook;
                    if (tr)
                        hook = [tr, tid, inner = std::move(hook),
                                label = req.label](MachineSnapshot &snap,
                                                   const CompiledUnit &u) {
                            tr->instant("snapshot", "engine", tid, label);
                            inner(snap, u);
                        };
                }
                auto tRun = std::chrono::steady_clock::now();
                uint64_t trR0 = tr ? tr->nowMicros() : 0;
                if (useTrans) {
                    TranslatedControls controls;
                    controls.maxCycles = req.exec.maxCycles;
                    controls.deadlineSeconds = req.exec.deadlineSeconds;
                    controls.installTrapHandlers =
                        req.exec.installTrapHandlers;
                    controls.pauseAtCycle = req.hooks.pauseAtCycle;
                    controls.pauseAtCall = req.hooks.pauseAtCall;
                    controls.snapshotHook = std::move(hook);
                    controls.collectProfile = req.hooks.collectProfile;
                    rep.result = runTranslated(*unit, *c.trans,
                                               std::move(image), controls);
                } else {
                    RunControls controls;
                    controls.maxCycles = req.exec.maxCycles;
                    controls.deadlineSeconds = req.exec.deadlineSeconds;
                    controls.installUnitTrapHandlers =
                        req.exec.installTrapHandlers;
                    controls.machineSetup = req.hooks.machineSetup;
                    controls.pauseAtCycle = req.hooks.pauseAtCycle;
                    controls.pauseAtCall = req.hooks.pauseAtCall;
                    controls.snapshotHook = std::move(hook);
                    controls.collectProfile = req.hooks.collectProfile;
                    rep.result =
                        runUnitOn(*unit, std::move(image), controls);
                }
                mRunMicros_.inc(microsSince(tRun));
                if (tr)
                    tr->complete("run", runCat, tid, trR0,
                                 tr->nowMicros() - trR0, req.label);
                if (rep.result.timedOut) {
                    mTimeouts_.inc();
                    rep.status.code = RunStatus::Code::Timeout;
                    rep.status.message =
                        strcat("deadline of ", req.exec.deadlineSeconds,
                               "s exceeded after ", rep.result.stats.total,
                               " cycles");
                }
            } catch (const MxlError &e) {
                rep.status.code = RunStatus::Code::InternalError;
                rep.status.message = e.what();
            }
        }
    }

    mRuns_.inc();
    mCellMicros_.observe(microsSince(t0));
    rep.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return rep;
}

RunReport
Engine::run(const RunRequest &req)
{
    return execute(req);
}

void
Engine::postFork()
{
    trace_.store(nullptr, std::memory_order_release);
    forked_.store(true, std::memory_order_release);
}

std::vector<RunReport>
Engine::runGrid(const std::vector<RunRequest> &reqs,
                const GridProgress &progress)
{
    if (forked_.load(std::memory_order_acquire)) {
        // Child process after postFork(): the worker threads recorded
        // in workers_ died in the fork, so queueing would hang forever.
        std::vector<RunReport> out(reqs.size());
        for (size_t i = 0; i < reqs.size(); ++i) {
            out[i].label = reqs[i].label;
            out[i].status.code = RunStatus::Code::InternalError;
            out[i].status.message =
                "runGrid() called in a forked child (postFork); only "
                "inline run() is available there";
        }
        return out;
    }
    if (tlsWorkerOwner == this) {
        // Re-entrant call from one of our own workers: blocking on the
        // pool here would deadlock (the calling worker can never drain
        // its own queue). Refuse deterministically instead.
        std::vector<RunReport> out(reqs.size());
        for (size_t i = 0; i < reqs.size(); ++i) {
            out[i].label = reqs[i].label;
            out[i].status.code = RunStatus::Code::InternalError;
            out[i].status.message =
                "runGrid() called from an engine worker thread; "
                "use a separate Engine for nested grids";
        }
        return out;
    }

    ensureWorkers();

    std::vector<std::future<RunReport>> futs;
    futs.reserve(reqs.size());
    {
        std::lock_guard<std::mutex> lk(poolMu_);
        auto enqueued = std::chrono::steady_clock::now();
        for (size_t i = 0; i < reqs.size(); ++i) {
            const RunRequest &req = reqs[i];
            auto task = std::make_shared<std::packaged_task<RunReport()>>(
                [this, req, i, progress, enqueued] {
                    mQueueWait_.observe(microsSince(enqueued));
                    RunReport rep = execute(req);
                    if (progress)
                        progress(i, rep);
                    return rep;
                });
            futs.push_back(task->get_future());
            queue_.push_back([task] { (*task)(); });
        }
    }
    poolCv_.notify_all();

    // Collect in request order: results are deterministic regardless of
    // which worker ran which cell.
    std::vector<RunReport> out;
    out.reserve(reqs.size());
    for (auto &f : futs)
        out.push_back(f.get());
    return out;
}

void
Engine::ensureWorkers()
{
    std::lock_guard<std::mutex> lk(poolMu_);
    if (!workers_.empty() || stopping_)
        return;
    workers_.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

void
Engine::workerLoop(unsigned id)
{
    tlsWorkerOwner = this;
    tlsWorkerId = static_cast<int>(id) + 1;
    Counter &busy =
        metrics_.counter(strcat("engine.worker.", id + 1, ".busy_micros"));
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lk(poolMu_);
            poolCv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
            if (stopping_ && queue_.empty())
                return;
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        auto t0 = std::chrono::steady_clock::now();
        job();
        busy.inc(microsSince(t0));
    }
}

int
Engine::currentWorkerId()
{
    return tlsWorkerId;
}

Engine::CacheStats
Engine::cacheStats() const
{
    std::lock_guard<std::mutex> lk(cacheMu_);
    CacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.entries = cache_.size();
    s.bytes = cacheBytes_;
    s.byteLimit = cacheMaxBytes_;
    s.evictions = evictions_;
    return s;
}

void
Engine::clearCache()
{
    std::lock_guard<std::mutex> lk(cacheMu_);
    cache_.clear();
    lru_.clear();
    cacheBytes_ = 0;
}

Engine &
Engine::defaultEngine()
{
    static Engine engine;
    return engine;
}

} // namespace mxl
