/**
 * @file
 * serve_closed: an in-process Server on a scratch Unix socket with the
 * deployed default of 2 forked workers and a warm cache.
 * loadThreads() client connections run a closed loop: each sends a
 * grid request of 1-4 cells and waits for its terminal response before
 * sending the next, as mxl-client callers do. The request shape is
 * bench_serve's: request n holds 1 + n % 3 tiny cells, drawn from a
 * fixed set of 21 sources (bench_serve's 7 x 3 distinct sources), and
 * every fourth request (n % 4 == 0) adds one program cell. Here the
 * tiny sources are seeded generated programs, and the program cell is
 * one of the four short programs, in turn, each at a seeded Table-2
 * ladder configuration.
 * Setup starts the server and sends every hot cell from each client
 * until a pass compiles nothing, so the workers' private caches are
 * warm when timing starts.
 *
 * Chosen because it is the only workload through the wire, admission,
 * queue and worker relay: a worker-substrate change that helps
 * campaigns but hurts request latency shows here.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "bench.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/format.h"

namespace perfbench {

using namespace mxl;

namespace {

/** bench_serve's distinct tiny sources: 7 operands x 3 cell slots. */
constexpr uint64_t kHotTiny = 21;
/** Requests a window completes at least, so that op_p99_ms rests on
 *  eight requests beyond it, not on the window's one or two worst
 *  (ten would need 1000, more than the benchmark's time budget). */
constexpr size_t kMinRequests = 800;
constexpr size_t kLedgerRequests = 48;

/** One wire cell with what its report must say. */
struct Cell
{
    Json wire;
    std::string label;
    std::string expected;
    uint64_t tinyIndex = 0; ///< tiny cells: program index
    uint64_t cycles = 0;    ///< program cells: reference cycles
    bool tiny = true;
    RunRequest req;         ///< the same cell, for the in-process ledger
};

class Mix
{
  public:
    Mix(uint64_t seed, const Reference &ref) : seed_(seed)
    {
        // One program cell per short campaign program, each at a
        // seeded ladder configuration: the seed moves the
        // configuration, not the size of the work.
        std::vector<PaperCell> ladder = ladderCells();
        std::shuffle(ladder.begin(), ladder.end(), std::mt19937_64(seed));
        for (const std::string &name : campaignPrograms()) {
            const PaperCell &pc = *std::find_if(
                ladder.begin(), ladder.end(),
                [&](const PaperCell &c) { return c.program == name; });
            Cell c;
            c.tiny = false;
            c.req = pc.req;
            c.label = c.req.label;
            c.expected = ref.outputs.at(pc.program);
            c.cycles = ref.cycles.at(c.label);
            c.wire = cellToJson(c.req);
            programs_.push_back(std::move(c));
        }
    }

    Cell
    tiny(uint64_t index) const
    {
        TinyProgram p = tinyProgram(seed_, index);
        Cell c;
        c.tinyIndex = index;
        c.label = strcat("tiny/", index);
        c.expected = p.expected;
        c.req.source = p.source;
        c.req.label = c.label;
        c.wire = cellToJson(c.req);
        return c;
    }

    /** Request @p seq of the stream: bench_serve's 1-3 tiny cells,
     *  plus a program cell on every fourth request. */
    std::vector<Cell>
    request(uint64_t seq) const
    {
        std::mt19937_64 rng(seed_ * 0x9E3779B97F4A7C15ull + seq);
        std::vector<Cell> cells;
        const uint64_t n = 1 + seq % 3;
        for (uint64_t i = 0; i < n; ++i)
            cells.push_back(tiny(rng() % kHotTiny));
        if (seq % 4 == 0)
            cells.push_back(programs_[seq / 4 % programs_.size()]);
        return cells;
    }

    /** Every hot cell, in requests of at most four. */
    std::vector<std::vector<Cell>>
    warmRequests() const
    {
        std::vector<Cell> all = programs_;
        for (uint64_t i = 0; i < kHotTiny; ++i)
            all.push_back(tiny(i));
        std::vector<std::vector<Cell>> reqs;
        for (size_t i = 0; i < all.size(); i += 4)
            reqs.emplace_back(all.begin() + i,
                              all.begin() + std::min(all.size(), i + 4));
        return reqs;
    }

  private:
    uint64_t seed_;
    std::vector<Cell> programs_;
};

struct Window
{
    double wall = 0;
    uint64_t requests = 0;
    uint64_t cells = 0;
    uint64_t cycles = 0;
    uint64_t shed = 0;
    uint64_t programRequests = 0; ///< requests holding a program cell
    std::vector<double> latencyMs;
    std::vector<double> doneAt; ///< seconds from the window start
    std::vector<double> firstCellMs;
    std::vector<double> tailMs;
    std::vector<std::pair<uint64_t, uint64_t>> tinySeen; ///< index, cycles
};

/** Send one request and check every cell report. */
void
oneRequest(ServeClient &client, const std::string &id,
           const std::vector<Cell> &cells, Clock::time_point windowStart,
           Window *w, Result *r)
{
    std::vector<Json> wire;
    for (const Cell &c : cells)
        wire.push_back(c.wire);
    std::vector<char> got(cells.size(), 0);
    double firstMs = -1;
    const Clock::time_point t0 = Clock::now();
    ServeClient::GridOutcome out = client.runGrid(
        id, wire, 0, [&](size_t index, const Json &rep) {
            if (firstMs < 0)
                firstMs = secondsSince(t0) * 1e3;
            if (index >= cells.size() || got[index]) {
                r->mismatch(strcat(id, ": unexpected cell ", index));
                return;
            }
            got[index] = 1;
            const Cell &c = cells[index];
            const Json *ok = rep.find("statusOk");
            const Json *output = rep.find("output");
            const Json *stats = rep.find("stats");
            const Json *total = stats ? stats->find("total") : nullptr;
            const uint64_t cycles = total ? total->asUint() : 0;
            if (!ok || !ok->asBool() || !output ||
                output->str() != c.expected ||
                (!c.tiny && cycles != c.cycles))
                r->mismatch(strcat(id, "/", c.label, ": report differs "
                                                     "from the reference"));
            w->cycles += cycles;
            if (c.tiny)
                w->tinySeen.emplace_back(c.tinyIndex, cycles);
        });
    const double ms = secondsSince(t0) * 1e3;
    w->requests++;
    w->cells += cells.size();
    if (std::any_of(cells.begin(), cells.end(),
                    [](const Cell &c) { return !c.tiny; }))
        w->programRequests++;
    using Kind = ServeClient::GridOutcome::Kind;
    if (out.kind == Kind::Overloaded) {
        w->shed++;
        r->failedOp(strcat(id, ": shed"));
    } else if (out.kind != Kind::Done) {
        r->failedOp(strcat(id, ": ", out.message));
    } else if (std::count(got.begin(), got.end(), 1) !=
               static_cast<long>(cells.size())) {
        r->failedOp(strcat(id, ": a cell report is missing"));
    } else {
        w->latencyMs.push_back(ms);
        w->doneAt.push_back(secondsSince(windowStart));
        w->firstCellMs.push_back(firstMs);
        w->tailMs.push_back(ms - firstMs);
    }
}

/** A started server with its event-loop thread. */
struct Running
{
    std::unique_ptr<Server> server;
    std::thread loop;

    void
    stop()
    {
        if (!server)
            return;
        server->requestStop();
        loop.join();
        server.reset();
    }
};

bool
startServer(const std::string &socket, const std::string &tracePath,
            Running *out, std::string *err)
{
    ::unlink(socket.c_str());
    ServerOptions o;
    o.unixPath = socket;
    o.workers = 2;
    o.warmCache = true;
    o.tracePath = tracePath;
    auto server = std::make_unique<Server>(std::move(o));
    if (!server->start(err))
        return false;
    out->server = std::move(server);
    Server *s = out->server.get();
    out->loop = std::thread([s] { s->serve(); });
    return true;
}

bool
health(const std::string &socket, Json *out)
{
    ServeClient client;
    std::string err;
    return client.connectUnix(socket, &err) && client.health(out, &err);
}

uint64_t
counter(const Json &health, const std::string &name)
{
    const Json *m = health.find("metrics");
    const Json *c = m ? m->find("counters") : nullptr;
    const Json *v = c ? c->find(name) : nullptr;
    return v ? v->asUint() : 0;
}

/** Warm passes a set-up makes at most. */
constexpr int kMaxWarmPasses = 8;

/**
 * Start the server, then warm both workers' caches: every client sends
 * every hot cell, pass after pass, until a pass compiles nothing. Which
 * worker runs a cell is the server's choice and each worker has its own
 * cache, so one pass leaves some (cell, worker) pairs cold, and their
 * compiles would land in the timed window. Adds the warm cells to
 * @p *warmCells.
 */
bool
setUp(const Mix &mix, const std::string &socket,
      const std::string &tracePath, Running *out, Result *r,
      std::atomic<uint64_t> *warmCells)
{
    std::string err;
    if (!startServer(socket, tracePath, out, &err)) {
        std::fprintf(stderr, "perfbench: server start: %s\n", err.c_str());
        return false;
    }
    const auto warm = mix.warmRequests();
    uint64_t misses = 0;
    for (int pass = 0; pass < kMaxWarmPasses; ++pass) {
        std::vector<std::thread> clients;
        std::atomic<bool> ok{true};
        for (unsigned t = 0; t < loadThreads(); ++t)
            clients.emplace_back([&, t] {
                ServeClient client;
                std::string cerr;
                if (!client.connectUnix(socket, &cerr)) {
                    ok = false;
                    return;
                }
                Window warmed;
                for (size_t i = 0; i < warm.size(); ++i)
                    oneRequest(client, strcat("warm", pass, "-", t, "-", i),
                               warm[i], Clock::now(), &warmed, r);
                *warmCells += warmed.cells;
                std::lock_guard<std::mutex> lk(r->mu);
                r->attempted += warmed.requests;
            });
        for (std::thread &t : clients)
            t.join();
        Json h;
        if (!ok || !health(socket, &h))
            return false;
        const uint64_t m = counter(h, "engine.cache.misses");
        if (pass > 0 && m == misses)
            return true;
        misses = m;
    }
    return true;
}

Window
measure(const Mix &mix, const std::string &socket, double seconds,
        std::atomic<uint64_t> *seq, Result *r)
{
    const unsigned n = loadThreads();
    std::vector<Window> per(n);
    std::atomic<size_t> sent{0};
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < n; ++t)
        clients.emplace_back([&, t] {
            ServeClient client;
            std::string err;
            if (!client.connectUnix(socket, &err)) {
                r->failedOp("client connect: " + err);
                return;
            }
            while (sent.fetch_add(1) < kMinRequests ||
                   secondsSince(start) < seconds) {
                const uint64_t s = seq->fetch_add(1);
                oneRequest(client, strcat("r", s), mix.request(s), start,
                           &per[t], r);
            }
        });
    for (std::thread &t : clients)
        t.join();
    Window all;
    all.wall = secondsSince(start);
    for (const Window &w : per) {
        all.requests += w.requests;
        all.cells += w.cells;
        all.cycles += w.cycles;
        all.shed += w.shed;
        all.programRequests += w.programRequests;
        for (auto [dst, src] :
             {std::pair{&all.latencyMs, &w.latencyMs},
              std::pair{&all.doneAt, &w.doneAt},
              std::pair{&all.firstCellMs, &w.firstCellMs},
              std::pair{&all.tailMs, &w.tailMs}})
            dst->insert(dst->end(), src->begin(), src->end());
        all.tinySeen.insert(all.tinySeen.end(), w.tinySeen.begin(),
                            w.tinySeen.end());
    }
    r->attempted += all.requests;
    return all;
}

double
programShare(const Window &w)
{
    return w.requests ? static_cast<double>(w.programRequests) / w.requests
                      : 0;
}

uint64_t
histogramField(const Json &health, const std::string &name,
               const char *field)
{
    const Json *m = health.find("metrics");
    const Json *h = m ? m->find("histograms") : nullptr;
    const Json *x = h ? h->find(name) : nullptr;
    const Json *v = x ? x->find(field) : nullptr;
    return v ? v->asUint() : 0;
}

} // namespace

int
runServeClosed(const Args &a, const Reference &ref, Result *r)
{
    const Mix mix(a.seed, ref);
    const std::string socket = strcat(tmpDir(), "/serve-", ::getpid(),
                                      ".sock");

    std::vector<double> setups;
    Running srv;
    std::atomic<uint64_t> warmCells{0};
    CpuTimes c0;
    for (int k = 0; k < 3; ++k) {
        srv.stop();
        warmCells = 0;
        c0 = cpuTimes();
        const Clock::time_point t0 = Clock::now();
        if (!setUp(mix, socket, "", &srv, r, &warmCells)) {
            srv.stop();
            return 1;
        }
        setups.push_back(secondsSince(t0));
    }

    std::atomic<uint64_t> seq{0};
    Json h0, h1;
    bool haveHealth = health(socket, &h0);
    Window plain = measure(mix, socket, a.seconds, &seq, r);
    haveHealth = haveHealth && health(socket, &h1);
    srv.stop();
    const CpuTimes c1 = cpuTimes();
    // Before the checks below add their own images to the high-water mark.
    const double peakRss = peakRssMb();
    ::unlink(socket.c_str());
    Engine checker(1);
    checkTinyCycles(checker, a.seed, plain.tinySeen, r);
    if (!haveHealth)
        r->failedOp("health probe failed");
    if (!a.trace) {
        r->set("setup_s", median(setups));
        r->set("ops_per_s", medianRate(plain.doneAt));
        r->set("op_p50_ms", percentile(plain.latencyMs, 0.5));
        r->set("op_p99_ms", percentile(plain.latencyMs, 0.99));
        r->set("peak_rss_mb", peakRss);
        std::printf("serve_closed: %zu request latency samples, "
                    "program-cell share of requests %.4f\n",
                    plain.latencyMs.size(), programShare(plain));
        return 0;
    }

    // Worker-side shares over the untraced window, from the summed
    // worker counters the health endpoint relays home.
    auto delta = [&](const char *name) {
        return static_cast<double>(counter(h1, name) - counter(h0, name));
    };
    const double hits = delta("engine.cache.hits");
    const double misses = delta("engine.cache.misses");
    const double compileUs = delta("engine.compile_micros");
    const double runUs = delta("engine.run_micros");
    const double runs = delta("engine.runs");
    const double queued =
        static_cast<double>(histogramField(h1, "serve.queue_micros", "count") -
                            histogramField(h0, "serve.queue_micros", "count"));
    const double queueUs =
        static_cast<double>(histogramField(h1, "serve.queue_micros", "sum") -
                            histogramField(h0, "serve.queue_micros", "sum"));
    r->set("serve.cache_hit_share", hits + misses ? hits / (hits + misses) : 0);
    r->set("engine.cache_hit_share",
           hits + misses ? hits / (hits + misses) : 0);
    r->set("serve.worker_compile_share",
           compileUs + runUs ? compileUs / (compileUs + runUs) : 0);
    r->set("engine.fallback_share",
           runs ? delta("engine.backend.fallbacks") / runs : 0);
    const double cellUs =
        static_cast<double>(histogramField(h1, "engine.cell_micros", "sum") -
                            histogramField(h0, "engine.cell_micros", "sum"));
    r->set("engine.image_ms",
           runs ? (cellUs - compileUs - runUs) / 1e3 / runs : 0);
    r->set("engine.queue_wait_ms", queued ? queueUs / 1e3 / queued : 0);
    r->set("serve.worker_deaths",
           static_cast<double>(h1.find("workerDeaths")
                                   ? h1.find("workerDeaths")->asUint()
                                   : 0));
    r->set("serve.shed", static_cast<double>(plain.shed));
    r->set("serve.program_request_share", programShare(plain));
    r->set("serve.first_cell_ms", median(plain.firstCellMs));
    r->set("serve.tail_ms", median(plain.tailMs));

    // Traced pass: a fresh server recording the merged service trace.
    const std::string tracePath = "BENCH_perfbench_serve_closed_service.json";
    std::atomic<uint64_t> tracedWarmCells{0};
    if (!setUp(mix, socket, tracePath, &srv, r, &tracedWarmCells)) {
        srv.stop();
        return 1;
    }
    Window traced = measure(mix, socket, a.seconds, &seq, r);
    srv.stop();
    ::unlink(socket.c_str());
    checkTinyCycles(checker, a.seed, traced.tinySeen, r);

    // Ledger: the cells of the first requests, in-process on a fresh
    // engine and two threads, as the two fresh workers would run them.
    TraceRecorder trace;
    Engine eng(1);
    eng.setTrace(&trace);
    std::vector<RunRequest> cells;
    for (uint64_t s = 0; s < kLedgerRequests; ++s)
        for (const Cell &c : mix.request(s))
            cells.push_back(c.req);
    const LedgerTotals ledger = replayCells(eng, cells, 2, &trace, r);
    eng.setTrace(nullptr);

    // The kept server's workers, reaped at its stop, over the cells
    // they ran: the warm pass and the window.
    r->set("proc.minor_faults_per_cell",
           static_cast<double>(c1.childMinorFaults - c0.childMinorFaults) /
               (warmCells + plain.cells));
    r->set("sim.mcycles_per_s", plain.cycles / plain.wall / 1e6);
    r->set("ops.samples", static_cast<double>(plain.latencyMs.size()));
    r->set("trace.overhead_share",
           1.0 - medianRate(traced.doneAt) /
                     medianRate(plain.doneAt));

    Json extra = Json::object();
    extra.set("requests", plain.requests);
    extra.set("cells", plain.cells);
    finishTraced("serve_closed", a, ledger, extra, trace, r);
    return 0;
}

} // namespace perfbench
