/**
 * perfbench — the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--data DIR]
 *   perfbench --emit-reference PATH
 *
 * Prints a human-readable metric table, then, as the last stdout line,
 * one JSON object {correct, attempted, failed, metrics}. Exit 0 when
 * every output, cycle count and trial outcome matched its reference,
 * 1 on any mismatch, 2 on bad arguments or missing reference data.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload paper_grid|fault_campaign|"
                 "serve_closed --seed N --seconds S --trace 0|1 "
                 "[--data DIR]\n"
                 "       %s --emit-reference PATH\n",
                 argv0, argv0);
    return 2;
}

bool
parseUint(const char *s, uint64_t *out)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    std::string emitPath;
    uint64_t seconds = 10, trace = 0;
    for (int i = 1; i < argc; ++i) {
        const bool hasValue = i + 1 < argc;
        if (!hasValue)
            return usage(argv[0]);
        const std::string flag = argv[i];
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed" && parseUint(v, &a.seed))
            continue;
        else if (flag == "--seconds" && parseUint(v, &seconds) &&
                 seconds >= 1 && seconds <= 3600)
            a.seconds = static_cast<int>(seconds);
        else if (flag == "--trace" && parseUint(v, &trace) && trace <= 1)
            a.trace = trace == 1;
        else if (flag == "--data")
            a.dataDir = v;
        else if (flag == "--emit-reference")
            emitPath = v;
        else
            return usage(argv[0]);
    }
    if (!emitPath.empty())
        return emitReference(emitPath);

    Reference ref;
    std::string err;
    if (!ref.load(a.dataDir, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 2;
    }

    Result r;
    int rc;
    if (a.workload == "paper_grid")
        rc = runPaperGrid(a, ref, &r);
    else if (a.workload == "fault_campaign")
        rc = runFaultCampaign(a, ref, &r);
    else if (a.workload == "serve_closed")
        rc = runServeClosed(a, ref, &r);
    else
        return usage(argv[0]);
    if (rc != 0)
        return rc;

    if (r.attempted == 0)
        r.mismatch("no operation completed");
    r.set("fail_share", static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted ? r.attempted
                                                            : 1));
    r.print(a.workload, a.trace);
    std::printf("%s\n", r.json(a.trace).c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}
